"""Builders for the small reference scenarios used by tests and scripts.

Each builder returns a validated ScenarioModel. The JSON copies under
``scenarios/`` are generated from these by ``scripts/regen_fixtures.py``;
edit here, then regenerate, so the two never drift.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ScenarioValidationError
from .model import (ACTIVE, LAUNCH, Component, Gap, HamiltonianPartition,
                    OperatorBlock, RunDefaults, ScenarioModel, validate_model)

_DEFAULTS = RunDefaults()


def _build(dim, components, gaps, own, psi0, defaults) -> ScenarioModel:
    model = ScenarioModel(
        dim=dim, components=tuple(components),
        hamiltonian=HamiltonianPartition(own=own, interactions=tuple(gaps)),
        psi0=np.array(psi0, dtype=np.complex128), defaults=defaults)
    report = validate_model(model)
    if not report.ok:
        raise ScenarioValidationError(report)
    return model


def two_level(g: float = 1.0, defaults: RunDefaults = _DEFAULTS) -> ScenarioModel:
    """One active source feeding one launch component across a single gap.

    With gap_mode oneway and psi0 = (1, 0) this has closed forms:
    psi1(t) = -i g t, s(t) = 1 + (g t)^2, survival S(t) = 1 / (1 + (g t)^2).
    """
    return _build(
        dim=2,
        components=[Component(0, (0,), 0, ACTIVE), Component(1, (1,), 1, LAUNCH)],
        gaps=[Gap(0, 1, True, OperatorBlock(2, ((1, 0, complex(g)),)))],
        own={},
        psi0=[1.0, 0.0],
        defaults=defaults,
    )


def detuned_two_level(g: float = 0.5, e0: float = 1.5,
                      defaults: RunDefaults = _DEFAULTS) -> ScenarioModel:
    """Two-level gap with an own-energy phase winding on the source."""
    return _build(
        dim=2,
        components=[Component(0, (0,), 0, ACTIVE), Component(1, (1,), 1, LAUNCH)],
        gaps=[Gap(0, 1, True, OperatorBlock(2, ((1, 0, complex(g)),)))],
        own={0: OperatorBlock(2, ((0, 0, complex(e0)),))},
        psi0=[1.0, 0.0],
        defaults=defaults,
    )


def two_mode_symmetric(g: float = 1.0, defaults: RunDefaults = _DEFAULTS) -> ScenarioModel:
    """One source, two equally coupled launch components; shares are 1/2 each."""
    return _build(
        dim=3,
        components=[Component(0, (0,), 0, ACTIVE),
                    Component(1, (1,), 1, LAUNCH),
                    Component(2, (2,), 1, LAUNCH)],
        gaps=[Gap(0, 1, True, OperatorBlock(3, ((1, 0, complex(g)),))),
              Gap(0, 2, True, OperatorBlock(3, ((2, 0, complex(g)),)))],
        own={},
        psi0=[1.0, 0.0, 0.0],
        defaults=defaults,
    )


def three_mode(defaults: RunDefaults = _DEFAULTS) -> ScenarioModel:
    """Three launch components with couplings (1, 1, sqrt 2).

    Every current scales as the squared coupling times the same source
    profile, so the choice shares are 1/4, 1/4, 1/2 at any hit time.
    """
    g3 = math.sqrt(2.0)
    return _build(
        dim=4,
        components=[Component(0, (0,), 0, ACTIVE),
                    Component(1, (1,), 1, LAUNCH),
                    Component(2, (2,), 1, LAUNCH),
                    Component(3, (3,), 1, LAUNCH)],
        gaps=[Gap(0, 1, True, OperatorBlock(4, ((1, 0, 1 + 0j),))),
              Gap(0, 2, True, OperatorBlock(4, ((2, 0, 1 + 0j),))),
              Gap(0, 3, True, OperatorBlock(4, ((3, 0, complex(g3)),)))],
        own={},
        psi0=[1.0, 0.0, 0.0, 0.0],
        defaults=defaults,
    )


def chain_three_level(g1: float = 1.0, g2: float = 0.7,
                      defaults: RunDefaults = _DEFAULTS) -> ScenarioModel:
    """Two chained gaps: realizing the middle component bridges the second gap.

    The last component starts plain active (empty placeholder); it is switched
    to launch by the engine when the middle component realizes.
    """
    return _build(
        dim=3,
        components=[Component(0, (0,), 0, ACTIVE),
                    Component(1, (1,), 1, LAUNCH),
                    Component(2, (2,), 2, ACTIVE)],
        gaps=[Gap(0, 1, True, OperatorBlock(3, ((1, 0, complex(g1)),))),
              Gap(1, 2, True, OperatorBlock(3, ((2, 1, complex(g2)),)))],
        own={},
        psi0=[1.0, 0.0, 0.0],
        defaults=defaults,
    )


BUILDERS = {
    "two_level": two_level,
    "detuned_two_level": detuned_two_level,
    "two_mode_symmetric": two_mode_symmetric,
    "three_mode": three_mode,
    "chain_three_level": chain_three_level,
}
