"""Shared fixtures and helpers for the test suite."""

import pathlib

import numpy as np
import pytest

from gapflow.fixtures import (
    chain_three_level,
    detuned_two_level,
    three_mode,
    two_level,
    two_mode_symmetric,
)
from gapflow.model import (ACTIVE, LAUNCH, Component, Gap, HamiltonianPartition, OperatorBlock,
                           ScenarioModel)

SCENARIO_DIR = pathlib.Path(__file__).resolve().parents[1] / "scenarios"

# A two-dimensional launch component C1 that sources a further gap: after a
# collapse onto C1 the trajectory's state is not a multiple of a unit vector,
# so epoch 1 runs on a private table; C1 -> C2 then lands on a shared one.
WIDE_LAUNCH = {
    "schema": "scenario/1",
    "dim": 4,
    "components": [
        {"id": 0, "indices": [0], "entropy_rank": 0, "status": "active"},
        {"id": 1, "indices": [1, 2], "entropy_rank": 1, "status": "launch"},
        {"id": 2, "indices": [3], "entropy_rank": 2, "status": "active"},
    ],
    "gaps": [
        {"low": 0, "high": 1, "entries": [[1, 0, 1.0, 0.0], [2, 0, 0.5, 0.0]]},
        {"low": 1, "high": 2, "entries": [[3, 1, 0.7, 0.0], [3, 2, 0.3, 0.0]]},
    ],
    "own": [{"component": 1, "entries": [[1, 2, 0.5, 0.0], [2, 1, 0.5, 0.0]]}],
    "psi0": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    "defaults": {"dt": 0.01, "t_max": 3.0, "rules": "nrules3",
                 "gap_mode": "oneway", "seed": 1, "sample_every": 1},
}


@pytest.fixture
def two_level_model():
    return two_level()


@pytest.fixture
def detuned_model():
    return detuned_two_level()


@pytest.fixture
def two_mode_model():
    return two_mode_symmetric()


@pytest.fixture
def three_mode_model():
    return three_mode()


@pytest.fixture
def chain_model():
    return chain_three_level()


@pytest.fixture
def scenario_dir():
    return SCENARIO_DIR


def scenario_path(name):
    return SCENARIO_DIR / f"{name}.json"


def star_model(n_modes):
    """One detuned active mode feeding ``n_modes`` one-dimensional launch modes."""
    dim = n_modes + 1
    g = np.linspace(0.5, 1.5, n_modes) / np.sqrt(n_modes)
    components = (Component(0, (0,), 0, ACTIVE),) + tuple(
        Component(k, (k,), 1, LAUNCH) for k in range(1, dim))
    gaps = tuple(Gap(0, k, True, OperatorBlock(dim, ((k, 0, complex(g[k - 1])),)))
                 for k in range(1, dim))
    own = {0: OperatorBlock(dim, ((0, 0, 0.3 + 0j),))}
    psi0 = np.zeros(dim, dtype=complex)
    psi0[0] = 1.0
    return ScenarioModel(dim, components, HamiltonianPartition(own, gaps), psi0)
