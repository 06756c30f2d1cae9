"""Seeded fan-out scenarios: one active source feeding N one-dimensional launch modes.

The source holds psi0 = e_0 and has no own block, so in oneway mode its
amplitude stays 1 and launch mode k grows as -i g_k t. With the couplings
normalised to sum g_k^2 = 1 this gives closed forms the benchmark checks
against the program's outputs:

* collapse shares g_k^2,
* square modulus s(t) = 1 + t^2 and survival S(t) = 1 / (1 + t^2),
* currents J_k(t) = 2 g_k^2 t.

Models are built from the public ``gapflow.model`` classes; ``gapflow`` is
imported at call time so the benchmark can re-import the package while it
measures set-up.
"""

from __future__ import annotations

import numpy as np


def couplings(n_modes: int, seed: int) -> np.ndarray:
    """Coupling g_k of launch mode k + 1, drawn from ``seed``, sum g_k^2 = 1."""
    g = np.random.default_rng(seed).uniform(0.5, 1.5, n_modes)
    return g / np.sqrt(np.sum(g * g))


def fan_out(n_modes: int, seed: int, dt: float, t_max: float):
    """ScenarioModel of dimension n_modes + 1 with seeded couplings."""
    from gapflow.model import (ACTIVE, LAUNCH, Component, Gap, HamiltonianPartition,
                               OperatorBlock, RunDefaults, ScenarioModel)

    dim = n_modes + 1
    g = couplings(n_modes, seed)
    components = [Component(0, (0,), 0, ACTIVE)]
    components += [Component(k, (k,), 1, LAUNCH) for k in range(1, dim)]
    gaps = [Gap(0, k, True, OperatorBlock(dim, ((k, 0, complex(g[k - 1])),)))
            for k in range(1, dim)]
    psi0 = np.zeros(dim, dtype=np.complex128)
    psi0[0] = 1.0
    return ScenarioModel(
        dim=dim, components=tuple(components),
        hamiltonian=HamiltonianPartition(own={}, interactions=tuple(gaps)),
        psi0=psi0,
        defaults=RunDefaults(dt=dt, t_max=t_max, rules="nrules3", gap_mode="oneway",
                             seed=seed))


def write_fan_out(path, n_modes: int, seed: int, dt: float, t_max: float) -> None:
    """Write the fan-out scenario document with ``serialize_scenario``."""
    from gapflow.model import serialize_scenario, validate_model

    model = fan_out(n_modes, seed, dt, t_max)
    report = validate_model(model)
    if not report.ok:
        raise RuntimeError(f"generated fan-out scenario is invalid: {report.render()}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_scenario(model))
