"""Stochastic trigger, component choice, collapse, and the epoch loop.

A trajectory is a run of epochs, each integrated by fixed-step RK4 under one
generator. The hit rate r is the sum of positive launch currents over the
total square modulus. A step of length h whose end rate is positive adds the
trapezoid hazard r_bar h to the epoch's cumulative hazard H (a step ending at
rate 0 adds nothing, so a chosen component always has positive current at
t_sc). One E ~ Exp(1) is drawn per epoch and the hit lands on the first step
whose H exceeds E: survival to step k is exp(-H_k), the product of
exp(-r_bar h), as for a per-step draw with p = 1 - exp(-r_bar h) (the
waiting-time method of Monte-Carlo wavefunction solvers). A hit zeroes the
other components exactly, marks the chosen one realized, bridges the gaps it
sources and starts the next epoch; with no bridged gap left the trajectory is
quiescent, and its last epoch's table holds the collapsed state alone, with
no generator assembled.

Every generator mode is homogeneous of degree 1 (the compensated loss J/s_low
is scale-free), so an epoch is tabulated (dynamics.EpochTable) from a
canonical start, psi0 or the unit basis state of a one-dimensional chosen
component, and a trajectory carries a complex scale c: states c times the
table's, s and J |c|^2 times, rates and hazard unchanged. Once its E is
drawn, an epoch of a trajectory is a lookup into its table, so
EpochRunner.walk advances a block of trajectories at once, grouped by
(epoch, last chosen component): one searchsorted finds every hit row of a
group, one cumulative-weights comparison every choice, and one array pass
collapses every choice of a one-dimensional component, at any epoch and from
any table, onto the next epoch's shared table. A collapse onto a wider
component starts a table of its own, walked as a group of one. Every
EpochRunner keeps its shared tables for its own life; a caller's gen_cache
only shares them across runners.
run_ensemble walks its trajectories in blocks (ensemble.BLOCK) and
run_trajectory walks a block of one, so both run the same epoch loop.

nrules3 and nrules4 share every code path; the variant only relabels the
frozen status. Randomness comes from a counter-based Philox substream keyed
by (seed, trajectory index), so results cannot depend on scheduling or on
how trajectories are split into blocks; the walk draws each block's
numbers through gapflow.substreams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .dynamics import (CurrentVector, EffectiveGenerator, EpochTable, GapSemantics,
                       IntegratorConfig, StepPlan, _check_epoch_drift, assemble_generator,
                       square_moduli)
from .dynamics import step_grid  # noqa: F401  (kept importable as engine.step_grid)
from .errors import CollapseOnEmptyError, GapflowError, NoChoiceError
from .model import (LAUNCH, REALIZED, ZEROED, ScenarioModel, component_moduli, project,
                    square_modulus)
from .rules import RuleSet
from .substreams import substream_keys, substream_pair
from .substreams import trajectory_rng  # noqa: F401  (kept importable as engine.trajectory_rng)

PRESERVE_TOTAL = "preserve_total"
RAW = "raw"
NORM_POLICIES = (PRESERVE_TOTAL, RAW)

TERMINAL_T_MAX = "t_max"
TERMINAL_QUIESCENT = "quiescent"


@dataclass(frozen=True)
class CollapseEvent:
    t_sc: float
    chosen: int
    pre_hit_s: float
    pre_hit_J: CurrentVector
    epoch: int
    norm_policy: str = PRESERVE_TOTAL

    def to_record(self, trajectory_id: int) -> dict:
        return {
            "trajectory_id": trajectory_id,
            "epoch": self.epoch,
            "t_sc": self.t_sc,
            "chosen": self.chosen,
            "pre_hit_s": self.pre_hit_s,
            "J": {str(m): j for m, j in self.pre_hit_J.as_dict().items()},
            "norm_policy": self.norm_policy,
        }


@dataclass
class TrajectorySamples:
    """Columnar time series: one row per recorded sample."""

    times: np.ndarray
    s: np.ndarray
    moduli: np.ndarray            # (n, n_components), order = component_ids
    currents: np.ndarray          # (n, n_candidates), order = current_ids
    component_ids: tuple[int, ...]
    current_ids: tuple[int, ...]  # every component that can ever be hit


@dataclass
class TrajectoryRecord:
    samples: TrajectorySamples | None
    events: list[CollapseEvent]
    terminal: str
    meta: dict = field(default_factory=dict)

    @property
    def first_event(self) -> CollapseEvent | None:
        return self.events[0] if self.events else None


def _choose(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row of non-negative ``weights``, the column that the uniform draw
    u lands in: the first whose cumulative weight exceeds u times the row's
    total."""
    total = weights.sum(axis=1)
    if not (total > 0.0).all():
        raise NoChoiceError("no component carries positive current")
    k = (weights.cumsum(axis=1) <= (u * total)[:, None]).sum(axis=1)
    for j in (k == weights.shape[1]).nonzero()[0].tolist():
        # u rounded up to the total: take the last component that carries
        # current, never a trailing zero-weight one.
        k[j] = weights[j].nonzero()[0][-1]
    return k


def post_collapse_statuses(model: ScenarioModel, chosen: int) -> dict[int, str]:
    """Statuses after ``chosen`` realizes: gaps it sources get bridged, the
    rest of the superposition is zeroed for good."""
    relaunched = {g.high for g in model.gaps if g.irreversible and g.low == chosen}
    statuses = {}
    for c in model.components:
        if c.id == chosen:
            statuses[c.id] = REALIZED
        elif c.id in relaunched:
            statuses[c.id] = LAUNCH
        else:
            statuses[c.id] = ZEROED
    return statuses


def _check_policy(policy: str):
    if policy not in NORM_POLICIES:
        raise GapflowError(f"unknown norm policy {policy!r}")


def collapse_state(psi: np.ndarray, chosen: int, model: ScenarioModel,
                   policy: str = PRESERVE_TOTAL) -> np.ndarray:
    """``psi`` with everything outside ``chosen`` zeroed.

    Under preserve_total (default) the surviving amplitudes are rescaled so
    the total square modulus is unchanged; under raw they are kept verbatim.
    """
    _check_policy(policy)
    s_pre = square_modulus(psi)
    collapsed = project(psi, chosen, model)
    s_chosen = square_modulus(collapsed)
    if s_chosen <= 0.0:
        raise CollapseOnEmptyError(
            f"component {chosen} has zero amplitude at collapse time")
    if policy == PRESERVE_TOTAL:
        collapsed *= math.sqrt(s_pre / s_chosen)
    return collapsed


def _abs2(c: complex) -> float:
    return c.real * c.real + c.imag * c.imag


def _unit(model: ScenarioModel, chosen: int) -> np.ndarray:
    """The unit basis state of a one-dimensional component."""
    start = np.zeros(model.dim, dtype=np.complex128)
    start[model.index_arrays[chosen][0]] = 1.0
    return start


class Leg(NamedTuple):
    """One epoch of one trajectory."""

    table: EpochTable
    scale: complex          # the trajectory's state is scale * table state
    k0: int                 # steps of the run before the epoch
    n: int                  # steps integrated in the epoch
    t: float                # time after them: the hit time when chosen is set
    last: int               # the table row of the epoch's point at t
    chosen: int | None

    @property
    def s(self) -> float:
        return _abs2(self.scale) * float(self.table.s[self.last])

    @property
    def J(self) -> np.ndarray:
        return _abs2(self.scale) * self.table.J[self.last]

    @property
    def neg(self) -> int:
        return int(self.table.neg[self.last])


class LegGroup(NamedTuple):
    """One epoch of the trajectories of a block that share a table; the
    arrays hold one entry per trajectory."""

    epoch: int
    table: EpochTable
    pos: np.ndarray         # the trajectories' positions in the block
    scale: np.ndarray       # complex: a trajectory's state is scale * table state
    k0: np.ndarray          # steps of the run before the epoch
    n: np.ndarray           # steps integrated in the epoch
    last: np.ndarray        # table row after them: the pre-hit row of a hit
    chosen: np.ndarray      # component realized at the end, -1 for none
    quiescent: bool         # no bridged gap: the epoch closed at once


class EpochRunner:
    """The epoch loop of run_trajectory and run_ensemble, with its step plan.

    Every runner keeps, per (model, rule set, gap mode), the generators and,
    per IntegratorConfig, the step plan and the tables its walks share, for
    its own life. They live in ``gen_cache``, a dict the caller keeps to
    share them across runners too, or a private one when it passes none.
    """

    def __init__(self, model: ScenarioModel, ruleset: RuleSet, cfg: IntegratorConfig,
                 gap_mode: GapSemantics, seed: int, policy: str = PRESERVE_TOTAL,
                 gen_cache: dict | None = None):
        self.model, self.ruleset, self.cfg, self.gap_mode = model, ruleset, cfg, gap_mode
        self.seed, self.policy = seed, policy
        # (last chosen, epoch) -> generator; cfg -> (plan, tables), where
        # tables maps (epoch, last chosen) -> table
        self._gens, plans = ({} if gen_cache is None else gen_cache).setdefault(
            (model, ruleset, gap_mode), ({}, {}))
        if cfg not in plans:
            plans[cfg] = (StepPlan.of(cfg), {})
        plan, self.tables = plans[cfg]
        self.plan = plan
        self.times, self.sampled, self.rem, self.n_full = plan
        self._sources = frozenset(g.low for g in model.gaps if g.irreversible)
        # Component ids, sorted, and per id the basis index of a
        # one-dimensional component or -1 for a wider one.
        ids = sorted(model.index_arrays)
        self._ids = np.array(ids)
        self._col = np.array([int(model.index_arrays[c][0]) if len(model.index_arrays[c]) == 1
                              else -1 for c in ids])

    def generator(self, chosen: int | None, epoch: int) -> EffectiveGenerator:
        """Generator after collapsing onto ``chosen`` (None: the initial one)."""
        gen = self._gens.get((chosen, epoch))
        if gen is None:
            statuses = (self.model.initial_statuses() if chosen is None
                        else post_collapse_statuses(self.model, chosen))
            gen = self._gens[(chosen, epoch)] = assemble_generator(
                self.model, self.ruleset, self.gap_mode, statuses=statuses, epoch=epoch)
        return gen

    def quiescent(self, chosen: int | None) -> bool:
        """Whether the epoch after collapsing onto ``chosen`` (None: epoch 0)
        is quiescent: it takes no step and reads its start row only.

        That is so when ``chosen`` sources no irreversible gap, which is
        ``not gen.backflows`` for its generator in every gap mode and rule
        set: post_collapse_statuses then launches no component and zeroes
        every one but ``chosen``, so every gap has a zeroed end (validation
        rejects a gap from a component to itself) and assemble_generator
        includes none.
        """
        return chosen is not None and chosen not in self._sources

    def table(self, epoch: int, chosen: int | None,
              start: np.ndarray | None = None) -> EpochTable:
        """The table of ``epoch`` after ``chosen`` (None: epoch 0): without
        ``start`` the runner's shared one from the canonical start, built on
        first use and kept in ``tables``; with it, a new one from ``start``
        that is stored nowhere. A quiescent epoch's table has no generator."""
        shared = start is None
        if shared and (epoch, chosen) in self.tables:
            return self.tables[(epoch, chosen)]
        if shared:
            start = self.model.psi0 if chosen is None else _unit(self.model, chosen)
        trigger_off = self.ruleset.trigger_suspended
        if self.quiescent(chosen):
            table = EpochTable(None, start, self.cfg.dt, 0, trigger_off)
        else:
            table = EpochTable(self.generator(chosen, epoch), start, self.cfg.dt, self.n_full,
                               trigger_off, self.rem)
        if shared:
            self.tables[(epoch, chosen)] = table
        return table

    def walk(self, indices) -> Iterator[LegGroup]:
        """Walk trajectories ``indices`` together, yielding one LegGroup per
        epoch and table, epoch by epoch, each before its hits are filed under
        the next epoch.

        The table of epoch 0 and of each epoch after a collapse onto a
        one-dimensional component is shared, keyed by epoch and last chosen
        component. A collapse onto a wider component starts a table of its
        own that serves one trajectory, as a group of one. Either kind holds
        every row up to the last one its trajectories reached. The walk keeps
        no group it has yielded, so a caller that folds each group as it
        arrives holds at most one table of its own at a time.
        """
        keys = substream_keys(self.seed, indices)
        size = len(keys)
        # (last chosen, position of a trajectory with a table of its own or
        # -1) -> (start state or None for the canonical one, [positions],
        # [scales], [steps before the epoch])
        frontier = {(None, -1): (None, [np.arange(size)], [np.ones(size, complex)],
                                 [np.zeros(size, np.int64)])}
        epoch = 0
        while frontier:
            nxt: dict = {}
            for (chosen, _), (start, pos, scale, k0) in frontier.items():
                group = self._epoch(epoch, chosen, start, keys, *(
                    parts[0] if len(parts) == 1 else np.concatenate(parts)
                    for parts in (pos, scale, k0)))
                yield group
                if not group.quiescent:
                    self._regroup(group, nxt)
            frontier, epoch = nxt, epoch + 1

    def _epoch(self, epoch, chosen, start, keys, pos, scale, k0) -> LegGroup:
        """Advance one group through its epoch: on the shared table with
        ``start`` None, else on a new table of its own from ``start``."""
        table = self.table(epoch, chosen, start)
        zeros = np.zeros(len(pos), np.int64)
        # With no bridged gap left after a collapse the realized component
        # evolves unitarily and no further hit can fire.
        if self.quiescent(chosen):
            return LegGroup(epoch, table, pos, scale, k0, zeros, zeros, zeros - 1, True)
        cfg, gen = self.cfg, table.gen
        # The pair a sequential walk of the substream draws at this epoch.
        E, u = substream_pair(keys[pos], epoch)
        steps = np.maximum(self.n_full - k0, 0)
        n, last, hit = table.ends(E, steps, (k0 <= self.n_full) if self.rem else None)
        s2 = scale.real * scale.real + scale.imag * scale.imag
        if gen.conserves_norm:
            s_now, s_start = s2 * table.s[last], s2 * table.s[0]
            elapsed = self.times[k0 + n] - self.times[k0]
            allowed = cfg.norm_drift_budget * np.maximum(elapsed, cfg.dt)
            bad = ((elapsed > 0) & (np.abs(s_now - s_start) > allowed)).nonzero()[0]
            if bad.size:        # raise as the first drifting trajectory alone would
                j = bad[0]
                _check_epoch_drift(gen, cfg, float(s_now[j]), float(s_start[j]),
                                   float(elapsed[j]))
        chosen_now = zeros - 1
        h = hit.nonzero()[0]
        if h.size:
            weights = np.clip(s2[h, None] * table.J[last[h]], 0.0, None)
            chosen_now[h] = np.asarray(gen.launch_ids)[_choose(weights, u[h])]
        return LegGroup(epoch, table, pos, scale, k0, n, last, chosen_now, False)

    def _regroup(self, group: LegGroup, nxt: dict):
        """Collapse a group's hits and file them under their next epoch's key:
        the choices of one-dimensional components at once, onto the shared
        tables, and each choice of a wider one onto a table of its own."""
        h = (group.chosen >= 0).nonzero()[0]
        if not h.size:
            return
        table, rows, chosen, scale = group.table, group.last[h], group.chosen[h], group.scale[h]
        k0 = group.k0[h] + group.n[h]
        pos = group.pos[h]
        col = self._col[self._ids.searchsorted(chosen)]
        one = col >= 0
        if one.any():
            after = self._unit_scales(table, rows[one], chosen[one], col[one], scale[one])
            for c in sorted(set(chosen[one].tolist())):
                sel = chosen[one] == c
                entry = nxt.setdefault((c, -1), (None, [], [], []))
                for bucket, values in zip(entry[1:], (pos[one][sel], after[sel], k0[one][sel])):
                    bucket.append(values)
        for j in (~one).nonzero()[0].tolist():          # a table of its own
            start = collapse_state(scale[j] * table.states[int(rows[j])], int(chosen[j]),
                                   self.model, self.policy)
            nxt[(int(chosen[j]), int(pos[j]))] = (start, [pos[j:j + 1]], [np.ones(1, complex)],
                                                  [k0[j:j + 1]])

    def _unit_scales(self, table: EpochTable, rows: np.ndarray, chosen: np.ndarray,
                     col: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """The next epoch's scale after collapsing ``scale`` times each of
        the table's ``rows`` onto the one-dimensional ``chosen`` at basis
        index ``col``: collapse_state's floats, as one array pass. s_pre and
        s_chosen are stacked products on the scaled rows and on their chosen
        amplitudes, so both round as collapse_state's np.vdot does (the other
        terms of its s_chosen are exact zeros)."""
        _check_policy(self.policy)
        psi = scale[:, None] * table.states[rows]
        a = psi[np.arange(len(rows)), col]
        s_chosen = square_moduli(a[:, None])
        if (bad := (s_chosen <= 0.0).nonzero()[0]).size:
            raise CollapseOnEmptyError(
                f"component {int(chosen[bad[0]])} has zero amplitude at collapse time")
        return a if self.policy == RAW else a * np.sqrt(square_moduli(psi) / s_chosen)

    def legs(self, index: int) -> tuple[list[Leg], str]:
        """Walk trajectory ``index`` as a block of one: one Leg per epoch, and
        its terminal."""
        groups = list(self.walk([index]))
        legs = [Leg(g.table, complex(g.scale[0]), int(g.k0[0]), int(g.n[0]),
                    float(self.times[g.k0[0] + g.n[0]]), int(g.last[0]),
                    int(g.chosen[0]) if g.chosen[0] >= 0 else None) for g in groups]
        return legs, TERMINAL_QUIESCENT if groups[-1].quiescent else TERMINAL_T_MAX

    def samples(self, legs: list[Leg]) -> TrajectorySamples:
        """A walk's recorded rows: each epoch's start, its sampled steps and
        its last step (the pre-collapse row of a hit), scaled to the trajectory."""
        model, cand = self.model, self.model.launch_candidate_ids
        rows = []       # (t, scale, table, row)
        for leg in legs:
            rows += [(self.times[leg.k0 + r], leg.scale, leg.table, r)
                     for r in range(max(leg.n, 1)) if r == 0 or self.sampled[leg.k0 + r]]
            if leg.n:
                rows.append((leg.t, leg.scale, leg.table, leg.last))
        column = {m: i for i, m in enumerate(cand)}
        currents = np.zeros((len(rows), len(cand)))
        for i, (_, c, tab, r) in enumerate(rows):
            currents[i, [column[m] for m in tab.launch_ids]] = _abs2(c) * tab.J[r]
        states = np.array([c * tab.states[r] for _, c, tab, r in rows])
        return TrajectorySamples(
            times=np.array([row[0] for row in rows]),
            s=(states.conj() * states).real.sum(axis=1), moduli=component_moduli(states, model),
            currents=currents, component_ids=tuple(c.id for c in model.components),
            current_ids=cand)


def run_trajectory(model: ScenarioModel, ruleset: RuleSet, cfg: IntegratorConfig,
                   gap_mode: GapSemantics, seed: int, *,
                   traj_index: int = 0,
                   policy: str = PRESERVE_TOTAL,
                   record_samples: bool = True,
                   gen_cache: dict | None = None) -> TrajectoryRecord:
    """Run one full trajectory to t_max (or to post-collapse quiescence).

    The record is deterministic given all arguments; nrules3 and nrules4
    rule sets drive the very same code and so produce identical event
    sequences for identical seeds.

    The run draws against shared epoch tables, epoch 0 and every epoch
    after a collapse onto a one-dimensional component, as an ensemble's
    trajectories do; an epoch after a collapse onto a wider component runs
    on a table of its own. Every table keeps every row it reached, 16 dim +
    8 (launch components) + 32 bytes per step (twice that when t_max is off
    the dt grid), so a run holds the rows of each epoch up to its hit or its
    end, and ``record_samples`` only decides whether samples are built from
    them. ``gen_cache``, a dict the caller keeps, holds per (model,
    rule set, gap mode) the generators and, per ``cfg``, those tables
    across runs: runs that pass the same cache draw against them instead of
    integrating again, with the same floats as a run without one, and the
    rows stay for as long as the caller keeps the cache.
    """
    runner = EpochRunner(model, ruleset, cfg, gap_mode, seed, policy, gen_cache)
    legs, terminal = runner.legs(traj_index)
    events = [CollapseEvent(t_sc=leg.t, chosen=leg.chosen, pre_hit_s=leg.s,
                            pre_hit_J=CurrentVector(leg.table.launch_ids, leg.J),
                            epoch=epoch, norm_policy=policy)
              for epoch, leg in enumerate(legs) if leg.chosen is not None]
    end = legs[-1]
    meta = {
        "trajectory_id": traj_index,
        "master_seed": seed,
        "rules": ruleset.variant,
        "suspended": sorted(ruleset.suspended),
        "gap_mode": gap_mode.token,
        "norm_policy": policy,
        "n_steps": sum(leg.n for leg in legs),
        "negative_current_steps": sum(leg.neg for leg in legs),
        "epochs": len(events),
        "final_t": end.t,
        "final_s": end.s,
    }
    return TrajectoryRecord(samples=runner.samples(legs) if record_samples else None,
                            events=events, terminal=terminal, meta=meta)
