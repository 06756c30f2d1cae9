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
quiescent: it takes no step and draws no number, and no generator is
assembled for it.

Every generator mode is homogeneous of degree 1 (the compensated loss J/s_low
is scale-free), so an epoch is tabulated (dynamics.EpochTable) from a
canonical start, psi0 or the unit basis state of a one-dimensional chosen
component, and a trajectory carries a complex scale c: states c times the
table's, s and J |c|^2 times, rates and hazard unchanged. Once its E is
drawn, an epoch of a trajectory is a lookup into its table, so
EpochRunner.walk advances a block of trajectories at once, grouped by
(epoch, last chosen component): one searchsorted finds every hit row of a
group, one cumulative-weights comparison every choice, and one collapse
routine (rule n3_3) collapses every hit of the group, one array pass per
component size, at any epoch and from any table. A collapse onto a
one-dimensional component is a scale on the next epoch's shared table.
Every trajectory that rests in a one-dimensional component sourcing no gap
is filed in one quiescent group per epoch, with no table: the ensemble only
counts it, and run_trajectory reads the component's shared table for its
start row. A collapse onto a wider component starts a table of its own,
walked as a group of one, quiescent or not. An EpochRunner owns its
generators, step plan and tables, and each walk takes the seed and the
norm policy; the
ensemble oracle reads the runner's epoch-0 table on the run's own grid, the
one grid of a command. run_ensemble walks each index range on a
runner it is handed, in blocks of the most trajectories whose walk arrays
fit a byte budget (ensemble.walk_block: 16 MiB, 36,157 three_mode
trajectories or 675 of a dim-512 fan-out), and run_trajectory walks a
block of one, so both run the same epoch loop. run_trajectory reads the
walk's groups one epoch at a time, and one samples builder,
TrajectorySamples.of, gathers the recorded rows of each epoch's table as
arrays, for a trajectory and for the no-hit profile of `gapflow currents`
alike.

nrules3 and nrules4 share every code path; the variant only relabels the
frozen status. Randomness comes from a counter-based Philox substream keyed
by (seed, trajectory index), so results cannot depend on scheduling or on
how trajectories are split into blocks; the walk draws each block's
numbers through gapflow.substreams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .dynamics import (CurrentVector, EffectiveGenerator, EpochTable, GapSemantics,
                       IntegratorConfig, StepPlan, _check_epoch_drift, assemble_generator,
                       square_moduli)
from .dynamics import step_grid  # noqa: F401  (kept importable as engine.step_grid)
from .errors import CollapseOnEmptyError, GapflowError, NoChoiceError
from .model import LAUNCH, REALIZED, ZEROED, ScenarioModel, component_moduli
from .rules import RuleSet
from .substreams import substream_keys, substream_pair
from .substreams import trajectory_rng  # noqa: F401  (kept importable as engine.trajectory_rng)

PRESERVE_TOTAL = "preserve_total"
RAW = "raw"
NORM_POLICIES = (PRESERVE_TOTAL, RAW)

TERMINAL_T_MAX = "t_max"
TERMINAL_QUIESCENT = "quiescent"

# The component slot of a walk's frontier key for every trajectory that
# rests in a one-dimensional component sourcing no gap: one quiescent group
# per epoch, with no table (no component id is negative).
_RESTING = -1


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

    @classmethod
    def of(cls, model: ScenarioModel, parts: list, current_ids: tuple[int, ...]
           ) -> "TrajectorySamples":
        """The samples of ``parts``, each (table, scale, rows, times): the
        table's ``rows`` at ``times``, states scaled by the complex scale c,
        s and J by |c|^2. J fills the columns of the table's launch ids among
        ``current_ids`` and 0 the others. Each part is gathered straight into
        the arrays, which hold no table."""
        column = {m: i for i, m in enumerate(current_ids)}
        size = sum(len(rows) for _, _, rows, _ in parts)
        times, s = np.empty(size), np.empty(size)
        states = np.empty((size, model.dim), np.complex128)
        currents = np.zeros((size, len(current_ids)))
        i = 0
        for table, c, rows, t in parts:
            c2 = c.real * c.real + c.imag * c.imag
            at = slice(i, i + len(rows))
            psi = table.states.take(rows, axis=0, out=states[at])
            np.multiply(c, psi, out=psi)            # c * psi's floats, with no copy
            s[at] = c2 * table.s[rows]
            currents[at, [column[m] for m in table.launch_ids]] = c2 * table.J[rows]
            times[at] = t
            i = at.stop
        return cls(times=times, s=s, moduli=component_moduli(states, model), currents=currents,
                   component_ids=tuple(comp.id for comp in model.components),
                   current_ids=current_ids)


@dataclass
class TrajectoryRecord:
    samples: TrajectorySamples | None
    events: list[CollapseEvent]
    terminal: str
    meta: dict = field(default_factory=dict)


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


def _unit(model: ScenarioModel, chosen: int) -> np.ndarray:
    """The unit basis state of a one-dimensional component."""
    start = np.zeros(model.dim, dtype=np.complex128)
    start[model.index_arrays[chosen][0]] = 1.0
    return start


class LegGroup(NamedTuple):
    """One epoch of the trajectories of a block that share a table; the
    arrays hold one entry per trajectory."""

    epoch: int
    table: EpochTable | None  # None: trajectories resting in one-dimensional components
    pos: np.ndarray         # the trajectories' positions in the block
    scale: np.ndarray       # complex: a trajectory's state is scale * table state
    k0: np.ndarray          # steps of the run before the epoch
    n: np.ndarray           # steps integrated in the epoch
    last: np.ndarray        # table row after them: the pre-hit row of a hit
    chosen: np.ndarray      # component realized at the end, -1 for none
    quiescent: bool         # no bridged gap: the epoch closed at once


class EpochRunner:
    """The epoch loop of run_trajectory and run_ensemble, with its step plan.

    A runner depends on no seed and no norm policy: it owns the generators,
    the step plan and the tables its walks share, all from canonical starts,
    for its own life, and every walk takes the seed of its substreams and
    the policy of its collapses. Walks of any seeds and policies on one
    runner draw against the same tables, with the same floats as walks on a
    runner of their own.
    """

    def __init__(self, model: ScenarioModel, ruleset: RuleSet, cfg: IntegratorConfig,
                 gap_mode: GapSemantics):
        self.model, self.ruleset, self.cfg, self.gap_mode = model, ruleset, cfg, gap_mode
        self._gens: dict = {}           # (last chosen, epoch) -> generator
        self.tables: dict = {}          # (epoch, last chosen) -> shared table
        self.plan = StepPlan.of(cfg)
        self.times, self.sampled, self.rem, self.n_full = self.plan
        self._sources = frozenset(g.low for g in model.gaps if g.irreversible)
        # Component ids, sorted, and per id its size class in
        # model._by_size, its row there, and whether it sources no gap.
        ids = sorted(model.index_arrays)
        self._ids = np.array(ids)
        where = {model.components[k].id: (g, r) for g, (pos, _) in enumerate(model._by_size)
                 for r, k in enumerate(pos.tolist())}
        self._kind, self._row = np.array([where[c] for c in ids], dtype=np.intp).T
        self._rests = np.array([c not in self._sources for c in ids])

    @classmethod
    def reuse(cls, runner: "EpochRunner | None", model: ScenarioModel, ruleset: RuleSet,
              cfg: IntegratorConfig, gap_mode: GapSemantics) -> "EpochRunner":
        """``runner`` where it was built for this model, rule set, config and
        gap mode, a new runner for them where it is None. A runner built for
        anything else is refused with GapflowError."""
        if runner is None:
            return cls(model, ruleset, cfg, gap_mode)
        if (runner.model, runner.ruleset, runner.cfg, runner.gap_mode) != (
                model, ruleset, cfg, gap_mode):
            raise GapflowError("runner built for another model, rule set, config or gap mode")
        return runner

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
        ``not gen.gaps`` for its generator in every gap mode and rule
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

    def profile(self, every_step: bool = False) -> tuple[EpochTable, np.ndarray, np.ndarray]:
        """The no-hit profile: the epoch-0 table grown through the plan
        without a hit, the rows of its samples (of every grid point with
        ``every_step``) and their times. The one source of the oracle's,
        `gapflow currents`' and the arrow profile's rows; raises
        NormDriftError where s drifts beyond the budget over t_max."""
        plan = self.plan
        if every_step:
            plan = plan._replace(sampled=np.ones_like(plan.sampled))
        table = self.table(0, None)
        rows = table.sampled_rows(plan)
        _check_epoch_drift(table.gen, self.cfg, table.s[rows[-1:]], table.s[:1],
                           np.array([self.cfg.t_max]))
        return table, rows, plan.times[plan.sampled]

    def walk(self, seed: int, indices, policy: str) -> Iterator[LegGroup]:
        """Walk trajectories ``indices`` of ``seed`` together under the norm
        ``policy``, checked first, yielding one LegGroup per epoch and table,
        epoch by epoch, each before its hits are filed under the next epoch.

        The table of epoch 0 and of each epoch after a collapse onto a
        one-dimensional component that sources a gap is shared, keyed by
        epoch and last chosen component. Every trajectory that rests in a
        one-dimensional component sourcing no gap takes no step and draws no
        number: an epoch files them all in one quiescent group whose table
        is None (run_trajectory reads the shared table of the component it
        rests in). A collapse onto a wider component starts a table of its
        own that serves one trajectory, as a group of one, quiescent or not.
        Every table holds every row up to the last one its trajectories
        reached. The walk keeps no group it has yielded, so a caller that
        folds each group as it arrives holds at most one table of its own at
        a time.
        """
        _check_policy(policy)
        keys = substream_keys(seed, indices)
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
                    self._regroup(group, nxt, policy)
            frontier, epoch = nxt, epoch + 1

    def _epoch(self, epoch, chosen, start, keys, pos, scale, k0) -> LegGroup:
        """Advance one group through its epoch: with no table where it
        rests (``chosen`` _RESTING), on the shared table with ``start`` None,
        else on a new table of its own from ``start``."""
        zeros = np.zeros(len(pos), np.int64)
        # With no bridged gap left after a collapse the realized component
        # evolves unitarily and no further hit can fire.
        if chosen == _RESTING:
            return LegGroup(epoch, None, pos, scale, k0, zeros, zeros, zeros - 1, True)
        table = self.table(epoch, chosen, start)
        if self.quiescent(chosen):
            return LegGroup(epoch, table, pos, scale, k0, zeros, zeros, zeros - 1, True)
        gen = table.gen
        # The pair a sequential walk of the substream draws at this epoch.
        E, u = substream_pair(keys[pos], epoch)
        steps = np.maximum(self.n_full - k0, 0)
        n, last, hit = table.ends(E, steps, (k0 <= self.n_full) if self.rem else None)
        s2 = scale.real * scale.real + scale.imag * scale.imag
        # Raises as the first drifting trajectory alone would.
        _check_epoch_drift(gen, self.cfg, s2 * table.s[last], s2 * table.s[0],
                           self.times[k0 + n] - self.times[k0])
        chosen_now = zeros - 1
        h = hit.nonzero()[0]
        if h.size:
            weights = np.clip(s2[h, None] * table.J[last[h]], 0.0, None)
            chosen_now[h] = np.asarray(gen.launch_ids)[_choose(weights, u[h])]
        return LegGroup(epoch, table, pos, scale, k0, n, last, chosen_now, False)

    def _regroup(self, group: LegGroup, nxt: dict, policy: str):
        """Collapse every hit of a group under ``policy`` (rule n3_3) in one
        array pass per component size, filed under its next epoch's key: a
        one-dimensional choice as its next scale on the shared table or, for
        a component that sources no gap, under the one _RESTING key; a wider
        one as the start state of a table of its own.

        Each hit's scaled pre-hit row is gathered once. s_pre is one
        square_moduli of those rows and s_chosen one of each hit's chosen
        amplitudes a; preserve_total multiplies a by sqrt(s_pre / s_chosen).
        A wider component's a is scattered onto zeros first, into its start
        state, and s_chosen is taken over that state, as np.vdot over the
        collapsed state takes it: a sum over a alone pairs the terms
        otherwise, and its last bit differed in 4 % (size 2) and 9 % (size
        3) of random draws. A
        single amplitude's other terms are exact zeros, so it needs no
        scatter. An empty choice raises for the first one-dimensional hit,
        else for the first wider one.
        """
        h = (group.chosen >= 0).nonzero()[0]
        if not h.size:
            return
        chosen, pos, k0 = group.chosen[h], group.pos[h], group.k0[h] + group.n[h]
        psi = group.scale[h, None] * group.table.states[group.last[h]]
        at = self._ids.searchsorted(chosen)
        kind, row = self._kind[at], self._row[at]
        s_chosen, parts = np.empty(len(h)), []
        for g, (_, indices) in enumerate(self.model._by_size):
            if not (sel := (kind == g).nonzero()[0]).size:
                continue
            idx = indices[row[sel]]
            if idx.shape[1] == 1:
                a = psi[sel[:, None], idx]
            else:
                a = np.zeros((len(sel), self.model.dim), np.complex128)
                a[np.arange(len(sel))[:, None], idx] = psi[sel[:, None], idx]
            s_chosen[sel] = square_moduli(a)
            parts.append((sel, a, idx.shape[1] > 1))
        if (bad := (s_chosen <= 0.0).nonzero()[0]).size:
            wide = np.array([indices.shape[1] > 1 for _, indices in self.model._by_size])
            raise CollapseOnEmptyError(
                f"component {int(chosen[bad[wide[kind[bad]].argmin()]])} has zero amplitude "
                "at collapse time")
        if policy == PRESERVE_TOTAL:
            factor = np.sqrt(square_moduli(psi) / s_chosen)[:, None]
        starts = {}
        for sel, a, wider in parts:
            if policy == PRESERVE_TOTAL:
                a *= factor[sel]
            if wider:
                starts.update(zip(sel.tolist(), a))
                continue
            key = np.where(self._rests[at[sel]], _RESTING, chosen[sel])
            for c in sorted(set(key.tolist())):
                on = sel[key == c]
                entry = nxt.setdefault((c, -1), (None, [], [], []))
                for bucket, values in zip(entry[1:], (pos[on], a[key == c, 0], k0[on])):
                    bucket.append(values)
        for j in sorted(starts):                        # a table of its own
            nxt[(int(chosen[j]), int(pos[j]))] = (starts[j], [pos[j:j + 1]],
                                                  [np.ones(1, complex)], [k0[j:j + 1]])


def run_trajectory(model: ScenarioModel, ruleset: RuleSet, cfg: IntegratorConfig,
                   gap_mode: GapSemantics, seed: int, *,
                   traj_index: int = 0,
                   policy: str = PRESERVE_TOTAL,
                   record_samples: bool = True,
                   runner: EpochRunner | None = None) -> TrajectoryRecord:
    """Run one full trajectory to t_max (or to post-collapse quiescence).

    The record is deterministic given all arguments; nrules3 and nrules4
    rule sets drive the very same code and so produce identical event
    sequences for identical seeds.

    The run walks the trajectory as a block of one (EpochRunner.walk) and
    reads each epoch's group as it arrives: its event, its step and
    negative-current counts and, with ``record_samples``, its recorded rows
    (the epoch's start, its sampled steps and, after any step, its point at
    the hit or the end), which TrajectorySamples.of gathers from the tables
    at the end. It draws against shared epoch tables, epoch 0 and every
    epoch after a collapse onto a one-dimensional component, as an
    ensemble's trajectories do. Where it rests in a one-dimensional
    component that sources no gap, the walk's group has no table, and the
    run reads that component's shared table, built on first use, for its
    start row alone: its samples and final s. An epoch after a collapse
    onto a wider component runs on a table of its own, which the run keeps
    only while it records samples. Every table keeps every row it reached, 16 dim + 8
    (launch components) + 32 bytes per step (twice that when t_max is off
    the dt grid). ``runner``, an EpochRunner of this model, rule set,
    config and gap mode that the caller keeps, holds those tables across
    runs of any seed and policy: runs that pass it draw against them instead
    of integrating again, with the same floats as a run on a runner of its
    own. A runner built for anything else is refused with GapflowError.
    """
    runner = EpochRunner.reuse(runner, model, ruleset, cfg, gap_mode)
    times, sampled = runner.times, runner.sampled
    events, parts, n_steps, negative = [], [], 0, 0
    for g in runner.walk(seed, [traj_index], policy):
        table, c, k0, n, last = g.table, g.scale[0], int(g.k0[0]), int(g.n[0]), int(g.last[0])
        if table is None:                       # rests in the last chosen component
            table = runner.table(g.epoch, events[-1].chosen)
        c2 = c.real * c.real + c.imag * c.imag
        t, s = float(times[k0 + n]), float(c2 * table.s[last])
        n_steps, negative = n_steps + n, negative + int(table.neg[last])
        if g.chosen[0] >= 0:
            events.append(CollapseEvent(
                t_sc=t, chosen=int(g.chosen[0]), pre_hit_s=s,
                pre_hit_J=CurrentVector(table.launch_ids, c2 * table.J[last]),
                epoch=g.epoch, norm_policy=policy))
        if record_samples:
            keep = sampled[k0:k0 + n + 1].copy()
            keep[0] = keep[n] = True            # the epoch's start and its point at t
            at = keep.nonzero()[0]
            parts.append((table, c, np.where(at < n, at, last), times[k0 + at]))
    meta = {
        "trajectory_id": traj_index,
        "master_seed": seed,
        "rules": ruleset.variant,
        "suspended": sorted(ruleset.suspended),
        "gap_mode": gap_mode.token,
        "norm_policy": policy,
        "n_steps": n_steps,
        "negative_current_steps": negative,
        "epochs": len(events),
        "final_t": t,
        "final_s": s,
    }
    samples = (TrajectorySamples.of(model, parts, model.launch_candidate_ids)
               if record_samples else None)
    return TrajectoryRecord(samples=samples, events=events,
                            terminal=TERMINAL_QUIESCENT if g.quiescent else TERMINAL_T_MAX,
                            meta=meta)
