"""Effective-generator assembly, RK4 integration, probability currents.

The central object is the EffectiveGenerator: the operator actually applied
during one epoch of a trajectory. Which blocks of the partitioned Hamiltonian
it contains depends on component statuses, the gap semantics, and any
suspended rules:

* own blocks enter for active and realized components; a launch component's
  own block stays out (the component is frozen) unless the freeze rule is
  suspended,
* gap interaction blocks enter in the feed direction whenever an active or
  realized component sits on the low side and a launch component on the high
  side,
* the reverse (high to low) direction enters only in hermitian_truncated
  mode; in the sink modes it is structurally absent, so for any state
  supported on launch components G applied to psi is zero bit-exactly.

The generator records its included gaps once, in ``gaps``, in every mode,
each by its feed entries (r, c, v), never as an operator. Both readers of
a gap take the feed flow j_gap = 2 Im<psi|F psi> = 2 Im sum conj(psi_r) v
psi_c: the compensated loss per state, gap_backflow per row as -j_gap,
since <psi|F-dagger psi> is the conjugate of <psi|F psi>. One rule
(_operator) holds G and so M_h: a dense array up to DENSE_DIM_LIMIT,
scattered straight from the entries, CSR above. row_products applies
either to each row of a block, and row_dots takes the per-row <a|b> of
the square moduli and the backflow.

Integration is fixed-step RK4 on dpsi/dt = -i G psi (hbar = 1), with a
state-dependent anti-Hermitian loss on the source sector in norm_compensated
mode. No adaptive stepping: trajectories must be reproducible across runs and
worker layouts. A step takes one of two paths:

* propagator: where G carries no compensation term (oneway and hermitian
  modes), the dynamics is linear and constant within an epoch, so an RK4
  step of length h is the fixed matrix M_h = sum_{k<=4} (-iGh)^k/k!, built
  once per h and applied as one matvec. It takes G's form; a CSR M_h is
  kept only while it stays sparse (SPARSE_FILL_LIMIT): a oneway star's M_h
  is I - iGh, a hermitian star's fills in. G's launch columns are zero in
  the sink modes, so M_h's launch columns are exact identity columns and
  the zero-backflow guarantee stays bit-exact.
* staged: the four-stage RK4 through gen.apply. Compensated mode needs it
  (its loss term is nonlinear, so no M_h exists), and so does a CSR
  generator whose M_h would fill in.

step_block is the one sequential stepping routine: it fills a block of
rows, each one step after the row before it. On the propagator path it
writes each row as M_h times the row before it, with one finiteness check
per block; the staged path checks every row. step is a block of one.
step_each steps every row of a block once, as one stacked product where
M_h exists, for the ensemble oracle's midpoints; block_currents gives J
and s of a block of rows, for tables and midpoints alike. EpochTable steps an
epoch's deterministic evolution straight into its own rows, FILL_BLOCK
steps at a time, or in blocks that double with the table where no hazard
draw can stop the growth, then fills the block's currents (one stacked
product), square moduli, rates and gated hazard at once. Trajectories draw
against tables (engine). The oracle, `gapflow currents` and the arrow
profile read one no-hit profile (engine.EpochRunner.profile): a runner's
epoch-0 table grown to its end, read in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateStateError, GapflowError, NonFiniteStateError, NormDriftError
from .model import (ACTIVE, LAUNCH, MAX_STEPS, REALIZED, STATUSES, ZEROED, GapSemantics,
                    ScenarioModel)
from .rules import RuleSet

# Below this total square modulus the compensated loss coefficient J/s_low is
# numerically meaningless (0/0); the feed term is O(sqrt(s_low)) there anyway.
S_LOW_FLOOR = 1e-300

# Dense matvec beats csr by a wide margin for the model sizes this package
# targets; fall back to sparse only for genuinely large bases (_operator).
DENSE_DIM_LIMIT = 256

# A CSR M_h is kept while its nnz is at most this many times nnz(G) + dim,
# the work of one staged apply. Measured on random sparse G (one BLAS
# thread, 2 vCPUs): at nnz(M_h) / (nnz(G) + dim) of 3.5-3.9 a CSR M_h matvec
# took 19 us against 47 us for a staged step at dim 512, and 43 against
# 115 us at dim 2048; the two broke even near 9 at dim 2048.
SPARSE_FILL_LIMIT = 4

# RK4 step matrices kept per generator, the first built dropped first: a run
# needs dt and perhaps a shorter last step rem, the ensemble oracle dt / 2
# and rem / 2; a central-difference probe's two steps, beyond those, drop
# the two built first.
PROPAGATOR_CACHE_SIZE = 4

# Rows an EpochTable steps before it fills their other columns at once.
FILL_BLOCK = 128
# A block that doubles with its table stops growing at this many bytes of
# states (and at FILL_BLOCK rows at least): _store's temporaries are a few
# times the block's states, so they stay a small share of a wide table.
FILL_BLOCK_BYTES = 2 ** 21


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 0.01
    t_max: float = 6.0
    sample_every: int = 1
    norm_drift_budget: float = 1e-8  # allowed |s(t)-s(0)| per unit time

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise GapflowError(f"dt must be finite and > 0, got {self.dt}")
        if not (self.t_max >= 0 and math.isfinite(self.t_max)):
            raise GapflowError(f"t_max must be finite and >= 0, got {self.t_max}")
        if self.t_max / self.dt > MAX_STEPS:
            raise GapflowError(f"t_max / dt = {self.t_max / self.dt:.3g} steps exceeds "
                               f"MAX_STEPS = {MAX_STEPS}")
        if self.sample_every < 1:
            raise GapflowError(f"sample_every must be >= 1, got {self.sample_every}")
        if not self.norm_drift_budget > 0:
            raise GapflowError(
                f"norm_drift_budget must be > 0, got {self.norm_drift_budget}")


@dataclass(frozen=True)
class CurrentVector:
    """Per-launch-component probability currents J_m, units 1/time."""

    ids: tuple[int, ...]
    J: np.ndarray

    def __getitem__(self, comp_id: int) -> float:
        return float(self.J[self.ids.index(comp_id)])

    def as_dict(self) -> dict[int, float]:
        return {m: float(j) for m, j in zip(self.ids, self.J)}


Operator = np.ndarray | sp.csr_matrix


def _operator(dim: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> Operator:
    """The one rule for holding G (and so its M_h): up to DENSE_DIM_LIMIT a
    dense array, the entries summed onto zeros as a CSR's toarray does; CSR
    above. A gap's feed is never held as an operator, only as its entries."""
    if dim > DENSE_DIM_LIMIT:
        return sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    op = np.zeros((dim, dim), dtype=np.complex128)
    np.add.at(op, (rows, cols), vals)
    return op


@dataclass(frozen=True, eq=False)
class IncludedGap:
    """A gap whose feed G includes: its (low, high) pair, the low component's
    basis indices and its feed entries F[rows, cols] = vals, F's one record."""

    pair: tuple[int, int]
    low_idx: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


@dataclass(frozen=True)
class EffectiveGenerator:
    """Immutable per-epoch generator, apart from its M_h and gap caches;
    shareable across concurrent trajectories. ``op`` holds the included
    own blocks, gap feeds and, in hermitian mode only, their adjoints."""

    dim: int
    op: Operator = field(repr=False)
    mode: GapSemantics
    launch_ids: tuple[int, ...]
    launch_indices: Mapping[int, np.ndarray]
    model: ScenarioModel = field(compare=False, repr=False)
    # Which of model.gaps G includes, in every mode; read through ``gaps``.
    included: np.ndarray = field(compare=False, repr=False)
    epoch: int
    # step size -> M_h, filled on first use (see propagator)
    _propagators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # dense and matrix are read-only views of G for the benchmark's trace
    # hooks; nothing in the package reads them.
    @property
    def dense(self) -> np.ndarray | None:
        """G where it is held dense, else None."""
        return None if sp.issparse(self.op) else self.op

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """G as CSR, built on first read where G is held dense."""
        return sp.csr_matrix(self.op)

    @cached_property
    def gaps(self) -> tuple[IncludedGap, ...]:
        """The one record of the included gaps, in every mode; empty iff none
        is. Built on first read, each from its run of model.gap_feeds: only
        the compensated loss and backflow read it, and a wide star includes
        one gap per mode."""
        rows, cols, vals, gap = self.model.gap_feeds[:4]
        ends = np.searchsorted(gap, np.arange(len(self.model.gaps) + 1)).tolist()
        index_arrays = self.model.index_arrays
        return tuple([IncludedGap((g.low, g.high), index_arrays[g.low],
                                  rows[a:b], cols[a:b], vals[a:b])
                      for g, a, b, inc in zip(self.model.gaps, ends, ends[1:],
                                              self.included.tolist()) if inc])

    @property
    def linear(self) -> bool:
        """G has no compensation term (not compensated, or no gap included):
        dpsi/dt = -i G psi, the propagator path wherever M_h exists."""
        return self.mode is not GapSemantics.NORM_COMPENSATED or not self.gaps

    def propagator(self, h: float) -> Operator | None:
        """The RK4 step matrix M_h = sum_{k<=4} (-iGh)^k/k!, or None off the
        propagator path (compensated mode, a CSR G whose M_h fills in).

        Built in Horner form on first use, dense where G is and CSR
        otherwise. The cache holds the PROPAGATOR_CACHE_SIZE step sizes built
        last, None included: a new one drops the first built, even where
        that size was just asked.
        """
        if not self.linear:
            return None
        if h not in self._propagators:
            if len(self._propagators) >= PROPAGATOR_CACHE_SIZE:
                del self._propagators[next(iter(self._propagators))]
            self._propagators[h] = self._horner(h)
        return self._propagators[h]

    @np.errstate(over="ignore", invalid="ignore")
    def _horner(self, h: float) -> Operator | None:
        # A G h large enough to overflow M_h raises in step_block's
        # finiteness check, with no numpy warning before the error.
        g, sparse = self.op, sp.issparse(self.op)
        limit = SPARSE_FILL_LIMIT * (g.nnz + self.dim) if sparse else None
        # nnz(G^2) <= sum_k nnz(column k) nnz(row k) rejects a G that fills
        # in (a hermitian star) before any sparse product.
        if sparse and np.bincount(g.indices, minlength=self.dim) @ np.diff(g.indptr) > limit:
            return None
        a, eye = (-1j * h) * g, sp.identity(self.dim, dtype=np.complex128, format="csr")
        eye = eye if sparse else eye.toarray()
        m = eye + a @ (eye + (a / 2.0) @ (eye + (a / 3.0) @ (eye + a / 4.0)))
        return None if sparse and m.nnz > limit else m

    @cached_property
    def launch_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Launch indices concatenated in launch_ids order, and the offset at
        which each component's run starts."""
        runs = [self.launch_indices[cid] for cid in self.launch_ids]
        starts = np.cumsum([0] + [len(r) for r in runs])[:-1].astype(np.intp)
        return (np.concatenate(runs) if runs else np.empty(0, dtype=np.intp)), starts

    @property
    def conserves_norm(self) -> bool:
        return self.mode is not GapSemantics.ONE_WAY_FEED

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """dpsi/dt: -i G psi plus the compensated-mode source loss."""
        out = -1j * (self.op @ psi)
        if self.linear:
            return out
        for gap in self.gaps:
            low = psi[gap.low_idx]
            s_low = float(np.vdot(low, low).real)
            if s_low <= S_LOW_FLOOR:
                continue
            j_gap = 2.0 * float(np.vdot(psi[gap.rows], gap.vals * psi[gap.cols]).imag)
            out[gap.low_idx] -= (0.5 * j_gap / s_low) * low
        return out


def assemble_generator(model: ScenarioModel, ruleset: RuleSet, mode: GapSemantics,
                       statuses: Mapping[int, str] | None = None,
                       epoch: int = 0) -> EffectiveGenerator:
    """Build the generator for the given component statuses.

    Rules are suspended through ``ruleset``; pass the statuses reached after
    the most recent collapse (defaults to the model's initial ones).
    """
    if statuses is None:
        statuses = model.initial_statuses()
    by_id = model._by_id
    if not (statuses.keys() <= by_id.keys() and all(st in STATUSES for st in statuses.values())):
        bad = next(cid for cid, st in statuses.items() if cid not in by_id or st not in STATUSES)
        model.component(bad)
        raise GapflowError(f"unknown status {statuses[bad]!r} for component {bad}")
    missing = by_id.keys() - statuses.keys()
    if missing:
        raise GapflowError(f"statuses missing for components {sorted(missing)}")

    freeze_off = ruleset.freeze_suspended
    hermitian = mode is GapSemantics.HERMITIAN_TRUNCATED
    own = [e for comp_id, block in model.hamiltonian.own.items()
           if statuses[comp_id] in (ACTIVE, REALIZED) or freeze_off and statuses[comp_id] == LAUNCH
           for e in block.entries]

    # Each gap's inclusion from its two components' statuses, then every
    # included gap's feed entries in one selection.
    rows, cols, vals, gap, low, high = model.gap_feeds
    st = [statuses[c.id] for c in model.components]
    if freeze_off and hermitian:
        # Suspending the freeze restores the full Hermitian H0 + H01 on
        # every surviving component, the counterfactual the arrow
        # experiments need.
        alive = np.array([s != ZEROED for s in st], dtype=bool)
        included = alive[low] & alive[high]
    else:
        sourceable = (ACTIVE, REALIZED, LAUNCH) if freeze_off else (ACTIVE, REALIZED)
        source = np.array([s in sourceable for s in st], dtype=bool)
        launch = np.array([s == LAUNCH for s in st], dtype=bool)
        included = source[low] & launch[high]
    chosen = included[gap]
    gap, rows, cols, vals = gap[chosen], rows[chosen], cols[chosen], vals[chosen]
    if hermitian:
        # Each gap's adjoint entries follow its feed entries.
        order = np.argsort(np.concatenate([gap, gap]), kind="stable")
        rows, cols = np.concatenate([rows, cols])[order], np.concatenate([cols, rows])[order]
        vals = np.concatenate([vals, vals.conj()])[order]
    if own:
        own_rows, own_cols, own_vals = zip(*own)
        rows = np.concatenate([np.array(own_rows, dtype=np.intp), rows])
        cols = np.concatenate([np.array(own_cols, dtype=np.intp), cols])
        vals = np.concatenate([np.array(own_vals, dtype=np.complex128), vals])

    index_arrays = model.index_arrays
    launch_ids = tuple(sorted(cid for cid, st in statuses.items() if st == LAUNCH))
    return EffectiveGenerator(
        dim=model.dim,
        op=_operator(model.dim, rows, cols, vals),
        mode=mode,
        launch_ids=launch_ids,
        launch_indices={cid: index_arrays[cid] for cid in launch_ids},
        model=model,
        included=included,
        epoch=epoch,
    )


@np.errstate(over="ignore", invalid="ignore")
def step_block(psi: np.ndarray, gen: EffectiveGenerator, h: float,
               out: np.ndarray) -> np.ndarray:
    """Fill the rows of ``out`` with RK4 updates of dpsi/dt = gen.apply(psi),
    each one step of h after the row before it and the first one step after
    ``psi``; returns ``out``. The one stepping routine: EpochTable grows
    through it and step is a block of one.

    Where gen.propagator has an M_h, each row is written as M_h times the
    row before it (in place where M_h is dense), and the block is checked
    for non-finite amplitudes once, at its end. The staged path checks each
    row before it stages the next, so a non-finite state never runs on into
    further gen.apply calls. Either check raises NonFiniteStateError with
    no numpy warning before it: the arithmetic runs with overflow and
    invalid values ignored, as EpochTable._store's does.

    h may be negative (used by the central-difference current oracle).
    """
    m = gen.propagator(h)
    if m is not None:
        if isinstance(m, np.ndarray):
            dot = m.dot
            for row in out:
                dot(psi, out=row)
                psi = row
        else:
            for j in range(len(out)):
                psi = out[j] = m @ psi
        if not np.isfinite(out).all():
            raise _non_finite(gen, h)
        return out
    for j in range(len(out)):
        k1 = gen.apply(psi)
        k2 = gen.apply(psi + (0.5 * h) * k1)
        k3 = gen.apply(psi + (0.5 * h) * k2)
        k4 = gen.apply(psi + h * k3)
        psi = out[j] = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(psi).all():
            raise _non_finite(gen, h)
    return out


@np.errstate(over="ignore", invalid="ignore")
def step_each(block: np.ndarray, gen: EffectiveGenerator, h: float) -> np.ndarray:
    """Every row of ``block`` after one RK4 step of h, as a new array: per
    row the floats step_block writes one step after it. The oracle's
    midpoints take it; step_block stays the one sequential routine.

    Where gen.propagator has an M_h, row_products steps every row, and the
    result is checked for non-finite amplitudes once. Otherwise each row
    takes step_block's staged step, which checks it. Either check raises
    NonFiniteStateError with no numpy warning before it.
    """
    m = gen.propagator(h)
    if m is None:
        out = np.empty_like(block)
        for j in range(len(block)):
            step_block(block[j], gen, h, out[j:j + 1])
        return out
    out = row_products(m, block)
    if not np.isfinite(out).all():
        raise _non_finite(gen, h)
    return out


def row_products(op: Operator, block: np.ndarray) -> np.ndarray:
    """op @ row for each row of ``block`` (G or its M_h), as a new
    C-contiguous array: one stacked product that rounds as op @ row does,
    dense or CSR."""
    if sp.issparse(op):
        return np.ascontiguousarray((op @ np.ascontiguousarray(block.T)).T)
    return (op @ block[:, :, None])[:, :, 0]


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_j|b_j> for each row j, one stacked product that rounds as a
    per-row np.vdot does."""
    return (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0]


def square_moduli(block: np.ndarray) -> np.ndarray:
    """<psi|psi> per row of ``block`` (row_dots)."""
    return row_dots(block, block).real


@np.errstate(over="ignore", invalid="ignore")
def block_currents(gen: EffectiveGenerator | None, block: np.ndarray,
                   h: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The launch currents J (rows x gen.launch_ids) and square moduli s of
    each row of ``block``; J has no column where ``gen`` is None (a
    quiescent epoch). The one current formula: tables, the oracle's
    midpoints and component_currents (a block of one) read it.

    With ``h`` given the rows were stepped by h, and a row whose square
    modulus, or else launch current, overflows raises NonFiniteStateError
    with no numpy warning before it; the start row of a table (h None) is
    not checked.
    """
    if gen is None:
        J = np.empty((len(block), 0))
    else:
        # The compensated loss writes only the source rows of an included
        # gap, never a launch row, so -i G psi gives every generator's J.
        idx, starts = gen.launch_runs
        dpsi = -1j * row_products(gen.op, block)
        J = 2.0 * np.add.reduceat((block[:, idx].conj() * dpsi[:, idx]).real, starts, axis=1)
    s = square_moduli(block)
    if h is not None and not np.isfinite(s).all():
        raise _non_finite(gen, h, "square modulus")
    if h is not None and not np.isfinite(J).all():
        raise _non_finite(gen, h, "launch current")
    return J, s


def positive_moduli(s: np.ndarray) -> np.ndarray:
    """``s``, where every square modulus is positive, as a hit rate
    J+ / s needs; else DegenerateStateError for the first that is not."""
    if (bad := (s <= 0.0).nonzero()[0]).size:
        raise DegenerateStateError(f"total square modulus {s[bad[0]]} is not positive")
    return s


def _non_finite(gen: EffectiveGenerator, h: float,
                what: str = "amplitudes") -> NonFiniteStateError:
    return NonFiniteStateError(f"non-finite {what} after step dt={h} "
                               f"(epoch {gen.epoch}, mode {gen.mode.token})")


def step(state: np.ndarray, gen: EffectiveGenerator, dt: float) -> np.ndarray:
    """One RK4 update of dpsi/dt = gen.apply(psi): step_block of one row.
    dt may be negative."""
    psi = np.asarray(state, dtype=np.complex128)
    return step_block(psi, gen, dt, np.empty((1, len(psi)), dtype=np.complex128))[0]


def component_currents(state: np.ndarray, gen: EffectiveGenerator) -> CurrentVector:
    """J_m = d|P_m psi|^2/dt for each launch component, computed analytically:
    block_currents of one row."""
    psi = np.asarray(state, dtype=np.complex128)
    return CurrentVector(ids=gen.launch_ids, J=block_currents(gen, psi[None, :])[0][0])


def gap_backflow(states: np.ndarray, gen: EffectiveGenerator) -> dict[tuple[int, int], np.ndarray]:
    """Signed flow 2 Im<psi|F-dagger psi> into each included gap's low
    component through its reverse block, per (low, high) and per row of
    ``states`` (a single state is a block of one). <psi|F-dagger psi> is
    the conjugate of <psi|F psi>, so this is minus apply's feed flow j_gap:
    one row_dots over the gathered entries per gap, each row rounding as
    apply's np.vdot does.

    Exactly 0.0 in the sink modes, where the reverse block is structurally
    absent: no arithmetic is performed, so the zero is bit-exact.
    """
    block = np.atleast_2d(np.asarray(states, dtype=np.complex128))
    if gen.mode is not GapSemantics.HERMITIAN_TRUNCATED:
        return {gap.pair: np.zeros(len(block)) for gap in gen.gaps}
    return {gap.pair: -2.0 * row_dots(block[:, gap.rows], gap.vals * block[:, gap.cols]).imag
            for gap in gen.gaps}


def _check_epoch_drift(gen, cfg, s_now: np.ndarray, s_epoch_start: np.ndarray,
                       elapsed: np.ndarray):
    """Where ``gen`` conserves the norm, raise NormDriftError for the first
    entry of the arrays whose |s_now - s_epoch_start| exceeds the budget
    over its elapsed time (at least dt), if that time is positive."""
    if not gen.conserves_norm:
        return
    drift = np.abs(s_now - s_epoch_start)
    allowed = cfg.norm_drift_budget * np.maximum(elapsed, cfg.dt)
    bad = ((elapsed > 0) & (drift > allowed)).nonzero()[0]
    if bad.size:
        j = bad[0]
        raise NormDriftError(
            f"norm drift {drift[j]:.3e} exceeds budget {allowed[j]:.3e} "
            f"within epoch (elapsed {float(elapsed[j])})")


class StepPlan(NamedTuple):
    """A run's time grid, as tables, walks and profiles read it.

    The run takes n_full steps of dt. The last grid point is pinned exactly
    onto t_max, so accumulated k*dt roundoff cannot leave the final sample at
    5.999999999999999-style times; a span that is not a whole number of steps
    (beyond a 1e-9 dt guard) ends on a shorter step of rem instead.
    """

    times: np.ndarray       # time after k steps of the run, from k = 0
    sampled: np.ndarray     # whether a sample is recorded after k steps
    rem: float              # the shorter last step, 0.0 when t_max is on the grid
    n_full: int             # steps of length dt

    @classmethod
    def of(cls, cfg: IntegratorConfig) -> "StepPlan":
        dt = cfg.dt
        n_full = int(math.floor(cfg.t_max / dt + 1e-9))
        rem = cfg.t_max - n_full * dt
        if rem < 1e-9 * dt:
            rem = 0.0
        k = np.arange(n_full + 1)
        # A sample_every past the last step flags k = 0 alone, as n_full + 1
        # does; capping it keeps a huge one within int64.
        times, sampled = k * dt, k % min(cfg.sample_every, n_full + 1) == 0
        if rem:
            times, sampled = np.append(times, cfg.t_max), np.append(sampled, True)
        elif n_full:
            times[-1], sampled[-1] = cfg.t_max, True
        return cls(times, sampled, rem, n_full)


def step_grid(cfg: IntegratorConfig) -> np.ndarray:
    """Step-end times of a run; hit times are always members of this grid."""
    return StepPlan.of(cfg).times[1:]


class EpochTable:
    """Deterministic evolution of one epoch from its start state.

    Row 0 is the start and row k the point after k steps of dt. Each row's
    state, launch currents J, square modulus s, count of negative-current
    steps since the epoch start (neg), rate and gated cumulative trapezoid
    hazard H (both 0 with ``trigger_off``) are held in one column per field,
    (steps + 1) rows long, filled on demand a block at a time (see grow). Rows
    never change, so trajectories sharing a table see the same floats however
    far it grew. With ``rem`` > 0 the run ends on a shorter step of rem; the
    point that step reaches from row k is kept as well, in row steps + 1 + k.
    A table holds every row it grew to, whether it is shared by many
    trajectories or serves one.

    With ``gen`` None the table is a quiescent epoch's: no launch component,
    so no currents, and its start row only (``steps`` 0, ``rem`` 0.0).
    """

    def __init__(self, gen: EffectiveGenerator | None, start: np.ndarray, dt: float,
                 steps: int, trigger_off: bool, rem: float = 0.0):
        self.gen, self.dt, self.trigger_off, self.rem = gen, dt, trigger_off, rem
        self.launch_ids = gen.launch_ids if gen else ()
        rows = (steps + 1) * (2 if rem else 1)
        self.states = np.empty((rows, len(start)), dtype=np.complex128)
        self.J = np.empty((rows, len(self.launch_ids)))
        self.s, self.rate, self.H = np.empty(rows), np.empty(rows), np.zeros(rows)
        self.neg = np.zeros(rows, dtype=np.int64)
        self.states[0] = start
        self._store(0, 1, None, 0.0)
        self.n = 0          # steps tabulated
        self._tails: set[int] = set()

    @np.errstate(over="ignore", invalid="ignore")
    def _store(self, i: int, b: int, prev: int | None, h: float):
        """Fill the other columns of rows i .. i + b - 1 from their states,
        each one step of h after the row before it (row ``prev``; None for
        the start row): J and s from block_currents, which checks the
        stepped rows, then the rates and the gated hazard. With the trigger
        on, a square modulus that is not positive raises (positive_moduli)."""
        J, s = block_currents(self.gen, self.states[i:i + b], None if prev is None else h)
        if self.trigger_off:
            rate = np.zeros(b)
        else:
            rate = np.maximum(J, 0.0).sum(axis=1) / positive_moduli(s)
        rows = slice(i, i + b)
        self.s[rows], self.rate[rows], self.J[rows] = s, rate, J
        if prev is not None:
            before = np.concatenate(([self.rate[prev]], rate[:-1]))
            inc = np.where(rate > 0.0, 0.5 * (before + rate) * h, 0.0)
            self.H[rows] = np.add.accumulate(np.concatenate(([self.H[prev]], inc)))[1:]
            self.neg[rows] = self.neg[prev] + np.cumsum((J < 0.0).any(axis=1))

    def grow(self, E: float, steps: int):
        """Grow until the table holds ``steps`` steps or its hazard passes E.
        Rows never change, so growing past what a trajectory reads is safe.

        With E infinite no row can stop the growth, so blocks double with
        the table (FILL_BLOCK, FILL_BLOCK, 2 FILL_BLOCK, ...), up to
        FILL_BLOCK_BYTES of states, and _store runs a few times rather than
        once per FILL_BLOCK rows. Only H and neg carry from one row to the
        next, each accumulated a row at a time, so the rows are the same
        floats for any split into blocks."""
        k = self.n
        cap = max(FILL_BLOCK, FILL_BLOCK_BYTES // self.states[0].nbytes)
        while k < steps and self.H[k] <= E:
            b = min(FILL_BLOCK if E < math.inf else min(max(FILL_BLOCK, k), cap), steps - k)
            step_block(self.states[k], self.gen, self.dt, self.states[k + 1:k + 1 + b])
            self._store(k + 1, b, k, self.dt)
            k += b
        self.n = k

    def ends(self, E: np.ndarray, steps: np.ndarray,
             tail: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(steps taken, table row reached, hit) per epoch with hazard draw E
        and at most ``steps`` steps: the first row whose hazard exceeds E;
        without one, the last step, and where ``tail`` is set the shorter
        last step after it, on which the hit may still land. More than one
        draw is searched in sorted order, which spares the search its
        mispredicted branches, and the rows are scattered back: the same
        rows (fresh draws each call: 10,000 into 602 rows 261 against 539
        us, 400 into 52 rows 9.9 against 13.3 us, 30 into 52 rows 2.1
        against 1.5 us). A single draw is searched as given."""
        self.grow(E.max(), steps.max())
        H = self.H[:self.n + 1]
        if len(E) > 1:
            order = E.argsort()
            r = np.empty(len(E), np.intp)
            r[order] = H.searchsorted(E[order], side="right")
        else:
            r = H.searchsorted(E, side="right")
        hit = r <= np.minimum(self.n, steps)
        n = np.where(hit, r, steps)
        last = n.copy()
        if tail is not None and (tail := tail & ~hit).any():
            for k in np.unique(steps[tail]).tolist():
                self.tail(k)
            last[tail] = len(self.s) // 2 + steps[tail]
            n[tail] += 1
            hit[tail] = self.H[last[tail]] > E[tail]
        return n, last, hit

    def tail(self, k: int) -> int:
        """Row of the point the shorter last step reaches from row k."""
        i = len(self.s) // 2 + k
        if k not in self._tails:
            step_block(self.states[k], self.gen, self.rem, self.states[i:i + 1])
            self._store(i, 1, k, self.rem)
            self._tails.add(k)
        return i

    def sampled_rows(self, plan: StepPlan) -> np.ndarray:
        """Grow through all of ``plan`` without a hit; the rows of its
        samples in time order, the shorter last step's point last."""
        self.grow(math.inf, plan.n_full)
        rows = np.flatnonzero(plan.sampled[:plan.n_full + 1])
        return np.append(rows, self.tail(plan.n_full)) if plan.rem else rows
