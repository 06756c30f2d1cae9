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

Integration is fixed-step RK4 on dpsi/dt = -i G psi (hbar = 1), with a
state-dependent anti-Hermitian loss on the source sector in norm_compensated
mode. No adaptive stepping: trajectories must be reproducible across runs and
worker layouts. A step takes one of two paths:

* propagator: where G carries no compensation term (oneway and hermitian
  modes), the dynamics is linear and constant within an epoch, so an RK4
  step of length h is the fixed matrix M_h = sum_{k<=4} (-iGh)^k/k!, built
  once per h and applied as one matvec. It is dense where G is held dense
  (up to DENSE_DIM_LIMIT) and CSR above, where it is kept only while it
  stays sparse (SPARSE_FILL_LIMIT): a oneway star's M_h is I - iGh, a
  hermitian star's fills in. G's launch columns are zero in the sink modes,
  so M_h's launch columns are exact identity columns and the zero-backflow
  guarantee stays bit-exact.
* staged: the four-stage RK4 through gen.apply. Compensated mode needs it
  (its loss term is nonlinear, so no M_h exists), and so does a CSR
  generator whose M_h would fill in.

step_block is the one stepping routine: it fills a block of rows, each one
step after the row before it. On the propagator path it writes each row as
M_h times the row before it, with one finiteness check per block; the
staged path checks every row. step is a block of one. EpochTable steps an
epoch's deterministic evolution straight into its own rows, FILL_BLOCK
steps at a time, or in blocks that double with the table where no hazard
draw can stop the growth, then fills the block's currents (one stacked
product where G is linear, per row otherwise), square moduli, rates and
gated hazard at once. Trajectories draw against tables (engine), and
evolve, behind the oracle and `gapflow currents`, is a trigger-off table
walked to its end, as is the arrow profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateStateError, GapflowError, NonFiniteStateError, NormDriftError
from .model import (ACTIVE, LAUNCH, MAX_STEPS, REALIZED, STATUSES, ZEROED, GapSemantics,
                    OperatorBlock, ScenarioModel, component_moduli)
from .rules import RuleSet

# Below this total square modulus the compensated loss coefficient J/s_low is
# numerically meaningless (0/0); the feed term is O(sqrt(s_low)) there anyway.
S_LOW_FLOOR = 1e-300

# Dense matvec beats csr by a wide margin for the model sizes this package
# targets; fall back to sparse only for genuinely large bases.
DENSE_DIM_LIMIT = 256

# A CSR M_h is kept while its nnz is at most this many times nnz(G) + dim,
# the work of one staged apply. Measured on random sparse G (one BLAS
# thread, 2 vCPUs): at nnz(M_h) / (nnz(G) + dim) of 3.5-3.9 a CSR M_h matvec
# took 19 us against 47 us for a staged step at dim 512, and 43 against
# 115 us at dim 2048; the two broke even near 9 at dim 2048.
SPARSE_FILL_LIMIT = 4

# RK4 step matrices kept per generator: a run needs dt, perhaps a shorter last
# step, and the two probes of fd_current_check.
PROPAGATOR_CACHE_SIZE = 4

# Rows an EpochTable steps before it fills their other columns at once.
FILL_BLOCK = 128


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
class GeneratorProvenance:
    rules: str
    gap_mode: str
    suspended: tuple[str, ...]
    epoch: int


@dataclass(frozen=True)
class CurrentVector:
    """Per-launch-component probability currents J_m, units 1/time."""

    ids: tuple[int, ...]
    J: np.ndarray

    def __getitem__(self, comp_id: int) -> float:
        return float(self.J[self.ids.index(comp_id)])

    def as_dict(self) -> dict[int, float]:
        return {m: float(j) for m, j in zip(self.ids, self.J)}

    def total_positive(self) -> float:
        return float(np.maximum(self.J, 0.0).sum())


@dataclass(frozen=True)
class EffectiveGenerator:
    """Immutable per-epoch generator, apart from its bounded M_h cache;
    shareable across concurrent trajectories."""

    dim: int
    matrix: sp.csr_matrix
    mode: GapSemantics
    launch_ids: tuple[int, ...]
    launch_indices: Mapping[int, np.ndarray]
    # (low component indices, feed block) per included gap; drives the
    # compensated-mode loss term. Empty in the other modes.
    compensations: tuple[tuple[np.ndarray, sp.csr_matrix], ...]
    # (low, high) -> reverse block, or None where the coupling is structurally
    # absent (the bit-exact zero-backflow guarantee of the sink modes); as
    # CSR in backflow_matrices.
    backflows: Mapping[tuple[int, int], OperatorBlock | None]
    provenance: GeneratorProvenance
    dense: np.ndarray | None = field(default=None, compare=False)
    # step size -> M_h, filled on first use (see propagator)
    _propagators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dense is None and self.dim <= DENSE_DIM_LIMIT:
            object.__setattr__(self, "dense", self.matrix.toarray())

    @property
    def linear(self) -> bool:
        """G has no compensation term: dpsi/dt = -i G psi, the propagator
        path wherever M_h exists."""
        return not self.compensations

    def propagator(self, h: float) -> np.ndarray | sp.csr_matrix | None:
        """The RK4 step matrix M_h = sum_{k<=4} (-iGh)^k/k!, or None off the
        propagator path (compensated mode, a CSR G whose M_h fills in).

        Built in Horner form on first use, dense where G is and CSR
        otherwise; the PROPAGATOR_CACHE_SIZE most recently asked step sizes
        are kept, None included.
        """
        if not self.linear:
            return None
        if h not in self._propagators:
            if len(self._propagators) >= PROPAGATOR_CACHE_SIZE:
                del self._propagators[next(iter(self._propagators))]
            self._propagators[h] = self._horner(h)
        return self._propagators[h]

    def _horner(self, h: float) -> np.ndarray | sp.csr_matrix | None:
        g, sparse = self.matrix, self.dense is None
        limit = SPARSE_FILL_LIMIT * (g.nnz + self.dim)
        # nnz(G^2) <= sum_k nnz(column k) nnz(row k) rejects a G that fills
        # in (a hermitian star) before any sparse product.
        if sparse and np.bincount(g.indices, minlength=self.dim) @ np.diff(g.indptr) > limit:
            return None
        if sparse:
            a, eye = (-1j * h) * g, sp.identity(self.dim, dtype=np.complex128, format="csr")
        else:
            a, eye = (-1j * h) * self.dense, np.eye(self.dim, dtype=np.complex128)
        m = eye + a @ (eye + (a / 2.0) @ (eye + (a / 3.0) @ (eye + a / 4.0)))
        return None if sparse and m.nnz > limit else m

    @cached_property
    def launch_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Launch indices concatenated in launch_ids order, and the offset at
        which each component's run starts."""
        runs = [self.launch_indices[cid] for cid in self.launch_ids]
        starts = np.cumsum([0] + [len(r) for r in runs])[:-1].astype(np.intp)
        return (np.concatenate(runs) if runs else np.empty(0, dtype=np.intp)), starts

    @cached_property
    def backflow_matrices(self) -> dict[tuple[int, int], sp.csr_matrix | None]:
        """backflows as CSR, built on first use: only gap_backflow reads
        them, and a wide hermitian generator has one block per gap."""
        return {key: None if back is None else back.to_coo().tocsr()
                for key, back in self.backflows.items()}

    @property
    def conserves_norm(self) -> bool:
        return self.mode is not GapSemantics.ONE_WAY_FEED

    def matvec(self, psi: np.ndarray) -> np.ndarray:
        if self.dense is not None:
            return self.dense @ psi
        return self.matrix @ psi

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """dpsi/dt: -i G psi plus the compensated-mode source loss."""
        out = -1j * self.matvec(psi)
        for low_idx, feed in self.compensations:
            low = psi[low_idx]
            s_low = float(np.vdot(low, low).real)
            if s_low <= S_LOW_FLOOR:
                continue
            fed = feed @ psi
            j_gap = 2.0 * float(np.vdot(psi, fed).imag)
            out[low_idx] -= (0.5 * j_gap / s_low) * low
        return out


def assemble_generator(model: ScenarioModel, ruleset: RuleSet, mode: GapSemantics,
                       suspended: frozenset[str] | None = None,
                       statuses: Mapping[int, str] | None = None,
                       epoch: int = 0) -> EffectiveGenerator:
    """Build the generator for the given component statuses.

    ``suspended`` augments the rule set's own suspensions; pass the statuses
    reached after the most recent collapse (defaults to the model's initial
    ones).
    """
    if statuses is None:
        statuses = model.initial_statuses()
    ruleset = ruleset.with_suspended(suspended) if suspended else ruleset
    for comp_id, st in statuses.items():
        model.component(comp_id)
        if st not in STATUSES:
            raise GapflowError(f"unknown status {st!r} for component {comp_id}")
    missing = {c.id for c in model.components} - set(statuses)
    if missing:
        raise GapflowError(f"statuses missing for components {sorted(missing)}")

    freeze_off = ruleset.freeze_suspended
    entries: list[tuple[int, int, complex]] = []

    def own_included(comp_id: int) -> bool:
        st = statuses[comp_id]
        if st in (ACTIVE, REALIZED):
            return True
        return st == LAUNCH and freeze_off

    for comp_id, block in model.hamiltonian.own.items():
        if own_included(comp_id):
            entries.extend(block.entries)

    sourceable = {ACTIVE, REALIZED} | ({LAUNCH} if freeze_off else set())
    compensations = []
    backflows: dict[tuple[int, int], OperatorBlock | None] = {}
    for gap in model.gaps:
        st_low, st_high = statuses[gap.low], statuses[gap.high]
        if freeze_off and mode is GapSemantics.HERMITIAN_TRUNCATED:
            # Suspending the freeze restores the full Hermitian H0 + H01 on
            # every surviving component, the counterfactual the arrow
            # experiments need.
            included = st_low != ZEROED and st_high != ZEROED
        else:
            included = st_low in sourceable and st_high == LAUNCH
        if not included:
            continue
        feed = gap.interaction
        entries.extend(feed.entries)
        if mode is GapSemantics.HERMITIAN_TRUNCATED:
            back = OperatorBlock(model.dim, feed.adjoint_entries())
            entries.extend(back.entries)
            backflows[(gap.low, gap.high)] = back
        else:
            backflows[(gap.low, gap.high)] = None
            if mode is GapSemantics.NORM_COMPENSATED:
                compensations.append((model.indices_of(gap.low), feed.to_coo().tocsr()))

    launch_ids = tuple(sorted(cid for cid, st in statuses.items() if st == LAUNCH))
    return EffectiveGenerator(
        dim=model.dim,
        matrix=OperatorBlock(model.dim, tuple(entries)).to_coo().tocsr(),
        mode=mode,
        launch_ids=launch_ids,
        launch_indices={cid: model.indices_of(cid) for cid in launch_ids},
        compensations=tuple(compensations),
        backflows=backflows,
        provenance=GeneratorProvenance(
            rules=ruleset.variant, gap_mode=mode.token,
            suspended=tuple(sorted(ruleset.suspended)), epoch=epoch),
    )


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
    further gen.apply calls.

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


def square_moduli(block: np.ndarray) -> np.ndarray:
    """<psi|psi> per row of ``block``, one stacked product that rounds as
    square_modulus's np.vdot does."""
    return (block.conj()[:, None, :] @ block[:, :, None])[:, 0, 0].real


def _non_finite(gen: EffectiveGenerator, h: float,
                what: str = "amplitudes") -> NonFiniteStateError:
    return NonFiniteStateError(f"non-finite {what} after step dt={h} "
                               f"(epoch {gen.provenance.epoch}, mode {gen.mode.token})")


def step(state: np.ndarray, gen: EffectiveGenerator, dt: float) -> np.ndarray:
    """One RK4 update of dpsi/dt = gen.apply(psi): step_block of one row.

    dt may be negative (used by the central-difference current oracle).
    """
    psi = np.asarray(state, dtype=np.complex128)
    return step_block(psi, gen, dt, np.empty((1, len(psi)), dtype=np.complex128))[0]


@dataclass
class TrajectorySegment:
    """Deterministic evolution samples between t0 and t1."""

    times: np.ndarray
    states: np.ndarray          # (n_samples, dim)
    currents: np.ndarray        # (n_samples, len(launch_ids))
    launch_ids: tuple[int, ...]

    @property
    def s(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.states.conj(), self.states).real

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def current_column(self, comp_id: int) -> np.ndarray:
        return self.currents[:, self.launch_ids.index(comp_id)]

    def component_moduli(self, model: ScenarioModel) -> dict[int, np.ndarray]:
        ids = (c.id for c in model.components)
        return dict(zip(ids, component_moduli(self.states, model).T))


def component_currents(state: np.ndarray, gen: EffectiveGenerator) -> CurrentVector:
    """J_m = d|P_m psi|^2/dt for each launch component, computed analytically.

    Equal to 2 Im(<P_m psi|G psi>); evaluated through gen.apply so the
    compensated-mode loss (which never touches launch rows) needs no special
    case.
    """
    psi = np.asarray(state, dtype=np.complex128)
    idx, starts = gen.launch_runs
    dpsi = gen.apply(psi)
    w = (psi[idx].conj() * dpsi[idx]).real
    return CurrentVector(ids=gen.launch_ids, J=2.0 * np.add.reduceat(w, starts))


def fd_current_check(state: np.ndarray, gen: EffectiveGenerator,
                     dt_probe: float = 1e-6) -> CurrentVector:
    """Central-difference oracle for component_currents."""
    psi = np.asarray(state, dtype=np.complex128)
    fwd = step(psi, gen, dt_probe)
    bwd = step(psi, gen, -dt_probe)
    J = np.empty(len(gen.launch_ids))
    for k, comp_id in enumerate(gen.launch_ids):
        idx = gen.launch_indices[comp_id]
        s_fwd = float(np.vdot(fwd[idx], fwd[idx]).real)
        s_bwd = float(np.vdot(bwd[idx], bwd[idx]).real)
        J[k] = (s_fwd - s_bwd) / (2.0 * dt_probe)
    return CurrentVector(ids=gen.launch_ids, J=J)


def gap_backflow(state: np.ndarray, gen: EffectiveGenerator) -> dict[tuple[int, int], float]:
    """Signed flow into each gap's low component through the reverse block.

    Exactly 0.0 wherever the reverse block is structurally absent (sink
    modes): no arithmetic is performed, so the zero is bit-exact.
    """
    psi = np.asarray(state, dtype=np.complex128)
    out = {}
    for key, back in gen.backflow_matrices.items():
        if back is None:
            out[key] = 0.0
        else:
            out[key] = 2.0 * float(np.vdot(psi, back @ psi).imag)
    return out


def _check_epoch_drift(gen, cfg, s_now, s_epoch_start, elapsed):
    if gen.conserves_norm and elapsed > 0:
        drift = abs(s_now - s_epoch_start)
        allowed = cfg.norm_drift_budget * max(elapsed, cfg.dt)
        if drift > allowed:
            raise NormDriftError(
                f"norm drift {drift:.3e} exceeds budget {allowed:.3e} "
                f"within epoch (elapsed {elapsed})")


class StepPlan(NamedTuple):
    """A run's time grid, as tables, walks and evolve read it.

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

    def _store(self, i: int, b: int, prev: int | None, h: float):
        """Fill the other columns of rows i .. i + b - 1 from their states,
        each one step of h after the row before it (row ``prev``; None for
        the start row). Stacked matvecs and dot products round as
        component_currents' G @ psi and square_modulus's np.vdot do, dense
        or CSR; block @ dense.T need not. A stepped row whose square
        modulus overflows raises, trigger off or on."""
        gen, block = self.gen, self.states[i:i + b]
        if gen is None:
            J = np.empty((b, 0))
        elif gen.linear:
            idx, starts = gen.launch_runs
            g_psi = ((gen.dense @ block[:, :, None])[:, :, 0] if gen.dense is not None
                     else (gen.matrix @ np.ascontiguousarray(block.T)).T)
            dpsi = -1j * g_psi
            J = 2.0 * np.add.reduceat((block[:, idx].conj() * dpsi[:, idx]).real, starts, axis=1)
        else:
            J = np.array([component_currents(psi, gen).J for psi in block])
        s = square_moduli(block)
        if prev is not None and not np.isfinite(s).all():
            raise _non_finite(gen, h, "square modulus")
        if self.trigger_off:
            rate = np.zeros(b)
        elif (bad := (s <= 0.0).nonzero()[0]).size:
            raise DegenerateStateError(f"total square modulus {s[bad[0]]} is not positive")
        else:
            rate = np.maximum(J, 0.0).sum(axis=1) / s
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
        the table (FILL_BLOCK, FILL_BLOCK, 2 FILL_BLOCK, ...) and _store runs
        a few times rather than once per FILL_BLOCK rows. Only H and neg
        carry from one row to the next, each accumulated a row at a time, so
        the rows are the same floats for any split into blocks."""
        k = self.n
        while k < steps and self.H[k] <= E:
            b = min(FILL_BLOCK if E < math.inf else max(FILL_BLOCK, k), steps - k)
            step_block(self.states[k], self.gen, self.dt, self.states[k + 1:k + 1 + b])
            self._store(k + 1, b, k, self.dt)
            k += b
        self.n = k

    def ends(self, E: np.ndarray, steps: np.ndarray,
             tail: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(steps taken, table row reached, hit) per epoch with hazard draw E
        and at most ``steps`` steps: the first row whose hazard exceeds E;
        without one, the last step, and where ``tail`` is set the shorter
        last step after it, on which the hit may still land."""
        self.grow(E.max(), steps.max())
        r = self.H[:self.n + 1].searchsorted(E, side="right")
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


def evolve(state: np.ndarray, gen: EffectiveGenerator, t0: float, t1: float,
           cfg: IntegratorConfig) -> TrajectorySegment:
    """Integrate from t0 to t1 along the StepPlan of the span, sampling every
    cfg.sample_every steps: the sampled rows of a trigger-off EpochTable.

    The span need not be an integer number of steps; a shorter final step
    lands exactly on t1. t1 == t0 yields a single untouched sample.
    """
    if t1 < t0:
        raise GapflowError(f"evolve called with t1={t1} < t0={t0}")
    span = t1 - t0
    plan = StepPlan.of(replace(cfg, t_max=span))
    table = EpochTable(gen, state, cfg.dt, plan.n_full, True, plan.rem)
    rows = table.sampled_rows(plan)
    times = t0 + plan.times[plan.sampled]
    if len(times) > 1:
        times[-1] = t1
    elif span > 0:
        # A span below StepPlan's 1e-9 dt guard takes no step but still
        # ends on t1.
        rows, times = np.zeros(2, np.intp), np.array([t0, t1])
    _check_epoch_drift(gen, cfg, float(table.s[rows[-1]]), float(table.s[0]), span)
    return TrajectorySegment(times=times, states=table.states[rows],
                             currents=table.J[rows], launch_ids=gen.launch_ids)
