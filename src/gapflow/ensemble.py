"""Trajectory ensembles, the deterministic current-integral oracle, and the
statistical comparison between them.

The oracle never collapses: it reads the pre-hit dynamics on the run's own
grid and half a step after each of its rows, one RK4 step of h / 2 from the
row, integrates each launch component's positive current and the hit rate
sum J+ / s exactly over the clipped linear interpolant of every step and of
its two halves, extrapolates the two integrals (Richardson) and
exponentiates the integrated rate into a predicted survival curve on the
run's grid. An ensemble command runs the oracle first on its one
EpochRunner: the oracle grows that runner's epoch-0 table over the run's
grid, the one table of epoch 0 the command builds, and the trajectories
then draw against it. Empirical collapse shares (conditioned on a
collapse happening) are compared against the normalized integrals with
binomial z-scores, and first-hit times against the predicted survival via
a Kolmogorov-Smirnov statistic taken on the run's step grid
(ks_statistic_grid), where every hit time lies. Both carry a RunProvenance
that holds their model; the comparison hashes the models
(ScenarioModel.fingerprint) only where stats and oracle hold two model
objects, so one ensemble command hashes nothing.

Trajectories are embarrassingly parallel; every trajectory draws from its own
(master_seed, index) Philox substream, and aggregation follows trajectory
index order, so a run's statistics are byte-identical no matter how many
workers executed it. Each index range walks on one EpochRunner it is
handed, whose tables depend on neither seed nor norm policy.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (FILL_BLOCK, FILL_BLOCK_BYTES, EpochTable, GapSemantics, IntegratorConfig,
                       block_currents, positive_moduli, step_each)
from .engine import PRESERVE_TOTAL, TERMINAL_QUIESCENT, TERMINAL_T_MAX, EpochRunner
from .errors import GapflowError, ProvenanceError
from .model import ScenarioModel
from .rules import RuleSet

# Bytes of walk arrays one block of trajectories may hold (walk_block); a
# block pays the walk's fixed cost, some 170 numpy calls, once. Measured
# in-process on 2 shared vCPUs (interleaved medians, two rounds):
# three_mode's 10,000 trajectories take 7.7-8.3 ms in one block against
# 9.0-9.4 ms in blocks of 2048; 200,000 take 126-132 ms in blocks of
# 36,157 against 170-209 ms in blocks of 2048 and 178-207 ms in one; the
# dim-512 fan-out's 400 (675 to a block) 2.0-2.1 ms against 2.8-2.9 ms in
# three blocks. A block's tracemalloc peak was 386 B per three_mode
# trajectory and 15.1 kB per dim-512 star trajectory, under the count.
WALK_BYTES = 2 ** 24

Z_THRESHOLD_DEFAULT = 3.0
# Large-sample 1% critical value of the one-sample KS statistic is
# 1.63 / sqrt(n).
KS_COEFF_1PCT = 1.63


@dataclass(frozen=True)
class RunProvenance:
    """What must match before comparing two results statistically: the
    model, which equality and repr leave out, and the fields."""

    model: ScenarioModel = field(compare=False, repr=False)
    gap_mode: str
    suspended: tuple[str, ...]      # sorted; the rule-set variant is not compared
    dt: float
    t_max: float

    def require_match(self, other: "RunProvenance"):
        """Raise ProvenanceError unless the fields are equal and the models
        are one object or have one fingerprint. A model is frozen with a
        read-only psi0, so one object cannot differ from itself, and only
        two objects are hashed (ScenarioModel.fingerprint)."""
        if self != other:
            raise ProvenanceError(
                f"provenance mismatch: {self} vs {other}; "
                "stats and oracle must come from the same model, suspensions and config")
        if self.model is not other.model and self.model.fingerprint() != other.model.fingerprint():
            raise ProvenanceError("provenance mismatch: stats and oracle come from different "
                                  "models (fingerprints differ)")


def _provenance(model: ScenarioModel, ruleset: RuleSet, cfg: IntegratorConfig,
                mode: GapSemantics) -> RunProvenance:
    return RunProvenance(model=model, gap_mode=mode.token,
                         suspended=tuple(sorted(ruleset.suspended)), dt=cfg.dt,
                         t_max=cfg.t_max)


@dataclass
class EnsembleStats:
    n: int
    seed: int
    counts: dict[int, int]          # first-collapse counts per component id
    no_collapse: int
    hit_times: np.ndarray           # first-hit times, trajectory-index order
    hit_components: np.ndarray      # chosen component per hit, same order
    provenance: RunProvenance
    totals: dict = field(default_factory=dict)

    @property
    def n_hits(self) -> int:
        return int(len(self.hit_times))

    @property
    def shares(self) -> dict[int, float]:
        return {m: k / self.n for m, k in self.counts.items()}

    @property
    def no_collapse_fraction(self) -> float:
        return self.no_collapse / self.n

    def conditional_shares(self) -> dict[int, float]:
        if self.n_hits == 0:
            return {m: 0.0 for m in self.counts}
        return {m: k / self.n_hits for m, k in self.counts.items()}

    def empirical_survival(self, times: np.ndarray) -> np.ndarray:
        """Fraction of trajectories with no hit up to each of ``times``."""
        sorted_hits = np.sort(self.hit_times)
        hits_by = np.searchsorted(sorted_hits, np.asarray(times), side="right")
        return (self.n - hits_by) / self.n


@dataclass
class OracleResult:
    integrals: dict[int, float]     # int_0^t_max max(J_m, 0) dt
    predicted_shares: dict[int, float]
    times: np.ndarray
    survival: np.ndarray            # S(t) = exp(-int rate)
    provenance: RunProvenance

    def survival_at(self, t) -> np.ndarray:
        return np.interp(t, self.times, self.survival)

    def cdf_at(self, t) -> np.ndarray:
        """Hit-time CDF truncated to [0, t_max] (conditioned on a hit)."""
        s_end = float(self.survival[-1])
        total = 1.0 - s_end
        if total <= 0.0:
            return np.zeros_like(np.asarray(t, dtype=float))
        return (1.0 - self.survival_at(t)) / total


def _clipped_steps(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per step of h along the last axis of ``f``, the exact integral of the
    clipped linear interpolant max(L, 0) between its endpoints a and b:
    h (a + b) / 2 with both >= 0, 0 with both <= 0, else h p^2 / (2 |a - b|)
    for the positive endpoint p. With no value of ``f`` negative every step
    is the first case, and no crossing is looked for."""
    a, b = f[..., :-1], f[..., 1:]
    if not (f < 0.0).any():
        return 0.5 * h * (a + b)
    low, p = np.minimum(a, b), np.maximum(np.maximum(a, b), 0.0)
    steps = np.where(low >= 0.0, 0.5 * h * (a + b), 0.0)
    cross = (low < 0.0) & (p > 0.0)
    steps[cross] = (np.broadcast_to(h, a.shape)[cross] * p[cross] ** 2
                    / (2.0 * (p[cross] - low[cross])))
    return steps


def _midpoints(runner: EpochRunner, table: EpochTable) -> tuple[np.ndarray, np.ndarray]:
    """J and s half a step after each row of the no-hit profile but its
    last: one RK4 step of dt / 2 from each of rows 0 .. n_full - 1 and, where
    the run ends on a shorter step of rem, of rem / 2 from row n_full
    (step_each, then block_currents), in FILL_BLOCK_BYTES blocks of states
    as a growing table takes them. Each is the floats of the first step of
    a table from its row at that half step."""
    gen, n_full = table.gen, runner.n_full
    cap = max(FILL_BLOCK, FILL_BLOCK_BYTES // table.states[0].nbytes)
    spans = [(lo, min(lo + cap, n_full), runner.cfg.dt / 2) for lo in range(0, n_full, cap)]
    if runner.rem:
        spans.append((n_full, n_full + 1, runner.rem / 2))
    steps = n_full + bool(runner.rem)
    J, s = np.empty((steps, len(table.launch_ids))), np.empty(steps)
    for lo, hi, h in spans:
        J[lo:hi], s[lo:hi] = block_currents(gen, step_each(table.states[lo:hi], gen, h), h)
    return J, s


def _profile_steps(runner: EpochRunner):
    """The launch ids and grid times of ``runner``'s no-hit profile, and
    twice per step of its grid the clipped integrals of each launch
    component's J (components x steps) and of the rate sum_m J_m / s (0 with
    the trigger suspended): over the step (T_1), and over its halves, with
    the step's midpoint (_midpoints) between its rows (T_2)."""
    table, rows, times = runner.profile(every_step=True)
    J_mid, s_mid = _midpoints(runner, table)
    h = np.diff(times)
    # The grid's rows and its midpoints, interleaved, on the grid of half steps.
    J, s = np.empty((len(table.launch_ids), 2 * len(h) + 1)), np.empty(2 * len(h) + 1)
    J[:, ::2], J[:, 1::2] = table.J[rows].T, J_mid.T
    s[::2], s[1::2] = table.s[rows], s_mid
    half = np.repeat(0.5 * h, 2)
    j1, j2 = _clipped_steps(J[:, ::2], h), _clipped_steps(J, half)
    if table.trigger_off:
        r1, r2 = np.zeros(len(h)), np.zeros(len(half))
    else:
        q = J / positive_moduli(s)
        r1, r2 = _clipped_steps(q[:, ::2], h).sum(axis=0), _clipped_steps(q, half).sum(axis=0)
    return table.launch_ids, times, (j1, r1), (j2, r2)


def deterministic_oracle(model: ScenarioModel, cfg: IntegratorConfig,
                         gap_mode: GapSemantics, *, ruleset: RuleSet = RuleSet(),
                         runner: EpochRunner | None = None) -> OracleResult:
    """Integrate the no-collapse dynamics of ``ruleset`` on the run's grid,
    sample it half a step after each row, and extrapolate (Richardson): the
    no-hit profile (EpochRunner.profile) of ``runner``, whose epoch-0 table
    holds J and s at every grid point, and J and s at each step's midpoint,
    one RK4 step of h / 2 from the step's first row (h is dt, or rem for a
    shorter last step). The table is ``runner``'s (EpochRunner.reuse, which
    refuses a runner built for anything else), grown through the grid, whose
    rows a later walk on the runner draws against as the same floats; the
    midpoints are not kept. The one grid is the run's, so an ensemble that
    fits MAX_STEPS gets its oracle.

    Each step integrates J_m and J_m / s as the exact integral of their
    clipped linear interpolants (_clipped_steps), once over the step (T_1)
    and once over its two halves (T_2), so a zero crossing inside a step is
    counted, and the error of every integral is c h^2 + O(h^3), smooth in
    h: (4 T_2 - T_1) / 3 cancels c h^2, for the share integrals and for the
    cumulative hazard at each of the grid's points. Where no current changes
    sign it is Simpson's rule, h (a + 4 m + b) / 6. A midpoint's state
    carries the run grid's O(h^4) error of its row and one half step's
    O(h^5), not the O((h / 2)^4) of a run on dt / 2, which leaves the
    extrapolated integrals an O(h^4) error beyond the crossing rule's
    O(h^3) per sign change. The predicted survival is on the run's grid.

    The engine's gated hazard (dynamics.EpochTable) takes the trapezoid of
    the rate r = sum J+ / s over each step that ends at r > 0 and drops that
    of a step ending at r = 0. On the run's grid it differs from the
    clipped integrals only in a step where some q_m = J_m / s changes sign.
    Each q_m, and r with them, is Lipschitz in t (L; J is smooth, s > 0).
    For endpoints a < 0 < b the clipped integral h b^2 / (2 (b - a)) and the
    trapezoid of q_m+, h b / 2, are each at most h (b - a) / 2 <= L h^2 / 2,
    and a dropped step that ends at r = 0 started at most L h above it, so
    it drops at most L h^2 / 2. The run's grid in turn departs from this
    survival by the trapezoid rule's c h^2, which the extrapolation removes.
    So the engine's exp(-H) departs from this survival by O(h^2) plus
    O(h^2) per sign change of a J_m: errors of one order, which shrink by
    four as dt halves.
    """
    runner = EpochRunner.reuse(runner, model, ruleset, cfg, gap_mode)
    ids, times, (j1, r1), (j2, r2) = _profile_steps(runner)
    # A single sample (t_max = 0) integrates to 0.
    integrals = dict(zip(ids, ((4.0 * j2.sum(axis=1) - j1.sum(axis=1)) / 3.0).tolist()))
    total = sum(integrals.values())
    predicted = {m: v / total if total > 0.0 else 0.0 for m, v in integrals.items()}

    # The half-step hazard at each grid point: every second partial sum.
    hazard1 = np.concatenate([[0.0], np.cumsum(r1)])
    hazard2 = np.concatenate([[0.0], np.cumsum(r2)])[::2]
    survival = np.exp(-(4.0 * hazard2 - hazard1) / 3.0)
    return OracleResult(integrals=integrals, predicted_shares=predicted,
                        times=times, survival=survival,
                        provenance=_provenance(model, ruleset, cfg, gap_mode))


# --- ensemble execution -----------------------------------------------------

def trajectory_bytes(model: ScenarioModel) -> int:
    """Bytes a trajectory of ``model`` holds in a walk, counted as if it
    hit: 288 for its key, its epoch's Philox words and draws and its
    group's step, row, hit, scale and summary columns, 2 x 16 dim for its
    gathered and scaled pre-hit state, and 2 x 8 per launch candidate for
    its launch weights and their cumulative sums."""
    return 288 + 32 * model.dim + 16 * len(model.launch_candidate_ids)


def walk_block(model: ScenarioModel) -> int:
    """Trajectories one walk advances together: the most whose walk arrays
    fit WALK_BYTES, and at least one."""
    return max(1, WALK_BYTES // trajectory_bytes(model))


def _run_range(runner, seed, policy, start, stop):
    """Per trajectory of [start, stop) of ``seed`` under ``policy``: first
    hit time or nan, first choice or -1, negative-current steps and whether
    it ended quiescent, as arrays.

    The range is walked in blocks of walk_block(model) through
    run_trajectory's epoch loop on ``runner``, whose tables every block
    shares, so epoch 0 and each epoch after a collapse onto a
    one-dimensional component is integrated once and each trajectory only
    draws against it.
    """
    size = walk_block(runner.model)
    blocks = [_block_summary(runner, seed, policy, np.arange(lo, min(lo + size, stop)))
              for lo in range(start, stop, size)]
    return tuple(np.concatenate(column) for column in zip(*blocks))


def _block_summary(runner, seed, policy, indices):
    """_run_range's columns for one block of indices, folded in from each
    group as the walk yields it. A quiescent group, which may have no
    table, only marks its trajectories quiescent."""
    size = len(indices)
    t_first, first = np.full(size, math.nan), np.full(size, -1)
    negative, quiescent = np.zeros(size, np.int64), np.zeros(size, bool)
    try:
        for g in runner.walk(seed, indices, policy):
            if g.quiescent:                 # no step: no negative current
                quiescent[g.pos] = True
                continue
            negative[g.pos] += g.table.neg[g.last]
            if g.epoch == 0:
                hit = g.chosen >= 0
                t_first[g.pos[hit]] = runner.times[(g.k0 + g.n)[hit]]
                first[g.pos[hit]] = g.chosen[hit]
    except GapflowError:
        # Raise what the lowest failing index raises when walked alone to
        # its end, as it does however the trajectories are split into blocks.
        for index in indices.tolist():
            for _ in runner.walk(seed, [index], policy):
                pass
        raise
    return t_first, first, negative, quiescent


def run_ensemble(model: ScenarioModel, ruleset: RuleSet, cfg: IntegratorConfig,
                 gap_mode: GapSemantics, n: int, master_seed: int, *,
                 n_workers: int = 1, policy: str = PRESERVE_TOTAL,
                 runner: EpochRunner | None = None) -> EnsembleStats:
    """Aggregate n independent trajectories, each run as run_trajectory runs it.

    [0, n) is split into min(n_workers, n) contiguous ranges, and each
    range walks on a runner it is handed: the calling process walks the
    first on ``runner`` (EpochRunner.reuse, as run_trajectory takes it), a
    pool of the rest (none for one range) each other range on a new runner
    built here. Results are identical for any n_workers: substreams are
    keyed by trajectory index, shared epoch tables hold the same floats
    however far a process grew them, and the reduce runs in index order.
    """
    if n < 1:
        raise GapflowError(f"ensemble size must be >= 1, got {n}")
    if n_workers < 1:
        raise GapflowError(f"n_workers must be >= 1, got {n_workers}")
    runner = EpochRunner.reuse(runner, model, ruleset, cfg, gap_mode)

    k = min(n_workers, n)
    ranges = [(n * i // k, n * (i + 1) // k) for i in range(k)]
    with ProcessPoolExecutor(k - 1) if k > 1 else nullcontext() as pool:
        futures = [pool.submit(_run_range, EpochRunner(model, ruleset, cfg, gap_mode),
                               master_seed, policy, lo, hi) for lo, hi in ranges[1:]]
        parts = [_run_range(runner, master_seed, policy, *ranges[0]),
                 *(fut.result() for fut in futures)]
    t_first, first, negative, quiescent = (np.concatenate(c) for c in zip(*parts))

    hit = first >= 0
    hit_components = first[hit]
    counts = {m: 0 for m in model.launch_candidate_ids}
    for m, k in zip(*np.unique(hit_components, return_counts=True)):
        counts[int(m)] = int(k)
    # Terminal counts in the order each terminal first occurs: trajectory 0's first.
    n_quiescent = int(quiescent.sum())
    counted = [(TERMINAL_T_MAX, n - n_quiescent), (TERMINAL_QUIESCENT, n_quiescent)]
    if quiescent[0]:
        counted.reverse()
    terminals = {name: count for name, count in counted if count}

    return EnsembleStats(
        n=n, seed=master_seed, counts=counts, no_collapse=int(n - hit.sum()),
        hit_times=t_first[hit], hit_components=hit_components,
        provenance=_provenance(model, ruleset, cfg, gap_mode),
        totals={"negative_current_steps": int(negative.sum()), "terminals": terminals},
    )


# --- comparison -------------------------------------------------------------

def ks_statistic_grid(samples: np.ndarray, grid: np.ndarray,
                      cdf_grid: np.ndarray) -> float:
    """KS distance with both distributions evaluated on a shared atom grid.

    Hit times live on the integrator's step grid, so the empirical
    distribution has atoms of height ~ density*dt. Comparing its CDF against
    a continuous F with the classical order statistics would floor D at half
    the largest atom regardless of agreement; evaluating both CDFs at the
    grid points instead measures only genuine discrepancy, and the classical
    critical values remain valid (conservatively) for grouped data.
    """
    if len(samples) == 0:
        return 0.0
    counts = np.searchsorted(np.sort(samples), grid, side="right")
    emp = counts / len(samples)
    return float(np.max(np.abs(emp - cdf_grid)))


@dataclass
class ComparisonReport:
    n: int
    n_hits: int
    z_scores: dict[int, float]
    ks_d: float
    ks_threshold: float
    z_threshold: float
    shares_observed: dict[int, float]
    shares_predicted: dict[int, float]

    @property
    def max_abs_z(self) -> float:
        return max((abs(z) for z in self.z_scores.values()), default=0.0)

    @property
    def z_pass(self) -> bool:
        return all(abs(z) < self.z_threshold for z in self.z_scores.values())

    @property
    def ks_pass(self) -> bool:
        return self.ks_d < self.ks_threshold

    @property
    def passed(self) -> bool:
        return self.z_pass and self.ks_pass

    def to_dict(self) -> dict:
        """The report as JSON values, a non-finite float as None (null)."""
        def finite(v):
            return v if math.isfinite(v) else None

        return {
            "n": self.n, "n_hits": self.n_hits,
            "z_scores": {str(m): finite(z) for m, z in sorted(self.z_scores.items())},
            "max_abs_z": finite(self.max_abs_z), "z_threshold": finite(self.z_threshold),
            "ks_d": finite(self.ks_d), "ks_threshold": finite(self.ks_threshold),
            "shares_observed": {str(m): v for m, v in sorted(self.shares_observed.items())},
            "shares_predicted": {str(m): v for m, v in sorted(self.shares_predicted.items())},
            "z_pass": self.z_pass, "ks_pass": self.ks_pass, "passed": self.passed,
        }


def compare(stats: EnsembleStats, oracle: OracleResult,
            z_threshold: float = Z_THRESHOLD_DEFAULT,
            ks_coefficient: float = KS_COEFF_1PCT) -> ComparisonReport:
    """Binomial z-scores on conditional shares plus KS on first-hit times
    over the oracle's grid, which the provenance check makes the run's."""
    stats.provenance.require_match(oracle.provenance)

    n_hits = stats.n_hits
    observed = stats.conditional_shares()
    z_scores = {}
    for m, p in oracle.predicted_shares.items():
        obs = observed.get(m, 0.0)
        if n_hits == 0:
            z_scores[m] = 0.0 if p == 0.0 else math.inf
            continue
        if p <= 0.0 or p >= 1.0:
            z_scores[m] = 0.0 if math.isclose(obs, p, abs_tol=0.0) else math.inf
            continue
        se = math.sqrt(p * (1.0 - p) / n_hits)
        z_scores[m] = (obs - p) / se

    if n_hits > 0:
        grid = oracle.times[1:]
        ks_d = ks_statistic_grid(stats.hit_times, grid, oracle.cdf_at(grid))
        ks_threshold = ks_coefficient / math.sqrt(n_hits)
    else:
        ks_d = 0.0
        ks_threshold = math.inf

    return ComparisonReport(n=stats.n, n_hits=n_hits, z_scores=z_scores,
                            ks_d=ks_d, ks_threshold=ks_threshold,
                            z_threshold=z_threshold,
                            shares_observed=observed,
                            shares_predicted=dict(oracle.predicted_shares))
