"""Trajectory ensembles, the deterministic current-integral oracle, and the
statistical comparison between them.

The oracle never collapses: it integrates the pre-hit dynamics on a refined
grid, accumulates each launch component's positive current integral, and
exponentiates the integrated rate into a predicted survival curve. Empirical
collapse shares (conditioned on a collapse happening) are compared against the
normalized integrals with binomial z-scores, and first-hit times against the
predicted survival via a Kolmogorov-Smirnov statistic taken on the run's step
grid (ks_statistic_grid), where every hit time lies.

Trajectories are embarrassingly parallel; every trajectory draws from its own
(master_seed, index) Philox substream, and aggregation follows trajectory
index order, so a run's statistics are byte-identical no matter how many
workers executed it.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dynamics import GapSemantics, IntegratorConfig, assemble_generator, evolve, step_grid
from .engine import PRESERVE_TOTAL, TERMINAL_QUIESCENT, TERMINAL_T_MAX, EpochRunner
from .errors import GapflowError, ProvenanceError
from .model import ScenarioModel
from .rules import RuleSet

# Trajectories one walk advances together; the walk's arrays hold
# O(BLOCK x launch components) floats.
BLOCK = 2048

Z_THRESHOLD_DEFAULT = 3.0
# Large-sample 1% critical value of the one-sample KS statistic is
# 1.63 / sqrt(n).
KS_COEFF_1PCT = 1.63


@dataclass(frozen=True)
class RunProvenance:
    """What must match before comparing two results statistically."""

    model_fingerprint: str
    gap_mode: str
    dt: float
    t_max: float

    def require_match(self, other: "RunProvenance"):
        if self != other:
            raise ProvenanceError(
                f"provenance mismatch: {self} vs {other}; "
                "stats and oracle must come from the same model and config")


def _provenance(model: ScenarioModel, cfg: IntegratorConfig,
                mode: GapSemantics) -> RunProvenance:
    return RunProvenance(model_fingerprint=model.fingerprint(),
                         gap_mode=mode.token, dt=cfg.dt, t_max=cfg.t_max)


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


def oracle_grid(cfg: IntegratorConfig, refine: int = 10) -> IntegratorConfig:
    """The ``refine``-times finer grid deterministic_oracle integrates; like
    every IntegratorConfig it raises above MAX_STEPS steps."""
    if refine < 1:
        raise GapflowError(f"refine must be >= 1, got {refine}")
    return IntegratorConfig(dt=cfg.dt / refine, t_max=cfg.t_max, sample_every=1,
                            norm_drift_budget=cfg.norm_drift_budget)


def deterministic_oracle(model: ScenarioModel, cfg: IntegratorConfig,
                         gap_mode: GapSemantics, refine: int = 10) -> OracleResult:
    """Integrate the no-collapse dynamics on a ``refine``-times finer grid.

    The survival takes the trapezoid of every step, while the engine's gated
    hazard (dynamics.EpochTable) drops that of a step ending at rate 0. The
    rate r = sum J+ / s is Lipschitz in t (J+ = max(J, 0) of a smooth J, s >
    0), so a step of h that ends at r = 0 starts at most L h above it and the
    trapezoid it drops, r(t_k) h / 2, is at most L h^2 / 2. It is nonzero
    only where sum J+ falls to 0 within the step, as a step at rate 0 at
    both ends adds nothing to either hazard, so the engine's exp(-H) departs
    from this survival by O(h^2) per zero crossing of sum J+: the order of
    the trapezoid rule's own error.
    """
    fine = oracle_grid(cfg, refine)
    gen = assemble_generator(model, RuleSet(), gap_mode)
    seg = evolve(model.psi0, gen, 0.0, cfg.t_max, fine)

    times = seg.times
    j_pos = np.clip(seg.currents, 0.0, None)
    # One call along contiguous rows sums each component pairwise, as a call
    # per column does (along axis 0 numpy does not); a single sample
    # (t_max = 0) integrates to 0.
    rows = np.trapezoid(np.ascontiguousarray(j_pos.T), times, axis=1)
    integrals = dict(zip(seg.launch_ids, rows.tolist()))
    total = sum(integrals.values())
    predicted = {m: v / total if total > 0.0 else 0.0 for m, v in integrals.items()}

    rate = j_pos.sum(axis=1) / seg.s
    increments = 0.5 * (rate[1:] + rate[:-1]) * np.diff(times)
    survival = np.exp(-np.concatenate([[0.0], np.cumsum(increments)]))

    return OracleResult(integrals=integrals, predicted_shares=predicted,
                        times=times, survival=survival,
                        provenance=_provenance(model, cfg, gap_mode))


# --- ensemble execution -----------------------------------------------------

def _run_range(model, ruleset, cfg, gap_mode, master_seed, policy, start, stop):
    """Per trajectory of [start, stop): first hit time or nan, first choice
    or -1, negative-current steps and whether it ended quiescent, as arrays.

    The range is walked in blocks of BLOCK through run_trajectory's epoch
    loop with one runner, whose tables every block shares, so epoch 0 and
    each epoch after a collapse onto a one-dimensional component is
    integrated once and each trajectory only draws against it.
    """
    runner = EpochRunner(model, ruleset, cfg, gap_mode, master_seed, policy)
    blocks = [_block_summary(runner, np.arange(lo, min(lo + BLOCK, stop)))
              for lo in range(start, stop, BLOCK)]
    return tuple(np.concatenate(column) for column in zip(*blocks))


def _block_summary(runner, indices):
    """_run_range's columns for one block of indices, folded in from each
    group as the walk yields it."""
    size = len(indices)
    t_first, first = np.full(size, math.nan), np.full(size, -1)
    negative, quiescent = np.zeros(size, np.int64), np.zeros(size, bool)
    try:
        for g in runner.walk(indices):
            negative[g.pos] += g.table.neg[g.last]
            if g.quiescent:
                quiescent[g.pos] = True
            elif g.epoch == 0:
                hit = g.chosen >= 0
                t_first[g.pos[hit]] = runner.times[(g.k0 + g.n)[hit]]
                first[g.pos[hit]] = g.chosen[hit]
    except GapflowError:
        # Raise what the lowest failing index raises when walked alone to
        # its end, as it does however the trajectories are split into blocks.
        for index in indices.tolist():
            runner.legs(index)
        raise
    return t_first, first, negative, quiescent


def run_ensemble(model: ScenarioModel, ruleset: RuleSet, cfg: IntegratorConfig,
                 gap_mode: GapSemantics, n: int, master_seed: int, *,
                 n_workers: int = 1, policy: str = PRESERVE_TOTAL) -> EnsembleStats:
    """Aggregate n independent trajectories, each run as run_trajectory runs it.

    Results are identical for any n_workers: substreams are keyed by
    trajectory index, shared epoch tables hold the same floats however far a
    worker grew them, and the reduce runs in index order.
    """
    if n < 1:
        raise GapflowError(f"ensemble size must be >= 1, got {n}")
    if n_workers < 1:
        raise GapflowError(f"n_workers must be >= 1, got {n_workers}")

    if n_workers == 1:
        parts = [_run_range(model, ruleset, cfg, gap_mode, master_seed, policy, 0, n)]
    else:
        chunk = max(1, math.ceil(n / (n_workers * 4)))
        bounds = [(s, min(s + chunk, n)) for s in range(0, n, chunk)]
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [pool.submit(_run_range, model, ruleset, cfg, gap_mode,
                                   master_seed, policy, lo, hi)
                       for lo, hi in bounds]
            parts = [fut.result() for fut in futures]    # submission order == index order
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
        provenance=_provenance(model, cfg, gap_mode),
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
        return {
            "n": self.n, "n_hits": self.n_hits,
            "z_scores": {str(m): z for m, z in sorted(self.z_scores.items())},
            "max_abs_z": self.max_abs_z, "z_threshold": self.z_threshold,
            "ks_d": self.ks_d, "ks_threshold": self.ks_threshold,
            "shares_observed": {str(m): v for m, v in sorted(self.shares_observed.items())},
            "shares_predicted": {str(m): v for m, v in sorted(self.shares_predicted.items())},
            "z_pass": self.z_pass, "ks_pass": self.ks_pass, "passed": self.passed,
        }


def compare(stats: EnsembleStats, oracle: OracleResult,
            z_threshold: float = Z_THRESHOLD_DEFAULT,
            ks_coefficient: float = KS_COEFF_1PCT) -> ComparisonReport:
    """Binomial z-scores on conditional shares plus KS on first-hit times."""
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
        grid = step_grid(IntegratorConfig(dt=stats.provenance.dt,
                                          t_max=stats.provenance.t_max))
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
