"""Ensemble statistics against the deterministic current-integral oracle."""

import json
import math

import numpy as np
import pytest

from gapflow.dynamics import GapSemantics, IntegratorConfig
from gapflow.engine import (PRESERVE_TOTAL, TERMINAL_QUIESCENT, EpochRunner, run_trajectory,
                            step_grid)
from gapflow.ensemble import (
    BLOCK,
    ComparisonReport,
    EnsembleStats,
    OracleResult,
    RunProvenance,
    compare,
    deterministic_oracle,
    _block_summary,
    _run_range,
    ks_statistic_grid,
    run_ensemble,
)
from gapflow.errors import GapflowError, ProvenanceError
from gapflow.fixtures import chain_three_level, three_mode, two_level
from gapflow.model import load_scenario
from gapflow.rules import NRULES3, RuleSet
from gapflow.substreams import CROSSOVER, substream_keys

from conftest import WIDE_LAUNCH

R3 = RuleSet(NRULES3)
ONEWAY = GapSemantics.ONE_WAY_FEED
CFG = IntegratorConfig(dt=0.01, t_max=6.0)


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def test_oracle_three_mode_shares_closed_form(three_mode_model):
    """Couplings (1, 1, sqrt 2): share ratio 1:1:2 exactly."""
    oracle = deterministic_oracle(three_mode_model, CFG, ONEWAY)
    assert oracle.predicted_shares[1] == pytest.approx(0.25, abs=1e-12)
    assert oracle.predicted_shares[2] == pytest.approx(0.25, abs=1e-12)
    assert oracle.predicted_shares[3] == pytest.approx(0.50, abs=1e-12)


def test_oracle_three_mode_survival_closed_form(three_mode_model):
    """rate(t) = 8t/(1+4t^2) gives S(t) = 1/(1+4t^2)."""
    oracle = deterministic_oracle(three_mode_model, CFG, ONEWAY)
    t = oracle.times
    expected = 1.0 / (1.0 + 4.0 * t**2)
    assert np.allclose(oracle.survival, expected, rtol=1e-6, atol=1e-9)
    assert oracle.survival_at(6.0) == pytest.approx(1.0 / 145.0, rel=1e-6)


def test_oracle_two_level_survival_closed_form(two_level_model):
    """rate(t) = 2t/(1+t^2) gives S(t) = 1/(1+t^2)."""
    oracle = deterministic_oracle(two_level_model, CFG, ONEWAY)
    assert oracle.survival_at(1.0) == pytest.approx(0.5, rel=1e-6)
    assert oracle.survival_at(6.0) == pytest.approx(1.0 / 37.0, rel=1e-6)


def test_oracle_grid_refinement_converges(three_mode_model):
    coarse = deterministic_oracle(three_mode_model, CFG, ONEWAY, refine=5)
    fine = deterministic_oracle(three_mode_model, CFG, ONEWAY, refine=20)
    for comp in (1, 2, 3):
        assert coarse.predicted_shares[comp] == pytest.approx(
            fine.predicted_shares[comp], rel=1e-6)
    assert coarse.survival_at(6.0) == pytest.approx(fine.survival_at(6.0), rel=1e-5)


@pytest.mark.parametrize("mode", [GapSemantics.HERMITIAN_TRUNCATED,
                                  GapSemantics.NORM_COMPENSATED], ids=lambda m: m.token)
@pytest.mark.parametrize("builder", [three_mode, chain_three_level], ids=lambda b: b.__name__)
def test_gated_hazard_converges_to_oracle_survival(builder, mode):
    """The engine's hazard drops the trapezoid of a step that ends at rate 0,
    the oracle's keeps it; where backflow turns the currents negative the gap
    closes as h^2, so the end survivals agree ever better as dt halves."""
    model = builder()
    errors = []
    for dt in (0.02, 0.01, 0.005):
        cfg = IntegratorConfig(dt=dt, t_max=6.0)
        runner = EpochRunner(model, R3, cfg, mode, 0)
        table = runner.table(0, None)
        table.grow(math.inf, runner.n_full)
        oracle = deterministic_oracle(model, cfg, mode)
        errors.append(abs(math.exp(-table.H[runner.n_full]) - oracle.survival[-1]))
    assert errors[0] >= 3 * errors[1] >= 9 * errors[2]
    assert errors[1] < 3e-5


def test_oracle_rejects_bad_refine(three_mode_model):
    with pytest.raises(GapflowError):
        deterministic_oracle(three_mode_model, CFG, ONEWAY, refine=0)


def test_oracle_cdf_is_truncated_and_normalized(three_mode_model):
    oracle = deterministic_oracle(three_mode_model, CFG, ONEWAY)
    grid = step_grid(CFG)
    cdf = oracle.cdf_at(grid)
    assert cdf[0] >= 0.0
    assert cdf[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(cdf) >= -1e-15)


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------


def small_ensemble(model, n=200, seed=7, **kw):
    return run_ensemble(model, R3, CFG, ONEWAY, n, seed, **kw)


def test_single_trajectory_ensemble_matches_run_trajectory(three_mode_model):
    stats = small_ensemble(three_mode_model, n=1, seed=13)
    rec = run_trajectory(three_mode_model, R3, CFG, ONEWAY, 13, traj_index=0,
                         record_samples=False)
    assert stats.n == 1
    ev = rec.first_event
    if ev is None:
        assert stats.no_collapse == 1
    else:
        assert stats.hit_times[0] == ev.t_sc
        assert stats.hit_components[0] == ev.chosen
        assert stats.counts[ev.chosen] == 1


def test_ensemble_matches_per_index_trajectories(three_mode_model):
    """The fast path must replay exactly what run_trajectory would do."""
    n = 40
    stats = small_ensemble(three_mode_model, n=n, seed=21)
    expected_times, expected_comps = [], []
    for k in range(n):
        rec = run_trajectory(three_mode_model, R3, CFG, ONEWAY, 21, traj_index=k,
                             record_samples=False)
        ev = rec.first_event
        if ev is not None:
            expected_times.append(ev.t_sc)
            expected_comps.append(ev.chosen)
    assert np.array_equal(stats.hit_times, np.array(expected_times))
    assert np.array_equal(stats.hit_components, np.array(expected_comps))


def test_ensemble_chained_fixture_uses_fallback(chain_model):
    """Chained trajectories leave the epoch-0 table for the shared epoch-1
    table; every summary must equal per-index run_trajectory exactly."""
    cfg = IntegratorConfig(dt=0.01, t_max=12.0)
    stats = run_ensemble(chain_model, R3, cfg, ONEWAY, 30, 5)
    times, comps, terminals, negative = [], [], {}, 0
    for k in range(30):
        rec = run_trajectory(chain_model, R3, cfg, ONEWAY, 5, traj_index=k,
                             record_samples=False)
        ev = rec.first_event
        if ev is not None:
            times.append(ev.t_sc)
            comps.append(ev.chosen)
        terminals[rec.terminal] = terminals.get(rec.terminal, 0) + 1
        negative += rec.meta["negative_current_steps"]
    assert np.array_equal(stats.hit_times, np.array(times))
    assert np.array_equal(stats.hit_components, np.array(comps))
    assert stats.totals["terminals"] == terminals
    assert stats.totals["negative_current_steps"] == negative
    assert terminals.get("quiescent", 0) > 0  # some trajectories cascaded


def test_shared_epoch_one_table_matches_second_hit_law(chain_model):
    """After C1 realizes, the shared epoch-1 table drives the C1 -> C2 hit.

    From the collapse at t1 the second hit has survival
    S1(tau) = 1 / (1 + 0.49 tau^2) (g2 = 0.7), so the expected number of
    quiescent terminals is sum over first hits of 1 - S1(t_max - t1). At
    t_max = 3 a coupling of 0.6 instead of 0.7 moves z by about 6.
    """
    cfg = IntegratorConfig(dt=0.01, t_max=3.0)
    stats = run_ensemble(chain_model, R3, cfg, ONEWAY, 2000, 4242)
    assert set(stats.hit_components.tolist()) == {1}
    tau = cfg.t_max - stats.hit_times
    p = 1.0 - 1.0 / (1.0 + 0.49 * tau**2)
    observed = stats.totals["terminals"].get("quiescent", 0)
    z = (observed - p.sum()) / np.sqrt(np.sum(p * (1.0 - p)))
    assert abs(z) < 4.0, (observed, p.sum(), z)


def test_shorter_last_step_matches_per_index_trajectories():
    """A t_max off the dt grid ends every epoch with a shorter step, taken
    per trajectory from the shared table; hits may land on it."""
    tail_hits = 0
    for model, t_max, n in ((three_mode(), 0.505, 400), (chain_three_level(), 2.005, 100)):
        cfg = IntegratorConfig(dt=0.01, t_max=t_max)
        stats = run_ensemble(model, R3, cfg, ONEWAY, n, 9)
        recs = [run_trajectory(model, R3, cfg, ONEWAY, 9, traj_index=k, record_samples=False)
                for k in range(n)]
        assert np.array_equal(stats.hit_times,
                              np.array([r.first_event.t_sc for r in recs if r.events]))
        assert stats.totals["negative_current_steps"] == 0
        tail_hits += sum(ev.t_sc == t_max for r in recs for ev in r.events)
        assert all(r.meta["final_t"] == t_max for r in recs if r.terminal == "t_max")
    assert tail_hits > 0


def test_worker_counts_agree_bitwise(three_mode_model, chain_model):
    """Workers walk their ranges in blocks of their own; on the chain,
    epoch-1 groups form per worker and still give the same summaries."""
    for model, cfg in ((three_mode_model, CFG), (chain_model, IntegratorConfig(dt=0.01,
                                                                               t_max=12.0))):
        a = run_ensemble(model, R3, cfg, ONEWAY, 97, 3, n_workers=1)
        b = run_ensemble(model, R3, cfg, ONEWAY, 97, 3, n_workers=4)
        assert np.array_equal(a.hit_times, b.hit_times)
        assert np.array_equal(a.hit_components, b.hit_components)
        assert a.counts == b.counts
        assert a.no_collapse == b.no_collapse
        assert a.totals == b.totals
    assert a.totals["terminals"]["quiescent"] > 50      # the chain cascaded


@pytest.mark.parametrize("mode", list(GapSemantics), ids=lambda mode: mode.token)
@pytest.mark.parametrize("build", [three_mode, chain_three_level], ids=["three_mode", "chain"])
def test_array_draws_agree_with_per_key_loop(build, mode):
    """Above BLOCK (a full block and a tail block, both of at least
    CROSSOVER keys) an ensemble's epochs draw as arrays, while run_trajectory
    walks a block of one through the per-key loop; both give each sampled
    index the same first hit, choice, negative-current steps and ending, and
    two workers, whose ranges split the blocks elsewhere, the same ensemble."""
    model = build()
    rules = RuleSet(model.defaults.rules)
    cfg = IntegratorConfig(dt=model.defaults.dt, t_max=model.defaults.t_max)
    n = BLOCK + 300
    assert n - BLOCK >= CROSSOVER
    t_first, first, negative, quiescent = _run_range(model, rules, cfg, mode, 2026,
                                                     PRESERVE_TOTAL, 0, n)
    cache = {}
    for i in [*range(0, n, 41), BLOCK, n - 1]:
        rec = run_trajectory(model, rules, cfg, mode, 2026, traj_index=i, record_samples=False,
                             gen_cache=cache)
        hit = (rec.events[0].t_sc, rec.events[0].chosen) if rec.events else (None, -1)
        assert (None if math.isnan(t_first[i]) else float(t_first[i]), int(first[i])) == hit
        assert negative[i] == rec.meta["negative_current_steps"]
        assert quiescent[i] == (rec.terminal == TERMINAL_QUIESCENT)
    assert (first >= 0).sum() > CROSSOVER
    one = run_ensemble(model, rules, cfg, mode, n, 2026)
    two = run_ensemble(model, rules, cfg, mode, n, 2026, n_workers=2)
    for a, b in ((one.hit_times, two.hit_times), (one.hit_components, two.hit_components)):
        assert np.array_equal(a, b)
    assert (one.counts, one.no_collapse, one.totals) == (two.counts, two.no_collapse, two.totals)


def test_blocks_agree_with_blocks_of_one():
    """One block that mixes shared tables with private ones (collapses onto
    a two-dimensional launch component) summarizes each trajectory as a
    block of one does, in every gap mode."""
    model = load_scenario(json.dumps(WIDE_LAUNCH))
    cfg = IntegratorConfig(dt=0.01, t_max=3.0)
    for mode in GapSemantics:
        block = _run_range(model, R3, cfg, mode, 11, PRESERVE_TOTAL, 0, 60)
        runner = EpochRunner(model, R3, cfg, mode, 11, gen_cache={})
        alone = [_block_summary(runner, np.array([i])) for i in range(60)]
        for column, expected in zip(block, zip(*alone)):
            np.testing.assert_array_equal(column, np.concatenate(expected))
        first, quiescent = block[1], block[3]
        # Quiescent here means C1 -> C2 fired on C1's private table.
        assert (first == 1).sum() > 20 and quiescent.sum() > 10


def test_shares_sum_to_one(three_mode_model):
    stats = small_ensemble(three_mode_model, n=150, seed=2)
    shares = stats.conditional_shares()
    assert sum(shares.values()) == pytest.approx(1.0)


def test_zero_coupling_component_never_chosen():
    doc = {
        "schema": "scenario/1",
        "dim": 3,
        "components": [
            {"id": 0, "indices": [0], "entropy_rank": 0, "status": "active"},
            {"id": 1, "indices": [1], "entropy_rank": 1, "status": "launch"},
            {"id": 2, "indices": [2], "entropy_rank": 1, "status": "launch"},
        ],
        "gaps": [
            {"low": 0, "high": 1, "irreversible": True, "entries": [[1, 0, 1.0, 0.0]]},
            {"low": 0, "high": 2, "irreversible": True, "entries": [[2, 0, 0.0, 0.0]]},
        ],
        "own": [],
        "psi0": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        "defaults": {"dt": 0.01, "t_max": 6.0, "rules": "nrules3",
                     "gap_mode": "oneway", "seed": 1, "sample_every": 1},
    }
    model = load_scenario(json.dumps(doc))
    stats = run_ensemble(model, R3, CFG, ONEWAY, 300, 11)
    assert stats.counts.get(2, 0) == 0
    oracle = deterministic_oracle(model, CFG, ONEWAY)
    assert oracle.predicted_shares[2] == 0.0


def test_empirical_survival_tracks_oracle(three_mode_model):
    stats = small_ensemble(three_mode_model, n=2000, seed=17)
    oracle = deterministic_oracle(three_mode_model, CFG, ONEWAY)
    s_emp = stats.empirical_survival(1.0)
    assert s_emp == pytest.approx(oracle.survival_at(1.0), abs=0.05)


# ---------------------------------------------------------------------------
# Comparison harness
# ---------------------------------------------------------------------------


def test_compare_self_consistency(three_mode_model):
    stats = small_ensemble(three_mode_model, n=2000, seed=29)
    oracle = deterministic_oracle(three_mode_model, CFG, ONEWAY)
    report = compare(stats, oracle)
    assert report.passed
    assert report.max_abs_z < 3.0
    assert report.ks_d < report.ks_threshold


def test_compare_detects_biased_sampler(three_mode_model):
    """Power check: corrupting the labels must blow up the z-scores."""
    stats = small_ensemble(three_mode_model, n=2000, seed=31)
    comps = stats.hit_components.copy()
    comps[comps == 3] = 1  # funnel the dominant channel into component 1
    counts = {c: int(np.sum(comps == c)) for c in (1, 2, 3)}
    rigged = EnsembleStats(n=stats.n, seed=stats.seed, counts=counts,
                           no_collapse=stats.no_collapse, hit_times=stats.hit_times,
                           hit_components=comps, provenance=stats.provenance,
                           totals=stats.totals)
    oracle = deterministic_oracle(three_mode_model, CFG, ONEWAY)
    report = compare(rigged, oracle)
    assert not report.z_pass
    assert report.max_abs_z > 10.0


def test_compare_detects_wrong_hit_time_distribution(three_mode_model):
    """Shifting every hit time late must blow up the KS distance."""
    stats = small_ensemble(three_mode_model, n=2000, seed=37)
    grid = step_grid(CFG)
    shifted = np.minimum(stats.hit_times + 0.5, grid[-1])
    rigged = EnsembleStats(n=stats.n, seed=stats.seed, counts=stats.counts,
                           no_collapse=stats.no_collapse, hit_times=shifted,
                           hit_components=stats.hit_components,
                           provenance=stats.provenance, totals=stats.totals)
    oracle = deterministic_oracle(three_mode_model, CFG, ONEWAY)
    report = compare(rigged, oracle)
    assert not report.ks_pass


def test_compare_rejects_mismatched_provenance(three_mode_model, two_level_model):
    stats = small_ensemble(three_mode_model, n=50, seed=1)
    oracle = deterministic_oracle(two_level_model, CFG, ONEWAY)
    with pytest.raises(ProvenanceError):
        compare(stats, oracle)


def test_comparison_report_serializes(three_mode_model):
    stats = small_ensemble(three_mode_model, n=200, seed=41)
    oracle = deterministic_oracle(three_mode_model, CFG, ONEWAY)
    report = compare(stats, oracle)
    d = report.to_dict()
    json.dumps(d)
    assert d["n"] == 200
    assert set(d["z_scores"]) == {"1", "2", "3"}


# ---------------------------------------------------------------------------
# KS machinery
# ---------------------------------------------------------------------------


def test_ks_grid_known_distance():
    """Empirical CDF (0.5, 0.5, 0.75, 0.75, 1) against F(x) = x on the grid
    0.2 .. 1.0: the largest gap is 0.3, at x = 0.2."""
    grid = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
    samples = np.array([0.2, 1.0, 0.2, 0.6])
    assert ks_statistic_grid(samples, grid, grid) == pytest.approx(0.3, abs=1e-15)


def test_ks_grid_zero_when_empirical_equals_model():
    grid = np.linspace(0.1, 1.0, 10)
    samples = np.repeat(grid, 10)
    cdf = np.arange(1, 11) / 10.0
    assert ks_statistic_grid(samples, grid, cdf) == pytest.approx(0.0, abs=1e-12)


def test_ks_grid_detects_shift():
    grid = np.linspace(0.1, 1.0, 10)
    samples = np.repeat(grid[5:], 20)
    cdf = np.arange(1, 11) / 10.0
    assert ks_statistic_grid(samples, grid, cdf) > 0.3


def test_drift_error_is_the_first_failing_trajectorys():
    """The walk checks norm drift for every trajectory of a group, and an
    ensemble raises what run_trajectory raises for its lowest failing index,
    for any worker count."""
    from gapflow.errors import NormDriftError

    cfg = IntegratorConfig(dt=0.2, t_max=6.0, norm_drift_budget=1e-9)
    mode = GapSemantics.HERMITIAN_TRUNCATED
    model = three_mode()
    first = None
    for k in range(40):
        try:
            run_trajectory(model, R3, cfg, mode, 8, traj_index=k, record_samples=False)
        except NormDriftError as exc:
            first = str(exc)
            break
    assert first is not None
    for workers in (1, 3):
        with pytest.raises(NormDriftError) as err:
            run_ensemble(model, R3, cfg, mode, 40, 8, n_workers=workers)
        assert str(err.value) == first


def test_error_is_the_lowest_failing_indexs_when_a_higher_one_fails_first(monkeypatch):
    """A block whose walk fails first for a higher index, at epoch 0, raises
    what run_trajectory raises for the lowest failing index, at epoch 1:
    every index is walked alone to its end. Every epoch-1 group fails, and
    an epoch-0 group fails when it holds index 5; index 0 reaches epoch 1.
    With more than one worker, the pool's forked workers see the patch
    too."""
    model, cfg, seed, high = chain_three_level(), IntegratorConfig(dt=0.01, t_max=6.0), 3, 5
    bad_key = substream_keys(seed, [high])[0]
    epoch_of = EpochRunner._epoch

    def failing(self, epoch, chosen, start, keys, pos, *rest):
        if epoch == 1 or (epoch == 0 and (keys[pos] == bad_key).all(axis=1).any()):
            raise GapflowError(f"epoch {epoch} fails")
        return epoch_of(self, epoch, chosen, start, keys, pos, *rest)

    def alone(index):
        with pytest.raises(GapflowError) as err:
            run_trajectory(model, R3, cfg, ONEWAY, seed, traj_index=index, record_samples=False)
        return str(err.value)

    monkeypatch.setattr(EpochRunner, "_epoch", failing)
    lowest = alone(0)
    assert lowest == "epoch 1 fails" and alone(high) == "epoch 0 fails"
    for workers in (1, 3):
        with pytest.raises(GapflowError) as err:
            run_ensemble(model, R3, cfg, ONEWAY, 40, seed, n_workers=workers)
        assert str(err.value) == lowest
