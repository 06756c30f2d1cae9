"""Ensemble statistics against the deterministic current-integral oracle."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from gapflow import ensemble
from gapflow.dynamics import EpochTable, GapSemantics, IntegratorConfig, StepPlan
from gapflow.engine import (PRESERVE_TOTAL, TERMINAL_QUIESCENT, EpochRunner, run_trajectory,
                            step_grid)
from gapflow.ensemble import (
    WALK_BYTES,
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
    trajectory_bytes,
    walk_block,
)
from gapflow.errors import GapflowError, ProvenanceError
from gapflow.fixtures import (BUILDERS, chain_three_level, detuned_two_level, three_mode,
                              two_level, two_mode_symmetric)
from gapflow.model import load_scenario, load_scenario_file
from gapflow.rules import NRULES3, NRULES4, RuleSet
from gapflow.substreams import CROSSOVER, substream_keys

from conftest import WIDE_LAUNCH, star_model

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


def _born_survival(model):
    """The oracle's survival and s(0)/s(t) of the no-hit profile, on the
    fixture's own grid, in oneway mode."""
    d = model.defaults
    cfg = IntegratorConfig(dt=d.dt, t_max=d.t_max)
    oracle = deterministic_oracle(model, cfg, ONEWAY, ruleset=RuleSet(d.rules))
    table, rows, times = EpochRunner(model, RuleSet(d.rules), cfg, ONEWAY).profile(
        every_step=True)
    assert np.array_equal(times, oracle.times)
    return oracle.survival, table.s[0] / table.s[rows], table.J[rows]


@pytest.mark.parametrize("builder", [two_level, chain_three_level, two_mode_symmetric,
                                     three_mode], ids=lambda b: b.__name__)
def test_oracle_survival_is_born_weight_where_currents_flow_one_way(builder):
    """Where no current turns negative the hazard sum J+ / s is -d ln s / dt,
    so the survival is s(0) / s(t), the Born weight of the start."""
    survival, born, currents = _born_survival(builder())
    assert (currents >= 0.0).all()
    assert np.abs(survival - born).max() < 1e-9


def test_oracle_survival_is_below_born_weight_with_backflow():
    """detuned_two_level's current turns negative on a third of its rows:
    the hazard counts only J+, so the survival is at most s(0) / s(t)."""
    survival, born, currents = _born_survival(detuned_two_level())
    assert (currents < 0.0).any(axis=1).sum() > 100
    assert (survival <= born + 1e-10).all()
    assert (born - survival).max() > 0.1


def test_oracle_grid_refinement_converges(three_mode_model):
    coarse = deterministic_oracle(three_mode_model, IntegratorConfig(dt=CFG.dt / 5, t_max=6.0),
                                  ONEWAY)
    fine = deterministic_oracle(three_mode_model, IntegratorConfig(dt=CFG.dt / 20, t_max=6.0),
                                ONEWAY)
    for comp in (1, 2, 3):
        assert coarse.predicted_shares[comp] == pytest.approx(
            fine.predicted_shares[comp], rel=1e-6)
    assert coarse.survival_at(6.0) == pytest.approx(fine.survival_at(6.0), rel=1e-5)


def fitted_order(dts, errors):
    """Slope of log error against log dt, fitted by least squares."""
    return float(np.polyfit(np.log(dts), np.log(errors), 1)[0])


@pytest.mark.parametrize("mode", list(GapSemantics), ids=lambda m: m.token)
@pytest.mark.parametrize("builder", [three_mode, chain_three_level, detuned_two_level],
                         ids=lambda b: b.__name__)
def test_gated_hazard_converges_to_oracle_survival(builder, mode):
    """The engine's hazard drops the trapezoid of a step that ends at rate 0,
    the oracle's keeps it; where backflow turns the currents negative the gap
    closes as h^2, so the end survivals agree ever better as dt halves.

    Over dt 0.02, 0.01 and 0.005 the end error and the largest
    |exp(-H_k) - S(t_k)| over the epoch-0 grid each fit an order of at
    least 1.5 in every gap mode (measured: 1.53 to 2.47, the lowest
    detuned_two_level's hermitian 3.50e-5, 1.51e-5, 4.17e-6). The detuned
    source's own block makes its ratios uneven (compensated end errors
    2.35e-5, 9.14e-6, 1.69e-6), so the per-halving bound holds for the
    other two fixtures only."""
    model = builder()
    dts, errors, grid_errors = (0.02, 0.01, 0.005), [], []
    for dt in dts:
        cfg = IntegratorConfig(dt=dt, t_max=6.0)
        runner = EpochRunner(model, R3, cfg, mode)
        table = runner.table(0, None)
        table.grow(math.inf, runner.n_full)
        oracle = deterministic_oracle(model, cfg, mode)
        survival = np.exp(-table.H[:runner.n_full + 1])
        assert np.array_equal(oracle.times, runner.times[:runner.n_full + 1])
        errors.append(abs(math.exp(-table.H[runner.n_full]) - oracle.survival[-1]))
        grid_errors.append(float(np.abs(survival - oracle.survival).max()))
    if builder is not detuned_two_level:
        assert errors[0] >= 3 * errors[1] >= 9 * errors[2]
    assert errors[1] < 3e-5
    assert fitted_order(dts, errors) >= 1.5, errors
    assert fitted_order(dts, grid_errors) >= 1.5, grid_errors


def test_compensated_oracle_equals_hermitian_without_source_energy():
    """The compensated and hermitian oracles agree to rounding on every
    fixture whose sources carry no own block, and differ on the detuned one.

    With no own block on a source, psi_low stays real up to a global phase,
    and each fed amplitude is -i f_g times a real function. Then the
    compensated loss -(j_g / 2 s_low) psi_low equals the hermitian backflow
    -i sum_g f_g^dagger psi_g term by term, so the two modes evolve the same
    state. A source energy winds psi_low's phase and breaks the equality.
    """
    compensated, hermitian = GapSemantics.NORM_COMPENSATED, GapSemantics.HERMITIAN_TRUNCATED
    for builder in (two_level, two_mode_symmetric, three_mode, chain_three_level,
                    detuned_two_level):
        model = builder()
        a = deterministic_oracle(model, CFG, compensated)
        b = deterministic_oracle(model, CFG, hermitian)
        gap = max(np.abs(a.survival - b.survival).max(),
                  *(abs(a.predicted_shares[m] - b.predicted_shares[m])
                    for m in a.predicted_shares))
        assert a.predicted_shares.keys() == b.predicted_shares.keys()
        if builder is detuned_two_level:
            assert gap > 0.01
        else:
            assert gap < 1e-14


def _trapezoid_oracle(model, cfg, mode, refine):
    """Survival and share integrals of the trapezoid of the clipped rows on
    the ``refine``-times finer grid: the oracle before Richardson."""
    fine = IntegratorConfig(dt=cfg.dt / refine, t_max=cfg.t_max)
    table, rows, times = EpochRunner(model, R3, fine, mode).profile()
    integrals = np.trapezoid(np.clip(table.J[rows], 0.0, None).T, times, axis=1)
    rate = table.rate[rows]
    hazard = np.concatenate([[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(times))])
    return times, np.exp(-hazard), integrals


ACCURACY_CASES = [(b, mode, 6.0) for b in (two_level, detuned_two_level, two_mode_symmetric,
                                           three_mode, chain_three_level)
                  for mode in (ONEWAY, GapSemantics.HERMITIAN_TRUNCATED)]
ACCURACY_CASES += [(three_mode, GapSemantics.HERMITIAN_TRUNCATED, 2.005),
                   (detuned_two_level, GapSemantics.NORM_COMPENSATED, 2.005)]


@pytest.mark.parametrize("builder, mode, t_max", ACCURACY_CASES,
                         ids=lambda v: getattr(v, "__name__", getattr(v, "token", v)))
def test_oracle_is_as_accurate_as_refine_10(builder, mode, t_max):
    """Against a refine-40 trapezoid, the oracle's extrapolation from the
    run's grid and one twice as fine is off by no more than a refine-10
    trapezoid, in S(t) on the run's grid, in the share integrals and in the
    shares (the last two to within rounding where both are exact), on and
    off the dt grid. Compensated mode equals hermitian mode but on
    detuned_two_level (test_compensated_oracle_equals_hermitian_without_source_energy)."""
    model = builder()
    cfg = IntegratorConfig(dt=0.01, t_max=t_max)
    ref_times, ref_s, ref_int = _trapezoid_oracle(model, cfg, mode, 40)
    times10, s10, int10 = _trapezoid_oracle(model, cfg, mode, 10)
    oracle = deterministic_oracle(model, cfg, mode, ruleset=R3)
    assert len(oracle.times) == len(StepPlan.of(cfg).times)
    s_err = np.abs(oracle.survival - np.interp(oracle.times, ref_times, ref_s)).max()
    assert s_err <= np.abs(s10 - np.interp(times10, ref_times, ref_s)).max()
    integrals = np.array(list(oracle.integrals.values()))
    scale = ref_int.max()
    assert np.abs(integrals - ref_int).max() / scale <= max(
        np.abs(int10 - ref_int).max() / scale, 1e-13)
    shares = np.array(list(oracle.predicted_shares.values()))
    ref_shares = ref_int / ref_int.sum()
    assert np.abs(shares - ref_shares).max() <= max(
        np.abs(int10 / int10.sum() - ref_shares).max(), 1e-13)


@pytest.mark.parametrize("mode", list(GapSemantics), ids=lambda m: m.token)
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_oracle_is_within_5e_9_of_its_run_at_dt_over_40(name, mode):
    """Against the oracle of its own run at dt / 40, the oracle at the
    fixture's dt is within 5e-9 in S(t) on its grid and in every share
    integral. Compensated mode stages every step, so it runs to t_max
    1.005, off the dt grid, where the last midpoint is a rem / 2 step."""
    model = BUILDERS[name]()
    d = model.defaults
    t_max = 1.005 if mode is GapSemantics.NORM_COMPENSATED else d.t_max
    rules = RuleSet(d.rules)
    oracle = deterministic_oracle(model, IntegratorConfig(dt=d.dt, t_max=t_max), mode,
                                  ruleset=rules)
    ref = deterministic_oracle(model, IntegratorConfig(dt=d.dt / 40, t_max=t_max), mode,
                               ruleset=rules)
    assert np.abs(oracle.survival - np.interp(oracle.times, ref.times, ref.survival)).max() < 5e-9
    assert oracle.integrals.keys() == ref.integrals.keys()
    assert max(abs(v - ref.integrals[m]) for m, v in oracle.integrals.items()) < 5e-9


@pytest.mark.parametrize("mode", list(GapSemantics), ids=lambda m: m.token)
@pytest.mark.parametrize("build, t_max", [(three_mode, 2.005), (chain_three_level, 0.505),
                                          (lambda: star_model(300), 0.105)],
                         ids=["three_mode", "chain_three_level", "star_300"])
def test_midpoints_are_one_step_tables(build, t_max, mode):
    """The oracle's midpoint J and s are, bit for bit, the first stepped row
    of a table started at row k with a step of h / 2: dt / 2 from each row
    of the dt grid and rem / 2 from the last one, t_max being off the grid;
    on the dense, CSR and staged paths (the star's hermitian M_h fills in)."""
    model = build()
    runner = EpochRunner(model, R3, IntegratorConfig(dt=0.01, t_max=t_max), mode)
    table, rows, times = runner.profile(every_step=True)
    J, s = ensemble._midpoints(runner, table)
    assert runner.rem and len(s) == len(J) == len(times) - 1 == runner.n_full + 1
    for k in range(len(s)):
        h = 0.005 if k < runner.n_full else runner.rem / 2
        one = EpochTable(table.gen, table.states[k], h, 1, table.trigger_off)
        one.grow(math.inf, 1)
        assert np.array_equal(one.J[1], J[k]) and one.s[1] == s[k]


def test_oracle_reads_the_runs_table():
    """An oracle on a runner whose epoch-0 table grew part of the way gives
    the floats of one on a runner of its own; the oracle and run_ensemble
    refuse a runner for another config."""
    model = chain_three_level()
    cfg = IntegratorConfig(dt=0.01, t_max=2.005)
    runner = EpochRunner(model, R3, cfg, ONEWAY)
    runner.table(0, None).grow(math.inf, 57)
    assert runner.table(0, None).n == 57
    shared = deterministic_oracle(model, cfg, ONEWAY, runner=runner)
    alone = deterministic_oracle(model, cfg, ONEWAY)
    assert np.array_equal(shared.survival, alone.survival)
    assert shared.integrals == alone.integrals
    other = IntegratorConfig(dt=0.02, t_max=2.005)
    with pytest.raises(GapflowError, match="runner built for another"):
        deterministic_oracle(model, other, ONEWAY, runner=runner)
    with pytest.raises(GapflowError, match="runner built for another"):
        run_ensemble(model, R3, other, ONEWAY, 5, 7, runner=runner)


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
    ev = rec.events[0] if rec.events else None
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
        ev = rec.events[0] if rec.events else None
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
        ev = rec.events[0] if rec.events else None
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
                              np.array([r.events[0].t_sc for r in recs if r.events]))
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


def summary_of(stats):
    """Everything an EnsembleStats reports, as comparable values."""
    return (stats.hit_times.tobytes(), stats.hit_components.tobytes(), stats.counts,
            stats.no_collapse, stats.totals)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_more_workers_than_trajectories_agree_bitwise(n, chain_model):
    """With fewer trajectories than workers every range holds one index and
    no range is empty: four workers give one worker's ensemble."""
    cfg = IntegratorConfig(dt=0.01, t_max=12.0)
    one = run_ensemble(chain_model, R3, cfg, ONEWAY, n, 5, n_workers=1)
    assert summary_of(run_ensemble(chain_model, R3, cfg, ONEWAY, n, 5, n_workers=4)) == \
        summary_of(one)


_walked_ranges = []


def _recording_run_range(*args, **kwargs):
    """_run_range that records, in the process that calls it, its range and
    that process's id; module-level, so the pool can pickle it."""
    _walked_ranges.append((os.getpid(), *args[-2:]))
    return _run_range(*args, **kwargs)


def test_calling_process_walks_the_first_range(three_mode_model, monkeypatch):
    """With three workers the calling process walks [0, n // 3) itself, once,
    and the pool the other two ranges."""
    monkeypatch.setattr(ensemble, "_run_range", _recording_run_range)
    _walked_ranges.clear()
    n = 100
    three = run_ensemble(three_mode_model, R3, CFG, ONEWAY, n, 4, n_workers=3)
    assert _walked_ranges == [(os.getpid(), 0, n // 3)]
    _walked_ranges.clear()
    assert summary_of(run_ensemble(three_mode_model, R3, CFG, ONEWAY, n, 4)) == \
        summary_of(three)
    assert _walked_ranges == [(os.getpid(), 0, n)]


@pytest.mark.parametrize("mode", list(GapSemantics), ids=lambda mode: mode.token)
@pytest.mark.parametrize("build", [three_mode, chain_three_level], ids=["three_mode", "chain"])
def test_array_draws_agree_with_per_key_loop(build, mode, monkeypatch):
    """In blocks of 2048 (a full block and a tail block, both of at least
    CROSSOVER keys) an ensemble's epochs draw as arrays, while run_trajectory
    walks a block of one through the per-key loop; both give each sampled
    index the same first hit, choice, negative-current steps and ending, and
    two workers, whose ranges split the blocks elsewhere, the same ensemble."""
    model = build()
    rules = RuleSet(model.defaults.rules)
    cfg = IntegratorConfig(dt=model.defaults.dt, t_max=model.defaults.t_max)
    block = 2048
    monkeypatch.setattr(ensemble, "WALK_BYTES", block * trajectory_bytes(model))
    assert walk_block(model) == block
    n = block + 300
    assert n - block >= CROSSOVER
    t_first, first, negative, quiescent = _run_range(EpochRunner(model, rules, cfg, mode), 2026,
                                                     PRESERVE_TOTAL, 0, n)
    runner = EpochRunner(model, rules, cfg, mode)
    for i in [*range(0, n, 41), block, n - 1]:
        rec = run_trajectory(model, rules, cfg, mode, 2026, traj_index=i, record_samples=False,
                             runner=runner)
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


def _wide_launch():
    return load_scenario(json.dumps(WIDE_LAUNCH))


def _record_block_sizes(monkeypatch) -> list[int]:
    """The size of every block _run_range walks from now on, in order."""
    sizes, summary = [], ensemble._block_summary

    def recording(runner, seed, policy, indices):
        sizes.append(len(indices))
        return summary(runner, seed, policy, indices)

    monkeypatch.setattr(ensemble, "_block_summary", recording)
    return sizes


@pytest.mark.parametrize("build, n", [(three_mode, 300), (chain_three_level, 300),
                                      (_wide_launch, 60)],
                         ids=["three_mode", "chain", "wide_launch"])
def test_block_split_changes_nothing(build, n, monkeypatch):
    """Blocks of 1 and of 7 (the per-key draw loop) and one block of the
    whole range (arrays) give one EnsembleStats: substreams are keyed per
    trajectory and the reduce runs in index order. WIDE_LAUNCH's collapses
    onto its two-dimensional component run on tables of their own."""
    model = build()
    d = model.defaults
    rules, mode = RuleSet(d.rules), GapSemantics.from_token(d.gap_mode)
    cfg = IntegratorConfig(dt=d.dt, t_max=d.t_max)
    assert walk_block(model) >= n
    whole = summary_of(run_ensemble(model, rules, cfg, mode, n, 17))
    sizes = _record_block_sizes(monkeypatch)
    for size in (1, 7):
        monkeypatch.setattr(ensemble, "WALK_BYTES", size * trajectory_bytes(model))
        sizes.clear()
        assert summary_of(run_ensemble(model, rules, cfg, mode, n, 17)) == whole
        assert sizes == [size] * (n // size) + ([n % size] if n % size else [])


def test_wide_range_walks_in_blocks_within_budget(monkeypatch):
    """5,000 trajectories of a dim-512 star walk in blocks of walk_block, the
    most that fit WALK_BYTES, and one block's walk, on tables already grown,
    allocates less than that at its peak."""
    model = star_model(511)
    cfg = IntegratorConfig(dt=0.02, t_max=1.0)
    size = walk_block(model)
    assert size * trajectory_bytes(model) <= WALK_BYTES < (size + 1) * trajectory_bytes(model)
    assert 1 < size < 5000
    sizes = _record_block_sizes(monkeypatch)
    runner = EpochRunner(model, R3, cfg, ONEWAY)
    t_first = _run_range(runner, 5, PRESERVE_TOTAL, 0, 5000)[0]
    assert sizes == [size] * (5000 // size) + [5000 % size]
    assert np.isfinite(t_first).sum() > 1000
    tracemalloc.start()
    try:
        _block_summary(runner, 5, PRESERVE_TOTAL, np.arange(size))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= WALK_BYTES


def test_blocks_agree_with_blocks_of_one():
    """One block that mixes shared tables with private ones (collapses onto
    a two-dimensional launch component) summarizes each trajectory as a
    block of one does, in every gap mode."""
    model = load_scenario(json.dumps(WIDE_LAUNCH))
    cfg = IntegratorConfig(dt=0.01, t_max=3.0)
    for mode in GapSemantics:
        block = _run_range(EpochRunner(model, R3, cfg, mode), 11, PRESERVE_TOTAL, 0, 60)
        runner = EpochRunner(model, R3, cfg, mode)
        alone = [_block_summary(runner, 11, PRESERVE_TOTAL, np.array([i])) for i in range(60)]
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


def test_compare_accepts_two_loads_of_one_scenario(scenario_dir):
    """Stats and an oracle of two separately loaded copies of one scenario
    compare: two model objects are matched by their fingerprints."""
    path = scenario_dir / "three_mode.json"
    model, again = load_scenario_file(path), load_scenario_file(path)
    assert model is not again
    stats = small_ensemble(model, n=200, seed=3)
    compare(stats, deterministic_oracle(again, CFG, ONEWAY))


def test_compare_rejects_mismatched_suspensions():
    """Stats and oracle must suspend the same rules; the rule-set variant
    alone is not compared, so nrules3 and nrules4 without suspensions match."""
    model, hermitian = chain_three_level(), GapSemantics.HERMITIAN_TRUNCATED
    suspended = RuleSet(NRULES3, {"n3_1"})
    stats = run_ensemble(model, suspended, CFG, hermitian, 50, 1)
    with pytest.raises(ProvenanceError):
        compare(stats, deterministic_oracle(model, CFG, hermitian))
    with pytest.raises(ProvenanceError):
        compare(run_ensemble(model, R3, CFG, hermitian, 50, 1),
                deterministic_oracle(model, CFG, hermitian, ruleset=suspended))
    compare(run_ensemble(model, RuleSet(NRULES4), CFG, hermitian, 50, 1),
            deterministic_oracle(model, CFG, hermitian, ruleset=R3))


def test_suspended_freeze_ensemble_passes_its_oracle():
    """The oracle integrates the run's own rule set: with n3_1 suspended, a
    hermitian chain_three_level ensemble matches it (the oracle of the frozen
    dynamics gives KS 0.150 against a threshold of 0.025 here)."""
    model, hermitian = chain_three_level(), GapSemantics.HERMITIAN_TRUNCATED
    rules = RuleSet(NRULES3, {"n3_1"})
    stats = run_ensemble(model, rules, CFG, hermitian, 5000, 1)
    report = compare(stats, deterministic_oracle(model, CFG, hermitian, ruleset=rules))
    assert report.z_pass, report.z_scores
    assert report.ks_pass, (report.ks_d, report.ks_threshold)


@pytest.mark.parametrize("builder,mode,others", [
    (detuned_two_level, GapSemantics.NORM_COMPENSATED,
     (GapSemantics.HERMITIAN_TRUNCATED, ONEWAY)),
    (three_mode, GapSemantics.HERMITIAN_TRUNCATED, (ONEWAY,))],
    ids=["compensated-detuned_two_level", "hermitian-three_mode"])
def test_gap_mode_ensemble_passes_its_own_oracle_and_no_other(builder, mode, others):
    """An ensemble passes compare against its own gap mode's oracle, and its
    hit times fail KS against another mode's (three_mode's compensated
    oracle equals its hermitian one). Measured at n = 5000: KS 0.014 against
    its own oracle, and 0.181 (hermitian) and 0.074 (oneway) for
    compensated detuned_two_level, 0.263 (oneway) for hermitian three_mode,
    with thresholds 0.032 and 0.023."""
    model = builder()
    stats = run_ensemble(model, R3, CFG, mode, 5000, 1)
    report = compare(stats, deterministic_oracle(model, CFG, mode))
    assert report.z_pass, report.z_scores
    assert report.ks_pass, (report.ks_d, report.ks_threshold)
    for other in others:
        oracle = deterministic_oracle(model, CFG, other)
        grid = oracle.times[1:]
        ks_d = ks_statistic_grid(stats.hit_times, grid, oracle.cdf_at(grid))
        assert ks_d > report.ks_threshold, (other.token, ks_d, report.ks_threshold)


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
