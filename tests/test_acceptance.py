"""Acceptance gate: six release criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s -v`` to see the lines as they
print.
"""

import time

import numpy as np
import pytest

from gapflow.arrow import reverse_experiment, suspension_counterfactual
from gapflow.cli import main as cli_main
from gapflow.dynamics import (
    GapSemantics,
    IntegratorConfig,
    assemble_generator,
    component_currents,
)
from gapflow.engine import EpochRunner, run_trajectory
from gapflow.ensemble import compare, deterministic_oracle, run_ensemble
from gapflow.fixtures import BUILDERS, three_mode, two_level
from gapflow.rules import NRULES3, NRULES4, RuleSet

from conftest import scenario_path
from reference import fd_current_check

R3 = RuleSet(NRULES3)
R4 = RuleSet(NRULES4)
ONEWAY = GapSemantics.ONE_WAY_FEED
HERMITIAN = GapSemantics.HERMITIAN_TRUNCATED
CFG = IntegratorConfig(dt=0.01, t_max=6.0)

ARROW_FIXTURES = ("two_level", "two_mode_symmetric", "three_mode")


def verdict_line(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {detail} -> {'PASS' if ok else 'FAIL'}")


def test_criterion_1_irreversibility():
    """Reverse-initialized runs under active rules never flow back."""
    t0 = time.perf_counter()
    worst_backflow = 0.0
    total_hits = 0
    runs = 0
    for name in ARROW_FIXTURES:
        model = BUILDERS[name]()
        for seed in range(100):
            rep = reverse_experiment(model, CFG, seed=seed)
            worst_backflow = max(worst_backflow, rep.max_backflow)
            total_hits += rep.total_hits
            runs += 1
    elapsed = time.perf_counter() - t0
    ok = worst_backflow == 0.0 and total_hits == 0 and elapsed < 10.0
    verdict_line(1, "irreversibility",
                 ok,
                 f"max_backflow={worst_backflow!r} total_hits={total_hits} "
                 f"({runs} runs, {elapsed:.1f}s < 10s)")
    assert worst_backflow == 0.0
    assert total_hits == 0
    assert elapsed < 10.0


def test_criterion_2_counterfactual():
    """Suspending the freeze rule opens backflow; restoring closes it."""
    model = two_level()
    s3, r3 = suspension_counterfactual(model, CFG, "n3_1")
    s4, r4 = suspension_counterfactual(model, CFG, "n4_4")
    ok = (s3.max_backflow > 1e-3 and r3.max_backflow == 0.0
          and s4.max_backflow > 1e-3 and r4.max_backflow == 0.0
          and s3.max_backflow == s4.max_backflow
          and r3.total_hits == r4.total_hits == 0)
    verdict_line(2, "counterfactual",
                 ok,
                 f"suspended={s3.max_backflow:.6f} > 1e-3, restored={r3.max_backflow!r}, "
                 f"engines agree={s3.max_backflow == s4.max_backflow}")
    assert s3.max_backflow > 1e-3
    assert r3.max_backflow == 0.0
    assert s4.max_backflow > 1e-3
    assert r4.max_backflow == 0.0
    assert s3.max_backflow == s4.max_backflow


def test_criterion_3_rate_law_statistics():
    """n = 20,000 three-mode trajectories against the current-integral oracle."""
    t0 = time.perf_counter()
    model = three_mode()
    stats = run_ensemble(model, R3, CFG, ONEWAY, 20_000, 2026)
    oracle = deterministic_oracle(model, CFG, ONEWAY)
    report = compare(stats, oracle, z_threshold=3.0, ks_coefficient=1.63)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 120.0
    verdict_line(3, "rate-law statistics",
                 ok,
                 f"max|z|={report.max_abs_z:.2f} < 3, "
                 f"KS={report.ks_d:.5f} < {report.ks_threshold:.5f}, "
                 f"n={stats.n} ({elapsed:.1f}s < 120s)")
    assert report.z_pass, report.z_scores
    assert report.ks_pass, (report.ks_d, report.ks_threshold)
    assert elapsed < 120.0


def test_criterion_4_engine_equivalence():
    """nrules3 and nrules4 produce bit-identical event sequences."""
    mismatches = 0
    compared = 0
    for name in sorted(BUILDERS):
        model = BUILDERS[name]()
        runner3 = EpochRunner(model, R3, CFG, ONEWAY)
        runner4 = EpochRunner(model, R4, CFG, ONEWAY)
        for seed in range(100):
            a = run_trajectory(model, R3, CFG, ONEWAY, seed,
                               record_samples=False, runner=runner3)
            b = run_trajectory(model, R4, CFG, ONEWAY, seed,
                               record_samples=False, runner=runner4)
            ev_a = [(e.t_sc, e.chosen, e.epoch) for e in a.events]
            ev_b = [(e.t_sc, e.chosen, e.epoch) for e in b.events]
            compared += 1
            if ev_a != ev_b:
                mismatches += 1
    ok = mismatches == 0
    verdict_line(4, "engine equivalence",
                 ok,
                 f"{compared} fixture/seed pairs, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_5_numerical_hygiene():
    """FD currents, RK4 convergence order, and hermitian norm drift."""
    # (a) analytic vs finite-difference currents, 1000 random states/fixture
    worst_rel = 0.0
    for name in sorted(BUILDERS):
        model = BUILDERS[name]()
        gen = assemble_generator(model, R3, ONEWAY)
        rng = np.random.default_rng(20260814)
        for _ in range(1000):
            psi = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
            psi /= np.linalg.norm(psi)
            analytic = component_currents(psi, gen)
            fd = fd_current_check(psi, gen)
            scale = max(1.0, float(np.max(np.abs(analytic.J))))
            worst_rel = max(worst_rel, float(np.max(np.abs(analytic.J - fd.J))) / scale)

    # (b) RK4 endpoint error shrinks >= 8x when dt halves (Rabi fixture)
    model = two_level()
    rules = RuleSet(NRULES3, {"n3_1"})
    t_end = 1.0
    exact = np.array([np.cos(t_end), -1.0j * np.sin(t_end)])
    errs = []
    for dt in (0.05, 0.025):
        cfg = IntegratorConfig(dt=dt, t_max=t_end)
        table, rows, _ = EpochRunner(model, rules, cfg, HERMITIAN).profile()
        errs.append(float(np.max(np.abs(table.states[rows[-1]] - exact))))
    ratio = errs[0] / errs[1]

    # (c) hermitian norm drift at dt = 1e-3
    cfg = IntegratorConfig(dt=1e-3, t_max=6.0)
    table, rows, _ = EpochRunner(model, rules, cfg, HERMITIAN).profile()
    drift_per_time = abs(table.s[rows[-1]] - table.s[rows[0]]) / 6.0

    ok = worst_rel < 1e-6 and ratio >= 8.0 and drift_per_time < 1e-8
    verdict_line(5, "numerical hygiene",
                 ok,
                 f"fd_rel={worst_rel:.2e} < 1e-6, rk4_ratio={ratio:.1f} >= 8, "
                 f"drift={drift_per_time:.2e} < 1e-8/t")
    assert worst_rel < 1e-6
    assert ratio >= 8.0
    assert drift_per_time < 1e-8


def test_criterion_6_determinism(tmp_path):
    """Byte-identical artifacts across repeat runs and worker counts."""
    scenario = str(scenario_path("three_mode"))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    base = ["ensemble", "--scenario", scenario, "--n", "400", "--seed", "77"]
    assert cli_main(base + ["--workers", "1", "--out-dir", str(out_a)]) == 0
    assert cli_main(["rerun", "--manifest", str(out_a / "manifest.json"),
                     "--workers", "8", "--out-dir", str(out_b)]) == 0
    assert cli_main(["rerun", "--manifest", str(out_a / "manifest.json"),
                     "--workers", "1", "--out-dir", str(out_c)]) == 0

    def tree(d):
        return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}

    ta, tb, tc = tree(out_a), tree(out_b), tree(out_c)
    same_workers = ta == tb
    same_repeat = ta == tc
    ok = same_workers and same_repeat
    verdict_line(6, "determinism",
                 ok,
                 f"1w vs 8w identical={same_workers}, repeat identical={same_repeat}, "
                 f"files={sorted(ta)}")
    assert same_workers
    assert same_repeat
