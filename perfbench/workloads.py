"""The four workloads: what one iteration runs and how its outputs are checked.

Every operation is one ``gapflow`` command run in-process through
``gapflow.cli.main`` or one library experiment call. An operation fails on a
nonzero exit, an exception or a failed correctness check. Each operation is
timed between two host-speed calibration readings (see calibration.py).

Statistical checks use a family-wise false-alarm rate near 1e-6 instead of
the 1 % level ``gapflow ensemble`` prints: a benchmark makes thousands of
ensemble runs, and a 1 % test would fail one of them in a hundred by chance.
"""

from __future__ import annotations

import gc
import io
import json
import math
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from calibration import Bracket
from fan_out import couplings, write_fan_out

# |z| gate and KS coefficient: two-sided normal tail 4e-8 per share; KS tail
# 2 exp(-2 c^2) = 9e-7.
Z_GATE = 5.5
KS_GATE = 2.7
# The binomial z-test of ``compare`` needs an expected count of at least this
# many hits in every component before its normal approximation holds.
MIN_EXPECTED_HITS = 5
SURVIVAL_TOL = 1e-4
SHARE_TOL = 1e-6
CURRENTS_RTOL = 1e-9


@dataclass
class Op:
    name: str
    seconds: float
    scaled: float                 # seconds at the reference host speed
    failures: list[str]
    experiment: bool
    sample_s: float               # seconds inside the sampling calls
    trajectories: float           # trajectories those calls completed


@dataclass
class StarForm:
    """Closed forms of a star model: one active source at psi0 = e_src with no
    own block, feeding one-dimensional launch modes in oneway mode."""

    g2: dict[int, float]          # squared coupling per launch component

    @property
    def total(self) -> float:
        return sum(self.g2.values())

    def shares(self) -> dict[int, float]:
        return {k: v / self.total for k, v in self.g2.items()}

    def survival(self, t: float) -> float:
        return 1.0 / (1.0 + self.total * t * t)


def star_form(path: Path) -> StarForm:
    """Closed form read from the scenario document the program is given."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    status = {c["id"]: c["status"] for c in doc["components"]}
    g2 = {}
    for gap in doc["gaps"]:
        if status[gap["low"]] == "active" and status[gap["high"]] == "launch":
            g2[gap["high"]] = sum(re * re + im * im for _, _, re, im in gap["entries"])
    return StarForm(g2)


@dataclass
class Runner:
    """Runs and times operations, checks their outputs, keeps the records."""

    tracer: object = None
    sampler: object = None        # outer timer of the sampling calls
    ops: list[Op] = field(default_factory=list)
    nonzero_exits: int = 0
    z_test_skipped: int = 0
    default_compare_failed: int = 0
    failure_log: list[str] = field(default_factory=list)

    def _sampled(self) -> tuple[float, float]:
        if self.sampler is None:
            return 0.0, 0.0
        return (sum(v.total for v in self.sampler.totals.values()),
                self.sampler.counters["trajectories"])

    def _record(self, name, seconds, scale, sampled, failures, experiment):
        (s0, n0), (s1, n1) = sampled
        self.ops.append(Op(name, seconds, seconds * scale, failures, experiment,
                           s1 - s0, n1 - n0))
        if failures and len(self.failure_log) < 20:
            self.failure_log.append(f"{name}: {'; '.join(failures)}")

    def cli(self, argv, check, experiment=True):
        import gapflow.cli

        main = gapflow.cli.main
        if self.tracer is not None:
            main = self.tracer.wrap(f"cli.{argv[0]}", main)
        argv = [str(a) for a in argv]
        buf = io.StringIO()
        failures = []
        # A command starts on a collected heap, as a fresh gapflow process
        # would, not in the garbage the previous command left.
        gc.collect()
        sampled = [self._sampled()]
        with Bracket() as cal:
            t0 = perf_counter()
            try:
                with redirect_stdout(buf), redirect_stderr(buf):
                    rc = main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                rc = None
                failures.append("exception: " + traceback.format_exc(limit=4))
            seconds = perf_counter() - t0
        sampled.append(self._sampled())
        if rc not in (0, None):
            self.nonzero_exits += 1
            failures.append(f"exit {rc}: {buf.getvalue()[-400:]}")
        if not failures:
            failures = self._checked(check, buf.getvalue())
        self._record(f"cli.{argv[0]}", seconds, cal.scale, sampled, failures, experiment)

    def call(self, name, fn, check):
        failures = []
        result = None
        sampled = [self._sampled()]
        with Bracket() as cal:
            t0 = perf_counter()
            try:
                result = fn()
            except Exception:
                failures.append("exception: " + traceback.format_exc(limit=4))
            seconds = perf_counter() - t0
        sampled.append(self._sampled())
        if not failures:
            failures = self._checked(check, result)
        self._record(name, seconds, cal.scale, sampled, failures, True)

    @staticmethod
    def _checked(check, value):
        try:
            return check(value)
        except Exception:
            return ["check raised: " + traceback.format_exc(limit=4)]

    # --- checks -------------------------------------------------------------

    def check_ensemble(self, out: Path, form: StarForm) -> list[str]:
        rep = json.loads((out / "ensemble_report.json").read_text(encoding="utf-8"))
        comp, stats, oracle = rep["comparison"], rep["stats"], rep["oracle"]
        fails = []
        if not comp["passed"]:
            self.default_compare_failed += 1
        n_hits = comp["n_hits"]
        if n_hits < 1:
            return ["ensemble recorded no hit"]
        if not comp["ks_d"] < KS_GATE / math.sqrt(n_hits):
            fails.append(f"KS {comp['ks_d']:.4g} >= {KS_GATE}/sqrt({n_hits})")
        predicted = {int(k): v for k, v in comp["shares_predicted"].items()}
        if min(p for p in predicted.values() if p > 0) * n_hits >= MIN_EXPECTED_HITS:
            worst = max(abs(z) for z in comp["z_scores"].values())
            if not worst < Z_GATE:
                fails.append(f"max|z| {worst:.3g} >= {Z_GATE}")
        else:
            self.z_test_skipped += 1

        # Oracle against the closed form.
        shares = form.shares()
        if set(predicted) != set(shares) or any(
                abs(predicted[k] - shares[k]) > SHARE_TOL for k in shares):
            fails.append("oracle shares differ from the closed form")
        t_max = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["t_max"]
        if abs(oracle["survival_at_t_max"] - form.survival(t_max)) > SURVIVAL_TOL:
            fails.append(f"oracle S(t_max) {oracle['survival_at_t_max']!r} != "
                         f"{form.survival(t_max)!r}")
        with open(out / "survival.csv", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                t, _, pred = (float(x) for x in line.split(","))
                if abs(pred - form.survival(t)) > SURVIVAL_TOL:
                    fails.append(f"survival.csv predicted S({t}) off the closed form")
                    break

        # Ensemble shares against the closed form, pooled into at most four
        # groups of similar share so every group has a usable expected count.
        counts = {int(k): v for k, v in stats["counts"].items()}
        if any(counts.get(k, 0) for k in counts if k not in shares):
            fails.append("hit on a component with zero closed-form share")
        for group in _pooled(shares, 4):
            p = sum(shares[k] for k in group)
            obs = sum(counts.get(k, 0) for k in group) / n_hits
            if p >= 1.0:
                if obs != 1.0:
                    fails.append(f"share {obs} where the closed form gives 1")
                continue
            z = (obs - p) / math.sqrt(p * (1.0 - p) / n_hits)
            if not abs(z) < Z_GATE:
                fails.append(f"pooled share {obs:.4f} vs {p:.4f} (z={z:.2f})")
        return fails

    @staticmethod
    def check_currents(path: Path, g, t_end: float) -> list[str]:
        """Last row of currents.csv: s = 1 + t^2, p_0 = 1, p_k = g_k^2 t^2, J_k = 2 g_k^2 t."""
        with open(path, "rb") as fh:
            header = fh.readline().decode().strip().split(",")
            fh.seek(0, 2)
            size = fh.tell()
            fh.seek(max(0, size - (1 << 20)))
            last = fh.read().decode().rstrip("\n").rsplit("\n", 1)[-1]
        row = dict(zip(header, (float(x) for x in last.split(","))))
        t = row["t"]
        expect = {"s": 1.0 + t * t, "p_0": 1.0}
        for k, gk in enumerate(g, start=1):
            expect[f"p_{k}"] = gk * gk * t * t
            expect[f"J_{k}"] = 2.0 * gk * gk * t
        fails = []
        if abs(t - t_end) > 1e-12:
            fails.append(f"currents.csv ends at t={t}, expected {t_end}")
        if set(row) != set(expect) | {"t"}:
            fails.append("currents.csv columns differ from the fan-out's components")
        bad = [k for k, v in expect.items()
               if abs(row.get(k, math.nan) - v) > CURRENTS_RTOL * max(abs(v), 1e-3)]
        if bad:
            fails.append(f"currents.csv off the closed form in {len(bad)} columns, "
                         f"first {bad[0]}")
        return fails


def _pooled(shares: dict[int, float], n_groups: int) -> list[list[int]]:
    """Split components, in id order, into groups of about equal total share."""
    groups, current, acc = [], [], 0.0
    for k in sorted(shares):
        current.append(k)
        acc += shares[k]
        if acc >= (len(groups) + 1) / n_groups - 1e-12:
            groups.append(current)
            current = []
    if current:
        groups.append(current)
    return groups


# --- workloads ----------------------------------------------------------------

class Workload:
    name = ""

    def prepare(self, root: Path, work: Path, seed: int) -> list[Path]:
        """Generate the inputs; return the scenario files set-up loads."""
        raise NotImplementedError

    def bind(self, models) -> None:
        """Keep the models loaded by the last set-up."""

    def iteration(self, runner: Runner, rng) -> None:
        raise NotImplementedError


class EnsembleWorkload(Workload):
    def __init__(self, name, scenario, n):
        self.name, self.scenario, self.n = name, scenario, n

    def prepare(self, root, work, seed):
        self.path = root / "scenarios" / self.scenario
        self.form = star_form(self.path)
        self.out = work / "ensemble"
        return [self.path]

    def iteration(self, runner, rng):
        out = self.out
        runner.cli(["ensemble", "--scenario", self.path, "--n", self.n,
                    "--seed", rng.randrange(2**31), "--workers", 1, "--out-dir", out],
                   lambda _: runner.check_ensemble(out, self.form))


class FanOutWorkload(Workload):
    name = "wide_fanout"
    n_modes = 511
    dt = 0.02
    t_max = 1.0
    n = 400
    currents_dt = 0.005

    def prepare(self, root, work, seed):
        self.path = work / "fan_out.json"
        write_fan_out(self.path, self.n_modes, seed, self.dt, self.t_max)
        self.g = couplings(self.n_modes, seed)
        self.form = star_form(self.path)
        self.out = work / "fan_out"
        return [self.path]

    def iteration(self, runner, rng):
        path, out = self.path, self.out
        runner.cli(["validate", "--scenario", path],
                   lambda text: [] if text.strip() == "OK" else [f"validate said {text!r}"])
        runner.cli(["ensemble", "--scenario", path, "--n", self.n,
                    "--seed", rng.randrange(2**31), "--workers", 1,
                    "--out-dir", out / "ensemble"],
                   lambda _: runner.check_ensemble(out / "ensemble", self.form))
        runner.cli(["currents", "--scenario", path, "--dt", self.currents_dt,
                    "--out-dir", out / "currents"],
                   lambda _: runner.check_currents(out / "currents" / "currents.csv",
                                                   self.g, self.t_max))


class ArrowWorkload(Workload):
    name = "arrow_sweep"
    fixtures = ("two_level", "two_mode_symmetric", "three_mode")
    # Three reverse runs per forward run keep the median and p90 of the
    # experiment latency inside the reverse cluster instead of on the edge
    # between the fast forward runs and the slow reverse ones.
    reverse_per_fixture = 9
    forward_per_fixture = 3

    def prepare(self, root, work, seed):
        self.paths = [root / "scenarios" / f"{name}.json" for name in self.fixtures]
        self.out = work / "arrow"
        return self.paths

    def bind(self, models):
        from gapflow.dynamics import IntegratorConfig
        self.models = [(m, IntegratorConfig(dt=m.defaults.dt, t_max=m.defaults.t_max))
                       for m in models]

    def iteration(self, runner, rng):
        import gapflow.arrow as arrow

        for path, (model, cfg) in zip(self.paths, self.models):
            for _ in range(self.reverse_per_fixture):
                seed = rng.randrange(2**31)
                runner.call("arrow.reverse",
                            lambda: arrow.reverse_experiment(model, cfg, seed=seed),
                            _check_reverse)
            for _ in range(self.forward_per_fixture):
                seed = rng.randrange(2**31)
                runner.call("arrow.forward",
                            lambda: arrow.forward_experiment(model, cfg, seed=seed),
                            _check_forward)
            run_out, arrow_out = self.out / "run", self.out / "arrow"
            runner.cli(["run", "--scenario", path, "--seed", rng.randrange(2**31),
                        "--out-dir", run_out],
                       lambda _: _check_run(run_out, cfg.t_max), experiment=False)
            runner.cli(["arrow", "--scenario", path, "--gap-mode", "hermitian",
                        "--suspend", "n3_1", "--seed", rng.randrange(2**31),
                        "--out-dir", arrow_out],
                       lambda _: _check_arrow(arrow_out), experiment=False)


def _check_reverse(rep) -> list[str]:
    if rep.max_backflow == 0.0 and rep.total_hits == 0 and rep.verdict == "blocked":
        return []
    return [f"reverse run flowed: max_backflow={rep.max_backflow!r} hits={rep.total_hits}"]


def _check_forward(rep) -> list[str]:
    return [] if rep.verdict == "flowed" else [f"forward verdict {rep.verdict}"]


def _check_run(out: Path, t_max: float) -> list[str]:
    rep = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
    fails = []
    if rep["n_events"] != len(rep["events"]):
        fails.append("run_report n_events disagrees with its event list")
    if any(not 0.0 < ev["t_sc"] <= t_max for ev in rep["events"]):
        fails.append("collapse time outside (0, t_max]")
    with open(out / "trajectory.csv", encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows < 2:
        fails.append(f"trajectory.csv has {rows} samples")
    return fails


def _check_arrow(out: Path) -> list[str]:
    rep = json.loads((out / "arrow_report.json").read_text(encoding="utf-8"))
    fails = []
    if not rep["all_match"]:
        fails.append(f"arrow verdicts deviate: {rep['matches']}")
    if rep["reports"]["suspended"]["verdict"] != "flowed":
        fails.append("the --suspend n3_1 leg did not flow")
    return fails


WORKLOADS = {
    w.name: w for w in (
        EnsembleWorkload("single_gap", "three_mode.json", 10000),
        EnsembleWorkload("chained", "chain_three_level.json", 30),
        FanOutWorkload(),
        ArrowWorkload(),
    )
}
