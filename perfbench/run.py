#!/usr/bin/env python3
"""gapflow benchmark: run one workload as a closed loop from one process.

    python3 perfbench/run.py --workload single_gap --seed 1 --seconds 12 --trace 0

Run it from anywhere; it reads the source tree (``src/``, ``scenarios/``)
next to its own directory and writes only to ``.perfbench_work/`` there,
which it removes before exiting. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced iterations and prints
the per-layer metrics and the tracing overhead. The last line of standard
output is the result object; the lines before it are a readable summary and
the full report with provenance. See README.md in this directory.

Every time in the end-to-end metrics is scaled to a reference host speed by
calibration readings taken right before and after the timed work (see
calibration.py); the report keeps the raw times too.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibration
from calibration import Bracket

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("single_gap", "chained", "wide_fanout", "arrow_sweep")
# Set-up runs this many times before the measured loop (after one untimed
# warm-up) and again after it; setup_s is the median of both halves, so a
# host that changes speed during the run moves it less.
SETUP_REPEATS = 5


@dataclass
class Iteration:
    traced: bool
    ops: list

    @property
    def wall(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def scaled(self) -> float:
        return sum(op.scaled for op in self.ops)

    @property
    def trajectories(self) -> float:
        return sum(op.trajectories for op in self.ops)

    def sample_s(self, raw: bool) -> float:
        """Seconds inside the sampling calls, each op's scaled by its own factor."""
        return sum(op.sample_s * (1.0 if raw else op.scaled / op.seconds)
                   for op in self.ops if op.seconds > 0)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Run one gapflow benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def timed_setup(paths, repeats: int, warm_up: bool) -> tuple[list[tuple[float, float]], list]:
    """Import gapflow afresh, load, validate and assemble the epoch-0 generator
    of every scenario, ``repeats`` times; numpy and scipy are imported
    beforehand and not timed. Returns (raw, scaled) seconds per repeat."""
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401

    times, models = [], []
    for repeat in range(repeats + warm_up):
        for name in [k for k in sys.modules if k == "gapflow" or k.startswith("gapflow.")]:
            del sys.modules[name]
        with Bracket() as cal:
            t0 = perf_counter()
            gapflow = importlib.import_module("gapflow")
            models = []
            for path in paths:
                model = gapflow.load_scenario_file(str(path))
                report = gapflow.validate_model(model)
                if not report.ok:
                    raise RuntimeError(f"{path}: {report.render()}")
                gapflow.assemble_generator(
                    model, gapflow.RuleSet(model.defaults.rules),
                    gapflow.GapSemantics.from_token(model.defaults.gap_mode))
                models.append(model)
            seconds = perf_counter() - t0
        if repeat or not warm_up:
            times.append((seconds, seconds * cal.scale))
    return times, models


def measure(workload, runner, tracer, seconds, trace, rng):
    """Closed loop: run iterations until ``seconds`` have passed. With tracing
    iterations alternate untraced and traced, starting untraced."""
    from layers import profile_cache_info

    iterations, first, cache = [], None, [0, 0]
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(iterations) < (2 if trace else 1):
        traced = trace and len(iterations) % 2 == 1
        active = tracer if traced else runner.sampler
        runner.tracer = tracer if traced else None
        start = len(runner.ops)
        c_before = profile_cache_info() if traced else None
        active.install()
        try:
            workload.iteration(runner, rng)
        finally:
            active.uninstall()
        if c_before is not None:
            c_after = profile_cache_info()
            cache = [cache[0] + c_after[0] - c_before[0], cache[1] + c_after[1] - c_before[1]]
        if traced and first is None:
            first = dict(tracer.counters)
        iterations.append(Iteration(traced=traced, ops=runner.ops[start:]))
    return iterations, first, (cache if profile_cache_info() is not None else None)


def quantile(values, q) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(setup_times, iterations, raw=False) -> dict:
    """End-to-end metrics from times scaled to the reference host speed, or
    from raw times with ``raw``."""
    untraced = [it for it in iterations if not it.traced]
    pick = 0 if raw else 1
    setup = [t[pick] for t in setup_times]
    walls = [it.wall if raw else it.scaled for it in untraced]
    rates = [it.trajectories / it.sample_s(raw) for it in untraced if it.sample_s(raw) > 0]
    latencies = [1e3 * (op.seconds if raw else op.scaled)
                 for it in untraced for op in it.ops if op.experiment]
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "traj_per_s": (statistics.median(rates), "1/s", len(rates)),
        "experiment_p50_ms": (quantile(latencies, 0.5), "ms", len(latencies)),
        "experiment_p90_ms": (quantile(latencies, 0.9), "ms", len(latencies)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def trace_metrics(tracer, iterations, first, cache, probe, runner) -> dict:
    from layers import layer_metrics

    traced = [it for it in iterations if it.traced]
    untraced = [it for it in iterations if not it.traced]
    metrics = {name: (value, unit, len(traced)) for name, (value, unit) in layer_metrics(
        tracer, len(traced), first or {}, cache, probe, runner.nonzero_exits).items()}
    traced_wall = sum(it.wall for it in traced)
    attributed = sum(tracer.by_layer("self").values())
    metrics["trace.overhead_frac"] = (
        statistics.median(it.scaled for it in traced)
        / statistics.median(it.scaled for it in untraced) - 1.0,
        "ratio", min(len(traced), len(untraced)))
    metrics["trace.unattributed_frac"] = (1.0 - attributed / traced_wall, "ratio", len(traced))
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    return None


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        # OpenBLAS threading decides the cost of dense matvecs of dim >= 64.
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def run(args, work: Path) -> tuple[dict, dict]:
    from layers import COMPUTED, build_sampler, build_tracer, matvec_probe
    from workloads import WORKLOADS, Runner

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(),
              "loadavg_start": os.getloadavg(),
              "load": "closed loop, one process, commands one after another, --workers 1"}
    workload = WORKLOADS[args.workload]
    seed = args.seed % 2**32            # numpy seeds must be non-negative
    rng = random.Random(seed)
    paths = workload.prepare(ROOT, work, seed)
    calibration.warm_up()
    setup_times, models = timed_setup(paths, SETUP_REPEATS, warm_up=True)
    workload.bind(models)
    probe = matvec_probe(seed) if args.trace else {}
    runner = Runner(sampler=build_sampler())
    tracer, absent = build_tracer() if args.trace else (None, [])
    iterations, first, cache = measure(workload, runner, tracer, args.seconds,
                                       bool(args.trace), rng)
    if args.trace:
        metrics = trace_metrics(tracer, iterations, first, cache, probe, runner)
    else:
        setup_times += timed_setup(paths, SETUP_REPEATS, warm_up=False)[0]
        metrics = end_to_end(setup_times, iterations)
        report["raw_metrics"] = {k: {"value": v, "unit": u, "n": n} for k, (v, u, n)
                                 in end_to_end(setup_times, iterations, raw=True).items()}
    attempted = len(runner.ops)
    failed = sum(1 for op in runner.ops if op.failures)
    report.update({
        "loadavg_end": os.getloadavg(),
        "iterations": len(iterations),
        "iteration_wall_s": [it.wall for it in iterations],
        "iteration_scaled_s": [it.scaled for it in iterations],
        "calibration": {"ref_s": calibration.REF_S,
                        "repeats": calibration.REPEATS,
                        "median_scale": statistics.median(
                            op.scaled / op.seconds for op in runner.ops if op.seconds > 0)},
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "failures": runner.failure_log,
        "absent_private_names": absent,
        "computed_not_measured": list(COMPUTED) if args.trace else [],
        "ensemble_z_test_not_gated": runner.z_test_skipped,
        "ensemble_default_compare_failed": runner.default_compare_failed,
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
    })
    return report, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not ((ROOT / "src" / "gapflow" / "__init__.py").is_file()
            and (ROOT / "scenarios").is_dir()):
        print(f"perfbench: no gapflow source tree (src/gapflow, scenarios/) in {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        report, metrics = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    want = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    got = {name: unit for name, (_, unit, _) in metrics.items()}
    if want != got:
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
              f"units {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}",
              file=sys.stderr)
        return 3

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {report['iterations']} "
          f"iterations, {report['attempted']} operations, {report['failed']} failed "
          f"(failed_fraction {report['failed_fraction']:.6g} ratio)")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name} = {value:.6g} {unit} (n={n})")
    for line in report["failures"]:
        print(f"  FAILED {line}")
    for name in report["absent_private_names"]:
        print(f"  absent: {name} no longer exists; its metrics read 0")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
