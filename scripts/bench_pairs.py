#!/usr/bin/env python3
"""Run the benchmark on two source trees in alternating pairs and compare them.

Each pair runs `perfbench/run.py` of both trees with the same workload, seed
and duration (BENCHMARK.json's run_seconds unless --seconds is given), each
in its own process: the parent tree first in odd pairs, this tree first in
even ones, so a drift in host speed falls on both sides alike. Pair k runs
seed --first-seed + k - 1, so a gain found on one seed range can be
confirmed on another. The last line of each run's standard output is its
result object; the script prints every run's end-to-end metrics as it goes.
After all pairs it prints, per end-to-end metric of BENCHMARK.json, the
median over the runs of each side, the ratio this / parent, in how many
pairs this tree did better, and the interquartile range of the parent's
runs, also as a share of their median, marked "unresolved" where that share
exceeds the metric's bound. Three verdicts follow: "gain" where this tree
won at least 9 in 10 of the pairs and its median is better than the parent's
by more than the parent's IQR; "slower", its mirror, where this tree lost at
least 9 in 10 of the pairs and its median is worse than the parent's by more
than the parent's IQR, so a steady small regression shows even below the
bound; and "worse" where its median is worse than the parent's by more than
the metric's bound. Last come the failed and attempted operations of each
side. With --json PATH the same summary is also written to PATH as a JSON
object: the workload, seeds, seconds and number of pairs; per metric both
medians, the parent's quartiles, IQR / median, the pairs won and lost and
the verdicts; and per side the failed and attempted operations.

--workload takes several names, each given once: their pairs run one
workload after another, each with the same seeds, and --json then writes
one object holding each workload's summary under its name. With one
workload the JSON is that workload's summary itself.

Example (a change against a checkout of its parent):

    python3 scripts/bench_pairs.py --parent ../parent --workload chained --first-seed 41 \
        --json BENCH_chained.json
    python3 scripts/bench_pairs.py --parent ../parent --workload single_gap chained \
        wide_fanout arrow_sweep --seconds 8 --json BENCH_all.json
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one benchmark run of ``tree``."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchmark of {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="root of the parent source tree")
    ap.add_argument("--workload", required=True, nargs="+",
                    help="one or more workloads, run one after another")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="duration of each run (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--first-seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="also write the summary to PATH as JSON")
    args = ap.parse_args(argv)
    if len(set(args.workload)) < len(args.workload):
        ap.error("--workload names a workload more than once")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    summaries = {}
    for workload in args.workload:
        if len(args.workload) > 1:
            print(f"workload {workload}", flush=True)
        summaries[workload] = compare_workload(args, benchmark["end_to_end"], workload, seconds)
    if args.json:
        doc = summaries if len(summaries) > 1 else summaries[args.workload[0]]
        pathlib.Path(args.json).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def compare_workload(args, declared: list[dict], workload: str, seconds: float) -> dict:
    """Run ``workload``'s pairs, print their metrics and the comparison, and
    return the summary."""
    sides = {"parent": pathlib.Path(args.parent).resolve(), "this": ROOT}
    results: dict[str, list[dict]] = {name: [] for name in sides}
    for pair in range(1, args.pairs + 1):
        for name in list(sides) if pair % 2 else reversed(sides):
            res = run_once(sides[name], workload, args.first_seed + pair - 1, seconds)
            results[name].append(res)
            print(f"pair {pair} {name}: " + " ".join(
                f"{m['name']}={res['metrics'][m['name']]['value']:.4g}" for m in declared)
                + f" failed={res['failed']}/{res['attempted']}", flush=True)

    summary = {"workload": workload, "pairs": args.pairs, "seconds": seconds,
               "seeds": [args.first_seed + k for k in range(args.pairs)], "metrics": {}}
    print(f"{'metric':<24}{'parent':>12}{'this':>12}{'this/parent':>13}{'won':>7}{'lost':>7}"
          f"{'parent IQR':>12}{'IQR/median':>12}  verdict")
    for info in declared:
        metric = info["name"]
        values = {name: [r["metrics"][metric]["value"] for r in res]
                  for name, res in results.items()}
        med = {name: statistics.median(v) for name, v in values.items()}
        ratio = med["this"] / med["parent"] if med["parent"] else float("nan")
        sign = 1.0 if info["better"] == "higher" else -1.0
        won = sum(sign * (t - p) > 0.0 for p, t in zip(values["parent"], values["this"]))
        lost = sum(sign * (t - p) < 0.0 for p, t in zip(values["parent"], values["this"]))
        q1, _, q3 = (statistics.quantiles(values["parent"], n=4) if args.pairs > 1
                     else (med["parent"],) * 3)
        spread = (q3 - q1) / med["parent"] if med["parent"] else float("nan")
        better = sign * (med["this"] - med["parent"])
        verdict = [word for word, holds in (
            ("unresolved", spread > info["bound"]),
            ("gain", 10 * won >= 9 * args.pairs and better > q3 - q1),
            ("slower", 10 * lost >= 9 * args.pairs and -better > q3 - q1),
            ("worse", -better > info["bound"] * abs(med["parent"]))) if holds]
        print(f"{metric + ' (' + info['unit'] + ')':<24}{med['parent']:>12.4g}"
              f"{med['this']:>12.4g}{ratio:>13.3f}{f'{won}/{args.pairs}':>7}"
              f"{f'{lost}/{args.pairs}':>7}"
              f"{q3 - q1:>12.4g}{spread:>12.3f}  {' '.join(verdict) or '-'}")
        summary["metrics"][metric] = {
            "unit": info["unit"], "better": info["better"], "bound": info["bound"],
            "median_parent": med["parent"], "median_this": med["this"],
            "parent_q1": q1, "parent_q3": q3, "parent_iqr_over_median": spread,
            "won": won, "lost": lost, "verdict": verdict}
    summary["operations"] = {}
    for name, res in results.items():
        failed, attempted = (sum(r[key] for r in res) for key in ("failed", "attempted"))
        summary["operations"][name] = {"failed": failed, "attempted": attempted}
        print(f"{name}: failed {failed} of {attempted} operations")
    return summary


if __name__ == "__main__":
    sys.exit(main())
