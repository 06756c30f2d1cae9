#!/usr/bin/env python3
"""Run the benchmark on two source trees in alternating pairs and compare them.

Each pair runs `perfbench/run.py` of the parent tree first, then that of this
tree, with the same workload, seed (the pair's number) and duration, each
in its own process. The last line of each run's standard output is its
result object. After all pairs the script prints, per end-to-end metric,
the median over the runs of each side and the ratio this / parent, and the
failed and attempted operations of each side. Alternating the sides spreads
a drift in host speed over both.

Example (a change against a checkout of its parent):

    python3 scripts/bench_pairs.py --parent ../parent --workload chained --pairs 4 --seconds 8
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
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=4)
    ap.add_argument("--seconds", type=float, default=8.0)
    args = ap.parse_args(argv)

    sides = {"parent": pathlib.Path(args.parent).resolve(), "this": ROOT}
    results: dict[str, list[dict]] = {name: [] for name in sides}
    for pair in range(1, args.pairs + 1):
        for name, tree in sides.items():
            results[name].append(run_once(tree, args.workload, pair, args.seconds))
        print(f"pair {pair}: " + ", ".join(
            f"{name} p50 {res[-1]['metrics']['experiment_p50_ms']['value']:.2f} ms"
            for name, res in results.items()), flush=True)

    print(f"{'metric':<20}{'parent':>14}{'this':>14}{'this/parent':>13}")
    for metric, info in results["parent"][0]["metrics"].items():
        med = {name: statistics.median(r["metrics"][metric]["value"] for r in res)
               for name, res in results.items()}
        ratio = med["this"] / med["parent"] if med["parent"] else float("nan")
        print(f"{metric + ' (' + info['unit'] + ')':<20}"
              f"{med['parent']:>14.4g}{med['this']:>14.4g}{ratio:>13.3f}")
    for name, res in results.items():
        print(f"{name}: failed {sum(r['failed'] for r in res)} "
              f"of {sum(r['attempted'] for r in res)} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
