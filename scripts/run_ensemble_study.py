#!/usr/bin/env python3
"""Ensemble study: empirical collapse statistics against the current oracle.

Runs n trajectories per fixture, compares shares (binomial z) and first-hit
times (grid KS) against the deterministic current-integral oracle, and prints
one summary row per fixture. Useful for eyeballing how fast the empirical
shares converge; the acceptance test pins the n = 20,000 case.

Example:

    python3 scripts/run_ensemble_study.py --n 5000 --fixtures three_mode two_level
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from gapflow.dynamics import GapSemantics, IntegratorConfig
from gapflow.ensemble import compare, deterministic_oracle, run_ensemble
from gapflow.fixtures import BUILDERS
from gapflow.rules import RuleSet


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--dt", type=float, default=0.01)
    ap.add_argument("--t-max", type=float, default=6.0)
    ap.add_argument("--rules", choices=("nrules3", "nrules4"), default="nrules3")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--fixtures", nargs="+", default=sorted(BUILDERS),
                    choices=sorted(BUILDERS))
    return ap.parse_args()


def main():
    args = parse_args()
    cfg = IntegratorConfig(dt=args.dt, t_max=args.t_max)
    ruleset = RuleSet(args.rules)
    mode = GapSemantics.ONE_WAY_FEED
    any_failed = False

    for name in args.fixtures:
        model = BUILDERS[name]()
        stats = run_ensemble(model, ruleset, cfg, mode, args.n, args.seed,
                             n_workers=args.workers)
        oracle = deterministic_oracle(model, cfg, mode, ruleset=ruleset)
        report = compare(stats, oracle)
        any_failed |= not report.passed

        shares = " ".join(
            f"{comp}:{report.shares_observed.get(comp, 0.0):.4f}"
            f"/{report.shares_predicted[comp]:.4f}"
            for comp in sorted(report.shares_predicted))
        print(f"{name:<20} n={stats.n} hits={stats.n_hits} "
              f"max|z|={report.max_abs_z:.2f} "
              f"KS={report.ks_d:.5f}<{report.ks_threshold:.5f} "
              f"obs/pred {shares} "
              f"{'pass' if report.passed else 'FAIL'}")

    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
