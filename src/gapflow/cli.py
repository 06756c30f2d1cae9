"""Command-line front end.

Subcommands: validate, run, ensemble, arrow, currents, rerun. Flags omitted
on the command line fall back to the scenario document's ``defaults`` block.
Exit codes: 0 success (and, for arrow, all verdicts as expected); 1 validation
or verdict failure; 2 usage and file errors.

Every writing command drops a ``manifest.json`` next to its outputs; ``rerun``
replays a manifest into a fresh directory and is expected to reproduce the
original files byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys

from .arrow import (BLOCKED, FLOWED, forward_experiment, reverse_experiment,
                    suspension_counterfactual)
from .dynamics import GapSemantics, IntegratorConfig
from .engine import NORM_POLICIES, PRESERVE_TOTAL, EpochRunner, TrajectorySamples, run_trajectory
from .ensemble import compare, deterministic_oracle, run_ensemble
from .errors import GapflowError, ScenarioParseError, ScenarioValidationError
from .model import GAP_MODES, load_scenario, parse_scenario, scenario_text, validate_model
from .output import (build_manifest, dump_events, dump_json, ensemble_report, load_manifest,
                     scenario_hash, write_events_jsonl, write_histogram_csv, write_manifest,
                     write_report_json, write_survival_csv, write_trajectory_csv)
from .rules import FREEZE_RULES, RULE_IDS, RuleSet, ruleset_for_rule


def _add_common(sp, with_seed=True):
    sp.add_argument("--scenario", required=True, help="scenario JSON path")
    sp.add_argument("--rules", choices=sorted(RULE_IDS), default=None,
                    help="rule-set variant (default: scenario defaults)")
    sp.add_argument("--gap-mode", choices=GAP_MODES, default=None,
                    help="gap semantics (default: scenario defaults)")
    sp.add_argument("--suspend", choices=sorted(FREEZE_RULES), default=None,
                    help="suspend a freeze rule (requires gap mode hermitian, by flag or default)")
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--t-max", type=float, default=None)
    if with_seed:
        sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--sample-every", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gapflow",
        description="Stochastic collapse dynamics across entropy-ordered gaps.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a scenario document")
    sp.add_argument("--scenario", required=True)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("run", help="run a single trajectory")
    _add_common(sp)
    sp.add_argument("--policy", choices=NORM_POLICIES, default=PRESERVE_TOTAL)
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("ensemble", help="run a trajectory ensemble and compare "
                                         "against the deterministic oracle")
    _add_common(sp)
    sp.add_argument("--n", type=int, default=1000, help="trajectory count")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--policy", choices=NORM_POLICIES, default=PRESERVE_TOTAL)
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_ensemble)

    sp = sub.add_parser("arrow", help="forward/reverse/counterfactual experiments; "
                                      "exit 1 if any verdict deviates")
    _add_common(sp)
    sp.add_argument("--out-dir", default=None)
    sp.set_defaults(func=cmd_arrow)

    sp = sub.add_parser("currents", help="deterministic current profile as CSV")
    _add_common(sp, with_seed=False)     # the profile draws no number
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_currents)

    sp = sub.add_parser("rerun", help="replay a manifest into a new directory")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=cmd_rerun)
    return p


def _resolve(args, model, parser):
    d = model.defaults
    rules = args.rules
    suspended = frozenset()
    mode = GapSemantics.from_token(args.gap_mode if args.gap_mode else d.gap_mode)
    if args.suspend:
        if mode is not GapSemantics.HERMITIAN_TRUNCATED:
            parser.error("--suspend requires --gap-mode hermitian; a suspension "
                         "under sink semantics would block vacuously")
        variant = ruleset_for_rule(args.suspend)
        if rules is not None and rules != variant:
            parser.error(f"--suspend {args.suspend} belongs to {variant}, "
                         f"not {rules}")
        rules = variant
        suspended = frozenset({args.suspend})
    ruleset = RuleSet(rules if rules is not None else d.rules, suspended)
    cfg = IntegratorConfig(
        dt=args.dt if args.dt is not None else d.dt,
        t_max=args.t_max if args.t_max is not None else d.t_max,
        sample_every=args.sample_every if args.sample_every is not None else d.sample_every)
    seed = getattr(args, "seed", None)
    seed = seed if seed is not None else d.seed
    if seed < 0:
        raise GapflowError(f"seed must be a non-negative integer, got {seed}")
    return ruleset, mode, cfg, seed


def _load(path):
    """The scenario at ``path`` and the SHA-256 of the bytes it was parsed
    from. The file is read once, so the manifest names the bytes the
    command ran, even if the file changes while it runs."""
    with open(path, "rb") as fh:
        data = fh.read()
    return load_scenario(scenario_text(data)), hashlib.sha256(data).hexdigest()


def _manifest_for(args, command, sha256, ruleset, mode, cfg, seed, n=1,
                  policy=PRESERVE_TOTAL) -> str:
    """The manifest's JSON text. Every writing command serialises its JSON
    texts before it makes the output directory, so a value strict JSON
    refuses (ValueError, exit 1) leaves no partial output behind."""
    return dump_json(build_manifest(
        command, args.scenario, sha256,
        rules=ruleset.variant, suspended=sorted(ruleset.suspended),
        gap_mode=mode.token, dt=cfg.dt, t_max=cfg.t_max, seed=seed,
        n=n, sample_every=cfg.sample_every, policy=policy))


def cmd_validate(args, parser) -> int:
    with open(args.scenario, "rb") as fh:
        text = scenario_text(fh.read())
    try:
        model = parse_scenario(text)
    except ScenarioParseError as exc:
        print(f"PARSE ERROR {exc}")
        return 1
    report = validate_model(model)
    print(report.render())
    return 0 if report.ok else 1


def cmd_run(args, parser) -> int:
    model, sha256 = _load(args.scenario)
    ruleset, mode, cfg, seed = _resolve(args, model, parser)
    rec = run_trajectory(model, ruleset, cfg, mode, seed, policy=args.policy)
    manifest = _manifest_for(args, "run", sha256, ruleset, mode, cfg, seed, policy=args.policy)
    events = dump_events(rec.events)
    report = dump_json({
        "terminal": rec.terminal,
        "n_events": len(rec.events),
        "events": [ev.to_record(0) for ev in rec.events],
        "meta": rec.meta,
    })

    os.makedirs(args.out_dir, exist_ok=True)
    write_manifest(args.out_dir, manifest)
    write_trajectory_csv(os.path.join(args.out_dir, "trajectory.csv"), rec.samples)
    write_events_jsonl(os.path.join(args.out_dir, "events.jsonl"), events)
    write_report_json(os.path.join(args.out_dir, "run_report.json"), report)
    print(f"trajectory: {len(rec.events)} event(s), terminal={rec.terminal}, "
          f"outputs in {args.out_dir}")
    return 0


def cmd_ensemble(args, parser) -> int:
    model, sha256 = _load(args.scenario)
    ruleset, mode, cfg, seed = _resolve(args, model, parser)
    # The oracle runs first: it grows the runner's epoch-0 table, which the
    # calling process then walks on.
    runner = EpochRunner(model, ruleset, cfg, mode)
    oracle = deterministic_oracle(model, cfg, mode, ruleset=ruleset, runner=runner)
    stats = run_ensemble(model, ruleset, cfg, mode, args.n, seed,
                         n_workers=args.workers, policy=args.policy, runner=runner)
    report = compare(stats, oracle)
    manifest = _manifest_for(args, "ensemble", sha256, ruleset, mode, cfg, seed, n=args.n,
                             policy=args.policy)
    report_text = dump_json(ensemble_report(stats, oracle, report))

    os.makedirs(args.out_dir, exist_ok=True)
    write_manifest(args.out_dir, manifest)
    write_report_json(os.path.join(args.out_dir, "ensemble_report.json"), report_text)
    write_histogram_csv(os.path.join(args.out_dir, "hit_times_hist.csv"),
                        stats, cfg.t_max)
    write_survival_csv(os.path.join(args.out_dir, "survival.csv"), stats, oracle)
    print(f"n={stats.n} hits={stats.n_hits} max|z|={report.max_abs_z:.3f} "
          f"KS={report.ks_d:.5f} (threshold {report.ks_threshold:.5f}) "
          f"passed={report.passed}")
    return 0


def cmd_arrow(args, parser) -> int:
    model, sha256 = _load(args.scenario)
    ruleset, mode, cfg, seed = _resolve(args, model, parser)
    active = RuleSet(ruleset.variant)

    reports = {
        "forward": forward_experiment(model, cfg, ruleset=active, gap_mode=mode,
                                      seed=seed),
        # The reverse leg always runs with rules active under sink semantics,
        # the configuration whose blockedness is the claim under test; the
        # requested gap mode applies to the forward leg. Counterfactual modes
        # get their own suspended/restored pair below.
        "reverse": reverse_experiment(model, cfg, ruleset=active,
                                      gap_mode=GapSemantics.ONE_WAY_FEED, seed=seed),
    }
    expected = {"forward": FLOWED, "reverse": BLOCKED}
    if args.suspend:
        suspended_rep, restored_rep = suspension_counterfactual(
            model, cfg, args.suspend, seed=seed)
        reports["suspended"] = suspended_rep
        reports["restored"] = restored_rep
        expected["suspended"] = FLOWED
        expected["restored"] = BLOCKED

    matches = {name: reports[name].verdict == expected[name] for name in reports}
    for name, rep in reports.items():
        flag = "ok" if matches[name] else "MISMATCH"
        print(f"{name}: verdict={rep.verdict} expected={expected[name]} [{flag}] "
              f"max_backflow={rep.max_backflow:.6g} hits={rep.total_hits}")

    if args.out_dir:
        manifest = _manifest_for(args, "arrow", sha256, ruleset, mode, cfg, seed)
        report = dump_json({
            "reports": {k: v.to_dict() for k, v in reports.items()},
            "expected": expected,
            "matches": matches,
            "all_match": all(matches.values()),
        })
        os.makedirs(args.out_dir, exist_ok=True)
        write_manifest(args.out_dir, manifest)
        write_report_json(os.path.join(args.out_dir, "arrow_report.json"), report)
    return 0 if all(matches.values()) else 1


def cmd_currents(args, parser) -> int:
    model, sha256 = _load(args.scenario)
    ruleset, mode, cfg, seed = _resolve(args, model, parser)
    table, rows, times = EpochRunner(model, ruleset, cfg, mode).profile()
    samples = TrajectorySamples.of(model, [(table, 1.0, rows, times)], table.launch_ids)
    del table           # freed, with its generator, before the CSV text is built
    manifest = _manifest_for(args, "currents", sha256, ruleset, mode, cfg, seed)

    os.makedirs(args.out_dir, exist_ok=True)
    write_manifest(args.out_dir, manifest)
    path = os.path.join(args.out_dir, "currents.csv")
    write_trajectory_csv(path, samples)
    print(f"wrote {path} ({len(samples.times)} samples)")
    return 0


def cmd_rerun(args, parser) -> int:
    manifest = load_manifest(args.manifest)
    scenario = manifest["scenario"]["path"]
    if not os.path.isabs(scenario) and not os.path.exists(scenario):
        candidate = os.path.join(os.path.dirname(os.path.abspath(args.manifest)),
                                 scenario)
        if os.path.exists(candidate):
            scenario = candidate
    recorded = manifest["scenario"]["sha256"]
    actual = scenario_hash(scenario)
    if actual != recorded:
        print(f"scenario hash mismatch: manifest {recorded}, file {actual}",
              file=sys.stderr)
        return 2

    argv = [manifest["command"], "--scenario", scenario,
            "--rules", manifest["rules"], "--gap-mode", manifest["gap_mode"],
            "--dt", repr(manifest["dt"]), "--t-max", repr(manifest["t_max"]),
            "--sample-every", str(manifest["sample_every"])]
    if manifest["command"] != "currents":     # which takes no --seed
        argv += ["--seed", str(manifest["seed"])]
    for rule in manifest["suspended"]:
        argv += ["--suspend", rule]
    if manifest["command"] == "ensemble":
        argv += ["--n", str(manifest["n"]), "--workers", str(args.workers),
                 "--policy", manifest["norm_policy"]]
    elif manifest["command"] == "run":
        argv += ["--policy", manifest["norm_policy"]]
    if manifest["command"] != "arrow" or args.out_dir:
        argv += ["--out-dir", args.out_dir]
    return main(argv)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on first use: every parse_args call
    returns a new namespace, so in-process commands (and rerun, which
    re-enters main) share it safely."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except ScenarioValidationError as exc:
        print(exc.report.render(), file=sys.stderr)
        return 1
    except (ScenarioParseError, GapflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def arrow_check_main(argv=None) -> int:
    """Entry point for the arrow-check console script."""
    if argv is None:
        argv = sys.argv[1:]
    return main(["arrow", *argv])


if __name__ == "__main__":
    sys.exit(main())
