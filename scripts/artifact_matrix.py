#!/usr/bin/env python3
"""Run a fixed matrix of CLI invocations and record a sha256 per artifact.

Every shipped scenario is run in every gap mode through twelve invocations
(`currents` three ways, `ensemble` four ways, `run` two ways, `arrow` three
ways: plain, with `--suspend n3_1`, and off the dt grid with sparse
samples), 180 in all. The `--suspend n3_1` cases exit with a usage
error outside hermitian mode. No shipped scenario has a launch component wider than
one dimension or a feed with two entries in one low column, so WIDE_LAUNCH
from tests/conftest.py, whose epoch 1 runs on tables of their own and each
of whose feeds has two entries (the 0→1 feed in one low column, the 1→2
feed in one high row), is written to
`<out-dir>/wide_launch.json` and run in every gap mode through five more
(`run` on and off the dt grid, `ensemble`, `arrow` plain and with
`--suspend n3_1`), 195 so far. No model above `DENSE_DIM_LIMIT` is among
them, so `star_model(300)` from tests/conftest.py, of dim 301 with an own
block on its source (G^2 is not 0), is written to `<out-dir>/star.json`
and run in every gap mode through two more (`ensemble` and `currents`),
201 in all: its generator is CSR, with a CSR M_h in oneway mode and
staged steps in the others. Each runs in-process through
`gapflow.cli.main` with its own output directory. The listing written to
`<out-dir>/sha256.txt` holds one line per output file, plus the exit
code, stdout and stderr of each invocation, sorted by path. Paths are
masked in all of them, as every manifest records its scenario's path: the
invocation's output directory as `<out>` in its stdout and stderr,
`<out-dir>` as `<out>` in its files, and the `--scenarios` directory as
`<scenarios>` in both. So two listings taken
in two checkouts, each with its own default `--scenarios`, compare as long
as the scenario files agree. They are compared with `diff`, or with
`--compare OTHER`, which prints the paths whose bytes differ and exits 1 if
there is any (0 if none), so a claim that no artifact byte moved can be
checked by exit code.

Example (a change against a checkout of its parent):

    python3 scripts/artifact_matrix.py --src ../parent/src --out-dir /tmp/am_old
    python3 scripts/artifact_matrix.py --out-dir /tmp/am_new --compare /tmp/am_old/sha256.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# (case name, extra arguments) per scenario and gap mode.
INVOCATIONS = (
    ("currents", ["currents"]),
    ("currents_offgrid", ["currents", "--t-max", "0.505", "--sample-every", "3"]),
    ("currents_every3", ["currents", "--sample-every", "3"]),
    ("ensemble", ["ensemble", "--n", "200"]),
    ("ensemble_offgrid", ["ensemble", "--n", "200", "--t-max", "2.005"]),
    # Above ensemble.BLOCK = 2048, with a tail block: large blocks draw their
    # substreams as arrays, small ones through the per-key loop.
    ("ensemble_3000", ["ensemble", "--n", "3000"]),
    ("ensemble_suspend", ["ensemble", "--n", "200", "--suspend", "n3_1"]),
    ("run", ["run", "--sample-every", "7"]),
    ("run_raw", ["run", "--policy", "raw", "--seed", "5"]),
    ("arrow", ["arrow"]),
    ("arrow_suspend", ["arrow", "--suspend", "n3_1"]),
    ("arrow_offgrid", ["arrow", "--t-max", "2.005", "--sample-every", "3"]),
)

# The cases of WIDE_LAUNCH: compensated runs cost about 14 ms per trajectory.
# Its feeds are the only ones whose flow sums two entries per row.
WIDE_INVOCATIONS = (
    ("run", ["run", "--sample-every", "7"]),
    ("run_offgrid", ["run", "--t-max", "2.005", "--sample-every", "3"]),
    ("ensemble", ["ensemble", "--n", "200"]),
    ("arrow", ["arrow"]),
    ("arrow_suspend", ["arrow", "--suspend", "n3_1"]),
)


# The cases of star_model(300), on the CSR path: about 3 s in all, nearly
# all of it compensated.
STAR_INVOCATIONS = (
    ("ensemble", ["ensemble", "--n", "200", "--t-max", "0.5"]),
    ("currents", ["currents", "--t-max", "0.5"]),
)


def sha256_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(main, argv: list[str], out_dir: str, scenarios: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call, with its
    output directory and the scenarios directory masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:           # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, *(text.getvalue().replace(out_dir, "<out>").replace(scenarios, "<scenarios>")
                   for text in (out, err))


def build_listing(scenarios: pathlib.Path, out_root: pathlib.Path) -> list[str]:
    from gapflow.cli import main
    from gapflow.model import GAP_MODES, serialize_scenario
    from conftest import WIDE_LAUNCH, star_model

    os.makedirs(out_root, exist_ok=True)
    wide = out_root / "wide_launch.json"
    wide.write_text(json.dumps(WIDE_LAUNCH), encoding="utf-8")
    star = out_root / "star.json"
    star.write_text(serialize_scenario(star_model(300)), encoding="utf-8")
    runs = [(path, INVOCATIONS) for path in sorted(scenarios.glob("*.json"))]
    lines = []
    for scenario, invocations in runs + [(wide, WIDE_INVOCATIONS), (star, STAR_INVOCATIONS)]:
        for mode in GAP_MODES:
            for case, extra in invocations:
                name = f"{scenario.stem}/{mode}/{case}"
                out_dir = str(out_root / name)
                os.makedirs(out_dir, exist_ok=True)
                argv = [extra[0], "--scenario", str(scenario), "--gap-mode", mode,
                        *extra[1:], "--out-dir", out_dir]
                if extra[0] == "ensemble":
                    argv += ["--workers", "1"]
                code, stdout, stderr = run_case(main, argv, out_dir, str(scenarios))
                lines.append(f"{sha256_of(str(code).encode())}  {name}/<exit>")
                lines.append(f"{sha256_of(stdout.encode())}  {name}/<stdout>")
                lines.append(f"{sha256_of(stderr.encode())}  {name}/<stderr>")
                for path in sorted(pathlib.Path(out_dir).iterdir()):
                    data = path.read_bytes().replace(str(out_root).encode(), b"<out>").replace(
                        str(scenarios).encode(), b"<scenarios>")
                    lines.append(f"{sha256_of(data)}  {name}/{path.name}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def read_listing(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return {name: digest for digest, name in
                (line.rstrip("\n").split("  ", 1) for line in fh if line.strip())}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out-dir", required=True, help="directory for artifacts and sha256.txt")
    ap.add_argument("--src", default=str(ROOT / "src"), help="source tree to import gapflow from")
    ap.add_argument("--scenarios", default=str(ROOT / "scenarios"),
                    help="directory of scenario JSON files")
    ap.add_argument("--compare", default=None,
                    help="an earlier sha256.txt; print the paths whose bytes differ "
                         "and exit 1 if any do")
    args = ap.parse_args()

    sys.path[:0] = [str(pathlib.Path(args.src).resolve()), str(ROOT / "tests")]
    out_root = pathlib.Path(args.out_dir).resolve()
    lines = build_listing(pathlib.Path(args.scenarios).resolve(), out_root)
    listing = out_root / "sha256.txt"
    listing.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"wrote {listing} ({len(lines)} entries)")
    if args.compare is None:
        return 0
    old, new = read_listing(args.compare), read_listing(str(listing))
    changed = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
    for name in changed:
        print(f"changed: {name}")
    print(f"{len(changed)} of {len(new)} entries changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
