"""The benchmark harness still binds to the package: perfbench/run.py runs
a short chained workload, untraced and traced, to a correct report.

The traced run swaps named gapflow functions for timing wrappers, and the
untraced one samples through gapflow.cli names; a removal that breaks one
of those names fails the benchmark, so it fails here first.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# The private names the traced run wraps that are already gone; its report
# lists them under absent_private_names.
ABSENT = {"gapflow.dynamics.evolve", "gapflow.engine.choose_component",
          "gapflow.engine.apply_collapse", "gapflow.ensemble._PrehitTable",
          "gapflow.output.write_segment_csv"}


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_harness_runs_against_the_package(trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "chained",
         "--seed", "1", "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
    *_, report, verdict = done.stdout.splitlines()
    assert json.loads(verdict)["correct"] is True
    assert set(json.loads(report)["absent_private_names"]) <= ABSENT
