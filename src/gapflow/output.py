"""File outputs: trajectory CSV, event log, JSON reports, run manifests.

Everything written here is byte-reproducible for a fixed manifest: floats are
rendered with 17 significant digits (round-trip exact), JSON is strict (no
NaN or Infinity) with sorted keys, line endings are always "\\n", and nothing
timestamp- or host-dependent is embedded. The manifest deliberately omits
the worker count, since results do not depend on it.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .engine import CollapseEvent, TrajectorySamples
from .ensemble import EnsembleStats, OracleResult
from .version import __version__

MANIFEST_SCHEMA = "manifest/1"
MANIFEST_NAME = "manifest.json"


def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def scenario_hash(path) -> str:
    """SHA-256 of the scenario file's bytes, recorded in every manifest.

    ``rerun`` refuses a file whose bytes changed, even where the model did
    not; ScenarioModel.fingerprint() is the content hash that statistics
    compare.
    """
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# --- CSV --------------------------------------------------------------------

def _write_csv(path, header: list[str], rows):
    """``header`` and one line per row of Python numbers, rendered with one
    %-format per line: %.17g gives a float 17 significant digits and an
    integer count its digits. Lines go to the file as they are rendered,
    so the text of a wide table is never held whole."""
    fmt = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(fmt % row for row in rows)


def write_trajectory_csv(path, samples: TrajectorySamples):
    """One row per sample: t, s, each component's square modulus and each
    current; `gapflow run`'s trajectory.csv and `gapflow currents`'
    currents.csv."""
    header = (["t", "s"]
              + [f"p_{cid}" for cid in samples.component_ids]
              + [f"J_{cid}" for cid in samples.current_ids])
    # Rows become Python floats one at a time, never the whole table at once.
    _write_csv(path, header, ((t, s_t, *m.tolist(), *j.tolist())
                              for t, s_t, m, j in zip(samples.times.tolist(), samples.s.tolist(),
                                                      samples.moduli, samples.currents)))


def write_histogram_csv(path, stats: EnsembleStats, t_max: float, n_bins: int = 60):
    counts, edges = np.histogram(stats.hit_times, bins=n_bins, range=(0.0, t_max))
    _write_csv(path, ["bin_left", "bin_right", "count"],
               zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))


def write_survival_csv(path, stats: EnsembleStats, oracle: OracleResult):
    """One row per point of the oracle's grid, the run's step grid."""
    s_emp = stats.empirical_survival(oracle.times)
    _write_csv(path, ["t", "survival_empirical", "survival_predicted"],
               zip(oracle.times.tolist(), s_emp.tolist(), oracle.survival.tolist()))


# --- JSON -------------------------------------------------------------------

def dump_json(obj) -> str:
    """Strict JSON: a NaN or infinite float raises ValueError."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_report_json(path, obj):
    _write_text(path, dump_json(obj))


def write_events_jsonl(path, events: list[CollapseEvent], trajectory_id: int = 0):
    lines = [json.dumps(ev.to_record(trajectory_id), sort_keys=True, allow_nan=False)
             for ev in events]
    _write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def ensemble_report(stats: EnsembleStats, oracle: OracleResult, comparison) -> dict:
    return {
        "stats": {
            "n": stats.n,
            "seed": stats.seed,
            "n_hits": stats.n_hits,
            "counts": {str(m): k for m, k in sorted(stats.counts.items())},
            "shares": {str(m): v for m, v in sorted(stats.shares.items())},
            "no_collapse_fraction": stats.no_collapse_fraction,
            "totals": stats.totals,
        },
        "oracle": {
            "integrals": {str(m): v for m, v in sorted(oracle.integrals.items())},
            "predicted_shares": {str(m): v for m, v in sorted(oracle.predicted_shares.items())},
            "survival_at_t_max": float(oracle.survival[-1]),
        },
        "comparison": comparison.to_dict(),
    }


# --- manifest -----------------------------------------------------------------

def build_manifest(command: str, scenario_path: str, scenario_sha256: str, *,
                   rules: str, suspended, gap_mode: str, dt: float, t_max: float,
                   seed: int, n: int = 1, sample_every: int = 1,
                   policy: str = "preserve_total") -> dict:
    return {
        "schema": MANIFEST_SCHEMA,
        "tool": "gapflow",
        "tool_version": __version__,
        "command": command,
        "scenario": {"path": scenario_path, "sha256": scenario_sha256},
        "rules": rules,
        "suspended": sorted(suspended),
        "gap_mode": gap_mode,
        "dt": dt,
        "t_max": t_max,
        "seed": seed,
        "n": n,
        "sample_every": sample_every,
        "norm_policy": policy,
    }


def write_manifest(out_dir, manifest: dict) -> str:
    path = os.path.join(out_dir, MANIFEST_NAME)
    write_report_json(path, manifest)
    return path


def load_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(f"unsupported manifest schema {doc.get('schema')!r}")
    return doc
