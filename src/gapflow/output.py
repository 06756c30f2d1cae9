"""File outputs: trajectory CSV, event log, JSON reports, run manifests.

Everything written here is byte-reproducible for a fixed manifest: a CSV
value is exactly the text of '%.17g' % x (17 significant digits, round-trip
exact), JSON is strict (no NaN or Infinity) with sorted keys, line endings
are always "\\n", and nothing timestamp- or host-dependent is embedded. The
manifest deliberately omits the worker count, since results do not depend
on it.

CSV tables are rendered in blocks of rows by array arithmetic (_render),
which gives '%.17g''s bytes without a per-value conversion; the rare value
the arrays cannot decide, and every block below CROSSOVER values, take '%'
itself. JSON texts are serialised by the caller (dump_json, dump_events)
and written as given, so a command can refuse a report before it makes
its output directory.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from functools import cache

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
#
# A CSV value is the text of '%.17g' % x. _render gives that text for a whole
# block of float64 values with array operations, as fixed-precision printf
# does (Adams, "Ryu revisited", 2019): the 17 significant digits are the
# integer nearest v = |x| 10^(16-k), k = floor(log10 |x|), and v is computed
# to about 1e-14 as a Dekker product of |x| with a double-double power of
# ten. The values whose digits this cannot decide take the per-value %
# path: NaN, infinities, nonzero |x| outside [1e-250, 1e250] (subnormals
# among them), a v whose fraction lies within _TIE of a half, and a v whose
# integer part lies outside [1e16, 1e17 - 1): a k that log10 put off by
# one, or a v that rounds up to 1e17.
#
# Each value's text is selected from a 56-byte cell that holds the digits
# twice, so that the point needs no slot of its own between them:
#   0-5    "-0.000"   sign, and the "0." and zeros of a fixed-form value below 1
#   8-24   d0 ... d16, read up to the point
#   31     "."
#   32-48  d0 ... d16, read after the point
#   49-54  "e", exponent sign, three exponent digits, separator
# Bytes 6-7, 25-30 and 55 are never read. A keep mask per (sign, layout,
# significant digits) selects the text's bytes; it has a few long runs, which
# numpy's boolean selection copies fastest.

_K_MIN, _K_MAX = -252, 251      # floor(log10 |x|) of |x| in [1e-250, 1e250], and one beyond
_TIE = 1e-9
_SPLIT = 134217729.0            # 2**27 + 1: Veltkamp's split into 26-bit halves
_CELL = 56
_HEAD, _POINT = np.frombuffer(b"-0.000\0\0" + b"\0" * 7 + b".", np.uint64)  # bytes 0-7, 24-31
# Layouts 0-20: the fixed form of k = layout - 4; 21 and 22: the exponent
# form with two and with three exponent digits.
_LAYOUTS = 23
# Below this many values a block is rendered with one % per row: the array
# path's fixed cost, about 70 us on a 2-vCPU Xeon, is that of some 250 %
# conversions.
CROSSOVER = 256
# Values rendered at once by _write_csv: a block's arrays stay in cache.
_CHUNK = 4096


def _keep_cols(negative: bool, layout: int, n_sig: int) -> list[int]:
    """The cell bytes of a value's text, by its sign, its layout and its
    significant digits (trailing zeros stripped, 0 for zero)."""
    cols = [0] if negative else []
    if layout <= 20:
        k = layout - 4
        if k < 0:
            cols += [1, 2, *range(3, 2 - k)]        # "0." and -k - 1 zeros
            before = n_digits = max(n_sig, 1)       # every digit follows "0."
        else:
            before = k + 1                          # digits before the point
            n_digits = max(n_sig, before)
    else:
        before, n_digits = 1, max(n_sig, 1)
    cols += range(8, 8 + before)
    if n_digits > before:
        cols += [31, *range(32 + before, 32 + n_digits)]
    if layout > 20:
        cols += [49, 50, 51, 52, 53] if layout == 22 else [49, 50, 52, 53]
    cols.append(54)
    return cols


@cache
def _tables() -> tuple[np.ndarray, ...]:
    """_render's read-only tables, built once per process:
    - pow10: rows hi, lo, hi_h, hi_l with a column per k in [_K_MIN, _K_MAX]:
      10^(16-k) as a double-double hi + lo, exact to about 2^-106, and hi's
      Veltkamp halves;
    - quads: the four digit bytes of each 4-digit group, as a uint32;
    - sig: each group's digits up to its last nonzero one (0 for 0);
    - tails: cell bytes 48-55 per k, with byte 48 (the last digit) left 0;
    - keep: the keep mask per (sign, layout, significant digits).
    """
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        # 10^(16-k) = num / den exactly; int / int is correctly rounded.
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        hi = num / den
        m, q = hi.as_integer_ratio()
        t = _SPLIT * hi
        hi_h = t - (t - hi)
        rows.append((hi, (num * q - m * den) / (den * q), hi_h, hi - hi_h))
    group = np.arange(10000, dtype=np.uint16)
    digits = group[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0")
    keep = np.zeros((2 * _LAYOUTS * 18, _CELL), bool)
    for i, (negative, layout, n_sig) in enumerate(
            itertools.product((False, True), range(_LAYOUTS), range(18))):
        keep[i, _keep_cols(negative, layout, n_sig)] = True
    tables = (
        np.array(rows).T.copy(),
        digits.astype(np.uint8).view(np.uint32).ravel(),
        4 - sum(group % scale == 0 for scale in (10, 100, 1000, 10000)).astype(np.uint8),
        np.frombuffer(b"".join(b"\0e%c%03d,\0" % (b"-" if k < 0 else b"+", abs(k))
                               for k in range(_K_MIN, _K_MAX + 1)), np.uint64),
        keep,
    )
    for a in tables:
        a.setflags(write=False)
    return tables


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits of each value of ``x`` as an integer d,
    its decimal exponent k, and the indices of the values whose digits this
    cannot decide, whose d and k are 0 like zero's."""
    pow10 = _tables()[0]
    a = np.abs(x)
    ok = (a >= 1e-250) & (a <= 1e250)
    y = np.where(ok, a, 1.0)
    k = np.floor(np.log10(y)).astype(np.intp)
    hi, lo, hi_h, hi_l = pow10.take(k - _K_MIN, axis=1)
    # v = y (hi + lo) = p + c: p = fl(y hi) is an integer (v >= 2^53), and c,
    # the TwoProduct error of y hi plus y lo, is the small rest.
    t = _SPLIT * y
    y_h = t - (t - y)
    y_l = y - y_h
    p = y * hi
    c = ((y_h * hi_h - p) + y_h * hi_l + y_l * hi_h) + y_l * hi_l + y * lo
    c_floor = np.floor(c)
    frac = c - c_floor
    d = p.astype(np.int64) + c_floor.astype(np.int64)
    undecided = (d < 10**16) | (d >= 10**17 - 1) | (np.abs(frac - 0.5) < _TIE)
    d += frac > 0.5
    fallback = undecided | ~(ok | (x == 0.0))
    d[~ok | fallback] = 0
    k[~ok | fallback] = 0
    return d, k, np.flatnonzero(fallback)


def _render(block: np.ndarray) -> bytes:
    """The CSV lines of a 2-D float64 block: '%.17g' % x of each value,
    joined by "," within a row, each row ended by "\\n". The digits come
    from _digits, in a function of their own so that its arrays are freed
    before the cells are built."""
    n_rows, n_cols = block.shape
    if block.size < CROSSOVER:
        fmt = ",".join(["%.17g"] * n_cols) + "\n"
        return "".join(fmt % tuple(row) for row in block.tolist()).encode()
    _, quads, sig, tails, keep = _tables()
    x = block.ravel()
    d, k, fallback = _digits(x)

    words = np.empty((x.size, _CELL // 8), np.uint64)
    words[:, 0] = _HEAD
    words[:, 3] = _POINT
    quad_cols = words.view(np.uint32)
    n_sig = np.zeros(x.size, np.intp)
    for j in range(4):                  # d0-d3, d4-d7, d8-d11, d12-d15
        scale = 10 ** (13 - 4 * j)
        group = d // scale
        d -= group * scale
        quad_cols[:, 2 + j] = quads.take(group)
        n_sig = np.where(group > 0, 4 * j + sig.take(group), n_sig)
    quad_cols[:, 8:12] = quad_cols[:, 2:6]
    n_sig[d > 0] = 17
    words[:, 6] = tails.take(k - _K_MIN)
    cells = words.view(np.uint8)
    cells[:, 48] = d + ord("0")
    cells[:, 24] = cells[:, 48]
    cells.reshape(n_rows, n_cols, -1)[:, -1, 54] = ord("\n")
    layout = np.where((k >= -4) & (k <= 16), k + 4, np.where(np.abs(k) >= 100, 22, 21))
    mask = keep.take((np.signbit(x) * _LAYOUTS + layout) * 18 + n_sig, axis=0)
    if fallback.size:
        texts = ["%.17g" % v for v in x[fallback].tolist()]
        cells[fallback, :54] = np.frombuffer(
            "".join(s.ljust(54) for s in texts).encode(), np.uint8).reshape(-1, 54)
        mask[fallback, :54] = np.arange(54) < np.array([len(s) for s in texts])[:, None]
    return cells[mask].tobytes()


def _write_csv(path, header: list[str], columns: list[np.ndarray]):
    """``header`` and one line per row of ``columns``, 1-D and 2-D arrays of
    one length whose columns are the file's, in order; at least one column
    is float, so the rows stack as float64 and an integer count becomes the
    float it equals. Every value is written as '%.17g' % x, which gives a
    float 17 significant digits and a count its digits. Rows are
    rendered _CHUNK values at a time and each chunk's bytes go to the file
    at once, so neither the text nor a stack of the whole table is held."""
    n_rows = len(columns[0])
    step = max(1, _CHUNK // len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for i in range(0, n_rows, step):
            fh.write(_render(np.column_stack([c[i:i + step] for c in columns])))


def write_trajectory_csv(path, samples: TrajectorySamples):
    """One row per sample: t, s, each component's square modulus and each
    current; `gapflow run`'s trajectory.csv and `gapflow currents`'
    currents.csv."""
    header = (["t", "s"]
              + [f"p_{cid}" for cid in samples.component_ids]
              + [f"J_{cid}" for cid in samples.current_ids])
    _write_csv(path, header, [samples.times, samples.s, samples.moduli, samples.currents])


def write_histogram_csv(path, stats: EnsembleStats, t_max: float, n_bins: int = 60):
    counts, edges = np.histogram(stats.hit_times, bins=n_bins, range=(0.0, t_max))
    _write_csv(path, ["bin_left", "bin_right", "count"], [edges[:-1], edges[1:], counts])


def write_survival_csv(path, stats: EnsembleStats, oracle: OracleResult):
    """One row per point of the oracle's grid, the run's step grid."""
    s_emp = stats.empirical_survival(oracle.times)
    _write_csv(path, ["t", "survival_empirical", "survival_predicted"],
               [oracle.times, s_emp, oracle.survival])


# --- JSON -------------------------------------------------------------------

def dump_json(obj) -> str:
    """Strict JSON: a NaN or infinite float raises ValueError."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def dump_events(events: list[CollapseEvent], trajectory_id: int = 0) -> str:
    """The event log: one strict-JSON object per line and event."""
    lines = [json.dumps(ev.to_record(trajectory_id), sort_keys=True, allow_nan=False)
             for ev in events]
    return "\n".join(lines) + ("\n" if lines else "")


def write_report_json(path, text: str):
    """Write a report's JSON text (dump_json). Commands serialise every JSON
    text before they make their output directory, so a value strict JSON
    refuses fails the command with nothing written."""
    _write_text(path, text)


def write_events_jsonl(path, text: str):
    """Write the event log's text (dump_events)."""
    _write_text(path, text)


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


def write_manifest(out_dir, text: str) -> str:
    """Write a manifest's JSON text (dump_json of build_manifest) into
    ``out_dir``; return its path."""
    path = os.path.join(out_dir, MANIFEST_NAME)
    _write_text(path, text)
    return path


def load_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(f"unsupported manifest schema {doc.get('schema')!r}")
    return doc
