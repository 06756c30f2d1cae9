"""File outputs: trajectory CSV, event log, JSON reports, run manifests.

Everything written here is byte-reproducible for a fixed manifest: a CSV
value is exactly the text of '%.17g' % x (17 significant digits, round-trip
exact), JSON is strict (no NaN or Infinity) with sorted keys, line endings
are always "\\n", and nothing timestamp- or host-dependent is embedded. The
manifest deliberately omits the worker count, since results do not depend
on it.

CSV tables are rendered in chunks of rows by array arithmetic (_render),
which gives '%.17g''s bytes without a per-value conversion; the rare value
the arrays cannot decide, and every chunk below CROSSOVER values, take '%'
itself. Each value's text is selected from a 48-byte cell built as six
uint64 words. A chunk holds the rows whose render arrays fit _RENDER_BYTES,
at 160 bytes a value as tracemalloc measures it (2 MiB: 13,107 values, 12
rows of a 1025-column table).
JSON texts are serialised by the caller (dump_json, dump_events) and
written as given, so a command can refuse a report before it makes its
output directory.
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
# Each value's text is selected from a 48-byte cell of six uint64 words that
# holds the digits twice, so that the point needs no slot of its own
# between them:
#   0-5    "-0.000"   sign, and the "0." and zeros of a fixed-form value below 1
#   6-22   d0 ... d16, read up to the point
#   23     "."
#   24-40  d0 ... d16, read after the point
#   41-46  "e", exponent sign, three exponent digits, separator
# Byte 47 is never read. Words 3 and 4 are the digit groups q01 = d0-d7 and
# q23 = d8-d15; words 0-2 hold the same digits six bytes up, and word 5 is
# the exponent's tail with d16 in its low byte. A keep mask per (sign,
# layout, significant digits) selects the text's bytes; it has a few long
# runs, which numpy's boolean selection copies fastest.

_K_MIN, _K_MAX = -252, 251      # floor(log10 |x|) of |x| in [1e-250, 1e250], and one beyond
_TIE = 1e-9
_SPLIT = 134217729.0            # 2**27 + 1: Veltkamp's split into 26-bit halves
_HIGH_BITS = np.uint64(0xFFFFFFFFF8000000)  # a float's sign, exponent, top 25 mantissa bits
_CELL = 48
_HEAD = int.from_bytes(b"-0.000", "little")         # bytes 0-5 of word 0
_POINT = ord(".") << 8                              # above d16 in word 2's top bytes
_NEWLINE = (ord(",") ^ ord("\n")) << 48             # turns word 5's "," into "\n"
# Layouts 0-20: the fixed form of k = layout - 4; 21 and 22: the exponent
# form with two and with three exponent digits.
_LAYOUTS = 23
# Below this many values a block is rendered with one % per row. On a
# 2-vCPU Xeon (hot, in-process medians) the array path's fixed cost is
# about 56 us, a 3-value block, and a % conversion about 0.47 us; the two
# break even between 153 and 180 values, so below 256 the array path saves
# at most some 35 us a block. The ensemble's 153- and 180-value CSVs stay
# on the % path.
CROSSOVER = 256
# Bytes of render arrays one chunk of _write_csv may hold, and the bytes a
# value takes at a chunk's peak (_VALUE_BYTES), as tracemalloc measures a
# 1025-column chunk: 152 a value for the dim-512 fan-out's currents and 159
# where every text is the longest, 17 digits and a three-digit exponent.
# The peak comes at the selection, which holds the row stack, the cells,
# their keep mask and the selected text twice (as an array and as bytes).
# A 1025-column chunk is then 12 rows, whose arrays fill a core's 2 MiB L2
# and pay the renderer's fixed cost, some 80 numpy calls, once.
_RENDER_BYTES = 2 ** 21
_VALUE_BYTES = 160


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
    cols += range(6, 6 + before)
    if n_digits > before:
        cols += [23, *range(24 + before, 24 + n_digits)]
    if layout > 20:
        cols += [41, 42, 43, 44, 45] if layout == 22 else [41, 42, 44, 45]
    cols.append(46)
    return cols


@cache
def _tables() -> tuple[np.ndarray, ...]:
    """_render's read-only tables, built once per process:
    - pow10: rows hi, lo, hi_h, hi_l with a column per k in [_K_MIN, _K_MAX]:
      10^(16-k) as a double-double hi + lo, exact to about 2^-106, and hi's
      Veltkamp halves;
    - quads: the four digit bytes of each 4-digit group, as a uint64;
    - sig: per group position j, the digits of d up to the group's last
      nonzero one, 4j plus its own count (0 for the group 0);
    - tails: cell bytes 40-47 per k, with byte 40 (d16) left 0;
    - keep_row: the first keep row of k's layout, layout * 18;
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
    ks = np.arange(_K_MIN, _K_MAX + 1)
    layout = np.where((ks >= -4) & (ks <= 16), ks + 4, np.where(np.abs(ks) >= 100, 22, 21))
    group = np.arange(10000, dtype=np.uint16)
    digits = group[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0")
    sig = 4 - sum(group % scale == 0 for scale in (10, 100, 1000, 10000))
    keep = np.zeros((2 * _LAYOUTS * 18, _CELL), bool)
    for i, (negative, lay, n_sig) in enumerate(
            itertools.product((False, True), range(_LAYOUTS), range(18))):
        keep[i, _keep_cols(negative, lay, n_sig)] = True
    tables = (
        np.array(rows).T.copy(),
        digits.astype(np.uint8).view(np.uint32).ravel().astype(np.uint64),
        np.where(group > 0, 4 * np.arange(4)[:, None] + sig, 0).astype(np.uint8),
        np.frombuffer(b"".join(b"\0e%c%03d,\0" % (b"-" if k < 0 else b"+", abs(k))
                               for k in ks.tolist()), np.uint64),
        layout * 18,
        keep,
    )
    for a in tables:
        a.setflags(write=False)
    return tables


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits of each value of ``x`` as an integer d,
    the column k - _K_MIN of its decimal exponent k in _tables' per-k
    tables, and the indices of the values whose digits this cannot decide,
    whose d and k are 0 like zero's."""
    pow10 = _tables()[0]
    a = np.abs(x)
    ok = (a >= 1e-250) & (a <= 1e250)
    y = np.where(ok, a, 1.0)
    col = np.log10(y)
    np.floor(col, out=col)
    col = col.astype(np.intp)
    col -= _K_MIN
    hi, lo, hi_h, hi_l = pow10.take(col, axis=1)
    # v = y (hi + lo) = p + c: p = fl(y hi) is an integer (v >= 2^53), and c,
    # the TwoProduct error of y hi plus y lo, is the small rest. y's halves
    # are split by its bits: y_h keeps 26 significant bits and y_l the other
    # 27, so each product of halves is exact.
    y_h = (y.view(np.uint64) & _HIGH_BITS).view(np.float64)
    y_l = y - y_h
    p = y * hi
    c = y_h * hi_h
    c -= p
    c += y_h * hi_l
    c += y_l * hi_h
    c += y_l * hi_l
    c += y * lo
    c_floor = np.floor(c)
    c -= c_floor                        # the fraction of v
    d = p.astype(np.int64)
    d += c_floor.astype(np.int64)
    c -= 0.5
    undecided = (d < 10**16) | (d >= 10**17 - 1) | (np.abs(c) < _TIE)
    d += c > 0.0
    zero = ~ok | undecided              # a zero's y is 1.0, which is decided
    d[zero] = 0
    col[zero] = -_K_MIN
    return d, col, np.flatnonzero(zero & (x != 0.0))


def _cells(x: np.ndarray, n_cols: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each value's cell as six uint64 words, each word one whole column
    write; each value's keep row; and _digits' fallback indices. The last
    of every ``n_cols`` cells ends in "\\n"."""
    _, quads, sig, tails, keep_row, _ = _tables()
    d, col, fallback = _digits(x)
    quad, n_sig = [], np.zeros(x.size, np.uint8)
    for j in range(4):                  # d0-d3, d4-d7, d8-d11, d12-d15
        scale = 10 ** (13 - 4 * j)
        group = d // scale
        d -= group * scale
        quad.append(quads.take(group))
        np.maximum(n_sig, sig[j].take(group), out=n_sig)
    n_sig[d > 0] = 17
    q01 = quad[0] | quad[1] << 32
    q23 = quad[2] | quad[3] << 32
    del quad                            # else the cells, not the selection, set the peak
    d16 = (d + ord("0")).view(np.uint64)
    words = np.empty((x.size, _CELL // 8), np.uint64)
    words[:, 0] = q01 << 48 | _HEAD
    words[:, 1] = q01 >> 16 | q23 << 48
    words[:, 2] = q23 >> 16 | (d16 | _POINT) << 48
    words[:, 3] = q01
    words[:, 4] = q23
    words[:, 5] = tails.take(col) | d16
    words[n_cols - 1::n_cols, 5] ^= _NEWLINE
    row = keep_row.take(col)
    row += n_sig
    row += np.signbit(x) * (_LAYOUTS * 18)
    return words, row, fallback


def _render(block: np.ndarray) -> bytes:
    """The CSV lines of a 2-D float64 block: '%.17g' % x of each value,
    joined by "," within a row, each row ended by "\\n". The digits come
    from _digits and the cells from _cells, each in a function of its own
    so that its temporaries are freed before the next step's arrays are
    made."""
    n_cols = block.shape[1]
    if block.size < CROSSOVER:
        fmt = ",".join(["%.17g"] * n_cols) + "\n"
        return "".join(fmt % tuple(row) for row in block.tolist()).encode()
    x = block.ravel()
    words, row, fallback = _cells(x, n_cols)
    mask = _tables()[-1].take(row, axis=0)
    del row                             # freed before the selection, the peak
    cells = words.view(np.uint8)
    # CROSSOVER texts at a time: their strings, join and encoded copy stay
    # a small part of the chunk's budget, however many values fall back.
    for i in range(0, fallback.size, CROSSOVER):
        at = fallback[i:i + CROSSOVER]
        texts = ["%.17g" % v for v in x[at].tolist()]
        cells[at, :46] = np.frombuffer(
            "".join(s.ljust(46) for s in texts).encode(), np.uint8).reshape(-1, 46)
        mask[at, :46] = np.arange(46) < np.array([len(s) for s in texts])[:, None]
    return cells[mask].tobytes()


def _write_csv(path, header: list[str], columns: list[np.ndarray]):
    """``header`` and one line per row of ``columns``, 1-D and 2-D arrays of
    one length whose columns are the file's, in order; at least one column
    is float, so the rows stack as float64 and an integer count becomes the
    float it equals. Every value is written as '%.17g' % x, which gives a
    float 17 significant digits and a count its digits. Rows are
    rendered as many at a time as their render arrays fit _RENDER_BYTES,
    and each chunk's bytes go to the file at once, so neither the text nor
    a stack of the whole table is held."""
    n_rows = len(columns[0])
    step = max(1, _RENDER_BYTES // (_VALUE_BYTES * len(header)))
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

_CONTAINERS = (dict, list, tuple)


def dump_json(obj) -> str:
    """Strict JSON: a NaN or infinite float raises ValueError. The text is
    json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) and a
    newline, byte for byte, built by _indented; a refused document raises
    what that call raises."""
    try:
        return _indented(obj, "\n") + "\n"
    except (ValueError, TypeError):
        # json.dumps's own refusal: its message names the value, and it
        # meets the faults of a document in its own order.
        json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
        raise


def _indented(obj, newline: str) -> str:
    """``obj`` as json.dumps(indent=2, sort_keys=True, allow_nan=False)
    writes it where ``newline`` ("\\n" and the indent) opens each of its
    lines. json.dumps with an indent runs its pure-Python encoder; here each
    container goes through the C encoder once, with the newline and indent
    in its item separator and 0 in place of each nested container, whose
    text then replaces that 0 on its own line (no encoded item spans a
    line: a string's newlines are escaped). The dim-512 fan-out's 101 kB
    ensemble report takes 2.5 ms against 3.9 ms with the indent and 1.8 ms
    with none (medians of 60 interleaved calls, 2 shared vCPUs)."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        return _encoder("")(obj)
    inner = newline + "  "
    is_dict = isinstance(obj, dict)
    nested = [isinstance(v, _CONTAINERS) for v in (obj.values() if is_dict else obj)]
    if not any(nested):
        text = _encoder(inner)(obj)
        return text[0] + inner + text[1:-1] + newline + text[-1]
    if is_dict:
        flat = {k: 0 if c else v for c, (k, v) in zip(nested, obj.items())}
        values = [v for _, v in sorted(obj.items())]      # the encoder's order
    else:
        flat = [0 if c else v for c, v in zip(nested, obj)]
        values = obj
    text = _encoder(inner)(flat)
    lines = text[1:-1].split("," + inner)
    for i, v in enumerate(values):
        if isinstance(v, _CONTAINERS):
            lines[i] = lines[i][:-1] + _indented(v, inner)
    return text[0] + inner + ("," + inner).join(lines) + newline + text[-1]


@cache
def _encoder(inner: str):
    """The C encoder's strict, key-sorted encode with ``inner`` after the
    comma between items."""
    return json.JSONEncoder(separators=("," + inner, ": "), sort_keys=True,
                            allow_nan=False).encode


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


# The fields rerun reads, each with its JSON type (float: any number), and
# the commands it replays.
RERUN_FIELDS = {"command": str, "scenario": dict, "scenario.path": str,
                "scenario.sha256": str, "rules": str, "suspended": list, "gap_mode": str,
                "dt": float, "t_max": float, "seed": int, "n": int, "sample_every": int,
                "norm_policy": str}
RERUN_COMMANDS = ("run", "ensemble", "arrow", "currents")


def load_manifest(path) -> dict:
    """A manifest of the supported schema that holds every RERUN_FIELDS
    field with its type and one of RERUN_COMMANDS; else ValueError naming
    the first bad field."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if type(doc) is not dict:
        raise ValueError("manifest is not a JSON object")
    if doc.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(f"unsupported manifest schema {doc.get('schema')!r}")
    for name, kind in RERUN_FIELDS.items():
        *parent, key = name.split(".")
        value = (doc[parent[0]] if parent else doc).get(key)
        if type(value) not in ((int, float) if kind is float else (kind,)):
            raise ValueError(f"manifest field {name!r} is missing or not of its JSON type")
    if doc["command"] not in RERUN_COMMANDS:
        raise ValueError(f"manifest field 'command' is {doc['command']!r}, not one of "
                         f"{', '.join(RERUN_COMMANDS)}")
    return doc
