"""CSV rendering: the array renderer gives '%.17g' % x byte for byte; JSON
reports: dump_json gives json.dumps(indent=2, sort_keys=True)'s bytes."""

import itertools
import json
import math
import pathlib
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapflow.engine import TrajectorySamples
from gapflow.output import (_RENDER_BYTES, _VALUE_BYTES, CROSSOVER, _render, dump_json,
                            write_histogram_csv, write_survival_csv, write_trajectory_csv)

EDGES = [1e16, 1e17, 9.9999999999999995e16, 99999999999999999.0, 1e-4, 1e-5, 0.5, 2.5,
         5e-324, 1.7976931348623157e308, -1e-100,
         # around the layout and fallback boundaries
         0.0, -0.0, math.nan, math.inf, -math.inf, 1e-250, 1e250, 9.999e-251, 1.0001e250,
         9.9999999999999995e-5, 9.999999999999999e22, 1e23, 123.0, -2.5e-300,
         2.2250738585072014e-308,
         # just below a power of ten, which log10 rounds up to it
         1e-243, 1e-176, 1e-116]


def reference_lines(rows) -> bytes:
    """The per-row % rendering: one '%.17g' per value of each row of Python numbers."""
    return b"".join((",".join("%.17g" % v for v in row) + "\n").encode() for row in rows)


def tiled(values) -> np.ndarray:
    """A block with ``values`` as its columns, repeated down enough rows that
    _render takes the array path."""
    values = np.asarray(values, dtype=np.float64)
    rows = -(-CROSSOVER // len(values))
    return np.tile(values, (rows, 1))


def assert_renders_as_percent(block):
    assert block.size >= CROSSOVER
    assert _render(block) == reference_lines(block.tolist())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_render_matches_percent_on_any_float(values):
    assert_renders_as_percent(tiled(values))


def test_render_matches_percent_on_random_bit_patterns():
    bits = np.random.default_rng(20261020).integers(0, 2**64, size=120_000, dtype=np.uint64)
    assert_renders_as_percent(bits.view(np.float64).reshape(-1, 100))


def test_render_matches_percent_on_edge_values():
    assert_renders_as_percent(tiled(EDGES))
    assert_renders_as_percent(tiled([-v for v in EDGES]))


def render_key(text: str) -> tuple[bool, int, int]:
    """The (sign, layout, significant digits) of a '%.17g' text, the key of
    _render's keep mask: layouts 0-20 are the fixed form of k = layout - 4,
    21 and 22 the exponent form with two and three exponent digits, and
    trailing zeros are not significant (zero has none)."""
    negative = text.startswith("-")
    mantissa, _, exponent = text.lstrip("-").partition("e")
    integer, _, fraction = mantissa.partition(".")
    digits = (integer + fraction).lstrip("0").rstrip("0")
    if exponent:
        layout = 21 if len(exponent) == 3 else 22
    elif integer != "0" or not digits:
        layout = len(integer) + 3                       # k = len(integer) - 1
    else:
        layout = 3 - (len(fraction) - len(fraction.lstrip("0")))
    return negative, layout, len(digits)


# Every key the renderer can meet: 23 layouts, 1-17 significant digits and
# both signs, and zero of either sign.
RENDER_KEYS = ({(sign, layout, n) for sign in (False, True) for layout in range(23)
                for n in range(1, 18)} | {(False, 4, 0), (True, 4, 0)})


def test_render_matches_percent_on_every_layout():
    """Every decade from 1e-300 to 1e300, and every key: one value for each
    of the 784 keys, found by trying decimal strings d.dd...de{k} of the
    key's digit count and a k of its layout until the reference text has
    that key, all within [1e-250, 1e250], where the arrays decide the
    digits."""
    rng = np.random.default_rng(7)
    decades = 10.0 ** np.arange(-300, 301)
    digits = [round(m, n) for n in range(17) for m in rng.uniform(1.0, 10.0, 4)]
    assert_renders_as_percent(np.outer(decades, digits))

    exponents = [[layout - 4] for layout in range(21)]
    exponents += [[*range(-99, -4), *range(17, 100)], [*range(-250, -99), *range(100, 251)]]
    values = [0.0, -0.0]
    for layout, n in itertools.product(range(23), range(1, 18)):
        for _ in range(500):
            inner = "".join(map(str, rng.integers(0, 10, max(n - 2, 0))))
            last = str(rng.integers(1, 10)) if n > 1 else ""
            x = float(f"{rng.integers(1, 10)}.{inner}{last}e{rng.choice(exponents[layout])}")
            if render_key("%.17g" % x) == (False, layout, n):
                values += [x, -x]
                break
    assert len(RENDER_KEYS) == 784
    assert {render_key("%.17g" % x) for x in values} == RENDER_KEYS
    assert_renders_as_percent(np.reshape(values, (-1, 8)))


def test_render_falls_back_where_log10_is_off_by_one(monkeypatch):
    """A decimal exponent one too large or too small puts v outside
    [1e16, 1e17 - 1), and so does a v that rounds up to 1e17, as 1e-243's
    does with the right exponent: those values take the per-value path."""
    rng = np.random.default_rng(8)
    values = rng.standard_normal(20_000) * 10.0 ** rng.integers(-200, 200, 20_000)
    block = np.concatenate([values, np.tile(EDGES, 100)]).reshape(-1, 100)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda y: log10(y) + rng.integers(-1, 2, y.shape))
    assert_renders_as_percent(block)


def test_small_blocks_take_the_percent_path():
    block = np.array([[0.1, 2.0, -3.5e-7]])
    assert _render(block) == b"0.10000000000000001,2,-3.4999999999999998e-07\n"


def samples_of(table: np.ndarray, n_components: int) -> TrajectorySamples:
    n_currents = table.shape[1] - 2 - n_components
    return TrajectorySamples(
        times=table[:, 0].copy(), s=table[:, 1].copy(),
        moduli=table[:, 2:2 + n_components].copy(), currents=table[:, 2 + n_components:].copy(),
        component_ids=tuple(range(n_components)), current_ids=tuple(range(1, n_currents + 1)))


def trajectory_reference(samples: TrajectorySamples) -> bytes:
    header = (["t", "s"] + [f"p_{c}" for c in samples.component_ids]
              + [f"J_{c}" for c in samples.current_ids])
    rows = ((t, s, *m, *j) for t, s, m, j in zip(samples.times.tolist(), samples.s.tolist(),
                                                 samples.moduli.tolist(),
                                                 samples.currents.tolist()))
    return (",".join(header) + "\n").encode() + reference_lines(rows)


def test_trajectory_csv_matches_percent_across_chunks(tmp_path):
    """A 201 x 1025 table, the dim-512 fan-out's currents.csv shape, spans many chunks."""
    rng = np.random.default_rng(3)
    table = rng.standard_normal((201, 1025)) * 10.0 ** rng.integers(-8, 8, (201, 1025))
    table[0, 3:] = 0.0
    table[:, 0] = np.arange(201) * 0.005
    samples = samples_of(table, 511)
    path = tmp_path / "currents.csv"
    write_trajectory_csv(path, samples)
    assert path.read_bytes() == trajectory_reference(samples)


@pytest.mark.parametrize("texts", ["fan-out", "longest"])
def test_one_chunk_peaks_under_the_render_budget(tmp_path, texts):
    """One _write_csv chunk of a 1025-column table, the rows _VALUE_BYTES
    lets into _RENDER_BYTES, allocates at most _RENDER_BYTES at its peak
    (tracemalloc): for the dim-512 fan-out's currents, and where every text
    is the longest, 17 digits and a three-digit exponent."""
    rows = _RENDER_BYTES // (_VALUE_BYTES * 1025)
    rng = np.random.default_rng(9)
    if texts == "fan-out":
        table = rng.standard_normal((rows, 1025)) * 10.0 ** rng.integers(-8, 8, (rows, 1025))
    else:
        table = -(1.0 + rng.random((rows, 1025))) * 10.0 ** rng.integers(-249, -99, (rows, 1025))
    samples = samples_of(table, 511)
    path = tmp_path / "currents.csv"
    write_trajectory_csv(path, samples)         # builds the render tables
    tracemalloc.start()
    try:
        write_trajectory_csv(path, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows >= 8
    assert peak < _RENDER_BYTES
    assert path.read_bytes() == trajectory_reference(samples)


def test_trajectory_csv_matches_percent_with_non_finite_values(tmp_path):
    table = np.random.default_rng(4).random((40, 30))
    table[5, 7], table[6, 8], table[7, 9], table[8, 10] = math.nan, math.inf, -math.inf, -0.0
    samples = samples_of(table, 14)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, samples)
    assert path.read_bytes() == trajectory_reference(samples)


def test_histogram_csv_matches_percent_with_integer_counts(tmp_path):
    hits = np.random.default_rng(5).exponential(1.0, 50_000)
    stats = types.SimpleNamespace(hit_times=hits)
    for n_bins in (60, 1000):
        path = tmp_path / f"hist_{n_bins}.csv"
        write_histogram_csv(path, stats, 3.0, n_bins)
        counts, edges = np.histogram(hits, bins=n_bins, range=(0.0, 3.0))
        expected = b"bin_left,bin_right,count\n" + reference_lines(
            zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))
        assert path.read_bytes() == expected


def test_survival_csv_matches_percent(tmp_path):
    times = np.linspace(0.0, 6.0, 601)
    s_emp = np.random.default_rng(6).random(601)
    stats = types.SimpleNamespace(empirical_survival=lambda t: s_emp)
    oracle = types.SimpleNamespace(times=times, survival=np.exp(-times))
    path = pathlib.Path(tmp_path) / "survival.csv"
    write_survival_csv(path, stats, oracle)
    expected = b"t,survival_empirical,survival_predicted\n" + reference_lines(
        zip(times.tolist(), s_emp.tolist(), np.exp(-times).tolist()))
    assert path.read_bytes() == expected


JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6))
JSON_KEYS = st.text(max_size=4) | st.integers(-5, 5) | st.floats(allow_nan=True, width=16)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=5) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=5)
                   | st.dictionaries(st.integers(-5, 5) | st.floats(width=16), inner,
                                     max_size=3)
                   | st.dictionaries(JSON_KEYS, inner, max_size=2)),
    max_leaves=40)


@settings(max_examples=500, deadline=None)
@given(JSON_VALUES)
@example({"a": {}, "b": [[], {"c": []}, [{}]], "d": {"e": {"f": 1.5}}})
@example({"stats": {"n": 3, "totals": {"terminals": {"t_max": 3}}}, "z": [0.5, -0.0]})
@example({"x": [1.0, math.inf]})
@example([{"y": math.nan}])
@example({1.5: {"a": 1}, -2: [True, None]})
@example({0: {"": None, 0: None}, math.inf: None})
def test_dump_json_matches_indented_json_dumps(obj):
    """Nested, empty and non-finite values, str and number keys: the bytes of
    json.dumps(indent=2, sort_keys=True, allow_nan=False) and a newline, or
    its refusal with its exception and message (ValueError naming a
    non-finite float, TypeError for keys that do not sort), the first fault
    it meets where a document has two."""
    try:
        expected = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except (ValueError, TypeError) as exc:
        with pytest.raises(type(exc)) as refused:
            dump_json(obj)
        assert str(refused.value) == str(exc)
        return
    assert dump_json(obj) == expected
