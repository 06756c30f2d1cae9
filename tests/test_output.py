"""CSV rendering: the array renderer gives '%.17g' % x byte for byte."""

import math
import pathlib
import types

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gapflow.engine import TrajectorySamples
from gapflow.output import (CROSSOVER, _render, write_histogram_csv, write_survival_csv,
                            write_trajectory_csv)

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


def test_render_matches_percent_on_every_layout():
    """Every decade from 1e-300 to 1e300 and every count of significant digits."""
    rng = np.random.default_rng(7)
    decades = 10.0 ** np.arange(-300, 301)
    digits = [round(m, n) for n in range(17) for m in rng.uniform(1.0, 10.0, 4)]
    assert_renders_as_percent(np.outer(decades, digits))


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
