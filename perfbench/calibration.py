"""Host-speed calibration: fixed kernels timed next to every operation.

The small shared hosts this benchmark runs on change CPU speed on their own,
by a quarter and more within tens of seconds, with no steal time: a fixed
loop and a gapflow experiment slow down together. Raw times of the same
code then spread more between runs than any useful regression bound.

So every timed operation is bracketed by two calibration readings, and its
time is rescaled to a reference host speed::

    scaled = seconds * REF_S / mean(reading before, reading after)

A reading times three small kernels of the kinds of work gapflow does: a
pure-Python arithmetic loop, small complex matvecs through numpy, and
building a dict of tuples and strings. Each kernel counts with the fastest
of ``REPEATS`` timings (an interrupt only makes a timing slower). In a
three-minute probe on a 2-vCPU Xeon host, 10-s window medians of a
``reverse_experiment`` and of a small chained ensemble varied by 0.25 and
0.23 (IQR/median) raw, and by 0.026 each when divided by a reading of these
three kernels at twice these sizes; their times went as the reading to the
power 1.02. Of the kernels tried, this mix tracked gapflow best; a
memory-bound sum over 8 MB tracked it worst.

Scaled times are "seconds on a host where one reading takes ``REF_S``".
The kernels never call gapflow, so a change to gapflow moves scaled times
exactly as it moves raw ones; raw times are kept in the report beside them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REPEATS = 3
# About the fastest reading seen on a 2-vCPU Xeon host with Python 3.11.
REF_S = 1.7e-3

_A = np.random.default_rng(0).standard_normal((8, 8)) + 0j
_X0 = np.ones(8, dtype=complex)


def _arithmetic() -> int:
    s = 0
    for i in range(10_000):
        s += i * i % 7
    return s


def _matvecs() -> np.ndarray:
    x = _X0
    for _ in range(150):
        x = x + 0.001 * (_A @ x)
    return x


def _objects() -> int:
    d = {}
    for i in range(2_500):
        d[i] = (i, str(i))
    return len(d)


KERNELS = (_arithmetic, _matvecs, _objects)


def reading() -> float:
    """Seconds of one calibration pass: the sum over kernels of each one's
    fastest of REPEATS timings."""
    total = 0.0
    for kernel in KERNELS:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = perf_counter()
            kernel()
            best = min(best, perf_counter() - t0)
        total += best
    return total


def warm_up() -> None:
    for _ in range(20):
        reading()


class Bracket:
    """Times one operation between two calibration readings."""

    __slots__ = ("before", "after")

    def __enter__(self):
        self.before = reading()
        return self

    def __exit__(self, *exc):
        self.after = reading()
        return False

    @property
    def scale(self) -> float:
        return 2.0 * REF_S / (self.before + self.after)
