"""Counter-based random substreams, one per trajectory.

Trajectory i of a run with seed s draws from Philox keyed by numpy's
SeedSequence(s, spawn_key=(i,)), so its numbers do not depend on how
trajectories are spread over workers or blocks. trajectory_rng builds that
generator. A block walk draws the same numbers without building one per
trajectory: substream_keys hashes the keys of a whole block as SeedSequence
would (the seed's pool once, then each index word mixed in with uint32
arithmetic), and substream_draws sets each key into one reused Philox.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from .errors import GapflowError


def trajectory_rng(master_seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based substream for one trajectory.

    Philox keyed by (master_seed, spawn_key=index) gives independent streams
    whose draws do not depend on how trajectories are distributed over
    workers; substream_keys and substream_draws give the same numbers for a
    block of indices.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(master_seed, spawn_key=(index,))))


# numpy's SeedSequence hash: a pool of four uint32 words mixed from the
# entropy words (the seed's, zero-padded to four, then the spawn key's), and
# a Philox key of two uint64 words hashed out of the pool.

_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Blocks up to this size are hashed by SeedSequence itself, which is cheaper
# than the array set-up for a few indices.
_FEW = 8


def _hash_chain(h: int, mult: int):
    """Successive (constant, constant * mult) pairs of a hash-constant chain."""
    while True:
        nxt = (h * mult) & _MASK32
        yield h, nxt
        h = nxt


def _hashmix(value, pair):
    """One hashmix of an int or a uint32 array, with its chain pair."""
    value = ((value ^ pair[0]) * pair[1]) & _MASK32
    return value ^ (value >> 16)


def _mix(x: int, y):
    """Mix hashed word y (an int or a uint32 array) into pool word x."""
    r = (((_MIX_L * x) & _MASK32) - ((_MIX_R * y) & _MASK32)) & _MASK32
    return r ^ (r >> 16)


@lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The pool of SeedSequence(seed, spawn_key=(i,)) before the index word
    is mixed in, and the chain pairs that mix it into each pool word."""
    words, rest = [], seed
    while True:
        words.append(rest & _MASK32)
        rest >>= 32
        if not rest:
            break
    words += [0] * (_POOL - len(words))
    chain = _hash_chain(_INIT_A, _MULT_A)
    pool = [_hashmix(w, next(chain)) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(chain)))
    for w in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(w, next(chain)))
    return tuple(pool), tuple(next(chain) for _ in range(_POOL))


def substream_keys(seed: int, indices) -> np.ndarray:
    """(len(indices), 2) uint64 Philox keys: row j equals
    SeedSequence(seed, spawn_key=(indices[j],)).generate_state(2, np.uint64).

    For a block, the seed's pool is hashed once and each index below 2**32,
    one entropy word, is mixed in with uint32 array arithmetic; a wider
    index, and every index of a block of at most _FEW, is hashed by
    SeedSequence. A negative seed or index raises GapflowError.
    """
    if seed < 0:
        # Splitting a negative int into 32-bit words never terminates.
        raise GapflowError(f"seed must be a non-negative integer, got {seed}")
    keys = np.empty((len(indices), 2), dtype=np.uint64)
    rest = range(len(indices))
    if len(indices) > _FEW:
        idx = np.asarray(indices, dtype=np.int64)
        ok = (idx >= 0) & (idx <= _MASK32)
        pool, pairs = _seed_pool(seed)
        hashed = [_mix(p, _hashmix(idx[ok].astype(np.uint32), pair))
                  for p, pair in zip(pool, pairs)]
        words = [_hashmix(h, pair).astype(np.uint64)
                 for h, pair in zip(hashed, _hash_chain(_INIT_B, _MULT_B))]
        keys[ok, 0] = words[0] | (words[1] << 32)
        keys[ok, 1] = words[2] | (words[3] << 32)
        rest = (~ok).nonzero()[0].tolist()
    for j in rest:
        i = int(indices[j])
        if i < 0:
            raise GapflowError(f"trajectory index must be non-negative, got {i}")
        keys[j] = np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)
    return keys


class _Philox:
    """A Philox set to each key in turn through its state, one per thread.

    Building a generator costs about as much as twenty draws. Every use sets
    the whole state first, so no draw depends on an earlier use.
    """

    def __init__(self):
        self.bits = np.random.Philox(key=0)
        self.gen = np.random.Generator(self.bits)
        self.key = [0, 0]
        # A fresh Philox(key=k): counter 0 and an empty buffer.
        self.state = {"bit_generator": "Philox",
                      "state": {"counter": [0, 0, 0, 0], "key": self.key},
                      "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                      "has_uint32": 0, "uinteger": 0}


# Made on first use, so importing gapflow builds no generator.
_THREAD = threading.local()


def substream_draws(keys: np.ndarray, pairs: int) -> np.ndarray:
    """(len(keys), 2 * pairs) draws E_0, u_0, E_1, u_1, ... per key: what
    trajectory_rng's standard_exponential() and random() give, alternately,
    for the substream with that key."""
    p = getattr(_THREAD, "philox", None)
    if p is None:
        p = _THREAD.philox = _Philox()
    key, state, bits = p.key, p.state, p.bits
    exp, uni = p.gen.standard_exponential, p.gen.random
    draws = []
    put = draws.append
    for k0, k1 in keys.tolist():
        key[0], key[1] = k0, k1
        bits.state = state
        for _ in range(pairs):
            put(exp())
            put(uni())
    return np.array(draws, dtype=float).reshape(len(keys), 2 * pairs)
