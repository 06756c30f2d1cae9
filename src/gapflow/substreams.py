"""Counter-based random substreams, one per trajectory.

Trajectory i of a run with seed s draws from Philox keyed by numpy's
SeedSequence(s, spawn_key=(i,)), so its numbers do not depend on how
trajectories are spread over workers or blocks. trajectory_rng builds that
generator. A block walk draws the same numbers without building one per
trajectory: substream_keys hashes the keys of a whole block as SeedSequence
would (the seed's pool once, then each index word mixed in with uint32
arithmetic), and substream_pair gives each key's (E, u) of one epoch.

For a block of at least CROSSOVER keys substream_pair computes the draws as
arrays, bit for bit: philox_words runs Philox4x64-10 over all keys with
uint64 arithmetic, a uniform is (word >> 11) 2**-53, and an exponential
goes through numpy's ziggurat fast path, whose layer widths and accept
thresholds (_exp_tables) are read off numpy's own standard_exponential once
per process, on first use. A key any of whose exponentials leaves that fast
path (about 1 % per exponential: the tail, the wedges, and layer 1, which
has no fast path), and every key of a smaller block, go through
substream_draws, which sets each key into one reused Philox and draws as
trajectory_rng does.
"""
from __future__ import annotations

import threading
from functools import cache, lru_cache

import numpy as np

from .errors import GapflowError


def trajectory_rng(master_seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based substream for one trajectory.

    Philox keyed by (master_seed, spawn_key=index) gives independent streams
    whose draws do not depend on how trajectories are distributed over
    workers; substream_keys with substream_pair or substream_draws gives the
    same numbers for a block of indices.
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


# Philox4x64-10 (Salmon et al., SC11) as numpy runs it: a fresh state's
# first block has counter (1, 0, 0, 0) and yields four words; each round
# multiplies counter words 0 and 2 by these constants, and the key takes a
# Weyl step between rounds.
_U32, _SHIFT = np.uint64(_MASK32), np.uint64(32)
_MULT = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_MULT_LO, _MULT_HI = _MULT & _U32, _MULT >> _SHIFT
_BUMP = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
# Below this many keys the per-key loop of substream_draws is faster than
# the fixed cost of the array rounds (about 0.2 ms either way at 96-128 keys
# and one pair, on a 2-vCPU Xeon).
CROSSOVER = 128


def philox_words(keys: np.ndarray, count: int) -> np.ndarray:
    """(len(keys), count) uint64: the first ``count`` raw words of a fresh
    Philox with each key, as substream_draws' reused Philox yields them."""
    blocks = -(-count // 4)
    key = np.repeat(keys, blocks, axis=0).T.copy()
    # Rows: counter words (0, 2), which the rounds multiply, and (1, 3).
    x = np.zeros_like(key)
    x[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), len(keys))
    y = np.zeros_like(key)
    lo, hi, t = np.empty_like(key), np.empty_like(key), np.empty_like(key)
    for r in range(10):
        if r:
            key += _BUMP
        # hi = high 64 bits of x * _MULT from 32-bit halves; no partial sum
        # overflows.
        np.bitwise_and(x, _U32, out=lo)
        np.right_shift(x, _SHIFT, out=hi)
        x *= _MULT
        np.multiply(lo, _MULT_LO, out=t)
        t >>= _SHIFT
        lo *= _MULT_HI
        lo += t
        np.bitwise_and(lo, _U32, out=t)
        lo >>= _SHIFT
        t += hi * _MULT_LO
        t >>= _SHIFT
        hi *= _MULT_HI
        hi += lo
        hi += t
        # The next counter: (hi_2 ^ c_1 ^ k_0, lo_2, hi_0 ^ c_3 ^ k_1, lo_0).
        y ^= hi[::-1]
        y ^= key
        x, y = y, x[::-1]
    return np.stack([x[0], y[0], x[1], y[1]], axis=1).reshape(len(keys), -1)[:, :count]


@cache
def _exp_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's exponential ziggurat, as far as its fast path goes: per layer
    idx, the width we[idx] and a threshold t[idx] <= ke[idx], so a raw word
    with ri < t[idx] gives ri * we[idx] from one word (0 where layer idx has
    no fast path). numpy exports neither table; both are read off its own
    standard_exponential once per process.
    """
    bits = np.random.Philox(0)
    exp = np.random.Generator(bits).standard_exponential

    def fast(pairs):
        """standard_exponential() of the word of each (ri, idx) of ``pairs``
        (at most four), and whether each read that word alone: then the
        draws read exactly len(pairs) words and the block counter stays 0."""
        k = len(pairs)
        bits.state = {"bit_generator": "Philox",
                      "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
                      "buffer": [0] * (4 - k) + [(ri << 11) | (i << 3) for ri, i in pairs],
                      "buffer_pos": 4 - k, "has_uint32": 0, "uinteger": 0}
        values = exp(k).tolist()
        state = bits.state
        return values, state["buffer_pos"] == 4 and not any(state["state"]["counter"])

    def fast_each(pairs):
        """The fast-path value of each (ri, idx) of ``pairs``, or None."""
        out = []
        for j in range(0, len(pairs), 4):
            values, ok = fast(pairs[j:j + 4])
            out += values if ok else [v[0] if f else None for v, f in
                                      (fast([p]) for p in pairs[j:j + 4])]
        return out

    we = fast_each([(1, i) for i in range(256)])
    # For i >= 3, ke[i] lies within -1..+3 of floor(2**53 we[i-1] / we[i]);
    # one probe at ri = t - 1 confirms a threshold t a little below that.
    guess = {i: int(we[i - 1] / we[i] * 2.0**53) - 4
             for i in range(3, 256) if we[i] and we[i - 1]}
    t = [0] * 256
    for (i, g), value in zip(guess.items(), fast_each([(g - 1, i) for i, g in guess.items()])):
        if value is not None:
            t[i] = g
    for i in range(256):
        if we[i] is None or t[i]:
            continue
        lo, hi = 1, 1 << 53          # ri = lo takes the fast path, ri = hi may not
        for _ in range(32):
            mid = (lo + hi) // 2
            if fast([(mid, i)])[1]:
                lo = mid
            else:
                hi = mid
        t[i] = lo + 1
    tables = np.array([w or 0.0 for w in we]), np.array(t, dtype=np.uint64)
    for a in tables:
        a.setflags(write=False)
    return tables


def substream_pair(keys: np.ndarray, pair: int) -> tuple[np.ndarray, np.ndarray]:
    """(E, u) of pair ``pair`` (0-based) for each key: the standard_exponential()
    and random() that trajectory_rng draws after ``pair`` such pairs, i.e.
    column 2 * pair and 2 * pair + 1 of substream_draws(keys, pair + 1).

    A block of at least CROSSOVER keys is computed as arrays: Philox words
    from philox_words, u = (word >> 11) 2**-53, and E through numpy's
    ziggurat fast path. A key any of whose exponentials, this pair's or an
    earlier one's, leaves that path, and a smaller block, take
    substream_draws.
    """
    if len(keys) < CROSSOVER:
        draws = substream_draws(keys, pair + 1)
        return draws[:, -2], draws[:, -1]
    words = philox_words(keys, 2 * pair + 2)
    we, t = _exp_tables()
    ri = words[:, 0::2] >> np.uint64(3)
    idx = (ri & np.uint64(0xFF)).astype(np.intp)
    ri >>= np.uint64(8)
    E = ri[:, -1] * we[idx[:, -1]]
    u = (words[:, -1] >> np.uint64(11)) * 2.0**-53
    slow = (ri >= t[idx]).any(axis=1)
    if slow.any():
        draws = substream_draws(keys[slow], pair + 1)
        E[slow], u[slow] = draws[:, -2], draws[:, -1]
    return E, u
