"""Many seeded substreams drawn in lock-step.

``Streams(entropy)`` holds one PCG64 generator per row of ``entropy``, seeded
exactly as ``np.random.default_rng(list(row))`` seeds it, and draws from all of
them at once: row i of every result equals what the i-th scalar generator
returns for the same sequence of calls. The steps are NumPy's own, on arrays:
the ``SeedSequence`` hash mixing on 32-bit words, ``generate_state(4, uint64)``,
the 128-bit PCG64 LCG on 64-bit limbs with its XSL-RR output, and the bounded
integers on the generator's buffered 32-bit halves (Lemire's method with its
rejection loop).
"""

from __future__ import annotations

import numpy as np

from .errors import AugmentationError

_M32 = np.uint64(0xFFFFFFFF)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hashing the pool into generate_state's words
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(2549297995355413924), np.uint64(4865540595714422341)
_PCG_MULT_LO0, _PCG_MULT_LO1 = _PCG_MULT_LO & _M32, _PCG_MULT_LO >> _U32
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53


class _Hash:
    """SeedSequence's hashmix; its running constant does not depend on the data."""

    def __init__(self, const, mult):
        self.const, self.mult = const, mult

    def __call__(self, values, count):
        """Hash ``values`` (broadcast to (count, m)) with the next ``count`` constants, row by row."""
        consts = [self.const]
        for _ in range(count):
            consts.append(consts[-1] * self.mult & 0xFFFFFFFF)
        self.const = consts[-1]
        consts = np.array(consts, dtype=np.uint32)[:, None]
        values = (values ^ consts[:-1]) * consts[1:]
        return values ^ (values >> np.uint32(16))


def _mix(x, y):
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> np.uint32(16))


def _seed_state(words):
    """``SeedSequence(row).generate_state(4, uint64)`` of each (m, L) uint32 word row, as (4, m).

    The pool holds the m streams side by side, so each step of the mixing is one
    array operation over every stream and every destination word it updates.
    """
    m, n_words = words.shape
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = np.zeros((_POOL_SIZE, m), dtype=np.uint32)
    pool[:min(n_words, _POOL_SIZE)] = words[:, :_POOL_SIZE].T
    pool = hashmix(pool, _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], hashmix(pool[src], len(dst)))
    for src in range(_POOL_SIZE, n_words):
        pool = _mix(pool, hashmix(words[:, src], _POOL_SIZE))
    state = _Hash(_INIT_B, _MULT_B)(np.tile(pool, (2, 1)), 2 * _POOL_SIZE)
    state = state.astype(np.uint64)
    return state[0::2] | (state[1::2] << _U32)


def _mulhi_lo(a):
    """High 64 bits of a * PCG_MULT_LO for a uint64 array."""
    a0, a1 = a & _M32, a >> _U32
    p01, p10 = a0 * _PCG_MULT_LO1, a1 * _PCG_MULT_LO0
    mid = ((a0 * _PCG_MULT_LO0) >> _U32) + (p01 & _M32) + (p10 & _M32)
    return a1 * _PCG_MULT_LO1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _step(hi, lo, inc_hi, inc_lo):
    """One LCG step: state * PCG_MULT + inc mod 2**128."""
    new_hi = _mulhi_lo(lo) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    return _add128(new_hi, lo * _PCG_MULT_LO, inc_hi, inc_lo)


def seed_rows(*columns):
    """The (n, k) uint64 entropy table whose row i holds element i of each 1-D column;
    a scalar column repeats down the rows. A negative or non-integer column raises
    ``AugmentationError`` before the uint64 cast, which would wrap a negative value silently."""
    columns = [np.atleast_1d(column) for column in columns]
    for column in columns:
        if (column.ndim != 1 or column.dtype.kind not in "iu"
                or (column.dtype.kind == "i" and (column < 0).any())):
            raise AugmentationError(
                "seed columns must be scalars or 1-D arrays of non-negative ints")
    return np.stack([column.astype(np.uint64) for column in np.broadcast_arrays(*columns)],
                    axis=1)


def _entropy_words(entropy):
    """Rows of non-negative ints → (row indices, uint32 word rows) per word count.

    A value below 2**32 (0 included) is one word and a larger one two, as in
    ``SeedSequence``, so rows of equal length can differ in word count.
    """
    values = np.asarray(entropy)
    if (values.ndim != 2 or values.dtype.kind not in "iu"
            or (values.dtype.kind == "i" and (values < 0).any())):
        raise AugmentationError("entropy must be rows of non-negative integers below 2**64")
    values = values.astype(np.uint64)
    words = np.empty((len(values), 2 * values.shape[1]), dtype=np.uint32)
    words[:, 0::2] = values & _M32
    words[:, 1::2] = values >> _U32
    keep = np.ones(words.shape, dtype=bool)
    keep[:, 1::2] = words[:, 1::2] != 0
    counts = keep.sum(axis=1)
    for count in np.unique(counts):
        rows = np.flatnonzero(counts == count)
        yield rows, words[rows][keep[rows]].reshape(len(rows), count)


class Streams:
    """One ``np.random.default_rng(list(row))`` generator per entropy row.

    ``entropy`` is an (m, L) array (or nested list) of non-negative integers
    below 2**64. ``streams[rows]`` is a new ``Streams`` holding a copy of those
    rows' generators.
    """

    def __init__(self, entropy):
        m = len(entropy)
        self._hi, self._lo, self._inc_hi, self._inc_lo = (np.empty(m, np.uint64) for _ in range(4))
        for rows, words in _entropy_words(entropy):
            s_hi, s_lo, i_hi, i_lo = _seed_state(words)
            # PCG64 seeding: inc = 2 * initseq + 1, state = step(step(0) + initstate)
            inc_hi = (i_hi << _U1) | (i_lo >> _U63)
            inc_lo = (i_lo << _U1) | _U1
            hi, lo = _add128(inc_hi, inc_lo, s_hi, s_lo)
            self._hi[rows], self._lo[rows] = _step(hi, lo, inc_hi, inc_lo)
            self._inc_hi[rows], self._inc_lo[rows] = inc_hi, inc_lo
        self._has32 = np.zeros(m, dtype=bool)
        self._buf32 = np.zeros(m, dtype=np.uint64)

    def __len__(self):
        return len(self._hi)

    def __getitem__(self, rows):
        sub = object.__new__(Streams)
        sub.__dict__.update((name, state[rows].copy()) for name, state in vars(self).items())
        return sub

    def _next64(self, rows=slice(None)):
        hi, lo = _step(self._hi[rows], self._lo[rows], self._inc_hi[rows], self._inc_lo[rows])
        self._hi[rows], self._lo[rows] = hi, lo
        x = hi ^ lo
        rot = hi >> _U58
        return (x >> rot) | (x << ((_U64 - rot) & _U63))

    def _next32(self, rows):
        """PCG64's next_uint32: the low half of a fresh draw, then its buffered high half."""
        out = np.empty(len(rows), dtype=np.uint64)
        has = self._has32[rows]
        out[has] = self._buf32[rows[has]]
        fresh = rows[~has]
        draw = self._next64(fresh)
        out[~has] = draw & _M32
        self._buf32[fresh] = draw >> _U32
        self._has32[rows] = ~has
        return out

    def random(self, size=None):
        """``rng.random()`` per stream; with ``size`` a (m, size) array of successive draws."""
        if size is None:
            return (self._next64() >> _U11) * _DOUBLE_UNIT
        return np.stack([self.random() for _ in range(size)], axis=1)

    def uniform(self, low=0.0, high=1.0, size=None):
        """``rng.uniform(low, high, size)`` per stream (``low``/``high`` may be per-stream arrays)."""
        low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
        draws = self.random(size)
        if size is not None:
            low, high = low[..., None], high[..., None]
        return low + (high - low) * draws

    def integers(self, high):
        """``rng.integers(0, high)`` per stream for int ``high`` in [1, 2**32].

        ``high == 1`` consumes nothing. Other ranges take Lemire's multiply-shift
        on buffered 32-bit halves and redraw the biased cases; at 2**32 nothing
        is biased and the half itself comes out.
        """
        high = np.asarray(high, dtype=np.int64)
        if high.ndim == 0:
            high = np.full(len(self), high)
        if high.size and (high.min() < 1 or high.max() > 2**32):
            raise AugmentationError("integers(0, high) needs 1 <= high <= 2**32")
        out = np.zeros(len(high), dtype=np.int64)
        rows = np.flatnonzero(high > 1)
        excl = high[rows].astype(np.uint64)
        threshold = (np.uint64(2**32) - excl) % excl
        product = np.empty(len(rows), dtype=np.uint64)
        pending = np.arange(len(rows))
        while len(pending):
            product[pending] = self._next32(rows[pending]) * excl[pending]
            pending = pending[(product[pending] & _M32) < threshold[pending]]
        out[rows] = product >> _U32
        return out
