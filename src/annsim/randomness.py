"""The public coin: seed management and counter-based pseudorandom streams.

Every random bit in the simulator is a pure function of a 64-bit seed and a
counter, so the table side and the query side agree bit-for-bit without any
shared mutable state, and any single bit of any sketch matrix is recomputable
in O(1) without generating its predecessors.

Generator identity (frozen; golden tests pin it):

    raw64(key, n)  =  splitmix64_finalize(key + (n + 1) * GOLDEN)  mod 2^64

with the standard SplitMix64 finalizer (constants 0xBF58476D1CE4E5B9,
0x94D049BB133111EB, shifts 30/27/31) and GOLDEN = 0x9E3779B97F4A7C15.
Keys are derived by absorbing integer fields one at a time:

    absorb(k, v) = splitmix64_finalize(k XOR v)

Bernoulli(p) thinning compares the top 53 bits of a raw word against
floor(p * 2^53); the resulting bias of at most 2^-53 is negligible against
every test tolerance in the suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .core import pack_words

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Domain separation tags (arbitrary fixed constants, frozen).
TAG_MAIN = 0x6D61696E_00000001  # main sketch matrices
TAG_AUX = 0x6175785F_00000002  # auxiliary sketch matrices
TAG_COIN = 0x636F696E_00000003  # per-trial coin derivation
TAG_DATA = 0x64617461_00000004  # dataset generation streams

_ROLE_TAGS = {"main": TAG_MAIN, "aux": TAG_AUX}


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def absorb(key: int, value: int) -> int:
    """Fold one integer field into a stream key."""
    return splitmix64((key ^ (value & _MASK64)) & _MASK64)


def raw64(key: int, n: int) -> int:
    """n-th 64-bit word of the counter stream under `key`."""
    return splitmix64((key + (n + 1) * _GOLDEN) & _MASK64)


def raw64_block(key: int, start: int, count: int) -> np.ndarray:
    """Words start..start+count-1 of the stream, vectorized.

    Bit-identical to calling :func:`raw64` count times. The C twin of
    :func:`raw64_block_numpy` writes them where the C kernels load (see
    :mod:`annsim._native`); elsewhere the numpy kernel runs.
    """
    native = _native.kernels()
    if native is None:
        return raw64_block_numpy(key, start, count)
    out = np.empty(count, dtype=np.uint64)
    native.raw64_block((key + (start + 1) * _GOLDEN) & _MASK64, count, out)
    return out


def raw64_block_numpy(key: int, start: int, count: int) -> np.ndarray:
    """The numpy kernel of :func:`raw64_block`, and the reference for its C twin."""
    x = np.arange(count, dtype=np.uint64)
    x *= np.uint64(_GOLDEN)
    x += np.uint64((key + (start + 1) * _GOLDEN) & _MASK64)
    return _finalize(x, np.empty_like(x))


def absorb_block(key: int, values: np.ndarray) -> np.ndarray:
    """Vectorized absorb of many values into one key; matches absorb()."""
    x = np.uint64(key) ^ values.astype(np.uint64)
    return _finalize(x, np.empty_like(x))


# Bytes of uint64 scratch per buffer in one column block of bernoulli_matrix.
# Both buffers stay well inside L2 while blocks stay wide enough that the
# fixed cost of each ufunc call is small; on a 2 MB-per-core L2, 64 x 16384
# ran fastest at 256 KB (1 MB was 1.3x, 64 KB 1.4x slower).
_BLOCK_BYTES = 1 << 18


def bernoulli_matrix(keys: np.ndarray, count: int, p: float) -> np.ndarray:
    """One Bernoulli(p) row of `count` bits per stream key, packed as
    (len(keys), ceil(count/64)) uint64 words like `core.pack_words`.

    Bit c of row i (bit c % 64 of word c // 64) is 1 when w = raw64(keys[i], c)
    has (w >> 11) < thr, thr = floor(p * 2^53), which is tested as
    w < thr << 11; bits above `count` are zero. The C twin of
    :func:`bernoulli_matrix_numpy` writes the words directly where the C
    kernels load (see :mod:`annsim._native`); elsewhere, and at p >= 1, the
    numpy kernel's bits are packed.
    """
    native = _native.kernels()
    thr = int(_threshold(p))
    if native is None or thr == 1 << 53:  # at p >= 1, thr << 11 overflows 64 bits
        return pack_words(bernoulli_matrix_numpy(keys, count, p))
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    out = np.empty((len(keys), (count + 63) // 64), dtype=np.uint64)
    native.bernoulli_matrix(keys, len(keys), count, thr << 11, out)
    return out


def bernoulli_matrix_numpy(keys: np.ndarray, count: int, p: float) -> np.ndarray:
    """The numpy kernel of :func:`bernoulli_matrix` as (len(keys), count) uint8
    bits, and the reference for its C twin.

    Every word is a pure function of (key, counter), so the streams are
    evaluated one cache-sized column block at a time in reused scratch
    buffers: each block starts as one scalar add onto the block of first
    counters, and the comparison is written straight into a bool result.

    The finalizer's last step, w = x ^ (x >> 31), leaves bits 33..63 of x as
    they are, so when the cut is a multiple of 2^33 (every power-of-two rate
    down to 2^-31) w < cut holds exactly when x < cut, and the step is skipped.
    """
    thr = int(_threshold(p))
    rows = len(keys)
    out = np.empty((rows, count), dtype=np.bool_)
    if thr == 1 << 53:  # p >= 1: every word passes, and thr << 11 overflows
        out.fill(True)
        return out.view(np.uint8)
    cut = np.uint64(thr << 11)
    mix = _mix if (thr << 11) % (1 << 33) == 0 else _finalize
    width = max(1, min(count, _BLOCK_BYTES // (8 * max(rows, 1))))
    steps = np.arange(1, width + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    base = keys.astype(np.uint64)[:, None] + steps
    scratch = np.empty(base.size, dtype=np.uint64)
    tmp = np.empty_like(scratch)
    for start in range(0, count, width):
        w = min(width, count - start)
        x = scratch[: rows * w].reshape(rows, w)
        np.add(base[:, :w], np.uint64((start * _GOLDEN) & _MASK64), out=x)
        mix(x, tmp[: rows * w].reshape(rows, w))
        np.less(x, cut, out=out[:, start : start + w])
    return out.view(np.uint8)


def _threshold(p: float) -> np.uint64:
    """floor(p * 2^53), clamped to [0, 2^53]: the Bernoulli(p) cutoff on 53-bit words."""
    return np.uint64(min(max(int(p * (1 << 53)), 0), 1 << 53))


def _mix(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The finalizer's two xorshift-multiply rounds, in place; `tmp` is scratch of x's shape."""
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(x, np.uint64(shift), out=tmp)
        np.bitwise_xor(x, tmp, out=x)
        np.multiply(x, np.uint64(mix), out=x)
    return x


def _finalize(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied to uint64 `x` in place; `tmp` is scratch of x's shape."""
    _mix(x, tmp)
    np.right_shift(x, np.uint64(31), out=tmp)
    np.bitwise_xor(x, tmp, out=x)
    return x


@dataclass(frozen=True)
class PublicCoin:
    """Shared randomness: a single seed both the table and the querier hold."""

    seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")

    def row_key(self, role: str, scale: int, row: int) -> int:
        """Stream key for one sketch-matrix row."""
        k = absorb(self.seed, _ROLE_TAGS[role])
        k = absorb(k, scale)
        return absorb(k, row)

    def row_keys(self, role: str, scale: int, rows: int) -> np.ndarray:
        """Stream keys for rows 0..rows-1, vectorized; matches row_key()."""
        k = absorb(self.seed, _ROLE_TAGS[role])
        k = absorb(k, scale)
        return absorb_block(k, np.arange(rows, dtype=np.uint64))

    def stream_key(self, tag: int, *fields: int) -> int:
        """Stream key for an arbitrary tagged purpose (datasets, etc.)."""
        k = absorb(self.seed, tag)
        for f in fields:
            k = absorb(k, f)
        return k


def coin_for_trial(master_seed: int, trial: int, rep: int = 0) -> PublicCoin:
    """Independent coin for one (trial, repetition) pair."""
    k = absorb(master_seed & _MASK64, TAG_COIN)
    k = absorb(k, trial)
    return PublicCoin(absorb(k, rep))


class Stream:
    """Sequential consumer view over one counter stream.

    Used where drawing order does not need random access (dataset
    generation); the underlying words are still the pure raw64 function.
    """

    def __init__(self, key: int):
        self.key = key
        self._n = 0

    def word(self) -> int:
        w = raw64(self.key, self._n)
        self._n += 1
        return w

    def words(self, count: int) -> np.ndarray:
        block = raw64_block(self.key, self._n, count)
        self._n += count
        return block

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (_MASK64 + 1) - (_MASK64 + 1) % bound
        while True:
            w = self.word()
            if w < limit:
                return w % bound

    def distinct_indices(self, count: int, bound: int) -> list[int]:
        """count distinct uniform indices in [0, bound)."""
        if count > bound:
            raise ValueError("cannot draw more distinct indices than the range holds")
        chosen: set[int] = set()
        while len(chosen) < count:
            chosen.add(self.below(bound))
        return sorted(chosen)

    def permutation(self, count: int) -> list[int]:
        """The order Durstenfeld's shuffle (Knuth, TAOCP vol. 2, 3.4.2,
        Algorithm P) leaves range(count) in: for i = count-1 down to 1, swap
        positions i and j = below(i + 1).

        The words of all remaining steps are drawn as one block and tested in
        one pass against each step's limit 2^64 - (2^64 mod b), b = i + 1; the
        accepted prefix gives j = w mod b. The stream then rewinds to just
        after the first rejected word, whose step draws again, so the words
        are consumed exactly as one below() per step would consume them.

        For a power-of-two b the limit is 2^64, which wraps to 0 in uint64,
        so the test is w <= 2^64 - 1 - (2^64 mod b): every word passes it.
        """
        order = list(range(count))
        bounds = np.arange(count, 1, -1, dtype=np.uint64)
        last_accepted = np.uint64(_MASK64) - (-bounds) % bounds  # (-b) % b == 2^64 mod b
        step = 0
        while step < len(bounds):
            w = self.words(len(bounds) - step)
            ok = w <= last_accepted[step:]
            taken = len(w) if ok.all() else int(ok.argmin())
            js = (w[:taken] % bounds[step : step + taken]).tolist()
            for i, j in zip(range(count - 1 - step, 0, -1), js):
                order[i], order[j] = order[j], order[i]
            if taken < len(w):
                self._n -= len(w) - taken - 1  # give back the words after the rejected one
            step += taken
        return order
