"""The C kernels: one source, built together on first use.

Three kernels have a C twin of their numpy kernel: `randomness.bernoulli_matrix`
(`bernoulli_matrix_numpy`), `randomness.raw64_block` (`raw64_block_numpy`)
and the sketch kernel behind `sketch.sketch_apply` and
`sketch.sketch_apply_batch` (`sketch_apply_batch_numpy`). All three twins
live in `_C_SOURCE`, which the first call of any kernel in a process
compiles with one `cc` call in a private temporary directory and loads
through `ctypes`; the directory is deleted once the library is loaded, so
nothing is kept on disk, and importing the package builds nothing. Loading
is all or nothing: unless all three symbols load, no C kernel is used and
the numpy kernels run, with the same bits. The C kernels write
little-endian uint64 words: the generator and the sketch kernel in the
packed layout of `core.pack_words`, so each twin's output is `pack_words`
of its numpy kernel's bit matrix, and the stream kernel the stream words
themselves.

The sketch kernel is register-tiled (the micro-kernel of Goto and van de
Geijn, "Anatomy of high-performance matrix multiplication", 2008, over
AND and XOR): a tile is 4 matrix rows by 32 points, whose 128 accumulators
gcc keeps in vector registers, and the word loop, innermost, runs over the
words where any of the 4 rows is nonzero. Its scratch argument holds that
word list (one word per matrix word). The points past the last full tile
run one at a time.
"""

from __future__ import annotations

import os

import numpy as np

# The frozen generator constants of randomness.py are formatted in at build
# time (see _build), so that this module needs nothing from the modules it serves.
_C_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* One row of bernoulli_matrix: entry c of the stream under key, the test
   against the cut, folded into bit c %% 64 of word c / 64; bits past count
   stay zero. last is the finalizer's last xorshift, which the caller drops
   when cut is a multiple of 2^33 (see bernoulli_matrix_numpy). */
static inline void bernoulli_row(uint64_t key, size_t count, uint64_t cut, int last,
                                 uint64_t *out)
{
    for (size_t lo = 0; lo < count; lo += 64) {
        const size_t lim = count - lo < 64 ? count - lo : 64;
        const uint64_t first = key + (uint64_t)(lo + 1) * %(golden)#xULL;
        uint64_t word = 0;
        for (size_t b = 0; b < lim; b++) {
            uint64_t x = first + (uint64_t)b * %(golden)#xULL;
            x = (x ^ (x >> 30)) * %(mix1)#xULL;
            x = (x ^ (x >> 27)) * %(mix2)#xULL;
            if (last)
                x ^= x >> 31;
            word |= (uint64_t)(x < cut) << b;
        }
        *out++ = word;
    }
}

/* bernoulli_matrix_numpy, packed: the same words and the same test against
   the cut, written as rows x ceil(count / 64) little-endian words. */
void bernoulli_matrix(const uint64_t *keys, size_t rows, size_t count,
                      uint64_t cut, uint64_t *out)
{
    const size_t nwords = (count + 63) / 64;
    if ((cut & ((1ULL << 33) - 1)) == 0)
        for (size_t r = 0; r < rows; r++)
            bernoulli_row(keys[r], count, cut, 0, out + r * nwords);
    else
        for (size_t r = 0; r < rows; r++)
            bernoulli_row(keys[r], count, cut, 1, out + r * nwords);
}

/* raw64_block_numpy: count words of the stream, from the first word's
   counter sum first = key + (start + 1) * golden, through the full finalizer. */
void raw64_block(uint64_t first, size_t count, uint64_t *out)
{
    for (size_t i = 0; i < count; i++) {
        uint64_t x = first + (uint64_t)i * %(golden)#xULL;
        x = (x ^ (x >> 30)) * %(mix1)#xULL;
        x = (x ^ (x >> 27)) * %(mix2)#xULL;
        out[i] = x ^ (x >> 31);
    }
}

/* The parity of x by a shift-XOR fold (Hacker's Delight 5-2), which gcc
   vectorizes where the popcount instruction would stay scalar. */
static inline uint64_t parity(uint64_t x)
{
    x ^= x >> 32; x ^= x >> 16; x ^= x >> 8;
    x ^= x >> 4; x ^= x >> 2; x ^= x >> 1;
    return x & 1;
}

/* One tile of sketch_apply_batch: the 4 rows of a group against the 32
   points from j0, over the len listed words. The 4 x 32 accumulators stay
   in registers, and each point's 4 parities go into its words with one OR;
   keep masks off the rows past the matrix. */
static void sketch_tile(const uint64_t *words, size_t n, const uint64_t *const row[4],
                        const uint64_t *list, size_t len, size_t j0,
                        unsigned shift, uint64_t keep, uint64_t *out, size_t owords)
{
    uint64_t acc[4][32] = {{0}};
    for (size_t l = 0; l < len; l++) {
        const size_t w = list[l];
        const uint64_t *col = words + w * n + j0;
        for (int i = 0; i < 4; i++) {
            const uint64_t m = row[i][w];
            for (int j = 0; j < 32; j++)
                acc[i][j] ^= col[j] & m;
        }
    }
    for (int j = 0; j < 32; j++) {
        const uint64_t bits = parity(acc[0][j]) | parity(acc[1][j]) << 1
                              | parity(acc[2][j]) << 2 | parity(acc[3][j]) << 3;
        out[(j0 + j) * owords] |= (bits & keep) << shift;
    }
}

/* sketch_tile for the one point j, past the last full tile. */
static void sketch_point(const uint64_t *words, size_t n, const uint64_t *const row[4],
                         const uint64_t *list, size_t len, size_t j,
                         unsigned shift, uint64_t keep, uint64_t *out, size_t owords)
{
    uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
    for (size_t l = 0; l < len; l++) {
        const size_t w = list[l];
        const uint64_t x = words[w * n + j];
        a0 ^= x & row[0][w]; a1 ^= x & row[1][w];
        a2 ^= x & row[2][w]; a3 ^= x & row[3][w];
    }
    const uint64_t bits = parity(a0) | parity(a1) << 1 | parity(a2) << 2 | parity(a3) << 3;
    out[j * owords] |= (bits & keep) << shift;
}

/* sketch_apply_batch_numpy, packed: bit r %% 64 of word r / 64 of each
   point's row of the n x ceil(rows / 64) result is the parity of matrix row
   r AND the point, whose words are word-major (nwords x n). Rows go in
   groups of 4 and points in tiles of 32; list (nwords words of scratch)
   holds the words where any row of the group is nonzero. A group starts at
   a multiple of 4, so its 4 bits never straddle a word. */
void sketch_apply_batch(const uint64_t *words, size_t n, const uint64_t *packed,
                        size_t rows, size_t nwords, uint64_t *list, uint64_t *out)
{
    const size_t owords = (rows + 63) / 64;
    memset(out, 0, n * owords * sizeof *out);
    for (size_t r0 = 0; r0 < rows; r0 += 4) {
        const uint64_t *row[4];
        for (size_t i = 0; i < 4; i++)  /* rows past the end repeat the last row */
            row[i] = packed + (r0 + i < rows ? r0 + i : rows - 1) * nwords;
        const uint64_t keep = rows - r0 < 4 ? (1ULL << (rows - r0)) - 1 : 15;
        size_t len = 0;
        for (size_t w = 0; w < nwords; w++)
            if (row[0][w] | row[1][w] | row[2][w] | row[3][w])
                list[len++] = w;
        uint64_t *dst = out + r0 / 64;
        size_t j = 0;
        for (; j + 32 <= n; j += 32)
            sketch_tile(words, n, row, list, len, j, r0 %% 64, keep, dst, owords);
        for (; j < n; j++)
            sketch_point(words, n, row, list, len, j, r0 %% 64, keep, dst, owords);
    }
}
"""

# None until the first call of a kernel in the process; then the pair
# (loaded library or None, status as status() reports it).
_state: tuple | None = None


def kernels():
    """The loaded C library, whose `bernoulli_matrix`, `raw64_block` and
    `sketch_apply_batch` are the twins of the numpy kernels, or None where
    the numpy kernels run. Builds the library on the first call in a process."""
    global _state
    if _state is None:
        _state = _build()
    return _state[0]


def status() -> str:
    """Which kernels run in this process: "native", or "numpy (<why the C
    kernels are not loaded>)". Builds the library if no kernel has yet."""
    kernels()
    return _state[1]


def _build() -> tuple:
    """Compile `_C_SOURCE` in a private temporary directory and load the three kernels."""
    import ctypes
    import shutil
    import subprocess
    import tempfile

    from .randomness import _GOLDEN, _MIX1, _MIX2

    cc = shutil.which("cc")
    if cc is None:
        return None, "numpy (no C compiler: cc is not on PATH)"
    with tempfile.TemporaryDirectory(prefix="annsim-", ignore_cleanup_errors=True) as tmp:
        src, lib = os.path.join(tmp, "kernels.c"), os.path.join(tmp, "kernels.so")
        with open(src, "w", encoding="ascii") as fh:
            fh.write(_C_SOURCE % {"golden": _GOLDEN, "mix1": _MIX1, "mix2": _MIX2})
        try:
            # gcc defaults to 256-bit vectors even where the host has 512-bit ones.
            built = subprocess.run([cc, "-O3", "-march=native", "-mprefer-vector-width=512",
                                    "-shared", "-fPIC", "-o", lib, src],
                                   capture_output=True, text=True, timeout=120)
        except (OSError, subprocess.SubprocessError) as exc:
            return None, f"numpy (cc could not run: {exc})"
        if built.returncode != 0:
            first = (built.stderr.strip().splitlines() or ["no message"])[0]
            return None, f"numpy (cc exited with {built.returncode}: {first})"
        try:
            native = ctypes.CDLL(lib)
            bernoulli, batch, stream = (native.bernoulli_matrix, native.sketch_apply_batch,
                                        native.raw64_block)
        except (OSError, AttributeError) as exc:
            return None, f"numpy (the C kernels did not load: {exc})"
    size, u64 = ctypes.c_size_t, ctypes.c_uint64
    bernoulli.argtypes = [_array(np.uint64, 1), size, size, u64, _array(np.uint64, 2, "WRITEABLE")]
    batch.argtypes = [_array(np.uint64, 2), size, _array(np.uint64, 2), size, size,
                      _array(np.uint64, 1, "WRITEABLE"), _array(np.uint64, 2, "WRITEABLE")]
    stream.argtypes = [u64, size, _array(np.uint64, 1, "WRITEABLE")]
    bernoulli.restype = batch.restype = stream.restype = None
    return native, "native"


def _array(dtype, ndim: int, *flags: str):
    """ctypes argument type that admits only C-contiguous arrays of this dtype and rank."""
    return np.ctypeslib.ndpointer(dtype, ndim=ndim, flags=("C_CONTIGUOUS", *flags))
