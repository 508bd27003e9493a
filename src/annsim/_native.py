"""The C kernels: one source, built together on first use.

`randomness.bernoulli_matrix` and `sketch.sketch_apply_batch` each have a C
twin of their numpy kernel (`bernoulli_matrix_numpy`,
`sketch_apply_batch_numpy`). Both twins live in `_C_SOURCE`, which the first
call of either kernel in a process compiles with one `cc` call in a private
temporary directory and loads through `ctypes`; the directory is deleted
once the library is loaded, so nothing is kept on disk, and importing the
package builds nothing. Loading is all or nothing: unless both symbols
load, neither kernel is used and both numpy kernels run, with the same bits.
Both C kernels write packed little-endian uint64 words, the layout of
`core.pack_words`, so each twin's output is `pack_words` of its numpy
kernel's bit matrix.
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

/* sketch_apply_batch_numpy, packed: for each matrix row r, XOR the AND of
   each of its nonzero words with that word of every point (words is
   word-major, nwords x n) into acc, then set bit r %% 64 of word r / 64 of
   each point's row of the n x ceil(rows / 64) result to its parity. */
void sketch_apply_batch(const uint64_t *words, size_t n, const uint64_t *packed,
                        size_t rows, size_t nwords, uint64_t *acc, uint64_t *out)
{
    const size_t owords = (rows + 63) / 64;
    memset(out, 0, n * owords * sizeof *out);
    for (size_t r = 0; r < rows; r++, packed += nwords) {
        memset(acc, 0, n * sizeof *acc);
        for (size_t w = 0; w < nwords; w++) {
            const uint64_t m = packed[w], *col = words + w * n;
            if (m)
                for (size_t j = 0; j < n; j++)
                    acc[j] ^= col[j] & m;
        }
        for (size_t j = 0; j < n; j++)
            out[j * owords + r / 64] |= (uint64_t)(__builtin_popcountll(acc[j]) & 1) << (r %% 64);
    }
}
"""

# None until the first call of a kernel in the process; then the pair
# (loaded library or None, status as status() reports it).
_state: tuple | None = None


def kernels():
    """The loaded C library, whose `bernoulli_matrix` and `sketch_apply_batch`
    are the twins of the numpy kernels, or None where the numpy kernels run.
    Builds the library on the first call in a process."""
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
    """Compile `_C_SOURCE` in a private temporary directory and load both kernels."""
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
            built = subprocess.run([cc, "-O3", "-march=native", "-shared", "-fPIC", "-o", lib, src],
                                   capture_output=True, text=True, timeout=120)
        except (OSError, subprocess.SubprocessError) as exc:
            return None, f"numpy (cc could not run: {exc})"
        if built.returncode != 0:
            first = (built.stderr.strip().splitlines() or ["no message"])[0]
            return None, f"numpy (cc exited with {built.returncode}: {first})"
        try:
            native = ctypes.CDLL(lib)
            bernoulli, batch = native.bernoulli_matrix, native.sketch_apply_batch
        except (OSError, AttributeError) as exc:
            return None, f"numpy (the C kernels did not load: {exc})"
    size, u64 = ctypes.c_size_t, ctypes.c_uint64
    bernoulli.argtypes = [_array(np.uint64, 1), size, size, u64, _array(np.uint64, 2, "WRITEABLE")]
    batch.argtypes = [_array(np.uint64, 2), size, _array(np.uint64, 2), size, size,
                      _array(np.uint64, 1, "WRITEABLE"), _array(np.uint64, 2, "WRITEABLE")]
    bernoulli.restype = batch.restype = None
    return native, "native"


def _array(dtype, ndim: int, *flags: str):
    """ctypes argument type that admits only C-contiguous arrays of this dtype and rank."""
    return np.ctypeslib.ndpointer(dtype, ndim=ndim, flags=("C_CONTIGUOUS", *flags))
