"""Brute-force ground truth.

Everything here is recomputed from definitions, independently of the table
machinery: exact nearest neighbors by a popcount scan of the database words,
exact distance balls from the unpacked bits with the exact integer radii
floor(alpha^i), and the sketch-based candidate sets rebuilt from the raw
matrices by routes of their own (deliberately different from the packed
parity kernels the tables use, so cross-checks between the two are
meaningful).

The query is XORed into every database point first. The row sums of the
unpacked XOR are the exact distances, and the sketches of p and x differ in
row r exactly when row r has odd parity with p XOR x. A matrix takes one of
two routes to those parities, chosen by its number of nonzero 64-bit words:

- Sparse (at most one in four words nonzero): the ones are found from the
  matrix's nonzero words, and row r's parities with all n points are the
  XOR of the columns of p XOR x at row r's ones, stored as (d, ceil(n/64))
  words, so one word XOR serves 64 points.
- Dense: a float32 product over the unpacked bits. Two points share one
  entry, `diff[2i] + 4096 * diff[2i+1]`, so one product serves both. The
  product runs over blocks of at most 2048 columns: each 12-bit field then
  counts at most 2048 < 2^12 ones, and every partial sum stays at most
  2048 * 4097 < 2^24, which float32 holds exactly in any summation order.
  The block results are XORed, so bit 0 and bit 12 carry the two points'
  parities.

The sets are kept as boolean masks over database indices. Only the sketch
primitives themselves, matrix derivation and the one sketch test
`threshold(params, role, scale)`, are shared.
"""

from __future__ import annotations

import numpy as np

from .core import Database, Params, Point, fraction_at_most, unpack_bits
from .errors import DimensionMismatch
from .randomness import PublicCoin
from .sketch import derive_matrix, sketch_rows, threshold


def exact_nn(x: Point, db: Database) -> tuple[Point, int]:
    """Lowest-index point achieving the minimum Hamming distance."""
    if x.dim != db.dim:
        raise DimensionMismatch(f"query dim {x.dim} vs database dim {db.dim}")
    dists = np.bitwise_count(db.packed ^ x.packed()).sum(axis=1)
    best = int(np.argmin(dists))
    return db.point(best), int(dists[best])


# Columns per product and the second field's shift: a field counts at most
# _BLOCK < 2^_SHIFT ones, and _BLOCK * (2^_SHIFT + 1) < 2^24.
_BLOCK = 2048
_SHIFT = 12


def _pair_parities(matrix_bits: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """GF(2) products of a matrix's rows (rows, d) with point pairs packed
    as `lo + 4096 * hi` in a C-contiguous (d, m) float32 operand, as a
    (rows, m) int32 array whose bit 0 is the parity with lo and bit 12 the
    parity with hi.

    Each product runs as matrix @ pairs over at most _BLOCK columns, so it
    is exact, and the block results are XORed. The matrix is cast once,
    whole, and the blocks are views of it: casting each block into its own
    fresh array cost more in a full trial than the packing saves.
    """
    matrix = matrix_bits.astype(np.float32)
    acc = np.zeros((matrix.shape[0], pairs.shape[1]), dtype=np.int32)
    for lo in range(0, matrix.shape[1], _BLOCK):
        acc ^= (matrix[:, lo : lo + _BLOCK] @ pairs[lo : lo + _BLOCK]).astype(np.int32)
    return acc


# A matrix with at most one in _SPARSE of its 64-bit words nonzero takes
# the column route.
_SPARSE = 4


def _word_bits(words: np.ndarray) -> np.ndarray:
    """uint64 words as bools along the last axis, bit b of word k at 64k + b."""
    return np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little").view(bool)


def _point_columns(diff: np.ndarray) -> np.ndarray:
    """(n, d) 0/1 bits as (d, ceil(n/64)) words: bit j of word g in row c
    is diff[64g + j, c].

    Every eighth row is shifted into one byte plane, so each pass reads
    whole rows; `np.packbits` across the transposed bits took about four
    times as long.
    """
    octets = np.zeros((-(-len(diff) // 64) * 8, diff.shape[1]), dtype=np.uint8)
    for k in range(8):
        rows = diff[k::8]
        octets[: len(rows)] |= rows << k
    return np.ascontiguousarray(octets.T).view(np.uint64)


def _column_parities(columns: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                     n: int) -> np.ndarray:
    """Sketch distances of n points from a matrix's ones at (rows, cols),
    listed in row-major order.

    `columns` holds column c of the points XOR the query as (d, ceil(n/64))
    words. One reduceat XORs each nonzero row's columns into its parity
    words, and a point's distance is the number of rows whose parity bit is
    set; all-zero rows add 0 to every count.
    """
    if not rows.size:
        return np.zeros(n, dtype=np.intp)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    parities = np.bitwise_xor.reduceat(columns[cols], starts, axis=0)
    return np.count_nonzero(_word_bits(parities), axis=0)[:n]


def _db_bits(db: Database) -> np.ndarray:
    raw = np.ascontiguousarray(db.packed).view(np.uint8).reshape(db.n, -1)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, : db.dim]


class ScaleSets:
    """Exact balls and their sketch approximations for one (x, db, coin).

    The sets are boolean masks over database indices: `balls` is
    (top+2, n), `candidates` is (top+1, n), and each auxiliary scale j gets
    one mask of the points passing its sketch test, built on first use.
    `ball`, `sketch_ball` and `refined` return them as frozensets.
    """

    def __init__(self, x: Point, db: Database, coin: PublicCoin, params: Params):
        self.x = x
        self.db = db
        self.coin = coin
        self.params = params
        self.top = params.scale_count
        if not x.dim == db.dim == params.d:
            raise DimensionMismatch(
                f"query dim {x.dim}, database dim {db.dim} and params d {params.d} differ")
        # Each database point XOR the query: its row sums are the exact
        # distances. Its columns as words serve the column route; then two
        # points per entry (a zero row pads an odd n), as one C-contiguous
        # (d, ceil(n/2)) float32 operand for every product.
        diff = _db_bits(db) ^ unpack_bits(x.value, x.dim)
        radii = np.array([params.radius(sc) for sc in range(self.top + 2)])
        self.balls = diff.sum(axis=1) <= radii[:, None]
        self._columns = _point_columns(diff)
        if db.n % 2:
            diff = np.vstack([diff, np.zeros((1, db.dim), dtype=np.uint8)])
        pairs = diff[0::2].astype(np.uint16) | diff[1::2].astype(np.uint16) << _SHIFT
        del diff
        self._pairs = np.ascontiguousarray(pairs.T, dtype=np.float32)
        self.candidates = np.array([self._passing("main", sc) for sc in range(self.top + 1)])
        self._aux_masks: dict[int, np.ndarray] = {}

    def _passing(self, role: str, scale: int) -> np.ndarray:
        """Mask of the database points that pass the `role` sketch test at `scale`."""
        params = self.params
        rows = sketch_rows(params, role)
        matrix = derive_matrix(self.coin, role, scale, rows, self.db.dim, params.alpha)
        return self._sketch_dists(matrix) <= threshold(params, role, scale)

    def _sketch_dists(self, matrix) -> np.ndarray:
        """Sketch distance from the query to every database point under `matrix`.

        A matrix with at most one in _SPARSE of its words nonzero takes the
        column route (`_column_parities`): one count of its nonzero words
        decides, and only then are its ones unpacked from those words. Every
        other matrix runs the blocked float32 product over all of its
        entries (`_pair_parities`). At d = 4096 a quarter of the words is
        one in 256 entries; a cut-over at one in 64 entries was slower in
        full trials, from the page faults of the column route's larger
        buffers.
        """
        n = self.db.n
        flat = matrix.packed.ravel()
        if _SPARSE * np.count_nonzero(flat) <= flat.size:
            nonzero = np.flatnonzero(flat)
            ones = np.flatnonzero(_word_bits(flat[nonzero]))
            rows, words = np.divmod(nonzero[ones >> 6], matrix.packed.shape[1])
            return _column_parities(self._columns, rows, 64 * words + (ones & 63), n)
        acc = _pair_parities(matrix.bits_matrix(), self._pairs)
        dists = np.empty(2 * acc.shape[1], dtype=np.intp)
        dists[0::2] = np.count_nonzero(acc & 1, axis=0)
        dists[1::2] = np.count_nonzero(acc & (1 << _SHIFT), axis=0)
        return dists[:n]

    def ball(self, i: int) -> frozenset[int]:
        """Exact ball of radius floor(alpha^i) (index top+1 covers the whole base)."""
        return _members(self.balls[i])

    def sketch_ball(self, i: int) -> frozenset[int]:
        return _members(self.candidates[i])

    def aux_pass(self, j: int) -> np.ndarray:
        """Mask of the database points that pass the scale-j auxiliary sketch test."""
        cached = self._aux_masks.get(j)
        if cached is None:
            cached = self._aux_masks[j] = self._passing("aux", j)
        return cached

    def refined(self, i: int, j: int) -> frozenset[int]:
        """Members of the scale-i candidate set that also pass the scale-j
        auxiliary sketch test."""
        return _members(self.candidates[i] & self.aux_pass(j))


def _members(mask: np.ndarray) -> frozenset[int]:
    return frozenset(np.flatnonzero(mask).tolist())


def exact_sets(x: Point, db: Database, coin: PublicCoin, params: Params) -> ScaleSets:
    """Materialize the exact balls and candidate sets for one trial."""
    return ScaleSets(x, db, coin, params)


def assumption1_failure(sets: ScaleSets) -> tuple[int, str] | None:
    """Where the sandwich ball(i) <= sketch_ball(i) <= ball(i+1) first breaks.

    Returns the lowest failing scale i with the side that fails there,
    "ball ⊄ sketch_ball" (checked first) or "sketch_ball ⊄ next ball", or
    None when the sandwich holds at every scale.
    """
    balls, cand = sets.balls, sets.candidates
    low = (balls[:-1] & ~cand).any(axis=1)
    high = (cand & ~balls[1:]).any(axis=1)
    failing = np.flatnonzero(low | high)
    if not failing.size:
        return None
    i = int(failing[0])
    return i, "ball ⊄ sketch_ball" if low[i] else "sketch_ball ⊄ next ball"


def check_assumption1(sets: ScaleSets) -> bool:
    """The sandwich: ball(i) <= sketch_ball(i) <= ball(i+1) at every scale."""
    return assumption1_failure(sets) is None


def assumption2_failure(sets: ScaleSets) -> tuple[int, int, str] | None:
    """Where the refinement quality bounds first fail, at the sets'
    `params.n` and `params.s`.

    For every scale pair j <= i, at most an n^(-1/s) fraction of ball(j) may
    be missing from refined(i, j) (the "missing" bound), and at most an
    n^(-1/s) fraction of sketch_ball(i) \\ ball(j+1) may be included in it
    (the "included" bound). Pairs whose candidate set is empty are vacuous:
    there is nothing to refine, so no refinement quality can be demanded of
    them.

    The pairs are scanned j-major: for each j, every scale i >= j with a
    nonempty candidate set is checked at once, and scale j's auxiliary mask
    is built only if such an i exists. Returns the first failing (i, j) in
    that order with the bound that fails ("missing" checked first), or None
    when every pair passes.
    """
    n, s = sets.params.n, sets.params.s
    live = np.flatnonzero(sets.candidates.any(axis=1))
    for j in range(sets.top + 1):
        scales = live[live >= j]
        if not scales.size:
            break
        cand = sets.candidates[scales]
        refined = cand & sets.aux_pass(j)
        ball_j = sets.balls[j]
        far = cand & ~sets.balls[j + 1]
        missing = np.count_nonzero(ball_j & ~refined, axis=1).tolist()
        included = np.count_nonzero(refined & far, axis=1).tolist()
        far_sizes = np.count_nonzero(far, axis=1).tolist()
        whole = int(np.count_nonzero(ball_j))
        for i, miss, inc, far_size in zip(scales.tolist(), missing, included, far_sizes):
            if not fraction_at_most(miss, whole, n, s):
                return i, j, "missing"
            if not fraction_at_most(inc, far_size, n, s):
                return i, j, "included"
    return None


def check_assumption2(sets: ScaleSets) -> bool:
    """The refinement quality bounds for every scale pair j <= i (see
    `assumption2_failure`)."""
    return assumption2_failure(sets) is None
