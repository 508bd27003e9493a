"""Brute-force ground truth.

Everything here is recomputed from definitions, independently of the table
machinery: exact nearest neighbors by a popcount scan of the database words,
exact distance balls from the unpacked bits with the exact integer radii
floor(alpha^i), and the sketch-based candidate sets rebuilt from the raw
matrices by a route of their own (deliberately different from the packed
parity kernels the tables use, so cross-checks between the two are
meaningful).

The query is XORed into every database point first. The row sums of the
unpacked XOR are the exact distances, and the sketches of p and x differ in
row r exactly when row r has odd parity with p XOR x. Those parities come
by one route at every density: the columns of p XOR x are stored as
(d, ceil(n/64)) words, so one word XOR serves 64 points, and row r's
parities with all n points are the XOR of the columns at row r's ones
(`column_parities`, with a C twin). The table kernels instead AND each
matrix row with the points' words.

The sets are kept as boolean masks over database indices. Only the sketch
primitives themselves, matrix derivation and the one sketch test
`threshold(params, role, scale)`, are shared.
"""

from __future__ import annotations

import numpy as np

from . import _native
from .core import Database, Params, Point, fraction_at_most, unpack_words
from .errors import DimensionMismatch
from .randomness import PublicCoin
from .sketch import SketchMatrix, derive_matrix, sketch_rows, threshold


def exact_nn(x: Point, db: Database) -> tuple[Point, int]:
    """Lowest-index point achieving the minimum Hamming distance."""
    if x.dim != db.dim:
        raise DimensionMismatch(f"query dim {x.dim} vs database dim {db.dim}")
    dists = np.bitwise_count(db.packed ^ x.packed()).sum(axis=1)
    best = int(np.argmin(dists))
    return db.point(best), int(dists[best])


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


# Matrix bits times column words per chunk of rows of `column_parities_numpy`,
# so that its gather holds at most 8 MiB even for a matrix of ones (unchunked,
# scale 0 at d = 2^16 and n = 256 would gather about 200 MB).
_CHUNK_WORDS = 1 << 20


def column_parities(matrix: SketchMatrix, columns: np.ndarray, n: int) -> np.ndarray:
    """Sketch distances of n points held column by column in `columns`
    (see `_point_columns`): entry j counts the matrix rows whose AND with
    point j has odd parity.

    The C twin of :func:`column_parities_numpy` runs where the C kernels
    load (see :mod:`annsim._native`): per row, it walks the set bits of the
    row's words and XORs the columns there into up to 4 column words held
    in registers."""
    if len(columns) != matrix.dim:  # the C kernel reads the column at each one
        raise DimensionMismatch(f"matrix dim {matrix.dim} vs {len(columns)} point columns")
    native = _native.kernels()
    if native is None:
        return column_parities_numpy(matrix, columns, n)
    counts = np.empty(64 * columns.shape[1], dtype=np.int64)
    native.column_parities(np.ascontiguousarray(matrix.packed), matrix.rows,
                           matrix.packed.shape[1], columns, columns.shape[1], counts)
    return counts[:n]


def column_parities_numpy(matrix: SketchMatrix, columns: np.ndarray, n: int) -> np.ndarray:
    """The numpy kernel of :func:`column_parities`, and the reference for its
    C twin: the ones of a chunk of rows are found from its nonzero words, one
    reduceat XORs each nonzero row's columns at its ones into its parity
    words, and each parity bit adds 1 to its point's count."""
    nwords = matrix.packed.shape[1]
    counts = np.zeros(n, dtype=np.int64)
    step = max(1, _CHUNK_WORDS // (64 * nwords * columns.shape[1]))
    for lo in range(0, matrix.rows, step):
        flat = matrix.packed[lo : lo + step].ravel()
        nonzero = np.flatnonzero(flat)
        if not nonzero.size:
            continue
        ones = np.flatnonzero(unpack_words(flat[nonzero], 64 * nonzero.size).view(bool))
        rows, words = np.divmod(nonzero[ones >> 6], nwords)
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        parities = np.bitwise_xor.reduceat(columns[64 * words + (ones & 63)], starts, axis=0)
        counts += np.count_nonzero(unpack_words(parities, n).view(bool), axis=0)
    return counts


class ScaleSets:
    """Exact balls and their sketch approximations for one (x, db, coin).

    The sets are boolean masks over database indices: `balls` is
    (top+2, n), `candidates` is (top+1, n), and each auxiliary scale j gets
    one mask of the points passing its sketch test, built on first use.
    `ball`, `sketch_ball` and `refined` return them as frozensets.

    The candidate sets are built from the top scale down, testing the
    sandwich at each scale, and the build stops at the first scale where it
    breaks: the verdict is then known, and the scales below, with the
    densest matrices, are built only when something reads them. Top down is
    also the cheap order, since the matrices grow denser at every lower scale.
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
        # distances, and its columns as words serve every sketch distance.
        diff = unpack_words(db.packed, db.dim) ^ unpack_words(x.packed(), x.dim)
        radii = np.array([params.radius(sc) for sc in range(self.top + 2)])
        self.balls = diff.sum(axis=1) <= radii[:, None]
        self._columns = _point_columns(diff)
        self._candidates = np.zeros((self.top + 1, db.n), dtype=bool)
        self._built = [False] * (self.top + 1)
        self._aux_masks: dict[int, np.ndarray] = {}
        self.sandwich_holds()  # builds the candidate sets down to the first break

    @property
    def candidates(self) -> np.ndarray:
        """The (top+1, n) candidate masks; reading them builds every scale."""
        for i in range(self.top + 1):
            self._candidate(i)
        return self._candidates

    @candidates.setter
    def candidates(self, masks: np.ndarray) -> None:
        self._candidates = masks
        self._built = [True] * (self.top + 1)

    def _candidate(self, i: int) -> np.ndarray:
        """Mask of the scale-i candidate set, built on first use."""
        if not self._built[i]:
            self._candidates[i] = self._passing("main", i)
            self._built[i] = True
        return self._candidates[i]

    def sandwich_break(self, i: int) -> str | None:
        """The side where ball(i) <= sketch_ball(i) <= ball(i+1) breaks at
        scale i, "ball ⊄ sketch_ball" (tested first) or "sketch_ball ⊄ next
        ball", or None when it holds there."""
        cand = self._candidate(i)
        if (self.balls[i] & ~cand).any():
            return "ball ⊄ sketch_ball"
        if (cand & ~self.balls[i + 1]).any():
            return "sketch_ball ⊄ next ball"
        return None

    def sandwich_holds(self) -> bool:
        """Whether the sandwich holds at every scale, tested from the top
        scale down up to the first break."""
        return not any(self.sandwich_break(i) for i in range(self.top, -1, -1))

    def _passing(self, role: str, scale: int) -> np.ndarray:
        """Mask of the database points that pass the `role` sketch test at `scale`."""
        params = self.params
        rows = sketch_rows(params, role)
        matrix = derive_matrix(self.coin, role, scale, rows, self.db.dim, params.alpha)
        return self._sketch_dists(matrix) <= threshold(params, role, scale)

    def _sketch_dists(self, matrix: SketchMatrix) -> np.ndarray:
        """Sketch distance from the query to every database point under `matrix`."""
        return column_parities(matrix, self._columns, self.db.n)

    def ball(self, i: int) -> frozenset[int]:
        """Exact ball of radius floor(alpha^i) (index top+1 covers the whole base)."""
        return _members(self.balls[i])

    def sketch_ball(self, i: int) -> frozenset[int]:
        return _members(self._candidate(i))

    def aux_pass(self, j: int) -> np.ndarray:
        """Mask of the database points that pass the scale-j auxiliary sketch test."""
        cached = self._aux_masks.get(j)
        if cached is None:
            cached = self._aux_masks[j] = self._passing("aux", j)
        return cached

    def refined(self, i: int, j: int) -> frozenset[int]:
        """Members of the scale-i candidate set that also pass the scale-j
        auxiliary sketch test."""
        return _members(self._candidate(i) & self.aux_pass(j))


def _members(mask: np.ndarray) -> frozenset[int]:
    return frozenset(np.flatnonzero(mask).tolist())


def exact_sets(x: Point, db: Database, coin: PublicCoin, params: Params) -> ScaleSets:
    """Materialize the exact balls for one trial, and its candidate sets
    from the top scale down to the first scale where the sandwich breaks."""
    return ScaleSets(x, db, coin, params)


def assumption1_failure(sets: ScaleSets) -> tuple[int, str] | None:
    """Where the sandwich ball(i) <= sketch_ball(i) <= ball(i+1) first breaks.

    Returns the lowest failing scale i with the side that fails there,
    "ball ⊄ sketch_ball" (checked first) or "sketch_ball ⊄ next ball", or
    None when the sandwich holds at every scale. The scales are tested from
    0 up, so the candidate sets below the break that `exact_sets` stopped
    at are built here.
    """
    for i in range(sets.top + 1):
        side = sets.sandwich_break(i)
        if side is not None:
            return i, side
    return None


def check_assumption1(sets: ScaleSets) -> bool:
    """The sandwich: ball(i) <= sketch_ball(i) <= ball(i+1) at every scale.

    The scales are tested from the top down, so after `exact_sets` this
    reaches only scales it already built.
    """
    return sets.sandwich_holds()


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
    candidates = sets.candidates
    live = np.flatnonzero(candidates.any(axis=1))
    for j in range(sets.top + 1):
        scales = live[live >= j]
        if not scales.size:
            break
        cand = candidates[scales]
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
