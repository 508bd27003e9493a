"""Brute-force ground truth.

Everything here is recomputed from definitions, independently of the table
machinery: exact nearest neighbors by linear scan, exact distance balls, and
the sketch-based candidate sets rebuilt from the raw matrices via a dense
float32 product of unpacked bits (a deliberately different computational
route from the packed popcount kernels the tables use, so cross-checks
between the two are meaningful). The product skips a matrix's all-zero rows
and columns when most columns are zero, and the sets are kept as boolean
masks over database indices. Only the sketch primitives themselves, matrix
derivation and the threshold formulas, are shared.
"""

from __future__ import annotations

import numpy as np

from .core import Database, Params, Point, fraction_at_most, hamming_dist, unpack_bits
from .randomness import PublicCoin
from .sketch import aux_threshold, derive_matrix, main_threshold


def exact_nn(x: Point, db: Database) -> tuple[Point, int]:
    """Lowest-index point achieving the minimum Hamming distance."""
    best_idx = 0
    best = hamming_dist(x, db.points[0])
    for i, p in enumerate(db.points[1:], start=1):
        d = hamming_dist(x, p)
        if d < best:
            best_idx, best = i, d
    return db.points[best_idx], best


def is_gamma_approx(x: Point, db: Database, z: Point, gamma: float) -> bool:
    """Whether z is within gamma of the true nearest-neighbor distance."""
    if all(p.value != z.value for p in db.points):
        raise ValueError("candidate point is not a database member")
    _, best = exact_nn(x, db)
    return hamming_dist(x, z) <= gamma * best


def _parity_product(point_bits: np.ndarray, matrix_bits: np.ndarray) -> np.ndarray:
    """GF(2) products of m points (m, d) with a matrix's rows (rows, d), as
    (m, rows) parities, via a dense float32 matmul (exact for d < 2^24).

    It runs as matrix @ points.T: BLAS is fastest in that orientation when
    point_bits is the transpose of a C-contiguous (d, m) array. Float32
    point bits are used as given.
    """
    counts = matrix_bits.astype(np.float32) @ point_bits.T.astype(np.float32, copy=False)
    return (counts.astype(np.int64) & 1).T


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
        dists = np.array([hamming_dist(x, p) for p in db.points])
        radii = np.array([params.ball_radius(sc) for sc in range(self.top + 2)])
        self.balls = dists <= radii[:, None]
        # Database columns then the query, as one C-contiguous (d, n+1)
        # float32 operand for every product.
        self._points = np.ascontiguousarray(
            np.vstack([_db_bits(db), unpack_bits(x.value, x.dim)]).T, dtype=np.float32
        )
        self.candidates = np.array([
            self._sketch_dists(
                derive_matrix(coin, "main", sc, params.r_main, db.dim, params.alpha)
            ) <= main_threshold(params, sc)
            for sc in range(self.top + 1)
        ])
        self._aux_masks: dict[int, np.ndarray] = {}

    def _sketch_dists(self, matrix) -> np.ndarray:
        """Sketch distance from the query to every database point under `matrix`.

        All-zero rows and columns of the matrix add 0 to every count. With
        fewer than half the columns nonzero, the product runs on the nonzero
        rows and columns only; with more, the gather costs more than it
        saves. Rows then columns, as two gathers: one np.ix_ gather is
        about 3x slower.
        """
        bits = matrix.bits_matrix()
        points = self._points
        cols = bits.any(axis=0)
        if 2 * np.count_nonzero(cols) < matrix.dim:
            bits = bits[bits.any(axis=1)][:, cols]
            points = points[cols]
        sketches = _parity_product(points.T, bits)
        return np.count_nonzero(sketches[:-1] != sketches[-1], axis=1)

    def ball(self, i: int) -> frozenset[int]:
        """Exact ball of radius alpha^i (index top+1 covers the whole base)."""
        return _members(self.balls[i])

    def sketch_ball(self, i: int) -> frozenset[int]:
        return _members(self.candidates[i])

    def aux_pass(self, j: int) -> np.ndarray:
        """Mask of the database points that pass the scale-j auxiliary sketch test."""
        params = self.params
        if params.s is None:
            raise ValueError("refined sets need the refinement parameter s in the params")
        cached = self._aux_masks.get(j)
        if cached is None:
            matrix = derive_matrix(self.coin, "aux", j, params.r_aux(params.s), self.db.dim,
                                   params.alpha)
            cached = self._sketch_dists(matrix) <= aux_threshold(params, j, params.s)
            self._aux_masks[j] = cached
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


def check_assumption1(sets: ScaleSets) -> bool:
    """The sandwich: ball(i) <= sketch_ball(i) <= ball(i+1) at every scale."""
    balls, cand = sets.balls, sets.candidates
    return not (balls[:-1] & ~cand).any() and not (cand & ~balls[1:]).any()


def check_assumption2(sets: ScaleSets) -> bool:
    """The refinement quality bounds for every scale pair j <= i, at the
    sets' `params.n` and `params.s`.

    At most an n^(-1/s) fraction of ball(j) is missing from refined(i, j),
    and at most an n^(-1/s) fraction of sketch_ball(i) \\ ball(j+1) is
    included in it. Pairs whose candidate set is empty are vacuous: there
    is nothing to refine, so no refinement quality can be demanded of them.

    For each j, every scale i >= j with a nonempty candidate set is checked
    at once; scale j's auxiliary mask is built only if such an i exists.
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
        for miss, inc, far_size in zip(missing, included, far_sizes):
            if not (fraction_at_most(miss, whole, n, s)
                    and fraction_at_most(inc, far_size, n, s)):
                return False
    return True
