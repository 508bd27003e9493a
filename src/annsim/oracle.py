"""Brute-force ground truth.

Everything here is recomputed from definitions, independently of the table
machinery: exact nearest neighbors by linear scan, exact distance balls, and
the sketch-based candidate sets rebuilt from the raw matrices via a dense
unpacked-bit matrix product (a deliberately different computational route
from the packed popcount kernels the tables use, so cross-checks between the
two are meaningful). Only the sketch primitives themselves, matrix
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
    """GF(2) products via a dense float32 matmul (exact for d < 2^24).

    Each operand is cast to float32 once; float32 point bits are used as given.
    """
    counts = point_bits.astype(np.float32, copy=False) @ matrix_bits.T.astype(np.float32)
    return counts.astype(np.int64) & 1


def _db_bits(db: Database) -> np.ndarray:
    raw = np.ascontiguousarray(db.packed).view(np.uint8).reshape(db.n, -1)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, : db.dim]


class ScaleSets:
    """Exact balls and their sketch approximations for one (x, db, coin).

    Balls and candidate sets are materialized for every scale; the refined
    sets are built on request per (i, j) pair. All sets are frozensets of
    database indices.
    """

    def __init__(
        self,
        x: Point,
        db: Database,
        coin: PublicCoin,
        params: Params,
        s_real: float | None = None,
    ):
        self.x = x
        self.db = db
        self.coin = coin
        self.params = params
        self.s_real = s_real
        self.top = params.scale_count
        dists = [hamming_dist(x, p) for p in db.points]
        self.balls: list[frozenset[int]] = [
            frozenset(i for i, h in enumerate(dists) if h <= params.ball_radius(sc))
            for sc in range(self.top + 2)
        ]
        # Database rows then the query, as float32 once for every product.
        self._bits = np.vstack([_db_bits(db), unpack_bits(x.value, x.dim)]).astype(np.float32)
        self.approx: list[frozenset[int]] = []
        for sc in range(self.top + 1):
            matrix = derive_matrix(coin, "main", sc, params.r_main, db.dim, params.alpha)
            sk_dists = self._sketch_dists(matrix)
            thr = main_threshold(params, sc)
            self.approx.append(frozenset(np.nonzero(sk_dists <= thr)[0].tolist()))
        self._aux_dists: dict[int, np.ndarray] = {}
        self._refined: dict[tuple[int, int], frozenset[int]] = {}

    def _sketch_dists(self, matrix) -> np.ndarray:
        """Sketch distance from the query to every database point under `matrix`."""
        sketches = _parity_product(self._bits, matrix.bits_matrix())
        return np.count_nonzero(sketches[:-1] != sketches[-1], axis=1)

    def ball(self, i: int) -> frozenset[int]:
        """Exact ball of radius alpha^i (index top+1 covers the whole base)."""
        return self.balls[i]

    def sketch_ball(self, i: int) -> frozenset[int]:
        return self.approx[i]

    def _aux_dist(self, j: int) -> np.ndarray:
        if self.s_real is None:
            raise ValueError("refined sets need the refinement parameter s")
        cached = self._aux_dists.get(j)
        if cached is None:
            rows = self.params.r_aux(self.s_real)
            matrix = derive_matrix(self.coin, "aux", j, rows, self.db.dim, self.params.alpha)
            cached = self._sketch_dists(matrix)
            self._aux_dists[j] = cached
        return cached

    def refined(self, i: int, j: int) -> frozenset[int]:
        """Members of the scale-i candidate set that also pass the scale-j
        auxiliary sketch test."""
        key = (i, j)
        cached = self._refined.get(key)
        if cached is None:
            thr = aux_threshold(self.params, j, self.s_real)
            dists = self._aux_dist(j)
            cached = frozenset(z for z in self.approx[i] if dists[z] <= thr)
            self._refined[key] = cached
        return cached


def exact_sets(
    x: Point,
    db: Database,
    coin: PublicCoin,
    params: Params,
    s_real: float | None = None,
) -> ScaleSets:
    """Materialize the exact balls and candidate sets for one trial."""
    return ScaleSets(x, db, coin, params, s_real=s_real)


def check_assumption1(sets: ScaleSets) -> bool:
    """The sandwich: ball(i) <= sketch_ball(i) <= ball(i+1) at every scale."""
    for i in range(sets.top + 1):
        c = sets.sketch_ball(i)
        if not (sets.ball(i) <= c and c <= sets.ball(i + 1)):
            return False
    return True


def check_assumption2(sets: ScaleSets, s_real: float, n: int) -> bool:
    """The refinement quality bounds for every scale pair j <= i.

    At most an n^(-1/s) fraction of ball(j) is missing from refined(i, j),
    and at most an n^(-1/s) fraction of sketch_ball(i) \\ ball(j+1) is
    included in it. Pairs whose candidate set is empty are vacuous: there
    is nothing to refine, so no refinement quality can be demanded of them.
    """
    for i in range(sets.top + 1):
        c = sets.sketch_ball(i)
        if not c:
            continue
        for j in range(i + 1):
            d = sets.refined(i, j)
            bj = sets.ball(j)
            if not fraction_at_most(len(bj - d), len(bj), n, s_real):
                return False
            far = c - sets.ball(j + 1)
            if not fraction_at_most(len(d & far), len(far), n, s_real):
                return False
    return True
