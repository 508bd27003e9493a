"""The earlier frozenset oracle, kept verbatim as the reference for the
tests in test_oracle_differential.py.

The sets are frozensets built pair by pair and the product runs over every
column of the matrix; the production oracle keeps boolean masks and skips
all-zero rows and columns. Both must give the same sets and verdicts.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from annsim.core import Database, Params, Point, fraction_at_most, hamming_dist
from annsim.randomness import PublicCoin
from annsim.sketch import derive_matrix, threshold


def _parity_product(point_bits: np.ndarray, matrix_bits: np.ndarray) -> np.ndarray:
    """GF(2) products via a dense float32 matmul (exact for d < 2^24).

    Each operand is cast to float32 once; float32 point bits are used as given.
    """
    counts = point_bits.astype(np.float32, copy=False) @ matrix_bits.T.astype(np.float32)
    return counts.astype(np.int64) & 1


def _bits(words: np.ndarray, dim: int) -> np.ndarray:
    """(m, ceil(dim/64)) little-endian uint64 words as (m, dim) 0/1 uint8
    bits, unpacked here rather than by `annsim.core`, whose codec these
    tests check."""
    raw = np.ascontiguousarray(words).view(np.uint8).reshape(len(words), -1)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :dim]


def _db_bits(db: Database) -> np.ndarray:
    return _bits(db.packed, db.dim)


def _matrix_bits(matrix) -> np.ndarray:
    return _bits(matrix.packed, matrix.dim)


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
        dists = [hamming_dist(x, db.point(i)) for i in range(db.n)]
        self.balls: list[frozenset[int]] = [
            frozenset(i for i, h in enumerate(dists) if h <= params.ball_radius(sc))
            for sc in range(self.top + 2)
        ]
        # Database rows then the query, as float32 once for every product.
        x_bits = [(x.value >> j) & 1 for j in range(x.dim)]
        self._bits = np.vstack([_db_bits(db), x_bits]).astype(np.float32)
        self.approx: list[frozenset[int]] = []
        for sc in range(self.top + 1):
            matrix = derive_matrix(coin, "main", sc, params.r_main, db.dim, params.alpha)
            sk_dists = self._sketch_dists(matrix)
            thr = threshold(params, "main", sc)
            self.approx.append(frozenset(np.nonzero(sk_dists <= thr)[0].tolist()))
        self._aux_dists: dict[int, np.ndarray] = {}
        self._refined: dict[tuple[int, int], frozenset[int]] = {}

    def _sketch_dists(self, matrix) -> np.ndarray:
        """Sketch distance from the query to every database point under `matrix`."""
        sketches = _parity_product(self._bits, _matrix_bits(matrix))
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
            rows = replace(self.params, s=self.s_real).r_aux
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
            thr = threshold(replace(self.params, s=self.s_real), "aux", j)
            dists = self._aux_dist(j)
            cached = frozenset(z for z in self.approx[i] if dists[z] <= thr)
            self._refined[key] = cached
        return cached


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
