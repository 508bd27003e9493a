"""Public-coin random sketching over GF(2).

A sketch matrix at scale i has i.i.d. Bernoulli(1/(4*alpha^i)) entries; the
sketch of a point is the matrix-vector product over GF(2), i.e. one parity
bit per row. Two points at Hamming distance h disagree on a single row with
probability

    row_collision_prob(lambda, h) = 1/2 * (1 - (1 - 1/(2*lambda))^h)

for rate parameter lambda = alpha^i. Writing f for that curve and
Delta = (1 - 1/(2*beta))^beta, the two landmark values at a scale with
beta = alpha^i are

    f(beta)       = (1 - Delta) / 2          (points inside the ball)
    f(alpha*beta) = (1 - Delta^alpha) / 2    (points past the next ball)

The gap between them has the closed form

    f(alpha*beta) - f(beta) = Delta * (1 - Delta^(alpha-1)) / 2,

and `decision_threshold` is their midpoint, which is the fraction the cell
tables actually compare against: a measured row-disagreement fraction below
the midpoint classifies a pair as near, above as far, and Chernoff
concentration makes either misclassification exponentially unlikely in the
row count. (Thresholding at the gap value itself would sit below f(beta)
and misclassify points at distance exactly beta almost surely; see the
repository notes on calibration.)

Matrices are never materialized up front: every row is a counter-based pure
function of (seed, role, scale, row), so the virtual-table side and the
query side derive bit-identical matrices independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .core import Database, Params, Point, pack_words
from .errors import DimensionMismatch
from .randomness import PublicCoin, bernoulli_matrix


def row_collision_prob(lam: float, h: float) -> float:
    """Probability one Bernoulli(1/(4*lam)) row separates points at distance h."""
    if lam < 1:
        raise ValueError("rate parameter must be >= 1")
    if h < 0:
        raise ValueError("distance must be >= 0")
    return 0.5 * (1.0 - (1.0 - 1.0 / (2.0 * lam)) ** h)


def decision_threshold(beta: float, alpha: float) -> float:
    """Midpoint between the near and far collision fractions at this scale."""
    if beta < 1:
        raise ValueError("beta must be >= 1")
    if alpha <= 1:
        raise ValueError("alpha must be > 1")
    near = row_collision_prob(beta, beta)
    far = row_collision_prob(beta, alpha * beta)
    return 0.5 * (near + far)


def sketch_rows(params: Params, role: str) -> int:
    """Row count of the role's sketch matrices: `r_main` or, at `params.s`, `r_aux`."""
    if role == "main":
        return params.r_main
    if role == "aux":
        return params.r_aux
    raise ValueError(f"unknown sketch role {role!r}")


def threshold(params: Params, role: str, scale: int) -> float:
    """Sketch-distance cutoff of the role's sketch test at one scale, for the
    main tables and candidate sets ("main") and the refinements ("aux")."""
    return decision_threshold(params.ball_radius(scale), params.alpha) * sketch_rows(params, role)


@dataclass(frozen=True)
class SketchMatrix:
    """rows x dim Bernoulli bit matrix, packed 64 columns per word."""

    rows: int
    dim: int
    packed: np.ndarray  # (rows, ceil(dim/64)) uint64, bits above dim zero

    def __post_init__(self) -> None:
        # The sketch kernels, the C one included, read exactly these words.
        if self.packed.shape != (self.rows, (self.dim + 63) // 64):
            raise ValueError(f"packed words {self.packed.shape} do not match "
                             f"{self.rows} rows of dim {self.dim}")
        if self.dim % 64 and (self.packed[:, -1] >> np.uint64(self.dim % 64)).any():
            raise ValueError(f"packed words have bits set beyond dim {self.dim}")


def derive_matrix(
    coin: PublicCoin, role: str, scale: int, rows: int, dim: int, alpha: float
) -> SketchMatrix:
    """Deterministically derive the sketch matrix for (coin, role, scale).

    Entry (r, c) is Bernoulli(1/(4*alpha^scale)) taken from the counter
    stream keyed by (seed, role, scale, r) at counter c. Identical inputs
    always produce bit-identical matrices; this is the public coin. The
    matrices are kept in `coin.matrices`, so they die with the coin.
    """
    if rows < 1:
        raise ValueError("rows must be >= 1")
    if role not in ("main", "aux"):
        raise ValueError(f"unknown sketch role {role!r}")
    key = (role, scale, rows, dim, alpha)
    matrix = coin.matrices.get(key)
    if matrix is not None:
        return matrix
    rate = 1.0 / (4.0 * alpha**scale)
    packed = bernoulli_matrix(coin.row_keys(role, scale, rows), dim, rate)
    packed.flags.writeable = False
    matrix = coin.matrices[key] = SketchMatrix(rows=rows, dim=dim, packed=packed)
    return matrix


def sketch_apply(matrix: SketchMatrix, p: Point) -> Point:
    """GF(2) product, a point of the rows-dimensional cube: bit r is
    parity(row_r AND p). The point's words run as one column through the
    kernel of :func:`sketch_apply_batch`."""
    if matrix.dim != p.dim:
        raise DimensionMismatch(f"matrix dim {matrix.dim} vs point dim {p.dim}")
    words = _sketch_words(matrix, p.packed()[:, None])
    return Point.from_words(words, matrix.rows)


def sketch_apply_batch(matrix: SketchMatrix, db: Database) -> np.ndarray:
    """Sketches of every database point, packed like `Database.packed`:
    (n, ceil(rows/64)) uint64 words.

    Bit r of point j (bit r % 64 of word r // 64) is parity(row_r AND point_j).
    The C twin of :func:`sketch_apply_batch_numpy` runs where the C kernels
    load (see :mod:`annsim._native`): it takes the matrix rows 4 at a time
    and the points of the word-major database array (`db.words`) 32 at a
    time, XORs the ANDs over the words where any of the 4 rows is nonzero
    into 4 x 32 accumulators held in registers, and folds each to its
    parity. Elsewhere, the numpy kernel's bits are packed.
    """
    if matrix.dim != db.dim:
        raise DimensionMismatch(f"matrix dim {matrix.dim} vs database dim {db.dim}")
    return _sketch_words(matrix, db.words)


def _sketch_words(matrix: SketchMatrix, words: np.ndarray) -> np.ndarray:
    """The sketch words of the m points of a word-major (nwords, m) array, (m, ceil(rows/64))."""
    native = _native.kernels()
    if native is None:
        return pack_words(sketch_apply_batch_numpy(matrix, words))
    nwords, m = words.shape
    out = np.empty((m, (matrix.rows + 63) // 64), dtype=np.uint64)
    # The scratch holds the word list of one group of 4 rows.
    native.sketch_apply_batch(words, m, np.ascontiguousarray(matrix.packed), matrix.rows, nwords,
                              np.empty(nwords, dtype=np.uint64), out)
    return out


def sketch_apply_batch_numpy(matrix: SketchMatrix, words: np.ndarray) -> np.ndarray:
    """The numpy kernel of :func:`sketch_apply_batch` as (m, rows) uint8 bits
    for the m points of a word-major (nwords, m) array such as `db.words`,
    and the reference for its C twin.

    Bit (j, r) is parity(row_r AND point_j), and the parity of an AND over
    many words is the parity of the XOR of the per-word ANDs, to which zero
    words add nothing. So each row gathers its nonzero words of the points,
    ANDs them with the row's words and XOR-folds them; an all-zero row folds
    nothing and gives 0.
    """
    if words.shape[0] != matrix.packed.shape[1]:
        raise DimensionMismatch(f"matrix words {matrix.packed.shape[1]} vs point words "
                                f"{words.shape[0]}")
    out = np.empty((words.shape[1], matrix.rows), dtype=np.uint8)
    for r, row in enumerate(matrix.packed):
        cols = np.flatnonzero(row)
        gathered = words[cols]
        gathered &= row[cols, None]  # in place: no second (count, m) block per row
        out[:, r] = np.bitwise_count(np.bitwise_xor.reduce(gathered, axis=0)) & 1
    return out
