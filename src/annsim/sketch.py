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

`delta_threshold` is the closed-form width of the gap between them,
delta_threshold = f(alpha*beta) - f(beta); `decision_threshold` is their
midpoint, which is the fraction the cell tables actually compare against:
a measured row-disagreement fraction below the midpoint classifies a pair
as near, above as far, and Chernoff concentration makes either
misclassification exponentially unlikely in the row count. (Thresholding at
the gap value itself would sit below f(beta) and misclassify points at
distance exactly beta almost surely; see the repository notes on
calibration.)

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


def delta_threshold(beta: float, alpha: float) -> float:
    """Width of the separation gap at rate parameter beta.

    Closed form: 1/2 * (1-1/(2*beta))^beta * [1 - (1-1/(2*beta))^((alpha-1)*beta)].
    Zero when alpha = 1 (no gap to separate), strictly positive for alpha > 1.
    """
    if beta < 1:
        raise ValueError("beta must be >= 1 (scale 0 has beta = 1)")
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    base = 1.0 - 1.0 / (2.0 * beta)
    return 0.5 * base**beta * (1.0 - base ** ((alpha - 1.0) * beta))


def decision_threshold(beta: float, alpha: float) -> float:
    """Midpoint between the near and far collision fractions at this scale."""
    if beta < 1:
        raise ValueError("beta must be >= 1")
    if alpha <= 1:
        raise ValueError("alpha must be > 1")
    near = row_collision_prob(beta, beta)
    far = row_collision_prob(beta, alpha * beta)
    return 0.5 * (near + far)


def main_threshold(params: Params, scale: int) -> float:
    """Sketch-distance cutoff for main-table membership at one scale."""
    return decision_threshold(params.ball_radius(scale), params.alpha) * params.r_main


def aux_threshold(params: Params, scale: int, s_real: float) -> float:
    """Sketch-distance cutoff for auxiliary refinement at one scale."""
    return decision_threshold(params.ball_radius(scale), params.alpha) * params.r_aux(s_real)


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

    def row_bits(self, r: int) -> np.ndarray:
        raw = self.packed[r].tobytes()
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[: self.dim]

    def bits_matrix(self) -> np.ndarray:
        """All entries unpacked: (rows, dim) uint8."""
        raw = self.packed.view(np.uint8).reshape(self.rows, -1)
        return np.unpackbits(raw, axis=1, bitorder="little")[:, : self.dim]


def derive_matrix(
    coin: PublicCoin, role: str, scale: int, rows: int, dim: int, alpha: float
) -> SketchMatrix:
    """Deterministically derive the sketch matrix for (coin, role, scale).

    Entry (r, c) is Bernoulli(1/(4*alpha^scale)) taken from the counter
    stream keyed by (seed, role, scale, r) at counter c. Identical inputs
    always produce bit-identical matrices; this is the public coin.
    """
    if rows < 1:
        raise ValueError("rows must be >= 1")
    if role not in ("main", "aux"):
        raise ValueError(f"unknown sketch role {role!r}")
    cache = _COIN_MATRICES.get(coin.seed)
    if cache is None:  # a new coin: the old coin's matrices are never read again
        _COIN_MATRICES.clear()
        cache = _COIN_MATRICES[coin.seed] = {}
    key = (role, scale, rows, dim, alpha)
    matrix = cache.get(key)
    if matrix is not None:
        return matrix
    rate = 1.0 / (4.0 * alpha**scale)
    packed = bernoulli_matrix(coin.row_keys(role, scale, rows), dim, rate)
    packed.flags.writeable = False
    matrix = SketchMatrix(rows=rows, dim=dim, packed=packed)
    cache[key] = matrix
    return matrix


# The matrices of the current coin only, as {coin seed: {(role, scale, rows,
# dim, alpha): matrix}}. A trial's search, tables and oracle share one coin
# and each trial draws a new one, so older coins' matrices are dropped.
_COIN_MATRICES: dict[int, dict] = {}


def sketch_apply(matrix: SketchMatrix, p: Point) -> Point:
    """GF(2) product, a point of the rows-dimensional cube: bit r is parity(row_r AND p)."""
    if matrix.dim != p.dim:
        raise DimensionMismatch(f"matrix dim {matrix.dim} vs point dim {p.dim}")
    ones = np.bitwise_count(matrix.packed & p.packed()).sum(axis=1)
    bits = np.packbits(ones & np.uint64(1), bitorder="little")
    return Point(matrix.rows, int.from_bytes(bits.tobytes(), "little"))


def sketch_apply_batch(matrix: SketchMatrix, db: Database) -> np.ndarray:
    """Sketches of every database point, packed like `Database.packed`:
    (n, ceil(rows/64)) uint64 words.

    Bit r of point j (bit r % 64 of word r // 64) is parity(row_r AND point_j).
    The C twin of :func:`sketch_apply_batch_numpy` runs where the C kernels
    load (see :mod:`annsim._native`): per row, it XORs the ANDs of the row's
    nonzero words with the word-major database array (`db.words`) into one
    n-word accumulator and sets one popcount parity bit per point straight
    in that point's words. Elsewhere, the numpy kernel's bits are packed.
    """
    native = _native.kernels()
    if native is None:
        return pack_words(sketch_apply_batch_numpy(matrix, db))
    if matrix.dim != db.dim:
        raise DimensionMismatch(f"matrix dim {matrix.dim} vs database dim {db.dim}")
    packed = np.ascontiguousarray(matrix.packed)
    out = np.empty((db.n, (matrix.rows + 63) // 64), dtype=np.uint64)
    native.sketch_apply_batch(db.words, db.n, packed, matrix.rows, packed.shape[1],
                              np.empty(db.n, dtype=np.uint64), out)
    return out


def sketch_apply_batch_numpy(matrix: SketchMatrix, db: Database) -> np.ndarray:
    """The numpy kernel of :func:`sketch_apply_batch` as (n, rows) uint8 bits,
    and the reference for its C twin.

    Bit (j, r) is parity(row_r AND point_j), and the parity of an AND over
    many words is the parity of the XOR of the per-word ANDs, to which zero
    words add nothing. A dense row (at least half its words nonzero) ANDs
    the whole word-major database array (`db.words`) into one reused buffer
    and XOR-folds it. The other nonzero rows are taken in order of their
    nonzero-word count, in chunks of about `_CHUNK_WORDS` gathered words:
    each row's nonzero word indices come first, padded with indices of its
    zero words to the chunk's longest row, so a chunk is one gather, one AND
    and one XOR fold of a (rows, longest, n) block. All-zero rows give 0.
    """
    if matrix.dim != db.dim:
        raise DimensionMismatch(f"matrix dim {matrix.dim} vs database dim {db.dim}")
    words, packed = db.words, matrix.packed
    nonzero = np.count_nonzero(packed, axis=1)
    dense = 2 * nonzero >= packed.shape[1]
    out = np.zeros((matrix.rows, db.n), dtype=np.uint8)
    buf = np.empty_like(words)
    fold = np.empty(db.n, dtype=np.uint64)
    for r in np.flatnonzero(dense):
        np.bitwise_and(words, packed[r, :, None], out=buf)
        np.bitwise_xor.reduce(buf, axis=0, out=fold)
        np.bitwise_and(np.bitwise_count(fold), 1, out=out[r])
    sparse = np.flatnonzero(~dense & (nonzero > 0))
    sparse = sparse[np.argsort(nonzero[sparse], kind="stable")]
    counts = nonzero[sparse]
    rows = packed[sparse]
    cols = np.argsort(rows == 0, axis=1, kind="stable")  # nonzero words first
    per_point = max(1, _CHUNK_WORDS // db.n)
    lo = 0
    while lo < len(sparse):
        # counts ascend, so a chunk ending at row j gathers (j - lo + 1) * counts[j] words per point
        fits = np.arange(1, len(sparse) - lo + 1) * counts[lo:]
        hi = lo + max(1, int(np.searchsorted(fits, per_point, side="right")))
        chunk_cols = cols[lo:hi, : counts[hi - 1]]
        gathered = words[chunk_cols]
        gathered &= np.take_along_axis(rows[lo:hi], chunk_cols, axis=1)[:, :, None]
        folded = np.bitwise_xor.reduce(gathered, axis=1)
        out[sparse[lo:hi]] = np.bitwise_count(folded) & 1
        lo = hi
    return np.ascontiguousarray(out.T)


# Words gathered per chunk of sparse rows: 512 KB of uint64, inside L2.
_CHUNK_WORDS = 1 << 16


def empirical_density(matrix: SketchMatrix) -> float:
    """Fraction of ones in the matrix (diagnostic for the Bernoulli rate)."""
    return float(np.bitwise_count(matrix.packed).sum()) / (matrix.rows * matrix.dim)
