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

from .core import Database, Params, Point
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
class SketchVector:
    """GF(2) sketch of a point: `nbits` parity bits packed into an int."""

    nbits: int
    value: int

    def __post_init__(self) -> None:
        if self.nbits < 1:
            raise ValueError("sketch must have at least one bit")
        if not 0 <= self.value < (1 << self.nbits):
            raise ValueError("sketch has bits set beyond its length")

    def bit_array(self) -> np.ndarray:
        nbytes = (self.nbits + 7) // 8
        raw = np.frombuffer(self.value.to_bytes(nbytes, "little"), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[: self.nbits]

    def to_hex(self) -> str:
        return format(self.value, f"0{(self.nbits + 3) // 4}x")


def sketch_distance(a: SketchVector, b: SketchVector) -> int:
    if a.nbits != b.nbits:
        raise DimensionMismatch("sketch lengths differ")
    return (a.value ^ b.value).bit_count()


@dataclass(frozen=True)
class SketchMatrix:
    """rows x dim Bernoulli bit matrix, packed 64 columns per word."""

    role: str
    scale: int
    rows: int
    dim: int
    rate: float
    packed: np.ndarray  # (rows, ceil(dim/64)) uint64, bits above dim zero

    def row_bits(self, r: int) -> np.ndarray:
        raw = self.packed[r].tobytes()
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[: self.dim]

    def bits_matrix(self) -> np.ndarray:
        """All entries unpacked: (rows, dim) uint8."""
        raw = self.packed.view(np.uint8).reshape(self.rows, -1)
        return np.unpackbits(raw, axis=1, bitorder="little")[:, : self.dim]


def bernoulli_rate(alpha: float, scale: int) -> float:
    return 1.0 / (4.0 * alpha**scale)


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
    key = (coin.seed, role, scale, rows, dim, alpha)
    cached = _MATRIX_CACHE.get(key)
    if cached is not None:
        _touch(key)
        return cached
    rate = bernoulli_rate(alpha, scale)
    nwords = (dim + 63) // 64
    pad = nwords * 64 - dim
    bits = bernoulli_matrix(coin.row_keys(role, scale, rows), dim, rate)
    if pad:
        bits = np.pad(bits, ((0, 0), (0, pad)))
    packed = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
    packed.flags.writeable = False
    matrix = SketchMatrix(role=role, scale=scale, rows=rows, dim=dim, rate=rate, packed=packed)
    _MATRIX_CACHE[key] = matrix
    _evict()
    return matrix


# Tiny insertion-ordered cache; matrices at high dimension are ~0.5 MB each.
_MATRIX_CACHE: dict = {}
_MATRIX_CACHE_LIMIT = 96


def _touch(key) -> None:
    _MATRIX_CACHE[key] = _MATRIX_CACHE.pop(key)


def _evict() -> None:
    while len(_MATRIX_CACHE) > _MATRIX_CACHE_LIMIT:
        _MATRIX_CACHE.pop(next(iter(_MATRIX_CACHE)))


def sketch_apply(matrix: SketchMatrix, p: Point) -> SketchVector:
    """GF(2) product: bit r of the output is parity(row_r AND p)."""
    if matrix.dim != p.dim:
        raise DimensionMismatch(f"matrix dim {matrix.dim} vs point dim {p.dim}")
    ones = np.bitwise_count(matrix.packed & p.packed()).sum(axis=1)
    bits = (ones & np.uint64(1)).astype(np.uint8)
    return _vector_from_bits(bits)


def sketch_apply_batch(matrix: SketchMatrix, db: Database) -> np.ndarray:
    """Sketch bits of every database point: (n, rows) uint8.

    Bit (j, r) is parity(row_r AND point_j), and the parity of an AND over
    many words is the parity of the XOR of the per-word ANDs. Each row
    therefore gathers only its nonzero words from a word-major copy of the
    database, folds them with XOR, and takes one popcount per point; sparse
    high-scale rows cost in proportion to their nonzero words.
    """
    if matrix.dim != db.dim:
        raise DimensionMismatch(f"matrix dim {matrix.dim} vs database dim {db.dim}")
    words = np.ascontiguousarray(db.packed.T)
    out = np.empty((db.n, matrix.rows), dtype=np.uint8)
    for r, row in enumerate(matrix.packed):
        nz = np.flatnonzero(row)
        masked = words[nz]
        masked &= row[nz, None]
        out[:, r] = np.bitwise_count(np.bitwise_xor.reduce(masked, axis=0)) & 1
    return out


def _vector_from_bits(bits: np.ndarray) -> SketchVector:
    nbits = len(bits)
    padded = np.zeros(((nbits + 7) // 8) * 8, dtype=np.uint8)
    padded[:nbits] = bits
    value = int.from_bytes(np.packbits(padded, bitorder="little").tobytes(), "little")
    return SketchVector(nbits=nbits, value=value)


def empirical_density(matrix: SketchMatrix) -> float:
    """Fraction of ones in the matrix (diagnostic for the Bernoulli rate)."""
    return float(np.bitwise_count(matrix.packed).sum()) / (matrix.rows * matrix.dim)
