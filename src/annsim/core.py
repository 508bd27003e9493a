"""Fundamental Hamming-space types and arithmetic.

Points are fixed-width d-bit vectors stored bit-packed in a Python integer
(coordinate j is bit j), with zero-padding above coordinate d-1 enforced as an
invariant so equality and hashing are canonical. A database is an ordered
collection of n distinct points that lives only in little-endian uint64
words, the layout the sketching kernels consume; `Database.point(i)` builds
one `Point` from its row when a point leaves the database.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class Point:
    """A point of the d-dimensional Hamming cube.

    `value` packs the coordinates: bit j of `value` is coordinate j. A GF(2)
    sketch of r rows is a point of the r-dimensional cube.
    """

    dim: int
    value: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if not (self.value >= 0 and self.value.bit_length() <= self.dim):
            raise ValueError("point has bits set beyond its dimension")

    def packed(self) -> np.ndarray:
        """Little-endian uint64 words; bits above dim are zero."""
        raw = self.value.to_bytes(8 * ((self.dim + 63) // 64), "little")
        return np.frombuffer(raw, dtype=np.uint64).copy()

    def to_hex(self) -> str:
        """Lowercase hex, most-significant nibble first, ceil(dim/4) digits."""
        return format(self.value, f"0{(self.dim + 3) // 4}x")


def pack_words(bits: np.ndarray) -> np.ndarray:
    """(m, dim) 0/1 rows as (m, ceil(dim/64)) little-endian uint64 words, bits above dim zero."""
    pad = -bits.shape[1] % 64
    if pad:
        bits = np.pad(bits, ((0, 0), (0, pad)))
    # packbits keeps a column-major input's layout, which view() cannot reinterpret
    return np.ascontiguousarray(np.packbits(bits, axis=1, bitorder="little")).view(np.uint64)


def unpack_bits(value: int, dim: int) -> np.ndarray:
    """Coordinates as a uint8 array of length dim."""
    nbytes = (dim + 7) // 8
    raw = np.frombuffer(value.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:dim]


def hamming_dist(p: Point, q: Point) -> int:
    """Number of coordinates where p and q differ."""
    if p.dim != q.dim:
        raise DimensionMismatch(f"dimensions differ: {p.dim} vs {q.dim}")
    return (p.value ^ q.value).bit_count()


def first_occurrences(rows: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows of a C-contiguous (m, nwords) array that
    equal no earlier row.

    The rows are stably sorted as opaque items, so equal rows are neighbours
    in draw order; only neighbours with equal first words are compared in
    full. At 256 x 256 words this takes about 0.05 ms, against 3.4 ms for
    `np.unique(rows, axis=0)`, which sorts field by field.
    """
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    order = keys.argsort(kind="stable")
    lead = rows[order, 0]
    tied = np.flatnonzero(lead[1:] == lead[:-1])
    later = tied[(rows[order[tied]] == rows[order[tied + 1]]).all(axis=1)] + 1
    first = np.ones(len(rows), dtype=bool)
    first[order[later]] = False
    return first


class Database:
    """Ordered collection of n distinct points of one dimension.

    Immutable after construction. The points live in their 64-bit words,
    stored once, word-major as `words` (word w of every point is
    contiguous, which is what the sketching kernels read); `packed` is the
    point-major view of the same array. No `Point` is kept: `point(i)`
    builds one from row i for a cell content or an answer. A small
    per-instance memo of database sketch words is maintained by the tables
    module; it caches pure functions of (database, coin, alpha, scale)
    only, so logical immutability is preserved.
    """

    def __init__(self, words: np.ndarray, dim: int):
        """`words`: (n, ceil(dim/64)) little-endian uint64 words, one row per point."""
        rows = np.ascontiguousarray(words, dtype=np.uint64)
        if dim < 1 or rows.ndim != 2 or rows.shape[1] != (dim + 63) // 64:
            raise ValueError(f"words of shape {rows.shape} do not hold points of dimension {dim}")
        if not len(rows):
            raise ValueError("database must contain at least one point")
        if dim % 64 and (rows[:, -1] >> np.uint64(dim % 64)).any():
            raise ValueError("point has bits set beyond its dimension")
        if not first_occurrences(rows).all():
            raise ValueError("database points must be distinct")
        self.dim = dim
        self.n = len(rows)
        # One word-major array, (nwords, n); `packed` is its (n, nwords) view.
        self.words = rows.T.copy()
        self.words.flags.writeable = False
        self.packed = self.words.T
        self._sketch_memo: dict = {}

    @classmethod
    def from_points(cls, points: list[Point] | tuple[Point, ...]) -> "Database":
        """Pack points of one dimension into words for the constructor."""
        dim = points[0].dim if points else 1
        if any(p.dim != dim for p in points):
            raise DimensionMismatch("all database points must share one dimension")
        nwords = (dim + 63) // 64
        raw = b"".join(p.value.to_bytes(8 * nwords, "little") for p in points)
        return cls(np.frombuffer(raw, dtype=np.uint64).reshape(len(points), nwords), dim)

    def point(self, i: int) -> Point:
        """Point i, built from row i of `packed`."""
        return Point(self.dim, int.from_bytes(self.packed[i].tobytes(), "little"))


# A power alpha^i is compared with its bound as a float, unless the float
# lies within this relative distance of the bound. There the float may be
# rounded to the wrong side (sqrt(3)**2 is 2.9999999999999996), so the
# comparison is made exactly as (alpha^2)^i >= bound^2, for scales up to
# _EXACT_SCALES: at 2^16 scales the exact power takes about 0.3 s.
_EXACT_BAND = 1e-12
_EXACT_SCALES = 1 << 17


def _reaches(alpha_sq: Fraction, i: int, bound: float) -> bool:
    """Whether alpha^i >= bound, for alpha = sqrt(alpha_sq) and bound >= 1."""
    power = float(alpha_sq) ** (i / 2)
    if abs(power - bound) > _EXACT_BAND * bound or i > _EXACT_SCALES:
        return power >= bound
    return alpha_sq**i >= Fraction(bound) ** 2


def first_scale(bound: float, alpha_sq: Fraction) -> int:
    """Smallest i >= 0 with alpha^i >= bound, for alpha = sqrt(alpha_sq) > 1
    and bound >= 1, searched around the float estimate."""
    i = max(0, math.ceil(2 * math.log(bound) / math.log(alpha_sq)) - 2)
    while not _reaches(alpha_sq, i, bound):
        i += 1
    while i > 0 and _reaches(alpha_sq, i - 1, bound):
        i -= 1
    return i


# Sketch-row factors established by `annsim calibrate --n 256 --d 128
# --gamma 4 --seeds 200 --seed 7 --s 2 --target 0.8`: the smallest grid
# values whose empirical sandwich rate (c1, measured 0.835) and joint
# sandwich-and-refinement rate (c2 at s=2, measured 0.815) clear 0.8 on
# uniform instances.
CALIBRATED_C1 = 48.0
CALIBRATED_C2 = 64.0


@dataclass(frozen=True)
class Params:
    """Shared problem parameters, one record per query.

    gamma is the approximation ratio the caller asked for; the working scale
    base is alpha = sqrt(min(gamma, 4)). Ratios of 4 or more are clamped to
    alpha = 2 (a larger ratio only loosens the target), while the reported
    guarantee keeps the caller's gamma. `alpha` is the rounded float that
    keys the sketch matrices and thresholds; the scale grid, the exact ball
    radii and the near-search scale are decided from `alpha_sq`, the exact
    binary rational min(gamma, 4).

    The phased search also reads the refinement depth s and the branching
    factor tau (see `alg_general.params_general`); they stay None elsewhere.
    s is real-valued in the thresholds and rounded in the group sizes
    (`s_int`).

    The sketch row counts `r_main` and `r_aux` are computed on first read
    and kept; `replace` builds a new record, which computes them afresh.
    They are not computed in `__post_init__`: a count that overflows (c1 *
    log2 n = inf) must reach `harness.validate_config`, which reports the
    matrix size, instead of failing the construction.
    """

    n: int
    d: int
    gamma: float
    k: int
    c1: float = CALIBRATED_C1
    c2: float = CALIBRATED_C2
    c: float = 4.0
    s: float | None = None
    tau: int | None = None
    alpha: float = field(init=False)
    alpha_sq: Fraction = field(init=False)
    scale_count: int = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if not self.gamma > 1.0:  # NaN fails this too
            raise ValueError("gamma must be > 1")
        if self.k < 1:
            raise ValueError("round budget k must be >= 1")
        if not all(math.isfinite(v) for v in (self.c1, self.c2, self.c)):
            raise ValueError("c1, c2 and c must be finite")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("c1 and c2 must be positive")
        if self.c <= 2:
            raise ValueError("c must be > 2")
        if self.s is not None and not 0 < self.s < math.inf:  # NaN fails this too
            raise ValueError("s must be positive and finite")
        if self.tau is not None and self.tau < 2:
            raise ValueError("tau must be >= 2")
        alpha = math.sqrt(min(self.gamma, 4.0))
        if alpha == 1.0:
            raise ValueError(f"gamma={self.gamma!r} is too close to 1: sqrt(gamma) rounds to 1.0, "
                             "so no scale grid reaches d")
        alpha_sq = Fraction(min(self.gamma, 4.0))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha_sq", alpha_sq)
        object.__setattr__(self, "scale_count", first_scale(self.d, alpha_sq))

    @cached_property
    def r_main(self) -> int:
        """Row count of main sketch matrices: ceil(c1 * log2 n)."""
        return max(1, math.ceil(self.c1 * math.log2(max(self.n, 2))))

    @property
    def s_int(self) -> int:
        """The refinement depth as a group size: s rounded, at least 1."""
        return max(1, round(self._refinement_depth()))

    @cached_property
    def r_aux(self) -> int:
        """Row count of auxiliary sketch matrices: ceil((c2/s) * log2 n)."""
        return max(1, math.ceil(self.c2 / self._refinement_depth() * math.log2(max(self.n, 2))))

    def _refinement_depth(self) -> float:
        if self.s is None:
            raise ValueError("these params have no refinement depth s (the aux tables need it)")
        return self.s

    def ball_radius(self, i: int) -> float:
        """alpha^i as a float: the sketch thresholds' beta."""
        return self.alpha**i

    def radius(self, i: int) -> int:
        """floor(alpha^i), decided exactly: the radius of the exact ball(i)."""
        nearest = round(float(self.alpha_sq) ** (i / 2))
        return nearest if _reaches(self.alpha_sq, i, nearest) else nearest - 1


# Inside fraction_at_most's float band, s = a/b is used exactly while a and
# b are at most this; an s such as Fraction(4.1) has a 2^-50 denominator,
# and the band then resolves toward True.
_EXACT_TERMS = 1 << 10


def fraction_at_most(part: int, whole: int, n: int, s_real: float, factor: float = 1.0) -> bool:
    """Whether part <= factor * n^(-1/s) * whole, ties resolved toward True.

    Compared in log space. Within 1e-9 of equality, where float noise could
    flip the answer, s = a/b is taken exactly as `Fraction(s)` and the
    comparison part^a * n^b <= (factor * whole)^a is made in integers, so
    exact boundary cases (e.g. part = whole / 16 with n^(1/s) = 16) hold and
    near misses fail.
    """
    if part <= 0:
        return True
    if whole <= 0:
        return False
    lhs = math.log(part) + math.log(n) / s_real
    rhs = math.log(factor) + math.log(whole)
    if abs(lhs - rhs) > 1e-9:
        return lhs < rhs
    s, f = Fraction(s_real), Fraction(factor)
    a, b = s.numerator, s.denominator
    if max(a, b) > _EXACT_TERMS:
        return True
    return part**a * n**b * f.denominator**a <= (f.numerator * whole) ** a
