"""Fundamental Hamming-space types and arithmetic.

Points are fixed-width d-bit vectors stored bit-packed in a Python integer
(coordinate j is bit j), with zero-padding above coordinate d-1 enforced as an
invariant so equality and hashing are canonical. A database is an ordered
collection of n distinct points together with a packed uint64 matrix
that the sketching kernels consume.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch

# The point file format: fixed-width lowercase hex, most-significant nibble first.
_HEX_DIGITS = re.compile("[0-9a-f]*")


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
        if not 0 <= self.value < (1 << self.dim):
            raise ValueError("point has bits set beyond its dimension")

    def bit(self, j: int) -> int:
        return (self.value >> j) & 1

    def packed(self) -> np.ndarray:
        """Little-endian uint64 words; bits above dim are zero."""
        raw = self.value.to_bytes(8 * ((self.dim + 63) // 64), "little")
        return np.frombuffer(raw, dtype=np.uint64).copy()

    def to_hex(self) -> str:
        """Lowercase hex, most-significant nibble first, ceil(dim/4) digits."""
        return format(self.value, f"0{(self.dim + 3) // 4}x")

    @classmethod
    def from_hex(cls, text: str, dim: int) -> "Point":
        digits = (dim + 3) // 4
        if len(text) != digits or not _HEX_DIGITS.fullmatch(text):
            raise ValueError(f"expected {digits} lowercase hex digits for dimension {dim}")
        return cls(dim, int(text, 16))


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


class Database:
    """Ordered collection of n distinct points of one dimension.

    Immutable after construction. The points' 64-bit words are stored once,
    word-major as `words` (word w of every point is contiguous, which is what
    the sketching kernels read); `packed` is the point-major view of the
    same array. A small per-instance memo of database sketch words is
    maintained by the tables module; it caches pure functions of
    (database, coin, alpha, scale) only, so logical immutability is preserved.
    """

    def __init__(self, points: list[Point] | tuple[Point, ...]):
        pts = tuple(points)
        if not pts:
            raise ValueError("database must contain at least one point")
        dim = pts[0].dim
        if any(p.dim != dim for p in pts):
            raise DimensionMismatch("all database points must share one dimension")
        if len({p.value for p in pts}) != len(pts):
            raise ValueError("database points must be distinct")
        self.points = pts
        self.dim = dim
        self.n = len(pts)
        nbytes = 8 * ((dim + 63) // 64)
        raw = b"".join(p.value.to_bytes(nbytes, "little") for p in pts)
        # One word-major array, (nwords, n); `packed` is its (n, nwords) view.
        self.words = np.frombuffer(raw, dtype=np.uint64).reshape(self.n, -1).T.copy()
        self.words.flags.writeable = False
        self.packed = self.words.T
        self._sketch_memo: dict = {}

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)


def scale_count(d: int, alpha: float) -> int:
    """Largest scale index: the smallest I with alpha**I >= d.

    Equals ceil(log_alpha(d)); computed by integer search around the float
    estimate so exact powers (e.g. d=256, alpha=2) do not fall victim to
    log rounding.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2 to define the scale grid")
    if not 1.0 < alpha <= 2.0:
        raise ValueError("alpha must be in (1, 2]")
    i = max(1, math.ceil(math.log(d) / math.log(alpha)) - 2)
    while alpha**i < d:
        i += 1
    while i > 1 and alpha ** (i - 1) >= d:
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
    """Shared problem parameters.

    gamma is the approximation ratio the caller asked for; the working scale
    base is alpha = sqrt(min(gamma, 4)). Ratios of 4 or more are clamped to
    alpha = 2 (a larger ratio only loosens the target), while the reported
    guarantee keeps the caller's gamma.
    """

    n: int
    d: int
    gamma: float
    k: int
    c1: float = CALIBRATED_C1
    c2: float = CALIBRATED_C2
    c: float = 4.0
    alpha: float = field(init=False)
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
        alpha = math.sqrt(min(self.gamma, 4.0))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "scale_count", scale_count(self.d, alpha))

    @property
    def r_main(self) -> int:
        """Row count of main sketch matrices: ceil(c1 * log2 n)."""
        return max(1, math.ceil(self.c1 * math.log2(max(self.n, 2))))

    def r_aux(self, s_real: float) -> int:
        """Row count of auxiliary sketch matrices: ceil((c2/s) * log2 n)."""
        return max(1, math.ceil(self.c2 / s_real * math.log2(max(self.n, 2))))

    def ball_radius(self, i: int) -> float:
        return self.alpha**i


def fraction_at_most(part: int, whole: int, n: int, s_real: float, factor: float = 1.0) -> bool:
    """Whether part <= factor * n^(-1/s) * whole, ties resolved toward True.

    Compared in log space with a small guard band so exact boundary cases
    (e.g. part = whole / 16 with n^(1/s) = 16) never flip on float noise.
    """
    if part <= 0:
        return True
    if whole <= 0:
        return False
    lhs = math.log(part) + math.log(n) / s_real
    rhs = math.log(factor) + math.log(whole)
    return lhs <= rhs + 1e-9


def save_database(db: Database, path: str) -> None:
    """Write `d=<dim> n=<count>` then one lowercase-hex point per line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"d={db.dim} n={db.n}\n")
        for p in db.points:
            fh.write(p.to_hex() + "\n")


def load_database(path: str) -> Database:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
        parts = header.split()
        if len(parts) != 2 or not parts[0].startswith("d=") or not parts[1].startswith("n="):
            raise ValueError(f"bad database header: {header!r}")
        dim = int(parts[0][2:])
        n = int(parts[1][2:])
        points = []
        for line in fh:
            line = line.strip()
            if line:
                points.append(Point.from_hex(line, dim))
    if len(points) != n:
        raise ValueError(f"header promised {n} points, file holds {len(points)}")
    return Database(points)
