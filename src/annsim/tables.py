"""Virtual cell-probe tables.

Cells are never materialized: a cell's content is a pure function of
(database, coin, address), recomputed on demand. The probe model charges
only cell reads, never preprocessing, so this is faithful to the cost
model while sidestepping the 2^(c1*log n) cells per scale an honest table
would occupy. The probe engine is the only consumer; reported table-size
metadata still follows the construction formulas (see `table_metadata`).

Four address families exist:

* main:  per scale i, addressed by a main-sketch vector; stores the
  lowest-index database point whose scale-i sketch is within the scale's
  decision threshold of the address, else nothing.
* aux:   per (scale i, main-sketch j), addressed by a group descriptor of
  auxiliary sketches; stores the first group slot whose refinement set is
  a large fraction of the scale's candidate set, else s+1.
* member_exact / member_near1: exact-set membership of the query itself /
  of its distance-1 neighborhood (a perfect-hash dictionary in spirit).

A sketch is a Point of the rows-dimensional cube, and every family applies
one Hamming-ball test on packed words: main and aux cells to the database's
sketch words (`db_sketch_bits`), membership cells to `Database.packed`.

A cell holds a database point, a small int (an aux slot) or nothing (None).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Database, Params, Point, fraction_at_most
from .errors import DimensionMismatch
from .randomness import PublicCoin
from .sketch import (
    aux_threshold,
    derive_matrix,
    main_threshold,
    sketch_apply_batch,
)

KIND_MAIN = "main"
KIND_AUX = "aux"
KIND_MEMBER_EXACT = "member_exact"
KIND_MEMBER_NEAR1 = "member_near1"

CellContent = Point | int | None


@dataclass(frozen=True)
class AuxAddress:
    """Group descriptor: which scales to refine by, and the query's sketches.

    The scale list is carried explicitly (rather than reconstructed from the
    group bounds) so the builder and the querier cannot disagree about
    rounding; the bounds are kept as part of the address for fidelity but do
    not influence the content.
    """

    scales: tuple[int, ...]
    sketches: tuple[Point, ...]
    group_bounds: tuple[int, int]

    def __post_init__(self) -> None:
        if not self.scales:
            raise ValueError("aux address must cover at least one scale")
        if len(self.scales) != len(self.sketches):
            raise ValueError("one sketch per scale required")
        if any(b <= a for a, b in zip(self.scales, self.scales[1:])):
            raise ValueError("aux scales must be strictly increasing")


@dataclass(frozen=True)
class CellAddress:
    kind: str
    scale: int = -1
    sketch: Point | None = None  # main address, or the aux subtable index
    aux: AuxAddress | None = None
    point: Point | None = None

    @classmethod
    def main(cls, scale: int, sketch: Point) -> "CellAddress":
        return cls(kind=KIND_MAIN, scale=scale, sketch=sketch)

    @classmethod
    def aux_cell(cls, scale: int, subtable: Point, aux: AuxAddress) -> "CellAddress":
        return cls(kind=KIND_AUX, scale=scale, sketch=subtable, aux=aux)

    @classmethod
    def member(cls, kind: str, point: Point) -> "CellAddress":
        if kind not in (KIND_MEMBER_EXACT, KIND_MEMBER_NEAR1):
            raise ValueError(f"not a membership kind: {kind!r}")
        return cls(kind=kind, point=point)


def db_sketch_bits(
    db: Database, coin: PublicCoin, params: Params, role: str, scale: int, rows: int
) -> np.ndarray:
    """(n, ceil(rows/64)) sketch words of the whole database, memoized per database.

    Packed like `Database.packed`, so a sketch compares to them as a point does.
    """
    key = (coin.seed, params.alpha, role, scale, rows)
    words = db._sketch_memo.get(key)
    if words is None:
        matrix = derive_matrix(coin, role, scale, rows, db.dim, params.alpha)
        words = sketch_apply_batch(matrix, db)
        words.flags.writeable = False
        db._sketch_memo[key] = words
    return words


def _within(words: np.ndarray, p: Point, radius: float) -> np.ndarray:
    """Boolean mask of the rows of `words` within Hamming distance `radius` of `p`."""
    return np.bitwise_count(words ^ p.packed()).sum(axis=1) <= radius


def _first(db: Database, mask: np.ndarray) -> Point | None:
    """The lowest-index database point the mask selects, or None."""
    idx = int(np.argmax(mask))
    return db.points[idx] if mask[idx] else None


def _candidate_mask(
    db: Database, coin: PublicCoin, params: Params, scale: int, addr: Point
) -> np.ndarray:
    """Boolean mask of points whose scale-`scale` sketch is near `addr`."""
    if addr.dim != params.r_main:
        raise DimensionMismatch(
            f"main address has {addr.dim} bits, expected {params.r_main}"
        )
    words = db_sketch_bits(db, coin, params, "main", scale, params.r_main)
    return _within(words, addr, main_threshold(params, scale))


def _refinement_mask(
    db: Database, coin: PublicCoin, params: Params, scale: int, sk: Point, s_real: float
) -> np.ndarray:
    """Boolean mask of points whose scale-`scale` auxiliary sketch is near `sk`."""
    rows = params.r_aux(s_real)
    if sk.dim != rows:
        raise DimensionMismatch(f"aux sketch has {sk.dim} bits, expected {rows}")
    words = db_sketch_bits(db, coin, params, "aux", scale, rows)
    return _within(words, sk, aux_threshold(params, scale, s_real))


def main_cell(
    db: Database, coin: PublicCoin, params: Params, scale: int, addr: Point
) -> CellContent:
    """Content of the scale-`scale` main table at address `addr`.

    The lowest-index database point within the scale's sketch threshold of
    the address, or None when no point qualifies.
    """
    return _first(db, _candidate_mask(db, coin, params, scale, addr))


def aux_cell(
    db: Database,
    coin: PublicCoin,
    params: Params,
    scale: int,
    subtable: Point,
    aux: AuxAddress,
    s_int: int,
    s_real: float,
) -> int:
    """Content of the auxiliary table at (scale, subtable)[aux].

    Builds the candidate set for the subtable address, refines it through
    the group's auxiliary scales in order, and stores the first slot r whose
    refinement keeps more than an n^(-1/s) fraction of the candidates;
    stores s+1 when every slot's refinement is small.
    """
    cand = _candidate_mask(db, coin, params, scale, subtable)
    csize = int(np.count_nonzero(cand))
    for r, (aux_scale, sk) in enumerate(zip(aux.scales, aux.sketches), start=1):
        refined = cand & _refinement_mask(db, coin, params, aux_scale, sk, s_real)
        if not fraction_at_most(int(np.count_nonzero(refined)), csize, db.n, s_real):
            return r
    return s_int + 1


def membership_cell(db: Database, kind: str, x: Point) -> CellContent:
    """Exact or distance-1 membership lookup (one virtual probe)."""
    if x.dim != db.dim:
        raise DimensionMismatch(f"query dim {x.dim} vs database dim {db.dim}")
    if kind not in (KIND_MEMBER_EXACT, KIND_MEMBER_NEAR1):
        raise ValueError(f"not a membership kind: {kind!r}")
    return _first(db, _within(db.packed, x, 0 if kind == KIND_MEMBER_EXACT else 1))


def cell_content(
    db: Database,
    coin: PublicCoin,
    params: Params,
    address: CellAddress,
    s_int: int | None = None,
    s_real: float | None = None,
) -> CellContent:
    """Dispatch one address to its table; the probe engine's sole gateway."""
    if address.kind == KIND_MAIN:
        return main_cell(db, coin, params, address.scale, address.sketch)
    if address.kind == KIND_AUX:
        if s_int is None or s_real is None:
            raise ValueError("aux probes require the session's refinement parameter s")
        return aux_cell(
            db, coin, params, address.scale, address.sketch, address.aux, s_int, s_real
        )
    return membership_cell(db, address.kind, address.point)


def table_metadata(params: Params, s_real: float | None = None) -> dict:
    """Cell counts the materialized construction would occupy."""
    scales = params.scale_count + 1
    meta = {
        "main_tables": scales,
        "main_cells_per_table": 2**params.r_main,
        "member_exact_cells": params.n**2,
        "member_near1_cells": ((params.d + 1) * params.n) ** 2,
    }
    if s_real is not None:
        s_int = max(1, round(s_real))
        meta["aux_subtables"] = scales * 2**params.r_main
        meta["aux_cells_per_subtable"] = (
            (params.scale_count + 1) ** 2 * s_int * 2 ** (params.r_aux(s_real) * s_int)
        )
    return meta
