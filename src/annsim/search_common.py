"""Pieces shared by the search algorithms.

All three searches make the same entry check. The two multi-round searches
walk the same scale grid, carry the same two degenerate membership probes in
their first round, and finish with the same completion round over the
remaining window of scales.
"""

from __future__ import annotations

from .core import Params, Point
from .errors import AssumptionViolated
from .probe_engine import ProbeSession
from .sketch import derive_matrix, sketch_apply
from .tables import KIND_MEMBER_EXACT, KIND_MEMBER_NEAR1, CellAddress, CellContent


def check_entry(x: Point, session: ProbeSession) -> None:
    """Reject a session that has probed already and a query whose dimension
    is not the session's params d."""
    if session.transcript.rounds:
        raise ValueError("a search needs a fresh session")
    if x.dim != session.params.d:
        raise ValueError(f"query dim {x.dim} does not match params d {session.params.d}")


def scale_grid(l: int, u: int, tau: int) -> list[int]:
    """Grid markers rho(0..tau) = floor(l + r*(u-l)/tau), exact in integers."""
    return [l + (r * (u - l)) // tau for r in range(tau + 1)]


def query_sketch(coin, params: Params, x: Point, scale: int) -> Point:
    matrix = derive_matrix(coin, "main", scale, params.r_main, params.d, params.alpha)
    return sketch_apply(matrix, x)


def main_address(coin, params: Params, x: Point, scale: int) -> CellAddress:
    return CellAddress.main(scale, query_sketch(coin, params, x, scale))


def membership_addresses(x: Point) -> list[CellAddress]:
    return [
        CellAddress.member(KIND_MEMBER_EXACT, x),
        CellAddress.member(KIND_MEMBER_NEAR1, x),
    ]


def search_round(
    session: ProbeSession,
    x: Point,
    addresses: list[CellAddress],
) -> tuple[Point | None, list[CellContent]]:
    """Send one round of `addresses`; the search's first round carries x's
    two membership probes in front.

    When a membership probe hits, the hit comes back first (an exact match
    wins over a distance-1 point), the record notes which one, and the search
    is over; otherwise the hit is None.
    The contents of `addresses` come back second, in request order.
    """
    if session.transcript.rounds:
        return None, session.probe_round(addresses)
    exact, near1, *contents = session.probe_round(membership_addresses(x) + addresses)
    hit = exact if exact is not None else near1
    if hit is not None:
        session.transcript.early_exit = "exact" if exact is not None else "near1"
    return hit, contents


def completion_round(
    session: ProbeSession,
    x: Point,
    l: int,
    u: int,
) -> Point:
    """Probe every scale in (l, u] in parallel; return the smallest hit.

    The record notes the window and the scale of the hit.

    An all-empty window means the sketch sandwich failed for this coin, so
    the condition is surfaced as AssumptionViolated rather than guessed
    around.
    """
    session.transcript.final_window = (l, u)
    scales = list(range(l + 1, u + 1))
    addresses = [main_address(session.coin, session.params, x, i) for i in scales]
    hit, contents = search_round(session, x, addresses)
    if hit is not None:
        return hit
    for scale, content in zip(scales, contents):
        if content is not None:
            session.transcript.result_scale = scale
            return content
    raise AssumptionViolated(
        f"no candidate in completion window ({l}, {u}]: sketch sandwich failed"
    )
