"""One-probe near-neighbor search.

For a distance budget lambda the querier reads a single main cell at the
scale just covering lambda. If any database point lies within lambda, that
scale's candidate set is nonempty (under the sketch sandwich) and whatever
point the cell holds is within gamma*lambda; if no point lies within
gamma*lambda the cell is empty and the answer is NO.
"""

from __future__ import annotations

from .core import Params, Point, first_scale
from .probe_engine import ProbeSession
from .search_common import check_entry, main_address


def near_scale(lam: float, params: Params) -> int:
    """Smallest scale i with alpha^i >= lambda, decided exactly from
    `params.alpha_sq`, with lambda clamped to [1, d]."""
    return first_scale(max(1.0, min(lam, float(params.d))), params.alpha_sq)


def run_near(x: Point, lam: float, session: ProbeSession) -> Point | None:
    """Answer a lambda-near-neighbor query with exactly one probe: the
    cell's point, or None (an empty cell) for NO."""
    check_entry(x, session)
    params = session.params
    scale = near_scale(lam, params)
    (content,) = session.probe_round([main_address(session.coin, params, x, scale)])
    return content
