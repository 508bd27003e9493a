"""The simple k-round search over distance scales.

The search keeps a window (l, u] of scale indices with the invariant that
the candidate set at scale l is empty while the one at scale u is not. Each
of at most k-1 shrinking rounds probes tau-1 evenly spaced scales inside the
window and narrows it by roughly a factor of tau; one completion round then
probes every scale left in the window in parallel and returns the content of
the smallest non-empty one. The branching factor tau is the smallest integer
whose k-round reach covers the whole scale grid, which caps the total probe
count at (tau-1)(k-1) + tau, plus the two first-round membership probes that
dispose of the exact-match and distance-1 degenerate cases.
"""

from __future__ import annotations

from .core import Params, Point
from .probe_engine import Phase, ProbeSession
from .search_common import check_entry, completion_round, main_address, scale_grid, search_round


def branching_factor(k: int, count: int) -> int:
    """Smallest integer tau >= 2 with tau * (tau/2)^(k-1) >= count, for k >= 1.

    The inequality is evaluated exactly as tau^k >= count * 2^(k-1) in
    integer arithmetic. From k = 2 * count.bit_length() + 2 on, tau is at
    its floor (3, or 2 when count <= 2), so a larger k is clamped to that one.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, 2 * count.bit_length() + 2)
    target = count << (k - 1)
    tau = 2
    while tau**k < target:
        tau += 1
    return tau


def probe_bound_simple(params: Params) -> int:
    """Worst-case total probes: (tau-1)(k-1) + tau + 2 membership probes."""
    tau = branching_factor(params.k, params.scale_count)
    return (tau - 1) * (params.k - 1) + tau + 2


def run_simple(x: Point, session: ProbeSession) -> Point:
    """Run the k-round search for one query on a fresh session, with the session's params."""
    params = session.params
    check_entry(x, session)
    k = params.k
    l, u, tau = 0, params.scale_count, branching_factor(k, params.scale_count)

    # Shrinking rounds; capped at k-1 so the completion round always fits
    # the budget even when the tau inequality is tight.
    while u - l >= tau and len(session.transcript.phases) < k - 1:
        grid = scale_grid(l, u, tau)
        probe_scales = grid[1:tau]
        addresses = [main_address(session.coin, params, x, i) for i in probe_scales]
        hit, contents = search_round(session, x, addresses)
        if hit is not None:
            return hit
        r_star = tau
        for r, content in enumerate(contents, start=1):
            if content is not None:
                r_star = r
                break
        new_l, new_u = grid[r_star - 1], grid[r_star]
        if new_u - new_l > (u - l) / tau + 1 + 1e-9:
            raise AssertionError("window shrank too little")
        session.transcript.phases.append(Phase((l, u), tuple(grid), r_star, None, (new_l, new_u)))
        l, u = new_l, new_u

    return completion_round(session, x, l, u)
