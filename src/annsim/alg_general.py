"""The k-round search with auxiliary tables and shrinking phases.

Where the simple search spends a whole round per window shrink, this one
compresses the per-scale candidate-set size information of up to s grid
scales into a single auxiliary probe. A phase spends one round on the
grouped auxiliary probes (plus the window-top main probe) to locate

    r* = the smallest grid slot whose refinement set is still a large
         fraction of the candidate set at the window top,

then at most one more round on a single main probe just below that slot to
decide how to move the window. Either the window shrinks by a factor of
about tau, or the candidate set at the window top drops by an n^(-1/s)
factor; both can happen only boundedly often, so at most (k-1)/2 phases run
before the completion round.

The asymptotic parameter rules need k beyond any desk-scale budget, so a
caller may also set (s, tau) in `Params` directly; the case logic and its
correctness contract are the same either way.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .core import Params, Point
from .errors import InvalidRoundBudget
from .probe_engine import Phase, ProbeSession
from .randomness import PublicCoin
from .search_common import check_entry, completion_round, main_address, scale_grid, search_round
from .sketch import derive_matrix, sketch_apply
from .tables import AuxAddress, CellAddress


def params_general(params: Params) -> Params:
    """`params` with (s, tau) derived from its round budget by the asymptotic rules.

    Requires k > 5c^2/(c-2); s = (1/4 - 1/(2c))k - 1/4, and tau is the
    smallest integer >= 2 with (tau/2)^((k-1)/2 - 2s) >= ceil(I/k) where I
    is the number of scales.
    """
    k, c = params.k, params.c
    if k <= 5 * c * c / (c - 2):
        raise InvalidRoundBudget(
            f"k={k} too small: the phased search needs k > 5c^2/(c-2) = {5 * c * c / (c - 2):g}"
        )
    s = (0.25 - 1.0 / (2.0 * c)) * k - 0.25
    exponent = (k - 1) / 2.0 - 2.0 * s  # equals k/c
    target = math.ceil(params.scale_count / k)
    tau = 2
    while (tau / 2.0) ** exponent < target:
        tau += 1
    return replace(params, s=s, tau=tau)


def build_group_addresses(
    l: int, u: int, x: Point, coin: PublicCoin, params: Params
) -> list[AuxAddress]:
    """Group descriptors for the grid scales rho(1)..rho(tau-1).

    Group j covers grid slots 1+(j-1)s .. min(js, tau-1); every group holds
    s scales except possibly the last, which holds the remainder. Each
    descriptor carries the covered scales, the query's auxiliary sketches at
    those scales, and the group's grid bounds. s and tau come from `params`.
    """
    if u - l < 1:
        raise ValueError("window must be nonempty")
    tau, s_int = params.tau, params.s_int
    grid = scale_grid(l, u, tau)
    rows = params.r_aux
    groups = []
    n_groups = math.ceil((tau - 1) / s_int)
    for j in range(1, n_groups + 1):
        lo = 1 + (j - 1) * s_int
        hi = min(j * s_int, tau - 1)
        scales = tuple(grid[r] for r in range(lo, hi + 1))
        sketches = tuple(
            sketch_apply(derive_matrix(coin, "aux", sc, rows, params.d, params.alpha), x)
            for sc in scales
        )
        bounds = (grid[lo], grid[min(j * s_int, tau)])
        groups.append(AuxAddress(scales=scales, sketches=sketches, group_bounds=bounds))
    return groups


def probe_bound_general(params: Params) -> int:
    """Worst-case total probes for the phased search.

    (k-1)/2 phases of ceil((tau-1)/s)+2 probes, a completion round of at
    most max(3*tau, k) probes, and the two membership probes.
    """
    # Integer ceilings, exact for any tau and k: ceil((k-1)/2) is k // 2.
    phase = -(-(params.tau - 1) // params.s_int) + 2
    return params.k // 2 * phase + max(3 * params.tau, params.k) + 2


def run_general(x: Point, session: ProbeSession) -> Point:
    """Run the phased k-round search for one query on a fresh session,
    with the session's params, which carry s and tau."""
    params = session.params
    check_entry(x, session)
    if params.s is None or params.tau is None:
        raise ValueError("run_general needs params with s and tau (see params_general)")
    tau, s_int = params.tau, params.s_int
    l, u = 0, params.scale_count
    threshold = max(3 * tau, params.k)

    while u - l >= threshold:
        window = (l, u)
        grid = scale_grid(l, u, tau)
        top_sketch = main_address(session.coin, params, x, u)
        aux_groups = build_group_addresses(l, u, x, session.coin, params)
        aux_addrs = [
            CellAddress.aux_cell(u, top_sketch.sketch, g) for g in aux_groups
        ]
        hit, contents = search_round(session, x, [top_sketch] + aux_addrs)
        if hit is not None:
            return hit

        r_star = tau
        for j, slot in enumerate(contents[1:], start=1):
            if not isinstance(slot, int):
                raise AssertionError(f"aux cell returned {slot!r}, not a slot index")
            if slot != s_int + 1:
                r_star = (j - 1) * s_int + slot
                break

        if r_star == 1:
            u = grid[1] + 1
            case = 1
        else:
            # One extra round: is the scale just below slot r*-1 still empty?
            below = max(l, grid[r_star - 1] - 1)
            (content_b,) = session.probe_round([main_address(session.coin, params, x, below)])
            if content_b is None:
                l = below
                if r_star < tau:
                    u = grid[r_star] + 1
                case = 2
            else:
                u = below
                case = 3
        session.transcript.phases.append(Phase(window, tuple(grid), r_star, case, (l, u)))

    return completion_round(session, x, l, u)
