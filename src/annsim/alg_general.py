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

The asymptotic parameter rules need k beyond any desk-scale budget, so an
override mode accepts explicit (s, tau); the case logic and its correctness
contract are identical in both modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Params, Point, scale_count
from .errors import InvalidRoundBudget
from .probe_engine import ProbeSession
from .randomness import PublicCoin
from .search_common import (
    completion_round,
    main_address,
    membership_addresses,
    scale_grid,
    search_round,
)
from .sketch import derive_matrix, sketch_apply
from .tables import AuxAddress, CellAddress


@dataclass(frozen=True)
class GeneralParams:
    """Refinement depth s and branching factor tau for the phased search."""

    s_real: float
    s_int: int
    tau: int
    mode: str = "asymptotic"

    def __post_init__(self) -> None:
        if self.s_int < 1:
            raise ValueError("s must be >= 1")
        if self.tau < 2:
            raise ValueError("tau must be >= 2")


def params_general(k: int, c: float, d: int, alpha: float) -> GeneralParams:
    """Derive (s, tau) from the round budget by the asymptotic rules.

    Requires k > 5c^2/(c-2); s = (1/4 - 1/(2c))k - 1/4, and tau is the
    smallest integer >= 2 with (tau/2)^((k-1)/2 - 2s) >= ceil(I/k) where I
    is the number of scales.
    """
    if c <= 2:
        raise ValueError("c must be > 2")
    if k <= 5 * c * c / (c - 2):
        raise InvalidRoundBudget(
            f"k={k} too small: the phased search needs k > 5c^2/(c-2) = {5 * c * c / (c - 2):g}"
        )
    s_real = (0.25 - 1.0 / (2.0 * c)) * k - 0.25
    s_int = max(1, round(s_real))
    exponent = (k - 1) / 2.0 - 2.0 * s_real  # equals k/c
    target = math.ceil(scale_count(d, alpha) / k)
    tau = 2
    while (tau / 2.0) ** exponent < target:
        tau += 1
    return GeneralParams(s_real=s_real, s_int=s_int, tau=tau, mode="asymptotic")


def override_params(s_int: int, tau: int) -> GeneralParams:
    """Explicit (s, tau) for desk-scale experiments; s_real is set to s."""
    return GeneralParams(s_real=float(s_int), s_int=s_int, tau=tau, mode="override")


def build_group_addresses(
    l: int,
    u: int,
    tau: int,
    s_int: int,
    x: Point,
    coin: PublicCoin,
    params: Params,
    s_real: float,
) -> list[AuxAddress]:
    """Group descriptors for the grid scales rho(1)..rho(tau-1).

    Group j covers grid slots 1+(j-1)s .. min(js, tau-1); every group holds
    s scales except possibly the last, which holds the remainder. Each
    descriptor carries the covered scales, the query's auxiliary sketches at
    those scales, and the group's grid bounds.
    """
    if u - l < 1:
        raise ValueError("window must be nonempty")
    if tau < 2:
        raise ValueError("tau must be >= 2")
    grid = scale_grid(l, u, tau)
    rows = params.r_aux(s_real)
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


def probe_bound_general(params: Params, gp: GeneralParams) -> int:
    """Worst-case total probes for the phased search.

    (k-1)/2 phases of ceil((tau-1)/s)+2 probes, a completion round of at
    most max(3*tau, k) probes, and the two membership probes.
    """
    # Integer ceilings, exact for any tau and k: ceil((k-1)/2) is k // 2.
    phase = -(-(gp.tau - 1) // gp.s_int) + 2
    return params.k // 2 * phase + max(3 * gp.tau, params.k) + 2


def run_general(
    x: Point,
    session: ProbeSession,
    params: Params,
    gp: GeneralParams,
) -> Point:
    """Run the phased k-round search for one query on a fresh session."""
    if session.transcript.rounds:
        raise ValueError("run_general needs a fresh session")
    if x.dim != params.d:
        raise ValueError(f"query dim {x.dim} does not match params d {params.d}")
    tau, s_int, s_real = gp.tau, gp.s_int, gp.s_real
    l, u = 0, params.scale_count
    pending = membership_addresses(x)
    threshold = max(3 * tau, params.k)
    record = session.transcript

    while u - l >= threshold:
        record.windows.append((l, u))
        grid = scale_grid(l, u, tau)
        top_sketch = main_address(session.coin, params, x, u)
        aux_groups = build_group_addresses(l, u, tau, s_int, x, session.coin, params, s_real)
        aux_addrs = [
            CellAddress.aux_cell(u, top_sketch.sketch, g) for g in aux_groups
        ]
        hit, contents = search_round(session, pending, [top_sketch] + aux_addrs)
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
        record.phases.append(
            {
                "window": record.windows[-1],
                "grid": grid,
                "r_star": r_star,
                "case": case,
                "new_window": (l, u),
            }
        )

    return completion_round(session, x, l, u, params, pending)
