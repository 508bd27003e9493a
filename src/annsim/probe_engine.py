"""Round-limited probe engine.

A session enforces the batch discipline of the cost model: probes are
submitted one round at a time, contents come back only after the whole
batch is in, and nothing inside a batch can depend on another probe of the
same batch because the caller has no way to see those contents earlier.
Duplicate addresses inside one batch are coalesced before counting, since a
real table answers a cell once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Database, Params, Point
from .errors import DimensionMismatch, RoundBudgetExceeded, SessionClosed
from .randomness import PublicCoin
from .tables import CellAddress, CellContent, cell_content


@dataclass(frozen=True)
class Phase:
    """One completed shrinking step of a search.

    The step starts from `window` (l, u), whose scale grid rho(0..tau) is
    `grid`, locates slot `r_star` and leaves `new_window`. `case` is the general search's move (1, 2 or 3); it is
    None for the simple search's rounds, which have a single move.
    """

    window: tuple[int, int]
    grid: tuple[int, ...]
    r_star: int
    case: int | None
    new_window: tuple[int, int]


@dataclass
class ProbeTranscript:
    """One repetition's record, filled in by its session as the search runs.

    `rounds` holds each round's distinct (address, content) pairs. The
    searches note the rest: one `Phase` per completed shrinking round or
    phase, the window the completion round covers, which membership probe
    ended the search early, and the scale whose cell gave the answer.
    """

    rounds: list[tuple[tuple[CellAddress, CellContent], ...]] = field(default_factory=list)
    phases: list[Phase] = field(default_factory=list)
    final_window: tuple[int, int] | None = None
    early_exit: str | None = None
    result_scale: int | None = None

    @property
    def windows(self) -> list[tuple[int, int]]:
        """The window each completed shrinking step started from."""
        return [phase.window for phase in self.phases]

    @property
    def rounds_used(self) -> int:
        return len(self.rounds)

    @property
    def probes_total(self) -> int:
        return sum(len(batch) for batch in self.rounds)

    def serialize(self) -> str:
        lines = []
        for r, batch in enumerate(self.rounds, start=1):
            for addr, content in batch:
                lines.append(
                    f"round {r}: {_address_str(addr)} -> {_content_str(content)}"
                )
        return "\n".join(lines)


class ProbeSession:
    """One query's view of the tables, good for at most `params.k` rounds.

    `params` is the query's one parameter record: the searches read it here,
    and the aux cells read its s.
    """

    def __init__(self, db: Database, coin: PublicCoin, params: Params):
        if params.d != db.dim:
            raise DimensionMismatch(f"params d {params.d} vs database dim {db.dim}")
        self.db = db
        self.coin = coin
        self.params = params
        self.transcript = ProbeTranscript()
        self._closed = False

    def probe_round(self, addresses: list[CellAddress]) -> list[CellContent]:
        """Submit one parallel batch; contents come back in request order."""
        if self._closed:
            raise SessionClosed("session already closed")
        if not addresses:
            raise ValueError("a probe round must contain at least one address")
        if self.transcript.rounds_used >= self.params.k:
            raise RoundBudgetExceeded(f"round budget {self.params.k} exhausted")
        distinct: dict[CellAddress, CellContent] = {}
        for addr in addresses:
            if addr not in distinct:
                distinct[addr] = cell_content(self.db, self.coin, self.params, addr)
        self.transcript.rounds.append(tuple(distinct.items()))
        return [distinct[addr] for addr in addresses]

    def close(self) -> ProbeTranscript:
        if self._closed:
            raise SessionClosed("session already closed")
        self._closed = True
        return self.transcript


def _address_str(addr: CellAddress) -> str:
    if addr.kind == "main":
        return f"main:{addr.scale}:{addr.sketch.to_hex()}"
    if addr.kind == "aux":
        lo, hi = addr.aux.group_bounds
        scales = ",".join(str(s) for s in addr.aux.scales)
        sketches = ",".join(sk.to_hex() for sk in addr.aux.sketches)
        return f"aux:{addr.scale}:{addr.sketch.to_hex()}.{lo}-{hi}.{scales}.{sketches}"
    return f"{addr.kind}:-:{addr.point.to_hex()}"


def _content_str(content: CellContent) -> str:
    if content is None:
        return "EMPTY"
    if isinstance(content, Point):
        return f"point:{content.to_hex()}"
    if isinstance(content, int):
        return f"int:{content}"
    raise TypeError(f"not a cell content: {content!r}")
