"""The dataset generator drawn one point at a time, kept as the reference
for the differential tests in test_harness.py.

Every value is a Python int made from one `Stream.words` call, duplicates
are found with a set, and both shuffles take one scalar `below()` per
Fisher-Yates step. `below`, `distinct_indices` and `shuffled` are the scalar
stream methods kept verbatim, so the reference shares no shuffle code with
`annsim`; only the raw words come from `annsim.randomness`. The production
generator draws blocks of uint64 words and shuffles with one vectorized
rejection test per block; both must give the same query, points and order.
"""

from __future__ import annotations

from annsim.errors import ConfigError
from annsim.randomness import TAG_DATA, PublicCoin, Stream

_MASK64 = (1 << 64) - 1


class ScalarStream(Stream):
    """A stream whose integer draws take one word at a time."""

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (_MASK64 + 1) - (_MASK64 + 1) % bound
        while True:
            w = self.word()
            if w < limit:
                return w % bound

    def distinct_indices(self, count: int, bound: int) -> list[int]:
        """count distinct uniform indices in [0, bound)."""
        if count > bound:
            raise ValueError("cannot draw more distinct indices than the range holds")
        chosen: set[int] = set()
        while len(chosen) < count:
            chosen.add(self.below(bound))
        return sorted(chosen)

    def shuffled(self, items: list) -> list:
        """Fisher-Yates shuffle of a copy of `items`."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


def reference_database(n, d, dataset, seed, limit=None):
    """(point values in database order, query value), one point per draw.

    Planted datasets give up on draw `limit` + 1 (default 10000 n), even when
    that draw would have completed the database.
    """
    stream = ScalarStream(PublicCoin(seed).stream_key(TAG_DATA))

    def value():
        words = stream.words((d + 63) // 64)
        return int.from_bytes(words.tobytes(), "little") & ((1 << d) - 1)

    x = value()
    values, seen = [], set()
    gap, cap = -1, None
    if dataset.kind == "planted":
        planted = x
        for j in stream.distinct_indices(dataset.plant_dist, d):
            planted ^= 1 << j
        values, seen = [planted], {planted}
        gap = dataset.plant_gap
        cap = 10000 * n if limit is None else limit
    elif d <= 24 and n > 2 ** (d - 1):
        values = stream.shuffled(list(range(2**d)))[:n]
    draws = 0
    while len(values) < n:
        draws += 1
        if cap is not None and draws > cap:
            raise ConfigError("could not sample enough far points; gap too large")
        v = value()
        if v not in seen and (v ^ x).bit_count() > gap:
            seen.add(v)
            values.append(v)
    return stream.shuffled(values), x
