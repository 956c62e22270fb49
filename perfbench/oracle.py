"""Brute-force key x time oracle over the tuples acknowledged so far.

The oracle is built only from the benchmark's own generated input: a
tuple enters it once the ``insert_batch`` call carrying it has returned.
Each expected answer is a plain filter over those tuples; the only help
it takes is a timestamp-sorted list, so a time window becomes a slice
before the key filter runs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, List, Tuple


def default_ident(t) -> Hashable:
    """Identity of a tuple: key, timestamp and payload."""
    return (t.key, t.ts, t.payload)


@dataclass
class Mismatch:
    """How a result differs from the oracle's answer."""

    lost: int = 0
    duplicated: int = 0
    spurious: int = 0
    examples: List[str] = field(default_factory=list)

    @property
    def errors(self) -> int:
        """Tuples wrong in the result: lost, duplicated or spurious."""
        return self.lost + self.duplicated + self.spurious

    def __bool__(self) -> bool:
        return self.errors > 0


class Oracle:
    """Expected query answers over acknowledged tuples."""

    def __init__(self, ident: Callable[[object], Hashable] = default_ident):
        self._ident = ident
        #: Acknowledged tuples sorted by timestamp, with a parallel key
        #: list for bisecting.
        self._ts: List[float] = []
        self._rows: List[Tuple[float, int, Hashable]] = []

    def __len__(self) -> int:
        return len(self._rows)

    def time_span(self) -> Tuple[float, float]:
        """Earliest and latest acknowledged timestamp."""
        return self._ts[0], self._ts[-1]

    def acknowledge(self, tuples: Iterable) -> None:
        """Add the tuples of a batch whose insert call returned."""
        ident = self._ident
        for t in tuples:
            row = (t.ts, t.key, ident(t))
            if not self._ts or t.ts >= self._ts[-1]:
                self._ts.append(t.ts)
                self._rows.append(row)
            else:
                i = bisect_right(self._ts, t.ts)
                self._ts.insert(i, t.ts)
                self._rows.insert(i, row)

    def expected(
        self, key_lo: int, key_hi: int, t_lo: float, t_hi: float
    ) -> List[Hashable]:
        """Identities of acknowledged tuples with ``key_lo <= key <=
        key_hi`` and ``t_lo <= ts <= t_hi`` (both bounds inclusive)."""
        i = bisect_left(self._ts, t_lo)
        j = bisect_right(self._ts, t_hi)
        return [
            ident for _ts, key, ident in self._rows[i:j]
            if key_lo <= key <= key_hi
        ]

    def compare(self, got: Iterable, expected: Iterable[Hashable]) -> Mismatch:
        """Multiset difference between a result's tuples and ``expected``."""
        want = Counter(expected)
        have = Counter(self._ident(t) for t in got)
        out = Mismatch()
        for ident, n in have.items():
            w = want.get(ident, 0)
            if n > w:
                if w:
                    out.duplicated += n - w
                else:
                    out.spurious += n
                if len(out.examples) < 3:
                    out.examples.append(f"extra {ident!r} x{n - w}")
        for ident, w in want.items():
            n = have.get(ident, 0)
            if n < w:
                out.lost += w - n
                if len(out.examples) < 3:
                    out.examples.append(f"missing {ident!r} x{w - n}")
        return out

    def check(
        self, got: Iterable, key_lo: int, key_hi: int, t_lo: float, t_hi: float
    ) -> Mismatch:
        """Compare one query result against the brute-force answer."""
        return self.compare(got, self.expected(key_lo, key_hi, t_lo, t_hi))

