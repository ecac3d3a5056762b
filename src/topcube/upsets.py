"""Eventually periodic subsets of the naturals.

A set is stored as a preperiod bit word plus a nonempty period bit word:
``i`` is a member when ``i < len(pre)`` and ``pre[i] == '1'``, otherwise when
``period[(i - len(pre)) % len(period)] == '1'``.  This class of sets is closed
under complement, union, intersection and difference, so it forms a Boolean
algebra with a decision procedure: align the preperiods to the longer one and
the periods to the lcm of their lengths, then compare bitwise.  Two sets with
aligned representations are equal iff they agree on the preperiod plus one
full period window.

Every constructor canonicalizes, so structural equality of UPSet values is
extensional equality.  Canonical form means the period is primitive (not a
power of a shorter word) and the preperiod is as short as possible (its last
bit differs from the bit the rotated period would produce in its place).
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Iterator

_BITS = frozenset("01")


def _primitive_root(word: str) -> str:
    """Shortest word whose repetition yields `word`."""
    k = len(word)
    for d in range(1, k + 1):
        if k % d == 0 and word == word[:d] * (k // d):
            return word[:d]
    return word


class UPSet:
    """An eventually periodic subset of the naturals, kept in canonical form."""

    __slots__ = ("pre", "period")

    def __init__(self, pre: str = "", period: str = "0"):
        if not period:
            raise ValueError("period word must be nonempty")
        for word in (pre, period):
            if not _BITS.issuperset(word):
                raise ValueError(f"bit words may only contain 0 and 1: {word!r}")
        period = _primitive_root(period)
        # Shrink the preperiod: if its last bit is what the period (rotated
        # one step right) would produce there, the bit is redundant.
        while pre and pre[-1] == period[-1]:
            period = period[-1] + period[:-1]
            pre = pre[:-1]
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "period", period)

    def __setattr__(self, name, value):
        raise AttributeError("UPSet values are immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "UPSet":
        return cls("", "0")

    @classmethod
    def naturals(cls) -> "UPSet":
        return cls("", "1")

    @classmethod
    def evens(cls) -> "UPSet":
        return cls("", "10")

    @classmethod
    def odds(cls) -> "UPSet":
        return cls("", "01")

    @classmethod
    def singleton(cls, k: int) -> "UPSet":
        if k < 0:
            raise ValueError("naturals only")
        return cls("0" * k + "1", "0")

    @classmethod
    def from_ints(cls, items: Iterable[int]) -> "UPSet":
        """The finite set containing exactly `items`."""
        got = sorted(set(items))
        if any(k < 0 for k in got):
            raise ValueError("naturals only")
        if not got:
            return cls.empty()
        bits = ["0"] * (got[-1] + 1)
        for k in got:
            bits[k] = "1"
        return cls("".join(bits), "0")

    # -- membership and iteration ------------------------------------------

    def __contains__(self, i: int) -> bool:
        if i < 0:
            return False
        if i < len(self.pre):
            return self.pre[i] == "1"
        return self.period[(i - len(self.pre)) % len(self.period)] == "1"

    def members(self, below: int) -> list[int]:
        """All members strictly below `below`."""
        return [i for i in range(below) if i in self]

    def iter_members(self) -> Iterator[int]:
        i = 0
        while True:
            if i in self:
                yield i
            elif self.is_finite and i >= len(self.pre):
                return
            i += 1

    def first_members(self, k: int) -> list[int]:
        """The k smallest members, in increasing order."""
        out = []
        for i in self.iter_members():
            if len(out) == k:
                break
            out.append(i)
        if len(out) < k:
            raise ValueError(f"set has only {len(out)} members, wanted {k}")
        return out

    # -- size predicates -----------------------------------------------------

    @property
    def is_finite(self) -> bool:
        # canonical all-zero period collapses to "0"
        return self.period == "0"

    @property
    def is_empty(self) -> bool:
        return self.period == "0" and "1" not in self.pre

    def size(self) -> int:
        """Number of members; raises on infinite sets."""
        if not self.is_finite:
            raise ValueError("infinite set")
        return self.pre.count("1")

    # -- Boolean algebra -----------------------------------------------------

    def _combine(self, other: "UPSet", op) -> "UPSet":
        pl = max(len(self.pre), len(other.pre))
        window = lcm(len(self.period), len(other.period))
        bits = "".join(
            "1" if op(i in self, i in other) else "0" for i in range(pl + window)
        )
        return UPSet(bits[:pl], bits[pl:])

    def __and__(self, other: "UPSet") -> "UPSet":
        return self._combine(other, lambda a, b: a and b)

    def __or__(self, other: "UPSet") -> "UPSet":
        return self._combine(other, lambda a, b: a or b)

    def __sub__(self, other: "UPSet") -> "UPSet":
        return self._combine(other, lambda a, b: a and not b)

    def __invert__(self) -> "UPSet":
        flip = str.maketrans("01", "10")
        return UPSet(self.pre.translate(flip), self.period.translate(flip))

    def issubset(self, other: "UPSet") -> bool:
        return (self & other) == self

    def __le__(self, other: "UPSet") -> bool:
        return self.issubset(other)

    def __lt__(self, other: "UPSet") -> bool:
        return self != other and self.issubset(other)

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, UPSet):
            return NotImplemented
        return self.pre == other.pre and self.period == other.period

    def __hash__(self) -> int:
        return hash((self.pre, self.period))

    def __repr__(self) -> str:
        return f"UPSet({self.pre!r}, {self.period!r})"

    def describe(self, limit: int = 8) -> str:
        """Human-readable listing, e.g. '{1, 3, 5, ...}'."""
        if self.is_empty:
            return "{}"
        shown = self.members(len(self.pre) + len(self.period) * 4)
        if self.is_finite:
            return "{" + ", ".join(map(str, shown)) + "}"
        return "{" + ", ".join(map(str, shown[:limit])) + ", ...}"

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {"pre": self.pre, "period": self.period}

    @classmethod
    def from_json(cls, data: dict) -> "UPSet":
        if (
            not isinstance(data, dict)
            or set(data) != {"pre", "period"}
            or not all(isinstance(v, str) for v in data.values())
        ):
            raise ValueError(f"expected {{'pre':…,'period':…}} bit strings, got {data!r}")
        return cls(data["pre"], data["period"])
