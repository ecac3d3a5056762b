"""Finite ground sets, their subsets, and families of subsets.

A subset of the n-point ground set is an n-bit mask.  A family of subsets (a
point of the cube 2^P(X)) is a 2^n-bit word whose bit m says whether the
subset with mask m belongs to the family.  Meet, join and order of the cube
are then single word operations (AND, OR, submask test), and exhaustive
enumeration of all families is a counter loop.  Encodings are canonical, so
word equality is extensional equality.

One level up, a set of families is a clopen word of the cube: a
2^(2^n)-bit integer whose bit w says whether family w belongs to the set
(n <= 4; at n = 5 a word would be 2^32 bits, so sweeps refuse it).  The
projection words HAS[a] ("subset a is a member") generate these words
under AND, OR and complement, so a whole-cube sweep is a handful of
big-integer operations, and its solutions are the word's set bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator

MAX_POINTS = 5          # individual values stay small
MAX_SWEEP_POINTS = 4    # a clopen word has 2^(2^n) bits: 65,536 at n=4


@dataclass(frozen=True)
class GroundSet:
    """The set {0, .., n-1} of points."""

    n: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_POINTS:
            raise ValueError(f"ground set size must be 1..{MAX_POINTS}, got {self.n}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def num_subsets(self) -> int:
        return 1 << self.n

    def subset_masks(self) -> range:
        return range(1 << self.n)

    def require_sweepable(self) -> None:
        if self.n > MAX_SWEEP_POINTS:
            raise ValueError(
                f"exhaustive sweep needs n <= {MAX_SWEEP_POINTS}, got {self.n}"
            )


class Family:
    """A set of subsets of the ground set: one point of the cube 2^P(X)."""

    __slots__ = ("universe", "word")

    def __init__(self, universe: GroundSet, word: int):
        if not 0 <= word < (1 << universe.num_subsets):
            raise ValueError(f"family word out of range for n={universe.n}")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "word", word)

    def __setattr__(self, name, value):
        raise AttributeError("Family values are immutable")

    @classmethod
    def from_masks(cls, universe: GroundSet, masks: Iterable[int]) -> "Family":
        word = 0
        for m in masks:
            if not 0 <= m <= universe.full_mask:
                raise ValueError(f"subset mask {m} out of range for n={universe.n}")
            word |= 1 << m
        return cls(universe, word)

    # -- membership ----------------------------------------------------------

    def contains_mask(self, mask: int) -> bool:
        return bool((self.word >> mask) & 1)

    def member_masks(self) -> list[int]:
        return [m for m in self.universe.subset_masks() if (self.word >> m) & 1]

    def __len__(self) -> int:
        return bin(self.word).count("1")

    # -- the cube's lattice structure -----------------------------------------

    def meet(self, other: "Family") -> "Family":
        _same_universe(self, other)
        return Family(self.universe, self.word & other.word)

    def join(self, other: "Family") -> "Family":
        _same_universe(self, other)
        return Family(self.universe, self.word | other.word)

    def leq(self, other: "Family") -> bool:
        _same_universe(self, other)
        return self.word | other.word == other.word

    __and__ = meet
    __or__ = join
    __le__ = leq

    # -- value semantics -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Family):
            return NotImplemented
        return self.universe == other.universe and self.word == other.word

    def __hash__(self) -> int:
        return hash((self.universe.n, self.word))

    def _member_points(self) -> list[list[int]]:
        """Each member mask as its increasing list of points."""
        n = self.universe.n
        return [[p for p in range(n) if (m >> p) & 1] for m in self.member_masks()]

    def __repr__(self) -> str:
        sets = ", ".join("{" + ", ".join(map(str, pts)) + "}" for pts in self._member_points())
        return f"Family(n={self.universe.n}, {{{sets}}})"

    # -- JSON -------------------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.universe.n, "sets": self._member_points()}

    @classmethod
    def from_json(cls, data: dict) -> "Family":
        if not isinstance(data, dict) or set(data) != {"n", "sets"}:
            raise ValueError("family JSON needs exactly the keys 'n' and 'sets'")
        universe = GroundSet(int(data["n"]))
        word = 0
        for entry in data["sets"]:
            if not isinstance(entry, list):
                raise ValueError(f"each set must be a list of points, got {entry!r}")
            if entry != sorted(set(entry)):
                raise ValueError(f"points must be sorted and duplicate-free: {entry}")
            mask = 0
            for p in entry:
                if not isinstance(p, int) or not 0 <= p < universe.n:
                    raise ValueError(f"point {p!r} out of range for n={universe.n}")
                mask |= 1 << p
            if (word >> mask) & 1:
                raise ValueError(f"duplicate set {entry} in family JSON")
            word |= 1 << mask
        return cls(universe, word)


def enumerate_families(universe: GroundSet) -> Iterator[Family]:
    """All 2^(2^n) families in increasing word order (n <= 4 only)."""
    universe.require_sweepable()
    for word in range(1 << universe.num_subsets):
        yield Family(universe, word)


# -- clopen words: sets of families as 2^(2^n)-bit truth tables -----------------


def cube_word(universe: GroundSet) -> int:
    """The whole cube as a clopen word: one set bit per family (n <= 4 only)."""
    universe.require_sweepable()
    return (1 << (1 << universe.num_subsets)) - 1


def projection_words(universe: GroundSet) -> tuple[int, ...]:
    """HAS[a] for every subset mask a (n <= 4 only).

    HAS[a] is the clopen word whose bit w is set exactly when family w
    contains subset a: the subbasic clopen "a is a member".  Its absence
    counterpart is cube_word ^ HAS[a], and any finite Boolean combination of
    subbasic conditions is the same combination of these words.
    """
    universe.require_sweepable()
    return _projection_words(universe.n)


@cache
def _projection_words(n: int) -> tuple[int, ...]:
    # Knuth's magic mask (TAOCP 4A, 7.1.3): as w counts up, bit a of w runs
    # 2^a zeros then 2^a ones, over and over, so HAS[a] is that one block
    # times the repunit with a 1 every 2^(a+1) bits.
    size = 1 << (1 << n)
    out = []
    for a in range(1 << n):
        half = 1 << a
        block = ((1 << half) - 1) << half
        out.append(block * (((1 << size) - 1) // ((1 << 2 * half) - 1)))
    return tuple(out)


def set_bits(word: int) -> list[int]:
    """The positions of the set bits of a nonnegative word, increasing."""
    bits = bin(word)[:1:-1]  # bit i at index i
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out


def _same_universe(a, b) -> None:
    if a.universe != b.universe:
        raise ValueError(f"universe mismatch: n={a.universe.n} vs n={b.universe.n}")
