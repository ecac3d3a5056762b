"""Eventually periodic subsets of the naturals.

A set is a preperiod plus a nonempty period, each stored as a
``(length, bits)`` pair of integers in which bit ``j`` is member ``j`` of
that segment: ``i`` is a member when ``i`` is below the preperiod length and
bit ``i`` of the preperiod is set, otherwise when bit
``(i - preperiod length) % period length`` of the period is set.  The
strings ``pre`` and ``period`` (character ``j`` is bit ``j``) are the spelling
for constructors, ``repr`` and JSON.

This class of sets is closed under complement, union, intersection and
difference, so it forms a Boolean algebra with a decision procedure.  Two
sets are aligned on one window, stated once by ``_window``: it starts after
the longer preperiod and holds one period of the lcm of their period
lengths, and on it each set is a single integer, its period block repeated
above its preperiod.  A block is repeated by doubling: OR the word with
itself shifted by its current length until it is wide enough, then cut it
to the window, so a k-bit block fills w bits in about log2(w/k) shifts and
no division.  An intersection, union or difference is then one integer
operation on the two words, and ``a <= b`` is ``a & ~b == 0``.
``_window`` caps the window at ``MAX_WINDOW_BITS``: aligning two sets
whose window would be wider, or building a finite set reaching a point at
or beyond the cap, raises ``ValueError`` before any such word is built.
``famexpr`` windows its generator meets through the same routine.

Every value is kept in canonical form, so structural equality of UPSet
values is extensional equality.  Canonical form means the period is
primitive (not a power of a shorter word) and the preperiod is as short as
possible (its last bit differs from the bit the rotated period would produce
in its place).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from math import lcm
from typing import Iterable, Iterator

from .cube import set_bits

# The widest word an operation may build: 2^20 bits (128 KiB), far above
# the windows of the packaged fixtures and tests, and small enough that no
# input can make one operation run for minutes.
MAX_WINDOW_BITS = 1 << 20

_BITS = frozenset("01")
_CHUNK_BITS = 1024
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1


def _repeat(block: int, length: int, width: int) -> int:
    """The `length`-bit `block` repeated to fill `width` bits.

    `block` must be below 2**length: each doubling ORs in a copy shifted by
    the current length, which only lands above the copies already there.
    """
    while length < width:
        block |= block << length
        length <<= 1
    return block & ((1 << width) - 1)


def _window(start: int, period: int, pre_len: int, per_len: int) -> tuple[int, int, int]:
    """(start, period, width) of the window shared by a word periodic from
    `start` with period `period` and a set with the given segment lengths.

    It starts after the longer preperiod and holds one period of the lcm of
    the two periods.  The one statement of the cap: a window wider than
    MAX_WINDOW_BITS raises ValueError, before any word of it is built.
    """
    # a conditional, not max(): every aligned operation and query pays for this line
    start, period = start if start >= pre_len else pre_len, lcm(period, per_len)
    width = start + period
    if width > MAX_WINDOW_BITS:
        raise ValueError(f"a window of {start} preperiod bits and a {period}-bit period "
                         f"is {width} bits, beyond MAX_WINDOW_BITS = {MAX_WINDOW_BITS}")
    return start, period, width


def _rotate(bits: int, length: int, shift: int) -> int:
    """The `length`-bit word with bit j moved to bit (j + shift) % length."""
    shift %= length
    if not shift:
        return bits
    return (bits << shift | bits >> (length - shift)) & ((1 << length) - 1)


@lru_cache(maxsize=256)
def _prime_factors(n: int) -> tuple[int, ...]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _canonical(pre_len: int, pre: int, per_len: int, per: int) -> tuple[int, int, int, int]:
    """The canonical segments of the set the given segments spell."""
    if per_len > 1:
        # The rotations fixing the period form a subgroup of Z_per_len,
        # generated by its shortest period d, which divides per_len; so
        # dividing per_len by each prime factor while the quotient still
        # fixes the word ends at d.
        length = per_len
        for p in _prime_factors(length):
            while per_len % p == 0 and _rotate(per, length, per_len // p) == per:
                per_len //= p
        per &= (1 << per_len) - 1
    if pre_len:
        # The preperiod's top bits that agree with the period continued
        # backwards are redundant: drop them and rotate the period to start
        # where the shorter preperiod now ends.
        behind = _repeat(_rotate(per, per_len, pre_len), per_len, pre_len)
        keep = (pre ^ behind).bit_length()
        if keep < pre_len:
            per = _rotate(per, per_len, pre_len - keep)
            pre_len, pre = keep, pre & ((1 << keep) - 1)
    return pre_len, pre, per_len, per


def _word_str(bits: int, length: int) -> str:
    return format(bits, f"0{length}b")[::-1] if length else ""


def _str_word(word: str) -> int:
    return int(word[::-1], 2) if word else 0


class UPSet:
    """An eventually periodic subset of the naturals, kept in canonical form."""

    __slots__ = ("_pre_len", "_pre", "_per_len", "_per", "_hash")

    def __init__(self, pre: str = "", period: str = "0"):
        if not period:
            raise ValueError("period word must be nonempty")
        for word in (pre, period):
            if not _BITS.issuperset(word):
                raise ValueError(f"bit words may only contain 0 and 1: {word!r}")
        self._store(*_canonical(len(pre), _str_word(pre), len(period), _str_word(period)))
        if self.is_finite:
            _window(self._pre_len, 0, 0, 0)  # a finite set's word is its preperiod alone

    def _store(self, pre_len: int, pre: int, per_len: int, per: int) -> None:
        object.__setattr__(self, "_pre_len", pre_len)
        object.__setattr__(self, "_pre", pre)
        object.__setattr__(self, "_per_len", per_len)
        object.__setattr__(self, "_per", per)

    @classmethod
    def _raw(cls, pre_len: int, pre: int, per_len: int, per: int) -> "UPSet":
        """The value with these segments, which must already be canonical."""
        out = object.__new__(cls)
        out._store(pre_len, pre, per_len, per)
        return out

    @classmethod
    def _finite(cls, word: int) -> "UPSet":
        """The finite set whose members are the set bits of `word`."""
        # canonical as it stands: the top preperiod bit is set, the period is 0
        return cls._raw(word.bit_length(), word, 1, 0)

    @classmethod
    def _split(cls, start: int, period: int, word: int) -> "UPSet":
        """The set whose window word is `word`: `start` preperiod bits, then one period."""
        return cls._raw(*_canonical(start, word & ((1 << start) - 1), period, word >> start))

    def __setattr__(self, name, value):
        raise AttributeError("UPSet values are immutable")

    @property
    def pre(self) -> str:
        """The preperiod as a 0/1 string, character i for point i."""
        return _word_str(self._pre, self._pre_len)

    @property
    def period(self) -> str:
        """The period as a 0/1 string, character j for point len(pre) + j."""
        return _word_str(self._per, self._per_len)

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "UPSet":
        return cls("", "0")

    @classmethod
    def naturals(cls) -> "UPSet":
        return cls("", "1")

    @classmethod
    def singleton(cls, k: int) -> "UPSet":
        return cls.from_ints([k])

    @classmethod
    def from_ints(cls, items: Iterable[int]) -> "UPSet":
        """The finite set containing exactly `items`."""
        got = set(items)
        if min(got, default=0) < 0:
            raise ValueError("naturals only")
        top = max(got, default=-1)
        if top >= MAX_WINDOW_BITS:
            raise ValueError(f"point {top} is at or beyond MAX_WINDOW_BITS = {MAX_WINDOW_BITS}")
        word = bytearray(b"0" * (top + 1))  # character top - k is point k
        for k in got:
            word[top - k] = 49  # ord("1")
        return cls._finite(int(word, 2) if got else 0)

    # -- membership and iteration ------------------------------------------

    def __contains__(self, i: int) -> bool:
        if i < 0:
            return False
        if i < self._pre_len:
            return bool((self._pre >> i) & 1)
        return bool((self._per >> ((i - self._pre_len) % self._per_len)) & 1)

    def members(self, below: int) -> list[int]:
        """All members strictly below `below`."""
        return set_bits(self._word(max(below, 0)))

    def iter_members(self) -> Iterator[int]:
        # the preperiod a chunk at a time, so a long one is never listed whole
        for start in range(0, self._pre_len, _CHUNK_BITS):
            for j in set_bits((self._pre >> start) & _CHUNK_MASK):
                yield start + j
        offsets = set_bits(self._per)
        start = self._pre_len
        while offsets:
            for j in offsets:
                yield start + j
            start += self._per_len

    def first_members(self, k: int) -> list[int]:
        """The k smallest members, in increasing order."""
        out = list(islice(self.iter_members(), k))
        if len(out) < k:
            raise ValueError(f"set has only {len(out)} members, wanted {k}")
        return out

    # -- size predicates -----------------------------------------------------

    @property
    def is_finite(self) -> bool:
        # canonical all-zero period collapses to one 0 bit
        return self._per == 0

    @property
    def is_empty(self) -> bool:
        return self._per == 0 and self._pre == 0

    # -- Boolean algebra -----------------------------------------------------

    def _word(self, width: int) -> int:
        """Membership of 0..width-1 as one integer, bit i for point i."""
        n = self._pre_len
        if width <= n:
            return self._pre & ((1 << width) - 1)
        return self._pre | _repeat(self._per, self._per_len, width - n) << n

    def _aligned(self, other: "UPSet") -> tuple[int, int, int, int]:
        """(start, period, word of self, word of other) on their common window."""
        start, period, width = _window(self._pre_len, self._per_len,
                                       other._pre_len, other._per_len)
        return start, period, self._word(width), other._word(width)

    def __and__(self, other: "UPSet") -> "UPSet":
        start, period, x, y = self._aligned(other)
        return UPSet._split(start, period, x & y)

    def __or__(self, other: "UPSet") -> "UPSet":
        start, period, x, y = self._aligned(other)
        return UPSet._split(start, period, x | y)

    def __sub__(self, other: "UPSet") -> "UPSet":
        start, period, x, y = self._aligned(other)
        return UPSet._split(start, period, x & ~y)

    def __invert__(self) -> "UPSet":
        # flipping every bit keeps the period primitive and the last
        # preperiod bit unlike the period's, so the result is canonical
        return UPSet._raw(self._pre_len, self._pre ^ ((1 << self._pre_len) - 1),
                          self._per_len, self._per ^ ((1 << self._per_len) - 1))

    def __le__(self, other: "UPSet") -> bool:
        _, _, x, y = self._aligned(other)
        return (x & ~y) == 0

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, UPSet):
            return NotImplemented
        return (self._pre == other._pre and self._per == other._per
                and self._pre_len == other._pre_len and self._per_len == other._per_len)

    def __hash__(self) -> int:
        # computed on the first call and kept: values are immutable
        try:
            return self._hash
        except AttributeError:
            h = hash((self._pre_len, self._pre, self._per_len, self._per))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return f"UPSet({self.pre!r}, {self.period!r})"

    def describe(self, limit: int = 8) -> str:
        """Human-readable listing, e.g. '{1, 3, 5, ...}'."""
        if self.is_empty:
            return "{}"
        shown = self.members(self._pre_len + self._per_len * 4)
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
