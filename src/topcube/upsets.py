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
no division.  On the two words x and y, an intersection or union is then
one integer operation, a difference is ``x ^ (x & y)`` and ``a <= b`` is
``x & y == x``: neither builds ``~y``, which for a Python integer is a
negative one as wide as the word, so ``x & ~y`` costs about twice as much.
``_window`` caps the window at ``MAX_WINDOW_BITS``: aligning two sets
whose window would be wider raises ``ValueError`` before any such word is
built.  ``famexpr`` windows its generator meets through the same routine.
A finite set is its preperiod word alone, so ``_require_point`` states the
constructors' rule once: no member at or beyond the cap, with one text for
every constructor.  A complement is no constructor: ``~`` of an infinite set
with a long preperiod is a finite set that may reach past the cap.  So a
listing (``describe``, ``iter_members``) reads the segments themselves and
builds no wider word.

Every value is kept in canonical form, so structural equality of UPSet
values is extensional equality.  Canonical form means the period is
primitive (not a power of a shorter word) and the preperiod is as short as
possible (its last bit differs from the bit the rotated period would produce
in its place).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice, takewhile
from math import lcm
from typing import Iterable, Iterator

from .cube import set_bits

# The widest word an operation may build: 2^20 bits (128 KiB), far above
# the windows of the packaged fixtures and tests, and small enough that no
# input can make one operation run for minutes.
MAX_WINDOW_BITS = 1 << 20

_BITS = frozenset("01")
_CHUNK_BYTES = 128  # _lazy_bits' first chunk


def _repeat(block: int, length: int, width: int) -> int:
    """The `length`-bit `block` repeated to fill `width` bits.

    `block` must be below 2**length: each doubling ORs in a copy shifted by
    the current length, which only lands above the copies already there.
    """
    while length < width:
        block |= block << length
        length <<= 1
    return block & ((1 << width) - 1)


def _lazy_bits(bits: int, length: int) -> Iterable[int]:
    """The set bits of a `length`-bit word, increasing: at once up to 1,024
    bits, else lazily, in chunks of 1,024 bits and then each twice the last."""
    if length <= _CHUNK_BYTES << 3:
        return set_bits(bits)
    data = bits.to_bytes((length + 7) >> 3, "little")
    ends = [_CHUNK_BYTES * ((2 << k) - 1) for k in range(len(data).bit_length())]
    return ((start << 3) + j for start, end in zip([0] + ends, ends)
            for j in set_bits(int.from_bytes(data[start:end], "little")))


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


def _require_point(point: int) -> None:
    """Refuse a finite set reaching `point`: its word has point + 1 bits."""
    if point >= MAX_WINDOW_BITS:
        raise ValueError(f"point {point} is at or beyond MAX_WINDOW_BITS = {MAX_WINDOW_BITS}")


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
        # fixes the word ends at d.  For s dividing the length L, rotating
        # by s fixes the word exactly when the word shifted down by s equals
        # its low L - s bits, a test that builds no rotated word.
        length = per_len
        for p in _prime_factors(length):
            while per_len % p == 0 and (per >> (s := per_len // p)
                                        == per & ((1 << (length - s)) - 1)):
                per_len = s
        per &= (1 << per_len) - 1
    if pre_len:
        # The preperiod's top bits that agree with the period continued
        # backwards are redundant: drop them and rotate the period to start
        # where the shorter preperiod now ends.  Continued backwards over a
        # preperiod no longer than the period, the period is its own top
        # pre_len bits; a longer preperiod needs the rotated period repeated.
        if pre_len <= per_len:
            behind = per >> (per_len - pre_len)
        else:
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
            _require_point(self._pre_len - 1)  # canonical: the top preperiod bit is set

    def _store(self, pre_len: int, pre: int, per_len: int, per: int) -> None:
        # the slots' own setters, which __setattr__ does not intercept: about
        # half the cost of object.__setattr__ looking each slot up by name
        _set_pre_len(self, pre_len)
        _set_pre(self, pre)
        _set_per_len(self, per_len)
        _set_per(self, per)

    @classmethod
    def _raw(cls, pre_len: int, pre: int, per_len: int, per: int) -> "UPSet":
        """The value with these segments, which must already be canonical."""
        out = object.__new__(cls)
        _set_pre_len(out, pre_len)  # as in _store, without a method call
        _set_pre(out, pre)
        _set_per_len(out, per_len)
        _set_per(out, per)
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
        _require_point(top)
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
        """All members strictly below `below`.

        A bound within the preperiod only cuts its word; a wider one builds
        a `below`-bit word, so it must be at most MAX_WINDOW_BITS.
        """
        if below > max(MAX_WINDOW_BITS, self._pre_len):
            raise ValueError(f"members below {below} need a {below}-bit word, "
                             f"beyond MAX_WINDOW_BITS = {MAX_WINDOW_BITS}")
        return set_bits(self._word(max(below, 0)))

    def iter_members(self) -> Iterator[int]:
        yield from _lazy_bits(self._pre, self._pre_len)
        start, offsets = self._pre_len, []
        for j in _lazy_bits(self._per, self._per_len):
            offsets.append(j)
            yield start + j
        while offsets:
            start += self._per_len
            for j in offsets:
                yield start + j

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
        return UPSet._split(start, period, x ^ (x & y))

    def __invert__(self) -> "UPSet":
        # flipping every bit keeps the period primitive and the last
        # preperiod bit unlike the period's, so the result is canonical
        return UPSet._raw(self._pre_len, self._pre ^ ((1 << self._pre_len) - 1),
                          self._per_len, self._per ^ ((1 << self._per_len) - 1))

    def __le__(self, other: "UPSet") -> bool:
        _, _, x, y = self._aligned(other)
        return x & y == x

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
            _set_hash(self, h)
            return h

    def __repr__(self) -> str:
        return f"UPSet({self.pre!r}, {self.period!r})"

    def describe(self, limit: int = 8) -> str:
        """Human-readable listing, e.g. '{1, 3, 5, ...}'.

        A finite set lists every member, all below its preperiod's end.
        An infinite one lists its first `limit` members below the end of its
        fourth period, read lazily from ``iter_members``.
        """
        if self.is_finite:
            return "{" + ", ".join(map(str, self.members(self._pre_len))) + "}"
        bound = self._pre_len + self._per_len * 4
        shown = islice(takewhile(bound.__gt__, self.iter_members()), limit)
        return "{" + ", ".join(map(str, shown)) + ", ...}"

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


# the slots' own descriptor setters, bound once: the only writers of a
# value's slots, which UPSet.__setattr__ refuses to all else
_set_pre_len, _set_pre = UPSet._pre_len.__set__, UPSet._pre.__set__
_set_per_len, _set_per = UPSet._per_len.__set__, UPSet._per.__set__
_set_hash = UPSet._hash.__set__
