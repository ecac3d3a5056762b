"""Finite ground sets, their subsets, and families of subsets.

A subset of the n-point ground set is an n-bit mask.  A family of subsets (a
point of the cube 2^P(X)) is a 2^n-bit word whose bit m says whether the
subset with mask m belongs to the family.  Meet, join and order of the cube
are then single word operations (AND, OR, submask test), and exhaustive
enumeration of all families is a counter loop.  Encodings are canonical, so
word equality is extensional equality.  The principal ultrafilter at point
y is the magic mask mu_y (bit m set when y is in m); ``remove_point`` and
``add_point`` move a family word to one point fewer (the trace) or one
more (the preimage), with blocks of 2^x bits as the only unit of work.
``meet_closure`` grows a set of words closed under AND: ``lattice`` builds
the meets of four or more generators with it, and ``famexpr`` the meets of
its generated families.

One level up, a set of families is a clopen word of the cube: a
2^(2^n)-bit integer whose bit w says whether family w belongs to the set
(n <= 4; at n = 5 a word would be 2^32 bits, so sweeps refuse it).  The
projection words HAS[a] ("subset a is a member"), the same magic masks
one level up, and their complements LACKS[a] ("subset a is absent") are
the subbasis.  One builder, ``_literal_words(k)``, makes both over any k
coordinates, once per k: the cube is k = 2^n, 256 KB of words at n = 4,
and a certificate solved on a cylinder (``certificates``) reads them at
its k free coordinates.  They generate these words under AND and OR, so
a whole-cube sweep is a handful of big-integer operations, and its
solutions are the word's set bits: a word of at most 64 bits (a batch
certificate's cylinder at n = 4, or a family word) is read directly, a
wider one a 64-bit limb at a time with the zero limbs skipped.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import compress
from typing import Iterable

MAX_POINTS = 5          # individual values stay small
MAX_SWEEP_POINTS = 4    # a clopen word has 2^(2^n) bits: 65,536 at n=4
ROUTE_CACHE_SIZE = 1024  # interval_words pairs memoised: all 256 at n=3, 16 MB at n=4
_BIG_ENDIAN = sys.byteorder == "big"  # set_bits reads its limbs little-endian


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
        return [[p for p in range(n) if (m >> p) & 1] for m in set_bits(self.word)]

    def __repr__(self) -> str:
        sets = ", ".join("{" + ", ".join(map(str, pts)) + "}" for pts in self._member_points())
        return f"Family(n={self.universe.n}, {{{sets}}})"


# -- clopen words: sets of families as 2^(2^n)-bit truth tables -----------------


@cache
def cube_word(universe: GroundSet) -> int:
    """The whole cube as a clopen word: one set bit per family (n <= 4 only).

    Built once per ground set: at n = 4 each fresh 65,536-bit word costs
    more than the memo lookup.
    """
    universe.require_sweepable()
    return (1 << (1 << universe.num_subsets)) - 1


def projection_words(universe: GroundSet) -> tuple[int, ...]:
    """HAS[a] for every subset mask a (n <= 4 only).

    HAS[a] is the clopen word whose bit w is set exactly when family w
    contains subset a: the subbasic clopen "a is a member".  Any finite
    Boolean combination of subbasic conditions is the same combination of
    these words and their complements.
    """
    universe.require_sweepable()
    return _literal_words(universe.num_subsets)[0]


@cache
def _literal_words(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(HAS, LACKS) over k coordinates, one word per coordinate each.

    HAS[i] is the 2^k-bit word whose bit s is bit i of s, and LACKS[i] is
    its complement.  With k = 2^n these are the subbasic clopens of the
    cube on n points; a certificate solved on a cylinder reads them at k
    free coordinates.
    """
    full = (1 << (1 << k)) - 1
    has = tuple(magic_mask(i, k) for i in range(k))
    return has, tuple(full ^ h for h in has)


def magic_mask(k: int, m: int) -> int:
    """The 2^m-bit word whose bit i is bit k of i (k < m).

    Knuth's magic mask (TAOCP 4A, 7.1.3): as i counts up, bit k of i runs
    2^k zeros then 2^k ones, over and over, so the word is that one block
    times the repunit with a 1 every 2^(k+1) bits.  With m = n it is the
    family word of the principal ultrafilter at point k; with m = 2^n it is
    the clopen word HAS[k].
    """
    half = 1 << k
    block = ((1 << half) - 1) << half
    return block * (((1 << (1 << m)) - 1) // ((1 << 2 * half) - 1))


def remove_point(word: int, n: int, x: int) -> int:
    """The trace of family word ``word`` on n points with point x removed.

    The bits come in blocks of 2^x, alternately subsets without x and with
    x; ORing each such pair into one block keeps every member with x cut
    away, and the points above x move down one place.
    """
    size = 1 << x
    block = (1 << size) - 1
    out = 0
    for j in range(1 << (n - 1 - x)):
        pair = word >> (2 * j * size)
        out |= ((pair | pair >> size) & block) << (j * size)
    return out


def add_point(word: int, n: int, x: int) -> int:
    """The preimage of family word ``word`` on n points, with a point
    inserted at x (0 <= x <= n) and the points from x on moved up one.

    Each block of 2^x bits is put back in both places, without x and with
    x, so a subset of the larger set is a member exactly when its trace is.
    At x = n that is ``word | (word << 2^n)``.
    """
    size = 1 << x
    block = (1 << size) - 1
    out = 0
    for j in range(1 << (n - x)):
        b = (word >> (j * size)) & block
        out |= (b | b << size) << (2 * j * size)
    return out


@lru_cache(maxsize=ROUTE_CACHE_SIZE)
def interval_words(n: int, x: int) -> tuple[int, int]:
    """The families above and below family word x on n points, as clopen
    words (n <= 4 only).

    A family is above x when it contains every set in x: the AND over a in x
    of HAS[a].  It is below x when it omits every set outside x: the AND over
    a not in x of LACKS[a].  Memoised on (n, x) for
    ``lattice.relations_set``; the interval-identity check reads each pair
    until it has recorded x as an element where both routes agree.
    """
    up = down = cube_word(GroundSet(n))
    has, lacks = _literal_words(1 << n)
    for a in range(1 << n):
        if (x >> a) & 1:
            up &= has[a]
        else:
            down &= lacks[a]
    return up, down


def family_word(universe: GroundSet, member) -> int:
    """The word of a Family, or of an int, as a family of this ground set.

    A Family must live on this ground set, and an int must be a word of it
    (0 <= w < 2^(2^n)); anything else raises ValueError rather than being
    read as a family of another size.
    """
    if isinstance(member, Family):
        if member.universe != universe:
            raise ValueError(
                f"a family of the n={member.universe.n} ground set given for n={universe.n}"
            )
        return member.word
    word = int(member)
    if not 0 <= word < 1 << universe.num_subsets:
        raise ValueError(f"member word {word} out of range for n={universe.n}")
    return word


def set_bits(word: int) -> list[int]:
    """The positions of the set bits of a nonnegative word, increasing.

    A word that fits one 64-bit limb is read directly.  A wider one is read
    as 64-bit limbs, and ``compress`` skips the zero limbs in C, so a sparse
    solution word of a sweep costs one pass over its bytes and a few steps
    per set bit.  Each limb gives up its set bits lowest first (Knuth,
    TAOCP 4A, 7.1.3: x & -x is the lowest set bit of x).
    """
    out = []
    append = out.append
    if word.bit_length() <= 64:
        while word:
            low = word & -word
            append(low.bit_length() - 1)
            word ^= low
        return out
    count = (word.bit_length() + 63) >> 6
    limbs = array("Q", word.to_bytes(count << 3, "little"))
    if _BIG_ENDIAN:
        limbs.byteswap()
    for i in compress(range(count), limbs):
        limb = limbs[i]
        base = (i << 6) - 1
        while limb:
            low = limb & -limb
            append(base + low.bit_length())
            limb ^= low
    return out


def meet_closure(pool: set[int], words) -> set[int]:
    """Grow ``pool``, a set of words closed under AND, by ``words``; return it.

    Adding one word g to a set M closed under AND keeps it closed once the
    words g & m (m in M) join it, so the pool grows one word at a time.
    """
    for g in words:
        if g not in pool:
            pool.update([g & m for m in pool])
            pool.add(g)
    return pool

