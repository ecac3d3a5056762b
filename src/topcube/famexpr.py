"""Symbolic families of subsets of the naturals with decidable membership.

A family expression denotes a (possibly uncountable) collection of subsets of
the naturals, each subset an eventually periodic UPSet.  The grammar is
closed and every variant admits an exact membership test:

  Explicit(members)        the listed sets
  DownPow(s)               all subsets of s
  NearDown(s)              all sets whose part outside s is finite
  TopGen(subbase)          the topology generated: arbitrary unions of finite
                           intersections of subbase sets, with the empty set
                           and the whole space adjoined
  LatGen(gens)             closure of gens under binary intersection/union
  LatGenSing(gens)         LatGen of gens together with every singleton {k}
  UnionFam(a, b)           set union of two families
  ChainInitials(enum, xs)  the initial segments C_m = first m+1 members of an
                           infinite set, together with the listed extras

Membership for the generated variants rests on a normal form: in the
distributive lattice of sets, anything built from generators by binary
intersections and unions is a union of "meets", where a meet is the
intersection of a nonempty subcollection of generators.  A candidate is
therefore a member iff it equals the union of the meets lying below it
(LatGen additionally requires at least one such meet; LatGenSing allows a
finite remainder, covered by singletons).  The three kinds share one base,
``_Generated``, which states that normal form once: it checks the
generators, keeps their meets and writes the JSON, and each kind states
only its own ``contains``.  Generator lists are capped at GENERATOR_CAP,
and the meet pool at MAX_POOL_BITS bits in all, so the pool stays
enumerable.

The generated variants decide membership on one window.  Their meets are
plain integers on the generators' window (the longest preperiod plus the lcm
of the period lengths), ANDed once at construction by ``cube.meet_closure``,
the routine that also builds the meets of ``lattice.close_words`` on four or
more words.  A query re-windows them, one at a time, to the candidate's
window with the generators (the longer preperiod plus the lcm of both
periods): each meet keeps its preperiod bits and has its period block
repeated by ``upsets._repeat``, the one routine that repeats blocks.  It
then ORs the meets below the candidate and compares one word.  Both windows
come from ``upsets._window``, the one statement of the window and of its
MAX_WINDOW_BITS cap, which aligns two UPSets too: generators whose joint
window is wider are refused with ValueError at construction, and so is a
candidate whose window with the generators is wider, at the query.

Every kind carries ``contains`` and ``to_json`` (which ``repr`` reads).  A
kind carries a probe only where a demo's check asks for it.
``union_below``, which ``fam_is_topology_sym`` asks of the powerset-chain
stages and their union, is on Explicit, DownPow, NearDown and UnionFam.
``probe_sets``, which the limit-point, ladder and limit-vs-union checks ask
of the initials-chain stages, union and top, is on Explicit and
ChainInitials.  Any other kind given to those checks raises AttributeError.
"""

from __future__ import annotations

from .cube import meet_closure
from .report import FAIL, PASS, Report, Stopwatch
from .upsets import MAX_POOL_BITS, UPSet, _repeat, _require_point, _window

GENERATOR_CAP = 16

_EMPTY = UPSet.empty()
_NATS = UPSet.naturals()


def _union(sets) -> UPSet:
    out = _EMPTY
    for s in sets:
        out = out | s
    return out


class FamExpr:
    """Base class; each kind has ``contains`` and ``to_json``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_json()})"


class Explicit(FamExpr):
    def __init__(self, members):
        self.members = tuple(dict.fromkeys(members))
        self._lookup = frozenset(self.members)

    def _grown(self, x: UPSet) -> "Explicit":
        """This family with x, not a member yet, listed before the last member:
        the tuple and the lookup set are copied in C, hashing no member again."""
        out = Explicit.__new__(Explicit)
        out.members = (*self.members[:-1], x, self.members[-1])
        out._lookup = self._lookup | {x}
        return out

    def contains(self, a: UPSet) -> bool:
        return a in self._lookup

    def union_below(self, w: UPSet) -> UPSet:
        return _union(m for m in self.members if m <= w)

    def probe_sets(self, cap: int = 8):
        return list(self.members)

    def to_json(self) -> dict:
        return {"kind": "Explicit", "members": [m.to_json() for m in self.members]}


class DownPow(FamExpr):
    """All subsets of a fixed set."""

    def __init__(self, bound: UPSet):
        self.bound = bound

    def contains(self, a: UPSet) -> bool:
        return a <= self.bound

    def union_below(self, w: UPSet) -> UPSet:
        return self.bound & w

    def to_json(self) -> dict:
        return {"kind": "DownPow", "bound": self.bound.to_json()}


class NearDown(FamExpr):
    """All sets contained in a fixed set up to finitely many exceptions."""

    def __init__(self, core: UPSet):
        self.core = core

    def contains(self, a: UPSet) -> bool:
        # the part of a outside core is finite when the aligned period is clear
        start, _, x, y = a._aligned(self.core)
        return (x ^ (x & y)) >> start == 0

    def union_below(self, w: UPSet) -> UPSet:
        # every singleton drawn from w is a member, so the union is w itself
        return w

    def to_json(self) -> dict:
        return {"kind": "NearDown", "core": self.core.to_json()}


class _Generated(FamExpr):
    """A family generated by a generator list: a member is a union of meets.

    The generators are checked, then their meets are kept as integers on
    the generators' window: every generator is periodic from `start` with a
    period dividing `period`, so each meet is one integer of start + period
    bits.  The pool grows one generator at a time, each at most doubling it
    and adding one word, and is refused as soon as its bits pass
    MAX_POOL_BITS, so it never holds more than twice that and one word.
    Each kind states only its ``contains``, its JSON key and whether an
    empty generator list is allowed.
    """

    _KEY = "gens"
    _ALLOWS_EMPTY = False

    def __init__(self, gens):
        gens = tuple(gens)
        if not gens and not self._ALLOWS_EMPTY:
            raise ValueError("generator list must be nonempty")
        if len(gens) > GENERATOR_CAP:
            raise ValueError(f"generator list capped at {GENERATOR_CAP}")
        if len(set(gens)) != len(gens):
            raise ValueError("generator list must be duplicate-free")
        self.gens = gens
        start, period, width = 0, 1, 1  # the window of no generator
        for g in gens:
            start, period, width = _window(start, period, g._pre_len, g._per_len)
        self.start, self.period = start, period
        words: set[int] = set()
        for k, g in enumerate(gens, 1):
            if len(meet_closure(words, [g._word(width)])) * width > MAX_POOL_BITS:
                raise ValueError(f"the meets of {k} generators are {len(words)} words of "
                                 f"{width} bits, beyond MAX_POOL_BITS = {MAX_POOL_BITS}")
        self.words = tuple(words)

    def _below(self, a: UPSet) -> tuple[int, int, int, bool]:
        """(start, word of a, union of the meets below a, whether any is).

        All on one window where a and every meet are periodic: the longer
        preperiod, then the lcm of the two periods.  Each meet is re-windowed
        as it is tested, so a query holds one re-windowed meet at a time.
        """
        start, period, width = _window(self.start, self.period, a._pre_len, a._per_len)
        words = self.words
        if (start, period) != (self.start, self.period):
            # each meet: its preperiod bits, then its period block repeated
            ms, mp = self.start, self.period
            pre_mask = (1 << ms) - 1
            words = (m & pre_mask | _repeat(m >> ms, mp, width - ms) << ms for m in words)
        x = a._word(width)
        union, hit = 0, False
        for m in words:
            if m & x == m:
                union |= m
                hit = True
        return start, x, union, hit

    def to_json(self) -> dict:
        return {"kind": type(self).__name__, self._KEY: [g.to_json() for g in self.gens]}


class TopGen(_Generated):
    """The topology generated by a finite subbase.

    A member is a union of meets of the subbase.  The empty set is the
    empty union, so the meets need no word 0; the naturals are adjoined by
    ``contains`` itself, since the union of the meets may not cover them.
    """

    _KEY = "subbase"

    def contains(self, a: UPSet) -> bool:
        _, x, union, _ = self._below(a)
        return union == x or a == _NATS


class LatGen(_Generated):
    """Closure of the generators under binary intersections and unions."""

    def contains(self, a: UPSet) -> bool:
        _, x, union, hit = self._below(a)
        return hit and union == x


class LatGenSing(_Generated):
    """LatGen of the generators together with every singleton.

    With the singletons available, a nonempty set is a member exactly when
    the part not covered by generator meets below it is finite.  The empty
    set is not a member: members are unions of nonempty building blocks.
    """

    _ALLOWS_EMPTY = True

    def contains(self, a: UPSet) -> bool:
        if a.is_empty:
            return False
        start, x, union, _ = self._below(a)
        return (x ^ union) >> start == 0  # union is inside x


class UnionFam(FamExpr):
    def __init__(self, a: FamExpr, b: FamExpr):
        self.a = a
        self.b = b

    def contains(self, a: UPSet) -> bool:
        return self.a.contains(a) or self.b.contains(a)

    def union_below(self, w: UPSet) -> UPSet:
        return self.a.union_below(w) | self.b.union_below(w)

    def to_json(self) -> dict:
        return {"kind": "UnionFam", "a": self.a.to_json(), "b": self.b.to_json()}


class ChainInitials(FamExpr):
    """The initial segments of an infinite set, plus listed extras.

    C_m is the set of the first m+1 members of `enum` in increasing order,
    that is `enum` cut just above its (m+1)-th member.  `initial_segment`
    memoises the segments it hands out, each built from the one before by
    setting one more bit.  `contains` compares words against `enum`
    directly and stores nothing, so asking about a long segment costs one
    word, not a memo entry per shorter segment.
    """

    def __init__(self, enum: UPSet, extras=()):
        if enum.is_finite:
            raise ValueError("enumerated set must be infinite")
        self.enum = enum
        self.extras = tuple(dict.fromkeys(extras))
        self._segments: list[UPSet] = []
        self._points = enum.iter_members()

    def initial_segment(self, m: int) -> UPSet:
        if m < 0:
            raise ValueError(f"segment index must be at least 0, got {m}")
        segments = self._segments
        while len(segments) <= m:
            k = next(self._points)
            try:
                _require_point(k)
            except ValueError as err:
                # members only grow, so every longer segment reaches past it too
                raise ValueError(f"initial segment {len(segments)}: {err}") from None
            word = segments[-1]._pre if segments else 0
            segments.append(UPSet._finite(word | 1 << k))
        return segments[m]

    def contains(self, a: UPSet) -> bool:
        if a in self.extras:
            return True
        # a finite nonempty set is a segment iff it is enum cut at its maximum
        return a.is_finite and not a.is_empty and a._pre == self.enum._word(a._pre_len)

    def probe_sets(self, cap: int = 8):
        return [self.enum, *self.extras,
                *(self.initial_segment(m) for m in range(cap))]

    def to_json(self) -> dict:
        return {
            "kind": "ChainInitials",
            "enum": self.enum.to_json(),
            "extras": [x.to_json() for x in self.extras],
        }


def fam_is_topology_sym(e: FamExpr, probes) -> Report:
    """Refutation search for the topology axioms on a symbolic family.

    Checks that the empty set and the space belong to e; that the listed
    probe pairs (when both components are members) have their intersection
    and union in e; that the running union of member components stays in e;
    and, for every probe component w, that the union of all members below w
    is again a member.  The last test is what catches families closed under
    finite unions that miss an infinite one: the union of members below the
    missing set reconstructs it exactly.  Each distinct set's membership is
    decided once per call, and each distinct component's union below it
    once.  The union below asks e for ``union_below``, so e is an Explicit,
    DownPow, NearDown or a UnionFam of them.  A pass means no refutation was
    found, not a proof; its work count is ``probe_pairs`` (the vacuous-pass
    rule of ``report.Stopwatch``).
    """
    probes = list(probes)
    timer = Stopwatch("topology-probe", {"expr": e.to_json(), "probe_pairs": len(probes)},
                      work="probe_pairs")

    def fail(kind: str, sets: list[UPSet]) -> Report:
        witness = {"kind": kind, "sets": [s.to_json() for s in sets],
                   "readable": [s.describe() for s in sets]}
        return timer.report(FAIL, witness)

    known: dict[UPSet, bool] = {}

    def member(x: UPSet) -> bool:
        # membership is decided once per distinct set in one call
        if x not in known:
            known[x] = e.contains(x)
        return known[x]

    if not member(_EMPTY):
        return fail("missing-empty-set", [_EMPTY])
    if not member(_NATS):
        return fail("missing-whole-space", [_NATS])

    acc = _EMPTY
    seen: set[UPSet] = set()
    for a, b in probes:
        if member(a) and member(b):
            if not member(a & b):
                return fail("intersection-escapes", [a, b, a & b])
            if not member(a | b):
                return fail("union-escapes", [a, b, a | b])
        # a component met in an earlier pair passed the two tests below
        # there, and they would find the same again
        fresh = [w for w in dict.fromkeys((a, b)) if w not in seen]
        seen.update(fresh)
        for w in fresh:
            if member(w):
                acc = acc | w
                if not member(acc):
                    return fail("accumulated-union-escapes", [acc])
        for w in fresh:
            u = e.union_below(w)
            if not member(u):
                return fail("union-of-members-escapes", [u])

    return timer.report(PASS)
