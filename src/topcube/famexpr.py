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
finite remainder, covered by singletons).  Generator lists are capped so the
meet pool stays enumerable.

The generated variants decide membership on one window.  Their meets are
plain integers on the generators' window (the longest preperiod plus the lcm
of the period lengths), ANDed once at construction by ``cube.meet_closure``,
the routine that also builds the meets of ``lattice.close_words`` on four or
more words.  A query re-windows them to the candidate's window with the
generators (the longer preperiod plus the lcm of both periods): each meet keeps its
preperiod bits and has its period block repeated by ``upsets._repeat``, the
one routine that repeats blocks.  It then ORs the meets below the candidate
and compares one word.  Both windows come from ``upsets._window``, the one
statement of the window and of its MAX_WINDOW_BITS cap, which aligns two
UPSets too: generators whose joint window is wider are refused with
ValueError at construction, and so is a candidate whose window with the
generators is wider, at the query.
"""

from __future__ import annotations

from .cube import meet_closure
from .report import FAIL, PASS, Report, Stopwatch
from .upsets import UPSet, _repeat, _require_point, _window

GENERATOR_CAP = 16

_EMPTY = UPSet.empty()
_NATS = UPSet.naturals()


def _union(sets) -> UPSet:
    out = _EMPTY
    for s in sets:
        out = out | s
    return out


class _Meets:
    """The meets of a generator list as integers on the generators' window.

    Every generator is periodic from `start` with a period dividing `period`,
    so each meet is one integer of start + period bits.  With `bounds` the
    words 0 and all-ones stand in for the empty set and the naturals.  They
    join after the generators are closed: 0 absorbs every AND and all-ones
    leaves it unchanged, so the closure never ANDs a generator with them.
    """

    def __init__(self, gens: tuple[UPSet, ...], *, bounds: bool = False):
        start, period, width = 0, 1, 1  # the window of no generator
        for g in gens:
            start, period, width = _window(start, period, g._pre_len, g._per_len)
        self.start, self.period = start, period
        words = meet_closure(set(), [g._word(width) for g in gens])
        if bounds:
            words |= {0, (1 << width) - 1}
        self.words = tuple(words)

    def below(self, a: UPSet) -> tuple[int, int, int, int, bool]:
        """(start, period, word of a, union of the meets below a, whether any is).

        All on one window where a and every meet are periodic: the longer
        preperiod, then the lcm of the two periods.
        """
        start, period, width = _window(self.start, self.period, a._pre_len, a._per_len)
        words = self.words
        if (start, period) != (self.start, self.period):
            # each meet: its preperiod bits, then its period block repeated
            ms, mp = self.start, self.period
            pre_mask = (1 << ms) - 1
            words = [m & pre_mask | _repeat(m >> ms, mp, width - ms) << ms for m in words]
        x = a._word(width)
        union, hit = 0, False
        for m in words:
            if m & x == m:
                union |= m
                hit = True
        return start, period, x, union, hit

    def union_below(self, w: UPSet) -> UPSet:
        start, period, _, union, _ = self.below(w)
        return UPSet._split(start, period, union)


def _nudges(s: UPSet) -> list[UPSet]:
    """Sets just off s: the first outside point alone and adjoined to s."""
    outside = ~s
    if outside.is_empty:
        return []
    first = UPSet.singleton(outside.first_members(1)[0])
    return [first, s | first]


def _check_gens(gens, *, nonempty: bool) -> tuple[UPSet, ...]:
    gens = tuple(gens)
    if nonempty and not gens:
        raise ValueError("generator list must be nonempty")
    if len(gens) > GENERATOR_CAP:
        raise ValueError(f"generator list capped at {GENERATOR_CAP}")
    if len(set(gens)) != len(gens):
        raise ValueError("generator list must be duplicate-free")
    return gens


class FamExpr:
    """Base class; subclasses implement the membership semantics."""

    def contains(self, a: UPSet) -> bool:
        raise NotImplementedError

    def union_below(self, w: UPSet) -> UPSet:
        """The union of all members that are subsets of w.

        Always a finite union of UPSets, hence itself an UPSet.  Any family
        closed under arbitrary unions must contain it, which is what the
        topology probe exploits.
        """
        raise NotImplementedError

    def probe_sets(self, cap: int = 8):
        """Structurally suggested coordinates, used to tell expressions apart."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

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

    def probe_sets(self, cap: int = 8):
        return [_EMPTY, self.bound, _NATS, *_nudges(self.bound)]

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

    def probe_sets(self, cap: int = 8):
        return [_EMPTY, self.core, _NATS, *_nudges(self.core)]

    def to_json(self) -> dict:
        return {"kind": "NearDown", "core": self.core.to_json()}


class TopGen(FamExpr):
    """The topology generated by a finite subbase (empty set and space adjoined)."""

    def __init__(self, subbase):
        self.subbase = _check_gens(subbase, nonempty=True)
        self._meets = _Meets(self.subbase, bounds=True)

    def contains(self, a: UPSet) -> bool:
        _, _, x, union, _ = self._meets.below(a)
        return union == x

    def union_below(self, w: UPSet) -> UPSet:
        return self._meets.union_below(w)

    def probe_sets(self, cap: int = 8):
        return [_EMPTY, _NATS, *self.subbase]

    def to_json(self) -> dict:
        return {"kind": "TopGen", "subbase": [g.to_json() for g in self.subbase]}


class LatGen(FamExpr):
    """Closure of the generators under binary intersections and unions."""

    def __init__(self, gens):
        self.gens = _check_gens(gens, nonempty=True)
        self._meets = _Meets(self.gens)

    def contains(self, a: UPSet) -> bool:
        _, _, x, union, hit = self._meets.below(a)
        return hit and union == x

    def union_below(self, w: UPSet) -> UPSet:
        return self._meets.union_below(w)

    def probe_sets(self, cap: int = 8):
        return list(self.gens)

    def to_json(self) -> dict:
        return {"kind": "LatGen", "gens": [g.to_json() for g in self.gens]}


class LatGenSing(FamExpr):
    """LatGen of the generators together with every singleton.

    With the singletons available, a nonempty set is a member exactly when
    the part not covered by generator meets below it is finite.  The empty
    set is not a member: members are unions of nonempty building blocks.
    """

    def __init__(self, gens):
        self.gens = _check_gens(gens, nonempty=False)
        self._meets = _Meets(self.gens)

    def contains(self, a: UPSet) -> bool:
        if a.is_empty:
            return False
        start, _, x, union, _ = self._meets.below(a)
        return (x ^ union) >> start == 0  # union is inside x

    def union_below(self, w: UPSet) -> UPSet:
        return w

    def probe_sets(self, cap: int = 8):
        return list(self.gens)

    def to_json(self) -> dict:
        return {"kind": "LatGenSing", "gens": [g.to_json() for g in self.gens]}


class UnionFam(FamExpr):
    def __init__(self, a: FamExpr, b: FamExpr):
        self.a = a
        self.b = b

    def contains(self, a: UPSet) -> bool:
        return self.a.contains(a) or self.b.contains(a)

    def union_below(self, w: UPSet) -> UPSet:
        return self.a.union_below(w) | self.b.union_below(w)

    def probe_sets(self, cap: int = 8):
        return [*self.a.probe_sets(cap), *self.b.probe_sets(cap)]

    def to_json(self) -> dict:
        return {"kind": "UnionFam", "a": self.a.to_json(), "b": self.b.to_json()}


class ChainInitials(FamExpr):
    """The initial segments of an infinite set, plus listed extras.

    C_m is the set of the first m+1 members of `enum` in increasing order,
    that is `enum` cut just above its (m+1)-th member.  `initial_segment`
    memoises the segments it hands out, each built from the one before by
    setting one more bit.  `contains` and `union_below` compare words
    against `enum` directly and store nothing, so asking about a long
    segment costs one word, not a memo entry per shorter segment.
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

    def union_below(self, w: UPSet) -> UPSet:
        out = _union(x for x in self.extras if x <= w)
        # the segments below w are those ending before the first member of
        # enum that w misses, so their union is enum cut at that member
        _, _, x, y = self.enum._aligned(w)
        missed = x ^ (x & y)
        if not missed:
            return out | self.enum
        return out | UPSet._finite(x & ((missed & -missed) - 1))

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
    once.  A pass means no refutation was found, not a proof; its work count
    is ``probe_pairs`` (the vacuous-pass rule of ``report.Stopwatch``).
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
