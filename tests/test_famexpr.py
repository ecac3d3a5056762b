"""Symbolic family expressions: membership, probes, topology refutations."""

import math
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topcube import (
    ChainInitials,
    DownPow,
    Explicit,
    Family,
    GroundSet,
    LatGen,
    LatGenSing,
    NearDown,
    TopGen,
    UnionFam,
    UPSet,
    fam_is_topology_sym,
    lat_generate,
    top_generate,
)

from topcube.cli import load_fixture
from topcube.cube import set_bits
from topcube.demos import growing_core_chain, nested_initial_chain
from topcube import upsets
from topcube.famexpr import _Meets
from topcube.upsets import MAX_WINDOW_BITS

SRC = Path(__file__).resolve().parent.parent / "src"

EMPTY = UPSet.empty()
NATS = UPSet.naturals()
EVENS = UPSet("", "10")
ODDS = UPSet("", "01")


def up(*ints):
    return UPSet.from_ints(ints)


# ---------------------------------------------------------------- membership


def test_explicit():
    e = Explicit([EVENS, NATS])
    assert e.contains(EVENS) and e.contains(NATS)
    assert not e.contains(ODDS)


def test_explicit_keeps_first_seen_order():
    a, b = up(1, 3), EVENS
    e = Explicit([b, a, b])
    assert e.members == (b, a)
    assert e.to_json() == {"kind": "Explicit", "members": [b.to_json(), a.to_json()]}
    assert e.probe_sets() == [b, a]
    for w in (a, b, EMPTY, NATS, ODDS, up(1), up(1, 3, 5), ~EVENS):
        assert e.contains(w) == (w in e.members)


def test_down_pow():
    e = DownPow(EVENS)
    assert e.contains(EMPTY)
    assert e.contains(up(0, 4))
    assert e.contains(EVENS)
    assert not e.contains(up(1))
    assert not e.contains(NATS)


def test_near_down():
    e = NearDown(EVENS)
    assert e.contains(EVENS)
    assert e.contains(EVENS | up(1, 3))
    assert e.contains(up(7))
    assert e.contains(EMPTY)
    assert not e.contains(ODDS)
    assert not e.contains(NATS)


def test_top_gen_members():
    e = TopGen([EVENS, up(0)])
    assert e.contains(EVENS)
    assert e.contains(up(0))
    assert e.contains(EMPTY) and e.contains(NATS)
    assert not e.contains(ODDS)
    assert not e.contains(up(2))  # a point of evens, but not a generated open


def test_lat_gen_members():
    a, b = EVENS | up(1), EVENS | up(3)
    e = LatGen([a, b])
    assert e.contains(a) and e.contains(b)
    assert e.contains(a & b) and e.contains(a | b)
    assert not e.contains(EMPTY)  # no empty selection allowed
    assert not e.contains(NATS)


def test_lat_gen_sing():
    cofinite = [~up(0), ~up(1)]
    e = LatGenSing(cofinite)
    for k in (0, 1, 5, 12):
        assert e.contains(UPSet.singleton(k))
    assert e.contains(up(3, 7, 9))
    assert e.contains(~up(0))
    assert not e.contains(EVENS)
    assert not e.contains(EMPTY)


def test_union_fam():
    e = UnionFam(DownPow(EVENS), Explicit([NATS]))
    assert e.contains(NATS) and e.contains(up(2))
    assert not e.contains(ODDS)


def test_chain_initials():
    e = ChainInitials(EVENS, [EMPTY, NATS])
    assert e.initial_segment(0) == up(0)
    assert e.initial_segment(2) == up(0, 2, 4)
    assert e.contains(up(0, 2, 4))
    assert e.contains(EMPTY) and e.contains(NATS)
    assert not e.contains(up(2, 4))  # not an initial run
    assert not e.contains(EVENS)
    with pytest.raises(ValueError):
        ChainInitials(up(1, 2))


def test_initial_segment_refuses_points_past_the_window_cap():
    # members 0, then MAX_WINDOW_BITS + 1 and on: segment 1 reaches past the cap
    e = ChainInitials(UPSet("1", "0" * MAX_WINDOW_BITS + "1"))
    assert e.initial_segment(0) == up(0)
    for _ in range(2):  # a refused extension leaves the memo as it was
        with pytest.raises(ValueError, match="MAX_WINDOW_BITS"):
            e.initial_segment(1)
    assert e.initial_segment(0) == up(0)
    with pytest.raises(ValueError):
        e.initial_segment(-1)


def _defined_contains(e: ChainInitials, a: UPSet) -> bool:
    """Membership straight from the definition: a listed extra, or the
    first |a| members of enum."""
    if a in e.extras:
        return True
    if not a.is_finite or a.is_empty:
        return False
    return a == UPSet.from_ints(e.enum.first_members(a._pre.bit_count()))


def _defined_union_below(e: ChainInitials, w: UPSet) -> UPSet:
    """The union of the extras below w and of the segments C_0, ..., C_(j-1),
    where enum's first j members lie in w and its next one does not."""
    out = EMPTY
    for x in e.extras:
        if x <= w:
            out = out | x
    if e.enum <= w:
        return out | e.enum
    j = 0
    for i in e.enum.iter_members():
        if i not in w:
            break
        j += 1
    return out | UPSet.from_ints(e.enum.first_members(j))


def _one_point_nudges(a: UPSet, points) -> list[UPSet]:
    return [a - UPSet.singleton(k) if k in a else a | UPSet.singleton(k) for k in points]


bit_words = st.text(alphabet="01", min_size=0, max_size=8)
periods = st.text(alphabet="01", min_size=1, max_size=32).filter(lambda p: "1" in p)


@given(bit_words, periods, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_chain_initials_word_routes_match_the_definition(pre, period, rng):
    enum = UPSet(pre, period)
    e = ChainInitials(enum, [EMPTY, NATS])
    order = list(range(201))
    rng.shuffle(order)
    for m in order:
        seg = e.initial_segment(m)
        assert seg == UPSet.from_ints(enum.first_members(m + 1)), m
        assert e.initial_segment(m) is seg
    cut = enum.first_members(12)[-1] + 3
    candidates = [e.initial_segment(m) for m in range(10)]
    candidates += [UPSet.from_ints(rng.sample(range(cut), rng.randint(1, 6)))
                   for _ in range(6)]
    candidates += [n for c in list(candidates) for n in _one_point_nudges(c, range(cut))]
    for a in candidates:
        assert e.contains(a) == _defined_contains(e, a), a
        assert e.union_below(a) == _defined_union_below(e, a), a
    for w in (enum, NATS, ODDS, ~enum, enum - UPSet.singleton(enum.first_members(5)[-1])):
        assert e.contains(w) == _defined_contains(e, w), w
        assert e.union_below(w) == _defined_union_below(e, w), w


def _run_python(script: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_chain_initials_queries_on_long_segments_store_no_segments():
    # A segment of 2^19 evens is a 128 KiB word.  Storing one per shorter
    # segment on the way would take about 32 GB; the child's address space
    # is capped at 256 MB, so such a memo ends in MemoryError.
    out = _run_python("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))
        from topcube import ChainInitials, UPSet
        from topcube.upsets import MAX_WINDOW_BITS
        e = ChainInitials(UPSet("", "10"))
        seg = UPSet.from_ints(range(0, MAX_WINDOW_BITS, 2))
        print(seg._pre.bit_count(), e.contains(seg), e.contains(seg - UPSet.singleton(0)),
              e.contains(seg | UPSet.singleton(1)))
        gap = MAX_WINDOW_BITS - 4
        below = e.union_below(~UPSet.singleton(gap))
        print(below._pre.bit_count(), below == UPSet.from_ints(range(0, gap, 2)))
        probes = e.probe_sets(129)
        print(len(probes), probes[-1] == UPSet.from_ints(range(0, 257, 2)))
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        f"{1 << 19} True False False", f"{(1 << 19) - 2} True", "130 True",
    ]


# ------------------------------------------- generated families, long periods


def _union(sets) -> UPSet:
    out = EMPTY
    for x in sets:
        out = out | x
    return out


def _pairwise_meets(gens) -> set:
    """Every meet of a nonempty subcollection, ANDed pairwise as UPSets."""
    pool = set()
    for r in range(1, len(gens) + 1):
        for combo in combinations(gens, r):
            m = combo[0]
            for g in combo[1:]:
                m = m & g
            pool.add(m)
    return pool


def _pairwise_route(kind, gens, a):
    """(member?, union of the meets below a) from UPSet &, | and <= alone."""
    meets = _pairwise_meets(gens) | ({EMPTY, NATS} if kind is TopGen else set())
    below = [m for m in meets if m <= a]
    union = _union(below)
    if kind is TopGen:
        return union == a, union
    if kind is LatGen:
        return bool(below) and union == a, union
    return not a.is_empty and (a - union).is_finite, union


def _pointwise_route(kind, gens, a):
    """(member?, points of the union below a) from `in` over one window."""
    sets = [*gens, a]
    start = max(len(s.pre) for s in sets)
    width = start + math.lcm(*(len(s.period) for s in sets))
    points = range(width)
    inside = {i for i in points if i in a}
    meets = [{i for i in points if all(i in g for g in combo)}
             for r in range(1, len(gens) + 1) for combo in combinations(gens, r)]
    if kind is TopGen:
        meets += [set(), set(points)]
    below = [m for m in meets if m <= inside]
    union = set().union(*below)
    if kind is TopGen:
        return union == inside, union, width
    if kind is LatGen:
        return bool(below) and union == inside, union, width
    return bool(inside) and all(i < start for i in inside - union), union, width


def _random_upset(rng, period_len: int, pre_len: int) -> UPSet:
    pre = "".join(rng.choice("01") for _ in range(pre_len))
    return UPSet(pre, "".join(rng.choice("01") for _ in range(period_len)))


def _long_period_tuples(count: int, size: int, rng):
    """Seeded generator tuples, periods of 8-32 bits and preperiods of 0-8;
    the lcm of the periods is kept to 2,100 bits so the pointwise route,
    which asks `in` at every point of the window, stays quick."""
    out = []
    while len(out) < count:
        lengths = [rng.randint(8, 32) for _ in range(size)]
        if math.lcm(*lengths) <= 2100:
            out.append(tuple(_random_upset(rng, p, rng.randint(0, 8)) for p in lengths))
    return out


def _long_period_cases():
    rng = random.Random(20240607)
    return _long_period_tuples(5, 2, rng) + _long_period_tuples(5, 3, rng)


@pytest.mark.parametrize("gens", _long_period_cases())
def test_generated_families_agree_with_both_routes_at_long_periods(gens):
    rng = random.Random(repr(gens))
    g0, g1 = gens[0], gens[1]
    # a period coprime to every generator's widens the window by that factor
    coprime = next(p for p in (3, 5, 7, 11, 13) if all(len(g.period) % p for g in gens))
    candidates = [~g0, g0 | g1, g0 & g1, *gens, _union(_pairwise_meets(gens)),
                  _random_upset(rng, coprime, rng.randint(0, 4)), g0 | UPSet.singleton(40),
                  EMPTY, NATS]
    for kind in (TopGen, LatGen, LatGenSing):
        e = kind(gens)
        for a in candidates:
            member, union = _pairwise_route(kind, gens, a)
            pointwise, points, width = _pointwise_route(kind, gens, a)
            assert e.contains(a) == member == pointwise, (kind, a)
            if kind is not LatGenSing:  # its union_below is a itself
                got = e.union_below(a)
                assert got == union
                assert {i for i in range(width) if i in got} == points
        assert e.contains(g0) is (kind is not LatGenSing or not g0.is_empty)


def _period(length: int, point: int = 0) -> UPSet:
    """The multiples of `length`, shifted up by `point`."""
    return UPSet("", "0" * point + "1" + "0" * (length - 1 - point))


@pytest.mark.parametrize("kind", [TopGen, LatGen, LatGenSing])
def test_generators_beyond_the_window_cap_are_refused_at_construction(kind):
    # Every pair aligns within the cap, and the first two are disjoint, so no
    # pairwise meet is wider than 7,168 bits; all three together need
    # lcm(1024, 1020, 7) = 1,827,840 bits.
    gens = [_period(1024), _period(1020, 1), _period(7)]
    with pytest.raises(ValueError, match="MAX_WINDOW_BITS"):
        kind(gens)
    kind(gens[:2])


@pytest.mark.parametrize("kind", [TopGen, LatGen, LatGenSing])
def test_candidate_beyond_the_window_cap_is_refused_at_the_query(kind):
    e = kind([_period(1024), _period(1020)])  # a 261,120-bit window
    assert e.contains(_period(1024)) is True
    with pytest.raises(ValueError, match="MAX_WINDOW_BITS"):
        e.contains(_period(7))
    if kind is not LatGenSing:
        with pytest.raises(ValueError, match="MAX_WINDOW_BITS"):
            e.union_below(_period(7))


def test_every_window_past_the_cap_is_refused_with_one_message():
    # coprime periods of 1031 and 1033 bits share a 1,065,023-bit window,
    # whether two sets are aligned, generators are windowed together, or a
    # candidate is windowed with the generators
    a, b = _period(1031), _period(1033)
    refusals = []
    for refused in (lambda: a & b, lambda: TopGen([a, b]), lambda: LatGen([a]).contains(b)):
        with pytest.raises(ValueError) as exc:
            refused()
        refusals.append(str(exc.value))
    assert refusals == [f"a window of 0 preperiod bits and a 1065023-bit period is "
                        f"1065023 bits, beyond MAX_WINDOW_BITS = {MAX_WINDOW_BITS}"] * 3


def test_generated_queries_canonicalise_no_meet(monkeypatch):
    gens = [EVENS | up(1), UPSet("01", "110"), UPSet("", "1100")]
    candidates = [~gens[0], gens[1] | gens[2], NATS, UPSet("1", "01101")]
    calls = []
    real = upsets._canonical
    monkeypatch.setattr(upsets, "_canonical", lambda *a: calls.append(a) or real(*a))
    families = [TopGen(gens), LatGen(gens), LatGenSing(gens)]
    for e in families:
        for a in candidates:
            e.contains(a)
    assert calls == []
    families[0].union_below(NATS)
    assert len(calls) == 1  # the union itself, split back into an UPSet


def _primitive(rng: random.Random, length: int) -> str:
    """A random period word of exactly `length` bits in canonical form."""
    while True:
        word = "".join(rng.choice("01") for _ in range(length))
        if len(UPSet("", word).period) == length:
            return word


def _or_all(words) -> int:
    out = 0
    for w in words:
        out |= w
    return out


def test_meets_rewindow_like_the_word_of_each_meet():
    rng = random.Random(9)
    gens = (UPSet("01", _primitive(rng, 9)), UPSet("1", _primitive(rng, 16)),
            UPSet("", _primitive(rng, 25)))
    meets = _Meets(gens)
    assert (meets.start, meets.period) == (2, 3600)
    as_sets = [UPSet._split(meets.start, meets.period, m) for m in meets.words]
    candidates = [gens[0] | gens[1], gens[2] | up(0, 5, 4000), gens[0] & gens[2] | up(3, 9),
                  gens[1] | UPSet(_primitive(rng, 12), _primitive(rng, 7)),
                  UPSet("", _primitive(rng, 32)) | gens[2], NATS]
    rewindowed = 0
    for a in candidates:
        start, period, x, union, hit = meets.below(a)
        width = start + period
        rewindowed += width != meets.start + meets.period
        assert x == a._word(width)
        below = [m._word(width) for m in as_sets if m <= a]
        assert (union, hit) == (_or_all(below), bool(below))
    assert rewindowed == 4  # a preperiod past 2 bits, or a period not dividing 3600


def test_bounds_join_the_meets_after_the_closure():
    rng = random.Random(29)
    word = lambda n: "".join(rng.choice("01") for _ in range(n))  # noqa: E731
    for count in range(1, 6):
        gens = tuple(dict.fromkeys(UPSet(word(rng.randint(0, 4)), word(rng.randint(1, 12)))
                                   for _ in range(count)))
        gens += (NATS,) if count == 3 else ()
        meets = _Meets(gens, bounds=True)
        width = meets.start + meets.period
        # every meet of a nonempty subcollection, by brute force
        subset_meets = set()
        for r in range(1, len(gens) + 1):
            for combo in combinations(gens, r):
                m = (1 << width) - 1
                for g in combo:
                    m &= g._word(width)
                subset_meets.add(m)
        assert set(_Meets(gens).words) == subset_meets
        assert set(meets.words) == subset_meets | {0, (1 << width) - 1}


def test_near_down_matches_the_finite_difference():
    rng = random.Random(18)
    word = lambda n: "".join(rng.choice("01") for _ in range(n))  # noqa: E731
    seen = set()
    for _ in range(60):
        core = UPSet(word(rng.randint(0, 10)), word(rng.randint(8, 40)))
        a = UPSet(word(rng.randint(0, 10)), word(rng.randint(8, 40)))
        finite = UPSet.from_ints(rng.sample(range(60), 3))
        for cand in (a, core | finite, core & a | finite, core - finite, a & ~core | finite):
            got = NearDown(core).contains(cand)
            assert got is ((cand - core).is_finite), (core, cand)
            seen.add(got)
    assert seen == {True, False}
    with pytest.raises(ValueError, match="MAX_WINDOW_BITS"):
        NearDown(_period(1031)).contains(_period(1033))


def test_generator_validation():
    with pytest.raises(ValueError):
        TopGen([])
    with pytest.raises(ValueError):
        LatGen([EVENS, EVENS])
    with pytest.raises(ValueError):
        TopGen([UPSet.singleton(k) for k in range(17)])
    LatGenSing([])  # singletons alone are fine


# ------------------------------------------------------------------- probes


def test_union_below_down_pow():
    e = DownPow(EVENS)
    assert e.union_below(NATS) == EVENS
    assert e.union_below(up(0, 1, 2)) == up(0, 2)


def test_union_below_chain():
    e = ChainInitials(EVENS, [EMPTY, NATS])
    assert e.union_below(up(0, 2, 4, 5)) == up(0, 2, 4)
    assert e.union_below(ODDS) == EMPTY
    assert e.union_below(EVENS) == EVENS  # all segments pile up
    assert e.union_below(NATS) == NATS  # the extra wins


def test_union_below_top_gen():
    e = TopGen([EVENS, up(0)])
    assert e.union_below(EVENS | up(1)) == EVENS
    assert e.union_below(up(0, 1)) == up(0)


# -------------------------------------------------- topology probe (symbolic)


def pairs_of(*coords):
    out = []
    for i, a in enumerate(coords):
        for b in coords[i + 1 :]:
            out.append((a, b))
    return out


def test_probe_passes_powerset_with_top():
    e = UnionFam(DownPow(EVENS), Explicit([NATS]))
    r = fam_is_topology_sym(e, pairs_of(EVENS, ODDS, up(1), up(0, 2)))
    assert r.passed


def test_probe_missing_bounds():
    r = fam_is_topology_sym(Explicit([NATS]), [])
    assert not r.passed and r.witness["kind"] == "missing-empty-set"
    r = fam_is_topology_sym(Explicit([EMPTY]), [])
    assert not r.passed and r.witness["kind"] == "missing-whole-space"


def test_probe_without_pairs_is_inconclusive():
    # past the two bounds there is nothing to probe
    r = fam_is_topology_sym(Explicit([EMPTY, NATS]), [])
    assert r.verdict == "inconclusive" and r.witness == {"probe_pairs": 0}


def test_probe_catches_missing_union():
    # two disjoint members whose union was left out
    e = Explicit([EMPTY, up(0), up(1), NATS])
    r = fam_is_topology_sym(e, pairs_of(up(0), up(1)))
    assert not r.passed
    assert r.witness["kind"] in ("union-escapes", "accumulated-union-escapes")


def test_probe_catches_missing_intersection():
    e = Explicit([EMPTY, up(0, 1), up(1, 2), up(0, 1, 2), NATS])
    r = fam_is_topology_sym(e, pairs_of(up(0, 1), up(1, 2)))
    assert not r.passed and r.witness["kind"] == "intersection-escapes"


def test_probe_union_of_members_refutation():
    # closed under pairwise unions, but the infinite union of the singletons
    # below evens is absent: only the member-union scan can see it
    e = LatGenSing([])
    e = UnionFam(e, Explicit([EMPTY, NATS]))
    r = fam_is_topology_sym(e, pairs_of(EVENS, up(3)))
    assert not r.passed
    assert r.witness["kind"] == "union-of-members-escapes"
    assert r.witness["sets"] == [EVENS.to_json()]


def test_probe_reads_a_generator_of_pairs_once():
    # the powerset-chain union: a one-shot iterator of pairs must be
    # probed in full, not used up before the probing starts
    fix = load_fixture("powerset-chain")
    _, union = growing_core_chain(fix)
    coords = [UPSet.from_json(c) for c in fix["coords"]]
    r = fam_is_topology_sym(union, combinations(coords, 2))
    assert r.verdict == "fail"
    assert r.witness["kind"] == "union-of-members-escapes"
    assert r.params["probe_pairs"] == 3


def _probe_reference(e, probes):
    """The topology probe asking every pair afresh: (verdict, witness)."""
    def fail(kind, sets):
        return "fail", {"kind": kind, "sets": [s.to_json() for s in sets],
                        "readable": [s.describe() for s in sets]}

    if not e.contains(EMPTY):
        return fail("missing-empty-set", [EMPTY])
    if not e.contains(NATS):
        return fail("missing-whole-space", [NATS])
    if not probes:
        return "inconclusive", {"probe_pairs": 0}
    acc = EMPTY
    for a, b in probes:
        in_a, in_b = e.contains(a), e.contains(b)
        if in_a and in_b:
            if not e.contains(a & b):
                return fail("intersection-escapes", [a, b, a & b])
            if not e.contains(a | b):
                return fail("union-escapes", [a, b, a | b])
        for w, inside in ((a, in_a), (b, in_b)):
            if inside:
                acc = acc | w
                if not e.contains(acc):
                    return fail("accumulated-union-escapes", [acc])
        for w in (a, b):
            if not e.contains(e.union_below(w)):
                return fail("union-of-members-escapes", [e.union_below(w)])
    return "pass", None


def _probe_cases():
    cases = []
    for name in ("powerset-chain", "nested-powersets"):
        fix = load_fixture(name)
        stage, union = (growing_core_chain if fix["builder"] == "growing-core"
                        else nested_initial_chain)(fix)
        coords = [UPSet.from_json(c) for c in fix["coords"]]
        pairs = list(combinations(coords, 2))
        cases += [(stage(m), pairs) for m in range(6)] + [(union, pairs)]
    singles = Explicit([EMPTY, up(0), up(1), up(2), up(0, 1), up(1, 2), NATS])
    cases += [
        (Explicit([EMPTY, up(0, 1), up(1, 2), up(0, 1, 2), NATS]), pairs_of(up(0, 1), up(1, 2))),
        (singles, pairs_of(up(0), up(1)) + pairs_of(up(1), up(2))),
        (singles, pairs_of(up(0), up(1), up(2))),
    ]
    coords = [EVENS, ODDS, up(0), up(1), up(2), up(0, 1), up(1, 2), up(0, 2), NATS, EMPTY]
    exprs = [
        singles,
        UnionFam(DownPow(EVENS), Explicit([NATS])),
        Explicit([EMPTY, up(0), up(1), NATS]),
        Explicit([EMPTY, up(0, 1), up(1, 2), up(0, 1, 2), NATS]),
        UnionFam(LatGenSing([]), Explicit([EMPTY, NATS])),
        TopGen([EVENS, up(0, 1)]),
        UnionFam(LatGen([EVENS, ODDS, up(1)]), Explicit([EMPTY, NATS])),
        UnionFam(NearDown(EVENS), Explicit([NATS])),
        UnionFam(ChainInitials(EVENS, [EMPTY, NATS]), Explicit([EVENS])),
    ]
    rng = random.Random(3)
    for e in exprs:
        for _ in range(6):
            picked = rng.sample(coords, rng.randint(2, 5))
            pairs = list(combinations(picked, 2)) + [(picked[0], picked[0])]
            rng.shuffle(pairs)
            cases.append((e, pairs))
    return cases


def test_probe_verdicts_match_asking_every_pair_afresh():
    kinds = set()
    for e, pairs in _probe_cases():
        r = fam_is_topology_sym(e, pairs)
        assert (r.verdict, r.witness) == _probe_reference(e, pairs), (e, pairs)
        kinds.add(r.witness["kind"] if r.witness else r.verdict)
    assert kinds >= {"pass", "intersection-escapes", "accumulated-union-escapes",
                     "union-of-members-escapes"}, kinds


def test_probe_decides_each_coordinate_once():
    for e, pairs in _probe_cases():
        asked, unions = Counter(), Counter()
        contains, union_below = e.contains, e.union_below

        def counted(a, contains=contains):
            asked[a] += 1
            return contains(a)

        def counted_union(w, union_below=union_below):
            unions[w] += 1
            return union_below(w)

        e.contains, e.union_below = counted, counted_union
        try:
            passed = fam_is_topology_sym(e, pairs).passed
        finally:
            del e.contains, e.union_below
        components = {w for pair in pairs for w in pair}
        assert max(asked.values()) == 1, asked
        assert max(unions.values(), default=1) == 1, unions
        assert set(unions) <= components
        if passed:
            assert components <= set(asked) and set(unions) == components


# ------------------------------------------- agreement with the finite engine


def embed(universe, mask):
    """A subset of the finite ground set as a set of naturals; the whole
    ground set plays the ambient space."""
    if mask == universe.full_mask:
        return NATS
    return UPSet.from_ints(p for p in range(universe.n) if (mask >> p) & 1)


small_words = st.integers(min_value=0, max_value=(1 << 8) - 1)


@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=3))
@settings(max_examples=60)
def test_top_gen_agrees_with_finite_engine(gen_masks):
    universe = GroundSet(3)
    finite = top_generate(universe, gen_masks)
    symbolic = TopGen([embed(universe, m) for m in set(gen_masks)])
    for mask in range(universe.num_subsets):
        assert symbolic.contains(embed(universe, mask)) == finite.family.contains_mask(
            mask
        ), mask


def embed_family(fam):
    """A finite family as one symbolic set: each member mask becomes a
    natural number, so family meet/join turn into plain set ops."""
    return UPSet.from_ints(set_bits(fam.word))


@given(st.lists(small_words, min_size=1, max_size=3))
@settings(max_examples=60)
def test_lat_gen_agrees_with_finite_engine(gen_words):
    universe = GroundSet(3)
    gens = [Family(universe, w) for w in dict.fromkeys(gen_words)]
    finite = lat_generate(universe, gens)
    symbolic = LatGen([embed_family(g) for g in gens])
    for w in range(1 << universe.num_subsets):
        fam = Family(universe, w)
        assert symbolic.contains(embed_family(fam)) == (fam.word in finite)


def test_lat_gen_symbolic_matches_small_closure():
    universe = GroundSet(2)
    gens = [Family(universe, 0b0110), Family(universe, 0b1010)]
    finite = lat_generate(universe, gens)
    symbolic = LatGen([embed_family(g) for g in gens])
    for w in range(1 << universe.num_subsets):
        fam = Family(universe, w)
        assert symbolic.contains(embed_family(fam)) == (fam.word in finite)
