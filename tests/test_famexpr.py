"""Symbolic family expressions: membership, probes, topology refutations."""

import os
import random
import subprocess
import sys
import textwrap
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
    expr_from_json,
    fam_distinct,
    fam_is_topology_sym,
    lat_generate,
    top_generate,
)

from topcube.cli import load_fixture
from topcube.demos import growing_core_chain
from topcube.upsets import MAX_WINDOW_BITS

SRC = Path(__file__).resolve().parent.parent / "src"

EMPTY = UPSet.empty()
NATS = UPSet.naturals()
EVENS = UPSet.evens()
ODDS = UPSet.odds()


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


def test_union_fam_and_operator():
    e = DownPow(EVENS) | Explicit([NATS])
    assert isinstance(e, UnionFam)
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
    return a == UPSet.from_ints(e.enum.first_members(a.size()))


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
        e = ChainInitials(UPSet.evens())
        seg = UPSet.from_ints(range(0, MAX_WINDOW_BITS, 2))
        print(seg.size(), e.contains(seg), e.contains(seg - UPSet.singleton(0)),
              e.contains(seg | UPSet.singleton(1)))
        gap = MAX_WINDOW_BITS - 4
        below = e.union_below(~UPSet.singleton(gap))
        print(below.size(), below == UPSet.from_ints(range(0, gap, 2)))
        probes = e.probe_sets(129)
        print(len(probes), probes[-1] == UPSet.from_ints(range(0, 257, 2)))
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        f"{1 << 19} True False False", f"{(1 << 19) - 2} True", "130 True",
    ]


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


def test_fam_distinct():
    w = fam_distinct(DownPow(EVENS), NearDown(EVENS))
    assert w is not None
    assert DownPow(EVENS).contains(w) != NearDown(EVENS).contains(w)
    assert fam_distinct(DownPow(EVENS), DownPow(EVENS)) is None
    assert fam_distinct(Explicit([EVENS]), Explicit([ODDS])) is not None


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
    for mask in universe.subset_masks():
        assert symbolic.contains(embed(universe, mask)) == finite.family.contains_mask(
            mask
        ), mask


def embed_family(fam):
    """A finite family as one symbolic set: each member mask becomes a
    natural number, so family meet/join turn into plain set ops."""
    return UPSet.from_ints(fam.member_masks())


@given(st.lists(small_words, min_size=1, max_size=3))
@settings(max_examples=60)
def test_lat_gen_agrees_with_finite_engine(gen_words):
    universe = GroundSet(3)
    gens = [Family(universe, w) for w in dict.fromkeys(gen_words)]
    finite = lat_generate(universe, gens)
    symbolic = LatGen([embed_family(g) for g in gens])
    for w in range(1 << universe.num_subsets):
        fam = Family(universe, w)
        assert symbolic.contains(embed_family(fam)) == (fam in finite)


def test_lat_gen_symbolic_matches_small_closure():
    universe = GroundSet(2)
    gens = [Family(universe, 0b0110), Family(universe, 0b1010)]
    finite = lat_generate(universe, gens)
    symbolic = LatGen([embed_family(g) for g in gens])
    for w in range(1 << universe.num_subsets):
        fam = Family(universe, w)
        assert symbolic.contains(embed_family(fam)) == (fam in finite)


# -------------------------------------------------------------------- JSON


def test_expr_json_roundtrip():
    exprs = [
        Explicit([EVENS, EMPTY]),
        DownPow(ODDS),
        NearDown(EVENS),
        TopGen([EVENS, up(0)]),
        LatGen([EVENS]),
        LatGenSing([~up(0)]),
        UnionFam(DownPow(EVENS), Explicit([NATS])),
        ChainInitials(EVENS, [EMPTY, NATS]),
    ]
    for e in exprs:
        back = expr_from_json(e.to_json())
        probes = e.probe_sets() + [EMPTY, NATS, ODDS, up(0, 5)]
        for w in probes:
            assert back.contains(w) == e.contains(w)


def test_expr_json_rejects_unknown():
    with pytest.raises(ValueError):
        expr_from_json({"kind": "Mystery"})
    with pytest.raises(ValueError):
        expr_from_json(["not", "a", "dict"])
