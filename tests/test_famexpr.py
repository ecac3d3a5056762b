"""Symbolic family expressions: membership, probes, topology refutations."""

from itertools import combinations

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
