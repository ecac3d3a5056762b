"""Sublattice generation, comparability, completeness, chain completion."""

import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topcube import (
    Explicit,
    Family,
    GroundSet,
    UPSet,
    chain_completion_check,
    chain_completion_finite,
    chain_completion_omega,
    interval_identity_all,
    join_completeness_witness,
    lat_generate,
    relations_set,
)
from topcube import certificates, cube, lattice
from topcube.cli import main
from topcube.cube import cube_word, interval_words, set_bits
from topcube.demos import growing_core_chain, initials_chain
from topcube.lattice import close_words, random_chain
from topcube.oracles import (
    chain_completion,
    chain_joins_meets,
    is_complete_sublattice,
    join_escape_witness,
)

U2 = GroundSet(2)
U3 = GroundSet(3)

EMPTY = UPSet.empty()
NATS = UPSet.naturals()
EVENS = UPSet("", "10")
ODDS = UPSet("", "01")

# family words over n=2: bit index = subset mask, so
#   {}               -> 0
#   {emptyset}       -> 1
#   {{0}}            -> 2
#   {{1}}            -> 4
#   {emptyset, X}    -> 9
#   P(X)             -> 15
TRIV2 = 9
FULL2 = 15


def fams(universe, *words):
    return [Family(universe, w) for w in words]


def as_sets(universe, *words):
    # each family word as a frozenset of frozensets, the oracles' form
    return [
        frozenset(
            frozenset(p for p in range(universe.n) if (m >> p) & 1) for m in set_bits(w)
        )
        for w in words
    ]


# ------------------------------------------------------------- lat_generate


def test_generate_two_singleton_families():
    lat = lat_generate(U2, fams(U2, 2, 4))
    assert lat == {0, 2, 4, 6}


def test_generate_single_family_is_itself():
    lat = lat_generate(U2, fams(U2, TRIV2))
    assert lat == {TRIV2}


def test_generate_chain_already_closed():
    chain = fams(U2, 1, 9, 11)
    assert lat_generate(U2, chain) == {1, 9, 11}


def test_generate_rejects_empty():
    with pytest.raises(ValueError):
        lat_generate(U2, [])


@given(st.lists(st.integers(0, 15), min_size=1, max_size=4), st.integers(0, 15))
def test_generate_contains_gens_and_is_closed(words, probe):
    lat = lat_generate(U2, fams(U2, *words))
    assert set(words) <= lat
    for w, v in combinations(lat, 2):
        assert (w & v) in lat and (w | v) in lat


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=4))
def test_generate_is_least_closed_superset(words):
    # dropping any non-generator leaves a set no longer closed
    lat = lat_generate(U3, fams(U3, *words))
    extras = lat - set(words)
    for w in extras:
        assert not is_complete_sublattice(as_sets(U3, *(lat - {w})))


def _naive_closure(words):
    pool = set(words)
    while True:
        grown = pool | {op for w in pool for v in pool for op in (w & v, w | v)}
        if grown == pool:
            return pool
        pool = grown


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_close_words_matches_a_naive_fixpoint(n):
    universe = GroundSet(n)
    size = 1 << universe.num_subsets
    rng = random.Random(n)
    cases = [[rng.randrange(size)], [0, size - 1], [3 % size] * 3]
    for _ in range(30):
        words = [rng.randrange(size) for _ in range(rng.randint(1, 5))]
        cases.append(words + words[:2])  # duplicates
    for _ in range(10):
        # top_generate-style: subset masks with the empty and the full set
        masks = rng.sample(range(1 << n), rng.randint(1, min(4, 1 << n)))
        cases.append([0, universe.full_mask, *masks])
    closed = sorted(_naive_closure(cases[3]))
    cases.append(closed)  # already closed, in any order
    cases.append(closed[::-1])
    if n == 2:
        # every 1-, 2- and 3-subset of the 16 families: 16 + 120 + 560 tuples
        cases += [list(c) for r in (1, 2, 3) for c in combinations(range(size), r)]
    if n >= 3:
        # three distinct words; at most three, repeated among 4-6 words in any
        # order; and 4-6 distinct words.  The median ab|ac|bc differs from the
        # other 17 terms only on six bit patterns of (a, b, c), more than the
        # 4-bit words at n = 2 hold.
        for _ in range(60 if n == 3 else 15):
            triple = rng.sample(range(size), 3)
            few = rng.sample(triple, rng.randint(1, 3))
            padded = few + rng.choices(few, k=rng.randint(4, 6) - len(few))
            rng.shuffle(padded)
            cases += [triple, padded, rng.sample(range(size), rng.randint(4, 6))]
    for words in cases:
        assert close_words(words) == _naive_closure(words), words


# ------------------------------------------------------------ relations_set


def test_relations_of_bottom_is_everything():
    rel = relations_set(U2, fams(U2, 0))
    assert len(rel) == 16


def test_relations_frozen_pair():
    rel = relations_set(U2, fams(U2, 1, 9))
    assert {f.word for f in rel} == {0, 1, 9, 11, 13, 15}


def test_relations_of_incomparable_atoms():
    atoms = fams(U2, 11, 13)  # {0,{0},X} and {0,{1},X} as topologies
    rel = {f.word for f in relations_set(U2, atoms)}
    assert TRIV2 in rel and FULL2 in rel
    for w in rel:
        for v in (11, 13):
            assert (w & v) in (w, v)


def test_relations_rejects_empty_collection():
    with pytest.raises(ValueError):
        relations_set(U2, [])


def test_relations_rejects_a_family_of_another_ground_set():
    with pytest.raises(ValueError, match="n=2"):
        relations_set(U2, [Family(U2, 1), Family(U3, 1)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_relations_match_comparability_filter(n):
    universe = GroundSet(n)
    size = 1 << universe.num_subsets
    rng = random.Random(n)
    for _ in range(25):
        words = rng.sample(range(size), rng.randint(1, min(4, size)))
        expected = {
            g for g in range(size) if all((g & w) in (g, w) for w in words)
        }
        got = relations_set(universe, fams(universe, *words))
        assert {f.word for f in got} == expected, words
        assert all(f.universe == universe for f in got)


# ----------------------------------------------------------- completeness


def test_generated_lattices_are_complete():
    for words in ([2, 4], [1, 9, 11], [7], [3, 5, 10]):
        lat = lat_generate(U2, fams(U2, *words))
        assert is_complete_sublattice(as_sets(U2, *lat))


def test_raw_set_missing_join_is_incomplete():
    assert not is_complete_sublattice(as_sets(U2, 2, 4))


def test_sublattice_rejects_words_outside_the_cube():
    with pytest.raises(ValueError, match="out of range"):
        lat_generate(U2, [99, 3])


@pytest.mark.parametrize("build", [lat_generate, chain_completion_finite])
def test_family_of_another_ground_set_is_refused(build):
    with pytest.raises(ValueError, match="n=2 ground set given for n=3"):
        build(U3, [Family(U2, 5)])
    build(U2, [Family(U2, 5)])


def test_singleton_is_complete():
    assert is_complete_sublattice(as_sets(U2, TRIV2))


def test_join_complete_examples():
    assert join_escape_witness(as_sets(U2, 0, 2, 4)) is not None
    assert join_escape_witness(as_sets(U2, 1, 9)) is None
    assert join_escape_witness(as_sets(U2, *range(16))) is None


def test_join_escape_witness():
    escaped = join_escape_witness(as_sets(U2, 0, 2, 4))
    assert escaped == frozenset(as_sets(U2, 2, 4))
    assert join_escape_witness(as_sets(U2, 1, 9)) is None


# ----------------------------------------------------- finite chain closure


def test_completion_of_trivial_discrete_pair():
    done = chain_completion_finite(U2, fams(U2, TRIV2, FULL2))
    assert {f.word for f in done} == {TRIV2, FULL2}


def test_completion_of_singleton():
    done = chain_completion_finite(U2, fams(U2, 11))
    assert {f.word for f in done} == {11}


def test_completion_fixes_every_short_chain():
    # finite chains are already complete: the formula adds nothing
    for r in range(1, 5):
        for combo in combinations(range(16), r):
            if any((w & v) not in (w, v) for w, v in combinations(combo, 2)):
                continue
            done = chain_completion_finite(U2, fams(U2, *combo))
            assert {f.word for f in done} == set(combo)


def test_completion_rejects_non_chain():
    with pytest.raises(ValueError):
        chain_completion_finite(U2, fams(U2, 2, 4))
    with pytest.raises(ValueError):
        chain_completion_finite(U2, [])


def _all_chains(universe, max_len):
    for r in range(1, max_len + 1):
        for combo in combinations(range(1 << universe.num_subsets), r):
            if all((w & v) == w for w, v in zip(combo, combo[1:])):
                yield list(combo)


def _four_point_chains():
    # seeded chains at four points: one starts at the empty family and one
    # ends at the full one, the two ends where no comparable family lies
    # strictly below or above
    U4, full, rng = GroundSet(4), (1 << 16) - 1, random.Random(9)
    low, high, plain = ([f.word for f in random_chain(U4, rng, 4)] for _ in range(3))
    assert 0 < low[0] and high[-1] < full
    return [(U4, [0, *low]), (U4, [*high, full]), (U4, plain), (U4, [0, plain[0], full])]


def test_closed_form_matches_the_per_family_oracle():
    # every chain at two points (a chain has at most 2^2 + 1 members), and
    # seeded chains at three and four.  The completion is the chain whatever
    # the joins and meets are, so only their comparison with the oracle
    # notices a closed form that keeps the full family as a join or the
    # empty one as a meet, or swaps the two ends
    chains = [(U2, c) for c in _all_chains(U2, 5)]
    rng = random.Random(11)
    chains += [(U3, [f.word for f in random_chain(U3, rng, 6)]) for _ in range(40)]
    chains += _four_point_chains()
    assert len(chains) > 300
    for universe, words in chains:
        joins, meets = lattice._chain_joins_meets(universe, words)
        chain = as_sets(universe, *words)
        want_joins, want_meets = chain_joins_meets(universe.n, chain)
        assert frozenset(as_sets(universe, *joins)) == want_joins, words
        assert frozenset(as_sets(universe, *meets)) == want_meets, words
        done = chain_completion_finite(universe, fams(universe, *words))
        assert frozenset(as_sets(universe, *(f.word for f in done))) == chain_completion(
            universe.n, chain
        ), words


def test_completion_reads_no_word_of_the_cube(monkeypatch):
    # A relations word over the chain reads every member's interval pair
    # from cube.interval_words, one call per member.
    calls = []

    def counting(n, x):
        calls.append((n, x))
        return interval_words(n, x)

    for module, name in ((cube, "interval_words"), (lattice, "interval_words"),
                         (certificates, "interval_words"), (certificates, "_cond_route")):
        monkeypatch.setattr(module, name, counting)
    before = cube_word.cache_info()
    for universe, words in _four_point_chains():
        chain_completion_finite(universe, words)
    assert main(["verify", "chain-completion", "--n", "4", "--quiet"]) == 0
    assert cube_word.cache_info() == before
    assert calls == []


def test_completion_builds_no_family_per_comparable_family(monkeypatch):
    # Listing the comparable families built one Family each: 137 for this
    # chain of four.
    U4 = GroundSet(4)
    chain = random_chain(U4, random.Random(5), 6)
    built = []
    init = Family.__init__

    def counted_init(self, universe, word):
        built.append(word)
        init(self, universe, word)

    monkeypatch.setattr(Family, "__init__", counted_init)
    done = chain_completion_finite(U4, chain)
    assert {f.word for f in done} == {f.word for f in chain}
    assert len(built) <= len(chain) + 2, len(built)


def test_random_chains_are_chains():
    rng = random.Random(7)
    for _ in range(50):
        words = [f.word for f in random_chain(U3, rng, 4)]
        assert all((w & v) in (w, v) for w, v in combinations(words, 2))
        assert words == sorted(set(words))


def test_completion_check_passes():
    assert chain_completion_check(U2, max_len=4).passed
    assert chain_completion_check(U3, seed=3).passed


@pytest.mark.parametrize("n, max_len", [(1, -3), (2, 0), (3, 0)])
def test_completion_check_refuses_a_length_below_one(n, max_len):
    # exhaustive at n <= 2, sampled at n = 3: either would examine no chain
    with pytest.raises(ValueError, match=f"max_len >= 1, got {max_len}"):
        chain_completion_check(GroundSet(n), max_len=max_len)


@pytest.mark.parametrize("n, chain", [(2, [1]), (3, [197, 213, 255])])
def test_completion_check_names_the_chain_a_broken_closed_form_pads(monkeypatch, n, chain):
    # a closed form that adjoins the empty family: exhaustive at n = 2 and
    # sampled at n = 3, one loop names the first chain it pads
    closed_form = lattice._chain_joins_meets

    def with_empty(universe, cs):
        joins, meets = closed_form(universe, cs)
        return joins, [0, *meets]

    monkeypatch.setattr(lattice, "_chain_joins_meets", with_empty)
    report = chain_completion_check(GroundSet(n))
    assert report.verdict == "fail"
    assert report.witness == {"chain": chain, "extra": [0], "missing": []}


@pytest.mark.parametrize("generated", [
    lambda: close_words(()),
    lambda: lat_generate(U3, []),
    lambda: interval_identity_all(U3, []),
])
def test_an_empty_generator_list_is_refused(generated):
    with pytest.raises(ValueError, match="need at least one generating family"):
        generated()


@pytest.mark.parametrize("n", [2, 3])
def test_completion_check_refuses_a_padded_completion(monkeypatch, n):
    # adjoining the cube's bottom and top still gives a chain holding the
    # input and its meet and join, but it is not the chain itself
    complete = lattice.chain_completion_finite

    def padded(universe, chain):
        ends = {Family(universe, 0), Family(universe, (1 << universe.num_subsets) - 1)}
        return complete(universe, chain) | ends

    monkeypatch.setattr(lattice, "chain_completion_finite", padded)
    report = chain_completion_check(GroundSet(n))
    assert report.verdict == "fail"
    assert report.witness["extra"] and report.witness["missing"] == []
    assert main(["verify", "chain-completion", "--n", str(n), "--quiet"]) == 1


def _reference_chain(universe, rng, max_len):
    # random_chain's draws, written out: a start word, a target length, then
    # each step switches on a random nonempty sample of the zero bits
    word = rng.randrange(1 << universe.num_subsets)
    words, target = [word], rng.randint(1, max_len)
    while len(words) < target:
        zeros = [b for b in range(universe.num_subsets) if not (word >> b) & 1]
        if not zeros:
            break
        for b in rng.sample(zeros, rng.randint(1, len(zeros))):
            word |= 1 << b
        words.append(word)
    return words


@pytest.mark.parametrize("n", [3, 4])
def test_check_draws_the_chains_random_chain_draws(monkeypatch, n):
    # the check draws its chains as words; they must be the words of
    # random_chain's families, drawn from the same generator state
    universe = GroundSet(n)
    for seed in range(10):
        rng, ref = random.Random(seed), random.Random(seed)
        for max_len in range(1, 7):
            assert ([f.word for f in random_chain(universe, rng, max_len)]
                    == _reference_chain(universe, ref, max_len))
    drawn = []

    def recorded(universe, chain):
        drawn.append(list(chain))
        return frozenset(Family(universe, w) for w in chain)

    monkeypatch.setattr(lattice, "chain_completion_finite", recorded)
    for seed in range(10):
        for max_len in range(1, 7):
            drawn.clear()
            assert chain_completion_check(universe, seed=seed, max_len=max_len).passed
            rng = random.Random(seed)
            want = [[f.word for f in random_chain(universe, rng, max_len)]
                    for _ in range(lattice.CHAIN_SAMPLES)]
            assert drawn == want, (seed, max_len)
            assert all(type(w) is int for chain in drawn for w in chain)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", [7, 424242])
def test_chain_completion_reports_are_unchanged(tmp_path, monkeypatch, n, seed):
    path = tmp_path / "report.json"
    argv = ["verify", "chain-completion", "--n", str(n), "--seed", str(seed), "--quiet"]
    assert main([*argv, "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    report["elapsed_ms"] = 0
    assert report == {
        "schema_version": 1, "check": "chain-completion",
        "params": {"n": n, "max_len": 4, "seed": seed, "samples": 100},
        "verdict": "pass", "witness": None,
        "notes": ["100 seeded chains of length at most 4"], "elapsed_ms": 0,
    }
    # a padded completion fails on the first chain drawn, and names it
    universe = GroundSet(n)
    top = (1 << universe.num_subsets) - 1
    complete = lattice.chain_completion_finite
    monkeypatch.setattr(lattice, "chain_completion_finite", lambda u, chain: (
        complete(u, chain) | {Family(u, 0), Family(u, top)}))
    assert main([*argv, "--json", str(path)]) == 1
    first = [f.word for f in random_chain(universe, random.Random(seed), 4)]
    assert json.loads(path.read_text())["witness"] == {
        "chain": first, "extra": sorted({0, top} - set(first)), "missing": [],
    }


# ------------------------------------------------------------ omega chains


def test_omega_segment_chain_matches_union():
    fix = {"enum": EVENS.to_json()}
    stage, union, _ = initials_chain(fix)
    c5 = UPSet.from_ints([0, 2, 4, 6, 8, 10])
    report = chain_completion_omega(stage, union, [c5, ODDS, NATS], 64)
    assert report.passed
    assert any(n.endswith("stabilizes true at stage 5") for n in report.notes)
    assert any("stays false" in n for n in report.notes)


def test_omega_constant_chain():
    rule = lambda m: Explicit([EMPTY, NATS])
    report = chain_completion_omega(
        rule, Explicit([EMPTY, NATS]), [EMPTY, NATS, EVENS], 8
    )
    assert report.passed
    assert any("stabilizes true at stage 0" in n for n in report.notes)


def test_omega_growing_core_chain():
    stage, union = growing_core_chain({"core": EVENS.to_json()})
    one = UPSet.singleton(1)
    report = chain_completion_omega(stage, union, [EVENS, ODDS, one], 32)
    assert report.passed
    assert any(n.endswith("stabilizes true at stage 1") for n in report.notes)
    assert any(n.startswith(ODDS.describe() + " stays false") for n in report.notes)


def test_omega_union_missing_settled_coordinate_fails():
    fix = {"enum": EVENS.to_json()}
    stage, _, _ = initials_chain(fix)
    report = chain_completion_omega(
        stage, Explicit([EMPTY, NATS]), [UPSet.singleton(0)], 8
    )
    assert report.verdict == "fail"
    assert report.witness["entered_at_stage"] == 0


def test_omega_unsettled_union_member_is_inconclusive():
    fix = {"enum": EVENS.to_json()}
    stage, _, top = initials_chain(fix)
    report = chain_completion_omega(stage, top, [EVENS], 64)
    assert report.verdict == "inconclusive"
    assert report.witness["in_union_but_settled_by_no_stage"] == [EVENS.describe()]


def test_omega_membership_drop_raises():
    rule = lambda m: Explicit([EMPTY, NATS]) if m % 2 == 0 else Explicit([NATS])
    with pytest.raises(ValueError):
        chain_completion_omega(rule, Explicit([NATS]), [EMPTY], 4)


def test_omega_on_no_coordinates_is_inconclusive():
    stage, union, _ = initials_chain({"enum": EVENS.to_json()})
    report = chain_completion_omega(stage, union, [], 8)
    assert report.verdict == "inconclusive"
    assert report.witness == {"coordinates": 0}


def test_omega_rejects_bound_zero():
    stage, union, _ = initials_chain({"enum": EVENS.to_json()})
    with pytest.raises(ValueError, match="at least one stage"):
        chain_completion_omega(stage, union, [ODDS], 0)


# --------------------------------------------------------- missing joins


def test_join_witness_cofinite_generators():
    gens = [NATS - UPSet.singleton(0), NATS - UPSet.singleton(1)]
    report = join_completeness_witness(gens, EVENS)
    assert report.passed
    assert report.params["sampled_singletons"] == [0, 2, 4, 6, 8, 10, 12, 14]


def test_join_witness_candidate_generator_fails():
    report = join_completeness_witness([EVENS], EVENS)
    assert report.verdict == "fail"
    assert report.witness == {"candidate_is_member": EVENS.describe()}


def test_join_witness_disjoint_generator_passes():
    assert join_completeness_witness([EVENS], ODDS).passed


def test_join_witness_rejects_finite_candidate():
    with pytest.raises(ValueError):
        join_completeness_witness([EVENS], UPSet.from_ints([1, 2]))


def test_join_witness_refuses_points_it_cannot_sample():
    with pytest.raises(ValueError, match="one or more members"):
        join_completeness_witness([EVENS], ODDS, [])
    with pytest.raises(ValueError, match="one or more members"):
        join_completeness_witness([EVENS], ODDS, [1, 2])
    report = join_completeness_witness([EVENS], ODDS, [3, 1])
    assert report.passed and report.params["sampled_singletons"] == [3, 1]
