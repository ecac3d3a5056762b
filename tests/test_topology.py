"""Topology axioms, generation, disjointness, counting, and the size-up embedding."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topcube import (
    Family,
    GroundSet,
    Topology,
    all_topologies,
    are_disjoint,
    atom_closure_certificate,
    count_topologies,
    embedding_check,
    inject_topology,
    is_topology,
    top_generate,
)
from topcube import topology
from topcube.cli import main
from topcube.cube import add_point, set_bits
from topcube.oracles import (
    count_preorders,
    count_topologies_by_filter,
    family_is_topology,
    generated_topology,
    inject,
)
from topcube.topology import is_topology_word, topology_word

U1 = GroundSet(1)
U2 = GroundSet(2)
U3 = GroundSet(3)


def fam(universe, *masks):
    return Family.from_masks(universe, masks)


def discrete(universe):
    return Topology(Family(universe, 2 ** universe.num_subsets - 1))


def as_frozensets(universe, family):
    n = universe.n
    return frozenset(
        frozenset(p for p in range(n) if (m >> p) & 1) for m in set_bits(family.word)
    )


# ----------------------------------------------------------------- axioms


def test_point_topology():
    assert is_topology(fam(U2, 0, 1, 3))


def test_missing_empty_set():
    assert not is_topology(fam(U2, 1, 3))


def test_powerset_is_discrete():
    assert is_topology(Family(U2, 15))
    assert discrete(U2).family.word == 15


def test_topology_wrapper_validates():
    with pytest.raises(ValueError):
        Topology(fam(U3, 0, 1, 2, 7))  # {0} | {1} = {0,1} missing
    # over two points the same pick happens to be all of P(X), hence fine
    assert Topology(fam(U2, 0, 1, 2, 3)) == discrete(U2)


@given(st.integers(0, 2**16 - 1))
def test_axioms_agree_with_reference(word):
    f = Family(U2, word % 16)
    assert is_topology(f) == family_is_topology(2, as_frozensets(U2, f))


# ------------------------------------------------------------- generation


def test_generate_from_nothing_is_trivial():
    assert top_generate(U2, []).family.word == (1 | (1 << 3))


def test_generate_single_point_open():
    t = top_generate(U2, [0b01])
    assert set_bits(t.family.word) == [0, 1, 3]


def test_generate_all_singletons_is_discrete():
    subbase = [1 << i for i in range(3)]
    assert top_generate(U3, subbase) == discrete(U3)


def test_generate_idempotent():
    t = top_generate(U3, [0b011, 0b101])
    assert top_generate(U3, set_bits(t.family.word)) == t


def test_generated_words_pass_the_validator():
    # top_generate wraps its closure without re-checking the axioms
    rng = random.Random(3)
    for _ in range(200):
        subbase = [rng.randrange(8) for _ in range(rng.randint(0, 5))]
        assert is_topology_word(3, top_generate(U3, subbase).family.word), subbase


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 7), max_size=4))
def test_generate_agrees_with_reference(subbase):
    t = top_generate(U3, subbase)
    sets = [frozenset(p for p in range(3) if (m >> p) & 1) for m in subbase]
    assert as_frozensets(U3, t.family) == generated_topology(3, sets)


# ------------------------------------------------------------ disjointness


def test_distinct_point_topologies_are_disjoint():
    s = Topology(fam(U2, 0, 1, 3))
    t = Topology(fam(U2, 0, 2, 3))
    assert are_disjoint(s, t)
    assert not are_disjoint(s, s)


def test_disjoint_chain_pair():
    s = Topology(fam(U3, 0, 1, 3, 7))
    t = Topology(fam(U3, 0, 4, 6, 7))
    assert are_disjoint(s, t)


def test_trivial_is_disjoint_from_itself():
    i = Topology.trivial(U3)
    assert are_disjoint(i, i)


# --------------------------------------------------------------- counting


def test_frozen_counts():
    assert [count_topologies(GroundSet(n)) for n in (1, 2, 3, 4)] == [1, 4, 29, 355]


def test_counts_match_filter_oracle():
    for n in (1, 2, 3):
        assert count_topologies(GroundSet(n)) == count_topologies_by_filter(n)


def test_counts_match_preorder_oracle():
    for n in (1, 2, 3):
        assert count_topologies(GroundSet(n)) == count_preorders(n)


def test_counting_capped():
    with pytest.raises(ValueError):
        count_topologies(GroundSet(5))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_topology_word_matches_per_word_validator(n):
    universe = GroundSet(n)
    expected = [w for w in range(2 ** 2 ** n) if is_topology_word(n, w)]
    assert set_bits(topology_word(universe)) == expected
    assert [t.family.word for t in all_topologies(universe)] == expected
    assert count_topologies(universe) == len(expected)


def test_all_topologies_lists_them():
    tops = all_topologies(U2)
    assert len(tops) == 4
    assert Topology.trivial(U2) in tops and discrete(U2) in tops


# ---------------------------------------------------------------- embedding


def test_inject_point_map_example():
    # the point map [1] inserts the new point at 0: each subset comes back
    # without and with it, so the trivial topology on one point becomes discrete
    trivial, full = Topology.trivial(U1), discrete(U2)
    assert add_point(trivial.family.word, 1, 0) == full.family.word
    assert inject(1, as_frozensets(U1, trivial.family), 2, [1]) == as_frozensets(
        U2, full.family)


def test_inject_identity_keeps_discrete():
    assert inject_topology(discrete(U2), U2) == discrete(U2)


def test_inject_image_is_topology():
    for t in all_topologies(U2):
        img = inject_topology(t, U3)
        assert is_topology(img.family)


def test_inject_is_injective():
    images = {inject_topology(t, U3) for t in all_topologies(U2)}
    assert len(images) == 4


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inject_word_map_matches_the_point_loop(n):
    # the word map against the frozenset subset loop along the identity
    for t in all_topologies(GroundSet(n)):
        opens = as_frozensets(GroundSet(n), t.family)
        for big in (n, n + 1, n + 2):
            target = GroundSet(big)
            expected = inject(n, opens, big, list(range(n)))
            assert as_frozensets(target, inject_topology(t, target).family) == expected, (t, big)


def test_inject_rejects_bad_maps():
    # no injection reaches a smaller ground set
    with pytest.raises(ValueError):
        inject_topology(discrete(U2), U1)


def test_embedding_check_small():
    assert embedding_check(U2).passed
    report = embedding_check(U3)
    assert report.passed
    assert "29 topologies" in report.notes[0]


def test_embedding_check_at_four_points():
    report = embedding_check(GroundSet(4))
    assert report.passed
    assert "355 topologies" in report.notes[0]


def _naive_first_mismatch(sources, images):
    for (i, x, ix), (j, y, iy) in permutations(zip(range(len(sources)), sources, images), 2):
        if (x != y and x & y == x) != (ix != iy and ix & iy == ix):
            return i, j
    return None


def test_inclusion_audit_matches_the_pairwise_loop():
    # n = 3 words fill one and two byte tables (8 and 16 subsets), n = 4
    # words two and four; at n = 4 half the sources are topologies, whose
    # strict inclusions random words seldom have
    rng = random.Random(12)
    tops4 = [t.family.word for t in all_topologies(GroundSet(4))]
    for n, trials, most in ((3, 300, 12), (4, 150, 24)):
        verdicts = set()
        for trial in range(trials):
            k = rng.randint(2, most)
            if n == 4 and trial % 2:
                sources = rng.sample(tops4, k)
            else:
                sources = rng.sample(range(1 << (1 << n)), k)
            images = [add_point(w, n, n) for w in sources]
            if trial % 3:
                # plant a broken image: one bit cleared or added
                images[rng.randrange(len(images))] ^= 1 << rng.randrange(1 << (n + 1))
                if len(set(images)) != len(images):
                    continue
            columns = topology._columns(images, 1 << (n + 1))
            expected = _naive_first_mismatch(sources, images)
            assert topology._first_inclusion_mismatch(sources, images, columns) == expected
            verdicts.add(expected is None)
        assert verdicts == {True, False}, n


def test_embedding_reports_an_image_that_is_no_topology(monkeypatch, capsys):
    def drop_full_set(word, n, x):
        return add_point(word, n, x) & ~(1 << ((1 << (n + 1)) - 1))

    monkeypatch.setattr(topology, "add_point", drop_full_set)
    report = embedding_check(U3)
    assert report.verdict == "fail"
    assert report.witness == {"not-a-topology": [0, 7]}
    assert main(["verify", "embedding", "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert "not-a-topology" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_embedding_collision_names_both_sources(monkeypatch):
    monkeypatch.setattr(topology, "add_point", lambda _word, n, _x: (1 << (1 << (n + 1))) - 1)
    report = embedding_check(U2)
    assert report.verdict == "fail"
    sources = [set_bits(t.family.word) for t in all_topologies(U2)]
    assert report.witness == {"collision": sources[:2]}


def test_embedding_names_the_first_of_two_broken_images(monkeypatch, capsys):
    tops = all_topologies(U3)
    k1, k2 = 11, 17
    broken = {tops[k1].family.word, tops[k2].family.word}

    def drop_full_set(word, n, x):
        image = add_point(word, n, x)
        return image & ~(1 << ((1 << (n + 1)) - 1)) if word in broken else image

    monkeypatch.setattr(topology, "add_point", drop_full_set)
    report = embedding_check(U3)
    assert report.verdict == "fail"
    assert report.witness == {"not-a-topology": set_bits(tops[k1].family.word)}
    assert main(["verify", "embedding", "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert "not-a-topology" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_embedding_names_the_pair_whose_inclusion_a_swap_breaks(monkeypatch):
    # two images swapped: every image is still a topology and the map is
    # still injective, so only the inclusion audit can refute it
    tops = all_topologies(U3)
    words = [t.family.word for t in tops]
    i, j = 9, 20
    swap = {words[i]: words[j], words[j]: words[i]}
    monkeypatch.setattr(topology, "add_point",
                        lambda word, n, x: add_point(swap.get(word, word), n, x))
    images = [add_point(swap.get(w, w), 3, 3) for w in words]
    assert all(is_topology_word(4, image) for image in images)
    assert len(set(images)) == len(images)
    expected = _naive_first_mismatch(words, images)
    assert expected is not None
    report = embedding_check(U3)
    assert report.verdict == "fail"
    assert report.witness == {"source": set_bits(tops[expected[0]].family.word),
                              "other": set_bits(tops[expected[1]].family.word)}


def test_sweeps_build_no_topology_object(monkeypatch):
    # The embedding sweep used to wrap all 355 topologies at n = 4 in
    # Topology objects, and the atom certificate one per chosen atom, only
    # to read their words back.
    built = []
    init, certified = Topology.__init__, topology._certified

    def counted_init(self, fam):
        built.append(fam.word)
        init(self, fam)

    def counted_certified(universe, word):
        built.append(word)
        return certified(universe, word)

    monkeypatch.setattr(Topology, "__init__", counted_init)
    monkeypatch.setattr(topology, "_certified", counted_certified)
    U4 = GroundSet(4)
    assert embedding_check(U4).passed
    assert atom_closure_certificate(U4, [1, 2, 4]).passed
    assert built == []


# ------------------------------------------------------ bit-sliced axioms


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_axioms_word_agrees_with_the_per_word_validator(n):
    # every family for n <= 3; at n = 4 and 5 the images of the topologies
    # on one point fewer, and seeded one-bit flips of each
    width = 1 << n
    if n <= 3:
        words = list(range(1 << width))
    else:
        rng = random.Random(n)
        images = [add_point(t.family.word, n - 1, n - 1)
                  for t in all_topologies(GroundSet(n - 1))]
        words = images + [w ^ (1 << rng.randrange(width)) for w in images for _ in range(2)]
    everyone = (1 << len(words)) - 1
    word = topology._axioms_word(topology._columns(words, width), everyone, n)
    assert word >> len(words) == 0
    assert [(word >> j) & 1 == 1 for j in range(len(words))] == [
        is_topology_word(n, w) for w in words
    ]
    assert 0 < word < everyone


def _naive_columns(words, width):
    return [sum(((w >> a) & 1) << j for j, w in enumerate(words)) for a in range(width)]


@pytest.mark.parametrize("words", [[0b1011_0010], [0], [0xFF], [0, 0xFF, 0x5A, 1, 0x80]])
def test_columns_transpose_the_words(words):
    assert topology._columns(words, 8) == _naive_columns(words, 8)


def test_columns_refuse_a_word_out_of_range():
    # the string slices would otherwise shift every column without an error
    with pytest.raises(ValueError):
        topology._columns([3, 1 << 8], 8)
    with pytest.raises(ValueError):
        topology._columns([-1], 8)


# ------------------------------------------------------- bounded sublattices
# The reference predicate reads "topology" as "contains both bounds and is
# closed under pairwise meet and join", in naive frozenset code.


def test_topologies_are_bounded_sublattices():
    for t in all_topologies(U3):
        assert family_is_topology(3, as_frozensets(U3, t.family))


def test_join_escape_is_not_bounded():
    f = fam(U3, 0, 1, 2, 7)
    assert not is_topology(f)
    assert not family_is_topology(3, as_frozensets(U3, f))


def test_bounds_and_pairwise_closure_suffice():
    assert is_topology(fam(U3, 0, 1, 3, 7))


def test_bounded_sublattice_is_topology_extensionally():
    # finiteness collapses arbitrary unions to pairwise ones, so the two
    # predicates coincide on every family of the sweep
    for universe in (U1, U2, U3):
        for word in range(1 << universe.num_subsets):
            f = Family(universe, word)
            assert is_topology(f) == family_is_topology(
                universe.n, as_frozensets(universe, f)
            )
