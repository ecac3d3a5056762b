"""Principal ultrafilters as family words, traces, and the maximal
non-discrete topologies."""

import random

import pytest

from topcube import (
    GroundSet,
    all_ultratopologies,
    subbase_correspondence_check,
    trace_bijection_check,
    trace_reconstruction_check,
    ultra_cover_check,
    ultratopologies_at,
    ultratopology,
)
from topcube.cube import add_point, magic_mask, remove_point
from topcube.oracles import powerset, principal_ultrafilter, reconstruct, trace

U2 = GroundSet(2)
U3 = GroundSet(3)
U4 = GroundSet(4)
U5 = GroundSet(5)


def word_of(fam) -> int:
    """The family word of a frozenset family."""
    return sum(1 << sum(1 << p for p in s) for s in fam)


def family_of(n: int, word: int) -> frozenset:
    """The frozenset family of a word on n points."""
    return frozenset(s for s in powerset(range(n)) if (word >> sum(1 << p for p in s)) & 1)


# ------------------------------------------------------------- ultrafilters


def test_one_ultrafilter_per_point():
    words = [magic_mask(y, 3) for y in range(3)]
    assert len(set(words)) == 3


def test_member_count_is_half_the_powerset():
    for universe in (U2, U3, U4):
        for y in range(universe.n):
            assert magic_mask(y, universe.n).bit_count() == 2 ** (universe.n - 1)


def test_ultrafilter_dichotomy():
    mu = magic_mask(1, 3)
    full = U3.full_mask
    for m in U3.subset_masks():
        assert (mu >> m) & 1 != (mu >> (full & ~m)) & 1


def test_points_outside_the_ground_set_rejected():
    for x, y in [(0, 3), (3, 0), (-1, 1), (1, -1)]:
        with pytest.raises(ValueError):
            ultratopology(U3, x, y)


def test_avoiding_a_point():
    assert ultratopologies_at(U3, 0) == {ultratopology(U3, 0, 1), ultratopology(U3, 0, 2)}
    assert ultratopologies_at(U2, 1) == {ultratopology(U2, 1, 0)}
    for x in range(4):
        assert len(ultratopologies_at(U4, x)) == 3
    with pytest.raises(ValueError):
        ultratopologies_at(U3, 5)


# ------------------------------------------------------------------ traces


def test_trace_single_point():
    # removing point 0 moves points 1 and 2 down to 0 and 1
    assert remove_point(magic_mask(1, 3), 3, 0) == magic_mask(0, 2)
    assert remove_point(magic_mask(2, 3), 3, 0) == magic_mask(1, 2)


def test_trace_of_point_set():
    # removing points 0 and 2 of four, one at a time, leaves 3 as point 1
    once = remove_point(magic_mask(3, 4), 4, 2)
    assert remove_point(once, 3, 0) == magic_mask(1, 2)


def test_trace_at_own_point_is_degenerate():
    # cutting away the concentration point leaves the whole powerset, not
    # an ultrafilter, which is why the checks never take that trace
    for n in range(2, 6):
        for x in range(n):
            assert remove_point(magic_mask(x, n), n, x) == (1 << (1 << (n - 1))) - 1


def test_trace_family_is_the_principal_family():
    for universe in (U2, U3, U4):
        n = universe.n
        for x in range(n):
            for y in range(n):
                if y != x:
                    # the points after x move down one place, the rest stay
                    expected = y if y < x else y - 1
                    assert remove_point(magic_mask(y, n), n, x) == magic_mask(expected, n - 1)


def test_round_trips():
    for universe in (U2, U3, U4, U5):
        n = universe.n
        for x in range(n):
            for y in range(n):
                if y != x:
                    mu = magic_mask(y, n)
                    assert add_point(remove_point(mu, n, x), n - 1, x) == mu
            for h in range(n - 1):
                mu = magic_mask(h, n - 1)
                assert remove_point(add_point(mu, n - 1, x), n, x) == mu


def test_reconstruction_formula():
    # a trace member comes back both with and without the removed point
    cut = remove_point(magic_mask(1, 3), 3, 0)
    assert add_point(cut, 2, 0) == magic_mask(1, 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_word_routes_match_the_frozenset_oracle(n):
    full = (1 << (1 << n)) - 1
    subsets = frozenset(powerset(range(n)))
    for y in range(n):
        mu = magic_mask(y, n)
        uf = principal_ultrafilter(n, y)
        assert mu == word_of(uf)
        for x in range(n):
            if x == y:
                continue
            cut = trace(uf, x)
            # both trace routes: compressing mu_y, and mu at the re-indexed point
            assert remove_point(mu, n, x) == word_of(cut)
            assert magic_mask(y - (y > x), n - 1) == word_of(cut)
            assert add_point(word_of(cut), n - 1, x) == word_of(reconstruct(cut, x)) == mu
            opens = (subsets - principal_ultrafilter(n, x)) | uf
            assert ultratopology(GroundSet(n), x, y).family.word == word_of(opens)
            assert (full ^ magic_mask(x, n)) | mu == word_of(opens)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_point_moves_match_the_oracle_on_any_family(n):
    rng = random.Random(n)
    for x in range(n):
        for _ in range(20):
            word = rng.getrandbits(1 << n)
            assert remove_point(word, n, x) == word_of(trace(family_of(n, word), x))
            small = rng.getrandbits(1 << (n - 1))
            lifted = add_point(small, n - 1, x)
            assert lifted == word_of(reconstruct(family_of(n - 1, small), x))
            assert remove_point(lifted, n, x) == small


def test_trace_checks_pass():
    for universe in (U2, U3, U4, U5):
        assert trace_reconstruction_check(universe).passed
    for universe in (U2, U3, U4, U5):
        assert trace_bijection_check(universe).passed


# ---------------------------------------------------------- ultratopologies


def test_frozen_three_point_example():
    t = ultratopology(U3, 0, 1)
    assert sorted(t.open_masks()) == [0, 2, 3, 4, 6, 7]


def test_excluded_singleton_never_open():
    for x in range(3):
        for t in ultratopologies_at(U3, x):
            assert not t.family.contains_mask(1 << x)
            assert t.family.contains_mask(0)
            assert t.family.contains_mask(U3.full_mask)


def test_ultrafilter_at_excluded_point_rejected():
    with pytest.raises(ValueError):
        ultratopology(U3, 1, 1)


def test_count_and_distinctness():
    for universe in (U3, U4, U5):
        n = universe.n
        assert len(all_ultratopologies(universe)) == n * (n - 1)


def test_correspondence_table_rows():
    report = subbase_correspondence_check(U3, 0)
    assert report.passed
    assert report.notes[0] == "table rows: 4"
    rows = [eval(r) for r in report.notes[1:]]
    assert [r["subset"] for r in rows] == [[], [1], [2], [1, 2]]
    assert all(r["open_at"] == r["subset"] for r in rows)
    assert [r["with_excluded"] for r in rows] == [[0], [0, 1], [0, 2], [0, 1, 2]]


def test_correspondence_all_points():
    for universe in (U2, U3, U4):
        for x in range(universe.n):
            assert subbase_correspondence_check(universe, x).passed


def test_cover_check():
    r3 = ultra_cover_check(U3)
    assert r3.passed
    assert "6 topologies split into 3 blocks of 2" in r3.notes[0]
    assert ultra_cover_check(U4).passed
    r2 = ultra_cover_check(U2)
    assert r2.passed
    assert "2 topologies split into 2 blocks of 1" in r2.notes[0]
    with pytest.raises(ValueError):
        ultra_cover_check(GroundSet(1))
