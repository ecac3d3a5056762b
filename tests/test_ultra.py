"""Principal ultrafilters, traces, and the maximal non-discrete topologies."""

import pytest

from topcube import (
    Family,
    GroundSet,
    PrincipalUF,
    all_ultrafilters,
    all_ultratopologies,
    extend_trace,
    subbase_correspondence_check,
    trace,
    trace_bijection_check,
    trace_family,
    trace_reconstruction_check,
    ultra_cover_check,
    ultrafilters_avoiding,
    ultratopologies_at,
    ultratopology,
)
from topcube.ultra import reconstruct_from_trace

U2 = GroundSet(2)
U3 = GroundSet(3)
U4 = GroundSet(4)
U5 = GroundSet(5)


# ------------------------------------------------------------- ultrafilters


def test_one_ultrafilter_per_point():
    ufs = all_ultrafilters(U3)
    assert len(ufs) == 3
    assert len(set(ufs)) == 3


def test_member_count_is_half_the_powerset():
    for universe in (U2, U3, U4):
        for uf in all_ultrafilters(universe):
            assert len(uf.member_masks()) == 2 ** (universe.n - 1)


def test_ultrafilter_dichotomy():
    uf = PrincipalUF(U3, 1)
    full = U3.full_mask
    for m in U3.subset_masks():
        assert uf.contains_mask(m) != uf.contains_mask(full & ~m)


def test_ultrafilter_immutable_and_validated():
    uf = PrincipalUF(U3, 2)
    with pytest.raises(AttributeError):
        uf.point = 0
    with pytest.raises(ValueError):
        PrincipalUF(U3, 3)


def test_avoiding_a_point():
    assert {u.point for u in ultrafilters_avoiding(U3, 0)} == {1, 2}
    assert {u.point for u in ultrafilters_avoiding(U2, 1)} == {0}
    for x in range(4):
        assert len(ultrafilters_avoiding(U4, x)) == 3
    with pytest.raises(ValueError):
        ultrafilters_avoiding(U3, 5)


# ------------------------------------------------------------------ traces


def test_trace_single_point():
    tr, remap = trace(PrincipalUF(U3, 1), 0)
    assert tr == PrincipalUF(U2, 0)
    assert remap == {1: 0, 2: 1}


def test_trace_of_nothing_is_identity():
    uf = PrincipalUF(U3, 1)
    tr, remap = trace(uf, [])
    assert tr == uf
    assert remap == {0: 0, 1: 1, 2: 2}


def test_trace_of_point_set():
    tr, remap = trace(PrincipalUF(U4, 3), [0, 2])
    assert tr == PrincipalUF(U2, 1)
    assert remap == {1: 0, 3: 1}


def test_trace_at_own_point_rejected():
    with pytest.raises(ValueError):
        trace(PrincipalUF(U3, 0), 0)
    with pytest.raises(ValueError):
        trace_family(PrincipalUF(U3, 0), 0)


def test_trace_family_is_the_principal_family():
    for universe in (U2, U3, U4):
        for x in range(universe.n):
            for uf in ultrafilters_avoiding(universe, x):
                fam, remap = trace_family(uf, x)
                tr, remap2 = trace(uf, x)
                # the points after x move down one place, the rest stay
                expected = {y: (y if y < x else y - 1) for y in range(universe.n) if y != x}
                assert remap == remap2 == expected
                assert fam == tr.as_family()


def test_round_trips():
    for universe in (U2, U3, U4, U5):
        for x in range(universe.n):
            for uf in ultrafilters_avoiding(universe, x):
                tr, _ = trace(uf, x)
                assert extend_trace(tr, x) == uf
        small = GroundSet(universe.n - 1) if universe.n > 1 else None
        if small is None:
            continue
        for h in all_ultrafilters(small):
            for x in range(universe.n):
                lifted = extend_trace(h, x)
                back, _ = trace(lifted, x)
                assert back == h


def test_reconstruction_formula():
    # a trace member comes back both with and without the removed point
    uf = PrincipalUF(U3, 1)
    fam, _ = trace_family(uf, 0)
    assert reconstruct_from_trace(fam, 0) == uf.as_family()


def test_trace_checks_pass():
    for universe in (U2, U3, U4, U5):
        assert trace_reconstruction_check(universe).passed
    for universe in (U2, U3, U4, U5):
        assert trace_bijection_check(universe).passed


# ---------------------------------------------------------- ultratopologies


def test_frozen_three_point_example():
    t = ultratopology(U3, 0, PrincipalUF(U3, 1))
    assert sorted(t.open_masks()) == [0, 2, 3, 4, 6, 7]


def test_excluded_singleton_never_open():
    for x in range(3):
        for t in ultratopologies_at(U3, x):
            assert not t.family.contains_mask(1 << x)
            assert t.family.contains_mask(0)
            assert t.family.contains_mask(U3.full_mask)


def test_ultrafilter_at_excluded_point_rejected():
    with pytest.raises(ValueError):
        ultratopology(U3, 1, PrincipalUF(U3, 1))


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
