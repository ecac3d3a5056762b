"""The packaged walkthroughs should pass from their shipped fixtures."""

import random

import pytest

from topcube import ChainInitials, Explicit, UPSet, demos
from topcube.cli import DEMOS, load_fixture
from topcube.demos import (
    demo_chain_union,
    demo_initials_chain,
    demo_join_gap,
    demo_limit_vs_union,
    initials_chain,
)

EVENS = UPSet.evens()


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_packaged_demo_passes(name):
    fixture, fn = DEMOS[name]
    report = fn(load_fixture(fixture))
    assert report.passed, report.witness


def test_initials_demo_reports_the_gap_coordinate():
    report = demo_initials_chain(load_fixture("initials-chain"))
    assert any(
        "note: within bound 64" in n and EVENS.describe() in n for n in report.notes
    )


def test_initials_demo_builds_each_segment_once(monkeypatch):
    # The demo asks for 64 distinct segments thousands of times; building
    # each from a member list on every request made 4,893 calls to each of
    # these two per run.  The segments now come from a memo on integer words.
    fix = load_fixture("initials-chain")
    calls = {"from_ints": 0, "first_members": 0}
    from_ints, first_members = UPSet.from_ints.__func__, UPSet.first_members

    def counted_from_ints(cls, items):
        calls["from_ints"] += 1
        return from_ints(cls, items)

    def counted_first_members(self, k):
        calls["first_members"] += 1
        return first_members(self, k)

    monkeypatch.setattr(UPSet, "from_ints", classmethod(counted_from_ints))
    monkeypatch.setattr(UPSet, "first_members", counted_first_members)
    report = demo_initials_chain(fix)
    assert sum(calls.values()) <= 200, calls
    assert report.verdict == "pass"
    assert report.notes == [
        "stages converge to the declared top on all settling coordinates",
        "the top is a limit point of the stage set on the sampled patterns",
        "stages plus their plain union form a single convergent ladder",
        "the stage union matches eventual membership on every completion coordinate",
        "note: within bound 64 the declared top is reached by no stage at coordinate "
        "{0, 2, 4, 6, ...}; the top and the stage union are different points of the cube",
    ]


def test_nested_powersets_fixture():
    report = demo_chain_union(load_fixture("nested-powersets"))
    assert report.passed
    assert EVENS.describe() in report.notes[1]


def test_initials_builder_orders_stage_union_top():
    fix = load_fixture("initials-chain")
    stage, union, top = initials_chain(fix)
    c1 = UPSet.from_ints([0, 2])
    assert not stage(0).contains(c1) and stage(1).contains(c1)
    assert union.contains(c1) and not union.contains(EVENS)
    assert top.contains(EVENS)


def test_join_gap_rejects_candidate_that_is_a_member():
    fix = load_fixture("join-gap")
    fix["candidate"] = fix["gens"][0]
    report = demo_join_gap(fix)
    assert report.verdict == "fail"
    assert "candidate_is_member" in report.witness


def test_chain_union_rejects_wrong_witness():
    fix = load_fixture("powerset-chain")
    fix["expected_witness"] = {"pre": "", "period": "10"}
    report = demo_chain_union(fix)
    assert report.verdict == "fail"
    assert "unexpected_refutation" in report.witness


def test_initials_demo_rejects_wrong_unresolved_set():
    fix = load_fixture("initials-chain")
    fix["expected_unresolved"] = [{"pre": "", "period": "01"}]
    report = demo_initials_chain(fix)
    assert report.verdict == "fail"
    assert report.witness["union_completion"] == "pass"
    assert report.witness["top_completion"]["verdict"] != "inconclusive"


def test_initials_demo_passes_an_inconclusive_limit_point_on():
    fix = load_fixture("initials-chain")
    fix["limit_point_coords"] = []
    report = demo_initials_chain(fix)
    assert report.verdict == "inconclusive"
    assert report.witness["limit_point"] == "inconclusive"


def test_limit_vs_union_demo_passes_an_inconclusive_probe_on(monkeypatch):
    # no packaged expression has an empty probe pool: swap in two that do
    monkeypatch.setattr(demos, "initials_chain",
                        lambda fix: (None, Explicit([]), Explicit([])))
    fix = load_fixture("initials-chain")
    fix["completion_coords"] = []
    report = demo_limit_vs_union(fix)
    assert (report.verdict, report.witness) == ("inconclusive", {"coords": 0})


def test_limit_vs_union_demo_names_both_sides():
    report = demo_limit_vs_union(load_fixture("initials-chain"))
    assert report.passed
    assert EVENS.describe() in report.notes[0]


@pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
@pytest.mark.parametrize("enum", [EVENS, UPSet("1101", "011")])
def test_grown_stages_equal_the_explicit_stages(order, enum):
    # stage m is grown from stage m-1; it must be the family listed afresh,
    # members in the same order, whatever order the stages are asked for in
    stage, _, _ = initials_chain({"enum": enum.to_json()})
    segments = [ChainInitials(enum).initial_segment(j) for j in range(demos.MAX_STAGES + 1)]
    ms = list(range(demos.MAX_STAGES))
    if order == "decreasing":
        ms.reverse()
    elif order == "shuffled":
        random.Random(5).shuffle(ms)
    probes = [*segments, UPSet.empty(), UPSet.naturals(), enum, ~enum, EVENS]
    for m in ms:
        want = Explicit([UPSet.empty(), *segments[:m + 1], UPSet.naturals()])
        got = stage(m)
        assert got.members == want.members, m
        assert [got.contains(w) for w in probes] == [want.contains(w) for w in probes], m
    with pytest.raises(ValueError, match="at least 0"):
        stage(-1)
