"""The one vacuous-pass rule: a check that examined nothing never passes."""

import pytest

from topcube import Explicit, UPSet, fam_is_topology_sym, is_limit_point_sampled
from topcube.report import FAIL, INCONCLUSIVE, PASS, Stopwatch

EMPTY, NATS = UPSet.empty(), UPSet.naturals()


@pytest.mark.parametrize("verdict, witness", [(PASS, None), (INCONCLUSIVE, {"step": 3})])
def test_zero_work_turns_pass_and_inconclusive_into_the_count(verdict, witness):
    timer = Stopwatch("probe", {"depth": 4, "coords": 0}, work="coords")
    report = timer.report(verdict, witness, notes=["looked at every coordinate"])
    assert (report.verdict, report.witness, report.notes) == (INCONCLUSIVE, {"coords": 0}, [])
    assert report.params == {"depth": 4, "coords": 0}
    assert report.exit_code() == 3


def test_the_work_count_is_read_when_the_report_is_built():
    # a count known only after the heavy step is added to params in place
    timer = Stopwatch("probe", {}, work="coords")
    timer.params["coords"] = 0
    assert timer.report(PASS).witness == {"coords": 0}
    timer.params["coords"] = 2
    assert timer.report(PASS).passed


def test_a_fail_needs_no_work():
    timer = Stopwatch("probe", {"coords": 0}, work="coords")
    report = timer.report(FAIL, {"kind": "missing"}, notes=["why"])
    assert (report.verdict, report.witness, report.notes) == (FAIL, {"kind": "missing"}, ["why"])


@pytest.mark.parametrize("verdict, witness", [(PASS, None), (INCONCLUSIVE, {"step": 3}),
                                              (FAIL, {"kind": "missing"})])
@pytest.mark.parametrize("work", [None, "coords"])
def test_work_done_or_undeclared_leaves_the_report_alone(verdict, witness, work):
    params = {"coords": 5} if work else {"coords": 0}
    report = Stopwatch("probe", params, work=work).report(verdict, witness, ["note"])
    assert (report.verdict, report.witness, report.notes) == (verdict, witness, ["note"])


def test_a_family_without_the_empty_set_fails_with_no_pair():
    report = fam_is_topology_sym(Explicit([NATS]), [])
    assert report.verdict == FAIL and report.witness["kind"] == "missing-empty-set"
    assert report.params["probe_pairs"] == 0


def test_limit_point_with_no_coordinate_and_no_candidate_names_the_count():
    # before the rule this said "some neighbourhood misses the whole candidate pool"
    report = is_limit_point_sampled(Explicit([EMPTY, NATS]), [], [])
    assert (report.verdict, report.witness, report.notes) == (INCONCLUSIVE, {"coords": 0}, [])
