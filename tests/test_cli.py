"""Exit codes, JSON output, and the pinned report shape."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topcube import GroundSet, subbase_correspondence_check
from topcube.cli import CHECKS, DEMOS, load_fixture, main
from topcube.demos import MAX_STAGES
from topcube.report import INCONCLUSIVE, Stopwatch

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def test_passing_check_exits_zero(capsys):
    assert main(["verify", "atom-closure", "--quiet"]) == 0
    assert main(["count", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "count" in out and "pass" in out


def test_every_check_runs_clean():
    for name in (
        "interval-identity",
        "chain-completion",
        "trace-reconstruction",
        "trace-bijection",
        "subbase-correspondence",
        "ultra-cover",
        "embedding",
    ):
        assert main(["verify", name, "--n", "3", "--quiet"]) == 0, name
    assert main(["verify", "disjoint-closure", "--n", "3", "--seed", "7", "--quiet"]) == 0
    assert main(["verify", "disjoint-closure", "--fixture", "disjoint-pair", "--quiet"]) == 0


def test_failing_demo_exits_one(tmp_path, capsys):
    fix = {
        "gens": [{"pre": "0", "period": "1"}],
        "candidate": {"pre": "0", "period": "1"},
        "sample_points": [1, 2],
    }
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(fix), encoding="utf-8")
    assert main(["demo", "join-gap", "--fixture", str(path)]) == 1
    assert "candidate_is_member" in capsys.readouterr().out


def test_domain_errors_exit_two(capsys):
    assert main(["verify", "ultra-cover", "--n", "1", "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["demo", "join-gap", "--fixture", "no-such-fixture", "--quiet"]) == 2


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-check"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bad_coords_file_exits_two(tmp_path, capsys):
    path = tmp_path / "coords.json"
    path.write_text('{"pre": "", "period": "1"}', encoding="utf-8")
    code = main(["demo", "initials-chain", "--coords", str(path), "--quiet"])
    assert code == 2
    assert "JSON list" in capsys.readouterr().err


def _write(tmp_path, name, data) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "argv, fixture",
    [
        (["verify", "atom-closure"], {"n": "3", "opens": [1, 2]}),
        (["verify", "atom-closure"], {"n": 3, "opens": ["a", 2]}),
        (["verify", "disjoint-closure"], {"n": 3, "topologies": "0,7"}),
        (["verify", "disjoint-closure"], {"n": 3, "topologies": [["a"]]}),
        (["verify", "disjoint-closure"], {"n": 3, "topologies": []}),
        (["verify", "atom-closure"], [3, [1, 2]]),
        (["demo", "join-gap"], {"gens": [{"pre": 5, "period": "0"}],
                                "candidate": {"pre": "", "period": "10"},
                                "sample_points": [0]}),
    ],
)
def test_bad_fixture_exits_two(tmp_path, capsys, argv, fixture):
    path = _write(tmp_path, "fixture.json", fixture)
    assert main(argv + ["--fixture", path, "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err


def test_initials_demo_on_no_completion_coordinates_exits_three(tmp_path):
    # an empty coordinate file leaves the union completion nothing to check
    path = _write(tmp_path, "coords.json", [])
    assert main(["demo", "initials-chain", "--coords", path, "--quiet"]) == 3


def test_bad_coordinate_type_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "coords.json", [{"pre": 5, "period": "0"}])
    assert main(["demo", "limit-vs-union", "--coords", path, "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err


def test_zero_depth_fixture_exits_two(tmp_path, capsys):
    fix = load_fixture("initials-chain")
    fix["depth"] = 0
    path = _write(tmp_path, "fixture.json", fix)
    assert main(["demo", "initials-chain", "--fixture", path, "--quiet"]) == 2
    assert "at least one stage" in capsys.readouterr().err


@pytest.mark.parametrize(
    "demo, key, value",
    [
        ("initials-chain", "depth", "3"),
        ("join-gap", "sample_points", ["a"]),
        ("powerset-chain", "depth", 0),
        ("initials-chain", "depth", MAX_STAGES + 1),
        ("powerset-chain", "depth", MAX_STAGES + 1),
    ],
)
def test_bad_demo_scalar_exits_two(tmp_path, capsys, demo, key, value):
    fix = load_fixture(DEMOS[demo][0])
    fix[key] = value
    path = _write(tmp_path, "fixture.json", fix)
    assert main(["demo", demo, "--fixture", path, "--quiet"]) == 2
    assert f"fixture {key!r} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "atom-closure", "--fixture"],
        ["demo", "limit-vs-union", "--coords"],
        ["count", "--n", "1", "--json"],
    ],
)
def test_directory_as_input_file_exits_two(tmp_path, capsys, argv):
    assert main(argv + [f"{tmp_path}/", "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err


def test_explicit_n_without_fixture_is_honoured(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "atom-closure", "--n", "2", "--quiet", "--json", str(out)]) == 0
    params = json.loads(out.read_text(encoding="utf-8"))["params"]
    assert (params["n"], params["chosen"]) == (2, [1, 2])


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "atom-closure", "--fixture", "all-atoms-n3", "--n", "2"],
        ["verify", "disjoint-closure", "--fixture", "disjoint-pair", "--n", "4"],
    ],
)
def test_n_disagreeing_with_fixture_exits_two(capsys, argv):
    assert main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"--n {argv[-1]}" in err and "fixture's n = 3" in err
    assert main(argv[:-1] + ["3", "--quiet"]) == 0


@pytest.mark.parametrize("demo", ["powerset-chain", "join-gap"])
def test_bound_on_a_demo_without_one_exits_two(capsys, demo):
    assert main(["demo", demo, "--bound", "2", "--quiet"]) == 2
    assert "only to the initials-chain demo" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "embedding", "--n", "2", "--bound", "7"],
        ["verify", "atom-closure", "--bound", "1"],
        ["verify", "disjoint-closure", "--fixture", "disjoint-pair", "--bound", "2"],
    ],
)
def test_bound_on_a_check_without_one_exits_two(capsys, argv):
    assert main(argv + ["--quiet"]) == 2
    assert "--bound applies only to chain-completion" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["0", "-3"])
@pytest.mark.parametrize("name", ["chain-completion", "disjoint-closure"])
def test_bound_below_one_exits_two(capsys, name, bound):
    assert main(["verify", name, "--bound", bound, "--quiet"]) == 2
    assert "--bound must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, key, default", [("chain-completion", "max_len", 4), ("disjoint-closure", "topologies", 3)]
)
def test_bound_is_read_where_it_applies(tmp_path, name, key, default):
    out = tmp_path / "report.json"
    for argv, want in (([], default), (["--bound", "2"], 2)):
        assert main(["verify", name, "--seed", "7", "--quiet", "--json", str(out), *argv]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["params"][key] == want


@pytest.mark.parametrize("name", CHECKS)
def test_seed_is_accepted_by_every_check(name):
    # the benchmark's cli-default workload passes --seed to every check
    assert main(["verify", name, "--n", "2", "--seed", "9", "--quiet"]) == 0


def test_initials_demo_with_a_short_bound_is_inconclusive(tmp_path):
    out = tmp_path / "report.json"
    assert main(["demo", "initials-chain", "--bound", "2", "--quiet", "--json", str(out)]) == 3
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["verdict"] == "inconclusive"
    assert report["witness"]["union_completion"] == "inconclusive"
    unresolved = report["witness"]["top_completion"]["witness"]["in_union_but_settled_by_no_stage"]
    assert "{0, 2, 4, 6, ...}" in unresolved and len(unresolved) > 1


def test_stage_bound_is_capped(capsys):
    assert main(["demo", "initials-chain", "--bound", str(MAX_STAGES), "--quiet"]) == 0
    assert main(["demo", "initials-chain", "--bound", str(MAX_STAGES + 1), "--quiet"]) == 2
    assert f"MAX_STAGES = {MAX_STAGES}" in capsys.readouterr().err


def test_chain_completion_bound_is_clamped_to_the_longest_chain(tmp_path):
    # a chain of distinct families on one point has at most 2^1 + 1 members;
    # an unclamped sweep over a million lengths runs for minutes
    out = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    argv = ["verify", "chain-completion", "--n", "1", "--quiet", "--json", str(out)]
    done = subprocess.run([sys.executable, "-m", "topcube", *argv, "--bound", "1000000"],
                          env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["params"]["max_len"] == 1000000
    assert report["notes"] == ["exhaustive: 11 chains of length at most 1000000"]


# the four ultrafilter checks have nothing to examine on one point
_AT_ONE_POINT = {"interval-identity": 0, "chain-completion": 0, "atom-closure": 2,
                 "disjoint-closure": 2, "trace-reconstruction": 2, "trace-bijection": 2,
                 "subbase-correspondence": 2, "ultra-cover": 2, "embedding": 0}


@pytest.mark.parametrize("name", CHECKS)
def test_every_check_at_one_point(capsys, name):
    assert main(["verify", name, "--n", "1", "--quiet"]) == _AT_ONE_POINT[name]
    if name.startswith(("trace-", "subbase-", "ultra-")):
        assert "at least 2 points" in capsys.readouterr().err


def _period(length: int) -> dict:
    return {"pre": "", "period": "1" + "0" * (length - 1)}


@pytest.mark.parametrize(
    "fixture",
    [
        # periods 1031 and 1033 are coprime: their window is over a million bits
        {"gens": [_period(1031), _period(1033)], "candidate": _period(2),
         "sample_points": [1, 2]},
        {"gens": [_period(2)], "candidate": _period(3), "sample_points": [10**10]},
    ],
)
def test_join_gap_beyond_the_window_cap_exits_two(tmp_path, capsys, fixture):
    path = _write(tmp_path, "wide.json", fixture)
    assert main(["demo", "join-gap", "--fixture", path, "--quiet"]) == 2
    assert "MAX_WINDOW_BITS" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["chain-completion", "embedding"])
def test_whole_cube_checks_run_at_four_points(tmp_path, name):
    out = tmp_path / "report.json"
    assert main(["verify", name, "--n", "4", "--quiet", "--json", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert (payload["params"]["n"], payload["verdict"]) == (4, "pass")


def test_interval_identity_refuses_four_points(capsys):
    assert main(["verify", "interval-identity", "--n", "4", "--quiet"]) == 2
    assert "n <= 3" in capsys.readouterr().err


@pytest.mark.parametrize("name", CHECKS)
def test_every_check_reports_its_own_id(tmp_path, name):
    out = tmp_path / "report.json"
    assert main(["verify", name, "--n", "2", "--quiet", "--json", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert (payload["check"], payload["verdict"]) == (name, "pass")


_bits = st.text("01", max_size=8)
_scalars = st.none() | st.booleans() | st.integers(-2, 8) | st.text("01a", max_size=8)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["opens", "topologies", "pre", "period"]), inner,
                      max_size=2),
    max_leaves=8,
)
_set_json = st.fixed_dictionaries({"pre": _bits | _scalars, "period": _bits | _scalars}) | _json
_sets_json = st.lists(_set_json, max_size=3) | _json
_small_n = st.integers(1, 3) | _scalars.filter(lambda v: not isinstance(v, int) or isinstance(v, bool))
_cases = st.one_of(
    st.tuples(
        st.just(["verify", "atom-closure"]), st.just("--fixture"),
        _json | st.fixed_dictionaries({"n": _small_n, "opens": _json}),
    ),
    st.tuples(
        st.just(["verify", "disjoint-closure"]), st.just("--fixture"),
        _json | st.fixed_dictionaries({"n": _small_n, "topologies": _json}),
    ),
    st.tuples(
        st.just(["demo", "join-gap"]), st.just("--fixture"),
        st.fixed_dictionaries({"gens": _sets_json, "candidate": _set_json,
                               "sample_points": st.lists(st.integers(0, 8), max_size=3)}),
    ),
    st.tuples(st.just(["demo", "limit-vs-union"]), st.just("--coords"), _sets_json),
)


@settings(max_examples=80, deadline=None)
@given(_cases)
def test_random_fixture_and_coords_json_never_traceback(case):
    argv, flag, payload = case
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp), "input.json", payload)
        assert main(argv + [flag, path, "--quiet"]) in {0, 1, 2, 3}


def test_inconclusive_exits_three(monkeypatch, capsys):
    import topcube.cli as cli

    def stub(fix):
        return Stopwatch("stub", {}).report(INCONCLUSIVE, {"open": True})

    monkeypatch.setitem(cli.DEMOS, "join-gap", ("join-gap", stub))
    assert main(["demo", "join-gap"]) == 3
    assert "inconclusive" in capsys.readouterr().out


def test_json_report_file(tmp_path):
    out = tmp_path / "report.json"
    assert main(["count", "--n", "3", "--quiet", "--json", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["schema_version"] == 1
    assert payload["check"] == "count"
    assert payload["verdict"] == "pass"
    assert payload["elapsed_ms"] >= 0


def test_correspondence_report_matches_golden():
    got = subbase_correspondence_check(GroundSet(3), x=0).to_json()
    got["elapsed_ms"] = 0
    want = json.loads((GOLDEN / "subbase_correspondence_n3.json").read_text())
    assert got == want
