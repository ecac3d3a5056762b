"""Exit codes, JSON output, and the pinned report shape."""

import json
import os
import random
import stat
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topcube import GroundSet, cli, subbase_correspondence_check
from topcube.cli import CHECKS, DEMOS, load_fixture, main
from topcube.demos import MAX_STAGES
from topcube.report import INCONCLUSIVE, Stopwatch
from topcube.upsets import MAX_WINDOW_BITS

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


@pytest.mark.parametrize("coords", [[], [{"pre": "1", "period": "0"}]])
def test_powerset_demo_without_a_probe_pair_exits_three(tmp_path, coords):
    # fewer than two coordinates give the topology probe no pair to test
    path = _write(tmp_path, "coords.json", coords)
    out = tmp_path / "report.json"
    argv = ["demo", "powerset-chain", "--coords", path, "--quiet", "--json", str(out)]
    assert main(argv) == 3
    assert json.loads(out.read_text(encoding="utf-8"))["witness"] == {"probe_pairs": 0}


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


def test_packaged_fixture_is_read_once_and_handed_out_fresh():
    cli._packaged_text.cache_clear()
    first, second = load_fixture("join-gap"), load_fixture("join-gap")
    assert cli._packaged_text.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert first == second and first is not second
    # callers write into the dict they get, nested lists included
    first["bound"] = 3
    first["sample_points"].append(99)
    assert load_fixture("join-gap") == second and "bound" not in second
    assert 99 not in second["sample_points"]


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


@pytest.mark.parametrize("builder", [[], {}, 5, "x"])
def test_unknown_chain_builder_exits_two(tmp_path, capsys, builder):
    fix = load_fixture("powerset-chain")
    fix["builder"] = builder
    path = _write(tmp_path, "fixture.json", fix)
    assert main(["demo", "powerset-chain", "--fixture", path, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: fixture 'builder' must be one of growing-core, nested-initial, "
                   f"got {builder!r}\n")


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


def test_coords_on_a_demo_that_reads_none_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "coords.json", [{"pre": "", "period": "1"}])
    assert main(["demo", "join-gap", "--coords", path, "--quiet"]) == 2
    assert "--coords applies only to" in capsys.readouterr().err
    assert main(["demo", "join-gap", "--quiet"]) == 0


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


@pytest.mark.parametrize(
    "name", [c for c in CHECKS if c not in ("atom-closure", "disjoint-closure")]
)
def test_fixture_on_a_check_that_reads_none_exits_two(tmp_path, capsys, name):
    # refused before it is read: a missing file and a packaged fixture alike
    for fixture in (str(tmp_path / "missing.json"), "all-atoms-n3"):
        assert main(["verify", name, "--fixture", fixture, "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "error: --fixture applies only to atom-closure and disjoint-closure, "
            f"not to {name}\n"
        )


@pytest.mark.parametrize("name", ["atom-closure", "disjoint-closure"])
def test_an_empty_fixture_name_is_read_not_ignored(capsys, name):
    assert main(["verify", name, "--fixture", "", "--quiet"]) == 2
    assert "No such file" in capsys.readouterr().err


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
    # the flag is named, not the fixture key it overrides
    assert main(["demo", "initials-chain", "--bound", str(MAX_STAGES), "--quiet"]) == 0
    assert main(["demo", "initials-chain", "--bound", str(MAX_STAGES + 1), "--quiet"]) == 2
    assert capsys.readouterr().err == (f"error: --bound must be at most MAX_STAGES = "
                                       f"{MAX_STAGES}, got {MAX_STAGES + 1}\n")
    assert main(["demo", "initials-chain", "--bound", "0", "--quiet"]) == 2
    assert capsys.readouterr().err == "error: --bound must be at least 1, got 0\n"


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


def test_overlapping_fixture_from_a_path_exits_two(tmp_path, capsys):
    # a fixture read from a path, not a packaged name
    path = _write(tmp_path, "overlap.json", {"n": 3, "topologies": [[0, 1, 7], [0, 1, 3, 7]]})
    assert main(["verify", "disjoint-closure", "--fixture", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: topologies 0 and 1 share a proper open\n"


@pytest.mark.parametrize("name", sorted(cli._COORDS_KEYS))
def test_finite_coordinate_past_the_window_cap_exits_two(tmp_path, capsys, name):
    # one point past the last that a finite set may reach
    far = {"pre": "0" * MAX_WINDOW_BITS + "1", "period": "0"}
    path = _write(tmp_path, "coords.json", [far])
    assert main(["demo", name, "--coords", path, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "MAX_WINDOW_BITS" in err


def _join_gap_exit(tmp_path, candidate, points) -> int:
    fix = load_fixture("join-gap")
    fix.update(candidate=candidate, sample_points=points)
    return main(["demo", "join-gap", "--fixture", _write(tmp_path, "gap.json", fix), "--quiet"])


def test_join_gap_refuses_an_empty_candidate_with_no_points(tmp_path, capsys):
    # this used to pass with "the family is not join-complete"
    assert _join_gap_exit(tmp_path, {"pre": "", "period": "0"}, []) == 2
    assert "finite candidate" in capsys.readouterr().err


def test_join_gap_refuses_points_outside_the_candidate(tmp_path, capsys):
    # this used to pass, calling the singletons {1} and {3} "below" the evens
    assert _join_gap_exit(tmp_path, {"pre": "", "period": "10"}, [1, 3]) == 2
    assert "[1, 3] must be one or more members" in capsys.readouterr().err


def test_join_gap_refuses_a_meet_pool_past_its_cap(tmp_path, capsys):
    # 16 generators on one 4,096-bit window have up to 2^16 - 1 meets: the
    # pool is refused while it grows, with one line
    rng = random.Random(16)
    fix = {"gens": [{"pre": "", "period": format(rng.getrandbits(4096), "04096b")}
                    for _ in range(16)],
           "candidate": {"pre": "", "period": "10"}, "sample_points": [0, 2]}
    path = _write(tmp_path, "pool.json", fix)
    start = time.perf_counter()
    assert main(["demo", "join-gap", "--fixture", path, "--quiet"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: the meets of ") and err.count("\n") == 1
    assert err.endswith(" bits, beyond MAX_POOL_BITS = 67108864\n")


def test_join_gap_refuses_a_finite_candidate(tmp_path, capsys):
    # {0, 2} is a finite union of members, so it is a member: this used to
    # exit 1 as a refutation of a check that cannot apply
    assert _join_gap_exit(tmp_path, {"pre": "101", "period": "0"}, [0, 2]) == 2
    assert "finite candidate" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["chain-completion", "embedding"])
def test_whole_cube_checks_run_at_four_points(tmp_path, name):
    out = tmp_path / "report.json"
    assert main(["verify", name, "--n", "4", "--quiet", "--json", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert (payload["params"]["n"], payload["verdict"]) == (4, "pass")


def test_chain_completion_runs_at_five_points(tmp_path):
    # the closed form builds no word of the cube, so no sweep limit applies
    out = tmp_path / "report.json"
    assert main(["verify", "chain-completion", "--n", "5", "--quiet", "--json", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert (payload["params"]["n"], payload["verdict"]) == (5, "pass")


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
# each packaged fixture with a verb that reads it
_PACKAGED = sorted([("all-atoms-n3", ["verify", "atom-closure"]),
                    ("disjoint-pair", ["verify", "disjoint-closure"]),
                    ("nested-powersets", ["demo", "powerset-chain"])]
                   + [(fixture, ["demo", name]) for name, (fixture, _) in DEMOS.items()])


def _one_key_replaced(packaged):
    # the fixture with exactly one top-level key replaced, so every other key
    # is valid and the checks behind the parser are reached
    name, argv = packaged
    fix = cli.load_fixture(name)
    value = _json | _set_json | _sets_json | st.integers(-2, 130)
    return st.tuples(st.just(argv), st.just("--fixture"),
                     st.builds(lambda key, v: {**fix, key: v}, st.sampled_from(sorted(fix)), value))


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
    st.tuples(
        st.just(["demo", "powerset-chain"]), st.just("--fixture"),
        st.fixed_dictionaries({"builder": st.sampled_from(["growing-core", "nested-initial"])
                               | _json, "core": _set_json, "coords": _sets_json,
                               "expected_witness": _set_json, "depth": _scalars}),
    ),
    st.tuples(
        st.sampled_from([["demo", "initials-chain"], ["demo", "limit-vs-union"]]),
        st.just("--fixture"),
        st.fixed_dictionaries({"enum": _set_json, "convergence_coords": _sets_json,
                               "limit_point_coords": _sets_json,
                               "completion_coords": _sets_json,
                               "expected_unresolved": _sets_json,
                               "depth": _scalars, "bound": _scalars}),
    ),
    st.tuples(
        st.sampled_from([["demo", name] for name in sorted(cli._COORDS_KEYS)]),
        st.just("--coords"), _sets_json,
    ),
    st.sampled_from(_PACKAGED).flatmap(_one_key_replaced),
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
    text = out.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2) + "\n"
    assert payload["schema_version"] == 1
    assert payload["check"] == "count"
    assert payload["verdict"] == "pass"
    assert payload["elapsed_ms"] >= 0


def test_json_report_replaces_a_longer_file(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("x" * 10_000, encoding="utf-8")
    assert main(["count", "--n", "1", "--quiet", "--json", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_json_report_gets_the_mode_of_an_opened_file(tmp_path):
    mask = os.umask(0o002)
    try:
        assert main(["count", "--n", "1", "--quiet", "--json", str(tmp_path / "r.json")]) == 0
        open(tmp_path / "w.json", "w").close()
    finally:
        os.umask(mask)
    modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("r.json", "w.json")}
    assert modes == {0o664}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_json_report_on_a_full_device_exits_two(capsys):
    assert main(["count", "--n", "1", "--quiet", "--json", "/dev/full"]) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("value", [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": [[], {}, ()], "d": None},
    {"witness": {"element": 9, "side": "up", "difference_words": [9, 11]}},
    {1: "int key", 2.5: True, True: False, None: [1.0, -0.0, 1e300]},
    ["\u00e9t\u00e9", "tab\t", 'quote"', ("tuple", (1, 2)), [[[3]]]],
    "plain",
    12,
])
def test_json_text_matches_the_indenting_encoder(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


# `python -I -m topcube ARGV`, with this source tree first on the path
_FRESH_MAIN = (f"import runpy, sys; sys.path.insert(0, {str(SRC)!r}); "
               "runpy.run_module('topcube', run_name='__main__', alter_sys=True)")


def _fresh(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-I", "-c", _FRESH_MAIN, *argv],
                          capture_output=True, text=True, timeout=60)


def test_ten_calls_build_one_parser():
    # the parser is built on the first call, not at import, and then reused
    code = textwrap.dedent(f"""
        import argparse, sys
        sys.path.insert(0, {str(SRC)!r})
        built = 0
        init = argparse.ArgumentParser.__init__
        def counted(self, *args, **kwargs):
            global built
            built += 1
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counted
        from topcube.cli import main
        print(built)
        for n in (1, 2) * 5:
            assert main(["count", "--n", str(n), "--quiet"]) == 0
        print(built)
    """)
    done = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    at_import, after_ten = map(int, done.stdout.split())
    assert at_import == 0
    assert after_ten <= 4  # the root parser and one per verb


# each call drops or changes an option of the call before it
_SEQUENCE = [
    (["verify", "chain-completion", "--bound", "3", "--seed", "5"], 0),
    (["verify", "chain-completion", "--seed", "5"], 0),
    (["demo", "initials-chain", "--bound", "2"], 3),
    (["demo", "initials-chain"], 0),
    (["verify", "disjoint-closure", "--fixture", "disjoint-pair"], 0),
    (["verify", "disjoint-closure", "--seed", "7"], 0),
    (["verify", "no-such-check"], 2),
    (["count", "--n", "2"], 0),
]


def _outcome(code, out: Path):
    if not out.exists():
        return code, None
    report = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    report["elapsed_ms"] = 0
    return code, report


def test_one_process_parses_like_fresh_ones(tmp_path):
    out = tmp_path / "report.json"
    here, fresh = [], []
    for argv, _ in _SEQUENCE:
        argv = [*argv, "--quiet", "--json", str(out)]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        here.append(_outcome(code, out))
        fresh.append(_outcome(_fresh(*argv).returncode, out))
    assert here == fresh
    assert [code for code, _ in here] == [code for _, code in _SEQUENCE]
    assert [report is None for _, report in here] == [code == 2 for _, code in _SEQUENCE]


class _Parsed(Exception):
    """Carries the namespace that `main` would act on out of `main`."""


def _parse_outcome(parse, argv, capsys):
    try:
        got = ("namespace", vars(parse(list(argv))))
    except SystemExit as exc:
        got = ("exit", exc.code)
    except _Parsed as parsed:
        got = ("namespace", vars(parsed.args[0]))
    return got, capsys.readouterr()


@pytest.mark.parametrize("argv, kind", [
    (["count"], "namespace"),
    (["count", "--n=2", "--quiet"], "namespace"),
    (["count", "--js", "out.json"], "namespace"),
    (["verify", "chain-completion", "--n", "2", "--seed", "5", "--bound", "3"], "namespace"),
    (["verify", "--n", "2", "--fixture", "all-atoms-n3", "atom-closure"], "namespace"),
    (["demo", "join-gap"], "namespace"),
    (["demo", "--coords", "c.json", "initials-chain", "--bound", "2"], "namespace"),
    (["count", "--n", "1", "--n", "2"], "namespace"),
    (["count", "--", "--n"], None),
    (["count", "--n", "1", "junk"], "exit"),
    (["count", "--n", "x"], "exit"),
    (["verify", "nope"], "exit"),
    (["verify"], "exit"),
    (["cou", "--n", "1"], "exit"),
    (["--n", "1", "count"], "exit"),
    ([], "exit"),
    (["--help"], "exit"),
    (["count", "--help"], "exit"),
])
def test_main_parses_as_the_root_parser_does(monkeypatch, capsys, argv, kind):
    # the verb's own parser stands in for the root parser: same namespace,
    # and the same exit, usage, error and help text
    monkeypatch.setenv("COLUMNS", "80")
    parse = cli._parse

    def caught(argv):
        raise _Parsed(parse(argv))

    monkeypatch.setattr(cli, "_parse", caught)
    here = _parse_outcome(main, argv, capsys)
    root = _parse_outcome(cli.build_parser().parse_args, argv, capsys)
    assert here == root
    assert kind in (None, root[0][0])


def test_help_lists_the_three_verbs(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    done = _fresh("--help")
    assert done.returncode == 0, done.stderr
    assert "{count,verify,demo}" in done.stdout
    main(["count", "--n", "1", "--quiet"])
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == done.stdout


def test_correspondence_report_matches_golden():
    got = subbase_correspondence_check(GroundSet(3), x=0).to_json()
    got["elapsed_ms"] = 0
    want = json.loads((GOLDEN / "subbase_correspondence_n3.json").read_text())
    assert got == want
