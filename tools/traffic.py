"""List the functions of topcube that the verified traffic never enters.

The traffic is what the project promises to keep working:

- 83 CLI argv, each with ``--json FILE``: ``count --n 1..4``; every
  ``verify`` check at ``--n 1..4``, with and without ``--seed 7``; both
  fixtured checks; every demo; and ``demo initials-chain --coords FILE``,
  FILE holding the packaged fixture's completion coordinates;
- 11 CLI argv that argparse ends: the root's and each verb's ``--help``,
  and seven command lines it refuses;
- one round of each workload in ``bench/workloads.py`` (seed 1);
- every test function of ``tests/test_acceptance.py``.

All of it runs in this process under one ``sys.settrace`` hook that notes
the code object of every call.  The tool then compiles each module of
``src/topcube`` and prints, one per line as ``file:line qualified.name``,
every function or lambda whose code the run never entered.  Comprehensions
are left out: their enclosing function is listed when they are unreached.

The never-entered functions come in two lists.  Those named in ``STAY``, a
table of qualified name and reason, are kept on purpose; every other one is
dead code, and the second list names it.  A third list names every
``STAY`` entry whose function the traffic does enter, so a stale entry
shows.  Before the lists, the tool prints
the code lines of each module and their total: the lines that hold code,
without docstrings, comments or blank lines (``code_lines``).  Before
those, it prints one digest of every CLI call's outcome: its exit code,
stdout, stderr and ``--json`` bytes, with the times a report carries
zeroed, the scratch directory masked and ``COLUMNS=80``.  Two checkouts
whose CLI behaves byte for byte alike print the same digest line.

Run from the root of a source checkout, with the standard library only:

    python tools/traffic.py

It takes about half a minute on a 2-vCPU host, and it is not part of the
test suite.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import sys
import tempfile
import time
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "topcube")

_PROTOCOL = "FamExpr protocol, which the symbolic checks ask of any expression"
_ORACLE = "oracles.py: the independent frozenset reference of a cross-check"
_REPR = "repr of a value"
_GUARD = "write guard of an immutable value"
_TRACED = ("named in bench/tracing.py TARGETS, which tests/test_bench_hooks.py pins; "
           "goes when the bench retargets it (ROADMAP item 9)")

# (module.qualified name, reason) of every function kept although the
# traffic may never enter it.  The symbolic checks (fam_is_topology_sym,
# is_limit_point_sampled, limit_vs_union_check, ordinal_homeo_check) take
# any expression, so every kind keeps the whole protocol; a partial one
# would raise NotImplementedError on some kinds.
STAY = (
    ("certificates.SubbasicCond.__repr__", _REPR),
    ("cube.Family.__setattr__", _GUARD),
    ("cube.Family._member_points", _REPR),
    ("cube.Family.__repr__", _REPR),
    ("famexpr._Meets.union_below", _PROTOCOL),
    ("famexpr._nudges", _PROTOCOL),
    ("famexpr.FamExpr.contains", _PROTOCOL),
    ("famexpr.FamExpr.union_below", _PROTOCOL),
    ("famexpr.FamExpr.probe_sets", _PROTOCOL),
    ("famexpr.FamExpr.to_json", _PROTOCOL),
    ("famexpr.DownPow.probe_sets", _PROTOCOL),
    ("famexpr.NearDown.probe_sets", _PROTOCOL),
    ("famexpr.TopGen.union_below", _PROTOCOL),
    ("famexpr.TopGen.probe_sets", _PROTOCOL),
    ("famexpr.TopGen.to_json", _PROTOCOL),
    ("famexpr.LatGen.union_below", _PROTOCOL),
    ("famexpr.LatGen.probe_sets", _PROTOCOL),
    ("famexpr.LatGen.to_json", _PROTOCOL),
    ("famexpr.LatGenSing.union_below", _PROTOCOL),
    ("famexpr.LatGenSing.probe_sets", _PROTOCOL),
    ("famexpr.LatGenSing.to_json", _PROTOCOL),
    ("famexpr.UnionFam.probe_sets", _PROTOCOL),
    ("famexpr.ChainInitials.union_below", _PROTOCOL),
    ("lattice.lat_generate", _TRACED),
    ("lattice.relations_set", _TRACED),
    ("oracles.generated_topology", _ORACLE),
    ("oracles.principal_ultrafilter", _ORACLE),
    ("oracles.trace", _ORACLE),
    ("oracles.reconstruct", _ORACLE),
    ("oracles.inject", _ORACLE),
    ("oracles.is_complete_sublattice", _ORACLE),
    ("oracles.join_escape_witness", _ORACLE),
    ("oracles.chain_joins_meets", _ORACLE),
    ("oracles.chain_completion", _ORACLE),
    ("topology.Topology.__repr__", _REPR),
    ("upsets.UPSet.__setattr__", _GUARD),
    ("upsets.UPSet.__repr__", _REPR),
)

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold code.

    A line holds code when a token other than a comment or a line break
    starts on it or runs across it, so every line of a multi-line string
    counts, except the lines of a docstring: the string that opens a
    module, class or function body.
    """
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def cli_argv(checks, demos, coords: str) -> list[list[str]]:
    argv = [["count", "--n", str(n)] for n in range(1, 5)]
    for name in checks:
        for n in range(1, 5):
            argv.append(["verify", name, "--n", str(n)])
            argv.append(["verify", name, "--n", str(n), "--seed", "7"])
    argv.append(["verify", "atom-closure", "--fixture", "all-atoms-n3"])
    argv.append(["verify", "disjoint-closure", "--fixture", "disjoint-pair"])
    argv += [["demo", name] for name in sorted(demos)]
    argv.append(["demo", "initials-chain", "--coords", coords])
    return argv


# the root's and each verb's help, and command lines that argparse refuses
ENDED_BY_ARGPARSE = (["--help"], ["count", "--help"], ["verify", "--help"], ["demo", "--help"],
                     ["count", "--n", "1", "junk"], ["count", "--n", "x"], ["verify", "nope"],
                     ["verify"], ["cou", "--n", "1"], ["--n", "1", "count"], [])

_RENDERED_MS = re.compile(r"\(\d+\.\d ms\)")
_REPORTED_MS = re.compile(r'"elapsed_ms": [-+.e\d]+')


def cli_outcome(main, argv: list[str], report: str) -> list:
    """The exit code, stdout, stderr and report text of one CLI call, with
    the rendered and reported times zeroed; the report file is removed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    written = None
    if os.path.exists(report):
        with open(report, encoding="utf-8") as fh:
            written = _REPORTED_MS.sub('"elapsed_ms": 0', fh.read())
        os.remove(report)
    return [argv, code, _RENDERED_MS.sub("(0 ms)", out.getvalue()), err.getvalue(), written]


def run_traffic(scratch: str) -> tuple[list[str], str]:
    """Run the traffic once; return a line per workload job that came out
    wrong, and the digest line of the CLI outcomes."""
    from topcube import cli

    problems = []
    sink = io.StringIO()
    coords = os.path.join(scratch, "coords.json")
    with open(coords, "w", encoding="utf-8") as fh:
        json.dump(cli.load_fixture("initials-chain")["completion_coords"], fh)
    report = os.path.join(scratch, "report.json")
    argvs = [argv + ["--json", report] for argv in cli_argv(cli.CHECKS, cli.DEMOS, coords)]
    argvs += [list(argv) for argv in ENDED_BY_ARGPARSE]
    outcomes = json.dumps([cli_outcome(cli.main, argv, report) for argv in argvs])
    digest = hashlib.sha256(outcomes.replace(scratch, "SCRATCH").encode()).hexdigest()
    digest_line = f"CLI outcomes of {len(argvs)} argv: sha256 {digest[:16]}"

    import workloads

    for name in workloads.NAMES:
        workload = workloads.build(name, 1, os.path.join(scratch, "job.json"))
        for job in workload.jobs:
            with contextlib.redirect_stdout(sink):
                got = job.summarize(job.call())
            if got != job.expected:
                problems.append(f"workload {name}, job {job.kind}: {got!r}")

    acceptance = importlib.import_module("test_acceptance")
    for name in sorted(vars(acceptance)):
        if name.startswith("test_"):
            with contextlib.redirect_stdout(sink):
                getattr(acceptance, name)()  # a failing criterion raises
    return problems, digest_line


def modules() -> list[str]:
    """The path of every module of the package, in name order."""
    return [os.path.join(PACKAGE, entry) for entry in sorted(os.listdir(PACKAGE))
            if entry.endswith(".py")]


def defined_functions() -> list[tuple[str, int, str, object]]:
    """(file, first line, module.qualified name, code) of every function in
    the package."""
    found = []

    def walk(code, prefix: str, path: str) -> None:
        for const in code.co_consts:
            if not hasattr(const, "co_consts"):
                continue
            name = const.co_name
            qual = f"{prefix}{name}"
            if not (name.startswith("<") and name != "<lambda>"):
                found.append((path, const.co_firstlineno, qual, const))
            walk(const, f"{qual}.", path)

    for path in modules():
        with open(path, encoding="utf-8") as fh:
            module = os.path.basename(path)[:-3]
            walk(compile(fh.read(), path, "exec"), f"{module}.", path)
    return found


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench"),
                    os.path.join(ROOT, "tests")]
    entered: set[tuple[str, int, str]] = set()

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    os.environ["COLUMNS"] = "80"  # the help text wraps at the terminal width
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        sys.settrace(hook)
        try:
            problems, digest_line = run_traffic(scratch)
        finally:
            sys.settrace(None)
    elapsed = time.perf_counter() - start

    reached = {(os.path.realpath(f), line, name) for f, line, name in entered}
    functions = defined_functions()
    unreached = [(path, line, qual) for path, line, qual, code in functions
                 if (os.path.realpath(path), line, code.co_name) not in reached]
    stay = dict(STAY)
    stale = [(path, line, qual) for path, line, qual, _ in functions
             if qual in stay and (path, line, qual) not in unreached]
    src = os.path.join(ROOT, "src")
    for problem in problems:
        print(f"problem: {problem}")

    print(digest_line)
    print("code lines, without docstrings, comments or blank lines:")
    total = 0
    for path in modules():
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"  {os.path.relpath(path, src)} {count}")
    print(f"  total {total}")

    kept = [entry for entry in unreached if entry[2] in stay]
    dead = [entry for entry in unreached if entry[2] not in stay]
    print(f"{len(unreached)} of {len(functions)} functions never entered "
          f"({elapsed:.0f} s of traffic); {len(kept)} of them stay-listed:")
    for path, line, qual in kept:
        print(f"  {os.path.relpath(path, src)}:{line} {qual} -- {stay[qual]}")
    print(f"{len(dead)} never entered and not stay-listed (dead):")
    for path, line, qual in dead:
        print(f"  {os.path.relpath(path, src)}:{line} {qual}")
    print(f"{len(stale)} stay-listed but entered (the STAY entry can go):")
    for path, line, qual in stale:
        print(f"  {os.path.relpath(path, src)}:{line} {qual}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
