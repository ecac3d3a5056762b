"""List the functions of topcube that the verified traffic never enters.

The traffic is what the project promises to keep working:

- 83 CLI argv: ``count --n 1..4``; every ``verify`` check at ``--n 1..4``,
  with and without ``--seed 7``; both fixtured checks; every demo; and
  ``demo initials-chain --coords FILE``, FILE holding the packaged fixture's
  completion coordinates;
- one round of each workload in ``bench/workloads.py`` (seed 1);
- every test function of ``tests/test_acceptance.py``.

All of it runs in this process under one ``sys.settrace`` hook that notes
the code object of every call.  The tool then compiles each module of
``src/topcube`` and prints, one per line as ``file:line qualified.name``,
every function or lambda whose code the run never entered.  Comprehensions
are left out: their enclosing function is listed when they are unreached.

Run from the root of a source checkout, with the standard library only:

    python tools/traffic.py

It takes about half a minute on a 2-vCPU host, and it is not part of the
test suite.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "topcube")


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


def run_traffic(scratch: str) -> list[str]:
    """Run the traffic once; return a line per workload job that came out wrong."""
    from topcube import cli

    problems = []
    sink = io.StringIO()
    coords = os.path.join(scratch, "coords.json")
    with open(coords, "w", encoding="utf-8") as fh:
        json.dump(cli.load_fixture("initials-chain")["completion_coords"], fh)
    for argv in cli_argv(cli.CHECKS, cli.DEMOS, coords):
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cli.main(argv + ["--json", os.path.join(scratch, "report.json")])

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
    return problems


def defined_functions() -> list[tuple[str, int, str, object]]:
    """(file, first line, qualified name, code) of every function in the package."""
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

    for entry in sorted(os.listdir(PACKAGE)):
        if entry.endswith(".py"):
            path = os.path.join(PACKAGE, entry)
            with open(path, encoding="utf-8") as fh:
                walk(compile(fh.read(), path, "exec"), "", path)
    return found


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench"),
                    os.path.join(ROOT, "tests")]
    entered: set[tuple[str, int, str]] = set()

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        sys.settrace(hook)
        try:
            problems = run_traffic(scratch)
        finally:
            sys.settrace(None)
    elapsed = time.perf_counter() - start

    reached = {(os.path.realpath(f), line, name) for f, line, name in entered}
    functions = defined_functions()
    unreached = [(path, line, qual) for path, line, qual, code in functions
                 if (os.path.realpath(path), line, code.co_name) not in reached]
    for problem in problems:
        print(f"problem: {problem}")
    print(f"{len(unreached)} of {len(functions)} functions never entered "
          f"({elapsed:.0f} s of traffic):")
    for path, line, qual in unreached:
        print(f"  {os.path.relpath(path, os.path.join(ROOT, 'src'))}:{line} {qual}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
