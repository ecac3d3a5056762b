"""List the functions and lines of topcube that the verified traffic never runs.

The traffic is what the project promises to keep working:

- 92 CLI argv, each with ``--json FILE``: ``count --n 1..4``; every
  ``verify`` check at ``--n 1..4``, with and without ``--seed 7``; both
  fixtured checks; every demo; ``demo initials-chain --coords FILE``, FILE
  holding the packaged fixture's completion coordinates; ``demo
  initials-chain --fixture FILE`` on a set whose preperiod is 1,140 bits
  long (exit 0); and five that do not pass: ``demo initials-chain`` and
  ``demo powerset-chain`` given an empty coordinate list, ``demo
  initials-chain --bound 2`` (each exit 3), ``demo join-gap`` on a
  tampered fixture given by path (exit 1), and ``demo join-gap`` on 16
  generators whose meet pool passes ``MAX_POOL_BITS`` (exit 2); and three
  more that do not pass, on fixtures given by path: ``verify
  disjoint-closure`` on two topologies sharing a proper open (exit 2), and
  ``demo initials-chain`` on the packaged fixture with an enumerated set
  whose segment 15 lies past ``MAX_WINDOW_BITS`` (exit 2) or with that set
  as its one limit-point coordinate (exit 3);
- 11 CLI argv that argparse ends: the root's and each verb's ``--help``,
  and seven command lines it refuses;
- one round of each workload in ``bench/workloads.py`` (seed 1), after
  ``certificates._AGREED`` is cleared, as in the bench's fresh process;
- every test function of ``tests/test_acceptance.py``.

All of it runs in this process under one ``sys.settrace`` hook that notes
the code object of every call and, in every module of ``src/topcube`` but
``oracles.py``, the line of every line event; whether a code object's lines
are traced is decided once per code object.  The tool then compiles each
module of ``src/topcube`` and prints, one per line as ``file:line
qualified.name``, every function or lambda whose code the run never
entered.  Comprehensions are left out: their enclosing function is listed
when they are unreached.

The never-entered functions come in two lists.  Those named in ``STAY``, a
table of qualified name and reason, are kept on purpose; every other one is
dead code, and the second list names it.  A third list names every
``STAY`` entry whose function the traffic does enter, so a stale entry
shows.  Last comes the line pass: every line of a code object that no line
event reached, outside ``oracles.py`` and the stay-listed functions, as
``file:line text`` in three groups (``line_groups``): refusals (``raise``),
verdict branches (statements that build a fail or inconclusive report), and
the rest.  The rest is decided line by line: each line named in
``STAY_LINES``, a table of qualified function, line text and reason, is
kept on purpose and printed under its reason; every other line of the rest
is printed as undecided, and then every ``STAY_LINES`` entry whose line
runs or is gone, as stale.  Before the lists, the tool prints
the code lines of each module and their total: the lines that hold code,
without docstrings, comments or blank lines (``code_lines``).  Before
those, it prints one digest of every CLI call's outcome: its exit code,
stdout, stderr and ``--json`` bytes, with the times a report carries
zeroed, the scratch directory masked and ``COLUMNS=80``.  Two checkouts
whose CLI behaves byte for byte alike print the same digest line.

The same outcomes, one entry per CLI argv, are pinned in
``tests/golden/cli_outcomes.json``, which ``tests/test_cli_outcomes.py``
compares field by field (``cli_outcomes``).  A change that alters an
outcome on purpose rewrites the golden with ``--write-golden``, which runs
the CLI argv alone, writes the file, prints the digest line and exits.

Run from the root of a source checkout, with the standard library only:

    python tools/traffic.py [--write-golden]

The whole traffic takes about half a minute on a 2-vCPU host, and it is
not part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import re
import sys
import tempfile
import time
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "topcube")
ORACLES = os.path.realpath(os.path.join(PACKAGE, "oracles.py"))
GOLDEN = os.path.join(ROOT, "tests", "golden", "cli_outcomes.json")

# the groups of the line pass
REFUSALS = "refusals (raise)"
VERDICTS = "verdict branches (a fail or inconclusive report)"
REST = "the rest"

_ORACLE = "oracles.py: the independent frozenset reference of a cross-check"
_REPR = "repr of a value"
_GUARD = "write guard of an immutable value"
_TRACED = ("named in bench/tracing.py TARGETS, which tests/test_bench_hooks.py pins; "
           "goes when the bench retargets it (ROADMAP item 9)")

# (module.qualified name, reason) of every function kept although the
# traffic may never enter it.  A FamExpr kind carries a probe only where a
# verb's check asks for it (union_below on the powerset-chain kinds,
# probe_sets on the initials-chain kinds), so no probe stays here; to_json
# stays on every kind because repr reads it.
STAY = (
    ("certificates.SubbasicCond.__repr__", _REPR),
    ("cube.Family.__setattr__", _GUARD),
    ("cube.Family._member_points", _REPR),
    ("cube.Family.__repr__", _REPR),
    ("famexpr._Generated.to_json", _REPR),
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

_CNF = "a general CNF of the public Certificate, which no verb's certificate is"
_FAIL_PATH = ("a fail-path helper: it runs only when a route is broken, and no broken "
              "route runs in the traffic (ROADMAP item 13)")
_TIER2 = "tier 2 of interval identity, which cannot fail once tier 1 passed (ROADMAP item 4)"
_PLATFORM = "a protocol or platform line: NotImplemented, a negative index, byteswap"
_CONSOLE = "the console entry point, which reads sys.argv when main is given no argv"
_API = "reached only through the API: no verb, workload or criterion asks for it"

# (module.qualified function, stripped line text, reason) of every line of
# the line pass's rest kept although the traffic may never run it; a
# comprehension's lines go with the function around it.  tests/
# test_cli_outcomes.py checks that each text occurs exactly once in its
# function.
STAY_LINES = (
    ("certificates.Certificate.solve", "return []", _CNF),
    ("certificates.Certificate.solve", "elif (members >> c.mask) & 1 == c.present:", _CNF),
    ("certificates.Certificate.solve", "break", _CNF),
    ("certificates._interval_mismatch", "elif differ & members:", _FAIL_PATH),
    ("certificates._interval_mismatch",
     'side, diff = "up", (up_order ^ up_cond) & members', _FAIL_PATH),
    ("certificates._interval_mismatch", "if not diff:", _FAIL_PATH),
    ("certificates._interval_mismatch",
     'side, diff = "down", (down_order ^ down_cond) & members', _FAIL_PATH),
    ("certificates._interval_mismatch",
     'return {"element": x, "side": side, "difference_words": set_bits(diff)[:8]}',
     _FAIL_PATH),
    ("topology._first_inclusion_mismatch", "diff = r ^ s", _FAIL_PATH),
    ("topology._first_inclusion_mismatch", "return i, (diff & -diff).bit_length() - 1",
     _FAIL_PATH),
    ("topology.embedding_check", "seen = {}", _FAIL_PATH),
    ("topology.embedding_check", "for w, image in zip(words, images):", _FAIL_PATH),
    ("topology.embedding_check", "first = seen.setdefault(image, w)", _FAIL_PATH),
    ("topology.embedding_check", "if first != w:", _FAIL_PATH),
    ("certificates.interval_identity_sweep", "return interval_identity_all(universe, combo)",
     _TIER2),
    ("cube.Family.__eq__", "return NotImplemented", _PLATFORM),
    ("upsets.UPSet.__eq__", "return NotImplemented", _PLATFORM),
    ("upsets.UPSet.__contains__", "return False", _PLATFORM),
    ("cube.set_bits", "limbs.byteswap()", _PLATFORM),
    ("cli._parse", "argv = sys.argv[1:]", _CONSOLE),
    ("certificates.is_limit_point_sampled.separated",
     "return any(w not in top_pool and x_has(w) != c.contains(w) for w in probes)", _API),
    ("certificates.limit_vs_union_check",
     'return timer.report(PASS, notes=["limit and union agree on the whole probe pool"])',
     _API),
    ("famexpr._union", "out = out | s", _API),
    ("famexpr.LatGenSing.contains", "return False", _API),
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


# the join-gap fixture of tests/test_cli.py::test_failing_demo_exits_one: its
# candidate is one of its generators, so the demo fails
TAMPERED_JOIN_GAP = {"gens": [{"pre": "0", "period": "1"}],
                     "candidate": {"pre": "0", "period": "1"}, "sample_points": [1, 2]}


# an initials-chain fixture whose enumerated set has a 1,140-bit preperiod
# (members 0-7 and 1,139, then every second point), so that building its 64
# stages lists that preperiod past its first 1,024 bits; its coordinates are
# segments and sets the stages settle, and the one set no stage reaches is
# the enumerated set itself, so the demo passes (exit 0)
_LONG_ENUM = {"pre": "1" * 8 + "0" * 1131 + "1", "period": "10"}
_C0, _C3, _C5 = ({"pre": "1" * (m + 1), "period": "0"} for m in (0, 3, 5))  # segments
_ODDS, _NATS = {"pre": "", "period": "01"}, {"pre": "", "period": "1"}
LONG_PREPERIOD_CHAIN = {
    "builder": "initials", "enum": _LONG_ENUM,
    "convergence_coords": [_C0, _C5, _ODDS], "limit_point_coords": [_C3, _ODDS, _NATS],
    "completion_coords": [_C5, _ODDS, _NATS], "expected_unresolved": [_LONG_ENUM],
    "depth": 16, "bound": 64}


# a join-gap fixture of 16 generators, each a seeded random 4,096-bit
# period: their meets are almost all distinct, so the pool doubles with each
# generator and passes MAX_POOL_BITS before the last, and the demo exits 2
_POOL_RNG = random.Random(16)
POOL_JOIN_GAP = {
    "gens": [{"pre": "", "period": format(_POOL_RNG.getrandbits(4096), "04096b")}
             for _ in range(16)],
    "candidate": {"pre": "", "period": "10"}, "sample_points": [0, 2]}


# a disjoint-closure fixture whose two topologies share the proper open {0},
# which the certificate refuses (exit 2)
SHARED_OPEN = {"n": 3, "topologies": [[0, 1, 7], [0, 1, 3, 7]]}

# an enumerated set with one member every 70,000 points: its segment 15
# needs point 1,050,000, past MAX_WINDOW_BITS, so the initials-chain demo
# on the packaged fixture with this set exits 2
_SPARSE_ENUM = {"pre": "", "period": "1" + "0" * 69_999}


def cli_argv(checks, demos, scratch: str) -> list[list[str]]:
    """The CLI argv of the traffic, without ``--json``; the files they name
    are those ``cli_outcomes`` writes into `scratch`."""
    coords, empty, tampered, long_pre, pool, shared, sparse, limit_miss = (
        os.path.join(scratch, name)
        for name in ("coords.json", "empty.json", "tampered.json", "long-preperiod.json",
                     "pool.json", "shared-open.json", "sparse-enum.json", "limit-miss.json"))
    argv = [["count", "--n", str(n)] for n in range(1, 5)]
    for name in checks:
        for n in range(1, 5):
            argv.append(["verify", name, "--n", str(n)])
            argv.append(["verify", name, "--n", str(n), "--seed", "7"])
    argv.append(["verify", "atom-closure", "--fixture", "all-atoms-n3"])
    argv.append(["verify", "disjoint-closure", "--fixture", "disjoint-pair"])
    argv += [["demo", name] for name in sorted(demos)]
    argv.append(["demo", "initials-chain", "--coords", coords])
    argv.append(["demo", "initials-chain", "--fixture", long_pre])
    # inconclusive (exit 3) three ways, a refutation (exit 1), a refusal (exit 2)
    argv += [["demo", "initials-chain", "--coords", empty],
             ["demo", "powerset-chain", "--coords", empty],
             ["demo", "initials-chain", "--bound", "2"],
             ["demo", "join-gap", "--fixture", tampered],
             ["demo", "join-gap", "--fixture", pool]]
    # two refusals (exit 2) and an inconclusive limit point (exit 3)
    argv += [["verify", "disjoint-closure", "--fixture", shared],
             ["demo", "initials-chain", "--fixture", sparse],
             ["demo", "initials-chain", "--fixture", limit_miss]]
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


# the fields of a golden entry, in cli_outcome's order
FIELDS = ("argv", "exit", "stdout", "stderr", "report")


def cli_outcomes(scratch: str) -> tuple[list[dict], str]:
    """Run every CLI argv of the traffic, with the files they name written
    into `scratch`; return each outcome as a dict of ``FIELDS`` with
    `scratch` masked as ``SCRATCH``, and the digest line of them all.  The
    help text wraps at the terminal width, so the caller sets ``COLUMNS``."""
    from topcube import cli

    chain = cli.load_fixture("initials-chain")
    files = {"coords.json": chain["completion_coords"],
             "empty.json": [], "tampered.json": TAMPERED_JOIN_GAP,
             "long-preperiod.json": LONG_PREPERIOD_CHAIN, "pool.json": POOL_JOIN_GAP,
             "shared-open.json": SHARED_OPEN, "sparse-enum.json": dict(chain, enum=_SPARSE_ENUM),
             # no stage holds the enumerated set, so the limit-point
             # neighbourhood of that one coordinate misses every stage
             "limit-miss.json": dict(chain, limit_point_coords=[chain["enum"]])}
    for name, value in files.items():
        with open(os.path.join(scratch, name), "w", encoding="utf-8") as fh:
            json.dump(value, fh)
    report = os.path.join(scratch, "report.json")
    argvs = [argv + ["--json", report] for argv in cli_argv(cli.CHECKS, cli.DEMOS, scratch)]
    argvs += [list(argv) for argv in ENDED_BY_ARGPARSE]
    masked = json.dumps([cli_outcome(cli.main, argv, report) for argv in argvs]).replace(
        scratch, "SCRATCH")
    digest = hashlib.sha256(masked.encode()).hexdigest()
    return ([dict(zip(FIELDS, outcome)) for outcome in json.loads(masked)],
            f"CLI outcomes of {len(argvs)} argv: sha256 {digest[:16]}")


def run_traffic(scratch: str) -> tuple[list[str], str]:
    """Run the traffic once; return a line per workload job that came out
    wrong, and the digest line of the CLI outcomes."""
    problems = []
    sink = io.StringIO()
    _, digest_line = cli_outcomes(scratch)

    import workloads
    from topcube import certificates

    # each workload starts in a fresh process, with no element agreed yet
    certificates._AGREED.clear()
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


def code_objects() -> list[tuple[str, str, object]]:
    """(file, module.qualified name, code) of every code object nested in a
    module of the package, comprehensions included."""
    found = []

    def walk(code, prefix: str, path: str) -> None:
        for const in code.co_consts:
            if hasattr(const, "co_consts"):
                qual = f"{prefix}{const.co_name}"
                found.append((path, qual, const))
                walk(const, f"{qual}.", path)

    for path in modules():
        with open(path, encoding="utf-8") as fh:
            module = os.path.basename(path)[:-3]
            walk(compile(fh.read(), path, "exec"), f"{module}.", path)
    return found


def defined_functions() -> list[tuple[str, int, str, object]]:
    """(file, first line, module.qualified name, code) of every function in
    the package."""
    return [(path, code.co_firstlineno, qual, code) for path, qual, code in code_objects()
            if not (code.co_name.startswith("<") and code.co_name != "<lambda>")]


def _key(code) -> tuple[str, int, str]:
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name


def _own_nodes(stmt: ast.stmt):
    """The nodes of a statement, without the statements nested in it."""
    stack = [stmt]
    while stack:
        node = stack.pop()
        yield node
        stack += [child for child in ast.iter_child_nodes(node)
                  if not isinstance(child, (ast.stmt, ast.excepthandler))]


def _exit_group(stmt: ast.stmt, builders: set[str]) -> str | None:
    if isinstance(stmt, ast.Raise):
        return REFUSALS
    if any(isinstance(node, ast.Name) and node.id in builders for node in _own_nodes(stmt)):
        return VERDICTS
    return None


def line_groups(source: str) -> dict[int, str]:
    """The group of every line a statement of `source` spans, by its
    innermost statement: a ``raise`` is a refusal; a statement naming
    ``FAIL``, ``INCONCLUSIVE`` or a function every return of which names
    one of them (such as a check's local ``fail``) is a verdict branch; a
    simple statement in a block that ends in either goes with that end; the
    rest is the rest."""
    tree = ast.parse(source)
    builders = {"FAIL", "INCONCLUSIVE"}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            returns = [n for n in ast.walk(node) if isinstance(n, ast.Return)]
            if returns and all(_exit_group(r, builders) for r in returns):
                builders.add(node.name)
    groups: dict[int, str] = {}
    for node in ast.walk(tree):  # outer statements first
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not (isinstance(block, list) and block and isinstance(block[0], ast.stmt)):
                continue
            for stmt in block:
                group = _exit_group(stmt, builders)
                if group is None and not hasattr(stmt, "body"):
                    group = _exit_group(block[-1], builders)
                for line in range(stmt.lineno, stmt.end_lineno + 1):
                    groups[line] = group or REST
    return groups


def _function_of(qual: str) -> str:
    """The function whose lines a code object's are: a comprehension's go
    with the function around it."""
    parts = qual.split(".")
    while parts[-1].startswith("<") and parts[-1] != "<lambda>":
        parts.pop()
    return ".".join(parts)


def function_lines() -> dict[str, dict[int, str]]:
    """For each module of the package, the module.qualified name of the
    innermost function that every line of its code objects belongs to.  A
    code object's first line is left out: it is its ``def`` (or
    decorator), which no line event of its own reaches."""
    out: dict[str, dict[int, str]] = {}
    for path, qual, code in code_objects():  # outer code objects first
        owner = out.setdefault(path, {})
        for _, _, line in code.co_lines():
            if line is not None and line != code.co_firstlineno:
                owner[line] = _function_of(qual)
    return out


def never_executed(executed: dict, stay: dict) -> dict[str, list[tuple[str, int, str, str]]]:
    """(file, line, function, text) of every line of the package's code
    objects that no line event reached, by group, outside oracles.py and
    the stay-listed functions."""
    ran: dict[str, set[int]] = {}
    for path, _, code in code_objects():
        ran.setdefault(path, set()).update(executed.get(_key(code), ()))
    out: dict[str, list[tuple[str, int, str, str]]] = {REFUSALS: [], VERDICTS: [], REST: []}
    for path, owners in sorted(function_lines().items()):
        if path == ORACLES:
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        groups = line_groups("\n".join(text))
        for line in sorted(owners.keys() - ran[path]):
            qual = owners[line]
            if not any(qual == s or qual.startswith(s + ".") for s in stay):
                out[groups.get(line, REST)].append((path, line, qual, text[line - 1].strip()))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write-golden", action="store_true",
                        help=f"rewrite {os.path.relpath(GOLDEN, ROOT)} from this checkout's "
                             "CLI, print the digest line and exit")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench"),
                    os.path.join(ROOT, "tests")]
    os.environ["COLUMNS"] = "80"  # the help text wraps at the terminal width
    if args.write_golden:
        with tempfile.TemporaryDirectory() as scratch:
            outcomes, digest_line = cli_outcomes(scratch)
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(outcomes, fh, indent=1)
            fh.write("\n")
        print(digest_line)
        return 0
    entered: set[tuple[str, int, str]] = set()
    executed: dict[tuple[str, int, str], set[int]] = {}
    tracers: dict = {}  # code -> its line tracer, or None outside the line pass
    traced = {os.path.realpath(path) for path in modules()} - {ORACLES}

    def tracer_for(code):
        key = _key(code)
        if key[0] not in traced:
            return None
        lines = executed.setdefault(key, set())

        def local(frame, event, _arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))
            if code not in tracers:
                tracers[code] = tracer_for(code)
            return tracers[code]

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
    unexecuted = never_executed(executed, stay)
    print(f"{sum(map(len, unexecuted.values()))} code lines never executed, "
          "outside oracles.py and the stay-listed functions:")
    for group in (REFUSALS, VERDICTS):
        print(f"  {len(unexecuted[group])} {group}:")
        for path, line, _, text in unexecuted[group]:
            print(f"    {os.path.relpath(path, src)}:{line} {text}")
    rest = unexecuted[REST]
    print(f"  {len(rest)} {REST}:")
    reasons = {(qual, text): reason for qual, text, reason in STAY_LINES}
    kept = [entry for entry in rest if entry[2:] in reasons]
    undecided = [entry for entry in rest if entry[2:] not in reasons]
    stale = reasons.keys() - {entry[2:] for entry in kept}
    print(f"    {len(kept)} of them in STAY_LINES:")
    for reason in dict.fromkeys(reasons.values()):
        print(f"      {reason}:")
        for path, line, qual, text in kept:
            if reasons[qual, text] == reason:
                print(f"        {os.path.relpath(path, src)}:{line} {text}")
    print(f"    {len(undecided)} undecided:")
    for path, line, _, text in undecided:
        print(f"      {os.path.relpath(path, src)}:{line} {text}")
    print(f"    {len(stale)} STAY_LINES entries whose line runs or is gone (the entry can go):")
    for qual, text in sorted(stale):
        print(f"      {qual}: {text}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
