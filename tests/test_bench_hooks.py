"""The traced benchmark's hooks into topcube must keep resolving.

The benchmark harness wraps the functions listed in its tracer's TARGETS
table and builds its workloads from a few more names; deleting or renaming
any of them would break the benchmark, so that fails here first.  The same
holds for the stay-list of ``tools/traffic.py``, and its code-line counter
is pinned on a small source; neither test runs the traffic.
"""

import contextlib
import gc
import importlib
import importlib.util
import io
import textwrap
from pathlib import Path

from topcube import UPSet, cli, lattice

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
TRAFFIC = BENCH.parent / "tools" / "traffic.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load("bench_tracing", TRACING)


def test_every_traced_target_resolves():
    """Resolve each target the way the tracer does.

    A dotted target is read from its owner's own ``__dict__``, so a method
    inherited from a base class would break the traced run; a plain one is
    any module attribute.
    """
    tracing = _load_tracing()
    assert tracing.TARGETS
    for module, qual in tracing.TARGETS:
        owner = importlib.import_module(f"topcube.{module}")
        *path, attr = qual.split(".")
        for part in path:
            assert hasattr(owner, part), f"topcube.{module}.{qual}"
            owner = getattr(owner, part)
        if path:
            assert attr in owner.__dict__, f"topcube.{module}.{qual} is not defined on its owner"
            target = owner.__dict__[attr]
        else:
            target = getattr(owner, attr, None)
        assert callable(target), f"topcube.{module}.{qual}"


def test_workload_entry_points_resolve():
    assert cli.CHECKS and cli.DEMOS
    assert all(callable(fn) for _, fn in cli.DEMOS.values())
    assert callable(cli.random_disjoint_topologies)
    assert callable(lattice.random_chain)


def test_window_counter_reads_the_operands():
    """The tracer counts an op's window from the operands' pre/period strings."""
    tracing = _load_tracing()
    a, b = UPSet("1", "10010"), UPSet("011", "110")
    assert (len(a.pre), len(a.period), len(b.pre), len(b.period)) == (1, 5, 3, 3)
    for op in ("__and__", "__or__", "__sub__"):
        result = getattr(UPSet, op)(a, b)
        assert tracing.WORK[f"upsets.UPSet.{op}"]((a, b), result) == [
            ("upsets.window_bits", 3 + 15)
        ]


def test_cli_default_argv_leave_no_reference_cycles(monkeypatch, tmp_path):
    """Every ``cli-default`` argv, run in process with the collector off,
    frees all it builds by reference counting, its ``--json`` report
    included.

    Garbage left in cycles waits for a collection, and what survives into
    the oldest generation raises the benchmark's peak RSS.  The standard
    library's indenting JSON encoder is a cycle of closures, 33 objects a
    dump, so the CLI writes its reports without it.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    path = str(tmp_path / "report.json")
    jobs = workloads.build("cli-default", 1, path).jobs
    argvs = [job.call.args[0] for job in jobs]
    assert all(argv[-2:] == ["--json", path] for argv in argvs)

    def round_():
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv

    round_()  # fills the process-wide caches: the parser, the packaged fixtures
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            round_()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_every_stay_listed_name_is_a_function_of_the_package():
    """A cut or a rename in ``src/topcube`` has to update the stay-list."""
    traffic = _load("traffic", TRAFFIC)
    defined = {qual for _, _, qual, _ in traffic.defined_functions()}
    names = [name for name, _ in traffic.STAY]
    assert len(set(names)) == len(names)
    assert set(names) <= defined, sorted(set(names) - defined)
    assert all(reason for _, reason in traffic.STAY)


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    traffic = _load("traffic", TRAFFIC)
    source = textwrap.dedent('''\
        """A module docstring
        over two lines."""

        import os  # a trailing comment keeps the line


        # a comment alone
        class A:
            """A class docstring."""

            def f(self):
                """A function docstring,
                also over two lines."""
                text = """a string that is no docstring
                counts on every line"""
                return text
        ''')
    assert traffic.code_lines(source) == 6
