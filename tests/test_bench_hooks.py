"""The traced benchmark's hooks into topcube must keep resolving.

The benchmark harness wraps the functions listed in its tracer's TARGETS
table and builds its workloads from a few more names; deleting or renaming
any of them would break the benchmark, so that fails here first.
"""

import contextlib
import gc
import importlib
import importlib.util
import io
from pathlib import Path

from topcube import UPSet, cli, lattice

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_cli_default_argv_leave_no_reference_cycles(monkeypatch):
    """Every ``cli-default`` argv, run in process with the collector off,
    frees all it builds by reference counting.

    Garbage left in cycles waits for a collection, and what survives into
    the oldest generation raises the benchmark's peak RSS.  They run
    without their ``--json PATH``: the standard library's indenting JSON
    encoder is a cycle of closures, 33 objects a dump, on every report.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    jobs = workloads.build("cli-default", 1, "REPORT").jobs
    argvs = [job.call.args[0] for job in jobs]
    assert all(argv[-2:] == ["--json", "REPORT"] for argv in argvs)

    def round_():
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv[:-2]) == 0, argv

    round_()  # fills the process-wide caches: the parser, the packaged fixtures
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            round_()
        assert gc.collect() == 0
    finally:
        gc.enable()
