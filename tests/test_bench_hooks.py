"""The traced benchmark's hooks into topcube must keep resolving.

The benchmark harness wraps the functions listed in its tracer's TARGETS
table and builds its workloads from a few more names; deleting or renaming
any of them would break the benchmark, so that fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

from topcube import UPSet, cli, lattice

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
