"""The traced benchmark's hooks into topcube must keep resolving.

The benchmark harness wraps the functions listed in its tracer's TARGETS
table and builds its workloads from a few more names; deleting or renaming
any of them would break the benchmark, so that fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

from topcube import cli, lattice

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    assert tracing.TARGETS
    for module, qual in tracing.TARGETS:
        owner = importlib.import_module(f"topcube.{module}")
        for part in qual.split("."):
            assert hasattr(owner, part), f"topcube.{module}.{qual}"
            owner = getattr(owner, part)
        assert callable(owner), f"topcube.{module}.{qual}"


def test_workload_entry_points_resolve():
    assert cli.CHECKS and cli.DEMOS
    assert all(callable(fn) for _, fn in cli.DEMOS.values())
    assert callable(cli.random_disjoint_topologies)
    assert callable(lattice.random_chain)
