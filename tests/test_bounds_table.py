"""README's "Bounds" table names every bound of the package with its value.

Each row's ``module.CONSTANT`` must exist with the value the row states
(``2^k`` read as ``1 << k``), and every module-level constant of
``src/topcube`` whose name holds ``MAX_`` or ends in ``_CAP`` must have a
row.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "topcube"
ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| ([^|]+?) \|")


def _rows() -> dict[tuple[str, str], int]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Bounds\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        match = ROW.match(line)
        if match:
            module, name, value = match.groups()
            base, _, power = value.partition("^")
            assert not power or base == "2", line
            rows[(module, name)] = 1 << int(power) if power else int(base)
    return rows


def _bound_constants() -> set[tuple[str, str]]:
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and (
                            "MAX_" in target.id or target.id.endswith("_CAP")):
                        found.add((path.stem, target.id))
    return found


def test_each_bounds_row_names_a_constant_with_its_value():
    rows = _rows()
    assert len(rows) >= 10
    for (module, name), value in rows.items():
        assert getattr(importlib.import_module(f"topcube.{module}"), name) == value, name


def test_every_bound_constant_has_a_row():
    constants = _bound_constants()
    assert ("demos", "MAX_FIXTURE_SETS") in constants
    assert not constants - _rows().keys()
