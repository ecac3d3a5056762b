"""Every CLI outcome of the traffic, pinned in ``tests/golden/cli_outcomes.json``.

The argv, the files they read, the masking of times and of the scratch
directory all come from ``tools/traffic.py`` (``cli_argv``,
``ENDED_BY_ARGPARSE``, ``cli_outcome`` and ``cli_outcomes``), loaded by
path.  Each argv's exit code, stdout, stderr and ``--json`` text must equal
its golden entry; a mismatch names the argv and the field.  A change that
alters an outcome on purpose rewrites the golden with
``python tools/traffic.py --write-golden`` and lists each changed argv.

The tool's ``STAY_LINES`` names lines by their text in their function, so
each text must name exactly one line there.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli_outcomes.json"


def _load_traffic():
    spec = importlib.util.spec_from_file_location("traffic", ROOT / "tools" / "traffic.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_outcomes_match_the_golden(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal width
    traffic = _load_traffic()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got, _ = traffic.cli_outcomes(str(tmp_path))
    assert [entry["argv"] for entry in got] == [entry["argv"] for entry in golden]
    changed = [(" ".join(want["argv"]), field) for want, have in zip(golden, got)
               for field in traffic.FIELDS if have[field] != want[field]]
    assert not changed


def test_each_stay_line_names_one_line_of_its_function():
    traffic = _load_traffic()
    owned = [(path, line, qual) for path, owners in traffic.function_lines().items()
             for line, qual in owners.items()]
    texts = {}
    for path, _, _ in owned:
        if path not in texts:
            texts[path] = Path(path).read_text(encoding="utf-8").splitlines()
    for qual, text, _ in traffic.STAY_LINES:
        hits = [line for path, line, owner in owned
                if owner == qual and texts[path][line - 1].strip() == text]
        assert len(hits) == 1, (qual, text, hits)
