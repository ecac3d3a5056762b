"""Structured verdicts emitted by every verification operation.

A report carries the check name, the parameters it ran with, a three-valued
verdict (pass / fail / inconclusive), an optional witness payload, optional
informational notes, and elapsed wall time.  Failing reports always carry a
witness; inconclusive ones always carry the bound that was exhausted.  A
check never says pass after examining nothing: ``Stopwatch.report`` states
that rule once, for every check that declares its work count.  The JSON
form is versioned and pinned by golden-file tests.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class Report:
    check: str
    params: dict
    verdict: str
    witness: object = None
    notes: list[str] = field(default_factory=list)
    elapsed_ms: float = 0.0

    def __post_init__(self):
        if self.verdict not in (PASS, FAIL, INCONCLUSIVE):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict in (FAIL, INCONCLUSIVE) and self.witness is None:
            raise ValueError(f"{self.verdict} reports must carry a witness")

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def exit_code(self) -> int:
        return {PASS: 0, FAIL: 1, INCONCLUSIVE: 3}[self.verdict]

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "check": self.check,
            "params": self.params,
            "verdict": self.verdict,
            "witness": self.witness,
            "notes": list(self.notes),
            "elapsed_ms": self.elapsed_ms,
        }

    def render(self) -> str:
        lines = [f"check: {self.check}"]
        for key, value in self.params.items():
            lines.append(f"  {key}: {_short(value)}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        if self.witness is not None:
            lines.append(f"  witness: {_short(self.witness)}")
        lines.append(f"verdict: {self.verdict} ({self.elapsed_ms:.1f} ms)")
        return "\n".join(lines)


# ``json.dumps(value, default=str)`` builds a new encoder for every call, so
# a report's rendering binds one at import; the text is the same.
_encode = json.JSONEncoder(default=str).encode


def _short(value, limit: int = 200) -> str:
    text = _encode(value) if not isinstance(value, str) else value
    return text if len(text) <= limit else text[: limit - 3] + "..."


class Stopwatch:
    """One check's clock, id and parameters: the one place a check names itself.

    The clock starts at construction.  Parameters known only after the heavy
    step are added to ``params`` in place; every exit then builds its report
    from the verdict alone.  ``work`` names the ``params`` key counting what
    the check examined: at 0, a pass or inconclusive report becomes
    inconclusive with witness ``{work: 0}`` and no notes.  A fail, which
    needs no work, stays.
    """

    def __init__(self, check: str, params: dict, work: str | None = None):
        self.check = check
        self.params = params
        self.work = work
        self._start = time.perf_counter()

    def report(self, verdict: str, witness=None, notes: list[str] | None = None) -> Report:
        elapsed = round((time.perf_counter() - self._start) * 1000, 3)
        if self.work is not None and verdict != FAIL and not self.params[self.work]:
            verdict, witness, notes = INCONCLUSIVE, {self.work: 0}, None
        return Report(self.check, self.params, verdict, witness, list(notes or []), elapsed)
