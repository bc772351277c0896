"""Machine-readable verification reports with byte-stable serialization.

Reports serialize to JSON with a fixed field order and floats rendered
with 17 significant digits, so two runs with the same configuration
produce identical bytes except for the timing field. Non-finite floats
have no JSON form and are refused.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    """One named verification: its error against its tolerance.

    The verdict is derived, not stored: passed is max_error <= tolerance.
    Exact checks encode their verdict as max_error 0 or 1 against
    tolerance 0; every other check has a positive tolerance, which
    scenarios.run_scenario may override.
    """

    name: str
    max_error: float
    tolerance: float
    details: str = ""

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def make_check(name: str, max_error: float, tolerance: float,
               details: str = "") -> Check:
    return Check(name=name, max_error=float(max_error),
                 tolerance=float(tolerance), details=details)


def exact_check(name: str, ok: bool, details: str = "") -> Check:
    return make_check(name, 0.0 if ok else 1.0, 0.0, details)


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[Check, ...]
    timing_ms: int
    config_echo: dict

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_obj(self) -> dict:
        return {
            "scenario": self.config_echo["scenario"],
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "max_error": c.max_error,
                    "tolerance": c.tolerance,
                    "details": c.details,
                }
                for c in self.checks
            ],
            "timing_ms": self.timing_ms,
            "config_echo": self.config_echo,
        }


def _emit(obj, level: int) -> str:
    """obj as JSON, nested at level, indented by two spaces a level."""
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {float(obj)!r}")
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad_in}{json.dumps(str(k))}: {_emit(v, level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{_emit(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(report) -> str:
    """Serialize a report, a list of reports, or a plain JSON-able object."""
    if isinstance(report, VerificationReport):
        obj = report.to_obj()
    elif isinstance(report, (list, tuple)):
        obj = [r.to_obj() if isinstance(r, VerificationReport) else r
               for r in report]
    else:
        obj = report
    return _emit(obj, 0) + "\n"


def strip_timing(text: str) -> str:
    """Replace timing fields by zero for byte comparison of two reports."""
    obj = json.loads(text)
    reports = obj if isinstance(obj, list) else [obj]
    for r in reports:
        if isinstance(r, dict) and "timing_ms" in r:
            r["timing_ms"] = 0
    return dumps(obj if isinstance(obj, list) else reports[0])
