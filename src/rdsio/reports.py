"""Deterministic report and trace serialization.

Trace CSV format (versioned in the leading comment line): one row per
``(fiber_id, t, series, component, value)``, sorted so identical runs
produce byte-identical files.  Reports are JSON objects with sorted keys;
floats serialize via shortest round-trip repr, which is stable across
runs and platforms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "TRACE_FORMAT_VERSION",
    "Assertion",
    "RunReport",
    "write_trace_csv",
    "write_json_report",
    "report_json",
    "NonFiniteReportError",
    "fit_log_slope",
]

TRACE_FORMAT_VERSION = 1

TraceRow = tuple[int, float, str, int, float]


@dataclass(frozen=True)
class Assertion:
    """One named pass/fail check plus the number it was judged on."""

    name: str
    passed: bool
    value: float | None = None
    bound: float | None = None
    detail: str = ""

    def as_dict(self) -> dict:
        out: dict = {"name": self.name, "passed": self.passed}
        if self.value is not None:
            out["value"] = float(self.value)
        if self.bound is not None:
            out["bound"] = float(self.bound)
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class RunReport:
    """Everything one scenario run produced."""

    scenario: str
    experiment: str
    seed: int
    fibers: int
    assertions: list[Assertion] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    traces: list[TraceRow] = field(default_factory=list)

    def check(self, name: str, passed: bool, value=None, bound=None, detail: str = "") -> bool:
        self.assertions.append(Assertion(name, bool(passed), value, bound, detail))
        return bool(passed)

    def extend_traces(self, rows: Iterable[TraceRow]) -> None:
        self.traces.extend(rows)

    @property
    def all_passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "experiment": self.experiment,
            "seed": self.seed,
            "fibers": self.fibers,
            "passed": self.all_passed,
            "assertions": [a.as_dict() for a in self.assertions],
            "metrics": self.metrics,
        }


def _format_value(v: float) -> str:
    # repr gives the shortest decimal that round-trips; bit-stable output.
    return repr(float(v))


def write_trace_csv(path: Path | str, rows: Sequence[TraceRow]) -> None:
    """Write trace rows sorted by (fiber_id, t, series, component): one
    stable sort per field, with no key tuple per row, and one line at a
    time into the file's buffer; a series that is not CSV-safe raises
    before anything is written."""
    for series in {row[2] for row in rows}:
        if "," in series or "\n" in series:
            raise ValueError(f"series name {series!r} is not CSV-safe")
    ordered = sorted(rows, key=itemgetter(3))
    for column in (2, 1, 0):
        ordered.sort(key=itemgetter(column))
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"# rdsio-trace v{TRACE_FORMAT_VERSION}\nfiber_id,t,series,component,value\n")
        out.writelines(f"{int(fiber_id)},{_format_value(t)},{series},{int(component)},"
                       f"{_format_value(value)}\n"
                       for fiber_id, t, series, component, value in ordered)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


class NonFiniteReportError(ValueError):
    """A report holds a NaN or an infinity, which JSON cannot represent."""


def _non_finite_path(obj, path: str = "") -> str | None:
    """Key path of the first non-finite float in ``obj``, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path or "<root>"
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        found = _non_finite_path(value, f"{path}.{key}" if path else str(key))
        if found is not None:
            return found
    return None


def report_json(report: RunReport) -> str:
    """The report as indented JSON with sorted keys; a non-finite number
    raises :class:`NonFiniteReportError` naming its key path."""
    payload = _jsonable(report.as_dict())
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NonFiniteReportError(
            f"report {report.scenario!r} holds a non-finite number at "
            f"{_non_finite_path(payload)}"
        ) from None


def write_json_report(path: Path | str, report: RunReport) -> None:
    """Write :func:`report_json`; nothing is written if it raises."""
    Path(path).write_text(report_json(report) + "\n", encoding="utf-8")


def fit_log_slope(
    times: Sequence[float],
    values: Sequence[float],
    floor: float = 1e-14,
) -> float | None:
    """Least-squares slope of ``log(values)`` against ``times``.

    Points at or below ``floor`` are dropped (they sit in float noise and
    would flatten the fit); returns None when fewer than two usable points
    remain.
    """
    ts, logs = [], []
    for t, v in zip(times, values):
        if v > floor:
            ts.append(float(t))
            logs.append(float(np.log(v)))
    if len(ts) < 2:
        return None
    return float(np.polyfit(ts, logs, 1)[0])
