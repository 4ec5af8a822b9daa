"""Deterministic report and trace serialization.

Trace CSV format (versioned in the leading comment line): one row per
``(fiber_id, t, series, component, value)``, sorted so identical runs
produce byte-identical files; ``component`` is always 0.  A run records its
trace as array series (:meth:`RunReport.trace`), and a check's result is
recorded by its dataclass fields, less those marked :func:`unreported`.
Reports are JSON objects with sorted keys; floats serialize via shortest
round-trip repr, which is stable across runs and platforms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "TRACE_FORMAT_VERSION",
    "Assertion",
    "RunReport",
    "unreported",
    "write_trace_csv",
    "write_json_report",
    "report_json",
    "NonFiniteReportError",
    "fit_log_slope",
]

TRACE_FORMAT_VERSION = 1

# trace rows formatted and written at a time
_WRITE_ROWS = 1 << 14


def unreported():
    """A result dataclass field that a report leaves out and that comparing
    two results skips: per-fiber diagnostics, which a runner may trace."""
    return field(compare=False, metadata={"reported": False})


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
    # (series, first fiber id, (n,) times, (F, n) values), in traced order
    series: list[tuple[str, int, np.ndarray, np.ndarray]] = field(default_factory=list)

    def check(self, name: str, passed: bool, value=None, bound=None, detail: str = "") -> bool:
        self.assertions.append(Assertion(name, bool(passed), value, bound, detail))
        return bool(passed)

    def trace(self, series: str, t, values, first: int = 0) -> None:
        """Record series ``series`` for the fibers ``first``, ``first + 1``,
        ...: one value per fiber at the time ``t``, or ``(F, n)`` values at
        the ``n`` times ``t``."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        values = np.asarray(values, dtype=float)
        self.series.append((series, int(first), t, values.reshape(len(values), t.size)))

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


def write_trace_csv(path: Path | str, series: Sequence[tuple]) -> None:
    """Write the rows of :attr:`RunReport.series` sorted by (fiber_id, t,
    series), rows of one key in traced order: the series expanded into
    arrays, one stable ``np.lexsort`` and bounded chunks of lines.  A
    series name that is not CSV-safe raises before anything is written."""
    names = sorted({name for name, *_ in series})
    for name in names:
        if "," in name or "\n" in name:
            raise ValueError(f"series name {name!r} is not CSV-safe")
    rank = {name: code for code, name in enumerate(names)}
    size = sum(values.size for *_, values in series)
    code, fiber, time, value = (np.empty(size, dtype) for dtype in (np.int32, np.int64, float, float))
    end = 0
    for name, first, times, values in series:
        rows = slice(end, end + values.size)
        code[rows] = rank[name]
        fiber[rows] = np.repeat(first + np.arange(len(values)), times.size)
        time[rows] = np.tile(times, len(values))
        value[rows] = values.ravel()
        end = rows.stop
    order = np.lexsort((code, time, fiber))
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"# rdsio-trace v{TRACE_FORMAT_VERSION}\nfiber_id,t,series,component,value\n")
        for start in range(0, order.size, _WRITE_ROWS):
            chunk = order[start:start + _WRITE_ROWS]
            # repr gives the shortest decimal that round-trips; bit-stable output
            out.writelines(f"{f},{t!r},{names[c]},0,{v!r}\n" for f, t, c, v in zip(
                fiber[chunk].tolist(), time[chunk].tolist(), code[chunk].tolist(),
                value[chunk].tolist()))


def _jsonable(obj):
    """``obj`` as JSON data; a result dataclass as the mapping of its
    fields, less those marked :func:`unreported`."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)
                if f.metadata.get("reported", True)}
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
