"""One workload pass in a fresh interpreter; prints one JSON result line.

Usage (from ``run.py``): ``python3 perfbench/worker.py '<json job>'`` where
the job holds ``scenarios`` (list of ``[path, fibers or null]``), ``seed``
(or null for the bundled seeds), ``out_dir``, ``trace`` and
``setup_only``.

Set-up is the import of ``rdsio`` plus ``load_scenario`` on every scenario
file of the workload; its end is reported as a ``time.monotonic`` reading
so the parent can measure it from before it started this process.  The
pass itself runs every scenario through ``rdsio.cli.run_scenario_file`` and
is timed from the first call until the last artifact is written.  During an
untraced pass :class:`SpeedSampler` times a fixed reference slice every
50 ms, so the parent can express the pass in slices (``wall_ref``) as well
as in seconds.  A scenario that raises is recorded, not fatal: the parent
counts it as a failed run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SLICE_ITERATIONS = 500  # one reference slice: about 1-2 ms of work
SLICE_INTERVAL_S = 0.05  # a slice every 50 ms of the pass: about 2-4% of it
_TABLE = {i: float(i) for i in range(4096)}


def _reference_slice() -> None:
    # fixed interpreter, small-array and dict work of the kind rdsio does,
    # calling nothing in rdsio, so a change to the program leaves it alone
    acc = 0.0
    for i in range(SLICE_ITERATIONS):
        v = np.array([i * 0.5, 1.0]) * 0.3
        acc += float(v[0]) + math.exp(-1e-6 * i) + _TABLE[(i * 7919) % 4096]


class SpeedSampler:
    """Time a reference slice every ``SLICE_INTERVAL_S`` while a pass runs.

    The slices run in the pass's own thread, from a ``SIGALRM`` handler
    between bytecodes, so they see the same CPU at the same moments as the
    pass.  ``slice_s`` is their mean duration and ``spent_s`` the time they
    took out of the pass.
    """

    def __init__(self):
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _reference_slice()
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SLICE_INTERVAL_S, SLICE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def spent_s(self) -> float:
        return sum(self.durations)

    @property
    def slice_s(self) -> float:
        if self.durations:
            return self.spent_s / len(self.durations)
        start = time.perf_counter()  # a pass shorter than one interval
        _reference_slice()
        return time.perf_counter() - start


def _check_run(out_dir: Path, name: str, report) -> dict:
    """Assertion outcomes and trace digest of one finished scenario run."""
    trace = out_dir / f"{name}.trace.csv"
    report_file = out_dir / f"{name}.report.json"
    run = {
        "scenario": name,
        "assertions": {a.name: a.passed for a in report.assertions},
        "passed": bool(report.assertions) and report.all_passed,
        "digest": None,
        "error": None,
    }
    if not trace.is_file() or not report_file.is_file():
        run["error"] = "missing trace or report artifact"
        return run
    run["digest"] = hashlib.sha256(trace.read_bytes()).hexdigest()
    if json.loads(report_file.read_text(encoding="utf-8")).get("passed") is not run["passed"]:
        run["error"] = "report.json disagrees with the returned report"
    return run


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import rdsio
    from rdsio import cli

    if not Path(rdsio.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported rdsio from {rdsio.__file__}, not from this checkout")
    scenarios = [(Path(path), fibers) for path, fibers in job["scenarios"]]
    names = [cli.load_scenario(path).get("name", path.stem) for path, _ in scenarios]
    setup_end = time.monotonic()
    if job["setup_only"]:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    tracer = None
    if job["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    out_dir = Path(job["out_dir"])
    reports = []
    sampler = SpeedSampler()
    # no slices in a traced pass: they would land in the self time of its spans
    with sampler if tracer is None else contextlib.nullcontext():
        start = time.perf_counter()
        for path, fibers in scenarios:
            try:
                reports.append(cli.run_scenario_file(path, out_dir=out_dir, fibers=fibers,
                                                     seed=job["seed"]))
            except Exception:  # a failed run, counted by the parent
                reports.append(traceback.format_exc())
        wall_s = time.perf_counter() - start - sampler.spent_s

    runs = []
    for name, report in zip(names, reports):
        if isinstance(report, str):
            runs.append({"scenario": name, "assertions": {}, "passed": False,
                         "digest": None, "error": report})
        else:
            runs.append(_check_run(out_dir, name, report))
    result = {
        "setup_end": setup_end,
        "wall_s": wall_s,
        "slice_s": sampler.slice_s,
        "slices": len(sampler.durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": runs,
        "cell_cache": rdsio.mpds._law_sample.cache_info()._asdict(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["trace"]["spans_file"] = str(out_dir / "spans.jsonl")
        tracer.write_spans(result["trace"]["spans_file"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
