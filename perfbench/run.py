"""rdsio benchmark: bundled scenario workloads through ``run_scenario_file``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``NAME`` is a workload of ``perfbench/workloads.json``, or ``all`` for the
three benchmark workloads interleaved pass by pass.  ``--seed`` is passed to
the program only as the ``seed`` override of every scenario; without it the
bundled seeds are used.

Every pass runs one workload in a fresh child process (``worker.py``), one
at a time, as a CLI user pays the import and the cold caches on every
invocation.  With ``--trace 0`` passes repeat until ``--seconds`` would be
exceeded and the end-to-end metrics are reported: ``wall_ref`` (``wall_s``
over the mean reference slice timed during the pass), ``setup_s`` (process
start to ``rdsio`` imported and every scenario loaded; also probed by
set-up-only children) and ``peak_rss_mb`` (``ru_maxrss`` of the pass's
child), each as a median over passes.  ``wall_s`` (first
``run_scenario_file`` call to last artifact written) is printed beside
them.  With ``--trace 1`` one untraced and
one traced pass run and the per-layer metrics from ``tracer.py`` are
reported, with ``trace.overhead_frac`` from the two walls.

Every scenario run is checked: it fails if it raises, fails an assertion,
writes no trace or report, or writes a trace or assertion outcome that
differs from the first pass at the same seed.  Failed runs are counted, the
result is still printed, and the exit code is 1.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 2 means the checkout holds no ``src/rdsio`` or the
arguments are wrong; 3 means the harness itself failed, with no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKER = HERE / "worker.py"

SETUP_PROBES = 5  # set-up-only children per workload, on top of one per pass
RUN_LIMIT_S = 170.0  # every child is killed if the run would pass this

END_TO_END_UNITS = {"wall_ref": "slices", "setup_s": "s", "peak_rss_mb": "MB"}
PRINTED_UNITS = {**END_TO_END_UNITS, "wall_s": "s"}  # wall_s: shown, not gated
PER_LAYER_UNITS = {
    "mpds.cell_samples": "count",
    "mpds.cell_cache_hit_rate": "ratio",
    "mpds.cell_cache_entries": "count",
    "discrete.steps": "count",
    "discrete.step_self_us": "us",
    "rdsi.flow_calls": "count",
    "rdsi.flow_self_s": "s",
    "rdsi.steps_per_flow_call": "steps/call",
    "rdsi.check_axioms_s": "s",
    "rdsi.estimate_characteristic_s": "s",
    "process.evals": "count",
    "process.eval_self_s": "s",
    "linear.solve_calls": "count",
    "linear.solve_self_s": "s",
    "linear.cells_per_solve": "cells/call",
    "linear.characteristic_calls": "count",
    "linear.characteristic_s": "s",
    "monotone.check_monotone_s": "s",
    "monotone.cics_experiment_s": "s",
    "compose.verify_cascade_forward_s": "s",
    "compose.verify_cascade_pullback_s": "s",
    "compose.verify_feedback_s": "s",
    "compose.small_gain_iterate_s": "s",
    "reports.write_s": "s",
    "reports.bytes_written": "bytes",
    "cli.load_s": "s",
    "cli.runner_self_s": "s",
    "trace.overhead_frac": "ratio",
}


class HarnessError(RuntimeError):
    """The benchmark itself failed; no result is printed."""


def load_workloads() -> tuple[dict, list[str]]:
    """Every workload by name, and the names of the benchmark's own."""
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    return {**spec["workloads"], **spec["selfcheck"]}, list(spec["workloads"])


def scenario_args(workload: dict) -> list:
    """``[path, fibers]`` for each scenario: bundled names or perfbench files."""
    out = []
    for entry in workload["scenarios"]:
        if "name" in entry:
            path = ROOT / "src" / "rdsio" / "scenarios" / f"{entry['name']}.yaml"
        else:
            path = HERE / entry["file"]
        out.append([str(path), entry.get("fibers")])
    return out


def child(job: dict, started: float) -> dict:
    """Run ``worker.py`` on one job in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RDSIO_")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = RUN_LIMIT_S - (time.monotonic() - started)
    if timeout <= 0:
        raise HarnessError("run time limit reached")
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(job)], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise HarnessError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_end"] - spawned
    return result


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def count_failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons), comparing every pass to the first."""
    attempted = failed = 0
    reasons = []
    reference = passes[0]["runs"]
    for k, p in enumerate(passes):
        for run, ref in zip(p["runs"], reference):
            attempted += 1
            why = run["error"] and run["error"].strip().splitlines()[-1]
            if why is None and not run["passed"]:
                why = "assertion failed"
            if why is None and run["digest"] != ref["digest"]:
                why = "trace differs from pass 0"
            if why is None and run["assertions"] != ref["assertions"]:
                why = "assertion outcomes differ from pass 0"
            if why is not None:
                failed += 1
                reasons.append(f"pass {k} {run['scenario']}: {why}")
    return attempted, failed, reasons


def layer_metrics(traced: dict, untraced: dict) -> dict:
    layers = traced["trace"]["layers"]
    counts = traced["trace"]["counts"]

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    cache = traced["cell_cache"]
    samples = cache["hits"] + cache["misses"]
    steps = get("discrete.step", "calls")
    flows = get("rdsi.flow", "calls")
    solves = get("linear.solve", "calls")
    return {
        "mpds.cell_samples": samples,
        "mpds.cell_cache_hit_rate": ratio(cache["hits"], samples),
        "mpds.cell_cache_entries": cache["currsize"],
        "discrete.steps": steps,
        "discrete.step_self_us": 1e6 * ratio(get("discrete.step", "self_s"), steps),
        "rdsi.flow_calls": flows,
        "rdsi.flow_self_s": get("rdsi.flow", "self_s"),
        "rdsi.steps_per_flow_call": ratio(steps, flows),
        "rdsi.check_axioms_s": get("rdsi.check_axioms", "total_s"),
        "rdsi.estimate_characteristic_s": get("rdsi.estimate_characteristic", "total_s"),
        "process.evals": get("process.eval", "calls"),
        "process.eval_self_s": get("process.eval", "self_s"),
        "linear.solve_calls": solves,
        "linear.solve_self_s": get("linear.solve", "self_s"),
        "linear.cells_per_solve": ratio(counts.get("linear.cells", 0), solves),
        "linear.characteristic_calls": get("linear.characteristic", "calls"),
        "linear.characteristic_s": get("linear.characteristic", "total_s"),
        "monotone.check_monotone_s": get("monotone.check_monotone", "total_s"),
        "monotone.cics_experiment_s": get("monotone.cics_experiment", "total_s"),
        "compose.verify_cascade_forward_s": get("compose.verify_cascade_forward", "total_s"),
        "compose.verify_cascade_pullback_s": get("compose.verify_cascade_pullback", "total_s"),
        "compose.verify_feedback_s": get("compose.verify_feedback", "total_s"),
        "compose.small_gain_iterate_s": get("compose.small_gain_iterate", "total_s"),
        "reports.write_s": get("reports.write", "total_s"),
        "reports.bytes_written": counts.get("reports.bytes", 0),
        "cli.load_s": get("cli.load", "total_s"),
        "cli.runner_self_s": get("cli.execute", "self_s"),
        "trace.overhead_frac": traced["wall_s"] / untraced["wall_s"] - 1.0,
    }


def measure(names: list[str], workloads: dict, seed, seconds: float, trace: bool) -> dict:
    """Run the passes of ``names``, interleaved, and collect raw results."""
    started = time.monotonic()
    jobs = {}
    for name in names:
        base = OUT / name / f"seed{seed}-trace{int(trace)}"
        shutil.rmtree(base, ignore_errors=True)
        jobs[name] = (base, {"scenarios": scenario_args(workloads[name]), "seed": seed,
                             "trace": False, "setup_only": False})
    setups = {name: [] for name in names}
    passes = {name: [] for name in names}

    def run_pass(name, traced=False):
        base, job = jobs[name]
        out_dir = base / f"pass{len(passes[name])}"
        out_dir.mkdir(parents=True)
        result = child({**job, "out_dir": str(out_dir), "trace": traced}, started)
        setups[name].append(result["setup_s"])
        passes[name].append(result)

    for _ in range(SETUP_PROBES):
        for name in names:
            setups[name].append(child({**jobs[name][1], "setup_only": True}, started)["setup_s"])
    if trace:
        for name in names:
            run_pass(name)
            run_pass(name, traced=True)
    else:
        longest = 0.0
        while True:
            round_start = time.monotonic()
            for name in names:
                run_pass(name)
            now = time.monotonic()
            longest = max(longest, now - round_start)
            if now - started + longest > seconds:
                break
    return {"setups": setups, "passes": passes}


def summarize(name: str, setups: list, passes: list, trace: bool) -> dict:
    attempted, failed, reasons = count_failures(passes)
    if trace:
        metrics = layer_metrics(passes[1], passes[0])
        units = PER_LAYER_UNITS
        spread = {}
    else:
        samples = {
            "wall_ref": [p["wall_s"] / p["slice_s"] for p in passes],
            "wall_s": [p["wall_s"] for p in passes],
            "setup_s": setups,
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        }
        spread = {k: quartiles(v) for k, v in samples.items()}
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        units = PRINTED_UNITS
    print(f"workload {name}: {len(passes)} passes, trace {'on' if trace else 'off'}")
    for key, value in metrics.items():
        line = f"  {key:34s} {value:14.6g} {units[key]}"
        if key in spread:
            q1, q3 = spread[key]
            n = len(setups) if key == "setup_s" else len(passes)
            line += f"  (median; q1 {q1:.6g}, q3 {q3:.6g}; n={n})"
        print(line)
    print(f"  {'failed_runs_frac':34s} {failed / attempted:14.6g} ratio"
          f"  ({failed} of {attempted} scenario runs)")
    for reason in reasons:
        print(f"  FAILED {reason}")
    for run in passes[0]["runs"]:
        print(f"  digest {run['scenario']:28s} {run['digest']}")
    if trace:
        wall = passes[1]["wall_s"]
        spans = passes[1]["trace"]
        print(f"  spans: {spans['spans_file']} ({spans['dropped_spans']} beyond the cap not kept)")
        print(f"  self-time share of the traced wall ({wall:.3f} s):")
        for layer, row in sorted(spans["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {layer:32s} {row['self_s'] / wall:7.1%}  calls {row['calls']}")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                    if k in END_TO_END_UNITS or trace},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rdsio" / "cli.py").is_file():
        print(f"error: no rdsio sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads, benchmark_workloads = load_workloads()
    names = benchmark_workloads if args.workload == "all" else [args.workload]
    if names[0] not in workloads:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads)}",
              file=sys.stderr)
        return 2
    try:
        raw = measure(names, workloads, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    summaries = {name: summarize(name, raw["setups"][name], raw["passes"][name],
                                 bool(args.trace))
                 for name in names}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), "summaries": summaries, **raw},
                                 indent=1), encoding="utf-8")
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    if len(names) == 1:
        metrics = summaries[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{k}": v for name, s in summaries.items()
                   for k, v in s["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
