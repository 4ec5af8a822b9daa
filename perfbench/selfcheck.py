"""Self-check of the benchmark harness; exits non-zero on the first mismatch.

Usage, from the root of a checkout: ``python3 perfbench/selfcheck.py``
(about ten seconds).  It confirms that

- a fast run on a tiny passing scenario prints every end-to-end metric of
  ``BENCHMARK.json`` with its unit, and a traced run every per-layer metric;
- a scenario with the ``axioms`` runner's ``fault: time_zero``, and one
  whose runner raises, land in the failed-run count, with a result printed
  and exit code 1, instead of crashing the harness;
- in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def check_metrics(stdout: str, declared: list[dict], what: str) -> None:
    metrics = result_of(stdout)["metrics"]
    expect(sorted(metrics) == sorted(m["name"] for m in declared),
           f"{what}: prints exactly the declared metrics")
    expect(all(metrics[m["name"]]["unit"] == m["unit"] for m in declared),
           f"{what}: every metric carries its declared unit")
    expect(all(f"  {m['name']} " in stdout for m in declared),
           f"{what}: every metric has a readable line")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    code, out = bench("--workload", "selfcheck-pass", "--seed", "5", "--seconds", "1")
    expect(code == 0 and result_of(out)["correct"], "tiny passing scenario: correct, exit 0")
    check_metrics(out, spec["end_to_end"], "untraced run")
    expect("  wall_s " in out and "failed_runs_frac" in out and "n=" in out,
           "untraced run: raw wall_s, failed-run fraction and sample counts printed")

    code, out = bench("--workload", "selfcheck-pass", "--seed", "5", "--seconds", "1",
                      "--trace", "1")
    expect(code == 0 and result_of(out)["correct"], "traced run: correct, exit 0")
    check_metrics(out, spec["per_layer"], "traced run")

    code, out = bench("--workload", "selfcheck-fault", "--seconds", "1")
    result = result_of(out)
    expect(code == 1 and not result["correct"], "faulty scenarios: result printed, exit 1")
    expect(result["failed"] == 2 and result["attempted"] == 3,
           "faulty scenarios: 2 of 3 runs failed, the passing one did not")
    expect("FAILED pass 0 tiny_axioms_fault: assertion failed" in out,
           "failing assertion: reason printed")
    expect("FAILED pass 0 tiny_raises: rdsio.cli.ScenarioError" in out, "raising run: reason printed")

    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, out = bench("--workload", spec["workloads"][0]["name"], "--seed", "1",
                      "--seconds", str(spec["run_seconds"]), cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and not out.strip(), "without the program: non-zero exit, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
