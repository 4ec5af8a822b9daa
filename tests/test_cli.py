"""Integration tests for the scenario runner CLI."""

import copy
import hashlib
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from rdsio import cli, compose, rdsi, reports
from rdsio.mpds import CellLaw, Fiber, RandomVariable, cell_noise, fiber_grid
from rdsio.cli import (
    EXIT_ASSERTION,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_OK,
    load_scenario,
    run_scenario_file,
    scenario_catalog,
)
from reference_process import batch, one_readout, one_step

QUICK_AXIOMS = {
    "name": "quick_axioms",
    "description": "small axiom probe",
    "seed": 7,
    "fibers": 10,
    "experiment": {
        "kind": "axioms",
        "samples": 40,
        "max_time": 8,
        "system": {
            "kind": "discrete",
            "generator": {
                "state_dim": 1,
                "input_dim": 1,
                "noise": {"law": "uniform", "lo": [-0.5], "hi": [0.5]},
                "components": [
                    {"op": "add", "args": [
                        {"op": "scale", "factor": 0.5, "arg": {"op": "state"}},
                        {"op": "input"},
                        {"op": "noise"},
                    ]}
                ],
            },
        },
    },
}


def _write(tmp_path, payload, name="scenario.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return p


def test_run_passing_scenario(tmp_path):
    path = _write(tmp_path, QUICK_AXIOMS)
    rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "out" / "quick_axioms.report.json").read_text())
    assert report["passed"] is True
    assert (tmp_path / "out" / "quick_axioms.trace.csv").exists()


def test_planted_fault_exits_one_and_names_the_clause(tmp_path, capsys):
    bad = dict(QUICK_AXIOMS, name="planted")
    bad["experiment"] = dict(QUICK_AXIOMS["experiment"], fault="time_zero")
    path = _write(tmp_path, bad)
    rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == EXIT_ASSERTION
    out = capsys.readouterr().out
    assert "FAIL planted:time_zero_identity" in out


def test_malformed_yaml_exits_two_with_location(tmp_path, capsys):
    p = tmp_path / "broken.yaml"
    p.write_text("experiment: {kind: axioms\n  nope", encoding="utf-8")
    rc = cli.main(["run", str(p), "--out", str(tmp_path / "out")])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


@pytest.mark.parametrize("name", sorted(scenario_catalog()))
def test_bundled_scenarios_parse_alike_under_both_yaml_loaders(name):
    # the loader of the runner (libyaml's, where PyYAML has it) and the
    # pure-Python safe loader build equal data
    path = scenario_catalog()[name][0]
    want = yaml.load(path.read_text(encoding="utf-8"), Loader=yaml.SafeLoader)
    assert load_scenario(path) == want


def test_validation_failure_exits_two(tmp_path, capsys):
    bad = dict(QUICK_AXIOMS)
    bad["experiment"] = {"kind": "axioms"}  # missing system
    path = _write(tmp_path, bad)
    rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == EXIT_INVALID
    assert "missing required field" in capsys.readouterr().err


def test_unknown_kind_exits_two(tmp_path, capsys):
    bad = dict(QUICK_AXIOMS)
    bad["experiment"] = {"kind": "astrology"}
    path = _write(tmp_path, bad)
    rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == EXIT_INVALID
    assert "unknown experiment kind" in capsys.readouterr().err


def test_io_failure_exits_three(tmp_path, capsys):
    path = _write(tmp_path, QUICK_AXIOMS)
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory", encoding="utf-8")
    rc = cli.main(["run", str(path), "--out", str(blocker)])
    assert rc == EXIT_IO


def test_missing_scenario_name_exits_two(tmp_path, capsys):
    rc = cli.main(["run", "definitely_not_bundled", "--out", str(tmp_path)])
    assert rc == EXIT_INVALID


def test_equilibrium_runner_with_explicit_candidate(tmp_path):
    scenario = {
        "name": "const_equilibrium",
        "seed": 3,
        "fibers": 8,
        "experiment": {
            "kind": "equilibrium",
            "system": {
                "kind": "linear",
                "a": {"law": "constant", "values": [-1.0]},
                "b": {"law": "constant", "values": [1.0]},
            },
            "input": {"form": "constant", "values": [0.8]},
            "initial": {"form": "constant", "values": [0.8]},
            "horizon": 30.0,
            "tol": 1.0e-9,
            "explicit_candidate": {"form": "constant", "values": [0.8]},
            "explicit_tol": 1.0e-12,
        },
    }
    path = _write(tmp_path, scenario)
    rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "out" / "const_equilibrium.report.json").read_text())
    names = {a["name"]: a for a in report["assertions"]}
    assert names["explicit_candidate"]["passed"] is True
    assert names["explicit_candidate"]["value"] <= 1e-12


def test_characteristic_runner_runs_no_equilibrium_check(tmp_path, monkeypatch):
    # only the equilibrium runner reports an equilibrium check, so only it runs one
    def refuse(*args, **kwargs):
        raise AssertionError("an equilibrium check ran that no check reports")

    monkeypatch.setattr(rdsi, "check_equilibrium", refuse)
    rc = cli.main(["run", "linear_characteristic", "--out", str(tmp_path / "out")])
    assert rc == EXIT_OK


def test_run_by_bundled_name_with_overrides(tmp_path):
    report = run_scenario_file(
        scenario_catalog()["bracketing_sandwich"][0],
        out_dir=tmp_path, fibers=20, seed=42,
    )
    assert report.all_passed
    assert report.fibers == 20
    assert report.seed == 42


def test_bundled_feedback_scenario_is_exact(tmp_path):
    report = run_scenario_file(scenario_catalog()["feedback_loop"][0],
                               out_dir=tmp_path, fibers=10)
    assert report.all_passed
    names = {a.name: a for a in report.assertions}
    assert names["loop_equations"].value == 0.0
    assert names["closed_loop_contract"].value == 0.0


def test_rerun_is_byte_identical(tmp_path):
    path = scenario_catalog()["bracketing_sandwich"][0]
    run_scenario_file(path, out_dir=tmp_path / "a")
    run_scenario_file(path, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "bracketing_sandwich.trace.csv").read_bytes()
    b = (tmp_path / "b" / "bracketing_sandwich.trace.csv").read_bytes()
    assert a == b
    assert len(a) > 100


def test_trace_format_header(tmp_path):
    run_scenario_file(scenario_catalog()["bracketing_sandwich"][0], out_dir=tmp_path)
    lines = (tmp_path / "bracketing_sandwich.trace.csv").read_text().splitlines()
    assert lines[0] == "# rdsio-trace v1"
    assert lines[1] == "fiber_id,t,series,component,value"
    first = lines[2].split(",")
    assert len(first) == 5


def test_list_scenarios_catalog(capsys):
    rc = cli.main(["list-scenarios"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) >= 8
    assert any(l.startswith("linear_characteristic - ") for l in lines)


def test_list_scenarios_with_empty_custom_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.SCENARIO_DIR_ENV, str(tmp_path))
    rc = cli.main(["list-scenarios"])
    assert rc == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) >= 8  # bundled-only catalog


def test_duplicate_scenario_names_disambiguated(tmp_path, monkeypatch, capsys):
    bundled = scenario_catalog()["bracketing_sandwich"][0]
    (tmp_path / "bracketing_sandwich.yaml").write_text(
        bundled.read_text(encoding="utf-8"), encoding="utf-8"
    )
    monkeypatch.setenv(cli.SCENARIO_DIR_ENV, str(tmp_path))
    cli.main(["list-scenarios"])
    out = capsys.readouterr().out
    occurrences = [l for l in out.splitlines() if l.startswith("bracketing_sandwich")]
    assert len(occurrences) == 2
    assert all("[" in l and "]" in l for l in occurrences)


def test_json_flag_prints_report(tmp_path, capsys):
    path = _write(tmp_path, QUICK_AXIOMS)
    rc = cli.main(["run", str(path), "--out", str(tmp_path / "out"), "--json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "quick_axioms"
    assert payload["passed"] is True


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# ``rdsio = "rdsio.cli:main"`` inside the ``[project.scripts]`` table, before
# the next table header.
CONSOLE_SCRIPT = re.compile(
    r'^\[project\.scripts\]\s*\n(?:(?!\[).*\n)*?rdsio\s*=\s*"rdsio\.cli:main"\s*$',
    re.MULTILINE,
)


def test_console_entry_point_works():
    # The console script is generated by pip from this declaration; the
    # ``rdsio`` package's ``__main__`` calls the same target, so the check
    # also runs where nothing is installed.
    assert CONSOLE_SCRIPT.search(PYPROJECT.read_text(encoding="utf-8"))
    proc = subprocess.run([sys.executable, "-m", "rdsio", "list-scenarios"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "linear_characteristic" in proc.stdout


@pytest.mark.skipif(shutil.which("rdsio") is None,
                    reason="the rdsio console script is not installed")
def test_installed_console_script_works():
    proc = subprocess.run(["rdsio", "list-scenarios"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "linear_characteristic" in proc.stdout


def test_list_into_a_closed_pipe_is_an_io_failure_without_a_traceback():
    # stdout is a pipe whose reader has already gone, as after `| head -1`
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "rdsio", "list-scenarios"],
                              stdout=write, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == EXIT_IO
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_load_scenario_requires_mapping(tmp_path):
    p = tmp_path / "list.yaml"
    p.write_text("- 1\n- 2\n", encoding="utf-8")
    with pytest.raises(cli.ScenarioError, match="mapping"):
        load_scenario(p)


def _bundled(name):
    return yaml.safe_load(scenario_catalog()[name][0].read_text(encoding="utf-8"))


@pytest.mark.parametrize("name, key, value", [
    ("cascade_identities", "horizon", -1),
    ("cascade_identities", "time_step", 0),
    ("cascade_identities", "initial_states", 0),
    ("cascade_identities", "probe_fibers", 0),
    ("cascade_identities", "shift_identity_samples", 0),
    ("cascade_identities", "horizon", "many"),
    ("feedback_loop", "horizon", -1),
    ("feedback_loop", "time_step", 0),
    ("feedback_loop", "initial_states", 0),
    ("feedback_loop", "axiom_samples", 0),
    ("feedback_loop", "time_step", 2.5),
])
def test_interconnect_count_out_of_range_exits_two(tmp_path, capsys, name, key, value):
    scenario = _bundled(name)
    scenario["experiment"][key] = value
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(tmp_path / "out")])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"experiment.{key}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, fibers, message", [
    pytest.param("cascade_identities", 0, "need at least one fiber", id="cascade_identities"),
    pytest.param("feedback_loop", 0, "need at least one fiber", id="feedback_loop"),
    # the decay envelope's standard error is 0 at one fiber, and its
    # spread barely measured at two
    pytest.param("pullback_decay", 1, "at least three fibers", id="pullback_decay-1"),
    pytest.param("pullback_decay", 2, "at least three fibers", id="pullback_decay-2"),
    # past the count cap, where the fiber grid alone would not fit in memory
    pytest.param("cics_convergence", 10**20, "must be at most 200000",
                 id="cics_convergence-over_the_cap"),
])
def test_interconnect_without_fibers_exits_two(tmp_path, capsys, name, fibers, message):
    out = tmp_path / "out"
    rc = cli.main(["run", name, "--fibers", str(fibers), "--out", str(out)])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: fibers: ") and err.count("\n") == 1
    assert message in err and f"got {fibers}" in err
    assert not out.exists()  # refused before anything is sampled or written


def test_unknown_law_exits_two(tmp_path, capsys):
    scenario = {
        "name": "bogus_law",
        "seed": 3,
        "fibers": 4,
        "experiment": {
            "kind": "equilibrium",
            "system": {
                "kind": "linear",
                "a": {"law": "bogus"},
                "b": {"law": "constant", "values": [1.0]},
            },
            "input": {"form": "constant", "values": [0.8]},
        },
    }
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(tmp_path / "out")])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert err == ("error: experiment.system.a.law: expected one of ('constant', 'uniform', 'choice'), "
                   "got 'bogus'\n")
    assert "Traceback" not in err


def test_unknown_output_noise_law_exits_two(tmp_path, capsys):
    scenario = _bundled("cascade_identities")
    scenario["experiment"]["output"]["noise"] = {"law": "bogus"}
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(tmp_path / "out")])
    assert rc == EXIT_INVALID
    assert capsys.readouterr().err == ("error: experiment.output.noise.law: expected one of "
                                       "('constant', 'uniform', 'choice'), got 'bogus'\n")


def _set(*keys, value):
    def apply(scenario):
        target = scenario
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    return apply


@pytest.mark.parametrize("name, mutate, message", [
    ("linear_characteristic", _set("fibers", value="many"), "fibers: expected an integer"),
    ("linear_characteristic", _set("fibers", value=0), "fibers: need at least one fiber"),
    ("linear_characteristic", _set("seed", value=1.5), "seed: expected an integer"),
    ("linear_characteristic", _set("experiment", "tol", value="tiny"), "experiment.tol:"),
    ("linear_characteristic", _set("experiment", "horizon", value=-5), "experiment.horizon:"),
    ("linear_characteristic", _set("experiment", "constant_case", "a", value=0.5),
     "experiment.constant_case.a:"),
    ("pullback_decay", _set("experiment", "fit_step", value=0), "experiment.fit_step:"),
    ("pullback_decay", _set("experiment", "rate", value=-1.0), "experiment.rate:"),
    ("pullback_limit_equilibrium", _set("experiment", "horizon", value="long"),
     "experiment.horizon:"),
    ("cics_convergence", _set("experiment", "schedule", value=[]), "experiment.schedule:"),
    ("cics_convergence", _set("experiment", "schedule", value=[5.0, -1.0]),
     "experiment.schedule[1]:"),
    # a schedule time is a pullback over that many cells per fiber
    ("cics_convergence", _set("experiment", "schedule", value=[5.0, 1000.5]),
     "experiment.schedule[1]: must be at most 1000"),
    ("cics_convergence", _set("experiment", "schedule", value=[1e30]),
     "experiment.schedule[0]: must be at most 1000"),
    ("cics_convergence", _set("experiment", "disturbance", "lag", value="x"),
     "experiment.disturbance.lag: expected an integer"),
    ("cics_convergence", _set("experiment", "system", "decay_rate_hint", value=0),
     "experiment.system.decay_rate_hint:"),
])
def test_malformed_numeric_field_exits_two(tmp_path, capsys, name, mutate, message):
    scenario = _bundled(name)
    mutate(scenario)
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(tmp_path / "out")])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_exponent_without_a_dot_still_reads_as_a_number(tmp_path):
    # YAML reads 1e-8 (no dot) as a string; numeric fields accept it
    scenario = _bundled("linear_characteristic")
    scenario["fibers"] = 3
    scenario["experiment"]["tol"] = "1e-8"
    report = run_scenario_file(_write(tmp_path, scenario), out_dir=tmp_path / "out")
    assert report.all_passed


_SEEN = SimpleNamespace(time_kind="continuous")
_WS, _TIMES = fiber_grid(3, seed=4, offset=0.25), np.array([0.0, 1.5])


@pytest.mark.parametrize("read, value, refusal", [
    (lambda raw: cli._expr({"state": 1})(raw, "e", _SEEN)(1.0, (), ()), lambda v: v,
     "e: expected a mapping"),
    (lambda raw: cli._input(raw, "e", _SEEN), lambda u: u.over(_WS, _TIMES).tobytes(),
     "e: expected a mapping"),
    (lambda raw: cli.build_rv(raw, "e"), lambda rv: rv.across(_WS).tobytes(),
     "e: expected a mapping"),
    (lambda raw: cli._law({"law": "uniform", "lo": raw, "hi": 1.0}, "e", _SEEN), lambda v: v,
     "e.lo: expected a list of one or more entries"),
], ids=["expression", "input", "random_variable", "law_vector"])
def test_exponent_without_a_dot_reads_as_a_number_where_a_mapping_may_stand(read, value, refusal):
    # YAML reads 5e-1 (no dot) as a string: it reads as 0.5 where a number
    # or a mapping or list may stand, and a string that is no finite
    # number is refused there as before
    assert value(read("5e-1")) == value(read(0.5))
    for raw in ("x", "nan", "1e999"):
        with pytest.raises(cli.ScenarioError, match=f"^{re.escape(refusal)}$"):
            read(raw)


@pytest.mark.parametrize("name, mutate, message", [
    ("cocycle_linear", _set("experiment", "samples", value="many"),
     "experiment.samples: expected an integer"),
    ("monotone_orders", _set("experiment", "max_time", value="long"),
     "experiment.max_time: expected a finite number"),
    ("monotone_orders", _set("experiment", "samples", value=0),
     "experiment.samples: must be at least 1"),
    ("cocycle_linear", _set("experiment", "tolerance", value=-1e-9),
     "experiment.tolerance: must be at least 0.0"),
    ("generator_round_trip", _set("experiment", "evals", value=0),
     "experiment.evals: must be at least 1"),
    ("bracketing_sandwich", _set("experiment", "time_kind", value="hourly"),
     "experiment.time_kind:"),
    ("bracketing_sandwich", _set("experiment", "taus", value=[0.0, -2.0]),
     "experiment.taus[1]: must be at least 0.0"),
    ("bracketing_sandwich", _set("experiment", "horizon", value=1.0),
     "experiment.horizon: must be at least"),
    ("small_gain_loop", _set("experiment", "contractive", "max_iters", value="lots"),
     "experiment.contractive.max_iters: expected an integer"),
    ("small_gain_loop", _set("experiment", "contractive", "rate_band", value=[0.6, 0.4]),
     "experiment.contractive.rate_band:"),
    ("small_gain_loop", _set("experiment", "saturating", "grid", "points", value=1),
     "experiment.saturating.grid.points: must be at least 2"),
    ("small_gain_loop", _set("experiment", "contractive", "closed_horizon", value=10**12),
     "experiment.contractive.closed_horizon: must be at most 1000, got 1000000000000"),
    ("small_gain_loop", _set("experiment", "contractive", "grid", "points", value=10**9),
     "experiment.contractive.grid.points: must be at most 10000, got 1000000000"),
    ("small_gain_loop", _set("experiment", "saturating", "second", "generator", "input_dim",
                             value=2),
     "experiment.saturating.second: has input dimension 2, not 1"),
])
def test_sampled_runner_fields_exit_two(tmp_path, capsys, name, mutate, message):
    scenario = _bundled(name)
    mutate(scenario)
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(tmp_path / "out")])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def _joined_trace(rows) -> bytes:
    """The trace CSV as one sort by the key tuple and one join of every line."""
    lines = [f"# rdsio-trace v{reports.TRACE_FORMAT_VERSION}", "fiber_id,t,series,component,value"]
    lines += [f"{int(f)},{float(t)!r},{s},{int(c)},{float(v)!r}"
              for f, t, s, c, v in sorted(rows, key=lambda r: (r[0], r[1], r[2], r[3]))]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("seed", range(6))
def test_trace_csv_bytes_equal_one_sorted_join(tmp_path, seed):
    # rows with repeated keys (the input order breaks the ties), 0.0 and
    # -0.0 and an int and a float of one time
    rng = np.random.default_rng(seed)
    count = int(rng.integers(0, 60))
    times, series = [0.0, -0.0, 2, 2.0, 0.5, 1e-300], ["b", "a", "ab"]
    values = [math.nan, -0.0, math.inf, *rng.normal(size=5).tolist()]
    rows = [(int(rng.integers(0, 4)), times[rng.integers(0, 6)], series[rng.integers(0, 3)],
             int(rng.integers(0, 2)), values[rng.integers(0, len(values))])
            for _ in range(count)]
    path = tmp_path / "trace.csv"
    reports.write_trace_csv(path, rows)
    assert path.read_bytes() == _joined_trace(rows)
    # an unsafe series name writes nothing
    with pytest.raises(ValueError, match="not CSV-safe"):
        reports.write_trace_csv(tmp_path / "unsafe.csv", rows + [(0, 0.0, "a,b", 0, 1.0)])
    assert not (tmp_path / "unsafe.csv").exists()


def test_trace_csv_write_holds_no_line_per_row(tmp_path):
    # above the rows themselves, a write holds their sorted list and one
    # sort key per row (eight bytes each) and a buffer of lines; the lines
    # and the text of the whole file are never held at once
    rows = [(i % 997, float(i // 997), "pullback_residual", 0, i * 0.1) for i in range(200_000)]
    tracemalloc.start()
    try:
        reports.write_trace_csv(tmp_path / "trace.csv", rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * len(rows) + 4 * 2**20


def test_non_finite_report_value_is_refused(tmp_path, capsys, monkeypatch):
    from rdsio import reports

    report = reports.RunReport("nan_report", "axioms", seed=0, fibers=1)
    report.metrics["worst"] = {"margin": float("-inf")}
    path = tmp_path / "nan_report.report.json"
    with pytest.raises(reports.NonFiniteReportError, match="metrics.worst.margin"):
        reports.write_json_report(path, report)
    assert not path.exists()

    # the CLI names the value and exits 1, with no traceback
    def fake_execute(cfg, name, out_dir):
        reports.write_json_report(Path(out_dir) / f"{name}.report.json", report)

    monkeypatch.setattr(cli, "execute_scenario", fake_execute)
    rc = cli.main(["run", str(_write(tmp_path, QUICK_AXIOMS)), "--out", str(tmp_path / "o")])
    assert rc == EXIT_ASSERTION
    err = capsys.readouterr().err
    assert "non-finite number at metrics.worst.margin" in err
    assert "Traceback" not in err


def _axioms_with_component(component):
    scenario = json.loads(json.dumps(QUICK_AXIOMS))
    scenario["experiment"]["system"]["generator"]["components"] = [component]
    return scenario


# each id names its case; the message is the reader's wording
@pytest.mark.parametrize("component, message", [
    pytest.param({"op": "state", "index": 3}, "components[0].index: must be at most 0, got 3",
                 id="component0-components[0].index: state has dimension 1, got index 3"),
    pytest.param({"op": "state", "index": "x"},
                 "components[0].index: expected an integer, got 'x'",
                 id="component1-components[0].index: expected a nonnegative integer"),
    pytest.param({"op": "state", "index": -1}, "components[0].index: must be at least 0, got -1",
                 id="component2-components[0].index: expected a nonnegative integer"),
    pytest.param({"op": "input", "index": 1}, "components[0].index: must be at most 0, got 1",
                 id="component3-components[0].index: input has dimension 1, got index 1"),
    pytest.param({"op": "add", "args": [{"op": "state"}, {"op": "noise", "index": 2}]},
                 "components[0].args[1].index: must be at most 0, got 2",
                 id="component4-components[0].args[1].index: noise has dimension 1, "
                    "got index 2"),
])
def test_bad_generator_index_exits_two(tmp_path, capsys, component, message):
    path = _write(tmp_path, _axioms_with_component(component))
    rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == EXIT_INVALID
    assert capsys.readouterr().err == f"error: experiment.system.generator.{message}\n"
    assert not (tmp_path / "out").exists()  # rejected before any sampling


@pytest.mark.parametrize("leaf, message", [
    pytest.param({"op": "input", "index": 0}, "args[0].op: expected one of ('const', 'add', "
                 "'mul', 'scale', 'clamp', 'table', 'state', 'noise'), got 'input'",
                 id="leaf0-args[0]: 'input' cannot be read here"),
    pytest.param({"op": "state", "index": 1}, "args[0].index: must be at most 0, got 1",
                 id="leaf1-args[0].index: state has dimension 1, got index 1"),
    pytest.param({"op": "noise", "index": 1}, "args[0].index: must be at most 0, got 1",
                 id="leaf2-args[0].index: noise has dimension 1, got index 1"),
])
def test_bad_output_map_leaf_exits_two(tmp_path, capsys, leaf, message):
    scenario = _bundled("cascade_identities")
    scenario["experiment"]["output"]["components"][0]["args"][0] = leaf
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(tmp_path / "out")])
    assert rc == EXIT_INVALID
    assert capsys.readouterr().err == f"error: experiment.output.components[0].{message}\n"


def test_divergent_characteristic_fails_with_a_report(tmp_path, capsys):
    # positive mean drift: the stationary-input limit does not exist
    scenario = _bundled("linear_characteristic")
    scenario["fibers"] = 3
    scenario["experiment"]["system"] = {
        "kind": "linear",
        "a": {"law": "uniform", "lo": [0.5], "hi": [1.5]},
        "b": {"law": "constant", "values": [1.0]},
    }
    out = tmp_path / "out"
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(out)])
    assert rc == EXIT_ASSERTION
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "FAIL linear_characteristic:characteristic_certified" in captured.out
    report = json.loads((out / "linear_characteristic.report.json").read_text())
    failed = [a for a in report["assertions"] if not a["passed"]]
    assert [a["name"] for a in failed] == ["characteristic_certified"]
    assert "decay rate must be positive" in failed[0]["detail"]
    assert (out / "linear_characteristic.trace.csv").exists()


def test_non_contracting_small_gain_member_fails_with_a_report(tmp_path, capsys):
    # x -> x + u has no pullback limit under a nonzero frozen input: no
    # depth up to the cap certifies those rows
    scenario = _bundled("small_gain_loop")
    scenario["fibers"] = 2
    scenario["experiment"]["contractive"]["first"]["generator"]["components"] = [
        {"op": "add", "args": [{"op": "state"}, {"op": "input"}]}]
    out = tmp_path / "out"
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(out)])
    assert rc == EXIT_ASSERTION
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "FAIL small_gain_loop:characteristic_certified" in captured.out
    report = json.loads((out / "small_gain_loop.report.json").read_text())
    failed = [a for a in report["assertions"] if not a["passed"]]
    assert [a["name"] for a in failed] == ["characteristic_certified"]
    assert "at depth 2048" in failed[0]["detail"]


def test_saturating_branch_reads_only_the_first_twenty_fibers(tmp_path):
    path = scenario_catalog()["small_gain_loop"][0]
    metrics = [run_scenario_file(path, out_dir=tmp_path / str(n), fibers=n)
               .metrics["small_gain_saturating"] for n in (20, 100)]
    assert metrics[0] == metrics[1]


# a contractive branch with a piecewise-linear (table) readout: no closed
# form gives its characteristic
TABLE_READOUT = {"components": [{"op": "table", "xs": [-20.0, -2.0, 0.0, 2.0, 20.0],
                                 "ys": [-3.0, -1.5, 0.0, 1.5, 3.0], "arg": {"op": "state"}}]}


def _nonlinear_small_gain(noisy: bool):
    """The bundled loop with a table readout on the first member, and with
    noise in the first member's step if ``noisy``."""
    scenario = _bundled("small_gain_loop")
    scenario["fibers"] = 6
    contractive = scenario["experiment"]["contractive"]
    # the fixed point's grid segment holds no kink of the composed map, so
    # the tabulated map is exact there
    contractive.update(first_output=TABLE_READOUT, rate_band=[0.05, 0.95])
    if noisy:
        generator = contractive["first"]["generator"]
        generator["noise"] = {"law": "uniform", "lo": [-0.5], "hi": [0.5]}
        generator["components"][0]["args"].append({"op": "noise"})
    return scenario


def _reference_pullback(sys, w, s, tol):
    """The characteristic of one row, one step at a time from the fiber
    rewound by each depth 1, 2, 4, ... until a doubling moves it by at
    most ``tol``."""
    last, depth = None, 1
    while True:
        x = np.zeros(1)
        for k in range(depth):
            x = one_step(sys.generator, w.shift(-depth + k), x, [s])
        if last is not None and np.max(np.abs(x - last)) <= tol:
            return x
        last, depth = x, 2 * depth


def test_nonlinear_small_gain_loop_passes(tmp_path):
    scenario = _nonlinear_small_gain(noisy=False)
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(tmp_path / "out")])
    assert rc == EXIT_OK


@pytest.mark.parametrize("noisy", [False, True])
def test_nonlinear_small_gain_map_tabulates_the_pullback(noisy):
    scenario = _nonlinear_small_gain(noisy=False)
    con = cli.read_scenario(scenario)[2].contractive
    if noisy:
        # a scenario file refuses a noisy member, so this one is built directly
        first = _nonlinear_small_gain(noisy=True)["experiment"]["contractive"]["first"]
        con = SimpleNamespace(**{**vars(con), "first": cli.build_system(first, "first")})
    fibers = fiber_grid(6, seed=scenario["seed"])
    _, charmap = cli._gain_table(con, fibers)
    for g in np.linspace(-10.0, 10.0, 21).tolist():
        want = []
        for w in fibers:
            x1 = _reference_pullback(con.first, w, g, con.tol)
            x2 = _reference_pullback(con.second, w, one_readout(con.first_output, w, x1)[0],
                                     con.tol)
            want.append(one_readout(con.second_output, w, x2)[0])
        # on a grid point the map is its table entry
        assert charmap(np.full(len(fibers), g)).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("branch, field", [
    ("contractive", "first"), ("contractive", "second_output"),
    ("saturating", "second"), ("saturating", "first_output"),
])
def test_noisy_small_gain_member_exits_two_and_writes_nothing(tmp_path, capsys, branch, field):
    # the characteristic freezes the loop input per fiber, which a noisy
    # member's input is not
    scenario = _bundled("small_gain_loop")
    member = scenario["experiment"][branch][field]
    noise = {"law": "uniform", "lo": [-0.5], "hi": [0.5]}
    (member["generator"] if "generator" in member else member)["noise"] = noise
    out = tmp_path / "out"
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(out)])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    path = f"experiment.{branch}.{field}" + (".generator" if "generator" in member else "")
    assert f"{path}.noise: small-gain members must be noise-free" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name, rate, detail", [
    # exp(5 t) passes the envelopes' cap of 1e12 within the horizon of 30
    ("bracketing_sandwich", -5.0, "pullback of the process is unbounded on the sampled window"),
    # exp(1e308 t) is infinite past t = 1
    ("cics_convergence", -1.0e308, "non-finite sample at orbit offset -20"),
    # not an input: an envelope rate of 30 over 30 windows overflows exp,
    # so the decay envelope is infinite
    ("pullback_decay", 30.0, "non-finite sample at orbit offset -20"),
])
def test_growing_decaying_input_fails_with_a_report(tmp_path, capsys, name, rate, detail):
    scenario = _bundled(name)
    scenario["fibers"] = 3
    experiment = scenario["experiment"]
    (experiment["input"] if name == "bracketing_sandwich" else experiment)["rate"] = rate
    out = tmp_path / "out"
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(out)])
    assert rc == EXIT_ASSERTION
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"FAIL {name}:samples_bounded ({detail})" in captured.out
    report = json.loads((out / f"{name}.report.json").read_text())
    failed = [a for a in report["assertions"] if not a["passed"]]
    assert [(a["name"], a["detail"]) for a in failed] == [("samples_bounded", detail)]
    assert (out / f"{name}.trace.csv").exists()


def test_underflowing_tolerance_fails_the_characteristic_with_a_report(tmp_path, capsys):
    # tol * rate rounds to 0.0, so no truncation depth can be certified
    scenario = _bundled("linear_characteristic")
    scenario["fibers"] = 3
    scenario["experiment"]["tol"] = 5.0e-324
    scenario["experiment"]["system"]["decay_rate_hint"] = 0.4
    out = tmp_path / "out"
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(out)])
    assert rc == EXIT_ASSERTION
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads((out / "linear_characteristic.report.json").read_text())
    failed = [a for a in report["assertions"] if not a["passed"]]
    assert [a["name"] for a in failed] == ["characteristic_certified"]
    assert "underflows to zero" in failed[0]["detail"]


# each id names its case; the message is the reader's wording
@pytest.mark.parametrize("field, value, message", [
    pytest.param("state_dim", "x", "state_dim: expected an integer, got 'x'",
                 id="state_dim-x-state_dim: expected a positive integer, got 'x'"),
    pytest.param("state_dim", 0, "state_dim: must be at least 1, got 0",
                 id="state_dim-0-state_dim: expected a positive integer, got 0"),
    pytest.param("state_dim", True, "state_dim: expected an integer, got True",
                 id="state_dim-True-state_dim: expected a positive integer, got True"),
    pytest.param("input_dim", -1, "input_dim: must be at least 0, got -1",
                 id="input_dim--1-input_dim: expected a nonnegative integer, got -1"),
    pytest.param("input_dim", 0.5, "input_dim: expected an integer, got 0.5",
                 id="input_dim-0.5-input_dim: expected a nonnegative integer, got 0.5"),
])
def test_bad_generator_dimension_exits_two(tmp_path, capsys, field, value, message):
    scenario = json.loads(json.dumps(QUICK_AXIOMS))
    scenario["experiment"]["system"]["generator"][field] = value
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(tmp_path / "out")])
    assert rc == EXIT_INVALID
    assert capsys.readouterr().err == f"error: experiment.system.generator.{message}\n"
    assert not (tmp_path / "out").exists()


LINEAR = {"kind": "linear", "a": {"law": "constant", "values": [-1.0]},
          "b": {"law": "constant", "values": [1.0]}}


# the malformed inputs that once ended in a traceback or wrote outside --out
@pytest.mark.parametrize("name, mutate, message", [
    ("monotone_orders", _set("experiment", "systems", 0, "label", value="a,b"),
     "experiment.systems[0].label: expected a nonempty string"),
    ("linear_characteristic", _set("experiment", "input", value={"form": "constant", "values": ["x"]}),
     "experiment.input.values[0]: expected a finite number, got 'x'"),
    ("linear_characteristic", _set("experiment", "input", "values", value=[]),
     "experiment.input.values: expected a list"),
    ("linear_characteristic", _set("experiment", "input", "values", value=[1.0, 2.0]),
     "experiment.input: has dimension 2, expected 1"),
    ("determinism_rerun", _set("experiment", "target", value=["x"]),
     "experiment.target: unknown bundled scenario ['x']"),
    ("cascade_identities", _set("experiment", "upstream", value=LINEAR),
     "experiment.upstream: expected a discrete system"),
    ("feedback_loop", _set("experiment", "first", "generator", "input_dim", value=2),
     "experiment.second_output: has dimension 1, first takes 2"),
    ("cocycle_linear", _set("name", value="../escaped"), "name: expected a nonempty string"),
    ("cocycle_discrete", _set("experiment", "system", "generator", "state_dim", value="x"),
     "experiment.system.generator.state_dim: expected an integer, got 'x'"),
    ("linear_characteristic", _set("experiment", "system", "a", "lo", value=[float("nan")]),
     "experiment.system.a.lo[0]: expected a finite number, got nan"),
    # laws, expressions and generators are read by the same rules as every other
    # field: a boolean is no number, and an empty noise law is no law
    ("cocycle_discrete", _set("experiment", "system", "generator", "noise", value={}),
     "experiment.system.generator.noise: missing required field 'law'"),
    ("cocycle_discrete", _set("experiment", "system", "generator", "components", 0, "args", 0,
                              "factor", value=True),
     "experiment.system.generator.components[0].args[0].factor: expected a finite number, "
     "got True"),
    ("linear_characteristic", _set("experiment", "system", "a", "lo", value=[True]),
     "experiment.system.a.lo[0]: expected a finite number, got True"),
    # a count past the cap, which would ask for terabytes
    ("generator_round_trip", _set("experiment", "evals", value=10**12),
     "experiment.evals: must be at most 200000, got 1000000000000"),
])
def test_malformed_input_exits_two_and_writes_nothing(tmp_path, capsys, name, mutate, message):
    scenario = _bundled(name)
    mutate(scenario)
    runs = tmp_path / "runs"  # --out is runs/out, so ../ lands in runs
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(runs / "out")])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not runs.exists()


def _scale_every_factor(node, factor):
    """Set the factor of every ``scale`` op below ``node`` to ``factor``."""
    if isinstance(node, dict):
        if node.get("op") == "scale":
            node["factor"] = factor
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            _scale_every_factor(child, factor)


# scale factors of 1e300 overflow the states to infinities, whose
# differences are NaN; smaller counts than the bundled ones keep the runs short
@pytest.mark.parametrize("name, counts, nan_checks", [
    ("generator_round_trip", {"evals": 50}, ["flow_to_one_step_to_flow"]),
    ("cascade_identities", {"initial_states": 5, "shift_identity_samples": 20},
     ["serial_decomposition", "pullback_projection"]),
    ("feedback_loop", {"initial_states": 2, "axiom_samples": 20}, ["closed_loop_contract"]),
])
def test_nan_residual_fails_an_exact_identity(tmp_path, capsys, monkeypatch, name, counts,
                                             nan_checks):
    scenario = _bundled(name)
    _scale_every_factor(scenario["experiment"], 1e300)
    scenario["experiment"].update(counts)
    written = []
    write = cli.write_json_report

    def keep(path, report):
        written.append(report)
        write(path, report)

    monkeypatch.setattr(cli, "write_json_report", keep)
    with np.errstate(all="ignore"):
        rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(tmp_path / "out")])
    assert rc == EXIT_ASSERTION
    err = capsys.readouterr().err
    assert "holds a non-finite number" in err
    assert "Traceback" not in err
    values = {a.name: a for a in written[0].assertions}
    for check in nan_checks:
        assert not values[check].passed
        assert np.isnan(values[check].value)


@pytest.mark.parametrize("args, seed", [([], -1), (["--seed", "-1"], None)])
def test_negative_seed_exits_two_and_writes_nothing(tmp_path, capsys, args, seed):
    scenario = _bundled("generator_round_trip")
    if seed is not None:
        scenario["seed"] = seed
    out = tmp_path / "out"
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(out), *args])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert "seed: must be at least 0, got -1" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("lo, hi", [(10.0, -10.0), (10.0, 10.0)])
def test_reversed_small_gain_grid_exits_two_and_writes_nothing(tmp_path, capsys, lo, hi):
    scenario = _bundled("small_gain_loop")
    scenario["experiment"]["contractive"]["grid"].update(lo=lo, hi=hi)
    out = tmp_path / "out"
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(out)])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert "experiment.contractive.grid.hi: must exceed lo" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("step", [1e-300, 5e-324, 1e-3])
def test_decay_fit_grid_over_the_point_bound_exits_two_and_writes_nothing(tmp_path, capsys,
                                                                          step):
    scenario = _bundled("pullback_decay")
    scenario["experiment"]["fit_step"] = step
    out = tmp_path / "out"
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(out)])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert "experiment.fit_step: gives more than 10000 fit points" in err
    assert "Traceback" not in err
    assert not out.exists()


# sha256 of the trace CSV and report.json, at the bundled seed (None) and
# two more.  These scenarios use only IEEE basic operations and the
# SplitMix hash, so the bytes are the same on every platform.
GOLDEN = {
    ("cocycle_discrete", None): (
        "6aacb08e15493de37ae982eb645db057046c489092cff5f11bb0a06061fe9346",
        "5b50987b9f89d32ce99898a0fd472e91fc47639359312458ddbd13bbfeec6173"),
    ("cocycle_discrete", 7): (
        "6aacb08e15493de37ae982eb645db057046c489092cff5f11bb0a06061fe9346",
        "ad7645eb11895ad676d2a96b04b24e058b6f83a54c4e741043fc5b131dd84366"),
    ("cocycle_discrete", 31337): (
        "6aacb08e15493de37ae982eb645db057046c489092cff5f11bb0a06061fe9346",
        "b64a7eebacf2507dc6453fa82429989cd9ed83fd9addcf635381bbb83145cb12"),
    ("generator_round_trip", None): (
        "4d604004785305cf2d72c5b6a28d94d9663c8ad9bf1dfbac39326fa06b12aea7",
        "7e00599935572a2543ebea6ed1208cb51816766f766b93a46704b27591ee9762"),
    ("generator_round_trip", 7): (
        "4d604004785305cf2d72c5b6a28d94d9663c8ad9bf1dfbac39326fa06b12aea7",
        "47ce186932946e918410a08000e8b6b5ff79f8fdfdff562e56a6a84d753d9989"),
    ("generator_round_trip", 31337): (
        "4d604004785305cf2d72c5b6a28d94d9663c8ad9bf1dfbac39326fa06b12aea7",
        "b55cb41d9978b8a7020e6295bae3c26c94ee8cce12b92c3e481a15a03cd2d8ff"),
}


@pytest.mark.parametrize("name, seed", sorted(GOLDEN, key=str))
def test_platform_stable_scenarios_write_their_recorded_bytes(tmp_path, name, seed):
    out = tmp_path / "out"
    args = ["run", name, "--out", str(out)] + ([] if seed is None else ["--seed", str(seed)])
    assert cli.main(args) == EXIT_OK
    digests = tuple(hashlib.sha256((out / f"{name}.{suffix}").read_bytes()).hexdigest()
                    for suffix in ("trace.csv", "report.json"))
    assert digests == GOLDEN[name, seed]


@pytest.mark.parametrize("name, key, value", [
    ("cocycle_discrete", "max_time", 1e30),
    ("cocycle_linear", "max_time", 1000.5),
    ("monotone_orders", "max_time", 1e30),
    ("generator_round_trip", "horizon", 10**12),
    ("generator_round_trip", "horizon", 1001),
    ("cascade_identities", "horizon", 1001),
    ("feedback_loop", "horizon", 1001),
    ("bracketing_sandwich", "horizon", 1000.5),
    ("bracketing_sandwich", "horizon", 1e30),
    ("small_gain_loop", "contractive.closed_horizon", 10**12),
    ("small_gain_loop", "contractive.closed_horizon", 1001),
    ("small_gain_loop", "contractive.grid.points", 10**9),
    ("small_gain_loop", "saturating.grid.points", 10_001),
    ("pullback_limit_equilibrium", "horizon", 1e12),
    ("linear_characteristic", "horizon", 1e12),
    ("pullback_decay", "fit_to", 1e9),
    ("pullback_decay", "bound_horizon", 10**9),
])
def test_sampled_time_over_the_cap_exits_two_and_writes_nothing(tmp_path, capsys, name, key,
                                                                 value):
    # a drawn tuple would step, integrate and read its input over that many
    # cells: 1e30 ends in an rng bound error or a solve that does not end;
    # a small-gain grid of 10**9 points would tabulate 10**9 rows per fiber
    scenario = _bundled(name)
    _set("experiment", *key.split("."), value=value)(scenario)
    out = tmp_path / "out"
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(out)])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"experiment.{key}: must be at most {_cap(key)}, got" in err
    assert "Traceback" not in err
    assert not out.exists()


def _cap(key: str) -> int:
    """The largest value of a capped field: grid points, or a sampled time."""
    return 10_000 if key.endswith("points") else 1000


@pytest.mark.parametrize("name, key", [("cocycle_discrete", "max_time"),
                                       ("monotone_orders", "max_time"),
                                       ("generator_round_trip", "horizon"),
                                       ("cascade_identities", "horizon"),
                                       ("feedback_loop", "horizon"),
                                       ("bracketing_sandwich", "horizon"),
                                       ("small_gain_loop", "contractive.closed_horizon"),
                                       ("small_gain_loop", "saturating.grid.points"),
                                       ("pullback_limit_equilibrium", "horizon"),
                                       ("linear_characteristic", "horizon"),
                                       ("pullback_decay", "fit_to"),
                                       ("pullback_decay", "bound_horizon")])
def test_sampled_time_at_the_cap_is_read(name, key):
    scenario = _bundled(name)
    _set("experiment", *key.split("."), value=_cap(key))(scenario)
    _, _, fields = cli.read_scenario(scenario)
    for part in key.split("."):
        fields = getattr(fields, part)
    assert fields == _cap(key)


@pytest.mark.parametrize("fit_to, accepted", [(624.9375, True), (625.0, False)])
def test_decay_fit_grid_bound_counts_the_points_of_the_grid(fit_to, accepted):
    # 0, 0.0625, ..., 624.9375 (10,000 points) is the largest grid allowed
    scenario = _bundled("pullback_decay")
    scenario["experiment"].update(fit_from=0.0, fit_to=fit_to, fit_step=0.0625)
    if accepted:
        cli.read_scenario(scenario)
    else:
        with pytest.raises(cli.ScenarioError, match="more than 10000 fit points"):
            cli.read_scenario(scenario)


def test_decay_fit_grid_ends_at_fit_to(tmp_path):
    # a step that does not divide fit_to - fit_from reads no time past fit_to
    scenario = _bundled("pullback_decay")
    scenario["experiment"]["fit_step"] = 0.25
    scenario["fibers"] = 3
    out = tmp_path / "out"
    assert cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(out)]) == EXIT_OK
    rows = [row.split(",") for row in (out / "pullback_decay.trace.csv").read_text().splitlines()
            if row.count(",") == 4]
    times = {float(t) for _, t, series, _, _ in rows[1:] if series == "pullback_residual"}
    assert sorted(times) == [5.0 + 0.25 * k for k in range(141)]


DISCRETE_EQUILIBRIUM = {"name": "discrete_equilibrium", "seed": 3, "fibers": 5, "experiment": {
    "kind": "equilibrium",
    "system": {"kind": "discrete", "generator": {"state_dim": 1, "input_dim": 1, "components": [
        {"op": "add", "args": [{"op": "scale", "factor": 0.9, "arg": {"op": "state", "index": 0}},
                               {"op": "input", "index": 0}]}]}},
    "input": {"form": "constant", "values": [1.0]}, "tol": 1e-9}}


@pytest.mark.parametrize("horizon, message", [(1, "must be at least 2, got 1"),
                                              (0.5, "expected an integer, got 0.5"),
                                              (2.5, "expected an integer, got 2.5")])
def test_discrete_equilibrium_horizon_below_two_exits_two(tmp_path, capsys, horizon, message):
    # one step of horizon leaves one time in the pullback tail, whose
    # Cauchy gap is then 0 however far the pullback still moves
    scenario = copy.deepcopy(DISCRETE_EQUILIBRIUM)
    scenario["experiment"]["horizon"] = horizon
    out = tmp_path / "out"
    assert cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(out)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"experiment.horizon: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_discrete_equilibrium_at_horizon_two_judges_its_tail(tmp_path):
    # x -> 0.9 x + 1 from 0: the pullback moves from 1.0 to 1.9 on its tail
    scenario = copy.deepcopy(DISCRETE_EQUILIBRIUM)
    scenario["experiment"]["horizon"] = 2
    out = tmp_path / "out"
    assert cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(out)]) == EXIT_ASSERTION
    report = json.loads((out / "discrete_equilibrium.report.json").read_text())
    converged = next(a for a in report["assertions"] if a["name"] == "pullback_estimate_converged")
    assert not converged["passed"] and converged["value"] == pytest.approx(0.9)


@pytest.mark.parametrize("name", ["", ".", "..", "a/b", "a\\b", "a,b", "a\nb", 5])
def test_name_rule(tmp_path, capsys, name):
    scenario = dict(QUICK_AXIOMS, name=name)
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(tmp_path / "out")])
    assert rc == EXIT_INVALID
    assert "name: expected a nonempty string" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, mutate, library_call", [
    ("linear_characteristic", _set("experiment", "constant_case", "a", value=0.5),
     "rdsio.rdsi.estimate_characteristic"),
    ("small_gain_loop", _set("experiment", "saturating", "max_iters", value=1),
     "rdsio.compose.small_gain_iterate"),
    ("small_gain_loop", _set("experiment", "saturating", "first", "generator", "input_dim",
                             value=2),
     "rdsio.compose.small_gain_iterate"),
])
def test_every_field_is_read_before_the_runner_starts(tmp_path, monkeypatch, name, mutate,
                                                     library_call):
    def refuse(*args, **kwargs):
        raise AssertionError("the runner started on a malformed scenario")

    monkeypatch.setattr(library_call, refuse)
    scenario = _bundled(name)
    mutate(scenario)
    with pytest.raises(cli.ScenarioError):
        run_scenario_file(_write(tmp_path, scenario), out_dir=tmp_path / "out")


STEP = {"kind": "discrete",
        "generator": {"state_dim": 1, "input_dim": 1, "components": [{"op": "input"}]}}
AUTONOMOUS = {"kind": "discrete", "generator": {"state_dim": 1, "components": [{"op": "state"}]}}
READOUT = {"components": [{"op": "state"}]}
HALF = {"kind": "discrete", "generator": {"state_dim": 1, "input_dim": 1, "components": [
    {"op": "add", "args": [{"op": "scale", "factor": 0.5, "arg": {"op": "state"}}, {"op": "input"}]}]}}
LOOP = {"first": HALF, "second": HALF, "first_output": READOUT, "second_output": READOUT,
        "grid": {"lo": -1.0, "hi": 1.0}}

# kind -> (its required fields, every other field's default as the runners
# read it before the schema tables, the probe fibers' offset or None)
DEFAULTS = {
    "axioms": ({"system": STEP}, {
        "fault": None, "tolerance": None, "samples": 500, "max_time": 15.0}, None),
    "roundtrip": ({"system": STEP}, {"evals": 500, "horizon": 50}, None),
    "equilibrium": ({"system": LINEAR, "input": 1.0}, {
        "initial": [0.0], "horizon": 40.0, "tol": 1e-9, "explicit_candidate": None,
        "explicit_tol": 1e-12}, 0.25),
    "characteristic": ({"system": LINEAR, "input": 1.0}, {
        "initial": [0.0], "horizon": 40.0, "tol": 1e-8, "agreement_tol": 1e-6,
        "constant_case": None}, 0.25),
    "decay": ({"system": LINEAR, "input": 1.0}, {
        "initial": [0.0], "fit_from": 5.0, "fit_to": 40.0, "fit_step": 2.5, "fraction": 0.95,
        "rate": None, "fit_floor": 1e-10, "bound_horizon": 30}, 0.25),
    "monotone": ({"systems": [STEP]}, {"samples": 10_000, "max_time": 8.0}, None),
    "bracketing": ({"input": 1.0}, {
        "time_kind": "continuous", "taus": [0.0, 2.0, 5.0], "horizon": 30.0}, 0.25),
    "cics": ({"system": LINEAR, "limit": 1.0, "disturbance": 1.0, "initial_states": [0.0]}, {
        "rate": 1.0, "schedule": [5.0, 10.0, 20.0, 30.0, 40.0], "tol": 1e-4,
        "oracle_tol": 1e-9, "monotone_samples": 300}, 0.25),
    "cascade": ({"upstream": AUTONOMOUS, "output": READOUT, "downstream": STEP}, {
        "horizon": 40, "time_step": 4, "initial_states": 200, "probe_fibers": 3,
        "shift_identity_samples": 200}, 0),
    "feedback": ({"first": STEP, "second": STEP, "first_output": READOUT,
                  "second_output": READOUT}, {
        "horizon": 40, "time_step": 4, "initial_states": 50, "axiom_samples": 100}, 0),
    "small-gain": ({"contractive": LOOP, "saturating": LOOP}, {}, 0),
    "determinism": ({"target": "bracketing_sandwich"}, {}, None),
}


def _plain(value):
    """Read values as plain data: a random variable by its value on one fiber."""
    if isinstance(value, RandomVariable):
        return value.across(batch([Fiber(3, 0.5)]))[0].tolist()
    if isinstance(value, SimpleNamespace):
        return {key: _plain(v) for key, v in vars(value).items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@pytest.mark.parametrize("kind", sorted(DEFAULTS))
def test_omitted_fields_read_as_the_former_defaults(kind):
    required, defaults, offset = DEFAULTS[kind]
    got_kind, top, p = cli.read_scenario({"experiment": {"kind": kind, **required}})
    assert got_kind == kind
    assert (top.seed, top.fibers, top.fiber_offset) == (0, 100, offset)
    assert type(top.fiber_offset) is type(offset)
    for field, want in defaults.items():
        # repr tells an int from a float
        assert repr(_plain(getattr(p, field))) == repr(want), field


def test_nested_fields_read_as_the_former_defaults():
    w = Fiber(3, 0.5)
    _, _, p = cli.read_scenario({"experiment": {"kind": "small-gain", "contractive": LOOP,
                                                "saturating": LOOP}})
    con, sat = p.contractive, p.saturating
    assert repr(_plain(con.grid)) == repr({"lo": -1.0, "hi": 1.0, "points": 201})
    assert (con.max_iters, con.tol, con.closed_horizon, con.closed_tol) == (80, 1e-10, 60, 1e-4)
    assert (_plain(con.seed_input), con.rate_band) == ([0.0], (0.4, 0.6))
    assert (sat.max_iters, sat.tol, _plain(sat.seed_input)) == (120, 1e-10, [3.0])
    # no noise: the limit of x -> x / 2 + s is 2 s, to the depth that tol certifies
    assert compose.characteristic(con.first, batch([w]), [[1.0]],
                                  con.tol)[0, 0] == pytest.approx(2.0, abs=1e-10)
    assert one_readout(con.first_output, w, [1e6]).tolist() == [1e6]

    law = {"law": "uniform", "lo": [0.0], "hi": [1.0]}
    _, _, p = cli.read_scenario({"experiment": {
        "kind": "bracketing",
        "input": {"form": "decaying", "limit": {"form": "cell", "law": law}, "disturbance": 1.0},
    }})
    limit = cell_noise(CellLaw("uniform", lo=(0.0,), hi=(1.0,)), lag=0)
    # rate 1 and lag 0
    assert p.input(2.0, w).tolist() == (limit.across(batch([w.shift(2.0)]))[0]
                                        + np.exp(-2.0)).tolist()

    scenario = _bundled("linear_characteristic")
    del scenario["experiment"]["constant_case"]["tol"]
    assert cli.read_scenario(scenario)[2].constant_case.tol == 1e-9
    scenario = _bundled("monotone_orders")
    del scenario["experiment"]["systems"][0]["label"]
    assert cli.read_scenario(scenario)[2].systems[0][0] == "system_0"


BUNDLED_DIR = Path(cli.__file__).parent / "scenarios"
BUNDLED = {p.stem: yaml.safe_load(p.read_text(encoding="utf-8"))
           for p in sorted(BUNDLED_DIR.glob("*.yaml"))}
NASTY = [0, -1, 1e308, float("nan"), "x", [], {"x": 0}]


def _key_paths(node, prefix=()):
    """Every key path into a parsed scenario: mapping keys and list indices."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


@st.composite
def mutated_scenarios(draw):
    """A bundled scenario after one to three mutations at any key path:
    the key dropped, or its value replaced by a nasty one or by a list of
    the wrong length."""
    cfg = copy.deepcopy(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_key_paths(cfg))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        target = cfg
        for parent in parents:
            target = target[parent]
        old = target[key]
        mutation = draw(st.sampled_from(["drop", "wrong length", *NASTY]))
        if mutation == "drop":
            del target[key]
        elif mutation == "wrong length":
            target[key] = old + old[:1] if isinstance(old, list) and old else [old, old]
        else:
            target[key] = copy.deepcopy(mutation)
    return cfg


def test_bundled_scenarios_pass_the_reading_pass():
    assert len(BUNDLED) == 13
    for name, cfg in BUNDLED.items():
        assert cli.read_scenario(cfg)[0] == cfg["experiment"]["kind"], name


def _misspell(name, *keys):
    """Bundled scenario ``name`` with the field at ``keys`` renamed with a
    trailing ``x``, or, where the mapping has no such field, set to 3."""
    scenario = _bundled(name)
    node = scenario
    for key in keys[:-1]:
        node = node[key]
    if keys[-1] in node:
        node[f"{keys[-1]}x"] = node.pop(keys[-1])
    else:
        node[keys[-1]] = 3
    return scenario


@pytest.mark.parametrize("name, keys, path", [
    ("linear_characteristic", ("seed",), "seedx"),
    ("linear_characteristic", ("experiment", "horizon"), "experiment.horizonx"),
    # a tagged mapping, a system, a table mapping and a generator
    ("linear_characteristic", ("experiment", "input", "values"), "experiment.input.valuesx"),
    ("linear_characteristic", ("experiment", "system", "decay_rate_hint"),
     "experiment.system.decay_rate_hintx"),
    ("linear_characteristic", ("experiment", "constant_case", "tol"),
     "experiment.constant_case.tolx"),
    ("cascade_identities", ("experiment", "upstream", "generator", "input_dim"),
     "experiment.upstream.generator.input_dimx"),
    # a label is a field of a monotone system entry only
    ("monotone_orders", ("experiment", "systems", 0, "label"), "experiment.systems[0].labelx"),
    # a cell law and an expression node
    ("pullback_limit_equilibrium", ("experiment", "initial", "law", "lo"),
     "experiment.initial.law.lox"),
    ("cascade_identities",
     ("experiment", "upstream", "generator", "components", 0, "args", 0, "arg", "index"),
     "experiment.upstream.generator.components[0].args[0].arg.indexx"),
    # a linear coefficient is a law itself: a lag there sits beside its bounds
    ("linear_characteristic", ("experiment", "system", "a", "lag"), "experiment.system.a.lag"),
])
def test_unknown_field_exits_two_and_writes_nothing(tmp_path, capsys, name, keys, path):
    scenario = _misspell(name, *keys)
    out = tmp_path / "out"
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(out)])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert err == f"error: {path}: unknown field\n"
    assert not out.exists()


@pytest.mark.parametrize("keys, field, path", [
    # a lag belongs beside a cell input's law, not in it
    (("experiment", "initial", "law"), "lag", "experiment.initial.law.lag"),
    # an index misspelled on a state leaf would read state 0
    (("experiment", "upstream", "generator", "components", 0, "args", 0, "arg"), "indx",
     "experiment.upstream.generator.components[0].args[0].arg.indx"),
])
def test_a_law_or_expression_field_nothing_reads_exits_two(tmp_path, capsys, keys, field,
                                                           path):
    scenario = _bundled("cascade_identities" if "upstream" in keys
                        else "pullback_limit_equilibrium")
    node = scenario
    for key in keys:
        node = node[key]
    node[field] = 1
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(tmp_path / "out")])
    assert rc == EXIT_INVALID
    assert capsys.readouterr().err == f"error: {path}: unknown field\n"


@pytest.mark.parametrize("name, mutate, code, stderr, stdout", [
    # a lag past the schema's bound, which would overflow the cell index
    pytest.param("cics_convergence", _set("experiment", "disturbance", "lag", value=10**20),
                 EXIT_INVALID, "error: experiment.disturbance.lag: must be at most 1000, "
                 "got 100000000000000000000\n", "", id="lag"),
    # an input dimension past the schema's bound, whose drawn input tables
    # would not fit in memory
    pytest.param("generator_round_trip",
                 _set("experiment", "system", "generator", "input_dim", value=10**20),
                 EXIT_INVALID, "error: experiment.system.generator.input_dim: must be at most "
                 "32, got 100000000000000000000\n", "", id="input_dim"),
    # a drift law whose flow leaves the float range: a failed check of that
    # system, and the other system still checked, in the report
    pytest.param("monotone_orders", _set("experiment", "systems", 0, "a", "hi", value=[1.0e20]),
                 EXIT_ASSERTION, "", "FAIL monotone_orders:samples_bounded_linear_nonneg_gain "
                 "(linear flow produced a non-finite value)\nPASS monotone_orders:"
                 "order_preserved_affine_step (value=0, bound=0, worst margin "
                 "0.1007342847093568)\nCHECKS FAILED [monotone_orders]\n",
                 id="non_finite_flow"),
])
def test_a_run_time_fault_exits_with_one_line_or_a_failed_check(tmp_path, capsys, name, mutate,
                                                                 code, stderr, stdout):
    scenario = _bundled(name)
    mutate(scenario)
    out = tmp_path / "out"
    rc = cli.main(["run", str(_write(tmp_path, scenario)), "--out", str(out)])
    captured = capsys.readouterr()
    assert (rc, captured.err, captured.out) == (code, stderr, stdout)
    if code == EXIT_INVALID:
        assert not out.exists()
    else:
        report = json.loads((out / f"{name}.report.json").read_text(encoding="utf-8"))
        # the report holds the printed checks
        assert [f"{'PASS' if a['passed'] else 'FAIL'} {name}:{a['name']}"
                for a in report["assertions"]] == [
            line.split(" (")[0] for line in stdout.splitlines()[:-1]]


def test_a_label_outside_a_monotone_entry_is_an_unknown_field():
    scenario = _bundled("linear_characteristic")
    scenario["experiment"]["system"]["label"] = "first"
    with pytest.raises(cli.ScenarioError, match=r"^experiment\.system\.label: unknown field$"):
        cli.read_scenario(scenario)


def test_benchmark_scenarios_hold_only_known_fields():
    # the harness's scenario files pass the same reading pass as the
    # bundled ones; tiny_raises is refused on purpose, for its system kind
    paths = sorted((PYPROJECT.parent / "perfbench" / "scenarios").glob("*.yaml"))
    assert paths
    for path in paths:
        try:
            cli.read_scenario(load_scenario(path))
        except cli.ScenarioError as exc:
            assert (path.stem, str(exc)) == (
                "tiny_raises", "experiment.system: expected a discrete system")


@settings(max_examples=300, deadline=None)
@given(cfg=mutated_scenarios())
def test_reading_pass_returns_or_raises_scenario_error(cfg):
    # the pass samples nothing, so this never runs a scenario
    try:
        cli.read_scenario(cfg)
    except cli.ScenarioError:
        pass


# one value of each kind that a field may not expect; "scale" (by 10^6) and
# "negate" act on the number already there
RUN_MUTATIONS = [10**20, "scale", math.nan, math.inf, -math.inf, 1e300, 1e-300, "negate", 0,
                 "x", True, None, [1, 2], {}]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _run_mutations(count: int, seed: int):
    """``count`` seeded single mutations of the bundled scenarios that run
    one scenario each (all but determinism_rerun): a scenario, a mutation
    and a key path drawn in turn, the path holding a number for ``scale``
    and ``negate``.  Yields the path and the mutated scenario."""
    rng = random.Random(seed)
    names = sorted(name for name in BUNDLED if name != "determinism_rerun")
    for _ in range(count):
        cfg = copy.deepcopy(BUNDLED[rng.choice(names)])
        mutation = rng.choice(RUN_MUTATIONS)
        arithmetic = mutation in ("scale", "negate")
        paths = []
        for path in _key_paths(cfg):
            target = cfg
            for key in path[:-1]:
                target = target[key]
            if not arithmetic or _is_number(target[path[-1]]):
                paths.append((target, path))
        target, path = rng.choice(paths)
        old = target[path[-1]]
        if mutation == "scale":
            target[path[-1]] = old * 10**6
        elif mutation == "negate":
            target[path[-1]] = -abs(old) or -1
        else:
            target[path[-1]] = copy.deepcopy(mutation)
        yield path, cfg


def test_every_mutated_run_ends_in_an_exit_code(tmp_path, capsys):
    # whatever the reading pass accepts runs to one of the four exit codes,
    # with no escaped exception and no traceback; the fixed case was once an
    # escaped numpy error
    fixed = _bundled("generator_round_trip")
    _set("experiment", "system", "generator", "input_dim", value=10**20)(fixed)
    cases = [(("experiment", "system", "generator", "input_dim"), fixed),
             *_run_mutations(300, seed=0)]
    faults = []
    for path, cfg in cases:
        scenario = _write(tmp_path, cfg)
        try:
            rc = cli.main(["run", str(scenario), "--out", str(tmp_path / "out")])
        except Exception as exc:  # an escape: record it and go on
            faults.append((cfg.get("name"), path, repr(exc)))
            continue
        err = capsys.readouterr().err
        if rc not in (EXIT_OK, EXIT_ASSERTION, EXIT_INVALID, EXIT_IO) or "Traceback" in err:
            faults.append((cfg.get("name"), path, rc, err))
    assert faults == []
