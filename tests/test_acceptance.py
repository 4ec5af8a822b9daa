"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test drives the public surface (bundled scenarios through the runner,
or library calls where a runtime bound applies) and prints a PASS line;
run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import time

import numpy as np
import pytest

from rdsio.cli import run_scenario_file, scenario_catalog
from rdsio.reports import RunReport


def _run(name, tmp_path, **overrides) -> RunReport:
    return run_scenario_file(scenario_catalog()[name][0], out_dir=tmp_path, **overrides)


def _assertion(report: RunReport, name: str):
    match = [a for a in report.assertions if a.name == name]
    assert match, f"assertion {name!r} missing from {report.scenario}"
    return match[0]


def test_c01_splice_consistency_discrete_exact_and_linear_1e9(tmp_path):
    t0 = time.monotonic()
    disc = _run("cocycle_discrete", tmp_path)
    lin = _run("cocycle_linear", tmp_path)
    elapsed = time.monotonic() - t0

    a = _assertion(disc, "splice_consistency")
    assert a.passed and a.value == 0.0
    assert _assertion(disc, "time_zero_identity").value == 0.0
    assert _assertion(disc, "input_locality").value == 0.0
    b = _assertion(lin, "splice_consistency")
    assert b.passed and b.value <= 1e-9
    assert elapsed <= 10.0
    print(f"\nACCEPTANCE 01 splice consistency: PASS "
          f"(discrete exact, linear {b.value:.2e} <= 1e-9, {elapsed:.1f}s)")


def test_c02_generator_round_trips_exact(tmp_path):
    t0 = time.monotonic()
    rep = _run("generator_round_trip", tmp_path)
    elapsed = time.monotonic() - t0
    assert _assertion(rep, "flow_to_one_step_to_flow").value == 0.0
    assert _assertion(rep, "one_step_to_flow_to_one_step").value == 0.0
    assert rep.all_passed
    assert elapsed <= 5.0
    print(f"\nACCEPTANCE 02 generator round trips: PASS (exact, {elapsed:.1f}s)")


def test_c03_cascade_identities_exact(tmp_path):
    rep = _run("cascade_identities", tmp_path)
    assert _assertion(rep, "serial_decomposition").value == 0.0
    assert _assertion(rep, "pullback_projection").value == 0.0
    assert _assertion(rep, "shifted_start_output_identity").value == 0.0
    print("\nACCEPTANCE 03 cascade identities: PASS (exact, 200 states, n<=40)")


def test_c04_pullback_limit_is_an_equilibrium(tmp_path):
    rep = _run("pullback_limit_equilibrium", tmp_path)
    conv = _assertion(rep, "pullback_estimate_converged")
    eq = _assertion(rep, "limit_is_equilibrium")
    assert conv.passed
    assert eq.passed and eq.value <= 10.0 * 1e-9
    assert rep.fibers == 100
    print(f"\nACCEPTANCE 04 pullback limit is equilibrium: PASS "
          f"(residual {eq.value:.2e} <= 1e-8, 100 fibers)")


def test_c05_characteristic_route_agreement(tmp_path):
    rep = _run("linear_characteristic", tmp_path)
    agree = _assertion(rep, "route_agreement")
    const = _assertion(rep, "constant_coefficients_exact")
    assert agree.passed and agree.value <= 1e-6
    assert const.passed and const.value <= 1e-9
    assert rep.fibers == 100
    print(f"\nACCEPTANCE 05 characteristic agreement: PASS "
          f"(max gap {agree.value:.2e} <= 1e-6; constant case {const.value:.2e} <= 1e-9)")


def test_c06_exponential_pullback_decay(tmp_path):
    rep = _run("pullback_decay", tmp_path)
    frac = _assertion(rep, "exponential_pullback_decay")
    assert frac.passed and frac.value >= 0.95
    print(f"\nACCEPTANCE 06 exponential pullback decay: PASS "
          f"(fast-decay fraction {frac.value:.2f} >= 0.95)")


def test_c07_monotonicity_zero_violations(tmp_path):
    rep = _run("monotone_orders", tmp_path)
    lin = _assertion(rep, "order_preserved_linear_nonneg_gain")
    step = _assertion(rep, "order_preserved_affine_step")
    assert lin.passed and lin.value == 0.0
    assert step.passed and step.value == 0.0
    assert rep.metrics["monotone_linear_nonneg_gain"]["samples"] == 10_000
    assert rep.metrics["monotone_affine_step"]["samples"] == 10_000
    print("\nACCEPTANCE 07 monotonicity: PASS (0 violations / 10000 pairs, both systems)")


def test_c08_converging_input_converging_state(tmp_path):
    rep = _run("cics_convergence", tmp_path)
    conv = _assertion(rep, "pullback_converges_to_limit_characteristic")
    assert _assertion(rep, "monotone_precondition").passed
    assert conv.passed and conv.value <= 1e-4
    assert rep.fibers == 100
    # all three initial states (including the unbounded tempered one) ran
    series = {name for name, *_ in rep.series}
    assert {"residual_x0", "residual_x1", "residual_x2"} <= series
    print(f"\nACCEPTANCE 08 converging input, converging state: PASS "
          f"(worst residual {conv.value:.2e} <= 1e-4 at t=40, 100 fibers, 3 initial states)")


def test_c09_bracketing_sandwich(tmp_path):
    rep = _run("bracketing_sandwich", tmp_path)
    sandwich = _assertion(rep, "sandwich")
    mono = _assertion(rep, "envelopes_monotone_in_tau")
    assert sandwich.passed and sandwich.value <= 0.0
    assert mono.passed and mono.value <= 0.0
    print("\nACCEPTANCE 09 bracketing sandwich: PASS (exact on the grid, monotone in tau)")


def test_c10_small_gain(tmp_path):
    rep = _run("small_gain_loop", tmp_path)
    rate = _assertion(rep, "geometric_rate_in_band")
    closed = _assertion(rep, "closed_loop_reaches_equilibrium_pair")
    p2 = _assertion(rep, "period_two_detected")
    assert _assertion(rep, "iteration_converged").passed
    assert rate.passed and 0.4 <= rate.value <= 0.6
    assert closed.passed and closed.value <= 1e-4
    assert p2.passed
    assert rep.fibers == 100
    print(f"\nACCEPTANCE 10 small gain: PASS (rate {rate.value:.3f} in [0.4,0.6]; "
          f"closed-loop gap {closed.value:.2e} <= 1e-4 at n=60; period-2 detected)")


def test_c11_determinism_byte_identical(tmp_path):
    rep = _run("determinism_rerun", tmp_path)
    assert _assertion(rep, "byte_identical_traces").passed

    # directly re-run two more bundled scenarios and compare bytes
    for name in ("linear_characteristic", "cocycle_discrete"):
        run_scenario_file(scenario_catalog()[name][0], out_dir=tmp_path / "x")
        run_scenario_file(scenario_catalog()[name][0], out_dir=tmp_path / "y")
        a = (tmp_path / "x" / f"{name}.trace.csv").read_bytes()
        b = (tmp_path / "y" / f"{name}.trace.csv").read_bytes()
        assert a == b
    print("\nACCEPTANCE 11 determinism: PASS (byte-identical traces on re-run)")
