"""Scenario runner: declarative configs in, reports and CSV traces out.

A scenario is a single YAML file that fully determines a run; identical
scenario plus identical build yields byte-identical trace CSV.  Exit
codes: 0 all assertions passed, 1 an assertion failed, 2 the file did not
parse or validate, 3 an I/O failure while writing artifacts.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np
import yaml

from importlib import resources

from . import compose, discrete, linear, monotone, rdsi
from .exprs import ExprError, compile_expr, compile_generator, law_from_spec
from .mpds import (
    CellLaw,
    Fiber,
    RandomVariable,
    cell_noise,
    constant_rv,
    fiber_grid,
)
from .process import TIME_KINDS, Process, constant, decaying_input, stationary
from .rdsi import OutputMap, SystemFlow
from .reports import (
    NonFiniteReportError,
    RunReport,
    fit_log_slope,
    report_json,
    write_json_report,
    write_trace_csv,
)

__all__ = ["main", "run_scenario_file", "load_scenario", "scenario_catalog"]

OUT_DIR_ENV = "RDSIO_OUT_DIR"
SCENARIO_DIR_ENV = "RDSIO_SCENARIO_DIR"

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INVALID = 2
EXIT_IO = 3


class ScenarioError(ValueError):
    """Scenario failed validation; message carries the config path."""


def _field(spec: Mapping, key: str, path: str, default=None, required: bool = False):
    if key in spec:
        return spec[key]
    if required:
        raise ScenarioError(f"{path}: missing required field {key!r}")
    return default


def _number(raw, where: str, integral: bool, minimum=None, positive: bool = False):
    """``raw`` checked as an integer or a finite real, then range-checked."""
    if integral:
        ok = isinstance(raw, int) or (isinstance(raw, float) and raw.is_integer())
    else:
        # YAML reads a number with an exponent but no dot (1e-9) as a string
        if isinstance(raw, str):
            try:
                raw = float(raw)
            except ValueError:
                pass
        ok = isinstance(raw, (int, float)) and math.isfinite(raw)
    if isinstance(raw, bool) or not ok:
        kind = "an integer" if integral else "a finite number"
        raise ScenarioError(f"{where}: expected {kind}, got {raw!r}")
    if minimum is not None and raw < minimum:
        raise ScenarioError(f"{where}: must be at least {minimum}, got {raw!r}")
    if positive and raw <= 0:
        raise ScenarioError(f"{where}: must be positive, got {raw!r}")
    return int(raw) if integral else float(raw)


def _int_field(spec: Mapping, key: str, path: str, default: int,
               minimum: int | None = None) -> int:
    """Integer field ``key`` of ``spec``, at least ``minimum``; ``path`` is
    empty for top-level fields."""
    where = f"{path}.{key}" if path else key
    return _number(spec.get(key, default), where, True, minimum)


def _float_field(spec: Mapping, key: str, path: str, default: float,
                 minimum: float | None = None, positive: bool = False) -> float:
    """Finite real field ``key`` of ``spec``, at least ``minimum`` and, if
    ``positive``, above zero."""
    where = f"{path}.{key}" if path else key
    return _number(spec.get(key, default), where, False, minimum, positive)


def _number_pair(raw, where: str) -> tuple[float, float]:
    """``raw`` checked as a list of two finite reals ``[lo, hi]``, lo <= hi."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ScenarioError(f"{where}: expected a list of two numbers, got {raw!r}")
    lo, hi = (_number(v, f"{where}[{i}]", False) for i, v in enumerate(raw))
    if lo > hi:
        raise ScenarioError(f"{where}: lower end {lo!r} exceeds upper end {hi!r}")
    return lo, hi


# --------------------------------------------------------------------------
# builders from scenario mappings


def build_rv(spec: Any, path: str) -> RandomVariable:
    """Random-variable forms: constant, cell, reciprocal (unbounded, tempered)."""
    if isinstance(spec, (int, float)):
        return constant_rv([float(spec)])
    if not isinstance(spec, Mapping):
        raise ScenarioError(f"{path}: expected a mapping or number")
    form = _field(spec, "form", path, required=True)
    if form == "constant":
        values = _field(spec, "values", path, required=True)
        if isinstance(values, (int, float)):
            values = [values]
        return constant_rv([float(v) for v in values])
    if form not in ("cell", "reciprocal"):
        raise ScenarioError(f"{path}: unknown random-variable form {form!r}")
    try:
        law = law_from_spec(_field(spec, "law", path, required=True), f"{path}.law")
    except ExprError as exc:
        raise ScenarioError(str(exc)) from exc
    base = cell_noise(law, lag=_int_field(spec, "lag", path, 0))
    if form == "cell":
        return base
    # 1 / (cell + shift): unbounded on its box yet subexponential along
    # orbits, the stock example of a tempered-but-unbounded state.  A
    # support touching -shift at the boundary is allowed: the boundary
    # draw has probability zero.
    _field(spec, "shift", path, required=True)
    shift = _float_field(spec, "shift", path, 0.0)
    lo, hi = law.bounds()
    if np.any((lo + shift < 0) & (hi + shift > 0)):
        raise ScenarioError(f"{path}: reciprocal law support crosses -shift")
    return RandomVariable(law.dim, lambda w: 1.0 / (base(w) + shift), label="reciprocal")


def build_input_process(spec: Any, path: str, time_kind: str) -> Process:
    if isinstance(spec, (int, float)):
        return constant([float(spec)], time_kind)
    if not isinstance(spec, Mapping):
        raise ScenarioError(f"{path}: expected a mapping or number")
    form = _field(spec, "form", path, required=True)
    if form == "constant":
        values = _field(spec, "values", path, required=True)
        if isinstance(values, (int, float)):
            values = [values]
        return constant([float(v) for v in values], time_kind)
    if form == "stationary":
        return stationary(build_rv({**spec, "form": "cell"}, path), time_kind)
    if form == "decaying":
        limit = build_rv(_field(spec, "limit", path, required=True), f"{path}.limit")
        disturbance = build_rv(
            _field(spec, "disturbance", path, required=True), f"{path}.disturbance"
        )
        rate = _float_field(spec, "rate", path, 1.0)
        return decaying_input(limit, disturbance, rate=rate, time_kind=time_kind)
    raise ScenarioError(f"{path}: unknown input form {form!r}")


def build_output_map(spec: Mapping, path: str) -> OutputMap:
    """Output map from expressions over ``state`` and ``noise`` symbols."""
    if not isinstance(spec, Mapping):
        raise ScenarioError(f"{path}: expected a mapping")
    components = _field(spec, "components", path, required=True)
    if not isinstance(components, (list, tuple)) or not components:
        raise ScenarioError(f"{path}.components: expected a nonempty list")
    try:
        law = law_from_spec(spec["noise"], f"{path}.noise") if spec.get("noise") else None
        fns = [
            compile_expr(comp, f"{path}.components[{i}]")
            for i, comp in enumerate(components)
        ]
    except ExprError as exc:
        raise ScenarioError(str(exc)) from exc

    def fn(w: Fiber, x: np.ndarray) -> np.ndarray:
        noise = law.sample(w.seed, w.cell(0)) if law is not None else np.zeros(0)
        empty = np.zeros(0)
        return np.array([f(x, empty, noise) for f in fns])

    return OutputMap(len(components), fn)


def build_system(spec: Mapping, path: str) -> tuple[SystemFlow, dict]:
    """System forms: ``discrete`` (generator expressions) or ``linear``."""
    if not isinstance(spec, Mapping):
        raise ScenarioError(f"{path}: expected a mapping")
    kind = _field(spec, "kind", path, required=True)
    if kind == "discrete":
        try:
            gen = compile_generator(
                _field(spec, "generator", path, required=True), f"{path}.generator"
            )
        except ExprError as exc:
            raise ScenarioError(str(exc)) from exc
        return discrete.flow_from_generator(gen), {"generator": gen}
    if kind == "linear":
        a = build_rv(
            {"form": "cell", "law": _field(spec, "a", path, required=True)}, f"{path}.a"
        )
        b = build_rv(
            {"form": "cell", "law": _field(spec, "b", path, required=True)}, f"{path}.b"
        )
        hint = spec.get("decay_rate_hint")
        if hint is not None:
            hint = _float_field(spec, "decay_rate_hint", path, 0.0, positive=True)
        coeffs = linear.LinearCoeffs(a=a, b=b, decay_rate_hint=hint)
        return linear.as_system(coeffs), {"coeffs": coeffs}
    raise ScenarioError(f"{path}: unknown system kind {kind!r}")


def _scenario_fibers(cfg: Mapping, time_kind: str) -> list[Fiber]:
    count = _int_field(cfg, "fibers", "", 100)
    if count < 1:
        raise ScenarioError(f"fibers: need at least one fiber, got {count!r}")
    seed = _int_field(cfg, "seed", "", 0)
    if time_kind == "discrete":
        offset = _int_field(cfg, "fiber_offset", "", 0)
    else:
        offset = _float_field(cfg, "fiber_offset", "", 0.25)
    return fiber_grid(count, seed=seed, offset=offset)


# --------------------------------------------------------------------------
# experiment runners


def _run_axioms(cfg: Mapping, exp: Mapping, report: RunReport) -> None:
    sys_flow, _ = build_system(_field(exp, "system", "experiment", required=True),
                               "experiment.system")
    fault = exp.get("fault")
    if fault == "time_zero":
        inner = sys_flow

        def broken(t, w, x, u):
            if t == 0:
                return x + 1.0
            return inner.flow(t, w, x, u)

        sys_flow = SystemFlow(inner.state_dim, inner.input_dim, inner.time_kind,
                              broken, label="fault")
    elif fault is not None:
        raise ScenarioError(f"experiment.fault: unknown fault {fault!r}")

    tolerance = exp.get("tolerance")
    if tolerance is not None:
        tolerance = _float_field(exp, "tolerance", "experiment", 0.0, minimum=0.0)
    check = rdsi.check_axioms(
        sys_flow,
        samples=_int_field(exp, "samples", "experiment", 500, 1),
        seed=_int_field(cfg, "seed", "", 0),
        tolerance=tolerance,
        max_time=_float_field(exp, "max_time", "experiment", 15.0, minimum=0.0),
    )
    report.metrics["axioms"] = check.as_dict()
    report.check("time_zero_identity", check.time_zero_max <= check.tolerance,
                 value=check.time_zero_max, bound=check.tolerance)
    report.check("splice_consistency", check.splice_max_rel <= check.tolerance,
                 value=check.splice_max_rel, bound=check.tolerance)
    report.check("input_locality", check.locality_max <= check.tolerance,
                 value=check.locality_max, bound=check.tolerance)
    report.extend_traces([
        (0, 0.0, "time_zero_max", 0, check.time_zero_max),
        (0, 0.0, "splice_max_rel", 0, check.splice_max_rel),
        (0, 0.0, "locality_max", 0, check.locality_max),
    ])


def _run_roundtrip(cfg: Mapping, exp: Mapping, report: RunReport) -> None:
    sys_flow, extras = build_system(
        _field(exp, "system", "experiment", required=True), "experiment.system"
    )
    if not sys_flow.is_discrete:
        raise ScenarioError("experiment.system: round trips need a discrete system")
    gen = extras["generator"]
    rebuilt = discrete.flow_from_generator(discrete.generator_from_flow(sys_flow))
    extracted = discrete.generator_from_flow(sys_flow)

    rng = np.random.default_rng(_int_field(cfg, "seed", "", 0))
    evals = _int_field(exp, "evals", "experiment", 500, 1)
    horizon = _int_field(exp, "horizon", "experiment", 50, 0)
    worst_flow = 0.0
    worst_gen = 0.0
    for _ in range(evals):
        w = Fiber(int(rng.integers(0, 2**32)), 0)
        n = int(rng.integers(0, horizon + 1))
        x = rng.uniform(-1.5, 1.5, size=sys_flow.state_dim)
        u = rdsi.random_input(rng, sys_flow.input_dim, "discrete") if sys_flow.input_dim else None
        worst_flow = max(worst_flow, float(np.max(np.abs(
            rebuilt(n, w, x, u) - sys_flow(n, w, x, u)))))
        uv = rng.uniform(-1.5, 1.5, size=sys_flow.input_dim) if sys_flow.input_dim else None
        worst_gen = max(worst_gen, float(np.max(np.abs(
            extracted(w, x, uv) - gen(w, x, uv)))))
    report.metrics["roundtrip"] = {"flow_max": worst_flow, "one_step_max": worst_gen,
                                   "evals": evals, "horizon": horizon}
    report.check("flow_to_one_step_to_flow", worst_flow == 0.0, value=worst_flow, bound=0.0)
    report.check("one_step_to_flow_to_one_step", worst_gen == 0.0, value=worst_gen, bound=0.0)
    report.extend_traces([
        (0, 0.0, "flow_roundtrip_max", 0, worst_flow),
        (0, 0.0, "one_step_roundtrip_max", 0, worst_gen),
    ])


def _characteristic_oracle(coeffs: linear.LinearCoeffs, tol: float):
    def oracle(u_inf: RandomVariable) -> RandomVariable:
        return RandomVariable(
            1, lambda w: np.array([linear.characteristic(coeffs, u_inf, w, tol=tol)])
        )
    return oracle


def _run_equilibrium(cfg: Mapping, exp: Mapping, report: RunReport) -> None:
    sys_flow, extras = build_system(
        _field(exp, "system", "experiment", required=True), "experiment.system"
    )
    u = build_rv(_field(exp, "input", "experiment", required=True), "experiment.input")
    x0 = build_rv(exp.get("initial", 0.0), "experiment.initial")
    horizon = _float_field(exp, "horizon", "experiment", 40.0, positive=True)
    tol = _float_field(exp, "tol", "experiment", 1e-9, positive=True)
    fibers = _scenario_fibers(cfg, sys_flow.time_kind)

    estimate, est_report = rdsi.estimate_characteristic(
        sys_flow, u, x0, horizon=horizon, tol=tol, fibers=fibers
    )
    report.metrics["estimate"] = {
        "all_converged": est_report.all_converged,
        "max_tail": max(est_report.tail_diagnostic.values()),
        "equilibrium_residual": est_report.equilibrium.max_residual,
    }
    report.check("pullback_estimate_converged", est_report.all_converged,
                 value=max(est_report.tail_diagnostic.values()), bound=tol)
    report.check("limit_is_equilibrium", est_report.equilibrium.passed,
                 value=est_report.equilibrium.max_residual, bound=10.0 * tol)
    for i, vals in sorted(est_report.per_fiber.items()):
        report.traces.append((i, horizon, "limit_estimate", 0, vals[0]))
        report.traces.append((i, horizon, "tail_diagnostic", 0, est_report.tail_diagnostic[i]))

    explicit = exp.get("explicit_candidate")
    if explicit is not None:
        cand_rv = build_rv(explicit, "experiment.explicit_candidate")
        times = [float(v) for v in np.linspace(0.0, 10.0, 11)]
        if sys_flow.is_discrete:
            times = list(range(0, 11))
        eq = rdsi.check_equilibrium(
            sys_flow,
            rdsi.EquilibriumCandidate(cand_rv, stationary(u, sys_flow.time_kind)),
            times=times,
            fibers=fibers,
            tol=_float_field(exp, "explicit_tol", "experiment", 1e-12, minimum=0.0),
        )
        report.check("explicit_candidate", eq.passed, value=eq.max_residual,
                     bound=eq.tolerance)


def _run_characteristic(cfg: Mapping, exp: Mapping, report: RunReport) -> None:
    sys_flow, extras = build_system(
        _field(exp, "system", "experiment", required=True), "experiment.system"
    )
    if "coeffs" not in extras:
        raise ScenarioError("experiment.system: characteristic agreement needs a linear system")
    coeffs = extras["coeffs"]
    u = build_rv(_field(exp, "input", "experiment", required=True), "experiment.input")
    x0 = build_rv(exp.get("initial", 0.0), "experiment.initial")
    horizon = _float_field(exp, "horizon", "experiment", 40.0, positive=True)
    tol = _float_field(exp, "tol", "experiment", 1e-8, positive=True)
    agreement_tol = _float_field(exp, "agreement_tol", "experiment", 1e-6, minimum=0.0)
    fibers = _scenario_fibers(cfg, "continuous")

    estimate, est_report = rdsi.estimate_characteristic(
        sys_flow, u, x0, horizon=horizon, tol=tol, fibers=fibers
    )
    worst = 0.0
    for i, w in enumerate(fibers):
        integral = linear.characteristic(coeffs, u, w, tol=tol)
        pullback = est_report.per_fiber[i][0]
        worst = max(worst, abs(integral - pullback))
        report.traces.append((i, 0.0, "integral_route", 0, integral))
        report.traces.append((i, 0.0, "pullback_route", 0, pullback))
    report.metrics["agreement"] = {"max_gap": worst, "fibers": len(fibers)}
    report.check("route_agreement", worst <= agreement_tol, value=worst,
                 bound=agreement_tol)
    report.check("pullback_estimate_converged", est_report.all_converged,
                 value=max(est_report.tail_diagnostic.values()), bound=tol)

    const_case = exp.get("constant_case")
    if const_case is not None:
        where = "experiment.constant_case"
        if not isinstance(const_case, Mapping):
            raise ScenarioError(f"{where}: expected a mapping")
        for key in ("a", "b", "u"):
            _field(const_case, key, where, required=True)
        a0, b0, c0 = (_float_field(const_case, key, where, 0.0) for key in ("a", "b", "u"))
        if a0 >= 0:
            raise ScenarioError(f"{where}.a: must be negative, got {a0!r}")
        ctol = _float_field(const_case, "tol", where, 1e-9, positive=True)
        cc = linear.LinearCoeffs(a=constant_rv(a0), b=constant_rv(b0))
        value = linear.characteristic(cc, constant_rv(c0), fibers[0], tol=ctol / 4.0,
                                      lam=-a0)
        expected = -b0 * c0 / a0
        report.check("constant_coefficients_exact", abs(value - expected) <= ctol,
                     value=abs(value - expected), bound=ctol)


def _run_decay(cfg: Mapping, exp: Mapping, report: RunReport) -> None:
    sys_flow, extras = build_system(
        _field(exp, "system", "experiment", required=True), "experiment.system"
    )
    if "coeffs" not in extras:
        raise ScenarioError("experiment.system: decay fits need a linear system")
    coeffs = extras["coeffs"]
    u = build_rv(_field(exp, "input", "experiment", required=True), "experiment.input")
    x0 = build_rv(exp.get("initial", 0.0), "experiment.initial")
    fibers = _scenario_fibers(cfg, "continuous")
    t_lo = _float_field(exp, "fit_from", "experiment", 5.0, minimum=0.0)
    t_hi = _float_field(exp, "fit_to", "experiment", 40.0, minimum=t_lo)
    step = _float_field(exp, "fit_step", "experiment", 2.5, positive=True)
    grid = [float(t) for t in np.arange(t_lo, t_hi + 0.5, step)]
    required_fraction = _float_field(exp, "fraction", "experiment", 0.95, minimum=0.0)
    if exp.get("rate") is not None:
        rate = _float_field(exp, "rate", "experiment", 1.0, positive=True)
    else:
        rate = max(linear.estimate_decay_rate(coeffs), 1e-6)
    floor = _float_field(exp, "fit_floor", "experiment", 1e-10, positive=True)

    bound_check = linear.check_decay_bound(
        coeffs,
        rate=rate,
        fibers=fibers[: min(len(fibers), 20)],
        horizon=_int_field(exp, "bound_horizon", "experiment", 30, 1),
    )
    rate = bound_check.rate
    report.metrics["decay_bound"] = bound_check.as_dict()
    report.check("decay_envelope", bound_check.passed,
                 value=bound_check.mean_drift + rate, bound=0.0,
                 detail=f"rate={rate}")

    traj = rdsi.pullback_traj(sys_flow, x0, stationary(u, "continuous"))
    states = traj.over(grid, fibers)
    # fit only above the oracle's truncation error, where the residual is real
    ok = 0
    for i, w in enumerate(fibers):
        target = linear.characteristic(coeffs, u, w, tol=floor / 100.0)
        residuals = np.max(np.abs(states[i] - target), axis=1).tolist()
        for t, r in zip(grid, residuals):
            report.traces.append((i, t, "pullback_residual", 0, r))
        slope = fit_log_slope(grid, residuals, floor=floor)
        if slope is not None and slope <= -0.5 * rate:
            ok += 1
        report.traces.append((i, t_hi, "log_slope", 0, slope if slope is not None else float("nan")))
    fraction = ok / len(fibers)
    report.metrics["decay"] = {"fraction_fast": fraction, "rate": rate}
    report.check("exponential_pullback_decay", fraction >= required_fraction,
                 value=fraction, bound=required_fraction,
                 detail=f"slope threshold {-0.5 * rate}")


def _run_monotone(cfg: Mapping, exp: Mapping, report: RunReport) -> None:
    systems = _field(exp, "systems", "experiment", required=True)
    if not isinstance(systems, (list, tuple)) or not systems:
        raise ScenarioError("experiment.systems: expected a nonempty list")
    samples = _int_field(exp, "samples", "experiment", 10_000, 1)
    max_time = _float_field(exp, "max_time", "experiment", 8.0, minimum=0.0)
    seed = _int_field(cfg, "seed", "", 0)
    for i, sys_spec in enumerate(systems):
        sys_flow, _ = build_system(sys_spec, f"experiment.systems[{i}]")
        order = monotone.OrthantOrder(sys_flow.state_dim)
        check = monotone.check_monotone(
            sys_flow, order, samples=samples, seed=seed + i, max_time=max_time,
        )
        label = sys_spec.get("label", f"system_{i}")
        report.metrics[f"monotone_{label}"] = check.as_dict()
        report.check(f"order_preserved_{label}", check.violations == 0,
                     value=float(check.violations), bound=0.0,
                     detail=f"worst margin {check.worst_margin}")
        report.traces.append((i, 0.0, f"worst_margin_{label}", 0, check.worst_margin))


def _run_bracketing(cfg: Mapping, exp: Mapping, report: RunReport) -> None:
    time_kind = exp.get("time_kind", "continuous")
    if time_kind not in TIME_KINDS:
        raise ScenarioError(
            f"experiment.time_kind: expected one of {TIME_KINDS}, got {time_kind!r}")
    u = build_input_process(_field(exp, "input", "experiment", required=True),
                            "experiment.input", time_kind)
    taus = exp.get("taus", [0.0, 2.0, 5.0])
    if not isinstance(taus, (list, tuple)) or not taus:
        raise ScenarioError("experiment.taus: expected a nonempty list of times")
    taus = [_number(t, f"experiment.taus[{i}]", False, minimum=0.0)
            for i, t in enumerate(taus)]
    horizon = _float_field(exp, "horizon", "experiment", 30.0, minimum=max(taus))
    fibers = _scenario_fibers(cfg, time_kind)
    probe = fibers[: min(len(fibers), 20)]

    pairs = [monotone.brackets(u, tau, horizon, fibers=()) for tau in taus]
    worst_violation = 0.0
    for pair in pairs:
        for w in probe:
            for t in pair.grid:
                lo_v = pair.lower(w.shift(t))
                hi_v = pair.upper(w.shift(t))
                mid = u(t, w)
                worst_violation = max(
                    worst_violation,
                    float(np.max(lo_v - mid)),
                    float(np.max(mid - hi_v)),
                )
    report.check("sandwich", worst_violation <= 0.0, value=worst_violation, bound=0.0)

    worst_tau = 0.0
    for earlier, later in zip(pairs, pairs[1:]):
        for w in probe:
            worst_tau = max(
                worst_tau,
                float(np.max(earlier.lower(w) - later.lower(w))),
                float(np.max(later.upper(w) - earlier.upper(w))),
            )
    report.check("envelopes_monotone_in_tau", worst_tau <= 0.0, value=worst_tau, bound=0.0)
    for i, w in enumerate(probe):
        for pair, tau in zip(pairs, taus):
            report.traces.append((i, tau, "lower_envelope", 0, float(pair.lower(w)[0])))
            report.traces.append((i, tau, "upper_envelope", 0, float(pair.upper(w)[0])))


def _run_cics(cfg: Mapping, exp: Mapping, report: RunReport) -> None:
    sys_flow, extras = build_system(
        _field(exp, "system", "experiment", required=True), "experiment.system"
    )
    if "coeffs" not in extras:
        raise ScenarioError("experiment.system: the convergence experiment needs a linear system")
    coeffs = extras["coeffs"]
    time_kind = sys_flow.time_kind
    u_inf = build_rv(_field(exp, "limit", "experiment", required=True), "experiment.limit")
    disturbance = build_rv(
        _field(exp, "disturbance", "experiment", required=True), "experiment.disturbance"
    )
    u = decaying_input(u_inf, disturbance,
                       rate=_float_field(exp, "rate", "experiment", 1.0),
                       time_kind=time_kind)
    x_specs = _field(exp, "initial_states", "experiment", required=True)
    if not isinstance(x_specs, (list, tuple)) or not x_specs:
        raise ScenarioError("experiment.initial_states: expected a nonempty list")
    x_set = [build_rv(s, f"experiment.initial_states[{i}]") for i, s in enumerate(x_specs)]
    schedule = exp.get("schedule", [5, 10, 20, 30, 40])
    if not isinstance(schedule, (list, tuple)) or not schedule:
        raise ScenarioError("experiment.schedule: expected a nonempty list of times")
    schedule = [_number(t, f"experiment.schedule[{i}]", False, minimum=0.0)
                for i, t in enumerate(schedule)]
    tol = _float_field(exp, "tol", "experiment", 1e-4, positive=True)
    oracle_tol = _float_field(exp, "oracle_tol", "experiment", 1e-9, positive=True)
    monotone_samples = _int_field(exp, "monotone_samples", "experiment", 300, 1)
    fibers = _scenario_fibers(cfg, time_kind)

    result = monotone.cics_experiment(
        sys_flow,
        _characteristic_oracle(coeffs, tol=oracle_tol),
        u,
        u_inf,
        x_set,
        schedule,
        tol,
        fibers,
        monotone_samples=monotone_samples,
        monotone_seed=_int_field(cfg, "seed", "", 0),
    )
    report.metrics["cics"] = result.as_dict()
    report.check("monotone_precondition", result.monotone.passed,
                 value=float(result.monotone.violations), bound=0.0)
    report.check("pullback_converges_to_limit_characteristic", result.converged,
                 value=result.max_final_residual, bound=tol,
                 detail=f"worst fiber {result.worst_fiber}")
    report.extend_traces(result.traces)


def _run_cascade(cfg: Mapping, exp: Mapping, report: RunReport) -> None:
    up_flow, up_extras = build_system(
        _field(exp, "upstream", "experiment", required=True), "experiment.upstream"
    )
    down_flow, _ = build_system(
        _field(exp, "downstream", "experiment", required=True), "experiment.downstream"
    )
    h1 = build_output_map(_field(exp, "output", "experiment", required=True),
                          "experiment.output")
    casc = compose.cascade(up_flow, h1, down_flow)

    n_max = _int_field(exp, "horizon", "experiment", 40, 0)
    times = list(range(0, n_max + 1, _int_field(exp, "time_step", "experiment", 4, 1)))
    fibers = _scenario_fibers(cfg, "discrete")
    states = _int_field(exp, "initial_states", "experiment", 200, 1)
    probe = fibers[: _int_field(exp, "probe_fibers", "experiment", 3, 1)]
    shift_identity_samples = _int_field(exp, "shift_identity_samples", "experiment", 200, 1)
    rng = np.random.default_rng(_int_field(cfg, "seed", "", 0))
    dim = casc.combined.state_dim

    worst_fwd = 0.0
    worst_pb = 0.0
    for j in range(states):
        z = constant_rv(rng.uniform(-1.5, 1.5, size=dim))
        fwd = compose.verify_cascade_forward(casc, z, times, probe)
        pb = compose.verify_cascade_pullback(casc, z, times, probe)
        worst_fwd = max(worst_fwd, fwd.max_residual)
        worst_pb = max(worst_pb, pb.max_residual)
    report.check("serial_decomposition", worst_fwd == 0.0, value=worst_fwd, bound=0.0)
    report.check("pullback_projection", worst_pb == 0.0, value=worst_pb, bound=0.0)

    # shifted-start output trajectory identity for the upstream block
    gen1 = up_extras["generator"]
    worst_shift_identity = 0.0
    x = cell_noise(CellLaw("uniform", lo=(-1.0,) * up_flow.state_dim,
                           hi=(1.0,) * up_flow.state_dim), lag=-1)
    x_hat = RandomVariable(
        up_flow.state_dim, lambda w: gen1(w.shift(-1), x(w.shift(-1)),
                                          np.zeros(gen1.input_dim))
    )
    eta = rdsi.output_traj(up_flow, h1, x)
    eta_hat = rdsi.output_traj(up_flow, h1, x_hat)
    shifted = eta.shift(1)
    rng2 = np.random.default_rng(_int_field(cfg, "seed", "", 0) + 1)
    for _ in range(shift_identity_samples):
        w = Fiber(int(rng2.integers(0, 2**32)), 0)
        n = int(rng2.integers(0, n_max + 1))
        worst_shift_identity = max(worst_shift_identity, float(np.max(np.abs(eta_hat(n, w) - shifted(n, w)))))
    report.check("shifted_start_output_identity", worst_shift_identity == 0.0,
                 value=worst_shift_identity, bound=0.0)
    report.extend_traces([
        (0, 0.0, "serial_decomposition_max", 0, worst_fwd),
        (0, 0.0, "pullback_projection_max", 0, worst_pb),
        (0, 0.0, "shifted_start_output_max", 0, worst_shift_identity),
    ])


def _run_feedback(cfg: Mapping, exp: Mapping, report: RunReport) -> None:
    sys1, _ = build_system(_field(exp, "first", "experiment", required=True),
                           "experiment.first")
    sys2, _ = build_system(_field(exp, "second", "experiment", required=True),
                           "experiment.second")
    h1 = build_output_map(_field(exp, "first_output", "experiment", required=True),
                          "experiment.first_output")
    h2 = build_output_map(_field(exp, "second_output", "experiment", required=True),
                          "experiment.second_output")
    loop = compose.feedback(sys1, h1, sys2, h2)

    fibers = _scenario_fibers(cfg, "discrete")
    times = list(range(0, _int_field(exp, "horizon", "experiment", 40, 0) + 1,
                       _int_field(exp, "time_step", "experiment", 4, 1)))
    states = _int_field(exp, "initial_states", "experiment", 50, 1)
    axiom_samples = _int_field(exp, "axiom_samples", "experiment", 100, 1)
    dim = loop.closed.state_dim
    rng = np.random.default_rng(_int_field(cfg, "seed", "", 0))
    worst = 0.0
    for _ in range(states):
        z = constant_rv(rng.uniform(-1.0, 1.0, size=dim))
        check = compose.verify_feedback(loop, z, times, fibers[:5])
        worst = max(worst, check.max_residual)
    report.check("loop_equations", worst == 0.0, value=worst, bound=0.0)

    axioms = rdsi.check_axioms(loop.closed, samples=axiom_samples,
                               seed=_int_field(cfg, "seed", "", 0), max_time=12.0)
    report.check("closed_loop_contract", axioms.passed,
                 value=max(axioms.time_zero_max, axioms.splice_max_rel), bound=0.0)
    report.extend_traces([(0, 0.0, "loop_equation_max", 0, worst)])


def _affine_discrete_characteristic(
    alpha: float, beta: float, const: float, noise: RandomVariable | None
) -> Callable[[Fiber, float], float]:
    """Closed-form stationary limit of ``x -> alpha x + beta u + const + noise``.

    Under a frozen scalar input the limit is a geometric series over past
    cells, truncated at float resolution.
    """
    if not 0.0 <= abs(alpha) < 1.0:
        raise ScenarioError(f"affine characteristic needs |alpha| < 1, got {alpha}")
    depth = 1 if alpha == 0.0 else min(2000, int(math.ceil(math.log(1e-17) / math.log(abs(alpha)))))

    def value(w: Fiber, s: float) -> float:
        total = 0.0
        power = 1.0
        for j in range(1, depth + 1):
            noise_term = float(noise(w.shift(-j))[0]) if noise is not None else 0.0
            total += power * (beta * s + const + noise_term)
            power *= alpha
        return total

    return value


def _run_small_gain(cfg: Mapping, exp: Mapping, report: RunReport) -> None:
    fibers = _scenario_fibers(cfg, "discrete")

    def build_loop(spec: Mapping, path: str):
        systems = _field(spec, "systems", path, required=True)
        if not isinstance(systems, (list, tuple)) or len(systems) != 2:
            raise ScenarioError(f"{path}.systems: expected exactly two systems")
        parsed = []
        for i, s in enumerate(systems):
            where = f"{path}.systems[{i}]"
            if not isinstance(s, Mapping):
                raise ScenarioError(f"{where}: expected a mapping")
            for key in ("alpha", "beta", "output_gain"):
                _field(s, key, where, required=True)
            alpha, beta, const, gain = (_float_field(s, key, where, 0.0)
                                        for key in ("alpha", "beta", "const", "output_gain"))
            clamp = s.get("output_clamp")
            if clamp is not None:
                clamp = _number_pair(clamp, f"{where}.output_clamp")
            noise = build_rv(s["noise"], f"{where}.noise") if s.get("noise") else None
            parsed.append((alpha, beta, const, gain, clamp, noise))
        return parsed

    def charmap_for(parsed, grid_spec, path):
        chars = [
            _affine_discrete_characteristic(alpha, beta, const, noise)
            for alpha, beta, const, gain, clamp, noise in parsed
        ]

        def out(i, w, v):
            alpha, beta, const, gain, clamp, noise = parsed[i]
            y = gain * v
            if clamp is not None:
                y = min(max(y, float(clamp[0])), float(clamp[1]))
            return y

        def composed(w: Fiber, s: float) -> float:
            y1 = out(0, w, chars[0](w, s))
            return out(1, w, chars[1](w, y1))

        if not isinstance(grid_spec, Mapping):
            raise ScenarioError(f"{path}: expected a mapping")
        for key in ("lo", "hi"):
            _field(grid_spec, key, path, required=True)
        lo = _float_field(grid_spec, "lo", path, 0.0)
        hi = _float_field(grid_spec, "hi", path, 0.0)
        points = _int_field(grid_spec, "points", path, 201, 2)
        return compose.grid_characteristic_map(composed, lo, hi, points=points), composed

    # contractive branch: iterate to the fixed point, then reconstruct the
    # equilibrium pair and drive the closed loop onto it
    con = _field(exp, "contractive", "experiment", required=True)
    if not isinstance(con, Mapping):
        raise ScenarioError("experiment.contractive: expected a mapping")
    parsed = build_loop(con, "experiment.contractive")
    charmap, _ = charmap_for(parsed, _field(con, "grid", "experiment.contractive", required=True),
                             "experiment.contractive.grid")
    seed_rv = build_rv(con.get("seed_input", 0.0), "experiment.contractive.seed_input")
    path = "experiment.contractive"
    fixed, sg = compose.small_gain_iterate(
        charmap, seed_rv, max_iters=_int_field(con, "max_iters", path, 80, 2),
        tol=_float_field(con, "tol", path, 1e-10, positive=True), fibers=fibers,
    )
    report.metrics["small_gain"] = sg.as_dict()
    report.check("iteration_converged", sg.converged,
                 value=float(sg.iterations), detail=f"rate {sg.rate_estimate}")
    rate_lo, rate_hi = _number_pair(con.get("rate_band", [0.4, 0.6]), f"{path}.rate_band")
    report.check("geometric_rate_in_band",
                 sg.rate_estimate is not None and rate_lo <= sg.rate_estimate <= rate_hi,
                 value=sg.rate_estimate, detail=f"band [{rate_lo}, {rate_hi}]")
    report.extend_traces(sg.traces)

    # closed-loop convergence to the reconstructed pair
    def gen_for(i):
        alpha, beta, const, gain, clamp, noise = parsed[i]

        def fn(w, x, u):
            drift = float(noise(w)[0]) if noise is not None else 0.0
            return np.array([alpha * x[0] + beta * u[0] + const + drift])

        return discrete.Generator(1, 1, fn)

    def out_map(i):
        alpha, beta, const, gain, clamp, noise = parsed[i]

        def fn(w, x):
            y = gain * x[0]
            if clamp is not None:
                y = min(max(y, float(clamp[0])), float(clamp[1]))
            return np.array([y])

        return OutputMap(1, fn)

    loop = compose.feedback(
        discrete.flow_from_generator(gen_for(0)), out_map(0),
        discrete.flow_from_generator(gen_for(1)), out_map(1),
    )
    chars = [_affine_discrete_characteristic(a, b, c0, n)
             for a, b, c0, g, cl, n in parsed]
    mu0 = fixed
    nu0 = RandomVariable(1, lambda w: np.array([
        out_map(0)(w, np.array([chars[0](w, mu0.scalar(w))]))[0]
    ])).memoized()
    x1_eq = RandomVariable(1, lambda w: np.array([chars[0](w, mu0.scalar(w))])).memoized()
    x2_eq = RandomVariable(1, lambda w: np.array([chars[1](w, nu0.scalar(w))])).memoized()

    n_final = _int_field(con, "closed_horizon", path, 60, 0)
    closed_tol = _float_field(con, "closed_tol", path, 1e-4, minimum=0.0)
    rng = np.random.default_rng(_int_field(cfg, "seed", "", 0))
    worst = 0.0
    for i, w in enumerate(fibers):
        z0 = constant_rv(rng.uniform(-2.0, 2.0, size=2))
        state = rdsi.pullback_traj(loop.closed, z0)(n_final, w)
        target = np.array([x1_eq.scalar(w), x2_eq.scalar(w)])
        gap = float(np.max(np.abs(state - target)))
        worst = max(worst, gap)
        report.traces.append((i, float(n_final), "closed_loop_gap", 0, gap))
    report.check("closed_loop_reaches_equilibrium_pair", worst <= closed_tol,
                 value=worst, bound=closed_tol)

    # saturating branch: the iteration must expose a period-two pair
    sat = _field(exp, "saturating", "experiment", required=True)
    if not isinstance(sat, Mapping):
        raise ScenarioError("experiment.saturating: expected a mapping")
    parsed_sat = build_loop(sat, "experiment.saturating")
    charmap_sat, _ = charmap_for(parsed_sat,
                                 _field(sat, "grid", "experiment.saturating", required=True),
                                 "experiment.saturating.grid")
    seed_sat = build_rv(sat.get("seed_input", 3.0), "experiment.saturating.seed_input")
    path = "experiment.saturating"
    _, sg_sat = compose.small_gain_iterate(
        charmap_sat, seed_sat, max_iters=_int_field(sat, "max_iters", path, 120, 2),
        tol=_float_field(sat, "tol", path, 1e-10, positive=True),
        fibers=fibers[: min(len(fibers), 20)],
    )
    report.metrics["small_gain_saturating"] = sg_sat.as_dict()
    report.check("period_two_detected", sg_sat.period_two_detected,
                 value=float(sg_sat.iterations))


def _run_determinism(cfg: Mapping, exp: Mapping, report: RunReport,
                     out_dir: Path) -> None:
    target = _field(exp, "target", "experiment", required=True)
    catalog = scenario_catalog()
    if target not in catalog:
        raise ScenarioError(f"experiment.target: unknown bundled scenario {target!r}")
    target_path = catalog[target][0]
    target_cfg = load_scenario(target_path)
    if target_cfg.get("experiment", {}).get("kind") == "determinism":
        raise ScenarioError("experiment.target: refusing to recurse into a determinism scenario")

    digests = []
    for run_idx in (1, 2):
        sub = out_dir / f"{report.scenario}-run{run_idx}"
        sub.mkdir(parents=True, exist_ok=True)
        sub_report = execute_scenario(target_cfg, target, sub)
        trace = sub / f"{target}.trace.csv"
        digests.append(trace.read_bytes())
        report.metrics[f"run{run_idx}_passed"] = sub_report.all_passed
    identical = digests[0] == digests[1]
    report.check("byte_identical_traces", identical,
                 detail=f"target {target}, {len(digests[0])} bytes")
    report.extend_traces([(0, 0.0, "trace_bytes", 0, float(len(digests[0])))])


_RUNNERS: dict[str, Callable] = {
    "axioms": _run_axioms,
    "roundtrip": _run_roundtrip,
    "equilibrium": _run_equilibrium,
    "characteristic": _run_characteristic,
    "decay": _run_decay,
    "monotone": _run_monotone,
    "bracketing": _run_bracketing,
    "cics": _run_cics,
    "cascade": _run_cascade,
    "feedback": _run_feedback,
    "small-gain": _run_small_gain,
}


# --------------------------------------------------------------------------
# scenario loading and execution


def load_scenario(path: Path | str) -> dict:
    """Parse and minimally validate one scenario file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        cfg = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioError(f"{path}: YAML parse error{where}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    exp = cfg.get("experiment")
    if not isinstance(exp, dict) or "kind" not in exp:
        raise ScenarioError(f"{path}: missing experiment.kind")
    kind = exp["kind"]
    if kind != "determinism" and kind not in _RUNNERS:
        known = sorted([*_RUNNERS, "determinism"])
        raise ScenarioError(f"{path}: unknown experiment kind {kind!r}; known: {known}")
    return cfg


def execute_scenario(cfg: Mapping, name: str, out_dir: Path) -> RunReport:
    """Run one parsed scenario and write its artifacts into ``out_dir``."""
    exp = cfg["experiment"]
    kind = exp["kind"]
    report = RunReport(
        scenario=name,
        experiment=kind,
        seed=_int_field(cfg, "seed", "", 0),
        fibers=_int_field(cfg, "fibers", "", 100, 0),
    )
    if kind == "determinism":
        _run_determinism(cfg, exp, report, out_dir)
    else:
        _RUNNERS[kind](cfg, exp, report)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out_dir / f"{name}.trace.csv", report.traces)
    write_json_report(out_dir / f"{name}.report.json", report)
    return report


def scenario_catalog() -> dict[str, list[Path]]:
    """Bundled scenarios plus any in the custom scenario directory."""
    catalog: dict[str, list[Path]] = {}
    bundled = resources.files("rdsio") / "scenarios"
    paths = sorted(
        (Path(str(p)) for p in bundled.iterdir() if p.name.endswith(".yaml")),
        key=lambda p: p.name,
    )
    custom = os.environ.get(SCENARIO_DIR_ENV)
    if custom:
        paths += sorted(Path(custom).glob("*.yaml"))
    for p in paths:
        catalog.setdefault(p.stem, []).append(p)
    return catalog


def _resolve_scenario(arg: str) -> Path:
    p = Path(arg)
    if p.exists():
        return p
    catalog = scenario_catalog()
    if arg in catalog:
        return catalog[arg][0]
    raise ScenarioError(f"no scenario file or bundled scenario named {arg!r}")


def run_scenario_file(
    path: Path | str,
    out_dir: Path | str | None = None,
    fibers: int | None = None,
    seed: int | None = None,
) -> RunReport:
    """Load, optionally override, execute, and persist one scenario."""
    cfg = load_scenario(path)
    if fibers is not None:
        cfg["fibers"] = int(fibers)
    if seed is not None:
        cfg["seed"] = int(seed)
    name = cfg.get("name", Path(path).stem)
    out = Path(out_dir) if out_dir else Path(os.environ.get(OUT_DIR_ENV, "rdsio-out"))
    return execute_scenario(cfg, name, out)


def _cmd_run(args) -> int:
    try:
        path = _resolve_scenario(args.scenario)
        report = run_scenario_file(path, out_dir=args.out, fibers=args.fibers,
                                   seed=args.seed)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NonFiniteReportError as exc:
        # a check that produced NaN or infinity cannot have passed
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION

    if args.json:
        print(report_json(report))
    else:
        for a in report.assertions:
            status = "PASS" if a.passed else "FAIL"
            extras = []
            if a.value is not None:
                extras.append(f"value={a.value:.6g}")
            if a.bound is not None:
                extras.append(f"bound={a.bound:.6g}")
            if a.detail:
                extras.append(a.detail)
            print(f"{status} {report.scenario}:{a.name}" + (
                f" ({', '.join(extras)})" if extras else ""))
        print(("all checks passed" if report.all_passed else "CHECKS FAILED")
              + f" [{report.scenario}]")
    return EXIT_OK if report.all_passed else EXIT_ASSERTION


def _cmd_list(args) -> int:
    catalog = scenario_catalog()
    for name in sorted(catalog):
        paths = catalog[name]
        for i, p in enumerate(paths):
            try:
                cfg = yaml.safe_load(p.read_text(encoding="utf-8")) or {}
                desc = str(cfg.get("description", "")).strip().splitlines()
                desc = desc[0] if desc else ""
            except yaml.YAMLError:
                desc = "(unparseable)"
            suffix = f" [{p}]" if len(paths) > 1 else ""
            print(f"{name}{suffix} - {desc}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rdsio",
        description="Run verification scenarios for random dynamical systems "
                    "with inputs and outputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario file or bundled scenario")
    run_p.add_argument("scenario", help="path to a scenario YAML file, or a bundled name")
    run_p.add_argument("--fibers", type=int, default=None, help="override the fiber count")
    run_p.add_argument("--seed", type=int, default=None, help="override the base seed")
    run_p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUT_DIR_ENV} or ./rdsio-out)")
    run_p.add_argument("--json", action="store_true", help="print the report as JSON")
    run_p.set_defaults(fn=_cmd_run)

    list_p = sub.add_parser("list-scenarios", help="list bundled and custom scenarios")
    list_p.set_defaults(fn=_cmd_list)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
