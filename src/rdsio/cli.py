"""Scenario runner: declarative configs in, reports and CSV traces out.

A scenario is a single YAML file that fully determines a run; identical
scenario plus identical build yields byte-identical trace CSV.  Every
field is read and checked against the tables below in one pass before the
runner starts, so a malformed file is refused before any sampling.  Exit
codes: 0 all assertions passed, 1 an assertion failed, 2 the file did not
parse or validate, 3 an I/O failure (writing artifacts, or to stdout).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Mapping

import numpy as np
import yaml

from importlib import resources

from . import compose, discrete, linear, monotone, rdsi
from .exprs import compile_expr, row_step
from .mpds import (CellLaw, Fibers, RandomVariable, UnboundedSampleError, cell_noise,
                   constant_rv, fiber_grid, fiberwise)
from .process import TIME_KINDS, Process, constant, decaying_input, stationary
from .rdsi import OutputMap, SystemFlow, _fold_max
from .reports import (NonFiniteReportError, RunReport, fit_log_slope, report_json,
                      write_json_report, write_trace_csv)

__all__ = ["main", "run_scenario_file", "load_scenario", "scenario_catalog"]

OUT_DIR_ENV = "RDSIO_OUT_DIR"
SCENARIO_DIR_ENV = "RDSIO_SCENARIO_DIR"

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INVALID = 2
EXIT_IO = 3


class ScenarioError(ValueError):
    """Scenario failed validation; message carries the config path."""


# --------------------------------------------------------------------------
# readers: each takes ``(raw, where, seen)``, the raw value, its config
# path and the fields of its mapping read so far, and returns the checked
# value or raises ScenarioError

REQUIRED = object()  # the table default of a field that must be present


def _read(spec: Any, table: Mapping, path: str) -> SimpleNamespace:
    """The fields of mapping ``spec``, read in ``table`` order.

    ``table`` maps a field to ``(reader, default)``.  The default is
    ``REQUIRED``, ``None`` (an absent or null field reads as None) or a
    value, which is read as if it had been written.  A field that is not
    in ``table`` is refused.
    """
    if not isinstance(spec, Mapping):
        raise ScenarioError(f"{path}: expected a mapping")
    for key in spec:
        if key not in table:
            raise ScenarioError(f"{f'{path}.' if path else ''}{key}: unknown field")
    seen = SimpleNamespace()
    for key, (reader, default) in table.items():
        raw = spec.get(key, default)
        if raw is REQUIRED:
            raise ScenarioError(f"{path}: missing required field {key!r}")
        where = f"{path}.{key}" if path else key
        setattr(seen, key, None if raw is None and default is None
                else reader(raw, where, seen))
    return seen


def _numeric(raw) -> bool:
    """Whether ``raw`` is an int, a float or a string that reads as a
    finite float: YAML reads a number with an exponent but no dot, 1e-9,
    as a string, which is read as a number wherever a number stands."""
    try:
        return isinstance(raw, (int, float)) or (isinstance(raw, str) and math.isfinite(float(raw)))
    except ValueError:
        return False


def _number(raw, where: str, integral: bool, minimum=None, maximum=None):
    """``raw`` checked as an integer or a finite real, then range-checked."""
    if integral:
        ok = isinstance(raw, int) or (isinstance(raw, float) and raw.is_integer())
    else:
        raw = float(raw) if isinstance(raw, str) and _numeric(raw) else raw
        ok = isinstance(raw, (int, float)) and math.isfinite(raw)
    if isinstance(raw, bool) or not ok:
        kind = "an integer" if integral else "a finite number"
        raise ScenarioError(f"{where}: expected {kind}, got {raw!r}")
    if minimum is not None and raw < minimum:
        raise ScenarioError(f"{where}: must be at least {minimum}, got {raw!r}")
    value = int(raw) if integral else float(raw)
    if maximum is not None and value > maximum:
        raise ScenarioError(f"{where}: must be at most {maximum}, got {value!r}")
    return value


def _int(minimum: int | None = None, maximum: int | None = None):
    return lambda raw, where, seen: _number(raw, where, True, minimum, maximum)


def _real(minimum=None):
    # ``minimum`` is a number, or a function of the fields read so far
    return lambda raw, where, seen: _number(
        raw, where, False, minimum(seen) if callable(minimum) else minimum)


def _real_that(test: Callable[[float], bool], text: str):
    """A finite real that passes ``test``; ``text`` says what it must be."""
    def read(raw, where, seen):
        value = _number(raw, where, False)
        if not test(value):
            raise ScenarioError(f"{where}: must be {text}, got {value!r}")
        return value
    return read


_POSITIVE = _real_that(lambda v: v > 0, "positive")


def _above(field: str):
    """A finite real greater than the field ``field`` read before it."""
    def read(raw, where, seen):
        value = _number(raw, where, False)
        if not value > getattr(seen, field):
            raise ScenarioError(f"{where}: must exceed {field} {getattr(seen, field)!r}, "
                                f"got {value!r}")
        return value
    return read


def _list(item, length=None):
    """A nonempty list, of ``length`` entries (a number, or a function of
    the fields read so far) if given, each read by ``item``."""
    def read(raw, where, seen):
        want = length(seen) if callable(length) else length
        if not isinstance(raw, (list, tuple)) or not raw or want not in (None, len(raw)):
            raise ScenarioError(f"{where}: expected a list of {want or 'one or more'} entries")
        return [item(v, f"{where}[{i}]", seen) for i, v in enumerate(raw)]
    return read


def _number_pair(raw, where: str, seen) -> tuple[float, float]:
    """Two finite reals ``[lo, hi]`` with lo <= hi."""
    lo, hi = _list(_real(), length=2)(raw, where, seen)
    if lo > hi:
        raise ScenarioError(f"{where}: lower end {lo!r} exceeds upper end {hi!r}")
    return lo, hi


def _vector(raw, where, seen) -> list[float]:
    """A number, or a nonempty list of numbers."""
    return _list(_real())([raw] if _numeric(raw) else raw, where, seen)


def _choice(*options):
    def read(raw, where, seen):
        if raw not in options:
            raise ScenarioError(f"{where}: expected one of {options}, got {raw!r}")
        return raw
    return read


def _mapping(table: Mapping):
    return lambda raw, where, seen: _read(raw, table, where)


def _name(raw, where: str) -> str:
    """A scenario name or a series label: part of a file name or a CSV row."""
    if (not isinstance(raw, str) or raw in ("", ".", "..")
            or any(c in raw for c in "/\\,\n\r")):
        raise ScenarioError(f"{where}: expected a nonempty string without '/', '\\', "
                            f"',' or a newline, other than '.' and '..', got {raw!r}")
    return raw


# a field read as it was written, by a reader of its own
_AS_IS = (lambda raw, where, seen: raw, None)


def _tagged(spec: Any, path: str, tag: str, tables: Mapping) -> tuple[str, SimpleNamespace]:
    """``(form, fields)`` of a mapping whose field ``tag``, read first on
    its own, picks its table."""
    alone = {tag: spec[tag]} if isinstance(spec, Mapping) and tag in spec else spec
    form = getattr(_read(alone, {tag: (_choice(*tables), REQUIRED)}, path), tag)
    return form, _read(spec, {tag: _AS_IS, **tables[form]}, path)


_LAWS = {"constant": {"values": (_vector, REQUIRED)},
         "uniform": {"lo": (_vector, REQUIRED), "hi": (_vector, REQUIRED)},
         "choice": {"choices": (_list(_vector), REQUIRED)}}


def _law(raw, where, seen) -> CellLaw:
    """A cell law: ``{law: constant, values}``, ``{law: uniform, lo, hi}``
    or ``{law: choice, choices}``, each vector a number or a list of
    numbers; ``CellLaw`` checks the fields against each other."""
    kind, f = _tagged(raw, where, "law", _LAWS)
    fields = {key: tuple(map(tuple, v) if key == "choices" else v)
              for key, v in vars(f).items() if key != "law"}
    try:
        return CellLaw(kind, **fields)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _knots(raw, where, seen) -> list[float]:
    """Two or more strictly increasing finite reals."""
    xs = _list(_real())(raw, where, seen)
    if len(xs) < 2 or any(b <= a for a, b in zip(xs, xs[1:])):
        raise ScenarioError(f"{where}: expected two or more strictly increasing numbers")
    return xs


def _expr(dims: Mapping[str, int]):
    """An expression over the symbols (``state``, ``input``, ``noise``)
    that ``dims`` maps to a positive dimension, compiled by
    :func:`exprs.compile_expr`: a number, or a mapping whose ``op`` picks
    its fields.  A symbol's ``index`` (default 0) falls below its
    dimension, a ``clamp`` has ``lo <= hi``, and a ``table`` has one
    ``ys`` entry per knot of its ``xs``."""
    def node(raw, where, seen):
        if _numeric(raw):
            return compile_expr("const", SimpleNamespace(value=_number(raw, where, False)))
        return compile_expr(*_tagged(raw, where, "op", ops))

    real, arg, args = (_real(), REQUIRED), (node, REQUIRED), (_list(node), REQUIRED)
    # one table for the whole tree
    ops = {"const": {"value": real}, "add": {"args": args}, "mul": {"args": args},
           "scale": {"factor": real, "arg": arg},
           "clamp": {"lo": real, "hi": (_real(lambda s: s.lo), REQUIRED), "arg": arg},
           "table": {"xs": (_knots, REQUIRED),
                     "ys": (_list(_real(), lambda s: len(s.xs)), REQUIRED), "arg": arg},
           **{op: {"index": (_int(0, dim - 1), 0)} for op, dim in dims.items() if dim > 0}}
    return node


# --------------------------------------------------------------------------
# builders from scenario mappings

# largest sampled max_time, round-trip, cascade and loop horizon (cells a row
# steps), largest small-gain closed-loop, bracketing, equilibrium,
# characteristic and decay time (cells a pullback or an integral reads), and
# largest cell-noise lag, either way (cells a read is moved)
_MAX_SAMPLED_TIME = 1_000
# largest count of fibers, drawn tuples, round-trip rows or initial states:
# it admits the 100,000 fibers and 200,000 tuples that CI runs, and keeps a
# run's arrays to the peaks the README states
_MAX_COUNT = 200_000
# largest generator input_dim: it keeps a round trip at the count cap to the README's peaks
_MAX_INPUT_DIM = 32

_RV_FORMS = {
    "constant": {"values": (_vector, REQUIRED)},
    "cell": {"law": (_law, REQUIRED), "lag": (_int(-_MAX_SAMPLED_TIME, _MAX_SAMPLED_TIME), 0)},
    "reciprocal": {"law": (_law, REQUIRED), "lag": (_int(-_MAX_SAMPLED_TIME, _MAX_SAMPLED_TIME), 0),
                   "shift": (_real(), REQUIRED)},
}


def build_rv(spec: Any, path: str) -> RandomVariable:
    """Random-variable forms: constant, cell, reciprocal (unbounded, tempered)."""
    if _numeric(spec):
        return constant_rv([_number(spec, path, False)])
    form, f = _tagged(spec, path, "form", _RV_FORMS)
    if form == "constant":
        return constant_rv(f.values)
    base = cell_noise(f.law, lag=f.lag)
    if form == "cell":
        return base
    # 1 / (cell + shift): unbounded on its box yet subexponential along
    # orbits, the stock example of a tempered-but-unbounded state.  A
    # support touching -shift at the boundary is allowed: the boundary
    # draw has probability zero.
    shift = f.shift
    lo, hi = f.law.bounds()
    if np.any((lo + shift < 0) & (hi + shift > 0)):
        raise ScenarioError(f"{path}: reciprocal law support crosses -shift")
    return RandomVariable(f.law.dim, lambda ws, ts: 1.0 / (base.over(ws, ts) + shift))


def _rv(dim=None):
    """A random variable of dimension ``dim``: a number, or a function of the fields read so far."""
    def read(raw, where, seen):
        rv = build_rv(raw, where)
        want = dim(seen) if callable(dim) else dim
        if want is not None and rv.dim != want:
            raise ScenarioError(f"{where}: has dimension {rv.dim}, expected {want}")
        return rv
    return read


_INPUT_FORMS = {
    "constant": _RV_FORMS["constant"],
    "stationary": _RV_FORMS["cell"],
    "decaying": {"limit": (_rv(), REQUIRED),
                 "disturbance": (_rv(lambda s: s.limit.dim), REQUIRED),
                 "rate": (_real(), 1.0)},
}


def _input(raw, where, seen) -> Process:
    """An input process in the ``time_kind`` read before it."""
    if _numeric(raw):
        return constant([_number(raw, where, False)], seen.time_kind)
    form, f = _tagged(raw, where, "form", _INPUT_FORMS)
    if form == "constant":
        return constant(f.values, seen.time_kind)
    if form == "stationary":
        return stationary(cell_noise(f.law, lag=f.lag), seen.time_kind)
    return decaying_input(f.limit, f.disturbance, rate=f.rate, time_kind=seen.time_kind)


def _coefficient(raw, where, seen) -> RandomVariable:
    """A linear system's coefficient: a scalar cell law, read in the current cell."""
    law = _law(raw, where, seen)
    if law.dim != 1:
        raise ScenarioError(f"{where}: has dimension {law.dim}, expected 1")
    return cell_noise(law)


def _noise_dim(seen) -> int:
    """The dimension of the ``noise`` law read so far, 0 without one."""
    return seen.noise.dim if seen.noise is not None else 0


def _components(raw, where, seen) -> list[Callable]:
    """A generator's expressions, one per state coordinate."""
    dims = {"state": seen.state_dim, "input": seen.input_dim, "noise": _noise_dim(seen)}
    return _list(_expr(dims), seen.state_dim)(raw, where, seen)


_GENERATOR = {"state_dim": (_int(1), REQUIRED), "input_dim": (_int(0, _MAX_INPUT_DIM), 0),
              "noise": (_law, None), "components": (_components, REQUIRED)}


def compile_generator(raw: Any, where: str = "generator") -> discrete.Generator:
    """A generator declaration compiled into its one-step map: a positive
    ``state_dim``, an ``input_dim`` (default 0), an optional ``noise``
    cell law, declared as the generator's law (the step is given its
    value at the advancing cell), and ``components``, one expression per
    state coordinate."""
    f = _read(raw, _GENERATOR, where)
    noise = (f.noise,) if f.noise is not None else ()
    return discrete.Generator(f.state_dim, f.input_dim, row_step(f.components, _noise_dim(f)),
                              noise)


_SYSTEMS = {
    # compile_generator is looked up at call time, so a wrapper installed
    # on this module's binding sees every generator
    "discrete": {"generator": (lambda raw, where, seen: compile_generator(raw, where),
                               REQUIRED)},
    "linear": {"a": (_coefficient, REQUIRED), "b": (_coefficient, REQUIRED),
               "decay_rate_hint": (_POSITIVE, None)},
}


def _linear(spec: Any, path: str, seen) -> linear.LinearCoeffs:
    """The coefficients of a ``linear`` system; other kinds are refused."""
    _, f = _tagged(spec, path, "kind", {"linear": _SYSTEMS["linear"]})
    return linear.LinearCoeffs(a=f.a, b=f.b, decay_rate_hint=f.decay_rate_hint)


def build_system(spec: Any, path: str) -> SystemFlow:
    """System forms: ``discrete`` (generator expressions) or ``linear``."""
    kind, f = _tagged(spec, path, "kind", _SYSTEMS)
    if kind == "discrete":
        return discrete.flow_from_generator(f.generator)
    return linear.as_system(linear.LinearCoeffs(a=f.a, b=f.b, decay_rate_hint=f.decay_rate_hint))


def _system(discrete: bool = False, inputs: int | None = None):
    """A system; a discrete one, and one with ``inputs`` input components, if asked."""
    def read(raw, where, seen):
        sys_flow = build_system(raw, where)
        if discrete and not sys_flow.is_discrete:
            raise ScenarioError(f"{where}: expected a discrete system")
        if inputs is not None and sys_flow.input_dim != inputs:
            raise ScenarioError(f"{where}: has input dimension {sys_flow.input_dim}, not {inputs}")
        return sys_flow
    return read


def build_output_map(spec: Any, path: str, state_dim: int) -> OutputMap:
    """Output map from expressions over the ``state`` (of dimension
    ``state_dim``) and ``noise`` symbols."""
    def components(raw, where, seen):
        return _list(_expr({"state": state_dim, "noise": _noise_dim(seen)}))(raw, where, seen)

    f = _read(spec, {"noise": (_law, None), "components": (components, REQUIRED)}, path)
    noise = (f.noise,) if f.noise is not None else ()
    step = row_step(f.components, _noise_dim(f))
    return OutputMap(len(f.components), lambda seeds, offsets, xs, cells: step(
        seeds, offsets, xs, xs[:, :0], cells), noise)


def _output(source: str, target: str):
    """An output map on system field ``source`` that drives system field ``target``."""
    def read(raw, where, seen):
        h = build_output_map(raw, where, getattr(seen, source).state_dim)
        expected = getattr(seen, target).input_dim
        if h.dim != expected:
            raise ScenarioError(f"{where}: has dimension {h.dim}, {target} takes {expected}")
        return h
    return read


# --------------------------------------------------------------------------
# experiment runners: each takes the read experiment fields ``p``, the probe
# fibers (None for a kind without them), the report and the output directory


def _run_axioms(p, fibers, report: RunReport, out_dir: Path) -> None:
    sys_flow = p.system
    if p.fault == "time_zero":
        inner = sys_flow

        def broken(t, ws, xs, u):
            # the rows at time zero move by one
            at_zero = np.reshape(np.equal(t, 0), (-1, 1))
            return np.where(at_zero, xs + 1.0, inner.many(t, ws, xs, u))

        sys_flow = SystemFlow(inner.state_dim, inner.input_dim, inner.time_kind, broken)
    check = rdsi.check_axioms(sys_flow, samples=p.samples, seed=report.seed,
                              tolerance=p.tolerance, max_time=p.max_time)
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


def _run_roundtrip(p, fibers, report: RunReport, out_dir: Path) -> None:
    sys_flow = p.system
    gen = sys_flow.generator
    rebuilt = discrete.flow_from_generator(discrete.generator_from_flow(sys_flow))
    extracted = discrete.generator_from_flow(sys_flow)

    rng = np.random.default_rng(report.seed)
    dim = sys_flow.input_dim
    ws = rdsi._draw_fibers(rng, p.evals, "discrete")
    ns = rng.integers(0, p.horizon + 1, size=p.evals)
    xs = rng.uniform(-1.5, 1.5, size=(p.evals, sys_flow.state_dim))
    us = rdsi.draw_inputs(rng, p.evals, dim, "discrete") if dim else None
    values = rng.uniform(-1.5, 1.5, size=(p.evals, dim))
    worst_flow = _fold_max(0.0, np.max(np.abs(
        rebuilt.many(ns, ws, xs, us) - sys_flow.many(ns, ws, xs, us)), axis=1))
    worst_gen = _fold_max(0.0, np.max(np.abs(
        extracted.many(ws, xs, values) - gen.many(ws, xs, values)), axis=1))
    report.metrics["roundtrip"] = {"flow_max": worst_flow, "one_step_max": worst_gen,
                                   "evals": p.evals, "horizon": p.horizon}
    report.check("flow_to_one_step_to_flow", worst_flow == 0.0, value=worst_flow, bound=0.0)
    report.check("one_step_to_flow_to_one_step", worst_gen == 0.0, value=worst_gen, bound=0.0)
    report.extend_traces([
        (0, 0.0, "flow_roundtrip_max", 0, worst_flow),
        (0, 0.0, "one_step_roundtrip_max", 0, worst_gen),
    ])


def _run_equilibrium(p, fibers, report: RunReport, out_dir: Path) -> None:
    sys_flow = p.system
    est_report = rdsi.estimate_characteristic(
        sys_flow, p.input, p.initial, horizon=p.horizon, tol=p.tol, fibers=fibers
    )
    # any pullback limit is an equilibrium: checked at the times 0 to 10, at ten times tol
    bar_u = stationary(p.input, sys_flow.time_kind)
    times = [k if sys_flow.is_discrete else float(k) for k in range(11)]
    eq = rdsi.check_equilibrium(sys_flow, est_report.estimate, bar_u, times=times,
                                fibers=fibers, tol=10.0 * p.tol)
    max_tail = _fold_max(0.0, est_report.tail_diagnostic)
    report.metrics["estimate"] = {
        "all_converged": est_report.all_converged,
        "max_tail": max_tail,
        "equilibrium_residual": eq.max_residual,
    }
    report.check("pullback_estimate_converged", est_report.all_converged,
                 value=max_tail, bound=p.tol)
    report.check("limit_is_equilibrium", eq.passed, value=eq.max_residual, bound=eq.tolerance)
    ends = est_report.per_fiber[:, 0].tolist()
    for i, (end, tail) in enumerate(zip(ends, est_report.tail_diagnostic.tolist())):
        report.traces.append((i, p.horizon, "limit_estimate", 0, end))
        report.traces.append((i, p.horizon, "tail_diagnostic", 0, tail))

    if p.explicit_candidate is not None:
        eq = rdsi.check_equilibrium(sys_flow, p.explicit_candidate, bar_u, times=times,
                                    fibers=fibers, tol=p.explicit_tol)
        report.check("explicit_candidate", eq.passed, value=eq.max_residual,
                     bound=eq.tolerance)


def _run_characteristic(p, fibers, report: RunReport, out_dir: Path) -> None:
    est_report = rdsi.estimate_characteristic(
        linear.as_system(p.system), p.input, p.initial, horizon=p.horizon, tol=p.tol,
        fibers=fibers,
    )
    integrals = linear.characteristic(p.system, p.input, fibers, tol=p.tol)
    pullbacks = est_report.per_fiber[:, 0]
    for i, (integral, pullback) in enumerate(zip(integrals.tolist(), pullbacks.tolist())):
        report.traces.append((i, 0.0, "integral_route", 0, integral))
        report.traces.append((i, 0.0, "pullback_route", 0, pullback))
    worst = _fold_max(0.0, np.abs(integrals - pullbacks))
    report.metrics["agreement"] = {"max_gap": worst, "fibers": len(fibers)}
    report.check("route_agreement", worst <= p.agreement_tol, value=worst,
                 bound=p.agreement_tol)
    report.check("pullback_estimate_converged", est_report.all_converged,
                 value=_fold_max(0.0, est_report.tail_diagnostic), bound=p.tol)

    cc = p.constant_case
    if cc is not None:
        coeffs = linear.LinearCoeffs(a=constant_rv(cc.a), b=constant_rv(cc.b))
        value = float(linear.characteristic(coeffs, constant_rv(cc.u), fibers[:1],
                                            tol=cc.tol / 4.0, lam=-cc.a)[0])
        expected = -cc.b * cc.u / cc.a
        report.check("constant_coefficients_exact", abs(value - expected) <= cc.tol,
                     value=abs(value - expected), bound=cc.tol)


def _run_decay(p, fibers, report: RunReport, out_dir: Path) -> None:
    coeffs = p.system
    grid = [float(t) for t in np.arange(p.fit_from, p.fit_to + p.fit_step / 2, p.fit_step)]
    rate = p.rate if p.rate is not None else max(linear.estimate_decay_rate(coeffs), 1e-6)
    bound_check = linear.check_decay_bound(
        coeffs, rate=rate, fibers=fibers[: min(len(fibers), 20)], horizon=p.bound_horizon,
    )
    rate = bound_check.rate
    report.metrics["decay_bound"] = bound_check.as_dict()
    report.check("decay_envelope", bound_check.passed,
                 value=bound_check.mean_drift + rate, bound=0.0,
                 detail=f"rate={rate}")

    traj = rdsi.pullback_traj(linear.as_system(coeffs), p.initial,
                              stationary(p.input, "continuous"))
    states = traj.over(fibers, grid)
    # fit only above the oracle's truncation error, where the residual is real
    targets = linear.characteristic(coeffs, p.input, fibers, tol=p.fit_floor / 100.0)
    ok = 0
    for i, target in enumerate(targets.tolist()):
        residuals = np.max(np.abs(states[i] - target), axis=1).tolist()
        for t, r in zip(grid, residuals):
            report.traces.append((i, t, "pullback_residual", 0, r))
        slope = fit_log_slope(grid, residuals, floor=p.fit_floor)
        if slope is not None and slope <= -0.5 * rate:
            ok += 1
        report.traces.append((i, p.fit_to, "log_slope", 0, slope if slope is not None else float("nan")))
    fraction = ok / len(fibers)
    report.metrics["decay"] = {"fraction_fast": fraction, "rate": rate}
    report.check("exponential_pullback_decay", fraction >= p.fraction,
                 value=fraction, bound=p.fraction,
                 detail=f"slope threshold {-0.5 * rate}")


def _labelled_systems(raw, where, seen) -> list[tuple[str, SystemFlow]]:
    """``(label, system)`` pairs; a label defaults to ``system_<index>``."""
    bare = [{k: v for k, v in spec.items() if k != "label"} if isinstance(spec, Mapping)
            else spec for spec in raw] if isinstance(raw, list) else raw
    systems = _list(_system())(bare, where, seen)
    return [(_name(spec.get("label", f"system_{i}"), f"{where}[{i}].label"), sys_flow)
            for i, (spec, sys_flow) in enumerate(zip(raw, systems))]


def _run_monotone(p, fibers, report: RunReport, out_dir: Path) -> None:
    for i, (label, sys_flow) in enumerate(p.systems):
        order = monotone.OrthantOrder(sys_flow.state_dim)
        try:
            check = monotone.check_monotone(
                sys_flow, order, samples=p.samples, seed=report.seed + i, max_time=p.max_time,
            )
        except UnboundedSampleError as exc:
            # this system's flow left the float range; the next is still checked
            report.check(f"samples_bounded_{label}", False, detail=str(exc))
            continue
        report.metrics[f"monotone_{label}"] = check.as_dict()
        report.check(f"order_preserved_{label}", check.violations == 0,
                     value=float(check.violations), bound=0.0,
                     detail=f"worst margin {check.worst_margin}")
        report.traces.append((i, 0.0, f"worst_margin_{label}", 0, check.worst_margin))


def _run_bracketing(p, fibers, report: RunReport, out_dir: Path) -> None:
    u = p.input
    probe = fibers[: min(len(fibers), 20)]
    pairs = [monotone.brackets(u, tau, p.horizon) for tau in p.taus]
    gaps = []
    for pair in pairs:
        mid = u.over(probe, pair.grid)
        lower, upper = pair.over(probe, pair.grid)
        gaps += [lower - mid, mid - upper]
    # from 0.0 the fold is the largest gap, or NaN, whatever the order
    worst_violation = _fold_max(0.0, [np.max(gap) for gap in gaps])
    report.check("sandwich", worst_violation <= 0.0, value=worst_violation, bound=0.0)

    bounds = [pair.across(probe) for pair in pairs]
    worst_tau = _fold_max(0.0, [np.max(gap) for (lo, hi), (lo_next, hi_next)
                                in zip(bounds, bounds[1:]) for gap in (lo - lo_next, hi_next - hi)])
    report.check("envelopes_monotone_in_tau", worst_tau <= 0.0, value=worst_tau, bound=0.0)
    for i in range(len(probe)):
        for (lo, hi), tau in zip(bounds, p.taus):
            report.traces.append((i, tau, "lower_envelope", 0, float(lo[i, 0])))
            report.traces.append((i, tau, "upper_envelope", 0, float(hi[i, 0])))


def _run_cics(p, fibers, report: RunReport, out_dir: Path) -> None:
    sys_flow = linear.as_system(p.system)
    u = decaying_input(p.limit, p.disturbance, rate=p.rate, time_kind=sys_flow.time_kind)
    # the order property the theorem assumes, probed by sampling
    mono = monotone.check_monotone(sys_flow, monotone.OrthantOrder(sys_flow.state_dim),
                                   samples=p.monotone_samples, seed=report.seed)
    limit = fiberwise(1, lambda ws: linear.characteristic(p.system, p.limit, ws,
                                                          tol=p.oracle_tol))
    result = monotone.cics_experiment(sys_flow, limit, u, p.limit, p.initial_states,
                                      p.schedule, p.tol, fibers)
    report.metrics["cics"] = {"monotone": mono.as_dict(), **result.as_dict()}
    report.check("monotone_precondition", mono.passed, value=float(mono.violations), bound=0.0)
    report.check("pullback_converges_to_limit_characteristic", result.converged,
                 value=result.max_final_residual, bound=p.tol,
                 detail=f"worst fiber {result.worst_fiber}")
    report.extend_traces(result.traces)


def _run_cascade(p, fibers, report: RunReport, out_dir: Path) -> None:
    up_flow, h1 = p.upstream, p.output
    casc = compose.cascade(up_flow, h1, p.downstream)
    times = list(range(0, p.horizon + 1, p.time_step))
    probe = fibers[: p.probe_fibers]
    rng = np.random.default_rng(report.seed)
    dim = casc.combined.state_dim

    zs = [constant_rv(rng.uniform(-1.5, 1.5, size=dim)) for _ in range(p.initial_states)]
    worst_fwd = compose.verify_cascade_forward(casc, zs, times, probe).max_residual
    worst_pb = compose.verify_cascade_pullback(casc, zs, times, probe).max_residual
    report.check("serial_decomposition", worst_fwd == 0.0, value=worst_fwd, bound=0.0)
    report.check("pullback_projection", worst_pb == 0.0, value=worst_pb, bound=0.0)

    # shifted-start output trajectory identity for the upstream block
    gen1 = up_flow.generator
    x = cell_noise(CellLaw("uniform", lo=(-1.0,) * up_flow.state_dim,
                           hi=(1.0,) * up_flow.state_dim), lag=-1)

    def x_hat_rows(ws: Fibers) -> np.ndarray:
        # one step of every row from the state one cell back
        starts = ws.shift(-1)
        return gen1.many(starts, x.across(starts), np.zeros((len(ws), gen1.input_dim)))

    x_hat = fiberwise(up_flow.state_dim, x_hat_rows)
    eta = rdsi.output_traj(up_flow, h1, x)
    eta_hat = rdsi.output_traj(up_flow, h1, x_hat)
    shifted = eta.shift(1)
    rng2 = np.random.default_rng(report.seed + 1)
    ws = rdsi._draw_fibers(rng2, p.shift_identity_samples, "discrete")
    ns = rng2.integers(0, p.horizon + 1, size=p.shift_identity_samples)
    # every sample's fiber read at its own time
    worst_shift_identity = _fold_max(0.0, np.max(np.abs(
        eta_hat.over(ws, ns[:, None]) - shifted.over(ws, ns[:, None]))[:, 0], axis=1))
    report.check("shifted_start_output_identity", worst_shift_identity == 0.0,
                 value=worst_shift_identity, bound=0.0)
    report.extend_traces([
        (0, 0.0, "serial_decomposition_max", 0, worst_fwd),
        (0, 0.0, "pullback_projection_max", 0, worst_pb),
        (0, 0.0, "shifted_start_output_max", 0, worst_shift_identity),
    ])


def _run_feedback(p, fibers, report: RunReport, out_dir: Path) -> None:
    loop = compose.feedback(p.first, p.first_output, p.second, p.second_output)
    times = list(range(0, p.horizon + 1, p.time_step))
    dim = loop.closed.state_dim
    rng = np.random.default_rng(report.seed)
    zs = [constant_rv(rng.uniform(-1.0, 1.0, size=dim)) for _ in range(p.initial_states)]
    worst = compose.verify_feedback(loop, zs, times, fibers[:5]).max_residual
    report.check("loop_equations", worst == 0.0, value=worst, bound=0.0)

    axioms = rdsi.check_axioms(loop.closed, samples=p.axiom_samples,
                               seed=report.seed, max_time=12.0)
    report.check("closed_loop_contract", axioms.passed,
                 value=_fold_max(axioms.time_zero_max, [axioms.splice_max_rel]), bound=0.0)
    report.extend_traces([(0, 0.0, "loop_equation_max", 0, worst)])


def _run_small_gain(p, fibers, report: RunReport, out_dir: Path) -> None:
    # contractive branch: iterate to the fixed point, then drive the closed
    # loop onto the equilibrium pair that the characteristics give there
    con = p.contractive
    loop, charmap = _gain_table(con, fibers)
    fixed, sg = compose.small_gain_iterate(
        charmap, con.seed_input.across(fibers)[:, 0], max_iters=con.max_iters, tol=con.tol,
    )
    report.metrics["small_gain"] = sg.as_dict()
    report.check("iteration_converged", sg.converged,
                 value=float(sg.iterations), detail=f"rate {sg.rate_estimate}")
    rate_lo, rate_hi = con.rate_band
    report.check("geometric_rate_in_band",
                 sg.rate_estimate is not None and rate_lo <= sg.rate_estimate <= rate_hi,
                 value=sg.rate_estimate, detail=f"band [{rate_lo}, {rate_hi}]")
    report.extend_traces(sg.traces)

    rng = np.random.default_rng(report.seed)
    starts = rng.uniform(-2.0, 2.0, size=(len(fibers), 2))
    horizon = con.closed_horizon
    # the pullback from each start state: one flow from the rewound fiber
    states = loop.closed.many(horizon, fibers.shift(-horizon), starts)
    gaps = np.max(np.abs(states - compose.loop_pair(loop, fibers, fixed, con.tol)), axis=1)
    for i, gap in enumerate(gaps.tolist()):
        report.traces.append((i, float(horizon), "closed_loop_gap", 0, gap))
    worst = _fold_max(0.0, gaps)
    report.check("closed_loop_reaches_equilibrium_pair", worst <= con.closed_tol,
                 value=worst, bound=con.closed_tol)

    # saturating branch: the iteration must expose a period-two pair
    sat = p.saturating
    probe = fibers[: min(len(fibers), 20)]
    _, sg_sat = compose.small_gain_iterate(
        _gain_table(sat, probe)[1], sat.seed_input.across(probe)[:, 0],
        max_iters=sat.max_iters, tol=sat.tol,
    )
    report.metrics["small_gain_saturating"] = sg_sat.as_dict()
    report.check("period_two_detected", sg_sat.period_two_detected,
                 value=float(sg_sat.iterations))


def _gain_table(branch: SimpleNamespace, fibers: Fibers):
    """A small-gain branch's loop, and its composed characteristic
    tabulated on ``fibers``."""
    loop = compose.feedback(branch.first, branch.first_output, branch.second,
                            branch.second_output)
    grid = branch.grid
    return loop, compose.grid_characteristic_map(compose.loop_gain(loop, branch.tol), grid.lo,
                                                 grid.hi, fibers, points=grid.points)


def _target(raw, where, seen) -> tuple[str, dict]:
    """A catalog scenario, read in full: ``(name, parsed scenario)``."""
    catalog = scenario_catalog()
    if not isinstance(raw, str) or raw not in catalog:
        raise ScenarioError(f"{where}: unknown bundled scenario {raw!r}")
    cfg = load_scenario(catalog[raw][0])
    if cfg["experiment"]["kind"] == "determinism":
        raise ScenarioError(f"{where}: refusing to recurse into a determinism scenario")
    read_scenario(cfg)
    return raw, cfg


def _run_determinism(p, fibers, report: RunReport, out_dir: Path) -> None:
    target, target_cfg = p.target
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


# --------------------------------------------------------------------------
# the schema: one table per experiment kind, the reference for its fields,
# defaults and ranges


# points of a decay fit grid or a small-gain grid, at most
_MAX_GRID_POINTS = 10_000
_GRID = {"lo": (_real(), REQUIRED), "hi": (_above("lo"), REQUIRED),
         "points": (_int(2, _MAX_GRID_POINTS), 201)}


def _sampled_time(integral: bool, minimum=0):
    """A number from ``minimum`` (a number, or a function of the fields read
    so far) to ``_MAX_SAMPLED_TIME``."""
    return lambda raw, where, seen: _number(
        raw, where, integral, minimum(seen) if callable(minimum) else minimum, _MAX_SAMPLED_TIME)


def _horizon(raw, where, seen) -> float:
    """A positive pullback horizon of at most ``_MAX_SAMPLED_TIME``; for a
    discrete system an integer of at least 2, so that its tail holds two times."""
    integral = isinstance(seen.system, SystemFlow) and seen.system.is_discrete
    _POSITIVE(raw, where, seen)
    return float(_number(raw, where, integral, 2 if integral else None, _MAX_SAMPLED_TIME))


def _fit_step(raw, where, seen) -> float:
    """A positive step of at most ``_MAX_GRID_POINTS`` points from ``fit_from`` to ``fit_to``."""
    step = _POSITIVE(raw, where, seen)
    if (seen.fit_to + step / 2 - seen.fit_from) / step > _MAX_GRID_POINTS:
        raise ScenarioError(f"{where}: gives more than {_MAX_GRID_POINTS} fit points, got {step!r}")
    return step


def _loop(inputs: int | None = None) -> dict:
    """Two discrete systems closed over each other's outputs; each system
    has ``inputs`` input components, if given."""
    return {"first": (_system(discrete=True, inputs=inputs), REQUIRED),
            "second": (_system(discrete=True, inputs=inputs), REQUIRED),
            "first_output": (_output("first", "second"), REQUIRED),
            "second_output": (_output("second", "first"), REQUIRED)}


def _noise_free(read):
    """``read``, refusing a generator or output map that declares ``noise``:
    the small-gain characteristic freezes the loop input per fiber, which
    a noisy member's input is not."""
    def checked(raw, where, seen):
        value = read(raw, where, seen)
        member = value.generator if isinstance(value, SystemFlow) else value
        if member.noise:
            where += ".generator" if member is not value else ""
            raise ScenarioError(f"{where}.noise: small-gain members must be noise-free")
        return value
    return checked


def _loop_fields(seed_input: float, max_iters: int, **more) -> dict:
    # tol ends the iteration and certifies each characteristic row's depth
    members = {key: (_noise_free(read), default)
               for key, (read, default) in _loop(inputs=1).items()}
    return {**members, "grid": (_mapping(_GRID), REQUIRED),
            "seed_input": (_rv(1), seed_input), "max_iters": (_int(2), max_iters),
            "tol": (_POSITIVE, 1e-10), **more}


# kind -> (runner, fields, the time kind of the probe fibers: fixed, a
# function of the fields, or None for a kind without probe fibers)
_RUNNERS: dict[str, tuple[Callable, dict, Any]] = {
    "axioms": (_run_axioms, {
        "system": (_system(), REQUIRED),
        "fault": (_choice("time_zero"), None),
        "tolerance": (_real(0.0), None),
        "samples": (_int(1, _MAX_COUNT), 500),
        "max_time": (_sampled_time(False), 15.0),
    }, None),
    "roundtrip": (_run_roundtrip, {
        "system": (_system(discrete=True), REQUIRED),
        "evals": (_int(1, _MAX_COUNT), 500),
        "horizon": (_sampled_time(True), 50),
    }, None),
    "equilibrium": (_run_equilibrium, {
        "system": (_system(), REQUIRED),
        "input": (_rv(lambda s: s.system.input_dim), REQUIRED),
        "initial": (_rv(lambda s: s.system.state_dim), 0.0),
        "horizon": (_horizon, 40.0),
        "tol": (_POSITIVE, 1e-9),
        "explicit_candidate": (_rv(lambda s: s.system.state_dim), None),
        "explicit_tol": (_real(0.0), 1e-12),
    }, lambda p: p.system.time_kind),
    "characteristic": (_run_characteristic, {
        "system": (_linear, REQUIRED),
        "input": (_rv(1), REQUIRED),
        "initial": (_rv(1), 0.0),
        "horizon": (_horizon, 40.0),
        "tol": (_POSITIVE, 1e-8),
        "agreement_tol": (_real(0.0), 1e-6),
        "constant_case": (_mapping({
            "a": (_real_that(lambda v: v < 0, "negative"), REQUIRED),
            "b": (_real(), REQUIRED),
            "u": (_real(), REQUIRED),
            "tol": (_POSITIVE, 1e-9),
        }), None),
    }, "continuous"),
    "decay": (_run_decay, {
        "system": (_linear, REQUIRED),
        "input": (_rv(1), REQUIRED),
        "initial": (_rv(1), 0.0),
        "fit_from": (_real(0.0), 5.0),
        "fit_to": (_sampled_time(False, lambda s: s.fit_from), 40.0),
        "fit_step": (_fit_step, 2.5),
        "fraction": (_real(0.0), 0.95),
        "rate": (_POSITIVE, None),
        "fit_floor": (_POSITIVE, 1e-10),
        "bound_horizon": (_sampled_time(True, 1), 30),
    }, "continuous"),
    "monotone": (_run_monotone, {
        "systems": (_labelled_systems, REQUIRED),
        "samples": (_int(1, _MAX_COUNT), 10_000),
        "max_time": (_sampled_time(False), 8.0),
    }, None),
    "bracketing": (_run_bracketing, {
        "time_kind": (_choice(*TIME_KINDS), "continuous"),
        "input": (_input, REQUIRED),
        "taus": (_list(_real(0.0)), [0.0, 2.0, 5.0]),
        "horizon": (_sampled_time(False, lambda s: max(s.taus)), 30.0),
    }, lambda p: p.time_kind),
    "cics": (_run_cics, {
        "system": (_linear, REQUIRED),
        "limit": (_rv(1), REQUIRED),
        "disturbance": (_rv(1), REQUIRED),
        "rate": (_real(), 1.0),
        "initial_states": (_list(_rv(1)), REQUIRED),
        "schedule": (_list(_sampled_time(False)), [5, 10, 20, 30, 40]),
        "tol": (_POSITIVE, 1e-4),
        "oracle_tol": (_POSITIVE, 1e-9),
        "monotone_samples": (_int(1, _MAX_COUNT), 300),
    }, "continuous"),
    "cascade": (_run_cascade, {
        # the shifted-start identity runs the upstream block on its own
        "upstream": (_system(discrete=True, inputs=0), REQUIRED),
        "downstream": (_system(discrete=True), REQUIRED),
        "output": (_output("upstream", "downstream"), REQUIRED),
        "horizon": (_sampled_time(True), 40),
        "time_step": (_int(1), 4),
        "initial_states": (_int(1, _MAX_COUNT), 200),
        "probe_fibers": (_int(1), 3),
        "shift_identity_samples": (_int(1, _MAX_COUNT), 200),
    }, "discrete"),
    "feedback": (_run_feedback, {
        **_loop(),
        "horizon": (_sampled_time(True), 40),
        "time_step": (_int(1), 4),
        "initial_states": (_int(1, _MAX_COUNT), 50),
        "axiom_samples": (_int(1, _MAX_COUNT), 100),
    }, "discrete"),
    "small-gain": (_run_small_gain, {
        "contractive": (_mapping(_loop_fields(0.0, 80, rate_band=(_number_pair, [0.4, 0.6]),
                                              closed_horizon=(_sampled_time(True), 60),
                                              closed_tol=(_real(0.0), 1e-4))), REQUIRED),
        "saturating": (_mapping(_loop_fields(3.0, 120)), REQUIRED),
    }, "discrete"),
    "determinism": (_run_determinism, {"target": (_target, REQUIRED)}, None),
}

_TOP = {"seed": (_int(0), 0), "fibers": (_int(0, _MAX_COUNT), 100)}
# the probe fibers' offset by their time kind; a kind without fibers ignores it
_OFFSET = {None: (lambda raw, where, seen: None, None), "discrete": (_int(), 0),
           "continuous": (_real(), 0.25)}
# libyaml's safe parser where PyYAML has it; both build the same data
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


# --------------------------------------------------------------------------
# scenario loading and execution


def _experiment_kind(cfg: Any, where: str) -> str:
    if not isinstance(cfg, dict):
        raise ScenarioError(f"{where}: scenario must be a mapping")
    exp = cfg.get("experiment")
    if not isinstance(exp, dict) or "kind" not in exp:
        raise ScenarioError(f"{where}: missing experiment.kind")
    kind = exp["kind"]
    if not isinstance(kind, str) or kind not in _RUNNERS:
        raise ScenarioError(f"{where}: unknown experiment kind {kind!r}; known: {sorted(_RUNNERS)}")
    return kind


def load_scenario(path: Path | str) -> dict:
    """Parse one scenario file and check its experiment kind."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        cfg = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioError(f"{path}: YAML parse error{where}: {exc}") from exc
    _experiment_kind(cfg, str(path))
    return cfg


def read_scenario(cfg: Any) -> tuple[str, SimpleNamespace, SimpleNamespace]:
    """Read and check every field of a parsed scenario, in one pass that
    samples nothing: ``(kind, top-level fields, experiment fields)``."""
    kind = _experiment_kind(cfg, "scenario")
    _, fields, fiber_time = _RUNNERS[kind]
    p = _read(cfg["experiment"], {"kind": _AS_IS, **fields}, "experiment")
    time_kind = fiber_time(p) if callable(fiber_time) else fiber_time
    top = _read(cfg, {**_TOP, "fiber_offset": _OFFSET[time_kind], "name": _AS_IS,
                      "description": _AS_IS, "experiment": _AS_IS}, "")
    if time_kind is not None and top.fibers < 1:
        raise ScenarioError(f"fibers: need at least one fiber, got {top.fibers!r}")
    if kind == "decay" and top.fibers < 3:  # the envelope's standard error needs three
        raise ScenarioError(f"fibers: the decay envelope needs at least three fibers, "
                            f"got {top.fibers!r}")
    return kind, top, p


def execute_scenario(cfg: Mapping, name: str, out_dir: Path) -> RunReport:
    """Read, run and write one parsed scenario into ``out_dir`` as ``name``."""
    _name(name, "name")
    kind, top, p = read_scenario(cfg)
    report = RunReport(scenario=name, experiment=kind, seed=top.seed, fibers=top.fibers)
    fibers = (None if top.fiber_offset is None
              else fiber_grid(top.fibers, seed=top.seed, offset=top.fiber_offset))
    try:
        _RUNNERS[kind][0](p, fibers, report, out_dir)
    except linear.DivergenceError as exc:
        # the scenario is well formed, but its limit does not exist
        report.check("characteristic_certified", False, detail=str(exc))
    except UnboundedSampleError as exc:
        # the scenario is well formed, but a variable it samples is unbounded
        report.check("samples_bounded", False, detail=str(exc))
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
            notes = []
            if a.value is not None:
                notes.append(f"value={a.value:.6g}")
            if a.bound is not None:
                notes.append(f"bound={a.bound:.6g}")
            if a.detail:
                notes.append(a.detail)
            print(f"{status} {report.scenario}:{a.name}" + (
                f" ({', '.join(notes)})" if notes else ""))
        print(("all checks passed" if report.all_passed else "CHECKS FAILED")
              + f" [{report.scenario}]")
    return EXIT_OK if report.all_passed else EXIT_ASSERTION


def _cmd_list(args) -> int:
    catalog = scenario_catalog()
    for name in sorted(catalog):
        paths = catalog[name]
        for i, p in enumerate(paths):
            try:
                cfg = yaml.load(p.read_text(encoding="utf-8"), Loader=_YAML_LOADER) or {}
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
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader has gone (say, `| head`): exit quietly, the rest to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
