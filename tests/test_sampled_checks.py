"""Block-drawn contract and order checks against their per-row reference,
and the batched flows they run on."""

import math

import numpy as np
import pytest
import yaml

from rdsio import cli, discrete, linear
from rdsio.exprs import compile_generator
from rdsio.monotone import OrthantOrder, check_monotone
from rdsio.mpds import CellLaw, Fiber, cell_noise, constant_rv, fiber_grid
from rdsio.process import constant
from rdsio.rdsi import (
    _BLOCK,
    SystemFlow,
    _draw_time,
    check_axioms,
    estimate_characteristic,
    random_input,
)

NOISE = CellLaw("uniform", lo=(-0.5,), hi=(0.5,))
AFFINE = {
    "state_dim": 2,
    "input_dim": 1,
    "noise": {"law": "uniform", "lo": [-0.5], "hi": [0.5]},
    "components": [
        {"op": "add", "args": [
            {"op": "scale", "factor": 0.5, "arg": {"op": "state", "index": 0}},
            {"op": "input", "index": 0},
            {"op": "noise", "index": 0},
        ]},
        # wide enough that the worst order margin is not a tie at a bound
        {"op": "clamp", "lo": -5.0, "hi": 5.0, "arg": {"op": "add", "args": [
            {"op": "scale", "factor": 0.3, "arg": {"op": "state", "index": 1}},
            {"op": "state", "index": 0},
        ]}},
    ],
}
BLOW_UP = {"state_dim": 1, "components": [
    {"op": "scale", "factor": 1e300, "arg": {"op": "state", "index": 0}}]}


def _system(kind: str) -> SystemFlow:
    if kind == "linear":
        return linear.as_system(linear.LinearCoeffs(
            a=cell_noise(CellLaw("uniform", lo=(-2.0,), hi=(-0.5,))),
            b=cell_noise(CellLaw("uniform", lo=(0.2,), hi=(1.0,))),
        ))
    if kind == "compiled":
        return discrete.flow_from_generator(compile_generator(AFFINE))
    noise = cell_noise(NOISE)
    hand = discrete.flow_from_generator(
        discrete.Generator(1, 1, lambda w, x, u: 0.5 * x + noise(w) + u))
    if kind == "hand":
        return hand

    # the planted fault of the axioms runner: not the identity at t = 0
    def broken(t, w, x, u):
        return x + 1.0 if t == 0 else hand.flow(t, w, x, u)

    return SystemFlow(1, 1, "discrete", broken, label="fault")


def _axioms_per_row(sys, samples, seed, max_time, state_scale=1.5):
    """``check_axioms``' clause maxima as one flow per tuple computes them."""
    rng = np.random.default_rng(seed)

    def family(r):
        return random_input(r, sys.input_dim, sys.time_kind, max_splice=max_time)

    worst = [0.0, 0.0, 0.0]
    for _ in range(samples):
        w = Fiber(int(rng.integers(0, 2**32)),
                  0 if sys.is_discrete else float(rng.uniform(0.0, 1.0)))
        x = rng.uniform(-state_scale, state_scale, size=sys.state_dim)
        u = family(rng) if sys.input_dim else None
        v = family(rng) if sys.input_dim else None
        s = _draw_time(rng, sys.time_kind, max_time)
        t = _draw_time(rng, sys.time_kind, max_time)
        worst[0] = max(worst[0], float(np.max(np.abs(sys(0, w, x, u) - x))))
        y = sys(s, w, x, u)
        z = sys(t, w.shift(s), y, v)
        lhs = sys(s + t, w, x, u.concat(v, s) if u is not None else None)
        worst[1] = max(worst[1], float(np.max(np.abs(lhs - z)) / (1.0 + np.max(np.abs(z)))))
        if u is not None:
            patched = u.concat(family(rng), t)
            worst[2] = max(worst[2], float(np.max(np.abs(sys(t, w, x, u) - sys(t, w, x, patched)))))
    return tuple(worst)


def _monotone_per_row(sys, samples, seed, max_time, gap_range=(0.1, 1.0), state_scale=1.5):
    """``check_monotone``'s violations and worst margin, one flow per draw."""
    rng = np.random.default_rng(seed)
    slack = 0.0 if sys.is_discrete else 1e-12
    violations, worst = 0, math.inf
    for _ in range(samples):
        w = Fiber(int(rng.integers(0, 2**32)),
                  0 if sys.is_discrete else float(rng.uniform(0.0, 1.0)))
        if sys.is_discrete:
            t = int(rng.integers(0, int(max_time) + 1))
        else:
            t = float(rng.uniform(0.0, max_time))
        x = rng.uniform(-state_scale, state_scale, size=sys.state_dim)
        z = x + rng.uniform(*gap_range, size=sys.state_dim)
        u = random_input(rng, sys.input_dim, sys.time_kind, max_splice=max_time)
        v = u + constant(rng.uniform(*gap_range, size=sys.input_dim), sys.time_kind)
        margin = float(np.min(sys(t, w, z, v) - sys(t, w, x, u)))
        worst = min(worst, margin)
        if margin < -slack:
            violations += 1
    return violations, worst


@pytest.mark.parametrize("samples", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
@pytest.mark.parametrize("kind", ["linear", "compiled", "hand", "fault"])
def test_check_axioms_equals_the_per_row_reference(kind, samples):
    sys = _system(kind)
    max_time = 6.0
    rep = check_axioms(sys, samples=samples, seed=samples, max_time=max_time)
    ref = _axioms_per_row(sys, samples, samples, max_time)
    assert (rep.time_zero_max, rep.splice_max_rel, rep.locality_max) == ref
    assert rep.samples == samples
    assert rep.passed == (kind != "fault")


@pytest.mark.parametrize("samples", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
@pytest.mark.parametrize("kind", ["linear", "compiled", "hand", "fault"])
def test_check_monotone_equals_the_per_row_reference(kind, samples):
    sys = _system(kind)
    rep = check_monotone(sys, OrthantOrder(sys.state_dim), samples=samples, seed=samples,
                         max_time=6.0)
    assert (rep.violations, rep.worst_margin) == _monotone_per_row(sys, samples, samples, 6.0)
    assert rep.samples == samples


@pytest.mark.filterwarnings("ignore:overflow|invalid value:RuntimeWarning")
def test_non_finite_flows_fail_the_sampled_checks():
    sys = discrete.flow_from_generator(compile_generator(BLOW_UP))
    rep = check_monotone(sys, OrthantOrder(1), samples=200, seed=3, max_time=8)
    assert rep.violations > 0
    assert not rep.passed
    assert math.isfinite(rep.worst_margin)  # the least margin that is not NaN
    axioms = check_axioms(sys, samples=200, seed=3, max_time=8)
    assert math.isnan(axioms.splice_max_rel)
    assert not axioms.passed
    with pytest.raises(ValueError, match="at least one sample"):
        check_monotone(sys, OrthantOrder(1), samples=0)


@pytest.mark.filterwarnings("ignore:overflow|invalid value:RuntimeWarning")
@pytest.mark.parametrize("kind, runner_fields", [
    ("axioms", {"samples": 50, "max_time": 8, "system": {"kind": "discrete",
                                                         "generator": BLOW_UP}}),
    ("monotone", {"samples": 50, "max_time": 8, "systems": [{"kind": "discrete",
                                                             "generator": BLOW_UP}]}),
])
def test_non_finite_flows_exit_one_without_a_traceback(tmp_path, capsys, kind, runner_fields):
    path = tmp_path / "blow_up.yaml"
    path.write_text(yaml.safe_dump({"name": "blow_up", "seed": 3, "fibers": 2,
                                    "experiment": {"kind": kind, **runner_fields}}))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_ASSERTION
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err


def test_non_finite_expression_constant_exits_two(tmp_path, capsys):
    path = tmp_path / "nan_clamp.yaml"
    path.write_text(
        "name: nan_clamp\nseed: 1\nfibers: 2\nexperiment:\n  kind: axioms\n  samples: 5\n"
        "  system:\n    kind: discrete\n    generator:\n      state_dim: 1\n"
        "      components:\n        - {op: clamp, lo: .nan, hi: 1.0, arg: {op: state}}\n")
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert "components[0].lo: expected a finite number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["compiled", "hand", "fault"])
def test_many_with_a_time_and_an_input_per_row_equals_pointwise_flows(kind):
    sys = _system(kind)
    rng = np.random.default_rng(4)
    fibers = [Fiber(int(s), int(o)) for s, o in zip(rng.integers(0, 2**32, 30),
                                                    rng.integers(-4, 4, 30))]
    times = [int(t) for t in rng.integers(0, 9, 30)]
    times[:3] = [0, 0, 8]
    xs = rng.uniform(-1.5, 1.5, (30, sys.state_dim))
    inputs = [random_input(rng, 1, "discrete", 8.0) for _ in fibers]
    got = sys.many(times, fibers, xs, inputs)
    ref = np.array([sys(t, w, x, u) for t, w, x, u in zip(times, fibers, xs, inputs)])
    assert got.tobytes() == ref.tobytes()
    # a shared time or a shared input is the same as repeating it per row
    assert sys.many(5, fibers, xs, inputs).tobytes() == sys.many([5] * 30, fibers, xs,
                                                                   inputs).tobytes()
    assert sys.many(times, fibers, xs, inputs[0]).tobytes() == sys.many(
        times, fibers, xs, [inputs[0]] * 30).tobytes()


def test_compiled_flow_steps_rows_without_the_scalar_step():
    gen = compile_generator(AFFINE)
    calls = []
    counted = discrete.Generator(gen.state_dim, gen.input_dim,
                                 lambda *a: calls.append(1) or gen.fn(*a), columns=gen.columns)
    sys = discrete.flow_from_generator(counted)
    fibers = fiber_grid(12, seed=50)
    u = constant([0.25], "discrete")
    got = sys.many(list(range(12)), fibers, np.zeros((12, 2)), u)
    assert not calls
    ref = np.array([sys(t, w, np.zeros(2), u) for t, w in zip(range(12), fibers)])
    assert got.tobytes() == ref.tobytes()
    # with no input at all, a system with an input channel steps row by row
    ungated = discrete.flow_from_generator(compile_generator({**AFFINE, "components": [
        {"op": "state", "index": 1}, {"op": "noise"}]}))
    assert ungated.many(3, fibers, np.ones((12, 2))).tobytes() == np.array(
        [ungated(3, w, np.ones(2)) for w in fibers]).tobytes()


def test_many_validates_per_row_arguments():
    sys = _system("compiled")
    fibers = fiber_grid(3, seed=2)
    xs = np.zeros((3, 2))
    u = constant([0.0], "discrete")
    with pytest.raises(ValueError, match="one time and one input per fiber"):
        sys.many([1, 2], fibers, xs, u)
    with pytest.raises(ValueError, match="one time and one input per fiber"):
        sys.many(1, fibers, xs, [u])
    with pytest.raises(ValueError, match="t >= 0"):
        sys.many([1, -1, 2], fibers, xs, u)
    with pytest.raises(ValueError, match="integer times"):
        sys.many([1, 1.5, 2], fibers, xs, u)
    with pytest.raises(ValueError, match="input has dimension 2"):
        sys.many([1, 1, 1], fibers, xs, [u, u, constant([0.0, 1.0], "discrete")])
    with pytest.raises(ValueError, match="input value has dimension 2"):
        # a process that says it is scalar but reads pairs
        liar = constant([0.0, 1.0], "discrete")
        object.__setattr__(liar, "dim", 1)
        sys.many([1, 1, 1], fibers, xs, liar)


def test_random_variable_reads_a_row_of_times_per_fiber():
    rv = cell_noise(NOISE, lag=1) + constant_rv([0.5])
    opaque = rv.map(lambda v: 2.0 * v)
    estimate, _ = estimate_characteristic(_system("linear"), cell_noise(NOISE), rv, horizon=8.0,
                                          tol=1e-3, fibers=fiber_grid(2, offset=0.25))
    fibers = [Fiber(3, 0.25), Fiber(9, -1.5)]
    times = np.array([[0.0, 0.5, 2.75], [1.0, 3.5, 0.0]])
    for var in (rv, opaque, estimate):
        got = var.over(fibers, times)
        ref = np.array([[var(w.shift(t)) for t in row] for w, row in zip(fibers, times.tolist())])
        assert got.shape == (2, 3, 1)
        assert got.tobytes() == ref.tobytes()
