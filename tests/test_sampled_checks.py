"""Block-drawn contract and order checks against their per-row reference,
and the batched flows they run on."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import yaml

from rdsio import cli, discrete, linear, rdsi
from rdsio.cli import compile_generator
from rdsio.monotone import OrthantOrder, _monotone_draws, check_monotone
from rdsio.mpds import CellLaw, Fiber, Fibers, cell_noise, fiber_grid
from rdsio.process import InputTable, constant, stationary
from rdsio.rdsi import (_BLOCK, SystemFlow, _axiom_draws, check_axioms, draw_inputs,
                        estimate_characteristic)
import reference_process as ref
from reference_inputs import tree
from reference_process import batch, pointwise_process, pointwise_variable

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
    hand = discrete.flow_from_generator(discrete.Generator(
        1, 1, lambda seeds, offsets, xs, us, cells: (
            0.5 * xs + noise.across(Fibers(seeds, offsets)) + us)))
    if kind == "hand":
        return hand

    # the planted fault of the axioms runner: not the identity at t = 0
    def broken(t, ws, xs, u):
        at_zero = np.reshape(np.equal(t, 0), (-1, 1))
        return np.where(at_zero, xs + 1.0, hand.many(t, ws, xs, u))

    return SystemFlow(1, 1, "discrete", broken)


def _axioms_per_row(sys, samples, seed, max_time):
    """``check_axioms``' clause maxima as one flow per tuple computes them,
    on the tuples it draws, each under its own one-row input tables."""
    worst = [0.0, 0.0, 0.0]
    for ws, xs, ss, ts, inputs in _axiom_draws(sys, samples, seed, max_time):
        for r, (w, x, s, t) in enumerate(zip(ws, xs, ss.tolist(), ts.tolist())):
            # rows 3r, 3r + 1 and 3r + 2: the tuple's u, v and patch
            u, v, after = (inputs[3 * r + j:3 * r + j + 1] if sys.input_dim else None
                           for j in range(3))
            worst[0] = max(worst[0], float(np.max(np.abs(sys(0, w, x, u) - x))))
            y = sys(s, w, x, u)
            z = sys(t, w.shift(s), y, v)
            lhs = sys(s + t, w, x, u.concat(v, [s]) if u is not None else None)
            worst[1] = max(worst[1], float(np.max(np.abs(lhs - z)) / (1.0 + np.max(np.abs(z)))))
            if u is not None:
                patched = u.concat(after, [t])
                worst[2] = max(worst[2], float(np.max(np.abs(sys(t, w, x, u)
                                                             - sys(t, w, x, patched)))))
    return tuple(worst)


def _monotone_per_row(sys, samples, seed, max_time):
    """``check_monotone``'s violations and worst margin, one flow per draw,
    on the tuples it draws, each under its own one-row input tables."""
    slack = 0.0 if sys.is_discrete else 1e-12
    violations, worst = 0, math.inf
    for ws, ts, xs, zs, us, lifts in _monotone_draws(sys, samples, seed, max_time):
        for r, (w, t, x, z) in enumerate(zip(ws, ts.tolist(), xs, zs)):
            u = us[r:r + 1]
            v = replace(u, lift=lifts[r:r + 1])  # u plus the row's gap
            margin = float(np.min(sys(t, w, z, v) - sys(t, w, x, u)))
            worst = min(worst, margin)
            if margin < -slack:
                violations += 1
    return violations, worst


def _batchings(samples, extent, monkeypatch):
    """Set the batch budget of the sampled checks, whose tuples flow over
    ``extent``, to its default (which holds every tuple here), to one
    block and to every block at once, and yield, for each, the rows of its
    largest batch."""
    assert samples * extent <= rdsi._BATCH_VALUES
    for entries, largest in ((rdsi._BATCH_VALUES, samples),
                             (_BLOCK * extent, min(samples, _BLOCK)),
                             (samples * extent, samples)):
        monkeypatch.setattr(rdsi, "_BATCH_VALUES", entries)
        yield largest


def _sized(sys, sizes):
    """``sys`` recording the number of rows of each batched flow."""
    return SystemFlow(sys.state_dim, sys.input_dim, sys.time_kind,
                      lambda t, ws, xs, u: sizes.append(len(ws)) or sys.flow(t, ws, xs, u),
                      sys.generator)


@pytest.mark.parametrize("samples", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
@pytest.mark.parametrize("kind", ["linear", "compiled", "hand", "fault"])
def test_check_axioms_equals_the_per_row_reference(kind, samples, monkeypatch):
    # in batches of the default budget, of one block and of every block
    sys, sizes = _system(kind), []
    max_time = 6.0
    ref = _axioms_per_row(sys, samples, samples, max_time)
    for largest in _batchings(samples, 2 * max_time, monkeypatch):
        sizes.clear()
        rep = check_axioms(_sized(sys, sizes), samples=samples, seed=samples, max_time=max_time)
        assert (rep.time_zero_max, rep.splice_max_rel, rep.locality_max) == ref
        assert rep.samples == samples
        assert rep.passed == (kind != "fault")
        assert max(sizes) == largest


@pytest.mark.parametrize("samples", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
@pytest.mark.parametrize("kind", ["linear", "compiled", "hand", "fault"])
def test_check_monotone_equals_the_per_row_reference(kind, samples, monkeypatch):
    # in batches of the default budget, of one block and of every block
    sys, sizes = _system(kind), []
    ref = _monotone_per_row(sys, samples, samples, 6.0)
    for largest in _batchings(samples, 6.0, monkeypatch):
        sizes.clear()
        rep = check_monotone(_sized(sys, sizes), OrthantOrder(sys.state_dim), samples=samples,
                             seed=samples, max_time=6.0)
        assert (rep.violations, rep.worst_margin) == ref
        assert rep.samples == samples
        assert max(sizes) == largest


@pytest.mark.parametrize("kind", ["hand", "linear"])
def test_sampled_checks_at_max_time_zero_equal_the_per_row_reference(kind):
    # a time extent of zero counts one value per tuple
    sys = _system(kind)
    rep = check_axioms(sys, samples=_BLOCK + 1, seed=3, max_time=0)
    assert (rep.time_zero_max, rep.splice_max_rel, rep.locality_max) == _axioms_per_row(
        sys, _BLOCK + 1, 3, 0)
    rep = check_monotone(sys, OrthantOrder(1), samples=_BLOCK + 1, seed=3, max_time=0)
    assert (rep.violations, rep.worst_margin) == _monotone_per_row(sys, _BLOCK + 1, 3, 0)


@pytest.mark.parametrize("kind", ["linear", "compiled"])
def test_the_memory_of_a_sampled_check_is_bounded_as_samples_grow(kind, monkeypatch):
    # batches of eight blocks: twenty batches peak as one batch does
    sys = _system(kind)
    monkeypatch.setattr(rdsi, "_BATCH_VALUES", 8 * _BLOCK * 6.0)
    peaks = []
    for samples in (8 * _BLOCK, 8 * _BLOCK, 160 * _BLOCK):  # the first warms up
        tracemalloc.start()
        try:
            check_monotone(sys, OrthantOrder(sys.state_dim), samples=samples, seed=2,
                           max_time=6.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] <= 1.5 * peaks[1]


def _depths(table) -> np.ndarray:
    """The depth of every node of a drawn table, checking that each node
    is a root or the head or tail of exactly one splice."""
    nodes = table.nodes
    depth = np.full(len(nodes.split), -1)
    level, d = table.roots, 0
    while level.size:
        assert (depth[level] == -1).all()
        depth[level] = d
        splice = level[nodes.head[level] != level]
        level, d = np.concatenate([nodes.head[splice], nodes.tail[splice]]), d + 1
    assert (depth >= 0).all()
    return depth


@pytest.mark.parametrize("time_kind", ["discrete", "continuous"])
def test_drawn_inputs_follow_the_default_family(time_kind):
    count, dim, max_splice = 20_000, 2, 6.5
    table = draw_inputs(np.random.default_rng(17), count, dim, time_kind, max_splice)
    nodes, depth = table.nodes, _depths(table)
    assert len(table) == count and table.lift is None
    splice = nodes.head != np.arange(depth.size)
    cell = nodes.uniform
    assert not (cell & splice).any()
    assert (nodes.tail[~splice] == np.flatnonzero(~splice)).all()
    # per depth, the kinds are uniform over constant, two cell draws and
    # (at depths 0 and 1) a splice; depth 2 has no splices
    assert depth.max() == 2
    for d, shares in ((0, (1, 2, 1)), (1, (1, 2, 1)), (2, (1, 2, 0))):
        at = depth == d
        n = int(np.count_nonzero(at))
        for share, kind in zip(shares, (~cell & ~splice, cell, splice)):
            p = share / sum(shares)
            assert abs(np.count_nonzero(kind & at) - n * p) <= 5 * math.sqrt(n * p * (1 - p)) + 1
    assert np.count_nonzero(depth == 0) == count
    assert np.count_nonzero(depth == 1) == 2 * np.count_nonzero(splice & (depth == 0))
    # every field in its range, and zero where it does not apply
    constant_value = nodes.value[~cell & ~splice]
    assert ((-1.5 <= constant_value) & (constant_value <= 1.5)).all()
    lo, width = nodes.lo[cell], nodes.hi[cell] - nodes.lo[cell]
    assert ((-2.0 <= lo) & (lo <= 0.0)).all()
    assert ((0.2 - 1e-12 <= width) & (width <= 2.0 + 1e-12)).all()
    assert set(nodes.lag[cell].tolist()) == set(range(-3, 4))
    split = nodes.split[splice]
    assert ((0 <= split) & (split <= max_splice)).all()
    if time_kind == "discrete":
        assert nodes.split.dtype == np.int64
        assert set(split.tolist()) == set(range(7))
    else:
        assert nodes.split.dtype == np.float64
    for field in (nodes.value[cell | splice], nodes.lo[~cell], nodes.hi[~cell],
                  nodes.lag[~cell], nodes.split[~splice]):
        assert not field.any()


class _CountingRng:
    """A generator that counts its draws."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        self.calls += 1
        return getattr(self.rng, name)


@pytest.mark.parametrize("kind", ["linear", "compiled"])
def test_a_block_of_tuples_is_a_fixed_number_of_draws(kind, monkeypatch):
    sys = _system(kind)
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(_CountingRng(default_rng(seed))) or made[-1])
    for draws in (lambda k: _monotone_draws(sys, k, 5, 6.0),
                  lambda k: _axiom_draws(sys, k, 5, 6.0)):
        calls = []
        for k in (64, _BLOCK):
            next(draws(k))
            calls.append(made[-1].calls)
        assert calls[0] == calls[1] <= 25


def test_the_sampled_checks_draw_no_fiber_objects(monkeypatch):
    made = []
    init = Fiber.__init__
    monkeypatch.setattr(Fiber, "__init__", lambda self, *a: made.append(a) or init(self, *a))
    for kind in ("linear", "compiled", "hand"):
        sys = _system(kind)
        check_monotone(sys, OrthantOrder(sys.state_dim), samples=_BLOCK + 1, seed=1)
        check_axioms(sys, samples=_BLOCK + 1, seed=1)
    assert made == []


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
    table = draw_inputs(rng, 30, 1, "discrete", 8.0)
    ws = batch(fibers)
    got = sys.many(times, ws, xs, table)
    ref = np.array([sys(t, w, x, table[r:r + 1])
                    for r, (t, w, x) in enumerate(zip(times, fibers, xs))])
    assert got.tobytes() == ref.tobytes()
    # a shared time is the same as repeating it per row
    assert sys.many(5, ws, xs, table).tobytes() == sys.many([5] * 30, ws, xs,
                                                              table).tobytes()
    # a shared input is each row's one-row flow under it: a splice tree
    # of the pointwise reference, read point by point
    shared = pointwise_process(1, "discrete", tree(draw_inputs(rng, 1, 1, "discrete", 8.0), 0))
    assert sys.many(times, ws, xs, shared).tobytes() == np.array(
        [sys(t, w, x, shared) for t, w, x in zip(times, fibers, xs)]).tobytes()


@pytest.mark.parametrize("kind", ["linear", "compiled", "hand", "fault"])
def test_many_reads_an_input_table_as_its_process_trees(kind, monkeypatch):
    # a drawn table, and each of its rows flowed alone
    sys = _system(kind)
    rng = np.random.default_rng(9)
    discrete_time = sys.is_discrete
    fibers = [Fiber(int(s), int(o) if discrete_time else float(o) + 0.25)
              for s, o in zip(rng.integers(0, 2**32, 40), rng.integers(-4, 4, 40))]
    times = [int(t) if discrete_time else float(t) for t in rng.integers(0, 9, 40)]
    times[:2] = [0, 8]
    xs = rng.uniform(-1.5, 1.5, (40, sys.state_dim))
    table = draw_inputs(rng, 40, 1, sys.time_kind, 8.0)
    rows = [table[r:r + 1] for r in range(40)]
    ref = np.array([sys(t, w, x, u) for t, w, x, u in zip(times, fibers, xs, rows)])
    monkeypatch.setattr(linear, "_CHUNK_VALUES", 40)  # a few rows per linear chunk
    assert sys.many(times, batch(fibers), xs, table).tobytes() == ref.tobytes()
    # the rows themselves, one table per row, are not an input form
    with pytest.raises(ValueError, match="one Process shared by every fiber, or an InputTable"):
        sys.many(times, batch(fibers), xs, rows)


def test_compiled_flow_steps_rows_without_the_scalar_step():
    gen = compile_generator(AFFINE)
    calls = []
    counted = replace(gen, fn=lambda *a: calls.append(len(a[2])) or gen.fn(*a))
    sys = discrete.flow_from_generator(counted)
    fibers = fiber_grid(12, seed=50)
    u = constant([0.25], "discrete")
    got = sys.many(list(range(12)), fibers, np.zeros((12, 2)), u)
    # one step of all live rows per time: the rows whose horizon exceeds it
    assert calls == list(range(11, 0, -1))
    ref = np.array([sys(t, w, np.zeros(2), u) for t, w in zip(range(12), fibers)])
    assert got.tobytes() == ref.tobytes()
    # with no input at all, a system with an input channel steps its rows
    # with empty input values, which a step that reads none accepts
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
        sys.many(1, fibers, xs, InputTable.constants(np.zeros((2, 1)), "discrete"))
    with pytest.raises(ValueError, match="one Process shared by every fiber, or an InputTable"):
        sys.many(1, fibers, xs, [u])
    with pytest.raises(ValueError, match="t >= 0"):
        sys.many([1, -1, 2], fibers, xs, u)
    with pytest.raises(ValueError, match="integer times"):
        sys.many([1, 1.5, 2], fibers, xs, u)
    with pytest.raises(ValueError, match="input has dimension 2"):
        sys.many([1, 1, 1], fibers, xs, InputTable.constants(np.zeros((3, 2)), "discrete"))
    with pytest.raises(ValueError, match="input value has dimension 2"):
        # a process that says it is scalar but reads pairs
        liar = constant([0.0, 1.0], "discrete")
        object.__setattr__(liar, "dim", 1)
        sys.many([1, 1, 1], fibers, xs, liar)


def test_random_variable_reads_a_row_of_times_per_fiber():
    rv = cell_noise(NOISE, lag=1)
    rv_ref = ref.cell_noise(NOISE, lag=1)
    doubled = lambda w: 2.0 * rv_ref(w)  # noqa: E731
    sys = _system("linear")
    estimate = estimate_characteristic(sys, cell_noise(NOISE), rv, horizon=8.0, tol=1e-3,
                                       fibers=fiber_grid(2, offset=0.25)).estimate
    # the estimate as it was read pointwise: the pullback state at the horizon
    traj = ref.pullback_traj(sys, rv_ref, stationary(cell_noise(NOISE), "continuous"))
    fibers = [Fiber(3, 0.25), Fiber(9, -1.5)]
    times = np.array([[0.0, 0.5, 2.75], [1.0, 3.5, 0.0]])
    for var, pointwise in ((rv, rv_ref), (pointwise_variable(1, doubled), doubled),
                           (estimate, lambda w: traj(8.0, w))):
        got = var.over(batch(fibers), times)
        want = np.array([[pointwise(w.shift(t)) for t in row]
                         for w, row in zip(fibers, times.tolist())])
        assert got.shape == (2, 3, 1)
        assert got.tobytes() == want.tobytes()
