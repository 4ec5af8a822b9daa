"""Unit tests for one-step generators and their flows."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdsio import discrete, linear, rdsi
from rdsio.cli import build_output_map, compile_generator
from rdsio.mpds import CellLaw, Fiber, Fibers, cell_noise, constant_rv, fiber_grid
from rdsio.process import constant, stationary
from rdsio.rdsi import OutputMap, draw_inputs, forward_traj, output_traj
import reference_process as ref
from reference_inputs import InputNodes
from reference_process import batch, pointwise_process

NOISE = CellLaw("uniform", lo=(0.0,), hi=(1.0,))


def _at(rv, seeds, offsets):
    """``rv`` at the fiber of each row of a step, ``(B, dim)``."""
    return rv.across(Fibers(seeds, offsets))


def _keep(seeds, offsets, xs, us, cells):
    return xs


def _noisy_half(noise):
    """The row step ``0.5 x + noise + u``."""
    return lambda seeds, offsets, xs, us, cells: 0.5 * xs + _at(noise, seeds, offsets) + us


def test_identity_generator_freezes_the_state():
    gen = discrete.Generator(1, 0, _keep)
    sys = discrete.flow_from_generator(gen)
    w = Fiber(5, 0)
    for n in (0, 1, 7, 30):
        np.testing.assert_array_equal(sys(n, w, [0.4], None), [0.4])


def test_three_step_unroll_of_half_plus_input():
    gen = discrete.Generator(1, 1, lambda seeds, offsets, xs, us, cells: 0.5 * xs + us)
    sys = discrete.flow_from_generator(gen)
    c = 2.0
    value = sys(3, Fiber(0, 0), [1.0], constant([c]))
    assert value[0] == pytest.approx(1.0 / 8.0 + 7.0 * c / 4.0, abs=0.0)


def test_flow_equals_brute_force_fold():
    noise = cell_noise(NOISE)

    def f(w, x, u):
        return 0.5 * x + noise.across(batch([w]))[0] + u

    gen = discrete.Generator(1, 1, _noisy_half(noise))
    sys = discrete.flow_from_generator(gen)
    u = stationary(cell_noise(NOISE, lag=2))
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = Fiber(int(rng.integers(0, 2**31)), 0)
        n = int(rng.integers(0, 25))
        x0 = np.array([rng.uniform(-1, 1)])
        state = x0
        for k in range(n):
            state = f(w.shift(k), state, u(k, w))
        np.testing.assert_array_equal(sys(n, w, x0, u), state)


def test_round_trip_flow_to_generator_to_flow_exact():
    noise = cell_noise(NOISE)
    gen = discrete.Generator(1, 1, _noisy_half(noise))
    sys = discrete.flow_from_generator(gen)
    rebuilt = discrete.flow_from_generator(discrete.generator_from_flow(sys))
    rng = np.random.default_rng(4)
    nodes = InputNodes(1, "discrete")  # 0.3, then the cells one on, spliced at 6
    u = nodes.table([nodes.concat(nodes.constant((0.3,)), nodes.cell(NOISE.lo, NOISE.hi, 1), 6)])
    for _ in range(100):
        w = Fiber(int(rng.integers(0, 2**31)), 0)
        n = int(rng.integers(0, 51))
        x = np.array([rng.uniform(-2, 2)])
        np.testing.assert_array_equal(rebuilt(n, w, x, u), sys(n, w, x, u))


def test_round_trip_generator_to_flow_to_generator_exact():
    noise = cell_noise(NOISE)
    gen = discrete.Generator(1, 1, _noisy_half(noise))
    extracted = discrete.generator_from_flow(discrete.flow_from_generator(gen))
    rng = np.random.default_rng(5)
    for _ in range(1000):
        w = Fiber(int(rng.integers(0, 2**31)), 0)
        x = np.array([rng.uniform(-2, 2)])
        uv = np.array([rng.uniform(-2, 2)])
        np.testing.assert_array_equal(ref.one_step(extracted, w, x, uv),
                                      ref.one_step(gen, w, x, uv))


def test_extracted_generator_of_identity_flow_is_identity():
    gen = discrete.Generator(1, 1, _keep)
    extracted = discrete.generator_from_flow(discrete.flow_from_generator(gen))
    w = Fiber(9, 0)
    np.testing.assert_array_equal(ref.one_step(extracted, w, [1.7], [0.4]), [1.7])


def test_splice_identity_at_arbitrary_points():
    # re-run the inductive step: advance p steps under u, then n under v,
    # equals one flow of p+n under the splice
    noise = cell_noise(NOISE)
    gen = discrete.Generator(
        1, 1, lambda seeds, offsets, xs, us, cells: 0.4 * xs + _at(noise, seeds, offsets) * us)
    sys = discrete.flow_from_generator(gen)
    # u, and v: 1.0, then the cells three on, spliced at 2; one-row tables
    nodes = InputNodes(1, "discrete")
    ku = nodes.cell(NOISE.lo, NOISE.hi, -1)
    kv = nodes.concat(nodes.constant((1.0,)), nodes.cell(NOISE.lo, NOISE.hi, 3), 2)
    u, v = nodes.table([ku]), nodes.table([kv])
    rng = np.random.default_rng(6)
    for _ in range(200):
        w = Fiber(int(rng.integers(0, 2**31)), 0)
        p = int(rng.integers(0, 20))
        n = int(rng.integers(0, 20))
        x = np.array([rng.uniform(-1, 1)])
        y = sys(p, w, x, u)
        z = sys(n, w.shift(p), y, v)
        np.testing.assert_array_equal(sys(p + n, w, x, u.concat(v, [p])), z)


def test_generator_validation():
    sys = discrete.flow_from_generator(discrete.Generator(2, 1, _keep))
    with pytest.raises(ValueError, match="integer"):
        sys(1.5, Fiber(0, 0), [1.0, 2.0], constant([0.0]))
    lin = linear.as_system(linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0)))
    with pytest.raises(ValueError, match="discrete"):
        discrete.generator_from_flow(lin)


# -- the one step loop: batched reads equal one-row calls --------------------

AFFINE = {  # two states, reads its input and a two-channel noise cell
    "state_dim": 2,
    "input_dim": 1,
    "noise": {"law": "uniform", "lo": [-0.5, 0.0], "hi": [0.5, 1.0]},
    "components": [
        {"op": "add", "args": [{"op": "scale", "factor": 0.5, "arg": {"op": "state", "index": 0}},
                               {"op": "input"}, {"op": "noise", "index": 0}]},
        {"op": "clamp", "lo": -1.0, "hi": 1.0, "arg": {"op": "mul", "args": [
            {"op": "state", "index": 1}, {"op": "noise", "index": 1}, 1.5]}},
    ],
}
INPUTS = [
    constant([0.3]),
    stationary(cell_noise(NOISE, lag=1)),
    # a splice shared by every row: the pointwise tree, read point by point
    pointwise_process(1, "discrete", ref.constant([-1.0]).concat(
        ref.stationary(ref.cell_noise(NOISE, lag=-2)), 3)),
    None,
]
READOUT = OutputMap(1, lambda seeds, offsets, xs, cells: xs[:, :1] * _at(cell_noise(NOISE), seeds,
                                                                  offsets) - xs[:, 1:])
coordinates = st.one_of(st.floats(-2.0, 2.0), st.just(float("nan")))
fibers = st.builds(Fiber, st.integers(0, 2**32 - 1), st.integers(-6, 6))


def _same(got, ref):
    """Equal bit for bit, except that any NaN equals any NaN."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == ref[~nan].tobytes()


def _systems():
    compiled = discrete.flow_from_generator(compile_generator(AFFINE))
    return compiled, discrete.flow_from_generator(discrete.generator_from_flow(compiled))


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 12), fibers, coordinates), min_size=1, max_size=12),
       which=st.integers(0, len(INPUTS) - 1), draw=st.integers(0, 2**32))
def test_many_equals_one_row_calls(rows, which, draw):
    # zero and unequal horizons and NaN states, under one shared input or
    # a drawn table of one splice tree per row; a missing input, which an
    # input-reading step refuses as soon as a row steps
    times = [t for t, _, _ in rows]
    ws = [w for _, w, _ in rows]
    batched = batch(ws)
    xs = np.array([[x, 0.25] for _, _, x in rows])
    table = draw_inputs(np.random.default_rng(draw), len(rows), 1, "discrete", 12.0)
    u = INPUTS[which]
    for sys in _systems():
        if u is None and max(times) > 0:
            with pytest.raises((IndexError, ValueError)):
                sys.many(times, batched, xs, u)
        else:
            _same(sys.many(times, batched, xs, u),
                  [sys(t, w, x, u) for t, w, x in zip(times, ws, xs)])
        got = sys.many(times, batched, xs, table)
        _same(got, [sys(t, w, x, table[r:r + 1]) for r, (t, w, x) in enumerate(zip(times, ws, xs))])


@settings(max_examples=40, deadline=None)
@given(times=st.lists(st.integers(0, 12), max_size=6), ws=st.lists(fibers, min_size=1, max_size=5),
       start=st.tuples(coordinates, coordinates), which=st.integers(0, len(INPUTS) - 2))
def test_trajectory_reads_equal_one_row_calls(times, ws, start, which):
    # one scan per read, to the largest time; times unsorted, repeated or absent
    u = INPUTS[which]
    x = constant_rv(list(start))
    for sys in _systems():
        for traj, dim in ((forward_traj(sys, x, u), 2), (output_traj(sys, READOUT, x, u), 1)):
            ref = np.array([[traj(t, w) for t in times] for w in ws]).reshape(
                len(ws), len(times), dim)
            _same(traj.over(batch(ws), times), ref)


def test_a_missing_input_reaches_an_input_reading_step_empty():
    sys, _ = _systems()
    ws = batch([Fiber(1, 0), Fiber(2, 3), Fiber(3, -1)])
    xs = np.zeros((3, 2))
    with pytest.raises(IndexError):
        sys.many([2, 0, 1], ws, xs)
    with pytest.raises(IndexError):
        sys(2, ws[0], xs[0])
    with pytest.raises(IndexError):
        forward_traj(sys, constant_rv([0.0, 0.0])).over(ws, [0, 3])
    # rows that do not step read no input; a step that ignores it needs none
    _same(sys.many([0, 0, 0], ws, xs), xs)
    keep = discrete.flow_from_generator(discrete.Generator(2, 1, _keep))
    _same(keep.many([3, 1, 0], ws, xs), xs)


# -- cell reads: one per law and block of steps, equal to reads per step ----

NOISY_READOUT = build_output_map({
    "noise": {"law": "choice", "choices": [[0.5, -1.0], [2.0, 0.25], [-0.75, 1.5]]},
    "components": [{"op": "add", "args": [{"op": "mul", "args": [
        {"op": "state", "index": 0}, {"op": "noise", "index": 0}]}, {"op": "noise", "index": 1}]}],
}, "output", 2)


@pytest.mark.parametrize("budget", [1, 7, 20, 40])
def test_block_reads_equal_the_row_by_row_recursion(monkeypatch, budget):
    # a few values per block: a scan spans many blocks, some of one step of
    # rows that alone exceed the budget, and rows retire inside a block;
    # the readout's blocks hold half the budget in points, or one point
    monkeypatch.setattr(rdsi, "_BATCH_VALUES", budget)
    gen = compile_generator(AFFINE)
    rng = np.random.default_rng(11)
    ws = Fibers(rng.integers(0, 2**32, 9, dtype=np.uint64), rng.integers(-6, 6, 9))
    times = rng.integers(0, 15, (9, 4))
    xs = rng.uniform(-1.0, 1.0, (9, 2))
    values = rng.uniform(-1.0, 1.0, (9, 15, 1))
    got = discrete._step_rows(gen, times, ws, xs, values)
    for r in range(9):
        trail = [xs[r]]
        for k in range(times[r].max()):
            trail.append(ref.one_step(gen, ws[r].shift(k), trail[-1], values[r, k]))
        _same(got[r], np.array(trail)[times[r]])
    # readouts of blocks of points equal one read of each column
    ts = np.arange(-3, 9)
    states = rng.uniform(-1.0, 1.0, (9, ts.size, 2))
    got = NOISY_READOUT.over(ws, ts, states)
    for i, t in enumerate(ts.tolist()):
        _same(got[:, i], NOISY_READOUT.many(ws.shift(t), states[:, i]))


@pytest.mark.parametrize("budget, blocks", [(rdsi._BATCH_VALUES, 1), (1000, 8)])
def test_a_scan_reads_each_law_once_per_block_not_once_per_step(monkeypatch, budget, blocks):
    # 100 rows stepped 40 times under a law of two channels: a block of the
    # scan holds the cells of budget // 200 steps, and a block of the
    # readout the cells of budget // 2 (row, step) points
    monkeypatch.setattr(rdsi, "_BATCH_VALUES", budget)
    reads, sample_grid = [], CellLaw.sample_grid
    monkeypatch.setattr(CellLaw, "sample_grid", lambda law, seeds, cells: (
        reads.append(np.shape(cells)) or sample_grid(law, seeds, cells)))
    sys = discrete.flow_from_generator(compile_generator(AFFINE))
    fibers = fiber_grid(100, seed=60)
    states = forward_traj(sys, constant_rv([0.1, -0.3]), constant([0.2])).over(fibers, range(41))
    assert reads == [(100, 40 // blocks)] * blocks
    reads.clear()
    NOISY_READOUT.over(fibers, np.arange(40), states)
    assert reads == [(4000 // blocks, 1)] * blocks
