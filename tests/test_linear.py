"""Unit tests for the exact linear flow, its limit integral, and diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from rdsio import linear, process
from rdsio.mpds import CellLaw, Fiber, cell_noise, constant_rv, fiber_grid
from rdsio.process import concat, constant, decaying_input, stationary
from rdsio.rdsi import random_input

A_LAW = CellLaw("uniform", lo=(-2.0,), hi=(-0.5,))


@pytest.fixture
def random_coeffs():
    return linear.LinearCoeffs(
        a=cell_noise(A_LAW), b=constant_rv(1.0), decay_rate_hint=1.2
    )


def test_half_life_closed_form():
    coeffs = linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0))
    value = linear.solve(coeffs, math.log(2.0), Fiber(7, 0.25), 0.0,
                         constant([1.0], "continuous"))
    assert value == pytest.approx(0.5, abs=1e-15)


def test_homogeneous_flow_is_product_of_cell_exponentials(random_coeffs):
    for w in fiber_grid(10, seed=10, offset=0.25):
        t = 10.0
        got = linear.solve(random_coeffs, t, w, 0.7, None)
        expected = 0.7 * math.exp(
            linear.integrate_coefficient(random_coeffs.a, w, t)
        )
        assert got == pytest.approx(expected, rel=1e-14)


def _ode_oracle(coeffs, t, w, x0, u_fn, rtol=1e-12):
    """Independent adaptive integration of the same equation, cell by cell."""
    state = x0
    boundaries = [0.0]
    k = math.floor(w.offset) + 1
    while k - w.offset < t:
        boundaries.append(k - w.offset)
        k += 1
    boundaries.append(t)
    for lo, hi in zip(boundaries, boundaries[1:]):
        if hi <= lo:
            continue

        def rhs(s, y):
            ws = w.shift(s)
            return coeffs.a.scalar(ws) * y + coeffs.b.scalar(ws) * u_fn(s, w)

        sol = solve_ivp(rhs, (lo, hi), [state], rtol=rtol, atol=1e-14,
                        method="RK45")
        state = float(sol.y[0, -1])
    return state


def test_solve_matches_adaptive_integrator_on_cell_input(random_coeffs):
    u = stationary(cell_noise(CellLaw("uniform", lo=(-1.0,), hi=(1.0,)), lag=1),
                   "continuous")
    for w in fiber_grid(100, seed=20, offset=0.25):
        exact = linear.solve(random_coeffs, 10.0, w, 0.5, u)
        oracle = _ode_oracle(random_coeffs, 10.0, w, 0.5,
                             lambda s, wf: u.scalar(s, wf), rtol=1e-10)
        assert exact == pytest.approx(oracle, abs=1e-8)


def test_solve_matches_adaptive_integrator_on_smooth_input(random_coeffs):
    limit = cell_noise(CellLaw("uniform", lo=(0.5,), hi=(1.5,)))
    bump = cell_noise(CellLaw("uniform", lo=(0.2,), hi=(0.4,)), lag=1)
    u = decaying_input(limit, bump, rate=1.0)
    for w in fiber_grid(20, seed=30, offset=0.25):
        exact = linear.solve(random_coeffs, 8.0, w, -0.3, u)
        oracle = _ode_oracle(random_coeffs, 8.0, w, -0.3,
                             lambda s, wf: u.scalar(s, wf))
        assert exact == pytest.approx(oracle, abs=1e-8)


def _pointwise_solve(c, t, w, x, u):
    """Reference flow reading every coefficient and input value one at a time."""
    o = w.offset
    points = {0.0, t}
    points.update(k - o for k in range(math.floor(o) + 1, math.ceil(o + t)) if 0.0 < k - o < t)
    points.update(s for s in u.breakpoints(w, 0.0, t) if 0.0 < s < t)
    edges = sorted(points)
    segs = list(zip(edges, edges[1:]))
    widths = np.array([hi - lo for lo, hi in segs])
    a_vals = np.array([c.a.scalar(w.shift((lo + hi) / 2.0)) for lo, hi in segs])
    increments = a_vals * widths
    suffix = np.concatenate([np.cumsum(increments[::-1])[::-1][1:], [0.0]])
    value = x * math.exp(float(np.sum(increments)))
    for i, (lo, hi) in enumerate(segs):
        mid = (lo + hi) / 2.0
        b_i = c.b.scalar(w.shift(mid))
        if b_i == 0.0:
            continue
        if u.piecewise_constant:
            inner = u.scalar(mid, w) * linear._growth_factor(a_vals[i], widths[i])
        else:
            nodes = mid + (widths[i] / 2.0) * linear._GL_NODES
            samples = np.array([u.scalar(float(s), w) for s in nodes])
            kernel = np.exp(a_vals[i] * (hi - nodes))
            inner = (widths[i] / 2.0) * float(np.dot(linear._GL_WEIGHTS, samples * kernel))
        value += b_i * inner * math.exp(suffix[i])
    return float(value)


@pytest.mark.parametrize("form", ["cell", "decaying", "spliced"])
def test_solve_equals_pointwise_reference_bitwise(form):
    coeffs = linear.LinearCoeffs(a=cell_noise(A_LAW),
                                 b=cell_noise(CellLaw("uniform", lo=(0.2,), hi=(1.0,)), lag=1))
    rng = np.random.default_rng(7)
    for _ in range(60):
        w = Fiber(int(rng.integers(0, 2**32)), float(rng.uniform(-3.0, 3.0)))
        t = float(rng.uniform(0.0, 30.0))
        if form == "cell":
            u = stationary(cell_noise(CellLaw("uniform", lo=(-1.0,), hi=(1.0,)), lag=-2),
                           "continuous")
        elif form == "decaying":
            u = decaying_input(cell_noise(CellLaw("uniform", lo=(0.5,), hi=(1.5,))),
                               cell_noise(CellLaw("uniform", lo=(0.2,), hi=(0.4,)), lag=1),
                               rate=0.8)
        else:
            u = random_input(rng, 1, "continuous", max_splice=t)
        x = float(rng.uniform(-2.0, 2.0))
        assert linear.solve(coeffs, t, w, x, u) == _pointwise_solve(coeffs, t, w, x, u)


def test_solve_reads_a_stationary_cell_input_in_one_batch(random_coeffs, monkeypatch):
    calls = []
    pointwise = process.Process.__call__

    def counting(self, t, fiber):
        calls.append(t)
        return pointwise(self, t, fiber)

    monkeypatch.setattr(process.Process, "__call__", counting)
    u = stationary(cell_noise(CellLaw("uniform", lo=(-1.0,), hi=(1.0,))), "continuous")
    w = Fiber(3, 0.25)
    value = linear.solve(random_coeffs, 40.0, w, 0.5, u)
    assert calls == []
    assert value == _pointwise_solve(random_coeffs, 40.0, w, 0.5, u)
    assert len(calls) == 41  # the reference reads each of the 41 segments


def test_integrals_read_along_the_orbit_equal_pointwise_sums(random_coeffs):
    for w in fiber_grid(20, seed=11, offset=0.3):
        for t in (0.4, 1.0, 7.25, -5.5):
            lo, span = (w.shift(t), -t) if t < 0 else (w, t)
            edges = sorted({0.0, span, *(k - lo.offset for k in range(
                math.floor(lo.offset) + 1, math.ceil(lo.offset + span)))})
            expected = sum(random_coeffs.a.scalar(lo.shift((a + b) / 2.0)) * (b - a)
                           for a, b in zip(edges, edges[1:]))
            got = linear.integrate_coefficient(random_coeffs.a, w, t)
            assert got == (-expected if t < 0 else expected)
    probe = Fiber(0, 0.0)
    values = [random_coeffs.a.scalar(probe.shift(k + 0.5)) for k in range(-50, 50)]
    assert linear.estimate_decay_rate(random_coeffs, probe, cells=100) == -float(np.mean(values))


def test_splice_consistency_closed_form(random_coeffs):
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(100):
        w = Fiber(int(rng.integers(0, 2**31)), float(rng.uniform(0, 1)))
        s, t = float(rng.uniform(0, 8)), float(rng.uniform(0, 8))
        x = float(rng.uniform(-1, 1))
        u = stationary(cell_noise(A_LAW, lag=2), "continuous")
        v = constant([float(rng.uniform(-1, 1))], "continuous")
        y = linear.solve(random_coeffs, s, w, x, u)
        z = linear.solve(random_coeffs, t, w.shift(s), y, v)
        lhs = linear.solve(random_coeffs, s + t, w, x, concat(u, v, s))
        worst = max(worst, abs(lhs - z) / (1.0 + abs(z)))
    assert worst <= 1e-9


def test_solve_validation(random_coeffs):
    with pytest.raises(ValueError):
        linear.solve(random_coeffs, -1.0, Fiber(0, 0.0), 0.0, None)
    with pytest.raises(ValueError):
        linear.LinearCoeffs(a=constant_rv([1.0, 2.0]), b=constant_rv(1.0))
    with pytest.raises(ValueError):
        linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0),
                            decay_rate_hint=-0.5)


class TestCharacteristic:
    def test_constant_coefficients_geometric_value(self):
        coeffs = linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0))
        for c in (0.5, 2.0):
            got = linear.characteristic(coeffs, constant_rv(c), Fiber(3, 0.25),
                                        tol=1e-10, lam=1.0)
            assert got == pytest.approx(c, abs=1e-9)

    def test_zero_input_is_exactly_zero(self, random_coeffs):
        got = linear.characteristic(random_coeffs, constant_rv(0.0), Fiber(5, 0.25),
                                    tol=1e-9)
        assert got == 0.0

    def test_truncation_tightens_with_tolerance(self, random_coeffs):
        w = Fiber(21, 0.25)
        coarse = linear.characteristic(random_coeffs, constant_rv(1.0), w, tol=1e-6)
        fine = linear.characteristic(random_coeffs, constant_rv(1.0), w, tol=1e-13)
        assert coarse == pytest.approx(fine, abs=2e-6)
        assert coarse != fine

    def test_refuses_nonpositive_rate(self):
        growing = linear.LinearCoeffs(a=constant_rv(0.1), b=constant_rv(1.0))
        with pytest.raises(ValueError, match="decay rate"):
            linear.characteristic(growing, constant_rv(1.0), Fiber(0, 0.0), tol=1e-9)

    def test_tempered_continuity_bound(self, random_coeffs):
        # inputs eps apart map to limits within eps times the kernel mass
        w = Fiber(8, 0.25)
        eps = 1e-3
        k1 = linear.characteristic(random_coeffs, constant_rv(1.0), w, tol=1e-12)
        k2 = linear.characteristic(random_coeffs, constant_rv(1.0 + eps), w, tol=1e-12)
        mass = linear.characteristic(random_coeffs, constant_rv(1.0), w, tol=1e-12)
        assert abs(k2 - k1) <= eps * mass * (1 + 1e-9)


class TestDecayBound:
    def test_constant_drift_at_matching_rate(self):
        coeffs = linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0))
        rep = linear.check_decay_bound(coeffs, rate=1.0,
                                       fibers=fiber_grid(10, seed=50, offset=0.25))
        assert rep.passed
        assert max(rep.gamma) == pytest.approx(1.0, abs=1e-12)
        assert rep.envelope_temperedness.tempered_consistent

    def test_random_cells_at_modest_rate(self, random_coeffs):
        rep = linear.check_decay_bound(random_coeffs, rate=1.2,
                                       fibers=fiber_grid(20, seed=60, offset=0.25))
        assert rep.passed
        assert rep.suggested_rate == pytest.approx(1.25, abs=0.15)

    def test_growing_drift_fails_every_rate(self):
        coeffs = linear.LinearCoeffs(a=constant_rv(0.1), b=constant_rv(1.0))
        for rate in (0.1, 0.5, 1.0):
            rep = linear.check_decay_bound(coeffs, rate=rate,
                                           fibers=fiber_grid(5, seed=70, offset=0.25))
            assert not rep.passed


class TestBoundedFlow:
    def test_constant_coefficients_respect_the_envelope(self):
        coeffs = linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0))
        rep = linear.check_bounded_flow(coeffs, fiber_grid(5, seed=80, offset=0.25),
                                        horizon=8.0, samples=100)
        assert rep.passed
        assert rep.drift_sup == pytest.approx(-1.0)

    def test_zero_data_trajectory_stays_zero(self):
        coeffs = linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0))
        value = linear.solve(coeffs, 5.0, Fiber(0, 0.25), 0.0,
                             constant([0.0], "continuous"))
        assert value == 0.0

    def test_planted_gain_fault_is_caught(self, random_coeffs):
        scaled = linear.LinearCoeffs(a=random_coeffs.a,
                                     b=random_coeffs.b.scale(10.0))

        def cheating_flow(t, w, x, u):
            return linear.solve(scaled, t, w, x, u)

        rep = linear.check_bounded_flow(
            random_coeffs, fiber_grid(5, seed=90, offset=0.25),
            horizon=8.0, samples=200, flow=cheating_flow,
        )
        assert not rep.passed
        assert rep.violations > 0


def test_monotone_kernel_when_gain_nonnegative(random_coeffs):
    # positive kernel: raising the state or the input raises the flow
    rng = np.random.default_rng(100)
    u = stationary(cell_noise(CellLaw("uniform", lo=(0.0,), hi=(1.0,)), lag=3),
                   "continuous")
    for _ in range(200):
        w = Fiber(int(rng.integers(0, 2**31)), float(rng.uniform(0, 1)))
        t = float(rng.uniform(0, 6))
        x = float(rng.uniform(-1, 1))
        dx = float(rng.uniform(0.05, 1.0))
        du = float(rng.uniform(0.05, 1.0))
        lo = linear.solve(random_coeffs, t, w, x, u)
        hi = linear.solve(random_coeffs, t, w, x + dx, u + constant([du], "continuous"))
        assert hi >= lo - 1e-12


GAIN_LAW = CellLaw("choice", choices=((0.0,), (0.5,), (1.0,)))  # some segments skipped


def _batched_inputs(rng, t):
    yield None
    yield constant([float(rng.uniform(-1.0, 1.0))], "continuous")
    yield stationary(cell_noise(CellLaw("uniform", lo=(-1.0,), hi=(1.0,)), lag=-2),
                     "continuous")
    # not piecewise constant: the Gauss-Legendre path
    yield decaying_input(cell_noise(CellLaw("uniform", lo=(0.5,), hi=(1.5,))),
                         cell_noise(CellLaw("uniform", lo=(0.2,), hi=(0.4,)), lag=1),
                         rate=0.8)
    yield random_input(rng, 1, "continuous", max_splice=max(t, 1.0))


@given(
    seeds=st.lists(st.integers(-2**63, 2**64 - 1), min_size=1, max_size=12),
    offset=st.floats(-5.0, 5.0, allow_nan=False),
    t=st.one_of(st.just(0.0), st.floats(0.0, 30.0, allow_nan=False),
                st.integers(1, 30)),  # integer t on an integer offset: a cell edge
    edge=st.booleans(),
    draw=st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_solve_many_equals_stacked_one_fiber_solves(seeds, offset, t, edge, draw):
    if edge:
        offset = float(round(offset))
    rng = np.random.default_rng(draw)
    coeffs = linear.LinearCoeffs(a=cell_noise(A_LAW), b=cell_noise(GAIN_LAW, lag=1))
    fibers = [Fiber(s, offset) for s in seeds]
    xs = rng.uniform(-2.0, 2.0, size=len(fibers))
    xs[0] = -0.0
    for u in _batched_inputs(rng, float(t)):
        got = linear.solve_many(coeffs, t, fibers, xs, u)
        ref = np.array([linear.solve(coeffs, t, w, x, u) for w, x in zip(fibers, xs.tolist())])
        assert got.tobytes() == ref.tobytes()


@given(
    rows=st.lists(
        st.tuples(st.integers(0, 2**32), st.floats(-3.0, 3.0, allow_nan=False),
                  st.one_of(st.just(0.0), st.floats(0.0, 12.0, allow_nan=False)),
                  st.booleans(), st.integers(0, 4)),
        min_size=1, max_size=14),
    draw=st.integers(0, 2**32),
    shared_input=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_ragged_solve_many_equals_one_fiber_solves(rows, draw, shared_input):
    # each row its own offset, horizon and input: splice trees, a smooth
    # input, no input, t = 0, and horizons that end on a cell edge
    rng = np.random.default_rng(draw)
    coeffs = linear.LinearCoeffs(a=cell_noise(A_LAW), b=cell_noise(GAIN_LAW, lag=1))
    fibers, times, inputs = [], [], []
    for seed, offset, t, edge, kind in rows:
        if edge:
            t = float(math.ceil(offset + t) - offset)
        fibers.append(Fiber(seed, offset))
        times.append(t)
        inputs.append(list(_batched_inputs(rng, t))[kind])
    xs = rng.uniform(-2.0, 2.0, size=len(fibers))
    u = inputs[0] if shared_input else inputs
    got = linear.solve_many(coeffs, times, fibers, xs, u)
    ref = np.array([linear.solve(coeffs, t, w, x, inputs[0] if shared_input else p)
                    for t, w, x, p in zip(times, fibers, xs.tolist(), inputs)])
    assert got.tobytes() == ref.tobytes()
    # one time for every fiber with one input per fiber
    got = linear.solve_many(coeffs, times[0], fibers, xs, inputs)
    ref = np.array([linear.solve(coeffs, times[0], w, x, p)
                    for w, x, p in zip(fibers, xs.tolist(), inputs)])
    assert got.tobytes() == ref.tobytes()


def test_ragged_solve_many_chunks_and_validates(monkeypatch):
    coeffs = linear.LinearCoeffs(a=cell_noise(A_LAW), b=cell_noise(GAIN_LAW))
    rng = np.random.default_rng(11)
    fibers = [Fiber(int(s), float(o)) for s, o in zip(rng.integers(0, 2**32, 40),
                                                      rng.uniform(0.0, 1.0, 40))]
    times = rng.uniform(3.0, 4.0, 40).tolist()
    xs = np.linspace(-1.0, 1.0, 40)
    smooth = decaying_input(cell_noise(CellLaw("uniform", lo=(0.5,), hi=(1.5,))),
                            cell_noise(CellLaw("uniform", lo=(0.2,), hi=(0.4,))), rate=0.5)
    inputs = [smooth if i % 2 else random_input(rng, 1, "continuous", 4.0) for i in range(40)]
    ref = np.array([linear.solve(coeffs, t, w, x, p)
                    for t, w, x, p in zip(times, fibers, xs.tolist(), inputs)])
    monkeypatch.setattr(linear, "_CHUNK_VALUES", 200)  # a few fibers per chunk
    assert linear.solve_many(coeffs, times, fibers, xs, inputs).tobytes() == ref.tobytes()
    with pytest.raises(ValueError, match="one time and one input per fiber"):
        linear.solve_many(coeffs, times[:3], fibers, xs, inputs)
    with pytest.raises(ValueError, match="t >= 0"):
        linear.solve_many(coeffs, [-1.0] + times[1:], fibers, xs, inputs)
    with pytest.raises(ValueError, match="scalar"):
        linear.solve_many(coeffs, times, fibers, xs,
                          [constant([1.0, 2.0], "continuous")] * 40)


def test_solve_many_groups_offsets_and_chunks_fibers(monkeypatch):
    coeffs = linear.LinearCoeffs(a=cell_noise(A_LAW), b=cell_noise(GAIN_LAW))
    fibers = fiber_grid(30, seed=5, offset=0.25) + fiber_grid(20, seed=90, offset=1.5)
    xs = np.linspace(-1.0, 1.0, len(fibers))
    u = decaying_input(cell_noise(CellLaw("uniform", lo=(0.5,), hi=(1.5,))),
                       cell_noise(CellLaw("uniform", lo=(0.2,), hi=(0.4,))), rate=0.5)
    ref = np.array([linear.solve(coeffs, 12.5, w, x, u) for w, x in zip(fibers, xs.tolist())])
    monkeypatch.setattr(linear, "_CHUNK_VALUES", 1000)  # a few fibers per chunk
    assert linear.solve_many(coeffs, 12.5, fibers, xs, u).tobytes() == ref.tobytes()


def test_solve_many_validation(random_coeffs):
    fibers = fiber_grid(3, offset=0.5)
    with pytest.raises(ValueError, match="t >= 0"):
        linear.solve_many(random_coeffs, -1.0, fibers, [0.0] * 3)
    with pytest.raises(ValueError, match="scalar"):
        linear.solve_many(random_coeffs, 2.0, fibers, [0.0] * 3, constant([1.0, 2.0], "continuous"))
    with pytest.raises(ValueError, match="non-finite"):
        linear.solve_many(random_coeffs, 2.0, fibers, [1.0, math.inf, 0.0])
    assert linear.solve_many(random_coeffs, 5.0, [], []).shape == (0,)


def test_as_system_flows_many_fibers_like_one(random_coeffs):
    sys = linear.as_system(random_coeffs)
    u = stationary(cell_noise(CellLaw("uniform", lo=(-1.0,), hi=(1.0,))), "continuous")
    fibers = fiber_grid(9, seed=3, offset=0.7)
    xs = np.linspace(-1.0, 1.0, 9)[:, None]
    got = sys.many(7.3, fibers, xs, u)
    ref = np.array([sys(7.3, w, x, u) for w, x in zip(fibers, xs)])
    assert got.shape == (9, 1)
    assert got.tobytes() == ref.tobytes()
