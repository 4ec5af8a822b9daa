"""Unit tests for the flow contract, trajectories, equilibria, characteristics."""

import dataclasses
import math

import numpy as np
import pytest

from rdsio import cli, discrete, linear, rdsi
from rdsio.mpds import CellLaw, Fiber, Fibers, cell_noise, constant_rv, fiber_grid
from rdsio.process import constant, decaying_input, stationary
from rdsio.rdsi import (
    OutputMap,
    SystemFlow,
    check_axioms,
    check_equilibrium,
    estimate_characteristic,
    forward_traj,
    output_traj,
    _tail_grid,
    pullback_traj,
)
import reference_process as ref
from reference_process import batch, pointwise_variable

NOISE = CellLaw("uniform", lo=(-0.5,), hi=(0.5,))


def _at(rv, seeds, offsets):
    """``rv`` at the fiber of each row of a step, ``(B, dim)``."""
    return rv.across(Fibers(seeds, offsets))


def _noisy_half(noise):
    """The row step ``0.5 x + noise + u``."""
    return lambda seeds, offsets, xs, us, cells: 0.5 * xs + _at(noise, seeds, offsets) + us


@pytest.fixture
def noisy_affine():
    return discrete.flow_from_generator(discrete.Generator(1, 1, _noisy_half(cell_noise(NOISE))))


@pytest.fixture
def linear_coeffs():
    return linear.LinearCoeffs(
        a=cell_noise(CellLaw("uniform", lo=(-2.0,), hi=(-0.5,))),
        b=constant_rv(1.0),
        decay_rate_hint=1.2,
    )


def test_forward_traj_starts_at_the_state(noisy_affine):
    x = cell_noise(NOISE, lag=-2)
    u = stationary(cell_noise(NOISE, lag=1))
    traj = forward_traj(noisy_affine, x, u)
    for w in fiber_grid(5, seed=10):
        np.testing.assert_array_equal(traj(0, w), x.across(batch([w]))[0])


def test_forward_traj_matches_two_step_recursion():
    n = cell_noise(CellLaw("uniform", lo=(-0.5, 0.0), hi=(0.5, 1.0)))

    def f(w, x, uv):
        noise = n.across(batch([w]))[0]
        return np.array([0.5 * x[0] + noise[0] + uv[0], 0.7 * x[1] + noise[1]])

    def rows(seeds, offsets, xs, us, cells):
        noise = _at(n, seeds, offsets)
        return np.stack([0.5 * xs[:, 0] + noise[:, 0] + us[:, 0],
                         0.7 * xs[:, 1] + noise[:, 1]], axis=1)

    gen = discrete.Generator(2, 1, rows)
    sys = discrete.flow_from_generator(gen)
    x = constant_rv([0.3, -0.4])
    u = stationary(cell_noise(NOISE))
    traj = forward_traj(sys, x, u)
    for w in fiber_grid(5, seed=20):
        step1 = f(w, x.across(batch([w]))[0], u(0, w))
        step2 = f(w.shift(1), step1, u(1, w))
        np.testing.assert_array_equal(traj(2, w), step2)


def test_forward_traj_restart_consistency(noisy_affine):
    # the flow at s+t equals a restart from the state at s under the
    # observer-shifted input
    x = constant_rv(0.7)
    u = stationary(cell_noise(NOISE, lag=2))
    traj = forward_traj(noisy_affine, x, u)
    for w in fiber_grid(5, seed=30):
        for s, t in [(0, 3), (2, 5), (7, 1)]:
            restart = noisy_affine(t, w.shift(s), traj(s, w), u.shift(s))
            np.testing.assert_array_equal(traj(s + t, w), restart)


def test_forward_traj_scan_equals_the_flow_in_any_query_order(noisy_affine):
    x = cell_noise(NOISE, lag=-2)
    u = stationary(cell_noise(NOISE, lag=1))
    traj = forward_traj(noisy_affine, x, u)
    for w in fiber_grid(4, seed=35):
        for t in (40, 8, 0, 39, 41):
            np.testing.assert_array_equal(traj(t, w),
                                          noisy_affine(t, w, x.across(batch([w]))[0], u))
    fibers = fiber_grid(4, seed=35)
    assert traj.over(fibers, [40, 8, 0, 39, 41]).tobytes() == np.array(
        [[noisy_affine(t, w, x.across(batch([w]))[0], u) for t in (40, 8, 0, 39, 41)]
         for w in fibers]).tobytes()
    w = Fiber(35, 0)
    np.testing.assert_array_equal(traj(8.0, w), noisy_affine(8, w, x.across(batch([w]))[0], u))
    with pytest.raises(ValueError, match="integer times"):
        traj(2.5, w)
    with pytest.raises(ValueError, match="integer times"):
        traj(2.5, Fiber(99, 0))


def test_forward_traj_costs_one_generator_step_per_time_and_fiber():
    n = cell_noise(NOISE)
    steps = [0]

    def f(seeds, offsets, xs, us, cells):
        steps[0] += len(xs)  # rows stepped
        return 0.5 * xs + _at(n, seeds, offsets) + us

    sys = discrete.flow_from_generator(discrete.Generator(1, 1, f))
    traj = forward_traj(sys, constant_rv(0.3), stationary(cell_noise(NOISE, lag=1)))
    horizon, fibers = 30, fiber_grid(4, seed=36)
    traj.over(fibers, range(horizon, -1, -1))  # every time on every fiber, in one read
    assert steps[0] == len(fibers) * horizon


def test_forward_traj_of_a_discrete_flow_without_generator_uses_the_flow():
    # closed form, not a step iteration: x / 2^t + t * u(0)
    def flow(t, ws, xs, u):
        ts = np.reshape(np.broadcast_to(t, len(ws)), (-1, 1))
        return xs * 0.5 ** ts + ts * u.over(ws, [0])[:, 0]

    sys = SystemFlow(1, 1, "discrete", flow)
    x = cell_noise(NOISE, lag=-1)
    u = stationary(cell_noise(NOISE))
    traj = forward_traj(sys, x, u)
    for w in fiber_grid(3, seed=37):
        for t in (5, 0, 3):
            np.testing.assert_array_equal(traj(t, w), sys(t, w, x.across(batch([w]))[0], u))


def test_pullback_traj_is_pullback_of_forward(noisy_affine):
    x = cell_noise(NOISE, lag=-1)
    u = stationary(cell_noise(NOISE, lag=3))
    fwd = forward_traj(noisy_affine, x, u).pullback()
    pb = pullback_traj(noisy_affine, x, u)
    for w in fiber_grid(5, seed=40):
        for t in range(0, 12, 3):
            np.testing.assert_array_equal(pb(t, w), fwd(t, w))


def test_pullback_traj_of_many_initial_states_reads_them_side_by_side(noisy_affine,
                                                                     linear_coeffs,
                                                                     monkeypatch):
    # three initial variables: their pullbacks side by side, each
    # bit-identical to its own read, in blocks of _BATCH_VALUES // 3
    # points, each one flow of three rows per point
    monkeypatch.setattr(rdsi, "_BATCH_VALUES", 30)  # 10 points per block
    xs = [constant_rv(0.0), cell_noise(NOISE, lag=-2), constant_rv(1.5)]
    fibers = fiber_grid(7, seed=3, offset=0.25)
    for sys, times in ((noisy_affine, [0, 2, 5, 9]),
                       (linear.as_system(linear_coeffs), [0.0, 2.5, 7.0, 12.0])):
        u = stationary(cell_noise(NOISE, lag=1), sys.time_kind)
        alone = [pullback_traj(sys, x, u).over(fibers, times) for x in xs]
        rows = []
        counted = dataclasses.replace(
            sys, flow=lambda t, ws, s, u, flow=sys.flow: rows.append(len(ws)) or flow(t, ws, s, u))
        got = pullback_traj(counted, xs, u).over(fibers, times)
        assert got.shape == (7, 4, 3)
        assert got.tobytes() == np.concatenate(alone, axis=2).tobytes()
        assert rows == [30, 30, 24]  # 28 points: 10, 10 and 8
    with pytest.raises(ValueError, match="state dimension"):
        pullback_traj(noisy_affine, [], u)
    with pytest.raises(ValueError, match="state dimension"):
        pullback_traj(noisy_affine, [xs[0], constant_rv([0.0, 1.0])], u)


def test_output_traj_identity_map_is_state(noisy_affine):
    h = OutputMap(1, lambda seeds, offsets, xs, cells: xs)
    x = constant_rv(1.0)
    u = constant([0.2])
    state = forward_traj(noisy_affine, x, u)
    out = output_traj(noisy_affine, h, x, u)
    for w in fiber_grid(3, seed=50):
        for t in (0, 2, 6):
            np.testing.assert_array_equal(out(t, w), state(t, w))


def test_output_traj_clamp_is_bounded(noisy_affine):
    h = OutputMap(1, lambda seeds, offsets, xs, cells: np.clip(xs, 0.0, 0.8))
    out = output_traj(noisy_affine, h, constant_rv(5.0), constant([0.5]))
    for w in fiber_grid(3, seed=60):
        for t in range(8):
            assert 0.0 <= out(t, w)[0] <= 0.8


def test_output_trajectory_at_equilibrium_is_stationary():
    # constant-coefficient flow with constant input: the state c is an
    # equilibrium, so its forward output trajectory is shift-invariant
    coeffs = linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0))
    sys = linear.as_system(coeffs)
    c = 0.75
    h = OutputMap(1, lambda seeds, offsets, xs, cells: np.tanh(xs) + _at(cell_noise(NOISE), seeds,
                                                                  offsets))
    eta = output_traj(sys, h, constant_rv(c), constant([c], "continuous"))
    fibers = fiber_grid(4, seed=70, offset=0.25)
    for w in fibers:
        for s in (0.5, 2.0, 5.0):
            for t in (0.0, 1.0, 3.5):
                np.testing.assert_allclose(
                    eta.shift(s)(t, w), eta(t, w), rtol=0, atol=1e-12
                )


class TestCheckAxioms:
    def test_discrete_generator_flow_is_exact(self, noisy_affine):
        rep = check_axioms(noisy_affine, samples=150, seed=0, max_time=12)
        assert rep.passed
        assert rep.time_zero_max == 0.0
        assert rep.splice_max_rel == 0.0
        assert rep.locality_max == 0.0

    def test_linear_flow_within_tolerance(self, linear_coeffs):
        sys = linear.as_system(linear_coeffs)
        rep = check_axioms(sys, samples=80, seed=1, max_time=8.0)
        assert rep.passed
        assert rep.splice_max_rel <= 1e-9

    def test_planted_time_zero_fault_is_reported(self, noisy_affine):
        inner = noisy_affine

        def broken(t, ws, xs, u):
            at_zero = np.reshape(np.equal(t, 0), (-1, 1))
            return np.where(at_zero, xs + 1.0, inner.many(t, ws, xs, u))

        bad = SystemFlow(1, 1, "discrete", broken)
        rep = check_axioms(bad, samples=50, seed=2)
        assert not rep.passed
        assert rep.time_zero_max >= 1.0

    def test_validation(self, noisy_affine):
        with pytest.raises(ValueError):
            check_axioms(noisy_affine, samples=0)


class TestCheckEquilibrium:
    def test_constant_coefficient_equilibrium_passes(self):
        coeffs = linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0))
        sys = linear.as_system(coeffs)
        c = 1.3
        rep = check_equilibrium(sys, constant_rv(c), constant([c], "continuous"),
                                times=[0.0, 1.0, 2.5, 7.0, 10.0],
                                fibers=fiber_grid(10, seed=80, offset=0.25),
                                tol=1e-12)
        assert rep.passed

    def test_zero_input_zero_state_is_exact(self):
        coeffs = linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0))
        sys = linear.as_system(coeffs)
        rep = check_equilibrium(sys, constant_rv(0.0), constant([0.0], "continuous"),
                                times=[0.0, 2.0, 8.0],
                                fibers=fiber_grid(5, seed=90, offset=0.25), tol=0.0)
        assert rep.passed
        assert rep.max_residual == 0.0

    def test_wrong_candidate_reports_unit_residual(self):
        coeffs = linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0))
        sys = linear.as_system(coeffs)
        c = 0.4
        rep = check_equilibrium(sys, constant_rv(c + 1.0), constant([c], "continuous"),
                                times=[5.0, 10.0, 20.0],
                                fibers=fiber_grid(5, seed=95, offset=0.25), tol=1e-9)
        assert not rep.passed
        assert rep.max_residual == pytest.approx(1.0, abs=1e-4)


def test_bundled_characteristic_routes_build_no_fiber(monkeypatch):
    # both routes of linear_characteristic on a batch of 50 fibers: each
    # rewind is one array add on the offsets, and no read builds a Fiber
    path = cli.scenario_catalog()["linear_characteristic"][0]
    _, top, p = cli.read_scenario(cli.load_scenario(path))
    fibers = fiber_grid(50, seed=top.seed, offset=top.fiber_offset)
    calls = {"shift": 0, "init": 0}
    shift, init = Fiber.shift, Fiber.__init__

    def counted_shift(self, t):
        calls["shift"] += 1
        return shift(self, t)

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Fiber, "shift", counted_shift)
    monkeypatch.setattr(Fiber, "__init__", counted_init)
    rep = estimate_characteristic(linear.as_system(p.system), p.input, p.initial,
                                  horizon=p.horizon, tol=p.tol, fibers=fibers)
    integrals = linear.characteristic(p.system, p.input, fibers, tol=p.tol)
    assert calls == {"shift": 0, "init": 0}
    assert rep.all_converged and integrals.shape == (50,)
    Fiber(0, 0.25).shift(1.0)  # the counters count
    assert calls == {"shift": 1, "init": 2}


def _limit_equilibrium(sys, rep, u, fibers, tol):
    """check_equilibrium of the estimate of ``rep`` under the stationary
    input on ``u``, as the equilibrium runner checks it: at the times 0 to
    10, at ten times the pullback ``tol``."""
    times = range(11) if sys.is_discrete else np.linspace(0.0, 10.0, 11).tolist()
    return check_equilibrium(sys, rep.estimate, stationary(u, sys.time_kind), times, fibers,
                             tol=10.0 * tol)


class TestEstimateCharacteristic:
    def test_constant_case_from_the_equilibrium_itself(self):
        coeffs = linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0))
        sys = linear.as_system(coeffs)
        c = 0.9
        fibers = fiber_grid(10, seed=100, offset=0.25)
        rep = estimate_characteristic(
            sys, constant_rv(c), constant_rv(c), horizon=30.0, tol=1e-9, fibers=fibers,
        )
        assert rep.all_converged
        assert _limit_equilibrium(sys, rep, constant_rv(c), fibers, 1e-9).passed
        assert rep.per_fiber.shape == (10, 1)
        np.testing.assert_allclose(rep.per_fiber, c, rtol=0, atol=1e-12)

    def test_zero_input_limit_is_zero(self):
        coeffs = linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0))
        sys = linear.as_system(coeffs)
        rep = estimate_characteristic(
            sys, constant_rv(0.0), constant_rv(0.8), horizon=46.0, tol=1e-9,
            fibers=fiber_grid(5, seed=110, offset=0.25),
        )
        assert rep.all_converged
        assert np.all(np.abs(rep.per_fiber) < 1e-15)

    def test_agreement_with_past_integral_route(self, linear_coeffs):
        sys = linear.as_system(linear_coeffs)
        u = constant_rv(1.0)
        fibers = fiber_grid(12, seed=120, offset=0.25)
        rep = estimate_characteristic(
            sys, u, constant_rv(0.3), horizon=40.0, tol=1e-9, fibers=fibers
        )
        assert rep.all_converged
        assert _limit_equilibrium(sys, rep, u, fibers, 1e-9).passed
        for i, w in enumerate(fibers):
            integral = linear.characteristic(linear_coeffs, u, batch([w]), tol=1e-9)[0]
            assert rep.per_fiber[i, 0] == pytest.approx(integral, abs=1e-6)

    @pytest.mark.parametrize("horizon", [1, 0.5, 2.5])
    def test_a_discrete_tail_of_one_time_is_refused(self, horizon):
        sys = discrete.flow_from_generator(
            discrete.Generator(1, 1, lambda seeds, offsets, xs, us, cells: 0.9 * xs + us))
        with pytest.raises(ValueError, match="holds one time"):
            estimate_characteristic(sys, constant_rv(1.0), constant_rv(0.0), horizon=horizon,
                                    tol=1e-9, fibers=fiber_grid(3, seed=5))

    def test_discrete_system_matches_geometric_series(self):
        noise = cell_noise(NOISE)
        gen = discrete.Generator(
            1, 1, lambda seeds, offsets, xs, us, cells: 0.5 * xs + us + _at(noise, seeds, offsets))
        sys = discrete.flow_from_generator(gen)
        c = 0.6
        fibers = fiber_grid(8, seed=130)
        rep = estimate_characteristic(
            sys, constant_rv(c), constant_rv(0.0), horizon=80, tol=1e-9,
            fibers=fibers,
        )
        assert rep.all_converged
        assert _limit_equilibrium(sys, rep, constant_rv(c), fibers, 1e-9).passed
        for i, w in enumerate(fibers):
            closed_form = sum(
                0.5 ** (j - 1) * (c + noise.across(batch([w.shift(-j)]))[0, 0])
                for j in range(1, 120)
            )
            assert rep.per_fiber[i, 0] == pytest.approx(closed_form, abs=1e-9)

    def test_horizon_validation(self, linear_coeffs):
        sys = linear.as_system(linear_coeffs)
        with pytest.raises(ValueError):
            estimate_characteristic(sys, constant_rv(1.0), constant_rv(0.0),
                                    horizon=0.0, tol=1e-9,
                                    fibers=fiber_grid(2, seed=1, offset=0.25))


def _pointwise_equilibrium(sys, rv, u, times, fibers):
    """Worst residual of check_equilibrium for the reference variable
    ``rv`` under the input ``u``, one fiber and time at a time."""
    worst = 0.0
    for w in fibers:
        target = np.atleast_1d(np.asarray(rv(w), dtype=float))
        for t in times:
            state = sys(t, w.shift(-t), rv(w.shift(-t)), u)
            worst = max(worst, float(np.max(np.abs(state - target))))
    return worst


def _pointwise_tails(sys, u, x0, grid, fibers):
    """Per-fiber end states and Cauchy tails of estimate_characteristic,
    from the reference initial state ``x0``, as lists of one row per fiber."""
    bar_u = stationary(u, sys.time_kind) if sys.input_dim else None
    ends, tails = [], []
    for w in fibers:
        def state(t):
            return sys(t, w.shift(-t), x0(w.shift(-t)), bar_u)
        end = state(grid[-1])
        ends.append([float(v) for v in end])
        tails.append(max(float(np.max(np.abs(state(t) - end))) for t in grid))
    return ends, tails


@pytest.mark.parametrize("kind", ["linear", "discrete", "fault"])
def test_batched_pullback_checks_equal_the_pointwise_reference(kind, linear_coeffs):
    noise = cell_noise(NOISE)
    if kind == "linear":
        sys = linear.as_system(linear_coeffs)
        # a second offset
        fibers = batch([*fiber_grid(25, seed=140, offset=0.25),
                        *fiber_grid(5, seed=900, offset=0.6)])
        horizon = 12.0
        times = [0.0, 0.5, 3.0, 7.25]
    else:
        gen = discrete.Generator(
            1, 1, lambda seeds, offsets, xs, us, cells: 0.5 * xs + us + _at(noise, seeds, offsets))
        sys = discrete.flow_from_generator(gen)
        if kind == "fault":  # no generator, and not the identity at t = 0
            inner = sys
            sys = SystemFlow(1, 1, "discrete", lambda t, ws, xs, u: np.where(
                np.reshape(np.equal(t, 0), (-1, 1)), xs + 1.0, inner.many(t, ws, xs, u)))
        horizon, fibers, times = 20, fiber_grid(12, seed=150), [0, 1, 4, 9]
    u = cell_noise(CellLaw("uniform", lo=(0.5,), hi=(1.5,)), lag=1)
    x0 = cell_noise(CellLaw("uniform", lo=(-1.0,), hi=(1.0,)), lag=-2)
    x0_ref = ref.cell_noise(CellLaw("uniform", lo=(-1.0,), hi=(1.0,)), lag=-2)
    rep = estimate_characteristic(sys, u, x0, horizon=horizon, tol=1e-6, fibers=fibers)
    grid = _tail_grid(sys.time_kind, horizon)
    ends, tails = _pointwise_tails(sys, u, x0_ref, grid, fibers)
    assert rep.per_fiber.tolist() == ends
    assert rep.tail_diagnostic.tolist() == tails
    assert rep.converged.tolist() == [g <= 1e-6 for g in tails]
    bar_u = stationary(u, sys.time_kind)
    # the estimate as it was read pointwise: the pullback state at the horizon
    traj = ref.pullback_traj(sys, x0_ref, bar_u)
    est_ref = ref.PointwiseVariable(sys.state_dim, lambda w: traj(grid[-1], w))
    # the equilibrium runner's check, at the times 0 to 10
    eq_times = range(11) if sys.is_discrete else np.linspace(0.0, 10.0, 11).tolist()
    assert (_limit_equilibrium(sys, rep, u, fibers, 1e-6).max_residual
            == _pointwise_equilibrium(sys, est_ref, bar_u, eq_times, fibers))
    # the estimate's batched reads equal its pointwise ones
    shifted = [w.shift(-t) for w in fibers[:6] for t in times]
    got = rep.estimate.across(batch(shifted))
    assert got.tobytes() == np.array([est_ref(w) for w in shifted]).tobytes()
    assert (check_equilibrium(sys, x0, bar_u, times, fibers).max_residual
            == _pointwise_equilibrium(sys, x0_ref, bar_u, times, fibers))


def test_many_without_a_batched_form_runs_the_pointwise_flow(noisy_affine):
    fibers = fiber_grid(5, seed=160, offset=3)
    xs = np.linspace(-1.0, 1.0, 5)[:, None]
    u = constant([0.2], "discrete")
    got = noisy_affine.many(6, fibers, xs, u)
    assert got.tobytes() == np.array([noisy_affine(6, w, x, u) for w, x in zip(fibers, xs)]).tobytes()
    with pytest.raises(ValueError, match="shape"):
        noisy_affine.many(6, fibers, xs[:3], u)
    with pytest.raises(ValueError, match="t >= 0"):
        noisy_affine.many(-1, fibers, xs, u)


def _halving():
    return discrete.flow_from_generator(
        discrete.Generator(1, 0, lambda seeds, offsets, xs, us, cells: xs / 2))


def _folded_one_by_one(worst, values):
    """The builtin ``max`` folded over ``values`` in order from ``worst``,
    one value at a time; a NaN value makes the result NaN."""
    for value in np.asarray(values, dtype=float).ravel().tolist():
        if math.isnan(value):
            return math.nan
        worst = max(worst, value)
    return worst


def test_fold_max_equals_the_fold_one_value_at_a_time():
    # arrays of NaN, +-inf, +-0.0 and ties, from starts of either zero,
    # -inf, a value and NaN: the same float, sign of zero included
    rng = np.random.default_rng(17)
    pool = np.array([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 2.5])
    for i in range(3000):
        values = pool[rng.integers(0, pool.size if i % 3 else pool.size - 2,
                                   int(rng.integers(0, 40)))]
        if i % 4 == 0:
            values = values.reshape(-1, 1)
        worst = [0.0, -0.0, -math.inf, 1.0, math.nan][i % 5]
        want, got = _folded_one_by_one(worst, values), rdsi._fold_max(worst, values)
        assert repr(got) == repr(want) and type(got) is type(want)
    assert rdsi._fold_max(-0.0, []) == 0.0 and repr(rdsi._fold_max(-0.0, [])) == "-0.0"
    assert rdsi._fold_max(0.0, [0.5, 2.0, 2.0]) == 2.0


def test_nan_residual_fails_the_equilibrium_check():
    # x -> x/2 with the candidate 0, NaN on one of three fibers
    fibers = fiber_grid(3, seed=5)
    bad = fibers[1].seed
    cand = pointwise_variable(1, lambda w: np.array([np.nan if w.seed == bad else 0.0]))
    rep = check_equilibrium(_halving(), cand, None, times=range(4), fibers=fibers)
    assert math.isnan(rep.max_residual)
    assert not rep.passed


def test_nan_tail_fails_the_convergence_check():
    # the pullback from time 11, second of the tail grid, starts at NaN on
    # the first fiber only; every other tail state is the equilibrium 0
    fibers = fiber_grid(2, seed=6)
    start = (fibers[0].seed, -11)
    x0 = pointwise_variable(1, lambda w: np.array([np.nan if (w.seed, w.offset) == start else 0.0]))
    assert _tail_grid("discrete", 20)[:2] == [10, 11]
    rep = estimate_characteristic(_halving(), constant_rv(0.0), x0, horizon=20, tol=1e-9,
                                  fibers=fibers)
    assert math.isnan(rep.tail_diagnostic[0])
    assert not rep.converged[0]
    assert rep.tail_diagnostic[1] == 0.0 and rep.converged[1]
    assert not rep.all_converged


def _by_time(fibers, times, dim, column):
    """``(F, n, dim)`` array whose column ``i`` is the ``(F, dim)``
    ``column(i, times[i])``: a grid read one batched call per time."""
    times = np.asarray(times)
    out = np.empty((len(fibers), times.size, dim))
    for i, t in enumerate(times.tolist()):
        out[:, i] = column(i, t)
    return out


@pytest.mark.parametrize("source", ["cells", "decaying"])
def test_batched_grid_reads_equal_the_per_time_loop(source, linear_coeffs, monkeypatch):
    # the 28 (fiber, time) rows of a grid in batched flows of at most five
    # rows, so that a grid spans six batches and the four times of the
    # second fiber straddle the first edge; bit for bit as one batched
    # flow per grid time
    monkeypatch.setattr(rdsi, "_BATCH_VALUES", 5)
    rows = []  # the rows of each flow
    inner = linear.as_system(linear_coeffs)
    sys = SystemFlow(1, 1, "continuous",
                     lambda t, ws, xs, u: rows.append(len(ws)) or inner.flow(t, ws, xs, u))
    fibers = batch([*fiber_grid(4, seed=170, offset=0.25), *fiber_grid(3, seed=180, offset=0.6)])
    times = np.array([0.0, 0.5, 3.0, 7.25])
    x = cell_noise(CellLaw("uniform", lo=(-1.0,), hi=(1.0,)), lag=-2)
    box = CellLaw("uniform", lo=(0.5,), hi=(1.5,))
    u = (stationary(cell_noise(box, lag=1), "continuous") if source == "cells"
         else decaying_input(cell_noise(box), cell_noise(box, lag=2), rate=0.75))

    def rewound(_, t):
        """The flow for ``t`` from each fiber rewound by ``t``."""
        return sys.many(t, fibers.shift(-t), x.across(fibers.shift(-t)), u)

    cases = [
        (pullback_traj(sys, x, u), rewound),
        (forward_traj(sys, x, u), lambda _, t: sys.many(t, fibers, x.across(fibers), u)),
        (u.pullback(), lambda i, t: u.fn(fibers.shift(-t), times[i:i + 1])[:, 0]),
        (forward_traj(sys, x, u).pullback(), rewound),
    ]
    for process, column in cases:
        want = _by_time(fibers, times, 1, column)
        rows.clear()
        got = process.over(fibers, times)
        assert got.tobytes() == want.tobytes()
        if process is not cases[2][0]:
            assert rows == [5] * 5 + [3]
    # the estimate at each point: the pullback to the horizon from the
    # point's fiber, one time at a time
    rep = estimate_characteristic(sys, cell_noise(box, lag=1), x, horizon=6.0, tol=1e-6,
                                  fibers=fibers)
    bar_u = stationary(cell_noise(box, lag=1), "continuous")
    want = _by_time(fibers, times, 1, lambda _, t: sys.many(
        6.0, fibers.shift(t).shift(-6.0), x.across(fibers.shift(t).shift(-6.0)), bar_u))
    assert rep.estimate.over(fibers, times).tobytes() == want.tobytes()
