"""Unit tests for cascades, feedback loops, and the small-gain iteration."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from rdsio import discrete, linear, rdsi
from rdsio.compose import (
    cascade,
    check_lipschitz,
    equilibrium_inputs,
    feedback,
    grid_characteristic_map,
    loop_signals,
    small_gain_iterate,
    verify_cascade_forward,
    verify_cascade_pullback,
    verify_feedback,
)
from rdsio.mpds import CellLaw, Fiber, RandomVariable, cell_noise, constant_rv, fiber_grid
from rdsio.process import constant, decaying_input, stationary
from rdsio.rdsi import EquilibriumCandidate, OutputMap, check_equilibrium, pullback_traj

NOISE = CellLaw("uniform", lo=(-0.5,), hi=(0.5,))
POS = CellLaw("uniform", lo=(0.0,), hi=(0.3,))


def _noisy_affine(alpha, lag=0, law=NOISE, input_gain=1.0):
    n = cell_noise(law, lag=lag)

    def f(w, x, u):
        return alpha * x + input_gain * u + n(w)

    return discrete.flow_from_generator(discrete.Generator(1, 1, f))


def _autonomous_affine(alpha, lag=0, law=NOISE):
    n = cell_noise(law, lag=lag)

    def f(w, x, u):
        return alpha * x + n(w)

    return discrete.flow_from_generator(discrete.Generator(1, 0, f))


def test_nan_residual_fails_the_exact_checks():
    # a readout that is NaN on one probe fiber makes that fiber's residuals
    # NaN, and the worst case of each check with them
    fibers = fiber_grid(3, seed=40)
    bad = fibers[1].seed
    h = OutputMap(1, lambda w, x: x * np.nan if w.seed == bad else 0.5 * x)
    z = constant_rv([0.3, -0.2])
    times = [0, 4, 8]
    casc = cascade(_autonomous_affine(0.6), h, _noisy_affine(0.5))
    loop = feedback(_noisy_affine(0.5), h, _noisy_affine(0.25),
                    OutputMap(1, lambda w, x: 0.5 * x))
    for rep in (verify_cascade_forward(casc, z, times, fibers),
                verify_cascade_pullback(casc, z, times, fibers),
                verify_feedback(loop, z, times, fibers)):
        assert math.isnan(rep.max_residual)
        assert not rep.passed


class TestCascade:
    def test_zero_output_upstream_leaves_downstream_autonomous(self):
        up = _autonomous_affine(0.6)
        down = _noisy_affine(0.5, lag=2, law=POS)
        h_zero = OutputMap(1, lambda w, x: np.zeros(1))
        casc = cascade(up, h_zero, down)
        w = Fiber(3, 0)
        z = np.array([0.4, -0.2])
        for n in (0, 1, 5, 12):
            combined = casc.combined(n, w, z, None)
            alone = down(n, w, z[1:], constant([0.0]))
            np.testing.assert_array_equal(combined[1:], alone)

    def test_discrete_identities_exact(self):
        up = _autonomous_affine(0.6)
        down = _noisy_affine(0.5, lag=2, law=POS)
        h = OutputMap(1, lambda w, x: np.clip(x, -2.0, 2.0) + cell_noise(POS, lag=1)(w))
        casc = cascade(up, h, down)
        rng = np.random.default_rng(1)
        fibers = fiber_grid(4, seed=100)
        times = list(range(0, 41, 8))
        for _ in range(40):
            z = constant_rv(rng.uniform(-1.5, 1.5, size=2))
            assert verify_cascade_forward(casc, z, times, fibers).passed
            assert verify_cascade_pullback(casc, z, times, fibers).passed

    def test_random_initial_states_cover_cell_noise(self):
        up = _autonomous_affine(0.6)
        down = _noisy_affine(0.5, lag=2, law=POS)
        h = OutputMap(1, lambda w, x: 0.8 * x)
        casc = cascade(up, h, down)
        z = cell_noise(CellLaw("uniform", lo=(-1.0, -1.0), hi=(1.0, 1.0)), lag=-3)
        assert verify_cascade_forward(casc, z, range(0, 30, 5), fiber_grid(5, seed=7)).passed
        assert verify_cascade_pullback(casc, z, range(0, 30, 5), fiber_grid(5, seed=7)).passed

    def test_empty_grid_rejected(self):
        casc = cascade(_autonomous_affine(0.6), OutputMap(1, lambda w, x: x), _noisy_affine(0.5))
        z = constant_rv([0.1, 0.2])
        for check in (verify_cascade_forward, verify_cascade_pullback):
            with pytest.raises(ValueError, match="at least one"):
                check(casc, z, [], fiber_grid(2, seed=1))
            with pytest.raises(ValueError, match="at least one"):
                check(casc, z, [0, 4], [])

    def test_dimension_mismatch_rejected(self):
        up = _autonomous_affine(0.6)
        down = _noisy_affine(0.5)
        with pytest.raises(ValueError, match="dimension"):
            cascade(up, OutputMap(2, lambda w, x: np.concatenate([x, x])), down)

    def test_continuous_pair_matches_coupled_ode_oracle(self):
        a1 = cell_noise(CellLaw("uniform", lo=(-2.0,), hi=(-0.5,)))
        a2 = cell_noise(CellLaw("uniform", lo=(-1.5,), hi=(-0.6,)), lag=3)
        c1 = linear.LinearCoeffs(a=a1, b=constant_rv(1.0), decay_rate_hint=1.2)
        c2 = linear.LinearCoeffs(a=a2, b=constant_rv(1.0), decay_rate_hint=1.0)
        gain = 0.7
        up, down = linear.as_system(c1), linear.as_system(c2)
        h = OutputMap(1, lambda w, x: gain * x)
        casc = cascade(up, h, down)
        u = stationary(cell_noise(POS, lag=5), "continuous")

        def coupled_rhs(s, y, w):
            ws = w.shift(s)
            return [
                a1.scalar(ws) * y[0] + u.scalar(s, w),
                a2.scalar(ws) * y[1] + gain * y[0],
            ]

        t_final = 6.0
        for w in fiber_grid(5, seed=40, offset=0.25):
            z = np.array([0.5, -0.3])
            got = casc.combined(t_final, w, z, u)
            state = z.copy()
            bounds = [0.0] + [k - w.offset for k in range(
                math.floor(w.offset) + 1, math.ceil(w.offset + t_final))] + [t_final]
            for lo, hi in zip(bounds, bounds[1:]):
                sol = solve_ivp(coupled_rhs, (lo, hi), state, args=(w,),
                                rtol=1e-11, atol=1e-13)
                state = sol.y[:, -1]
            np.testing.assert_allclose(got, state, rtol=0, atol=1e-8)

    def test_shifted_start_output_identity(self):
        up = _autonomous_affine(0.6)
        h = OutputMap(1, lambda w, x: np.clip(x, -2.0, 2.0) + cell_noise(POS)(w))
        gen = up.generator
        x = cell_noise(CellLaw("uniform", lo=(-1.0,), hi=(1.0,)), lag=-1)
        x_hat = RandomVariable(
            1, lambda w: gen(w.shift(-1), x(w.shift(-1)), None)
        )
        eta = rdsi.output_traj(up, h, x)
        eta_hat = rdsi.output_traj(up, h, x_hat)
        shifted = eta.shift(1)
        for w in fiber_grid(6, seed=50):
            for n in range(0, 30, 3):
                np.testing.assert_array_equal(eta_hat(n, w), shifted(n, w))


class TestBoundedOutputCascade:
    def test_combined_pullback_reaches_the_product_limit(self):
        # upstream autonomous with a globally attracting random equilibrium,
        # bounded readout, downstream driven: the combined pullback settles
        # on (upstream limit, downstream characteristic of the limit output)
        alpha1, alpha2, beta2 = 0.6, 0.5, 0.8
        n1 = cell_noise(NOISE)
        n2 = cell_noise(POS, lag=2)
        up = _autonomous_affine(alpha1)
        down = _noisy_affine(alpha2, lag=2, law=POS, input_gain=beta2)
        cap = 0.7
        h = OutputMap(1, lambda w, x: np.clip(x, -cap, cap))
        casc = cascade(up, h, down)

        depth = 120

        def xi1_inf(w):
            return sum(alpha1 ** (j - 1) * n1(w.shift(-j))[0] for j in range(1, depth + 1))

        def u2_inf(w):
            return float(np.clip(xi1_inf(w), -cap, cap))

        def xi2_inf(w):
            return sum(
                alpha2 ** (j - 1) * (beta2 * u2_inf(w.shift(-j)) + n2(w.shift(-j))[0])
                for j in range(1, depth + 1)
            )

        pb = pullback_traj(casc.combined, constant_rv([1.2, -0.8]))
        for w in fiber_grid(5, seed=60):
            got = pb(60, w)
            assert got[0] == pytest.approx(xi1_inf(w), abs=1e-6)
            assert got[1] == pytest.approx(xi2_inf(w), abs=1e-6)


class TestLipschitzCascade:
    def test_two_stage_limit_under_converging_input(self):
        # both stages linear with a random-gain readout in between; the
        # combined pullback converges to (K1(u_inf), K2(g * K1(u_inf)))
        c1 = linear.LinearCoeffs(a=cell_noise(CellLaw("uniform", lo=(-2.0,), hi=(-0.5,))),
                                 b=constant_rv(1.0), decay_rate_hint=1.2)
        c2 = linear.LinearCoeffs(a=cell_noise(CellLaw("uniform", lo=(-1.5,), hi=(-0.6,)), lag=4),
                                 b=constant_rv(1.0), decay_rate_hint=1.0)
        g = cell_noise(CellLaw("uniform", lo=(0.3,), hi=(0.9,)), lag=7)
        up, down = linear.as_system(c1), linear.as_system(c2)
        h = OutputMap(1, lambda w, x: g(w) * x)
        casc = cascade(up, h, down)

        u_inf = cell_noise(CellLaw("uniform", lo=(0.5,), hi=(1.5,)))
        u = decaying_input(u_inf, cell_noise(CellLaw("uniform", lo=(0.2,), hi=(0.4,)), lag=1))

        k1 = RandomVariable(
            1, lambda w: np.array([linear.characteristic(c1, u_inf, w, tol=1e-10)])
        )
        v_inf = g * k1
        # the intermediate limit varies inside cells, so the downstream
        # oracle must not treat it as cell-wise constant
        k2 = RandomVariable(
            1, lambda w: np.array([
                linear.characteristic(c2, v_inf, w, tol=1e-10,
                                      input_cell_resolved=False)
            ])
        )

        pb = pullback_traj(casc.combined, constant_rv([0.0, 0.0]), u)
        for w in fiber_grid(4, seed=70, offset=0.25):
            got = pb(30.0, w)
            assert got[0] == pytest.approx(k1.scalar(w), abs=1e-4)
            assert got[1] == pytest.approx(k2.scalar(w), abs=1e-4)

    def test_lipschitz_certificates(self):
        cap = 1.5
        h_clamp = OutputMap(1, lambda w, x: np.clip(x, 0.0, cap))
        rep = check_lipschitz(h_clamp, constant_rv(1.0), samples=300, seed=1,
                              state_dim=1)
        assert rep.passed

        g = cell_noise(CellLaw("uniform", lo=(0.5,), hi=(2.0,)))
        h_gain = OutputMap(1, lambda w, x: g(w) * x)
        rep = check_lipschitz(h_gain, g.map(np.abs), samples=300, seed=2, state_dim=1)
        assert rep.passed
        assert rep.constant_temperedness.tempered_consistent

        h_square = OutputMap(1, lambda w, x: x * x)
        rep = check_lipschitz(h_square, constant_rv(3.0), samples=500, seed=3,
                              state_dim=1, state_scale=5.0)
        assert not rep.passed
        assert rep.violations > 0


class TestFeedback:
    def _loop(self, with_noise=True, g1=0.9, g2=0.5, clamp=5.0):
        n1 = cell_noise(NOISE) if with_noise else None
        n2 = cell_noise(POS, lag=3) if with_noise else None

        def f1(w, x, u):
            drift = n1(w)[0] if n1 is not None else 0.0
            return np.array([0.5 * x[0] + u[0] + drift])

        def f2(w, x, u):
            drift = n2(w)[0] if n2 is not None else 0.0
            return np.array([0.25 * x[0] + 0.5 * u[0] + drift])

        h1 = OutputMap(1, lambda w, x: np.clip(g1 * x, -clamp, clamp))
        h2 = OutputMap(1, lambda w, x: np.clip(g2 * x, -clamp, clamp))
        sys1 = discrete.flow_from_generator(discrete.Generator(1, 1, f1))
        sys2 = discrete.flow_from_generator(discrete.Generator(1, 1, f2))
        return feedback(sys1, h1, sys2, h2)

    def test_loop_equations_hold_exactly(self):
        loop = self._loop()
        rng = np.random.default_rng(4)
        for _ in range(20):
            z = constant_rv(rng.uniform(-1.0, 1.0, size=2))
            rep = verify_feedback(loop, z, list(range(0, 41, 5)), fiber_grid(4, seed=80))
            assert rep.passed
            assert rep.max_residual == 0.0

    def test_empty_grid_rejected(self):
        loop = self._loop()
        z = constant_rv([0.1, 0.2])
        with pytest.raises(ValueError, match="at least one"):
            verify_feedback(loop, z, [], fiber_grid(2, seed=1))
        with pytest.raises(ValueError, match="at least one"):
            verify_feedback(loop, z, [0, 5], [])

    def test_closed_loop_satisfies_the_flow_contract(self):
        loop = self._loop()
        rep = rdsi.check_axioms(loop.closed, samples=80, seed=5, max_time=12)
        assert rep.passed

    def test_zero_second_output_degenerates_to_a_cascade(self):
        # with the second readout silenced, the closed loop is exactly the
        # cascade of the zero-fed first system into the second
        n1 = cell_noise(NOISE)

        def f1(w, x, u):
            return np.array([0.5 * x[0] + u[0] + n1(w)[0]])

        def f1_zero_fed(w, x, u):
            return np.array([0.5 * x[0] + n1(w)[0]])

        f2 = lambda w, x, u: np.array([0.25 * x[0] + 0.5 * u[0]])
        h1 = OutputMap(1, lambda w, x: 0.9 * x)
        h2 = OutputMap(1, lambda w, x: np.zeros(1))
        sys1 = discrete.flow_from_generator(discrete.Generator(1, 1, f1))
        sys2 = discrete.flow_from_generator(discrete.Generator(1, 1, f2))
        loop = feedback(sys1, h1, sys2, h2)
        up = discrete.flow_from_generator(discrete.Generator(1, 0, f1_zero_fed))
        casc = cascade(up, h1, discrete.flow_from_generator(discrete.Generator(1, 1, f2)))
        w = Fiber(11, 0)
        z = np.array([0.7, -0.4])
        for n in (0, 3, 10, 25):
            np.testing.assert_array_equal(
                loop.closed(n, w, z, None), casc.combined(n, w, z, None)
            )

    def test_equilibrium_correspondence(self):
        # build the closed loop's true random equilibrium from the geometric
        # series, then check both directions of the correspondence
        g1, g2 = 0.9, 0.5
        loop = self._loop(with_noise=True, g1=g1, g2=g2, clamp=50.0)
        n1 = cell_noise(NOISE)
        n2 = cell_noise(POS, lag=3)
        A = np.array([[0.5, g2], [0.5 * g1, 0.25]])

        values = {}  # the series per fiber, summed once

        def z_eq_fn(w):
            if w not in values:
                total = np.zeros(2)
                power = np.eye(2)
                for j in range(1, 260):
                    total = total + power @ np.array([n1(w.shift(-j))[0],
                                                      n2(w.shift(-j))[0]])
                    power = power @ A
                values[w] = total
            return values[w]

        z_eq = RandomVariable(2, z_eq_fn)
        fibers = fiber_grid(5, seed=90)
        closed_eq = check_equilibrium(loop.closed, EquilibriumCandidate(z_eq, None),
                                      times=range(0, 11), fibers=fibers, tol=1e-12)
        assert closed_eq.passed

        mu, nu = equilibrium_inputs(loop, z_eq)
        x1_eq = RandomVariable(1, lambda w: z_eq(w)[:1])
        x2_eq = RandomVariable(1, lambda w: z_eq(w)[1:])
        eq1 = check_equilibrium(loop.sys1, EquilibriumCandidate(x1_eq, stationary(mu)),
                                times=range(0, 11), fibers=fibers, tol=1e-12)
        eq2 = check_equilibrium(loop.sys2, EquilibriumCandidate(x2_eq, stationary(nu)),
                                times=range(0, 11), fibers=fibers, tol=1e-12)
        assert eq1.passed and eq2.passed
        # the stationary inputs are the opposite systems' output equilibria
        for w in fibers:
            np.testing.assert_allclose(mu(w), loop.out2(w, x2_eq(w)), rtol=0, atol=0)
            np.testing.assert_allclose(nu(w), loop.out1(w, x1_eq(w)), rtol=0, atol=0)

    def test_loop_signals_match_readouts(self):
        loop = self._loop()
        z = constant_rv([0.3, -0.6])
        mu, nu = loop_signals(loop, z)
        traj = rdsi.forward_traj(loop.closed, z)
        for w in fiber_grid(3, seed=95):
            for n in (0, 2, 7):
                state = traj(n, w)
                np.testing.assert_array_equal(mu(n, w), loop.out2(w.shift(n), state[1:]))
                np.testing.assert_array_equal(nu(n, w), loop.out1(w.shift(n), state[:1]))

    def test_validation(self):
        lin = linear.as_system(linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0)))
        h = OutputMap(1, lambda w, x: x)
        with pytest.raises(ValueError, match="discrete"):
            feedback(lin, h, lin, h)


class TestSmallGain:
    def test_affine_contraction_rate_and_fixed_point(self):
        fibers = fiber_grid(5, seed=1)
        charmap = grid_characteristic_map(lambda w, s: 0.5 * s + 1.0, -10, 10, fibers, points=5)
        fixed, rep = small_gain_iterate(charmap, np.zeros(len(fibers)), max_iters=80,
                                        tol=1e-12)
        assert rep.converged
        assert not rep.period_two_detected
        assert rep.rate_estimate == pytest.approx(0.5, abs=0.02)
        for v in rep.fixed_point_values:
            assert v == pytest.approx(2.0, abs=1e-10)
        assert tuple(fixed.tolist()) == rep.fixed_point_values

    def test_constant_map_lands_immediately(self):
        fibers = fiber_grid(4, seed=2)
        target = cell_noise(POS).across(fibers)[:, 0]

        def charmap(values):
            return target.copy()

        fixed, rep = small_gain_iterate(charmap, np.full(len(fibers), 5.0), max_iters=10,
                                        tol=1e-12)
        assert rep.converged
        assert rep.iterations == 2  # one landing step, one confirming step
        np.testing.assert_array_equal(fixed, target)

    def test_period_two_detected_under_saturated_large_gain(self):
        def sat(w, s):
            return float(np.clip(-1.5 * s, -4.0, 4.0))

        fibers = fiber_grid(4, seed=3)
        charmap = grid_characteristic_map(sat, -6, 6, fibers, points=121)
        _, rep = small_gain_iterate(charmap, np.full(len(fibers), 3.0), max_iters=100,
                                    tol=1e-12)
        assert rep.period_two_detected
        assert not rep.converged
        for a, b in rep.period_two_values:
            assert {round(a, 9), round(b, 9)} == {-4.0, 4.0}

    def test_grid_map_is_exact_on_affine_families(self):
        charmap = grid_characteristic_map(lambda w, s: -0.25 * s + 0.5, -2, 2, [Fiber(0, 0)],
                                          points=3)
        values = charmap(np.array([8.0]))  # beyond the grid: linear extrapolation
        assert values[0] == pytest.approx(-0.25 * 8.0 + 0.5, abs=1e-12)

    def test_grid_map_tables_each_fiber_once(self):
        calls = []

        def scalar_map(w, s):
            calls.append(w)
            return 0.5 * s + w.seed

        fibers = fiber_grid(3, seed=10)
        charmap = grid_characteristic_map(scalar_map, -1.0, 1.0, fibers, points=4)
        assert len(calls) == 3 * 4
        np.testing.assert_array_equal(charmap(np.zeros(3)), [10.0, 11.0, 12.0])
        charmap(np.ones(3))
        assert len(calls) == 3 * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_characteristic_map(lambda w, s: s, 0, 1, [Fiber(0, 0)], points=1)
        charmap = grid_characteristic_map(lambda w, s: s, 0, 1, fiber_grid(2, seed=4), points=2)
        with pytest.raises(ValueError):
            small_gain_iterate(charmap, np.zeros(2), max_iters=1, tol=1e-9)

    @pytest.mark.parametrize("lo, hi", [(10.0, -10.0), (1.0, 1.0)])
    def test_reversed_or_empty_grid_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="lo < hi"):
            grid_characteristic_map(lambda w, s: s, lo, hi, [Fiber(0, 0)])
