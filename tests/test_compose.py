"""Unit tests for cascades, feedback loops, and the small-gain iteration."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdsio import cli, compose, discrete, linear, rdsi
from rdsio.cli import build_output_map
from rdsio.compose import (
    cascade,
    feedback,
    grid_characteristic_map,
    small_gain_iterate,
    verify_cascade_forward,
    verify_cascade_pullback,
    verify_feedback,
)
from rdsio.exprs import compile_generator
from rdsio.mpds import (CellLaw, Fiber, Fibers, RandomVariable, cell_noise, constant_rv,
                        fiber_grid, law_cells)
from rdsio.process import constant, stationary
from rdsio.rdsi import OutputMap, check_equilibrium, pullback_traj
from reference_process import batch, one_readout, one_step, pointwise_variable

NOISE = CellLaw("uniform", lo=(-0.5,), hi=(0.5,))
POS = CellLaw("uniform", lo=(0.0,), hi=(0.3,))


def _at(rv, seeds, offsets):
    """``rv`` at the fiber of each row of a step, ``(B, dim)``."""
    return rv.across(Fibers(seeds, offsets))


def _noisy_affine(alpha, lag=0, law=NOISE, input_gain=1.0):
    n = cell_noise(law, lag=lag)

    def f(seeds, offsets, xs, us, cells):
        return alpha * xs + input_gain * us + _at(n, seeds, offsets)

    return discrete.flow_from_generator(discrete.Generator(1, 1, f))


def _autonomous_affine(alpha, lag=0, law=NOISE):
    n = cell_noise(law, lag=lag)

    def f(seeds, offsets, xs, us, cells):
        return alpha * xs + _at(n, seeds, offsets)

    return discrete.flow_from_generator(discrete.Generator(1, 0, f))


def _clip(lo, hi, gain=1.0, noise=None):
    """Readout ``clip(gain * x, lo, hi)``, plus ``noise`` at the fiber if given."""
    def fn(seeds, offsets, xs, cells):
        y = np.clip(gain * xs, lo, hi)
        return y + _at(noise, seeds, offsets) if noise is not None else y
    return OutputMap(1, fn)


def _gain(g):
    """Readout ``g * x``; ``g`` is a number or a random variable."""
    if isinstance(g, RandomVariable):
        return OutputMap(1, lambda seeds, offsets, xs, cells: _at(g, seeds, offsets) * xs)
    return OutputMap(1, lambda seeds, offsets, xs, cells: g * xs)


ZERO = OutputMap(1, lambda seeds, offsets, xs, cells: np.zeros((len(xs), 1)))


def test_nan_residual_fails_the_exact_checks():
    # a readout that is NaN on one probe fiber makes that fiber's residuals
    # NaN, and the worst case of each check with them
    fibers = fiber_grid(3, seed=40)
    bad = fibers[1].seed
    h = OutputMap(1, lambda seeds, offsets, xs, cells: np.where(
        np.array(seeds)[:, None] == bad, xs * np.nan, 0.5 * xs))
    zs = [constant_rv([0.3, -0.2])]
    times = [0, 4, 8]
    casc = cascade(_autonomous_affine(0.6), h, _noisy_affine(0.5))
    loop = feedback(_noisy_affine(0.5), h, _noisy_affine(0.25), _gain(0.5))
    for rep in (verify_cascade_forward(casc, zs, times, fibers),
                verify_cascade_pullback(casc, zs, times, fibers),
                verify_feedback(loop, zs, times, fibers)):
        assert math.isnan(rep.max_residual)
        assert not rep.passed


class TestCascade:
    def test_zero_output_upstream_leaves_downstream_autonomous(self):
        up = _autonomous_affine(0.6)
        down = _noisy_affine(0.5, lag=2, law=POS)
        casc = cascade(up, ZERO, down)
        w = Fiber(3, 0)
        z = np.array([0.4, -0.2])
        for n in (0, 1, 5, 12):
            combined = casc.combined(n, w, z, None)
            alone = down(n, w, z[1:], constant([0.0]))
            np.testing.assert_array_equal(combined[1:], alone)

    def test_discrete_identities_exact(self):
        up = _autonomous_affine(0.6)
        down = _noisy_affine(0.5, lag=2, law=POS)
        h = _clip(-2.0, 2.0, noise=cell_noise(POS, lag=1))
        casc = cascade(up, h, down)
        rng = np.random.default_rng(1)
        fibers = fiber_grid(4, seed=100)
        times = list(range(0, 41, 8))
        zs = [constant_rv(rng.uniform(-1.5, 1.5, size=2)) for _ in range(40)]
        assert verify_cascade_forward(casc, zs, times, fibers).passed
        assert verify_cascade_pullback(casc, zs, times, fibers).passed

    def test_forward_identity_exact_under_an_upstream_input(self):
        casc = cascade(_noisy_affine(0.6), _clip(-2.0, 2.0), _noisy_affine(0.5, lag=2, law=POS))
        u = stationary(cell_noise(POS, lag=2))
        zs = [constant_rv([0.4, -0.9]), constant_rv([-1.1, 0.2])]
        rep = verify_cascade_forward(casc, zs, [0, 3, 9], fiber_grid(3, seed=5), u=u)
        assert rep.passed and rep.samples == 18

    def test_random_initial_states_cover_cell_noise(self):
        up = _autonomous_affine(0.6)
        down = _noisy_affine(0.5, lag=2, law=POS)
        casc = cascade(up, _gain(0.8), down)
        z = [cell_noise(CellLaw("uniform", lo=(-1.0, -1.0), hi=(1.0, 1.0)), lag=-3)]
        assert verify_cascade_forward(casc, z, range(0, 30, 5), fiber_grid(5, seed=7)).passed
        assert verify_cascade_pullback(casc, z, range(0, 30, 5), fiber_grid(5, seed=7)).passed

    def test_empty_grid_rejected(self):
        casc = cascade(_autonomous_affine(0.6), _gain(1.0), _noisy_affine(0.5))
        z = [constant_rv([0.1, 0.2])]
        for check in (verify_cascade_forward, verify_cascade_pullback):
            with pytest.raises(ValueError, match="at least one"):
                check(casc, z, [], fiber_grid(2, seed=1))
            with pytest.raises(ValueError, match="at least one"):
                check(casc, z, [0, 4], [])
            with pytest.raises(ValueError, match="at least one initial state"):
                check(casc, [], [0, 4], fiber_grid(2, seed=1))
            with pytest.raises(ValueError, match="t >= 0"):
                check(casc, z, [-1, 4], fiber_grid(2, seed=1))

    def test_dimension_mismatch_rejected(self):
        up = _autonomous_affine(0.6)
        down = _noisy_affine(0.5)
        with pytest.raises(ValueError, match="dimension"):
            cascade(up, OutputMap(2, lambda seeds, offsets, xs, cells: np.concatenate([xs, xs],
                                                                                      axis=1)),
                    down)

    def test_shifted_start_output_identity(self):
        up = _autonomous_affine(0.6)
        h = _clip(-2.0, 2.0, noise=cell_noise(POS))
        gen = up.generator
        x = cell_noise(CellLaw("uniform", lo=(-1.0,), hi=(1.0,)), lag=-1)
        x_hat = pointwise_variable(
            1, lambda w: one_step(gen, w.shift(-1), x.across(batch([w.shift(-1)]))[0]))
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
        casc = cascade(up, _clip(-cap, cap), down)

        depth = 120

        def xi1_inf(w):
            return sum(alpha1 ** (j - 1) * n1.across(batch([w.shift(-j)]))[0, 0]
                       for j in range(1, depth + 1))

        def u2_inf(w):
            return float(np.clip(xi1_inf(w), -cap, cap))

        def xi2_inf(w):
            return sum(
                alpha2 ** (j - 1)
                * (beta2 * u2_inf(w.shift(-j)) + n2.across(batch([w.shift(-j)]))[0, 0])
                for j in range(1, depth + 1)
            )

        pb = pullback_traj(casc.combined, constant_rv([1.2, -0.8]))
        for w in fiber_grid(5, seed=60):
            got = pb(60, w)
            assert got[0] == pytest.approx(xi1_inf(w), abs=1e-6)
            assert got[1] == pytest.approx(xi2_inf(w), abs=1e-6)


class TestFeedback:
    def _loop(self, with_noise=True, g1=0.9, g2=0.5, clamp=5.0):
        n1 = cell_noise(NOISE) if with_noise else None
        n2 = cell_noise(POS, lag=3) if with_noise else None

        def f1(seeds, offsets, xs, us, cells):
            drift = _at(n1, seeds, offsets) if n1 is not None else 0.0
            return 0.5 * xs + us + drift

        def f2(seeds, offsets, xs, us, cells):
            drift = _at(n2, seeds, offsets) if n2 is not None else 0.0
            return 0.25 * xs + 0.5 * us + drift

        h1 = _clip(-clamp, clamp, gain=g1)
        h2 = _clip(-clamp, clamp, gain=g2)
        sys1 = discrete.flow_from_generator(discrete.Generator(1, 1, f1))
        sys2 = discrete.flow_from_generator(discrete.Generator(1, 1, f2))
        return feedback(sys1, h1, sys2, h2)

    def test_loop_equations_hold_exactly(self):
        loop = self._loop()
        rng = np.random.default_rng(4)
        zs = [constant_rv(rng.uniform(-1.0, 1.0, size=2)) for _ in range(20)]
        rep = verify_feedback(loop, zs, list(range(0, 41, 5)), fiber_grid(4, seed=80))
        assert rep.passed
        assert rep.max_residual == 0.0

    def test_empty_grid_rejected(self):
        loop = self._loop()
        z = [constant_rv([0.1, 0.2])]
        with pytest.raises(ValueError, match="at least one"):
            verify_feedback(loop, z, [], fiber_grid(2, seed=1))
        with pytest.raises(ValueError, match="at least one"):
            verify_feedback(loop, z, [0, 5], batch([]))
        with pytest.raises(ValueError, match="at least one initial state"):
            verify_feedback(loop, [], [0, 5], fiber_grid(2, seed=1))
        with pytest.raises(ValueError, match="t >= 0"):
            verify_feedback(loop, z, [-1, 5], fiber_grid(2, seed=1))

    def test_closed_loop_satisfies_the_flow_contract(self):
        loop = self._loop()
        rep = rdsi.check_axioms(loop.closed, samples=80, seed=5, max_time=12)
        assert rep.passed

    def test_zero_second_output_degenerates_to_a_cascade(self):
        # with the second readout silenced, the closed loop is exactly the
        # cascade of the zero-fed first system into the second
        n1 = cell_noise(NOISE)

        def f1(seeds, offsets, xs, us, cells):
            return 0.5 * xs + us + _at(n1, seeds, offsets)

        def f1_zero_fed(seeds, offsets, xs, us, cells):
            return 0.5 * xs + _at(n1, seeds, offsets)

        f2 = lambda seeds, offsets, xs, us, cells: 0.25 * xs + 0.5 * us
        h1, h2 = _gain(0.9), ZERO
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
                    total = total + power @ np.array([n1.across(batch([w.shift(-j)]))[0, 0],
                                                      n2.across(batch([w.shift(-j)]))[0, 0]])
                    power = power @ A
                values[w] = total
            return values[w]

        z_eq = pointwise_variable(2, z_eq_fn)
        fibers = fiber_grid(5, seed=90)
        closed_eq = check_equilibrium(loop.closed, z_eq, None, times=range(0, 11),
                                      fibers=fibers, tol=1e-12)
        assert closed_eq.passed

        # each block is an equilibrium of its system under the stationary
        # readout of the other block
        x1_eq = pointwise_variable(1, lambda w: z_eq_fn(w)[:1])
        x2_eq = pointwise_variable(1, lambda w: z_eq_fn(w)[1:])
        mu = pointwise_variable(1, lambda w: one_readout(loop.out2, w, z_eq_fn(w)[1:]))
        nu = pointwise_variable(1, lambda w: one_readout(loop.out1, w, z_eq_fn(w)[:1]))
        eq1 = check_equilibrium(loop.sys1, x1_eq, stationary(mu), times=range(0, 11),
                                fibers=fibers, tol=1e-12)
        eq2 = check_equilibrium(loop.sys2, x2_eq, stationary(nu), times=range(0, 11),
                                fibers=fibers, tol=1e-12)
        assert eq1.passed and eq2.passed

    def test_drive_rows_equal_the_per_state_reads(self):
        # every row's drive, read off one scan of all rows, against one
        # output trajectory per (state, start fiber): batched and pointwise
        casc = cascade(_autonomous_affine(0.6), _clip(-2.0, 2.0, noise=cell_noise(POS, lag=1)),
                       _noisy_affine(0.5, lag=2, law=POS))
        loop = self._loop()
        zs = [constant_rv([0.3, -0.6]), constant_rv([-1.2, 0.4]),
              cell_noise(CellLaw("uniform", lo=(-1.0, -1.0), hi=(1.0, 1.0)), lag=-3)]
        fibers, times = fiber_grid(3, seed=95), [0, 3, 7]
        for sign in (1, -1):  # forward and pullback start fibers
            starts = batch([w.shift(sign * t) for w in fibers for t in times] * len(zs))
            ts = np.array(times * len(fibers) * len(zs))
            states = np.concatenate([z.across(starts[:len(fibers) * len(times)]) for z in zs])
            ups = compose._scan(casc.up, ts, starts, states[:, :1], None)
            drive = casc.up_output.over(starts, range(7), ups[:, :7])
            traj = compose._scan(loop.closed, ts, starts, states, None)
            mu = loop.out2.over(starts, range(7), traj[:, :7, 1:])
            nu = loop.out1.over(starts, range(7), traj[:, :7, :1])
            for r, (t, w) in enumerate(zip(ts.tolist(), starts)):
                eta = rdsi.output_traj(casc.up, casc.up_output, constant_rv(states[r, :1]))
                assert drive[r, :t].tobytes() == eta.over(batch([w]), range(t))[0].tobytes()
                closed = rdsi.forward_traj(loop.closed, constant_rv(states[r]))
                for n in range(t):
                    np.testing.assert_array_equal(drive[r, n], eta(n, w))
                    state = closed(n, w)
                    np.testing.assert_array_equal(
                        mu[r, n], one_readout(loop.out2, w.shift(n), state[1:]))
                    np.testing.assert_array_equal(
                        nu[r, n], one_readout(loop.out1, w.shift(n), state[:1]))

    def test_validation(self):
        lin = linear.as_system(linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0)))
        h = _gain(1.0)
        with pytest.raises(ValueError, match="discrete"):
            feedback(lin, h, lin, h)


def _one_ulp_off(sys, seed, offset):
    """``sys`` with its step at ``Fiber(seed, offset)`` one ulp up in every
    coordinate, and every other step untouched."""
    gen = sys.generator

    def fn(seeds, offsets, zs, values, cells):
        out = np.array(gen.fn(seeds, offsets, zs, values, cells), dtype=float)
        hit = (np.asarray(seeds) == seed) & (np.asarray(offsets) == offset)
        out[hit] = np.nextafter(out[hit], np.inf)
        return out

    return discrete.flow_from_generator(replace(gen, fn=fn))


@pytest.mark.parametrize("check, offset", [(verify_cascade_forward, 3),
                                           (verify_cascade_pullback, -1),
                                           (verify_feedback, 3)])
def test_exact_checks_catch_one_step_one_ulp_off_on_one_fiber(check, offset):
    # the last step of some rows (time 4 forward from offset 0, every
    # positive time pullback) on the middle fiber is off; the second
    # readout of the loop halves its state, so the ulp survives the readout
    fibers = fiber_grid(3, seed=130)
    zs = [constant_rv([0.3, -0.2]), constant_rv([-0.7, 0.9])]
    if check is verify_feedback:
        loop = TestFeedback()._loop()
        system = replace(loop, closed=_one_ulp_off(loop.closed, fibers[1].seed, offset))
    else:
        casc = cascade(_autonomous_affine(0.6), _clip(-2.0, 2.0), _noisy_affine(0.5))
        system = replace(casc, combined=_one_ulp_off(casc.combined, fibers[1].seed, offset))
    rep = check(system, zs, [0, 4, 8], fibers)
    assert rep.max_residual > 0
    assert rep.passed is False


def test_cascade_pullback_scans_the_upstream_once_per_block():
    # the combined flow keeps the step it was built with, so only the
    # drive scans count
    n = cell_noise(NOISE)
    calls = [0]

    def f(seeds, offsets, xs, us, cells):
        calls[0] += 1
        return 0.6 * xs + _at(n, seeds, offsets)

    casc = cascade(_autonomous_affine(0.6), _clip(-2.0, 2.0), _noisy_affine(0.5))
    counted = replace(casc, up=discrete.flow_from_generator(discrete.Generator(1, 0, f)))
    rng = np.random.default_rng(6)
    zs = [constant_rv(rng.uniform(-1.5, 1.5, size=2)) for _ in range(40)]
    horizon, fibers, times = 40, fiber_grid(4, seed=140), range(0, 41, 4)
    assert verify_cascade_pullback(counted, zs, times, fibers).passed
    per_block = max(1, compose._BLOCK_ENTRIES // (len(fibers) * len(times) * (horizon + 1)))
    assert calls[0] <= horizon * math.ceil(len(zs) / per_block)


def test_cascade_checks_refuse_a_continuous_cascade():
    # no continuous cascade reaches the checks: the interconnection refuses it
    c = linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0))
    with pytest.raises(ValueError, match="discrete"):
        cascade(linear.as_system(c), _gain(1.0), linear.as_system(c))
    with pytest.raises(ValueError, match="discrete"):
        cascade(_autonomous_affine(0.6), _gain(1.0), linear.as_system(c))


class TestSmallGain:
    def test_affine_contraction_rate_and_fixed_point(self):
        fibers = fiber_grid(5, seed=1)
        charmap = grid_characteristic_map(lambda ws, s: 0.5 * s + 1.0, -10, 10, fibers, points=5)
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
        def sat(ws, s):
            return np.clip(-1.5 * s, -4.0, 4.0)

        fibers = fiber_grid(4, seed=3)
        charmap = grid_characteristic_map(sat, -6, 6, fibers, points=121)
        _, rep = small_gain_iterate(charmap, np.full(len(fibers), 3.0), max_iters=100,
                                    tol=1e-12)
        assert rep.period_two_detected
        assert not rep.converged
        for a, b in rep.period_two_values:
            assert {round(a, 9), round(b, 9)} == {-4.0, 4.0}

    def test_grid_map_is_exact_on_affine_families(self):
        charmap = grid_characteristic_map(lambda ws, s: -0.25 * s + 0.5, -2, 2,
                                          batch([Fiber(0, 0)]), points=3)
        values = charmap(np.array([8.0]))  # beyond the grid: linear extrapolation
        assert values[0] == pytest.approx(-0.25 * 8.0 + 0.5, abs=1e-12)

    def test_grid_map_tables_each_fiber_once(self):
        calls = []

        def batch_map(ws, s):
            calls.append((ws, s))
            return 0.5 * s + ws.words.astype(float)

        fibers = fiber_grid(3, seed=10)
        charmap = grid_characteristic_map(batch_map, -1.0, 1.0, fibers, points=4)
        # one call, on every (fiber, grid point) row once
        assert len(calls) == 1
        ws, s = calls[0]
        rows = sorted(zip(ws.words.tolist(), s.tolist()))
        assert rows == sorted((seed, g) for seed in (10, 11, 12)
                              for g in np.linspace(-1.0, 1.0, 4).tolist())
        np.testing.assert_array_equal(charmap(np.zeros(3)), [10.0, 11.0, 12.0])
        charmap(np.ones(3))
        assert len(calls) == 1

    def test_grid_map_tables_in_blocks_bit_for_bit(self, monkeypatch):
        loop = compose.feedback(NOISY_CONTRACTION, OutputMap(1, lambda s, o, xs, c: 0.5 * xs),
                                NOISY_CONTRACTION, OutputMap(1, lambda s, o, xs, c: -0.25 * xs))
        gain, fibers, calls = compose.loop_gain(loop, 1e-10), fiber_grid(5, seed=2), []

        def counted(ws, s):
            calls.append(len(ws))
            return gain(ws, s)

        values = np.linspace(-3.0, 3.0, 5)
        whole = grid_characteristic_map(counted, -2.0, 2.0, fibers, points=7)(values)
        assert calls == [35]
        # blocks of 8 rows: the last one short, and fibers split across blocks
        monkeypatch.setattr(compose, "_BLOCK_ENTRIES", 8)
        blocked = grid_characteristic_map(counted, -2.0, 2.0, fibers, points=7)(values)
        assert calls[1:] == [8, 8, 8, 8, 3]
        assert blocked.tobytes() == whole.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_characteristic_map(lambda ws, s: s, 0, 1, batch([Fiber(0, 0)]), points=1)
        charmap = grid_characteristic_map(lambda ws, s: s, 0, 1, fiber_grid(2, seed=4), points=2)
        with pytest.raises(ValueError):
            small_gain_iterate(charmap, np.zeros(2), max_iters=1, tol=1e-9)

    @pytest.mark.parametrize("lo, hi", [(10.0, -10.0), (1.0, 1.0)])
    def test_reversed_or_empty_grid_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="lo < hi"):
            grid_characteristic_map(lambda ws, s: s, lo, hi, batch([Fiber(0, 0)]))


NOISY_CONTRACTION = discrete.flow_from_generator(compile_generator({
    "state_dim": 1, "input_dim": 1, "noise": {"law": "uniform", "lo": [-0.5], "hi": [0.5]},
    "components": [{"op": "add", "args": [{"op": "scale", "factor": 0.6, "arg": {"op": "state"}},
                                          {"op": "input"}, {"op": "noise"}]}]}))


class TestCharacteristic:
    def test_rows_are_bit_identical_alone_in_a_batch_and_across_blocks(self, monkeypatch):
        # inputs far from and at zero certify at different depths
        fibers = fiber_grid(5, seed=60, offset=-3)
        values = np.array([[-10.0], [0.0], [2.5], [1e-12], [7.0]])
        tol = 1e-10
        batch = compose.characteristic(NOISY_CONTRACTION, fibers, values, tol)
        alone = [compose.characteristic(NOISY_CONTRACTION, fibers[r:r + 1], values[r:r + 1], tol)
                 for r in range(len(fibers))]
        assert np.concatenate(alone).tobytes() == batch.tobytes()
        # among other rows, in another order
        more = fiber_grid(4, seed=90)
        rows = Fibers(np.concatenate([more.words, fibers.words[::-1]]),
                      np.concatenate([more.offsets, fibers.offsets[::-1]]))
        larger = compose.characteristic(
            NOISY_CONTRACTION, rows, np.concatenate([np.full((4, 1), 3.0), values[::-1]]), tol)
        assert larger[4:][::-1].tobytes() == batch.tobytes()
        # blocks of two rows at depth 32, so a boundary falls inside the batch
        monkeypatch.setattr(compose, "_BLOCK_ENTRIES", 64)
        assert compose.characteristic(NOISY_CONTRACTION, fibers, values,
                                      tol).tobytes() == batch.tobytes()

    def test_value_is_the_limit_of_the_affine_member(self):
        # no noise: the limit of x -> a x + u + c is (u + c) / (1 - a)
        member = discrete.flow_from_generator(compile_generator({
            "state_dim": 1, "input_dim": 1, "components": [{"op": "add", "args": [
                {"op": "scale", "factor": 0.2, "arg": {"op": "state"}}, {"op": "input"},
                {"op": "const", "value": 0.4}]}]}))
        values = np.linspace(-10.0, 10.0, 21)[:, None]
        got = compose.characteristic(member, fiber_grid(21, seed=1), values, 1e-10)
        np.testing.assert_allclose(got, (values + 0.4) / 0.8, rtol=0, atol=1e-10)

    def test_a_row_not_certified_by_the_cap_raises(self):
        drift = discrete.flow_from_generator(compile_generator({
            "state_dim": 1, "input_dim": 1,
            "components": [{"op": "add", "args": [{"op": "state"}, {"op": "input"}]}]}))
        assert compose.characteristic(drift, fiber_grid(1), [[0.0]], 1e-10).tolist() == [[0.0]]
        with pytest.raises(linear.DivergenceError, match="at depth 2048"):
            compose.characteristic(drift, fiber_grid(2), [[0.0], [1.0]], 1e-10)

    def test_refusal_reads_one_block_at_the_cap(self, monkeypatch):
        # blocks of two rows at depth 2048; every row but the first drifts,
        # so the first block refuses and no other block is read there
        drift = discrete.flow_from_generator(compile_generator({
            "state_dim": 1, "input_dim": 1,
            "components": [{"op": "add", "args": [{"op": "state"}, {"op": "input"}]}]}))
        monkeypatch.setattr(compose, "_BLOCK_ENTRIES", 4096)
        depths = []
        many = rdsi.SystemFlow.many
        monkeypatch.setattr(rdsi.SystemFlow, "many",
                            lambda self, t, *a: depths.append(t) or many(self, t, *a))
        fibers = fiber_grid(9, seed=4)
        with pytest.raises(linear.DivergenceError) as refused:
            compose.characteristic(drift, fibers, [[0.0]] + [[1.0]] * 8, 1e-10)
        assert depths.count(2048) == 1
        assert str(refused.value) == (f"the pullback at fiber {fibers[1]} under input [1.0] "
                                      "moves by more than 1e-10 at depth 2048")


def _extrapolated_interp(s, grid, ys):
    """``numpy.interp`` on the grid; the boundary slope beyond either end."""
    if s < grid[0]:
        return ys[0] + (ys[1] - ys[0]) / (grid[1] - grid[0]) * (s - grid[0])
    if s > grid[-1]:
        return ys[-1] + (ys[-1] - ys[-2]) / (grid[-1] - grid[-2]) * (s - grid[-1])
    return np.interp(s, grid, ys)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), points=st.integers(2, 12), lo=st.floats(-100.0, 100.0),
       width=st.floats(1e-3, 100.0), fibers=st.integers(1, 4))
def test_grid_map_step_equals_numpy_interp_per_fiber(data, points, lo, width, fibers):
    hi = lo + width
    grid = np.linspace(lo, hi, points)
    table = np.array(data.draw(st.lists(st.lists(st.floats(-1e6, 1e6), min_size=points,
                                                 max_size=points),
                                        min_size=fibers, max_size=fibers)))

    def batch_map(ws, s):
        # row (fiber f, grid point j) reads table[f, j]
        return table[ws.words.astype(np.int64), np.searchsorted(grid, s)]

    charmap = grid_characteristic_map(batch_map, lo, hi, fiber_grid(fibers), points=points)
    queries = st.one_of(st.sampled_from(grid.tolist()), st.floats(lo - 2 * width, hi + 2 * width),
                        st.sampled_from([lo, hi, lo - width, hi + width]))
    s = np.array(data.draw(st.lists(queries, min_size=fibers, max_size=fibers)))
    want = [_extrapolated_interp(v, grid, ys) for v, ys in zip(s.tolist(), table)]
    assert charmap(s).tobytes() == np.array(want, dtype=float).tobytes()


# -- row steps of the interconnections equal their blocks composed row by row

def _compiled(state_dim, input_dim, components, lo=-0.5, hi=0.5):
    return discrete.flow_from_generator(compile_generator({
        "state_dim": state_dim, "input_dim": input_dim,
        "noise": {"law": "uniform", "lo": [lo], "hi": [hi]}, "components": components}))


STATE = {"op": "state", "index": 0}
UP = _compiled(1, 1, [{"op": "add", "args": [{"op": "scale", "factor": 0.6, "arg": STATE},
                                            {"op": "input"}, {"op": "noise"}]}])
DOWN = _compiled(1, 1, [{"op": "clamp", "lo": -3.0, "hi": 3.0, "arg": {"op": "add", "args": [
    {"op": "mul", "args": [0.5, STATE]}, {"op": "scale", "factor": 0.8, "arg": {"op": "input"}},
    {"op": "noise"}]}}], lo=0.0, hi=0.3)
READ_UP = build_output_map({"noise": {"law": "uniform", "lo": [0.0], "hi": [0.3]}, "components": [
    {"op": "add", "args": [{"op": "clamp", "lo": -2.0, "hi": 2.0, "arg": STATE}, {"op": "noise"}]}]},
    "output", 1)
entries = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([0.0, -0.0, np.nan]))
step_rows = st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(-50, 50), entries, entries,
                               entries), min_size=1, max_size=10)


def _same(got, ref):
    """Equal bit for bit, except that any NaN equals any NaN."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == ref[~nan].tobytes()


def _step_both(step, state_dim, input_dim, rows, composed):
    """The batched ``step(fibers, states, values)`` on all ``rows`` at once,
    and ``composed`` on each alone, with the first ``state_dim`` and
    ``input_dim`` entries of each row as its state and input value."""
    seeds = [s for s, _, _, _, _ in rows]
    offsets = np.array([o for _, o, _, _, _ in rows])
    zs = np.array([[a, b] for _, _, a, b, _ in rows])[:, :state_dim]
    values = np.array([[v] for _, _, _, _, v in rows])[:, :input_dim]
    with np.errstate(all="ignore"):  # inf - inf and overflow are part of the test
        got = step(Fibers(seeds, offsets), zs, values)
        ref = [composed(Fiber(s, o), z, v) for s, o, z, v in zip(seeds, offsets.tolist(), zs,
                                                                 values)]
    _same(got, ref)


@settings(max_examples=60, deadline=None)
@given(rows=step_rows)
def test_cascade_and_feedback_steps_equal_their_blocks_row_by_row(rows):
    casc = cascade(UP, READ_UP, DOWN)

    def cascade_step(w, z, v):
        return np.concatenate([
            one_step(UP.generator, w, z[:1], v),
            one_step(DOWN.generator, w, z[1:], one_readout(READ_UP, w, z[:1]))])

    _step_both(casc.combined.generator.many, 2, 1, rows, cascade_step)

    read_down = _clip(-1.0, 1.0, gain=0.5, noise=cell_noise(POS))
    loop = feedback(UP, READ_UP, DOWN, read_down)

    def loop_step(w, z, _v):
        nu, mu = one_readout(READ_UP, w, z[:1]), one_readout(read_down, w, z[1:])
        return np.concatenate([one_step(UP.generator, w, z[:1], mu),
                               one_step(DOWN.generator, w, z[1:], nu)])

    _step_both(loop.closed.generator.many, 2, 0, rows, loop_step)


# parts whose cell laws all differ in kind or bounds, so that a part
# handed another part's columns of the cells steps to other values
LAYOUT_AUTO = _compiled(1, 0, [{"op": "add", "args": [
    {"op": "scale", "factor": 0.6, "arg": STATE}, {"op": "noise"}]}])
LAYOUT_FED = _compiled(1, 1, [{"op": "add", "args": [
    {"op": "scale", "factor": 0.6, "arg": STATE}, {"op": "input"}, {"op": "noise"}]}])
LAYOUT_DOWN = discrete.flow_from_generator(compile_generator({
    "state_dim": 1, "input_dim": 1,
    "noise": {"law": "uniform", "lo": [2.0, -1.0], "hi": [3.0, 0.0]},
    "components": [{"op": "clamp", "lo": -3.0, "hi": 3.0, "arg": {"op": "add", "args": [
        {"op": "mul", "args": [0.5, STATE]},
        {"op": "scale", "factor": 0.8, "arg": {"op": "input"}},
        {"op": "mul", "args": [{"op": "noise", "index": 0}, {"op": "noise", "index": 1}]}]}}]}))
LAYOUT_READ_UP = build_output_map({
    "noise": {"law": "choice", "choices": [[0.1], [0.7], [-0.4]]},
    "components": [{"op": "add", "args": [{"op": "clamp", "lo": -2.0, "hi": 2.0, "arg": STATE},
                                          {"op": "noise"}]}]}, "output", 1)
LAYOUT_READ_DOWN = build_output_map({
    "noise": {"law": "uniform", "lo": [-3.0], "hi": [-2.0]},
    "components": [{"op": "scale", "factor": 0.25, "arg": {"op": "add", "args": [
        STATE, {"op": "noise"}]}}]}, "output", 1)


def _layout_cascade():
    return cascade(LAYOUT_AUTO, LAYOUT_READ_UP, LAYOUT_DOWN)


def _layout_loop():
    return feedback(LAYOUT_FED, LAYOUT_READ_UP, LAYOUT_DOWN, LAYOUT_READ_DOWN)


@settings(max_examples=40, deadline=None)
@given(rows=step_rows)
def test_composite_steps_give_each_part_its_own_cells(rows):
    casc, loop = _layout_cascade(), _layout_loop()
    assert casc.combined.generator.noise == (
        LAYOUT_AUTO.generator.noise + LAYOUT_READ_UP.noise + LAYOUT_DOWN.generator.noise)
    assert loop.closed.generator.noise == (
        LAYOUT_FED.generator.noise + LAYOUT_READ_UP.noise + LAYOUT_DOWN.generator.noise
        + LAYOUT_READ_DOWN.noise)

    def cascade_step(w, z, _v):
        return np.concatenate([
            one_step(LAYOUT_AUTO.generator, w, z[:1]),
            one_step(LAYOUT_DOWN.generator, w, z[1:], one_readout(LAYOUT_READ_UP, w, z[:1]))])

    _step_both(casc.combined.generator.many, 2, 0, rows, cascade_step)

    def loop_step(w, z, _v):
        nu, mu = one_readout(LAYOUT_READ_UP, w, z[:1]), one_readout(LAYOUT_READ_DOWN, w, z[1:])
        return np.concatenate([one_step(LAYOUT_FED.generator, w, z[:1], mu),
                               one_step(LAYOUT_DOWN.generator, w, z[1:], nu)])

    _step_both(loop.closed.generator.many, 2, 0, rows, loop_step)


def test_composite_checks_stay_exact_and_steps_refuse_cells_of_another_width():
    casc, loop = _layout_cascade(), _layout_loop()
    rng = np.random.default_rng(15)
    zs = [constant_rv(rng.uniform(-1.5, 1.5, size=2)) for _ in range(6)]
    fibers, times = fiber_grid(4, seed=150), range(0, 25, 4)
    for check, system in ((verify_cascade_forward, casc), (verify_cascade_pullback, casc),
                          (verify_feedback, loop)):
        assert check(system, zs, times, fibers).max_residual == 0.0
    ws, xs = fiber_grid(3, seed=151), np.zeros((3, 2))
    for gen in (casc.combined.generator, loop.closed.generator):
        cells = law_cells(gen.noise, ws, (0,))[:, 0]
        for other in (cells[:, :-1], cells[:, :0], np.concatenate([cells, cells], axis=1)):
            with pytest.raises(ValueError, match="noise values per row"):
                gen.fn(ws.words, ws.offsets, xs, np.zeros((3, 0)), other)
        # a wrapper that drops the laws hands the step no cells: refused
        with pytest.raises(ValueError, match="noise values per row"):
            discrete.flow_from_generator(replace(gen, noise=())).many(3, ws, xs)


# the bundled small-gain loops' members, as (alpha, const) of x -> alpha x + u + const,
# and their readouts, as (gain, clamp) of clamp(gain x)
SMALL_GAIN_MEMBERS = {
    "contractive": [((0.2, 0.4), (0.8, None)), ((0.2, -0.2), (0.4, None))],
    "saturating": [((0.0, 0.0), (-1.5, (-4.0, 4.0))), ((0.0, 0.0), (1.0, None))],
}


@settings(max_examples=60, deadline=None)
@given(rows=step_rows)
def test_small_gain_member_steps_equal_the_scalar_formulas(rows):
    # the bundled loops' generators and readouts step as the affine member
    # formulas they are written from, bit for bit
    _, _, p = cli.read_scenario(cli.load_scenario(cli.scenario_catalog()["small_gain_loop"][0]))
    for branch, members in SMALL_GAIN_MEMBERS.items():
        fields = getattr(p, branch)
        for (system, output), ((alpha, const), (gain, clamp)) in zip(
                [(fields.first, fields.first_output), (fields.second, fields.second_output)],
                members):
            def step(w, z, v):
                return np.array([alpha * z[0] + 1.0 * v[0] + const + 0.0])

            def readout(w, z, _v):
                y = gain * z[0]
                return np.array([y if clamp is None else min(max(y, clamp[0]), clamp[1])])

            _step_both(system.generator.many, 1, 1, rows, step)
            _step_both(lambda ws, zs, _values: output.many(ws, zs), 1, 0, rows, readout)
