"""Unit tests for order checking, bracketing envelopes, and the CICS experiment."""

import dataclasses
import math

import numpy as np
import pytest

from rdsio import discrete, linear, monotone, rdsi
from rdsio.mpds import (CellLaw, Fiber, UnboundedSampleError, cell_noise, constant_rv,
                        fiber_grid, fiberwise)
from rdsio.process import constant, decaying_input, stationary
from rdsio.monotone import OrthantOrder, brackets, check_monotone, cics_experiment
from rdsio.rdsi import pullback_traj
import reference_process as ref
from reference_process import LIBRARY as LIB, batch, pointwise_process, pointwise_variable

A_LAW = CellLaw("uniform", lo=(-2.0,), hi=(-0.5,))
POS_LAW = CellLaw("uniform", lo=(0.5,), hi=(1.5,))


@pytest.fixture
def pos_gain_linear():
    return linear.as_system(
        linear.LinearCoeffs(
            a=cell_noise(A_LAW),
            b=cell_noise(CellLaw("uniform", lo=(0.2,), hi=(1.0,))),
            decay_rate_hint=1.2,
        )
    )


def test_orthant_order_basics():
    order = OrthantOrder(2)
    assert order.margin([0.0, 1.0], [0.0, 2.0]) >= 0.0
    assert order.margin([0.0, 3.0], [0.0, 2.0]) < 0.0
    assert order.margin([0.0, 1.0], [0.5, 2.0]) == pytest.approx(0.5)


def test_linear_system_with_nonnegative_gain_is_monotone(pos_gain_linear):
    rep = check_monotone(pos_gain_linear, OrthantOrder(1), samples=1000, seed=1,
                         max_time=6.0)
    assert rep.passed
    assert rep.violations == 0


def test_order_reversing_map_is_flagged():
    gen = discrete.Generator(1, 1, lambda seeds, offsets, xs, us, cells: -xs)
    sys = discrete.flow_from_generator(gen)
    rep = check_monotone(sys, OrthantOrder(1), samples=300, seed=3)
    assert not rep.passed
    assert rep.violations > 0
    assert rep.worst_margin < 0


def test_dimension_mismatch_rejected(pos_gain_linear):
    with pytest.raises(ValueError):
        check_monotone(pos_gain_linear, OrthantOrder(2), samples=10)


class TestBrackets:
    def test_stationary_input_collapses_the_envelopes(self):
        rv = cell_noise(POS_LAW)
        u = stationary(rv, "continuous")
        pair = brackets(u, tau=2.0, horizon=20.0)
        fibers = fiber_grid(8, seed=10, offset=0.25)
        lower, upper = pair.across(fibers)
        np.testing.assert_array_equal(lower, rv.across(fibers))
        np.testing.assert_array_equal(upper, rv.across(fibers))

    def test_decaying_disturbance_envelopes(self):
        limit = cell_noise(POS_LAW)
        bump = cell_noise(CellLaw("uniform", lo=(0.2,), hi=(0.4,)), lag=2)
        u = decaying_input(limit, bump, rate=1.0)
        tau, horizon = 2.0, 30.0
        pair = brackets(u, tau, horizon)
        fibers = fiber_grid(8, seed=20, offset=0.25)
        lower, upper = pair.across(fibers)
        at_limit, at_bump = limit.across(fibers), bump.across(fibers)
        # pullback is limit + exp(-t) * bump: decreasing in t, so the sup
        # sits at tau and the inf at the horizon
        up_expected = at_limit + np.exp(-tau) * at_bump
        lo_expected = at_limit + np.exp(-horizon) * at_bump
        np.testing.assert_allclose(upper, up_expected, rtol=0, atol=1e-15)
        np.testing.assert_allclose(lower, lo_expected, rtol=0, atol=1e-15)
        assert np.all(upper - at_limit <= np.exp(-tau) * 0.4 + 1e-15)

    def test_sandwich_holds_exactly_on_the_grid(self):
        limit = cell_noise(POS_LAW)
        bump = cell_noise(CellLaw("uniform", lo=(0.2,), hi=(0.4,)), lag=1)
        u = decaying_input(limit, bump, rate=1.0)
        pair = brackets(u, tau=3.0, horizon=25.0)
        for w in fiber_grid(10, seed=30, offset=0.25):
            for t in pair.grid:
                mid = u(t, w)
                lower, upper = pair.across(batch([w.shift(t)]))
                assert np.all(lower[0] <= mid)
                assert np.all(mid <= upper[0])

    def test_envelopes_monotone_in_tau(self):
        u = decaying_input(cell_noise(POS_LAW),
                           cell_noise(CellLaw("uniform", lo=(0.2,), hi=(0.4,))),
                           rate=0.5)
        taus = [0.0, 2.0, 5.0, 9.0]
        pairs = [brackets(u, tau, 30.0) for tau in taus]
        for w in fiber_grid(6, seed=40, offset=0.25):
            lows = [float(p.across(batch([w]))[0][0, 0]) for p in pairs]
            highs = [float(p.across(batch([w]))[1][0, 0]) for p in pairs]
            assert all(a <= b + 0.0 for a, b in zip(lows, lows[1:]))
            assert all(a >= b for a, b in zip(highs, highs[1:]))

    def test_unbounded_pullback_rejected(self):
        qgrow = pointwise_variable(1, lambda w: np.array([np.exp(abs(w.offset))]))
        u = stationary(qgrow, "continuous")
        pair = brackets(u, 0.0, 40.0)
        with pytest.raises(UnboundedSampleError, match="unbounded"):
            pair.across(fiber_grid(1, seed=50, offset=80.0))

    @pytest.mark.parametrize("time_kind, tau, horizon, offset", [
        ("continuous", 2.0, 30.0, 0.25), ("continuous", 0.5, 7.25, -3.0),
        ("discrete", 3, 20, 0), ("discrete", 0, 9, -4)])
    def test_envelopes_equal_the_per_grid_time_loop(self, time_kind, tau, horizon, offset):
        # the envelope read at a fiber one grid time at a time, as
        # ``brackets`` read it before its reads were batched
        def forms():
            """Each input as the library reads it, with its pointwise
            reference; a splice or sum is the library process over its
            pointwise tree."""
            box = CellLaw("uniform", lo=(0.5, -1.0), hi=(1.5, 1.0))
            cells = ref.stationary(ref.cell_noise(CellLaw("uniform", lo=(-1.0, 0.0),
                                                          hi=(1.0, 1.0)), lag=-2), time_kind)
            if time_kind == "discrete":
                steady = ref.stationary(ref.cell_noise(box), time_kind)
                trees = [steady.concat(cells, 5), steady + cells.shift(2)]
                return [(pointwise_process(2, time_kind, p), p) for p in trees]

            def decaying(lib):
                bump = lib.cell_noise(CellLaw("uniform", lo=(0.2, 0.2), hi=(0.4, 0.4)), lag=1)
                return lib.decaying_input(lib.cell_noise(box), bump, rate=0.75)

            spliced = decaying(ref).concat(cells, 3.5)
            return [(decaying(LIB), decaying(ref)),
                    (pointwise_process(2, time_kind, spliced), spliced)]

        def per_grid_time(u, grid, w):
            rows = np.empty((len(grid), u.dim))
            for i, t in enumerate(grid):
                rows[i] = u(t, w.shift(-t))
            return rows.min(axis=0), rows.max(axis=0)

        fibers = [*fiber_grid(5, seed=60, offset=offset), Fiber(2**64 - 1, offset)]
        for u, pointwise in forms():
            pair = brackets(u, tau, horizon)
            points = [w.shift(t) for w in fibers for t in pair.grid[::3]]
            lows, highs = pair.across(batch(points))
            for k, w in enumerate(points):
                low, high = per_grid_time(pointwise, pair.grid, w)
                assert lows[k].tobytes() == low.tobytes()
                assert highs[k].tobytes() == high.tobytes()

    def test_pair_read_equals_the_separate_reads(self):
        # both envelopes on a grid of times from one read, bit for bit as a
        # read of both at each time's shifted fibers
        box = CellLaw("uniform", lo=(0.5, -1.0), hi=(1.5, 1.0))
        bump = cell_noise(CellLaw("uniform", lo=(0.2, 0.2), hi=(0.4, 0.4)), lag=1)
        u = decaying_input(cell_noise(box), bump, rate=0.75)
        fibers = fiber_grid(6, seed=70, offset=0.25)
        for tau in (0.0, 2.5):
            pair = brackets(u, tau, 12.0)
            lower, upper = pair.over(fibers, pair.grid)
            assert lower.shape == upper.shape == (6, len(pair.grid), 2)
            for i, t in enumerate(pair.grid):
                low, high = pair.across(fibers.shift(t))
                assert lower[:, i].tobytes() == low.tobytes()
                assert upper[:, i].tobytes() == high.tobytes()

    def test_horizon_validation(self):
        u = constant([1.0], "continuous")
        with pytest.raises(ValueError):
            brackets(u, 5.0, 4.0)


class TestCics:
    def _limit(self, coeffs, u_inf, tol=1e-9):
        """The characteristic of ``coeffs`` under the limit input ``u_inf``."""
        return fiberwise(1, lambda ws: linear.characteristic(coeffs, u_inf, ws, tol=tol))

    def test_decaying_input_converges_to_the_limit_characteristic(self):
        coeffs = linear.LinearCoeffs(a=cell_noise(A_LAW), b=constant_rv(1.0),
                                     decay_rate_hint=1.2)
        sys = linear.as_system(coeffs)
        u_inf = cell_noise(POS_LAW)
        u = decaying_input(u_inf, cell_noise(CellLaw("uniform", lo=(0.2,), hi=(0.4,)), lag=1))
        rep = cics_experiment(
            sys, self._limit(coeffs, u_inf), u, u_inf,
            x_set=[constant_rv(0.0), constant_rv(2.0)],
            schedule=[5.0, 10.0, 20.0, 40.0],
            tol=1e-4,
            fibers=fiber_grid(10, seed=60, offset=0.25),
        )
        assert check_monotone(sys, OrthantOrder(1), samples=100, seed=0).passed
        assert rep.converged
        assert rep.max_final_residual <= 1e-4
        assert rep.input_residual_temperedness.tempered_consistent

    def test_initial_states_pull_back_in_one_flow_per_block(self, monkeypatch):
        # the pullbacks of three initial states are one read, each block of
        # _BATCH_VALUES // 3 points one flow of three rows per point, and
        # each final residual is that of its state's own pullback
        coeffs = linear.LinearCoeffs(a=cell_noise(A_LAW), b=constant_rv(1.0),
                                     decay_rate_hint=1.2)
        sys = linear.as_system(coeffs)
        u_inf = cell_noise(POS_LAW)
        u = decaying_input(u_inf, cell_noise(CellLaw("uniform", lo=(0.1,), hi=(0.2,))))
        x_set = [constant_rv(-1.0), constant_rv(1.5), cell_noise(POS_LAW, lag=2)]
        fibers, schedule = fiber_grid(12, seed=90, offset=0.25), [5.0, 10.0, 20.0]
        reads = []  # the initial states of each pullback and the rows of each of its flows

        def counted(sys, x, u):
            rows = []
            reads.append((x, rows))
            flow = sys.flow
            return pullback_traj(dataclasses.replace(
                sys, flow=lambda t, ws, xs, u: rows.append(len(ws)) or flow(t, ws, xs, u)), x, u)

        monkeypatch.setattr(monotone, "pullback_traj", counted)
        monkeypatch.setattr(rdsi, "_BATCH_VALUES", 45)  # 15 points per block
        limit = self._limit(coeffs, u_inf)
        rep = cics_experiment(sys, limit, u, u_inf, x_set, schedule, 1e-4, fibers)
        assert check_monotone(sys, OrthantOrder(1), samples=20, seed=0).passed
        (states, rows), (dominating, _) = reads
        assert states is x_set and dominating is x_set[0]
        assert rows == [45, 45, 18]  # 36 points: 15, 15 and 6
        targets = limit.across(fibers)
        for x0, finals in zip(x_set, rep.final_residuals):
            ends = pullback_traj(sys, x0, u).over(fibers, schedule)[:, -1]
            assert finals == tuple(np.max(np.abs(ends - targets), axis=1).tolist())

    def test_stationary_input_reduces_to_characteristic_agreement(self):
        coeffs = linear.LinearCoeffs(a=cell_noise(A_LAW), b=constant_rv(1.0),
                                     decay_rate_hint=1.2)
        sys = linear.as_system(coeffs)
        u_inf = cell_noise(POS_LAW)
        rep = cics_experiment(
            sys, self._limit(coeffs, u_inf), stationary(u_inf, "continuous"), u_inf,
            x_set=[constant_rv(0.5)],
            schedule=[10.0, 20.0, 40.0],
            tol=1e-6,
            fibers=fiber_grid(8, seed=70, offset=0.25),
        )
        assert check_monotone(sys, OrthantOrder(1), samples=60, seed=0).passed
        assert rep.converged

    def test_ordered_initial_states_share_the_limit(self):
        coeffs = linear.LinearCoeffs(a=cell_noise(A_LAW), b=constant_rv(1.0),
                                     decay_rate_hint=1.2)
        sys = linear.as_system(coeffs)
        u_inf = cell_noise(POS_LAW)
        u = decaying_input(u_inf, cell_noise(CellLaw("uniform", lo=(0.1,), hi=(0.2,))))
        x_lo, x_hi = constant_rv(-1.0), constant_rv(1.5)
        fibers = fiber_grid(6, seed=80, offset=0.25)
        lo_traj = pullback_traj(sys, x_lo, u)
        hi_traj = pullback_traj(sys, x_hi, u)
        for w in fibers:
            for t in (0.0, 2.0, 5.0, 15.0, 40.0):
                assert lo_traj(t, w)[0] <= hi_traj(t, w)[0] + 1e-12
            assert lo_traj(40.0, w)[0] == pytest.approx(hi_traj(40.0, w)[0], abs=1e-6)

    def test_validation(self):
        coeffs = linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0))
        sys = linear.as_system(coeffs)
        limit = self._limit(coeffs, constant_rv(1.0))
        with pytest.raises(ValueError):
            cics_experiment(sys, limit, constant([1.0], "continuous"),
                            constant_rv(1.0), x_set=[], schedule=[1.0], tol=1e-4,
                            fibers=fiber_grid(2, seed=1, offset=0.25))
        with pytest.raises(ValueError):
            cics_experiment(sys, limit, constant([1.0], "continuous"),
                            constant_rv(1.0), x_set=[constant_rv(0.0)], schedule=[],
                            tol=1e-4, fibers=fiber_grid(2, seed=1, offset=0.25))


def test_nan_residual_fails_the_cics_check():
    # x' = -x + 1 from x = 1 stays at the limit 1; a limit that is NaN on
    # the second fiber makes that fiber's final residual NaN
    coeffs = linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0))
    sys = linear.as_system(coeffs)
    fibers = fiber_grid(3, seed=90, offset=0.25)
    bad = fibers[1].seed
    limit = pointwise_variable(1, lambda w: np.array([np.nan if w.seed == bad else 1.0]))

    rep = cics_experiment(sys, limit, constant([1.0], "continuous"),
                          constant_rv(1.0), x_set=[constant_rv(1.0)], schedule=[5.0, 10.0],
                          tol=1e-6, fibers=fibers)
    assert check_monotone(sys, OrthantOrder(1), samples=20, seed=0).passed
    assert math.isnan(rep.max_final_residual)
    assert rep.worst_fiber == 1
    assert not rep.converged
