"""Unit tests for the exact linear flow, its limit integral, and diagnostics."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from rdsio import linear, process, rdsi
from rdsio.mpds import (CellLaw, Fiber, RandomVariable, cell_noise, constant_rv, fiber_grid,
                        temperedness_report)
from rdsio.process import constant, decaying_input, stationary
from reference_inputs import InputNodes, tree
import reference_linear
import reference_process as ref
from reference_linear import growth_factor, quadrature
from reference_process import LIBRARY as LIB, batch, pointwise_variable

A_LAW = CellLaw("uniform", lo=(-2.0,), hi=(-0.5,))
# the pointwise reference of the random_coeffs fixture
REF_COEFFS = linear.LinearCoeffs(a=ref.cell_noise(A_LAW), b=ref.constant_rv(1.0),
                                 decay_rate_hint=1.2)


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
        expected = 0.7 * math.exp(linear._integrals(random_coeffs.a, batch([w]), t)[0])
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


def _cells(lib, lag):
    """A stationary cell input, from the constructors of ``lib``."""
    return lib.stationary(lib.cell_noise(CellLaw("uniform", lo=(-1.0,), hi=(1.0,)), lag=lag),
                          "continuous")


def test_solve_matches_adaptive_integrator_on_cell_input(random_coeffs):
    u, pointwise = _cells(LIB, 1), _cells(ref, 1)
    for w in fiber_grid(100, seed=20, offset=0.25):
        exact = linear.solve(random_coeffs, 10.0, w, 0.5, u)
        oracle = _ode_oracle(REF_COEFFS, 10.0, w, 0.5, pointwise.scalar, rtol=1e-10)
        assert exact == pytest.approx(oracle, abs=1e-8)


def _decaying(lib, rate, lag=1):
    """The decaying input of the smooth-input tests, from the constructors of ``lib``."""
    return lib.decaying_input(lib.cell_noise(CellLaw("uniform", lo=(0.5,), hi=(1.5,))),
                              lib.cell_noise(CellLaw("uniform", lo=(0.2,), hi=(0.4,)), lag=lag),
                              rate=rate)


def test_solve_matches_adaptive_integrator_on_smooth_input(random_coeffs):
    u, pointwise = _decaying(LIB, 1.0), _decaying(ref, 1.0)
    for w in fiber_grid(20, seed=30, offset=0.25):
        exact = linear.solve(random_coeffs, 8.0, w, -0.3, u)
        oracle = _ode_oracle(REF_COEFFS, 8.0, w, -0.3, pointwise.scalar)
        assert exact == pytest.approx(oracle, abs=1e-8)


def _pointwise_solve(c, t, w, x, u):
    """Reference flow reading every coefficient and input value one at a
    time, from the pointwise reference forms ``c`` and ``u``, with numpy's
    ``exp`` and ``expm1`` called one scalar at a time."""
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
    value = x * np.exp(np.float64(np.sum(increments)))
    for i, (lo, hi) in enumerate(segs):
        mid = (lo + hi) / 2.0
        b_i = c.b.scalar(w.shift(mid))
        if b_i == 0.0:
            continue
        if u.piecewise_constant:
            inner = u.scalar(mid, w) * growth_factor(a_vals[i], widths[i])
        else:
            nodes = mid + (widths[i] / 2.0) * linear._GL_NODES
            samples = np.array([u.scalar(float(s), w) for s in nodes])
            inner = quadrature(samples, a_vals[i], hi, nodes, widths[i])
        value += b_i * inner * np.exp(suffix[i])
    return float(value)


@pytest.mark.parametrize("form", ["cell", "decaying", "spliced"])
def test_solve_equals_pointwise_reference_bitwise(form):
    def coefficients(lib):
        return linear.LinearCoeffs(
            a=lib.cell_noise(A_LAW),
            b=lib.cell_noise(CellLaw("uniform", lo=(0.2,), hi=(1.0,)), lag=1))

    coeffs, pointwise_coeffs = coefficients(LIB), coefficients(ref)
    rng = np.random.default_rng(7)
    for _ in range(60):
        w = Fiber(int(rng.integers(0, 2**32)), float(rng.uniform(-3.0, 3.0)))
        t = float(rng.uniform(0.0, 30.0))
        if form == "cell":
            u, pointwise = _cells(LIB, -2), _cells(ref, -2)
        elif form == "decaying":
            u, pointwise = _decaying(LIB, 0.8), _decaying(ref, 0.8)
        else:  # a drawn one-row table, against its pointwise tree
            u = rdsi.draw_inputs(rng, 1, 1, "continuous", t)
            pointwise = tree(u, 0)
        x = float(rng.uniform(-2.0, 2.0))
        assert linear.solve_many(coeffs, t, batch([w]), [x], u)[0] == _pointwise_solve(
            pointwise_coeffs, t, w, x, pointwise)


def test_solve_reads_a_stationary_cell_input_in_one_batch(random_coeffs, monkeypatch):
    calls = []

    def count(cls):
        read = cls.__call__

        def counting(self, t, fiber):
            calls.append(t)
            return read(self, t, fiber)

        monkeypatch.setattr(cls, "__call__", counting)

    count(process.Process)
    count(ref.PointwiseProcess)
    w = Fiber(3, 0.25)
    value = linear.solve(random_coeffs, 40.0, w, 0.5, _cells(LIB, 0))
    assert calls == []
    assert value == _pointwise_solve(REF_COEFFS, 40.0, w, 0.5, _cells(ref, 0))
    assert len(calls) == 41  # the reference reads each of the 41 segments


def test_integrals_read_along_the_orbit_equal_pointwise_sums(random_coeffs):
    for w in fiber_grid(20, seed=11, offset=0.3):
        for t in (0.4, 1.0, 7.25):
            edges = sorted({0.0, t, *(k - w.offset for k in range(
                math.floor(w.offset) + 1, math.ceil(w.offset + t)))})
            expected = sum(REF_COEFFS.a.scalar(w.shift((a + b) / 2.0)) * (b - a)
                           for a, b in zip(edges, edges[1:]))
            assert linear._integrals(random_coeffs.a, batch([w]), t)[0] == expected
    probe = Fiber(0, 0.0)
    values = [REF_COEFFS.a.scalar(probe.shift(k + 0.5)) for k in range(-2000, 2000)]
    assert linear.estimate_decay_rate(random_coeffs) == -float(np.mean(values))


def test_splice_consistency_closed_form(random_coeffs):
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(100):
        w = Fiber(int(rng.integers(0, 2**31)), float(rng.uniform(0, 1)))
        s, t = float(rng.uniform(0, 8)), float(rng.uniform(0, 8))
        x = float(rng.uniform(-1, 1))
        u = stationary(cell_noise(A_LAW, lag=2), "continuous")
        v = float(rng.uniform(-1, 1))
        y = linear.solve(random_coeffs, s, w, x, u)
        z = linear.solve(random_coeffs, t, w.shift(s), y, constant([v], "continuous"))
        # u spliced with v at s, as a one-row table
        nodes = InputNodes(1, "continuous")
        spliced = nodes.table([nodes.concat(nodes.cell(A_LAW.lo, A_LAW.hi, 2),
                                            nodes.constant((v,)), s)])
        lhs = linear.solve_many(random_coeffs, s + t, batch([w]), [x], spliced)[0]
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
            got = linear.characteristic(coeffs, constant_rv(c), batch([Fiber(3, 0.25)]),
                                        tol=1e-10, lam=1.0)[0]
            assert got == pytest.approx(c, abs=1e-9)

    def test_zero_input_is_exactly_zero(self, random_coeffs):
        got = linear.characteristic(random_coeffs, constant_rv(0.0), batch([Fiber(5, 0.25)]),
                                    tol=1e-9)[0]
        assert got == 0.0

    def test_truncation_tightens_with_tolerance(self, random_coeffs):
        w = Fiber(21, 0.25)
        coarse = linear.characteristic(random_coeffs, constant_rv(1.0), batch([w]), tol=1e-6)[0]
        fine = linear.characteristic(random_coeffs, constant_rv(1.0), batch([w]), tol=1e-13)[0]
        assert coarse == pytest.approx(fine, abs=2e-6)
        assert coarse != fine

    def test_refuses_nonpositive_rate(self):
        growing = linear.LinearCoeffs(a=constant_rv(0.1), b=constant_rv(1.0))
        with pytest.raises(linear.DivergenceError, match="decay rate"):
            linear.characteristic(growing, constant_rv(1.0), batch([Fiber(0, 0.0)]), tol=1e-9)

    def test_unbounded_or_uncertified_integrals_raise_divergence_error(self):
        w, one = Fiber(0, 0.0), constant_rv(1.0)
        growing = linear.LinearCoeffs(a=constant_rv(0.1), b=constant_rv(1.0))
        # a rate that the drift does not realize: the exponent grows without bound
        with pytest.raises(linear.DivergenceError, match="diverges"):
            linear.characteristic(growing, one, batch([w]), lam=1.0)
        # no drift at all: the realized tail never shrinks, so no depth certifies
        flat = linear.LinearCoeffs(a=constant_rv(0.0), b=constant_rv(1.0))
        with pytest.raises(linear.DivergenceError, match="did not certify"):
            linear.characteristic(flat, one, batch([w]), lam=1.0)

    def test_tempered_continuity_bound(self, random_coeffs):
        # inputs eps apart map to limits within eps times the kernel mass
        w = Fiber(8, 0.25)
        eps = 1e-3
        k1 = linear.characteristic(random_coeffs, constant_rv(1.0), batch([w]), tol=1e-12)[0]
        k2 = linear.characteristic(random_coeffs, constant_rv(1.0 + eps), batch([w]), tol=1e-12)[0]
        mass = linear.characteristic(random_coeffs, constant_rv(1.0), batch([w]), tol=1e-12)[0]
        assert abs(k2 - k1) <= eps * mass * (1 + 1e-9)

    def test_overflowing_gain_is_a_non_finite_value(self):
        huge = linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1e308))
        with pytest.raises(ValueError, match="non-finite"):
            linear.characteristic(huge, constant_rv(10.0), batch([Fiber(0, 0.25)]), lam=1.0)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@given(
    seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=6),
    offset=st.one_of(st.integers(-4, 4), st.floats(-4.0, 4.0, allow_nan=False)),
    tol=st.floats(1e-13, 1e-4),
    gain=st.sampled_from(["constant", "cells", "zero_cells"]),
    source=st.sampled_from(["zero", "constant", "cells"]),
)
@settings(max_examples=40, deadline=None)
def test_characteristic_equals_cell_by_cell_reference(seeds, offset, tol, gain, source):
    # integer and fractional offsets (a first cell of width 1 or less),
    # cells of zero gain, and zero input
    def coefficients(lib):
        b = {"constant": lambda: lib.constant_rv(0.8),
             "cells": lambda: lib.cell_noise(CellLaw("uniform", lo=(0.2,), hi=(1.0,)), lag=1),
             "zero_cells": lambda: lib.cell_noise(GAIN_LAW, lag=1)}[gain]()
        return linear.LinearCoeffs(a=lib.cell_noise(A_LAW), b=b, decay_rate_hint=1.2)

    def source_of(lib):
        return {"zero": lambda: lib.constant_rv(0.0),
                "constant": lambda: lib.constant_rv(1.5),
                "cells": lambda: lib.cell_noise(CellLaw("uniform", lo=(-1.0,), hi=(1.0,)), lag=-2),
                }[source]()

    fibers = [Fiber(s, offset) for s in seeds]
    got = linear.characteristic(coefficients(LIB), source_of(LIB), batch(fibers), tol=tol)
    want = [reference_linear.characteristic(coefficients(ref), source_of(ref), w, tol=tol)
            for w in fibers]
    assert _bits(got) == _bits(want)


def _drift_by_seed(drifts: dict[int, float]) -> RandomVariable:
    """A drift that is constant along each fiber, at the value of its seed."""
    return RandomVariable(1, lambda ws, ts: np.broadcast_to(
        np.array([drifts[w.seed] for w in ws])[:, None, None],
        (len(ws), ts.shape[-1], 1)).copy())


@pytest.mark.parametrize("drifts, first", [
    # a fiber whose exponent grows past the bound, among certified ones
    ({1: -1.0, 2: 0.5, 3: -1.3}, 2),
    # a flat fiber reaches the cell cap after a diverging one stops, and is
    # the first to fail in fiber order
    ({1: -1.0, 2: 0.0, 3: 0.5}, 2),
])
def test_batch_raises_the_error_of_its_first_failing_fiber(drifts, first):
    coeffs = linear.LinearCoeffs(a=_drift_by_seed(drifts), b=constant_rv(1.0))
    drift = ref.PointwiseVariable(1, lambda w: np.array([drifts[w.seed]]))
    pointwise = linear.LinearCoeffs(a=drift, b=ref.constant_rv(1.0))
    fibers = [Fiber(seed, 0.25) for seed in drifts]
    with pytest.raises(linear.DivergenceError) as alone:
        reference_linear.characteristic(pointwise, ref.constant_rv(1.0), Fiber(first, 0.25),
                                        lam=1.0)
    with pytest.raises(linear.DivergenceError) as together:
        linear.characteristic(coeffs, constant_rv(1.0), batch(fibers), lam=1.0)
    assert str(together.value) == str(alone.value)


def test_cells_read_past_a_fibers_truncation_do_not_overflow():
    # fiber 1 certifies at depth 10; fiber 2's larger gain requires depth 18,
    # and their shared round reads fiber 1 that deep too, into cells whose
    # drift of 750 overflows exp and expm1
    def a(w):
        return np.array([750.0 if w.seed == 1 and w.offset < -12 else -3.0])

    def b(w):
        return np.array([1.0 if w.seed == 1 else math.exp(8.0)])

    coeffs = linear.LinearCoeffs(a=pointwise_variable(1, a), b=pointwise_variable(1, b))
    pointwise = linear.LinearCoeffs(a=ref.PointwiseVariable(1, a), b=ref.PointwiseVariable(1, b))
    fibers = [Fiber(1, 0.0), Fiber(2, 0.0)]
    got = linear.characteristic(coeffs, constant_rv(1.0), batch(fibers), tol=1e-4, lam=1.0)
    want = [reference_linear.characteristic(pointwise, ref.constant_rv(1.0), w, tol=1e-4,
                                            lam=1.0)
            for w in fibers]
    assert _bits(got) == _bits(want)


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

    def test_envelope_equals_window_by_window_reference(self, random_coeffs):
        def envelope(reverse):
            # each unit window integrated on its own, as the envelope's definition reads
            def fn(w):
                best, cum = 1.0, 0.0
                for r in range(1, 31):
                    window = w.shift(-r) if reverse else w.shift(r - 1)
                    cum += linear._integrals(random_coeffs.a, batch([window]), 1.0)[0]
                    best = max(best, np.exp(np.float64(cum + 1.2 * r)))
                return np.array([best])
            return pointwise_variable(1, fn)

        for offset in (0.25, 0, -3.7, 1.0 + 2.0**-52):
            fibers = fiber_grid(6, seed=80, offset=offset)
            rep = linear.check_decay_bound(random_coeffs, rate=1.2, fibers=fibers, horizon=30)
            for got, reverse in ((rep.gamma, False), (rep.gamma_reversed, True)):
                assert _bits(got) == _bits(envelope(reverse).across(fibers)[:, 0])
            want = temperedness_report(envelope(False), fibers[:1])
            assert _bits(rep.envelope_temperedness.gamma_scores.values()) == \
                _bits(want.gamma_scores.values())
            assert rep.envelope_temperedness == want

    def test_growing_drift_fails_every_rate(self):
        coeffs = linear.LinearCoeffs(a=constant_rv(0.1), b=constant_rv(1.0))
        for rate in (0.1, 0.5, 1.0):
            rep = linear.check_decay_bound(coeffs, rate=rate,
                                           fibers=fiber_grid(5, seed=70, offset=0.25))
            assert not rep.passed

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_fewer_than_three_fibers_refused(self, random_coeffs, count):
        # at one fiber the standard error is 0, at two its spread is barely measured
        with pytest.raises(ValueError, match="at least three probe fibers"):
            linear.check_decay_bound(random_coeffs, rate=1.2,
                                     fibers=fiber_grid(count, seed=60, offset=0.25))


class TestBoundedFlow:
    def test_zero_data_trajectory_stays_zero(self):
        coeffs = linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0))
        value = linear.solve(coeffs, 5.0, Fiber(0, 0.25), 0.0,
                             constant([0.0], "continuous"))
        assert value == 0.0


def test_monotone_kernel_when_gain_nonnegative(random_coeffs):
    # positive kernel: raising the state or the input raises the flow
    rng = np.random.default_rng(100)
    u = stationary(cell_noise(CellLaw("uniform", lo=(0.0,), hi=(1.0,)), lag=3),
                   "continuous")
    nodes = InputNodes(1, "continuous")
    cells = nodes.table([nodes.cell((0.0,), (1.0,), 3)])  # u as a one-row table
    for _ in range(200):
        w = Fiber(int(rng.integers(0, 2**31)), float(rng.uniform(0, 1)))
        t = float(rng.uniform(0, 6))
        x = float(rng.uniform(-1, 1))
        dx = float(rng.uniform(0.05, 1.0))
        du = float(rng.uniform(0.05, 1.0))
        lo = linear.solve(random_coeffs, t, w, x, u)
        raised = dataclasses.replace(cells, lift=np.array([[du]]))  # u + du
        hi = linear.solve_many(random_coeffs, t, batch([w]), [x + dx], raised)[0]
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


def _solve_rows(coeffs, times, fibers, xs, table):
    """One one-fiber solve per row of ``table``, each under its row alone."""
    return np.array([linear.solve_many(coeffs, [t], batch([w]), [x], table[r:r + 1])[0]
                     for r, (t, w, x) in enumerate(zip(times, fibers, xs))])


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
        got = linear.solve_many(coeffs, t, batch(fibers), xs, u)
        ref = np.array([linear.solve(coeffs, t, w, x, u) for w, x in zip(fibers, xs.tolist())])
        assert got.tobytes() == ref.tobytes()
    # a drawn table of one splice tree per fiber, under the shared time
    table = rdsi.draw_inputs(rng, len(fibers), 1, "continuous", max(float(t), 1.0))
    got = linear.solve_many(coeffs, t, batch(fibers), xs, table)
    assert got.tobytes() == _solve_rows(coeffs, [t] * len(fibers), fibers, xs, table).tobytes()


@given(
    rows=st.lists(
        st.tuples(st.integers(0, 2**32), st.floats(-3.0, 3.0, allow_nan=False),
                  st.one_of(st.just(0.0), st.floats(0.0, 12.0, allow_nan=False)),
                  st.booleans()),
        min_size=1, max_size=14),
    draw=st.integers(0, 2**32),
    kind=st.integers(0, 3),
)
@settings(max_examples=40, deadline=None)
def test_ragged_solve_many_equals_one_fiber_solves(rows, draw, kind):
    # each row its own offset and horizon, t = 0, and horizons that end on
    # a cell edge; under one shared input (no input, a constant, cells, a
    # smooth input) and under a table of one splice tree per row, each row
    # solved alone
    rng = np.random.default_rng(draw)
    coeffs = linear.LinearCoeffs(a=cell_noise(A_LAW), b=cell_noise(GAIN_LAW, lag=1))
    fibers, times = [], []
    for seed, offset, t, edge in rows:
        if edge:
            t = float(math.ceil(offset + t) - offset)
        fibers.append(Fiber(seed, offset))
        times.append(t)
    xs = rng.uniform(-2.0, 2.0, size=len(fibers))
    shared = list(_batched_inputs(rng, max(times)))[kind]
    table = rdsi.draw_inputs(rng, len(fibers), 1, "continuous", max(max(times), 1.0))
    for t in (times, times[0]):  # a time per fiber, and one for every fiber
        each = np.broadcast_to(t, len(fibers)).tolist()
        got = linear.solve_many(coeffs, t, batch(fibers), xs, shared)
        ref = np.array([linear.solve(coeffs, s, w, x, shared)
                        for s, w, x in zip(each, fibers, xs.tolist())])
        assert got.tobytes() == ref.tobytes()
        got = linear.solve_many(coeffs, t, batch(fibers), xs, table)
        assert got.tobytes() == _solve_rows(coeffs, each, fibers, xs, table).tobytes()


def test_ragged_solve_many_chunks_and_validates(monkeypatch):
    coeffs = linear.LinearCoeffs(a=cell_noise(A_LAW), b=cell_noise(GAIN_LAW))
    rng = np.random.default_rng(11)
    fibers = [Fiber(int(s), float(o)) for s, o in zip(rng.integers(0, 2**32, 40),
                                                      rng.uniform(0.0, 1.0, 40))]
    ws = batch(fibers)
    times = rng.uniform(3.0, 4.0, 40).tolist()
    xs = np.linspace(-1.0, 1.0, 40)
    smooth = decaying_input(cell_noise(CellLaw("uniform", lo=(0.5,), hi=(1.5,))),
                            cell_noise(CellLaw("uniform", lo=(0.2,), hi=(0.4,))), rate=0.5)
    table = rdsi.draw_inputs(rng, 40, 1, "continuous", 4.0)
    monkeypatch.setattr(linear, "_CHUNK_VALUES", 200)  # a few fibers per chunk
    ref = np.array([linear.solve(coeffs, t, w, x, smooth)
                    for t, w, x in zip(times, fibers, xs.tolist())])
    assert linear.solve_many(coeffs, times, ws, xs, smooth).tobytes() == ref.tobytes()
    ref = _solve_rows(coeffs, times, fibers, xs, table)
    assert linear.solve_many(coeffs, times, ws, xs, table).tobytes() == ref.tobytes()
    with pytest.raises(ValueError, match="one time and one input per fiber"):
        linear.solve_many(coeffs, times[:3], ws, xs, table)
    with pytest.raises(ValueError, match="one time and one input per fiber"):
        linear.solve_many(coeffs, times, ws, xs, table[:39])
    with pytest.raises(ValueError, match="t >= 0"):
        linear.solve_many(coeffs, [-1.0] + times[1:], ws, xs, table)
    with pytest.raises(ValueError, match="scalar"):
        linear.solve_many(coeffs, times, ws, xs,
                          process.InputTable.constants(np.zeros((40, 2)), "continuous"))
    # a sequence of one process per fiber is not an input form
    with pytest.raises(ValueError, match="one Process shared by every fiber, or an InputTable"):
        linear.solve_many(coeffs, times, ws, xs, [smooth] * 40)


def test_solve_many_groups_offsets_and_chunks_fibers(monkeypatch):
    coeffs = linear.LinearCoeffs(a=cell_noise(A_LAW), b=cell_noise(GAIN_LAW))
    fibers = [*fiber_grid(30, seed=5, offset=0.25), *fiber_grid(20, seed=90, offset=1.5)]
    xs = np.linspace(-1.0, 1.0, len(fibers))
    u = decaying_input(cell_noise(CellLaw("uniform", lo=(0.5,), hi=(1.5,))),
                       cell_noise(CellLaw("uniform", lo=(0.2,), hi=(0.4,))), rate=0.5)
    ref = np.array([linear.solve(coeffs, 12.5, w, x, u) for w, x in zip(fibers, xs.tolist())])
    monkeypatch.setattr(linear, "_CHUNK_VALUES", 1000)  # a few fibers per chunk
    assert linear.solve_many(coeffs, 12.5, batch(fibers), xs, u).tobytes() == ref.tobytes()


def _spliced_rows(count):
    """``count`` table rows of one tree: the cells of ``_cells(lib, 1)``,
    spliced at 2.3 with those of ``_cells(lib, -2)``."""
    nodes = InputNodes(1, "continuous")
    root = nodes.concat(nodes.cell((-1.0,), (1.0,), 1), nodes.cell((-1.0,), (1.0,), -2), 2.3)
    return nodes.table([root] * count)


@pytest.mark.parametrize("source", ["none", "cells", "decaying", "spliced"])
def test_shared_input_groups_repeated_and_distinct_offsets(source, monkeypatch):
    # four offsets shared by many fibers (0.0 and -0.0 are one offset),
    # among fibers of their own offset, in shuffled order; a spliced input,
    # the same tree in every row of a table, has splice times of its own,
    # which its fibers' grids take in
    rng = np.random.default_rng(21)
    offsets = np.concatenate([rng.choice([-1.5, 0.0, -0.0, 0.25, 2.75], 40),
                              rng.uniform(-3.0, 3.0, 10)])
    rng.shuffle(offsets)
    fibers = [Fiber(int(s), o) for s, o in zip(rng.integers(0, 2**32, 50), offsets.tolist())]
    xs = rng.uniform(-2.0, 2.0, 50)
    u = {"none": lambda: None, "cells": lambda: _cells(LIB, 1),
         "decaying": lambda: _decaying(LIB, 0.8),
         "spliced": lambda: _spliced_rows(50)}[source]()
    coeffs = linear.LinearCoeffs(a=cell_noise(A_LAW), b=cell_noise(GAIN_LAW, lag=1))
    rows = [u[r:r + 1] if source == "spliced" else u for r in range(50)]
    ref = np.array([linear.solve_many(coeffs, 6.5, batch([w]), [x], row)[0]
                    for w, x, row in zip(fibers, xs.tolist(), rows)])
    grid = linear._grid
    built = []  # the grid rows of each _grid call
    monkeypatch.setattr(linear, "_grid", lambda o, t, e: built.append(len(o)) or grid(o, t, e))
    got = linear.solve_many(coeffs, 6.5, batch(fibers), xs, u)
    assert got.tobytes() == ref.tobytes()
    # one grid row per distinct (offset, time) pair, 0.0 and -0.0 being one
    # offset; a spliced input's fibers each take a grid row of their own
    assert built == [50 if source == "spliced" else 4 + 10]


def test_solve_many_validation(random_coeffs):
    fibers = fiber_grid(3, offset=0.5)
    with pytest.raises(ValueError, match="t >= 0"):
        linear.solve_many(random_coeffs, -1.0, fibers, [0.0] * 3)
    with pytest.raises(ValueError, match="scalar"):
        linear.solve_many(random_coeffs, 2.0, fibers, [0.0] * 3, constant([1.0, 2.0], "continuous"))
    with pytest.raises(ValueError, match="non-finite"):
        linear.solve_many(random_coeffs, 2.0, fibers, [1.0, math.inf, 0.0])
    assert linear.solve_many(random_coeffs, 5.0, batch([]), []).shape == (0,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_solve_many_rejects_non_finite_times(random_coeffs, bad):
    fibers = fiber_grid(3, offset=0.5)
    u = constant([1.0], "continuous")
    table = process.InputTable.constants(np.ones((3, 1)), "continuous")
    for t, inputs in ((bad, u), ([1.0, bad, 2.0], u), ([1.0, 2.0, bad], table)):
        with pytest.raises(ValueError, match="flow times t must be finite"):
            linear.solve_many(random_coeffs, t, fibers, [0.0] * 3, inputs)


def _drawn_rows(draw: int, count: int, max_time: float):
    """``count`` spliced input rows as ``check_axioms`` draws them: one
    input table ``us.concat(vs, ss)`` from ``rdsi.draw_inputs``, and its
    rows rebuilt as pointwise process trees."""
    rng = np.random.default_rng(draw)
    drawn = rdsi.draw_inputs(rng, 2 * count, 1, "continuous", max_time)
    us, vs = drawn[:count], drawn[count:]
    ss = rng.uniform(0.0, max_time, count)
    trees = [tree(us, r).concat(tree(vs, r), s) for r, s in enumerate(ss.tolist())]
    return us.concat(vs, ss), trees


def _spy_groups(monkeypatch) -> list[list[int]]:
    """The segment counts of the rows of each padded solve from now on."""
    groups = []
    solve_group = linear._solve_group

    def spy(c, lo, hi, fibers, xs, u, kind, counts, sizes):
        groups.append(counts.tolist())
        return solve_group(c, lo, hi, fibers, xs, u, kind, counts, sizes)

    monkeypatch.setattr(linear, "_solve_group", spy)
    return groups


@given(draw=st.integers(0, 2**32), lifted=st.booleans(), chunk=st.sampled_from([None, 60]))
@settings(max_examples=25, deadline=None)
def test_table_solves_equal_one_fiber_solves_on_the_reference_trees(draw, lifted, chunk):
    # 3-level splices, mixed segment counts, t = 0, horizons that end on a
    # cell edge, x = -0.0 and zero-gain cells; in one padded solve, or in
    # chunks of at most 60 padded values; against the pointwise solve of
    # each row's pointwise tree
    count = 24
    table, trees = _drawn_rows(draw, count, 6.0)
    rng = np.random.default_rng(draw + 1)
    if lifted:
        lifts = rng.uniform(0.05, 1.0, size=(count, 1))
        table = dataclasses.replace(table, lift=lifts)
        trees = [p + ref.constant(lift, "continuous") for p, lift in zip(trees, lifts)]
    offsets = rng.uniform(-3.0, 3.0, count)
    fibers = [Fiber(int(s), o) for s, o in zip(rng.integers(0, 2**32, count), offsets.tolist())]
    times = rng.uniform(0.0, 12.0, count)
    times[::5] = 0.0
    times[2::5] = np.ceil(offsets[2::5] + times[2::5]) - offsets[2::5]
    xs = rng.uniform(-2.0, 2.0, count)
    xs[1::4] = -0.0
    coeffs = linear.LinearCoeffs(a=cell_noise(A_LAW), b=cell_noise(GAIN_LAW, lag=1))

    points = table.breakpoints(0.0, times)
    for r, (p, w, t) in enumerate(zip(trees, fibers, times.tolist())):
        want = np.array(p.breakpoints(w, 0.0, t), dtype=float)
        assert points[r, :want.size].tobytes() == want.tobytes()
        assert np.isnan(points[r, want.size:]).all()

    pointwise_coeffs = linear.LinearCoeffs(a=ref.cell_noise(A_LAW),
                                           b=ref.cell_noise(GAIN_LAW, lag=1))
    want = np.array([_pointwise_solve(pointwise_coeffs, t, w, x, p)
                     for t, w, x, p in zip(times.tolist(), fibers, xs.tolist(), trees)])
    with pytest.MonkeyPatch.context() as mp:
        groups = _spy_groups(mp)
        if chunk is not None:
            mp.setattr(linear, "_CHUNK_VALUES", chunk)
        got = linear.solve_many(coeffs, times.tolist(), batch(fibers), xs, table)
    assert got.tobytes() == want.tobytes()
    assert sum(map(len, groups)) == np.count_nonzero(times)
    for group in groups:
        assert group == sorted(group)
        assert len(group) == 1 or len(group) * group[-1] <= (chunk or linear._CHUNK_VALUES)
    if chunk is None:
        assert len(groups) == 1 and len(set(groups[0])) > 1


def test_ragged_chunk_rows_equal_one_fiber_solves(monkeypatch):
    # rows of one to many segments in one padded solve: the pads are
    # exponentiated with the real segments and then add -0.0, so every row
    # is the one-fiber solve
    table, _ = _drawn_rows(11, 24, 6.0)
    rng = np.random.default_rng(12)
    offsets = rng.uniform(-3.0, 3.0, 24)
    fibers = [Fiber(int(s), o) for s, o in zip(rng.integers(0, 2**32, 24), offsets.tolist())]
    times = rng.uniform(0.5, 12.0, 24)
    xs = rng.uniform(-2.0, 2.0, 24)
    coeffs = linear.LinearCoeffs(a=cell_noise(A_LAW), b=cell_noise(GAIN_LAW, lag=1))
    ref = _solve_rows(coeffs, times.tolist(), fibers, xs, table)
    groups = _spy_groups(monkeypatch)
    got = linear.solve_many(coeffs, times.tolist(), batch(fibers), xs, table)
    assert got.tobytes() == ref.tobytes()
    assert len(groups) == 1 and len(set(groups[0])) > 1


def test_padded_chunks_split_rows_of_one_segment_count(monkeypatch):
    # ten rows of four segments each, three rows per chunk of 12 values
    coeffs = linear.LinearCoeffs(a=cell_noise(A_LAW), b=cell_noise(GAIN_LAW))
    fibers = fiber_grid(10, seed=8, offset=0.25)
    xs = np.linspace(-1.0, 1.0, 10)
    values = np.linspace(-0.5, 0.5, 10)[:, None]
    table = process.InputTable.constants(values, "continuous")
    ref = np.array([linear.solve(coeffs, 3.0, w, x, constant(v, "continuous"))
                    for w, x, v in zip(fibers, xs.tolist(), values)])
    groups = _spy_groups(monkeypatch)
    monkeypatch.setattr(linear, "_CHUNK_VALUES", 12)
    got = linear.solve_many(coeffs, [3.0] * 10, fibers, xs, table)
    assert got.tobytes() == ref.tobytes()
    assert groups == [[4] * 3, [4] * 3, [4] * 3, [4]]


def test_as_system_flows_many_fibers_like_one(random_coeffs):
    sys = linear.as_system(random_coeffs)
    u = stationary(cell_noise(CellLaw("uniform", lo=(-1.0,), hi=(1.0,))), "continuous")
    fibers = fiber_grid(9, seed=3, offset=0.7)
    xs = np.linspace(-1.0, 1.0, 9)[:, None]
    got = sys.many(7.3, fibers, xs, u)
    ref = np.array([sys(7.3, w, x, u) for w, x in zip(fibers, xs)])
    assert got.shape == (9, 1)
    assert got.tobytes() == ref.tobytes()


def _counted(u, points):
    """``u`` as a process that adds the number of points of each read to
    ``points``."""
    def fn(ws, ts):
        points.append(len(ws) * ts.shape[-1])
        return u.fn(ws, ts)

    return process.Process(u.dim, u.time_kind, fn, piecewise_constant=u.piecewise_constant)


@pytest.mark.parametrize("source", ["cells", "decaying"])
def test_shared_groups_solve_once_and_equal_one_row_solves(source, monkeypatch):
    # k = 3 copies of n = 12 distinct rows (the offsets 0.0 and -0.0 among
    # them, one group), in shuffled order, each copy from a state of its
    # own: each entry is the one-row solve, and the input is read at the
    # points of the n distinct rows, not of k * n rows
    rng = np.random.default_rng(5)
    offsets = rng.choice([0.0, -0.0, 0.25, 1.5], 12)
    seeds, times = rng.integers(0, 2**32, 12), rng.uniform(0.5, 9.0, 12)
    seeds[1], offsets[:2], times[1] = seeds[0], (0.0, -0.0), times[0]
    copies = np.concatenate([rng.permutation(12) for _ in range(3)])
    fibers = [Fiber(int(s), float(o)) for s, o in zip(seeds[copies], offsets[copies])]
    xs = rng.uniform(-2.0, 2.0, copies.size)
    u = _cells(LIB, 1) if source == "cells" else _decaying(LIB, 0.8)
    coeffs = linear.LinearCoeffs(a=cell_noise(A_LAW), b=cell_noise(GAIN_LAW, lag=1))
    ref = np.array([linear.solve(coeffs, t, w, x, u)
                    for t, w, x in zip(times[copies].tolist(), fibers, xs.tolist())])
    once, shared, sizes = [], [], []
    distinct = batch([Fiber(int(s), float(o)) for s, o in zip(seeds[1:], offsets[1:])])
    linear.solve_many(coeffs, times[1:], distinct, np.zeros(11), _counted(u, once))
    solve_group = linear._solve_group
    monkeypatch.setattr(linear, "_solve_group", lambda *args: sizes.extend(args[-1].tolist())
                        or solve_group(*args))
    got = linear.solve_many(coeffs, times[copies], batch(fibers), xs, _counted(u, shared))
    assert got.tobytes() == ref.tobytes()
    # rows 0 and 1 are one group of six rows
    assert sorted(sizes) == [3] * 10 + [6]
    assert sum(shared) == sum(once)


def test_chunks_count_a_group_by_its_quadrature_nodes_or_its_rows(monkeypatch):
    # a chunk holds at most 100 values: a group takes, per segment, its
    # rows or (on the quadrature path) its 24 nodes, whichever are more
    monkeypatch.setattr(linear, "_CHUNK_VALUES", 100)

    def chunks(counts, sizes, kind):
        return [part.tolist() for part in linear._chunks(np.array(counts), np.array(sizes), kind)]

    assert chunks([5, 5, 5], [10, 10, 3], True) == [[0, 1], [2]]
    assert chunks([1, 1, 1], [1, 1, 1], False) == [[0, 1, 2]]
    assert chunks([1, 1, 1], [10, 80, 1], False) == [[0], [1], [2]]
    assert chunks([30, 30], [200, 1], None) == [[0], [1]]
