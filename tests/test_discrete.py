"""Unit tests for one-step generators and their flows."""

import numpy as np
import pytest

from rdsio import discrete, linear
from rdsio.mpds import CellLaw, Fiber, cell_noise, constant_rv
from rdsio.process import constant, stationary

NOISE = CellLaw("uniform", lo=(0.0,), hi=(1.0,))


def test_identity_generator_freezes_the_state():
    gen = discrete.Generator(1, 0, lambda w, x, u: x)
    sys = discrete.flow_from_generator(gen)
    w = Fiber(5, 0)
    for n in (0, 1, 7, 30):
        np.testing.assert_array_equal(sys(n, w, [0.4], None), [0.4])


def test_three_step_unroll_of_half_plus_input():
    gen = discrete.Generator(1, 1, lambda w, x, u: 0.5 * x + u)
    sys = discrete.flow_from_generator(gen)
    c = 2.0
    value = sys(3, Fiber(0, 0), [1.0], constant([c]))
    assert value[0] == pytest.approx(1.0 / 8.0 + 7.0 * c / 4.0, abs=0.0)


def test_flow_equals_brute_force_fold():
    noise = cell_noise(NOISE)

    def f(w, x, u):
        return 0.5 * x + noise(w) + u

    gen = discrete.Generator(1, 1, f)
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
    gen = discrete.Generator(1, 1, lambda w, x, u: 0.5 * x + noise(w) + u)
    sys = discrete.flow_from_generator(gen)
    rebuilt = discrete.flow_from_generator(discrete.generator_from_flow(sys))
    rng = np.random.default_rng(4)
    u = constant([0.3]).concat(stationary(cell_noise(NOISE, lag=1)), 6)
    for _ in range(100):
        w = Fiber(int(rng.integers(0, 2**31)), 0)
        n = int(rng.integers(0, 51))
        x = np.array([rng.uniform(-2, 2)])
        np.testing.assert_array_equal(rebuilt(n, w, x, u), sys(n, w, x, u))


def test_round_trip_generator_to_flow_to_generator_exact():
    noise = cell_noise(NOISE)
    gen = discrete.Generator(1, 1, lambda w, x, u: 0.5 * x + noise(w) + u)
    extracted = discrete.generator_from_flow(discrete.flow_from_generator(gen))
    rng = np.random.default_rng(5)
    for _ in range(1000):
        w = Fiber(int(rng.integers(0, 2**31)), 0)
        x = np.array([rng.uniform(-2, 2)])
        uv = np.array([rng.uniform(-2, 2)])
        np.testing.assert_array_equal(extracted(w, x, uv), gen(w, x, uv))


def test_extracted_generator_of_identity_flow_is_identity():
    gen = discrete.Generator(1, 1, lambda w, x, u: x)
    extracted = discrete.generator_from_flow(discrete.flow_from_generator(gen))
    w = Fiber(9, 0)
    np.testing.assert_array_equal(extracted(w, [1.7], [0.4]), [1.7])


def test_splice_identity_at_arbitrary_points():
    # re-run the inductive step: advance p steps under u, then n under v,
    # equals one flow of p+n under the splice
    noise = cell_noise(NOISE)
    gen = discrete.Generator(1, 1, lambda w, x, u: 0.4 * x + noise(w) * u)
    sys = discrete.flow_from_generator(gen)
    u = stationary(cell_noise(NOISE, lag=-1))
    v = constant([1.0]).concat(stationary(cell_noise(NOISE, lag=3)), 2)
    rng = np.random.default_rng(6)
    for _ in range(200):
        w = Fiber(int(rng.integers(0, 2**31)), 0)
        p = int(rng.integers(0, 20))
        n = int(rng.integers(0, 20))
        x = np.array([rng.uniform(-1, 1)])
        y = sys(p, w, x, u)
        z = sys(n, w.shift(p), y, v)
        np.testing.assert_array_equal(sys(p + n, w, x, u.concat(v, p)), z)


def test_generator_validation():
    gen = discrete.Generator(2, 1, lambda w, x, u: x)
    with pytest.raises(ValueError, match="state"):
        gen(Fiber(0, 0), [1.0], [0.0])
    with pytest.raises(ValueError, match="input"):
        gen(Fiber(0, 0), [1.0, 2.0], [0.0, 0.0])
    sys = discrete.flow_from_generator(gen)
    with pytest.raises(ValueError, match="integer"):
        sys(1.5, Fiber(0, 0), [1.0, 2.0], constant([0.0]))
    lin = linear.as_system(linear.LinearCoeffs(a=constant_rv(-1.0), b=constant_rv(1.0)))
    with pytest.raises(ValueError, match="discrete"):
        discrete.generator_from_flow(lin)
