"""The properties of numpy's ``exp``, ``expm1`` and ``log`` that the bitwise
tests of the linear flow rest on.

``linear`` calls these kernels on whole arrays, and its references call them
one scalar at a time.  Batched rows equal the references bit for bit only if
an element's result does not depend on its position, on the array's length,
on the view it is read through, or on whether the call is a scalar one.  The
kernels must also stay within 1 ulp of the C library's, so that a numpy build
with a poor kernel shows here rather than as a moved digest.
"""

import math
import warnings

import numpy as np
import pytest

from rdsio import linear
from rdsio.mpds import Fiber, Fibers, constant_rv, fiber_grid
from rdsio.process import constant

# the ranges of the exponents the linear flow meets, widest first
RANGES = [700.0, 100.0, 10.0, 1.0, 1e-1, 1e-3]
DRAWS = 200_000

KERNELS = [
    (np.exp, math.exp, lambda x: x),
    (np.expm1, math.expm1, lambda x: x),
    # the logarithm of the running sup: positive values of every magnitude
    (np.log, math.log, lambda x: np.abs(x) + np.finfo(float).tiny),
]


def _draws(bound: float, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-bound, bound, DRAWS)


def _ulps(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """The distance in units in the last place between finite values of
    one sign, read off their ordered bit patterns."""
    return np.abs(got.view(np.int64) - want.view(np.int64))


@pytest.mark.parametrize("vector, _, domain", KERNELS, ids=["exp", "expm1", "log"])
@pytest.mark.parametrize("bound", RANGES)
def test_an_elements_result_does_not_depend_on_where_it_is_read(vector, _, domain, bound):
    x = domain(_draws(bound, 1))
    whole = vector(x)
    for start in (1, 3, 7, 13):
        assert vector(x[start:]).tobytes() == whole[start:].tobytes()
    for step in (2, 3, 5):
        assert vector(x[::step]).tobytes() == whole[::step].tobytes()
    # every short length, so each tail of a SIMD loop is read
    for n in range(1, 40):
        assert vector(x[:n]).tobytes() == whole[:n].tobytes()
    assert vector(x.reshape(-1, 8)).tobytes() == whole.tobytes()
    scalars = np.array([vector(v) for v in x[:2000].tolist()])
    assert scalars.tobytes() == whole[:2000].tobytes()
    assert np.array([vector(np.float64(v)) for v in x[:2000]]).tobytes() == \
        whole[:2000].tobytes()


@pytest.mark.parametrize("vector, libm, domain", KERNELS, ids=["exp", "expm1", "log"])
@pytest.mark.parametrize("bound", RANGES)
def test_kernels_stay_within_one_ulp_of_the_c_library(vector, libm, domain, bound):
    x = domain(_draws(bound, 2))
    got = vector(x)
    want = np.fromiter(map(libm, x.tolist()), dtype=float, count=x.size)
    same_sign = np.signbit(got) == np.signbit(want)
    assert same_sign[want != 0.0].all()
    assert _ulps(np.abs(got), np.abs(want)).max() <= 1


# a drift whose exponent overflows within one cell
STEEP = linear.LinearCoeffs(a=constant_rv(750.0), b=constant_rv(1.0))


def test_a_drift_of_750_ends_the_flow_in_an_error_without_a_warning():
    u = constant([1.0], "continuous")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # half a cell stays finite; a whole one overflows exp and expm1
        assert math.isfinite(linear.solve(STEEP, 0.5, Fiber(1, 0.25), 1.0, u))
        for t, input_ in ((1.0, None), (1.0, u), (0.95, u)):
            with pytest.raises(ValueError, match="non-finite value"):
                linear.solve(STEEP, t, Fiber(1, 0.25), 1.0, input_)
        with pytest.raises(ValueError, match="non-finite value"):
            linear.solve_many(STEEP, 2.0, fiber_grid(4, offset=0.25), np.ones(4), u)


def test_a_drift_of_750_diverges_the_characteristic_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(linear.DivergenceError, match="diverges along this fiber"):
            linear.characteristic(STEEP, constant_rv(1.0), fiber_grid(3, offset=0.25),
                                  lam=1.0)


def test_a_large_envelope_exponent_is_infinite_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma = linear.envelope_constant(STEEP, 1.0, 3).across(Fibers([1], [0.25]))
    assert gamma[0, 0] == math.inf
