"""The cell-by-cell reference of ``linear.characteristic``: the truncated
past integral read one fiber and one cell at a time, with ``scalar`` reads,
and numpy's ``exp``, ``expm1`` and ``log`` called one scalar at a time.
The batched ``characteristic`` must return these values bit for bit and
raise these errors.  Those kernels are elementwise, so a scalar call gives
the value of the same element inside any array."""

import math

import numpy as np

from rdsio.linear import _GL_WEIGHTS, _MAX_CELLS, DivergenceError, LinearCoeffs, _resolve_rate
from rdsio.mpds import Fiber, RandomVariable


def growth_factor(a: float, width: float) -> float:
    """Exact ``integral of exp(a*(width - s)) ds`` over ``[0, width]``."""
    if a == 0.0:
        return width
    return np.expm1(np.float64(a * width)) / a


def quadrature(samples, a: float, hi: float, nodes, width: float) -> float:
    """Gauss-Legendre integral over one segment of the input ``samples``
    at its ``nodes`` times the kernel ``exp(a*(hi - s))``: one scalar
    ``exp`` per node, and the weighted values added in node order."""
    total = None
    for weight, sample, node in zip(_GL_WEIGHTS, samples, nodes):
        term = weight * (sample * np.exp(np.float64(a * (hi - node))))
        total = term if total is None else total + term
    return (width / 2.0) * total


def characteristic(
    c: LinearCoeffs,
    u: RandomVariable,
    fiber: Fiber,
    tol: float = 1e-9,
    lam: float | None = None,
) -> float:
    """Stationary-input limit state at one fiber, truncated where the
    analytic and realized tail bounds both fall within ``tol``."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    rate, heuristic = _resolve_rate(c, lam)
    if rate <= 0:
        raise DivergenceError(
            f"decay rate must be positive; got {rate} "
            "(exponential decay hypothesis fails)"
        )
    if u.dim != 1:
        raise ValueError("stationary input must be scalar")

    o = fiber.offset
    hi = 0.0
    lo = math.floor(o) - o
    if lo == 0.0:
        lo = -1.0

    value = 0.0
    suffix_exp = 0.0  # integral of a from the current lower edge up to 0
    sup_bu = 0.0
    cells_done = 0
    while True:
        width = hi - lo
        mid = (lo + hi) / 2.0
        wmid = fiber.shift(mid)
        a_k = c.a.scalar(wmid)
        bu = c.b.scalar(wmid) * u.scalar(wmid)
        value += bu * np.exp(np.float64(suffix_exp)) * growth_factor(a_k, width)
        suffix_exp += a_k * width
        if suffix_exp > 700.0:
            raise DivergenceError(
                "characteristic integral diverges along this fiber "
                "(accumulated drift exponent grows without bound)"
            )
        sup_bu = max(sup_bu, abs(bu))
        cells_done += 1
        depth = -lo

        if sup_bu == 0.0:
            required = 1.0
        else:
            required = math.ceil((np.log(np.float64(sup_bu)) - np.log(np.float64(tol * rate)))
                                 / rate)
        tail_bound = sup_bu * np.exp(np.float64(-rate * depth)) / rate
        realized_tail = sup_bu * np.exp(np.float64(suffix_exp)) / rate
        if depth >= required and tail_bound <= tol and realized_tail <= tol:
            break
        if cells_done >= _MAX_CELLS:
            raise DivergenceError(
                "characteristic truncation did not certify within "
                f"{_MAX_CELLS} cells (rate={rate}, heuristic={heuristic})"
            )
        hi = lo
        lo = hi - 1.0

    if not math.isfinite(value):
        raise ValueError("characteristic integral produced a non-finite value")
    return float(value)
