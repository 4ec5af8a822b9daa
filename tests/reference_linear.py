"""The cell-by-cell reference of ``linear.characteristic``: the truncated
past integral read one fiber and one cell at a time, with ``scalar`` reads
and scalar libm.  The batched ``characteristic`` must return these values
bit for bit and raise these errors."""

import math

import numpy as np

from rdsio.linear import (_GL_NODES, _GL_WEIGHTS, _MAX_CELLS, DivergenceError,
                          LinearCoeffs, _resolve_rate)
from rdsio.mpds import Fiber, RandomVariable


def growth_factor(a: float, width: float) -> float:
    """Exact ``integral of exp(a*(width - s)) ds`` over ``[0, width]``."""
    if a == 0.0:
        return width
    return math.expm1(a * width) / a


def characteristic(
    c: LinearCoeffs,
    u: RandomVariable,
    fiber: Fiber,
    tol: float = 1e-9,
    lam: float | None = None,
    input_cell_resolved: bool = True,
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
        if input_cell_resolved:
            bu = c.b.scalar(wmid) * u.scalar(wmid)
            value += bu * math.exp(suffix_exp) * growth_factor(a_k, width)
        else:
            nodes = mid + (width / 2.0) * _GL_NODES
            samples = np.array([u.scalar(fiber.shift(float(s))) for s in nodes])
            kernel = np.exp(a_k * (hi - nodes))
            inner = (width / 2.0) * float(np.dot(_GL_WEIGHTS, samples * kernel))
            bu = c.b.scalar(wmid) * float(np.max(np.abs(samples)))
            value += c.b.scalar(wmid) * inner * math.exp(suffix_exp)
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
            required = math.ceil((math.log(sup_bu) - math.log(tol * rate)) / rate)
        tail_bound = sup_bu * math.exp(-rate * depth) / rate
        realized_tail = sup_bu * math.exp(suffix_exp) / rate
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
