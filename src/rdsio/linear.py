"""Scalar linear random differential equation with exact cell-wise flow.

The state obeys ``dx/dt = a(t) x + b(t) u(t)`` where the coefficient
values along a fiber are constant on unit noise cells.  Exponential and
convolution integrals therefore reduce to closed forms per cell: the flow,
the stationary-input limit, and the decay-envelope diagnostics are all
computed without quadrature error for cell-aligned data (smooth non-cell
inputs fall back to per-segment Gauss-Legendre, which is exact to machine
precision for analytic integrands).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .mpds import CellLaw, Fiber, RandomVariable, cell_noise, temperedness_report, TemperednessReport
from .process import Process, constant as constant_process, stationary
from .rdsi import SystemFlow

__all__ = [
    "LinearCoeffs",
    "solve",
    "solve_many",
    "as_system",
    "characteristic",
    "estimate_decay_rate",
    "integrate_coefficient",
    "check_decay_bound",
    "check_bounded_flow",
    "DecayBoundReport",
    "BoundedFlowReport",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


@dataclass(frozen=True)
class LinearCoeffs:
    """Scalar drift and input-gain coefficients, plus an optional decay hint.

    Both coefficients must be cell-resolved: their value along a fiber
    orbit changes only at unit-cell boundaries.  ``decay_rate_hint`` names
    a positive rate for the exponential decay envelope when one is known;
    otherwise the empirical orbit mean of the drift stands in (and is
    flagged as heuristic wherever it is used).
    """

    a: RandomVariable
    b: RandomVariable
    decay_rate_hint: float | None = None

    def __post_init__(self):
        if self.a.dim != 1 or self.b.dim != 1:
            raise ValueError("linear coefficients must be scalar")
        if self.decay_rate_hint is not None and self.decay_rate_hint <= 0:
            raise ValueError("decay rate hint must be positive")


def _segments(fiber: Fiber, t: float, extra: Sequence[float] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Partition of ``[0, t]`` at cell boundaries and extra breakpoints,
    as arrays of segment lower and upper edges."""
    o = fiber.offset
    points = [0.0, float(t)]
    k_lo = math.floor(o) + 1
    k_hi = math.ceil(o + t)
    for k in range(k_lo, k_hi):
        s = k - o
        if 0.0 < s < t:
            points.append(float(s))
    for s in extra:
        if 0.0 < s < t:
            points.append(float(s))
    edges = np.array(sorted(set(points)))
    return edges[:-1], edges[1:]


def _growth_factor(a: float, width: float) -> float:
    """Exact ``integral of exp(a*(width - s)) ds`` over ``[0, width]``."""
    if a == 0.0:
        return width
    return math.expm1(a * width) / a


def solve(
    c: LinearCoeffs,
    t: float,
    fiber: Fiber,
    x: float,
    u: Optional[Process] = None,
) -> float:
    """Exact flow of the linear equation from state ``x`` over ``[0, t]``.

    Cell-aligned inputs integrate in closed form per cell; other inputs use
    per-segment Gauss-Legendre on the input factor (the exponential kernel
    stays closed-form).  This is :func:`solve_many` on one fiber.
    """
    return float(solve_many(c, t, [fiber], [x], u)[0])


def solve_many(
    c: LinearCoeffs,
    t,
    fibers: Sequence[Fiber],
    xs,
    u: Process | None | Sequence[Process | None] = None,
) -> np.ndarray:
    """:func:`solve` at every fiber, from the matching entry of ``xs``.

    ``t`` is one time for every fiber or a sequence of one time per fiber,
    and ``u`` one input (or None) for every fiber or a sequence of one per
    fiber.  With a shared time and input, fibers that share an offset and
    the input's breakpoints share one segment grid and are solved together.
    Otherwise each fiber keeps its own grid, and fibers whose grids have
    the same number of segments (and inputs of the same kind) are solved
    together.  Grids are never padded: the free-response exponent is a
    pairwise sum whose rounding depends on the row length.  Each entry is
    bit-identical to the one-fiber :func:`solve`.
    """
    xs = np.asarray(xs, dtype=float).reshape(len(fibers))
    shared_input = u is None or isinstance(u, Process)
    per_row = np.ndim(t) > 0 or not shared_input
    times = [float(v) for v in t] if np.ndim(t) else [float(t)] * len(fibers)
    inputs = [u] * len(fibers) if shared_input else list(u)
    if len(times) != len(fibers) or len(inputs) != len(fibers):
        raise ValueError("need one time and one input per fiber")
    if any(v < 0 for v in times):
        raise ValueError("flows are defined for t >= 0")
    out = xs.copy()
    if not per_row:
        if not fibers or times[0] == 0:
            return out
        shared: dict[tuple, list[int]] = {}
        for i, w in enumerate(fibers):
            extra = u.breakpoints(w, 0.0, times[0]) if u is not None else ()
            shared.setdefault((w.offset, extra), []).append(i)
        for (_, extra), rows in shared.items():
            lo, hi = _segments(fibers[rows[0]], times[0], extra)
            out[rows] = _solve_group(c, lo, hi, [fibers[i] for i in rows], xs[rows], u)
        return out
    ragged: dict[tuple, list[tuple[int, np.ndarray, np.ndarray]]] = {}
    for i, (w, t_i, u_i) in enumerate(zip(fibers, times, inputs)):
        if t_i == 0:
            continue
        lo, hi = _segments(w, t_i, u_i.breakpoints(w, 0.0, t_i) if u_i is not None else ())
        kind = None if u_i is None else u_i.piecewise_constant
        ragged.setdefault((lo.size, kind), []).append((i, lo, hi))
    for members in ragged.values():
        rows = [i for i, _, _ in members]
        out[rows] = _solve_group(
            c, np.stack([lo for _, lo, _ in members]), np.stack([hi for _, _, hi in members]),
            [fibers[i] for i in rows], xs[rows], [inputs[i] for i in rows],
        )
    return out


# values per fiber chunk of one array of a grouped solve (bounds its memory)
_CHUNK_VALUES = 1 << 16


def _solve_group(
    c: LinearCoeffs,
    lo: np.ndarray,
    hi: np.ndarray,
    fibers: Sequence[Fiber],
    xs: np.ndarray,
    u: Process | None | list[Process | None],
) -> np.ndarray:
    """The flow over segments ``[lo, hi)`` on fibers solved together.

    A 1-D grid is shared by every fiber, which then share the one input
    ``u``; a 2-D grid holds one row of edges per fiber, with one input per
    fiber in the list ``u``, all None or all of one kind.  The
    coefficients are read at all segment midpoints of all fibers in one
    batched call each, and a shared input at all midpoints (or at all
    quadrature nodes) in one more; a per-fiber input is read along its own
    row in one call per fiber.  Every exponential is scalar libm, and each
    fiber accumulates its segments sequentially, so every row is
    bit-identical to the one-fiber solve.
    """
    ragged = lo.ndim == 2
    first = u[0] if ragged else u
    for p in u if ragged else [u]:
        if p is not None and p.dim != 1:
            raise ValueError(f"input must be scalar, got dimension {p.dim}")
    smooth = first is not None and not first.piecewise_constant
    per_fiber = lo.shape[-1] * (_GL_NODES.size if smooth else 1)
    step = max(1, _CHUNK_VALUES // per_fiber)
    if len(fibers) > step:
        # per-fiber arguments are cut into chunks, shared ones passed whole
        part = (lambda v, i: v[i : i + step]) if ragged else (lambda v, i: v)
        return np.concatenate([
            _solve_group(c, part(lo, i), part(hi, i), fibers[i : i + step],
                         xs[i : i + step], part(u, i))
            for i in range(0, len(fibers), step)
        ])
    widths = hi - lo
    mids = (lo + hi) / 2.0

    def read_input(times: np.ndarray) -> np.ndarray:
        """The input at ``times`` (shared, or one row per fiber), ``(F, k)``."""
        if not ragged:
            return u.over(times.reshape(-1), fibers)[:, :, 0]
        return np.stack([p.at(row, w)[:, 0]
                         for p, row, w in zip(u, times.reshape(len(fibers), -1), fibers)])

    a_vals = c.a.over(fibers, mids)[:, :, 0]
    increments = a_vals * widths
    value = xs * _libm(math.exp, increments.sum(axis=1))
    if first is not None:
        if not smooth:
            # u times the closed-form integral of exp(a*(width - s)) over the cell
            moving = a_vals != 0.0
            growth = np.where(moving, _libm(math.expm1, increments), widths)
            np.divide(growth, a_vals, out=growth, where=moving)
            inner = read_input(mids) * growth
        else:
            nodes = mids[..., None] + (widths[..., None] / 2.0) * _GL_NODES
            samples = read_input(nodes).reshape(a_vals.shape + _GL_NODES.shape)
            weighted = samples * np.exp(a_vals[:, :, None] * (hi[..., None] - nodes))
            dots = [float(np.dot(_GL_WEIGHTS, seg)) for seg in weighted.reshape(-1, _GL_NODES.size)]
            inner = (widths / 2.0) * np.reshape(dots, a_vals.shape)
        # exponent of the kernel from each segment's upper edge to t
        suffix = np.zeros_like(increments)
        np.cumsum(increments[:, :0:-1], axis=1, out=suffix[:, -2::-1])
        b_vals = c.b.over(fibers, mids)[:, :, 0]
        terms = b_vals * inner * _libm(math.exp, suffix)
        # a zero gain skips its segment: adding -0.0 leaves every value as is
        terms[b_vals == 0.0] = -0.0
        # one sequential sum per fiber, from the free response on
        terms[:, 0] += value
        value = terms.cumsum(axis=1)[:, -1]
    if not all(map(math.isfinite, value.tolist())):
        raise ValueError("linear flow produced a non-finite value")
    return value


def _libm(fn: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    """``fn`` applied per element, as the scalar C library computes it
    (numpy's vectorised exp can differ in the last ulp)."""
    return np.array(list(map(fn, values.ravel().tolist()))).reshape(values.shape)


def as_system(c: LinearCoeffs, label: str = "linear") -> SystemFlow:
    """Wrap the closed-form flow as a one-dimensional system, with
    :func:`solve_many` as its batched form."""

    def flow(t, w, x, u):
        return np.array([solve(c, float(t), w, float(x[0]), u)])

    def flow_many(t, ws, xs, u):
        return solve_many(c, t, ws, xs[:, 0], u)[:, None]

    return SystemFlow(
        state_dim=1, input_dim=1, time_kind="continuous", flow=flow,
        flow_many=flow_many, label=label,
    )


def integrate_coefficient(rv: RandomVariable, fiber: Fiber, t: float) -> float:
    """Exact ``integral over [0, t]`` of a cell-resolved scalar coefficient.

    Negative ``t`` integrates over ``[t, 0]`` and negates, so the result is
    additive in ``t`` across zero.
    """
    if t == 0:
        return 0.0
    if t < 0:
        return -integrate_coefficient(rv, fiber.shift(t), -t)
    lo, hi = _segments(fiber, float(t))
    # the builtin sum over Python floats, as a scalar loop would add them
    return float(sum((rv.along(fiber, (lo + hi) / 2.0)[:, 0] * (hi - lo)).tolist()))


def estimate_decay_rate(c: LinearCoeffs, probe: Fiber = Fiber(0, 0.0), cells: int = 4000) -> float:
    """Heuristic decay rate: minus the orbit mean of the drift coefficient."""
    half = cells // 2
    return -float(np.mean(c.a.along(probe, np.arange(-half, half) + 0.5)[:, 0]))


def _resolve_rate(c: LinearCoeffs, lam: float | None) -> tuple[float, bool]:
    if lam is not None:
        return float(lam), False
    if c.decay_rate_hint is not None:
        return float(c.decay_rate_hint), False
    return estimate_decay_rate(c), True


def characteristic(
    c: LinearCoeffs,
    u: RandomVariable,
    fiber: Fiber,
    tol: float = 1e-9,
    lam: float | None = None,
    max_cells: int = 100_000,
    input_cell_resolved: bool = True,
) -> float:
    """Stationary-input limit state at ``fiber``: the integral over the past
    of ``b * u`` weighted by the exponential kernel into the present.

    The integral is truncated at a horizon chosen from the decay-envelope
    rate so the analytic tail bound (running sup of ``|b*u|`` times
    ``exp(-rate*T)/rate``) stays within ``tol``; each retained cell
    contributes its closed form.  Pass ``input_cell_resolved=False`` for
    inputs that vary inside cells (e.g. another system's limit state);
    those cells integrate by Gauss-Legendre instead of the midpoint value.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    rate, heuristic = _resolve_rate(c, lam)
    if rate <= 0:
        raise ValueError(
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
            value += bu * math.exp(suffix_exp) * _growth_factor(a_k, width)
        else:
            nodes = mid + (width / 2.0) * _GL_NODES
            samples = np.array([u.scalar(fiber.shift(float(s))) for s in nodes])
            kernel = np.exp(a_k * (hi - nodes))
            inner = (width / 2.0) * float(np.dot(_GL_WEIGHTS, samples * kernel))
            bu = c.b.scalar(wmid) * float(np.max(np.abs(samples)))
            value += c.b.scalar(wmid) * inner * math.exp(suffix_exp)
        suffix_exp += a_k * width
        if suffix_exp > 700.0:
            raise ValueError(
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
        if cells_done >= max_cells:
            raise ValueError(
                "characteristic truncation did not certify within "
                f"{max_cells} cells (rate={rate}, heuristic={heuristic})"
            )
        hi = lo
        lo = hi - 1.0

    if not math.isfinite(value):
        raise ValueError("characteristic integral produced a non-finite value")
    return float(value)


@dataclass(frozen=True)
class DecayBoundReport:
    """Diagnostic for the exponential decay envelope at a given rate.

    ``gamma`` / ``gamma_reversed`` hold, per probe fiber, the smallest
    envelope constants realizing the bound on the sampled window, in
    forward and reversed orbit time.  The pass verdict compares the fitted
    drift slope against the requested rate with a Monte-Carlo allowance.
    """

    rate: float
    mean_drift: float
    slope_se: float
    suggested_rate: float
    gamma: tuple[float, ...]
    gamma_reversed: tuple[float, ...]
    envelope_temperedness: TemperednessReport
    passed: bool

    def as_dict(self) -> dict:
        return {
            "rate": self.rate,
            "mean_drift": self.mean_drift,
            "slope_se": self.slope_se,
            "suggested_rate": self.suggested_rate,
            "gamma_max": max(self.gamma),
            "gamma_reversed_max": max(self.gamma_reversed),
            "envelope_temperedness": self.envelope_temperedness.as_dict(),
            "passed": self.passed,
        }


def envelope_constant(
    c: LinearCoeffs, rate: float, horizon: int, reverse: bool = False
) -> RandomVariable:
    """Smallest per-fiber envelope constant over an integer window.

    The value at a fiber is the max over window lengths ``r`` of
    ``exp(integral of a over r steps + rate*r)``; forward windows extend
    into the future, reversed ones into the past.
    """

    def fn(w: Fiber) -> np.ndarray:
        best = 1.0  # r = 0 term
        cum = 0.0
        for r in range(1, horizon + 1):
            if reverse:
                cum += integrate_coefficient(c.a, w.shift(-r), 1.0)
            else:
                cum += integrate_coefficient(c.a, w.shift(r - 1), 1.0)
            best = max(best, math.exp(cum + rate * r))
        return np.array([best])

    return RandomVariable(1, fn, label="decay_envelope")


def check_decay_bound(
    c: LinearCoeffs,
    rate: float,
    fibers: Sequence[Fiber],
    horizon: int = 30,
    slack_sigmas: float = 3.0,
) -> DecayBoundReport:
    """Sample the exponential decay envelope hypothesis at ``rate``.

    Fits the drift slope along each probe orbit, reports the minimal
    envelope constants realizing the bound (forward and reversed), and runs
    the temperedness diagnostic on the induced envelope variable.  Passes
    when the mean slope plus ``rate`` is nonpositive within Monte-Carlo
    slack: a lower empirical mean drift than ``-rate`` supports the bound.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if not fibers:
        raise ValueError("need at least one probe fiber")

    slopes = [integrate_coefficient(c.a, w, float(horizon)) / horizon for w in fibers]
    mean_slope = float(np.mean(slopes))
    se = float(np.std(slopes) / math.sqrt(len(slopes))) if len(slopes) > 1 else 0.0

    fwd = envelope_constant(c, rate, horizon, reverse=False)
    rev = envelope_constant(c, rate, horizon, reverse=True)
    gam = tuple(fwd.scalar(w) for w in fibers)
    gam_rev = tuple(rev.scalar(w) for w in fibers)
    temper = temperedness_report(fwd, fibers[0], gammas=(0.25, 0.5, 1.0), horizon=20)

    passed = mean_slope + rate <= slack_sigmas * se + 1e-9
    return DecayBoundReport(
        rate=float(rate),
        mean_drift=mean_slope,
        slope_se=se,
        suggested_rate=-mean_slope,
        gamma=gam,
        gamma_reversed=gam_rev,
        envelope_temperedness=temper,
        passed=passed,
    )


@dataclass(frozen=True)
class BoundedFlowReport:
    """Check of the a-priori bound on the flow from bounded data."""

    drift_sup: float
    gain_sup: float
    samples: int
    violations: int
    worst_margin: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "drift_sup": self.drift_sup,
            "gain_sup": self.gain_sup,
            "samples": self.samples,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "passed": self.passed,
        }


def check_bounded_flow(
    c: LinearCoeffs,
    fibers: Sequence[Fiber],
    horizon: float = 10.0,
    samples: int = 200,
    seed: int = 0,
    x_bound: float = 1.0,
    u_bound: float = 1.0,
    flow: Callable[[float, Fiber, float, Process], float] | None = None,
    margin: float = 1e-9,
) -> BoundedFlowReport:
    """Verify ``|state| <= |x| e^{Mt} + sup|b| sup|u| (e^{Mt}-1)/M``.

    ``M`` is the largest drift value on the cells any sampled trajectory
    can traverse, so the estimate holds whenever the flow really is the
    linear one; pass a custom ``flow`` to probe a planted fault.
    """
    if flow is None:
        def flow(t, w, x, u):
            return solve(c, t, w, x, u)

    rng = np.random.default_rng(seed)
    drift_sup = -math.inf
    gain_sup = 0.0
    for w in fibers:
        for k in range(int(math.floor(w.offset)) - 1, int(math.ceil(w.offset + horizon)) + 1):
            mid = w.shift(k - w.offset + 0.5)
            drift_sup = max(drift_sup, c.a.scalar(mid))
            gain_sup = max(gain_sup, abs(c.b.scalar(mid)))

    bounded_law = CellLaw("uniform", lo=(-u_bound,), hi=(u_bound,))
    violations = 0
    worst = -math.inf
    for _ in range(samples):
        w = fibers[int(rng.integers(0, len(fibers)))]
        t = float(rng.uniform(0.0, horizon))
        x = float(rng.uniform(-x_bound, x_bound))
        if rng.integers(0, 2) == 0:
            u = constant_process([float(rng.uniform(-u_bound, u_bound))], "continuous")
        else:
            u = stationary(cell_noise(bounded_law), "continuous")
        lhs = abs(flow(t, w, x, u))
        if drift_sup == 0.0:
            convolution = t
        else:
            convolution = math.expm1(drift_sup * t) / drift_sup
        rhs = x_bound * math.exp(drift_sup * t) + gain_sup * u_bound * convolution
        gap = lhs - rhs
        worst = max(worst, gap)
        if gap > margin:
            violations += 1

    return BoundedFlowReport(
        drift_sup=float(drift_sup),
        gain_sup=float(gain_sup),
        samples=samples,
        violations=violations,
        worst_margin=float(worst),
        passed=violations == 0,
    )
