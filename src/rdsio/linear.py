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
from typing import Iterator, Optional

import numpy as np

from .mpds import (Fiber, Fibers, RandomVariable, TemperednessReport, UnboundedSampleError,
                   _points, fiberwise, temperedness_report)
from .process import InputTable, Process
from .rdsi import _INPUT_FORMS, SystemFlow

__all__ = [
    "LinearCoeffs",
    "solve",
    "solve_many",
    "as_system",
    "characteristic",
    "estimate_decay_rate",
    "check_decay_bound",
    "DecayBoundReport",
    "DivergenceError",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)

# cells after which an uncertified characteristic truncation gives up
_MAX_CELLS = 100_000


class DivergenceError(ValueError):
    """The stationary-input limit cannot be computed along a fiber: the
    decay rate is not positive, the drift exponent grows without bound, or
    the truncation does not certify."""


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


def _grid(offsets, times, extra) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition of each row's ``[0, t]`` at the cell boundaries of its
    fiber offset and at its splice times: ``(R, W)`` segment lower and
    upper edges and the ``(R,)`` count of each row's segments.

    ``extra`` holds the splice times, ``(R, E)``, padded with NaN.  A cell
    boundary ``k`` sits at ``k - o``; the points kept are those in
    ``0 < s < t``, with ``0`` and ``t``, sorted and without repeats.  A row
    with fewer than ``W`` segments is padded with zero-width segments at
    ``t``.
    """
    o = np.asarray(offsets, dtype=float)[:, None]
    t = np.asarray(times, dtype=float)[:, None]
    k_lo = np.floor(o) + 1.0
    span = np.ceil(o + t) - k_lo
    steps = np.arange(max(0, int(span.max(initial=0.0))))
    points = np.concatenate([np.zeros_like(t), t, (k_lo + steps) - o, extra], axis=1)
    inner = points[:, 2:]
    # only k < ceil(o + t): a rounded o + t can put the next k - o below t
    inner[:, :steps.size][steps >= span] = np.nan
    inner[~((0.0 < inner) & (inner < t))] = np.nan
    points.sort(axis=1)
    points[:, 1:][points[:, 1:] == points[:, :-1]] = np.nan
    points.sort(axis=1)
    gap = np.isnan(points)
    edges = points.shape[1] - gap.sum(axis=1)
    width = edges.max(initial=1)
    # the kept columns as their own array, so that the untrimmed one is freed
    points = points[:, :width].copy()
    np.copyto(points, t, where=gap[:, :width])
    return points[:, :-1], points[:, 1:], edges - 1


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
    return float(solve_many(c, t, Fibers([fiber.seed], [fiber.offset]), [x], u)[0])


def solve_many(
    c: LinearCoeffs,
    t,
    fibers: Fibers,
    xs,
    u: Process | None | InputTable = None,
) -> np.ndarray:
    """:func:`solve` at every fiber, from the matching entry of ``xs``.

    ``t`` is one time for every fiber or a sequence of one time per fiber,
    and ``u`` one input (or None) for every fiber, or an
    :class:`InputTable` of one row per fiber.  All segment grids of a call
    are built in one :func:`_grid`: without a table, the fibers that share
    an (offset, time) pair share a grid row, and those that also share a
    seed word a group, solved once but for the free response
    (:func:`_groups`); a table row is a group of its own, its grid cut at
    its splice times.  The groups, sorted by segment count, are solved in
    chunks (:func:`_chunks`).  Each entry is bit-identical to the
    one-fiber :func:`solve`.
    """
    xs = np.asarray(xs, dtype=float).reshape(len(fibers))
    if not (u is None or isinstance(u, (Process, InputTable))):
        raise ValueError(f"the input must be {_INPUT_FORMS}, got {type(u).__name__}")
    table = isinstance(u, InputTable)
    times = np.array(t, dtype=float) if np.ndim(t) else np.full(len(fibers), float(t))
    if times.shape != (len(fibers),) or (table and len(u) != len(fibers)):
        raise ValueError("need one time and one input per fiber")
    if not np.isfinite(times).all():
        raise ValueError(f"flow times t must be finite, got {times[~np.isfinite(times)][0]}")
    if (times < 0).any():
        raise ValueError("flows are defined for t >= 0")
    if u is not None and u.dim != 1:
        raise ValueError(f"input must be scalar, got dimension {u.dim}")
    # the input kind: None for no input, else whether it is piecewise constant
    kind = None if u is None else table or u.piecewise_constant
    out = xs.copy()
    live = np.flatnonzero(times != 0)
    if table:
        # each row a group and a grid row of its own
        rows, grid, sizes = live, np.arange(live.size), np.ones(live.size, dtype=np.int64)
        offsets, spans = fibers.offsets[live], times[live]
        extra = u[live].breakpoints(0.0, spans)
    else:
        rows, grid, sizes, offsets, spans = _groups(fibers, times, live)
        extra = np.empty((offsets.size, 0))
    lo, hi, counts = _grid(offsets, spans, extra)
    del extra
    # the groups by segment count, and their rows, each group's together
    order = np.argsort(counts[grid], kind="stable")
    rows = rows[np.argsort(np.repeat(counts[grid], sizes), kind="stable")]
    grid, sizes = grid[order], sizes[order]
    done = 0
    for part in _chunks(counts[grid], sizes, kind):
        g, n = grid[part], sizes[part]
        sel = rows[done:done + int(n.sum())]
        done += sel.size
        lead = sel if sel.size == n.size else sel[np.cumsum(n) - n]  # a group's first row
        width = int(counts[g[-1]])
        out[sel] = _solve_group(c, lo[g, :width], hi[g, :width], fibers[lead], xs[sel],
                                u[sel] if table else u, kind, counts[g], n)
    return out


def _groups(fibers: Fibers, times: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ``live`` rows sorted by (time, offset, seed word), the grid row
    and the row count of each group of rows equal in all three, and the
    offset and time of each grid row (0.0 and -0.0 are one offset, 0.0)."""
    live = live[np.lexsort((fibers.words[live], fibers.offsets[live], times[live]))]
    offsets, spans, words = fibers.offsets[live] + 0.0, times[live], fibers.words[live]
    pair = np.ones(live.size, dtype=bool)
    pair[1:] = (offsets[1:] != offsets[:-1]) | (spans[1:] != spans[:-1])
    group = pair.copy()
    group[1:] |= words[1:] != words[:-1]
    first = np.flatnonzero(group)
    return (live, np.cumsum(pair)[first] - 1, np.diff(first, append=live.size),
            offsets[pair], spans[pair])


# values per chunk of one array of a solve (bounds its memory: a
# quadrature-node chunk holds about eight such arrays at once)
_CHUNK_VALUES = 1 << 14


def _chunks(counts: np.ndarray, sizes: np.ndarray, kind: bool | None) -> Iterator[np.ndarray]:
    """Runs of consecutive group indices into the non-decreasing segment
    ``counts``, each of at most ``_CHUNK_VALUES`` values padded to its
    widest group, or of one group: per segment, a group of ``sizes`` rows
    takes its rows or its quadrature nodes, whichever are more."""
    per_segment = _GL_NODES.size if kind is False else 1
    start = 0
    while start < counts.size:
        fit = max(1, _CHUNK_VALUES // max(1, int(counts[start]) * per_segment))
        window = counts[start:start + fit]
        padded = np.cumsum(np.maximum(sizes[start:start + fit], per_segment)) * window
        stop = start + max(1, int(np.searchsorted(padded, _CHUNK_VALUES, side="right")))
        yield np.arange(start, stop)
        start = stop


@np.errstate(over="ignore", invalid="ignore")
def _solve_group(c: LinearCoeffs, lo: np.ndarray, hi: np.ndarray, fibers: Fibers,
                 xs: np.ndarray, u: Process | None | InputTable, kind: bool | None,
                 counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The flow over segments ``[lo, hi)`` on groups solved together,
    under the scalar input ``u`` of ``kind``: None for no input, else
    whether it is piecewise constant.

    The grid and ``fibers`` hold one row per group, and ``xs`` the next
    ``sizes[g]`` states for group ``g``.  The first ``counts`` segments of
    a group's grid are real, and the rest zero-width pads.  The
    coefficients are read at all segment midpoints in one batched call
    each, and the inputs at all midpoints (or quadrature nodes) in one
    ``u.over``, a process's and a table's read alike; only the free
    response is computed per row.
    Every exponential is numpy's elementwise kernel, whose result for an
    element does not depend on where it is read, and each row
    accumulates its segments sequentially, so every row is bit-identical
    to the one-fiber solve: the free-response exponent is a pairwise sum
    whose rounding depends on the row length, so it is summed over each
    group's real segments, and a pad adds ``+0.0`` to every suffix exponent
    and ``-0.0`` to the sum of terms, which leaves both as they are.  An
    overflow gives ``inf``, and a non-finite flow raises
    :class:`~rdsio.mpds.UnboundedSampleError`.
    """
    widths = hi - lo
    mids = (lo + hi) / 2.0

    def read_input(times: np.ndarray) -> np.ndarray:
        """The input at ``times``, one row per group, ``(G, k)``."""
        return u.over(fibers, times.reshape(len(fibers), -1))[:, :, 0]

    def spread(values: np.ndarray) -> np.ndarray:  # once per row of each group
        return values if sizes.size == xs.size else np.repeat(values, sizes, axis=0)

    a_vals = c.a.over(fibers, mids)[:, :, 0]
    increments = a_vals * widths
    pad = np.arange(lo.shape[-1]) >= counts[:, None]
    increments[pad] = 0.0
    exponent = np.empty(len(fibers))
    for n in set(counts.tolist()):
        rows = counts == n
        exponent[rows] = increments[rows, :n].sum(axis=1)
    value = xs * spread(np.exp(exponent))
    if kind is not None:
        if kind:  # piecewise constant: closed form per segment
            terms = read_input(mids) * _growth(a_vals, increments, widths)
        else:
            # Gauss-Legendre over each segment of the input times the kernel
            # exp(a*(hi - s)), the weighted node values added in node order:
            # IEEE multiplies and adds only, so a segment's sum does not
            # depend on its batch (a BLAS dot adds in its own order)
            nodes = mids[..., None] + (widths[..., None] / 2.0) * _GL_NODES
            samples = read_input(nodes).reshape(a_vals.shape + _GL_NODES.shape)
            weighted = samples * np.exp(a_vals[..., None] * (hi[..., None] - nodes)) * _GL_WEIGHTS
            terms = (widths / 2.0) * weighted.cumsum(axis=-1)[..., -1]
        b_vals = c.b.over(fibers, mids)[:, :, 0]
        # the kernel from each segment's upper edge to t, its exponent
        # first; the terms b * input * kernel are multiplied in place
        kernel = np.zeros_like(increments)
        np.cumsum(increments[:, :0:-1], axis=1, out=kernel[:, -2::-1])
        terms *= b_vals
        terms *= np.exp(kernel, out=kernel)
        # a zero gain skips its segment: adding -0.0 leaves every value as is
        terms[b_vals == 0.0] = -0.0
        terms[pad] = -0.0
        # one sequential sum per row, from the free response on
        terms = spread(terms)
        terms[:, 0] += value
        value = terms.cumsum(axis=1)[:, -1]
    if not np.isfinite(value).all():
        raise UnboundedSampleError("linear flow produced a non-finite value")
    return value


def _growth(a_vals: np.ndarray, increments: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The closed-form integral of ``exp(a*(width - s))`` over each cell:
    ``expm1(a*width)/a``, or the width where ``a`` is zero.  Where
    ``expm1`` overflows, the growth is infinite; the caller ignores
    numpy's overflow flag.  A zero-width pad grows by ``expm1(0.0) / a``,
    which is ``+-0.0``."""
    moving = a_vals != 0.0
    growth = np.expm1(increments)
    np.copyto(growth, widths, where=~moving)
    np.divide(growth, a_vals, out=growth, where=moving)
    return growth


def as_system(c: LinearCoeffs) -> SystemFlow:
    """Wrap the closed-form flow as a one-dimensional system whose flow is
    :func:`solve_many`."""

    def flow(t, ws: Fibers, xs: np.ndarray, u) -> np.ndarray:
        return solve_many(c, t, ws, xs[:, 0], u)[:, None]

    return SystemFlow(state_dim=1, input_dim=1, time_kind="continuous", flow=flow)


def _integrals(rv: RandomVariable, fibers: Fibers, t) -> np.ndarray:
    """The exact integral over ``[0, t]`` of the cell-resolved scalar
    coefficient ``rv`` at each fiber, ``(F,)``, for one ``t >= 0`` or one
    per fiber: the coefficient read at every
    segment midpoint of :func:`_grid` in one call, and each fiber's segments
    added in order from ``0.0``; a zero-width pad adds ``+0.0``."""
    lo, hi, counts = _grid(fibers.offsets, np.broadcast_to(t, (len(fibers),)),
                           np.empty((len(fibers), 0)))
    terms = rv.over(fibers, (lo + hi) / 2.0)[:, :, 0] * (hi - lo)
    terms[np.arange(lo.shape[1]) >= counts[:, None]] = 0.0
    return np.concatenate([np.zeros((len(fibers), 1)), terms], axis=1).cumsum(axis=1)[:, -1]


def estimate_decay_rate(c: LinearCoeffs) -> float:
    """Heuristic decay rate: minus the mean of the drift coefficient over
    the 4,000 cells around time zero of the orbit of seed 0 at offset 0.0."""
    return -float(np.mean(c.a.over(Fibers([0], [0.0]), np.arange(-2000, 2000) + 0.5)[0, :, 0]))


def _resolve_rate(c: LinearCoeffs, lam: float | None) -> tuple[float, bool]:
    if lam is not None:
        return float(lam), False
    if c.decay_rate_hint is not None:
        return float(c.decay_rate_hint), False
    return estimate_decay_rate(c), True


# values per array of one characteristic round (bounds its memory)
_ROUND_VALUES = 1 << 16

# drift exponent past which a characteristic integral counts as divergent
_MAX_EXPONENT = 700.0


def characteristic(
    c: LinearCoeffs,
    u: RandomVariable,
    fibers: Fibers,
    tol: float = 1e-9,
    lam: float | None = None,
) -> np.ndarray:
    """Stationary-input limit state at each fiber, ``(F,)``: the integral
    over the past of ``b * u`` weighted by the exponential kernel into the
    present.

    Each integral is truncated at a horizon chosen from the decay-envelope
    rate so the analytic tail bound (running sup of ``|b*u|`` times
    ``exp(-rate*T)/rate``) and the realized one (with the drift's own
    exponent) stay within ``tol``; each retained cell contributes its
    closed form, so ``u``, like the coefficients, must be cell-resolved.

    The fibers not yet certified are read in rounds, with one ``over`` of
    each of ``a``, ``b`` and ``u`` on a grid of their next cells.  A round
    takes a fiber to the depth its running sup already requires, which
    every truncation reaches, or, past that depth, doubles the depth read.
    Cells accumulate in order, and every exponential and logarithm is
    numpy's elementwise kernel, so each entry is bit-identical to
    truncating its fiber alone, one cell at a time.
    Raises :class:`DivergenceError` where a limit cannot be computed, and
    :class:`~rdsio.mpds.UnboundedSampleError` where it is not finite: the
    error of the first such fiber.
    """
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
    if tol * rate == 0.0:
        raise DivergenceError(
            f"tolerance {tol} times decay rate {rate} underflows to zero, "
            "so no truncation depth certifies"
        )
    log_floor = np.log(tol * rate)
    count = len(fibers)
    out = np.zeros(count)
    errors: dict[int, Exception] = {}
    # per fiber: the next cell's upper and lower edge, then the drift
    # exponent, value and sup of |b*u| over the cells read, their count,
    # and the depth that sup requires
    offsets = fibers.offsets.astype(float)
    hi = np.zeros(count)
    lo = np.floor(offsets) - offsets
    lo[lo == 0.0] = -1.0
    exponent, value, sup = np.zeros(count), np.zeros(count), np.zeros(count)
    done = np.zeros(count, dtype=np.int64)
    required = np.ones(count)

    def advance(rows: np.ndarray, m: int) -> np.ndarray:
        """Read the next ``m`` cells of the fibers ``rows``; record the
        value or error of each fiber that ends among them, and return the
        rows that go on."""
        ws = fibers[rows]
        steps = np.full((rows.size, m), -1.0)
        steps[:, 0] = lo[rows]
        lows = np.cumsum(steps, axis=1)
        highs = np.concatenate([hi[rows, None], lows[:, :-1]], axis=1)
        widths = highs - lows
        mids = (lows + highs) / 2.0
        a_vals = c.a.over(ws, mids)[:, :, 0]
        b_vals = c.b.over(ws, mids)[:, :, 0]
        increments = a_vals * widths
        # drift exponent before each cell (columns :m) and after it (1:);
        # cells past an exponent above the bound are never used, so the
        # kernel is clipped there instead of overflowing
        drift = np.concatenate([exponent[rows, None], increments], axis=1).cumsum(axis=1)
        kernel = np.exp(np.minimum(drift, _MAX_EXPONENT))
        bu = b_vals * u.over(ws, mids)[:, :, 0]
        terms = bu * kernel[:, :m] * _growth(a_vals, increments, widths)
        sums = np.concatenate([value[rows, None], terms], axis=1).cumsum(axis=1)
        # the running sup as the builtin max folds it from 0.0: NaN never wins
        sups = np.fmax.accumulate(np.concatenate([sup[rows, None], np.abs(bu)], axis=1),
                                  axis=1)[:, 1:]
        depth = -lows
        req = np.ones_like(sups)
        held = sups != 0.0
        req[held] = np.ceil((np.log(sups[held]) - log_floor) / rate)
        # the tail bounds are read only where the depth already suffices
        stop = depth >= req
        at = np.nonzero(stop)
        stop[at] = ((sups[at] * np.exp(-rate * depth[at]) / rate <= tol)
                    & (sups[at] * kernel[:, 1:][at] / rate <= tol))
        diverged = drift[:, 1:] > _MAX_EXPONENT
        overflow = sups == math.inf
        capped = done[rows, None] + np.arange(1, m + 1) >= _MAX_CELLS
        event = diverged | overflow | stop | capped
        ended = event.any(axis=1)
        # each fiber's first event, in the order one cell checks them
        r = np.flatnonzero(ended)
        k = event[r].argmax(axis=1)
        final = sums[r, k + 1]
        certified = stop[r, k] & ~diverged[r, k] & ~overflow[r, k] & np.isfinite(final)
        out[rows[r[certified]]] = final[certified]
        for j in np.flatnonzero(~certified).tolist():
            i, kj = int(rows[r[j]]), (r[j], k[j])
            if diverged[kj]:
                errors[i] = DivergenceError(
                    "characteristic integral diverges along this fiber "
                    "(accumulated drift exponent grows without bound)"
                )
            elif overflow[kj] or stop[kj]:
                errors[i] = UnboundedSampleError(
                    "characteristic integral produced a non-finite value")
            else:
                errors[i] = DivergenceError(
                    "characteristic truncation did not certify within "
                    f"{_MAX_CELLS} cells (rate={rate}, heuristic={heuristic})"
                )
        go = ~ended
        rest = rows[go]
        hi[rest] = lows[go, -1]
        lo[rest] = lows[go, -1] - 1.0
        exponent[rest] = drift[go, -1]
        value[rest] = sums[go, -1]
        sup[rest] = sups[go, -1]
        required[rest] = req[go, -1]
        done[rest] += m
        return rest

    pending = np.arange(count)
    with np.errstate(over="ignore", invalid="ignore"):
        while pending.size:
            # the last cell read has depth -lo - 1: cells to the required
            # depth, else (past it) as many as read so far
            reach = np.ceil(required[pending] + lo[pending]) + 1.0
            want = np.where(reach >= 1.0, reach, done[pending])
            want = np.clip(want, 1, np.minimum(_MAX_CELLS - done[pending],
                                               _ROUND_VALUES)).astype(np.int64)
            # a round reads about _ROUND_VALUES values, for the first
            # fibers first: a fiber that fails makes every later one moot
            take = max(1, int(np.searchsorted(np.cumsum(want), _ROUND_VALUES, side="right")))
            rows, want = pending[:take], want[:take]
            later = [pending[take:]]
            while rows.size:
                # fibers that want more than half of the most cells wanted
                m = int(want.max())
                part = 2 * want > m
                later.append(advance(rows[part], m))
                rows, want = rows[~part], want[~part]
            pending = np.sort(np.concatenate(later))
            if errors:
                pending = pending[pending < min(errors)]
    if errors:
        raise errors[min(errors)]
    return out


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
    into the future, reversed ones into the past.  The unit steps of all
    fibers read are integrated in one batched read, and each fiber's add
    up in window order, as :func:`_integrals` step by step.
    """
    shifts = -np.arange(1, horizon + 1) if reverse else np.arange(horizon)
    growth = rate * np.arange(1, horizon + 1)

    def values(ws: Fibers) -> np.ndarray:
        fiber, t = _points(shifts, len(ws))
        steps = _integrals(c.a, ws[fiber].shift(t), 1.0)
        cum = np.concatenate([np.zeros((len(ws), 1)), steps.reshape(len(ws), horizon)], axis=1)
        exponents = cum.cumsum(axis=1)[:, 1:] + growth
        # the builtin max from 1.0 (the r = 0 term): NaN never wins
        with np.errstate(over="ignore"):
            return np.fmax.reduce(np.exp(exponents), axis=1, initial=1.0)

    return fiberwise(1, values)


def check_decay_bound(
    c: LinearCoeffs,
    rate: float,
    fibers: Fibers,
    horizon: int = 30,
) -> DecayBoundReport:
    """Sample the exponential decay envelope hypothesis at ``rate``.

    Fits the drift slope along each probe orbit, reports the minimal
    envelope constants realizing the bound (forward and reversed), and runs
    the temperedness diagnostic on the induced envelope variable.  Passes
    when the mean slope plus ``rate`` is nonpositive within three standard
    errors: a lower empirical mean drift than ``-rate`` supports the bound.
    Needs at least three probe fibers: with one the standard error is 0,
    and with two the spread it rests on is all but unmeasured.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if len(fibers) < 3:
        raise ValueError(f"need at least three probe fibers, got {len(fibers)}")

    slopes = _integrals(c.a, fibers, float(horizon)) / horizon
    mean_slope = float(np.mean(slopes))
    se = float(np.std(slopes) / math.sqrt(len(slopes)))

    fwd = envelope_constant(c, rate, horizon, reverse=False)
    rev = envelope_constant(c, rate, horizon, reverse=True)
    gam = tuple(fwd.across(fibers)[:, 0].tolist())
    gam_rev = tuple(rev.across(fibers)[:, 0].tolist())
    temper = temperedness_report(fwd, fibers[:1])

    passed = mean_slope + rate <= 3.0 * se + 1e-9
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
