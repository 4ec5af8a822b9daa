"""Cascade and feedback interconnections, and the small-gain iteration.

A cascade feeds one system's forward output trajectory in as the next
system's input; on product state space this is again a single flow, whose
one-step map acts triangularly.  A feedback loop closes two systems over
each other's outputs; the interleaved one-step recursion always resolves
the loop signals, so well-posedness is constructive.  Both take discrete
generator-driven systems only.  A system's input-to-state characteristic
is its pullback limit under a frozen input, certified row by row; the
small-gain check tabulates the loop's composed output characteristic on
the probe fibers, iterates it per fiber and classifies the outcome:
geometric convergence to a unique fixed point, or a period-two pair (gain
too large).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .mpds import Fibers, RandomVariable, _over_points, _points
from .process import InputTable, Process
from .discrete import Generator, _step_rows, flow_from_generator
from .linear import DivergenceError
from .rdsi import OutputMap, SystemFlow, _fold_max

__all__ = [
    "Cascade",
    "FeedbackLoop",
    "CascadeCheckReport",
    "SmallGainReport",
    "cascade",
    "verify_cascade_forward",
    "verify_cascade_pullback",
    "feedback",
    "verify_feedback",
    "characteristic",
    "loop_pair",
    "loop_gain",
    "grid_characteristic_map",
    "small_gain_iterate",
]


@dataclass(frozen=True)
class Cascade:
    """Upstream system + readout feeding a downstream system's input."""

    up: SystemFlow
    up_output: OutputMap
    down: SystemFlow
    combined: SystemFlow

    @property
    def split(self) -> int:
        return self.up.state_dim


def _noise(parts: Sequence) -> tuple[tuple, Callable]:
    """The cell laws of a composite step, those of its ``parts`` (steps
    and readouts) one after another, and ``cut(cells)``: each part's
    columns of the composite's cells, which must be as wide as its laws."""
    ends = np.cumsum([0] + [sum(law.dim for law in part.noise) for part in parts]).tolist()

    def cut(cells: np.ndarray) -> list[np.ndarray]:
        if np.shape(cells)[1:] != (ends[-1],):
            raise ValueError(f"the step reads {ends[-1]} noise values per row, "
                             f"got cells of shape {np.shape(cells)}")
        return [cells[:, lo:hi] for lo, hi in zip(ends, ends[1:])]

    return sum((part.noise for part in parts), ()), cut


def cascade(up: SystemFlow, up_output: OutputMap, down: SystemFlow) -> Cascade:
    """Interconnect two discrete generator-driven systems in series on the
    product state space.

    The combined flow's first block is the upstream flow; the second block
    is the downstream flow driven by the upstream forward output
    trajectory started from the first block of the initial state.  The
    combined flow is built from the triangular one-step map, which makes
    the serial decomposition a checkable identity rather than a
    definition.  Its step declares the laws of the upstream step, the
    readout and the downstream step, in that order, and gives each part
    its own columns of the cells; cells of another width raise.
    """
    if down.input_dim != up_output.dim:
        raise ValueError(
            f"downstream input dimension {down.input_dim} does not match "
            f"upstream output dimension {up_output.dim}"
        )
    if up.generator is None or down.generator is None:
        raise ValueError("cascade is built for discrete generator-driven systems only")
    n1, n2 = up.state_dim, down.state_dim
    f1, f2, h1 = up.generator.fn, down.generator.fn, up_output.fn
    noise, cut = _noise((up.generator, up_output, down.generator))

    def g_fn(seeds, offsets: np.ndarray, zs: np.ndarray, values: np.ndarray,
             cells: np.ndarray) -> np.ndarray:
        x1, x2 = zs[:, :n1], zs[:, n1:]
        c1, ch, c2 = cut(cells)
        y1 = h1(seeds, offsets, x1, ch)
        return np.concatenate([f1(seeds, offsets, x1, values, c1),
                               f2(seeds, offsets, x2, y1, c2)], axis=1)

    combined = flow_from_generator(Generator(n1 + n2, up.input_dim, g_fn, noise))
    return Cascade(up=up, up_output=up_output, down=down, combined=combined)


@dataclass(frozen=True)
class CascadeCheckReport:
    max_residual: float
    samples: int
    passed: bool


# states that one block of whole initial states records in its scans, and
# input values that one block of characteristic rows reads, at most
_BLOCK_ENTRIES = 1 << 16


def _exact_check(residuals: Callable[..., np.ndarray], zs: Sequence[RandomVariable],
                 times: Sequence[int], fibers: Fibers,
                 rewind: bool) -> CascadeCheckReport:
    """The largest of ``residuals(ts, starts, states)`` (NaN if any is) vs
    zero, over one row per (state, fiber, time), in that order: its time,
    its start fiber (rewound by the time when ``rewind``) and the state's
    value there, in blocks of whole states of at most ``_BLOCK_ENTRIES``
    recorded states or one state.  An empty grid proves nothing: refused."""
    if len(times) == 0 or len(fibers) == 0:
        raise ValueError("need at least one time and one fiber to check")
    if not zs:
        raise ValueError("need at least one initial state to check")
    if min(times) < 0:
        raise ValueError("flows are defined for t >= 0")
    fiber, ts = _points(np.asarray(times), len(fibers))
    starts = fibers[fiber].shift(-ts if rewind else 0)
    per_block = max(1, _BLOCK_ENTRIES // (len(starts) * (max(times) + 1)))
    worst = 0.0
    for lo in range(0, len(zs), per_block):
        block = zs[lo:lo + per_block]
        states = np.concatenate([z.across(starts) for z in block])
        rows = np.tile(np.arange(len(starts)), len(block))
        worst = _fold_max(worst, residuals(ts[rows], starts[rows], states))
    return CascadeCheckReport(max_residual=worst, samples=len(zs) * len(starts),
                              passed=worst <= 0.0)


def _scan(sys: SystemFlow, ts: np.ndarray, starts: Fibers, xs: np.ndarray,
          u: Optional[Process]) -> np.ndarray:
    """Row ``r`` of ``sys`` on ``starts[r]`` from ``xs[r]`` under ``u``, at
    times ``0 .. ts[r]`` and held at ``ts[r]`` after: ``(R, T + 1, n)`` for
    the largest time ``T``, from one scan of all rows."""
    grid = np.minimum(np.arange(ts.max() + 1), ts[:, None])
    return _step_rows(sys.generator, grid, starts, xs, u)


def _driven(sys: SystemFlow, h: OutputMap, ts: np.ndarray, starts: Fibers,
            xs: np.ndarray, scanned: np.ndarray) -> np.ndarray:
    """Row ``r`` of ``sys`` at ``ts[r]`` from ``xs[r]``, driven by what
    ``h`` reads off the row's ``scanned`` states at steps ``0 .. T - 1``."""
    steps = scanned.shape[1] - 1
    drive = h.over(starts, np.arange(steps), scanned[:, :steps])
    return _step_rows(sys.generator, ts[:, None], starts, xs, drive)[:, 0]


def _scaled_gaps(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Per row, ``max |lhs - rhs|`` relative to ``1 + max |rhs|``."""
    return np.max(np.abs(lhs - rhs), axis=1) / (1.0 + np.max(np.abs(rhs), axis=1))


def verify_cascade_forward(
    c: Cascade,
    zs: Sequence[RandomVariable],
    times: Sequence[int],
    fibers: Fibers,
    u: Optional[Process] = None,
) -> CascadeCheckReport:
    """Serial decomposition of the combined forward flow.

    Compares the combined flow against the pair (upstream flow, downstream
    flow driven by the upstream output trajectory of the random initial
    state), at every time and fiber of the grid, for each random initial
    state of ``zs``; exact for a discrete generator-driven cascade, the
    only kind it takes.  Per block of rows, the combined flow is one
    batched flow (:meth:`SystemFlow.many`) and the upstream one scan of
    all rows, whose readouts drive the downstream rows.
    """
    n1 = c.split

    def gaps(ts, starts, states):
        ups = _scan(c.up, ts, starts, states[:, :n1], u)
        downs = _driven(c.down, c.up_output, ts, starts, states[:, n1:], ups)
        rhs = np.concatenate([ups[np.arange(len(ts)), ts], downs], axis=1)
        return _scaled_gaps(c.combined.many(ts, starts, states, u), rhs)

    return _exact_check(gaps, zs, times, fibers, rewind=False)


def verify_cascade_pullback(
    c: Cascade,
    zs: Sequence[RandomVariable],
    times: Sequence[int],
    fibers: Fibers,
) -> CascadeCheckReport:
    """Downstream block of the combined pullback vs. the driven pullback.

    The projected pullback of the combined system must equal the
    downstream pullback driven by the *unshifted* upstream forward output
    trajectory; exact in discrete time.  Checked at every time and fiber
    of the grid for each random initial state of ``zs``, batched as in
    :func:`verify_cascade_forward` from the rewound start fibers.
    """
    n1 = c.split

    def gaps(ts, starts, states):
        ups = _scan(c.up, ts, starts, states[:, :n1], None)
        rhs = _driven(c.down, c.up_output, ts, starts, states[:, n1:], ups)
        return _scaled_gaps(c.combined.many(ts, starts, states)[:, n1:], rhs)

    return _exact_check(gaps, zs, times, fibers, rewind=True)


# --------------------------------------------------------------------------
# feedback


@dataclass(frozen=True)
class FeedbackLoop:
    """Two systems closed over each other's outputs.

    The closed flow lives on the product state space and advances by the
    interleaved recursion: at each step the loop signals are read off the
    current states through the output maps, then both states advance one
    step under those frozen signals.
    """

    sys1: SystemFlow
    out1: OutputMap
    sys2: SystemFlow
    out2: OutputMap
    closed: SystemFlow

    @property
    def split(self) -> int:
        return self.sys1.state_dim


def feedback(
    sys1: SystemFlow, out1: OutputMap, sys2: SystemFlow, out2: OutputMap
) -> FeedbackLoop:
    """Close two discrete generator-driven systems over each other.

    Requires matching channel dimensions (each system's input space is the
    other's output space).  Discrete loops are always well-posed: the
    one-step construction produces the unique loop signals.  The closed
    step declares the laws of the first step, the first readout, the
    second step and the second readout, in that order, and gives each part
    its own columns of the cells; cells of another width raise.
    """
    if sys1.generator is None or sys2.generator is None:
        raise ValueError("feedback is built for discrete generator-driven systems only")
    if sys1.input_dim != out2.dim:
        raise ValueError("first system's input dimension must match the second's output")
    if sys2.input_dim != out1.dim:
        raise ValueError("second system's input dimension must match the first's output")
    f1, f2, h1, h2 = sys1.generator.fn, sys2.generator.fn, out1.fn, out2.fn
    noise, cut = _noise((sys1.generator, out1, sys2.generator, out2))
    n1 = sys1.state_dim

    def g_fn(seeds, offsets: np.ndarray, zs: np.ndarray, _values: np.ndarray,
             cells: np.ndarray) -> np.ndarray:
        x1, x2 = zs[:, :n1], zs[:, n1:]
        c1, ch1, c2, ch2 = cut(cells)
        nu = h1(seeds, offsets, x1, ch1)
        mu = h2(seeds, offsets, x2, ch2)
        return np.concatenate([f1(seeds, offsets, x1, mu, c1), f2(seeds, offsets, x2, nu, c2)],
                              axis=1)

    closed = flow_from_generator(Generator(n1 + sys2.state_dim, 0, g_fn, noise))
    return FeedbackLoop(sys1=sys1, out1=out1, sys2=sys2, out2=out2, closed=closed)


def verify_feedback(
    loop: FeedbackLoop,
    zs: Sequence[RandomVariable],
    times: Sequence[int],
    fibers: Fibers,
) -> CascadeCheckReport:
    """Check the loop equations at every time and fiber of the grid, for
    each random initial state of ``zs``: each signal equals the readout of
    its system driven by the other signal.  Exact in discrete time.  Per
    block of rows, the closed loop is one scan of all rows; its readouts
    are the loop signals, under which each system steps the same rows."""
    n1 = loop.split

    def gaps(ts, starts, states):
        traj = _scan(loop.closed, ts, starts, states, None)
        closed = traj[np.arange(len(ts)), ts]
        x1 = _driven(loop.sys1, loop.out2, ts, starts, states[:, :n1], traj[..., n1:])
        x2 = _driven(loop.sys2, loop.out1, ts, starts, states[:, n1:], traj[..., :n1])
        advanced = starts.shift(ts)
        gap1 = loop.out1.many(advanced, closed[:, :n1]) - loop.out1.many(advanced, x1)
        gap2 = loop.out2.many(advanced, closed[:, n1:]) - loop.out2.many(advanced, x2)
        return np.maximum(np.max(np.abs(gap1), axis=1), np.max(np.abs(gap2), axis=1))

    return _exact_check(gaps, zs, times, fibers, rewind=False)


# --------------------------------------------------------------------------
# small gain


# the deepest pullback a characteristic row is read at
_MAX_DEPTH = 2048


def characteristic(sys: SystemFlow, fibers: Fibers, values,
                   tol: float) -> np.ndarray:
    """The input-to-state characteristic of a discrete generator-driven
    system, one row per fiber and frozen input: row ``r`` is the pullback
    limit from state zero at ``fibers[r]`` under the constant input
    ``values[r]``, ``(R, state_dim)``.

    Each row is read at depths 1, 2, 4, ... (:meth:`SystemFlow.many` from
    its fiber rewound by the depth, under a table of constant rows) and
    takes its value at the first depth that moves it by at most ``tol``
    in every component.  The rows not yet certified are read together, in
    blocks of at most ``_BLOCK_ENTRIES`` input values or one row, so a
    row's value depends only on its own fiber and input.  A row not
    certified by depth ``_MAX_DEPTH`` raises :class:`DivergenceError` as
    soon as its block is read there.
    """
    if not sys.is_discrete:
        raise ValueError("the characteristic is read off discrete systems only")
    values = np.asarray(values, dtype=float).reshape(len(fibers), sys.input_dim)
    out = np.empty((len(fibers), sys.state_dim))
    live, last, depth = np.arange(len(fibers)), None, 1
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging row is refused below
        while len(live):
            per_block = max(1, _BLOCK_ENTRIES // depth)
            now = np.empty((len(live), sys.state_dim))
            done = np.zeros(len(live), dtype=bool)
            for start in range(0, len(live), per_block):
                block = slice(start, start + per_block)
                rows = live[block]
                now[block] = sys.many(depth, fibers[rows].shift(-depth),
                                      np.zeros((len(rows), sys.state_dim)),
                                      InputTable.constants(values[rows], "discrete"))
                if last is not None:
                    done[block] = np.max(np.abs(now[block] - last[block]), axis=1) <= tol
                if 2 * depth > _MAX_DEPTH and not done[block].all():
                    # the last depth: refuse at the first block left uncertified
                    r = int(rows[~done[block]][0])
                    raise DivergenceError(
                        f"the pullback at fiber {fibers[r]} under input {values[r].tolist()} "
                        f"moves by more than {tol!r} at depth {_MAX_DEPTH}")
            out[live[done]] = now[done]
            live, last, depth = live[~done], now[~done], 2 * depth
    return out


def loop_pair(loop: FeedbackLoop, fibers: Fibers, values,
              tol: float) -> np.ndarray:
    """The closed loop's equilibrium state on each row, read off its
    members' characteristics: the first system's under the frozen input
    ``values[r]``, then the second's under the readout of the first's;
    ``(R, state_dim)`` of the closed flow."""
    first = characteristic(loop.sys1, fibers, values, tol)
    second = characteristic(loop.sys2, fibers, loop.out1.many(fibers, first), tol)
    return np.concatenate([first, second], axis=1)


def loop_gain(loop: FeedbackLoop, tol: float) -> Callable[[Fibers, np.ndarray], np.ndarray]:
    """The composed output characteristic of a loop of scalar channels, of
    many rows at once: ``(fibers, s) -> (R,)``, the second system's
    readout of :func:`loop_pair` at the first system's input ``s[r]``."""
    def gain(fibers: Fibers, s: np.ndarray) -> np.ndarray:
        pair = loop_pair(loop, fibers, np.reshape(s, (-1, 1)), tol)
        return loop.out2.many(fibers, pair[:, loop.split:])[:, 0]

    return gain


def grid_characteristic_map(
    batch_map: Callable[[Fibers, np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    fibers: Fibers,
    points: int = 101,
) -> Callable[[np.ndarray], np.ndarray]:
    """Tabulate a per-fiber scalar map on the probe fibers.

    ``batch_map(ws, s)`` maps row ``r``'s value ``s[r]`` at fiber
    ``ws[r]``, independently of the other rows; it is read once on every
    (fiber, grid point) row of a uniform grid over ``[lo, hi]``, in blocks
    of at most ``_BLOCK_ENTRIES`` rows.  In between, the table interpolates
    linearly (exact for affine families), as :func:`numpy.interp` of each
    fiber's row; outside the grid the boundary slope extends linearly from
    the nearest end.  The lift to random variables is value-local: the
    image at a fiber depends on the argument only through its value at
    that same fiber.  So the returned map takes the ``(F,)`` values of a
    random variable at ``fibers`` to the ``(F,)`` values of its image
    there.
    """
    if points < 2:
        raise ValueError("need at least two grid points")
    if not lo < hi:
        raise ValueError(f"grid needs lo < hi, got lo={lo!r}, hi={hi!r}")
    grid = np.linspace(lo, hi, points)
    table = _over_points(grid, len(fibers), _BLOCK_ENTRIES,
                         lambda _, f, s: batch_map(fibers[f], s))
    slopes = np.diff(table, axis=1) / np.diff(grid)

    def step(values: np.ndarray) -> np.ndarray:
        s = np.asarray(values, dtype=float)
        f = np.arange(len(s))
        # j: the grid point at or below s, or the first for s below the grid;
        # the slope is j's segment's, or the last one's for s at or past hi
        j = np.clip(np.searchsorted(grid, s, side="right") - 1, 0, points - 1)
        y = table[f, j]
        return np.where(s == grid[j], y, slopes[f, np.minimum(j, points - 2)] * (s - grid[j]) + y)

    return step


@dataclass(frozen=True)
class SmallGainReport:
    """Outcome of iterating the composed output characteristic.

    ``sup_distances[k]`` is the largest per-fiber move of iterate ``k``;
    geometric decay of these distances is the small-gain signature.  When
    the iteration stalls on an alternating pair instead, the loop fails
    the small-gain condition and the period-two values are reported.
    """

    iterations: int
    sup_distances: tuple[float, ...]
    rate_estimate: float | None
    converged: bool
    period_two_detected: bool
    fixed_point_values: tuple[float, ...] | None
    period_two_values: tuple[tuple[float, float], ...] | None
    tol: float
    traces: tuple[tuple[int, float, str, int, float], ...]

    def as_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "sup_distances": list(self.sup_distances),
            "rate_estimate": self.rate_estimate,
            "converged": self.converged,
            "period_two_detected": self.period_two_detected,
            "fixed_point_values": list(self.fixed_point_values) if self.fixed_point_values else None,
            "tol": self.tol,
        }


def small_gain_iterate(
    charmap: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    max_iters: int,
    tol: float,
) -> tuple[np.ndarray, SmallGainReport]:
    """Iterate the composed output characteristic to a fixed point.

    ``charmap`` maps the ``(F,)`` values of an iterate at the probe fibers
    to those of the next (:func:`grid_characteristic_map`), and ``start``
    holds the seed input's values there.  Tracks the per-fiber values of
    successive iterates, fits the geometric rate of the sup-distances, and
    stops on convergence (all fibers moved less than ``tol``) or on a
    detected period-two cycle (successive iterates alternate while every
    second iterate is stationary).  Returns the final iterate's values
    together with the diagnostics.
    """
    if max_iters < 2:
        raise ValueError("need at least two iterations")
    values = [np.asarray(start, dtype=float)]
    sup_distances: list[float] = []
    traces: list[tuple[int, float, str, int, float]] = []
    converged = False
    period_two = False

    for k in range(max_iters):
        values.append(charmap(values[-1]))
        step = np.abs(values[-1] - values[-2])
        sup = float(np.max(step))
        sup_distances.append(sup)
        for i in range(min(step.size, 20)):
            traces.append((i, float(k), "iterate_move", 0, float(step[i])))
        if sup <= tol:
            converged = True
            break
        if len(values) >= 3:
            alternation = float(np.max(np.abs(values[-1] - values[-3])))
            if alternation <= tol and sup > tol:
                period_two = True
                break

    rate = None
    positive = [(k, d) for k, d in enumerate(sup_distances) if d > 1e-14]
    if len(positive) >= 3:
        ks = np.array([k for k, _ in positive], dtype=float)
        logs = np.log([d for _, d in positive])
        rate = float(math.exp(np.polyfit(ks, logs, 1)[0]))

    fixed_vals = tuple(float(v) for v in values[-1]) if converged else None
    pair = None
    if period_two:
        pair = tuple(
            (float(a), float(b)) for a, b in zip(values[-2], values[-1])
        )

    report = SmallGainReport(
        iterations=len(sup_distances),
        sup_distances=tuple(sup_distances),
        rate_estimate=rate,
        converged=converged,
        period_two_detected=period_two,
        fixed_point_values=fixed_vals,
        period_two_values=pair,
        tol=float(tol),
        traces=tuple(traces),
    )
    return values[-1], report
