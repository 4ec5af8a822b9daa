"""Partial orders, monotonicity probes, and converging-input experiments.

A flow is monotone when ordered initial states under ordered input
processes stay ordered for all time.  For such systems, an input whose
pullback converges can be sandwiched between stationary envelopes built
from running infima/suprema of its pullback values; the state then inherits
convergence toward the limit's characteristic.  This module checks the
order property by sampling, builds the envelopes, and runs the convergence
experiment end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .mpds import (Fibers, RandomVariable, TemperednessReport, UnboundedSampleError,
                   fiberwise, temperedness_report)
from .process import Process, Time
from .rdsi import (_BLOCK, SystemFlow, _batches, _draw_fibers, _draw_times, _fold_max,
                   draw_inputs, pullback_traj)
from .reports import unreported

__all__ = [
    "OrthantOrder",
    "BracketPair",
    "MonotoneReport",
    "CicsReport",
    "check_monotone",
    "brackets",
    "cics_experiment",
]


@dataclass(frozen=True)
class OrthantOrder:
    """Componentwise order on R^n (the positive-orthant cone order)."""

    dim: int

    def margin(self, x, y):
        """Smallest componentwise gap ``y - x``; negative means unordered.
        A float for one pair of states, and the ``(B,)`` margins of each row
        for ``(B, n)`` states."""
        return np.min(np.asarray(y) - np.asarray(x), axis=-1)


@dataclass(frozen=True)
class MonotoneReport:
    violations: int
    worst_margin: float
    samples: int
    slack: float
    passed: bool


def _monotone_draws(sys: SystemFlow, samples: int, seed: int,
                    max_time: float) -> Iterator[tuple]:
    """The random tuples of :func:`check_monotone`, one block of at most
    ``_BLOCK`` at a time, each field drawn for the whole block at once:
    the fibers, the times, the states ``x`` and ``z = x + gap``, the
    inputs ``u`` (one drawn table) and the gaps ``lift`` of ``v = u +
    constant(lift)`` (drawn after ``u``), both None without an input.
    Every gap is uniform in ``[0.1, 1.0]``."""
    rng = np.random.default_rng(seed)
    for start in range(0, samples, _BLOCK):
        k = min(_BLOCK, samples - start)
        ws = _draw_fibers(rng, k, sys.time_kind)
        ts = _draw_times(rng, k, sys.time_kind, max_time)
        xs = rng.uniform(-1.5, 1.5, size=(k, sys.state_dim))
        zs = xs + rng.uniform(0.1, 1.0, size=(k, sys.state_dim))
        us = lifts = None
        if sys.input_dim:
            us = draw_inputs(rng, k, sys.input_dim, sys.time_kind, max_time)
            lifts = rng.uniform(0.1, 1.0, size=(k, sys.input_dim))
        yield ws, ts, xs, zs, us, lifts


def check_monotone(
    sys: SystemFlow,
    order: OrthantOrder,
    samples: int = 1000,
    seed: int = 0,
    max_time: float = 8.0,
) -> MonotoneReport:
    """Sample ordered state/input pairs and count order violations.

    Each sample draws ``x <= z`` (componentwise, with gaps bounded away
    from zero) and ``u <= v`` as processes, then compares the flows.
    Discrete flows are held to exact order; continuous ones get a small
    float slack.  A NaN margin counts as a violation; ``worst_margin`` is
    the least margin that is not NaN.  Samples are drawn a block at a
    time, each field as one array (:func:`_monotone_draws`), and flowed in
    batches of blocks (:func:`_batches`): the x and z flows of a batch are
    one batched flow each (:meth:`SystemFlow.many`), and the margins fold
    in order, so the result does not depend on the batching.
    """
    if order.dim != sys.state_dim:
        raise ValueError("order dimension does not match the system state")
    if samples < 1:
        raise ValueError("need at least one sample")
    slack = 0.0 if sys.is_discrete else 1e-12
    violations = 0
    worst = math.inf

    def flow_margins(ws, ts, xs, zs, us, lifts) -> np.ndarray:
        vs = None if us is None else replace(us, lift=lifts)
        return order.margin(sys.many(ts, ws, xs, us), sys.many(ts, ws, zs, vs))

    for margins in _batches(_monotone_draws(sys, samples, seed, max_time), max_time,
                            flow_margins):
        violations += int(np.count_nonzero(~(margins >= -slack)))
        worst = min([worst, *margins.tolist()])  # the builtin skips a NaN here

    return MonotoneReport(
        violations=violations,
        worst_margin=float(worst),
        samples=samples,
        slack=slack,
        passed=violations == 0,
    )


@dataclass(frozen=True)
class BracketPair:
    """Stationary envelopes of a process's pullback over a sampled horizon.

    ``envelopes`` evaluates, at any fiber, the componentwise inf (its
    first ``dim`` entries) and sup (the rest) over grid times ``t`` in
    ``[tau, horizon]`` of the process's pullback value; for cell-aligned
    processes the grid inf/sup is the true one.  The sandwich
    ``lower(shift(w, t)) <= u(t, w) <= upper(shift(w, t))`` holds exactly
    for every grid time ``t >= tau``.  :meth:`over` and :meth:`across`
    split one read into ``lower`` and ``upper``.
    """

    envelopes: RandomVariable
    tau: Time
    horizon: Time
    grid: tuple[Time, ...]

    def over(self, fibers: Fibers, times) -> list[np.ndarray]:
        """``lower`` and ``upper`` at the points of
        :meth:`RandomVariable.over`, each ``(F, n, dim)``, from one read."""
        return np.split(self.envelopes.over(fibers, times), 2, axis=-1)

    def across(self, fibers: Fibers) -> list[np.ndarray]:
        """``lower`` and ``upper`` at each fiber, each ``(F, dim)``, from
        one read."""
        return np.split(self.envelopes.across(fibers), 2, axis=-1)


def _bracket_grid(u: Process, tau: Time, horizon: Time) -> tuple[Time, ...]:
    if horizon < tau:
        raise ValueError("horizon must be at least tau")
    if u.time_kind == "discrete":
        return tuple(range(int(tau), int(horizon) + 1))
    # unit spacing matches the noise cell width
    count = int(math.floor(float(horizon) - float(tau))) + 1
    return tuple(float(tau) + k for k in range(count))


def brackets(
    u: Process,
    tau: Time,
    horizon: Time,
) -> BracketPair:
    """Running inf/sup envelopes of the pullback of ``u`` from ``tau`` on.

    The envelopes are genuine random variables (evaluable at any fiber,
    shifted or not), which is what the sandwich inequality quantifies
    over.  A read at many fibers, of one envelope or of both
    (:meth:`BracketPair.over`), is one :meth:`Process.over` of the
    pullback of ``u`` on the grid.  Reading the envelopes at a fiber
    whose pullback is not finite, or exceeds ``1e12`` in magnitude,
    raises :class:`UnboundedSampleError`.
    """
    grid = _bracket_grid(u, tau, horizon)
    pullback = u.pullback()

    def values(ws: Fibers) -> np.ndarray:
        rows = pullback.over(ws, grid)
        if not np.all(np.abs(rows) <= 1e12):
            raise UnboundedSampleError(
                "pullback of the process is unbounded on the sampled window")
        return np.concatenate([rows.min(axis=1), rows.max(axis=1)], axis=1)

    return BracketPair(envelopes=fiberwise(2 * u.dim, values), tau=tau, horizon=horizon,
                       grid=grid)


@dataclass(frozen=True)
class CicsReport:
    """Outcome of a converging-input experiment against a limit characteristic.

    ``residuals[j, i, k]`` is the distance of the pullback state from the
    limit state at the ``k``-th time of the sorted schedule, for initial
    state ``j`` on probe fiber ``i``; the last column is the final time.
    """

    input_residual_temperedness: TemperednessReport
    residuals: np.ndarray = unreported()
    max_final_residual: float
    worst_fiber: int
    tol: float
    converged: bool
    dominating_temperedness: TemperednessReport


def cics_experiment(
    sys: SystemFlow,
    limit: RandomVariable,
    u: Process,
    u_inf: RandomVariable,
    x_set: Sequence[RandomVariable],
    schedule: Sequence[Time],
    tol: float,
    fibers: Fibers,
) -> CicsReport:
    """Drive a system with a converging input and check the limit.

    ``limit`` is the characteristic's state under the limit input
    ``u_inf``.  The input's pullback residual against ``u_inf`` gets a
    temperedness diagnostic.  For each initial state, the pullback
    trajectory must land within ``tol`` of ``limit`` at the schedule's
    final time, on every probe fiber.  The monotonicity that the
    convergence theorem assumes is the caller's to probe
    (:func:`check_monotone`).
    """
    if not schedule:
        raise ValueError("schedule must contain at least one time")
    if not x_set:
        raise ValueError("need at least one initial state")
    schedule = sorted(schedule)

    tail_times = [t for t in schedule if t >= schedule[len(schedule) // 2]]

    def tail_gap(p: Process, target: RandomVariable) -> RandomVariable:
        """The largest distance of ``p`` from ``target`` over the tail of
        the schedule, at each fiber."""
        return fiberwise(1, lambda ws: np.max(np.abs(
            p.over(ws, tail_times) - target.across(ws)[:, None]), axis=(1, 2)))

    input_temper = temperedness_report(tail_gap(u.pullback(), u_inf), fibers[:1])

    targets = limit.across(fibers)
    # the pullbacks of every initial state side by side, in one read
    states = pullback_traj(sys, x_set, u).over(fibers, schedule)
    parts = states.reshape(*states.shape[:2], len(x_set), -1)
    residuals = np.max(np.abs(parts - targets[:, None, None]), axis=3).transpose(2, 0, 1)
    # the first fiber of the worst final residual; a NaN residual is the worst
    finals = residuals[:, :, -1].ravel()
    worst = _fold_max(0.0, finals)
    worst_fiber = -1
    if worst != 0.0:
        worst_fiber = int(np.argmax((finals == worst) | np.isnan(finals))) % len(fibers)

    dom_temper = temperedness_report(tail_gap(pullback_traj(sys, x_set[0], u), limit),
                                     fibers[:1])

    return CicsReport(
        input_residual_temperedness=input_temper,
        residuals=residuals,
        max_final_residual=worst,
        worst_fiber=worst_fiber,
        tol=float(tol),
        converged=worst <= tol,
        dominating_temperedness=dom_temper,
    )
