"""Stochastic processes over noise fibers and their operator algebra.

A process maps ``(t, fiber)`` to a vector and is closed under three
operations: the observer shift (restart the clock at a later time on the
correspondingly rewound fiber), concatenation (switch from one input to
another at a splice time), and pullback (start further and further in the
past and observe at the fiber itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .mpds import Fiber, RandomVariable, _repeat, _stack

__all__ = [
    "TIME_KINDS",
    "Process",
    "constant",
    "stationary",
    "decaying_input",
]

TIME_KINDS = ("discrete", "continuous")

Time = float | int
BreakpointFn = Callable[[Fiber, float, float], tuple[float, ...]]
BatchFn = Callable[[np.ndarray, Sequence[Fiber]], np.ndarray]


def _check_time_kind(kind: str) -> str:
    if kind not in TIME_KINDS:
        raise ValueError(f"time kind must be one of {TIME_KINDS}, got {kind!r}")
    return kind


@dataclass(frozen=True)
class Process:
    """Pure map ``(t, fiber) -> R^dim`` for nonnegative ``t``.

    ``piecewise_constant`` marks processes that are constant on the unit
    noise cells of the evaluation fiber (true for everything assembled from
    cell reads); exact integrators rely on it.  ``extra_breakpoints`` lists
    discontinuities that do not sit on the cell grid, e.g. splice times
    introduced by concatenation.  ``batch``, when given, reads the process
    at many times and fibers in one call (see :meth:`over`); it must agree
    bitwise with ``fn``.
    """

    dim: int
    time_kind: str
    fn: Callable[[Time, Fiber], np.ndarray]
    piecewise_constant: bool = False
    extra_breakpoints: Optional[BreakpointFn] = None
    batch: Optional[BatchFn] = None

    def __post_init__(self):
        _check_time_kind(self.time_kind)

    def __call__(self, t: Time, fiber: Fiber) -> np.ndarray:
        if t < 0:
            raise ValueError("processes are defined for t >= 0")
        return np.atleast_1d(np.asarray(self.fn(t, fiber), dtype=float))

    def over(self, times, fibers: Sequence[Fiber]) -> np.ndarray:
        """Values at each time of the 1-D ``times`` on each of ``fibers``.

        Returns an ``(F, n, dim)`` float array whose entry ``[f, i]`` is
        bit-identical to ``self(times[i], fibers[f])``.  Constants,
        stationary and decaying inputs, and their shifts, splices and sums
        read the whole grid in one vectorised call; any other process (a
        pullback, an opaque closure) falls back to one pointwise call per
        point.
        """
        times = np.asarray(times)
        if times.size and times.min() < 0:
            raise ValueError("processes are defined for t >= 0")
        return self._over(times, fibers)

    def at(self, times, fiber: Fiber) -> np.ndarray:
        """Values at many times on one fiber, ``(n, dim)``: :meth:`over`
        with one fiber."""
        return self.over(times, (fiber,))[0]

    def _over(self, times: np.ndarray, fibers: Sequence[Fiber]) -> np.ndarray:
        if self.batch is not None:
            return self.batch(times, fibers)
        return _stack([self.fn(t, w) for w in fibers for t in times.tolist()],
                      (len(fibers), times.size, self.dim))

    def scalar(self, t: Time, fiber: Fiber) -> float:
        if self.dim != 1:
            raise ValueError(f"scalar() on a {self.dim}-dimensional process")
        return float(self(t, fiber)[0])

    def breakpoints(self, fiber: Fiber, lo: float, hi: float) -> tuple[float, ...]:
        """Off-grid discontinuity times in the open interval (lo, hi)."""
        if self.extra_breakpoints is None:
            return ()
        return tuple(b for b in self.extra_breakpoints(fiber, lo, hi) if lo < b < hi)

    def shift(self, s: Time) -> "Process":
        """The process as seen by an observer who started at time ``s``.

        The shifted process at ``(t, fiber)`` equals the original at
        ``(t + s)`` on the fiber rewound by ``s``.
        """
        if s < 0:
            raise ValueError("shift requires s >= 0")
        if s == 0:
            return self

        def fn(t: Time, w: Fiber) -> np.ndarray:
            return self.fn(t + s, w.shift(-s))

        def batch(ts: np.ndarray, ws: Sequence[Fiber]) -> np.ndarray:
            return self._over(ts + s, [w.shift(-s) for w in ws])

        def brk(w: Fiber, lo: float, hi: float) -> tuple[float, ...]:
            return tuple(b - s for b in self.breakpoints(w.shift(-s), lo + s, hi + s))

        return Process(
            self.dim, self.time_kind, fn,
            piecewise_constant=self.piecewise_constant,
            extra_breakpoints=brk if self.extra_breakpoints else None,
            batch=batch,
        )

    def concat(self, other: "Process", s: Time) -> "Process":
        """Follow this process on ``[0, s)``, then hand over to ``other``.

        Past the splice the value is ``other`` restarted at the advanced
        fiber: ``(u concat v at s)(tau) = v(tau - s, fiber shifted by s)``.
        """
        if s < 0:
            raise ValueError("concatenation requires s >= 0")
        if self.dim != other.dim:
            raise ValueError("arity mismatch in concatenation")
        if self.time_kind != other.time_kind:
            raise ValueError("time-kind mismatch in concatenation")

        def fn(tau: Time, w: Fiber) -> np.ndarray:
            if tau < s:
                return self.fn(tau, w)
            return other.fn(tau - s, w.shift(s))

        def batch(taus: np.ndarray, ws: Sequence[Fiber]) -> np.ndarray:
            head = taus < s
            if head.all():
                return self._over(taus, ws)
            tail = other._over(taus[~head] - s, [w.shift(s) for w in ws])
            if not head.any():
                return tail
            out = np.empty((len(ws), taus.size, self.dim))
            out[:, head] = self._over(taus[head], ws)
            out[:, ~head] = tail
            return out

        def brk(w: Fiber, lo: float, hi: float) -> tuple[float, ...]:
            pts = [float(s)]
            pts.extend(self.breakpoints(w, lo, min(hi, float(s))))
            pts.extend(b + s for b in other.breakpoints(w.shift(s), 0.0, hi - s))
            return tuple(pts)

        return Process(
            self.dim, self.time_kind, fn,
            piecewise_constant=self.piecewise_constant and other.piecewise_constant,
            extra_breakpoints=brk,
            batch=batch,
        )

    def pullback(self) -> "Process":
        """Evaluate at time ``t`` on the fiber rewound by ``t``."""

        def fn(t: Time, w: Fiber) -> np.ndarray:
            return self.fn(t, w.shift(-t))

        return Process(self.dim, self.time_kind, fn)

    def __add__(self, other: "Process") -> "Process":
        if self.dim != other.dim or self.time_kind != other.time_kind:
            raise ValueError("mismatched processes in sum")
        pc = self.piecewise_constant and other.piecewise_constant

        def brk(w: Fiber, lo: float, hi: float) -> tuple[float, ...]:
            return self.breakpoints(w, lo, hi) + other.breakpoints(w, lo, hi)

        has_brk = self.extra_breakpoints is not None or other.extra_breakpoints is not None
        return Process(
            self.dim, self.time_kind,
            lambda t, w: self.fn(t, w) + other.fn(t, w),
            piecewise_constant=pc,
            extra_breakpoints=brk if has_brk else None,
            batch=lambda ts, ws: self._over(ts, ws) + other._over(ts, ws),
        )


def constant(values, time_kind: str = "discrete") -> Process:
    """The trivial process: the same vector at every time and fiber."""
    vec = np.atleast_1d(np.asarray(values, dtype=float))
    return Process(
        vec.size, _check_time_kind(time_kind),
        lambda t, w: vec.copy(),
        piecewise_constant=True,
        batch=lambda ts, ws: _repeat(vec, (len(ws), ts.size)),
    )


def stationary(rv: RandomVariable, time_kind: str = "discrete") -> Process:
    """Stationary process ``(t, fiber) -> rv(fiber shifted by t)``.

    It is marked piecewise constant: ``rv`` must be cell-resolved, its
    orbit values changing only at unit-cell boundaries (anything assembled
    from cell reads).
    """
    return Process(
        rv.dim, _check_time_kind(time_kind),
        lambda t, w: np.atleast_1d(np.asarray(rv(w.shift(t)), dtype=float)),
        piecewise_constant=True,
        batch=lambda ts, ws: rv.over(ws, ts),
    )


def decaying_input(
    limit: RandomVariable,
    disturbance: RandomVariable,
    rate: float = 1.0,
    time_kind: str = "continuous",
) -> Process:
    """Input whose pullback converges: stationary limit plus a decaying term.

    At ``(t, fiber)`` the value is ``limit`` at the advanced fiber plus
    ``exp(-rate*t)`` times ``disturbance`` at the advanced fiber, so the
    pullback at time ``t`` equals ``limit(fiber) + exp(-rate*t) *
    disturbance(fiber)``.
    """
    if limit.dim != disturbance.dim:
        raise ValueError("limit and disturbance must have equal dimension")

    def fn(t: Time, w: Fiber) -> np.ndarray:
        wt = w.shift(t)
        return np.asarray(limit(wt), dtype=float) + np.exp(-rate * t) * np.asarray(
            disturbance(wt), dtype=float
        )

    def batch(ts: np.ndarray, ws: Sequence[Fiber]) -> np.ndarray:
        return limit.over(ws, ts) + np.exp(-rate * ts)[:, None] * disturbance.over(ws, ts)

    return Process(limit.dim, _check_time_kind(time_kind), fn,
                   piecewise_constant=False, batch=batch)
