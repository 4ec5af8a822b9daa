"""The pointwise reference of random variables, processes and input-table
rows: every form read one point at a time, by a scalar ``fn``.  The
library's batched reads (``over``, of a variable, a process or the
``InputTable`` rows that ``concat`` and ``+`` build here) must return these
values bit for bit.  The constructors mirror the library's names, so the
same expression can be built from either this module or ``LIBRARY``.

``pointwise_variable`` and ``pointwise_process`` go the other way: they
turn a per-point closure into a library variable or process, one call per
point, as the opaque forms the batched reads are checked on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from rdsio import mpds, process
from rdsio.mpds import CellLaw, Fiber, Fibers, _law_sample, _stack, fiberwise
from rdsio.process import Process, Time, _check_time_kind

# the library's constructors, under the names this module mirrors
LIBRARY = SimpleNamespace(cell_noise=mpds.cell_noise, constant_rv=mpds.constant_rv,
                          constant=process.constant, stationary=process.stationary,
                          decaying_input=process.decaying_input)

BreakpointFn = Callable[[Fiber, float, float], tuple[float, ...]]


def law_sample(law: CellLaw, seed: int, cell_index: int) -> np.ndarray:
    """One cell of ``law``: the scalar read of :meth:`CellLaw.sample_grid`."""
    if law.kind == "constant":
        # the same in every cell of every seed, so kept out of the cache
        return np.array(law.values, dtype=float)
    return _law_sample(law, seed, cell_index).copy()


@dataclass(frozen=True)
class PointwiseVariable:
    """A random variable read one fiber at a time."""

    dim: int
    fn: Callable[[Fiber], np.ndarray]

    def __call__(self, fiber: Fiber) -> np.ndarray:
        return self.fn(fiber)

    def scalar(self, fiber: Fiber) -> float:
        if self.dim != 1:
            raise ValueError(f"scalar() on a {self.dim}-dimensional variable")
        return float(np.asarray(self.fn(fiber)).reshape(-1)[0])

    def __add__(self, other: "PointwiseVariable") -> "PointwiseVariable":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in sum of random variables")
        return PointwiseVariable(self.dim, lambda w: self.fn(w) + other.fn(w))

    def __mul__(self, other: "PointwiseVariable") -> "PointwiseVariable":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in product of random variables")
        return PointwiseVariable(self.dim, lambda w: self.fn(w) * other.fn(w))


def constant_rv(values) -> PointwiseVariable:
    vec = np.atleast_1d(np.asarray(values, dtype=float))
    return PointwiseVariable(vec.size, lambda w: vec.copy())


def cell_noise(law: CellLaw, lag: int = 0) -> PointwiseVariable:
    """Value of the noise cell ``lag`` steps from the fiber's current cell."""
    if law.kind == "constant":
        vec = np.array(law.values, dtype=float)
        fn = lambda w: vec.copy()  # noqa: E731
    else:
        fn = lambda w: _law_sample(law, w.seed, math.floor(w.offset) + lag).copy()  # noqa: E731
    return PointwiseVariable(law.dim, fn)


@dataclass(frozen=True)
class PointwiseProcess:
    """A process read one time and fiber at a time."""

    dim: int
    time_kind: str
    fn: Callable[[Time, Fiber], np.ndarray]
    piecewise_constant: bool = False
    extra_breakpoints: Optional[BreakpointFn] = None

    def __post_init__(self):
        _check_time_kind(self.time_kind)

    def __call__(self, t: Time, fiber: Fiber) -> np.ndarray:
        if t < 0:
            raise ValueError("processes are defined for t >= 0")
        return np.atleast_1d(np.asarray(self.fn(t, fiber), dtype=float))

    def scalar(self, t: Time, fiber: Fiber) -> float:
        if self.dim != 1:
            raise ValueError(f"scalar() on a {self.dim}-dimensional process")
        return float(self(t, fiber)[0])

    def breakpoints(self, fiber: Fiber, lo: float, hi: float) -> tuple[float, ...]:
        """Off-grid discontinuity times in the open interval (lo, hi)."""
        if self.extra_breakpoints is None:
            return ()
        return tuple(b for b in self.extra_breakpoints(fiber, lo, hi) if lo < b < hi)

    def shift(self, s: Time) -> "PointwiseProcess":
        if s < 0:
            raise ValueError("shift requires s >= 0")
        if s == 0:
            return self

        def fn(t: Time, w: Fiber) -> np.ndarray:
            return self.fn(t + s, w.shift(-s))

        def brk(w: Fiber, lo: float, hi: float) -> tuple[float, ...]:
            return tuple(b - s for b in self.breakpoints(w.shift(-s), lo + s, hi + s))

        return PointwiseProcess(
            self.dim, self.time_kind, fn,
            piecewise_constant=self.piecewise_constant,
            extra_breakpoints=brk if self.extra_breakpoints else None,
        )

    def concat(self, other: "PointwiseProcess", s: Time) -> "PointwiseProcess":
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

        def brk(w: Fiber, lo: float, hi: float) -> tuple[float, ...]:
            pts = [float(s)]
            pts.extend(self.breakpoints(w, lo, min(hi, float(s))))
            pts.extend(b + s for b in other.breakpoints(w.shift(s), 0.0, hi - s))
            return tuple(pts)

        return PointwiseProcess(
            self.dim, self.time_kind, fn,
            piecewise_constant=self.piecewise_constant and other.piecewise_constant,
            extra_breakpoints=brk,
        )

    def pullback(self) -> "PointwiseProcess":
        def fn(t: Time, w: Fiber) -> np.ndarray:
            return self.fn(t, w.shift(-t))

        return PointwiseProcess(self.dim, self.time_kind, fn)

    def __add__(self, other: "PointwiseProcess") -> "PointwiseProcess":
        if self.dim != other.dim or self.time_kind != other.time_kind:
            raise ValueError("mismatched processes in sum")
        pc = self.piecewise_constant and other.piecewise_constant

        def brk(w: Fiber, lo: float, hi: float) -> tuple[float, ...]:
            return self.breakpoints(w, lo, hi) + other.breakpoints(w, lo, hi)

        has_brk = self.extra_breakpoints is not None or other.extra_breakpoints is not None
        return PointwiseProcess(
            self.dim, self.time_kind,
            lambda t, w: self.fn(t, w) + other.fn(t, w),
            piecewise_constant=pc,
            extra_breakpoints=brk if has_brk else None,
        )


def constant(values, time_kind: str = "discrete") -> PointwiseProcess:
    vec = np.atleast_1d(np.asarray(values, dtype=float))
    return PointwiseProcess(vec.size, _check_time_kind(time_kind), lambda t, w: vec.copy(),
                            piecewise_constant=True)


def stationary(rv: PointwiseVariable, time_kind: str = "discrete") -> PointwiseProcess:
    return PointwiseProcess(
        rv.dim, _check_time_kind(time_kind),
        lambda t, w: np.atleast_1d(np.asarray(rv(w.shift(t)), dtype=float)),
        piecewise_constant=True,
    )


def decaying_input(
    limit: PointwiseVariable,
    disturbance: PointwiseVariable,
    rate: float = 1.0,
    time_kind: str = "continuous",
) -> PointwiseProcess:
    if limit.dim != disturbance.dim:
        raise ValueError("limit and disturbance must have equal dimension")

    def fn(t: Time, w: Fiber) -> np.ndarray:
        wt = w.shift(t)
        return np.asarray(limit(wt), dtype=float) + np.exp(-rate * t) * np.asarray(
            disturbance(wt), dtype=float
        )

    return PointwiseProcess(limit.dim, _check_time_kind(time_kind), fn, piecewise_constant=False)


def forward_traj(sys, x: PointwiseVariable, u=None) -> PointwiseProcess:
    """One flow ``sys(t, fiber, x(fiber), u)`` per point."""
    return PointwiseProcess(sys.state_dim, sys.time_kind, lambda t, w: sys(t, w, x(w), u))


def pullback_traj(sys, x: PointwiseVariable, u=None) -> PointwiseProcess:
    """One flow from the fiber rewound by ``t`` per point."""
    return PointwiseProcess(sys.state_dim, sys.time_kind,
                            lambda t, w: sys(t, w.shift(-t), x(w.shift(-t)), u))


def output_traj(sys, h, x: PointwiseVariable, u=None) -> PointwiseProcess:
    """The readout of :func:`forward_traj` at the advanced fiber, per point."""
    state = forward_traj(sys, x, u)
    return PointwiseProcess(h.dim, sys.time_kind,
                            lambda t, w: one_readout(h, w.shift(t), state(t, w)))


def batch(fibers: Sequence[Fiber]) -> Fibers:
    """The :class:`Fibers` of a list of :class:`Fiber`: its seeds and offsets."""
    return Fibers([w.seed for w in fibers], np.array([w.offset for w in fibers]))


def one_step(gen, fiber: Fiber, x, value=()) -> np.ndarray:
    """The step of the generator ``gen`` at one fiber: the one row of
    ``gen.many``; a generator without input takes no ``value``."""
    return gen.many(batch([fiber]), np.atleast_1d(np.asarray(x, dtype=float))[None],
                    np.atleast_1d(np.asarray(value, dtype=float))[None])[0]


def one_readout(h, fiber: Fiber, x) -> np.ndarray:
    """The readout of the output map ``h`` at one fiber: the one row of
    ``h.many``."""
    return h.many(batch([fiber]), np.atleast_1d(np.asarray(x, dtype=float))[None])[0]


def pointwise_variable(dim: int, fn: Callable[[Fiber], np.ndarray]):
    """The library variable whose value at each fiber is ``fn(fiber)``,
    read through :func:`rdsio.mpds.fiberwise`, one call per point."""
    return fiberwise(dim, lambda ws: [fn(w) for w in ws])


def pointwise_process(dim: int, time_kind: str, fn: Callable[[Time, Fiber], np.ndarray]):
    """The library process whose value at each point is ``fn(t, fiber)``,
    one call per point, at 1-D times shared by every fiber or at ``(F,
    n)`` times, one row per fiber."""

    def over(ws: Fibers, ts: np.ndarray) -> np.ndarray:
        rows = np.broadcast_to(ts, (len(ws), ts.shape[-1])).tolist()
        return _stack([fn(t, w) for w, row in zip(ws, rows) for t in row],
                      (len(ws), ts.shape[-1], dim))

    return Process(dim, time_kind, over)
