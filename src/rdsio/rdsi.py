"""System flows driven by noise fibers and external inputs.

Houses the contract every concrete system satisfies: evaluation at time
zero is the identity, flowing for ``s`` then restarting for ``t`` on the
advanced fiber matches one flow of ``s + t`` under the spliced input, and
the flow only reads input values on ``[0, t)`` along the evaluation fiber.
On top of the contract sit forward/pullback (output) trajectories,
equilibrium checking, and pullback-limit estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

import numpy as np

from .mpds import Fiber, RandomVariable, CellLaw, _stack, cell_noise
from .process import Process, Time, constant, stationary

if TYPE_CHECKING:  # pragma: no cover
    from .discrete import Generator

# the input argument of a batched flow: one process (or None) for every
# fiber, or a sequence of one per fiber
Inputs = Optional[Process] | Sequence[Optional[Process]]

__all__ = [
    "SystemFlow",
    "OutputMap",
    "EquilibriumCandidate",
    "AxiomCheckReport",
    "EquilibriumReport",
    "CharacteristicEstimate",
    "forward_traj",
    "pullback_traj",
    "output_traj",
    "check_axioms",
    "check_equilibrium",
    "estimate_characteristic",
]


@dataclass(frozen=True)
class SystemFlow:
    """A flow ``(t, fiber, state, input process) -> state``.

    ``input_dim == 0`` marks an autonomous system; such flows accept
    ``None`` for the input argument.  Discrete flows built from a one-step
    generator carry it in ``generator``; the flow must then be that
    generator's iteration, since trajectories are computed by stepping it.
    ``flow_many``, when given, is the flow at many fibers in one call (see
    :meth:`many`, whose time and input arguments it receives as they were
    passed); it must agree bitwise with ``flow``.
    """

    state_dim: int
    input_dim: int
    time_kind: str
    flow: Callable[[Time, Fiber, np.ndarray, Optional[Process]], np.ndarray]
    generator: "Generator | None" = None
    label: str = ""
    flow_many: Callable[
        [Time | Sequence[Time], Sequence[Fiber], np.ndarray, Inputs], np.ndarray
    ] | None = None

    def __call__(
        self, t: Time, fiber: Fiber, x, u: Optional[Process] = None
    ) -> np.ndarray:
        if t < 0:
            raise ValueError("flows are defined for t >= 0")
        state = self._checked_state(x, u)
        return np.atleast_1d(np.asarray(self.flow(t, fiber, state, u), dtype=float))

    def many(
        self, t: Time | Sequence[Time], fibers: Sequence[Fiber], xs, u: Inputs = None
    ) -> np.ndarray:
        """The flow at each fiber, from the matching row of the
        ``(F, state_dim)`` states ``xs``; returns ``(F, state_dim)``.

        ``t`` is one time for every fiber or a sequence of one time per
        fiber, and ``u`` one input process (or None) for every fiber or a
        sequence of one per fiber.  Row ``f`` is bit-identical to
        ``self(t_f, fibers[f], xs[f], u_f)``.  A system without
        ``flow_many`` runs one pointwise flow per fiber.
        """
        shape = (len(fibers), self.state_dim)
        times = list(t) if np.ndim(t) else [t] * len(fibers)
        inputs = [u] * len(fibers) if u is None or isinstance(u, Process) else list(u)
        if len(times) != len(fibers) or len(inputs) != len(fibers):
            raise ValueError("need one time and one input per fiber")
        if any(v < 0 for v in times):
            raise ValueError("flows are defined for t >= 0")
        xs = np.asarray(xs, dtype=float)
        if xs.shape != shape:
            raise ValueError(f"states have shape {xs.shape}, expected {shape}")
        if self.flow_many is None:
            return _stack([self(*row) for row in zip(times, fibers, xs, inputs)], shape)
        for p in inputs:
            self._check_input(p)
        return np.asarray(self.flow_many(t, fibers, xs, u), dtype=float).reshape(shape)

    def _checked_state(self, x, u: Optional[Process] = None) -> np.ndarray:
        """``x`` as a state vector, after checking it and ``u`` against the
        system's dimensions."""
        state = np.atleast_1d(np.asarray(x, dtype=float))
        if state.size != self.state_dim:
            raise ValueError(
                f"state has dimension {state.size}, system expects {self.state_dim}"
            )
        self._check_input(u)
        return state

    def _check_input(self, u: Optional[Process]) -> None:
        if self.input_dim and u is not None and u.dim != self.input_dim:
            raise ValueError(
                f"input has dimension {u.dim}, system expects {self.input_dim}"
            )

    @property
    def is_discrete(self) -> bool:
        return self.time_kind == "discrete"


@dataclass(frozen=True)
class OutputMap:
    """Readout ``(fiber, state) -> R^dim``, continuous in the state.

    The fiber argument lets the readout itself be noisy.
    """

    dim: int
    fn: Callable[[Fiber, np.ndarray], np.ndarray]
    label: str = ""

    def __call__(self, fiber: Fiber, x) -> np.ndarray:
        return np.atleast_1d(
            np.asarray(self.fn(fiber, np.atleast_1d(np.asarray(x, dtype=float))), dtype=float)
        )


@dataclass(frozen=True)
class EquilibriumCandidate:
    """A random state proposed as an equilibrium, with its stationary input."""

    rv: RandomVariable
    input: Process | None = None


def _memo_process(dim, time_kind, fn, label="", batch=None) -> Process:
    """Process with a per-instance (t, fiber) value cache for pointwise
    reads; ``batch`` reads, if given, bypass it."""
    cache: dict[tuple, np.ndarray] = {}

    def cached(t, w):
        key = (t, w)
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = np.atleast_1d(np.asarray(fn(t, w), dtype=float))
        return hit

    return Process(dim, time_kind, cached, label=label, batch=batch)


def _by_time(fibers: Sequence[Fiber], times: np.ndarray, dim: int,
             column: Callable[[Time], np.ndarray]) -> np.ndarray:
    """``(F, n, dim)`` array whose column ``i`` is the ``(F, dim)``
    ``column(times[i])``."""
    out = np.empty((len(fibers), times.size, dim))
    for i, t in enumerate(times.tolist()):
        out[:, i] = column(t)
    return out


def forward_traj(
    sys: SystemFlow,
    x: RandomVariable,
    u: Optional[Process] = None,
) -> Process:
    """Trajectory process: flow from the random state along the fiber.

    Lazy; evaluate on whatever grid the caller needs.  On a
    generator-driven discrete flow it is a per-fiber scan: each fiber keeps
    the states computed so far and extends them one generator step at a
    time, so queries up to horizon ``T`` cost ``T`` steps per fiber in any
    order.  Other flows (continuous, or discrete without a generator) cache
    ``sys(t, fiber, x(fiber), u)`` per ``(t, fiber)``, each computed from
    time zero.
    """
    if x.dim != sys.state_dim:
        raise ValueError("initial state dimension does not match the system")
    gen = sys.generator
    if gen is None:
        return _memo_process(
            sys.state_dim, sys.time_kind,
            lambda t, w: sys(t, w, x(w), u),
            label="forward_traj",
        )
    scans: dict[Fiber, list[np.ndarray]] = {}

    def scan(t: Time, w: Fiber) -> np.ndarray:
        states = scans.get(w)
        if states is None:
            states = scans[w] = [sys._checked_state(x(w), u)]
        return gen.extend(states, w, u, t)

    return Process(sys.state_dim, sys.time_kind, scan, label="forward_traj")


def pullback_traj(
    sys: SystemFlow,
    x: RandomVariable,
    u: Optional[Process] = None,
) -> Process:
    """Pullback trajectory: start ``t`` in the past, observe at the fiber.

    The input is deliberately not shifted; its values are read along the
    rewound fiber.  Read at many fibers (:meth:`Process.over`), it runs
    one batched flow (:meth:`SystemFlow.many`) per time over all of them.
    """
    if x.dim != sys.state_dim:
        raise ValueError("initial state dimension does not match the system")

    def states(t: Time, ws: Sequence[Fiber]) -> np.ndarray:
        starts = [w.shift(-t) for w in ws]
        return sys.many(t, starts, x.across(starts), u)

    return _memo_process(
        sys.state_dim, sys.time_kind,
        lambda t, w: sys(t, w.shift(-t), x(w.shift(-t)), u),
        label="pullback_traj",
        batch=lambda ts, ws: _by_time(ws, ts, sys.state_dim, lambda t: states(t, ws)),
    )


def output_traj(
    sys: SystemFlow,
    h: OutputMap,
    x: RandomVariable,
    u: Optional[Process] = None,
    pullback: bool = False,
) -> Process:
    """Output readout along the forward or pullback state trajectory.

    Forward outputs read ``h`` at the advanced fiber; pullback outputs read
    ``h`` at the fiber itself.
    """
    if pullback:
        state = pullback_traj(sys, x, u)
        return _memo_process(
            h.dim, sys.time_kind, lambda t, w: h(w, state(t, w)), label="pullback_output"
        )
    state = forward_traj(sys, x, u)
    return _memo_process(
        h.dim, sys.time_kind, lambda t, w: h(w.shift(t), state(t, w)), label="forward_output"
    )


# --------------------------------------------------------------------------
# axiom checking


def _random_cell_rv(rng: np.random.Generator, dim: int) -> RandomVariable:
    lo = tuple(rng.uniform(-2.0, 0.0, size=dim))
    hi = tuple(l + rng.uniform(0.2, 2.0) for l in lo)
    law = CellLaw("uniform", lo=lo, hi=hi)
    lag = int(rng.integers(-3, 4))
    return cell_noise(law, lag=lag)


def random_input(
    rng: np.random.Generator,
    dim: int,
    time_kind: str,
    max_splice: float = 8.0,
    depth: int = 0,
) -> Process:
    """Random member of the default input family.

    Draws among constants, stationary cell-noise processes, and (shallow)
    concatenations of the two; the family is closed under the operations
    the flow contract quantifies over.
    """
    kind = rng.integers(0, 4 if depth < 2 else 3)
    if kind == 0:
        return constant(rng.uniform(-1.5, 1.5, size=dim), time_kind)
    if kind in (1, 2):
        return stationary(_random_cell_rv(rng, dim), time_kind)
    left = random_input(rng, dim, time_kind, max_splice, depth + 1)
    right = random_input(rng, dim, time_kind, max_splice, depth + 1)
    if time_kind == "discrete":
        s = int(rng.integers(0, int(max_splice) + 1))
    else:
        s = float(rng.uniform(0.0, max_splice))
    return left.concat(right, s)


@dataclass(frozen=True)
class AxiomCheckReport:
    """Worst observed violation of each flow-contract clause."""

    time_zero_max: float
    splice_max_rel: float
    locality_max: float
    samples: int
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "time_zero_max": self.time_zero_max,
            "splice_max_rel": self.splice_max_rel,
            "locality_max": self.locality_max,
            "samples": self.samples,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _draw_time(rng: np.random.Generator, time_kind: str, hi: float) -> Time:
    if time_kind == "discrete":
        return int(rng.integers(0, int(hi) + 1))
    return float(rng.uniform(0.0, hi))


# random tuples a sampled check draws before evaluating them together; a
# block bounds the memory that drawn inputs hold
_BLOCK = 256


def _blocks(samples: int, draw: Callable[[], tuple]) -> Iterator[list[tuple]]:
    """``samples`` calls of ``draw``, in order, in blocks of at most
    ``_BLOCK``; each block is transposed into one tuple per field."""
    for start in range(0, samples, _BLOCK):
        rows = [draw() for _ in range(min(_BLOCK, samples - start))]
        yield list(zip(*rows))


def _fold_max(worst: float, values: np.ndarray) -> float:
    """The builtin ``max`` folded over ``values`` in order from ``worst``,
    except that a NaN value makes the result NaN."""
    for value in values.tolist():
        if math.isnan(value):
            return math.nan
        worst = max(worst, value)
    return worst


def check_axioms(
    sys: SystemFlow,
    samples: int = 200,
    seed: int = 0,
    tolerance: float | None = None,
    max_time: float = 10.0,
    input_family: Callable[[np.random.Generator], Process] | None = None,
    state_scale: float = 1.5,
) -> AxiomCheckReport:
    """Probe the flow contract on random tuples.

    Violations are reported, not raised.  Discrete flows are held to exact
    zero; continuous flows to ``tolerance`` relative error (default 1e-9).
    A NaN residual makes its clause NaN, which fails.  Tuples are drawn in
    blocks, and each role of a block (time zero, the two splice halves,
    the spliced flow, the two locality flows) is one batched flow
    (:meth:`SystemFlow.many`).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    if tolerance is None:
        tolerance = 0.0 if sys.is_discrete else 1e-9
    if input_family is None:
        def input_family(r: np.random.Generator) -> Process:
            return random_input(r, sys.input_dim, sys.time_kind, max_splice=max_time)

    def draw() -> tuple:
        w = Fiber(int(rng.integers(0, 2**32)),
                  0 if sys.is_discrete else float(rng.uniform(0.0, 1.0)))
        x = rng.uniform(-state_scale, state_scale, size=sys.state_dim)
        u = input_family(rng) if sys.input_dim else None
        v = input_family(rng) if sys.input_dim else None
        s = _draw_time(rng, sys.time_kind, max_time)
        t = _draw_time(rng, sys.time_kind, max_time)
        # Replace the input beyond the horizon; values on [0, t) are
        # untouched, so the flow at t must not move.
        patched = u.concat(input_family(rng), t) if u is not None else None
        return w, x, u, v, s, t, patched

    worst_zero = 0.0
    worst_splice = 0.0
    worst_local = 0.0
    for ws, xs, us, vs, ss, ts, patched in _blocks(samples, draw):
        xs = np.array(xs)
        worst_zero = _fold_max(
            worst_zero, np.max(np.abs(sys.many(0, ws, xs, us) - xs), axis=1))

        y = sys.many(ss, ws, xs, us)
        z = sys.many(ts, [w.shift(s) for w, s in zip(ws, ss)], y, vs)
        spliced = [u.concat(v, s) if u is not None else None for u, v, s in zip(us, vs, ss)]
        lhs = sys.many([s + t for s, t in zip(ss, ts)], ws, xs, spliced)
        worst_splice = _fold_max(
            worst_splice,
            np.max(np.abs(lhs - z), axis=1) / (1.0 + np.max(np.abs(z), axis=1)),
        )

        if sys.input_dim:
            worst_local = _fold_max(worst_local, np.max(np.abs(
                sys.many(ts, ws, xs, us) - sys.many(ts, ws, xs, patched)), axis=1))

    passed = (
        worst_zero <= tolerance
        and worst_splice <= tolerance
        and worst_local <= tolerance
    )
    return AxiomCheckReport(
        time_zero_max=worst_zero,
        splice_max_rel=worst_splice,
        locality_max=worst_local,
        samples=samples,
        tolerance=tolerance,
        passed=passed,
    )


# --------------------------------------------------------------------------
# equilibria and characteristics


@dataclass(frozen=True)
class EquilibriumReport:
    max_residual: float
    tolerance: float
    passed: bool
    fibers: int
    times: tuple

    def as_dict(self) -> dict:
        return {
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "fibers": self.fibers,
            "times": list(self.times),
        }


def check_equilibrium(
    sys: SystemFlow,
    cand: EquilibriumCandidate,
    times: Sequence[Time],
    fibers: Sequence[Fiber],
    tol: float = 1e-9,
) -> EquilibriumReport:
    """Residual of the constant-pullback property for a candidate state.

    For every grid time and probe fiber, compares the pullback trajectory
    started at the candidate against the candidate's own value at the
    fiber.  Each grid time evaluates all probe fibers at once.
    """
    if cand.input is not None and sys.input_dim and cand.input.dim != sys.input_dim:
        raise ValueError("candidate input dimension does not match the system")
    traj = pullback_traj(sys, cand.rv, cand.input)
    target = cand.rv.across(fibers)
    gaps = np.max(np.abs(traj.over(times, fibers) - target[:, None]), axis=2)
    worst = 0.0
    for gap in gaps.ravel().tolist():  # fiber by fiber, as max() orders NaNs
        worst = max(worst, gap)
    return EquilibriumReport(
        max_residual=worst,
        tolerance=tol,
        passed=worst <= tol,
        fibers=len(fibers),
        times=tuple(times),
    )


@dataclass(frozen=True)
class CharacteristicEstimate:
    """Pullback-limit estimate of the state reached under a stationary input."""

    estimate: RandomVariable
    per_fiber: dict[int, tuple[float, ...]]
    tail_diagnostic: dict[int, float]
    converged: dict[int, bool]
    all_converged: bool
    equilibrium: EquilibriumReport
    horizon: float
    tol: float

    def as_dict(self) -> dict:
        return {
            "per_fiber": {str(k): list(v) for k, v in sorted(self.per_fiber.items())},
            "tail_diagnostic": {str(k): v for k, v in sorted(self.tail_diagnostic.items())},
            "converged": {str(k): v for k, v in sorted(self.converged.items())},
            "all_converged": self.all_converged,
            "equilibrium": self.equilibrium.as_dict(),
            "horizon": self.horizon,
            "tol": self.tol,
        }


def _tail_grid(time_kind: str, horizon: float, points: int = 9) -> list[Time]:
    if time_kind == "discrete":
        lo = int(np.ceil(horizon / 2))
        step = max(1, (int(horizon) - lo) // (points - 1) or 1)
        grid = list(range(lo, int(horizon), step)) + [int(horizon)]
        return sorted(set(grid))
    grid = np.linspace(horizon / 2, horizon, points)
    return [float(g) for g in grid]


def estimate_characteristic(
    sys: SystemFlow,
    u: RandomVariable,
    x0: RandomVariable,
    horizon: float,
    tol: float,
    fibers: Sequence[Fiber],
    equilibrium_times: Sequence[Time] | None = None,
) -> tuple[RandomVariable, CharacteristicEstimate]:
    """Estimate the pullback limit under the stationary input built on ``u``.

    Per probe fiber, takes the pullback state at the horizon as the limit
    estimate and reports the Cauchy tail over the second half of the run;
    a fiber counts as converged when the tail stays within ``tol``.  Any
    limit of pullback trajectories is an equilibrium, so the estimate is
    additionally pushed through the equilibrium residual check (at ten
    times ``tol``).  Each grid time evaluates all probe fibers at once, and
    so do batched reads of the estimate.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    bar_u = stationary(u, sys.time_kind) if sys.input_dim else None
    traj = pullback_traj(sys, x0, bar_u)
    grid = _tail_grid(sys.time_kind, horizon)
    final_t = grid[-1]

    states = traj.over(grid, fibers)
    ends = states[:, -1]
    gaps = np.max(np.abs(states - ends[:, None]), axis=2)
    per_fiber: dict[int, tuple[float, ...]] = {}
    tail: dict[int, float] = {}
    converged: dict[int, bool] = {}
    for i in range(len(fibers)):
        per_fiber[i] = tuple(ends[i].tolist())
        tail[i] = max(gaps[i].tolist())
        converged[i] = tail[i] <= tol

    def estimate_over(ws: Sequence[Fiber], ts: np.ndarray) -> np.ndarray:
        # one batched pullback per column of times, shared or per fiber
        columns = np.broadcast_to(ts, (len(ws), ts.shape[-1])).T.tolist()
        out = np.empty((len(ws), len(columns), sys.state_dim))
        for i, column in enumerate(columns):
            out[:, i] = traj.over([final_t], [w.shift(t) for w, t in zip(ws, column)])[:, 0]
        return out

    estimate = RandomVariable(
        sys.state_dim, lambda w: traj(final_t, w), label="pullback_limit", batch=estimate_over,
    )

    if equilibrium_times is None:
        if sys.is_discrete:
            equilibrium_times = list(range(0, 11))
        else:
            equilibrium_times = [float(v) for v in np.linspace(0.0, 10.0, 11)]
    eq_report = check_equilibrium(
        sys,
        EquilibriumCandidate(estimate, bar_u),
        times=equilibrium_times,
        fibers=fibers,
        tol=10.0 * tol,
    )

    report = CharacteristicEstimate(
        estimate=estimate,
        per_fiber=per_fiber,
        tail_diagnostic=tail,
        converged=converged,
        all_converged=all(converged.values()),
        equilibrium=eq_report,
        horizon=float(horizon),
        tol=float(tol),
    )
    return estimate, report
