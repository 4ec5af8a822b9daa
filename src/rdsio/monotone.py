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
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .mpds import Fiber, RandomVariable, TemperednessReport, temperedness_report
from .process import Process, Time, constant
from .rdsi import SystemFlow, _blocks, pullback_traj, random_input

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

    def leq(self, x, y, slack: float = 0.0) -> bool:
        return bool(np.all(np.asarray(x) <= np.asarray(y) + slack))

    def margin(self, x, y) -> float:
        """Smallest componentwise gap ``y - x``; negative means unordered."""
        return float(np.min(np.asarray(y) - np.asarray(x)))


@dataclass(frozen=True)
class MonotoneReport:
    violations: int
    worst_margin: float
    samples: int
    slack: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "samples": self.samples,
            "slack": self.slack,
            "passed": self.passed,
        }


def check_monotone(
    sys: SystemFlow,
    order: OrthantOrder,
    samples: int = 1000,
    seed: int = 0,
    max_time: float = 8.0,
    gap_range: tuple[float, float] = (0.1, 1.0),
    state_scale: float = 1.5,
    slack: float | None = None,
    input_family: Callable[[np.random.Generator], Process] | None = None,
) -> MonotoneReport:
    """Sample ordered state/input pairs and count order violations.

    Each sample draws ``x <= z`` (componentwise, with gaps bounded away
    from zero) and ``u <= v`` as processes, then compares the flows.
    Discrete flows are held to exact order; continuous ones get a small
    float slack.  A NaN margin counts as a violation; ``worst_margin`` is
    the least margin that is not NaN.  Samples are drawn in blocks, and
    the x and z flows of a block are one batched flow each
    (:meth:`SystemFlow.many`).
    """
    if order.dim != sys.state_dim:
        raise ValueError("order dimension does not match the system state")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    if slack is None:
        slack = 0.0 if sys.is_discrete else 1e-12
    if input_family is None:
        def input_family(r: np.random.Generator) -> Process:
            return random_input(r, sys.input_dim, sys.time_kind, max_splice=max_time)

    def draw() -> tuple:
        w = Fiber(int(rng.integers(0, 2**32)),
                  0 if sys.is_discrete else float(rng.uniform(0.0, 1.0)))
        if sys.is_discrete:
            t = int(rng.integers(0, int(max_time) + 1))
        else:
            t = float(rng.uniform(0.0, max_time))
        x = rng.uniform(-state_scale, state_scale, size=sys.state_dim)
        z = x + rng.uniform(*gap_range, size=sys.state_dim)
        if sys.input_dim:
            u = input_family(rng)
            lift = rng.uniform(*gap_range, size=sys.input_dim)
            v = u + constant(lift, sys.time_kind)
        else:
            u = v = None
        return w, t, x, z, u, v

    violations = 0
    worst = math.inf
    for ws, ts, xs, zs, us, vs in _blocks(samples, draw):
        lows = sys.many(ts, ws, np.array(xs), us)
        highs = sys.many(ts, ws, np.array(zs), vs)
        for low, high in zip(lows, highs):
            margin = order.margin(low, high)
            worst = min(worst, margin)  # the builtin skips a NaN here
            if not margin >= -slack:
                violations += 1

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

    ``lower``/``upper`` evaluate, at any fiber, the componentwise inf/sup
    over grid times ``t`` in ``[tau, horizon]`` of the process's pullback
    value; for cell-aligned processes the grid inf/sup is the true one.
    The sandwich ``lower(shift(w, t)) <= u(t, w) <= upper(shift(w, t))``
    holds exactly for every grid time ``t >= tau``.
    """

    lower: RandomVariable
    upper: RandomVariable
    tau: Time
    horizon: Time
    grid: tuple[Time, ...]


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
    fibers: Sequence[Fiber] = (),
    value_cap: float = 1e12,
) -> BracketPair:
    """Running inf/sup envelopes of the pullback of ``u`` from ``tau`` on.

    The envelopes are genuine random variables (evaluable at any fiber,
    shifted or not), which is what the sandwich inequality quantifies
    over.  Probe fibers, when given, are scanned eagerly so unbounded
    pullbacks fail fast.
    """
    grid = _bracket_grid(u, tau, horizon)

    def values(w: Fiber) -> np.ndarray:
        rows = np.empty((len(grid), u.dim))
        for i, t in enumerate(grid):
            rows[i] = u(t, w.shift(-t))
        if not np.all(np.isfinite(rows)) or np.max(np.abs(rows)) > value_cap:
            raise ValueError("pullback of the process is unbounded on the sampled window")
        return rows

    lower = RandomVariable(u.dim, lambda w: values(w).min(axis=0), label=f"bracket_lower[{tau}]")
    upper = RandomVariable(u.dim, lambda w: values(w).max(axis=0), label=f"bracket_upper[{tau}]")
    for w in fibers:
        values(w)
    return BracketPair(lower=lower, upper=upper, tau=tau, horizon=horizon, grid=grid)


@dataclass(frozen=True)
class CicsReport:
    """Outcome of a converging-input experiment against a characteristic oracle.

    ``final_residuals[j][i]`` is the distance of the pullback state from
    the oracle limit at the schedule's final time, for initial state ``j``
    on probe fiber ``i``.
    """

    monotone: MonotoneReport
    input_residual_temperedness: TemperednessReport
    final_residuals: tuple[tuple[float, ...], ...]
    max_final_residual: float
    worst_fiber: int
    tol: float
    converged: bool
    dominating_temperedness: TemperednessReport
    traces: tuple[tuple[int, float, str, int, float], ...]

    def as_dict(self) -> dict:
        return {
            "monotone": self.monotone.as_dict(),
            "input_residual_temperedness": self.input_residual_temperedness.as_dict(),
            "max_final_residual": self.max_final_residual,
            "worst_fiber": self.worst_fiber,
            "tol": self.tol,
            "converged": self.converged,
            "dominating_temperedness": self.dominating_temperedness.as_dict(),
        }


def cics_experiment(
    sys: SystemFlow,
    characteristic_oracle: Callable[[RandomVariable], RandomVariable],
    u: Process,
    u_inf: RandomVariable,
    x_set: Sequence[RandomVariable],
    schedule: Sequence[Time],
    tol: float,
    fibers: Sequence[Fiber],
    order: Optional[OrthantOrder] = None,
    monotone_samples: int = 200,
    monotone_seed: int = 0,
    temper_horizon: float = 20.0,
) -> CicsReport:
    """Drive a monotone system with a converging input and check the limit.

    Preconditions are probed, not assumed: the order property is sampled,
    and the input's pullback residual against its limit gets a temperedness
    diagnostic.  For each initial state, the pullback trajectory must land
    within ``tol`` of the oracle's limit state at the schedule's final
    time, on every probe fiber.
    """
    if not schedule:
        raise ValueError("schedule must contain at least one time")
    if not x_set:
        raise ValueError("need at least one initial state")
    order = order or OrthantOrder(sys.state_dim)
    schedule = sorted(schedule)
    final_t = schedule[-1]

    mono = check_monotone(sys, order, samples=monotone_samples, seed=monotone_seed)

    tail_times = [t for t in schedule if t >= schedule[len(schedule) // 2]]
    input_residual = RandomVariable(
        1,
        lambda w: np.array(
            [max(float(np.max(np.abs(u(t, w.shift(-t)) - u_inf(w)))) for t in tail_times)]
        ),
        label="input_pullback_residual",
    )
    input_temper = temperedness_report(
        input_residual, fibers[0], gammas=(0.25, 0.5, 1.0), horizon=temper_horizon
    )

    limit = characteristic_oracle(u_inf).memoized()
    traces: list[tuple[int, float, str, int, float]] = []
    finals: list[tuple[float, ...]] = []
    worst = 0.0
    worst_fiber = -1
    trace_fibers = min(len(fibers), 10)
    for j, x0 in enumerate(x_set):
        traj = pullback_traj(sys, x0, u)
        row = []
        for i, w in enumerate(fibers):
            target = limit(w)
            if i < trace_fibers:
                for t in schedule:
                    resid = float(np.max(np.abs(traj(t, w) - target)))
                    traces.append((i, float(t), f"residual_x{j}", 0, resid))
            final_resid = float(np.max(np.abs(traj(final_t, w) - target)))
            row.append(final_resid)
            if final_resid > worst:
                worst, worst_fiber = final_resid, i
        finals.append(tuple(row))

    dominating = RandomVariable(
        1,
        lambda w: np.array(
            [
                max(
                    float(
                        np.max(
                            np.abs(
                                sys(t, w.shift(-t), x_set[0](w.shift(-t)), u) - limit(w)
                            )
                        )
                    )
                    for t in tail_times
                )
            ]
        ),
        label="dominating_residual",
    )
    dom_temper = temperedness_report(
        dominating, fibers[0], gammas=(0.25, 0.5, 1.0), horizon=temper_horizon
    )

    return CicsReport(
        monotone=mono,
        input_residual_temperedness=input_temper,
        final_residuals=tuple(finals),
        max_final_residual=worst,
        worst_fiber=worst_fiber,
        tol=float(tol),
        converged=worst <= tol,
        dominating_temperedness=dom_temper,
        traces=tuple(traces),
    )
