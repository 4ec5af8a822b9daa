"""System flows driven by noise fibers and external inputs.

Houses the contract every concrete system satisfies: evaluation at time
zero is the identity, flowing for ``s`` then restarting for ``t`` on the
advanced fiber matches one flow of ``s + t`` under the spliced input, and
the flow only reads input values on ``[0, t)`` along the evaluation fiber.
On top of the contract sit forward and pullback trajectories, forward
output trajectories, equilibrium checking, and pullback-limit estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

import numpy as np

from .mpds import CellLaw, Fiber, Fibers, RandomVariable, _over_points, fiberwise, law_cells
from .process import InputTable, Process, Time, _Nodes, stationary

if TYPE_CHECKING:  # pragma: no cover
    from .discrete import Generator

# the input argument of a batched flow: one process (or None), or a table
Inputs = Optional[Process] | InputTable

_INPUT_FORMS = "None, one Process shared by every fiber, or an InputTable of one row per fiber"

__all__ = [
    "SystemFlow",
    "OutputMap",
    "AxiomCheckReport",
    "EquilibriumReport",
    "CharacteristicEstimate",
    "draw_inputs",
    "forward_traj",
    "pullback_traj",
    "output_traj",
    "check_axioms",
    "check_equilibrium",
    "estimate_characteristic",
]


@dataclass(frozen=True)
class SystemFlow:
    """A flow ``(t, fiber, state, input process) -> state``, of many rows
    at once.

    ``flow(t, fibers, xs, u)`` maps the ``(F, state_dim)`` states ``xs``
    to their flows on the :class:`Fibers` ``fibers``, receiving the time
    and input arguments of :meth:`many` as they were passed.  Rows are
    independent: a row's flow is bit-identical whatever rows it flows
    with.  ``input_dim == 0`` marks an autonomous system; such flows
    accept ``None`` for the input argument.  Discrete flows built from a
    one-step generator carry it in ``generator``; the flow must then be
    that generator's iteration, since batched trajectory reads step it.
    """

    state_dim: int
    input_dim: int
    time_kind: str
    flow: Callable[[Time | Sequence[Time], Fibers, np.ndarray, Inputs], np.ndarray]
    generator: "Generator | None" = None

    def __call__(
        self, t: Time, fiber: Fiber, x, u: Optional[Process] = None
    ) -> np.ndarray:
        """The flow of one row: the one-row case of :meth:`many`."""
        return self.many(t, Fibers([fiber.seed], [fiber.offset]),
                         np.atleast_1d(np.asarray(x, dtype=float))[None], u)[0]

    def many(
        self, t: Time | Sequence[Time], fibers: Fibers, xs,
        u: Inputs = None,
    ) -> np.ndarray:
        """The flow at each fiber, from the matching row of the
        ``(F, state_dim)`` states ``xs``; returns ``(F, state_dim)``.

        ``t`` is one time for every fiber or a sequence of one time per
        fiber, and ``u`` one input process (or None) for every fiber, or
        an :class:`InputTable` of one row per fiber.
        """
        shape = (len(fibers), self.state_dim)
        self._check_input(u)
        if (np.ndim(t) and len(t) != len(fibers)) or (
                isinstance(u, InputTable) and len(u) != len(fibers)):
            raise ValueError("need one time and one input per fiber")
        if np.any(np.asarray(t) < 0):
            raise ValueError("flows are defined for t >= 0")
        xs = np.asarray(xs, dtype=float)
        if xs.shape != shape:
            raise ValueError(f"states have shape {xs.shape}, expected {shape}")
        return np.asarray(self.flow(t, fibers, xs, u), dtype=float).reshape(shape)

    def _check_input(self, u: Inputs) -> None:
        if not (u is None or isinstance(u, (Process, InputTable))):
            raise ValueError(f"the input must be {_INPUT_FORMS}, got {type(u).__name__}")
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

    ``fn(seeds, offsets, states, cells)`` maps ``(B, n)`` states to
    ``(B, dim)`` readouts, row ``r`` read at ``Fiber(seeds[r],
    offsets[r])``; rows are independent, as in a step.  A noisy readout
    declares the cell laws it reads in ``noise``, and ``cells`` is their
    ``(B, sum of dims)`` values in each row's cell, side by side in
    declared order, as a :class:`~rdsio.discrete.Generator` is given its
    cells.  The batched reads pass the seed words and offsets of a
    :class:`Fibers`.
    """

    dim: int
    fn: Callable[[Sequence[int], np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    noise: tuple[CellLaw, ...] = ()

    def many(self, fibers: Fibers, xs) -> np.ndarray:
        """The readout of each row of the ``(F, n)`` states ``xs`` at the
        matching fiber, ``(F, dim)``."""
        cells = law_cells(self.noise, fibers, (0,))[:, 0]
        out = self.fn(fibers.words, fibers.offsets, np.asarray(xs, dtype=float), cells)
        return np.asarray(out, dtype=float).reshape(len(fibers), self.dim)

    def over(self, fibers: Fibers, times, states: np.ndarray) -> np.ndarray:
        """The ``(F, n, state_dim)`` states read out, ``[f, i]`` at
        ``fibers[f]`` shifted by its ``i``-th time (1-D ``times`` or ``(F,
        n)``), as ``(F, n, dim)``: one :meth:`many` per block of points,
        whose cells hold at most ``_BATCH_VALUES`` values (or one point)."""
        times = np.asarray(times)
        dims = max(1, sum(law.dim for law in self.noise))  # the values in one cell of all laws
        return _over_points(times, len(fibers), max(1, _BATCH_VALUES // dims),
                            lambda rows, f, t: self.many(fibers[f].shift(t),
                                                         states[f, rows % times.shape[-1]]),
                            self.dim)


def forward_traj(
    sys: SystemFlow,
    x: RandomVariable,
    u: Optional[Process] = None,
) -> Process:
    """Trajectory process: flow from the random state along the fiber.

    Lazy; evaluate on whatever grid the caller needs.  A point is the flow
    ``sys(t, fiber, x0, u)`` from the value ``x0`` of ``x`` at the fiber,
    and a read at many times and fibers (:meth:`Process.over`) one batched
    flow per block of at most ``_BATCH_VALUES`` of its (fiber, time) rows
    (:func:`~rdsio.mpds._over_points`).  On a generator-driven discrete
    flow it is one scan of all fibers to the largest time that records
    each requested time, so a grid up to horizon ``T`` costs ``T`` steps.
    """
    if x.dim != sys.state_dim:
        raise ValueError("initial state dimension does not match the system")

    def fn(ws: Fibers, ts: np.ndarray) -> np.ndarray:
        xs = x.across(ws)
        if sys.generator is None:
            return _over_points(ts, len(ws), _BATCH_VALUES,
                                lambda _, f, t: sys.many(t, ws[f], xs[f], u), sys.state_dim)
        from .discrete import _step_rows

        sys._check_input(u)
        return _step_rows(sys.generator, np.broadcast_to(ts, (len(ws), ts.shape[-1])),
                          ws, xs, u)

    return Process(sys.state_dim, sys.time_kind, fn)


def pullback_traj(
    sys: SystemFlow,
    x: RandomVariable | Sequence[RandomVariable],
    u: Optional[Process] = None,
) -> Process:
    """Pullback trajectory: start ``t`` in the past, observe at the fiber.

    The input is deliberately not shifted; its values are read along the
    rewound fiber.  ``x`` is one initial variable or a sequence of ``k``,
    whose pullbacks are side by side.  Read at many times and fibers
    (:meth:`Process.over`), it runs one batched flow per block of at most
    ``_BATCH_VALUES // k`` of its (fiber, time) points
    (:func:`~rdsio.mpds._over_points`), a row per point and initial
    variable, each from its fiber rewound by its time.
    """
    initial = [x] if isinstance(x, RandomVariable) else list(x)
    k = len(initial)
    if not k or any(v.dim != sys.state_dim for v in initial):
        raise ValueError("need initial states of the system's state dimension")

    def fn(ws: Fibers, ts: np.ndarray) -> np.ndarray:
        def flow(_, f: np.ndarray, t: np.ndarray) -> np.ndarray:
            starts = ws[f].shift(-t)
            xs = np.stack([v.across(starts) for v in initial], axis=1)
            rows = starts[np.arange(len(f)).repeat(k)]
            flows = sys.many(t.repeat(k), rows, xs.reshape(-1, sys.state_dim), u)
            return flows.reshape(len(f), -1)

        return _over_points(ts, len(ws), max(1, _BATCH_VALUES // k), flow, k * sys.state_dim)

    return Process(k * sys.state_dim, sys.time_kind, fn)


def output_traj(
    sys: SystemFlow,
    h: OutputMap,
    x: RandomVariable,
    u: Optional[Process] = None,
) -> Process:
    """Output readout along the forward state trajectory, read at the
    advanced fiber: one read of the state trajectory and its readout
    (:meth:`OutputMap.over`)."""
    state = forward_traj(sys, x, u)
    return Process(h.dim, sys.time_kind, lambda ws, ts: h.over(ws, ts, state.over(ws, ts)))


# --------------------------------------------------------------------------
# axiom checking


def _draw_times(rng: np.random.Generator, count: int, time_kind: str, hi: float) -> np.ndarray:
    """``count`` uniform times in ``[0, hi]``, integers in discrete time."""
    if time_kind == "discrete":
        return rng.integers(0, int(hi) + 1, size=count)
    return rng.uniform(0.0, hi, size=count)


def _draw_fibers(rng: np.random.Generator, count: int, time_kind: str) -> Fibers:
    """``count`` random fibers: uniform 32-bit seeds, at offset 0 in
    discrete time and at uniform offsets in ``[0, 1)`` in continuous time."""
    seeds = rng.integers(0, 2**32, size=count, dtype=np.uint64)
    if time_kind == "discrete":
        return Fibers(seeds, np.zeros(count, dtype=np.int64))
    return Fibers(seeds, rng.uniform(0.0, 1.0, size=count))


def draw_inputs(
    rng: np.random.Generator,
    count: int,
    dim: int,
    time_kind: str,
    max_splice: float = 8.0,
) -> InputTable:
    """``count`` random members of the default input family, as the rows
    of one :class:`InputTable`.

    A member is a constant, stationary cell noise of the uniform law on a
    random box read a random number of cells on, or (at depths 0 and 1)
    the splice of two more members at a random time; the family is closed
    under the operations the flow contract quantifies over.  The open
    slots are drawn one depth at a time: one draw of the kinds of all
    slots at that depth, then one draw per field of its constants, cells
    and splices, so a table costs a fixed number of ``rng`` calls however
    many rows it has.  Each depth's nodes follow the previous depth's, the
    roots first, and the head and tail of a depth's ``j``-th splice are
    slots ``2j`` and ``2j + 1`` of the next depth.
    """
    levels, base, slots, depth = [], 0, count, 0
    while True:
        kind = rng.integers(0, 4 if depth < 2 else 3, size=slots)
        constant, cell, splice = kind == 0, (kind == 1) | (kind == 2), kind == 3
        cells, splices = np.count_nonzero(cell), np.count_nonzero(splice)
        value, lo, hi = np.zeros((3, slots, dim))
        value[constant] = rng.uniform(-1.5, 1.5, size=(np.count_nonzero(constant), dim))
        lo[cell] = rng.uniform(-2.0, 0.0, size=(cells, dim))
        hi[cell] = lo[cell] + rng.uniform(0.2, 2.0, size=(cells, dim))
        lag = np.zeros(slots, dtype=np.int64)
        lag[cell] = rng.integers(-3, 4, size=cells)
        split = np.zeros(slots, dtype=np.int64 if time_kind == "discrete" else float)
        split[splice] = _draw_times(rng, splices, time_kind, max_splice)
        head = base + np.arange(slots)
        tail = head.copy()
        head[splice] = base + slots + 2 * np.arange(splices)
        tail[splice] = head[splice] + 1
        levels.append(_Nodes(split, head, tail, cell, value, lo, hi, lag))
        base, slots, depth = base + slots, 2 * splices, depth + 1
        if not slots:
            break
    nodes = _Nodes(*map(np.concatenate, zip(*levels)))
    return InputTable(dim, time_kind, nodes, np.arange(count))


@dataclass(frozen=True)
class AxiomCheckReport:
    """Worst observed violation of each flow-contract clause."""

    time_zero_max: float
    splice_max_rel: float
    locality_max: float
    samples: int
    tolerance: float
    passed: bool


# random tuples a sampled check draws at a time, which fixes its draw stream
_BLOCK = 256

# values that one batch of a sampled check's tuples flows over, at most
_BATCH_VALUES = 3 << 13


def _fold_max(worst: float, values) -> float:
    """The builtin ``max`` folded over ``values`` (floats or an array) in
    order from ``worst``, except that a NaN value makes the result NaN:
    ``worst`` or the first NaN or largest value, which ``argmax`` finds."""
    values = np.asarray(values, dtype=float).ravel()
    value = float(values[np.argmax(values)]) if values.size else worst
    return math.nan if math.isnan(value) else max(worst, value)


def _batches(blocks: Iterator[tuple], extent: float, evaluate: Callable) -> Iterator:
    """``evaluate`` of each batch of a sampled check's tuples: consecutive
    blocks, at most ``_BATCH_VALUES`` values (tuples times their time
    ``extent``) and at least one block, stacked field by field.  A block
    is dropped once stacked, and a batch once evaluated."""
    tuples = max(1, int(_BATCH_VALUES // max(1.0, extent)))
    batch: list[tuple] = []
    for block in blocks:
        if batch and sum(len(b[0]) for b in batch) + len(block[0]) > tuples:
            yield evaluate(*_stack(batch))
        batch.append(block)
    yield evaluate(*_stack(batch))


def _stack(blocks: list[tuple]) -> list:
    """Each field of ``blocks`` as the blocks' rows one after another (a
    lone block's own field, or None); the list is emptied."""
    fields = list(zip(*blocks))
    blocks.clear()
    for i, parts in enumerate(fields):
        if len(parts) == 1 or parts[0] is None:
            fields[i] = parts[0]
        elif isinstance(parts[0], Fibers):
            fields[i] = Fibers(np.concatenate([p.words for p in parts]),
                               np.concatenate([p.offsets for p in parts]))
        else:
            stack = InputTable.stack if isinstance(parts[0], InputTable) else np.concatenate
            fields[i] = stack(parts)
    return fields


def _axiom_draws(sys: SystemFlow, samples: int, seed: int,
                 max_time: float) -> Iterator[tuple]:
    """The random tuples of :func:`check_axioms`, one block of at most
    ``_BLOCK`` at a time, each field drawn for the whole block at once:
    the fibers, the ``(k, state_dim)`` states, the times ``s`` and ``t``,
    and the inputs (or None): one drawn table whose rows ``3 i``, ``3 i +
    1`` and ``3 i + 2`` are tuple ``i``'s ``u``, ``v`` and the input that
    replaces ``u`` from ``t`` on, drawn as rows ``i``, ``k + i``, ``2 k + i``.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, samples, _BLOCK):
        k = min(_BLOCK, samples - start)
        ws = _draw_fibers(rng, k, sys.time_kind)
        xs = rng.uniform(-1.5, 1.5, size=(k, sys.state_dim))
        ss = _draw_times(rng, k, sys.time_kind, max_time)
        ts = _draw_times(rng, k, sys.time_kind, max_time)
        inputs = None
        if sys.input_dim:
            table = draw_inputs(rng, 3 * k, sys.input_dim, sys.time_kind, max_time)
            inputs = table[np.arange(3 * k).reshape(3, k).T.ravel()]
        yield ws, xs, ss, ts, inputs


def check_axioms(
    sys: SystemFlow,
    samples: int = 200,
    seed: int = 0,
    tolerance: float | None = None,
    max_time: float = 10.0,
) -> AxiomCheckReport:
    """Probe the flow contract on random tuples.

    Violations are reported, not raised.  Discrete flows are held to exact
    zero; continuous flows to ``tolerance`` relative error (default 1e-9).
    A NaN residual makes its clause NaN, which fails.  Tuples are drawn a
    block at a time, each field as one array (:func:`_axiom_draws`), and
    flowed in batches of blocks (:func:`_batches`; the spliced flow runs
    to ``s + t <= 2 max_time``), their inputs spliced per row
    (:meth:`InputTable.concat`).  Each role of a batch (time zero, the two
    splice halves, the spliced flow, the two locality flows) is one
    batched flow (:meth:`SystemFlow.many`), and the maxima fold the
    tuples in order, so the result does not depend on the batching.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if tolerance is None:
        tolerance = 0.0 if sys.is_discrete else 1e-9

    def residuals(ws, xs, ss, ts, inputs) -> tuple:
        us = vs = afters = spliced = patched = None
        if sys.input_dim:
            us, vs, afters = inputs[0::3], inputs[1::3], inputs[2::3]
            # the patch replaces u from t on; values on [0, t) are
            # untouched, so the flow at t must not move
            spliced, patched = us.concat(vs, ss), us.concat(afters, ts)
        zero = np.max(np.abs(sys.many(0, ws, xs, us) - xs), axis=1)
        y = sys.many(ss, ws, xs, us)
        z = sys.many(ts, ws.shift(ss), y, vs)
        lhs = sys.many(ss + ts, ws, xs, spliced)
        splice = np.max(np.abs(lhs - z), axis=1) / (1.0 + np.max(np.abs(z), axis=1))
        local = np.max(np.abs(sys.many(ts, ws, xs, us) - sys.many(ts, ws, xs, patched)),
                       axis=1) if sys.input_dim else ()
        return zero, splice, local

    worst_zero = worst_splice = worst_local = 0.0
    draws = _axiom_draws(sys, samples, seed, max_time)
    for zero, splice, local in _batches(draws, 2 * max_time, residuals):
        worst_zero = _fold_max(worst_zero, zero)
        worst_splice = _fold_max(worst_splice, splice)
        worst_local = _fold_max(worst_local, local)

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


def check_equilibrium(
    sys: SystemFlow,
    rv: RandomVariable,
    u: Process | None,
    times: Sequence[Time],
    fibers: Fibers,
    tol: float = 1e-9,
) -> EquilibriumReport:
    """Residual of the constant-pullback property for the random state
    ``rv`` proposed as an equilibrium under the stationary input ``u``.

    For every grid time and probe fiber, compares the pullback trajectory
    started at ``rv`` against the value of ``rv`` at the fiber.  The
    pullback reads every (fiber, time) pair of the grid in batched flows
    (:func:`pullback_traj`).  A NaN residual makes the worst residual NaN,
    which fails.
    """
    if u is not None and sys.input_dim and u.dim != sys.input_dim:
        raise ValueError("candidate input dimension does not match the system")
    traj = pullback_traj(sys, rv, u)
    target = rv.across(fibers)
    worst = _fold_max(0.0, np.max(np.abs(traj.over(fibers, times) - target[:, None]), axis=2))
    return EquilibriumReport(max_residual=worst, tolerance=tol, passed=worst <= tol)


@dataclass(frozen=True)
class CharacteristicEstimate:
    """Pullback-limit estimate of the state reached under a stationary input.

    Row ``i`` of ``per_fiber`` (``(F, state_dim)``), ``tail_diagnostic``
    and ``converged`` (``(F,)`` each) belongs to probe fiber ``i``.
    """

    estimate: RandomVariable
    per_fiber: np.ndarray
    tail_diagnostic: np.ndarray
    converged: np.ndarray
    all_converged: bool


def _tail_grid(time_kind: str, horizon: float) -> list[Time]:
    """Nine times from half the horizon to the horizon (fewer in discrete
    time, where they are whole and distinct)."""
    if time_kind == "discrete":
        lo = int(np.ceil(horizon / 2))
        step = max(1, (int(horizon) - lo) // 8 or 1)
        return sorted(set(range(lo, int(horizon), step)) | {int(horizon)})
    return np.linspace(horizon / 2, horizon, 9).tolist()


def estimate_characteristic(
    sys: SystemFlow,
    u: RandomVariable,
    x0: RandomVariable,
    horizon: float,
    tol: float,
    fibers: Fibers,
) -> CharacteristicEstimate:
    """Estimate the pullback limit under the stationary input built on ``u``.

    Per probe fiber, takes the pullback state at the horizon as the limit
    estimate and reports the Cauchy tail over the second half of the run;
    a fiber counts as converged when the tail (NaN if any gap is) stays
    within ``tol``.  The tail is one pullback read of every (fiber, tail
    time) pair, and the estimate a :func:`~rdsio.mpds.fiberwise` variable,
    read at many points in one pullback read to the horizon.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    bar_u = stationary(u, sys.time_kind) if sys.input_dim else None
    traj = pullback_traj(sys, x0, bar_u)
    grid = _tail_grid(sys.time_kind, horizon)
    if len(grid) < 2:
        raise ValueError(f"the pullback tail at horizon {horizon} holds one time; need two")

    states = traj.over(fibers, grid)
    ends = states[:, -1]
    # the largest gap of each fiber from 0.0; np.max makes a row with a
    # NaN gap NaN, and no gap is -0.0
    tail = np.max(np.abs(states - ends[:, None]), axis=2).max(axis=1, initial=0.0)
    converged = tail <= tol

    # the pullback state at the horizon, of every point read at once
    estimate = fiberwise(sys.state_dim, lambda ws: traj.over(ws, grid[-1:])[:, 0])
    return CharacteristicEstimate(estimate=estimate, per_fiber=ends, tail_diagnostic=tail,
                                  converged=converged, all_converged=bool(converged.all()))
