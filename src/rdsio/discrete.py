"""Discrete-time flows built from one-step maps, and the inverse direction.

A discrete flow is completely determined by what it does in a single step:
iterating the one-step map along the advancing fiber reproduces the flow,
and evaluating any discrete flow for one step under a frozen constant
input recovers the one-step map.  Both directions are exact in integer
arithmetic; the round trips are identities.
A step advances a batch of independent ``(fiber, state, input value)``
rows in one call, and :func:`_step_rows` is the one loop that iterates it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import rdsi
from .mpds import CellLaw, Fibers, law_cells
from .process import InputTable, Process
from .rdsi import Inputs, SystemFlow

__all__ = ["Generator", "flow_from_generator", "generator_from_flow"]


@dataclass(frozen=True)
class Generator:
    """One-step map ``(fiber, state, input value) -> next state``, of many
    rows at once.

    ``fn(seeds, offsets, states, values, cells)`` maps the
    ``(B, state_dim)`` states and ``(B, input_dim)`` input values to the
    ``(B, state_dim)`` next states, row ``r`` stepping at
    ``Fiber(seeds[r], offsets[r])``; a step is given the seed words and
    offsets of a :class:`Fibers`.  ``noise`` declares the cell laws the
    step reads, and ``cells`` is their ``(B, sum of dims)`` values in each
    row's cell (:func:`law_cells`), the laws side by side in declared
    order; a step that reads no law (an opaque one) declares none and
    ignores its ``(B, 0)`` cells.  Rows are independent: a row's next
    state is bit-identical whatever rows it is stepped with.
    Deterministic in all arguments and continuous in ``(state, input
    value)``; systems with no input channel use ``input_dim == 0`` and
    receive ``(B, 0)`` values.
    """

    state_dim: int
    input_dim: int
    fn: Callable[[Sequence[int], np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    noise: tuple[CellLaw, ...] = ()

    def many(self, fibers: Fibers, xs: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The step of each row of the ``(B, state_dim)`` states ``xs``
        under the ``(B, input_dim)`` ``values`` at the matching fiber,
        ``(B, state_dim)``: ``fn`` given the cells of ``noise`` there."""
        cells = law_cells(self.noise, fibers, (0,))[:, 0]
        return np.asarray(self.fn(fibers.words, fibers.offsets, xs, values, cells), dtype=float)


def flow_from_generator(gen: Generator) -> SystemFlow:
    """Iterate a one-step map into a flow over integer times.

    The resulting flow satisfies the whole flow contract exactly: the
    recursion starts from the state itself at time zero and advances the
    fiber one cell per step, reading the input at the base fiber.  The
    flow of a batch of rows (:meth:`SystemFlow.many`) runs
    :func:`_step_rows`.
    """

    def flow(t, ws: Fibers, xs: np.ndarray, u: Inputs) -> np.ndarray:
        times = np.reshape(np.broadcast_to(t, len(ws)), (len(ws), 1))
        return _step_rows(gen, times, ws, xs, u)[:, 0]

    return SystemFlow(
        state_dim=gen.state_dim,
        input_dim=gen.input_dim,
        time_kind="discrete",
        flow=flow,
        generator=gen,
    )


def _step_rows(
    gen: Generator,
    times,
    fibers: Fibers,
    xs: np.ndarray,
    inputs: Optional[Process] | InputTable | np.ndarray,
) -> np.ndarray:
    """Row ``r`` iterated from ``xs[r]`` on ``fibers[r]`` under its
    input, recorded at each of its integer times ``times[r]``.

    ``times`` is ``(F, n)``; returns the ``(F, n, state_dim)`` states.
    Each row is stepped to its largest time, all live rows together by one
    ``gen.fn`` call per step.  Rows are kept in order of decreasing
    horizon, so the live rows at step ``k`` are a prefix; each row retires
    at its own horizon and uses no input at or beyond it.  The noise
    orbit and the input do not depend on the states, so both are read
    ahead for a block of steps at once, for the rows live at its first
    step: one :func:`law_cells` and one input read of at most
    ``rdsi._BATCH_VALUES`` cell values (or one step), and the next block
    once its steps are taken; step ``k`` is given their column.  The
    input is one shared process or a table, read by ``over``, or an
    ``(F, steps, dim)`` array of values already read, sliced by block.
    With no input, all rows step with empty input values, on which a step
    that reads its input raises.
    """
    times = np.asarray(times)
    if times.dtype.kind not in "iu" and times.size and not (
            np.all(np.isfinite(times)) and np.all(times == np.trunc(times))):
        raise ValueError("discrete flows take integer times")
    horizons = times.max(axis=1, initial=0).astype(np.int64)
    order = np.argsort(-horizons, kind="stable")
    rank, horizons = np.argsort(order), horizons[order].tolist()  # rank[r]: r's place in order
    descending = [-h for h in horizons]
    stepping = bisect_left(descending, 0)  # rows with a positive horizon
    steps = horizons[0] if stepping else 0
    if isinstance(inputs, InputTable):
        inputs = inputs[order[:stepping]]  # live rows are then a prefix
        if np.any(np.diff(order[:stepping]) < 0):
            inputs = inputs.packed()  # the sort moved rows: keep their nodes near

    states = np.array(xs, dtype=float)[order]
    out = np.empty(times.shape + (gen.state_dim,))
    by_time = np.argsort(times, axis=None, kind="stable")  # flat grid entries, once
    cuts = np.searchsorted(times.ravel()[by_time], np.arange(steps + 2)).tolist()
    seeds, offsets = fibers.words[order], fibers.offsets[order]
    dims = max(1, sum(law.dim for law in gen.noise))  # the values in one cell of all laws
    start = end = 0  # the steps whose cells and input values are read
    for k in range(steps + 1):
        at = by_time[cuts[k]:cuts[k + 1]]  # the entries whose time is k
        out.reshape(-1, gen.state_dim)[at] = states[rank[at // times.shape[1]]]
        if k < steps:
            live = bisect_left(descending, -k)  # rows whose horizon exceeds k
            if k == end:
                start, end = k, min(steps, k + max(1, int(rdsi._BATCH_VALUES // (live * dims))))
                block = Fibers(seeds[:live], offsets[:live])
                cells = law_cells(gen.noise, block, np.arange(start, end))
                values = np.zeros((live, end - start, 0))
                if isinstance(inputs, np.ndarray):
                    values = inputs[order[:live], start:end]
                elif gen.input_dim and inputs is not None:
                    rows = inputs[:live] if isinstance(inputs, InputTable) else inputs
                    values = rows.over(block, np.arange(start, end))
                    if values.shape[2] != gen.input_dim:
                        raise ValueError(f"input value has dimension {values.shape[2]}, "
                                         f"generator expects {gen.input_dim}")
            states[:live] = gen.fn(seeds[:live], offsets[:live] + k, states[:live],
                                   values[:live, k - start], cells[:live, k - start])
    return out


def generator_from_flow(sys: SystemFlow) -> Generator:
    """Recover the one-step map of a discrete flow.

    Evaluates the flow for a single step, one batched flow
    (:meth:`SystemFlow.many`) over the rows, each under the constant input
    frozen at its probed value (one table of constant rows); by the flow
    contract this determines the flow at every horizon, so composing back
    through :func:`flow_from_generator` reproduces the original flow
    pointwise.
    """
    if not sys.is_discrete:
        raise ValueError("only discrete flows have one-step generators")

    def fn(seeds, offsets: np.ndarray, xs: np.ndarray, values: np.ndarray,
           _cells: np.ndarray) -> np.ndarray:
        # the flow reads its own cells; the step declares no law
        inputs = InputTable.constants(values, "discrete") if sys.input_dim else None
        return sys.many(1, Fibers(seeds, offsets), xs, inputs)

    return Generator(state_dim=sys.state_dim, input_dim=sys.input_dim, fn=fn)
