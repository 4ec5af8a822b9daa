"""Discrete-time flows built from one-step maps, and the inverse direction.

A discrete flow is completely determined by what it does in a single step:
iterating the one-step map along the advancing fiber reproduces the flow,
and evaluating any discrete flow for one step under a frozen constant
input recovers the one-step map.  Both directions are exact in integer
arithmetic; the round trips are identities.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .mpds import Fiber
from .process import Process, constant
from .rdsi import Inputs, SystemFlow

__all__ = ["Generator", "flow_from_generator", "generator_from_flow"]

_NO_INPUT = np.zeros(0)


@dataclass(frozen=True)
class Generator:
    """One-step map ``(fiber, state, input value) -> next state``.

    Deterministic in all arguments and continuous in ``(state, input
    value)``; systems with no input channel use ``input_dim == 0`` and
    ignore the input argument.  ``columns``, when given, is the step of
    many rows at once: ``columns(seeds, offsets, states, values)`` maps the
    ``(B, state_dim)`` states and ``(B, input_dim)`` input values to the
    next states, row ``r`` stepping at ``Fiber(seeds[r], offsets[r])``; it
    must agree bitwise with ``fn``.
    """

    state_dim: int
    input_dim: int
    fn: Callable[[Fiber, np.ndarray, np.ndarray], np.ndarray]
    columns: Callable[
        [Sequence[int], np.ndarray, np.ndarray, np.ndarray], np.ndarray
    ] | None = None

    def __call__(self, fiber: Fiber, x, u_value=None) -> np.ndarray:
        state = np.atleast_1d(np.asarray(x, dtype=float))
        if state.size != self.state_dim:
            raise ValueError(
                f"state has dimension {state.size}, generator expects {self.state_dim}"
            )
        if self.input_dim:
            value = np.atleast_1d(np.asarray(u_value, dtype=float))
            if value.size != self.input_dim:
                raise ValueError(
                    f"input value has dimension {value.size}, generator expects {self.input_dim}"
                )
        else:
            value = np.zeros(0)
        return np.atleast_1d(np.asarray(self.fn(fiber, state, value), dtype=float))

    def extend(
        self, states: list[np.ndarray], w: Fiber, u: Optional[Process], n
    ) -> np.ndarray:
        """Advance a trajectory in place and return its state at time ``n``.

        ``states[k]`` is the state at time ``k`` on fiber ``w``; the list
        starts with the initial state and grows one step at a time, each
        step applying ``fn`` at the advanced fiber to the input read at
        ``w``.  States already present are reused, so a list kept across
        queries costs one step per time up to the largest query.
        """
        if n != int(n):
            raise ValueError("discrete flows take integer times")
        n = int(n)
        read_input = bool(self.input_dim) and u is not None
        state = states[-1]
        for k in range(len(states) - 1, n):
            if read_input:
                value = u(k, w)
                if value.size != self.input_dim:
                    raise ValueError(
                        f"input value has dimension {value.size}, "
                        f"generator expects {self.input_dim}"
                    )
            else:
                value = _NO_INPUT
            state = np.asarray(self.fn(w.shift(k), state, value), dtype=float)
            states.append(state)
        return states[n]


def flow_from_generator(gen: Generator) -> SystemFlow:
    """Iterate a one-step map into a flow over integer times.

    The resulting flow satisfies the whole flow contract exactly: the
    recursion starts from the state itself at time zero and advances the
    fiber one cell per step, reading the input at the base fiber.
    """

    def flow(n, w: Fiber, x: np.ndarray, u: Optional[Process]) -> np.ndarray:
        return gen.extend([np.asarray(x, dtype=float)], w, u, n)

    def flow_many(t, ws: Sequence[Fiber], xs: np.ndarray, u: Inputs) -> np.ndarray:
        inputs = [u] * len(ws) if u is None or isinstance(u, Process) else list(u)
        times = list(t) if np.ndim(t) else [t] * len(ws)
        if gen.input_dim and any(p is None for p in inputs):
            # a missing input reaches the step as an empty value
            return np.array([flow(*row) for row in zip(times, ws, xs, inputs)])
        return _step_rows(gen, times, ws, xs, inputs)

    return SystemFlow(
        state_dim=gen.state_dim,
        input_dim=gen.input_dim,
        time_kind="discrete",
        flow=flow,
        generator=gen,
        flow_many=flow_many if gen.columns is not None else None,
    )


def _step_rows(
    gen: Generator,
    times: list,
    fibers: Sequence[Fiber],
    xs: np.ndarray,
    inputs: list[Optional[Process]],
) -> np.ndarray:
    """Row ``r`` iterated ``times[r]`` steps from ``xs[r]`` on ``fibers[r]``
    under ``inputs[r]``, all live rows stepped together by ``gen.columns``.

    Rows are kept in order of decreasing horizon, so the live rows at step
    ``k`` are a prefix; each row retires at its own horizon and reads no
    input at or beyond it.  Every row is bit-identical to :meth:`Generator.extend`.
    """
    if any(n != int(n) for n in times):
        raise ValueError("discrete flows take integer times")
    order = sorted(range(len(fibers)), key=lambda r: -int(times[r]))
    horizons = [int(times[r]) for r in order]
    steps = horizons[0] if horizons else 0
    values = np.zeros((len(order), steps, gen.input_dim))
    if gen.input_dim:
        for i, r in enumerate(order):
            if horizons[i]:
                value = inputs[r].at(range(horizons[i]), fibers[r])
                if value.shape[1] != gen.input_dim:
                    raise ValueError(
                        f"input value has dimension {value.shape[1]}, "
                        f"generator expects {gen.input_dim}"
                    )
                values[i, : horizons[i]] = value
    states = np.array(xs, dtype=float)[order]
    seeds = [fibers[r].seed for r in order]
    offsets = np.array([fibers[r].offset for r in order])
    descending = [-n for n in horizons]
    for k in range(steps):
        live = bisect_left(descending, -k)  # rows whose horizon exceeds k
        states[:live] = gen.columns(seeds[:live], offsets[:live] + k, states[:live],
                                    values[:live, k])
    out = np.empty_like(states)
    out[order] = states
    return out


def generator_from_flow(sys: SystemFlow) -> Generator:
    """Recover the one-step map of a discrete flow.

    Evaluates the flow for a single step under the constant input frozen at
    the probed value; by the flow contract this determines the flow at
    every horizon, so composing back through :func:`flow_from_generator`
    reproduces the original flow pointwise.
    """
    if not sys.is_discrete:
        raise ValueError("only discrete flows have one-step generators")

    def fn(w: Fiber, x: np.ndarray, value: np.ndarray) -> np.ndarray:
        u = constant(value, "discrete") if sys.input_dim else None
        return sys(1, w, x, u)

    return Generator(state_dim=sys.state_dim, input_dim=sys.input_dim, fn=fn)
