"""Stochastic processes over noise fibers, and the input tables of flows.

A process maps ``(t, fiber)`` to a vector and is closed under two
operations: the observer shift (restart the clock at a later time on the
correspondingly rewound fiber) and pullback (start further and further in
the past and observe at the fiber itself).  Splices (switch from one input
to another at a splice time) and constant lifts are rows of an
:class:`InputTable`, the one splice form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .mpds import BatchFn, Fiber, Fibers, RandomVariable, _points, _repeat, _unit_noise_channels

__all__ = [
    "TIME_KINDS",
    "Process",
    "InputTable",
    "constant",
    "stationary",
    "decaying_input",
]

TIME_KINDS = ("discrete", "continuous")

Time = float | int


def _check_time_kind(kind: str) -> str:
    if kind not in TIME_KINDS:
        raise ValueError(f"time kind must be one of {TIME_KINDS}, got {kind!r}")
    return kind


@dataclass(frozen=True)
class Process:
    """Pure map ``(t, fiber) -> R^dim`` for nonnegative ``t``.

    ``fn(fibers, times)`` is the one evaluation path, the batched read of
    :meth:`over`, at 1-D times shared by every fiber or at ``(F, n)``
    times, one row per fiber; a pointwise read is its one-point case.
    ``piecewise_constant`` marks processes that are constant on the unit
    noise cells of the evaluation fiber (true for everything assembled from
    cell reads); exact integrators rely on it, and cut their grids at the
    cell boundaries only.
    """

    dim: int
    time_kind: str
    fn: BatchFn
    piecewise_constant: bool = False

    def __post_init__(self):
        _check_time_kind(self.time_kind)

    def __call__(self, t: Time, fiber: Fiber) -> np.ndarray:
        """The value at one time and fiber, ``(dim,)``: the one point of
        :meth:`over`."""
        return self.over(Fibers([fiber.seed], [fiber.offset]), np.array([t]))[0, 0]

    def over(self, fibers: Fibers, times) -> np.ndarray:
        """Values on each of ``fibers`` at each time of the 1-D ``times``,
        or at row ``f`` of ``(F, n)`` times on ``fibers[f]``, as an ``(F,
        n, dim)`` float array.  Constants, stationary and decaying inputs,
        their shifts and pullbacks read the whole grid in one vectorised
        call."""
        times = np.asarray(times)
        if times.size and times.min() < 0:
            raise ValueError("processes are defined for t >= 0")
        return self.fn(fibers, times)

    def shift(self, s: Time) -> "Process":
        """The process as seen by an observer who started at time ``s``.

        The shifted process at ``(t, fiber)`` equals the original at
        ``(t + s)`` on the fiber rewound by ``s``.
        """
        if s < 0:
            raise ValueError("shift requires s >= 0")
        if s == 0:
            return self

        def fn(ws: Fibers, ts: np.ndarray) -> np.ndarray:
            return self.fn(ws.shift(-s), ts + s)

        return Process(self.dim, self.time_kind, fn, piecewise_constant=self.piecewise_constant)

    def pullback(self) -> "Process":
        """Evaluate at time ``t`` on the fiber rewound by ``t``, every
        (fiber, time) point of a read (:func:`_points`) in one call."""

        def fn(ws: Fibers, ts: np.ndarray) -> np.ndarray:
            fiber, t = _points(ts, len(ws))
            return self.fn(ws[fiber].shift(-t), t[:, None]).reshape(
                len(ws), ts.shape[-1], self.dim)

        return Process(self.dim, self.time_kind, fn)


def constant(values, time_kind: str = "discrete") -> Process:
    """The trivial process: the same vector at every time and fiber."""
    vec = np.atleast_1d(np.asarray(values, dtype=float))
    return Process(vec.size, _check_time_kind(time_kind),
                   lambda ws, ts: _repeat(vec, (len(ws), ts.shape[-1])), piecewise_constant=True)


def stationary(rv: RandomVariable, time_kind: str = "discrete") -> Process:
    """Stationary process ``(t, fiber) -> rv(fiber shifted by t)``: the
    variable's own batched read, ``rv.fn``.

    It is marked piecewise constant: ``rv`` must be cell-resolved, its
    orbit values changing only at unit-cell boundaries (anything assembled
    from cell reads).
    """
    return Process(rv.dim, _check_time_kind(time_kind), rv.fn, piecewise_constant=True)


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
    disturbance(fiber)``.  A factor past the float range is infinite.
    """
    if limit.dim != disturbance.dim:
        raise ValueError("limit and disturbance must have equal dimension")

    def fn(ws: Fibers, ts: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            decay = np.exp(-rate * ts)
        return limit.over(ws, ts) + decay[..., None] * disturbance.over(ws, ts)

    return Process(limit.dim, _check_time_kind(time_kind), fn)


# --------------------------------------------------------------------------
# input tables: the per-row inputs of a batch of flows as arrays

# points a table read walks at once (bounds the memory of its temporaries)
_READ_POINTS = 1 << 13


class _Nodes(NamedTuple):
    """The nodes of a table's splice trees, one entry per node.

    A splice node follows its ``head`` child before its ``split`` time and
    its ``tail`` child from then on.  A piece is its own ``head`` and
    ``tail``, with ``split`` 0, so a walk that reaches it stays there: a
    constant ``value``, or (``uniform``) the uniform cell law on the box
    ``[lo, hi]`` read ``lag`` cells from the current one.
    """

    split: np.ndarray  # (N,) int64 in discrete time, float64 in continuous
    head: np.ndarray  # (N,) int64
    tail: np.ndarray  # (N,) int64
    uniform: np.ndarray  # (N,) bool
    value: np.ndarray  # (N, dim)
    lo: np.ndarray  # (N, dim)
    hi: np.ndarray  # (N, dim)
    lag: np.ndarray  # (N,) int64


@dataclass(frozen=True, eq=False)
class InputTable:
    """The inputs of a batch of flows, one flattened splice tree per row.

    Row ``r`` is the splice tree rooted at node ``roots[r]`` of ``nodes``,
    over :func:`constant` and :func:`stationary` cell-noise pieces, plus
    ``lift[r]`` at every point when a lift is given.  A splice at ``s``
    follows its head on ``[0, s)`` and from then on its tail restarted at
    the fiber advanced by ``s``: ``(u splice v at s)(tau) = v(tau - s,
    fiber shifted by s)``.  :meth:`over` reads every row at its own fiber
    and times in one vectorised call, bit-identical to the pointwise
    reference of the same tree, read one point at a time.
    """

    dim: int
    time_kind: str
    nodes: _Nodes
    roots: np.ndarray
    lift: np.ndarray | None = None

    @classmethod
    def constants(cls, values, time_kind: str) -> "InputTable":
        """One constant row per row of the ``(B, dim)`` ``values``, as
        :func:`constant` of that row."""
        values = np.asarray(values, dtype=float)
        count, dim = values.shape
        index = np.arange(count)
        zeros = np.zeros((count, dim))
        split = np.zeros(count, dtype=np.int64 if time_kind == "discrete" else float)
        return cls(dim, _check_time_kind(time_kind),
                   _Nodes(split, index, index, np.zeros(count, dtype=bool), values, zeros,
                          zeros, np.zeros(count, dtype=np.int64)), index)

    @classmethod
    def stack(cls, tables: Sequence["InputTable"]) -> "InputTable":
        """The rows of ``tables`` one after another, each reading as in its
        own table: the node arrays are concatenated, each table's node
        indices offset by the nodes before it, and the lifts concatenated."""
        first = tables[0]
        if len({(t.dim, t.time_kind, t.lift is None) for t in tables}) > 1:
            raise ValueError("mismatched tables in stacking")
        bases = np.cumsum([0] + [len(t.nodes.split) for t in tables[:-1]])
        nodes = [t.nodes._replace(head=t.nodes.head + b, tail=t.nodes.tail + b)
                 for t, b in zip(tables, bases)]
        return cls(first.dim, first.time_kind, _Nodes(*map(np.concatenate, zip(*nodes))),
                   np.concatenate([t.roots + b for t, b in zip(tables, bases)]),
                   None if first.lift is None else np.concatenate([t.lift for t in tables]))

    def __len__(self) -> int:
        return len(self.roots)

    def __getitem__(self, rows) -> "InputTable":
        """The table of the rows selected by an index array or a slice."""
        return replace(self, roots=self.roots[rows],
                       lift=None if self.lift is None else self.lift[rows])

    def packed(self) -> "InputTable":
        """The same rows, their nodes renumbered level by level in row
        order, so that a read of consecutive rows walks nearby nodes."""
        nodes, reached = self.nodes, [self.roots]
        while reached[-1].size:
            level = reached[-1][nodes.head[reached[-1]] != reached[-1]]
            reached.append(np.stack([nodes.head[level], nodes.tail[level]], axis=1).ravel())
        old = np.concatenate(reached)
        new = np.empty(len(nodes.split), dtype=np.int64)
        new[old] = np.arange(old.size)
        kept = _Nodes(*(field[old] for field in nodes))
        return replace(self, nodes=kept._replace(head=new[kept.head], tail=new[kept.tail]),
                       roots=np.arange(len(self)))

    def concat(self, other: "InputTable", s) -> "InputTable":
        """Row ``r`` follows this table's row on ``[0, s[r])``, then hands
        over to row ``r`` of ``other``."""
        if self.dim != other.dim or self.time_kind != other.time_kind:
            raise ValueError("mismatched tables in concatenation")
        if len(self) != len(other) or np.shape(s) != (len(self),):
            raise ValueError("need one splice time per row")
        if self.lift is not None or other.lift is not None:
            raise ValueError("a lifted table cannot be concatenated")
        split = np.asarray(s, dtype=self.nodes.split.dtype)
        if np.any(split != np.asarray(s)) or not np.all(split >= 0):
            raise ValueError("concatenation requires s >= 0, and integer s in discrete time")
        base = len(self.nodes.split)
        shifted = other.nodes._replace(head=other.nodes.head + base, tail=other.nodes.tail + base)
        count = len(self)
        zeros = np.zeros((count, self.dim))
        splices = _Nodes(split, self.roots, other.roots + base, np.zeros(count, dtype=bool),
                         zeros, zeros, zeros, np.zeros(count, dtype=np.int64))
        nodes = _Nodes(*map(np.concatenate, zip(self.nodes, shifted, splices)))
        roots = np.arange(count) + base + len(other.nodes.split)
        return InputTable(self.dim, self.time_kind, nodes, roots)

    def over(self, fibers: Fibers, times) -> np.ndarray:
        """Row ``r`` on ``fibers[r]`` at each time of ``times[r]``:
        ``(B, n, dim)`` for ``(B, n)`` times, or for 1-D times shared by
        every row, as :meth:`Process.over` reads one process on every row.

        The splice trees are walked one level per step for all points at
        once, in the operations of the pointwise splice: a point at a
        splice takes the tail when not ``local < split``, and then its
        local time loses the split and its fiber offset gains it.  Unless
        every point is on a constant piece, every point is then hashed in
        one call, and a point on a cell piece reads ``lo + (hi - lo) * u``,
        the operations of :meth:`CellLaw.sample_grid`.  Each walk reads a
        chunk of rows of at most ``_READ_POINTS`` points (or one row), and
        each point on its own, so a row reads the same in any chunk.
        """
        times = np.broadcast_to(times, (len(self), np.shape(times)[-1]))
        if times.size and times.min() < 0:
            raise ValueError("processes are defined for t >= 0")
        out = np.empty(times.shape + (self.dim,))
        rows = max(1, _READ_POINTS // max(1, times.shape[1]))
        for r in range(0, len(self), rows):
            out[r:r + rows] = self[r:r + rows]._walk(fibers[r:r + rows], times[r:r + rows])
        return out

    def _walk(self, fibers: Fibers, times: np.ndarray) -> np.ndarray:
        """:meth:`over` of all rows at once."""
        nodes = self.nodes
        node = np.repeat(self.roots[:, None], times.shape[1], axis=1)
        local = times
        offset = fibers.offsets[:, None]
        while np.any(nodes.head[node] != node):
            split = nodes.split[node]
            later = ~(local < split)
            node = np.where(later, nodes.tail[node], nodes.head[node])
            step = np.where(later, split, 0)
            local = local - step
            offset = offset + step
        uniform = nodes.uniform[node]
        out = nodes.value[node]
        if uniform.any():  # points on constant pieces only hash nothing
            pos = offset + local
            cells = pos if pos.dtype.kind == "i" else np.floor(pos).astype(np.int64)
            noise = _unit_noise_channels(fibers.words, cells + nodes.lag[node],
                                         range(self.dim))
            lo, hi = nodes.lo[node], nodes.hi[node]
            out = np.where(uniform[..., None], lo + (hi - lo) * noise, out)
        return out if self.lift is None else out + self.lift[:, None]

    def breakpoints(self, lo, hi) -> np.ndarray:
        """The splice times of every row, on the row's clock: row ``r``
        holds those in the open interval ``(lo[r], hi[r])`` (or the shared
        ``(lo, hi)``), with the float values and in the order of the
        pointwise reference (a node's own split, then its head's, then its
        tail's plus the split), then NaN up to the widest row.

        The trees are walked down one level per step for all rows at once,
        giving each splice node its interval: ``(lo, min(hi, s))`` for its
        head, ``(0, hi - s)`` for its tail.  Then the points climb back up
        one level per step: at each node a point from the tail gains the
        node's split (so an inner sum is added first, as the nested
        pointwise splices add it), and every point is
        kept only inside the node's interval.  A stable sort per level
        puts a node's own split before its head's points and those before
        its tail's.
        """
        nodes, count = self.nodes, len(self)
        lo = np.broadcast_to(np.asarray(lo, dtype=float), (count,))
        hi = np.broadcast_to(np.asarray(hi, dtype=float), (count,))
        node, parent, tail = self.roots, np.arange(count), np.zeros(count, dtype=bool)
        levels = []  # per level: splice nodes' parent, tail flag, split and interval
        while node.size:
            splice = nodes.head[node] != node
            node, parent, tail = node[splice], parent[splice], tail[splice]
            lo, hi = lo[splice], hi[splice]
            s = nodes.split[node].astype(float)
            levels.append((parent, tail, s, lo, hi))
            pair = np.arange(node.size)
            node = np.concatenate([nodes.head[node], nodes.tail[node]])
            parent = np.concatenate([pair, pair])
            tail = np.repeat([False, True], pair.size)
            lo = np.concatenate([lo, np.zeros(pair.size)])
            hi = np.concatenate([np.minimum(hi, s), hi - s])
        # the points climbing up: value, the splice entry they reached,
        # and whether they reached it from its tail child
        value, owner = np.empty(0), np.empty(0, dtype=np.int64)
        from_tail = np.empty(0, dtype=bool)
        for parent, tail, s, lo, hi in reversed(levels):
            value = np.concatenate([s, np.where(from_tail, value + s[owner], value)])
            owner = np.concatenate([np.arange(s.size), owner])
            # own split first, then the head's points, then the tail's
            group = np.concatenate([np.zeros(s.size, dtype=np.int64), 1 + from_tail])
            keep = (lo[owner] < value) & (value < hi[owner])
            order = np.argsort((3 * owner + group)[keep], kind="stable")
            value, owner = value[keep][order], owner[keep][order]
            owner, from_tail = parent[owner], tail[owner]
        # the root entries' parents are the rows, so owner is now sorted by row
        out = np.full((count, np.bincount(owner, minlength=count).max(initial=0)), np.nan)
        first = np.searchsorted(owner, np.arange(count))
        out[owner, np.arange(owner.size) - first[owner]] = value
        return out
