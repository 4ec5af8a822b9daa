"""The per-row reference of input tables: each row of a table rebuilt as
one tree of the pointwise reference (``reference_process``), which the
table must read bit for bit as.  ``InputNodes`` builds a table one node at
a time, for tests that choose its trees."""

from typing import Sequence

import numpy as np

from rdsio.mpds import CellLaw
from rdsio.process import InputTable, _Nodes
import reference_process as ref
from reference_process import PointwiseProcess


def tree(table: InputTable, row: int) -> PointwiseProcess:
    """Row ``row`` of ``table`` as a tree of pointwise processes, without
    its lift: a splice node is :meth:`PointwiseProcess.concat` of its head
    and tail at its split, and a piece a constant or stationary uniform
    cell noise."""
    nodes = table.nodes

    def build(k: int) -> PointwiseProcess:
        if nodes.head[k] != k:
            return build(int(nodes.head[k])).concat(build(int(nodes.tail[k])),
                                                    nodes.split[k].item())
        if nodes.uniform[k]:
            law = CellLaw("uniform", lo=tuple(nodes.lo[k].tolist()),
                          hi=tuple(nodes.hi[k].tolist()))
            return ref.stationary(ref.cell_noise(law, lag=int(nodes.lag[k])), table.time_kind)
        return ref.constant(nodes.value[k], table.time_kind)

    return build(int(table.roots[row]))


class InputNodes:
    """The growing node list of a batch of input tables, built one node at
    a time; each method appends one node and returns its index, and
    :meth:`table` turns the list into the table of some roots."""

    def __init__(self, dim: int, time_kind: str):
        self.dim, self.time_kind = dim, time_kind
        self._zeros = (0.0,) * dim
        self._rows: list[tuple] = []  # one tuple of the fields of _Nodes per node

    def constant(self, value) -> int:
        """A piece of :func:`constant` ``value``."""
        k = len(self._rows)
        self._rows.append((0, k, k, False, value, self._zeros, self._zeros, 0))
        return k

    def cell(self, lo: tuple[float, ...], hi: tuple[float, ...], lag: int) -> int:
        """A piece of :func:`stationary` cell noise of the uniform law on
        the box ``[lo, hi]``, read ``lag`` cells on."""
        k = len(self._rows)
        self._rows.append((0, k, k, True, self._zeros, lo, hi, lag))
        return k

    def concat(self, head: int, tail: int, s) -> int:
        """The splice of node ``head`` with node ``tail`` at time ``s``."""
        self._rows.append((s, head, tail, False, self._zeros, self._zeros, self._zeros, 0))
        return len(self._rows) - 1

    def table(self, roots: Sequence[int]) -> InputTable:
        """The table whose row ``r`` is the tree at node ``roots[r]``."""
        split, head, tail, uniform, value, lo, hi, lag = zip(*self._rows)
        count = len(self._rows)
        nodes = _Nodes(
            np.array(split, dtype=np.int64 if self.time_kind == "discrete" else float),
            np.array(head, dtype=np.int64), np.array(tail, dtype=np.int64),
            np.array(uniform, dtype=bool),
            *(np.array(v, dtype=float).reshape(count, self.dim) for v in (value, lo, hi)),
            np.array(lag, dtype=np.int64))
        return InputTable(self.dim, self.time_kind, nodes, np.array(roots, dtype=np.int64))
