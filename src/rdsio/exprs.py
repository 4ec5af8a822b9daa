"""The compiler of the small expression trees that declare one-step maps
and output maps in scenario files.

A generator is data: one expression per state component over the symbols
``state``, ``input``, ``noise`` plus constants, closed under addition,
multiplication, scaling, clamping, and tabulated piecewise-linear
nonlinearities.  :mod:`rdsio.cli` reads and checks each node with the
field tables that read every other scenario field; this module turns a
read node into its closure, and a list of closures into a row step.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["compile_expr", "row_step"]


def compile_expr(op: str, node) -> Callable:
    """The closure ``fn(state, input, noise)`` of one read expression node.

    ``node`` holds the fields of ``op`` as read and checked, each number a
    finite float and each ``arg`` or ``args`` entry already compiled:
    ``value`` (const), ``index`` (a symbol leaf, below its dimension),
    ``args`` (add, mul), ``factor`` and ``arg`` (scale), ``lo <= hi`` and
    ``arg`` (clamp), strictly increasing ``xs``, ``ys`` and ``arg`` (table).
    On vectors of floats the closure returns a float.  It also steps many
    rows at once: given ``(dim, B)`` arrays, so that ``state[i]`` is a
    column, it returns the ``(B,)`` column (or a float, for a constant),
    each entry bit-identical to the float of the matching row.  Every op
    is one correctly rounded IEEE operation per entry in both forms,
    except that a NaN result's payload may differ between them: IEEE 754
    leaves it unspecified, and every NaN is treated alike.
    """
    if op == "const":
        value = node.value
        return lambda x, u, n: value
    if op in ("state", "input", "noise"):
        index = node.index
        if op == "state":
            return lambda x, u, n: x[index]
        if op == "input":
            return lambda x, u, n: u[index]
        return lambda x, u, n: n[index]
    if op in ("add", "mul"):
        parts = node.args
        if op == "add":
            # a left fold from 0, as the builtin sum: a leading -0.0 gives 0.0
            return lambda x, u, n: sum(p(x, u, n) for p in parts)
        def mul(x, u, n):
            out = 1.0
            for p in parts:
                out *= p(x, u, n)
            return out
        return mul
    if op == "scale":
        factor, inner = node.factor, node.arg
        return lambda x, u, n: factor * inner(x, u, n)
    if op == "clamp":
        lo, hi, inner = node.lo, node.hi, node.arg

        def clamp(x, u, n):
            v = inner(x, u, n)
            if isinstance(v, np.ndarray):
                # the builtins' choices, including at a signed-zero tie
                # (np.maximum would take its second operand there)
                v = np.where(lo > v, lo, v)
                return np.where(hi < v, hi, v)
            return min(max(v, lo), hi)
        return clamp
    xs, ys, inner = np.asarray(node.xs), np.asarray(node.ys), node.arg
    return lambda x, u, n: np.interp(inner(x, u, n), xs, ys)


def row_step(fns: Sequence[Callable], width: int) -> Callable:
    """``step(seeds, offsets, states, values, cells) -> (B, len(fns))``:
    the compiled expressions ``fns`` on each row, one per output
    component, with the row's ``width`` cell values as ``noise``.  Cells
    of any other shape raise, so a step whose laws were dropped on the way
    never reads zeros."""

    def step(seeds, offsets: np.ndarray, xs: np.ndarray, values: np.ndarray,
             cells: np.ndarray) -> np.ndarray:
        if np.shape(cells) != (len(xs), width):
            raise ValueError(f"the step reads {width} noise values per row, "
                             f"got cells of shape {np.shape(cells)}")
        noise = cells.T
        out = np.empty((len(xs), len(fns)))
        for i, fn in enumerate(fns):
            out[:, i] = fn(xs.T, values.T, noise)
        return out

    return step
