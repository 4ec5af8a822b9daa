"""Small expression trees for declaring one-step maps in scenario files.

A generator is data: one expression per state component over the symbols
``state``, ``input``, ``noise`` plus constants, closed under addition,
multiplication, scaling, clamping, and tabulated piecewise-linear
nonlinearities.  Expressions are plain nested mappings so scenarios stay
declarative and serializable.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np

from .mpds import CellLaw, Fiber
from .discrete import Generator

__all__ = ["ExprError", "law_from_spec", "compile_expr", "compile_generator"]


class ExprError(ValueError):
    """Malformed expression or law specification; carries the config path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(spec: Mapping, key: str, path: str) -> Any:
    if key not in spec:
        raise ExprError(path, f"missing required field {key!r}")
    return spec[key]


def law_from_spec(spec: Mapping, path: str = "law") -> CellLaw:
    """Build a cell law from its mapping form.

    Forms: ``{law: constant, values: [..]}``, ``{law: uniform, lo: [..],
    hi: [..]}``, ``{law: choice, choices: [[..], ..]}``.  Scalars are
    accepted where one-element lists are meant.
    """
    if not isinstance(spec, Mapping):
        raise ExprError(path, f"expected a mapping, got {type(spec).__name__}")
    kind = _require(spec, "law", path)

    def vec(key: str) -> tuple[float, ...]:
        raw = _require(spec, key, path)
        if isinstance(raw, (int, float)):
            raw = [raw]
        try:
            return tuple(float(v) for v in raw)
        except (TypeError, ValueError) as exc:
            raise ExprError(f"{path}.{key}", f"expected numbers, got {raw!r}") from exc

    try:
        if kind == "constant":
            return CellLaw("constant", values=vec("values"))
        if kind == "uniform":
            return CellLaw("uniform", lo=vec("lo"), hi=vec("hi"))
        if kind == "choice":
            raw = _require(spec, "choices", path)
            choices = tuple(
                tuple(float(v) for v in (row if isinstance(row, (list, tuple)) else [row]))
                for row in raw
            )
            return CellLaw("choice", choices=choices)
    except ValueError as exc:
        raise ExprError(path, str(exc)) from exc
    raise ExprError(path, f"unknown law kind {kind!r}")


def _finite(raw: Any, path: str) -> float:
    """``raw`` as a finite float; anything else is an :class:`ExprError`."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ExprError(path, f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ExprError(path, f"expected a finite number, got {raw!r}")
    return value


def compile_expr(spec: Any, path: str = "expr"):
    """Compile one expression node to ``fn(state, input, noise)``.

    On vectors of floats it returns a float.  It also steps many rows at
    once: given ``(dim, B)`` arrays, so that ``state[i]`` is a column, it
    returns the ``(B,)`` column (or a float, for a constant), each entry
    bit-identical to the float of the matching row.  Every op is one
    correctly rounded IEEE operation per entry in both forms.
    """
    if isinstance(spec, (int, float)):
        value = _finite(spec, path)
        return lambda x, u, n: value
    if not isinstance(spec, Mapping):
        raise ExprError(path, f"expected a mapping or number, got {type(spec).__name__}")
    op = _require(spec, "op", path)

    if op == "const":
        value = _finite(_require(spec, "value", path), f"{path}.value")
        return lambda x, u, n: value
    if op in ("state", "input", "noise"):
        index = int(spec.get("index", 0))
        if op == "state":
            return lambda x, u, n: x[index]
        if op == "input":
            return lambda x, u, n: u[index]
        return lambda x, u, n: n[index]
    if op in ("add", "mul"):
        args = _require(spec, "args", path)
        if not isinstance(args, (list, tuple)) or not args:
            raise ExprError(f"{path}.args", "expected a nonempty list")
        parts = [compile_expr(a, f"{path}.args[{i}]") for i, a in enumerate(args)]
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
        factor = _finite(_require(spec, "factor", path), f"{path}.factor")
        inner = compile_expr(_require(spec, "arg", path), f"{path}.arg")
        return lambda x, u, n: factor * inner(x, u, n)
    if op == "clamp":
        lo = _finite(_require(spec, "lo", path), f"{path}.lo")
        hi = _finite(_require(spec, "hi", path), f"{path}.hi")
        if lo > hi:
            raise ExprError(path, f"clamp needs lo <= hi, got {lo} > {hi}")
        inner = compile_expr(_require(spec, "arg", path), f"{path}.arg")

        def clamp(x, u, n):
            v = inner(x, u, n)
            if isinstance(v, np.ndarray):
                # the builtins' choices, including at a signed-zero tie
                # (np.maximum would take its second operand there)
                v = np.where(lo > v, lo, v)
                return np.where(hi < v, hi, v)
            return min(max(v, lo), hi)
        return clamp
    if op == "table":
        xs, ys = (_require(spec, key, path) for key in ("xs", "ys"))
        if not isinstance(xs, (list, tuple)) or not isinstance(ys, (list, tuple)):
            raise ExprError(path, "table needs lists xs and ys")
        xs = [_finite(v, f"{path}.xs[{i}]") for i, v in enumerate(xs)]
        ys = [_finite(v, f"{path}.ys[{i}]") for i, v in enumerate(ys)]
        if len(xs) != len(ys) or len(xs) < 2:
            raise ExprError(path, "table needs xs and ys of equal length >= 2")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ExprError(path, "table xs must be strictly increasing")
        inner = compile_expr(_require(spec, "arg", path), f"{path}.arg")
        xs_arr, ys_arr = np.asarray(xs), np.asarray(ys)
        return lambda x, u, n: np.interp(inner(x, u, n), xs_arr, ys_arr)
    raise ExprError(path, f"unknown op {op!r}")


def compile_generator(spec: Mapping, path: str = "generator") -> Generator:
    """Compile a generator declaration into a one-step map.

    Expected fields: ``state_dim``, ``input_dim``, optional ``noise`` (a
    cell-law spec read once per step at the advancing cell), and
    ``components`` with one expression per state coordinate.
    """
    if not isinstance(spec, Mapping):
        raise ExprError(path, f"expected a mapping, got {type(spec).__name__}")
    state_dim = int(_require(spec, "state_dim", path))
    input_dim = int(spec.get("input_dim", 0))
    components = _require(spec, "components", path)
    if not isinstance(components, (list, tuple)) or len(components) != state_dim:
        raise ExprError(
            f"{path}.components",
            f"expected {state_dim} component expressions, got "
            f"{len(components) if isinstance(components, (list, tuple)) else type(components).__name__}",
        )
    law = law_from_spec(spec["noise"], f"{path}.noise") if spec.get("noise") else None
    fns = [
        compile_expr(comp, f"{path}.components[{i}]")
        for i, comp in enumerate(components)
    ]

    def step(w: Fiber, x: np.ndarray, u_value: np.ndarray) -> np.ndarray:
        noise = law.sample(w.seed, w.cell(0)) if law is not None else np.zeros(0)
        return np.array([fn(x, u_value, noise) for fn in fns])

    def columns(seeds, offsets: np.ndarray, xs: np.ndarray, values: np.ndarray) -> np.ndarray:
        # the noise cells of all rows in one read, as w.cell(0) per row
        cells = offsets if offsets.dtype.kind == "i" else np.floor(offsets).astype(np.int64)
        if law is not None:
            noise = law.sample_grid(seeds, cells[:, None])[:, 0].T
        else:
            noise = np.zeros((0, len(cells)))
        out = np.empty(xs.shape)
        for i, fn in enumerate(fns):
            out[:, i] = fn(xs.T, values.T, noise)
        return out

    return Generator(state_dim, input_dim, step, label=str(spec.get("label", "scenario")),
                     columns=columns)
