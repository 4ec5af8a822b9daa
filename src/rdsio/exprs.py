"""Small expression trees for declaring one-step maps in scenario files.

A generator is data: one expression per state component over the symbols
``state``, ``input``, ``noise`` plus constants, closed under addition,
multiplication, scaling, clamping, and tabulated piecewise-linear
nonlinearities.  Expressions are plain nested mappings so scenarios stay
declarative and serializable.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .mpds import CellLaw
from .discrete import Generator

__all__ = ["ExprError", "law_from_spec", "compile_expr", "row_step", "compile_generator"]


class ExprError(ValueError):
    """Malformed expression or law specification; carries the config path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(spec: Mapping, key: str, path: str) -> Any:
    if key not in spec:
        raise ExprError(path, f"missing required field {key!r}")
    return spec[key]


def _known(spec: Mapping, fields: Sequence[str], path: str) -> None:
    """Refuse the first field of ``spec`` that is not one of ``fields``."""
    for key in spec:
        if key not in fields:
            raise ExprError(f"{path}.{key}", "unknown field")


# the fields of each law kind and of each expression op, beside the tag
_LAW_FIELDS = {"constant": ("values",), "uniform": ("lo", "hi"), "choice": ("choices",)}
_OP_FIELDS = {"const": ("value",), "add": ("args",), "mul": ("args",), "scale": ("factor", "arg"),
              "clamp": ("lo", "hi", "arg"), "table": ("xs", "ys", "arg"),
              **dict.fromkeys(("state", "input", "noise"), ("index",))}


def law_from_spec(spec: Mapping, path: str = "law") -> CellLaw:
    """Build a cell law from its mapping form.

    Forms: ``{law: constant, values: [..]}``, ``{law: uniform, lo: [..],
    hi: [..]}``, ``{law: choice, choices: [[..], ..]}``.  Scalars are
    accepted where one-element lists are meant.  A field the kind does
    not read is refused.
    """
    if not isinstance(spec, Mapping):
        raise ExprError(path, f"expected a mapping, got {type(spec).__name__}")
    kind = _require(spec, "law", path)
    if isinstance(kind, str) and kind in _LAW_FIELDS:
        _known(spec, ("law", *_LAW_FIELDS[kind]), path)

    def vec(raw: Any, where: str) -> tuple[float, ...]:
        """A number, or a list of numbers, each finite."""
        raw = raw if isinstance(raw, (list, tuple)) else [raw]
        try:
            values = [float(v) for v in raw]
        except (TypeError, ValueError):
            raise ExprError(path, f"expected numbers, got {raw!r}") from None
        return tuple(_finite(v, f"{where}[{i}]") for i, v in enumerate(values))

    def field(key: str) -> tuple[float, ...]:
        return vec(_require(spec, key, path), f"{path}.{key}")

    try:
        if kind == "constant":
            return CellLaw("constant", values=field("values"))
        if kind == "uniform":
            return CellLaw("uniform", lo=field("lo"), hi=field("hi"))
        if kind == "choice":
            raw = _require(spec, "choices", path)
            return CellLaw("choice", choices=tuple(
                vec(row, f"{path}.choices[{i}]") for i, row in enumerate(raw)))
    except ExprError:
        raise
    except (TypeError, ValueError) as exc:
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


def _integer(raw: Any, path: str, minimum: int) -> int:
    """``raw`` as an integer of at least ``minimum`` (0 or 1): never a
    boolean, and a float only if integral."""
    if isinstance(raw, float) and raw.is_integer():
        raw = int(raw)
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < minimum:
        raise ExprError(path, f"expected a {'positive' if minimum else 'nonnegative'} integer, got {raw!r}")
    return raw


def _index(spec: Mapping, op: str, path: str, dims: Mapping[str, int]) -> int:
    """The ``index`` of a symbol leaf, checked against ``dims[op]``; a
    symbol missing from ``dims`` cannot be read here."""
    raw = _integer(spec.get("index", 0), f"{path}.index", 0)
    if op not in dims:
        raise ExprError(path, f"{op!r} cannot be read here")
    if raw >= dims[op]:
        raise ExprError(f"{path}.index", f"{op} has dimension {dims[op]}, got index {raw}")
    return raw


def compile_expr(spec: Any, dims: Mapping[str, int], path: str = "expr"):
    """Compile one expression node to ``fn(state, input, noise)``.

    ``dims`` maps each symbol the expression may read (``state``,
    ``input``, ``noise``) to its dimension; a leaf's index must fall below
    it; a field the node's op does not read is refused.  On vectors of
    floats it returns a float.  It also steps many rows at once: given
    ``(dim, B)`` arrays, so that ``state[i]`` is a column,
    it returns the ``(B,)`` column (or a float, for a constant), each entry
    bit-identical to the float of the matching row.  Every op is one
    correctly rounded IEEE operation per entry in both forms, except that
    a NaN result's payload may differ between them: IEEE 754 leaves it
    unspecified, and every NaN is treated alike.
    """
    if isinstance(spec, (int, float)):
        value = _finite(spec, path)
        return lambda x, u, n: value
    if not isinstance(spec, Mapping):
        raise ExprError(path, f"expected a mapping or number, got {type(spec).__name__}")
    op = _require(spec, "op", path)
    if isinstance(op, str) and op in _OP_FIELDS:
        _known(spec, ("op", *_OP_FIELDS[op]), path)

    if op == "const":
        value = _finite(_require(spec, "value", path), f"{path}.value")
        return lambda x, u, n: value
    if op in ("state", "input", "noise"):
        index = _index(spec, op, path, dims)
        if op == "state":
            return lambda x, u, n: x[index]
        if op == "input":
            return lambda x, u, n: u[index]
        return lambda x, u, n: n[index]
    if op in ("add", "mul"):
        args = _require(spec, "args", path)
        if not isinstance(args, (list, tuple)) or not args:
            raise ExprError(f"{path}.args", "expected a nonempty list")
        parts = [compile_expr(a, dims, f"{path}.args[{i}]") for i, a in enumerate(args)]
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
        inner = compile_expr(_require(spec, "arg", path), dims, f"{path}.arg")
        return lambda x, u, n: factor * inner(x, u, n)
    if op == "clamp":
        lo = _finite(_require(spec, "lo", path), f"{path}.lo")
        hi = _finite(_require(spec, "hi", path), f"{path}.hi")
        if lo > hi:
            raise ExprError(path, f"clamp needs lo <= hi, got {lo} > {hi}")
        inner = compile_expr(_require(spec, "arg", path), dims, f"{path}.arg")

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
        inner = compile_expr(_require(spec, "arg", path), dims, f"{path}.arg")
        xs_arr, ys_arr = np.asarray(xs), np.asarray(ys)
        return lambda x, u, n: np.interp(inner(x, u, n), xs_arr, ys_arr)
    raise ExprError(path, f"unknown op {op!r}")


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


def compile_generator(spec: Mapping, path: str = "generator") -> Generator:
    """Compile a generator declaration into a one-step map.

    Expected fields: ``state_dim`` (a positive integer), ``input_dim`` (a
    nonnegative integer, default 0), optional ``noise`` (a cell-law spec,
    declared as the generator's law: the step is given its value at the
    advancing cell), and ``components`` with one expression per state
    coordinate.
    """
    if not isinstance(spec, Mapping):
        raise ExprError(path, f"expected a mapping, got {type(spec).__name__}")
    _known(spec, ("state_dim", "input_dim", "noise", "components"), path)
    state_dim = _integer(_require(spec, "state_dim", path), f"{path}.state_dim", 1)
    input_dim = _integer(spec.get("input_dim", 0), f"{path}.input_dim", 0)
    components = _require(spec, "components", path)
    if not isinstance(components, (list, tuple)) or len(components) != state_dim:
        raise ExprError(
            f"{path}.components",
            f"expected {state_dim} component expressions, got "
            f"{len(components) if isinstance(components, (list, tuple)) else type(components).__name__}",
        )
    noise = (law_from_spec(spec["noise"], f"{path}.noise"),) if spec.get("noise") else ()
    dims = {"state": state_dim, "input": input_dim, "noise": sum(law.dim for law in noise)}
    fns = [
        compile_expr(comp, dims, f"{path}.components[{i}]")
        for i, comp in enumerate(components)
    ]
    return Generator(state_dim, input_dim, row_step(fns, dims["noise"]), noise)
