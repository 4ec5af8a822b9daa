"""Unit tests for scenario expression trees and law specs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdsio.exprs import ExprError, compile_expr, compile_generator, law_from_spec
from rdsio.mpds import Fiber


def test_law_forms():
    const = law_from_spec({"law": "constant", "values": [1.0, 2.0]})
    np.testing.assert_array_equal(const.sample(0, 5), [1.0, 2.0])
    uni = law_from_spec({"law": "uniform", "lo": -1.0, "hi": 1.0})
    assert uni.dim == 1
    v = uni.sample(3, 7)
    assert -1.0 <= v[0] <= 1.0
    choice = law_from_spec({"law": "choice", "choices": [[0.0], [2.0]]})
    assert choice.sample(1, 1)[0] in (0.0, 2.0)


def test_law_errors_carry_paths():
    with pytest.raises(ExprError, match="sys.a: unknown law"):
        law_from_spec({"law": "gaussian"}, path="sys.a")
    with pytest.raises(ExprError, match="missing required field"):
        law_from_spec({"law": "uniform", "lo": [0.0]}, path="sys.a")
    with pytest.raises(ExprError, match="expected numbers"):
        law_from_spec({"law": "constant", "values": ["x"]}, path="sys.a")


def test_expr_affine_clamp_table():
    expr = {
        "op": "add",
        "args": [
            {"op": "scale", "factor": 0.5, "arg": {"op": "state", "index": 0}},
            {"op": "clamp", "lo": -1.0, "hi": 1.0, "arg": {"op": "input", "index": 0}},
            {"op": "mul", "args": [{"op": "noise", "index": 0}, 2.0]},
        ],
    }
    fn = compile_expr(expr)
    x, u, n = np.array([4.0]), np.array([3.0]), np.array([0.25])
    assert fn(x, u, n) == pytest.approx(2.0 + 1.0 + 0.5)

    table = compile_expr({"op": "table", "xs": [0.0, 1.0, 2.0], "ys": [0.0, 1.0, 0.0],
                          "arg": {"op": "state", "index": 0}})
    assert table(np.array([0.5]), u, n) == pytest.approx(0.5)
    assert table(np.array([1.5]), u, n) == pytest.approx(0.5)


def test_expr_errors_carry_paths():
    with pytest.raises(ExprError, match=r"gen.components\[0\].args\[1\]: unknown op"):
        compile_expr({"op": "add", "args": [1.0, {"op": "frobnicate"}]},
                     path="gen.components[0]")
    with pytest.raises(ExprError, match="strictly increasing"):
        compile_expr({"op": "table", "xs": [0.0, 0.0], "ys": [1.0, 2.0],
                      "arg": {"op": "state"}})
    with pytest.raises(ExprError, match="clamp needs lo <= hi"):
        compile_expr({"op": "clamp", "lo": 2.0, "hi": 1.0, "arg": 0.0})
    with pytest.raises(ExprError, match="nonempty list"):
        compile_expr({"op": "add", "args": []})


def test_compile_generator_steps_with_noise():
    gen = compile_generator({
        "state_dim": 1,
        "input_dim": 1,
        "noise": {"law": "constant", "values": [0.125]},
        "components": [
            {"op": "add", "args": [
                {"op": "scale", "factor": 0.5, "arg": {"op": "state", "index": 0}},
                {"op": "input", "index": 0},
                {"op": "noise", "index": 0},
            ]}
        ],
    })
    out = gen(Fiber(0, 0), [2.0], [0.25])
    assert out[0] == pytest.approx(1.0 + 0.25 + 0.125)


def test_compile_generator_component_count_checked():
    with pytest.raises(ExprError, match="component"):
        compile_generator({"state_dim": 2, "components": [0.0]})


# -- column form: each op on (B,) columns equals the op on each row --------

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0]
values = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL))
finite = st.floats(-1e6, 1e6)


def _rows_equal_column(spec, states, inputs=None, noise=None):
    """``compile_expr(spec)`` on the stacked columns is, bit for bit, the
    scalar form on each row; ``states`` is ``(B, n)``."""
    fn = compile_expr(spec)
    states = np.asarray(states, dtype=float)
    inputs = np.zeros((len(states), 0)) if inputs is None else np.asarray(inputs, dtype=float)
    noise = np.zeros((len(states), 0)) if noise is None else np.asarray(noise, dtype=float)
    with np.errstate(all="ignore"):  # inf - inf and overflow are part of the test
        rows = np.array([fn(x, u, n) for x, u, n in zip(states, inputs, noise)], dtype=float)
        column = np.empty(len(states))
        column[:] = fn(states.T, inputs.T, noise.T)
    assert column.tobytes() == rows.tobytes()


STATE0, STATE1 = {"op": "state", "index": 0}, {"op": "state", "index": 1}


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(values, values), min_size=1, max_size=20))
def test_add_mul_columns_match_rows(pairs):
    # add is a left fold from 0, so a leading -0.0 becomes 0.0 in both forms
    for op in ("add", "mul"):
        _rows_equal_column({"op": op, "args": [STATE0, STATE1]}, pairs)
        _rows_equal_column({"op": op, "args": [STATE1, 2.5, STATE0]}, pairs)
    _rows_equal_column({"op": "add", "args": [-0.0, STATE0]}, pairs)


@settings(max_examples=60, deadline=None)
@given(factor=finite, states=st.lists(values, min_size=1, max_size=20))
def test_scale_and_leaf_columns_match_rows(factor, states):
    column = [[v] for v in states]
    _rows_equal_column({"op": "scale", "factor": factor, "arg": STATE0}, column)
    _rows_equal_column(STATE0, column)
    _rows_equal_column({"op": "input", "index": 0}, column, inputs=column)
    _rows_equal_column({"op": "noise", "index": 0}, column, noise=column)
    _rows_equal_column({"op": "const", "value": factor}, column)


@settings(max_examples=80, deadline=None)
@given(bounds=st.tuples(st.one_of(finite, st.sampled_from([0.0, -0.0])),
                        st.one_of(finite, st.sampled_from([0.0, -0.0]))),
       states=st.lists(values, max_size=20))
def test_clamp_columns_match_rows_at_and_beyond_the_bounds(bounds, states):
    lo, hi = sorted(bounds)
    # the bounds themselves, signed zeros at a zero bound, and both sides
    column = [[v] for v in states + [lo, hi, -0.0, 0.0, lo - 1.0, hi + 1.0]]
    _rows_equal_column({"op": "clamp", "lo": lo, "hi": hi, "arg": STATE0}, column)


@settings(max_examples=60, deadline=None)
@given(knots=st.lists(finite, min_size=2, max_size=6, unique=True),
       ys=st.lists(finite, min_size=6, max_size=6),
       states=st.lists(values, max_size=20))
def test_table_columns_match_rows_inside_and_beyond_the_ends(knots, ys, states):
    xs = sorted(knots)
    ys = ys[: len(xs)]
    column = [[v] for v in states + xs + [xs[0] - 5.0, xs[-1] + 5.0]]
    _rows_equal_column({"op": "table", "xs": xs, "ys": ys, "arg": STATE0}, column)


@pytest.mark.parametrize("spec, where", [
    (float("nan"), "expr"),
    ({"op": "const", "value": float("inf")}, "expr.value"),
    ({"op": "scale", "factor": float("inf"), "arg": STATE0}, "expr.factor"),
    ({"op": "scale", "factor": "big", "arg": STATE0}, "expr.factor"),
    ({"op": "clamp", "lo": float("nan"), "hi": 1.0, "arg": STATE0}, "expr.lo"),
    ({"op": "clamp", "lo": -1.0, "hi": float("inf"), "arg": STATE0}, "expr.hi"),
    ({"op": "table", "xs": [0.0, float("nan")], "ys": [0.0, 1.0], "arg": STATE0},
     r"expr.xs\[1\]"),
    ({"op": "table", "xs": [0.0, 1.0], "ys": [float("-inf"), 1.0], "arg": STATE0},
     r"expr.ys\[0\]"),
    ({"op": "table", "xs": 3.0, "ys": [0.0, 1.0], "arg": STATE0}, "expr: table needs lists"),
])
def test_non_finite_constants_are_rejected(spec, where):
    with pytest.raises(ExprError, match=where):
        compile_expr(spec)


def test_compiled_generator_columns_match_its_step():
    gen = compile_generator({
        "state_dim": 2,
        "input_dim": 1,
        "noise": {"law": "uniform", "lo": [-0.5, 0.0], "hi": [0.5, 2.0]},
        "components": [
            {"op": "add", "args": [{"op": "scale", "factor": 0.5, "arg": STATE0},
                                   {"op": "input"}, {"op": "noise", "index": 1}]},
            {"op": "clamp", "lo": -1.0, "hi": 1.0, "arg": {"op": "mul", "args": [STATE1, 3.0]}},
        ],
    })
    rng = np.random.default_rng(5)
    for rows in (3, 40):  # below and above the size where noise reads vectorise
        fibers = [Fiber(int(s), int(o)) for s, o in zip(rng.integers(0, 2**32, rows),
                                                        rng.integers(-5, 5, rows))]
        xs, us = rng.uniform(-2, 2, (rows, 2)), rng.uniform(-1, 1, (rows, 1))
        got = gen.columns([w.seed for w in fibers], np.array([w.offset for w in fibers]), xs, us)
        ref = np.array([gen(w, x, u) for w, x, u in zip(fibers, xs, us)])
        assert got.tobytes() == ref.tobytes()
