"""Unit tests for scenario expression trees and law specs, read and
compiled as a scenario file's are."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdsio.cli import ScenarioError, _expr, _law, compile_generator
from rdsio.mpds import Fiber
from reference_process import batch, law_sample, one_step

# symbol dimensions wide enough for every expression below
DIMS = {"state": 2, "input": 1, "noise": 1}


def read_expr(spec, dims, path="expr"):
    """``spec`` read as an expression over ``dims`` at ``path``, compiled."""
    return _expr(dims)(spec, path, None)


def read_law(spec, path="law"):
    """``spec`` read as a cell law at ``path``."""
    return _law(spec, path, None)


def refused(message):
    """Expect a ScenarioError whose whole text is ``message``."""
    return pytest.raises(ScenarioError, match=f"^{re.escape(message)}$")


def test_law_forms():
    const = read_law({"law": "constant", "values": [1.0, 2.0]})
    np.testing.assert_array_equal(law_sample(const, 0, 5), [1.0, 2.0])
    uni = read_law({"law": "uniform", "lo": -1.0, "hi": 1.0})
    assert uni.dim == 1
    v = law_sample(uni, 3, 7)
    assert -1.0 <= v[0] <= 1.0
    choice = read_law({"law": "choice", "choices": [[0.0], [2.0]]})
    assert law_sample(choice, 1, 1)[0] in (0.0, 2.0)


def test_law_errors_carry_paths():
    with refused("sys.a.law: expected one of ('constant', 'uniform', 'choice'), "
                 "got 'gaussian'"):
        read_law({"law": "gaussian"}, path="sys.a")
    with refused("sys.a: missing required field 'hi'"):
        read_law({"law": "uniform", "lo": [0.0]}, path="sys.a")
    with refused("sys.a.values[0]: expected a finite number, got 'x'"):
        read_law({"law": "constant", "values": ["x"]}, path="sys.a")
    with refused("sys.a.lo[0]: expected a finite number, got True"):
        read_law({"law": "uniform", "lo": [True], "hi": [1.0]}, path="sys.a")
    with refused("sys.a: uniform law needs lo <= hi"):
        read_law({"law": "uniform", "lo": [1.0], "hi": [0.0]}, path="sys.a")
    for choices, where in ((5, "sys.a.choices"), ([{"x": 0}], "sys.a.choices[0]")):
        with refused(f"{where}: expected a list of one or more entries"):
            read_law({"law": "choice", "choices": choices}, path="sys.a")


@pytest.mark.parametrize("spec, path", [
    ({"law": "uniform", "lo": [0.0], "hi": [1.0], "lag": 3}, "sys.a.lag"),
    ({"law": "constant", "values": [1.0], "lo": [0.0]}, "sys.a.lo"),
    ({"law": "choice", "choices": [[0.0]], "weights": [1.0]}, "sys.a.weights"),
])
def test_law_fields_the_kind_does_not_read_are_refused(spec, path):
    with pytest.raises(ScenarioError, match=rf"^{path}: unknown field$"):
        read_law(spec, path="sys.a")


@pytest.mark.parametrize("spec, path", [
    ({"op": "state", "indx": 1}, "gen.indx"),
    ({"op": "add", "args": [{"op": "noise", "index": 0, "lag": 1}]}, r"gen.args\[0\].lag"),
    ({"op": "scale", "factor": 2.0, "arg": 1.0, "value": 3.0}, "gen.value"),
    ({"op": "const", "value": 1.0, "index": 0}, "gen.index"),
])
def test_expr_fields_the_op_does_not_read_are_refused(spec, path):
    with pytest.raises(ScenarioError, match=rf"^{path}: unknown field$"):
        read_expr(spec, {"state": 2, "noise": 1}, path="gen")


def test_expr_affine_clamp_table():
    expr = {
        "op": "add",
        "args": [
            {"op": "scale", "factor": 0.5, "arg": {"op": "state", "index": 0}},
            {"op": "clamp", "lo": -1.0, "hi": 1.0, "arg": {"op": "input", "index": 0}},
            {"op": "mul", "args": [{"op": "noise", "index": 0}, 2.0]},
        ],
    }
    fn = read_expr(expr, DIMS)
    x, u, n = np.array([4.0]), np.array([3.0]), np.array([0.25])
    assert fn(x, u, n) == pytest.approx(2.0 + 1.0 + 0.5)

    table = read_expr({"op": "table", "xs": [0.0, 1.0, 2.0], "ys": [0.0, 1.0, 0.0],
                       "arg": {"op": "state", "index": 0}}, DIMS)
    assert table(np.array([0.5]), u, n) == pytest.approx(0.5)
    assert table(np.array([1.5]), u, n) == pytest.approx(0.5)


def test_expr_errors_carry_paths():
    with refused("gen.components[0].args[1].op: expected one of ('const', 'add', 'mul', "
                 "'scale', 'clamp', 'table', 'state', 'input', 'noise'), got 'frobnicate'"):
        read_expr({"op": "add", "args": [1.0, {"op": "frobnicate"}]}, DIMS,
                  path="gen.components[0]")
    with refused("expr.xs: expected two or more strictly increasing numbers"):
        read_expr({"op": "table", "xs": [0.0, 0.0], "ys": [1.0, 2.0],
                   "arg": {"op": "state"}}, DIMS)
    with refused("expr.ys: expected a list of 2 entries"):
        read_expr({"op": "table", "xs": [0.0, 1.0], "ys": [1.0], "arg": 0.0}, DIMS)
    with refused("expr.hi: must be at least 2.0, got 1.0"):
        read_expr({"op": "clamp", "lo": 2.0, "hi": 1.0, "arg": 0.0}, DIMS)
    with refused("expr.args: expected a list of one or more entries"):
        read_expr({"op": "add", "args": []}, DIMS)
    with refused("expr.factor: expected a finite number, got True"):
        read_expr({"op": "scale", "factor": True, "arg": 1.0}, DIMS)


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
    out = one_step(gen, Fiber(0, 0), [2.0], [0.25])
    assert out[0] == pytest.approx(1.0 + 0.25 + 0.125)


def test_compile_generator_component_count_checked():
    with refused("generator.components: expected a list of 2 entries"):
        compile_generator({"state_dim": 2, "components": [0.0]})
    for noise in ({}, 0, False, "", []):
        with pytest.raises(ScenarioError, match=r"^generator\.noise: "):
            compile_generator({"state_dim": 1, "noise": noise, "components": [0.0]})


# -- column form: each op on (B,) columns equals the op on each row --------

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0]
values = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL))
finite = st.floats(-1e6, 1e6)


def _rows_equal_column(spec, states, inputs=None, noise=None):
    """``read_expr(spec)`` on the stacked columns is, bit for bit, the
    scalar form on each row; ``states`` is ``(B, n)``.  A NaN must be NaN
    in both forms, but its payload may differ: IEEE 754 leaves a NaN
    result's payload unspecified (numpy's scalars and its ufuncs can
    propagate different ones), and the program treats every NaN alike."""
    fn = read_expr(spec, DIMS)
    states = np.asarray(states, dtype=float)
    inputs = np.zeros((len(states), 0)) if inputs is None else np.asarray(inputs, dtype=float)
    noise = np.zeros((len(states), 0)) if noise is None else np.asarray(noise, dtype=float)
    with np.errstate(all="ignore"):  # inf - inf and overflow are part of the test
        rows = np.array([fn(x, u, n) for x, u, n in zip(states, inputs, noise)], dtype=float)
        column = np.empty(len(states))
        column[:] = fn(states.T, inputs.T, noise.T)
    nan = np.isnan(rows)
    assert np.array_equal(np.isnan(column), nan)
    assert column[~nan].tobytes() == rows[~nan].tobytes()


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
    pytest.param({"op": "table", "xs": 3.0, "ys": [0.0, 1.0], "arg": STATE0},
                 "expr.xs: expected a list", id="spec8-expr: table needs lists"),
])
def test_non_finite_constants_are_rejected(spec, where):
    with pytest.raises(ScenarioError, match=where):
        read_expr(spec, DIMS)


def test_compiled_generator_columns_match_its_step():
    # the row step equals the components' scalar form, row by row, with the
    # noise cell each row's fiber reads
    law = {"law": "uniform", "lo": [-0.5, 0.0], "hi": [0.5, 2.0]}
    components = [
        {"op": "add", "args": [{"op": "scale", "factor": 0.5, "arg": STATE0},
                               {"op": "input"}, {"op": "noise", "index": 1}]},
        {"op": "clamp", "lo": -1.0, "hi": 1.0, "arg": {"op": "mul", "args": [STATE1, 3.0]}},
    ]
    gen = compile_generator({"state_dim": 2, "input_dim": 1, "noise": law,
                             "components": components})
    dims = {"state": 2, "input": 1, "noise": 2}
    scalar = [read_expr(c, dims) for c in components]
    cells = read_law(law)
    rng = np.random.default_rng(5)
    for rows in (3, 40):  # below and above the size where noise reads vectorise
        fibers = [Fiber(int(s), int(o)) for s, o in zip(rng.integers(0, 2**32, rows),
                                                        rng.integers(-5, 5, rows))]
        xs, us = rng.uniform(-2, 2, (rows, 2)), rng.uniform(-1, 1, (rows, 1))
        got = gen.many(batch(fibers), xs, us)
        ref = np.array([[f(x, u, law_sample(cells, w.seed, math.floor(w.offset))) for f in scalar]
                        for w, x, u in zip(fibers, xs, us)])
        assert got.tobytes() == ref.tobytes()
        rows = [one_step(gen, w, x, u) for w, x, u in zip(fibers, xs, us)]
        assert got.tobytes() == np.array(rows).tobytes()


@pytest.mark.parametrize("spec, dims, message", [
    ({"op": "state", "index": 0.5}, {"state": 2}, "expr.index: expected an integer, got 0.5"),
    ({"op": "noise", "index": True}, {"noise": 2}, "expr.index: expected an integer, got True"),
    # a symbol of dimension 0, or one the expression cannot read, is no op there
    pytest.param({"op": "input"}, {"state": 1, "noise": 0},
                 "expr.op: expected one of ('const', 'add', 'mul', 'scale', 'clamp', 'table', "
                 "'state'), got 'input'", id="spec2-dims2-expr: 'input' cannot be read here"),
    pytest.param({"op": "scale", "factor": 2.0, "arg": {"op": "input"}}, {"input": 0},
                 "expr.arg.op: expected one of ('const', 'add', 'mul', 'scale', 'clamp', "
                 "'table'), got 'input'", id="spec3-dims3-expr.arg.index: input has dimension 0"),
    ({"op": "state", "index": 2}, {"state": 2}, "expr.index: must be at most 1, got 2"),
])
def test_symbol_indices_are_checked_against_their_dimension(spec, dims, message):
    with refused(message):
        read_expr(spec, dims)


def test_integral_float_index_reads_that_component():
    fn = read_expr({"op": "state", "index": 1.0}, {"state": 2})
    assert fn(np.array([3.0, 4.0]), np.zeros(0), np.zeros(0)) == 4.0
