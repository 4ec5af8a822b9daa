"""Unit tests for the stochastic-process algebra."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdsio import process
from rdsio.mpds import CellLaw, Fiber, Fibers, cell_noise, fiber_grid
from rdsio.process import InputTable, constant, decaying_input, stationary
from rdsio.rdsi import draw_inputs
import reference_process as ref
from reference_inputs import InputNodes, tree
from reference_process import LIBRARY as LIB, pointwise_process, pointwise_variable

LAW = CellLaw("uniform", lo=(-1.0, 0.0), hi=(1.0, 2.0))


def _max_divergence(p, q, times, fibers):
    """Largest pointwise gap between two processes on a sampling grid."""
    return max(float(np.max(np.abs(p(t, w) - q(t, w)))) for t in times for w in fibers)


def _grid(time_kind):
    if time_kind == "discrete":
        return list(range(0, 12)), fiber_grid(6, seed=100)
    return [0.0, 0.3, 1.0, 2.5, 7.0], fiber_grid(6, seed=100, offset=0.25)


@pytest.mark.parametrize("time_kind", ["discrete", "continuous"])
def test_shift_by_zero_is_pointwise_identity(time_kind):
    q = stationary(cell_noise(LAW), time_kind)
    times, fibers = _grid(time_kind)
    assert _max_divergence(q.shift(0), q, times, fibers) == 0.0


@pytest.mark.parametrize("time_kind", ["discrete", "continuous"])
def test_stationary_is_shift_invariant(time_kind):
    q = stationary(cell_noise(LAW, lag=1), time_kind)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        w = Fiber(int(rng.integers(0, 2**31)),
                  0 if time_kind == "discrete" else float(rng.uniform(0, 1)))
        if time_kind == "discrete":
            s, t = int(rng.integers(0, 20)), int(rng.integers(0, 20))
        else:
            s, t = float(rng.uniform(0, 20)), float(rng.uniform(0, 20))
        np.testing.assert_array_equal(q.shift(s)(t, w), q(t, w))


@given(
    s1=st.integers(0, 15),
    s2=st.integers(0, 15),
    t=st.integers(0, 15),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=100)
def test_shift_composes_additively(s1, s2, t, seed):
    noise = ref.cell_noise(LAW)
    spliced = ref.constant([1.0]).concat(
        ref.stationary(ref.PointwiseVariable(1, lambda w: noise(w)[:1])), 4)
    q = pointwise_process(1, "discrete", spliced)
    w = Fiber(seed, 0)
    np.testing.assert_array_equal(
        q.shift(s1).shift(s2)(t, w), q.shift(s1 + s2)(t, w)
    )


# the splice of the pointwise reference, against which input tables are read


def test_concat_case_split():
    u = ref.constant([1.0], "continuous")
    v = ref.constant([2.0], "continuous")
    spliced = u.concat(v, 3.0)
    w = Fiber(0, 0.25)
    assert spliced(2.5, w)[0] == 1.0
    assert spliced(3.5, w)[0] == 2.0
    assert spliced(3.0, w)[0] == 2.0  # boundary belongs to the tail


def test_concat_with_shifted_tail_reproduces_the_original():
    # splicing a process with its own restarted tail changes nothing
    q = ref.stationary(ref.cell_noise(LAW), "discrete")
    for s in (0, 1, 5):
        glued = q.concat(q.shift(s), s)
        times, fibers = _grid("discrete")
        assert _max_divergence(glued, q, times, fibers) == 0.0


def test_concat_at_zero_is_the_restarted_tail():
    u = ref.stationary(ref.cell_noise(LAW), "discrete")
    v = ref.stationary(ref.cell_noise(LAW, lag=2), "discrete")
    times, fibers = _grid("discrete")
    glued = u.concat(v, 0)
    assert _max_divergence(glued, v, times, fibers) == 0.0


def test_concat_validation():
    u = ref.constant([1.0])
    with pytest.raises(ValueError, match="arity"):
        u.concat(ref.constant([1.0, 2.0]), 1)
    with pytest.raises(ValueError, match="time-kind"):
        u.concat(ref.constant([1.0], "continuous"), 1)
    with pytest.raises(ValueError):
        u.concat(u, -1)


def test_pullback_of_constant_is_constant():
    q = constant([4.0, -2.0], "continuous")
    times, fibers = _grid("continuous")
    assert _max_divergence(q.pullback(), q, times, fibers) == 0.0


@pytest.mark.parametrize("time_kind", ["discrete", "continuous"])
def test_pullback_of_stationary_is_constant_in_time(time_kind):
    rv = cell_noise(LAW, lag=-1)
    q = stationary(rv, time_kind)
    times, fibers = _grid(time_kind)
    pb = q.pullback()
    for w in fibers:
        base = rv.across(ref.batch([w]))[0]
        for t in times:
            np.testing.assert_array_equal(pb(t, w), base)


def test_pullback_substitution_recovers_forward_values():
    q = pointwise_process(
        2, "discrete", ref.stationary(ref.cell_noise(LAW)).concat(ref.constant([0.5, 0.5]), 6))
    pb = q.pullback()
    times, fibers = _grid("discrete")
    for w in fibers:
        for t in times:
            np.testing.assert_array_equal(pb(t, w.shift(t)), q(t, w))


def test_stationary_round_trip_recovers_the_variable():
    rv = cell_noise(LAW, lag=2)
    q = stationary(rv, "discrete")
    for w in fiber_grid(10, seed=55):
        np.testing.assert_array_equal(q(0, w), rv.across(ref.batch([w]))[0])


def test_stationarity_criterion_both_directions():
    # a process equals the stationary process of its time-zero freeze
    # exactly when the observer shift fixes it
    times, fibers = _grid("discrete")
    q = stationary(cell_noise(LAW), "discrete")
    frozen = pointwise_variable(q.dim, lambda w: q(0, w))  # the freeze at time zero
    rebuilt = stationary(frozen, "discrete")
    assert _max_divergence(q, rebuilt, times, fibers) == 0.0

    moving = pointwise_process(
        2, "discrete", ref.constant([0.0, 0.0]).concat(ref.stationary(ref.cell_noise(LAW)), 3))
    shifted = moving.shift(3)
    assert _max_divergence(moving, shifted, times, fibers) > 0.0


def test_decaying_input_pullback_limit():
    limit = cell_noise(CellLaw("uniform", lo=(0.5,), hi=(1.5,)))
    disturbance = cell_noise(CellLaw("uniform", lo=(0.2,), hi=(0.4,)), lag=1)
    u = process.decaying_input(limit, disturbance, rate=1.0)
    w = Fiber(12, 0.25)
    for t in (0.0, 1.0, 5.0, 20.0):
        expected = (limit.across(ref.batch([w]))[0]
                    + np.exp(-t) * disturbance.across(ref.batch([w]))[0])
        np.testing.assert_allclose(u(t, w.shift(-t)), expected, rtol=0, atol=1e-15)


def test_negative_time_rejected():
    q = constant([1.0])
    with pytest.raises(ValueError):
        q(-1, Fiber(0, 0))
    with pytest.raises(ValueError):
        q.shift(-2)


def _stacked(q, times, w):
    """The pointwise reads of the reference ``q`` that ``over(batch([w]),
    times)[0]`` batches."""
    return np.array([q(t, w) for t in times]).reshape(len(times), q.dim)


def _assert_bitwise(batch, pointwise):
    np.testing.assert_array_equal(batch, pointwise)
    assert batch.shape == pointwise.shape
    assert batch.tobytes() == pointwise.tobytes()


CHOICE = CellLaw("choice", choices=((0.0, 1.0), (1.0, -1.0), (4.0, 0.5)))


def _native_forms(time_kind, s, lib=LIB):
    """Every native process form at one shift time, built from the
    constructors of ``lib``: the library's, or the pointwise reference's."""
    u = lib.stationary(lib.cell_noise(LAW, lag=-2), time_kind)
    v = lib.stationary(lib.cell_noise(CHOICE, lag=3), time_kind)
    c = lib.constant([0.5, -2.0], time_kind)
    forms = [u, v, c, u.shift(s), c.shift(s), v.pullback(), u.shift(s).pullback(),
             v.pullback().shift(s)]
    if time_kind == "continuous":
        rate = 0.75
        forms.append(lib.decaying_input(lib.cell_noise(LAW), lib.cell_noise(LAW, lag=1),
                                        rate=rate))
        forms.extend([forms[-1].shift(s), forms[-1].pullback()])
    return forms


def _form_pairs(time_kind, s):
    """Each native form and its pointwise reference."""
    return zip(_native_forms(time_kind, s), _native_forms(time_kind, s, ref))


@given(
    seed=st.integers(0, 2**40),
    offset=st.floats(-20.0, 20.0, allow_nan=False),
    splice=st.floats(0.0, 10.0, allow_nan=False),
    times=st.lists(st.floats(0.0, 30.0, allow_nan=False), max_size=30),
)
@settings(max_examples=80, deadline=None)
def test_at_equals_pointwise_on_continuous_forms(seed, offset, splice, times):
    w = Fiber(seed, offset)
    times = times + [splice]  # a query exactly at the shift time
    for q, pointwise in _form_pairs("continuous", splice):
        _assert_bitwise(q.over(ref.batch([w]), np.asarray(times))[0],
                        _stacked(pointwise, times, w))


@given(
    seed=st.integers(0, 2**40),
    offset=st.integers(-200, 200),
    splice=st.integers(0, 10),
    times=st.lists(st.integers(0, 30), max_size=30),
)
@settings(max_examples=80, deadline=None)
def test_at_equals_pointwise_on_discrete_forms(seed, offset, splice, times):
    w = Fiber(seed, offset)
    times = times + [splice]
    for q, pointwise in _form_pairs("discrete", splice):
        _assert_bitwise(q.over(ref.batch([w]), np.asarray(times, dtype=np.int64))[0],
                        _stacked(pointwise, times, w))


@given(seed=st.integers(0, 2**32), draw=st.integers(0, 2**32),
       time_kind=st.sampled_from(["discrete", "continuous"]))
@settings(max_examples=80, deadline=None)
def test_at_equals_pointwise_on_random_inputs(seed, draw, time_kind):
    # a drawn one-row table, lifted, read as its pointwise tree plus the lift
    rng = np.random.default_rng(draw)
    table = replace(draw_inputs(rng, 1, 2, time_kind, 8.0), lift=np.array([[0.1, 0.2]]))
    pointwise = tree(table, 0) + ref.constant([0.1, 0.2], time_kind)
    if time_kind == "discrete":
        w, times = Fiber(seed, int(rng.integers(-50, 50))), list(range(0, 13))
    else:
        w = Fiber(seed, float(rng.uniform(-5.0, 5.0)))
        times = [float(t) for t in rng.uniform(0.0, 12.0, size=20)]
        times += [float(b) for b in pointwise.breakpoints(w, 0.0, 12.0)]
    _assert_bitwise(table.over(ref.batch([w]), [times])[0], _stacked(pointwise, times, w))


def _opaque_pairs():
    """Processes over per-point closures, each with its pointwise reference."""
    u = ref.stationary(ref.cell_noise(LAW, lag=1), "continuous")
    scaled = lambda t, w: 3.0 * u(t, w)  # noqa: E731
    sine = lambda w: np.sin(ref.cell_noise(LAW)(w))  # noqa: E731
    clock = lambda t, w: np.array([t * w.offset])  # noqa: E731
    return [
        (pointwise_process(2, "continuous", scaled), ref.PointwiseProcess(2, "continuous", scaled)),
        (stationary(pointwise_variable(2, sine), "continuous"),
         ref.stationary(ref.PointwiseVariable(2, sine), "continuous")),
        (pointwise_process(1, "continuous", clock), ref.PointwiseProcess(1, "continuous", clock)),
    ]


def test_opaque_processes_fall_back_to_pointwise_reads():
    w = Fiber(4, 0.75)
    times = [0.0, 0.5, 1.0, 2.25, 7.5]
    for q, pointwise in _opaque_pairs():
        _assert_bitwise(q.over(ref.batch([w]), np.asarray(times))[0],
                        _stacked(pointwise, times, w))
    assert q.over(ref.batch([w]), []).shape == (1, 0, 1)


def test_at_rejects_negative_times():
    q = stationary(cell_noise(LAW), "continuous")
    with pytest.raises(ValueError, match="t >= 0"):
        q.over(ref.batch([Fiber(0, 0.0)]), [0.0, -0.5])


def test_stationary_reads_its_variable_along_the_orbit():
    rv = cell_noise(LAW, lag=1)
    q = stationary(rv, "continuous")
    assert type(q) is process.Process
    w = Fiber(8, 0.3)
    times = np.array([0.0, 0.7, 1.7, 5.0])
    _assert_bitwise(q.over(ref.batch([w]), times)[0], rv.over(ref.batch([w]), times)[0])


def _stacked_over(q, times, fibers):
    """The pointwise reads of the reference ``q`` that ``over(fibers,
    times)`` batches."""
    return np.array([_stacked(q, times, w) for w in fibers]).reshape(
        len(fibers), len(times), q.dim)


@given(
    seeds=st.lists(st.integers(-2**63, 2**64 - 1), max_size=10),
    offsets=st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=1, max_size=3),
    splice=st.floats(0.0, 10.0, allow_nan=False),
    times=st.lists(st.floats(0.0, 30.0, allow_nan=False), max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_over_fibers_equals_pointwise_on_continuous_forms(seeds, offsets, splice, times):
    # fibers at one shared offset, and at a few distinct ones
    fibers = [Fiber(s, offsets[i % len(offsets)]) for i, s in enumerate(seeds)]
    times = times + [splice]
    for q, pointwise in _form_pairs("continuous", splice):
        got = q.over(ref.batch(fibers), np.asarray(times))
        _assert_bitwise(got, _stacked_over(pointwise, times, fibers))
        if fibers:  # a fiber read alone reads as it does among the others
            _assert_bitwise(q.over(ref.batch(fibers[-1:]), np.asarray(times))[0], got[-1])


@given(
    seeds=st.lists(st.integers(0, 2**40), max_size=10),
    offset=st.integers(-200, 200),
    splice=st.integers(0, 10),
    times=st.lists(st.integers(0, 30), max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_over_fibers_equals_pointwise_on_discrete_forms(seeds, offset, splice, times):
    fibers = [Fiber(s, offset) for s in seeds]
    times = times + [splice]
    for q, pointwise in _form_pairs("discrete", splice):
        _assert_bitwise(q.over(ref.batch(fibers), np.asarray(times, dtype=np.int64)),
                        _stacked_over(pointwise, times, fibers))


def test_opaque_processes_over_fibers_fall_back_to_pointwise_reads():
    u = stationary(cell_noise(LAW, lag=1), "continuous")
    fibers = fiber_grid(4, seed=12, offset=0.75)
    times = [0.0, 0.5, 2.25]
    for q, pointwise in _opaque_pairs():
        _assert_bitwise(q.over(fibers, np.asarray(times)),
                        _stacked_over(pointwise, times, fibers))
    assert u.over(fibers, []).shape == (4, 0, 2)
    with pytest.raises(ValueError, match="t >= 0"):
        u.over(fibers, [-1.0])


# --------------------------------------------------------------------------
# input tables against the pointwise process trees they flatten

_VEC = st.tuples(st.floats(-2.0, 2.0, allow_nan=False), st.floats(-2.0, 2.0, allow_nan=False))
_PIECES = st.one_of(
    st.tuples(st.just("constant"), _VEC),
    # a uniform box as the sampled checks draw it: hi = lo + a positive width
    st.tuples(st.just("cell"), st.tuples(st.floats(-2.0, 0.0), st.floats(-2.0, 0.0)),
              st.tuples(st.floats(0.2, 2.0), st.floats(0.2, 2.0)), st.integers(-3, 3)).map(
        lambda c: ("cell", c[1], tuple(lo + w for lo, w in zip(c[1], c[2])), c[3])),
)


def _splices(time_kind):
    if time_kind == "discrete":
        return st.integers(0, 10)
    # whole numbers land on cell edges of a whole offset; 1.5 then 1.3 makes
    # 2.8 - 1.5 < 1.3 while 2.8 < 1.5 + 1.3 fails
    return st.one_of(st.integers(0, 10).map(float), st.floats(0.0, 10.0, allow_nan=False),
                     st.sampled_from([0.1, 0.2, 0.7, 1.3, 1.5]))


def _trees(time_kind):
    return st.recursive(
        _PIECES, lambda kids: st.tuples(st.just("concat"), kids, kids, _splices(time_kind)),
        max_leaves=4)


def _build(spec, nodes, time_kind):
    """The pointwise process tree of ``spec``, and its root node, appended
    to ``nodes``."""
    if spec[0] == "constant":
        return ref.constant(spec[1], time_kind), nodes.constant(np.asarray(spec[1]))
    if spec[0] == "cell":
        _, lo, hi, lag = spec
        law = CellLaw("uniform", lo=lo, hi=hi)
        return ref.stationary(ref.cell_noise(law, lag=lag), time_kind), nodes.cell(lo, hi, lag)
    _, head, tail, s = spec
    (hp, hk), (tp, tk) = _build(head, nodes, time_kind), _build(tail, nodes, time_kind)
    return hp.concat(tp, s), nodes.concat(hk, tk, s)


def _splice_times(spec, start):
    """Every splice time of ``spec`` on the clock of a tree started at
    ``start``, the sums taken in both orders."""
    if spec[0] != "concat":
        return []
    _, head, tail, s = spec
    return ([start + s, s + start] + _splice_times(head, start)
            + _splice_times(tail, start + s) + _splice_times(tail, s))


def _row_points(points: np.ndarray) -> tuple[float, ...]:
    """One row of :meth:`InputTable.breakpoints` as a tuple, after
    checking that its NaN padding only trails its points."""
    count = int(np.sum(~np.isnan(points)))
    assert np.isnan(points[count:]).all()
    return tuple(points[:count].tolist())


@given(time_kind=st.sampled_from(process.TIME_KINDS), data=st.data())
@settings(max_examples=120, deadline=None)
def test_input_table_reads_bit_for_bit_as_its_process_trees(time_kind, data):
    discrete = time_kind == "discrete"
    rows = data.draw(st.integers(1, 4))
    nodes = InputNodes(2, time_kind)
    specs = [("concat", data.draw(_trees(time_kind)), data.draw(_trees(time_kind)),
              data.draw(_splices(time_kind))) for _ in range(rows)]
    heads = [_build(spec[1], nodes, time_kind) for spec in specs]
    tails = [_build(spec[2], nodes, time_kind) for spec in specs]
    splices = [spec[3] for spec in specs]
    # the outer splice of two drawn trees: up to four splices deep
    table = nodes.table([k for _, k in heads]).concat(nodes.table([k for _, k in tails]),
                                                        splices)
    trees = [h.concat(t, s) for (h, _), (t, _), s in zip(heads, tails, splices)]
    if data.draw(st.booleans()):
        lifts = np.array([data.draw(_VEC) for _ in range(rows)])
        table = replace(table, lift=lifts)
        trees = [p + ref.constant(lift, time_kind) for p, lift in zip(trees, lifts)]

    offset = st.integers(-50, 50) if discrete else st.one_of(
        st.integers(-5, 5).map(float), st.floats(-5.0, 5.0, allow_nan=False))
    fibers = [Fiber(data.draw(st.integers(0, 2**64 - 1)), data.draw(offset))
              for _ in range(rows)]
    spec_times = [[0] + _splice_times(spec, 0) for spec in specs]
    read_at = st.integers(0, 30) if discrete else st.floats(0.0, 30.0, allow_nan=False)
    width = 12
    times = []
    for base in spec_times:
        row = (base + data.draw(st.lists(read_at, min_size=width, max_size=width)))[:width]
        times.append(row)
    times = np.array(times, dtype=np.int64 if discrete else float)

    want = np.array([[p(t, w) for t in row]
                     for p, w, row in zip(trees, fibers, times.tolist())])
    _assert_bitwise(table.over(ref.batch(fibers), times), want)
    for r, w in enumerate(fibers):
        # a row read alone reads as it does among the others
        _assert_bitwise(table[r:r + 1].over(ref.batch([w]), times[r:r + 1])[0], want[r])
    # every row's splice times at once, in a shared interval or one per row
    for lo, hi in ((0.0, 30.0), (0.0, times.max(axis=1).astype(float)), (0.5, 7.25)):
        points = table.breakpoints(lo, hi)
        for r, (p, w) in enumerate(zip(trees, fibers)):
            hi_r = float(np.broadcast_to(hi, (rows,))[r])
            assert _row_points(points[r]) == p.breakpoints(w, lo, hi_r)
            alone = table[r:r + 1].breakpoints(lo, hi_r)[0]
            assert _row_points(alone) == p.breakpoints(w, lo, hi_r)


@pytest.mark.parametrize("time_kind", process.TIME_KINDS)
def test_input_table_spliced_at_zero_or_past_every_read_is_one_side(time_kind):
    # a row spliced at 0 reads as its tail row, and a row spliced past
    # every read time as its head row, bit for bit, with their splice times
    rng = np.random.default_rng(31)
    discrete = time_kind == "discrete"
    drawn = draw_inputs(rng, 40, 1, time_kind, 6.0)
    heads, tails = drawn[:20], drawn[20:]
    fibers = [Fiber(int(s), int(o) if discrete else float(o))
              for s, o in zip(rng.integers(0, 2**64 - 1, 20, dtype=np.uint64),
                              rng.uniform(-5.0, 5.0, 20))]
    times = rng.integers(0, 15, (20, 10)) if discrete else rng.uniform(0.0, 15.0, (20, 10))
    hi = times.max(axis=1).astype(float)
    zero = np.zeros(20, dtype=times.dtype)
    for spliced, side in ((heads.concat(tails, zero), tails),
                          (heads.concat(tails, (hi + 1.0).astype(times.dtype)), heads)):
        want = np.array([[tree(side, r)(t, w) for t in row]
                         for r, (w, row) in enumerate(zip(fibers, times.tolist()))])
        _assert_bitwise(spliced.over(ref.batch(fibers), times), want)
        for r, w in enumerate(fibers):
            assert (_row_points(spliced.breakpoints(0.0, hi)[r])
                    == tree(side, r).breakpoints(w, 0.0, float(hi[r])))


def test_input_table_takes_the_inner_splice_on_the_local_clock():
    # 2.8 - 1.5 < 1.3 but not 2.8 < 1.5 + 1.3: the tree reads the inner head
    # at 2.8, where a search of absolute piece starts would read its tail
    s, s2, tau = 1.5, 1.3, 2.8
    assert (tau - s) < s2 and not tau < s + s2
    nodes = InputNodes(1, "continuous")
    a, b, c = (nodes.constant(np.array([v])) for v in (1.0, 2.0, 3.0))
    table = nodes.table([nodes.concat(a, nodes.concat(b, c, s2), s)])
    pointwise = ref.constant([1.0], "continuous").concat(
        ref.constant([2.0], "continuous").concat(ref.constant([3.0], "continuous"), s2), s)
    w = Fiber(3, 0.25)
    assert table.over(ref.batch([w]), [[tau]])[0, 0, 0] == 2.0 == pointwise(tau, w)[0]
    points = _row_points(table.breakpoints(0.0, 5.0)[0])
    assert points == pointwise.breakpoints(w, 0.0, 5.0) == (1.5, 2.8)


def test_constant_rows_read_as_constants():
    values = np.array([[0.5, -0.0], [np.inf, 2.0], [-1.0, np.nan]])
    table = InputTable.constants(values, "discrete")
    fibers = fiber_grid(3, seed=4)
    got = table.over(fibers, np.arange(4))
    want = np.array([[ref.constant(v, "discrete")(t, w) for t in range(4)]
                     for v, w in zip(values, fibers)])
    _assert_bitwise(got, want)
    assert table.breakpoints(0.0, 10.0).shape == (3, 0)


def test_input_table_indexing_and_validation():
    nodes = InputNodes(1, "discrete")
    roots = [nodes.constant(np.array([float(v)])) for v in range(5)]
    table = nodes.table(roots)
    assert len(table) == 5 and len(table[1:3]) == 2
    picked = table[np.array([4, 0, 4])]
    got = picked.over(fiber_grid(3, seed=1), np.zeros((3, 1), dtype=np.int64))
    assert got[:, 0, 0].tolist() == [4.0, 0.0, 4.0]
    with pytest.raises(ValueError, match="t >= 0"):
        table.over(fiber_grid(5), -np.ones((5, 1), dtype=np.int64))
    with pytest.raises(ValueError, match="one splice time per row"):
        table.concat(table, [1, 2])
    with pytest.raises(ValueError, match="s >= 0"):
        table.concat(table, [1, -1, 0, 0, 0])
    with pytest.raises(ValueError, match="integer s"):
        table.concat(table, [1.5, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="mismatched"):
        table.concat(InputTable.constants(np.zeros((5, 2)), "discrete"), [0] * 5)
    with pytest.raises(ValueError, match="lifted"):
        replace(table, lift=np.zeros((5, 1))).concat(table, [0] * 5)


def _drawn_reads(rng, rows, time_kind):
    """Random fibers and ``(rows, 9)`` read times for drawn tables."""
    discrete = time_kind == "discrete"
    offsets = rng.integers(-5, 5, rows) if discrete else rng.uniform(-5.0, 5.0, rows)
    fibers = Fibers(rng.integers(0, 2**64 - 1, rows, dtype=np.uint64), offsets)
    times = rng.integers(0, 15, (rows, 9)) if discrete else rng.uniform(0.0, 15.0, (rows, 9))
    return fibers, times


@pytest.mark.parametrize("time_kind", process.TIME_KINDS)
def test_input_table_reads_the_same_in_chunks_of_any_size(time_kind, monkeypatch):
    rng = np.random.default_rng(37)
    table = draw_inputs(rng, 40, 2, time_kind, 6.0)
    table = replace(table, lift=rng.uniform(-1.0, 1.0, (40, 2)))
    fibers, times = _drawn_reads(rng, 40, time_kind)
    monkeypatch.setattr(process, "_READ_POINTS", 1 << 30)
    whole = table.over(fibers, times)
    walk, walked = InputTable._walk, []
    monkeypatch.setattr(InputTable, "_walk",
                        lambda self, ws, ts: walked.append(len(self)) or walk(self, ws, ts))
    for points, rows in ((1, 1), (17, 1), (18, 2), (100, 11), (1 << 30, 40)):
        monkeypatch.setattr(process, "_READ_POINTS", points)
        walked.clear()
        _assert_bitwise(table.over(fibers, times), whole)
        # chunks of at most the bound's whole rows, or of one row
        assert max(walked) == rows and sum(walked) == 40


@pytest.mark.parametrize("time_kind", process.TIME_KINDS)
def test_stacked_table_rows_read_as_in_their_source_tables(time_kind):
    rng = np.random.default_rng(29)
    drawn = draw_inputs(rng, 30, 2, time_kind, 6.0)
    # two row selections of one table, and part of another table
    sources = [drawn[:10], drawn[np.arange(29, 9, -2)], draw_inputs(rng, 7, 2, time_kind, 6.0)[2:]]
    fibers, times = _drawn_reads(rng, 25, time_kind)
    hi = times.max(axis=1).astype(float)
    for tables in (sources, [replace(t, lift=rng.uniform(-1.0, 1.0, (len(t), 2)))
                             for t in sources]):
        stacked = InputTable.stack(tables)
        assert len(stacked) == 25
        got, points = stacked.over(fibers, times), stacked.breakpoints(0.0, hi)
        starts = np.cumsum([0] + [len(t) for t in tables])
        for t, start, stop in zip(tables, starts, starts[1:]):
            _assert_bitwise(got[start:stop], t.over(fibers[start:stop], times[start:stop]))
            want = t.breakpoints(0.0, hi[start:stop])
            for r in range(len(t)):
                assert _row_points(points[start + r]) == _row_points(want[r])
    for other in (draw_inputs(rng, 3, 1, time_kind, 6.0),
                  InputTable.constants(np.zeros((3, 2)), next(
                      k for k in process.TIME_KINDS if k != time_kind)),
                  replace(drawn[:3], lift=np.zeros((3, 2)))):
        with pytest.raises(ValueError, match="mismatched tables in stacking"):
            InputTable.stack([drawn, other])


@pytest.mark.parametrize("time_kind", process.TIME_KINDS)
def test_packed_table_reads_as_the_table(time_kind):
    # a permuted selection with a repeated row, of a lifted and spliced
    # table, keeps only its rows' nodes, renumbered in row order
    rng = np.random.default_rng(31)
    drawn = draw_inputs(rng, 30, 2, time_kind, 6.0)
    spliced = drawn[:15].concat(drawn[15:], rng.integers(0, 5, 15))
    for table in (replace(drawn, lift=rng.uniform(-1.0, 1.0, (30, 2)))[[7, 3, 29, 3, 0]],
                  spliced[::-2], drawn[:0]):
        packed = table.packed()
        assert packed.roots.tolist() == list(range(len(table)))
        assert len(packed.nodes.split) <= len(table.nodes.split)
        fibers, times = _drawn_reads(rng, len(table), time_kind)
        _assert_bitwise(packed.over(fibers, times), table.over(fibers, times))


@pytest.mark.parametrize("time_kind", ["discrete", "continuous"])
def test_per_row_times_read_each_row_as_its_own_read(time_kind):
    # (F, n) times, one row per fiber, bit for bit as a read of each fiber
    # at its own row of times
    box = CellLaw("uniform", lo=(0.5, -1.0), hi=(1.5, 1.0))
    rng = np.random.default_rng(9)
    fibers = [*fiber_grid(3, seed=90, offset=0 if time_kind == "discrete" else 0.25),
              Fiber(2**64 - 1, -4 if time_kind == "discrete" else -3.5)]
    if time_kind == "discrete":
        times = rng.integers(0, 12, size=(4, 5))
    else:
        times = rng.uniform(0.0, 12.0, size=(4, 5))
        times[1, 2] = 3.0
    limit, bump = cell_noise(box), cell_noise(box, lag=2)
    forms = [constant([0.5, -2.0], time_kind), stationary(cell_noise(box, lag=-1), time_kind),
             decaying_input(limit, bump, rate=0.75, time_kind=time_kind),
             decaying_input(limit, bump, rate=0.75, time_kind=time_kind).shift(3),
             stationary(cell_noise(box), time_kind).pullback()]
    for p in forms:
        got = p.over(ref.batch(fibers), times)
        assert got.shape == (4, 5, 2)
        for f, w in enumerate(fibers):
            assert got[f].tobytes() == p.over(ref.batch([w]), times[f])[0].tobytes()
