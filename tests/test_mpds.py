"""Unit tests for noise fibers, cell laws, and random variables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from rdsio import mpds
from rdsio.mpds import (CellLaw, Fiber, Fibers, cell_noise, constant_rv, fiber_grid, fiberwise,
                        temperedness_report)
import reference_process as ref
from reference_process import pointwise_variable

UNIFORM = CellLaw("uniform", lo=(-2.0,), hi=(-0.5,))
# lo + (hi - lo) * u is u itself on [0, 1): this law returns the raw draws
UNIT = CellLaw("uniform", lo=(0.0,) * 6, hi=(1.0,) * 6)


def _orbit(law, seed, idx):
    """``law`` on the cells ``idx`` of one seed, ``(n, dim)``."""
    return law.sample_grid((seed,), np.asarray(idx).reshape(1, -1))[0]


def test_shift_adds_offset():
    w = Fiber(7, 0.25)
    assert w.shift(1.5) == Fiber(7, 1.75)


def test_shift_zero_is_identity():
    w = Fiber(3, 0.5)
    assert w.shift(0) is w


@given(
    seed=st.integers(0, 2**32),
    offset=st.integers(-1000, 1000),
    s=st.integers(-500, 500),
    t=st.integers(-500, 500),
)
@settings(max_examples=200)
def test_shift_semigroup_discrete_exact(seed, offset, s, t):
    w = Fiber(seed, offset)
    assert w.shift(s).shift(t) == w.shift(s + t)


@given(
    seed=st.integers(0, 2**32),
    s=st.floats(-50, 50, allow_nan=False),
    t=st.floats(-50, 50, allow_nan=False),
)
@settings(max_examples=200)
def test_shift_semigroup_continuous_one_addition(seed, s, t):
    w = Fiber(seed, 0.25)
    lhs = w.shift(s).shift(t).offset
    rhs = w.shift(s + t).offset
    assert lhs == pytest.approx(rhs, abs=1e-12)


float_offsets = st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
                          st.sampled_from([0.0, -0.0, 1.0 + 2.0**-52, -(1.0 + 2.0**-52)]))
whole_offsets = st.integers(-2**40, 2**40)


def _same_fiber(got, want):
    """Equal seed, and equal offset in value, sign and type (int or float)."""
    assert got.seed == want.seed
    assert type(got.offset) is type(want.offset)
    assert got.offset == want.offset
    assert math.copysign(1.0, got.offset) == math.copysign(1.0, want.offset)


@given(data=st.data(), discrete=st.booleans(), per_row=st.booleans())
@settings(max_examples=200, deadline=None)
def test_fibers_shift_like_each_fiber(data, discrete, per_row):
    offsets = whole_offsets if discrete else float_offsets
    fibers = data.draw(st.lists(st.builds(Fiber, st.integers(0, 2**64 - 1), offsets),
                                max_size=8))
    batch = ref.batch(fibers)
    assert len(batch) == len(fibers)
    for i, (got, w) in enumerate(zip(batch, fibers)):
        _same_fiber(got, w)
        _same_fiber(batch[i], w)
    # the offsets share one dtype: one t per row on int offsets is an int
    if per_row:
        shifts = whole_offsets if discrete else st.one_of(whole_offsets, float_offsets)
        t = data.draw(st.lists(shifts, min_size=len(fibers), max_size=len(fibers)))
        ts = t
    else:
        t = data.draw(st.one_of(whole_offsets, float_offsets))
        ts = [t] * len(fibers)
    moved = batch.shift(t)
    assert moved.words.tobytes() == batch.words.tobytes()
    for i, (w, s) in enumerate(zip(fibers, ts)):
        _same_fiber(moved[i], w.shift(s))
    picked = np.arange(len(fibers))[::-1]
    assert list(moved[picked]) == list(moved)[::-1] and list(moved[1:]) == list(moved)[1:]


def test_fiber_grid_is_a_batch_of_consecutive_seeds():
    grid = fiber_grid(3, seed=2**64 - 2, offset=0.25)
    assert isinstance(grid, Fibers) and grid.offsets.dtype == np.float64
    assert list(grid) == [Fiber(2**64 - 2, 0.25), Fiber(2**64 - 1, 0.25), Fiber(0, 0.25)]
    assert fiber_grid(2, seed=5).offsets.dtype == np.int64


def test_sample_deterministic_and_constant_rv():
    w = Fiber(11, 0.0)
    r = cell_noise(UNIFORM)
    first = r.across(ref.batch([w]))[0]
    second = r.across(ref.batch([w]))[0]
    np.testing.assert_array_equal(first, second)
    c = constant_rv([3.0, -1.0])
    for off in (0, 5, -17):
        np.testing.assert_array_equal(c.across(ref.batch([w.shift(off)]))[0], [3.0, -1.0])


def test_unit_noise_scalar_matches_vectorized():
    idx = np.arange(-50, 50)
    scalar = [mpds.unit_noise(123, int(k), channel=2) for k in idx]
    vector = _orbit(UNIT, 123, idx)[:, 2]
    np.testing.assert_array_equal(scalar, vector)


def test_law_sample_paths_agree_bitwise():
    laws = [
        UNIFORM,
        CellLaw("constant", values=(0.5, -1.0)),
        CellLaw("choice", choices=((0.0,), (1.0,), (4.0,))),
    ]
    idx = np.arange(-20, 20)
    for law in laws:
        batch = _orbit(law, 99, idx)
        for row, k in zip(batch, idx):
            np.testing.assert_array_equal(ref.law_sample(law, 99, int(k)), row)


def test_semigroup_on_a_thousand_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        w = Fiber(int(rng.integers(0, 2**63)), int(rng.integers(-10**6, 10**6)))
        s, t = int(rng.integers(-10**4, 10**4)), int(rng.integers(-10**4, 10**4))
        assert w.shift(s).shift(t) == w.shift(s + t)


def test_orbit_mean_matches_law_mean():
    # uniform[-2, -0.5] cells: mean -1.25, se = (1.5/sqrt(12))/sqrt(n)
    n = 100_000
    values = _orbit(UNIFORM, 7, np.arange(n))[:, 0]
    se = (1.5 / np.sqrt(12.0)) / np.sqrt(n)
    assert abs(values.mean() - (-1.25)) < 3 * se


def test_noise_statistics_are_shift_invariant():
    # two-sample KS between windows far apart along one orbit
    a = _orbit(UNIFORM, 42, np.arange(0, 4000))[:, 0]
    b = _orbit(UNIFORM, 42, np.arange(250_000, 254_000))[:, 0]
    assert stats.ks_2samp(a, b).pvalue > 0.01


def test_choice_law_hits_support_only():
    law = CellLaw("choice", choices=((0.0,), (1.0,), (4.0,)))
    vals = _orbit(law, 5, np.arange(2000))[:, 0]
    assert set(np.unique(vals)) <= {0.0, 1.0, 4.0}
    # all three atoms show up
    assert len(np.unique(vals)) == 3


def test_law_validation():
    with pytest.raises(ValueError):
        CellLaw("uniform", lo=(0.0,), hi=())
    with pytest.raises(ValueError):
        CellLaw("uniform", lo=(1.0,), hi=(0.0,))
    with pytest.raises(ValueError):
        CellLaw("nope")
    with pytest.raises(ValueError):
        CellLaw("choice", choices=())


def _stacked(rv, w, times):
    """The pointwise reads of ``rv`` (a reference or a per-point closure)
    that the one row of ``over`` at ``w`` and ``times`` batches."""
    return np.array(
        [np.atleast_1d(np.asarray(rv(w.shift(t)), dtype=float)) for t in times]
    ).reshape(len(times), rv.dim)


def _assert_bitwise(batch, pointwise):
    np.testing.assert_array_equal(batch, pointwise)
    assert batch.shape == pointwise.shape
    assert batch.tobytes() == pointwise.tobytes()


LAWS = [
    UNIFORM,
    CellLaw("uniform", lo=(-1.0, 0, 2.5), hi=(1.0, 3, 2.5)),
    CellLaw("choice", choices=((0.0, 1.0), (1.0, -1.0), (4.0, 0.5))),
    CellLaw("constant", values=(0.5, -1.0)),
]

# spans on both sides of the size below which cells are read one by one
float_times = st.lists(st.floats(-40.0, 40.0, allow_nan=False), max_size=3 * mpds._SMALL_SPAN)
int_times = st.lists(st.integers(-500, 500), max_size=3 * mpds._SMALL_SPAN)


@given(
    law=st.sampled_from(LAWS),
    lag=st.integers(-5, 5),
    seed=st.integers(-2**63, 2**64 - 1),
    offset=st.floats(-30.0, 30.0, allow_nan=False),
    times=float_times,
)
@settings(max_examples=150, deadline=None)
def test_cell_noise_along_equals_pointwise_continuous(law, lag, seed, offset, times):
    rv = cell_noise(law, lag=lag)
    w = Fiber(seed, offset)
    _assert_bitwise(rv.over(ref.batch([w]), np.asarray(times, dtype=float))[0],
                    _stacked(ref.cell_noise(law, lag=lag), w, times))


@given(
    law=st.sampled_from(LAWS),
    lag=st.integers(-5, 5),
    seed=st.integers(0, 2**63),
    offset=st.integers(-1000, 1000),
    times=int_times,
)
@settings(max_examples=150, deadline=None)
def test_cell_noise_along_equals_pointwise_discrete(law, lag, seed, offset, times):
    rv = cell_noise(law, lag=lag)
    w = Fiber(seed, offset)
    _assert_bitwise(rv.over(ref.batch([w]), np.asarray(times, dtype=np.int64))[0],
                    _stacked(ref.cell_noise(law, lag=lag), w, times))


@given(seed=st.integers(0, 2**32), offset=st.floats(-10.0, 10.0, allow_nan=False),
       times=float_times)
@settings(max_examples=60, deadline=None)
def test_opaque_variables_fall_back_to_pointwise_reads(seed, offset, times):
    base = ref.cell_noise(LAWS[1], lag=1)
    w = Fiber(seed, offset)
    ts = np.asarray(times, dtype=float)
    closures = [
        (base.dim, lambda f: base(f)[::-1] * 2.0),
        (base.dim, base.fn),
        (1, lambda f: base(f)[2:3]),
        (1, lambda f: np.array([f.offset])),
    ]
    for dim, fn in closures:
        _assert_bitwise(pointwise_variable(dim, fn).over(ref.batch([w]), ts)[0],
                        _stacked(ref.PointwiseVariable(dim, fn), w, times))


def test_along_of_no_times_is_empty():
    noise = cell_noise(UNIFORM)
    for rv in (cell_noise(LAWS[1]), constant_rv([1.0, 2.0]),
               pointwise_variable(1, lambda f: np.abs(noise(f)))):
        assert rv.over(Fibers([1], [0.5]), [])[0].shape == (0, rv.dim)


@given(seed=st.integers(-2**63, 2**64 - 1), start=st.integers(-2**40, 2**40),
       count=st.integers(0, 40), channel=st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_unit_noise_array_matches_scalar_on_any_span(seed, start, count, channel):
    # spans on both sides of _SMALL_SPAN: the per-cell path and the vectorised hash
    idx = np.arange(start, start + count)
    scalar = np.array([mpds.unit_noise(seed, int(k), channel=channel) for k in idx])
    np.testing.assert_array_equal(_orbit(UNIT, seed, idx)[:, channel], scalar)


class TestTemperedness:
    def test_bounded_variable_is_consistent(self):
        r = cell_noise(UNIFORM)  # bounded by 2
        rep = temperedness_report(r, Fibers([0], [0]))
        assert rep.tempered_consistent
        assert all(score <= 2.0 for score in rep.gamma_scores.values())

    def test_exponential_growth_flagged(self):
        # synthetic orbit growth exp(|s|), slope 1 > 0.5
        r = pointwise_variable(1, lambda w: np.array([np.exp(abs(w.offset))]))
        rep = temperedness_report(r, Fibers([0], [0]))
        assert not rep.tempered_consistent
        assert rep.growth_slope == pytest.approx(1.0, abs=1e-6)

    def test_product_of_consistent_variables_is_consistent(self):
        r1 = cell_noise(UNIFORM)
        r2 = cell_noise(CellLaw("uniform", lo=(0.5,), hi=(1.5,)), lag=1)
        product = fiberwise(1, lambda ws: r1.across(ws) * r2.across(ws))
        rep = temperedness_report(product, Fibers([3], [0]))
        assert rep.tempered_consistent

    def test_sum_of_consistent_variables_is_consistent(self):
        r1 = cell_noise(UNIFORM)
        r2 = cell_noise(CellLaw("uniform", lo=(0.5,), hi=(1.5,)), lag=2)
        total = fiberwise(1, lambda ws: r1.across(ws) + r2.across(ws))
        rep = temperedness_report(total, Fibers([4], [0]))
        assert rep.tempered_consistent

    def test_rejects_non_finite(self):
        r = pointwise_variable(1, lambda w: np.array([np.inf]))
        with pytest.raises(mpds.UnboundedSampleError,
                           match="non-finite sample at orbit offset -20"):
            temperedness_report(r, Fibers([0], [0]))

any_seed = st.integers(-2**63, 2**64 - 1)
seed_lists = st.lists(any_seed, min_size=1, max_size=2 * mpds._SMALL_SPAN)


@given(seeds=seed_lists, start=st.integers(-2**40, 2**40), count=st.integers(0, 12),
       channels=st.lists(st.integers(0, 5), min_size=1, max_size=3))
@settings(max_examples=120, deadline=None)
def test_per_seed_hash_matches_scalar(seeds, start, count, channels):
    cells = start + np.arange(len(seeds) * count).reshape(len(seeds), count)
    got = mpds._unit_noise_channels(mpds._seed_words(seeds), cells, channels)
    assert got.shape == (len(seeds), count, len(channels))
    for f, s in enumerate(seeds):
        for i in range(count):
            for j, ch in enumerate(channels):
                assert got[f, i, j] == mpds.unit_noise(s, int(cells[f, i]), channel=ch)


def _stacked_over(rv, fibers, times):
    """The pointwise reads that ``rv.over(fibers, times)`` batches."""
    return np.array([_stacked(rv, w, times) for w in fibers]).reshape(
        len(fibers), len(times), rv.dim)


fiber_lists = st.lists(
    st.builds(Fiber, any_seed, st.floats(-30.0, 30.0, allow_nan=False)),
    max_size=2 * mpds._SMALL_SPAN)


@given(law=st.sampled_from(LAWS), lag=st.integers(-5, 5), fibers=fiber_lists,
       shared=st.booleans(), times=float_times)
@settings(max_examples=150, deadline=None)
def test_cell_noise_over_fibers_equals_pointwise(law, lag, fibers, shared, times):
    if shared and fibers:
        fibers = [Fiber(w.seed, fibers[0].offset) for w in fibers]
    rv, pointwise = cell_noise(law, lag=lag), ref.cell_noise(law, lag=lag)
    ts = np.asarray(times, dtype=float)
    _assert_bitwise(rv.over(ref.batch(fibers), ts), _stacked_over(pointwise, fibers, times))
    if fibers:
        _assert_bitwise(rv.across(ref.batch(fibers)), _stacked_over(pointwise, fibers, [0])[:, 0])


@given(seeds=st.lists(st.integers(0, 2**63), max_size=12), offset=st.integers(-500, 500),
       times=int_times)
@settings(max_examples=80, deadline=None)
def test_discrete_fibers_over_equals_pointwise(seeds, offset, times):
    fibers = [Fiber(s, offset) for s in seeds]
    for law in LAWS:
        _assert_bitwise(cell_noise(law, lag=2).over(ref.batch(fibers),
                                                    np.asarray(times, dtype=np.int64)),
                        _stacked_over(ref.cell_noise(law, lag=2), fibers, times))


@given(fibers=fiber_lists, times=float_times)
@settings(max_examples=80, deadline=None)
def test_constants_and_opaque_variables_over_fibers(fibers, times):
    r1, r2 = ref.cell_noise(LAWS[1], lag=-1), ref.cell_noise(LAWS[1], lag=2)
    closures = [(r1.dim, lambda f: np.sin(r1(f))), (r2.dim, r2.fn)]
    variables = [constant_rv([0.25, -3.0, 7.0])] + [pointwise_variable(dim, fn)
                                                    for dim, fn in closures]
    references = [ref.constant_rv([0.25, -3.0, 7.0])] + [ref.PointwiseVariable(dim, fn)
                                                         for dim, fn in closures]
    ts = np.asarray(times, dtype=float)
    for rv, pointwise in zip(variables, references):
        _assert_bitwise(rv.over(ref.batch(fibers), ts), _stacked_over(pointwise, fibers, times))


def test_constant_laws_stay_out_of_the_cell_cache():
    law = CellLaw("constant", values=(0.5, -1.0))
    before = mpds._law_sample.cache_info().currsize
    rv = cell_noise(law, lag=3)
    for k in range(50):
        np.testing.assert_array_equal(rv.across(Fibers([k], [k + 0.5]))[0], [0.5, -1.0])
    np.testing.assert_array_equal(law.sample_grid([7], [[11]])[0, 0], [0.5, -1.0])
    assert rv.over(Fibers([1], [0.0]), [0.5, 1.5]).shape == (1, 2, 2)
    assert mpds._law_sample.cache_info().currsize == before
