"""Seeded noise fibers and the measure-preserving shift acting on them.

The sample space is realized as a suspension over a two-sided i.i.d. cell
sequence: a fiber is a ``(seed, offset)`` pair, noise values are constant on
unit cells ``[k, k+1)`` of the offset axis, and shifting a fiber by ``t``
just adds ``t`` to its offset.  Shift-invariance of the noise statistics is
then automatic, because cell values are a pure function of ``(seed, cell
index)`` and the index range is all of ``Z``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "Fiber",
    "Fibers",
    "CellLaw",
    "RandomVariable",
    "TemperednessReport",
    "UnboundedSampleError",
    "fiber_grid",
    "law_cells",
    "constant_rv",
    "cell_noise",
    "fiberwise",
    "unit_noise",
    "temperedness_report",
]

_MASK64 = (1 << 64) - 1
_SEED_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    # SplitMix64 finalizer; the de-facto portable 64-bit avalanche.
    z = (z ^ (z >> 30)) * _MIX_A & _MASK64
    z = (z ^ (z >> 27)) * _MIX_B & _MASK64
    return z ^ (z >> 31)


def unit_noise(seed: int, cell_index: int, channel: int = 0) -> float:
    """Deterministic uniform draw in [0, 1) for one cell channel.

    Pure in its arguments and bit-stable across platforms; repeated calls
    return bit-identical values.  Negative cell indices are valid (two's
    complement), so orbits extend to negative time with no special casing.
    """
    # the seed, cell and channel words, each added and mixed in turn
    h = _mix64((_SEED_GAMMA + (seed & _MASK64)) & _MASK64)
    h = _mix64((h + (cell_index & _MASK64)) & _MASK64)
    h = _mix64((h + (channel & _MASK64)) & _MASK64)
    return float((h >> 11) * 2.0**-53)


_S30, _S27, _S31, _S11 = (np.uint64(k) for k in (30, 27, 31, 11))
_MIX_A_U64 = np.uint64(_MIX_A)
_MIX_B_U64 = np.uint64(_MIX_B)
_SEED_GAMMA_U64 = np.uint64(_SEED_GAMMA)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """:func:`_mix64` on a uint64 array, in place; array arithmetic wraps."""
    z ^= z >> _S30
    z *= _MIX_A_U64
    z ^= z >> _S27
    z *= _MIX_B_U64
    z ^= z >> _S31
    return z


# Grids of fewer cells are read cell by cell (see CellLaw.sample_grid)
_SMALL_SPAN = 8


def _seed_words(seeds) -> np.ndarray:
    """The hash words ``s & _MASK64`` of the Python int ``seeds``, as a
    uint64 array; a uint64 array is taken to hold words already."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds
    return np.fromiter((int(s) & _MASK64 for s in seeds), dtype=np.uint64, count=len(seeds))


def _unit_noise_channels(words: np.ndarray, cells: np.ndarray,
                         channels: Sequence[int]) -> np.ndarray:
    """``unit_noise(seeds[f], cells[f, i], channels[j])`` at ``[f, i, j]``,
    for the uint64 seed ``words`` of :func:`_seed_words`.

    ``cells`` is 2-D, one row per seed.  The seed round runs once per row,
    and the cell round is shared by all channels; the words and their order
    are those of :func:`unit_noise`, so every value is bit-identical to
    the scalar draw.
    """
    h = _mix64_array(words + _SEED_GAMMA_U64)
    z = _mix64_array(np.asarray(cells, dtype=np.int64).view(np.uint64) + h[:, None])
    z = _mix64_array(z[:, :, None] + np.array([c & _MASK64 for c in channels], dtype=np.uint64))
    return (z >> _S11).astype(np.float64) * 2.0**-53


def _stack(values: Sequence, shape: tuple[int, ...]) -> np.ndarray:
    """Pointwise values stacked into a float array of ``shape``."""
    return np.array(values, dtype=float).reshape(shape)


def _repeat(vec: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Copies of ``vec`` filling an array of ``shape + (vec.size,)``."""
    out = np.empty(shape + (vec.size,))
    out[...] = vec
    return out


@dataclass(frozen=True)
class Fiber:
    """One realization of the noise: a seed plus a position on its orbit.

    ``offset`` is an integer in discrete time and a float in continuous
    time.  The base flow acts by offset addition, so the semigroup law holds
    exactly in discrete time and up to one floating-point addition in
    continuous time.  A batch of fibers is a :class:`Fibers`.
    """

    seed: int
    offset: float | int = 0

    def shift(self, t: float | int) -> "Fiber":
        if t == 0:
            return self
        return Fiber(self.seed, self.offset + t)


@dataclass(frozen=True, eq=False)
class Fibers:
    """A batch of fibers as two arrays: the uint64 seed ``words`` (the
    ``seed & (2**64 - 1)`` that the noise reads) and the ``offsets``,
    ``int64`` in discrete time and ``float64`` in continuous time.

    Seeds given as Python ints become their words.  Indexing with an int
    gives a :class:`Fiber`, with a slice or an index array a
    :class:`Fibers`; iteration gives each :class:`Fiber` in turn.
    """

    words: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "words", _seed_words(self.words))
        object.__setattr__(self, "offsets", np.asarray(self.offsets))

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, rows) -> "Fiber | Fibers":
        if isinstance(rows, (int, np.integer)):
            return Fiber(int(self.words[rows]), self.offsets[rows].item())
        return Fibers(self.words[rows], self.offsets[rows])

    def __iter__(self) -> Iterator[Fiber]:
        return map(Fiber, self.words.tolist(), self.offsets.tolist())

    def shift(self, t) -> "Fibers":
        """Each fiber shifted by the scalar ``t``, or row ``f`` by ``t[f]``:
        :meth:`Fiber.shift`'s ``offset + t``, where a ``t`` of 0 leaves the
        offset as it is.  The offsets share one dtype, so an int offset
        that a float ``t`` of 0 leaves in place reads as a float."""
        t = np.asarray(t)
        if t.ndim == 0 and t == 0:
            return self
        moved = self.offsets + t
        if t.ndim:
            moved = np.where(t == 0, self.offsets, moved)
        return Fibers(self.words, moved)


def fiber_grid(count: int, seed: int = 0, offset: float | int = 0) -> Fibers:
    """Independent probe fibers: distinct seeds, common offset."""
    return Fibers(np.uint64(seed & _MASK64) + np.arange(count, dtype=np.uint64),
                  np.full(count, offset))


@dataclass(frozen=True)
class CellLaw:
    """Distribution of a single noise cell's value in R^m.

    Supported kinds: ``constant`` (same value in every cell), ``uniform``
    (componentwise uniform on a box), and ``choice`` (finite support with
    equal weights).  Values are a pure function of ``(seed, cell_index)``.
    """

    kind: str
    values: tuple[float, ...] = ()
    lo: tuple[float, ...] = ()
    hi: tuple[float, ...] = ()
    choices: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        if self.kind == "constant":
            if not self.values:
                raise ValueError("constant law needs values")
        elif self.kind == "uniform":
            if not self.lo or len(self.lo) != len(self.hi):
                raise ValueError("uniform law needs lo/hi of equal length")
            if any(l > h for l, h in zip(self.lo, self.hi)):
                raise ValueError("uniform law needs lo <= hi")
        elif self.kind == "choice":
            if not self.choices:
                raise ValueError("choice law needs a nonempty support")
            if len({len(c) for c in self.choices}) != 1:
                raise ValueError("choice support must have uniform dimension")
        else:
            raise ValueError(f"unknown cell law kind: {self.kind!r}")

    @property
    def dim(self) -> int:
        if self.kind == "constant":
            return len(self.values)
        if self.kind == "uniform":
            return len(self.lo)
        return len(self.choices[0])

    def sample_grid(self, seeds, cells: np.ndarray) -> np.ndarray:
        """Values of the cells ``cells[f, i]`` of seed ``seeds[f]``, shape
        ``(F, n, dim)``; ``seeds`` are Python ints or their uint64 words
        (:func:`_seed_words`)."""
        cells = np.asarray(cells, dtype=np.int64)
        if self.kind == "constant":
            return _repeat(np.asarray(self.values, dtype=float), cells.shape)
        words = _seed_words(seeds)
        if cells.size < _SMALL_SPAN:
            # numpy's per-call cost would exceed the work; read the cells
            # through the cache
            return _stack([_law_sample(self, s, k)
                           for s, row in zip(words.tolist(), cells.tolist()) for k in row],
                          cells.shape + (self.dim,))
        if self.kind == "uniform":
            u = _unit_noise_channels(words, cells, range(self.dim))
            return np.asarray(self.lo) + (np.asarray(self.hi) - np.asarray(self.lo)) * u
        support = np.asarray(self.choices, dtype=float)
        picks = np.minimum(
            (_unit_noise_channels(words, cells, (0,))[..., 0] * len(self.choices)).astype(int),
            len(self.choices) - 1,
        )
        return support[picks]

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Componentwise (lower, upper) bounds of the support."""
        if self.kind == "constant":
            v = np.asarray(self.values, dtype=float)
            return v.copy(), v.copy()
        if self.kind == "uniform":
            return np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)
        support = np.asarray(self.choices, dtype=float)
        return support.min(axis=0), support.max(axis=0)


@lru_cache(maxsize=1 << 18)
def _law_sample(law: CellLaw, seed: int, cell_index: int) -> np.ndarray:
    """One cell of a uniform or choice law; constant laws never get here."""
    if law.kind == "uniform":
        # lo + (hi - lo) * u per channel, in the float operations that
        # sample_grid applies to the arrays of lo and hi
        return np.array([lo + (hi - lo) * unit_noise(seed, cell_index, c)
                         for c, (lo, hi) in enumerate(zip(law.lo, law.hi))], dtype=float)
    pick = min(
        int(unit_noise(seed, cell_index, channel=0) * len(law.choices)),
        len(law.choices) - 1,
    )
    return np.asarray(law.choices[pick], dtype=float)


def law_cells(laws: Sequence[CellLaw], fibers: Fibers, times) -> np.ndarray:
    """The values of the laws ``laws`` in the cell of ``fibers[f]`` shifted
    by ``times[i]``, for each fiber and each time of the 1-D ``times``
    (:meth:`CellLaw.sample_grid` on that ``(F, n)`` grid of cells), side
    by side in the order of ``laws``: ``(F, n, sum of the laws' dims)``,
    and ``(F, n, 0)`` for no law."""
    times = np.asarray(times)
    if not laws:
        return np.empty((len(fibers), times.size, 0))
    pos = fibers.offsets[:, None] + times
    cells = pos if pos.dtype.kind == "i" else np.floor(pos).astype(np.int64)
    if len(laws) == 1:
        return laws[0].sample_grid(fibers.words, cells)
    # law by law into its columns, so that one law's read is held at a time
    out = np.empty(cells.shape + (sum(law.dim for law in laws),))
    start = 0
    for law in laws:
        out[..., start:start + law.dim] = law.sample_grid(fibers.words, cells)
        start += law.dim
    return out


# the batched read of a random variable or a process: ``fn(fibers, times)``
BatchFn = Callable[[Fibers, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RandomVariable:
    """A deterministic map from fibers to vectors in R^n.

    Built from finitely many cell reads plus closed-form arithmetic, so
    evaluation is pure: the same fiber always yields the bit-identical
    value.  ``fn(fibers, times)`` is the one evaluation path, the batched
    read of :meth:`over` on a :class:`Fibers`; every other read is a case
    of it.  An opaque closure of a batch of fibers becomes a variable
    through :func:`fiberwise`.
    """

    dim: int
    fn: BatchFn

    def over(self, fibers: Fibers, times) -> np.ndarray:
        """Values at ``fibers[f].shift(times[i])`` for each fiber and each
        time of the 1-D ``times``, or at ``fibers[f].shift(times[f, i])``
        when ``times`` is ``(F, n)``, one row of times per fiber.

        Returns an ``(F, n, dim)`` float array.  Each position is
        ``Fiber.shift``'s ``offset + time``; cell reads and constants read
        the whole grid in one vectorised call.
        """
        return self.fn(fibers, np.asarray(times))

    def across(self, fibers: Fibers) -> np.ndarray:
        """Values at each fiber, ``(F, dim)``: :meth:`over` at time zero."""
        return self.over(fibers, np.zeros(1, dtype=np.int64))[:, 0]


def _points(times: np.ndarray, count: int, flat=None) -> tuple[np.ndarray, np.ndarray]:
    """Fiber index and time of the points ``flat`` (default: all) of the
    fiber-major grid of ``count`` fibers by the 1-D (shared) or ``(count,
    n)`` ``times``: point ``f * n + i`` is fiber ``f`` at its ``i``-th time."""
    n = times.shape[-1]
    flat = np.arange(count * n) if flat is None else flat
    return flat // n, np.broadcast_to(times, (count, n))[flat // n, flat % n]


def _over_points(times: np.ndarray, count: int, block: int, read: Callable,
                 *dims: int) -> np.ndarray:
    """``(count, n, *dims)``: ``read(points, fiber index, time)`` of the
    points of :func:`_points`, a block of at most ``block`` points at a
    time, so a point must read the same in any block."""
    size = count * times.shape[-1]
    out = np.empty((size,) + dims)
    for lo in range(0, size, block):
        rows = np.arange(lo, min(lo + block, size))
        out[rows] = read(rows, *_points(times, count, rows))
    return out.reshape((count, times.shape[-1]) + dims)


def fiberwise(dim: int, values: Callable[[Fibers], np.ndarray]) -> RandomVariable:
    """The random variable whose values at a batch of fibers are
    ``values(fibers)``, one row (or, for ``dim`` 1, one entry) per fiber:
    :meth:`RandomVariable.over` passes all its points (:func:`_points`),
    each fiber shifted by its time, in one call."""

    def fn(ws: Fibers, times: np.ndarray) -> np.ndarray:
        fiber, t = _points(times, len(ws))
        return _stack(values(ws[fiber].shift(t)), (len(ws), times.shape[-1], dim))

    return RandomVariable(dim, fn)


def constant_rv(values) -> RandomVariable:
    vec = np.atleast_1d(np.asarray(values, dtype=float))
    return RandomVariable(vec.size, lambda ws, ts: _repeat(vec, (len(ws), ts.shape[-1])))


def cell_noise(law: CellLaw, lag: int = 0) -> RandomVariable:
    """Value of the noise cell ``lag`` steps from the fiber's current cell."""

    def fn(ws: Fibers, times: np.ndarray) -> np.ndarray:
        # the offset sum of Fiber.shift and its floor, per point; 1-D times
        # are shared by all fibers, an (F, n) grid gives each its row
        pos = ws.offsets[:, None] + times
        cells = pos if pos.dtype.kind == "i" else np.floor(pos).astype(np.int64)
        return law.sample_grid(ws.words, cells + lag)

    return RandomVariable(law.dim, fn)


class UnboundedSampleError(ValueError):
    """A sampled value is not finite, or exceeds a stated cap: the variable
    or process read is unbounded on the sampled window."""


@dataclass(frozen=True)
class TemperednessReport:
    """Growth diagnostic for a random variable along one noise orbit.

    ``gamma_scores[g]`` is the max over sampled offsets ``s`` of
    ``norm(r(shift(w, s))) * exp(-g*|s|)``; ``growth_slope`` is the fitted
    slope of ``log norm`` against ``|s|``.  The flag is evidence, not proof:
    temperedness quantifies over all time and cannot be decided from a
    finite window.
    """

    gamma_scores: dict[float, float]
    growth_slope: float
    tempered_consistent: bool
    horizon: float
    sample_count: int


# the discount rates of temperedness_report, and the half-width of the
# window of whole orbit offsets it samples
_GAMMAS = (0.25, 0.5, 1.0)
_HORIZON = 20


def temperedness_report(rv: RandomVariable, fiber: Fibers) -> TemperednessReport:
    """Score subexponential growth of ``rv`` along the orbit of the one
    fiber of the one-row batch ``fiber``.

    Samples ``s`` on the unit grid of ``[-20, 20]`` and reports, for each
    rate in ``(0.25, 0.5, 1.0)``, the largest exponentially discounted
    norm.  Flags the variable tempered-consistent when the fitted
    log-growth slope sits below every rate.
    """
    offsets = np.arange(-_HORIZON, _HORIZON + 1)
    values = rv.over(fiber, offsets)[0]
    finite = np.all(np.isfinite(values), axis=1)
    if not finite.all():
        s = offsets[np.argmin(finite)]
        raise UnboundedSampleError(f"non-finite sample at orbit offset {s}")
    norms = np.array([np.linalg.norm(v) for v in values])

    abs_s = np.abs(offsets)
    scores = {g: float(np.max(norms * np.exp(-g * abs_s))) for g in _GAMMAS}
    # Slope of log-norm vs |s|; the window is never a single |s|.
    logs = np.log(np.maximum(norms, 1e-300))
    slope = float(np.polyfit(abs_s, logs, 1)[0])
    return TemperednessReport(
        gamma_scores=scores,
        growth_slope=slope,
        tempered_consistent=slope < min(_GAMMAS),
        horizon=float(_HORIZON),
        sample_count=int(offsets.size),
    )
