"""Seeded noise fibers and the measure-preserving shift acting on them.

The sample space is realized as a suspension over a two-sided i.i.d. cell
sequence: a fiber is a ``(seed, offset)`` pair, noise values are constant on
unit cells ``[k, k+1)`` of the offset axis, and shifting a fiber by ``t``
just adds ``t`` to its offset.  Shift-invariance of the noise statistics is
then automatic, because cell values are a pure function of ``(seed, cell
index)`` and the index range is all of ``Z``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Fiber",
    "CellLaw",
    "RandomVariable",
    "TemperednessReport",
    "shift",
    "sample",
    "fiber_grid",
    "constant_rv",
    "cell_noise",
    "unit_noise",
    "unit_noise_array",
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


def _hash64(*words: int) -> int:
    h = _SEED_GAMMA
    for w in words:
        h = _mix64((h + (w & _MASK64)) & _MASK64)
    return h


def unit_noise(seed: int, cell_index: int, channel: int = 0) -> float:
    """Deterministic uniform draw in [0, 1) for one cell channel.

    Pure in its arguments and bit-stable across platforms; repeated calls
    return bit-identical values.  Negative cell indices are valid (two's
    complement), so orbits extend to negative time with no special casing.
    """
    # _hash64(seed, cell_index, channel), unrolled
    h = _mix64((_SEED_GAMMA + (seed & _MASK64)) & _MASK64)
    h = _mix64((h + (cell_index & _MASK64)) & _MASK64)
    h = _mix64((h + (channel & _MASK64)) & _MASK64)
    return float((h >> 11) * 2.0**-53)


def unit_noise_array(seed: int, cell_indices, channel: int = 0) -> np.ndarray:
    """Vectorized :func:`unit_noise` over an array of cell indices."""
    idx = np.asarray(cell_indices)
    return _unit_noise_channels((seed,), idx.reshape(1, -1), (channel,)).reshape(idx.shape)


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


# Grids of fewer cells are read cell by cell (see CellLaw.sample_grid), and
# the seed round of fewer seeds runs in Python.
_SMALL_SPAN = 8


def _unit_noise_channels(seeds: Sequence[int], cells: np.ndarray,
                         channels: Sequence[int]) -> np.ndarray:
    """``unit_noise(seeds[f], cells[f, i], channels[j])`` at ``[f, i, j]``.

    ``cells`` is 2-D, one row per seed.  The seed round runs once per row,
    and the cell round is shared by all channels; the words and their order
    are those of :func:`_hash64`, so every value is bit-identical to the
    scalar draw.
    """
    if len(seeds) < _SMALL_SPAN:
        # numpy's per-call cost would exceed the work of a few seeds
        h = np.array([_hash64(s) for s in seeds], dtype=np.uint64)
    else:
        h = np.fromiter((s & _MASK64 for s in seeds), dtype=np.uint64, count=len(seeds))
        h += _SEED_GAMMA_U64
        h = _mix64_array(h)
    z = _mix64_array(np.asarray(cells, dtype=np.int64).view(np.uint64) + h[:, None])
    words = np.array([c & _MASK64 for c in channels], dtype=np.uint64)
    z = _mix64_array(z[:, :, None] + words)
    return (z >> _S11).astype(np.float64) * 2.0**-53


def _stack(values: Sequence, shape: tuple[int, ...]) -> np.ndarray:
    """Pointwise values stacked into a float array of ``shape``."""
    return np.array(values, dtype=float).reshape(shape)


def _repeat(vec: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Copies of ``vec`` filling an array of ``shape + (vec.size,)``."""
    out = np.empty(shape + (vec.size,))
    out[...] = vec
    return out


# the time of a value across fibers, read as an orbit of one point
_ORIGIN = np.zeros(1, dtype=np.int64)


@dataclass(frozen=True)
class Fiber:
    """One realization of the noise: a seed plus a position on its orbit.

    ``offset`` is an integer in discrete time and a float in continuous
    time.  The base flow acts by offset addition, so the semigroup law holds
    exactly in discrete time and up to one floating-point addition in
    continuous time.
    """

    seed: int
    offset: float | int = 0

    def shift(self, t: float | int) -> "Fiber":
        if t == 0:
            return self
        return Fiber(self.seed, self.offset + t)

    def cell(self, lag: int = 0) -> int:
        """Index of the noise cell ``lag`` steps from the current one."""
        return math.floor(self.offset) + lag


def shift(fiber: Fiber, t: float | int) -> Fiber:
    """Advance ``fiber`` along the base flow by ``t`` (may be negative)."""
    return fiber.shift(t)


def fiber_grid(count: int, seed: int = 0, offset: float | int = 0) -> list[Fiber]:
    """Independent probe fibers: distinct seeds, common offset."""
    return [Fiber(seed + i, offset) for i in range(count)]


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

    def sample(self, seed: int, cell_index: int) -> np.ndarray:
        if self.kind == "constant":
            # the same in every cell of every seed, so kept out of the cache
            return np.array(self.values, dtype=float)
        return _law_sample(self, seed, cell_index).copy()

    def sample_many(self, seed: int, cell_indices) -> np.ndarray:
        """Values for an array of cell indices, shape (n, dim).

        Row ``i`` is bit-identical to ``sample(seed, cell_indices[i])``.
        """
        idx = np.asarray(cell_indices, dtype=np.int64).reshape(1, -1)
        return self.sample_grid((seed,), idx)[0]

    def sample_grid(self, seeds: Sequence[int], cells: np.ndarray) -> np.ndarray:
        """Values of the cells ``cells[f, i]`` of seed ``seeds[f]``, shape
        ``(F, n, dim)``; each is bit-identical to ``sample``."""
        cells = np.asarray(cells, dtype=np.int64)
        if self.kind == "constant":
            return _repeat(np.asarray(self.values, dtype=float), cells.shape)
        if cells.size < _SMALL_SPAN:
            # numpy's per-call cost would exceed the work; read the cells
            # through the cache that pointwise reads share
            return _stack([_law_sample(self, s, k)
                           for s, row in zip(seeds, cells.tolist()) for k in row],
                          cells.shape + (self.dim,))
        if self.kind == "uniform":
            u = _unit_noise_channels(seeds, cells, range(self.dim))
            return np.asarray(self.lo) + (np.asarray(self.hi) - np.asarray(self.lo)) * u
        support = np.asarray(self.choices, dtype=float)
        picks = np.minimum(
            (_unit_noise_channels(seeds, cells, (0,))[..., 0] * len(self.choices)).astype(int),
            len(self.choices) - 1,
        )
        return support[picks]

    def mean(self) -> np.ndarray:
        if self.kind == "constant":
            return np.asarray(self.values, dtype=float)
        if self.kind == "uniform":
            return (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0
        return np.asarray(self.choices, dtype=float).mean(axis=0)

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


@dataclass(frozen=True)
class RandomVariable:
    """A deterministic map from fibers to vectors in R^n.

    Built from finitely many cell reads plus closed-form arithmetic, so
    evaluation is pure: the same fiber always yields the bit-identical
    value.  ``batch``, when given, reads the variable over many fibers and
    times in one call (see :meth:`over`); it must agree bitwise with ``fn``.
    """

    dim: int
    fn: Callable[[Fiber], np.ndarray]
    label: str = ""
    batch: Callable[[Sequence[Fiber], np.ndarray], np.ndarray] | None = None

    def __call__(self, fiber: Fiber) -> np.ndarray:
        return self.fn(fiber)

    def over(self, fibers: Sequence[Fiber], times) -> np.ndarray:
        """Values at ``fibers[f].shift(times[i])`` for each fiber and each
        time of the 1-D ``times``, or at ``fibers[f].shift(times[f, i])``
        when ``times`` is ``(F, n)``, one row of times per fiber.

        Returns an ``(F, n, dim)`` float array whose entry ``[f, i]`` is
        bit-identical to the pointwise read at that point: batched forms
        evaluate the same float expressions as the pointwise ones, each
        position as ``Fiber.shift``'s ``offset + time``.  Cell reads,
        constants and their sums and products read the whole grid in one
        vectorised call; any other variable (an opaque closure such as
        ``map`` or ``memoized``) falls back to one pointwise call per point.
        """
        times = np.asarray(times)
        if self.batch is not None:
            return self.batch(fibers, times)
        rows = times.tolist() if times.ndim == 2 else [times.tolist()] * len(fibers)
        return _stack([self.fn(w.shift(t)) for w, row in zip(fibers, rows) for t in row],
                      (len(fibers), times.shape[-1], self.dim))

    def along(self, fiber: Fiber, times) -> np.ndarray:
        """Values along the orbit of one fiber, ``(n, dim)``: :meth:`over`
        with one fiber."""
        return self.over((fiber,), times)[0]

    def across(self, fibers: Sequence[Fiber]) -> np.ndarray:
        """Values at each fiber, ``(F, dim)``: :meth:`over` at time zero."""
        return self.over(fibers, _ORIGIN)[:, 0]

    def scalar(self, fiber: Fiber) -> float:
        if self.dim != 1:
            raise ValueError(f"scalar() on a {self.dim}-dimensional variable")
        return float(np.asarray(self.fn(fiber)).reshape(-1)[0])

    def component(self, index: int) -> "RandomVariable":
        if not 0 <= index < self.dim:
            raise ValueError(f"component {index} out of range for dim {self.dim}")
        return RandomVariable(
            1, lambda w: np.atleast_1d(self.fn(w))[index : index + 1],
            label=f"{self.label}[{index}]",
        )

    def __add__(self, other: "RandomVariable") -> "RandomVariable":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in sum of random variables")
        return RandomVariable(
            self.dim, lambda w: self.fn(w) + other.fn(w),
            batch=lambda ws, ts: self.over(ws, ts) + other.over(ws, ts),
        )

    def __mul__(self, other: "RandomVariable") -> "RandomVariable":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in product of random variables")
        return RandomVariable(
            self.dim, lambda w: self.fn(w) * other.fn(w),
            batch=lambda ws, ts: self.over(ws, ts) * other.over(ws, ts),
        )

    def scale(self, factor: float) -> "RandomVariable":
        return RandomVariable(self.dim, lambda w: factor * self.fn(w))

    def map(self, fn: Callable[[np.ndarray], np.ndarray], dim: int | None = None) -> "RandomVariable":
        """Pointwise transform; ``dim`` defaults to the input dimension."""
        return RandomVariable(dim if dim is not None else self.dim,
                              lambda w: np.atleast_1d(np.asarray(fn(self.fn(w)), dtype=float)))

    def memoized(self) -> "RandomVariable":
        """Same variable with a per-fiber value cache (evaluation stays pure)."""
        cache: dict[Fiber, np.ndarray] = {}

        def fn(w: Fiber) -> np.ndarray:
            hit = cache.get(w)
            if hit is None:
                hit = cache[w] = np.asarray(self.fn(w), dtype=float)
            return hit

        return RandomVariable(self.dim, fn, label=self.label)


def constant_rv(values) -> RandomVariable:
    vec = np.atleast_1d(np.asarray(values, dtype=float))
    return RandomVariable(vec.size, lambda w: vec.copy(), label="const",
                          batch=lambda ws, ts: _repeat(vec, (len(ws), ts.shape[-1])))


def cell_noise(law: CellLaw, lag: int = 0) -> RandomVariable:
    """Value of the noise cell ``lag`` steps from the fiber's current cell."""

    def batch(ws: Sequence[Fiber], times: np.ndarray) -> np.ndarray:
        # the offset sum and floor of Fiber.shift and Fiber.cell, per point;
        # 1-D times are shared by all fibers, an (F, n) grid gives each its row
        pos = np.array([w.offset for w in ws])[:, None] + times
        cells = pos if pos.dtype.kind == "i" else np.floor(pos).astype(np.int64)
        return law.sample_grid([w.seed for w in ws], cells + lag)

    if law.kind == "constant":
        vec = np.array(law.values, dtype=float)
        fn = lambda w: vec.copy()  # noqa: E731
    else:
        fn = lambda w: _law_sample(law, w.seed, w.cell(lag)).copy()  # noqa: E731
    return RandomVariable(law.dim, fn, label=f"cell[{lag}]", batch=batch)


def sample(rv: RandomVariable, fiber: Fiber) -> np.ndarray:
    """Evaluate ``rv`` on ``fiber``; deterministic and repeatable."""
    return np.atleast_1d(np.asarray(rv(fiber), dtype=float))


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

    def as_dict(self) -> dict:
        return {
            "gamma_scores": {repr(g): v for g, v in sorted(self.gamma_scores.items())},
            "growth_slope": self.growth_slope,
            "tempered_consistent": self.tempered_consistent,
            "horizon": self.horizon,
            "sample_count": self.sample_count,
        }


def temperedness_report(
    rv: RandomVariable,
    fiber: Fiber,
    gammas: Sequence[float],
    horizon: float,
    step: float = 1.0,
) -> TemperednessReport:
    """Score subexponential growth of ``rv`` along the orbit of ``fiber``.

    Samples ``s`` on a uniform grid of ``[-horizon, horizon]`` and reports,
    for each rate in ``gammas``, the largest exponentially discounted norm.
    Flags the variable tempered-consistent when the fitted log-growth slope
    sits below every supplied rate.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not gammas:
        raise ValueError("need at least one discount rate")
    if any(g <= 0 for g in gammas):
        raise ValueError("discount rates must be positive")

    offsets = np.arange(-horizon, horizon + step / 2, step)
    norms = np.empty(offsets.size)
    for i, s in enumerate(offsets):
        s = int(s) if float(s).is_integer() else float(s)
        value = np.asarray(rv(fiber.shift(s)), dtype=float)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"non-finite sample at orbit offset {s}")
        norms[i] = np.linalg.norm(value)

    abs_s = np.abs(offsets)
    scores = {float(g): float(np.max(norms * np.exp(-g * abs_s))) for g in gammas}
    # Slope of log-norm vs |s|; degenerate (all-equal |s|) cannot happen for
    # horizon > 0.
    logs = np.log(np.maximum(norms, 1e-300))
    slope = float(np.polyfit(abs_s, logs, 1)[0])
    return TemperednessReport(
        gamma_scores=scores,
        growth_slope=slope,
        tempered_consistent=slope < min(gammas),
        horizon=float(horizon),
        sample_count=int(offsets.size),
    )
