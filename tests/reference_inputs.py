"""The per-row reference of the sampled checks' random inputs: the default
input family drawn as one tree of ``Process``, ``CellLaw`` and closure
objects per tuple.  Its ``rng`` calls are those of ``rdsi.draw_input``, so
a table drawn at the same seed must read bit for bit as these trees.  The
trees are built from the constructors of ``forms``: the library's, or
those of the pointwise reference (``reference_process``)."""

import numpy as np

from rdsio.mpds import CellLaw, RandomVariable
from rdsio.process import Process
from reference_process import LIBRARY


def _random_cell_rv(rng: np.random.Generator, dim: int, forms=LIBRARY) -> RandomVariable:
    lo = tuple(rng.uniform(-2.0, 0.0, size=dim))
    hi = tuple(l + rng.uniform(0.2, 2.0) for l in lo)
    law = CellLaw("uniform", lo=lo, hi=hi)
    lag = int(rng.integers(-3, 4))
    return forms.cell_noise(law, lag=lag)


def random_input(
    rng: np.random.Generator,
    dim: int,
    time_kind: str,
    max_splice: float = 8.0,
    depth: int = 0,
    forms=LIBRARY,
) -> Process:
    """Random member of the default input family.

    Draws among constants, stationary cell-noise processes, and (shallow)
    concatenations of the two; the family is closed under the operations
    the flow contract quantifies over.
    """
    kind = rng.integers(0, 4 if depth < 2 else 3)
    if kind == 0:
        return forms.constant(rng.uniform(-1.5, 1.5, size=dim), time_kind)
    if kind in (1, 2):
        return forms.stationary(_random_cell_rv(rng, dim, forms), time_kind)
    left = random_input(rng, dim, time_kind, max_splice, depth + 1, forms)
    right = random_input(rng, dim, time_kind, max_splice, depth + 1, forms)
    if time_kind == "discrete":
        s = int(rng.integers(0, int(max_splice) + 1))
    else:
        s = float(rng.uniform(0.0, max_splice))
    return left.concat(right, s)
