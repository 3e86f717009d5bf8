"""Test points drawn from seeded numpy streams.

A property test lists its explicit cases (the ends of its ranges and points
that once failed) and then a fixed number of points drawn from its own
np.random.default_rng(seed).  The points depend on the seed and the draw
alone, not on what the package holds or what was imported before, and each
case's test id is made of its values.
"""

import math

import numpy as np
import pytest


def log_uniform(rng, lo, hi):
    """A float spread evenly in log10 between lo and hi."""
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def draws(seed, count, draw):
    """count cases draw(rng), one after another from
    np.random.default_rng(seed).  A draw that must reject a point draws
    again from the same stream, so the count holds."""
    rng = np.random.default_rng(seed)
    return [draw(rng) for _ in range(count)]


def cases(explicit, drawn):
    """pytest parameters of the explicit cases, then of the drawn ones, each
    with an id made of its values."""
    return [pytest.param(*case, id="-".join(map(_label, case)))
            for case in explicit + drawn]


def _label(value):
    """Floats to 6 digits; a sequence's items joined by commas, or by
    semicolons where the items are sequences themselves."""
    if isinstance(value, (list, tuple)):
        nested = any(isinstance(v, (list, tuple)) for v in value)
        return (";" if nested else ",").join(map(_label, value))
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def draw_modes(rng, top):
    """1 to 5 modes as (weights, intensities).  Each weight is 0 or uniform
    in [1e-3, 1], and the weights are drawn again while all are 0; each
    intensity is 0 or log-uniform in [1e-3, top].  Each 0 has probability
    1/2."""
    m = int(rng.integers(1, 5, endpoint=True))
    weights = [0.0] * m
    while not any(weights):
        weights = [0.0 if rng.integers(2) else rng.uniform(1e-3, 1.0)
                   for _ in range(m)]
    intensities = [0.0 if rng.integers(2) else log_uniform(rng, 1e-3, top)
                   for _ in range(m)]
    return weights, intensities
