"""Numerical plumbing: the quadrature rule, the exact product and the
square root with its residual, limit sweeps and their results.

The package has one quadrature rule, gauss_legendre: fixed 20-point
Gauss-Legendre panels for integrands whose smooth pieces are known in
advance (casimir's graded panels, contour tail and 3+1 tail table,
deltaseq's piecewise-polynomial filtering integrals, validation's
normalization and mirror-identity oracles), on a rule whose nodes and
weights are correctly rounded literals.  No module imports scipy.integrate.

two_prod is Dekker's exact product; on it, sqrt_with_residual gives the
residual of sqrt(b) that specfun and vacuum.density carry into e^(-2 sqrt(b)).

Improper limits of integral sequences are realized as index sweeps
n = 16, 32, 64, ... with Richardson extrapolation; a sweep either settles
(finite value, to 1e-12 absolute plus 1e-10 relative), grows without bound
(divergent: a LimitResult whose value is None), or raises NonConvergence
after 12 doublings.  Divergence is never reported as float('inf').
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NonConvergence

# sweep_limit's stability tolerances, its divergence ratio and its cap on
# doublings
_SWEEP_ABS_TOL = 1e-12
_SWEEP_REL_TOL = 1e-10
_DIVERGENCE_RATIO = 1.5
_SWEEP_DOUBLINGS = 12


@dataclass(frozen=True)
class LimitResult:
    """Outcome of a limit sweep: the finite value, or None where the sweep
    diverged, and the values it swept."""

    value: float | None
    history: tuple = field(default=(), compare=False)

    @property
    def is_divergent(self) -> bool:
        return self.value is None

    def expect_finite(self) -> float:
        if self.value is None:
            raise NonConvergence("limit sweep diverged; no finite value available")
        return self.value


# the 20-point Gauss-Legendre rule on [-1, 1] as its 10 positive nodes x and
# their weights w = 2/((1 - x^2) P_20'(x)^2), each the double nearest its
# exact value (numpy's leggauss weights are up to 353 ulp off at the end
# nodes); x < 0 mirrors them
_GL_POSITIVE = np.array([
    (0.07652652113349734, 0.15275338713072584),
    (0.22778585114164507, 0.14917298647260374),
    (0.37370608871541955, 0.14209610931838204),
    (0.5108670019508271, 0.13168863844917664),
    (0.636053680726515, 0.11819453196151841),
    (0.7463319064601508, 0.10193011981724044),
    (0.8391169718222188, 0.08327674157670475),
    (0.912234428251326, 0.06267204833410907),
    (0.9639719272779138, 0.04060142980038694),
    (0.9931285991850949, 0.017614007139152118),
]).T
_GL_NODES = np.concatenate((-_GL_POSITIVE[0, ::-1], _GL_POSITIVE[0]))
_GL_WEIGHTS = np.concatenate((_GL_POSITIVE[1, ::-1], _GL_POSITIVE[1]))


def gauss_legendre(lo: np.ndarray, hi: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, as (20, panels) arrays, of 20-point Gauss-Legendre
    panels on [lo, hi]: exact for polynomials of degree <= 39 on each.
    Each panel maps the literal rule _GL_NODES, _GL_WEIGHTS on [-1, 1].
    Panels run along rows, so per-panel arrays broadcast over a block as
    rows and a sum over axis 0 adds each panel's nodes in order."""
    half = 0.5 * (hi - lo)
    return lo + half * (_GL_NODES + 1.0)[:, None], half * _GL_WEIGHTS[:, None]


def two_prod(a: float, b: float) -> tuple[float, float]:
    """(p, err) with p = a b rounded and p + err = a b exactly: Dekker's
    product of Veltkamp halves (split by 2^27 + 1; |a|, |b| < 1e300, and
    |a b| >= 2^-969 ~ 2e-292, below which err's partial products are
    subnormal and err is only approximate)."""
    ca, cb = 134217729.0 * a, 134217729.0 * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def sqrt_with_residual(x: float) -> tuple[float, float]:
    """(r, d) with r = sqrt(x) rounded and d = sqrt(x) - r to a few ulps of
    itself (for x >= ~2e-292, where two_prod is exact; below, to ~1e-23 of
    r): x - r^2 = (x - p) - e from the exact product r^2 = p + e
    (two_prod), and d = (x - r^2)/(2r); (0, 0) at x = 0."""
    r = math.sqrt(x)
    if r == 0.0:
        return 0.0, 0.0
    p, e = two_prod(r, r)
    return r, ((x - p) - e) / (2.0 * r)


def richardson(values: Sequence[float]) -> np.ndarray:
    """One Richardson triangle row per order, assuming error ~ c/n on an
    index grid that doubles (n, 2n, 4n, ...). Returns the extrapolant ladder,
    last entry being the highest order."""
    v = np.asarray(values, dtype=float)
    out = [v[-1]]
    work = v.copy()
    order = 1
    while len(work) > 1:
        # error model c * n^{-order}: doubling n scales the error by 2^{-order}
        work = (2.0 ** order * work[1:] - work[:-1]) / (2.0 ** order - 1.0)
        out.append(work[-1])
        order += 1
    return np.asarray(out)


def sweep_limit(evaluate: Callable[[int], float],
                start: int = 16) -> LimitResult:
    """Estimate lim_{n->inf} evaluate(n) over n = start, 2*start, 4*start, ...

    Stability test: the last two Richardson extrapolants differ by less than
    1e-12 + 1e-10 |value|; three values below 1e-12 in a row settle to 0.
    Sustained geometric growth (three consecutive doubling ratios above 1.5)
    is divergent (value None).  A sweep stops at its first passing doubling;
    anything else after 12 doublings (_SWEEP_DOUBLINGS) raises
    NonConvergence.
    """
    history: list[float] = []
    n = start
    for _ in range(_SWEEP_DOUBLINGS):
        history.append(evaluate(n))
        n *= 2
        if len(history) >= 3 \
                and all(abs(v) < _SWEEP_ABS_TOL for v in history[-3:]):
            return LimitResult(0.0, tuple(history))
        if len(history) >= 4:
            tail = np.abs(history[-4:])
            if np.all(tail[:-1] > 0) \
                    and np.all(tail[1:] / tail[:-1] > _DIVERGENCE_RATIO):
                return LimitResult(None, tuple(history))
        if len(history) >= 3:
            ladder = richardson(history)
            tol = _SWEEP_ABS_TOL + _SWEEP_REL_TOL * abs(ladder[-1])
            if abs(ladder[-1] - ladder[-2]) < tol:
                return LimitResult(float(ladder[-1]), tuple(history))
    raise NonConvergence(
        f"index sweep failed stability test after {len(history)} doublings; "
        f"history={history}")
