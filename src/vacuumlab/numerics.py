"""Numerical plumbing: the quadrature rule, the exact product, limit
sweeps and their results.

The package has one quadrature rule, gauss_legendre: fixed 20-point
Gauss-Legendre panels for integrands whose smooth pieces are known in
advance (casimir's graded panels, contour tail and 3+1 tail table,
deltaseq's piecewise-polynomial filtering integrals, validation's
normalization and mirror-identity oracles), on a correctly rounded rule:
numpy's leggauss weights are up to 353 ulp off at the end nodes.  No module
imports scipy.integrate.

Improper limits of integral sequences are realized as index sweeps
n = 16, 32, 64, ... with Richardson extrapolation; a sweep either settles
(finite value, to 1e-12 absolute plus 1e-10 relative), grows without bound
(divergent: a LimitResult whose value is None), or raises NonConvergence
after 12 doublings.  Divergence is never reported as float('inf').
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
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


@cache
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    """20-point Gauss-Legendre nodes and weights on [-1, 1], correctly
    rounded: leggauss's weights are up to 353 ulp off at the end nodes, so
    its nodes x > 0 only start two Newton steps on P_20 in 40 digits, with
    w = 2/((1 - x^2) P_20'(x)^2), and x < 0 mirrors them.  Built on first
    use, not at import: leggauss goes through LAPACK, whose set-up costs
    every process that imports the package but never integrates."""
    import decimal

    rule = []
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for start in np.polynomial.legendre.leggauss(20)[0][10:]:
            x = decimal.Decimal(float(start))
            for _ in range(2):
                # P_19 and P_20 by Bonnet's recursion, P_20' from both
                p0, p = 1, x
                for n in range(1, 20):
                    p0, p = p, ((2 * n + 1) * x * p - n * p0) / (n + 1)
                dp = 20 * (x * p - p0) / (x * x - 1)
                x -= p / dp
            rule.append((float(x), float(2 / ((1 - x * x) * dp * dp))))
    x, w = np.array(rule).T
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


def gauss_legendre(lo: np.ndarray, hi: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, as (20, panels) arrays, of 20-point Gauss-Legendre
    panels on [lo, hi]: exact for polynomials of degree <= 39 on each.
    Panels run along rows, so per-panel arrays broadcast over a block as
    rows and a sum over axis 0 adds each panel's nodes in order."""
    nodes, weights = _gl_rule()
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0)[:, None], half * weights[:, None]


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
