"""Delta-sequence calculus on the real line.

A delta sequence is a family of ordinary functions delta_n with unit
integral whose filtering integrals converge,

    lim_n int delta_n(k) f(k) dk = (f(0-) + f(0+)) / 2.

Three families are implemented:

* LAMBDA_TRIANGLE -- the triangle of height n on [-1/n, 1/n] (the classical
  picture, delta_n(0) = n);
* M_SHAPE -- the piecewise-linear "M" profile of width epsilon = 1/n whose
  value at the origin is a constant a for every n;
* SHIFTED_PAIR -- the symmetrized pair of shifted triangles
  (delta_n(k - j/n) + delta_n(-k - j/n)) / 2, vanishing at 0 for j >= 1.

Families with the same origin value delta(0) form one multiplication class:
products are defined through nested limits with one independent index per
factor, swept innermost first, and a power of a family is the product of
[family] * power.  Squares of the triangle family diverge; that outcome is
a LimitResult whose value is None, never inf.

Test functions f take arrays: every index of a sweep evaluates f once, at
the nodes of 20-point Gauss-Legendre panels (numerics.gauss_legendre), one
per piece between consecutive breakpoints, where every profile is linear;
nothing here calls quadpack.  fourier_integral is a sum of cos(a u)/u^2
pieces, in closed form (through Si) on [pi, inf).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, IncompatibleClasses
from .numerics import LimitResult, gauss_legendre, sweep_limit
from .specfun import sine_integral

TWO_PI = 2.0 * np.pi
_DOUBLE_MAX = float(np.finfo(float).max)
# past it u^2 is no double, and (sin u/u)^2 < 1/u^2 underflows to 0
_SQRT_MAX = np.sqrt(_DOUBLE_MAX)


class DeltaShape(Enum):
    LAMBDA_TRIANGLE = "lambda_triangle"
    M_SHAPE = "m_shape"
    SHIFTED_PAIR = "shifted_pair"


@dataclass(frozen=True)
class DeltaFamily:
    """Parametric descriptor of one delta-sequence family.

    n is the sequence index (epsilon = 1/n for the M shape), j the shift of
    the SHIFTED_PAIR family, a the origin height of the M shape.
    DomainError unless n >= 1 with n^2 a double (n below ~1.3e154),
    j >= 0 a double, and a >= 0 with 1.5 a a double (a below ~1.2e308).
    """

    shape: DeltaShape
    n: int = 1
    j: int = 0
    a: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("sequence index n must be a positive integer")
        if self.n * self.n > _DOUBLE_MAX:
            raise DomainError("sequence index n is out of range: n^2 must "
                              "be a double (n below ~1.3e154)")
        if not 0 <= self.j <= _DOUBLE_MAX:
            raise DomainError("shift j must be nonnegative and a double")
        if self.a < 0:
            raise DomainError("M-shape height a must be nonnegative")
        if 1.5 * self.a > _DOUBLE_MAX:
            raise DomainError(f"M-shape height a = {self.a:g} is out of "
                              "range: 1.5 a must be a double")

    @property
    def multiplication_class(self) -> tuple:
        """Key identifying the equivalence class under which products exist."""
        if self.shape is DeltaShape.LAMBDA_TRIANGLE:
            return ("divergent-at-zero",)
        if self.shape is DeltaShape.M_SHAPE:
            return ("regular-at-zero", self.a)
        return ("divergent-at-zero",) if self.j == 0 \
            else ("regular-at-zero", 0.0)

    breakpoints = property(lambda self: _breakpoints(self, self.n))


def _breakpoints(family: DeltaFamily, n) -> list[float]:
    """Kink locations of family's piecewise-linear profile of index n,
    ascending."""
    h = 1.0 / n
    if family.shape is DeltaShape.LAMBDA_TRIANGLE:
        return [-h, 0.0, h]
    if family.shape is DeltaShape.M_SHAPE:
        return [c * h for c in (-0.5, -0.25, 0.0, 0.25, 0.5)]
    c = family.j * h
    return sorted({-c - h, -c, -c + h, c - h, c, c + h})


def _triangle(k, n):
    # |k| clipped past the support, where the value is 0 either way, so
    # that n^2 |k| stays a double
    return np.maximum(n - n * n * np.minimum(np.abs(k), 2.0 / n), 0.0)


def _m_profile(k, a, eps):
    # each piece on |k| clipped at its own end, so that neither overflows
    # where np.where discards it
    k = np.abs(k)
    k_in, k_out = np.minimum(k, 0.25 * eps), np.minimum(k, 0.5 * eps)
    inner = (4.0 * k_in / eps) * (2.0 / eps - 1.5 * a) + a
    outer = (2.0 - 4.0 * k_out / eps) * (2.0 / eps - 0.5 * a)
    return np.where(k < 0.25 * eps, inner, np.where(k < 0.5 * eps, outer, 0.0))


def eval_family(family: DeltaFamily, k):
    """Pointwise value delta_n(k).

    An array k gives an array; a float k goes through the same numpy
    operations as a 0-d array and gives a float, so it has the bits of the
    same point of an array.
    """
    out = _profile(family, family.n, k)
    return float(out) if out.ndim == 0 else out


def _profile(family: DeltaFamily, n: int, k):
    """family's profile of index n at k."""
    if family.shape is DeltaShape.LAMBDA_TRIANGLE:
        return _triangle(k, n)
    if family.shape is DeltaShape.M_SHAPE:
        return _m_profile(k, family.a, 1.0 / n)
    c = family.j / n
    return 0.5 * (_triangle(k - c, n) + _triangle(k + c, n))


def fourier(family: DeltaFamily, x):
    """Closed-form transform (1/2pi) int delta_n(k) exp(i k x) dk.

    Real for every implemented shape; bounded by 1/(2 pi) for the triangle.
    The x -> 0 value is the analytic limit 1/(2 pi).  DomainError where the
    shifted pair's phase j x leaves the double range.
    """
    x = np.asarray(x, dtype=float)
    n = family.n
    if family.shape is DeltaShape.LAMBDA_TRIANGLE:
        out = _sinc_sq(x / (2.0 * n)) / TWO_PI
    elif family.shape is DeltaShape.M_SHAPE:
        eps = 1.0 / n
        a = family.a
        u = eps * x / 8.0
        out = (4.0 * np.cos(2.0 * u) + 2.0 * eps * a * np.sin(u) ** 2) \
            * _sinc_sq(u) / (8.0 * np.pi)
    else:
        # a Python float product overflows to inf without a warning
        if family.j * float(np.max(np.abs(x), initial=0.0)) == np.inf:
            raise DomainError("fourier: the shifted pair's phase j x leaves "
                              "the double range")
        out = _sinc_sq(x / (2.0 * n)) * np.cos(family.j * x / n) / TWO_PI
    return float(out) if out.ndim == 0 else out


def _sinc_sq(u):
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-6
    large = np.abs(u) > _SQRT_MAX
    tiny = np.where(small, u, 0.0)
    safe = np.where(small | large, 1.0, u)
    return np.where(small, 1.0 - tiny * tiny / 3.0,
                    np.where(large, 0.0, np.sin(safe) ** 2 / safe ** 2))


def _cos_tail(a: float) -> float:
    """int_pi^inf cos(a u) / u^2 du = cos(a pi)/pi - a (pi/2 - Si(a pi))."""
    return np.cos(a * np.pi) / np.pi \
        - a * (np.pi / 2.0 - sine_integral(a * np.pi))


def _cosine_pieces_integral(pieces: Sequence[tuple[float, float]]) -> float:
    """int_0^inf sum_i c_i cos(a_i u) / u^2 du for coefficient sets whose
    u -> 0 singularities cancel (sum c_i = 0).

    On [0, pi] the sum is -2 sum_i c_i sin^2(a_i u / 2) / u^2, which has no
    cancellation as u -> 0, on Gauss-Legendre panels less than a half
    period of the fastest piece wide; [pi, inf) is closed in form, piece by
    piece, by _cos_tail.
    """
    c, a = np.array(pieces).T
    edges = np.linspace(0.0, np.pi, 2 + int(a.max()))
    u, w = gauss_legendre(edges[:-1], edges[1:])
    s = np.sin(np.multiply.outer(u, 0.5 * a))
    body = -2.0 * float(np.sum(w * ((s * s) @ c) / (u * u)))
    return body + sum(ci * _cos_tail(ai) for ci, ai in pieces)


def fourier_integral(family: DeltaFamily) -> float:
    """int_R fourier(family, x) dx in closed form past the smooth core.

    Recovers the origin value of the profile: n for the triangle, 0 for
    shifted pairs with j >= 1, a for the M shape.  The transform is a sum of
    cos(a u)/u^2 pieces, on Gauss-Legendre panels for u in [0, pi] and in
    closed form through Si on [pi, inf).
    """
    if family.shape is DeltaShape.M_SHAPE:
        # in u = eps x / 8 the transform reads
        # (eps a + (4 - eps a) cos 2u) sin^2 u / (8 pi u^2); expanding sin^2
        # and the cosine product gives pure cosine pieces
        eps = 1.0 / family.n
        c0, c1 = eps * family.a, 4.0 - eps * family.a
        pieces = [((c0 - 0.5 * c1) / 2.0, 0.0),
                  ((c1 - c0) * 0.5, 2.0),
                  (-0.25 * c1, 4.0)]
        per_side = _cosine_pieces_integral(pieces) / (8.0 * np.pi)
        return 2.0 * per_side * 8.0 / eps
    n = family.n
    j = family.j if family.shape is DeltaShape.SHIFTED_PAIR else 0
    # u = x/(2n): I = (2n/pi) int_0^inf (sin u/u)^2 cos(2ju) du,
    # sin^2 u cos(2ju) = cos(2ju)/2 - cos(2(j+1)u)/4 - cos(2(j-1)u)/4
    pieces = [(0.5, 2.0 * j), (-0.25, 2.0 * (j + 1)), (-0.25, 2.0 * abs(j - 1))]
    return (2.0 * n / np.pi) * _cosine_pieces_integral(pieces)


def _panel_integral(factors: Sequence[tuple[DeltaFamily, int]],
                    f: Callable) -> float:
    """int prod_i delta_i(k) f(k) dk over the common support, for factors
    (family, index), one Gauss-Legendre panel per piece between consecutive
    points of the union of the breakpoints and 0.  Every profile is linear
    on each piece, so the rule is exact for polynomial f of low degree and
    takes smooth f to rounding; a jump of f at 0 falls on a panel edge."""
    points = [_breakpoints(fam, n) for fam, n in factors]
    lo = max(p[0] for p in points)
    hi = min(p[-1] for p in points)
    edges = np.array(sorted({x for p in points for x in p if lo < x < hi}
                            | {lo, 0.0, hi}))
    k, w = gauss_legendre(edges[:-1], edges[1:])
    out = w * f(k)
    for fam, n in factors:
        out = out * _profile(fam, n, k)
    return float(np.sum(out))


def _check_sweep_shifts(families: Sequence[DeltaFamily]):
    """DomainError for a SHIFTED_PAIR with j >= 2^53, where its breakpoints
    j/n +- 1/n round onto j/n and a sweep's limit would be wrong."""
    if any(f.shape is DeltaShape.SHIFTED_PAIR and f.j >= 2.0 ** 53
           for f in families):
        raise DomainError("a filtering sweep requires a shift j < 2^53")


def filtering_integral(family: DeltaFamily,
                       f: Callable[[np.ndarray], np.ndarray]) -> float:
    """lim_n int delta_n(k) f(k) dk by index sweep with extrapolation.

    Converges to (f(0-) + f(0+))/2 for piecewise-continuous bounded f.  f
    maps an array of points to an array of values (or to one scalar, for a
    constant).  The sweep starts at n = 16, for a SHIFTED_PAIR at
    16 max(1, j), so that the shift j/n starts at 1/16 or less, like the
    triangle's half-width.  A feature of f nearer 0 than the starting
    support can still leave the sweep on a plateau, for every family.
    DomainError for a SHIFTED_PAIR with j >= 2^53.
    """
    _check_sweep_shifts([family])
    start = 16 * max(1, family.j) if family.shape is DeltaShape.SHIFTED_PAIR \
        else 16
    sweep = sweep_limit(lambda n: _panel_integral([(family, n)], f), start)
    return sweep.expect_finite()


def product_filtering_integral(families: Sequence[DeltaFamily],
                               f: Callable[[np.ndarray], np.ndarray]
                               ) -> LimitResult:
    """Nested-limit integral of a product of delta sequences against f.

    Each factor carries its own index; the innermost factor is swept to
    convergence before the next one advances.  Numerically the iterated
    limit is realized on the staircase n, n^3, n^9, ... (innermost largest):
    the profiles rise with slope O(n^2) at the origin, so an inner index
    growing faster than the square of the outer one reproduces the iterated
    limit, and the outer sweep extrapolates in n.  The list order fixes the
    ladder: the first family takes n, the last one, innermost, the largest
    index; the other limit order is the reversed list.  All factors must
    belong to one multiplication class (IncompatibleClasses otherwise) and
    the list must not be empty (DomainError), nor hold a SHIFTED_PAIR with
    j >= 2^53 (DomainError).  f takes arrays, as in filtering_integral.

    A power of a family is [family] * power: it evaluates to
    delta(0)^(power-1) (f(0-) + f(0+))/2, zero for families vanishing at the
    origin and divergent (value None) for the triangle family with
    power >= 2.
    """
    if not families:
        raise DomainError("need at least one family")
    _check_sweep_shifts(families)
    classes = {fam.multiplication_class for fam in families}
    if len(classes) > 1:
        raise IncompatibleClasses(
            f"delta product across distinct classes: {sorted(classes)}")
    if len(families) == 1:
        return LimitResult(filtering_integral(families[0], f))

    def evaluate(n: int) -> float:
        return _panel_integral([(fam, n ** 3 ** rank)
                                for rank, fam in enumerate(families)], f)

    return sweep_limit(evaluate, start=4)
