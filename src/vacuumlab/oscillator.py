"""Excitation statistics of indefinite-frequency oscillator ensembles, and
the self-energy shifts of a static point charge.

N oscillators whose frequencies are the eigenvalues omega of an operator,
drawn with probabilities p_w, each displaced with intensity w_w, have the
finite-N deformation of the Poisson law as their total excitation law:

    p(n, N) = (1/n!) d^n/dlambda^n (sum_w p_w e^{lambda w_w / N})^N  at
    lambda = -1,

the z^n coefficient of Q(z)^N, Q(z) = sum_w p_w e^{w_w (z - 1)/N}, taken by
binary powering of a truncated series; as N -> inf it tends to the plain
Poisson law with the mode-averaged intensity.  The operator algebra behind
it (the N-site symmetrized ladder operators and the binomial spectrum s/N
of the frequency-of-successes element) lives in the tests, with the
brute-force oracle built on it; `validate` checks p(n, N) against the
N-fold convolution of one site's displaced-ladder distribution.  The
module also evaluates the vacuum-averaged self-energy shifts of a static
point charge, free or facing a reflecting plane.
"""

from __future__ import annotations

import math
import sys
from functools import cache
from typing import Sequence

import numpy as np

from .coulomb import potential
from .errors import DomainError
from .numerics import two_prod
from .vacuum import VacuumProfile, density_integral, physical_charge


# ------------------------------------------------------------- statistics

def renyi_poisson_pmf(probs: Sequence[float], intensities: Sequence[float],
                      N: int, n: Sequence[int]) -> np.ndarray:
    """Finite-N deformed Poisson law p(n, N) = [z^n] Q(z)^N, with
    Q(z) = sum_w p_w e^{mu_w (z - 1)} and mu_w = w_w/N, as an array with
    one p(n, N) per entry of the 1-d sequence n.

    p(n, N) = q0^N [z^n] R^N with R = Q/q0: r_0 = 1 and r_k >= 0 from
    cumulative products mu_w/k, raised to the N-th power by binary powering
    of the series cut past max(n); nothing subtracts.  log q0 is log1p of
    an fsum of the probabilities, -1 and p_w expm1(-mu_w), which keeps the
    probabilities' defect from 1 (log q0 itself below q0 = 1/2).  Each
    p(n, N) has the same bits whatever else n holds.  DomainError where
    q0^N is not a normal double, -N log q0 > 708.4 (R^N reaches q0^-N; by
    Jensen, a mean intensity > 708).  A mode whose first term
    p_w e^{-mu_w}/q0 is below the normal range (mu_w past ~708) takes its
    terms (p_w/q0) e^{-mu_w} mu_w^k/k! from _poisson_pmf one k at a time,
    where the cumulative product would start from 0 or a subnormal.
    """
    probs = [float(p) for p in probs]
    intensities = [float(w) for w in intensities]
    if abs(sum(probs) - 1.0) > 1e-12 or any(p < 0 for p in probs):
        raise DomainError("probs must be nonnegative and sum to 1")
    if any(w < 0 for w in intensities) or len(probs) != len(intensities):
        raise DomainError("intensities must be nonnegative, one per mode")
    if np.ndim(n) != 1:
        raise DomainError("n must be a 1-d sequence of excitation numbers")
    ns = list(n)
    if any(v < 0 for v in ns) or N < 1:
        raise DomainError("n >= 0 and N >= 1 required")
    p, mu = np.array(probs), np.array(intensities) / N
    shares = p * np.exp(-mu)                    # the modes' parts of q0
    q0 = math.fsum(shares)
    log_q0 = (math.log1p(math.fsum([*probs, -1.0, *(p * np.expm1(-mu))]))
              if q0 > 0.5 else math.log(q0) if q0 > 0.0 else -math.inf)
    if N * log_q0 < math.log(sys.float_info.min):
        raise DomainError(f"p(0, N) = exp({N * log_q0:g}) is no normal "
                          "double (a mean intensity past ~708)")
    # row k: the modes' (p_w e^{-mu_w}/q0) mu_w^k/k!, none above p_w/q0
    steps = np.vstack([shares / q0,
                       mu / np.arange(1, max(ns, default=0) + 1)[:, None]])
    terms = np.cumprod(steps, axis=0)
    for w in np.flatnonzero((p > 0) & (steps[0] < sys.float_info.min)):
        terms[:, w] = [p[w] / q0 * _poisson_pmf(float(mu[w]), k)
                       for k in range(len(terms))]
    r = terms.sum(axis=1)
    r[0] = 1.0
    return math.exp(N * log_q0) * _series_power(r, N)[ns]


def _series_power(r: np.ndarray, N: int) -> np.ndarray:
    """r(z)^N cut to len(r) terms, by binary powering over the bits of N.
    Coefficient k of a product, sum_j a_j b_(k-j), is added in order of j
    (bincount adds in input order), so it does not depend on len(r)."""
    index = np.add.outer(np.arange(len(r)), np.arange(len(r))).ravel()

    def product(a, b):
        return np.bincount(index, np.multiply.outer(a, b).ravel())[:len(r)]

    power = r
    for bit in bin(N)[3:]:
        power = product(power, power)
        if bit == "1":
            power = product(power, r)
    return power


def shannon_poisson_pmf(probs: Sequence[float],
                        intensities: Sequence[float], n: int) -> float:
    """Plain Poisson with the mode-averaged parameter sum_i p_i w_i (the
    N -> inf limit of the deformed law), by _poisson_pmf."""
    lam = float(sum(p * w for p, w in zip(probs, intensities)))
    if n < 0:
        raise DomainError("n must be nonnegative")
    return _poisson_pmf(lam, n)


def _poisson_pmf(lam: float, n: int) -> float:
    """e^-lam lam^n/n! to a few ulps wherever it is a normal double.

    Its logarithm n log(lam) - lam - log(n!) is a list of doubles whose
    exact sum is it to ~1e-20 relative (products by the large terms of
    _log_terms split exactly by two_prod), summed by fsum into hi + lo, and
    the value is e^hi e^lo: the rounding of an exponent near -700 does not
    enter.  log(n!) is the log of n! itself up to n = 22 (an exact double);
    past it, Loader's (n + 1/2) log n - n + log(2 pi)/2 + stirlerr(n), with
    stirlerr's asymptotic series to its 1/n^9 term (< 3e-18 off).
    """
    if lam == 0.0:
        return 1.0 if n == 0 else 0.0
    terms = [-lam, *_scaled_terms(n, _log_terms(lam))]
    if n <= 22:
        log_factorial = _exact_log_factorial(n)
    else:
        nn = float(n) * n
        stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn)
                                         / nn) / nn) / nn) / n
        log_factorial = [*_scaled_terms(n + 0.5, _log_terms(float(n))), -n,
                         *_HALF_LOG_2PI, stirlerr]
    terms += [-t for t in log_factorial]
    hi = math.fsum(terms)
    return math.exp(hi) * math.exp(math.fsum([*terms, -hi]))


# ln 2 in two parts, the first with 32 significant bits, so that e ln 2 is
# exact in them for |e| < 2^21 (fdlibm's ln2_hi, ln2_lo); log(2 pi)/2 in two
_LN2 = (6.93147180369123816490e-01, 1.90821492927058770002e-10)
_HALF_LOG_2PI = (0.9189385332046728, -3.8782941580672414e-17)
# Horner coefficients of the atanh series past its u^3 term, 1/25 ... 1/5
_ATANH_TAIL = tuple(1.0 / k for k in range(25, 3, -2))


@cache
def _exact_log_factorial(n: int) -> tuple[float, ...]:
    """_log_terms of n!, an exact double for n <= 22."""
    return tuple(_log_terms(float(math.factorial(n))))


def _log_terms(x: float) -> list[float]:
    """Doubles whose exact sum is log x > 0 to ~1e-20 relative, the three
    large ones first: x = m 2^e with m in [1/sqrt 2, sqrt 2), and
    log m = 2 atanh(U) = 2 U + 2 U^3/3 + ..., U = (m - 1)/(m + 1) = u + u_lo
    with |u| < 0.172, its first two terms in two parts each and the rest of
    the series to its u^25 term."""
    m, e = math.frexp(x)
    if m < 0.7071067811865476:
        m, e = 2.0 * m, e - 1
    f = m - 1.0                         # exact
    d = 2.0 + f
    d_lo = (2.0 - d) + f                # 2 + f = d + d_lo exactly
    u = f / d
    p, p_lo = two_prod(u, d)
    u_lo = ((f - p) - p_lo - u * d_lo) / d
    v, v_lo = two_prod(u, u)
    c, c_lo = two_prod(v, u)            # u^3 = c + c_lo + u v_lo
    t = c / 3.0
    p, p_lo = two_prod(t, 3.0)
    t_lo = ((c - p) - p_lo + c_lo + u * v_lo) / 3.0     # u^3/3 = t + t_lo
    tail = 0.0
    for coefficient in _ATANH_TAIL:     # sum_j v^j/(2j + 5), j <= 10
        tail = tail * v + coefficient
    return [e * _LN2[0], 2.0 * u, 2.0 * t, e * _LN2[1],
            2.0 * (u_lo + t_lo + v * u_lo), 2.0 * u * v * v * tail]


def _scaled_terms(c: float, terms: list[float]) -> list[float]:
    """c times the sum of _log_terms, as doubles whose exact sum is it to
    the same relative accuracy: the three large terms' products exactly."""
    return [*two_prod(c, terms[0]), *two_prod(c, terms[1]),
            *two_prod(c, terms[2]), *(c * t for t in terms[3:])]


# --------------------------------------------------------- radiative shifts

def radiative_shift(profile: VacuumProfile, q_charge: float) -> float:
    """Vacuum-averaged self-energy of a static point charge in free space,
    in closed form: q^2 int dk density/|k| = q^2 density_integral(profile)
    (an average over the vacuum ensemble, not a single eigenvalue shift).
    DomainError for a profile that is not infrared admissible or a q that
    physical_charge rejects.  A reflecting plane adds mirror_term.
    """
    physical_charge(q_charge, profile)
    return q_charge ** 2 * density_integral(profile)


def mirror_term(profile: VacuumProfile, q_charge: float, gap: float) -> float:
    """Self-energy change of a point charge at distance L = gap from a
    reflecting plane: the plane turns the mode weight into (1 - cos 2 k_z L),
    radially (1 - sin(2 kappa L)/(2 kappa L)), and the change is the
    mirror-image interaction, half the closed-form averaged potential V(2 L)
    between the charge and its image."""
    if gap <= 0:
        raise DomainError("the plane's gap must be positive")
    q_ph = physical_charge(q_charge, profile)
    return 0.5 * potential(profile, q_ph, 2.0 * gap)
