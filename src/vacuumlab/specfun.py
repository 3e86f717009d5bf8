"""Special-function kernel: Si, all-branch Lambert W, the generalized
incomplete gamma Gamma(alpha, 0, b), and Bernoulli numbers.

Si is scipy's sici, and takes arrays as well as scalars; the complex K0 of
the exponential-profile potential is scipy's kve, which `coulomb` calls
directly.  The pieces scipy does not provide are implemented here:

* Lambert W on any integer branch (asymptotic initializer, Halley polish);
* Gamma(alpha, 0, b) = int_0^inf t^(alpha-1) exp(-t - b/t) dt
  = 2 b^(alpha/2) K_alpha(2 sqrt(b)) for b > 0, with its small-b series.

Everything is deterministic: no table interpolation, results are bit-stable
across runs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import kv, sici

from .errors import DomainError, NoConvergence, NonConvergence

_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------- Si

def sine_integral(x):
    """Si(x) = int_0^x sin(t)/t dt.  Odd; tends to pi/2 as x -> inf."""
    return sici(x)[0]


# --------------------------------------------------------------- Lambert W

_BRANCH_POINT = -1.0 / math.e
# lambert_w drives |w e^w - z| below _LAMBERT_TOL (1 + |z|) within
# _LAMBERT_MAX_ITER Halley steps per seed
_LAMBERT_TOL = 1e-13
_LAMBERT_MAX_ITER = 120


def _lambert_seeds(branch: int, z: complex):
    """Candidate starting points for Halley iteration on branch `branch`."""
    seeds = []
    if branch == 0 and abs(z) < 0.25:
        # series W0(z) = z - z^2 + 3/2 z^3 - ...
        seeds.append(z * (1.0 - z + 1.5 * z * z))
    if branch == 0:
        # W0(z) ~ log(1 + z) between the series and the asymptotic regimes
        seeds.append(np.log1p(z))
    if branch in (-1, 0, 1) and abs(z - _BRANCH_POINT) < 0.4:
        p = np.sqrt(2.0 * (math.e * z + 1.0) + 0j)
        for sign in (1.0, -1.0):
            q = sign * p
            seeds.append(-1.0 + q - q * q / 3.0 + 11.0 / 72.0 * q ** 3)
    lz = np.log(z) + 2j * math.pi * branch
    if abs(lz) > 1e-300:
        seeds.append(lz - np.log(lz))
    seeds.append(lz)
    return seeds


def _halley(w: complex, z: complex, target: float):
    # a residual below target still leaves w off by about
    # target / |e^w (1 + w)|; one more (cubically convergent) step after
    # the residual test passes takes w to working precision
    polished = False
    for _ in range(_LAMBERT_MAX_ITER):
        ew = np.exp(w)
        f = w * ew - z
        if abs(f) <= target:
            if polished or f == 0:
                return w
            polished = True
        wp1 = w + 1.0
        if wp1 == 0:
            w += 1e-8
            continue
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0:
            return w if polished else None
        w -= f / denom
    ew = np.exp(w)
    return w if abs(w * ew - z) <= target else None


def _branch_index(w: complex, z: complex) -> int:
    # W_k(z) + ln W_k(z) = ln z + 2 pi i k  (ln principal)
    if w == 0:
        return 0
    val = (w + np.log(w) - np.log(z)) / (2j * math.pi)
    return int(round(val.real))


def lambert_w(branch: int, z: complex) -> complex:
    """Solve w * exp(w) = z on the given integer branch (Halley iteration).

    Seeds from the asymptotic expansion log z + 2 pi i n - log log z (plus
    branch-point and small-z series where relevant); the converged root is
    accepted only if it verifies w + ln w = ln z + 2 pi i * branch.
    Residual |w e^w - z| is driven below 1e-13 (1 + |z|) within 120 Halley
    steps per seed (_LAMBERT_TOL, _LAMBERT_MAX_ITER); raises NoConvergence
    otherwise.
    """
    z = complex(z)
    if z == 0:
        if branch == 0:
            return 0.0 + 0.0j
        raise DomainError("only the principal branch is defined at z = 0")
    target = _LAMBERT_TOL * (1.0 + abs(z))
    fallback = None
    for seed in _lambert_seeds(branch, z):
        w = _halley(complex(seed), z, target)
        if w is None:
            continue
        if _branch_index(w, z) == branch:
            return w
        fallback = w if fallback is None else fallback
    # walk in from a nearby off-axis point when z sits on a branch boundary
    if z.imag == 0:
        for eps in (1e-12, -1e-12):
            try:
                w = lambert_w(branch, complex(z.real, eps))
            except NoConvergence:
                continue
            w = _halley(w, z, target)
            if w is not None:
                return w
    raise NoConvergence(
        f"Lambert W Halley iteration failed on branch {branch} at z={z}")


# ----------------------------------------- generalized incomplete gamma at 0

def gamma_from_zero(alpha: float, b: float) -> float:
    """Gamma(alpha, 0, b) = 2 b^(alpha/2) K_alpha(2 sqrt(b)) for b > 0
    (DomainError otherwise).

    For integer alpha = n the expansion in b is
    sum_{k<n} (-1)^k Gamma(n-k)/k! b^k + O(b^n log b); it is used, truncated
    before the log term, only where that term is below half an ulp of the
    sum, which is also where K_n(2 sqrt(b)) would overflow.
    """
    if not b > 0:
        raise DomainError("gamma_from_zero requires b > 0")
    if alpha == int(alpha) and alpha > 0 and b < 1.0:
        n = int(alpha)
        # first dropped term: (-1)^n b^n (psi(1) + psi(n+1) - ln b)/n!,
        # with |psi(1) + psi(n+1)| < n + 2
        dropped = b ** n * (abs(math.log(b)) + n + 2) / math.factorial(n)
        if dropped <= 0.5 * _EPS * math.gamma(n):
            return math.fsum((-1) ** k / math.factorial(k) * math.gamma(n - k)
                             * b ** k for k in range(n))
    with np.errstate(over="ignore", invalid="ignore"):
        val = float(2.0 * np.power(b, alpha / 2.0)
                    * kv(alpha, 2.0 * math.sqrt(b)))
    if not math.isfinite(val):
        raise NonConvergence(
            f"Gamma({alpha}, 0, {b}) is out of double-precision range")
    return val


# ---------------------------------------------------------------- Bernoulli

@lru_cache(maxsize=None)
def _bernoulli_fraction(n: int) -> Fraction:
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    # sum_{k=0}^{n} C(n+1, k) B_k = 0
    acc = Fraction(0)
    for k in range(n):
        acc += math.comb(n + 1, k) * _bernoulli_fraction(k)
    return -acc / (n + 1)


def bernoulli_number(index: int) -> float:
    """Exact Bernoulli number B_index for even index <= 20."""
    if index <= 0 or index % 2 != 0 or index > 20:
        raise DomainError("bernoulli_number requires an even index in 2..20")
    return float(_bernoulli_fraction(index))
