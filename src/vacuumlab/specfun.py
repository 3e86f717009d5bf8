"""Special-function kernel: Si and the generalized incomplete gamma
Gamma(alpha, 0, b).

Si is scipy's sici, and takes arrays as well as scalars; the complex K0 of
the exponential-profile potential is scipy's kve, which `coulomb` calls
directly, and the cavity resonances use scipy's lambertw (Corless et al.,
every branch), which `cavity` calls directly.  The piece scipy does not
provide is implemented here: Gamma(alpha, 0, b) =
int_0^inf t^(alpha-1) exp(-t - b/t) dt = 2 b^(alpha/2) K_alpha(2 sqrt(b))
for b > 0, with its small-b series.

Everything is deterministic: no table interpolation, results are bit-stable
across runs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import kv, sici

from .errors import DomainError, NonConvergence

_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------- Si

def sine_integral(x):
    """Si(x) = int_0^x sin(t)/t dt.  Odd; tends to pi/2 as x -> inf."""
    return sici(x)[0]


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
