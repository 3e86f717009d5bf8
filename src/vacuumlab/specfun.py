"""Special-function kernel: Si and the generalized incomplete gamma
Gamma(n, 0, b) at integer n.

Si is scipy's sici, and takes arrays as well as scalars; the complex K0 of
the exponential-profile potential is scipy's kve, which `coulomb` calls
directly, and the cavity resonances use scipy's lambertw (Corless et al.,
every branch), which `cavity` calls directly.  The piece scipy does not
provide is implemented here: Gamma(n, 0, b) =
int_0^inf t^(n-1) exp(-t - b/t) dt = 2 b^(n/2) K_n(2 sqrt(b)) at integer n,
on one path: an upward recurrence from Cephes' k0e and k1e.

Everything is deterministic: no table interpolation, results are bit-stable
across runs.
"""

from __future__ import annotations

import math

from scipy.special import k0e, k1e, sici

from .errors import DomainError
from .numerics import sqrt_with_residual

# b < 2^56 keeps 2 sqrt(b) below 2^29, the range over which k0e and k1e
# were checked against mpmath (within 5.7 and 4.1 eps)
_B_LIMIT = 2.0 ** 56


# ---------------------------------------------------------------------- Si

def sine_integral(x):
    """Si(x) = int_0^x sin(t)/t dt.  Odd; tends to pi/2 as x -> inf."""
    return sici(x)[0]


# ----------------------------------------- generalized incomplete gamma at 0

def gamma_from_zero_scaled(n: int, b: float) -> float:
    """e^(2h) Gamma(n, 0, h^2) = 2 h^n e^(2h) K_n(2h), h = sqrt(b) rounded,
    for integer n >= 0 and 0 < b < 2^56 (_B_LIMIT; DomainError otherwise).

    g_m = h^m e^(2h) K_m(2h) rises by g_(m+1) = h^2 g_(m-1) + m g_m (the
    recurrence K_(m+1)(x) = K_(m-1)(x) + (2m/x) K_m(x)) from
    g_0 = k0e(2h) and g_1 = h k1e(2h), Cephes' e^x K_0(x) and e^x K_1(x);
    every step adds positive terms, and the result is 2 g_n.  Unlike
    kve(n, 2h), nothing overflows at a subnormal b.
    """
    if not (n >= 0 and float(n).is_integer() and 0.0 < b < _B_LIMIT):
        raise DomainError(f"Gamma(n, 0, b) requires an integer n >= 0 and "
                          f"0 < b < 2^56; got n = {n}, b = {b:g}")
    h = math.sqrt(b)
    hh = h * h
    g, g_next = float(k0e(2.0 * h)), h * float(k1e(2.0 * h))
    for m in range(1, int(n) + 1):
        g, g_next = g_next, hh * g + m * g_next
    return 2.0 * g


def gamma_from_zero(n: int, b: float) -> float:
    """Gamma(n, 0, b) = 2 b^(n/2) K_n(2 sqrt(b)) for integer n >= 0 and
    0 < b < 2^56 (DomainError otherwise): gamma_from_zero_scaled times
    e^(-h) e^(-h) e^(-2d), d = sqrt(b) - h (e^(-h) stays normal wherever
    the product does).  Within 1.4e-15 relative of 40-digit mpmath for
    n in {1, 2, 4} over 1e-300 <= b <= 1.26e5, the worst for n = 1 near
    b = 0.97; past b ~ 1.26e5 the value underflows.
    """
    scaled = gamma_from_zero_scaled(n, b)
    h, d = sqrt_with_residual(b)
    decay = math.exp(-h)
    return scaled * decay * decay * math.exp(-2.0 * d)
