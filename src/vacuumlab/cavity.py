"""Double delta-barrier modes in one dimension.

The barrier pair a*delta(z + s) + b*delta(z - s) splits the line into three
regions; a plane wave incident from one side is sewn across the barriers by
four linear conditions (continuity, and derivative jumps equal to the
barrier strength times the value).  With unit incident amplitude the sewing
coefficients for a wave of momentum k > 0 coming from the left are

    Delta = k^2 + i(a + b)k/2 + (exp(4iks) - 1) ab/4
    B = -i e^{-2iks} (k(a + b e^{4iks})/2 - i(e^{4iks} - 1) ab/4) / Delta
    C = k(k + i b/2)/Delta
    D = -i e^{2iks} k b/2 / Delta
    E = k^2/Delta

(reflected, interior right-mover, interior left-mover, transmitted).  The
vacuum-field mode puts barrier strengths (2 alpha, 2 beta) at z = -L/4 and
z = +L/4; scattering_coeffs_batch evaluates its coefficients over arrays of
momenta and configurations.  Right incidence is the left problem with the
strengths interchanged.

For equal barriers (strength alpha at both, separation L) the homogeneous
system has nontrivial solutions only at complex wavenumbers expressible
through Lambert W (scipy's lambertw); resonance_roots(alpha, L) computes
those resonances.
"""

from __future__ import annotations

import cmath
import math
import numpy as np
from scipy.special import lambertw

from .errors import DegenerateMode, DomainError

DELTA_TOL = 1e-12
# resonance_roots verifies each root to this fraction of max(alpha^2, |k|^2)
_RESIDUAL_TOL = 1e-8
# the domain of resonance_roots: alpha >= 1e-150 and L within 1e-150..1e150,
# where alpha^2 (the residual test's scale) and 1/L^2 (the equation's) are
# normal doubles, and alpha L within 1e-140..1e3: past alpha L ~ 1.4e3 the
# Lambert argument e^(alpha L/2) alpha L/2 overflowed, and below
# alpha L ~ 1e-150 exp(ikL) of the residual test did on the branches n != 0
_SCALE_RANGE = (1e-150, 1e150)
_ALPHA_L_RANGE = (1e-140, 1e3)


def scattering_coeffs_batch(k, alpha, beta, L):
    """Left-incidence sewing coefficients of the vacuum-field mode for many
    momenta and configurations in one numpy pass: k, alpha, beta and L are
    arrays (or floats) that broadcast together, with k > 0, L > 0 and
    alpha, beta >= 0 everywhere (DomainError otherwise).  Returns the
    complex arrays (B, C, D, E) of the module docstring, with a = 2 alpha,
    b = 2 beta and s = L/4; DegenerateMode if any entry's sewing determinant
    vanishes.  Right incidence is the left
    problem mirrored (z -> -z) with alpha and beta swapped, so the call with
    the strengths swapped gives its amplitudes.
    """
    k, alpha, beta, L = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (k, alpha, beta, L)))
    if not np.all(L > 0):
        raise DomainError("plate separation L must be positive")
    if not (np.all(alpha >= 0) and np.all(beta >= 0)):
        raise DomainError("barrier strengths must be nonnegative")
    if not np.all(k > 0):
        raise DomainError("scattering_coeffs_batch requires k > 0")
    a, b, s = 2.0 * alpha, 2.0 * beta, L / 4.0
    e2 = np.exp(4j * k * s)             # phase across the full cavity
    delta = k * k + 0.5j * (a + b) * k + (e2 - 1.0) * a * b / 4.0
    degenerate = np.abs(delta) < DELTA_TOL * np.maximum(np.maximum(1.0, k * k),
                                                        a * b)
    if degenerate.any():
        raise DegenerateMode(
            f"sewing determinant vanished at k={k[degenerate][0]}")
    B = -1j * np.exp(-2j * k * s) \
        * (0.5 * k * (a + b * e2) - 0.25j * (e2 - 1.0) * a * b) / delta
    C = k * (k + 0.5j * b) / delta
    D = -1j * np.exp(2j * k * s) * 0.5 * k * b / delta
    E = k * k / delta
    return B, C, D, E


def resonance_equation(k: complex, alpha: float, L: float) -> complex:
    """Determinant k^2 + 2 i alpha k + (exp(i k L) - 1) alpha^2 whose zeros
    are the homogeneous-mode wavenumbers of two barriers of strength alpha
    at separation L."""
    return k * k + 2j * alpha * k \
        + (cmath.exp(1j * k * L) - 1.0) * alpha * alpha


def resonance_roots(alpha: float, L: float,
                    branches=range(0, 3)) -> list[complex]:
    """Complex homogeneous-mode wavenumbers of two barriers of strength
    alpha > 0 at separation L:

        k_{n,+-} = -i (L alpha - 2 W_n(+- e^{L alpha/2} L alpha / 2)) / L

    ordered (n, +), (n, -) over the requested branches, with W_n scipy's
    lambertw.  Each root is verified against the resonance equation to
    1e-8 (_RESIDUAL_TOL) times max(alpha^2, |k|^2), DegenerateMode
    otherwise (also where lambertw gives NaN).  DomainError unless
    alpha >= 1e-150, 1e-150 <= L <= 1e150 and 1e-140 <= alpha L <= 1e3
    (_SCALE_RANGE, _ALPHA_L_RANGE), which also rejects alpha < 0 and
    L <= 0.
    """
    least, most = _SCALE_RANGE
    if not (least <= alpha and least <= L <= most):
        raise DomainError(f"resonance_roots requires alpha >= {least:g} and "
                          f"{least:g} <= L <= {most:g}, so that alpha^2 and "
                          f"1/L^2 are normal doubles; got alpha = {alpha:g}, "
                          f"L = {L:g}")
    least, most = _ALPHA_L_RANGE
    if not least <= alpha * L <= most:
        raise DomainError(f"resonance_roots requires {least:g} <= alpha L "
                          f"<= {most:g}, so that the Lambert argument "
                          f"e^(alpha L/2) alpha L/2 and exp(ikL) are "
                          f"doubles; got alpha L = {alpha * L:g}")
    half = L * alpha / 2.0          # e^(half) L overflowed at L ~ 1e100
    arg = math.exp(half) * half
    roots = []
    for n in branches:
        for sign in (+1.0, -1.0):
            w = complex(lambertw(sign * arg, n))
            k = -1j * (L * alpha - 2.0 * w) / L
            resid = abs(resonance_equation(k, alpha, L))
            if not resid <= _RESIDUAL_TOL * max(alpha * alpha, abs(k) ** 2):
                raise DegenerateMode(
                    f"resonance root ({n}, {sign:+.0f}) residual {resid}")
            roots.append(k)
    return roots
