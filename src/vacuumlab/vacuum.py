"""Vacuum wave-function profiles and their derived quantities.

A profile describes the squared modulus of the vacuum amplitude over the
light cone, normalized against the invariant measure

    dk = d^3k / ((2 pi)^3 2 |k|),   int dk |O(k)|^2 = 1,

which reduces radially to (1/(4 pi^2)) int kappa |O(kappa)|^2 d kappa.
Two rotationally invariant models are implemented:

* BOX_SHELL  -- constant density Z on the shell k1 <= |k| <= k2,
                Z = 8 pi^2 / (k2^2 - k1^2);
* LORENTZ_EXP -- |O(k)|^2 = |C|^2 exp(-lambda^2/(y0 kappa) - y0 kappa) with
                |C|^2 = 2 pi^2 y0^2 / (lambda^2 K2(2 lambda)), evaluated in
                the rest frame of the timelike scale vector.

Z is the peak density, chi = density/Z the unit-height cutoff function, and
q_ph = q sqrt(Z) the renormalized charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, NonConvergence

FOUR_PI_SQ = 4.0 * math.pi ** 2


class ProfileKind(Enum):
    BOX_SHELL = "box"
    LORENTZ_EXP = "lorentz"


@dataclass(frozen=True)
class VacuumProfile:
    """Rotationally invariant vacuum density model (rest frame only).

    Constructed through make_box_profile / make_lorentz_profile, which
    validate parameters and fill the derived fields Z (peak density) and
    norm_const (|C|^2).
    """

    kind: ProfileKind
    k1: float = 0.0
    k2: float = 0.0
    lambda2: float = 0.0
    y0: float = 0.0
    Z: float = 0.0
    norm_const: float = 0.0

    @property
    def tag(self) -> str:
        if self.kind is ProfileKind.BOX_SHELL:
            return f"box(k1={self.k1:g},k2={self.k2:g})"
        return f"lorentz(lambda2={self.lambda2:g},y0={self.y0:g})"


def make_box_profile(k1: float, k2: float) -> VacuumProfile:
    """Shell profile: density Z = 8 pi^2/(k2^2 - k1^2) on k1 <= |k| <= k2."""
    if k1 <= 0 or k1 >= k2:
        raise DomainError("box profile requires 0 < k1 < k2")
    Z = 8.0 * math.pi ** 2 / (k2 ** 2 - k1 ** 2)
    return VacuumProfile(ProfileKind.BOX_SHELL, k1=k1, k2=k2, Z=Z,
                         norm_const=Z)


def make_lorentz_profile(lambda2: float, y0: float) -> VacuumProfile:
    """Boost-invariant exponential profile with parameters lambda^2, y0.

    norm_const = 2 pi^2 y0^2 / (lambda^2 K2(2 lambda)) makes the invariant
    normalization exactly 1; the density peaks at kappa = lambda/y0 with
    peak value Z = norm_const * exp(-2 lambda).
    """
    if lambda2 <= 0 or y0 <= 0:
        raise DomainError("lorentz profile requires lambda2 > 0 and y0 > 0")
    lam = math.sqrt(lambda2)
    from .specfun import gamma_from_zero
    # Gamma(2, 0, lambda^2) = 2 lambda^2 K2(2 lambda); stable for tiny lambda,
    # but it underflows to 0 once lambda^2 exceeds about 1.26e5
    gamma2 = gamma_from_zero(2.0, lambda2)
    norm_const = FOUR_PI_SQ * y0 ** 2 / gamma2 if gamma2 > 0.0 else math.inf
    if not math.isfinite(norm_const):
        raise DomainError(f"lambda2 = {lambda2:g}, y0 = {y0:g} puts the "
                          "lorentz profile normalization out of double range")
    Z = norm_const * math.exp(-2.0 * lam)
    return VacuumProfile(ProfileKind.LORENTZ_EXP, lambda2=lambda2, y0=y0,
                         Z=Z, norm_const=norm_const)


def density(profile: VacuumProfile, k_abs: float) -> float:
    """|O(k)|^2 at radial momentum k_abs >= 0."""
    if k_abs < 0:
        raise DomainError("radial momentum must be nonnegative")
    if profile.kind is ProfileKind.BOX_SHELL:
        return profile.Z if profile.k1 <= k_abs <= profile.k2 else 0.0
    if k_abs == 0.0:
        return 0.0
    lam2, y0 = profile.lambda2, profile.y0
    arg = -lam2 / (y0 * k_abs) - y0 * k_abs
    return profile.norm_const * math.exp(arg) if arg > -745.0 else 0.0


def cutoff(profile: VacuumProfile, k_abs: float) -> float:
    """chi(k) = density/Z, in [0, 1] with the maximum value 1 attained."""
    return density(profile, k_abs) / profile.Z


def density_integral(profile: VacuumProfile, inverse_power: int = 0) -> float:
    """int dk density(|k|) / |k|^n against the invariant measure, by radial
    quadrature; n = inverse_power."""
    n = inverse_power
    if profile.kind is ProfileKind.BOX_SHELL:
        def g(kappa):
            return kappa ** (1 - n) * profile.Z
        val, err = quad(g, profile.k1, profile.k2, limit=200,
                        epsabs=1e-13, epsrel=1e-12)
    else:
        y0, lam2, C = profile.y0, profile.lambda2, profile.norm_const

        # substitute u = y0 kappa to tame the essential singularity at 0
        def g(u):
            if u <= 0.0:
                return 0.0
            arg = -lam2 / u - u
            return C * u ** (1 - n) * math.exp(arg) if arg > -745.0 else 0.0

        val, err = quad(g, 0.0, np.inf, limit=300, epsabs=1e-13, epsrel=1e-12)
        val *= y0 ** (n - 2)
    if not np.isfinite(val):
        raise NonConvergence("density integral quadrature failed")
    return val / FOUR_PI_SQ


def _infrared_scale(profile: VacuumProfile) -> float:
    """Radial scale below which the density must already be dying out."""
    if profile.kind is ProfileKind.BOX_SHELL:
        return profile.k1 / 2.0 if profile.k1 > 0 else 1e-2
    # the essential singularity takes over once lambda^2/(y0 kappa) >> 1
    return min(1e-2, profile.lambda2 / (50.0 * profile.y0))


def infrared_condition_check(profile: VacuumProfile, n: int) -> bool:
    """Infrared admissibility at order n (1 <= n <= 4): density(kappa)/kappa^n
    must tend to 0 at the origin and int dk density/|k|^n must converge."""
    if not 1 <= n <= 4:
        raise DomainError("infrared order n must be in 1..4")
    k_star = _infrared_scale(profile)
    grid = k_star * 4.0 ** -np.arange(9)
    vals = np.array([density(profile, k) / k ** n for k in grid])
    if vals[-1] > vals[0] or vals[-1] > 1e-9 * (profile.Z + vals[0]):
        return False

    # tail-tested convergence of the radial integral kappa^{1-n} density
    hi = max(1.0, 10.0 * k_star)
    if profile.kind is ProfileKind.BOX_SHELL:
        hi = max(hi, 2.0 * profile.k2)
        jumps = [profile.k1, profile.k2]
    else:
        jumps = [math.sqrt(profile.lambda2) / profile.y0]

    def radial(eps):
        import warnings

        from scipy.integrate import IntegrationWarning

        pts = [p for p in jumps if eps < p < hi]
        with warnings.catch_warnings():
            # probing a possibly divergent integrand: quadpack's complaint is
            # the expected signal, the epsilon sweep does the diagnosis
            warnings.simplefilter("ignore", IntegrationWarning)
            v, _ = quad(lambda k: k ** (1 - n) * density(profile, k),
                        eps, hi, limit=200, points=pts or None)
        return v

    seq = [radial(eps) for eps in (k_star * 1e-1, k_star * 1e-3, k_star * 1e-5)]
    if abs(seq[-1] - seq[-2]) > 1e-8 * (1.0 + abs(seq[-1])) \
            and abs(seq[-1] - seq[-2]) > 0.5 * abs(seq[-2] - seq[-3]):
        return False
    return True


def physical_charge(q: float, profile: VacuumProfile) -> float:
    """Renormalized charge q_ph = q sqrt(Z)."""
    return q * math.sqrt(profile.Z)
