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

from scipy.special import kve

from .errors import DomainError
from .specfun import gamma_from_zero

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
    # Gamma(2, 0, lambda^2) = 2 lambda^2 K2(2 lambda); stable for tiny lambda,
    # but it underflows to 0 once lambda^2 exceeds about 1.26e5
    gamma2 = gamma_from_zero(2.0, lambda2)
    norm_const = FOUR_PI_SQ * y0 ** 2 / gamma2 if gamma2 > 0.0 else math.inf
    if not math.isfinite(norm_const):
        raise DomainError(f"lambda2 = {lambda2:g}, y0 = {y0:g} puts the "
                          "lorentz profile normalization out of double range")
    # Z = norm_const e^(-2 lambda) = 4 pi^2 y0^2/(2 lambda^2 kve(2, 2 lambda))
    # formed without an exponential; with x = 2 lambda and K2 = K0 + 2 K1/x,
    # x^2 kve(2, x)/2 = x kve(1, x) + x^2 kve(0, x)/2, a sum of positive
    # terms that does not overflow at subnormal lambda^2 as kve(2, x) does
    x = 2.0 * lam
    Z = FOUR_PI_SQ * y0 ** 2 / (x * kve(1, x) + 0.5 * x * x * kve(0, x))
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
    """int dk density(|k|) / |k|^n against the invariant measure, in closed
    form, for n = inverse_power in 0..4 and an infrared-admissible profile.

    Box: Z (k2^(2-n) - k1^(2-n)) / ((2-n) 4 pi^2), Z ln(k2/k1) / 4 pi^2 at
    n = 2.  Exponential: |C|^2 y0^(n-2) Gamma(2-n, 0, lambda^2) / 4 pi^2,
    as |C|^2 Gamma(2, 0, lambda^2)/(4 pi^2 y0^2) (1 for a normalized profile)
    times y0^n lambda^-n K_{2-n}/K_2 at 2 lambda, a ratio that needs only
    t = K0/K1 from kve since K2 = K0 + K1/lambda; no e^(-2 lambda) is formed.
    Within 1e-15 relative for lambda^2 <= 1.2e5; DomainError where the
    moment is out of double range.
    """
    n = inverse_power
    if not 0 <= n <= 4:
        raise DomainError("density_integral requires 0 <= inverse_power <= 4")
    if not infrared_condition_check(profile, 1):
        raise DomainError(f"{profile.tag} is not infrared admissible")
    if profile.kind is ProfileKind.BOX_SHELL:
        k1, k2 = profile.k1, profile.k2
        shell = math.log(k2 / k1) if n == 2 \
            else (k2 ** (2 - n) - k1 ** (2 - n)) / (2 - n)
        val = profile.Z * shell / FOUR_PI_SQ
    else:
        b, y0 = profile.lambda2, profile.y0
        lam = math.sqrt(b)
        t = kve(0, 2.0 * lam) / kve(1, 2.0 * lam)
        d = 1.0 + lam * t                   # lambda K2/K1
        ratio = (1.0, y0 / d, y0 * y0 * t / (lam * d), y0 ** 3 / b / d,
                 y0 ** 4 / b / b)[n]
        val = profile.norm_const * gamma_from_zero(2.0, b) / FOUR_PI_SQ \
            / (y0 * y0) * ratio
    if not 0.0 < val < math.inf:
        raise DomainError(f"moment {n} of {profile.tag} is out of range")
    return val


def infrared_condition_check(profile: VacuumProfile, n: int) -> bool:
    """Infrared admissibility at order n (1 <= n <= 4): density(kappa)/kappa^n
    must tend to 0 at the origin and int dk density/|k|^n must converge.
    Exactly, at every order: a box iff k1 > 0, an exponential profile iff
    lambda^2 > 0 (e^(-lambda^2/(y0 kappa)) beats every power of kappa)."""
    if not 1 <= n <= 4:
        raise DomainError("infrared order n must be in 1..4")
    if profile.kind is ProfileKind.BOX_SHELL:
        return profile.k1 > 0.0
    return profile.lambda2 > 0.0


def physical_charge(q: float, profile: VacuumProfile) -> float:
    """Renormalized charge q_ph = q sqrt(Z)."""
    return q * math.sqrt(profile.Z)
