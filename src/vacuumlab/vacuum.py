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

Z is the peak density and q_ph = q sqrt(Z) the renormalized charge.  The
constructors choose Z and norm_const so that the normalization is 1
(validate checks it by quadrature).  density_integral gives, in closed form,
the one moment the package uses, int dk density/|k| behind the self-energy,
for an infrared-admissible profile (k1 > 0, lambda^2 > 0).  The exponential
profile's numbers are all Gamma(n, 0, lambda^2) from specfun's one kernel:
norm_const through gamma_from_zero, Z and the moment through its scaled
form gamma_from_zero_scaled, which carries no e^(-2 lambda).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .numerics import sqrt_with_residual
from .specfun import gamma_from_zero, gamma_from_zero_scaled

FOUR_PI_SQ = 4.0 * math.pi ** 2
_SCALE_RANGE = (1e-150, 1e150)          # k2 and y0: squares normal doubles


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
    """Shell profile: density Z = 8 pi^2/(k2^2 - k1^2) on k1 <= |k| <= k2.
    DomainError unless 0 < k1 < k2 and 1e-150 <= k2 <= 1e150 (_SCALE_RANGE)
    and Z is finite (not where k2^2 - k1^2 < 4.4e-307: k2/k1 - 1 < 2.2e-7
    at k1 = 1e-150); a k1^2 that underflows is negligible against k2^2."""
    least, most = _SCALE_RANGE
    if not (0 < k1 < k2 and least <= k2 <= most):
        raise DomainError(f"box profile requires 0 < k1 < k2 and {least:g} "
                          f"<= k2 <= {most:g}; got k1 = {k1:g}, k2 = {k2:g}")
    Z = 8.0 * math.pi ** 2 / (k2 ** 2 - k1 ** 2)
    if Z == math.inf:
        raise DomainError("box profile density Z is out of double range")
    return VacuumProfile(ProfileKind.BOX_SHELL, k1=k1, k2=k2, Z=Z,
                         norm_const=Z)


def make_lorentz_profile(lambda2: float, y0: float) -> VacuumProfile:
    """Boost-invariant exponential profile with parameters lambda^2, y0.

    norm_const = 2 pi^2 y0^2 / (lambda^2 K2(2 lambda)) makes the invariant
    normalization exactly 1; the density peaks at kappa = lambda/y0 with
    peak value Z = norm_const * exp(-2 lambda).  DomainError unless
    lambda2 > 0 and 1e-150 <= y0 <= 1e150 (_SCALE_RANGE), and where
    norm_const leaves the double range (past lambda^2 ~ 1.26e5 at y0 = 1).
    """
    least, most = _SCALE_RANGE
    if not (lambda2 > 0 and least <= y0 <= most):
        raise DomainError(f"lorentz profile requires lambda2 > 0 and "
                          f"{least:g} <= y0 <= {most:g}; got lambda2 = "
                          f"{lambda2:g}, y0 = {y0:g}")
    gamma2 = gamma_from_zero(2, lambda2)
    norm_const = FOUR_PI_SQ * y0 ** 2 / gamma2 \
        if gamma2 >= sys.float_info.min else math.inf
    if not math.isfinite(norm_const):
        raise DomainError(f"lambda2 = {lambda2:g}, y0 = {y0:g} puts the "
                          "lorentz profile normalization out of double range")
    # Z = norm_const e^(-2 lambda), without an exponential
    Z = FOUR_PI_SQ * y0 ** 2 / gamma_from_zero_scaled(2, lambda2)
    return VacuumProfile(ProfileKind.LORENTZ_EXP, lambda2=lambda2, y0=y0,
                         Z=Z, norm_const=norm_const)


def density(profile: VacuumProfile, k_abs):
    """|O(k)|^2 at radial momenta k_abs >= 0.

    An array k_abs gives an array; a float goes through the same numpy
    operations as a 0-d array and gives a float, so it has the bits of the
    same point of an array.
    """
    k = np.asarray(k_abs, dtype=float)
    if np.any(k < 0):
        raise DomainError("radial momentum must be nonnegative")
    if profile.kind is ProfileKind.BOX_SHELL:
        out = np.where((profile.k1 <= k) & (k <= profile.k2), profile.Z, 0.0)
    else:
        # norm_const e^(-lambda^2/(y0 k) - y0 k)
        #   = Z e^(-(lambda - y0 k)^2/(y0 k)):
        # the exponent with 2 lambda folded in, so that its rounding scales
        # with the exponent itself and the density does not underflow before
        # its value does; 0 where y0 k is 0
        lam, residual = sqrt_with_residual(profile.lambda2)
        yk = profile.y0 * k
        safe = np.where(yk > 0.0, yk, 1.0)
        g = (lam - safe) + residual
        out = np.where(yk > 0.0, profile.Z * np.exp(-g * g / safe), 0.0)
    return float(out) if out.ndim == 0 else out


def density_integral(profile: VacuumProfile) -> float:
    """The self-energy moment int dk density(|k|)/|k| against the invariant
    measure, in closed form, for an infrared-admissible profile.

    Box: Z (k2 - k1) / 4 pi^2.  Exponential: |C|^2 Gamma(1, 0, lambda^2) /
    (4 pi^2 y0) = y0 Gamma(1, 0, lambda^2)/Gamma(2, 0, lambda^2), formed
    from gamma_from_zero_scaled, whose factors e^(2 lambda) cancel.  Within
    1e-15 relative for lambda^2 <= 1.2e5; DomainError where the moment is
    out of double range.
    """
    if not infrared_condition_check(profile):
        raise DomainError(f"{profile.tag} is not infrared admissible")
    if profile.kind is ProfileKind.BOX_SHELL:
        val = profile.Z * (profile.k2 - profile.k1) / FOUR_PI_SQ
    else:
        val = profile.y0 * gamma_from_zero_scaled(1, profile.lambda2) \
            / gamma_from_zero_scaled(2, profile.lambda2)
    if not 0.0 < val < math.inf:
        raise DomainError(f"moment 1 of {profile.tag} is out of range")
    return val


def infrared_condition_check(profile: VacuumProfile) -> bool:
    """Infrared admissibility: density(kappa)/kappa tends to 0 at the origin
    and int dk density/|k| converges.  Exactly: a box iff k1 > 0, an
    exponential profile iff lambda^2 > 0; the same then holds for every
    power kappa^-n (e^(-lambda^2/(y0 kappa)) beats every power of kappa)."""
    if profile.kind is ProfileKind.BOX_SHELL:
        return profile.k1 > 0.0
    return profile.lambda2 > 0.0


def physical_charge(q: float, profile: VacuumProfile) -> float:
    """Renormalized charge q_ph = q sqrt(Z); DomainError where q^2 + q_ph^2
    overflows (q^2 and q_ph^2 are factors of every potential and shift)."""
    q_ph = q * math.sqrt(profile.Z)
    if not math.isfinite(q * q + q_ph * q_ph):
        raise DomainError(f"q^2 or q_ph^2 is out of double range at q = {q:g}")
    return q_ph
