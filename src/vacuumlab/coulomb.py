"""Static potentials of a pointlike charge in a structured vacuum.

The vacuum-averaged potential of a point charge q is the cutoff-smeared
Coulomb form

    V(r) = -q^2 int d^3k/((2 pi)^3 |k|^2)  density(|k|) cos(k.x)
         = -(q^2/(2 pi^2 r)) int dkappa density(kappa) sin(kappa r)/kappa,

with density the vacuum profile.  For the box shell this closes to a sine
integral difference; for the exponentially cut profile it closes to an
imaginary part of K0 at a complex argument.  Where the infrared cutoff
bites, the potential changes sign at finite radius; that radius and the
experimental Yukawa-window inequality are exposed here.

All lengths are dimensionless (Planck units); unit conversions live in the
CLI layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import BranchError, DomainError, NoSignChange, NonConvergence
from .numerics import DEFAULT_SPEC, QuadratureSpec
from .specfun import bessel_k0_complex, sine_integral
from .vacuum import ProfileKind, VacuumProfile, density, physical_charge

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class PotentialCurve:
    """Sampled potential: strictly increasing radii with matching values."""

    r_values: tuple
    v_values: tuple
    profile_tag: str

    def __post_init__(self):
        r = np.asarray(self.r_values, dtype=float)
        if len(r) != len(self.v_values):
            raise DomainError("r and V arrays must have matching length")
        if np.any(np.diff(r) <= 0):
            raise DomainError("radii must be strictly increasing")


def potential_box(q_ph: float, k1: float, k2: float, r):
    """Box-shell potential -(q_ph^2/(4 pi r)) (Si(k2 r) - Si(k1 r))/(pi/2)
    at a radius or an array of radii (a float for a scalar r).

    Finite at the origin: the r -> 0 limit is -q_ph^2 (k2 - k1)/(2 pi^2).
    """
    if k1 <= 0 or k2 <= k1:
        raise DomainError("box potential requires 0 < k1 < k2")
    r = np.asarray(r, dtype=float)
    if (r < 0).any():
        raise DomainError("radius must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore"):
        si = sine_integral(k2 * r) - sine_integral(k1 * r)
        v = -q_ph ** 2 / (4.0 * math.pi * r) * si / HALF_PI
    v = np.where(r == 0.0, -q_ph ** 2 * (k2 - k1) / (2.0 * math.pi ** 2), v)
    return float(v) if v.ndim == 0 else v


def potential_lorentz(q_ph: float, lambda2: float, y0: float, r,
                      conj_tol: float = 1e-12):
    """Potential of the exponentially cut vacuum via the complex K0 kernel,

        V(r) = (q_ph^2/(pi^2 r)) e^{2 lambda} Im K0(2 lambda sqrt(1 + i r/y0)),

    at a radius or an array of radii (a float for a scalar r), using the
    principal branch of the square root.  The kernel is the scaled one,
    e^{2 lambda} K0(w) = e^w K0(w) e^{2 lambda - w}, with Re w >= 2 lambda,
    so V stays representable where K0(w) or e^{2 lambda} alone would not.
    The two conjugate kernel arguments must combine to a purely imaginary
    difference; a violation beyond conj_tol raises BranchError.
    """
    r = np.asarray(r, dtype=float)
    if lambda2 <= 0 or y0 <= 0 or (r <= 0).any():
        raise DomainError("potential_lorentz requires positive parameters")
    lam = math.sqrt(lambda2)
    w = 2.0 * lam * np.sqrt(1.0 + 1j * (r / y0))
    # one kernel call for the pair (w, conj w)
    k_plus, k_minus = bessel_k0_complex(np.array([w, w.conj()]))
    diff = k_minus - k_plus           # should be -2i Im(e^w K0(w))
    lost = np.abs(diff.real) > conj_tol * np.maximum(1.0, np.abs(diff))
    if lost.any():
        raise BranchError("conjugate kernel pair lost symmetry: Re diff = "
                          f"{np.max(np.abs(diff.real))}")
    # Im(k_plus e^{2 lambda - w}) in real arithmetic: numpy's complex
    # product rounds differently for scalars and arrays, this form does not
    e = np.exp(2.0 * lam - w)
    v = q_ph ** 2 / (math.pi ** 2 * r) \
        * (k_plus.real * e.imag + k_plus.imag * e.real)
    return float(v) if v.ndim == 0 else v


def potential(profile: VacuumProfile, q_ph: float, r):
    """Closed-form potential of the profile at a radius or an array of radii
    (q_ph the physical charge): the box or the exponential kernel."""
    if profile.kind is ProfileKind.BOX_SHELL:
        return potential_box(q_ph, profile.k1, profile.k2, r)
    return potential_lorentz(q_ph, profile.lambda2, profile.y0, r)


def potential_profile_quad(q: float, profile: VacuumProfile, r: float,
                           spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Direct radial quadrature of the averaged potential for any profile;
    independent cross-check of the closed forms (q is the bare charge)."""
    if r <= 0:
        raise DomainError("radius must be positive")
    return -q ** 2 / (2.0 * math.pi ** 2 * r) * _sine_transform(profile, r, spec)


def compensating_field_closed(q: float, r: float, dt: float) -> float:
    """Transient field of the unit (uncut) vacuum:
    q/(4 pi r) * step(r - |dt|) with step(0) = 1/2."""
    if r <= 0:
        raise DomainError("radius must be positive")
    u = r - abs(dt)
    theta = 0.5 if u == 0.0 else (1.0 if u > 0 else 0.0)
    return q / (4.0 * math.pi * r) * theta


def compensating_field_avg(profile: VacuumProfile, q: float, r: float,
                           dt: float,
                           spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Vacuum-averaged transient field

        (q/(2 pi^2 r)) int dkappa density(kappa) cos(kappa dt)
                                  sin(kappa r)/kappa,

    which cancels the averaged static potential at dt = 0 and decays to 0 as
    |dt| -> inf (Riemann-Lebesgue).
    """
    if r <= 0:
        raise DomainError("radius must be positive")
    # cos(k dt) sin(k r) = [sin(k (r+dt)) + sin(k (r-dt))]/2
    total = 0.0
    for w in (r + dt, r - dt):
        total += 0.5 * _sine_transform(profile, w, spec)
    return q / (2.0 * math.pi ** 2 * r) * total


def _sine_transform(profile: VacuumProfile, w: float,
                    spec: QuadratureSpec) -> float:
    """int dkappa density(kappa) sin(w kappa)/kappa."""
    if w == 0.0:
        return 0.0
    sign = math.copysign(1.0, w)
    w = abs(w)

    def smooth(kappa):
        if kappa <= 0.0:
            return 0.0
        return density(profile, kappa) / kappa

    if profile.kind is ProfileKind.BOX_SHELL:
        lo, hi = profile.k1, profile.k2
    else:
        lo, hi = 0.0, 50.0 / profile.y0
    val, _ = quad(smooth, lo, hi, weight="sin", wvar=w,
                  limit=spec.max_subdivisions, epsabs=spec.abs_tol,
                  epsrel=spec.rel_tol)
    if not np.isfinite(val):
        raise NonConvergence("sine transform quadrature failed")
    return sign * val


def sign_change_radius(potential: Callable[[float], float],
                       bracket: tuple[float, float],
                       rel_tol: float = 1e-10) -> float:
    """Root of a sign-changing potential on the given bracket (Brent's
    method), to rel_tol relative to the root."""
    lo, hi = bracket
    if not 0 < lo < hi:
        raise DomainError("bracket must satisfy 0 < lo < hi")
    f_lo, f_hi = potential(lo), potential(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise NoSignChange(f"potential has the same sign at {lo} and {hi}")
    # brentq stops once the bracket is narrower than xtol + rtol * |root|;
    # the root lies above lo > 0, so the absolute part is left negligible.
    # Brent's method falls back to bisection, which needs at most
    # log2(hi/(rel_tol lo)) halvings; cap its iterations at a few times that
    bisections = math.ceil(math.log2(hi) - math.log2(lo) - math.log2(rel_tol))
    root, info = brentq(potential, lo, hi, xtol=1e-300, rtol=rel_tol,
                        maxiter=4 * bisections, full_output=True, disp=False)
    if not info.converged:
        raise NonConvergence(f"root search on {bracket}: {info.flag}")
    return root


def expand_bracket(potential: Callable[[np.ndarray], np.ndarray],
                   r_start: float, factor: float = 1.5,
                   max_steps: int = 200) -> tuple[float, float]:
    """Geometric search from r_start for a bracket with a sign flip: the
    first neighbouring pair on the ladder r_start, r_start*factor, ...
    (max_steps + 1 radii, each the previous one times factor, overflowing
    to inf) whose potentials differ in sign bit.

    The potential is called once, on the whole ladder, so it must take an
    array of radii and return an array of values.
    """
    with np.errstate(over="ignore"):
        ladder = np.multiply.accumulate(
            np.r_[float(r_start), np.full(max_steps, float(factor))])
    negative = np.signbit(potential(ladder))
    flips = np.flatnonzero(negative[1:] != negative[:-1])
    if flips.size == 0:
        raise NoSignChange(
            f"no sign flip within {max_steps} geometric steps from {r_start}")
    i = flips[0]
    return (float(ladder[i]), float(ladder[i + 1]))


def yukawa_bound_check(k1: float, lambda_min_ratio: float,
                       r_grid: Sequence[float]) -> bool:
    """Experimental Coulomb-window inequality:

        0 <= pi (1 - exp(-r/lambda_min_ratio)) - Si(k1 r)

    at every grid radius (all quantities dimensionless, lambda_min_ratio the
    screening length in Planck lengths)."""
    if k1 < 0 or lambda_min_ratio <= 0:
        raise DomainError("k1 must be >= 0 and lambda_min_ratio > 0")
    r = np.asarray(list(r_grid), dtype=float)
    if np.any(r <= 0):
        raise DomainError("radii must be positive")
    lhs = math.pi * (1.0 - np.exp(-r / lambda_min_ratio)) \
        - sine_integral(k1 * r)
    return bool(np.all(lhs >= -1e-12))


def potential_curve(profile: VacuumProfile, q: float,
                    r_values: Sequence[float]) -> PotentialCurve:
    """Closed-form potential sampled on a radius grid (bare charge q);
    the profile's q_ph enters through q^2 Z internally."""
    r = np.asarray(r_values, dtype=float)
    v = potential(profile, physical_charge(q, profile), r)
    return PotentialCurve(tuple(r.tolist()), tuple(v.tolist()), profile.tag)
