"""Static potentials of a pointlike charge in a structured vacuum.

The vacuum-averaged potential of a point charge q is the cutoff-smeared
Coulomb form

    V(r) = -q^2 int d^3k/((2 pi)^3 |k|^2)  density(|k|) cos(k.x)
         = -(q^2/(2 pi^2 r)) int dkappa density(kappa) sin(kappa r)/kappa,

with density the vacuum profile.  For the box shell this closes to a sine
integral difference; for the exponentially cut profile it closes to an
imaginary part of K0 at a complex argument, so nothing here is computed by
quadrature.  Where the infrared cutoff bites, the potential changes sign at
finite radius; that radius and the experimental Yukawa-window inequality
are exposed here.  The radius is found by a copy of scipy's brentq loop
(scipy/optimize/Zeros/brentq.c) that returns brentq's bits: importing
scipy.optimize, with the scipy.linalg and scipy.sparse it loads, cost more
than every root search of a run, so the package imports only scipy.special
from scipy here.

All lengths are dimensionless (Planck units); unit conversions live in the
CLI layer.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

import numpy as np
from scipy.special import kve

from .errors import DomainError, NoSignChange, NonConvergence
from .specfun import sine_integral
from .vacuum import ProfileKind, VacuumProfile

HALF_PI = math.pi / 2.0
# sign_change_radius's tolerance, relative to the root
_ROOT_REL_TOL = 1e-10
# expand_bracket's ladder: _LADDER_STEPS + 1 radii, each the previous one
# times _LADDER_FACTOR
_LADDER_FACTOR = 1.5
_LADDER_STEPS = 200
# expand_bracket's first slice, 32 steps of the ladder: from rmin = 0.1/k2
# the box potential flips near 1.93/k1, at most 25 steps up for
# k2/k1 <= 1e3; from rmin = 0.1 y0 the exponential one flips 10 to 80 steps
# up, within 32 for about a third of perfbench's coulomb requests
_HEAD_RUNGS = 33
# |w| past which scipy's kve returns NaN: Amos's argument limit is
# 2^30 - 1/2, and the margin of 1/2 covers the rounding of |w|
_KVE_ARG_LIMIT = 2.0 ** 30 - 1.0


def _box(q_ph: float, k1: float, k2: float, r):
    """The box potential's arithmetic at r > 0, a float or an array."""
    si = sine_integral(k2 * r) - sine_integral(k1 * r)
    return -q_ph ** 2 / (4.0 * math.pi * r) * si / HALF_PI


def potential_box(q_ph: float, k1: float, k2: float, r):
    """Box-shell potential -(q_ph^2/(4 pi r)) (Si(k2 r) - Si(k1 r))/(pi/2)
    at a radius or an array of radii (a float for a scalar r).

    Finite at the origin: the r -> 0 limit is -q_ph^2 (k2 - k1)/(2 pi^2),
    returned wherever k2 r < 1e-8: there Si(x) = x - x^3/18 + ... puts the
    limit within (k2 r)^2/6 < 2e-17 relative, while 1/r may overflow.
    A float r (a root search's argument) skips the array wrapping; the
    arithmetic is the array path's, so it returns that path's bits.
    """
    if k1 <= 0 or k2 <= k1:
        raise DomainError("box potential requires 0 < k1 < k2")
    origin = -q_ph ** 2 * (k2 - k1) / (2.0 * math.pi ** 2)
    if isinstance(r, float):
        if r < 0:
            raise DomainError("radius must be nonnegative")
        return origin if k2 * r < 1e-8 else float(_box(q_ph, k1, k2, r))
    r = np.asarray(r, dtype=float)
    if (r < 0).any():
        raise DomainError("radius must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = np.where(k2 * r < 1e-8, origin, _box(q_ph, k1, k2, r))
    return float(v) if v.ndim == 0 else v


def _lorentz_im(lambda2: float, y0: float, r):
    """e^{2 lambda} Im K0(2 lambda sqrt(1 + i r/y0)) at r > 0, a float or
    an array."""
    lam = math.sqrt(lambda2)
    w = 2.0 * lam * np.sqrt(1.0 + 1j * (r / y0))
    k = kve(0, w)
    # Im(k e^{2 lambda - w}) in real arithmetic: numpy's complex
    # product rounds differently for scalars and arrays, this form does not
    e = np.exp(2.0 * lam - w)
    return k.real * e.imag + k.imag * e.real


def _charge_product(q_ph: float, im, r):
    """V = (q_ph^2/(pi^2 r)) im, with im/r formed first: q_ph^2/(pi^2 r)
    alone overflows at small r where V does not."""
    a = q_ph / math.pi
    return a * (a * (im / r))


def potential_lorentz(q_ph: float, lambda2: float, y0: float, r):
    """Potential of the exponentially cut vacuum via the complex K0 kernel,

        V(r) = (q_ph^2/(pi^2 r)) e^{2 lambda} Im K0(2 lambda sqrt(1 + i r/y0)),

    at a radius or an array of radii (a float for a scalar r), using the
    principal branch of the square root.  The kernel is the scaled one,
    e^{2 lambda} K0(w) = e^w K0(w) e^{2 lambda - w}, with e^w K0(w) from
    scipy's kve (Amos's algorithm, ACM TOMS 644); Re w >= 2 lambda > 0
    keeps w off K0's branch cut, and V stays representable where K0(w) or
    e^{2 lambda} alone would not.  A float r (a root search's argument)
    skips the array wrapping; the arithmetic is the array path's, with
    numpy's sqrt and exp on the scalar, so it returns that path's bits.

    Past |w| = 2^30 - 1 (_KVE_ARG_LIMIT), where kve returns NaN,
    Re w - 2 lambda >= |w|/sqrt(2) - 2 lambda ~ 7.6e8 for every accepted
    lambda, so V has underflowed: it is +0.0, without kve, from
    r = y0 (_KVE_ARG_LIMIT/(2 lambda))^2 on (|w| >= 2 lambda sqrt(r/y0)).
    DomainError at a radius before it where r/y0 overflows
    (lambda^2 < ~1.6e-291), at one where r/y0 is below the normal range
    (the kernel's imaginary part, all of V, has lost its digits there),
    and where V itself leaves the double range.
    """
    if isinstance(r, float):
        if lambda2 <= 0 or y0 <= 0 or r <= 0:
            raise DomainError("potential_lorentz requires positive parameters")
        if r > _kve_reach(lambda2, y0):
            return 0.0
        _check_ratio(r, r, y0)
        # Python floats: an overflow gives inf, checked below, not a warning
        v = _charge_product(q_ph, float(_lorentz_im(lambda2, y0, r)),
                            float(r))
        if not math.isfinite(v):
            raise DomainError(f"potential_lorentz: V leaves the double "
                              f"range at r = {r:g}")
        return v
    r = np.asarray(r, dtype=float)
    least = float(r.min(initial=math.inf))
    if lambda2 <= 0 or y0 <= 0 or not least > 0:
        raise DomainError("potential_lorentz requires positive parameters")
    v = np.zeros_like(r)
    near = r <= _kve_reach(lambda2, y0)
    _check_ratio(least, float(r.max(initial=0.0, where=near)), y0)
    r = r[near]
    im = _lorentz_im(lambda2, y0, r)
    # the floating-point flags catch an overflow without a pass over V
    try:
        with np.errstate(over="raise", invalid="raise"):
            v[near] = _charge_product(q_ph, im, r)
    except FloatingPointError:
        raise DomainError("potential_lorentz: V leaves the double range "
                          "in the array of radii") from None
    return float(v) if v.ndim == 0 else v


def _check_ratio(least: float, most: float, y0: float) -> None:
    """DomainError unless r/y0 is a normal double from the least radius
    computed to the most."""
    if most / y0 == math.inf:
        raise DomainError(f"potential_lorentz: r/y0 overflows at r = "
                          f"{most:g}")
    if least / y0 < sys.float_info.min:
        raise DomainError(f"potential_lorentz: r/y0 is below the normal "
                          f"range at r = {least:g}")


def _kve_reach(lambda2: float, y0: float) -> float:
    """The radius past which |w| > _KVE_ARG_LIMIT, or inf."""
    s = _KVE_ARG_LIMIT / (2.0 * math.sqrt(lambda2))
    return y0 * s * s


def potential(profile: VacuumProfile, q_ph: float, r):
    """Closed-form potential of the profile at a radius or an array of radii
    (q_ph the physical charge): the box or the exponential kernel."""
    if profile.kind is ProfileKind.BOX_SHELL:
        return potential_box(q_ph, profile.k1, profile.k2, r)
    return potential_lorentz(q_ph, profile.lambda2, profile.y0, r)


def sign_change_radius(potential: Callable[[float], float],
                       bracket: tuple[float, float]) -> float:
    """Root of a sign-changing potential on the given bracket (Brent's
    method), to 1e-10 (_ROOT_REL_TOL) relative to the root.

    The search is _brent, a copy of the loop of scipy's brentq
    (scipy/optimize/Zeros/brentq.c) that returns brentq's bits.  The
    potential is called at the radii brentq would call it at, once each:
    _brent is handed the values at the bracket's ends instead of computing
    them again.  It is a copy because importing scipy.optimize, which loads
    scipy.linalg and scipy.sparse, costs more than every root search of a
    run.  A NaN potential raises NonConvergence naming its radius.
    """
    lo, hi = bracket
    if not 0 < lo < hi < math.inf:
        raise DomainError("bracket must satisfy 0 < lo < hi < inf")
    lo, hi = float(lo), float(hi)
    f_lo, f_hi = _value(potential, lo), _value(potential, hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise NoSignChange(f"potential has the same sign at {lo} and {hi}")
    # the search stops once the bracket is narrower than
    # xtol + rtol * |root| (_brent's delta); the root lies above lo > 0, so
    # the absolute part is left negligible.  Brent's method falls back to
    # bisection, which needs at most log2(hi/(_ROOT_REL_TOL lo)) halvings;
    # cap its iterations at a few times that
    bisections = math.ceil(math.log2(hi) - math.log2(lo)
                           - math.log2(_ROOT_REL_TOL))
    return _brent(potential, lo, hi, f_lo, f_hi, 4 * bisections)


def _value(potential: Callable[[float], float], r: float) -> float:
    """The potential at r as a float; NonConvergence where it is NaN."""
    v = float(potential(r))
    if v != v:
        raise NonConvergence(f"potential is NaN at r = {r!r}")
    return v


def _brent(f: Callable[[float], float], xpre: float, xcur: float,
           fpre: float, fcur: float, iterations: int) -> float:
    """brentq.c's loop on the bracket (xpre, xcur) with f's values fpre and
    fcur there, nonzero and of opposite signs, operation for operation,
    with xtol = 1e-300 and rtol = _ROOT_REL_TOL.
    A C division by zero gives an infinite or NaN step, which fails the
    step test; here ZeroDivisionError gives an infinite one.  C's
    MIN(a, b) is `a if a < b else b`.  NonConvergence after `iterations`
    calls of f."""
    xblk = fblk = spre = scur = 0.0
    for _ in range(iterations):
        # C's signbit(fpre) != signbit(fcur): no value here is NaN, and a
        # nonzero one is negative exactly where its sign bit is set
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (1e-300 + _ROOT_REL_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf
            a, b = abs(spre), 3 * abs(sbis) - delta
            if 2 * abs(stry) < (a if a < b else b):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += (delta if sbis > 0 else -delta)

        fcur = _value(f, xcur)
    raise NonConvergence(
        f"root search did not converge in {iterations} iterations")


def expand_bracket(potential: Callable[[np.ndarray], np.ndarray],
                   r_start: float) -> tuple[float, float]:
    """Geometric search from r_start for a bracket with a sign flip on the
    ladder r_start, 1.5 r_start, ... (201 radii, each the previous one times
    1.5, overflowing to inf).  A rung where the potential is +0.0 or -0.0
    carries no sign: the bracket is the first pair of nonzero rungs with no
    nonzero rung between them whose values differ in sign bit, and it spans
    the zero rungs between them.

    The potential is called on the ladder's first _HEAD_RUNGS radii and,
    only if they hold no flip, once more on the rest, so it must take an
    array of radii and return an array of values.
    """
    ladder = np.full(_LADDER_STEPS + 1, _LADDER_FACTOR)
    ladder[0] = r_start
    with np.errstate(over="ignore"):
        np.multiply.accumulate(ladder, out=ladder)
    values = potential(ladder[:_HEAD_RUNGS])
    rungs, flips = _flips(values)
    if flips.size == 0:
        values = np.concatenate((values, potential(ladder[_HEAD_RUNGS:])))
        rungs, flips = _flips(values)
    if flips.size == 0:
        raise NoSignChange(
            f"no sign flip within {_LADDER_STEPS} geometric steps from "
            f"{r_start}")
    i = flips[0]
    return (float(ladder[rungs[i]]), float(ladder[rungs[i + 1]]))


def _flips(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the nonzero values (NaN among them), and the positions
    i in that list where the sign bit changes from entry i to entry i + 1."""
    rungs = np.flatnonzero(values)
    negative = np.signbit(values[rungs])
    return rungs, np.flatnonzero(negative[1:] != negative[:-1])


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

