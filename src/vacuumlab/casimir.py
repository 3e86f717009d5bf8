"""Casimir pressure of a scalar field between two delta barriers.

1+1 routes (barrier strength alpha, separation L, reflection coefficient
r(k) = 1/(1 - 2ik/alpha)^2):

* series: p = (1/2pi) sum_n int_0^inf k r^n e^{2nikL} dk + c.c.; each term
  is rotated onto the imaginary axis where it is a smooth positive-decay
  integral, and the 1/n^2 tail is closed with Euler-Maclaurin corrections;
  all terms are one matrix product on a shared Gauss-Legendre grid, within
  about 1e-15 relative of an mpmath reference for alpha in [1e-3, 1e6] and
  L in [0.05, 20];
* quadrature: p = (1/2pi) int_0^inf k [(1-|r|^2)/|1 - r e^{2ikL}|^2 - 1] dk,
  integrated on the real axis over Gauss-Legendre panels graded into k = 0
  and the first 24 quasi-resonant peaks, at their true positions
  kL + atan(2k/alpha) = m pi, and past them along a vertical contour (the
  integrand's analytic continuation decays there and all its poles lie
  below the real axis); for 1e-70 <= alpha L <= 1e76, within 1.1e-12
  relative of an mpmath reference, in 1-10 ms per call up to alpha L = 1e8
  and under 0.1 s at the top of that range;
* Dirichlet comb: the cutoff-regularized mode-sum-minus-integral closed form
  (-L^2 kappa^2 + J pi (pi - 2 L kappa)) / (4 L^2 pi), J-independent only at
  kappa = pi/(2L) where it equals -pi/(16 L^2);
* Euler-Maclaurin: -pi/(24 L^2) exactly, via B_2.

3+1 route for the exponentially cut vacuum (peak Z, scales y0, lambda^2):

    p = sum_j (Z j^2 pi / (2 L^3 y0)) Gamma(1, y0 j pi / L, lambda^2)
        - (Z/(6 pi^2 y0^4)) Gamma(4, 0, lambda^2),

reported as a breakdown around the leading term -Z pi^2/(240 L^4).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.integrate import quad

from .constants import PRESSURE_UNIT_PA
from .errors import DomainError, NonConvergence
from .numerics import DEFAULT_SPEC, QuadratureSpec
from .specfun import bernoulli_number, gamma_from_zero
from .vacuum import ProfileKind, VacuumProfile

TWO_PI = 2.0 * math.pi
_ZETA3 = 1.2020569031595942      # Apery's constant zeta(3)


@cache
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    """20-point Gauss-Legendre nodes and weights on [-1, 1].  Built on first
    use, not at import: leggauss goes through LAPACK, whose set-up costs
    every process that imports the package but never integrates."""
    return np.polynomial.legendre.leggauss(20)


def _gauss_legendre(lo: np.ndarray, hi: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, as (panels, 20) arrays, of 20-point Gauss-Legendre
    panels on [lo, hi]."""
    nodes, weights = _gl_rule()
    half = 0.5 * (hi - lo)[:, None]
    return lo[:, None] + half * (nodes + 1.0), half * weights


def reflection_coeff(k: float, alpha: float) -> complex:
    """Single-barrier reflection amplitude r(k) = 1/(1 - 2ik/alpha)^2;
    |r| = 1/(1 + 4k^2/alpha^2) < 1 for k > 0."""
    if k <= 0 or alpha <= 0:
        raise DomainError("reflection_coeff requires k > 0 and alpha > 0")
    return 1.0 / (1.0 - 2j * k / alpha) ** 2


# ------------------------------------------------------------- 1+1 series

# the gaps L of both 1+1 routes: the pressure scales like 1/L^2, kept within
# 1e-300..1e300, a factor ~1e8 inside the double range (the series' t w
# products reach ~700/L^2; both routes overflowed below L ~ 1e-154)
_GAP_RANGE = (1e-150, 1e150)


def _check_gap(alpha: float, L: float, route: str) -> None:
    """DomainError unless alpha > 0 and 1/L^2 is well inside the double
    range, checked before any array work."""
    if alpha <= 0 or L <= 0:
        raise DomainError(f"{route} requires alpha, L > 0")
    least, most = _GAP_RANGE
    if not least <= L <= most:
        raise DomainError(f"{route} requires {least:g} <= L <= {most:g}, so "
                          f"that the pressure scale 1/L^2 is a double; got "
                          f"L = {L:g}")


def pressure_1p1_series(alpha: float, L: float,
                        spec: QuadratureSpec = DEFAULT_SPEC,
                        explicit_terms: int = 64) -> float:
    """Reflection-series pressure.

    The n-th term, rotated onto the imaginary axis, is
    -(1/pi) int_0^inf t e^{n h(t)} dt with h(t) = -2tL - 2 log(1+2t/alpha).
    Terms n < N = max(8, explicit_terms) are summed explicitly; the ~1/n^2
    remainder is closed with Euler-Maclaurin corrections through the fifth
    n-derivative (the m-th derivative brings down h^m).  All of them are
    one matrix product on a shared Gauss-Legendre grid in t: one panel on
    [0, s] with s = 1/(16 N (L + 1/alpha)), an eighth of the decay length
    of the N-th term, then panels doubling in width out to t = 26/L, where
    every term has fallen below e^-52 of its scale.  DomainError for L
    outside 1e-150..1e150 (_GAP_RANGE).
    """
    _check_gap(alpha, L, "pressure_1p1_series")
    N = max(8, explicit_terms)
    s = 1.0 / (16.0 * N * (L + 1.0 / alpha))
    doublings = math.ceil(math.log2(26.0 / (L * s)))
    edges = np.concatenate(([0.0], s * 2.0 ** np.arange(doublings + 1)))
    t, w = (a.ravel() for a in _gauss_legendre(edges[:-1], edges[1:]))
    h = -2.0 * t * L - 2.0 * np.log1p(2.0 * t / alpha)
    tw = t * w
    explicit = np.exp(np.outer(np.arange(1, N), h)) @ tw
    eN = np.exp(N * h)
    # int_N^inf e^{nh} dn + f(N)/2 - f'(N)/12 + f^(3)(N)/720 - f^(5)(N)/30240
    tail = eN * (-1.0 / h + 0.5 - h / 12.0 + h ** 3 / 720.0 - h ** 5 / 30240.0)
    total = -(math.fsum(explicit) + float(tail @ tw)) / math.pi
    if not np.isfinite(total):
        raise NonConvergence("series pressure did not converge")
    return total


# --------------------------------------------------------- 1+1 quadrature

# resonance peaks graded on the real axis, past k = 0; the rest of the axis
# is taken on the vertical contour.  Panels are evaluated a block at a time:
# 256-panel blocks keep the temporaries (5120 nodes, 40 kB each) in cache and
# measured twice as fast as 2048-panel blocks.
_PEAKS = 24
_PANEL_BLOCK = 256
# the alpha L range of pressure_1p1_quad, a factor ~3e3 inside the points
# where u^4 in its integrand leaves the normal double range: it overflows
# below alpha L = 3.5e-74, and past 3.7e79 the error exceeds 1e-8
_QUAD_ALPHA_L = (1e-70, 1e76)


def _mode_density(centre: np.ndarray, d: np.ndarray, alpha: float,
                  L: float) -> np.ndarray:
    """(k/pi) Re[w/(1-w)] at k = centre + d, with w = r e^{2ikL} =
    rho e^{2i phi}, rho = 1/(1+u^2), phi = kL + atan(u), u = 2k/alpha;
    centre is 0 or a peak k_m, where k_m L - m pi = -atan(u_m).

    Re[w/(1-w)] = (rho cos 2phi - rho^2)/((1-rho)^2 + 4 rho sin^2 phi)
                = (u^2 (1+t^2) - 2(t+u)^2)/(u^4 (1+t^2) + 4(t+u)^2)
    with t = tan(kL), since (1+u^2) sin^2 phi = (t+u)^2/(1+t^2).  With
    s = tan(dL), u_m = 2 centre/alpha and D = 1 + u_m s, the addition
    theorem gives

        (1 + t^2) D^2 = (1 + u_m^2)(1 + s^2),
        (t + u) D = s (1 + u_m^2) + (2d/alpha) D,

    and D^2/(1 + u_m^2) cancels from the ratio.  Both sums are free of
    cancellation, so the peak at t + u = 0 (half-width u_m^2/2 there) is
    resolved to the rounding of d, however narrow it is; the tan of the
    rounded phase -atan(u_m) + dL would be off by relative eps/u_m at the
    peak, which grows with alpha L.  The denominator is a sum of positive
    terms.
    """
    uc = (2.0 / alpha) * centre
    a = 1.0 + uc * uc
    du = (2.0 / alpha) * d
    s = np.tan(d * L)
    n = du * (1.0 + uc * s)
    n /= a
    n += s                          # (t + u) D/(1 + u_m^2)
    n *= n
    n *= a                          # (t + u)^2 D^2/(1 + u_m^2)
    u = uc + du
    u *= u
    b = s * s
    b += 1.0
    b *= u                          # u^2 (1 + t^2) D^2/(1 + u_m^2)
    return ((centre + d) / math.pi) * (b - 2.0 * n) / (u * b + 4.0 * n)


def _peak_positions(alpha: float, L: float, M: int) -> np.ndarray:
    """k_m, m = 1..M, solving kL + atan(2k/alpha) = m pi (where
    arg(r e^{2ikL}) = 2 m pi) by Newton's method from the left end of each
    bracket ((m - 1/2) pi/L, m pi/L); the left side is concave and
    increasing, so the iterates rise monotonically to the root."""
    target = np.arange(1, M + 1) * math.pi
    k = (target - 0.5 * math.pi) / L
    for _ in range(100):
        u = 2.0 * k / alpha
        step = (k * L + np.arctan(u) - target) \
            / (L + (2.0 / alpha) / (1.0 + u * u))
        k = k - step
        if np.all(np.abs(step) <= 1e-13 * k):
            return k
    raise NonConvergence("resonance positions did not converge")


def _peak_panels(width: np.ndarray, left: np.ndarray, right: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panels around a run of centres, as (centre index, lo, hi) with lo and
    hi offsets from the centre.  Cell edges sit at offsets doubling from
    each centre's width out to its bounds left and right of it; every cell
    is split into 4 equal panels."""
    reach = float(np.max(np.maximum(left, right) / width))
    doublings = math.ceil(math.log2(max(1.0, reach)))
    offsets = width[:, None] * 2.0 ** np.arange(doublings)
    owner, lo, hi = [], [], []
    for side, mirror in ((right, False), (left, True)):
        e = np.hstack((np.zeros((len(side), 1)),
                       np.minimum(offsets, side[:, None]), side[:, None]))
        a, b = e[:, :-1], e[:, 1:]
        keep = b > a
        owner.append(np.nonzero(keep)[0])
        lo.append(-b[keep] if mirror else a[keep])
        hi.append(-a[keep] if mirror else b[keep])
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    cuts = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 5)
    return (np.repeat(np.concatenate(owner), 4),
            cuts[:, :-1].ravel(), cuts[:, 1:].ravel())


def pressure_1p1_quad(alpha: float, L: float,
                      spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Direct quadrature of the mode-density form of the pressure.

    The integrand k/(2pi) [(1-|r|^2)/|1-r e^{2ikL}|^2 - 1], equal to
    (k/pi) Re[w/(1-w)], peaks at k_m where k_m L + atan(2k_m/alpha) = m pi,
    with width (1-rho)/(2L sqrt(rho)), rho = |r|.  The real axis is
    integrated up to K, halfway between the 24th and 25th peaks, for every
    alpha and L.  Around k = 0 and each of the 24 peaks the panel edges sit
    at offsets doubling from that width (from 1e-6 min(alpha, 1/L) at
    k = 0) out to the midpoints between neighbouring peaks; every cell is
    split into 4 equal 20-point Gauss-Legendre panels, evaluated a fixed
    number of panels at a time.  Nodes are kept as offsets d from their
    peak, and the phase enters through tan(dL) alone (_mode_density), so
    the narrowest peak is resolved as finely as a broad one.  Past K the
    remainder is taken along the vertical contour k = K + it, where the
    continued integrand decays like e^{-2tL} and is pole-free (all
    resonances lie in the lower half-plane); at K the phase is near pi/2,
    so |1 - w| >= 1 there.

    The work grows only with the depth of the grading, by the same ~1,300
    panels per decade of alpha L: about 3,500 panels at alpha L = 1e4,
    7,300 at 1e7 and 95,000 at 1e76.  Within 1.1e-12 relative of a 30-digit
    mpmath reference for 1e-70 <= alpha L <= 1e76 (the worst of 331 scanned
    points, L from 1e-3 to 1e3); outside that range u^4 in the integrand
    leaves the double range, and DomainError is raised, as it is for L
    outside 1e-150..1e150 (_GAP_RANGE).
    """
    _check_gap(alpha, L, "pressure_1p1_quad")
    least, most = _QUAD_ALPHA_L
    if not least <= alpha * L <= most:
        raise DomainError(f"pressure_1p1_quad requires {least:g} <= alpha L "
                          f"<= {most:g}, got {alpha * L:g}")
    k_m = _peak_positions(alpha, L, _PEAKS + 1)
    # centres k = 0, k_1 .. k_24 (k = 0 is graded like a peak) and the cell
    # bounds between them, the last one between k_24 and k_25
    centres = np.concatenate(([0.0], k_m[:-1]))
    bounds = 0.5 * (centres + k_m)
    q = (2.0 * centres / alpha) ** 2
    width = q / (2.0 * L * np.sqrt(1.0 + q))    # (1 - rho)/(2 L sqrt(rho))
    width[0] = 1e-6 * min(alpha, 1.0 / L)
    # both differences are exact (Sterbenz's lemma), so the cells of
    # neighbouring centres meet exactly at their shared bound
    left = centres - np.concatenate(([0.0], bounds[:-1]))
    right = bounds - centres
    owner, lo, hi = _peak_panels(width, left, right)
    total = 0.0
    for i in range(0, len(lo), _PANEL_BLOCK):
        j = slice(i, i + _PANEL_BLOCK)
        d, w = _gauss_legendre(lo[j], hi[j])
        total += float(np.sum(w * _mode_density(centres[owner[j, None]], d,
                                                alpha, L)))
    K = float(bounds[-1])
    phase = cmath.exp(2j * K * L)

    # k = K + i x/L: quadpack's rule for [0, inf) suits a decay length near
    # 1, which x has at any L (in t = x/L it lost 1.6e-4 at L = 1e-10 and at
    # 1e10).  Python complex arithmetic: quadpack calls it one node at a time
    def vertical(x):
        z = complex(K, x / L)
        w = phase * math.exp(-2.0 * x) / (1.0 - 2j * z / alpha) ** 2
        return (1j * z * w / (1.0 - w)).real

    tail, _ = quad(vertical, 0.0, np.inf, limit=spec.max_subdivisions,
                   epsabs=1e-14 * abs(total) * L, epsrel=1e-12)
    total += tail / (math.pi * L)
    if not np.isfinite(total):
        raise NonConvergence("quadrature pressure did not converge")
    return total


# ----------------------------------------------------- Dirichlet endpoints

def pressure_dirichlet_comb(L: float, kappa: float, J: int) -> float:
    """Cutoff-regularized comb-minus-continuum pressure at cutoff
    K = J pi/L + kappa:  (-L^2 kappa^2 + J pi (pi - 2 L kappa))/(4 L^2 pi).

    J-independent only at kappa = pi/(2L), where it equals -pi/(16 L^2);
    any other kappa leaves a linearly growing J-dependence (the
    regularization is genuinely ambiguous there).
    """
    if L <= 0 or J < 1:
        raise DomainError("pressure_dirichlet_comb requires L > 0 and J >= 1")
    if not 0 < kappa < math.pi / L:
        raise DomainError("kappa must lie in (0, pi/L)")
    return (-L * L * kappa * kappa + J * math.pi * (math.pi - 2.0 * L * kappa)) \
        / (4.0 * L * L * math.pi)


def pressure_euler_maclaurin(L: float) -> float:
    """Smooth-cutoff endpoint -(1/2pi)(pi^2/L^2)(B_2/2) = -pi/(24 L^2)."""
    if L <= 0:
        raise DomainError("pressure_euler_maclaurin requires L > 0")
    return -(1.0 / TWO_PI) * (math.pi / L) ** 2 * bernoulli_number(2) / 2.0


def euler_maclaurin_gap(f, N: int, derivative_orders: int = 1,
                        h: float = 1e-2) -> tuple[float, float]:
    """(gap, prediction) where gap = sum_0^N f(n) - (f(N)+f(0))/2 -
    int_0^N f, and prediction truncates
    sum_j B_2j/(2j)! (f^(2j-1)(N) - f^(2j-1)(0)) at derivative_orders terms.

    Odd derivatives are taken by central differences with step h.
    """
    if N < 1:
        raise DomainError("N must be a positive integer")
    if not 1 <= derivative_orders <= 3:
        raise DomainError("derivative_orders must be in 1..3")
    s = sum(f(n) for n in range(N + 1)) - 0.5 * (f(N) + f(0))
    integral, _ = quad(f, 0.0, float(N), limit=400, epsabs=1e-13,
                       epsrel=1e-12)
    gap = s - integral

    def deriv(x, order):
        if order == 1:
            return (f(x + h) - f(x - h)) / (2.0 * h)
        if order == 3:
            return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h)
                    - f(x - 2 * h)) / (2.0 * h ** 3)
        return (f(x + 3 * h) - 4 * f(x + 2 * h) + 5 * f(x + h)
                - 5 * f(x - h) + 4 * f(x - 2 * h) - f(x - 3 * h)) / (2.0 * h ** 5)

    pred = 0.0
    x0, x1 = 0.0, float(N)
    for j in range(1, derivative_orders + 1):
        order = 2 * j - 1
        pred += bernoulli_number(2 * j) / math.factorial(2 * j) \
            * (deriv(x1, order) - deriv(x0, order))
    return gap, pred


# --------------------------------------------------------------- 3+1 route

@dataclass(frozen=True)
class PressureBreakdown:
    """3+1 pressure split around its leading term.

    total = leading + y0_corrections + lambda2_correction holds exactly by
    construction (the y0 piece absorbs the full mode-sum remainder).
    """

    total: float
    leading: float
    y0_corrections: float
    lambda2_correction: float
    terms_used: int


def _mode_sum_defect_series(x: float) -> float:
    """sum_j j^2 e^{-jx} - 2/x^3 + x/120: the part of the geometric mode sum
    beyond its continuum limit and leading defect, as the rapidly convergent
    series sum_{m>=3} B_2m (2m-1)(2m-2) x^(2m-3) / (2m)! (|x| < 2 pi).

    Isolating this combination analytically avoids the catastrophic
    cancellation of sum-minus-integral for small mode spacing x.
    """
    total = 0.0
    for m in range(3, 11):
        total += bernoulli_number(2 * m) * (2 * m - 1) * (2 * m - 2) \
            * x ** (2 * m - 3) / math.factorial(2 * m)
    return total


def stairs_gap(dx: float) -> float:
    """2/3 - sum_j dx (j dx)^2 Gamma(0, j dx): the half-cell defect of the
    midpoint staircase for int_0^inf x^2 Gamma(0, x) dx = 2/3, as the
    zeta-regularized Euler-Maclaurin series for a logarithmic singularity
    (Navot, J. Math. Phys. 40 (1961) 271)

    dx^3 zeta(3)/(4 pi^2) + sum_{odd k>=3} B_(k+1) dx^(k+1)/((k+1)(k-2)(k-2)!)

    convergent for dx < 2 pi.  Cut after k = 19, it is within 3e-16 relative
    of a 40-digit reference for dx <= 0.32 (pressure_3p1 needs dx < pi/10)
    and within 1e-14 up to dx = 1, where the domain ends.
    """
    if not 0 < dx <= 1.0:
        raise DomainError("stairs_gap requires 0 < dx <= 1")
    series = math.fsum(bernoulli_number(k + 1) * dx ** (k + 1)
                       / ((k + 1) * (k - 2) * math.factorial(k - 2))
                       for k in range(3, 20, 2))
    return dx ** 3 * _ZETA3 / (4.0 * math.pi ** 2) + series


def pressure_3p1(profile: VacuumProfile, L: float,
                 spec: QuadratureSpec = DEFAULT_SPEC) -> PressureBreakdown:
    """Mode-sum-minus-continuum pressure for the exponentially cut vacuum.

    The discrete sum runs over j with weight
    (Z j^2 pi/(2 L^3 y0)) Gamma(1, y0 j pi/L, lambda^2), truncated once
    three consecutive terms fall below rel_tol times the partial sum; the
    continuum part is (Z/(6 pi^2 y0^4)) Gamma(4, 0, lambda^2).

    For coarse mode spacing (x = pi y0/L >= 0.04, b > 0) the difference is
    taken between the directly summed modes and the continuum, about 240/x^4
    times the total, which leaves a rounding floor near 1e-8 relative at
    x = 0.04.  For finer spacing the cancellation is done analytically: the
    leading term and the Bernoulli-series remainder carry the b = 0 part,
    and the b-linear part enters through the staircase defect of
    int x^2 Gamma(0, x) dx.  That path drops the O(b^2) terms, so it accepts
    b <= 1e-6 only: across x = 0.04 the two paths agree to 1.5e-8 for
    b <= 1e-6 but differ by 3e-5 relative at b = 1e-4.
    """
    if profile.kind is not ProfileKind.LORENTZ_EXP:
        raise DomainError("pressure_3p1 requires a LORENTZ_EXP profile")
    if L <= 0:
        raise DomainError("plate separation must be positive")
    y0, b, Z = profile.y0, profile.lambda2, profile.Z
    if y0 / L >= 0.1:
        raise DomainError("expansion regime requires y0/L < 0.1")
    x = math.pi * y0 / L
    prefactor = Z * math.pi / (2.0 * L ** 3 * y0)
    leading = -Z * math.pi ** 2 / (240.0 * L ** 4)
    lam2_scale = Z * b / (2.0 * math.pi ** 2 * y0 ** 4)
    gap = stairs_gap(x) if b > 0.0 else 0.0
    lam2_corr = lam2_scale * gap

    j_cap = int(45.0 / x) + 1
    if b > 0.0 and x >= 0.04:
        mode_sum, terms_used = _mode_sum_direct(prefactor, x, b, spec)
        continuum = Z / (6.0 * math.pi ** 2 * y0 ** 4) * gamma_from_zero(4.0, b)
        total = mode_sum - continuum
        y0_corr = total - leading - lam2_corr
    elif b > 1e-6:
        raise DomainError("lambda2 too large for the fine-spacing expansion "
                          "(O(lambda^4) terms would not be negligible)")
    else:
        # leading + prefactor * defect-series reproduces the b = 0 value
        # without forming the large cancelling pair
        y0_corr = prefactor * _mode_sum_defect_series(x)
        total = leading + y0_corr + lam2_corr
        terms_used = j_cap
    return PressureBreakdown(
        total=total,
        leading=leading,
        y0_corrections=y0_corr,
        lambda2_correction=lam2_corr,
        terms_used=terms_used,
    )


def _mode_sum_direct(prefactor: float, x: float, b: float,
                     spec: QuadratureSpec):
    """prefactor * sum_j j^2 Gamma(1, j x, b) through a shared tail table.

    The cap j x <= 45 leaves a remainder below e^-45; the sum must be
    exhausted (not truncated against the partial sum) because the physical
    answer is the difference against a continuum term of almost the same
    size.  Requires three trailing terms below rel_tol of the partial sum
    as the decay check.
    """
    j_cap = int(45.0 / x) + 1
    j = np.arange(1, j_cap + 1, dtype=float)
    tails = _upper_tail_table(j * x, b)
    terms = prefactor * j ** 2 * tails
    total = float(np.sum(terms))
    if np.any(np.abs(terms[-3:]) > spec.rel_tol * max(abs(total), 1e-300)):
        raise NonConvergence("3+1 mode sum failed to decay within the cap")
    return total, j_cap


def _upper_tail_table(xs: np.ndarray, b: float) -> np.ndarray:
    """Gamma(1, x, b) = int_x^inf e^{-t - b/t} dt, b > 0, for every x in the
    ascending, evenly spaced array xs, via per-interval 20-point
    Gauss-Legendre panels (machine accurate for spacing << 1) accumulated
    from the far tail inward."""
    far, _ = quad(lambda t: math.exp(-t - b / t), float(xs[-1]), np.inf,
                  limit=200, epsabs=1e-16, epsrel=1e-13)
    # panel integrals int_{x_j}^{x_{j+1}} e^{-t - b/t} dt, all panels at once
    t, w = _gauss_legendre(xs[:-1], xs[1:])
    panels = np.sum(w * np.exp(-t - b / t), axis=1)
    tails = np.empty_like(xs)
    tails[-1] = far
    tails[:-1] = far + np.cumsum(panels[::-1])[::-1]
    return tails


def to_physical_pressure(p_dimensionless: float) -> float:
    """Convert a dimensionless pressure to pascal (factor c hbar / ell^4)."""
    return p_dimensionless * PRESSURE_UNIT_PA
