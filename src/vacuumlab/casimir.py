"""Casimir pressure of a scalar field between two delta barriers.

1+1 routes (barrier strength alpha, separation L, reflection coefficient
r(k) = 1/(1 - 2ik/alpha)^2):

* series: p = (1/2pi) sum_n int_0^inf k r^n e^{2nikL} dk + c.c., each term
  rotated onto the imaginary axis and the sum over n taken under the
  integral; within 5.3e-16 relative of an mpmath reference for
  1e-191 <= alpha L <= 2e4 (the 63-term matrix it replaced returned wrong
  numbers below alpha L ~ 1e-155), in ~25 us per call at alpha L >= 10;
* quadrature: p = (1/2pi) int_0^inf k [(1-|r|^2)/|1 - r e^{2ikL}|^2 - 1] dk
  on Gauss-Legendre panels graded into k = 0 and the first peak of the
  real axis, then along a vertical contour; within 2e-14 relative of an
  mpmath reference for 1e-70 <= alpha L <= 1e76, for a float pair or for
  arrays of (alpha, L) pairs in one call (pressure_1p1_quad);
* Dirichlet comb: the cutoff-regularized mode-sum-minus-integral closed form
  (-L^2 kappa^2 + J pi (pi - 2 L kappa)) / (4 L^2 pi), J-independent only at
  kappa = pi/(2L) where it equals -pi/(16 L^2);
* Euler-Maclaurin: -pi/(24 L^2) exactly, via B_2.

3+1 route for the exponentially cut vacuum (peak Z, scales y0, lambda^2):

    p = sum_j (Z j^2 pi / (2 L^3 y0)) Gamma(1, y0 j pi / L, lambda^2)
        - (Z/(6 pi^2 y0^4)) Gamma(4, 0, lambda^2),

reported as a breakdown around the leading term -Z pi^2/(240 L^4).

Pressures are dimensionless (Planck units); the CLI converts to pascal
with constants.PRESSURE_UNIT_PA.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DomainError, NonConvergence
from .numerics import gauss_legendre
from .specfun import gamma_from_zero

TWO_PI = 2.0 * math.pi
_ZETA3 = 1.2020569031595942      # Apery's constant zeta(3)
# the Bernoulli numbers B_2 .. B_20 by index, each the double nearest its
# exact ratio
_BERNOULLI = {2: 1 / 6, 4: -1 / 30, 6: 1 / 42, 8: -1 / 30, 10: 5 / 66,
              12: -691 / 2730, 14: 7 / 6, 16: -3617 / 510, 18: 43867 / 798,
              20: -174611 / 330}
# the 3+1 mode sum runs over j x <= 45 + 2 lambda, where e^{-t - lambda^2/t}
# is below e^-45 of its peak e^{-2 lambda}: (t - lambda)^2/t >= 45 there
_MODE_SUM_REACH = 45.0
# DomainError where the 3+1 mode sum exceeds the total by more than this
_CANCELLATION_LIMIT = 1e9
# y0 and L of pressure_3p1, kept within 1e-75..1e75, a factor ~1e2 inside
# the points where y0^4 and L^4 leave the normal double range (y0^4
# underflowed to 0 below y0 ~ 1e-81, L^4 overflowed past L ~ 1e77)
_3P1_SCALE_RANGE = (1e-75, 1e75)


# ------------------------------------------------------------- 1+1 series

# the gaps L of both 1+1 routes: the pressure scale 1/L^2 is kept within
# 1e-300..1e300, a factor ~1e8 inside the double range
_GAP_RANGE = (1e-150, 1e150)
# the series integrand is taken out to t L = 24, where e^{-2tL} = e^-48 and
# the rest of the integral is below 1e-19 of the pressure
_SERIES_REACH = 24.0


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


def _normal_pressure(p: float, route: str) -> float:
    """p, or DomainError if it is subnormal and has lost digits."""
    if abs(p) < sys.float_info.min:
        raise DomainError(f"{route}: the pressure {p:g} is subnormal")
    return p


def pressure_1p1_series(alpha: float, L: float) -> float:
    """Reflection-series pressure, summed under the integral.

    The n-th term on the imaginary axis k = it is -(1/pi) int t e^{nh} dt,
    h(t) = -2tL - 2 log(1+2t/alpha); summed over n >= 1 the integrand is
    t e^h/(1 - e^h).  Its poles, where e^{2tL}(1+2t/alpha)^2 = 1, lie in
    Re t <= 0, more than 2s from 0, s = 1/(L + 2/alpha) (-h ~ 2t/s near 0):
    in tau = t/s one Gauss-Legendre panel on [0, 1] and panels doubling out
    to tL = 24 (_SERIES_REACH) take it to rounding, 6 panels at
    alpha L >= 10 and 273 at 1e-80.  With q = 1/(1 + 2t/alpha) and c = sL,
    the weighted integrand (tau q)(w q) e^{-2c tau}/(-expm1(h)) stays normal
    where q^2 = e^h e^{2tL} underflows (alpha L < ~1e-153).  Within 5.3e-16
    relative of mpmath for 1e-191 <= alpha L <= 2e4, in ~25 us per call
    at alpha L >= 10 and 0.3 ms at 1e-80.  DomainError for L outside
    1e-150..1e150 (_GAP_RANGE) and for a subnormal p.
    """
    _check_gap(alpha, L, "pressure_1p1_series")
    g = 2.0 / alpha
    d = L + g
    c = L / d
    # the last edge 2^doublings >= 24/c (or 2/alpha, where c = 0) is no
    # double only at alpha L < 5.3e-307, so alpha < 5.3e-157 (L >= 1e-150),
    # where p ~ -alpha^2 ln(1/(alpha L))/(4 pi) is subnormal
    if c < math.ldexp(_SERIES_REACH, -1023):
        raise DomainError(f"pressure_1p1_series: alpha = {alpha:g} puts the "
                          "pressure below the normal range")
    doublings = math.ceil(math.log2(_SERIES_REACH / c))
    edges = np.concatenate(([0.0], np.ldexp(1.0, np.arange(doublings + 1))))
    tau, w = (a.ravel() for a in gauss_legendre(edges[:-1], edges[1:]))
    u = (g / d) * tau
    q = 1.0 / (1.0 + u)
    x = c * tau
    f = (tau * q) * (w * q) * np.exp(-2.0 * x) \
        / -np.expm1(-2.0 * x - 2.0 * np.log1p(u))
    return _normal_pressure(-math.fsum(f.tolist()) / d / d / math.pi,
                            "pressure_1p1_series")


# --------------------------------------------------------- 1+1 quadrature

# resonance peaks graded on the real axis, past k = 0; the rest of the axis
# is taken on the vertical contour.  Panels are evaluated a block at a time:
# 256-panel blocks keep the temporaries (5120 nodes, 40 kB each) in cache and
# measured 1.6x as fast as 2048-panel blocks at alpha L = 1e76 (1,028
# panels).  512-panel blocks measured 5-8% faster than 256 both there and on
# validate's grid (473 panels); 256 is kept for now.
_PEAKS = 1
_PANEL_BLOCK = 256
# the alpha L range of pressure_1p1_quad, a factor ~3e3 inside the points
# where u^4 in its integrand leaves the normal double range: it overflows
# below alpha L = 3.5e-74, and past 3.7e79 the error exceeds 1e-8
_QUAD_ALPHA_L = (1e-70, 1e76)
# panel edges in x of the contour tail k = K + i x/L: 0, 1/8, 1/4, ..., 32
_TAIL_EDGES = np.concatenate(([0.0], 2.0 ** np.arange(-3, 6)))
# panel edges, offsets from X, of the 3+1 far tail int_X^inf e^{-t - b/t} dt:
# 0, 1/8, 1/4, ..., 64, where the integrand has fallen by e^-64
_FAR_TAIL_EDGES = np.concatenate(([0.0], 2.0 ** np.arange(-3, 7)))


def _mode_density(centre: np.ndarray, d: np.ndarray,
                  alpha: np.ndarray) -> np.ndarray:
    """(k/pi) Re[w/(1-w)] at k = centre + d and L = 1, with w = r e^{2ik} =
    rho e^{2i phi}, rho = 1/(1+u^2), phi = k + atan(u), u = 2k/alpha;
    centre is 0 or a peak k_m, where k_m - m pi = -atan(u_m).  d is a
    (20, panels) block of nodes; centre and alpha hold one value per panel,
    broadcast along its rows.

    Re[w/(1-w)] = (rho cos 2phi - rho^2)/((1-rho)^2 + 4 rho sin^2 phi)
                = (u^2 (1+t^2) - 2(t+u)^2)/(u^4 (1+t^2) + 4(t+u)^2)
    with t = tan(k), since (1+u^2) sin^2 phi = (t+u)^2/(1+t^2).  With
    s = tan(d), u_m = 2 centre/alpha and D = 1 + u_m s, the addition
    theorem gives

        (1 + t^2) D^2 = (1 + u_m^2)(1 + s^2),
        (t + u) D = s (1 + u_m^2) + (2d/alpha) D,

    and D^2/(1 + u_m^2) cancels from the ratio.  Both sums are free of
    cancellation, so the peak at t + u = 0 (half-width u_m^2/2 there) is
    resolved to the rounding of d, however narrow it is; the tan of the
    rounded phase -atan(u_m) + d would be off by relative eps/u_m at the
    peak, which grows with alpha.  The denominator is a sum of positive
    terms.
    """
    g = 2.0 / alpha
    uc = g * centre
    a = 1.0 + uc * uc
    du = g * d
    s = np.tan(d)
    n = du * (1.0 + uc * s)
    n /= a
    n += s                          # (t + u) D/(1 + u_m^2)
    n *= n
    n *= a + a                      # 2 (t + u)^2 D^2/(1 + u_m^2)
    u = uc + du
    u *= u
    b = s * s
    b += 1.0
    b *= u                          # u^2 (1 + t^2) D^2/(1 + u_m^2)
    return ((centre + d) / math.pi) * (b - n) / (u * b + 2.0 * n)


def _peak_positions(beta, M: int) -> np.ndarray:
    """kappa_m = k_m L, m = 1..M, solving kappa + atan(2 kappa/beta) = m pi
    (where arg(r e^{2ikL}) = 2 m pi, beta = alpha L) by Newton's method.
    It starts from one fixed-point step off m pi, m pi - atan(2 m pi/beta),
    which lies between the left end (m - 1/2) pi of the bracket and the
    root; the left side is concave and increasing, so the iterates rise
    monotonically to the root.  With f the left side minus m pi,
    |f''|/(2 f') <= 0.11 for kappa >= pi/2, so a step of at most
    1e-9 kappa leaves an error below 1e-17 kappa: the peak stops moving
    there.  Each peak stops on its own, so for an array
    of n values beta the (n, M) result holds the bits of each beta solved
    alone."""
    g = 2.0 / np.asarray(beta)[..., None]
    target = np.arange(1, M + 1) * math.pi
    k = target - np.arctan(g * target)
    moving = np.ones(k.shape, dtype=bool)
    for _ in range(100):
        u = g * k
        step = (k + np.arctan(u) - target) / (1.0 + g / (1.0 + u * u))
        np.subtract(k, step, out=k, where=moving)
        moving &= ~(np.abs(step) <= 1e-9 * k)
        if not moving.any():
            return k
    raise NonConvergence("resonance positions did not converge")


def _peak_panels(width: np.ndarray, left: np.ndarray, right: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panels around a run of centres, as (centre index, lo, hi) with lo and
    hi offsets from the centre, in ascending order of centre and of offset.
    Cell edges sit at offsets doubling from each centre's width out to its
    bounds left and right of it, one panel per cell; doublings past a
    centre's own reach clip to zero-width cells, which are dropped."""
    reach = float(np.max(np.maximum(left, right) / width))
    doublings = math.ceil(math.log2(max(1.0, reach)))
    offsets = width[:, None] * 2.0 ** np.arange(doublings)
    # each centre's edges: -left, ..., -width, 0, width, ..., right
    edges = np.empty((len(width), 2 * doublings + 3))
    edges[:, 0] = -left
    np.negative(np.minimum(offsets[:, ::-1], left[:, None]),
                out=edges[:, 1:doublings + 1])
    edges[:, doublings + 1] = 0.0
    np.minimum(offsets, right[:, None], out=edges[:, doublings + 2:-1])
    edges[:, -1] = right
    lo, hi = edges[:, :-1], edges[:, 1:]
    keep = hi > lo
    return np.nonzero(keep)[0], lo[keep], hi[keep]


@cache
def _tail_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The contour tail's 180 nodes x, their weights and e^{-2x}, built on
    first use."""
    x, wx = (a.ravel() for a in gauss_legendre(_TAIL_EDGES[:-1],
                                               _TAIL_EDGES[1:]))
    return x, wx, np.exp(-2.0 * x)


def _contour_tail(K, alpha):
    """The pressure integral at L = 1 past K, along the vertical contour
    k = K + ix: (1/pi) int_0^inf Re[i k w/(1-w)] dx with w = r e^{2ik}.
    The continued integrand decays like e^{-2x} and its nearest
    singularities lie about pi/2 off the real x-axis, so one fixed rule,
    20-point Gauss-Legendre panels on [0, 1/8, 1/4, ..., 32] (e^-64 at the
    end), takes it to rounding.  The phase 2K is a rounded double, and its
    error enters amplified by K, so the start K = (k_1 + k_2)/2, between
    pi and 3pi/2, keeps that error at rounding.  K and alpha are floats or
    arrays of one shape; each pair's 180 nodes are summed on their own."""
    x, wx, decay = _tail_rule()
    K, alpha = (np.asarray(v)[..., None] for v in (K, alpha))
    k = K + 1j * x
    w = np.exp(2j * K) * decay / (1.0 - (2j / alpha) * k) ** 2
    # Re[i z] = -Im z
    return (wx * (k * w / (1.0 - w)).imag).sum(axis=-1) / -math.pi


def pressure_1p1_quad(alpha, L):
    """Direct quadrature of the mode-density form of the pressure, for a
    pair of floats or for 1-d arrays of n pairs (alpha, L) at once; a float
    call is an array call of one pair and returns a float.

    The pressure is f(alpha L)/L^2, and f is integrated at L = 1.  The
    integrand k/(2pi) [(1-|r|^2)/|1-r e^{2ikL}|^2 - 1], equal to
    (k/pi) Re[w/(1-w)], peaks at k_m where k_m L + atan(2k_m/alpha) = m pi,
    with width (1-rho)/(2L sqrt(rho)), rho = |r|.  The real axis is
    integrated up to K, halfway between the first and second peaks, for
    every alpha and L.  Around k = 0 and the first peak, the narrowest one
    (half-width ~u_1^2/2, 2e-7 at alpha L = 1e4), the panel edges sit at
    offsets doubling from that width (from 1e-6 min(alpha, 1/L) at k = 0)
    out to the midpoint between them and out to K; each cell is one
    20-point Gauss-Legendre panel.  On the correctly rounded rule
    (numerics.gauss_legendre), 2 or 4 panels per cell move the result no
    more than each other, by the rounding of the sum: <= 7.8e-15 relative
    over 400 seeded draws of the domain.  Nodes are kept as offsets d from
    their peak, and the phase enters through tan(dL) alone (_mode_density),
    so the narrowest peak is resolved as finely as a broad one.  Past K the
    remainder, every later peak included, is taken along the vertical
    contour k = K + ix/L, where the continued integrand decays like e^{-2x}
    and is pole-free (all resonances lie in the lower half-plane), on 9
    fixed Gauss-Legendre panels out to x = 32 (_contour_tail); at K the
    phase is near pi/2, so |1 - w| >= 1 there.

    All pairs share one Newton solve for their peaks, one panel builder
    and one contour tail.  Their panels are evaluated together, at most
    256 at a time (_PANEL_BLOCK); each panel's 20 nodes are added in order
    and each pair's panel sums pairwise, so a pair gets the same bits alone
    or among others.  The work grows only with the depth of the grading,
    by the same ~13 panels per decade of alpha L: 70 panels at
    alpha L = 1e4, 110 at 1e7 and 1,028 at 1e76, which a float call takes
    in about 0.14, 0.15 and 0.55 ms on a 2-vCPU KVM machine; validate's 10
    pairs (473 panels) take about 0.36 ms in one call.  Within 2e-14
    relative of a 30-digit mpmath reference for 1e-70 <= alpha L <= 1e76
    (3.5e-15 over 51 cases; 6.2e-15, the worst of 6,000 seeded draws with
    L from 1e-3 to 1e3, against pressure_1p1_series, itself within 5.3e-16
    of mpmath); outside that range u^4 in the integrand leaves the double
    range, and DomainError is raised, as it is for L outside 1e-150..1e150
    (_GAP_RANGE) and for a subnormal p, if any one pair is outside.
    """
    scalar = np.ndim(alpha) == 0 and np.ndim(L) == 0
    alpha = np.array(alpha, dtype=float, ndmin=1)
    L = np.array(L, dtype=float, ndmin=1)
    if alpha.ndim != 1 or alpha.shape != L.shape:
        raise ValueError("pressure_1p1_quad takes floats or 1-d arrays of "
                         "one length")
    least, most = _QUAD_ALPHA_L
    for a, gap in zip(alpha.tolist(), L.tolist()):
        _check_gap(a, gap, "pressure_1p1_quad")
        if not least <= a * gap <= most:
            raise DomainError(f"pressure_1p1_quad requires {least:g} <= "
                              f"alpha L <= {most:g}, got {a * gap:g}")
    beta = alpha * L
    n = len(beta)
    k_m = _peak_positions(beta, _PEAKS + 1)
    # centres k = 0 and k_1 (k = 0 is graded like a peak) and the cell
    # bounds between them, the last one, K, between k_1 and k_2
    centres = np.zeros((n, _PEAKS + 1))
    centres[:, 1:] = k_m[:, :-1]
    bounds = 0.5 * (centres + k_m)
    q = (2.0 / beta)[:, None] * centres
    q *= q
    width = q / (2.0 * np.sqrt(1.0 + q))    # (1 - rho)/(2 sqrt(rho))
    width[:, 0] = 1e-6 * np.minimum(beta, 1.0)
    # both differences are exact (Sterbenz's lemma), so the cells of
    # neighbouring centres meet exactly at their shared bound
    left = np.zeros_like(centres)
    left[:, 1:] = centres[:, 1:] - bounds[:, :-1]
    right = bounds - centres
    owner, lo, hi = _peak_panels(width.ravel(), left.ravel(), right.ravel())
    pair = owner // (_PEAKS + 1)
    centre, beta_p = centres.ravel()[owner], beta[pair]
    # blocks of near-equal size: a block of one panel would sum its nodes
    # pairwise, not in order
    blocks = -(-len(lo) // _PANEL_BLOCK)
    edges = [len(lo) * i // blocks for i in range(blocks + 1)]
    sums = np.empty(len(lo))
    for i, j in zip(edges[:-1], edges[1:]):
        d, w = gauss_legendre(lo[i:j], hi[i:j])
        w *= _mode_density(centre[i:j], d, beta_p[i:j])
        w.sum(axis=0, out=sums[i:j])
    # each pair's panel sums added pairwise, on their own
    cuts = np.searchsorted(pair, np.arange(n + 1)).tolist()
    total = np.array([sums[i:j].sum() for i, j in zip(cuts[:-1], cuts[1:])])
    total += _contour_tail(bounds[:, -1], beta)
    total /= L * L
    for p in total.tolist():
        if not math.isfinite(p):
            raise NonConvergence("quadrature pressure did not converge")
        _normal_pressure(p, "pressure_1p1_quad")
    return float(total[0]) if scalar else total


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
    return -(1.0 / TWO_PI) * (math.pi / L) ** 2 * _BERNOULLI[2] / 2.0


# --------------------------------------------------------------- 3+1 route

@dataclass(frozen=True)
class PressureBreakdown:
    """3+1 pressure split around its leading term.

    total = leading + y0_corrections + lambda2_correction holds exactly by
    construction (the y0 piece absorbs the full mode-sum remainder).
    terms_used counts the modes summed directly; it is 0 on the analytic
    path (x = pi y0/L < 0.04), which sums none.
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
        total += _BERNOULLI[2 * m] * (2 * m - 1) * (2 * m - 2) \
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
    series = math.fsum(_BERNOULLI[k + 1] * dx ** (k + 1)
                       / ((k + 1) * (k - 2) * math.factorial(k - 2))
                       for k in range(3, 20, 2))
    return dx ** 3 * _ZETA3 / (4.0 * math.pi ** 2) + series


def pressure_3p1(Z: float, lambda2: float, y0: float, L: float
                 ) -> PressureBreakdown:
    """Mode-sum-minus-continuum pressure for the exponentially cut vacuum.

    The discrete sum runs over j with weight
    (Z j^2 pi/(2 L^3 y0)) Gamma(1, j x, lambda^2), x = pi y0/L; the
    continuum part is (Z/(6 pi^2 y0^4)) Gamma(4, 0, lambda^2).  DomainError
    unless 0 < Z < inf, lambda^2 >= 0, y0 and L lie within 1e-75..1e75
    (_3P1_SCALE_RANGE), where y0^4 and L^4 are normal doubles, and
    y0/L < 0.1.

    For coarse mode spacing (x >= 0.04, b > 0) the continuum is subtracted
    from the modes summed directly, exhausted to j x <= 45 + 2 lambda
    (_MODE_SUM_REACH) through one table of Gamma(1, j x, b).  The error is
    about 5e-16 times |mode sum/total| (~240/x^4 at small b): at most
    1.0e-15 (median 2.3e-16) of the mode sum over 310 random accepted
    inputs, x in [0.04, 0.314] and b in [1e-12, 316], against a 25-digit
    mpmath reference summed by parts; up to 7.7e-16 of it is the
    continuum's (its Gamma(4, 0, b) within 7.3e-16).  DomainError
    where that ratio exceeds 1e9 (_CANCELLATION_LIMIT): in a narrow band
    around each sign change of the total, and past lambda^2 ~ 0.07 at
    x = 0.04, 0.65 at x = 0.1, 3.2 at x = 0.2 and 6.7 at x = 0.314.

    For finer spacing the cancellation is done analytically: the leading
    term and the Bernoulli-series remainder carry the b = 0 part, and the
    b-linear part enters through the staircase defect of
    int x^2 Gamma(0, x) dx.  That path drops the O(b^2) terms, so it accepts
    b <= 1e-6 only: across x = 0.04 the two paths agree to 1.5e-8 for
    b <= 1e-6 but differ by 3e-5 relative at b = 1e-4.
    """
    b = lambda2
    if not (0.0 < Z < math.inf and b >= 0.0):
        raise DomainError(f"pressure_3p1 requires 0 < Z < inf and lambda2 "
                          f">= 0; got Z = {Z:g}, lambda2 = {b:g}")
    least, most = _3P1_SCALE_RANGE
    if not (least <= y0 <= most and least <= L <= most):
        raise DomainError(f"pressure_3p1 requires {least:g} <= y0, L <= "
                          f"{most:g}, so that y0^4 and L^4 are normal "
                          f"doubles; got y0 = {y0:g}, L = {L:g}")
    if y0 / L >= 0.1:
        raise DomainError("expansion regime requires y0/L < 0.1")
    x = math.pi * y0 / L
    prefactor = Z * math.pi / (2.0 * L ** 3 * y0)
    leading = -Z * math.pi ** 2 / (240.0 * L ** 4)
    lam2_scale = Z * b / (2.0 * math.pi ** 2 * y0 ** 4)
    lam2_corr = lam2_scale * stairs_gap(x)

    if b > 0.0 and x >= 0.04:
        j_cap = int((_MODE_SUM_REACH + 2.0 * math.sqrt(b)) / x) + 1
        j = np.arange(1, j_cap + 1, dtype=float)
        mode_sum = float(np.sum(prefactor * j ** 2
                                * _upper_tail_table(j * x, b)))
        continuum = Z / (6.0 * math.pi ** 2 * y0 ** 4) * gamma_from_zero(4, b)
        total = mode_sum - continuum
        if abs(mode_sum) > _CANCELLATION_LIMIT * abs(total):
            raise DomainError(f"pressure_3p1: the mode sum {mode_sum:g} "
                              f"cancels to {total:g}, below its rounding")
        y0_corr = total - leading - lam2_corr
    elif b > 1e-6:
        raise DomainError("lambda2 too large for the fine-spacing expansion "
                          "(O(lambda^4) terms would not be negligible)")
    else:
        # leading + prefactor * defect-series reproduces the b = 0 value
        # without forming the large cancelling pair
        y0_corr = prefactor * _mode_sum_defect_series(x)
        total = leading + y0_corr + lam2_corr
        j_cap = 0
    return PressureBreakdown(
        total=total,
        leading=leading,
        y0_corrections=y0_corr,
        lambda2_correction=lam2_corr,
        terms_used=j_cap,
    )


def _upper_tail_table(xs: np.ndarray, b: float) -> np.ndarray:
    """Gamma(1, x, b) = int_x^inf e^{-t - b/t} dt, b > 0, for every x in the
    ascending, evenly spaced array xs, via per-interval 20-point
    Gauss-Legendre panels (machine accurate for spacing << 1) accumulated
    from the far tail inward.  The far tail past X = xs[-1] takes 10 panels
    on X + [0, 1/8, 1/4, ..., 64] (_FAR_TAIL_EDGES), doubling in width to
    where the integrand has fallen by e^-64: for b <= 316, within 5e-16
    relative of 30-digit mpmath at X in (45, 45.32] and 6.5e-16 at
    pressure_3p1's X = 45 + 2 sqrt(b) + O(x), the rounding of t ~ X."""
    X = xs[-1]
    t, w = gauss_legendre(X + _FAR_TAIL_EDGES[:-1], X + _FAR_TAIL_EDGES[1:])
    far = np.sum(w * np.exp(-t - b / t))
    # panel integrals int_{x_j}^{x_{j+1}} e^{-t - b/t} dt, all panels at once
    t, w = gauss_legendre(xs[:-1], xs[1:])
    panels = np.sum(w * np.exp(-t - b / t), axis=0)
    tails = np.empty_like(xs)
    tails[-1] = far
    tails[:-1] = far + np.cumsum(panels[::-1])[::-1]
    return tails
