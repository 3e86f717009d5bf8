"""Self-validation suite: every headline number the library must reproduce,
as machine-checkable criteria with expected value, measured value, and
tolerance.  The CLI `validate` command serializes the outcome as JSON; the
acceptance test suite asserts every criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import casimir, cavity, coulomb, deltaseq, oscillator, specfun, vacuum
from .constants import AU_KM, PLANCK_LENGTH_KM
from .errors import DomainError
from .numerics import gauss_legendre


@dataclass(frozen=True)
class CriterionResult:
    criterion: str
    expected: float
    measured: float
    tolerance: float
    passed: bool

    def as_dict(self):
        return {"criterion": self.criterion, "expected": self.expected,
                "measured": self.measured, "tolerance": self.tolerance,
                "pass": self.passed}


def _crit(name, expected, measured, tol, mode="abs") -> CriterionResult:
    if mode == "abs":
        ok = abs(measured - expected) <= tol
    elif mode == "rel":
        ok = abs(measured - expected) <= tol * abs(expected)
    else:
        raise ValueError(mode)
    return CriterionResult(name, expected, measured, tol, bool(ok))


def check_sign_change_constant() -> list[CriterionResult]:
    """Smallest positive root where the sine integral meets its asymptote."""
    root = coulomb.sign_change_radius(
        lambda x: math.pi / 2.0 - specfun.sine_integral(x), (1.0, math.pi))
    return [_crit("si_asymptote_root", 1.92645, root, 1e-4)]


def check_lambert_resonances() -> list[CriterionResult]:
    expected = [0.0 + 0.0j, -2.42855 - 1.90448j, -8.66349 - 4.46676j,
                -15.1274 - 5.51848j, -21.5174 - 6.19436j, -27.8711 - 6.6961j]
    roots = cavity.resonance_roots(1.0, 1.0)    # branches 0, 1, 2
    out = []
    for i, (root, ref) in enumerate(zip(roots, expected)):
        err = max(abs(root.real - ref.real), abs(root.imag - ref.imag))
        resid = abs(cavity.resonance_equation(root, 1.0, 1.0))
        out.append(_crit(f"resonance_root_{i}", 0.0, err, 1e-4))
        out.append(_crit(f"resonance_residual_{i}", 0.0, resid, 1e-8))
    return out


def check_casimir_endpoints() -> list[CriterionResult]:
    out = []
    for L in (1.0, 2.0, math.pi):
        out.append(_crit(f"euler_maclaurin_L={L:g}", -math.pi / (24 * L * L),
                         casimir.pressure_euler_maclaurin(L), 1e-15, "rel"))
    kappa = math.pi / 2.0
    vals = [casimir.pressure_dirichlet_comb(1.0, kappa, J)
            for J in (5, 50, 500)]
    out.append(_crit("comb_value", -math.pi / 16.0, vals[0], 1e-15, "rel"))
    out.append(_crit("comb_J_independent", 0.0,
                     max(abs(v - vals[0]) for v in vals), 1e-15))
    out.append(_crit("comb_L=pi", -1.0 / (16.0 * math.pi),
                     casimir.pressure_dirichlet_comb(math.pi, 0.5, 7),
                     1e-15, "rel"))
    off = [casimir.pressure_dirichlet_comb(1.0, math.pi / 4.0, J)
           for J in (5, 50)]
    out.append(_crit("comb_ambiguous_offmidpoint", 1.0,
                     1.0 if abs(off[1] - off[0]) > 1.0 else 0.0, 0.5))
    return out


# ratio24 = p (-24 L^2/pi) = sum_k c_k (alpha L)^-k, asymptotic in
# 1/(alpha L), cut after k = 6: c_k = (6/pi^2) (-1)^k (k+1)!
# sum_n C(2n+k-1, k)/n^(k+2); c_2 = 12 + 36 zeta(3)/pi^2
_RATIO24_COEFFS = (1.0, -4.0, 16.384577816408631, -77.604200559097697,
                   437.95989963996783, -2933.4994063148521,
                   22884.766066019086)


def _ratio24_expansion(alpha_L: float) -> float:
    """The truncated expansion of ratio24 in 1/(alpha L), by Horner's rule."""
    x = 1.0 / alpha_L
    total = 0.0
    for c in reversed(_RATIO24_COEFFS):
        total = total * x + c
    return total


def check_casimir_1p1_oracle() -> list[CriterionResult]:
    out = []
    grid = [(alpha, L) for alpha in (10.0, 100.0, 1000.0)
            for L in (0.5, 1.0, 2.0)]
    pairs = grid + [(1e4, 1.0)]
    # each series value once: the alpha sweep below reuses those at L = 1
    series = {key: casimir.pressure_1p1_series(*key) for key in pairs}
    # every quadrature pair in one array call
    quad = casimir.pressure_1p1_quad(*np.array(pairs).T)
    deviation = [abs(series[key] - pq) / abs(series[key])
                 for key, pq in zip(pairs, quad.tolist())]
    out.append(_crit("series_vs_quad_rel", 0.0, max(deviation[:-1]), 3e-11))
    # narrow resonances (width ~ 2e-7 at the first peak), where the quadrature
    # must track the true peak positions
    out.append(_crit("series_vs_quad_rel_alpha=1e4", 0.0, deviation[-1],
                     3e-11))
    # alpha sweep at L = 1: the ratio to the Dirichlet endpoint
    # -pi/(24 L^2) rises to 1 as 1 - 4/(alpha L) + O((alpha L)^-2).  At
    # alpha L = 1e2, where the cut expansion is not exact, (1 - ratio)
    # alpha L is 4 to within a bound 20/(alpha L) on the rest; at 1e3 and
    # 1e4 the ratio is the expansion to rounding
    ratios24 = [series[10.0 ** e, 1.0] * (-24.0 / math.pi)
                for e in (1, 2, 3, 4)]
    monotone = all(ratios24[i] < ratios24[i + 1] for i in range(3))
    out.append(_crit("alpha_sweep_monotone", 1.0, 1.0 if monotone else 0.0,
                     0.5))
    out.append(_crit("dirichlet_rate_alphaL=1e2", 4.0,
                     (1.0 - ratios24[1]) * 1e2, 20.0 / 1e2))
    for e, ratio in zip((3, 4), ratios24[2:]):
        out.append(_crit(f"dirichlet_expansion_alphaL=1e{e}",
                         _ratio24_expansion(10.0 ** e), ratio, 1e-15, "rel"))
    return out


def check_casimir_3p1() -> list[CriterionResult]:
    out = []
    Z = 1.0
    bd = casimir.pressure_3p1(Z, 0.0, 1e-6, 1.0)
    out.append(_crit("leading_term_ratio", 1.0,
                     bd.total / (-Z * math.pi ** 2 / 240.0), 1e-10))
    y0 = 1e-38 / PLANCK_LENGTH_KM
    L = 1e-12 / PLANCK_LENGTH_KM      # one nanometer
    bd2 = casimir.pressure_3p1(Z, 1e-49, y0, L)
    out.append(_crit("lambda2_negligible", 0.0,
                     abs(bd2.lambda2_correction / bd2.leading), 1e-21))
    out.append(_crit("breakdown_additivity", 0.0,
                     abs(bd2.total - (bd2.leading + bd2.y0_corrections
                                      + bd2.lambda2_correction))
                     / abs(bd2.total), 1e-12))
    return out


def _lorentz_s_integral(lambda2: float) -> float:
    """The exponential profile's int dk density by quadrature, the closed
    form's oracle, up to its factor norm_const/(4 pi^2 y0^2): in
    s = ln(y0 kappa) the integrand exp(2s - e^s - lambda^2 e^-s) depends on
    lambda^2 alone.  Gauss-Legendre panels at most one unit of s wide on
    [ln lambda^2 - 7, 7], split at the peak s = ln(lambda); for
    lambda^2 <= 1 the ends cut off < e^-1000."""
    lb = math.log(lambda2)
    lo, peak, hi = lb - 7.0, 0.5 * lb, 7.0
    edges = np.concatenate([
        np.linspace(lo, peak, math.ceil(peak - lo) + 1)[:-1],
        np.linspace(peak, hi, math.ceil(hi - peak) + 1)])
    s, w = gauss_legendre(edges[:-1], edges[1:])
    return float(np.sum(w * np.exp(2.0 * s - np.exp(s) - np.exp(lb - s))))


def _density_sine_panels(p: vacuum.VacuumProfile, w: float) -> float:
    """int dkappa density(kappa) sin(w kappa)/kappa for w > 0 on
    Gauss-Legendre panels at most a quarter period of the sine wide, the
    oracle of the closed-form potential: V(w) of bare charge q is
    -q^2/(2 pi^2 w) times it.  The exponential profile's density is
    Z e^(-(lambda - x)^2/x) in x = y0 kappa, below e^-40 Z outside
    [lambda^2 e^-7, lambda + 20 + sqrt(400 + 40 lambda)] (below e^-1000 Z
    under its lower end); its panels double in width from the lower end up
    to a quarter period, through the peak of density/kappa near
    lambda^2/y0 at small lambda."""
    quarter = 0.5 * math.pi / w
    if p.kind is vacuum.ProfileKind.BOX_SHELL:
        lo, hi, doubling = p.k1, p.k2, 0
    else:
        lam = math.sqrt(p.lambda2)
        lo = p.lambda2 * math.exp(-7.0) / p.y0
        hi = (lam + 20.0 + math.sqrt(400.0 + 40.0 * lam)) / p.y0
        doubling = max(math.ceil(math.log2(quarter / lo)), 0)
    top = lo * 2.0 ** doubling
    edges = np.concatenate([lo * 2.0 ** np.arange(doubling), np.linspace(
        top, hi, math.ceil((hi - top) / quarter) + 1)])
    k, wt = gauss_legendre(edges[:-1], edges[1:])
    return float(np.sum(wt * vacuum.density(p, k) * np.sin(w * k) / k))


def check_vacuum_normalization() -> list[CriterionResult]:
    out = []
    worst = 0.0
    for lam2 in (1e-12, 1e-6, 1e-2, 1.0):
        s_integral = _lorentz_s_integral(lam2)      # one for every y0
        for y0 in (1e-3, 1.0, 10.0):
            p = vacuum.make_lorentz_profile(lam2, y0)
            q = p.norm_const * s_integral / (vacuum.FOUR_PI_SQ * y0 ** 2)
            worst = max(worst, abs(q - 1.0))
    out.append(_crit("lorentz_normalization", 0.0, worst, 5e-14))
    p = vacuum.make_box_profile(1.0, 3.0)
    out.append(_crit("box_peak_exact", 8.0 * math.pi ** 2 / 8.0, p.Z,
                     1e-15, "rel"))
    # the integrand Z k is linear, so one panel is exact
    k, w = gauss_legendre(np.array([p.k1]), np.array([p.k2]))
    box = float(np.sum(w * p.Z * k)) / vacuum.FOUR_PI_SQ
    out.append(_crit("box_normalization", 1.0, box, 1e-12))
    return out


def check_coulomb() -> list[CriterionResult]:
    out = []
    rs = np.geomspace(1.0, 100.0, 12)
    v = coulomb.potential(vacuum.make_box_profile(1e-5, 1e4), 1.0, rs)
    worst = float(np.max(np.abs(v / (-1.0 / (4 * math.pi * rs)) - 1.0)))
    out.append(_crit("box_coulomb_recovery", 0.0, worst, 1e-3))
    lorentz = vacuum.make_lorentz_profile(1e-49, 1e-38 / PLANCK_LENGTH_KM)
    pot = lambda r: coulomb.potential(lorentz, 1.0, r)
    bracket = coulomb.expand_bracket(pot, 1e47)
    r0 = coulomb.sign_change_radius(pot, bracket)
    out.append(_crit("lorentz_first_zero_au", 2560.2,
                     r0 * PLANCK_LENGTH_KM / AU_KM, 0.005, "rel"))
    return out


def check_yukawa_bound() -> list[CriterionResult]:
    lam_ratio = 3e5 / PLANCK_LENGTH_KM
    r_grid = np.geomspace(1e-3, 1e9, 600) / PLANCK_LENGTH_KM
    ok = coulomb.yukawa_bound_check(2.0 / lam_ratio, lam_ratio, r_grid)
    return [_crit("yukawa_bound_k1=2", 1.0, 1.0 if ok else 0.0, 0.5)]


def _unitarity_draws() -> np.ndarray:
    """1000 rows (alpha, L, k) drawn uniformly from [0.01, 50] x [0.1, 5] x
    [0.01, 80] in one generator call (the same stream as drawing alpha, L
    and k in turn, row after row)."""
    rng = np.random.default_rng(20240817)
    return rng.uniform([0.01, 0.1, 0.01], [50.0, 5.0, 80.0], size=(1000, 3))


def check_scattering_unitarity() -> list[CriterionResult]:
    alpha, L, k = _unitarity_draws().T
    B, _, _, E = cavity.scattering_coeffs_batch(k, alpha, alpha, L)
    worst = float(np.max(np.abs(np.abs(B) ** 2 + np.abs(E) ** 2 - 1.0)))
    out = [_crit("unitarity", 0.0, worst, 1e-13)]
    # free barriers at k = 5, nearly Dirichlet ones on the resonance
    # k = 6 pi, unit barriers at k = 1e5: one batch of three
    strength = np.array([0.0, 1e6, 1.0])
    B, C, D, E = cavity.scattering_coeffs_batch(
        [5.0, 2.0 * math.pi * 3.0, 1e5], strength, strength, 1.0)
    out.append(_crit("transparency_alpha=0", 0.0,
                     float(abs(B[0]) + abs(D[0]) + abs(C[0] - 1)
                           + abs(E[0] - 1)), 1e-15))
    out.append(_crit("dirichlet_interior_half", 0.5, float(abs(C[1])), 1e-4))
    out.append(_crit("dirichlet_transmission_zero", 0.0, float(abs(E[1])),
                     1e-4))
    out.append(_crit("high_k_transparent", 1.0, float(abs(E[2])), 1e-11))
    return out


def check_delta_calculus() -> list[CriterionResult]:
    out = []
    worst = 0.0
    for fam in (deltaseq.DeltaFamily(deltaseq.DeltaShape.LAMBDA_TRIANGLE, 64),
                deltaseq.DeltaFamily(deltaseq.DeltaShape.M_SHAPE, 64, a=2.0),
                deltaseq.DeltaFamily(deltaseq.DeltaShape.SHIFTED_PAIR, 10000,
                                     j=1)):
        # the profile is linear between its breakpoints, which include the
        # ends of its support, so one panel per piece is exact
        edges = np.array(fam.breakpoints)
        k, w = gauss_legendre(edges[:-1], edges[1:])
        v = float(np.sum(w * deltaseq.eval_family(fam, k)))
        worst = max(worst, abs(v - 1.0))
    out.append(_crit("unit_normalization", 0.0, worst, 1e-14))

    step = lambda k: np.where(k > 0, 1.0, np.where(k == 0, 0.5, 0.0))
    for name, fam in (("lambda", deltaseq.DeltaFamily(
            deltaseq.DeltaShape.LAMBDA_TRIANGLE, 1)),
            ("shifted", deltaseq.DeltaFamily(
                deltaseq.DeltaShape.SHIFTED_PAIR, 1, j=1))):
        v = deltaseq.filtering_integral(fam, step)
        out.append(_crit(f"step_filter_{name}", 0.5, v, 1e-14))

    n = 4
    v0 = deltaseq.fourier_integral(
        deltaseq.DeltaFamily(deltaseq.DeltaShape.LAMBDA_TRIANGLE, n))
    v1 = deltaseq.fourier_integral(
        deltaseq.DeltaFamily(deltaseq.DeltaShape.SHIFTED_PAIR, n, j=1))
    out.append(_crit("transform_integral_peaked", float(n), v0, 1e-14, "rel"))
    out.append(_crit("transform_integral_vanishing", 0.0, v1, 2e-14))

    one = lambda k: 1.0
    sq_m = deltaseq.product_filtering_integral(
        [deltaseq.DeltaFamily(deltaseq.DeltaShape.SHIFTED_PAIR, 1, j=1)] * 2,
        one)
    out.append(_crit("squared_m_shaped", 0.0,
                     sq_m.value if not sq_m.is_divergent else math.nan, 1e-14))
    sq_l = deltaseq.product_filtering_integral(
        [deltaseq.DeltaFamily(deltaseq.DeltaShape.LAMBDA_TRIANGLE, 1)] * 2,
        one)
    out.append(_crit("squared_lambda_divergent", 1.0,
                     1.0 if sq_l.is_divergent else 0.0, 0.5))
    return out


# _occupation_law's Taylor series: its highest power of G, and the largest
# column sum of |G| it accepts, where that term is 2^24/24! < 3e-17
_SERIES_TERMS = 24
_SERIES_NORM = 2.0


def _occupation_law(probs, alphas, N: int, n_max: int) -> np.ndarray:
    """Law of the total occupation of N sites in the coherent state of
    amplitudes alphas, each site's ladder L cut at n_max: the state is a
    product of site vectors, so it is the N-fold convolution of one site's
    sum_w p_w |exp(G_w) e_0|^2, G_w = (alpha_w L^+ - conj(alpha_w) L)/
    sqrt(N).  exp(G_w) e_0 is the Taylor series of v_k = G_w v_(k-1)/k
    from v_0 = e_0 to k = 24, added from the smallest term up; DomainError
    where a column sum of |G_w| passes 2, past which the terms left out are
    not negligible.  The exponential of the truncated ladder, not the
    Poisson formula."""
    ladder = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1) / math.sqrt(N)
    generators = np.array([a * ladder.T - np.conj(a) * ladder
                           for a in alphas])
    norm = float(np.max(np.sum(np.abs(generators), axis=1)))
    if norm > _SERIES_NORM:
        raise DomainError(f"the one-site series needs column sums of |G| "
                          f"<= {_SERIES_NORM:g}; got {norm:g}")
    terms = [np.zeros((len(alphas), n_max + 1, 1), dtype=complex)]
    terms[0][:, 0] = 1.0
    for k in range(1, _SERIES_TERMS + 1):
        terms.append(generators @ terms[-1] / k)
    columns = np.abs(sum(reversed(terms))[:, :, 0]) ** 2
    site = np.asarray(probs) @ columns
    law = site
    for _ in range(N - 1):
        law = np.convolve(law, site)
    return law


def check_statistics_oracle() -> list[CriterionResult]:
    probs = [0.35, 0.65]
    alphas = [0.45, 0.31]
    ws = [abs(a) ** 2 for a in alphas]
    # at n_max = 10 cutting the ladder moves p(n, 4) by less than 1e-16
    brute = _occupation_law(probs, alphas, 4, n_max=10)[:7]
    exact = oscillator.renyi_poisson_pmf(probs, ws, 4, range(7))
    worst = float(np.max(np.abs(brute - exact)))
    out = [_crit("pmf_vs_brute_force", 0.0, worst, 1e-14)]
    renyi = oscillator.renyi_poisson_pmf(probs, [0.7, 0.3], 10000,
                                         range(6)).tolist()
    gap = max(abs(renyi[n]
                  - oscillator.shannon_poisson_pmf(probs, [0.7, 0.3], n))
              for n in range(6))
    out.append(_crit("shannon_gap_at_1e4", 0.0, gap, 2.0 / 10000.0))
    return out


def check_mirror_identity() -> list[CriterionResult]:
    """The self-energy change at a plane, mirror_term (half the closed-form
    potential V(2 L)), against the mode sum -q^2/(8 pi^2 L) int dkappa
    density sin(2 L kappa)/kappa taken on fixed panels."""
    out = []
    q = 1.1
    for name, prof in (("box", vacuum.make_box_profile(1.0, 3.0)),
                       ("lorentz", vacuum.make_lorentz_profile(0.01, 0.5))):
        worst = 0.0
        for L in (0.7, 2.0):
            lhs = oscillator.mirror_term(prof, q, L)
            rhs = -q ** 2 / (8.0 * math.pi ** 2 * L) \
                * _density_sine_panels(prof, 2.0 * L)
            worst = max(worst, abs(lhs - rhs))
        out.append(_crit(f"mirror_identity_{name}", 0.0, worst, 1e-14))
    return out


ALL_CHECKS = (
    check_sign_change_constant,
    check_lambert_resonances,
    check_casimir_endpoints,
    check_casimir_1p1_oracle,
    check_casimir_3p1,
    check_vacuum_normalization,
    check_coulomb,
    check_yukawa_bound,
    check_scattering_unitarity,
    check_delta_calculus,
    check_statistics_oracle,
    check_mirror_identity,
)


def run_validation() -> list[CriterionResult]:
    results: list[CriterionResult] = []
    for check in ALL_CHECKS:
        results.extend(check())
    return results
