import functools
import math
import warnings

import numpy as np
import pytest

from vacuumlab.casimir import (PressureBreakdown, pressure_1p1_quad,
                               pressure_1p1_series, pressure_3p1,
                               pressure_dirichlet_comb,
                               pressure_euler_maclaurin, stairs_gap)
from vacuumlab.constants import PLANCK_LENGTH_M, PRESSURE_UNIT_PA
from vacuumlab.errors import DomainError
from vacuumlab.vacuum import make_lorentz_profile


class TestOneDimensionalPressure:
    @pytest.mark.parametrize("alpha", [10.0, 100.0, 1000.0])
    @pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
    def test_series_equals_quadrature(self, alpha, L):
        ps = pressure_1p1_series(alpha, L)
        pq = pressure_1p1_quad(alpha, L)
        assert abs(ps - pq) / abs(ps) < 2e-14

    def test_transparent_limit(self):
        assert abs(pressure_1p1_series(1e-4, 1.0)) < 1e-7

    def test_pressure_negative(self):
        for alpha in (1.0, 50.0):
            assert pressure_1p1_series(alpha, 1.0) < 0.0

    def test_alpha_sweep_approaches_smooth_endpoint(self):
        ratios = [pressure_1p1_series(a, 1.0) * (-24.0 / math.pi)
                  for a in (10.0, 100.0, 1000.0, 10000.0)]
        assert all(ratios[i] < ratios[i + 1] for i in range(3))
        assert ratios[-1] == pytest.approx(1.0, abs=1e-3)
        # distinctly away from the comb endpoint -pi/(16 L^2)
        assert abs(ratios[-1] * 24.0 / 16.0 - 1.0) > 0.3

    def test_peak_width_shrinks_with_alpha(self):
        # the quasi-resonant structure of the mode-density integrand near
        # k = pi/L narrows like 1/alpha
        def integrand(k, alpha, L=1.0):
            # single-barrier reflection r(k) = 1/(1 - 2ik/alpha)^2
            w = np.exp(2j * k * L) / (1.0 - 2j * k / alpha) ** 2
            return k / math.pi * (w / (1.0 - w)).real

        def width(alpha, level=1.25):
            k0 = math.pi
            base = integrand(k0, alpha)
            lo, hi = 1e-8, 0.5
            for _ in range(60):
                mid = math.sqrt(lo * hi)
                if integrand(k0 + mid, alpha) / base < level:
                    lo = mid
                else:
                    hi = mid
            return lo

        w100, w1000 = width(100.0), width(1000.0)
        assert w100 / w1000 == pytest.approx(10.0, rel=0.3)

    def test_domain(self):
        with pytest.raises(DomainError):
            pressure_1p1_series(-1.0, 1.0)
        with pytest.raises(DomainError):
            pressure_1p1_quad(1.0, 0.0)

    @pytest.mark.parametrize("route", [pressure_1p1_series,
                                       pressure_1p1_quad])
    def test_gap_keeps_the_pressure_scale_a_double(self, route):
        # alpha L = 1 throughout; 1/L^2 must stay within 1e-300..1e300
        for L in (1e-300, 1e-151, 1e151, 1e300):
            with pytest.raises(DomainError):
                route(1.0 / L, L)
        ref = route(1.0, 1.0)
        for L in (1e-150, 1e150):
            assert route(1.0 / L, L) * L * L == pytest.approx(ref, rel=1e-14,
                                                              abs=0)

    @pytest.mark.parametrize("alpha, L", [(3e-71, 1.0), (1e-69, 1e-3),
                                          (1e75, 20.0), (1e80, 1.0)])
    def test_quadrature_domain(self, alpha, L):
        # u^4 in the integrand leaves the double range past either end
        with pytest.raises(DomainError):
            pressure_1p1_quad(alpha, L)

    def test_quadrature_at_the_domain_ends(self):
        # weak barriers: the series; the Dirichlet limit -pi/(24 L^2) holds
        # to 1/(alpha L), far below rounding at alpha L = 1e76
        assert pressure_1p1_quad(1e-70, 1.0) == pytest.approx(
            pressure_1p1_series(1e-70, 1.0), rel=2e-14, abs=0.0)
        assert pressure_1p1_quad(5e75, 2.0) == pytest.approx(
            -math.pi / (24.0 * 4.0), rel=2e-14, abs=0.0)

    def test_quadrature_no_integration_warning(self):
        # alpha L = 2e7 used to end in an IntegrationWarning after 85 s
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pq = pressure_1p1_quad(1e6, 20.0)
        ps = pressure_1p1_series(1e6, 20.0)
        assert abs(pq - ps) <= 2e-14 * abs(ps)

    @pytest.mark.parametrize("scale", [1e-100, 1e-10, 1e10, 1e100])
    def test_quadrature_depends_on_alpha_L_only(self, scale):
        # p(alpha, L) = f(alpha L)/L^2; the contour integral lost 1.6e-4 at
        # L = 1e-10 when it was taken in a dimensional variable
        p1 = pressure_1p1_quad(1.0, 1.0)
        assert pressure_1p1_quad(scale, 1.0 / scale) / scale ** 2 \
            == pytest.approx(p1, rel=1e-14, abs=0.0)

    def test_quadrature_work_grows_with_log_alpha_L(self, monkeypatch):
        # one peak at any alpha L (the old grid took in 0.3 alpha L/pi of
        # them); only its grading deepens, by the same count per decade,
        # as the first peak narrows
        from vacuumlab import casimir

        nodes = []
        density = casimir._mode_density

        def counting(centre, d, alpha):
            nodes.append(d.size)
            return density(centre, d, alpha)

        monkeypatch.setattr(casimir, "_mode_density", counting)
        work = {}
        for alpha_L in (1e4, 1e7, 1e76):
            nodes.clear()
            pressure_1p1_quad(alpha_L, 1.0)
            work[alpha_L] = sum(nodes)
        per_decade = (work[1e7] - work[1e4]) / 3.0
        assert work[1e7] < 2.5 * work[1e4]
        assert work[1e76] - work[1e7] < 69 * 1.1 * per_decade

    def test_quadrature_panel_counts(self, monkeypatch):
        # cost guard: 1 panel per doubling cell around k = 0 and the first
        # peak, the contour tail past them; on the correctly rounded rule
        # more peaks or panels moved the result no more than the sum's
        # rounding
        from vacuumlab import casimir

        panels = []
        peak_panels = casimir._peak_panels

        def counting(width, left, right):
            owner, lo, hi = peak_panels(width, left, right)
            panels.append(len(lo))
            return owner, lo, hi

        monkeypatch.setattr(casimir, "_peak_panels", counting)
        for alpha_L, count in ((1e4, 70), (1e76, 1028)):
            pressure_1p1_quad(alpha_L, 1.0)
            assert panels.pop() == count
        # validate's 10 pairs, in its one array call
        pairs = [(alpha, L) for alpha in (10.0, 100.0, 1000.0)
                 for L in (0.5, 1.0, 2.0)] + [(1e4, 1.0)]
        pressure_1p1_quad(*np.array(pairs).T)
        assert panels.pop() == 473

    def test_float_call_has_the_bits_of_an_array_call(self):
        # validate's grid and both ends of the domain, in one array
        pairs = [(alpha, L) for alpha in (10.0, 100.0, 1000.0)
                 for L in (0.5, 1.0, 2.0)] + [(1e4, 1.0), (1e-70, 1.0),
                                              (1e76, 1.0)]
        alpha, L = np.array(pairs).T
        batch = pressure_1p1_quad(alpha, L)
        assert isinstance(batch, np.ndarray) and batch.shape == (len(pairs),)
        single = [pressure_1p1_quad(a, gap) for a, gap in pairs]
        assert all(type(p) is float for p in single)
        assert batch.tolist() == single

    def test_array_with_one_pair_out_of_domain(self):
        for bad in ((1e80, 1.0), (1.0, 0.0), (1.0, 1e-300)):
            alpha, L = np.array([(10.0, 1.0), bad, (100.0, 2.0)]).T
            with pytest.raises(DomainError):
                pressure_1p1_quad(alpha, L)

    def test_validate_makes_one_quadrature_call(self, monkeypatch):
        # its 10 pairs go in one array call
        from vacuumlab import casimir, validation

        calls = []
        quad = casimir.pressure_1p1_quad

        def counting(alpha, L):
            calls.append(np.size(alpha))
            return quad(alpha, L)

        monkeypatch.setattr(casimir, "pressure_1p1_quad", counting)
        assert all(r.passed for r in validation.check_casimir_1p1_oracle())
        assert calls == [10]

    def test_quadrature_scan_against_the_series(self):
        # one array call over the whole accepted domain: alpha L
        # log-uniform in [1e-70, 1e76], L in [1e-3, 1e3], then L = 1e3 with
        # alpha L from 1e40 to 1e76, the former worst region; the series is
        # within 5.3e-16 of mpmath there.  Worst measured 6.2e-15 over 6,000
        # draws
        rng = np.random.default_rng(31)
        alpha_L = np.concatenate((10.0 ** rng.uniform(-70.0, 76.0, 30),
                                  np.logspace(40.0, 76.0, 10)))
        L = np.concatenate((10.0 ** rng.uniform(-3.0, 3.0, 30),
                            np.full(10, 1e3)))
        pq = pressure_1p1_quad(alpha_L / L, L)
        ps = np.array([pressure_1p1_series(a, gap)
                       for a, gap in zip((alpha_L / L).tolist(), L.tolist())])
        assert np.max(np.abs(pq - ps) / np.abs(ps)) <= 2e-14

    def test_contour_tail_matches_mpmath(self):
        # the fixed rule past K against 20-digit tanh-sinh on the same
        # contour k = K + ix at L = 1; the phase is the double 2K the
        # library forms, whose rounding (amplified by K, between pi and
        # 3 pi/2) belongs to the start of the contour, not to the rule
        mp = pytest.importorskip("mpmath")
        from vacuumlab.casimir import _PEAKS, _contour_tail, _peak_positions

        for alpha in np.logspace(-70, 76, 9):
            k_m = _peak_positions(alpha, _PEAKS + 1)
            K = float(0.5 * (k_m[-2] + k_m[-1]))
            with mp.workdps(20):
                phase = mp.expj(2.0 * K)
                a = mp.mpf(alpha)

                def f(x):
                    k = mp.mpc(K, x)
                    w = phase * mp.exp(-2 * x) / (1 - 2j * k / a) ** 2
                    return mp.re(1j * k * w / (1 - w))

                # scaled to order 1: mpmath stops on an absolute estimate
                scale = abs(f(0))
                ref = float(scale * mp.quad(lambda x: f(x) / scale,
                                            [0, 2, 8, 40]) / mp.pi)
            p = pressure_1p1_quad(alpha, 1.0)
            assert abs(_contour_tail(K, alpha) - ref) <= 1e-14 * abs(p)


class TestDirichletEndpoints:
    def test_comb_midpoint_value(self):
        for L in (0.5, 1.0, 2.0):
            for J in (5, 50, 500):
                v = pressure_dirichlet_comb(L, math.pi / (2 * L), J)
                assert v == pytest.approx(-math.pi / (16 * L * L), rel=1e-14)

    def test_comb_off_midpoint_grows_linearly_in_J(self):
        L, kappa = 1.0, math.pi / 4.0
        v5 = pressure_dirichlet_comb(L, kappa, 5)
        v50 = pressure_dirichlet_comb(L, kappa, 50)
        v500 = pressure_dirichlet_comb(L, kappa, 500)
        assert (v500 - v50) / (v50 - v5) == pytest.approx(10.0, rel=1e-12)

    def test_comb_stairs_case(self):
        assert pressure_dirichlet_comb(math.pi, 0.5, 7) == pytest.approx(
            -1.0 / (16.0 * math.pi), rel=1e-14)

    def test_euler_maclaurin_values(self):
        assert pressure_euler_maclaurin(1.0) == pytest.approx(-math.pi / 24)
        assert pressure_euler_maclaurin(math.pi) == pytest.approx(
            -1.0 / (24.0 * math.pi))

    def test_quarter_scaling(self):
        assert pressure_euler_maclaurin(2.0) == pytest.approx(
            pressure_euler_maclaurin(1.0) / 4.0, rel=1e-14)

    def test_kappa_domain(self):
        with pytest.raises(DomainError):
            pressure_dirichlet_comb(1.0, 4.0, 5)


class TestPressure3p1:
    def test_leading_term_dominates_at_fine_spacing(self):
        Z = 1.7
        bd = pressure_3p1(Z, 0.0, 1e-6, 1.0)
        assert bd.total / (-Z * math.pi ** 2 / 240.0) == pytest.approx(
            1.0, abs=1e-6)

    def test_y0_correction_series(self):
        Z, y0 = 1.7, 0.01
        bd = pressure_3p1(Z, 0.0, y0, 1.0)
        pred = Z * (math.pi ** 4 * y0 ** 2 / 3024.0
                    - math.pi ** 6 * y0 ** 4 / 57600.0
                    + math.pi ** 8 * y0 ** 6 / 1330560.0)
        assert bd.y0_corrections == pytest.approx(pred, rel=1e-10, abs=0)
        assert bd.y0_corrections > 0.0

    def test_breakdown_additivity(self):
        prof = make_lorentz_profile(1e-4, 0.05)
        bd = pressure_3p1(prof.Z, 1e-4, 0.05, 1.0)
        recon = bd.leading + bd.y0_corrections + bd.lambda2_correction
        assert bd.total == pytest.approx(recon, rel=1e-12)

    def test_direct_and_split_paths_agree(self):
        Z, b = 1.7, 1e-6
        for y0 in (0.05, 0.09):
            bd = pressure_3p1(Z, b, y0, 1.0)  # direct route (x >= 0.04)
            from vacuumlab.casimir import _mode_sum_defect_series
            x = math.pi * y0
            split = bd.leading \
                + Z * math.pi / (2.0 * y0) * _mode_sum_defect_series(x) \
                + Z * b * stairs_gap(x) / (2.0 * math.pi ** 2 * y0 ** 4)
            assert bd.total == pytest.approx(split, rel=1e-7)

    def test_paths_agree_across_the_seam(self):
        # x = pi y0/L just above 0.04 takes the direct mode sum, just below
        # it the analytic split; L^4 total takes out the leading L^-4
        # scaling.  The bound is the direct path's cancellation floor: its
        # continuum term is about 240/x^4 times the total
        y0 = 1e-3
        for b in (1e-12, 1e-8, 1e-6):
            Z = make_lorentz_profile(b, y0).Z
            direct, split = (pressure_3p1(Z, b, y0, L).total * L ** 4
                             for L in (math.pi * y0 / (0.04 * (1 + 1e-9)),
                                       math.pi * y0 / (0.04 * (1 - 1e-9))))
            assert direct == pytest.approx(split, rel=5e-8, abs=0)

    def test_z_linearity(self):
        assert pressure_3p1(3.7, 1e-4, 0.05, 1.0).total == pytest.approx(
            3.7 * pressure_3p1(1.0, 1e-4, 0.05, 1.0).total, rel=1e-9)

    def test_planck_scale_lambda_correction_negligible(self):
        y0 = 1e-38 / (PLANCK_LENGTH_M * 1e-3)
        L = 1e-12 / (PLANCK_LENGTH_M * 1e-3)  # one nanometer
        bd = pressure_3p1(1.0, 1e-49, y0, L)
        assert abs(bd.lambda2_correction) < 1e-10 * abs(bd.leading)

    def test_terms_used_counts_the_modes_summed(self):
        # the direct path sums j x up to just past 45 + 2 lambda
        for b, y0 in ((1e-2, 0.05), (1e-12, 0.02), (1.0, 0.09)):
            x = math.pi * y0
            reach = 45.0 + 2.0 * math.sqrt(b)
            terms = pressure_3p1(1.0, b, y0, 1.0).terms_used
            assert (terms - 1) * x <= reach < terms * x
        # the analytic path (x < 0.04) sums none, at any L
        for b, y0, L in ((1e-12, 1e-4, 1.0), (1e-49, 6.19e-4, 6.19e22),
                         (0.0, 1e-6, 1.0)):
            assert pressure_3p1(1.0, b, y0, L).terms_used == 0

    def test_negative_lambda2_is_out_of_domain(self):
        for b in (-1e-12, -1.0, math.nan):
            with pytest.raises(DomainError):
                pressure_3p1(1.0, b, 1e-4, 1.0)

    def test_z_outside_its_domain(self):
        for Z in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="0 < Z < inf"):
                pressure_3p1(Z, 1e-12, 1e-4, 1.0)

    def test_expansion_regime_enforced(self):
        with pytest.raises(DomainError):
            pressure_3p1(1.0, 1e-4, 1.0, 2.0)  # y0/L = 0.5

    def test_large_lambda2_at_fine_spacing_rejected(self):
        # x = pi y0/L = 3.1e-4 < 0.04: the path that drops the O(b^2) terms,
        # which are 3e-5 of the total at b = 1e-4
        for lambda2 in (0.5, 1e-5):
            with pytest.raises(DomainError):
                pressure_3p1(1.0, lambda2, 1e-4, 1.0)

    def test_largest_lambda2_at_fine_spacing_accepted(self):
        bd = pressure_3p1(make_lorentz_profile(1e-6, 1e-4).Z, 1e-6, 1e-4,
                          1.0)
        assert math.isfinite(bd.total) and bd.total < 0.0

    def test_cancellation_past_rounding_rejected(self):
        # x = 0.2765, lambda^2 = 67.89: the mode sum is 3e13 times the true
        # total +8.1e-20, and the direct sum returned -6.2e-11
        y0 = 0.0099
        with pytest.raises(DomainError):
            pressure_3p1(1.0, 67.89, y0, math.pi * y0 / 0.2765)

    def test_far_tail_matches_mpmath(self):
        # the last entry of the tail table is the far tail alone,
        # int_X^inf e^{-t - b/t} dt; mpmath integrates it scaled by e^X
        mp = pytest.importorskip("mpmath")
        from vacuumlab.casimir import _upper_tail_table

        for X in (45.0 + 1e-9, 45.16, 45.32):
            for b in (1e-12, 1e-6, 1e-2, 1.0, 10.0, 67.89, 170.0):
                tail = _upper_tail_table(np.array([X - 0.1, X]), b)[-1]
                with mp.workdps(30):
                    ref = mp.exp(-X) * mp.quad(
                        lambda s: mp.exp(-s - b / (X + s)),
                        [0, 1, 4, 16, 64, mp.inf])
                assert abs(tail - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("x, lambda2, y0", [
        (0.04, 1e-12, 1e-3), (0.07, 1e-4, 0.3), (0.12, 0.01, 2.0),
        (0.18, 0.3, 1e-2), (0.25, 2.0, 10.0), (0.314, 5.0, 50.0)])
    def test_direct_path_matches_mpmath(self, x, lambda2, y0):
        # within 1e-15 of the mode sum, which the total undercuts by up to
        # the 1e9 the guard allows
        L = math.pi * y0 / x
        total, mode_sum = mp_pressure_3p1(1.0, y0, lambda2, L)
        assert abs(pressure_3p1(1.0, lambda2, y0, L).total - total) \
            <= 1e-15 * abs(mode_sum)


@functools.cache
def _mp_gauss_legendre(n):
    """n-point Gauss-Legendre nodes and weights on [-1, 1] to 35 digits."""
    mp = pytest.importorskip("mpmath")
    rule = []
    with mp.workdps(35):
        for start in np.polynomial.legendre.leggauss(n)[0]:
            x = mp.findroot(lambda t: mp.legendre(n, t), mp.mpf(start))
            slope = n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) \
                / (x * x - 1)
            rule.append((x, 2 / ((1 - x * x) * slope * slope)))
    return rule


def mp_pressure_3p1(Z, y0, b, L):
    """(total, mode sum) of the 3+1 pressure's direct form, b > 0, in 25
    digits.  The mode sum is taken by parts,

        sum_j j^2 Gamma(1, j x, b) = sum_j S(j) int_{jx}^{(j+1)x} e^{-t-b/t} dt

    with S(j) = j(j+1)(2j+1)/6 and x = pi y0/L, each cell on 12-point
    Gauss-Legendre out to j x = 70 + 2 sqrt(b), past which the summand is
    below e^-70 of its peak; 20 points on each half cell in 40 digits
    moved it by 1.2e-25 at most at four points.  The continuum is
    (Z/(6 pi^2 y0^4)) 2 b^2 K_4(2 sqrt(b))."""
    mp = pytest.importorskip("mpmath")
    rule = _mp_gauss_legendre(12)
    with mp.workdps(25):
        Z, y0, b, L = (mp.mpf(v) for v in (Z, y0, b, L))
        x = mp.pi * y0 / L
        h = x / 2
        cells = []
        for j in range(1, int((70 + 2 * mp.sqrt(b)) / x) + 1):
            c = j * x + h
            cell = h * mp.fsum(w * mp.exp(-(c + h * u) - b / (c + h * u))
                               for u, w in rule)
            cells.append(j * (j + 1) * (2 * j + 1) * cell / 6)
        mode_sum = Z * mp.pi / (2 * L ** 3 * y0) * mp.fsum(cells)
        continuum = Z / (6 * mp.pi ** 2 * y0 ** 4) \
            * 2 * b ** 2 * mp.besselk(4, 2 * mp.sqrt(b))
        return mode_sum - continuum, mode_sum


def mp_stairs_gap(h):
    """40-digit reference for stairs_gap: the zeta-regularized
    Euler-Maclaurin series h^3 zeta(3)/(4 pi^2) - sum_k a_k zeta(-k) h^(k+1),
    a_k = (-1)^(k-1)/((k-2)(k-2)!), run to k = 59 with mpmath's zeta."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        h = mp.mpf(h)
        total = h ** 3 * mp.zeta(3) / (4 * mp.pi ** 2)
        for k in range(3, 60):
            total -= (-1) ** (k - 1) * mp.zeta(-k) * h ** (k + 1) \
                / ((k - 2) * mp.factorial(k - 2))
        return total


class TestStairsGap:
    def test_reference_matches_brute_force_sum(self):
        # 2/3 - sum_j h (j h)^2 E1(j h), summed by mpmath to convergence
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for h in (0.1, 0.03, 0.01):
                h = mp.mpf(h)
                brute = mp.mpf(2) / 3 - mp.nsum(
                    lambda j: h * (j * h) ** 2 * mp.e1(j * h), [1, mp.inf])
                ref = mp_stairs_gap(h)
                assert abs(brute - ref) <= mp.mpf(1e-20) * ref

    def test_crude_estimate_scale_at_planck_spacing(self):
        ref = float(mp_stairs_gap(1e-26))
        assert stairs_gap(1e-26) == pytest.approx(ref, rel=1e-14, abs=0)

    def test_direct_sum_moderate_spacing(self):
        for dx in (0.01, 0.04, math.pi / 10):
            ref = float(mp_stairs_gap(dx))
            assert stairs_gap(dx) == pytest.approx(ref, rel=1e-14, abs=0)

    def test_matches_reference_log_uniform(self):
        # derandomized: a fixed seed, h log-uniform over [1e-30, 0.32]
        rng = np.random.default_rng(6)
        hs = 10.0 ** rng.uniform(-30.0, math.log10(0.32), 200)
        for h in np.concatenate((hs, [1e-30, 0.32])):
            ref = float(mp_stairs_gap(h))
            assert stairs_gap(h) == pytest.approx(ref, rel=1e-14, abs=0)

    def test_domain(self):
        for dx in (0.0, -1e-3, 1.5):
            with pytest.raises(DomainError):
                stairs_gap(dx)

    def test_defect_shrinks_with_spacing(self):
        assert stairs_gap(1e-3) < stairs_gap(1e-2) < stairs_gap(1e-1)


class TestUnits:
    def test_planck_factors_cancel(self):
        # -pi^2/(240 L^4) with L = L0/ell must equal -hbar c pi^2/(240 L0^4)
        L0 = 1e-6  # one micrometre
        L = L0 / PLANCK_LENGTH_M
        dimensionless = -math.pi ** 2 / (240.0 * L ** 4)
        expected = -PRESSURE_UNIT_PA * PLANCK_LENGTH_M ** 4 \
            * math.pi ** 2 / (240.0 * L0 ** 4)
        assert dimensionless * PRESSURE_UNIT_PA == pytest.approx(
            expected, rel=1e-12, abs=0)

    def test_breakdown_is_frozen_dataclass(self):
        bd = PressureBreakdown(1.0, 2.0, 3.0, 4.0, 5)
        with pytest.raises(AttributeError):
            bd.total = 0.0
