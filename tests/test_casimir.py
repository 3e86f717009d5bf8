import math
import warnings

import numpy as np
import pytest

from vacuumlab.casimir import (PressureBreakdown, euler_maclaurin_gap,
                               pressure_1p1_quad, pressure_1p1_series,
                               pressure_3p1, pressure_dirichlet_comb,
                               pressure_euler_maclaurin, reflection_coeff,
                               stairs_gap, to_physical_pressure)
from vacuumlab.constants import PLANCK_LENGTH_M, PRESSURE_UNIT_PA
from vacuumlab.errors import DomainError
from vacuumlab.vacuum import ProfileKind, VacuumProfile, make_lorentz_profile


class TestReflectionCoefficient:
    def test_modulus_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            k = rng.uniform(0.01, 100.0)
            alpha = rng.uniform(0.01, 100.0)
            r = reflection_coeff(k, alpha)
            assert abs(r) == pytest.approx(
                1.0 / (1.0 + 4.0 * k * k / (alpha * alpha)), rel=1e-12)
            assert abs(r) < 1.0

    def test_limits(self):
        assert reflection_coeff(1e-6, 100.0) == pytest.approx(1.0, abs=1e-6)
        assert abs(reflection_coeff(1e5, 1.0)) < 1e-9


class TestOneDimensionalPressure:
    @pytest.mark.parametrize("alpha", [10.0, 100.0, 1000.0])
    @pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
    def test_series_equals_quadrature(self, alpha, L):
        ps = pressure_1p1_series(alpha, L)
        pq = pressure_1p1_quad(alpha, L)
        assert abs(ps - pq) / abs(ps) < 1e-11

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
            w = reflection_coeff(k, alpha) * np.exp(2j * k * L)
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
            assert route(1.0 / L, L) * L * L == pytest.approx(ref, rel=1e-14)

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
            pressure_1p1_series(1e-70, 1.0), rel=1e-12, abs=0.0)
        assert pressure_1p1_quad(5e75, 2.0) == pytest.approx(
            -math.pi / (24.0 * 4.0), rel=1e-11, abs=0.0)

    def test_quadrature_no_integration_warning(self):
        # alpha L = 2e7 used to end in an IntegrationWarning after 85 s
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pq = pressure_1p1_quad(1e6, 20.0)
        ps = pressure_1p1_series(1e6, 20.0)
        assert abs(pq - ps) <= 1e-11 * abs(ps)

    @pytest.mark.parametrize("scale", [1e-100, 1e-10, 1e10, 1e100])
    def test_quadrature_depends_on_alpha_L_only(self, scale):
        # p(alpha, L) = f(alpha L)/L^2; the contour integral lost 1.6e-4 at
        # L = 1e-10 when it was taken in a dimensional variable
        p1 = pressure_1p1_quad(1.0, 1.0)
        assert pressure_1p1_quad(scale, 1.0 / scale) / scale ** 2 \
            == pytest.approx(p1, rel=1e-14, abs=0.0)

    def test_quadrature_work_grows_with_log_alpha_L(self, monkeypatch):
        # 24 peaks at any alpha L (the old grid took in 0.3 alpha L/pi of
        # them); only their grading deepens, by the same count per decade,
        # as the first peaks narrow
        from vacuumlab import casimir

        nodes = []
        density = casimir._mode_density

        def counting(centre, d, alpha, L):
            nodes.append(d.size)
            return density(centre, d, alpha, L)

        monkeypatch.setattr(casimir, "_mode_density", counting)
        work = {}
        for alpha_L in (1e4, 1e7, 1e76):
            nodes.clear()
            pressure_1p1_quad(alpha_L, 1.0)
            work[alpha_L] = sum(nodes)
        per_decade = (work[1e7] - work[1e4]) / 3.0
        assert work[1e7] < 2.5 * work[1e4]
        assert work[1e76] - work[1e7] < 69 * 1.1 * per_decade


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


class TestEulerMaclaurinGap:
    def test_linear_function_exact(self):
        gap, _ = euler_maclaurin_gap(lambda x: x, 12)
        assert gap == pytest.approx(0.0, abs=1e-10)

    def test_quadratic(self):
        gap, pred = euler_maclaurin_gap(lambda x: x * x, 10)
        assert gap == pytest.approx(10.0 / 6.0, abs=1e-9)
        assert pred == pytest.approx(10.0 / 6.0, abs=1e-6)

    def test_exponential_two_orders(self):
        gap, pred = euler_maclaurin_gap(lambda x: math.exp(-x), 30,
                                        derivative_orders=2)
        assert gap == pytest.approx(pred, abs=1e-4)


class TestPressure3p1:
    def test_leading_term_dominates_at_fine_spacing(self):
        Z = 1.7
        prof = VacuumProfile(ProfileKind.LORENTZ_EXP, lambda2=0.0, y0=1e-6,
                             Z=Z, norm_const=Z)
        bd = pressure_3p1(prof, 1.0)
        assert bd.total / (-Z * math.pi ** 2 / 240.0) == pytest.approx(
            1.0, abs=1e-6)

    def test_y0_correction_series(self):
        Z, y0 = 1.7, 0.01
        prof = VacuumProfile(ProfileKind.LORENTZ_EXP, lambda2=0.0, y0=y0,
                             Z=Z, norm_const=Z)
        bd = pressure_3p1(prof, 1.0)
        pred = Z * (math.pi ** 4 * y0 ** 2 / 3024.0
                    - math.pi ** 6 * y0 ** 4 / 57600.0
                    + math.pi ** 8 * y0 ** 6 / 1330560.0)
        assert bd.y0_corrections == pytest.approx(pred, rel=1e-10)
        assert bd.y0_corrections > 0.0

    def test_breakdown_additivity(self):
        prof = make_lorentz_profile(1e-4, 0.05)
        bd = pressure_3p1(prof, 1.0)
        recon = bd.leading + bd.y0_corrections + bd.lambda2_correction
        assert bd.total == pytest.approx(recon, rel=1e-12)

    def test_direct_and_split_paths_agree(self):
        Z, b = 1.7, 1e-6
        for y0 in (0.05, 0.09):
            prof = VacuumProfile(ProfileKind.LORENTZ_EXP, lambda2=b, y0=y0,
                                 Z=Z, norm_const=Z)
            bd = pressure_3p1(prof, 1.0)  # direct route (x >= 0.04)
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
            prof = make_lorentz_profile(b, y0)
            direct, split = (pressure_3p1(prof, L).total * L ** 4
                             for L in (math.pi * y0 / (0.04 * (1 + 1e-9)),
                                       math.pi * y0 / (0.04 * (1 - 1e-9))))
            assert direct == pytest.approx(split, rel=5e-8, abs=0)

    def test_z_linearity(self):
        p1 = VacuumProfile(ProfileKind.LORENTZ_EXP, lambda2=1e-4, y0=0.05,
                           Z=1.0, norm_const=1.0)
        p2 = VacuumProfile(ProfileKind.LORENTZ_EXP, lambda2=1e-4, y0=0.05,
                           Z=3.7, norm_const=3.7)
        assert pressure_3p1(p2, 1.0).total == pytest.approx(
            3.7 * pressure_3p1(p1, 1.0).total, rel=1e-9)

    def test_planck_scale_lambda_correction_negligible(self):
        y0 = 1e-38 / (PLANCK_LENGTH_M * 1e-3)
        L = 1e-12 / (PLANCK_LENGTH_M * 1e-3)  # one nanometer
        prof = VacuumProfile(ProfileKind.LORENTZ_EXP, lambda2=1e-49, y0=y0,
                             Z=1.0, norm_const=1.0)
        bd = pressure_3p1(prof, L)
        assert abs(bd.lambda2_correction) < 1e-10 * abs(bd.leading)

    def test_expansion_regime_enforced(self):
        prof = make_lorentz_profile(1e-4, 1.0)
        with pytest.raises(DomainError):
            pressure_3p1(prof, 2.0)  # y0/L = 0.5

    def test_large_lambda2_at_fine_spacing_rejected(self):
        # x = pi y0/L = 3.1e-4 < 0.04: the path that drops the O(b^2) terms,
        # which are 3e-5 of the total at b = 1e-4
        for lambda2 in (0.5, 1e-5):
            prof = make_lorentz_profile(lambda2, 1e-4)
            with pytest.raises(DomainError):
                pressure_3p1(prof, 1.0)

    def test_largest_lambda2_at_fine_spacing_accepted(self):
        bd = pressure_3p1(make_lorentz_profile(1e-6, 1e-4), 1.0)
        assert math.isfinite(bd.total) and bd.total < 0.0


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
    def test_zero_and_sign(self):
        assert to_physical_pressure(0.0) == 0.0
        assert to_physical_pressure(-1.0) < 0.0

    def test_planck_factors_cancel(self):
        # -pi^2/(240 L^4) with L = L0/ell must equal -hbar c pi^2/(240 L0^4)
        L0 = 1e-6  # one micrometre
        L = L0 / PLANCK_LENGTH_M
        dimensionless = -math.pi ** 2 / (240.0 * L ** 4)
        expected = -PRESSURE_UNIT_PA * PLANCK_LENGTH_M ** 4 \
            * math.pi ** 2 / (240.0 * L0 ** 4)
        assert to_physical_pressure(dimensionless) == pytest.approx(
            expected, rel=1e-12)

    def test_breakdown_is_frozen_dataclass(self):
        bd = PressureBreakdown(1.0, 2.0, 3.0, 4.0, 5)
        with pytest.raises(AttributeError):
            bd.total = 0.0
