import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import k0, kv, kve

from vacuumlab import casimir
from vacuumlab.errors import DomainError
from vacuumlab.specfun import gamma_from_zero, sine_integral

EULER_GAMMA = 0.5772156649015328606


def bessel_k(order, x):
    """K_order(x) for x > 0 through Gamma(order, 0, x^2/4) =
    2 (x/2)^order K_order(x)."""
    return gamma_from_zero(order, x * x / 4.0) \
        / (2.0 * (x / 2.0) ** order)


class TestSineCosineIntegrals:
    def test_si_at_zero(self):
        assert sine_integral(0.0) == 0.0

    def test_si_odd(self):
        for x in (0.3, 1.7, 12.0):
            assert sine_integral(-x) == -sine_integral(x)

    def test_si_series_small_argument(self):
        # against the Taylor series x - x^3/18 + x^5/600 - x^7/35280 + ...
        x = 0.5
        series = x - x ** 3 / 18 + x ** 5 / 600 - x ** 7 / 35280 \
            + x ** 9 / 3265920
        assert sine_integral(x) == pytest.approx(series, abs=1e-10)

    def test_si_asymptote_crossing(self):
        root = brentq(lambda x: math.pi / 2 - sine_integral(x), 1.0, math.pi)
        assert root == pytest.approx(1.92645, abs=1e-4)

    def test_derivatives_by_finite_differences(self):
        h = 1e-5
        for x in (0.7, 3.0, 11.0):
            dsi = (sine_integral(x + h) - sine_integral(x - h)) / (2 * h)
            assert dsi == pytest.approx(math.sin(x) / x, abs=1e-6)


class TestBesselK:
    def test_small_argument_k4(self):
        lam = 1e-3
        assert lam ** 4 * bessel_k(4, 2 * lam) == pytest.approx(
            3.0 - lam ** 2, abs=5e-9)

    def test_k0_integral_representation(self):
        oracle, _ = quad(lambda t: 0.5 / t * math.exp(-t - 0.25 / t),
                         0, np.inf, limit=400, epsabs=1e-14)
        assert bessel_k(0, 1.0) == pytest.approx(oracle, abs=1e-8)

    def test_k2_integral_representation(self):
        # K2(2 sqrt(b)) = (b/2) int t^-3 e^{-t-b/t} dt at b = 1
        oracle, _ = quad(lambda t: 0.5 * t ** -3 * math.exp(-t - 1.0 / t),
                         0, np.inf, limit=400, epsabs=1e-14, epsrel=1e-13)
        assert bessel_k(2, 2.0) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(0.2537597545660558, abs=1e-12)

    def test_three_term_recurrence(self):
        # K_{nu+1} = K_{nu-1} + (2 nu / x) K_nu at nu = 3, against scipy's
        # K3 on a grid
        for x in np.linspace(0.1, 20.0, 40):
            lhs = bessel_k(4, x)
            rhs = bessel_k(2, x) + (6.0 / x) * kv(3, x)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


class TestBesselK0Complex:
    # scipy's kve(0, z) = e^z K0(z), the kernel coulomb.potential_lorentz
    # calls
    def test_real_axis_matches_real_k0(self):
        assert kve(0, 1.0 + 0j).real == pytest.approx(
            math.e * k0(1.0), abs=1e-12)
        assert abs(kve(0, 1.0 + 0j).imag) < 1e-14

    def test_schwarz_reflection(self):
        z = 1.0 + 1.0j
        assert kve(0, np.conj(z)) == pytest.approx(
            np.conj(kve(0, z)), abs=1e-13)

    def test_conjugate_pair_difference_imaginary(self):
        # f(conj w) == conj f(w) exactly at the arguments
        # w = 2 lam sqrt(1 + i r/y0) of potential_lorentz, which relies on
        # it: lambda^2 up to the largest representable profile and r/y0
        # beyond the [0.1, 1e4] of the benchmarked coulomb curves
        rng = np.random.default_rng(20120101)
        lam2 = 10.0 ** rng.uniform(-12.0, math.log10(1.2e5), 20000)
        x = 10.0 ** rng.uniform(-3.0, 6.0, 20000)
        w = 2.0 * np.sqrt(lam2) * np.sqrt(1.0 + 1j * x)
        f = kve(0, w)
        g = kve(0, np.conj(w))
        assert np.array_equal(g.real, f.real)
        assert np.array_equal(g.imag, -f.imag)
        for z in w[:20]:
            assert kve(0, z.conjugate()) == kve(0, z).conjugate()

    def test_against_series_vs_quadrature_seam(self):
        # same function on both sides of |z| = 2;
        # e^z K0(z) = int_0^inf exp(-z (cosh t - 1)) dt
        for z in (1.999 + 0.1j, 2.001 + 0.1j):
            v = kve(0, z)
            oracle_re, _ = quad(
                lambda t: math.exp(-z.real * (math.cosh(t) - 1.0))
                * math.cos(z.imag * (math.cosh(t) - 1.0)), 0, 12, limit=400)
            assert v.real == pytest.approx(oracle_re, abs=1e-11)

    def test_array_input(self):
        z = np.array([[0.5 + 0.1j, 3.0 - 2.0j], [40.0 + 30.0j, 1e-3 + 0j]])
        out = kve(0, z)
        assert out.shape == z.shape
        assert out[1, 0] == kve(0, 40.0 + 30.0j)

    def test_large_argument_asymptote(self):
        # e^z K0(z) ~ sqrt(pi/(2z)) (1 - 1/(8z) + 9/(128 z^2)) for |z| >> 1
        z = 60.0 + 80.0j
        asym = np.sqrt(math.pi / (2 * z)) \
            * (1 - 1 / (8 * z) + 9 / (128 * z ** 2))
        assert abs(kve(0, z) - asym) < 1e-6 * abs(asym)


class TestGeneralizedGamma:
    # Gamma(alpha, 0, b) = int_0^inf t^(alpha-1) exp(-t - b/t) dt
    def test_against_direct_quadrature(self):
        for alpha, b in ((1, 0.3), (2, 1.5)):
            peak = math.sqrt(b)
            oracle = sum(quad(
                lambda t: t ** (alpha - 1) * math.exp(-t - b / t),
                lo, hi, limit=400, epsabs=1e-14, epsrel=1e-13)[0]
                for lo, hi in ((0, peak), (peak, np.inf)))
            assert gamma_from_zero(alpha, b) == pytest.approx(
                oracle, rel=1e-9)

    def test_domain(self):
        # b = 0 is Gamma(alpha), outside the K_alpha form; no caller asks;
        # b >= 2^56 (near 2^58, kve(0, 2 sqrt(b)) is NaN)
        for alpha, b in ((1, -0.1), (0, 0.0), (4, 0.0), (-1, 1.0),
                         (2, 2.0 ** 56), (2, math.inf), (2, math.nan)):
            with pytest.raises(DomainError):
                gamma_from_zero(alpha, b)

    def test_non_integer_order_raises(self):
        # only integer orders, on one recurrence; no caller asks for others
        for alpha in (4.5, 0.5, math.nan):
            with pytest.raises(DomainError):
                gamma_from_zero(alpha, 1.0)


class TestGammaFromZero:
    def test_small_b_keeps_log_term(self):
        # 2 sqrt(b) K1(2 sqrt(b)) = 1 + b ln b + (2 gamma - 1) b + O(b^2 ln b)
        b = 9e-7
        expect = 1 + b * math.log(b) + (2 * EULER_GAMMA - 1) * b
        assert gamma_from_zero(1, b) == pytest.approx(expect, rel=1e-10)

    def test_tiny_b_integer_order(self):
        # K4(2 sqrt(b)) overflows here; the recurrence gives Gamma(4) = 6
        assert gamma_from_zero(4, 1e-200) == 6.0


class TestBernoulli:
    def test_b2(self):
        assert casimir._BERNOULLI[2] == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_b4_recurrence_value(self):
        assert casimir._BERNOULLI[4] == pytest.approx(-1.0 / 30.0, rel=1e-15)

    def test_known_table(self):
        # casimir's B_2 .. B_20, each the double nearest the exact ratio
        mp = pytest.importorskip("mpmath")
        exact = {n: mp.bernfrac(n) for n in range(2, 21, 2)}
        assert casimir._BERNOULLI == {n: p / q for n, (p, q) in exact.items()}

    def test_second_bernoulli_polynomial_relation(self):
        # B_2(x) = x^2 - x + 1/6; the saw-shaped kernel at unit step has
        # P_2(0) = P_2(1) = B_2(0)/2 = 1/12
        b2_poly = lambda x: x * x - x + casimir._BERNOULLI[2]
        assert b2_poly(0.0) / 2.0 == pytest.approx(1.0 / 12.0, rel=1e-15)
        assert b2_poly(1.0) / 2.0 == pytest.approx(1.0 / 12.0, rel=1e-15)
