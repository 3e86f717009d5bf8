from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from vacuumlab.deltaseq import (DeltaFamily, DeltaShape, _cos_tail,
                                _panel_integral, eval_family,
                                filtering_integral, fourier, fourier_integral,
                                product_filtering_integral)
from vacuumlab.errors import DomainError, IncompatibleClasses

LAM = DeltaFamily(DeltaShape.LAMBDA_TRIANGLE, n=8)
MSH = DeltaFamily(DeltaShape.M_SHAPE, n=2, a=1.0)        # epsilon = 1/2
SP1 = DeltaFamily(DeltaShape.SHIFTED_PAIR, n=4, j=1)

TWO_PI = 2.0 * np.pi
QUAD = dict(epsabs=1e-12, epsrel=1e-10, limit=300)   # the quadpack oracles'


def step(k):
    return np.where(k > 0, 1.0, np.where(k == 0, 0.5, 0.0))


class TestEval:
    def test_origin_values(self):
        assert eval_family(LAM, 0.0) == 8.0
        assert eval_family(MSH, 0.0) == 1.0
        assert eval_family(SP1, 0.0) == 0.0

    def test_outside_support(self):
        assert eval_family(LAM, 0.2) == 0.0
        assert eval_family(MSH, 0.3) == 0.0

    def test_m_shape_zero_at_origin_any_n(self):
        for n in (1, 7, 10 ** 4):
            fam = DeltaFamily(DeltaShape.M_SHAPE, n=n, a=0.0)
            assert eval_family(fam, 0.0) == 0.0

    def test_shifted_pair_zero_at_origin_any_n(self):
        for n in (1, 9, 10 ** 4):
            for j in (1, 2, 5):
                fam = DeltaFamily(DeltaShape.SHIFTED_PAIR, n=n, j=j)
                assert eval_family(fam, 0.0) == 0.0

    def test_continuity_at_breakpoints(self):
        for fam in (LAM, MSH, SP1):
            for b in fam.breakpoints:
                lo = eval_family(fam, b - 1e-12)
                hi = eval_family(fam, b + 1e-12)
                assert lo == pytest.approx(hi, abs=1e-7)

    @pytest.mark.parametrize("fam", [
        LAM, MSH, SP1,
        DeltaFamily(DeltaShape.LAMBDA_TRIANGLE, n=10 ** 4),
        DeltaFamily(DeltaShape.M_SHAPE, n=10 ** 4, a=3.0),
        DeltaFamily(DeltaShape.SHIFTED_PAIR, n=10 ** 4, j=2),
    ])
    def test_unit_normalization(self, fam):
        lo, hi = fam.breakpoints[0], fam.breakpoints[-1]
        total, _ = quad(lambda k: eval_family(fam, k), lo, hi,
                        points=fam.breakpoints, **QUAD)
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("fam", [
        DeltaFamily(DeltaShape.LAMBDA_TRIANGLE, n=3),
        DeltaFamily(DeltaShape.LAMBDA_TRIANGLE, n=64),
        DeltaFamily(DeltaShape.M_SHAPE, n=7, a=0.5),
        DeltaFamily(DeltaShape.M_SHAPE, n=64, a=2.0),
        DeltaFamily(DeltaShape.SHIFTED_PAIR, n=3, j=2),
        DeltaFamily(DeltaShape.SHIFTED_PAIR, n=10 ** 4, j=1),
    ])
    def test_matches_where_form(self, fam):
        # the profiles written as explicit np.where branches
        def tri(k, n):
            return np.where(np.abs(k) < 1.0 / n, n - n * n * np.abs(k), 0.0)

        n, c = fam.n, fam.j / fam.n
        if fam.shape is DeltaShape.LAMBDA_TRIANGLE:
            ref = lambda k: tri(k, n)
        elif fam.shape is DeltaShape.SHIFTED_PAIR:
            ref = lambda k: 0.5 * (tri(k - c, n) + tri(-k - c, n))
        else:
            eps, a = 1.0 / n, fam.a

            def ref(k):
                k = np.abs(k)
                inner = (4.0 * k / eps) * (2.0 / eps - 1.5 * a) + a
                outer = (2.0 - 4.0 * k / eps) * (2.0 / eps - 0.5 * a)
                return np.where(k < 0.25 * eps, inner,
                                np.where(k < 0.5 * eps, outer, 0.0))
        lo, hi = fam.breakpoints[0], fam.breakpoints[-1]
        bps = np.array(fam.breakpoints)
        ks = np.concatenate([
            np.random.default_rng(7).uniform(1.5 * lo, 1.5 * hi, 2000),
            bps, np.nextafter(bps, np.inf), np.nextafter(bps, -np.inf)])
        tol = 4 * np.spacing(float(n))
        values = eval_family(fam, ks)
        assert np.max(np.abs(values - ref(ks))) <= tol
        # a float takes the array path's operations as a 0-d array
        for k, v_array in zip(ks.tolist(), values.tolist()):
            v = eval_family(fam, k)
            assert type(v) is float and v == v_array


class TestFourier:
    def test_triangle_origin_value(self):
        assert fourier(LAM, 0.0) == pytest.approx(1 / TWO_PI, rel=1e-12)
        assert fourier(LAM, 1e-12) == pytest.approx(1 / TWO_PI, rel=1e-9)

    def test_triangle_bounded(self):
        xs = np.linspace(-500, 500, 4001)
        vals = fourier(LAM, xs)
        assert np.all(np.abs(vals) <= 1 / TWO_PI + 1e-15)

    def test_m_shape_sharp_limit(self):
        fam = DeltaFamily(DeltaShape.M_SHAPE, n=10 ** 7, a=2.0)
        for x in (0.1, 3.7, -11.0):
            assert fourier(fam, x) == pytest.approx(1 / TWO_PI, abs=1e-7)

    @pytest.mark.parametrize("a", [1e17, 1e18, 1e307])
    def test_m_shape_origin_value_at_huge_height(self, a):
        # eps a + (4 - eps a) cos 2u cancelled to 0 at x = 0 past eps a ~ 2^55
        fam = DeltaFamily(DeltaShape.M_SHAPE, n=8, a=a)
        assert fourier(fam, 0.0) == pytest.approx(1 / TWO_PI, rel=1e-15)

    def test_matches_direct_transform(self):
        for fam in (LAM, MSH, SP1):
            lo, hi = fam.breakpoints[0], fam.breakpoints[-1]
            for x in (0.0, 1.3, -4.0):
                oracle = quad(
                    lambda k: eval_family(fam, k) * np.cos(k * x), lo, hi,
                    points=fam.breakpoints, **QUAD)[0] / TWO_PI
                assert fourier(fam, x) == pytest.approx(oracle, abs=1e-12)

    def test_shifted_pair_is_modulated_triangle(self):
        base = DeltaFamily(DeltaShape.LAMBDA_TRIANGLE, n=SP1.n)
        for x in (0.7, 2.0, -9.3):
            assert fourier(SP1, x) == pytest.approx(
                fourier(base, x) * np.cos(SP1.j * x / SP1.n), rel=1e-12)

    def test_transform_integral_dichotomy(self):
        assert fourier_integral(
            DeltaFamily(DeltaShape.LAMBDA_TRIANGLE, n=4)) == pytest.approx(
            4.0, rel=1e-14, abs=0)
        assert fourier_integral(SP1) == pytest.approx(0.0, abs=1e-14)
        assert fourier_integral(
            DeltaFamily(DeltaShape.SHIFTED_PAIR, n=3, j=2)) == pytest.approx(
            0.0, abs=1e-14)

    def test_transform_integral_recovers_m_height(self):
        assert fourier_integral(MSH) == pytest.approx(1.0, abs=1e-14)
        assert fourier_integral(
            DeltaFamily(DeltaShape.M_SHAPE, n=5, a=0.0)) == pytest.approx(
            0.0, abs=1e-14)


class TestFiltering:
    def test_step_gives_half(self):
        assert filtering_integral(LAM, step) == pytest.approx(0.5, abs=1e-14)
        assert filtering_integral(SP1, step) == pytest.approx(0.5, abs=1e-14)

    def test_continuous_function(self):
        assert filtering_integral(LAM, np.cos) == pytest.approx(1.0, abs=1e-8)
        assert filtering_integral(
            DeltaFamily(DeltaShape.M_SHAPE, n=4, a=0.0),
            np.cos) == pytest.approx(1.0, abs=1e-8)

    def test_shifted_evaluation_point(self):
        f = lambda k: np.cos(k - 0.4)
        assert filtering_integral(SP1, f) == pytest.approx(np.cos(0.4),
                                                           abs=1e-8)

    @pytest.mark.parametrize("j, f, limit", [
        (10, lambda k: np.where(k > 0.1, 1.0, 0.0), 0.0),
        (30, lambda k: np.where(k > 0.1, 1.0, 0.0), 0.0),
        (10, lambda k: 1.0 / (1.0 + 100.0 * k * k), 1.0),
        (30, lambda k: 1.0 / (1.0 + 100.0 * k * k), 1.0),
        (100, lambda k: 1.0 / (1.0 + 100.0 * k * k), 1.0)],
        ids=["step_j10", "step_j30", "lorentzian_j10", "lorentzian_j30",
             "lorentzian_j100"])
    def test_large_shift_passes_the_feature(self, j, f, limit):
        # from n = 16 the pair sat at j/16 beyond the feature for several
        # doublings: the step gave 0.5, the lorentzian NonConvergence
        fam = DeltaFamily(DeltaShape.SHIFTED_PAIR, n=1, j=j)
        assert filtering_integral(fam, f) == pytest.approx(limit, rel=1e-10,
                                                           abs=1e-12)

    def test_shift_below_2_53_is_swept(self):
        fam = DeltaFamily(DeltaShape.SHIFTED_PAIR, n=1, j=2 ** 52)
        assert filtering_integral(fam, np.cos) == pytest.approx(1.0,
                                                                rel=1e-10)
        assert product_filtering_integral([fam], np.cos).value \
            == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("j", [2 ** 53, 1e20, 1e160],
                             ids=["2^53", "1e20", "1e160"])
    def test_shift_from_2_53_raises(self, j):
        # j/n +- 1/n round onto j/n: cos gave 0.5 at 2^53 and 0.0 at 1e20,
        # and at 1e160 the sweep's n^2 overflowed (OverflowError)
        calls = []
        f = lambda k: calls.append(k) or np.cos(k)
        fam = DeltaFamily(DeltaShape.SHIFTED_PAIR, n=1, j=j)
        with pytest.raises(DomainError):
            filtering_integral(fam, f)
        with pytest.raises(DomainError):
            product_filtering_integral([fam], f)
        with pytest.raises(DomainError):
            product_filtering_integral([fam, fam], f)
        assert calls == []


class TestPowers:
    ONE = staticmethod(lambda k: 1.0)

    def test_power_one_reduces_to_filtering(self):
        fam = DeltaFamily(DeltaShape.M_SHAPE, n=1, a=0.0)
        res = product_filtering_integral([fam], np.cos)
        assert not res.is_divergent
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_squared_shifted_pair_vanishes(self):
        fam = DeltaFamily(DeltaShape.SHIFTED_PAIR, n=1, j=1)
        res = product_filtering_integral([fam] * 2, lambda k: 1.0)
        assert not res.is_divergent
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_cubed_shifted_pair_vanishes(self):
        fam = DeltaFamily(DeltaShape.SHIFTED_PAIR, n=1, j=1)
        res = product_filtering_integral([fam] * 3, lambda k: 1.0)
        assert not res.is_divergent
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_squared_triangle_diverges(self):
        fam = DeltaFamily(DeltaShape.LAMBDA_TRIANGLE, n=1)
        res = product_filtering_integral([fam] * 2, lambda k: 1.0)
        assert res.is_divergent
        assert res.value is None

    def test_squared_m_shape_with_height(self):
        # delta(0)^{power-1} (f(0-)+f(0+))/2 = a for f = 1
        fam = DeltaFamily(DeltaShape.M_SHAPE, n=1, a=2.0)
        res = product_filtering_integral([fam] * 2, lambda k: 1.0)
        assert res.value == pytest.approx(2.0, abs=1e-6)

    def test_class_mixing_rejected(self):
        m0 = DeltaFamily(DeltaShape.M_SHAPE, n=1, a=0.0)
        m2 = DeltaFamily(DeltaShape.M_SHAPE, n=1, a=2.0)
        with pytest.raises(IncompatibleClasses):
            product_filtering_integral([m0, m2], lambda k: 1.0)
        lam = DeltaFamily(DeltaShape.LAMBDA_TRIANGLE, n=1)
        with pytest.raises(IncompatibleClasses):
            product_filtering_integral([m0, lam], lambda k: 1.0)

    def test_same_class_across_shapes_allowed(self):
        m0 = DeltaFamily(DeltaShape.M_SHAPE, n=1, a=0.0)
        sp = DeltaFamily(DeltaShape.SHIFTED_PAIR, n=1, j=1)
        res = product_filtering_integral([m0, sp], lambda k: 1.0)
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_limit_order_independence(self):
        # distinct families of one class: reversing the list swaps which
        # factor is innermost, so the limit is taken in the other order
        m0 = DeltaFamily(DeltaShape.M_SHAPE, n=1, a=0.0)
        sp1 = DeltaFamily(DeltaShape.SHIFTED_PAIR, n=1, j=1)
        sp2 = DeltaFamily(DeltaShape.SHIFTED_PAIR, n=1, j=2)
        for fams, f in (([m0, sp1], lambda k: 1.0), ([m0, sp1], np.cos),
                        ([sp1, sp2], np.cos)):
            fwd = product_filtering_integral(fams, f)
            rev = product_filtering_integral(fams[::-1], f)
            assert not fwd.is_divergent and not rev.is_divergent
            assert fwd.value == pytest.approx(rev.value, abs=1e-8)


class TestDomainErrors:
    @pytest.mark.parametrize("kwargs", [dict(n=0), dict(n=10 ** 155),
                                        dict(j=-1), dict(a=-0.5),
                                        dict(a=1.2e308)],
                             ids=["n", "n_overflow", "j", "a", "a_overflow"])
    def test_family_parameters(self, kwargs):
        with pytest.raises(DomainError):
            DeltaFamily(DeltaShape.M_SHAPE, **kwargs)

    def test_empty_product(self):
        with pytest.raises(DomainError):
            product_filtering_integral([], lambda k: 1.0)


def _quadpack_filter(fams, f):
    """int prod delta_i f over the common support by quadpack, split at the
    union of the breakpoints and 0: the independent oracle of the panels."""
    lo = max(fam.breakpoints[0] for fam in fams)
    hi = min(fam.breakpoints[-1] for fam in fams)

    def g(k):
        out = f(k)
        for fam in fams:
            out = out * eval_family(fam, k)
        return float(out)

    pts = [p for fam in fams for p in fam.breakpoints] + [0.0]
    return quad(g, lo, hi, points=pts, **QUAD)[0]


TEST_FUNCTIONS = {"one": lambda k: 1.0, "cos": lambda k: np.cos(k - 0.4),
                  "square": lambda k: k * k, "step": step}
COMPACT = {"lambda": DeltaFamily(DeltaShape.LAMBDA_TRIANGLE),
           "m_shape": DeltaFamily(DeltaShape.M_SHAPE, a=2.0),
           "shifted": DeltaFamily(DeltaShape.SHIFTED_PAIR, j=1)}


class TestPanelRoutes:
    """The panel routes per index against quadpack, and the closed-form
    cosine tail against mpmath."""

    @pytest.mark.parametrize("f", TEST_FUNCTIONS.values(),
                             ids=TEST_FUNCTIONS.keys())
    @pytest.mark.parametrize("n", [1, 7, 64, 10 ** 4])
    @pytest.mark.parametrize("family", COMPACT.values(), ids=COMPACT.keys())
    def test_filter_matches_quadpack(self, family, n, f):
        panel = _panel_integral([(family, n)], f)
        oracle = _quadpack_filter([replace(family, n=n)], f)
        assert abs(panel - oracle) <= 1e-14

    @pytest.mark.parametrize("f", TEST_FUNCTIONS.values(),
                             ids=TEST_FUNCTIONS.keys())
    @pytest.mark.parametrize("n", [2, 5, 16])
    @pytest.mark.parametrize("family", COMPACT.values(), ids=COMPACT.keys())
    def test_staircase_pair_matches_quadpack(self, family, n, f):
        # one rung of product_filtering_integral's staircase (n, n^3)
        panel = _panel_integral([(family, n), (family, n ** 3)], f)
        oracle = _quadpack_filter([replace(family, n=n),
                                   replace(family, n=n ** 3)], f)
        assert abs(panel - oracle) <= 1e-14 * max(1.0, abs(oracle))

    @pytest.mark.parametrize("a", [0.0, 2.0, 4.0, 6.0])
    def test_cos_tail_matches_mpmath(self, a):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            # int_pi^inf e^{i a u} / u^2 du = E_2(-i a pi) / pi
            ref = float(mp.re(mp.expint(2, -1j * a * mp.pi)) / mp.pi)
        # the closed form subtracts two terms of size 1/pi, so its error is
        # bounded relative to them, not to the (a^-2 smaller) difference
        assert abs(_cos_tail(a) - ref) <= 1e-14 / np.pi
