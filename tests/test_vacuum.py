import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv

from vacuumlab.errors import DomainError
from vacuumlab.vacuum import (ProfileKind, VacuumProfile, density,
                              density_integral, infrared_condition_check,
                              make_box_profile, make_lorentz_profile,
                              physical_charge)


def cutoff(profile, k_abs):
    """chi(k) = density/Z, the unit-height cutoff function."""
    return density(profile, k_abs) / profile.Z


def normalization_quad(profile, edges):
    """(1/4 pi^2) int kappa density(kappa) dkappa by quadpack over the
    pieces between consecutive edges: the oracle of the Z and norm_const
    that the constructors set."""
    return sum(quad(lambda k: k * density(profile, k), lo, hi, epsabs=0.0,
                    epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(edges[:-1], edges[1:])) / (4.0 * math.pi ** 2)


class TestBoxProfile:
    def test_peak_closed_form(self):
        p = make_box_profile(1.0, 3.0)
        assert p.Z == pytest.approx(math.pi ** 2, rel=1e-15)

    def test_density_shape(self):
        p = make_box_profile(1.0, 3.0)
        assert density(p, 0.5) == 0.0
        assert density(p, 2.0) == p.Z
        assert density(p, 4.0) == 0.0

    def test_normalization_closed(self):
        for k1, k2 in ((0.5, 2.0), (1.0, 3.0), (10.0, 11.0)):
            p = make_box_profile(k1, k2)
            assert normalization_quad(p, [k1, k2]) == pytest.approx(
                1.0, abs=1e-12)

    def test_moments_match_elementary_integrals(self):
        # (Z/4 pi^2) int_k1^k2 dkappa, antiderivative by hand
        for k1, k2 in ((0.5, 2.0), (1.0, 3.0), (10.0, 11.0), (1e-5, 1e4)):
            p = make_box_profile(k1, k2)
            expect = p.Z * (k2 - k1) / (4.0 * math.pi ** 2)
            assert density_integral(p) == pytest.approx(expect, rel=1e-14,
                                                        abs=0)

    def test_cutoff_indicator(self):
        p = make_box_profile(1.0, 3.0)
        assert cutoff(p, 2.0) == 1.0
        assert cutoff(p, 0.5) == 0.0

    def test_physical_charge(self):
        p = make_box_profile(1.0, 3.0)
        q = 2.0
        assert physical_charge(q, p) == pytest.approx(q * math.pi, rel=1e-15)
        assert physical_charge(q, p) == pytest.approx(
            q * 2.0 * math.sqrt(2.0) * math.pi / math.sqrt(9.0 - 1.0),
            rel=1e-15)
        assert physical_charge(0.0, p) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            make_box_profile(0.0, 3.0)
        with pytest.raises(DomainError):
            make_box_profile(3.0, 1.0)
        # k2^2 outside the normal doubles (k2^2 - k1^2 underflowed to 0, or
        # k2^2 overflowed), and a Z past the double range
        for k1, k2 in ((1e-200, 2e-200), (1.0, 1e200),
                       (1e-150, 1.0000001e-150)):
            with pytest.raises(DomainError):
                make_box_profile(k1, k2)

    def test_domain_edges(self):
        assert make_box_profile(1e-150, 1e150).Z \
            == pytest.approx(8.0 * math.pi ** 2 / 1e300, rel=1e-15, abs=0.0)
        assert math.isfinite(make_box_profile(1e-150, 1.000001e-150).Z)
        # k1^2 underflows, negligibly against k2^2
        assert make_box_profile(1e-300, 1.0).Z == 8.0 * math.pi ** 2


class TestLorentzProfile:
    def test_norm_const_closed_form(self):
        p = make_lorentz_profile(1.0, 1.0)
        assert p.norm_const == pytest.approx(2 * math.pi ** 2 / kv(2, 2.0),
                                             rel=1e-12)

    def test_peak_factor(self):
        for lam2 in (0.01, 1.0):
            p = make_lorentz_profile(lam2, 2.0)
            assert p.Z / p.norm_const == pytest.approx(
                math.exp(-2.0 * math.sqrt(lam2)), rel=1e-13, abs=0)

    def test_cutoff_peaks_at_lambda_over_y0(self):
        p = make_lorentz_profile(0.25, 0.5)
        peak = math.sqrt(p.lambda2) / p.y0
        assert cutoff(p, peak) == pytest.approx(1.0, rel=1e-13)
        ks = np.geomspace(1e-3, 1e3, 301)
        vals = [cutoff(p, k) for k in ks]
        assert max(vals) <= 1.0 + 1e-12

    def test_cutoff_closed_form(self):
        p = make_lorentz_profile(0.09, 0.7)
        lam = 0.3
        for k in (0.1, 1.0, 7.0):
            expect = math.exp(-p.lambda2 / (p.y0 * k) - p.y0 * k + 2 * lam)
            assert cutoff(p, k) == pytest.approx(expect, rel=1e-12, abs=0)

    @pytest.mark.parametrize("lam2", [1e-12, 1e-6, 1e-2, 1.0])
    @pytest.mark.parametrize("y0", [1e-3, 1.0, 10.0])
    def test_normalization_grid(self, lam2, y0):
        # in x = y0 kappa the integrand x e^(-lambda^2/x - x) is below
        # e^-1000 of its peak under lambda^2 e^-7 and below 1e-24 past 60
        p = make_lorentz_profile(lam2, y0)
        x = sorted({lam2 * math.exp(-7.0), math.sqrt(lam2), 1.0, 4.0, 60.0})
        assert normalization_quad(p, [v / y0 for v in x]) == pytest.approx(
            1.0, abs=1e-12)

    @pytest.mark.parametrize("lam2", [1e-310, 1e-12, 1.0, 1e4, 1e5, 1.2e5])
    def test_peak_value_matches_mpmath(self, lam2):
        # Z = 4 pi^2 y0^2 e^(-2 lambda)/(2 lambda^2 K2(2 lambda)), to 40 digits
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            lam = mp.sqrt(mp.mpf(lam2))
            expect = 4 * mp.pi ** 2 * mp.exp(-2 * lam) \
                / (2 * lam ** 2 * mp.besselk(2, 2 * lam))
            p = make_lorentz_profile(lam2, 1.0)
            assert abs(p.Z / expect - 1) <= 1e-15

    @pytest.mark.parametrize("lam2, kappa", [
        (1e-310, None), (1e-12, None), (0.3, None), (1.0, 2.0), (2.7, None),
        (1e4, 30.0), (1e4, 80.0), (1e5, 250.0), (1.2e5, 300.0),
        (1.25e5, None)])
    def test_norm_const_matches_mpmath(self, lam2, kappa):
        # |C|^2 = 4 pi^2 y0^2/(2 lambda^2 K2(2 lambda)) to 40 digits; the
        # rounding of lambda = sqrt(lambda^2) used to leave 5.6e-14 at
        # lambda^2 = 1e5 and 7.1e-14 at 1.2e5.  The density and the cutoff
        # are checked at kappa (if given) and at 0.3, 1 and 3 times the
        # peak lambda/y0 (y0 = 1); e^E amplifies the rounding of its
        # exponent E = 2 lambda - lambda^2/kappa - kappa by |E|.  The density
        # was 0.0 at lambda^2 = 1.25e5, kappa = 0.3 lambda (~1e-251) and
        # 1.9e-14 off at lambda^2 = 1e4, kappa = 30
        mp = pytest.importorskip("mpmath")
        p = make_lorentz_profile(lam2, 1.0)
        lam_f = math.sqrt(lam2)
        kappas = [f * lam_f for f in (0.3, 1.0, 3.0)]
        kappas += [] if kappa is None else [kappa]
        with mp.workdps(40):
            lam = mp.sqrt(mp.mpf(lam2))
            norm = 4 * mp.pi ** 2 / (2 * lam ** 2 * mp.besselk(2, 2 * lam))
            assert abs(p.norm_const / norm - 1) <= 1e-15
            for k in kappas:
                exponent = 2 * lam - mp.mpf(lam2) / k - k
                # a few ulps of 1 + |E|; the worst measured is 1.5
                bound = 3 * 2.22e-16 * (1 + abs(exponent))
                assert abs(density(p, k) / (norm * mp.exp(exponent - 2 * lam))
                           - 1) <= bound
                assert abs(cutoff(p, k) / mp.exp(exponent) - 1) <= bound

    def test_density_vanishes_at_origin(self):
        p = make_lorentz_profile(1.0, 1.0)
        assert density(p, 0.0) == 0.0

    def test_density_without_infrared_cutoff(self):
        # lambda^2 = 0, built by hand: the density is Z e^(-y0 k)
        raw = VacuumProfile(ProfileKind.LORENTZ_EXP, lambda2=0.0, y0=0.5,
                            Z=2.0, norm_const=2.0)
        assert density(raw, 3.0) == pytest.approx(2.0 * math.exp(-1.5),
                                                  rel=1e-15)

    def test_physical_charge_closed_form(self):
        lam2, y0, q = 0.25, 0.7, 1.3
        p = make_lorentz_profile(lam2, y0)
        lam = math.sqrt(lam2)
        expect = q * math.sqrt(2 * math.pi ** 2 * y0 ** 2
                               * math.exp(-2 * lam)
                               / (lam2 * kv(2, 2 * lam)))
        assert physical_charge(q, p) == pytest.approx(expect, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            make_lorentz_profile(0.0, 1.0)
        with pytest.raises(DomainError):
            make_lorentz_profile(1.0, -1.0)
        # y0^2 outside the normal doubles (it overflowed past y0 ~ 1.3e154)
        for y0 in (1e200, 1e-300):
            with pytest.raises(DomainError):
                make_lorentz_profile(1e-12, y0)
        # norm_const ~ e^(2 lambda) leaves the double range past
        # lambda^2 ~ 1.26e5 at y0 = 1
        with pytest.raises(DomainError):
            make_lorentz_profile(2e5, 1.0)


class TestInfraredConditions:
    def test_lorentz_all_orders(self):
        assert infrared_condition_check(make_lorentz_profile(1.0, 1.0))

    def test_tiny_lambda_still_passes(self):
        assert infrared_condition_check(make_lorentz_profile(1e-12, 1e-3))

    def test_box_all_orders(self):
        assert infrared_condition_check(make_box_profile(1.0, 3.0))

    def test_box_without_infrared_cutoff_fails(self):
        raw = VacuumProfile(ProfileKind.BOX_SHELL, k1=0.0, k2=3.0,
                            Z=8 * math.pi ** 2 / 9.0,
                            norm_const=8 * math.pi ** 2 / 9.0)
        assert not infrared_condition_check(raw)

    def test_moments_of_inadmissible_profiles_rejected(self):
        for raw in (VacuumProfile(ProfileKind.BOX_SHELL, k1=0.0, k2=3.0,
                                  Z=1.0, norm_const=1.0),
                    VacuumProfile(ProfileKind.LORENTZ_EXP, lambda2=0.0,
                                  y0=1.0, Z=1.0, norm_const=1.0)):
            with pytest.raises(DomainError):
                density_integral(raw)

    def test_lorentz_without_infrared_cutoff_fails(self):
        raw = VacuumProfile(ProfileKind.LORENTZ_EXP, lambda2=0.0, y0=1.0,
                            Z=1.0, norm_const=1.0)
        assert not infrared_condition_check(raw)
