import math

import numpy as np
import pytest
from scipy.special import kv

from vacuumlab.errors import DomainError
from vacuumlab.vacuum import (ProfileKind, VacuumProfile, cutoff, density,
                              density_integral, infrared_condition_check,
                              make_box_profile, make_lorentz_profile,
                              physical_charge)


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
            assert density_integral(p) == pytest.approx(1.0, abs=1e-12)

    def test_moments_match_elementary_integrals(self):
        # (Z/4 pi^2) int_k1^k2 kappa^(1-n) dkappa, antiderivative by hand
        for k1, k2 in ((0.5, 2.0), (1.0, 3.0), (10.0, 11.0), (1e-5, 1e4)):
            p = make_box_profile(k1, k2)
            shells = ((k2 ** 2 - k1 ** 2) / 2.0, k2 - k1, math.log(k2 / k1),
                      1.0 / k1 - 1.0 / k2, (1.0 / k1 ** 2 - 1.0 / k2 ** 2) / 2.0)
            for n, shell in enumerate(shells):
                expect = p.Z * shell / (4.0 * math.pi ** 2)
                assert density_integral(p, n) == pytest.approx(
                    expect, rel=1e-14, abs=0)

    def test_moment_order_validated(self):
        p = make_box_profile(1.0, 3.0)
        for n in (-1, 5):
            with pytest.raises(DomainError):
                density_integral(p, n)

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


class TestLorentzProfile:
    def test_norm_const_closed_form(self):
        p = make_lorentz_profile(1.0, 1.0)
        assert p.norm_const == pytest.approx(2 * math.pi ** 2 / kv(2, 2.0),
                                             rel=1e-12)

    def test_peak_factor(self):
        for lam2 in (0.01, 1.0):
            p = make_lorentz_profile(lam2, 2.0)
            assert p.Z / p.norm_const == pytest.approx(
                math.exp(-2.0 * math.sqrt(lam2)), rel=1e-13)

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
            assert cutoff(p, k) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("lam2", [1e-12, 1e-6, 1e-2, 1.0])
    @pytest.mark.parametrize("y0", [1e-3, 1.0, 10.0])
    def test_normalization_grid(self, lam2, y0):
        p = make_lorentz_profile(lam2, y0)
        assert density_integral(p) == pytest.approx(1.0, abs=1e-8)

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

    def test_density_vanishes_at_origin(self):
        p = make_lorentz_profile(1.0, 1.0)
        assert density(p, 0.0) == 0.0

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
        # Gamma(2, 0, lambda^2) underflows to 0 past lambda^2 ~ 1.26e5
        with pytest.raises(DomainError):
            make_lorentz_profile(2e5, 1.0)


class TestInfraredConditions:
    def test_lorentz_all_orders(self):
        p = make_lorentz_profile(1.0, 1.0)
        for n in (1, 2, 3, 4):
            assert infrared_condition_check(p, n)

    def test_tiny_lambda_still_passes(self):
        p = make_lorentz_profile(1e-12, 1e-3)
        assert infrared_condition_check(p, 4)

    def test_box_all_orders(self):
        p = make_box_profile(1.0, 3.0)
        for n in (1, 2, 3, 4):
            assert infrared_condition_check(p, n)

    def test_box_without_infrared_cutoff_fails(self):
        raw = VacuumProfile(ProfileKind.BOX_SHELL, k1=0.0, k2=3.0,
                            Z=8 * math.pi ** 2 / 9.0,
                            norm_const=8 * math.pi ** 2 / 9.0)
        for n in (1, 2, 3, 4):
            assert not infrared_condition_check(raw, n)

    def test_moments_of_inadmissible_profiles_rejected(self):
        for raw in (VacuumProfile(ProfileKind.BOX_SHELL, k1=0.0, k2=3.0,
                                  Z=1.0, norm_const=1.0),
                    VacuumProfile(ProfileKind.LORENTZ_EXP, lambda2=0.0,
                                  y0=1.0, Z=1.0, norm_const=1.0)):
            for n in range(5):
                with pytest.raises(DomainError):
                    density_integral(raw, n)

    def test_lorentz_without_infrared_cutoff_fails(self):
        raw = VacuumProfile(ProfileKind.LORENTZ_EXP, lambda2=0.0, y0=1.0,
                            Z=1.0, norm_const=1.0)
        for n in (1, 2, 3, 4):
            assert not infrared_condition_check(raw, n)

    def test_order_validated(self):
        p = make_box_profile(1.0, 3.0)
        with pytest.raises(DomainError):
            infrared_condition_check(p, 5)

    def test_inverse_square_moment_finite(self):
        # needed by the transient-field decay argument
        for p in (make_box_profile(1.0, 3.0),
                  make_lorentz_profile(0.01, 1.0)):
            val = density_integral(p, inverse_power=2)
            assert np.isfinite(val) and val > 0.0
