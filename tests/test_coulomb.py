import math

import numpy as np
import pytest

from vacuumlab import coulomb
from vacuumlab.constants import AU_KM, PLANCK_LENGTH_KM
from vacuumlab.coulomb import (PotentialCurve, compensating_field_avg,
                               compensating_field_closed, expand_bracket,
                               potential, potential_box, potential_curve,
                               potential_lorentz, potential_profile_quad,
                               sign_change_radius, yukawa_bound_check)
from vacuumlab.errors import BranchError, DomainError, NoSignChange
from vacuumlab.vacuum import (make_box_profile, make_lorentz_profile,
                              physical_charge)


class TestBoxPotential:
    def test_origin_limit(self):
        q_ph, k1, k2 = 1.3, 0.7, 55.0
        expect = -q_ph ** 2 * (k2 - k1) / (2 * math.pi ** 2)
        assert potential_box(q_ph, k1, k2, 0.0) == pytest.approx(expect)
        assert potential_box(q_ph, k1, k2, 1e-9) == pytest.approx(
            expect, rel=1e-6)

    def test_matches_radial_quadrature(self):
        prof = make_box_profile(0.7, 55.0)
        q = 1.3
        q_ph = physical_charge(q, prof)
        for r in (0.3, 2.0, 9.0):
            closed = potential_box(q_ph, prof.k1, prof.k2, r)
            oracle = potential_profile_quad(q, prof, r)
            assert closed == pytest.approx(oracle, rel=1e-10)

    def test_coulomb_recovery(self):
        for r in np.geomspace(1.0, 100.0, 15):
            v = potential_box(1.0, 1e-5, 1e4, r)
            assert v / (-1.0 / (4 * math.pi * r)) == pytest.approx(
                1.0, abs=1e-3)

    def test_first_sign_change_near_si_constant(self):
        pot = lambda r: potential_box(1.0, 1.0, 1e4, r)
        r0 = sign_change_radius(pot, expand_bracket(pot, 0.1))
        assert r0 == pytest.approx(1.92645, abs=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            potential_box(1.0, 2.0, 1.0, 1.0)

    def test_array_of_radii_with_origin(self):
        q_ph, k1, k2 = 1.3, 0.7, 55.0
        rs = np.array([0.0, 0.3, 2.0, 9.0])
        v = potential_box(q_ph, k1, k2, rs)
        assert isinstance(v, np.ndarray) and v.shape == rs.shape
        assert v.tolist() == [potential_box(q_ph, k1, k2, float(r))
                              for r in rs]
        assert v[0] == -q_ph ** 2 * (k2 - k1) / (2 * math.pi ** 2)

    def test_negative_radius_in_array(self):
        with pytest.raises(DomainError):
            potential_box(1.0, 1.0, 2.0, np.array([1.0, -1e-9]))


class TestLorentzPotential:
    def test_matches_radial_quadrature(self):
        # widened-profile curve against the direct density quadrature
        prof = make_lorentz_profile(0.25 ** 2, 0.25)
        q = 1.0
        q_ph = physical_charge(q, prof)
        for r in (0.5, 1.0, 3.0):
            closed = potential_lorentz(q_ph, prof.lambda2, prof.y0, r)
            oracle = potential_profile_quad(q, prof, r)
            assert closed == pytest.approx(oracle, rel=1e-6)

    def test_real_output(self):
        v = potential_lorentz(1.0, 0.04, 0.3, 2.0)
        assert isinstance(v, float)

    def test_coulomb_recovery_small_scales(self):
        prof = make_lorentz_profile(1e-12, 1e-4)
        q_ph = physical_charge(1.0, prof)
        for r in np.geomspace(1.0, 100.0, 10):
            v = potential_lorentz(q_ph, prof.lambda2, prof.y0, r)
            assert v / (-q_ph ** 2 / (4 * math.pi * r)) == pytest.approx(
                1.0, abs=1e-3)

    def test_first_zero_2560_au(self):
        y0 = 1e-38 / PLANCK_LENGTH_KM
        pot = lambda r: potential_lorentz(1.0, 1e-49, y0, r)
        r0 = sign_change_radius(pot, expand_bracket(pot, 1e47))
        assert r0 * PLANCK_LENGTH_KM / AU_KM == pytest.approx(2560.2,
                                                              rel=5e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            potential_lorentz(1.0, -1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            potential_lorentz(1.0, 0.04, 0.3, np.array([1.0, 0.0]))

    def test_array_of_radii(self):
        rs = np.geomspace(0.1, 100.0, 7)
        v = potential_lorentz(1.0, 0.04, 0.3, rs)
        assert isinstance(v, np.ndarray) and v.shape == rs.shape
        assert v.tolist() == [potential_lorentz(1.0, 0.04, 0.3, float(r))
                              for r in rs]

    def test_lost_conjugate_symmetry_raises(self, monkeypatch):
        from vacuumlab.specfun import bessel_k0_complex

        def skewed(z):
            out = bessel_k0_complex(z)
            out[1] += 1e-6      # the row of the conjugate arguments
            return out

        monkeypatch.setattr(coulomb, "bessel_k0_complex", skewed)
        with pytest.raises(BranchError):
            potential_lorentz(1.0, 0.04, 0.3, np.array([1.0, 2.0]))
        with pytest.raises(BranchError):
            potential_lorentz(1.0, 0.04, 0.3, 1.0)


class TestDispatch:
    def test_box_and_lorentz_kernels(self):
        box, lor = make_box_profile(0.7, 55.0), make_lorentz_profile(0.04, 0.3)
        rs = np.array([0.5, 2.0])
        assert potential(box, 1.3, 2.0) == potential_box(1.3, 0.7, 55.0, 2.0)
        assert potential(lor, 1.3, rs).tolist() == \
            potential_lorentz(1.3, 0.04, 0.3, rs).tolist()


class TestAngularIndependence:
    def test_full_angular_quadrature_matches_radial_form(self):
        # V = -q^2/(2 pi)^2 int dkappa density int_{-1}^{1} du cos(kappa r u)
        # must reduce to the sinc form regardless of direction
        from scipy.integrate import quad

        from vacuumlab.vacuum import density

        prof = make_box_profile(0.7, 9.0)
        q, r = 1.0, 1.7

        def angular(kappa):
            inner, _ = quad(lambda u: math.cos(kappa * r * u), -1.0, 1.0,
                            limit=200)
            return density(prof, kappa) * inner

        outer, _ = quad(angular, prof.k1, prof.k2, limit=200,
                        epsabs=1e-12, epsrel=1e-11)
        oracle = -q * q / (2.0 * math.pi) ** 2 * outer
        assert potential_profile_quad(q, prof, r) == pytest.approx(
            oracle, rel=1e-9)


class TestCompensatingField:
    def test_closed_form_static(self):
        q, r = 2.0, 1.0
        assert compensating_field_closed(q, r, 0.0) == pytest.approx(
            q / (4 * math.pi * r))

    def test_closed_form_lightcone(self):
        q, r = 2.0, 1.0
        assert compensating_field_closed(q, r, r) == pytest.approx(
            q / (8 * math.pi * r))
        assert compensating_field_closed(q, r, -r) == pytest.approx(
            q / (8 * math.pi * r))

    def test_closed_form_outside(self):
        assert compensating_field_closed(2.0, 1.0, 2.5) == 0.0

    def test_cancels_static_potential_at_switch_on(self):
        for prof, q in ((make_lorentz_profile(0.0625, 0.25), 1.7),
                        (make_box_profile(0.7, 55.0), 1.3)):
            r = 2.0
            comp = compensating_field_avg(prof, q, r, 0.0)
            stat = potential_profile_quad(q, prof, r)
            # the static value is q times the averaged field
            assert comp == pytest.approx(-stat / q, rel=1e-10)

    def test_riemann_lebesgue_decay(self):
        prof = make_lorentz_profile(0.01, 1.0)
        assert abs(compensating_field_avg(prof, 1.0, 1.0, 1e4)) < 1e-4
        assert abs(compensating_field_avg(prof, 1.0, 1.0, 1e6)) < 1e-8

    def test_zero_charge(self):
        prof = make_box_profile(1.0, 3.0)
        assert compensating_field_avg(prof, 0.0, 1.0, 0.3) == 0.0


class TestSignChange:
    def test_bisection_accuracy(self):
        pot = lambda r: math.cos(r)  # zero at pi/2
        r0 = sign_change_radius(pot, (1.0, 2.0))
        assert r0 == pytest.approx(math.pi / 2.0, rel=1e-10)

    def test_few_evaluations(self):
        # Brent's method: bisection to the same tolerance takes 34 steps
        calls = []

        def pot(r):
            calls.append(r)
            return math.cos(r)

        sign_change_radius(pot, (1.0, 2.0))
        assert len(calls) <= 16

    def test_bracket_spanning_the_double_range(self):
        # bisection-like progress must still converge on the widest bracket
        r0 = sign_change_radius(math.log, (1e-300, 1e300))
        assert r0 == pytest.approx(1.0, rel=1e-10)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            sign_change_radius(lambda r: -1.0 / r, (1.0, 100.0))

    def test_pure_coulomb_never_flips(self):
        with pytest.raises(NoSignChange):
            expand_bracket(lambda r: -1.0 / (4 * math.pi * r), 0.5,
                           max_steps=40)


def _scalar_ladder(potential, r_start, factor=1.5, max_steps=200):
    """Reference bracket search: one scalar potential call per rung."""
    lo = r_start
    f_lo = potential(lo)
    hi = lo
    for _ in range(max_steps):
        hi *= factor
        f_hi = potential(hi)
        if math.copysign(1.0, f_lo) != math.copysign(1.0, f_hi):
            return (lo, hi)
        lo, f_lo = hi, f_hi
    raise NoSignChange(
        f"no sign flip within {max_steps} geometric steps from {r_start}")


def _outcome(search, pot, r_start, **kw):
    try:
        return [float(x).hex() for x in search(pot, r_start, **kw)]
    except NoSignChange as exc:
        return str(exc)


def _same_bracket(pot, r_start, **kw):
    """expand_bracket's bracket, bitwise equal to the scalar reference's
    (the ladder is the same sequence of roundings), or its NoSignChange
    message, equal to the reference's."""
    expect = _outcome(_scalar_ladder, pot, r_start, **kw)
    got = _outcome(expand_bracket, pot, r_start, **kw)
    assert got == expect
    return got if isinstance(got, str) else tuple(map(float.fromhex, got))


class TestExpandBracket:
    def test_box_profiles_at_random_starts(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            k1 = 10 ** rng.uniform(-2, 0)
            k2 = k1 * 10 ** rng.uniform(0.5, 3)
            prof = make_box_profile(k1, k2)
            q_ph = physical_charge(1.0, prof)
            _same_bracket(lambda r: potential(prof, q_ph, r),
                          10 ** rng.uniform(-4, 1) / k2)

    def test_exponential_profiles_at_random_starts(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            y0 = 10 ** rng.uniform(-4, 0)
            prof = make_lorentz_profile(10 ** rng.uniform(-12, 0), y0)
            q_ph = physical_charge(1.0, prof)
            _same_bracket(lambda r: potential(prof, q_ph, r),
                          y0 * 10 ** rng.uniform(-2, 1))

    def test_validation_planck_case(self):
        prof = make_lorentz_profile(1e-49, 1e-38 / PLANCK_LENGTH_KM)
        _same_bracket(lambda r: potential(prof, 1.0, r), 1e47)

    def test_flip_at_first_step(self):
        assert _same_bracket(lambda r: r - 1.2, 1.0) == (1.0, 1.5)

    def test_signed_zeros(self):
        # +0.0 counts as positive and -0.0 as negative, as copysign reads them
        pots = [lambda r: np.where(r < 5.0, 0.0, -0.0),
                lambda r: np.where(r < 3.0, 1.0, np.where(r < 9.0, 0.0, -0.0)),
                lambda r: np.where(r < 3.0, -1.0, 0.0),
                lambda r: np.where(r < 3.0, -0.0, np.nan),
                lambda r: np.where(r < 3.0, np.nan, -np.nan)]
        for pot in pots:
            _same_bracket(pot, 1.0)

    def test_ladder_overflowing_to_inf(self):
        lo, hi = _same_bracket(lambda r: np.where(np.isinf(r), 1.0, -1.0),
                               1e300)
        assert math.isfinite(lo) and hi == math.inf
        # Si(k r) rounds to pi/2 this far out: the box potential is -0.0
        # on every rung (4 pi r overflows in it near the top)
        prof = make_box_profile(0.01, 0.5)
        with np.errstate(over="ignore"):
            assert "no sign flip" in _same_bracket(
                lambda r: potential(prof, 1.0, r), 1e300)

    def test_same_message_when_steps_run_out(self):
        pot = lambda r: -1.0 / r
        for r_start, steps in ((0.5, 40), (1e300, 30)):
            assert _same_bracket(pot, r_start, max_steps=steps) \
                == f"no sign flip within {steps} geometric steps from {r_start}"

    def test_one_potential_call(self):
        calls = []

        def pot(r):
            calls.append(np.shape(r))
            return np.cos(r)

        assert expand_bracket(pot, 0.1, max_steps=50) == _scalar_ladder(
            np.cos, 0.1, max_steps=50)
        assert calls == [(51,)]


class TestYukawaBound:
    LAM_RATIO = 3e5 / PLANCK_LENGTH_KM
    R_GRID = np.geomspace(1e-3, 1e9, 600) / PLANCK_LENGTH_KM

    def test_holds_at_twice_inverse_screening(self):
        assert yukawa_bound_check(2.0 / self.LAM_RATIO, self.LAM_RATIO,
                                  self.R_GRID)

    def test_fails_at_twenty(self):
        assert not yukawa_bound_check(20.0 / self.LAM_RATIO, self.LAM_RATIO,
                                      self.R_GRID)

    def test_trivial_at_zero_k1(self):
        assert yukawa_bound_check(0.0, self.LAM_RATIO, self.R_GRID)


class TestCurve:
    def test_curve_export_shape(self):
        prof = make_box_profile(1.0, 3.0)
        rs = np.geomspace(0.1, 10.0, 20)
        curve = potential_curve(prof, 1.0, rs)
        assert len(curve.r_values) == len(curve.v_values) == 20
        assert curve.profile_tag.startswith("box")

    def test_curve_matches_pointwise_potential(self):
        prof = make_lorentz_profile(0.04, 0.3)
        rs = np.geomspace(0.1, 10.0, 9)
        curve = potential_curve(prof, 1.0, rs)
        q_ph = physical_charge(1.0, prof)
        assert list(curve.v_values) == [potential(prof, q_ph, float(r))
                                        for r in rs]
        assert all(isinstance(v, float) for v in curve.v_values)

    def test_curve_validates_monotone_radii(self):
        with pytest.raises(DomainError):
            PotentialCurve((1.0, 0.5), (0.0, 0.0), "box")
