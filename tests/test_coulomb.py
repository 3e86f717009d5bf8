import math
import warnings

import numpy as np
import pytest

from oracles import density_sine_quad
from vacuumlab import coulomb
from vacuumlab.constants import AU_KM, PLANCK_LENGTH_KM
from vacuumlab.coulomb import (expand_bracket, potential, potential_box,
                               potential_lorentz, sign_change_radius,
                               yukawa_bound_check)
from vacuumlab.errors import DomainError, NoSignChange, NonConvergence
from vacuumlab.specfun import sine_integral
from vacuumlab.vacuum import (make_box_profile, make_lorentz_profile,
                              physical_charge)


def radial_quad(q, prof, r):
    """Averaged potential of bare charge q by quadrature of the density:
    -(q^2/(2 pi^2 r)) int dkappa density sin(kappa r)/kappa."""
    return -q ** 2 / (2.0 * math.pi ** 2 * r) * density_sine_quad(prof, r)


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
            oracle = radial_quad(q, prof, r)
            assert closed == pytest.approx(oracle, rel=1e-10, abs=0)

    def test_coulomb_recovery(self):
        for r in np.geomspace(1.0, 100.0, 15):
            v = potential_box(1.0, 1e-5, 1e4, r)
            assert v / (-1.0 / (4 * math.pi * r)) == pytest.approx(
                1.0, abs=1e-3)

    def test_first_sign_change_near_si_constant(self):
        pot = lambda r: potential_box(1.0, 1.0, 1e4, r)
        r0 = sign_change_radius(pot, expand_bracket(pot, 0.1))
        assert r0 == pytest.approx(1.92645, abs=1e-3)

    @pytest.mark.parametrize("r", [5e-324, 1e-320, 1e-310, 1e-20])
    def test_subnormal_and_tiny_radii_give_the_origin_limit(self, r):
        # below k2 r = 1e-8 the r -> 0 limit holds to rounding, while
        # q_ph^2/(4 pi r) overflows at subnormal r
        q_ph, k1, k2 = 1.3, 0.7, 55.0
        origin = potential_box(q_ph, k1, k2, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = potential_box(q_ph, k1, k2, r)
            (array,) = potential_box(q_ph, k1, k2, np.array([r]))
        assert math.isfinite(scalar) and scalar == origin
        assert array.tobytes() == np.float64(scalar).tobytes()

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
            oracle = radial_quad(q, prof, r)
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

    def test_ratio_past_the_double_range(self):
        # at lambda^2 = 1e-300, y0 = 1e-150, V is +0.0 only past
        # r ~ 2.9e167, but r/y0 overflows from r ~ 1.8e158: V was NaN there
        for r in (1e160, np.array([1e150, 1e165])):
            with pytest.raises(DomainError, match="r/y0"):
                potential_lorentz(1.0, 1e-300, 1e-150, r)
        assert potential_lorentz(1.0, 1e-300, 1e-150, 1e157) == 0.0
        # past the kve cut-off radius V is +0.0 whatever r/y0 is
        assert potential_lorentz(1.0, 1e-2, 1e-100, 1e300) == 0.0
        assert potential_lorentz(1.0, 1e-2, 1e-100,
                                 np.array([1e-99, 1e300, math.inf]))[1:] \
            .tolist() == [0.0, 0.0]

    def test_charge_factor_past_the_double_range(self):
        # q_ph^2/(pi^2 r) = 1e309 overflowed, and V was -inf; V itself is
        # -5.9104557793044525652e288 (40-digit mpmath)
        args = (1e5, 1e-2, 1e-280)
        v = potential_lorentz(*args, 1e-300)
        assert v == pytest.approx(-5.9104557793044525652e288, rel=1e-15,
                                  abs=0.0)
        assert potential_lorentz(*args, np.array([1e-300, 1.0])).tolist()[0] \
            == v
        # V ~ -1e319 is no double
        for r in (1.0, np.array([1.0, 2.0])):
            with pytest.raises(DomainError, match="double range"):
                potential_lorentz(1e160, 1e-2, 1.0, r)

    def test_ratio_below_the_normal_range(self):
        # r/y0 underflowed to 0, the kernel's imaginary part with it, and
        # inf * 0 gave NaN
        for r in (4.4e-298, np.array([4.4e-298, 1.0])):
            with pytest.raises(DomainError, match="r/y0"):
                potential_lorentz(8.97e93, 3.8e-3, 9.1e89, r)

    def test_array_of_radii(self):
        rs = np.geomspace(0.1, 100.0, 7)
        v = potential_lorentz(1.0, 0.04, 0.3, rs)
        assert isinstance(v, np.ndarray) and v.shape == rs.shape
        assert v.tolist() == [potential_lorentz(1.0, 0.04, 0.3, float(r))
                              for r in rs]


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
        assert potential(prof, physical_charge(q, prof), r) == \
            pytest.approx(oracle, rel=1e-9)


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
            expand_bracket(lambda r: -1.0 / (4 * math.pi * r), 0.5)

    @pytest.mark.parametrize("bracket", [(0.0, 1.0), (2.0, 1.0),
                                         (1.0, math.inf)])
    def test_bracket_domain(self, bracket):
        with pytest.raises(DomainError):
            sign_change_radius(math.cos, bracket)

    @pytest.mark.parametrize("pot, radius", [
        (lambda r: math.nan if 1.4 < r < 1.6 else math.cos(r), None),
        (lambda r: math.nan if r == 2.0 else math.cos(r), 2.0),
        (lambda r: -math.nan if r == 1.0 else math.cos(r), 1.0),
    ], ids=["inside", "upper_end", "lower_end"])
    def test_nan_potential_raises_nonconvergence(self, pot, radius):
        # a typed error, which the CLI reports as a null radius with a note
        with pytest.raises(NonConvergence, match="NaN at r = ") as exc:
            sign_change_radius(pot, (1.0, 2.0))
        r = float(str(exc.value).rsplit(" ", 1)[1])
        assert math.isnan(pot(r))
        if radius is not None:
            assert r == radius

    def test_iteration_cap(self):
        with pytest.raises(NonConvergence, match="in 3 iterations"):
            coulomb._brent(math.cos, 1.0, 2.0, math.cos(1.0), math.cos(2.0),
                           3)


def _box_starts():
    """(potential, ladder start) of 40 random box profiles."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        k1 = 10 ** rng.uniform(-2, 0)
        k2 = k1 * 10 ** rng.uniform(0.5, 3)
        prof = make_box_profile(k1, k2)
        q_ph = physical_charge(1.0, prof)
        yield (lambda r, prof=prof, q_ph=q_ph: potential(prof, q_ph, r),
               10 ** rng.uniform(-4, 1) / k2)


def _exponential_starts():
    """(potential, ladder start) of 40 random exponential profiles."""
    rng = np.random.default_rng(12)
    for _ in range(40):
        y0 = 10 ** rng.uniform(-4, 0)
        prof = make_lorentz_profile(10 ** rng.uniform(-12, 0), y0)
        q_ph = physical_charge(1.0, prof)
        yield (lambda r, prof=prof, q_ph=q_ph: potential(prof, q_ph, r),
               y0 * 10 ** rng.uniform(-2, 1))


def _planck_potential(r):
    """validate's exponential profile at the Planck scale."""
    return potential(make_lorentz_profile(1e-49, 1e-38 / PLANCK_LENGTH_KM),
                     1.0, r)


def _same_root_as_brentq(pot, bracket):
    """sign_change_radius's root, bitwise equal to scipy's brentq at the
    same tolerances, from a potential called at brentq's radii: brentq's
    calls at the bracket's ends are the endpoint values that
    sign_change_radius computes itself.  sign_change_radius caps its
    iterations itself; brentq's cap is set out of reach."""
    brentq = pytest.importorskip("scipy.optimize").brentq
    ours, theirs = [], []

    def counted(calls):
        def f(r):
            calls.append(r)
            return pot(r)
        return f

    got = sign_change_radius(counted(ours), bracket)
    expect = brentq(counted(theirs), *bracket, xtol=1e-300, rtol=1e-10,
                    maxiter=10 ** 4)
    assert got.hex() == expect.hex()
    assert ours == theirs
    return got


class TestBrentqOracle:
    def test_box_brackets(self):
        for pot, r_start in _box_starts():
            _same_root_as_brentq(pot, expand_bracket(pot, r_start))

    def test_exponential_brackets(self):
        for pot, r_start in _exponential_starts():
            _same_root_as_brentq(pot, expand_bracket(pot, r_start))

    def test_validate_roots(self):
        _same_root_as_brentq(lambda x: math.pi / 2.0 - sine_integral(x),
                             (1.0, math.pi))
        _same_root_as_brentq(_planck_potential,
                             expand_bracket(_planck_potential, 1e47))

    @pytest.mark.parametrize("pot, bracket", [(math.cos, (1.0, 2.0)),
                                              (math.log, (1e-300, 1e300))],
                             ids=["cos", "log"])
    def test_elementary_functions(self, pot, bracket):
        _same_root_as_brentq(pot, bracket)

    def test_tiny_values(self):
        # values whose products underflow: the loop tests sign bits, not
        # the sign of f(a) f(b)
        for scale in (1e-200, 1e-300):
            _same_root_as_brentq(lambda r: scale * math.atan(30 * (r - 1.3)),
                                 (0.2, 4.7))


def _scalar_ladder(potential, r_start, factor=1.5, max_steps=200):
    """Reference bracket search: one scalar potential call per rung, zero
    rungs carrying no sign."""
    lo = r_start
    f_lo = potential(lo)
    hi = lo
    for _ in range(max_steps):
        hi *= factor
        f_hi = potential(hi)
        if f_hi == 0.0:
            continue
        if f_lo != 0.0 \
                and math.copysign(1.0, f_lo) != math.copysign(1.0, f_hi):
            return (lo, hi)
        lo, f_lo = hi, f_hi
    raise NoSignChange(
        f"no sign flip within {max_steps} geometric steps from {r_start}")


def _outcome(search, pot, r_start, **kw):
    try:
        return [float(x).hex() for x in search(pot, r_start, **kw)]
    except NoSignChange as exc:
        return str(exc)


def _same_bracket(pot, r_start, max_steps=200):
    """expand_bracket's bracket, bitwise equal to the scalar reference's
    (the ladder is the same sequence of roundings), or its NoSignChange
    message, equal to the reference's; max_steps other than the library's
    200 takes the monkeypatched coulomb._LADDER_STEPS."""
    expect = _outcome(_scalar_ladder, pot, r_start, max_steps=max_steps)
    got = _outcome(expand_bracket, pot, r_start)
    assert got == expect
    return got if isinstance(got, str) else tuple(map(float.fromhex, got))


class TestExpandBracket:
    def test_box_profiles_at_random_starts(self):
        for pot, r_start in _box_starts():
            _same_bracket(pot, r_start)

    def test_exponential_profiles_at_random_starts(self):
        for pot, r_start in _exponential_starts():
            _same_bracket(pot, r_start)

    def test_validation_planck_case(self):
        _same_bracket(_planck_potential, 1e47)

    def test_flip_at_first_step(self):
        assert _same_bracket(lambda r: r - 1.2, 1.0) == (1.0, 1.5)

    def test_signed_zeros(self):
        # +0.0 and -0.0 carry no sign, so an underflowed potential has no
        # flip; a flip between nonzero rungs spans the zero rungs between
        # them; NaN carries its sign bit
        no_flip = [lambda r: np.where(r < 5.0, 0.0, -0.0),
                   lambda r: np.where(r < 3.0, 1.0,
                                      np.where(r < 9.0, 0.0, -0.0)),
                   lambda r: np.where(r < 3.0, -1.0, 0.0),
                   lambda r: np.where(r < 3.0, 0.0,
                                      np.where(r < 9.0, -1.0, 0.0)),
                   lambda r: np.where(r < 3.0, -0.0, np.nan)]
        for pot in no_flip:
            assert "no sign flip" in _same_bracket(pot, 1.0)
        assert _same_bracket(
            lambda r: np.where(r < 3.0, 1.0, np.where(r < 9.0, -0.0, -2.0)),
            1.0) == (2.25, 11.390625)
        assert _same_bracket(
            lambda r: np.where(r < 3.0, np.nan, -np.nan), 1.0) == (2.25, 3.375)

    def test_zero_rungs_across_the_first_slice(self):
        # the last nonzero rung of the first slice pairs with the first
        # nonzero rung of the rest
        lo, hi = _same_bracket(
            lambda r: np.where(r < 40.0, -1.0, np.where(r < 1e8, 0.0, 1.0)),
            1.0)
        assert lo < 40.0 and hi >= 1e8

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

    def test_same_message_when_steps_run_out(self, monkeypatch):
        pot = lambda r: -1.0 / r
        for r_start, steps in ((0.5, 40), (1e300, 30), (0.5, 200)):
            monkeypatch.setattr(coulomb, "_LADDER_STEPS", steps)
            assert _same_bracket(pot, r_start, max_steps=steps) \
                == f"no sign flip within {steps} geometric steps from {r_start}"

    def test_one_potential_call(self, monkeypatch):
        # one call per slice: rungs 0-32, then the rest only when the first
        # slice holds no flip
        def counted(f):
            def pot(r):
                calls.append(np.shape(r))
                return f(r)
            return pot

        for f, r_start, steps, expect in (
                (np.cos, 0.1, 50, [(33,)]),             # flip at rung 7
                (lambda r: 1e10 - r, 1.0, 50, [(33,), (18,)]),  # rung 57
                (lambda r: 1e10 - r, 1.0, 33, [(33,), (1,)]),
                (lambda r: 1e10 - r, 1.0, 200, [(33,), (168,)])):
            monkeypatch.setattr(coulomb, "_LADDER_STEPS", steps)
            calls = []
            assert _outcome(expand_bracket, counted(f), r_start) \
                == _outcome(_scalar_ladder, f, r_start, max_steps=steps)
            assert calls == expect


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

