"""Property tests of the special-function kernels, the Coulomb potentials,
the 1+1 Casimir pressure and the deformed Poisson law against independent
mpmath references, over the parameter ranges the library and its CLI accept.

Hypothesis runs derandomized and without an example database, so the suite
draws the same examples on every run and writes no files.
"""

import math

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")
from hypothesis import (assume, example, given, settings,  # noqa: E402
                        strategies as st)

from vacuumlab import casimir, coulomb, oscillator, vacuum  # noqa: E402
from vacuumlab.errors import DomainError  # noqa: E402
from vacuumlab.specfun import (bessel_k0_complex, gamma_from_zero,  # noqa: E402
                               gen_incomplete_gamma, lambert_w)

EPS = float(np.finfo(float).eps)
DPS = 40

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)


def log_uniform(lo, hi):
    """Floats spread evenly in log10 between lo and hi."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda u: 10.0 ** u)


def mp_k0_scaled(z: complex) -> complex:
    """e^z K0(z), the scaled kernel bessel_k0_complex returns."""
    with mp.workdps(DPS):
        zz = mp.mpc(z.real, z.imag)
        return complex(mp.exp(zz) * mp.besselk(0, zz))


# -------------------------------------------------------------- complex K0

@PROPERTY
@given(modulus=log_uniform(1e-8, 1e3),
       arg=st.floats(-(math.pi / 2 - 1e-3), math.pi / 2 - 1e-3))
def test_k0_complex_matches_mpmath(modulus, arg):
    w = complex(modulus * math.cos(arg), modulus * math.sin(arg))
    ref = mp_k0_scaled(w)
    # unlike K0 (condition number ~ |w|), e^w K0(w) is well conditioned:
    # |w (1 - K1(w)/K0(w))| is of order one; worst seen 4.1 eps over 1,500
    # random points of this range
    assert abs(bessel_k0_complex(w) - ref) <= 8 * EPS * abs(ref)


@PROPERTY
@given(st.lists(st.tuples(log_uniform(1e-3, 1e2),
                          st.floats(-1.5, 1.5)), min_size=1, max_size=20))
def test_k0_complex_array_matches_scalar(points):
    z = np.array([m * complex(math.cos(a), math.sin(a)) for m, a in points])
    out = bessel_k0_complex(z)
    assert out.shape == z.shape
    assert all(out[i] == bessel_k0_complex(complex(v))
               for i, v in enumerate(z))


# ------------------------------------------------------ Coulomb potentials

def _box(u, v):
    k1 = 1e-2 * 100.0 ** u
    return vacuum.make_box_profile(k1, k1 * 3.0 * (1e3 / 3.0) ** v)


def _lorentz(u, v, lambda2_lo=1e-12, lambda2_hi=1.0, y0_lo=1e-4, y0_hi=1.0):
    return vacuum.make_lorentz_profile(
        lambda2_lo * (lambda2_hi / lambda2_lo) ** u,
        y0_lo * (y0_hi / y0_lo) ** v)


def _radii(profile, fractions, lo_scale, hi_scale):
    """Radii spread in log between lo_scale and hi_scale times the profile's
    length scale (1/k1 for the box, y0 for the exponential profile)."""
    scale = 1.0 / profile.k1 if profile.kind is vacuum.ProfileKind.BOX_SHELL \
        else profile.y0
    return np.array([scale * lo_scale * (hi_scale / lo_scale) ** f
                     for f in fractions])


unit = st.floats(0.0, 1.0)


@PROPERTY
@given(kind=st.sampled_from(["box", "lorentz"]), u=unit, v=unit,
       fractions=st.lists(unit, min_size=1, max_size=30))
def test_potential_array_bit_identical_to_scalar(kind, u, v, fractions):
    prof = _box(u, v) if kind == "box" else _lorentz(u, v)
    q_ph = vacuum.physical_charge(1.0, prof)
    lo, hi = (1e-3, 1e2) if kind == "box" else (0.1, 1e4)
    rs = _radii(prof, fractions, lo, hi)
    if kind == "box":
        rs = np.append(rs, 0.0)
    out = coulomb.potential(prof, q_ph, rs)
    scalars = [coulomb.potential(prof, q_ph, float(r)) for r in rs]
    assert all(isinstance(s, float) for s in scalars)
    assert out.tolist() == scalars


@pytest.mark.parametrize("r", [0.5, 3.16])
def test_lorentz_potential_at_large_lambda_matches_mpmath(r):
    # at lambda^2 = 1e5, r = 3.16 K0(w) alone underflows (Re w ~ 1300)
    # while V ~ -1.8e-132 is representable
    lambda2, y0 = 1e5, 1.0
    with mp.workdps(DPS):
        lam = mp.sqrt(mp.mpf(lambda2))
        w = 2 * lam * mp.sqrt(1 + 1j * mp.mpf(r) / y0)
        ref = float(mp.exp(2 * lam) * mp.im(mp.besselk(0, w))
                    / (mp.pi ** 2 * mp.mpf(r)))
    assert coulomb.potential_lorentz(1.0, lambda2, y0, r) == pytest.approx(
        ref, rel=1e-12, abs=0.0)


@settings(PROPERTY, max_examples=60)
@given(kind=st.sampled_from(["box", "lorentz"]), u=unit, v=unit, f=unit)
def test_potential_matches_radial_quadrature(kind, u, v, f):
    # the quadrature route is the oracle only where it converges: for the
    # exponential profile that is y0 >= 1e-2, lambda^2 <= 0.1, r <= 100 y0
    if kind == "box":
        prof, (lo, hi) = _box(u, v), (1e-2, 1e2)
    else:
        prof, (lo, hi) = _lorentz(u, v, lambda2_hi=0.1, y0_lo=1e-2), (0.1, 1e2)
    r = float(_radii(prof, [f], lo, hi)[0])
    q = 1.0
    q_ph = vacuum.physical_charge(q, prof)
    oracle = coulomb.potential_profile_quad(q, prof, r)
    # the absolute floor, 1e-9 of the bare Coulomb value, only matters at a
    # sign change of V
    assert coulomb.potential(prof, q_ph, r) == pytest.approx(
        oracle, rel=1e-6, abs=1e-9 * q_ph ** 2 / (4 * math.pi * r))


# ------------------------------------------------ incomplete gamma family

def mp_gen_gamma(alpha, x, b):
    with mp.workdps(DPS):
        a, x, b = mp.mpf(alpha), mp.mpf(x), mp.mpf(b)
        peak = max(x, mp.sqrt(b))
        pts = sorted({x, peak}) + [peak + 1, peak + 30, mp.inf]
        return float(mp.quad(lambda t: t ** (a - 1) * mp.exp(-t - b / t), pts))


@settings(PROPERTY, max_examples=80)
@given(alpha=st.floats(-3.0, 5.0), x=log_uniform(1e-3, 30.0),
       b=st.one_of(st.just(0.0), log_uniform(1e-8, 1e2)))
def test_gen_incomplete_gamma_matches_mpmath(alpha, x, b):
    assert gen_incomplete_gamma(alpha, x, b) == pytest.approx(
        mp_gen_gamma(alpha, x, b), rel=1e-9)


@PROPERTY
@given(alpha=st.sampled_from([1, 2, 4]), b=log_uniform(1e-300, 1.0))
def test_gamma_from_zero_matches_mpmath(alpha, b):
    with mp.workdps(DPS):
        bb = mp.mpf(b)
        ref = float(2 * bb ** (mp.mpf(alpha) / 2)
                    * mp.besselk(alpha, 2 * mp.sqrt(bb)))
    assert gamma_from_zero(float(alpha), b) == pytest.approx(ref, rel=1e-14)


# ------------------------------------------------------- profile moments

@PROPERTY
@given(n=st.integers(0, 4), lambda2=log_uniform(1e-300, 1.2e5),
       y0=log_uniform(1e-4, 1e3))
@example(n=3, lambda2=1e-300, y0=1e-4)      # about 1e288, in range
@example(n=3, lambda2=1e-300, y0=1e3)       # about 1e309, out of range
@example(n=4, lambda2=1e-8, y0=1e-4)        # the old quadrature's -9e-12
@example(n=2, lambda2=1.2e5, y0=1e3)
def test_density_integral_matches_mpmath(n, lambda2, y0):
    # y0^n lambda^-n K_{2-n}(2 lambda)/K_2(2 lambda): the moment of a
    # normalized profile, independent of the stored norm_const
    profile = vacuum.make_lorentz_profile(lambda2, y0)
    with mp.workdps(DPS):
        lam = mp.sqrt(mp.mpf(lambda2))
        ref = (mp.mpf(y0) / lam) ** n * mp.besselk(2 - n, 2 * lam) \
            / mp.besselk(2, 2 * lam)
    if ref > np.finfo(float).max:
        with pytest.raises(DomainError):
            vacuum.density_integral(profile, n)
    else:
        assert vacuum.density_integral(profile, n) == pytest.approx(
            float(ref), rel=1e-14, abs=0)


# -------------------------------------------------------------- Lambert W

@PROPERTY
@given(branch=st.integers(-3, 3), modulus=log_uniform(1e-6, 1e6),
       arg=st.floats(-math.pi, math.pi))
def test_lambert_w_matches_mpmath(branch, modulus, arg):
    z = complex(modulus * math.cos(arg), modulus * math.sin(arg))
    with mp.workdps(DPS):
        ref = complex(mp.lambertw(mp.mpc(z.real, z.imag), branch))
    # 1/|1 + W| is the relative condition number of W at z; it only exceeds
    # 1 near the branch point -1/e
    cond = max(1.0, 1.0 / abs(1.0 + ref))
    assert abs(lambert_w(branch, z) - ref) <= 6e-15 * cond * abs(ref)


# ---------------------------------------------------- 1+1 Casimir pressure

def mp_casimir_1p1(alpha, L):
    """-(1/pi) int_0^inf t x/(1-x) dt with x = e^{-2tL} (1+2t/alpha)^-2: the
    whole reflection series summed under the integral."""
    with mp.workdps(30):
        a, l = mp.mpf(alpha), mp.mpf(L)
        f = lambda t: t / mp.expm1(2 * t * l + 2 * mp.log1p(2 * t / a))
        # the integrand has fallen to e^-100 of its scale at 50/L; an
        # alpha/2 past it would send the rule over decades of nothing
        cut = 50 / l
        pts = [0] + sorted(p for p in (a / 2, 1 / (2 * l)) if p < cut)
        return float(-mp.quad(f, pts + [cut, mp.inf]) / mp.pi)


casimir_alpha = log_uniform(1e-3, 1e4)
casimir_gap = log_uniform(0.05, 20.0)
# up to the alpha L = 1e76 end of pressure_1p1_quad's domain
casimir_quad_alpha = log_uniform(1e-3, 1e76)


@settings(PROPERTY, max_examples=50)
@given(alpha=casimir_alpha, L=casimir_gap)
# small alpha: the ~1/n^2 tail must be added however small the explicit
# terms get
@example(alpha=1e-3, L=20.0)
@example(alpha=1e-2, L=20.0)
def test_casimir_series_matches_mpmath(alpha, L):
    assume(alpha * L <= 2e4)
    ref = mp_casimir_1p1(alpha, L)
    assert abs(casimir.pressure_1p1_series(alpha, L) - ref) <= 1e-13 * abs(ref)


@settings(PROPERTY, max_examples=40)
@given(alpha=casimir_quad_alpha, L=casimir_gap)
@example(alpha=1e4, L=2.0)
@example(alpha=1e5, L=1.0)
@example(alpha=1e6, L=20.0)
def test_casimir_quadrature_matches_mpmath(alpha, L):
    # worst measured 1.0e-12 over 331 points of the domain (L from 1e-3 to
    # 1e3); 7.0e-13 for alpha L <= 1e8
    assume(alpha * L <= 1e76)
    ref = mp_casimir_1p1(alpha, L)
    assert abs(casimir.pressure_1p1_quad(alpha, L) - ref) <= 1e-11 * abs(ref)


# ------------------------------------------------------ deformed Poisson law

def mp_renyi_pmf(probs, intensities, N, n):
    """(1/n!) d^n/dlambda^n (p_1 e^{lambda w_1/N} + p_2 e^{lambda w_2/N})^N
    at lambda = -1: the generating function, differentiated by mpmath.
    A probability p > 0 needs log10(1/p) more digits to survive the sum."""
    if n > 0 and all(w == 0 for p, w in zip(probs, intensities) if p > 0):
        return mp.mpf(0)    # g is constant; numerical d^n/dlambda^n is noise
    smallest = min(x for x in probs if x > 0)
    with mp.workdps(30 + math.ceil(-math.log10(smallest))):
        (p1, p2), (w1, w2) = map(mp.mpf, probs), map(mp.mpf, intensities)
        g = lambda lam: (p1 * mp.exp(lam * w1 / N)
                         + p2 * mp.exp(lam * w2 / N)) ** N
        return mp.diff(g, -1, n) / mp.factorial(n)


@settings(PROPERTY, max_examples=100)
@given(N=st.integers(1, 2000), n=st.integers(0, 8), p=st.floats(0.0, 1.0),
       intensities=st.tuples(*[st.one_of(st.just(0.0), log_uniform(1e-3, 10.0))
                               for _ in range(2)]))
# the validation's shannon_gap_at_1e4 case
@example(N=10000, n=0, p=0.35, intensities=(0.7, 0.3))
@example(N=10000, n=1, p=0.35, intensities=(0.7, 0.3))
@example(N=10000, n=5, p=0.35, intensities=(0.7, 0.3))
def test_two_mode_renyi_pmf_matches_mpmath(N, n, p, intensities):
    # the log-gamma terms, up to ~N log N in size, set the rounding floor:
    # worst measured 2.3e-12 relative for N <= 2000 (4,000 random points)
    # and 3.0e-12 at the validation's N = 1e4 case; values below the normal
    # range keep only their absolute accuracy
    probs = [p, 1.0 - p]
    ref = mp_renyi_pmf(probs, intensities, N, n)
    got = oscillator.renyi_poisson_pmf(probs, intensities, N, n)
    assert abs(got - ref) <= 4e-12 * abs(ref) + np.finfo(float).tiny
