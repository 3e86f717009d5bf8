"""Property tests of the special-function kernels, the Coulomb potentials,
the 1+1 Casimir pressure and the deformed Poisson law against independent
mpmath references, over the parameter ranges the library and its CLI accept.

Each property test runs its explicit cases, the ends of its ranges and the
points that once failed, and then a fixed number of points drawn from its
own np.random.default_rng(seed) (tests/seeded.py).  The seed and the count
are written in the test's parametrize list, so every run draws the same
points whatever the package holds, and each point has its own test id.
"""

import math

import numpy as np
import pytest
from scipy.special import kve

mp = pytest.importorskip("mpmath")

from oracles import density_sine_quad  # noqa: E402
from seeded import cases, draw_modes, draws, log_uniform  # noqa: E402
from vacuumlab import (casimir, cavity, coulomb, oscillator,  # noqa: E402
                       vacuum)
from vacuumlab.errors import DomainError  # noqa: E402
from vacuumlab.specfun import (gamma_from_zero,  # noqa: E402
                               gamma_from_zero_scaled)

EPS = float(np.finfo(float).eps)
DPS = 40


def mp_k0_scaled(z: complex) -> complex:
    """e^z K0(z), the scaled kernel kve(0, z) that
    coulomb.potential_lorentz calls."""
    with mp.workdps(DPS):
        zz = mp.mpc(z.real, z.imag)
        return complex(mp.exp(zz) * mp.besselk(0, zz))


# -------------------------------------------------------------- complex K0

K0_ARG = math.pi / 2 - 1e-3


def draw_k0_point(rng):
    return log_uniform(rng, 1e-8, 1e3), rng.uniform(-K0_ARG, K0_ARG)


@pytest.mark.parametrize("modulus, arg", cases(
    [(10.0 ** 0.3, 0.0), (1.998, 0.0), (1.949, 1e-6),
     # the ends of the ranges
     (1e-8, -K0_ARG), (1e3, K0_ARG)],
    draws(1401, 150, draw_k0_point)))
def test_k0_complex_matches_mpmath(modulus, arg):
    w = complex(modulus * math.cos(arg), modulus * math.sin(arg))
    ref = mp_k0_scaled(w)
    # unlike K0 (condition number ~ |w|), e^w K0(w) is well conditioned:
    # |w (1 - K1(w)/K0(w))| is of order one.  Worst seen 7.8 eps over
    # 16,000 points of this range outside 1.5 <= |w| < 2.  Inside, the
    # last stretch of Amos's power series (used up to |w| = 2) gives up to
    # 19.4 eps, near the real axis (at |w| = 1.949, arg = 1e-6; 14.8 eps
    # on the axis at w = 1.998)
    bound = 24 if 1.5 <= modulus < 2.0 else 8
    assert abs(kve(0, w) - ref) <= bound * EPS * abs(ref)


def draw_k0_points(rng):
    size = int(rng.integers(1, 20, endpoint=True))
    return ([(log_uniform(rng, 1e-3, 1e2), rng.uniform(-1.5, 1.5))
             for _ in range(size)],)


@pytest.mark.parametrize("points", cases(
    # the ends of the ranges and of the length
    [([(1e-3, -1.5)],), ([(1e2, 1.5)] * 20,)],
    draws(1402, 150, draw_k0_points)))
def test_k0_complex_array_matches_scalar(points):
    z = np.array([m * complex(math.cos(a), math.sin(a)) for m, a in points])
    out = kve(0, z)
    assert out.shape == z.shape
    assert all(out[i] == kve(0, complex(v)) for i, v in enumerate(z))


# ------------------------------------------------------ Coulomb potentials

def _box(u, v):
    k1 = 1e-2 * 100.0 ** u
    return vacuum.make_box_profile(k1, k1 * 3.0 * (1e3 / 3.0) ** v)


def _lorentz(u, v):
    # lambda^2 in [1e-12, 1], y0 in [1e-4, 1]
    return vacuum.make_lorentz_profile(1e-12 * 1e12 ** u, 1e-4 * 1e4 ** v)


def _radii(profile, fractions, lo_scale, hi_scale):
    """Radii spread in log between lo_scale and hi_scale times the profile's
    length scale (1/k1 for the box, y0 for the exponential profile)."""
    scale = 1.0 / profile.k1 if profile.kind is vacuum.ProfileKind.BOX_SHELL \
        else profile.y0
    return np.array([scale * lo_scale * (hi_scale / lo_scale) ** f
                     for f in fractions])


def draw_units(rng):
    """(u, v, f), each uniform in [0, 1]."""
    return tuple(rng.random(3).tolist())


def draw_kind(rng):
    return ("box", "lorentz")[rng.integers(2)]


def draw_radius_fractions(rng):
    kind, (u, v) = draw_kind(rng), rng.random(2).tolist()
    size = int(rng.integers(1, 30, endpoint=True))
    return kind, u, v, rng.random(size).tolist()


@pytest.mark.parametrize("kind, u, v, fractions", cases(
    # the ends of the ranges and of the length, for each profile
    [(kind, *ends) for kind in ("box", "lorentz")
     for ends in ((0.0, 0.0, [0.0]), (1.0, 1.0, [1.0] * 30))],
    draws(1403, 150, draw_radius_fractions)))
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


# the top of expand_bracket's ladder from rmin = 0.1/k2: 1.5^200 rmin
LADDER_TOP = 1.5 ** 200


@pytest.mark.parametrize("u, v, f", cases(
    [(0.0, 1.0, 1.0),
     # the ends of the ranges
     (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)],
    draws(1404, 150, draw_units)))
def test_box_float_path_matches_array_path(u, v, f):
    # over the CLI's box requests: k1 in [1e-2, 1], k2/k1 in [3, 1e3], r
    # from 0.1/k2 up to the ladder's top, and r = 0
    prof = _box(u, v)
    q_ph = vacuum.physical_charge(1.0, prof)
    rmin = 0.1 / prof.k2
    for r in (rmin * LADDER_TOP ** f, 0.0):
        got = coulomb.potential_box(q_ph, prof.k1, prof.k2, r)
        (expect,) = coulomb.potential_box(q_ph, prof.k1, prof.k2,
                                          np.array([r])).tolist()
        assert type(got) is float
        assert got.hex() == expect.hex()


@pytest.mark.parametrize("u, v, f", cases(
    [(1.0, 0.0, 1.0), (0.0, 1.0, 0.0),
     # the ends of the ranges
     (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)],
    draws(1405, 150, draw_units)))
def test_lorentz_float_path_matches_array_path(u, v, f):
    # lambda^2 in [1e-12, 1], y0 in [1e-4, 1], r/y0 in [0.1, 1e30]
    prof = _lorentz(u, v)
    q_ph = vacuum.physical_charge(1.0, prof)
    r = float(_radii(prof, [f], 0.1, 1e30)[0])
    got = coulomb.potential_lorentz(q_ph, prof.lambda2, prof.y0, r)
    (expect,) = coulomb.potential_lorentz(q_ph, prof.lambda2, prof.y0,
                                          np.array([r])).tolist()
    assert type(got) is float
    assert got.hex() == expect.hex()


def test_float_path_rejects_bad_radii():
    with pytest.raises(DomainError):
        coulomb.potential_box(1.0, 1.0, 100.0, -1e-300)
    for r in (0.0, -0.0, -2.5):
        with pytest.raises(DomainError):
            coulomb.potential_lorentz(1.0, 1e-6, 1e-3, r)


@pytest.mark.parametrize("r", [np.float64(2.0), 2])
def test_numpy_float_and_int_radii_give_floats(r):
    box = coulomb.potential_box(1.0, 1.0, 100.0, r)
    lorentz = coulomb.potential_lorentz(1.0, 1e-6, 1e-3, r)
    assert type(box) is float and type(lorentz) is float
    assert box == coulomb.potential_box(1.0, 1.0, 100.0, 2.0)
    assert lorentz == coulomb.potential_lorentz(1.0, 1e-6, 1e-3, 2.0)


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


@pytest.mark.parametrize("kind, u, v, f", cases(
    # the ends of the ranges, for each profile
    [(kind, end, end, end) for kind in ("box", "lorentz")
     for end in (0.0, 1.0)],
    draws(1406, 60, lambda rng: (draw_kind(rng), *draw_units(rng)))))
def test_potential_matches_radial_quadrature(kind, u, v, f):
    # the exponential profile at r/y0 in [0.1, 1e4], over the range of
    # _lorentz; the box at k1 r in [1e-2, 1e2]
    if kind == "box":
        prof, (lo, hi) = _box(u, v), (1e-2, 1e2)
    else:
        prof, (lo, hi) = _lorentz(u, v), (0.1, 1e4)
    r = float(_radii(prof, [f], lo, hi)[0])
    q = 1.0
    q_ph = vacuum.physical_charge(q, prof)
    oracle = -q ** 2 / (2.0 * math.pi ** 2 * r) \
        * density_sine_quad(prof, r)
    # the absolute floor, 1e-9 of the bare Coulomb value, only matters at a
    # sign change of V
    assert coulomb.potential(prof, q_ph, r) == pytest.approx(
        oracle, rel=1e-6, abs=1e-9 * q_ph ** 2 / (4 * math.pi * r))


# ------------------------------------------- incomplete gamma from zero

GAMMA_ALPHAS = (1, 2, 4)


@pytest.mark.parametrize("alpha, b", cases(
    # the ends of the range, for each alpha, and the profile's largest
    # lambda^2, where the value nears the bottom of the normal range
    [(alpha, b) for alpha in GAMMA_ALPHAS
     for b in (1e-300, 1.0, 1e5, 1.26e5)],
    draws(1407, 150, lambda rng: (GAMMA_ALPHAS[rng.integers(3)],
                                  log_uniform(rng, 1e-300, 1.0)))
    + draws(1428, 150, lambda rng: (GAMMA_ALPHAS[rng.integers(3)],
                                    log_uniform(rng, 1.0, 1.26e5)))))
def test_gamma_from_zero_matches_mpmath(alpha, b):
    with mp.workdps(DPS):
        bb = mp.mpf(b)
        ref = float(2 * bb ** (mp.mpf(alpha) / 2)
                    * mp.besselk(alpha, 2 * mp.sqrt(bb)))
    assert gamma_from_zero(alpha, b) == pytest.approx(ref, rel=2e-15, abs=0)


@pytest.mark.parametrize("n, b", cases(
    # the ends of the kernel's domain, below 2^56, for each n
    [(n, b) for n in (0, *GAMMA_ALPHAS)
     for b in (1e-300, math.nextafter(2.0 ** 56, 0.0))],
    draws(1429, 100, lambda rng: (int(rng.choice((0, *GAMMA_ALPHAS))),
                                  log_uniform(rng, 1e-300, 2.0 ** 56)))))
def test_gamma_from_zero_scaled_matches_mpmath(n, b):
    # 2 h^n e^(2h) K_n(2h) at the rounded h = sqrt(b); past b ~ 1.26e5,
    # where gamma_from_zero underflows, only the scaled value is a double
    h = math.sqrt(b)
    with mp.workdps(DPS):
        hh = mp.mpf(h)
        ref = float(2 * hh ** n * mp.exp(2 * hh) * mp.besselk(n, 2 * hh))
    assert gamma_from_zero_scaled(n, b) == pytest.approx(ref, rel=2e-15,
                                                         abs=0)


# ------------------------------------------------------- profile moments

@pytest.mark.parametrize("lambda2, y0", cases(
    # the ends of the ranges among them
    [(1e-300, 1e-4), (1e-300, 1e3), (1.2e5, 1e3)],
    draws(1408, 150, lambda rng: (log_uniform(rng, 1e-300, 1.2e5),
                                  log_uniform(rng, 1e-4, 1e3)))))
def test_density_integral_matches_mpmath(lambda2, y0):
    # y0 lambda^-1 K_1(2 lambda)/K_2(2 lambda): the self-energy moment of a
    # normalized profile, independent of the stored norm_const; it lies
    # between 0 and y0
    profile = vacuum.make_lorentz_profile(lambda2, y0)
    with mp.workdps(DPS):
        lam = mp.sqrt(mp.mpf(lambda2))
        ref = mp.mpf(y0) / lam * mp.besselk(1, 2 * lam) \
            / mp.besselk(2, 2 * lam)
    assert vacuum.density_integral(profile) == pytest.approx(
        float(ref), rel=1e-14, abs=0)


# ------------------------------------------------------- cavity resonances

def mp_resonance_root(alpha, L, n, sign):
    """k_{n,+-} = -i (L alpha - 2 W_n(+- e^{L alpha/2} L alpha/2))/L at the
    given doubles alpha and L, in 50-digit arithmetic."""
    with mp.workdps(50):
        a, ll = mp.mpf(alpha), mp.mpf(L)
        x = a * ll
        w = mp.lambertw(sign * mp.exp(x / 2) * x / 2, n)
        return complex(-1j * (x - 2 * w) / ll)


def draw_cavity(rng):
    """(alpha L, L) log-uniform, drawn again until alpha = alpha_L/L gives
    an alpha L inside the domain."""
    while True:
        alpha_L, L = log_uniform(rng, 1e-140, 1e3), log_uniform(rng, 1e-5, 1e5)
        if 1e-140 <= alpha_L / L * L <= 1e3:
            return alpha_L, L


@pytest.mark.parametrize("alpha_L, L", cases(
    [(1e-12, 1.0), (1.0232929922807535e-3, 1.0),
     # the ends of the ranges
     (1e-140, 1e-5), (1e3, 1e5)],
    draws(1409, 150, draw_cavity)))
def test_resonance_roots_match_mpmath(alpha_L, L):
    # every branch 0-5 over the whole alpha L domain; the worst seen over
    # this range is 3.8e-16 max(|k|, alpha).  The bound is on that scale
    # rather than |k|: the (0, +) root is 0, and L alpha - 2 W_0 cancels
    # to it from terms of size alpha L
    alpha = alpha_L / L
    branches = range(0, 6)
    roots = cavity.resonance_roots(alpha, L, branches)
    refs = [mp_resonance_root(alpha, L, n, sign)
            for n in branches for sign in (1, -1)]
    for root, ref in zip(roots, refs):
        assert abs(root - ref) <= 4e-15 * max(abs(ref), alpha)


# ---------------------------------------------------- 1+1 Casimir pressure

def _mp_casimir_scale(a, l):
    """(alpha/(2 (1 + alpha L)))^2, the level of the 1+1 integrand (its
    plateau alpha^2/4 for alpha L << 1, 1/(4 L^2) for alpha L >> 1).  The
    references integrate the integrand divided by it: mpmath's quad stops
    once its error estimate falls below an absolute epsilon, which an
    integrand of size 1e-140 meets at the first refinement."""
    return (a / (2 * (1 + a * l))) ** 2


def mp_casimir_1p1(alpha, L):
    """-(1/pi) int_0^inf t x/(1-x) dt with x = e^{-2tL} (1+2t/alpha)^-2: the
    whole reflection series summed under the integral."""
    with mp.workdps(30):
        a, l = mp.mpf(alpha), mp.mpf(L)
        w = _mp_casimir_scale(a, l)
        f = lambda t: t / mp.expm1(2 * t * l + 2 * mp.log1p(2 * t / a)) / w
        # the integrand has fallen to e^-100 of its scale at 50/L; an
        # alpha/2 past it would send the rule over decades of nothing
        cut = 50 / l
        pts = [0] + sorted(p for p in (a / 2, 1 / (2 * l)) if p < cut)
        return float(-w * mp.quad(f, pts + [cut, mp.inf]) / mp.pi)


def mp_casimir_1p1_log(alpha, L):
    """mp_casimir_1p1 in s = log t on ten-unit panels, for alpha L far
    below 1: between t = alpha/2 and t = 1/(2L) the integrand bends over
    tens of decades, which the few panels of mp_casimir_1p1 miss (0.5
    relative at alpha L = 1e-70)."""
    with mp.workdps(20):
        a, l = mp.mpf(alpha), mp.mpf(L)
        w = _mp_casimir_scale(a, l)

        def g(s):
            t = mp.exp(s)
            return t * t / mp.expm1(2 * t * l + 2 * mp.log1p(2 * t / a)) / w

        lo, hi = mp.log(a) - 40, mp.log(50 / l) + 5
        n = int((hi - lo) / 10) + 1
        return float(-w * mp.quad(g, [lo + (hi - lo) * i / n
                                      for i in range(n + 1)]) / mp.pi)


def mp_casimir_reference(alpha, L):
    """The 1+1 oracle: mp_casimir_1p1, or mp_casimir_1p1_log below
    alpha L = 1e-2, where the former's few panels start to miss the bend
    (13% off at alpha L = 1e-40)."""
    if alpha * L < 1e-2:
        return mp_casimir_1p1_log(alpha, L)
    return mp_casimir_1p1(alpha, L)


def draw_casimir_series(rng):
    """(alpha L, alpha) log-uniform, drawn again until L = alpha_L/alpha
    lies in 1e-150..1e150."""
    while True:
        alpha_L = log_uniform(rng, 1e-190, 2e4)
        alpha = log_uniform(rng, 1e-140, 1e4)
        if 1e-150 <= alpha_L / alpha <= 1e150:
            return alpha_L, alpha


def draw_casimir_quad(rng):
    """(alpha L, L) over pressure_1p1_quad's whole domain in alpha L, drawn
    again until alpha = alpha_L/L gives an alpha L inside it."""
    while True:
        alpha_L = log_uniform(rng, 1e-70, 1e76)
        L = log_uniform(rng, 0.05, 20.0)
        if 1e-70 <= alpha_L / L * L <= 1e76:
            return alpha_L, L


@pytest.mark.parametrize("alpha_L, alpha", cases(
    [(1e-3 * 20.0, 1e-3), (1e-2 * 20.0, 1e-2),
     # the 63-term series with an Euler-Maclaurin tail returned these
     # without an error, 4.7e-2, 9.4e-2 and 0.15 off: its terms e^{nh}
     # underflowed while the integrand ~ alpha^2/(4t) was still a double
     (1e-60 * 1e-110, 1e-60), (2.72e-44 * 5.75e-136, 2.72e-44),
     (8.97e-58 * 6.08e-134, 8.97e-58),
     # q^2 = (1 + 2t/alpha)^-2 underflows here, while the weighted
     # integrand alpha^2 w/(4t) is normal
     (1.855587492859662e-187, 4.3520760536183816e-139),
     # the ends of the ranges
     (1e-190, 1e-140), (2e4, 1e4)],
    draws(1410, 50, draw_casimir_series)))
def test_casimir_series_matches_mpmath(alpha_L, alpha):
    # alpha >= 1e-140 keeps p ~ -alpha^2 ln(1/(alpha L))/(4 pi) normal down
    # to alpha L = 1e-190; worst measured 5.3e-16 over 600 draws and the
    # explicit cases
    L = alpha_L / alpha
    ref = mp_casimir_reference(alpha, L)
    assert abs(casimir.pressure_1p1_series(alpha, L) - ref) <= 2e-15 * abs(ref)


@pytest.mark.parametrize("alpha_L, L", cases(
    [(2e4, 2.0), (1e5, 1.0), (2e7, 20.0),
     # the worst points of a 71-point scan, L from 1e-3 to 1e3
     (6.59e17, 1.49e-3), (2.44e67, 0.111), (1e76, 1e3),
     # the ends of the ranges
     (1e-70, 0.05), (1e76, 20.0)],
    draws(1411, 40, draw_casimir_quad)))
def test_casimir_quadrature_matches_mpmath(alpha_L, L):
    # worst measured 1.05e-12 over 331 points of the domain (L from 1e-3 to
    # 1e3); 6.8e-13 for alpha L <= 1e8
    alpha = alpha_L / L
    ref = mp_casimir_reference(alpha, L)
    assert abs(casimir.pressure_1p1_quad(alpha, L) - ref) <= 1e-11 * abs(ref)


def test_casimir_subnormal_pressure_raises():
    # p ~ -1.09e-319 at alpha L = 1e-60 is subnormal: the series kept 2
    # digits there, the quadrature 3.  A hundred times larger alpha, p is
    # normal and both routes still agree with mpmath.
    routes = (casimir.pressure_1p1_series, casimir.pressure_1p1_quad)
    for route in routes:
        with pytest.raises(DomainError):
            route(1e-160, 1e100)
    ref = mp_casimir_1p1_log(1e-150, 1e100)
    assert -1e-299 < ref < -1e-300
    for route in routes:
        assert abs(route(1e-150, 1e100) - ref) <= 1e-13 * abs(ref)


# ------------------------------------------------------ deformed Poisson law

def mp_renyi_pmf(probs, intensities, N, n):
    """[z^n] Q(z)^N with Q(z) = sum_w p_w e^{mu_w (z - 1)}, mu_w = w_w/N, by
    the J. C. P. Miller recurrence for the power of a series,
    k q_0 P_k = sum_{j=1..k} ((N + 1) j - k) q_j P_{k-j}, in 80 digits.
    Its terms change sign where N < k, and the sum then cancels; it agreed
    with a 200-digit binary powering of the series to 2e-57 relative over
    150 draws of the test's range, n = 40 and N = 1 among them."""
    with mp.workdps(80):
        mus = [mp.mpf(w) / N for w in intensities]
        q = [mp.fsum(mp.mpf(p) * mp.exp(-mu) * mu ** k / mp.factorial(k)
                     for p, mu in zip(probs, mus)) for k in range(n + 1)]
        P = [q[0] ** N]
        for k in range(1, n + 1):
            P.append(mp.fsum(((N + 1) * j - k) * q[j] * P[k - j]
                             for j in range(1, k + 1)) / (k * q[0]))
        return P[n]


def draw_sites(rng, most):
    """N from 1 to 50 or from 1 to most, each range with probability 1/2."""
    return int(rng.integers(1, (50, most)[rng.integers(2)], endpoint=True))


@pytest.mark.parametrize("modes, N, n", cases(
    [# n > N, where a log/exp recurrence for Q^N cancels
     (([1.0, 1.0], [0.7, 0.3]), 1, 20),
     # the validation's shannon_gap_at_1e4 case
     (([0.35, 0.65], [0.7, 0.3]), 10000, 0),
     (([0.35, 0.65], [0.7, 0.3]), 10000, 1),
     (([0.35, 0.65], [0.7, 0.3]), 10000, 5),
     # four modes at N = 1e4: 1.7e11 occupation patterns
     (([0.1, 0.2, 0.3, 0.4], [0.4, 0.9, 0.1, 2.5]), 10000, 12),
     # a mode with zero probability and the largest intensity
     (([0.0, 0.3, 0.7], [10.0, 0.5, 0.01]), 3, 30),
     # the ends of the ranges
     (([1e-3], [1e-3]), 1, 0), (([1.0] * 5, [10.0] * 5), 10 ** 4, 40)],
    draws(1412, 100, lambda rng: (draw_modes(rng, 10.0),
                                  draw_sites(rng, 10 ** 4),
                                  int(rng.integers(0, 40, endpoint=True))))))
def test_renyi_pmf_matches_mpmath(modes, N, n):
    # worst measured 1.1e-14 relative over 700 random draws of this range
    # (m = 1..5, N <= 1e4, every n up to the drawn one <= 40; 3.0e-12 at
    # the validation's N = 1e4 case before the series route); values below
    # the normal range keep only their absolute accuracy
    weights, intensities = modes
    probs = [x / math.fsum(weights) for x in weights]
    ref = mp_renyi_pmf(probs, intensities, N, n)
    (got,) = oscillator.renyi_poisson_pmf(probs, intensities, N, [n]).tolist()
    assert abs(got - ref) <= 1e-13 * abs(ref) + np.finfo(float).tiny


def draw_one_mode(rng):
    w = 0.0 if rng.integers(2) else log_uniform(rng, 1e-3, 100.0)
    return w, draw_sites(rng, 10 ** 6), int(rng.integers(0, 40, endpoint=True))


@pytest.mark.parametrize("w, N, n", cases(
    # the ends of the ranges
    [(1e-3, 1, 0), (100.0, 10 ** 6, 40)],
    draws(1413, 150, draw_one_mode)))
def test_one_mode_renyi_pmf_is_poisson(w, N, n):
    # Q(z)^N = e^{w (z - 1)} at every N: the Poisson law with mean w
    with mp.workdps(40):
        ref = mp.exp(-w) * mp.mpf(w) ** n / mp.factorial(n)
    (got,) = oscillator.renyi_poisson_pmf([1.0], [w], N, [n]).tolist()
    assert abs(got - ref) <= 1e-13 * abs(ref) + np.finfo(float).tiny


def draw_shannon(rng):
    """lam log-uniform; n from 0 to 40 or from 0 to 1000, each range with
    probability 1/2."""
    lam = log_uniform(rng, 1e-3, 1e3)
    return lam, int(rng.integers(0, (40, 1000)[rng.integers(2)],
                                 endpoint=True))


@pytest.mark.parametrize("lam, n", cases(
    [(500.0, 500), (700.0, 650),
     # the ends of the ranges
     (1e-3, 0), (1e3, 1000)],
    draws(1414, 150, draw_shannon)))
def test_shannon_pmf_matches_mpmath(lam, n):
    # worst measured 3.2e-16 relative over 6,000 random draws of this range;
    # exp(n log lam - lam - lgamma(n + 1)) was 3.3e-14 off at lam = n = 500
    # and 5.95e-13 at lam = 700, n = 650
    with mp.workdps(40):
        ref = mp.exp(-lam) * mp.mpf(lam) ** n / mp.factorial(n)
    got = oscillator.shannon_poisson_pmf([1.0], [lam], n)
    assert abs(got - ref) <= 1e-14 * abs(ref) + np.finfo(float).tiny
