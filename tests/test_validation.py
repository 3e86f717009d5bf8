"""validate's own oracles against independent references: the statistics
oracle's one-site series against scipy's expm and its convolution against
the N-site brute force, the fixed-panel normalization and
mirror-identity integrals against mpmath and against the sine-weighted
quadpack oracle, at the points validate uses, and the coefficients of the
1+1 pressure's expansion in 1/(alpha L) against their zeta sums."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from oracles import (build_rep, coherent_state, density_sine_quad,
                     excitation_projector_expectation)
from vacuumlab import vacuum, validation
from vacuumlab.errors import DomainError

# check_statistics_oracle's ensemble
PROBS, ALPHAS = [0.35, 0.65], [0.45, 0.31]
# check_vacuum_normalization's lambda^2 and check_mirror_identity's profiles
# and sine frequencies w = 2 L
LAMBDA2S = [1e-12, 1e-6, 1e-2, 1.0]
MIRROR_PROFILES = {"box": vacuum.make_box_profile(1.0, 3.0),
                   "lorentz": vacuum.make_lorentz_profile(0.01, 0.5)}
MIRROR_WS = [1.4, 4.0]


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_occupation_law_matches_n_site_brute_force(N):
    # both cut every site's ladder at n_max = 5, so they agree to rounding
    n_max = 5
    rep = build_rep([1.0, 2.0], PROBS, n_max=n_max, N=N)
    state = coherent_state(rep, ALPHAS)
    brute = [excitation_projector_expectation(rep, state, n)
             for n in range(N * n_max + 1)]
    law = validation._occupation_law(PROBS, ALPHAS, N, n_max)
    assert law.shape == (N * n_max + 1,)
    assert np.max(np.abs(law - brute)) <= 1e-15


@pytest.mark.parametrize("N, n_max",
                         [(4, 10), (1, 5), (2, 5), (3, 5), (4, 5)])
def test_occupation_law_site_columns_match_expm(N, n_max):
    # one mode of amplitude alpha/sqrt(N) at N = 1 is the site column
    # |exp(G) e_0|^2 of amplitude alpha among N sites, unconvolved;
    # validate's inputs and the brute-force test's
    for alpha in ALPHAS:
        a = alpha / math.sqrt(N)
        ladder = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
        ref = np.abs(expm(a * ladder.T - a * ladder)[:, 0]) ** 2
        column = validation._occupation_law([1.0], [a], 1, n_max)
        assert np.max(np.abs(column - ref)) <= 1e-16


def test_occupation_law_series_guard():
    # a column sum of |G| passes 2: 2 (sqrt 4 + sqrt 5) = 8.5 at n_max = 5;
    # the brute-force test's N = 1 (0.45 (sqrt 4 + sqrt 5) = 1.91) passes
    with pytest.raises(DomainError):
        validation._occupation_law([1.0], [2.0], 1, 5)


@pytest.mark.parametrize("lambda2", LAMBDA2S)
def test_s_integral_matches_mpmath(lambda2):
    # int_R exp(2s - e^s - lambda^2 e^-s) ds = 2 lambda^2 K2(2 lambda)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        lam = mp.sqrt(mp.mpf(lambda2))
        ref = float(2 * lam ** 2 * mp.besselk(2, 2 * lam))
    assert validation._lorentz_s_integral(lambda2) == pytest.approx(
        ref, rel=1e-14, abs=0.0)


def _mp_density_sine(mp, p, w):
    """int dkappa density sin(w kappa)/kappa in mpmath: the box through Si,
    the exponential profile by quadrature split at the scales of its
    cutoff, its peak and the sine."""
    if p.kind is vacuum.ProfileKind.BOX_SHELL:
        return p.Z * (mp.si(w * p.k2) - mp.si(w * p.k1))
    lam2, y0 = mp.mpf(p.lambda2), mp.mpf(p.y0)
    lam = mp.sqrt(lam2)
    norm = 4 * mp.pi ** 2 * y0 ** 2 / (2 * lam2 * mp.besselk(2, 2 * lam))

    def f(k):
        return norm * mp.exp(-lam2 / (y0 * k) - y0 * k) * mp.sin(w * k) / k

    points = [lam2 * mp.e ** j / y0 for j in range(-7, 4)]
    points += [mp.mpf(x) / y0 for x in (1, 2, 4, 8, 16, 32, 64, 128)]
    return mp.quad(f, [0] + points + [mp.inf])


@pytest.mark.parametrize("w", MIRROR_WS)
@pytest.mark.parametrize("name", MIRROR_PROFILES)
def test_sine_panels_match_mpmath(name, w):
    mp = pytest.importorskip("mpmath")
    p = MIRROR_PROFILES[name]
    with mp.workdps(30):
        ref = float(_mp_density_sine(mp, p, w))
    assert validation._density_sine_panels(p, w) == pytest.approx(
        ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("w", MIRROR_WS)
@pytest.mark.parametrize("name", MIRROR_PROFILES)
def test_sine_panels_match_sine_weighted_quadpack(name, w):
    p = MIRROR_PROFILES[name]
    assert abs(validation._density_sine_panels(p, w)
               - density_sine_quad(p, w)) <= 1e-13



def test_ratio24_coefficients_match_their_sums():
    # c_k = (6/pi^2) (-1)^k (k+1)! sum_n C(2n+k-1, k)/n^(k+2), the order
    # (alpha L)^-k of the reflection series expanded in 1/alpha
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for k, c in enumerate(validation._RATIO24_COEFFS):
            s = mp.nsum(lambda n: mp.binomial(2 * n + k - 1, k)
                        / n ** (k + 2), [1, mp.inf])
            ref = 6 / mp.pi ** 2 * (-1) ** k * mp.factorial(k + 1) * s
            assert c == float(ref), k
    # c_2 = 12 + 36 zeta(3)/pi^2: the effective gap L + 2/alpha and the rest
    assert validation._RATIO24_COEFFS[2] == pytest.approx(
        12.0 + 36.0 * 1.2020569031595942 / math.pi ** 2, rel=1e-15)
