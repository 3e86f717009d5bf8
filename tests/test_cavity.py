import cmath
import math
from typing import NamedTuple

import numpy as np
import pytest

from vacuumlab.cavity import (resonance_equation, resonance_roots,
                              scattering_coeffs_batch)
from vacuumlab.errors import DegenerateMode, DomainError

class Barriers(NamedTuple):
    """Barrier strengths 2 alpha at z = -L/4 and 2 beta at z = +L/4."""

    alpha: float
    beta: float
    L: float


CFG = Barriers(1.5, 1.5, 2.0)
FREE = Barriers(0.0, 0.0, 1.0)


def coeffs(k, cfg):
    """Left-incidence (B, C, D, E) of the vacuum-field mode of cfg."""
    return scattering_coeffs_batch(k, cfg.alpha, cfg.beta, cfg.L)


def sewing_formulas(k, alpha, beta, L):
    """The module docstring's (B, C, D, E) in plain cmath arithmetic, with
    a = 2 alpha, b = 2 beta and s = L/4."""
    a, b, s = 2.0 * alpha, 2.0 * beta, L / 4.0
    e2 = cmath.exp(4j * k * s)
    delta = k * k + 0.5j * (a + b) * k + (e2 - 1.0) * a * b / 4.0
    B = -1j * cmath.exp(-2j * k * s) \
        * (0.5 * k * (a + b * e2) - 0.25j * (e2 - 1.0) * a * b) / delta
    C = k * (k + 0.5j * b) / delta
    D = -1j * cmath.exp(2j * k * s) * 0.5 * k * b / delta
    E = k * k / delta
    return B, C, D, E


def mode(kz, z, cfg, derivative=False):
    """The vacuum-field mode f(k_z, z) (barriers 2 alpha at z = -L/4 and
    2 beta at z = +L/4), or its z-derivative, assembled from the batch
    coefficients.  k_z > 0 comes in from the left; k_z < 0 from the right,
    as the left problem with the strengths swapped, mirrored."""
    k, s = abs(kz), cfg.L / 4.0
    a, b, x = (cfg.alpha, cfg.beta, z) if kz > 0 else (cfg.beta, cfg.alpha, -z)
    B, C, D, E = (complex(c) for c in scattering_coeffs_batch(k, a, b, cfg.L))
    up, dn = (1.0, B) if x < -s else (C, D) if x < s else (E, 0.0)
    e_up, e_dn = up * cmath.exp(1j * k * x), dn * cmath.exp(-1j * k * x)
    if not derivative:
        return e_up + e_dn
    return 1j * k * (e_up - e_dn) * (1.0 if kz > 0 else -1.0)


def field_mode(kz, z, cfg, derivative=False):
    """The field-operator mode (barriers alpha, beta at z = -+L/2): the
    vacuum-field mode at half strength and doubled separation."""
    half = Barriers(cfg.alpha / 2.0, cfg.beta / 2.0, 2.0 * cfg.L)
    return mode(kz, z, half, derivative)


def assert_equals_formulas(batch, k, alpha, beta, L):
    # numpy's array loops and cmath round complex products differently;
    # the two agree to 1.5 ulps on the test grids
    for i in range(len(k)):
        ref = sewing_formulas(k[i], alpha[i], beta[i], L[i])
        for got, expect in zip((x[i] for x in batch), ref):
            assert abs(got - expect) <= 4e-15 * abs(expect)


class TestScatteringCoefficients:
    def test_unitarity_random_grid(self):
        # unequal barriers, both incidence sides (the strengths swapped)
        rng = np.random.default_rng(20240817)
        alpha, beta = rng.uniform(0.01, 50.0, (2, 1000))
        L = rng.uniform(0.1, 5.0, 1000)
        k = rng.uniform(0.01, 80.0, 1000)
        for a, b in ((alpha, beta), (beta, alpha)):
            B, _, _, E = scattering_coeffs_batch(k, a, b, L)
            assert np.max(np.abs(np.abs(B) ** 2 + np.abs(E) ** 2 - 1.0)) \
                < 1e-12

    def test_full_transparency(self):
        B, C, D, E = coeffs(5.0, FREE)
        assert B == 0 and D == 0
        assert C == pytest.approx(1.0) and E == pytest.approx(1.0)

    def test_low_momentum_limit(self):
        cfg = Barriers(1.7, 1.7, 2.3)
        B, C, D, E = coeffs(1e-9, cfg)
        assert B == pytest.approx(-1.0, abs=1e-6)
        assert abs(E) < 1e-6
        expect_c = cfg.beta / (cfg.alpha + cfg.beta
                               + cfg.L * cfg.alpha * cfg.beta)
        assert C.real == pytest.approx(expect_c, abs=1e-6)
        # the interior wave vanishes as k -> 0
        k, z = 1e-8, 0.3
        _, C, D, _ = coeffs(k, CFG)
        assert abs(C * cmath.exp(1j * k * z) + D * cmath.exp(-1j * k * z)) \
            < 1e-7

    def test_strong_barrier_off_resonance(self):
        k, L = 3.0, 1.0  # e^{ikL} != 1
        B, C, D, E = coeffs(k, Barriers(1e7, 1e7, L))
        assert B == pytest.approx(-cmath.exp(-0.5j * k * L), abs=1e-5)
        assert abs(C) < 1e-5 and abs(D) < 1e-5 and abs(E) < 1e-5

    def test_dirichlet_selection_large_alpha(self):
        k = 2 * math.pi * 3.0
        _, C, _, E = coeffs(k, Barriers(1e6, 1e6, 1.0))
        assert abs(C) == pytest.approx(0.5, abs=1e-4)
        assert abs(E) < 1e-4

    def test_high_momentum_transparency(self):
        for k in (1e3, 1e5):
            E = coeffs(k, Barriers(1.0, 1.0, 1.0))[3]
            assert abs(E) == pytest.approx(1.0, abs=10.0 / k)

    def test_right_incidence_swaps_strengths(self):
        # right incidence is the left problem with the strengths swapped;
        # with it the scattering matrix is unitary and reciprocal
        cfg = Barriers(0.8, 2.1, 1.3)
        k = np.array([0.3, 1.9, 7.4])
        B_left, _, _, E = coeffs(k, cfg)
        B_right, _, _, E_right = scattering_coeffs_batch(k, cfg.beta,
                                                         cfg.alpha, cfg.L)
        assert E_right == pytest.approx(E, rel=1e-14)
        assert np.abs(B_right) ** 2 + np.abs(E) ** 2 \
            == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(B_left * np.conj(E) + E * np.conj(B_right))) \
            < 1e-14
        assert np.min(np.abs(B_right - B_left)) > 0.1

    def test_k_positive_required(self):
        with pytest.raises(DomainError):
            coeffs(0.0, CFG)

    def test_degenerate_determinant_raises(self):
        # |Delta| ~ k a (1 + a L/4) falls below 1e-12 a^2 for k << 4/a^2
        with pytest.raises(DegenerateMode):
            coeffs(1e-12, Barriers(5e5, 5e5, 1.0))


class TestScatteringBatch:
    def test_equals_scalar_on_unitarity_draws(self):
        from vacuumlab.validation import _unitarity_draws

        alpha, L, k = _unitarity_draws().T
        batch = scattering_coeffs_batch(k, alpha, alpha, L)
        assert all(x.dtype == complex and x.shape == k.shape for x in batch)
        assert_equals_formulas(batch, k, alpha, alpha, L)

    def test_equals_scalar_for_unequal_barriers(self):
        rng = np.random.default_rng(11)
        alpha, beta = rng.uniform(0.0, 30.0, (2, 200))
        L = rng.uniform(0.1, 5.0, 200)
        k = 10.0 ** rng.uniform(-3.0, 3.0, 200)
        batch = scattering_coeffs_batch(k, alpha, beta, L)
        assert_equals_formulas(batch, k, alpha, beta, L)

    def test_sewing_conditions_for_unequal_barriers(self):
        # barriers 2 alpha at z = -s and 2 beta at z = +s: the wave is
        # continuous across each, and its derivative jumps by the strength
        # times the value there
        rng = np.random.default_rng(5)
        alpha, beta = rng.uniform(0.0, 30.0, (2, 500))
        L = rng.uniform(0.1, 5.0, 500)
        k = 10.0 ** rng.uniform(-2.0, 2.0, 500)
        B, C, D, E = scattering_coeffs_batch(k, alpha, beta, L)
        s = L / 4.0

        def wave(up, dn, z):
            """Value and derivative of up e^{ikz} + dn e^{-ikz}."""
            e_up, e_dn = up * np.exp(1j * k * z), dn * np.exp(-1j * k * z)
            return e_up + e_dn, 1j * k * (e_up - e_dn)

        scale = 1.0 + np.abs(B) + np.abs(C) + np.abs(D)
        for (lo, hi), z, strength in ((((1.0, B), (C, D)), -s, 2.0 * alpha),
                                      (((C, D), (E, 0.0)), s, 2.0 * beta)):
            v_lo, d_lo = wave(*lo, z)
            v_hi, d_hi = wave(*hi, z)
            assert np.max(np.abs(v_hi - v_lo) / scale) < 2e-15
            assert np.max(np.abs(d_hi - d_lo - strength * v_hi)
                          / (scale * (k + strength))) < 2e-15

    def test_broadcasts_floats(self):
        B, C, D, E = scattering_coeffs_batch([1.0, 2.0], 0.5, 0.5, 1.0)
        assert B.shape == (2,)
        ref = sewing_formulas(2.0, 0.5, 0.5, 1.0)
        assert (B[1], E[1]) == (pytest.approx(ref[0], rel=4e-15),
                                pytest.approx(ref[3], rel=4e-15))

    def test_one_degenerate_entry_raises(self):
        with pytest.raises(DegenerateMode):
            scattering_coeffs_batch([1.0, 1e-12, 2.0], 5e5, 5e5, 1.0)

    @pytest.mark.parametrize("k, alpha, beta, L", [
        ([1.0, 0.0], 1.0, 1.0, 1.0),
        ([1.0, -2.0], 1.0, 1.0, 1.0),
        ([1.0, math.nan], 1.0, 1.0, 1.0),
        (1.0, [1.0, -0.5], 1.0, 1.0),
        (1.0, 1.0, [-0.5, 1.0], 1.0),
        (1.0, 1.0, 1.0, [1.0, 0.0]),
    ])
    def test_domain(self, k, alpha, beta, L):
        with pytest.raises(DomainError):
            scattering_coeffs_batch(k, alpha, beta, L)


class TestModeFunction:
    def test_free_wave(self):
        for kz in (3.0, -3.0):
            for z in (-0.9, 0.0, 2.2):
                assert mode(kz, z, FREE) == pytest.approx(
                    cmath.exp(1j * kz * z), abs=1e-14)

    def test_zero_momentum_vanishes_with_barriers(self):
        for kz in (1e-8, -1e-8):
            assert abs(mode(kz, 0.3, CFG)) < 1e-7

    def test_continuity_at_barriers(self):
        for kz in (2.7, -2.7, 0.9, -4.4):
            for edge in (-CFG.L / 4.0, CFG.L / 4.0):
                lo = mode(kz, edge - 1e-11, CFG)
                hi = mode(kz, edge + 1e-11, CFG)
                assert lo == pytest.approx(hi, abs=1e-9)

    def test_derivative_jump_is_twice_alpha(self):
        eps = 1e-12
        for kz in (2.1, -3.3):
            for edge, strength in ((-CFG.L / 4.0, CFG.alpha),
                                   (CFG.L / 4.0, CFG.beta)):
                jump = (mode(kz, edge + eps, CFG, derivative=True)
                        - mode(kz, edge - eps, CFG, derivative=True))
                expect = 2.0 * strength * mode(kz, edge, CFG)
                assert jump == pytest.approx(expect, abs=1e-8)


class TestFieldMode:
    def test_free_wave(self):
        assert field_mode(2.0, 0.3, FREE) == pytest.approx(
            cmath.exp(0.6j), abs=1e-14)

    def test_continuity_at_half_gap(self):
        for kz in (2.1, -3.3):
            for edge in (-CFG.L / 2.0, CFG.L / 2.0):
                lo = field_mode(kz, edge - 1e-12, CFG)
                hi = field_mode(kz, edge + 1e-12, CFG)
                assert lo == pytest.approx(hi, abs=1e-10)

    def test_derivative_jump_is_barrier_strength(self):
        eps = 1e-12
        for kz in (2.1, -3.3):
            for edge, strength in ((-CFG.L / 2.0, CFG.alpha),
                                   (CFG.L / 2.0, CFG.beta)):
                jump = (field_mode(kz, edge + eps, CFG, derivative=True)
                        - field_mode(kz, edge - eps, CFG, derivative=True))
                expect = strength * field_mode(kz, edge, CFG)
                assert jump == pytest.approx(expect, abs=1e-8)


class TestResonances:
    EXPECTED = [0.0 + 0.0j, -2.42855 - 1.90448j, -8.66349 - 4.46676j,
                -15.1274 - 5.51848j, -21.5174 - 6.19436j, -27.8711 - 6.6961j]

    def test_reference_values(self):
        roots = resonance_roots(1.0, 1.0, branches=range(0, 3))
        assert len(roots) == 6
        for root, ref in zip(roots, self.EXPECTED):
            assert root.real == pytest.approx(ref.real, abs=1e-4)
            assert root.imag == pytest.approx(ref.imag, abs=1e-4)

    def test_unit_cavity_root_formula(self):
        # k = -i(L a - 2 W_0(-e^{La/2} La/2))/L at a = L = 1, correctly
        # rounded from 50-digit mpmath
        root = resonance_roots(1.0, 1.0, branches=range(0, 1))[1]
        assert abs(root - complex(-2.428547812098364, -1.9044828738912079)) \
            <= 4e-15 * abs(root)

    def test_nan_from_lambertw_raises(self, monkeypatch):
        # scipy's lambertw returns NaN where it does not converge; such a
        # root fails the residual test instead of being returned
        monkeypatch.setattr("vacuumlab.cavity.lambertw",
                            lambda z, k: complex("nan"))
        with pytest.raises(DegenerateMode):
            resonance_roots(1.0, 1.0)

    def test_residuals(self):
        for root in resonance_roots(1.0, 1.0, branches=range(0, 3)):
            assert abs(resonance_equation(root, 1.0, 1.0)) < 1e-8

    def test_trivial_root_always_present(self):
        for alpha, L in ((0.5, 1.0), (2.0, 0.7), (10.0, 3.0)):
            roots = resonance_roots(alpha, L, branches=range(0, 1))
            assert abs(roots[0]) < 1e-10

    def test_nonzero_roots_have_negative_imaginary_part(self):
        # reported as an observation over a parameter grid, not a theorem
        for alpha in (0.5, 1.0, 4.0):
            for L in (0.5, 1.0, 2.0):
                roots = resonance_roots(alpha, L, branches=range(0, 3))
                for root in roots[1:]:
                    assert root.imag < 0.0

    def test_requires_positive_alpha(self):
        with pytest.raises(DomainError):
            resonance_roots(0.0, 1.0)

    @pytest.mark.parametrize("alpha, L", [
        (1e300, 1.0), (1.0, 1e300), (1e-300, 1.0),
        (1e-151, 1e10), (1e10, 1e-151), (1e-10, 1e151),
        (1.5e3, 1.0), (1e154, 1e-150), (1e-141, 1.0),
        (-1.0, 1.0), (1.0, -1.0), (1.0, 0.0)])
    def test_domain(self, alpha, L):
        # alpha below 1e-150, L outside 1e-150..1e150, or alpha L outside
        # 1e-140..1e3, before any arithmetic (the first three overflowed or
        # divided by zero); negative strengths and separations among them
        with pytest.raises(DomainError):
            resonance_roots(alpha, L)

    @pytest.mark.parametrize("alpha, L, branches", [
        (1e3, 1.0, range(0, 3)), (1e-140, 1.0, range(0, 1)),
        (9e152, 1e-150, range(0, 3)), (1e-150, 1e150, range(0, 3))])
    def test_domain_edges_give_verified_roots(self, alpha, L, branches):
        roots = resonance_roots(alpha, L, branches=branches)
        assert len(roots) == 2 * len(branches)
        for root in roots:
            resid = abs(resonance_equation(root, alpha, L))
            assert math.isfinite(resid) \
                and resid <= 1e-8 * max(alpha * alpha, abs(root) ** 2)
