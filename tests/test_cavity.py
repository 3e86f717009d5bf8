import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from vacuumlab.cavity import (CavityConfig, Side, boundary_inner_product,
                              delta_channel_weight, field_mode,
                              field_mode_coeffs, mode_function,
                              resonance_equation, resonance_roots,
                              scattering_coeffs, scattering_coeffs_batch)
from vacuumlab.errors import DegenerateMode, DomainError

CFG = CavityConfig(1.5, 1.5, 2.0)
FREE = CavityConfig(0.0, 0.0, 1.0)


def cesaro_mean(f, lo, hi, samples):
    """Arithmetic mean of f over an evenly spaced window grid."""
    return float(np.mean([f(x) for x in np.linspace(lo, hi, samples)]))


class TestScatteringCoefficients:
    def test_unitarity_random_grid(self):
        rng = np.random.default_rng(20240817)
        worst = 0.0
        for _ in range(1000):
            alpha = rng.uniform(0.01, 50.0)
            L = rng.uniform(0.1, 5.0)
            k = rng.uniform(0.01, 80.0)
            c = scattering_coeffs(k, CavityConfig(alpha, alpha, L))
            worst = max(worst, abs(abs(c.B) ** 2 + abs(c.E) ** 2 - 1.0))
        assert worst < 1e-12

    def test_full_transparency(self):
        c = scattering_coeffs(5.0, FREE)
        assert c.B == 0 and c.D == 0
        assert c.C == pytest.approx(1.0) and c.E == pytest.approx(1.0)

    def test_low_momentum_limit(self):
        cfg = CavityConfig(1.7, 1.7, 2.3)
        c = scattering_coeffs(1e-9, cfg)
        assert c.B == pytest.approx(-1.0, abs=1e-6)
        assert abs(c.E) < 1e-6
        expect_c = cfg.beta / (cfg.alpha + cfg.beta
                               + cfg.L * cfg.alpha * cfg.beta)
        assert c.C.real == pytest.approx(expect_c, abs=1e-6)

    def test_strong_barrier_off_resonance(self):
        k, L = 3.0, 1.0  # e^{ikL} != 1
        c = scattering_coeffs(k, CavityConfig(1e7, 1e7, L))
        assert c.B == pytest.approx(-cmath.exp(-0.5j * k * L), abs=1e-5)
        assert abs(c.C) < 1e-5 and abs(c.D) < 1e-5 and abs(c.E) < 1e-5

    def test_dirichlet_selection_large_alpha(self):
        k = 2 * math.pi * 3.0
        c = scattering_coeffs(k, CavityConfig(1e6, 1e6, 1.0))
        assert abs(c.C) == pytest.approx(0.5, abs=1e-4)
        assert abs(c.E) < 1e-4

    def test_dirichlet_flag_path(self):
        k = 2 * math.pi * 3.0
        c = scattering_coeffs(k, CavityConfig(0, 0, 1.0, dirichlet=True))
        assert abs(c.C) == pytest.approx(0.5, rel=1e-12)
        assert c.E == 0
        off = scattering_coeffs(k * 1.01,
                                CavityConfig(0, 0, 1.0, dirichlet=True))
        assert abs(off.B) == pytest.approx(1.0, rel=1e-12)
        assert off.C == 0 and off.E == 0

    def test_high_momentum_transparency(self):
        for k in (1e3, 1e5):
            c = scattering_coeffs(k, CavityConfig(1.0, 1.0, 1.0))
            assert abs(c.E) == pytest.approx(1.0, abs=10.0 / k)

    def test_right_incidence_swaps_strengths(self):
        cfg = CavityConfig(0.8, 2.1, 1.3)
        swapped = CavityConfig(2.1, 0.8, 1.3)
        k = 1.9
        right = scattering_coeffs(k, cfg, Side.RIGHT)
        left = scattering_coeffs(k, swapped, Side.LEFT)
        assert right.E == pytest.approx(left.B)
        assert right.D == pytest.approx(left.C)
        assert right.C == pytest.approx(left.D)
        assert right.B == pytest.approx(left.E)
        assert right.F == 1.0 and right.A == 0.0

    def test_k_positive_required(self):
        with pytest.raises(DomainError):
            scattering_coeffs(0.0, CFG)

    def test_degenerate_determinant_raises(self):
        # |Delta| ~ k a (1 + a L/4) falls below 1e-12 a^2 for k << 4/a^2
        with pytest.raises(DegenerateMode):
            scattering_coeffs(1e-12, CavityConfig(5e5, 5e5, 1.0))


class TestScatteringBatch:
    def test_equals_scalar_on_unitarity_draws(self):
        from vacuumlab.validation import _unitarity_draws

        draws = _unitarity_draws()
        alpha, L, k = draws.T
        batch = scattering_coeffs_batch(k, alpha, alpha, L)
        for i, (a, l, kk) in enumerate(draws.tolist()):
            c = scattering_coeffs(kk, CavityConfig(a, a, l))
            assert (c.B, c.C, c.D, c.E) == tuple(x[i] for x in batch)
            assert all(type(x) is complex for x in (c.B, c.C, c.D, c.E))

    def test_equals_scalar_for_unequal_barriers(self):
        rng = np.random.default_rng(11)
        alpha, beta = rng.uniform(0.0, 30.0, (2, 200))
        L = rng.uniform(0.1, 5.0, 200)
        k = 10.0 ** rng.uniform(-3.0, 3.0, 200)
        batch = scattering_coeffs_batch(k, alpha, beta, L)
        for i in range(200):
            c = scattering_coeffs(k[i], CavityConfig(alpha[i], beta[i], L[i]))
            assert (c.B, c.C, c.D, c.E) == tuple(x[i] for x in batch)

    def test_broadcasts_floats(self):
        B, C, D, E = scattering_coeffs_batch([1.0, 2.0], 0.5, 0.5, 1.0)
        assert B.shape == (2,)
        c = scattering_coeffs(2.0, CavityConfig(0.5, 0.5, 1.0))
        assert (c.B, c.E) == (B[1], E[1])

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
                assert mode_function(kz, z, FREE) == pytest.approx(
                    cmath.exp(1j * kz * z), abs=1e-14)

    def test_free_zero_momentum_is_one(self):
        assert mode_function(0.0, 0.4, FREE) == 1.0

    def test_zero_momentum_vanishes_with_barriers(self):
        assert mode_function(0.0, 0.4, CFG) == 0.0
        assert abs(mode_function(1e-8, 0.3, CFG)) < 1e-7

    def test_continuity_at_barriers(self):
        for kz in (2.7, -2.7, 0.9, -4.4):
            for edge in (-CFG.L / 4.0, CFG.L / 4.0):
                lo = mode_function(kz, edge - 1e-11, CFG)
                hi = mode_function(kz, edge + 1e-11, CFG)
                assert lo == pytest.approx(hi, abs=1e-9)

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            kz = rng.uniform(-8, 8)
            z = rng.uniform(-4, 4)
            assert mode_function(-kz, -z, CFG) == pytest.approx(
                mode_function(kz, z, CFG), abs=1e-12)

    def test_derivative_jump_is_twice_alpha(self):
        eps = 1e-12
        for kz in (2.1, -3.3):
            for edge in (-CFG.L / 4.0, CFG.L / 4.0):
                jump = (mode_function(kz, edge + eps, CFG, derivative=True)
                        - mode_function(kz, edge - eps, CFG, derivative=True))
                expect = 2.0 * CFG.alpha * mode_function(kz, edge, CFG)
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

    def test_coefficients_are_halved_rescaled_vacuum_ones(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            alpha = rng.uniform(0.01, 20.0)
            L = rng.uniform(0.2, 4.0)
            k = rng.uniform(0.05, 40.0)
            cfg = CavityConfig(alpha, alpha, L)
            tilde = field_mode_coeffs(k, cfg)
            ref = scattering_coeffs(
                k, CavityConfig(alpha / 2.0, alpha / 2.0, 2.0 * L))
            assert tilde.B == ref.B and tilde.C == ref.C
            assert tilde.D == ref.D and tilde.E == ref.E


class TestResonances:
    EXPECTED = [0.0 + 0.0j, -2.42855 - 1.90448j, -8.66349 - 4.46676j,
                -15.1274 - 5.51848j, -21.5174 - 6.19436j, -27.8711 - 6.6961j]

    def test_reference_values(self):
        roots = resonance_roots(CavityConfig(1.0, 1.0, 1.0),
                                branches=range(0, 3))
        assert len(roots) == 6
        for root, ref in zip(roots, self.EXPECTED):
            assert root.real == pytest.approx(ref.real, abs=1e-4)
            assert root.imag == pytest.approx(ref.imag, abs=1e-4)

    def test_residuals(self):
        cfg = CavityConfig(1.0, 1.0, 1.0)
        for root in resonance_roots(cfg, branches=range(0, 3)):
            assert abs(resonance_equation(root, cfg)) < 1e-8

    def test_trivial_root_always_present(self):
        for alpha, L in ((0.5, 1.0), (2.0, 0.7), (10.0, 3.0)):
            roots = resonance_roots(CavityConfig(alpha, alpha, L),
                                    branches=range(0, 1))
            assert abs(roots[0]) < 1e-10

    def test_nonzero_roots_have_negative_imaginary_part(self):
        # reported as an observation over a parameter grid, not a theorem
        for alpha in (0.5, 1.0, 4.0):
            for L in (0.5, 1.0, 2.0):
                roots = resonance_roots(CavityConfig(alpha, alpha, L),
                                        branches=range(0, 3))
                for root in roots[1:]:
                    assert root.imag < 0.0

    def test_requires_symmetric_finite_barriers(self):
        with pytest.raises(DomainError):
            resonance_roots(CavityConfig(1.0, 2.0, 1.0))
        with pytest.raises(DomainError):
            resonance_roots(CavityConfig(0.0, 0.0, 1.0))


class TestOrthonormality:
    def test_boundary_formula_equals_window_integral(self):
        def direct(lz, kz, n):
            re = quad(lambda z: (np.conj(mode_function(lz, z, CFG))
                                 * mode_function(kz, z, CFG)).real,
                      -n, n, limit=800, points=[-CFG.L / 4, CFG.L / 4])[0]
            im = quad(lambda z: (np.conj(mode_function(lz, z, CFG))
                                 * mode_function(kz, z, CFG)).imag,
                      -n, n, limit=800, points=[-CFG.L / 4, CFG.L / 4])[0]
            return complex(re, im)

        for lz, kz, n in ((1.2, 2.5, 7.0), (-1.4, 2.2, 5.0),
                          (2.0, -3.0, 6.0), (-0.8, -2.6, 9.0)):
            a = boundary_inner_product(lz, kz, n, CFG)
            assert a == pytest.approx(direct(lz, kz, n), abs=1e-12)

    def test_free_limit_is_dirichlet_kernel(self):
        lz, kz, n = 0.7, 1.9, 8.0
        a = boundary_inner_product(lz, kz, n, FREE)
        assert a == pytest.approx(2 * math.sin((kz - lz) * n) / (kz - lz),
                                  abs=1e-12)

    def test_cross_channel_cesaro_mean_vanishes(self):
        kz, lz = 2.0, -4.5
        mean_re = cesaro_mean(
            lambda n: boundary_inner_product(lz, kz, n, CFG).real,
            5.0, 2000.0, 4096)
        mean_im = cesaro_mean(
            lambda n: boundary_inner_product(lz, kz, n, CFG).imag,
            5.0, 2000.0, 4096)
        assert abs(complex(mean_re, mean_im)) < 1e-3

    def test_delta_channel_weight_two_pi(self):
        w = delta_channel_weight(2.0, CFG, window_n=2000.0, half_width=0.5)
        assert w == pytest.approx(2 * math.pi, rel=2e-2)

    def test_degenerate_channel_rejected(self):
        with pytest.raises(DegenerateMode):
            boundary_inner_product(2.0, 2.0, 5.0, CFG)
        with pytest.raises(DomainError):
            boundary_inner_product(1.0, 2.0, CFG.L / 8.0, CFG)
