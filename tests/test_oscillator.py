import math

import numpy as np
import pytest

from vacuumlab.coulomb import potential_box, potential_lorentz
from vacuumlab.errors import CombinatorialCap, DimensionCap, DomainError
from vacuumlab.oscillator import (binomial_projector_prob, build_rep,
                                  coherent_state, commutator_residual,
                                  excitation_projector_expectation,
                                  frequency_projector_expectation, kn_average,
                                  radiative_shift, renyi_poisson_pmf,
                                  shannon_poisson_pmf, source_intensity,
                                  source_mean_intensity, wlln_average)
from vacuumlab.vacuum import (make_box_profile, make_lorentz_profile,
                              physical_charge)


class TestRepresentation:
    def test_single_frequency_is_standard_ladder(self):
        rep = build_rep([1.0], [1.0], n_max=5, N=1)
        a = rep.a[1.0].toarray()
        comm = a @ a.conj().T - a.conj().T @ a
        # exact identity below the cutoff block
        assert np.allclose(comm[:5, :5], np.eye(5), atol=1e-14)

    def test_single_oscillator_projector(self):
        rep = build_rep([1.0, 2.0], [0.4, 0.6], n_max=3, N=1)
        i1 = rep.I[1.0].toarray()
        assert np.allclose(i1 @ i1, i1, atol=1e-15)

    def test_two_oscillator_spectrum(self):
        rep = build_rep([1.0, 2.3], [0.35, 0.65], n_max=2, N=2)
        ev = np.linalg.eigvalsh(rep.I[1.0].toarray())
        assert sorted(set(np.round(ev, 12))) == [0.0, 0.5, 1.0]

    def test_resolution_of_identity(self):
        rep = build_rep([1.0, 2.3], [0.35, 0.65], n_max=2, N=2)
        total = sum(rep.I[w] for w in rep.omegas).toarray()
        assert np.allclose(total, np.eye(rep.dim), atol=1e-14)

    def test_commutator_residuals(self):
        rep = build_rep([1.0, 2.3], [0.35, 0.65], n_max=3, N=2)
        assert commutator_residual(rep) < 1e-12

    def test_cross_frequency_commutators_vanish(self):
        rep = build_rep([1.0, 2.0], [0.5, 0.5], n_max=2, N=2)
        w, v = 1.0, 2.0
        comm = (rep.a[w] @ rep.a_dag[v] - rep.a_dag[v] @ rep.a[w]).toarray()
        assert np.max(np.abs(comm)) == 0.0

    def test_single_excitation_eigenstate(self):
        rep = build_rep([1.0, 2.0], [0.4, 0.6], n_max=3, N=2)
        vec = rep.a_dag[1.0] @ rep.vacuum
        assert np.allclose(rep.n_tilde[1.0] @ vec, vec, atol=1e-14)

    def test_dimension_cap(self):
        with pytest.raises(DimensionCap):
            build_rep([1.0, 2.0], [0.5, 0.5], n_max=9, N=5)

    def test_weight_validation(self):
        with pytest.raises(DomainError):
            build_rep([1.0, 2.0], [0.5, 0.6], n_max=2, N=1)
        with pytest.raises(DomainError):
            build_rep([1.0, 1.0], [0.5, 0.5], n_max=2, N=1)


def _kron_reference(omegas, weights, n_max, N):
    """The operators, vacuum and occupation table of build_rep assembled
    from Kronecker chains of single-site matrices, site 0 leftmost."""
    from scipy import sparse

    m = len(omegas)
    d1 = m * (n_max + 1)
    ladder = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)

    def one_site(op, site):
        out = sparse.identity(1, format="csr")
        for t in range(N):
            mat = op if t == site else np.eye(d1)
            out = sparse.kron(out, sparse.csr_matrix(mat), format="csr")
        return out

    ops = {}
    for i, w in enumerate(omegas):
        proj = np.zeros((m, m))
        proj[i, i] = 1.0
        a1 = np.kron(proj, ladder)
        i1 = np.kron(proj, np.eye(n_max + 1))
        n1 = np.kron(proj, np.diag(np.arange(n_max + 1.0)))
        a = sum(one_site(a1, s) for s in range(N)) / math.sqrt(N)
        ops[w] = {"a": a, "a_dag": a.T.tocsr(),
                  "I": sum(one_site(i1, s) for s in range(N)) / N,
                  "n_tilde": sum(one_site(n1, s) for s in range(N))}
    v1 = np.zeros(d1)
    occ1 = np.tile(np.arange(n_max + 1), m)
    for i in range(m):
        v1[i * (n_max + 1)] = math.sqrt(weights[i])
    vac, tot = v1, occ1
    for _ in range(N - 1):
        vac = np.kron(vac, v1)
        tot = np.add.outer(tot, occ1).ravel()
    return ops, vac, tot


class TestIndexBuiltOperators:
    @pytest.mark.parametrize("m, n_max, N", [(2, 5, 4), (3, 2, 3), (1, 3, 2),
                                             (2, 1, 1)])
    def test_matches_kron_reference(self, m, n_max, N):
        omegas = [1.0, 2.0, 3.5][:m]
        weights = {1: [1.0], 2: [0.35, 0.65], 3: [0.2, 0.3, 0.5]}[m]
        rep = build_rep(omegas, weights, n_max, N)
        ops, vac, tot = _kron_reference(omegas, weights, n_max, N)
        for w in omegas:
            for name, ref in ops[w].items():
                diff = getattr(rep, name)[w] - ref
                assert diff.nnz == 0 or np.max(np.abs(diff.data)) <= 1e-14
        assert np.array_equal(rep.vacuum, vac)
        assert np.array_equal(rep.total_occupation, tot)

    def test_real_amplitudes_match_complex_route(self):
        from scipy.sparse.linalg import expm_multiply

        rep = build_rep([1.0, 2.0], [0.35, 0.65], n_max=5, N=4)
        alphas = [0.45, 0.31]
        gen = sum(a * rep.a_dag[w] - np.conj(a) * rep.a[w]
                  for w, a in zip(rep.omegas, alphas))
        ref = expm_multiply(gen.astype(complex).tocsc(),
                            rep.vacuum.astype(complex))
        state = coherent_state(rep, alphas)
        assert state.dtype == complex
        assert np.max(np.abs(state - ref)) <= 1e-14

    def test_complex_amplitudes_factorize_over_sites(self):
        # coherent_state exponentiates one site and takes the Kronecker
        # product; the oracle is the Krylov action of the N-site generator
        from scipy.sparse.linalg import expm_multiply

        for m, n_max, N in ((2, 5, 4), (3, 2, 3), (2, 10, 1)):
            omegas = [1.0, 2.0, 3.5][:m]
            weights = {2: [0.35, 0.65], 3: [0.2, 0.3, 0.5]}[m]
            alphas = [0.3 + 0.2j, -0.1 + 0.25j, 0.15 - 0.3j][:m]
            rep = build_rep(omegas, weights, n_max, N)
            gen = sum(a * rep.a_dag[w] - np.conj(a) * rep.a[w]
                      for w, a in zip(rep.omegas, alphas))
            ref = expm_multiply(gen.tocsc(), rep.vacuum.astype(complex))
            state = coherent_state(rep, alphas)
            assert state.dtype == complex
            assert np.max(np.abs(state - ref)) <= 1e-14

    @pytest.mark.parametrize("m, n_max, N", [(2, 5, 4), (3, 2, 3), (1, 3, 2),
                                             (2, 1, 1)])
    def test_vacuum_and_occupation_match_digit_built_operators(
            self, m, n_max, N):
        # the vacuum and the occupation table are Kronecker chains, built
        # apart from the operators; tie them together exactly
        omegas = [1.0, 2.0, 3.5][:m]
        weights = {1: [1.0], 2: [0.35, 0.65], 3: [0.2, 0.3, 0.5]}[m]
        rep = build_rep(omegas, weights, n_max, N)
        for w in omegas:
            assert not np.any(rep.a[w] @ rep.vacuum)
        occupation = sum(rep.n_tilde[w].diagonal() for w in omegas)
        assert np.array_equal(occupation, rep.total_occupation)


class TestBinomialLaw:
    def test_matrix_element_equals_binomial(self):
        rep = build_rep([1.0, 2.0], [0.3, 0.7], n_max=2, N=3)
        state = rep.vacuum.astype(complex)
        for s in range(4):
            mat = frequency_projector_expectation(rep, state, 0, s)
            assert mat == pytest.approx(binomial_projector_prob(0.3, 3, s),
                                        abs=1e-12)

    def test_normalization(self):
        assert sum(binomial_projector_prob(0.3, 17, s)
                   for s in range(18)) == pytest.approx(1.0, rel=1e-12)

    def test_fair_coin(self):
        assert binomial_projector_prob(0.5, 2, 1) == pytest.approx(0.5)

    def test_large_n_logspace_path(self):
        # against the exact small-N formula continued upward
        p, N = 0.3, 200
        direct = math.comb(N, 60) * p ** 60 * (1 - p) ** 140
        assert binomial_projector_prob(p, N, 60) == pytest.approx(
            direct, rel=1e-12)


class TestWlln:
    def test_identity_is_mean(self):
        assert wlln_average(lambda x: x, 0.3, 57) == pytest.approx(0.3)

    def test_square_is_variance_identity(self):
        # E[(s/N)^2] = p^2 + p(1-p)/N = 0.0921 at p = 0.3, N = 100
        assert wlln_average(lambda x: x * x, 0.3, 100) == pytest.approx(
            0.0921, abs=1e-12)

    def test_sine_converges(self):
        assert abs(wlln_average(math.sin, 0.5, 10 ** 4)
                   - math.sin(0.5)) < 1e-3

    def test_feller_rate_bound(self):
        # |E F(s/N) - F(p)| <= 1/(2 sqrt N) + 1/N for Lipschitz-1 F
        F = abs  # Lipschitz-1, kink at 0 avoided by p > 0
        for N in (4, 16, 64, 256):
            err = abs(wlln_average(lambda x: abs(x - 0.5), 0.35, N)
                      - abs(0.35 - 0.5))
            assert err <= 0.5 / math.sqrt(N) + 1.0 / N


class TestDeformedPoisson:
    PROBS = [0.35, 0.65]
    WS = [0.2025, 0.0961]

    def test_single_mode_single_copy_is_poisson(self):
        for n in range(5):
            assert renyi_poisson_pmf([1.0], [0.7], 1, n) == pytest.approx(
                math.exp(-0.7) * 0.7 ** n / math.factorial(n), rel=1e-12)

    def test_single_copy_is_mixture(self):
        for n in range(5):
            mix = sum(p * math.exp(-w) * w ** n / math.factorial(n)
                      for p, w in zip(self.PROBS, self.WS))
            assert renyi_poisson_pmf(self.PROBS, self.WS, 1, n) \
                == pytest.approx(mix, rel=1e-12)

    def test_normalization(self):
        total = sum(renyi_poisson_pmf(self.PROBS, self.WS, 7, n)
                    for n in range(40))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_matches_brute_force(self, N):
        alphas = [0.45, 0.31]
        ws = [abs(a) ** 2 for a in alphas]
        n_max = {1: 10, 2: 8, 3: 6}.get(N, 5)
        rep = build_rep([1.0, 2.0], self.PROBS, n_max=n_max, N=N)
        state = coherent_state(rep, alphas)
        for n in range(7):
            brute = excitation_projector_expectation(rep, state, n)
            assert renyi_poisson_pmf(self.PROBS, ws, N, n) == pytest.approx(
                brute, abs=1e-10)

    def test_three_mode_general_path_matches_two_mode(self):
        # third mode with zero probability must not change anything
        for n in range(4):
            a = renyi_poisson_pmf(self.PROBS, self.WS, 6, n)
            b = renyi_poisson_pmf(self.PROBS + [0.0], self.WS + [0.5], 6, n)
            assert a == pytest.approx(b, rel=1e-12)

    def test_shannon_limit_sweep(self):
        gaps = []
        for N in (10, 100, 1000, 10000):
            gap = max(abs(renyi_poisson_pmf(self.PROBS, [0.7, 0.3], N, n)
                          - shannon_poisson_pmf(self.PROBS, [0.7, 0.3], n))
                      for n in range(6))
            gaps.append(gap)
            assert gap < 2.0 / N
        assert gaps == sorted(gaps, reverse=True)

    @pytest.mark.parametrize("probs", [[0.0, 1.0], [1.0, 0.0]])
    def test_two_mode_certain_mode_matches_general_path(self, probs):
        # a zero-probability mode: the general path skips its patterns
        for n in range(4):
            two = renyi_poisson_pmf(probs, [0.4, 0.9], 5, n)
            three = renyi_poisson_pmf(probs + [0.0], [0.4, 0.9, 0.5], 5, n)
            assert math.isfinite(two)
            assert two == pytest.approx(three, rel=1e-14)

    def test_pattern_cap(self):
        with pytest.raises(CombinatorialCap):
            renyi_poisson_pmf([0.25] * 4, [0.1] * 4, 10 ** 4, 1)

    def test_shannon_degenerate(self):
        assert shannon_poisson_pmf([1.0], [0.0], 0) == 1.0
        assert shannon_poisson_pmf([1.0], [0.0], 3) == 0.0

    def test_displacement_eigenvalue_property(self):
        # a_w(N)|alpha, N> = alpha_w I_w(N)|alpha, N> up to truncation tail
        rep = build_rep([1.0, 2.0], [0.4, 0.6], n_max=8, N=2)
        alphas = [0.3, 0.22]
        state = coherent_state(rep, alphas)
        for i, w in enumerate(rep.omegas):
            resid = rep.a[w] @ state - alphas[i] * (rep.I[w] @ state)
            assert np.linalg.norm(resid) < 1e-8


class TestKolmogorovNagumo:
    def test_translation_covariance(self):
        probs = [0.3, 0.7]
        vals = np.array([1.5, 2.5])
        for q in (0.2, 0.7, 2.0):
            assert kn_average(q, probs, vals + 3.0) == pytest.approx(
                kn_average(q, probs, vals) + 3.0, abs=1e-12)

    def test_shannon_limit(self):
        probs = [0.3, 0.7]
        vals = [1.0, 2.0]
        assert kn_average(1.0, probs, vals) == pytest.approx(1.7)
        assert kn_average(1.0 + 1e-10, probs, vals) == pytest.approx(1.7)
        assert kn_average(0.999, probs, vals) == pytest.approx(1.7, abs=1e-3)

    def test_recovers_renyi_entropy(self):
        p = np.array([0.2, 0.3, 0.5])
        q = 0.6
        entropy = kn_average(q, p, np.log(1.0 / p))
        assert entropy == pytest.approx(
            math.log(float(np.sum(p ** q))) / (1.0 - q), rel=1e-12)

    def test_additivity_over_product_distributions(self):
        p1 = np.array([0.2, 0.8])
        p2 = np.array([0.4, 0.6])
        a1 = np.log(1.0 / p1)
        a2 = np.log(1.0 / p2)
        q = 0.7
        joint_p = np.outer(p1, p2).ravel()
        joint_a = (a1[:, None] + a2[None, :]).ravel()
        assert kn_average(q, joint_p, joint_a) == pytest.approx(
            kn_average(q, p1, a1) + kn_average(q, p2, a2), abs=1e-12)


class TestSourceStatistics:
    def test_zero_duration(self):
        assert source_intensity(2.0, 1.5, 0.0) == 0.0

    def test_duration_squared_bound(self):
        q, dt = 2.0, 0.7
        for k in np.geomspace(0.01, 100.0, 60):
            assert source_intensity(q, k, dt) <= q * q * dt * dt + 1e-12

    def test_mean_intensity_normalization_bound(self):
        # int dk density * intensity <= q^2 dt^2 * int dk density = q^2 dt^2
        prof = make_box_profile(1.0, 3.0)
        q, dt = 1.0, 2.0
        val = source_mean_intensity(prof, q, dt)
        assert 0.0 < val <= q * q * dt * dt


class TestRadiativeShift:
    def test_box_closed_form(self):
        prof = make_box_profile(1.0, 3.0)
        q = 1.1
        expect = physical_charge(q, prof) ** 2 * (3.0 - 1.0) \
            / (4.0 * math.pi ** 2)
        assert radiative_shift(prof, q) == pytest.approx(expect, rel=1e-10)

    def test_lorentz_free_term_closed_form(self):
        # q^2 int dk density/|k| = q^2 (y0/lambda) K1(2 lambda)/K2(2 lambda)
        from scipy.special import kv

        q = 1.1
        for lam2, y0 in ((0.01, 0.5), (1e-12, 1e-3), (4.0, 2.0)):
            prof = make_lorentz_profile(lam2, y0)
            lam = math.sqrt(lam2)
            expect = q * q * y0 / lam * kv(1, 2 * lam) / kv(2, 2 * lam)
            assert radiative_shift(prof, q) == pytest.approx(expect,
                                                             rel=1e-13)

    def test_mirror_identity_box(self):
        prof = make_box_profile(1.0, 3.0)
        q = 1.1
        q_ph = physical_charge(q, prof)
        for L in (0.7, 2.0):
            lhs = radiative_shift(prof, q, plane_gap=L) \
                - radiative_shift(prof, q)
            rhs = 0.5 * potential_box(q_ph, prof.k1, prof.k2, 2.0 * L)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_mirror_identity_lorentz(self):
        prof = make_lorentz_profile(0.01, 0.5)
        q = 1.1
        q_ph = physical_charge(q, prof)
        for L in (0.7, 2.0):
            lhs = radiative_shift(prof, q, plane_gap=L) \
                - radiative_shift(prof, q)
            rhs = 0.5 * potential_lorentz(q_ph, prof.lambda2, prof.y0,
                                          2.0 * L)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_distant_plane_recovers_free_space(self):
        prof = make_box_profile(1.0, 3.0)
        free = radiative_shift(prof, 1.0)
        far = radiative_shift(prof, 1.0, plane_gap=1e7)
        assert far == pytest.approx(free, abs=1e-10)

    def test_infrared_violating_profile_rejected(self):
        from vacuumlab.vacuum import ProfileKind, VacuumProfile

        raw = VacuumProfile(ProfileKind.BOX_SHELL, k1=0.0, k2=3.0, Z=1.0,
                            norm_const=1.0)
        with pytest.raises(DomainError):
            radiative_shift(raw, 1.0)
