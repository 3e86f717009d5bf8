import math

import numpy as np
import pytest

from oracles import (DimensionCap, build_rep, coherent_state,
                     density_sine_quad, excitation_projector_expectation)
from vacuumlab.errors import DomainError
from vacuumlab.oscillator import (mirror_term, radiative_shift,
                                  renyi_poisson_pmf, shannon_poisson_pmf)
from vacuumlab.vacuum import (make_box_profile, make_lorentz_profile,
                              physical_charge)


def pmf(probs, intensities, N, n):
    """p(n, N) alone, from a call with the one excitation number n."""
    (p,) = renyi_poisson_pmf(probs, intensities, N, [n]).tolist()
    return p


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
        # [a_w, a_v^+] = delta_wv I_w and [a_w, nt_v] = delta_wv a_w on the
        # states of total occupation < n_max, where truncation is invisible
        rep = build_rep([1.0, 2.3], [0.35, 0.65], n_max=3, N=2)
        keep = np.flatnonzero(rep.total_occupation < rep.n_max)
        worst = 0.0
        for w in rep.omegas:
            a = rep.a[w]
            for v in rep.omegas:
                delta = 1.0 if w == v else 0.0
                a_dag, n = rep.a_dag[v], rep.n_tilde[v]
                for defect in (a @ a_dag - a_dag @ a - delta * rep.I[w],
                               a @ n - n @ a - delta * a):
                    sub = defect.toarray()[np.ix_(keep, keep)]
                    worst = max(worst, np.linalg.norm(sub, 2))
        assert worst < 1e-12

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
        # the vacuum's weight on the eigenspace s/N of I_w(N) (diagonal in
        # the product basis) is the binomial probability of s sites at w
        rep = build_rep([1.0, 2.0], [0.3, 0.7], n_max=2, N=3)
        sites_at_w = np.rint(rep.I[1.0].diagonal() * rep.N)
        for s in range(4):
            weight = np.sum(rep.vacuum[sites_at_w == s] ** 2)
            assert weight == pytest.approx(
                math.comb(3, s) * 0.3 ** s * 0.7 ** (3 - s), abs=1e-12)

    def test_normalization(self):
        # with zero intensities every occupation pattern has nu = 0, so
        # p(0, N) is the sum of the binomial pattern weights
        assert pmf([0.3, 0.7], [0.0, 0.0], 17, 0) \
            == pytest.approx(1.0, rel=1e-12)

    def test_fair_coin(self):
        rep = build_rep([1.0, 2.0], [0.5, 0.5], n_max=1, N=2)
        sites_at_w = np.rint(rep.I[1.0].diagonal() * rep.N)
        assert np.sum(rep.vacuum[sites_at_w == 1] ** 2) \
            == pytest.approx(0.5, abs=1e-15)

    def test_large_n_logspace_path(self):
        # intensities (w, 0): p(0, N) = sum_s Binom(N, s, p) e^{-s w/N}
        # = (p e^{-w/N} + 1 - p)^N, the scale q0^N alone
        p, N, w = 0.3, 200, 40.0
        direct = (p * math.exp(-w / N) + 1.0 - p) ** N
        assert pmf([p, 1.0 - p], [w, 0.0], N, 0) \
            == pytest.approx(direct, rel=1e-12, abs=0)


class TestDeformedPoisson:
    PROBS = [0.35, 0.65]
    WS = [0.2025, 0.0961]

    def test_single_mode_single_copy_is_poisson(self):
        for n in range(5):
            assert pmf([1.0], [0.7], 1, n) == pytest.approx(
                math.exp(-0.7) * 0.7 ** n / math.factorial(n), rel=1e-12,
                abs=0)

    def test_single_copy_is_mixture(self):
        for n in range(5):
            mix = sum(p * math.exp(-w) * w ** n / math.factorial(n)
                      for p, w in zip(self.PROBS, self.WS))
            assert pmf(self.PROBS, self.WS, 1, n) \
                == pytest.approx(mix, rel=1e-12, abs=0)

    def test_normalization(self):
        total = sum(pmf(self.PROBS, self.WS, 7, n)
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
            assert pmf(self.PROBS, ws, N, n) == pytest.approx(
                brute, abs=1e-10)

    def test_three_mode_general_path_matches_two_mode(self):
        # third mode with zero probability must not change anything
        for n in range(4):
            a = pmf(self.PROBS, self.WS, 6, n)
            b = pmf(self.PROBS + [0.0], self.WS + [0.5], 6, n)
            assert a == pytest.approx(b, rel=1e-12)

    def test_shannon_limit_sweep(self):
        gaps = []
        for N in (10, 100, 1000, 10000):
            gap = max(abs(pmf(self.PROBS, [0.7, 0.3], N, n)
                          - shannon_poisson_pmf(self.PROBS, [0.7, 0.3], n))
                      for n in range(6))
            gaps.append(gap)
            assert gap < 2.0 / N
        assert gaps == sorted(gaps, reverse=True)

    @pytest.mark.parametrize("probs", [[0.0, 1.0], [1.0, 0.0]])
    def test_two_mode_certain_mode_matches_general_path(self, probs):
        # a zero-probability mode: the general path skips its patterns
        for n in range(4):
            two = pmf(probs, [0.4, 0.9], 5, n)
            three = pmf(probs + [0.0], [0.4, 0.9, 0.5], 5, n)
            assert math.isfinite(two)
            assert two == pytest.approx(three, rel=1e-14)

    @pytest.mark.parametrize("probs, ws, N", [
        ([0.35, 0.65], [0.7, 0.3], 10 ** 4),
        ([0.4, 0.6], [0.0, 0.5], 37),
        ([0.2, 0.3, 0.5], [0.4, 0.9, 0.1], 30),
        ([0.2, 0.0, 0.8], [0.0, 0.9, 0.1], 12),
    ])
    def test_all_n_in_one_call_equals_each_n_alone(self, probs, ws, N):
        ns = [0, 1, 5, 2, 12, 0]
        got = renyi_poisson_pmf(probs, ws, N, ns)
        assert isinstance(got, np.ndarray) and got.shape == (len(ns),)
        for n, p in zip(ns, got.tolist()):
            assert pmf(probs, ws, N, n) == p
        assert renyi_poisson_pmf(probs, ws, N, range(3)).tolist() \
            == got[[0, 1, 3]].tolist()

    def test_n_sequence_domain(self):
        with pytest.raises(DomainError):
            renyi_poisson_pmf(self.PROBS, self.WS, 5, 3)
        with pytest.raises(DomainError):
            renyi_poisson_pmf(self.PROBS, self.WS, 5, [0, -1])
        with pytest.raises(DomainError):
            renyi_poisson_pmf(self.PROBS, self.WS, 5, [[0, 1]])

    def test_four_modes_at_large_N(self):
        # within the O(1/N) gap of the Poisson limit
        ws = [0.1, 0.2, 0.3, 0.4]
        N = 10 ** 6
        got = renyi_poisson_pmf([0.25] * 4, ws, N, range(3)).tolist()
        for n, p in enumerate(got):
            assert abs(p - shannon_poisson_pmf([0.25] * 4, ws, n)) < 1.0 / N

    def test_p0_below_normal_range_rejected(self):
        # p(0, N) = e^-800 at mean intensity 800 is no normal double; the
        # coefficients of (Q/q0)^N would reach e^800
        with pytest.raises(DomainError):
            renyi_poisson_pmf([1.0], [800.0], 1, [0])
        with pytest.raises(DomainError):
            renyi_poisson_pmf([0.5, 0.5], [1e3, 1e3], 10 ** 4, [5])
        # a mode past the range alone is fine: p(0, 1) = 0.5 + 0.5 e^-2000
        assert pmf([0.5, 0.5], [0.0, 2000.0], 1, 0) == 0.5

    def test_mode_past_the_exponent_range_kept(self):
        # e^-mu_w underflows at mu_w = 800, yet the mode's terms at n = 40
        # and 60 are normal doubles: p(n, 1) = Poisson(n; 800)/2, and at
        # N = 2 (mu_w = 800 again) the Poisson(n; 1600)/4 part of p(n, 2)
        # is below the double range
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            ref = [float(mp.exp(-800) * mp.mpf(800) ** n / mp.factorial(n)
                         / 2) for n in (40, 60)]
        for N, ws in ((1, [0.0, 800.0]), (2, [0.0, 1600.0])):
            got = renyi_poisson_pmf([0.5, 0.5], ws, N, [40, 60]).tolist()
            assert got == pytest.approx(ref, rel=1e-14, abs=0.0)

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
                                                             rel=1e-13, abs=0)

    @staticmethod
    def _mirror_identity(prof):
        """mirror_term against the mode sum -q^2/(8 pi^2 L) int dkappa
        density sin(2 L kappa)/kappa, by quadpack's sine-weighted rules."""
        q = 1.1
        for L in (0.7, 2.0):
            rhs = -q ** 2 / (8.0 * math.pi ** 2 * L) \
                * density_sine_quad(prof, 2.0 * L)
            assert mirror_term(prof, q, L) == pytest.approx(rhs, abs=1e-8)

    def test_mirror_identity_box(self):
        self._mirror_identity(make_box_profile(1.0, 3.0))

    def test_mirror_identity_lorentz(self):
        self._mirror_identity(make_lorentz_profile(0.01, 0.5))

    def test_distant_plane_recovers_free_space(self):
        prof = make_box_profile(1.0, 3.0)
        assert mirror_term(prof, 1.0, 1e7) == pytest.approx(0.0, abs=1e-10)

    def test_infrared_violating_profile_rejected(self):
        from vacuumlab.vacuum import ProfileKind, VacuumProfile

        raw = VacuumProfile(ProfileKind.BOX_SHELL, k1=0.0, k2=3.0, Z=1.0,
                            norm_const=1.0)
        with pytest.raises(DomainError):
            radiative_shift(raw, 1.0)
