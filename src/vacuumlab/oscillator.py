"""Indefinite-frequency oscillator ensembles and their statistics.

A single oscillator carries a frequency register (one slot per eigenvalue
omega) tensored with a truncated number ladder.  The N-fold bosonic
extension uses symmetrized one-site operators with normalization 1/sqrt(N):

    a_w(N) = (a_w x 1 ... + ... + 1 x ... x a_w)/sqrt(N)
    I_w(N) = (P_w x 1 ... + ... + 1 x ... x P_w)/N
    nt_w(N) = sum over sites of P_w x n-ladder   (no normalization)

satisfying [a_w(N), a_v(N)^+] = delta_wv I_w(N) and
[a_w(N), nt_v(N)] = delta_wv a_w(N) exactly below the occupation cutoff.
I_w(N) has the binomial frequency-of-successes spectrum s/N, which drives
the weak law of large numbers and the finite-N deformation of Poisson
excitation statistics:

    p(n, N) = (1/n!) d^n/dlambda^n (sum_w p_w e^{lambda w_w / N})^N  at
    lambda = -1,

computed exactly by multinomial expansion over frequency occupation
patterns.  The module doubles as the brute-force oracle for those formulas
(sparse N-site matrices, built on first use; displacement as the Kronecker
product of N one-site matrix exponentials, exact because the generator is a
sum of commuting one-site terms) and evaluates the vacuum-averaged
self-energy shifts of a static point charge, free or facing a reflecting
plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations
from math import comb
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import gammaln, xlogy

from .errors import CombinatorialCap, DimensionCap, DomainError
from .numerics import DEFAULT_SPEC, QuadratureSpec
from .vacuum import ProfileKind, VacuumProfile, density, density_integral

DEFAULT_DIMENSION_CAP = 100_000
DEFAULT_PATTERN_CAP = 2_000_000


# ------------------------------------------------------------ representation

@dataclass
class TruncatedRep:
    """Finite-matrix realization of N symmetrized indefinite-frequency
    oscillators with occupation cutoff n_max per site.

    The product vacuum and the per-basis-state total occupation are built
    with the representation; the N-site operators a, a_dag, I and n_tilde
    (dicts omega -> sparse matrix) are built on first access.
    """

    omegas: tuple
    weights: tuple
    n_max: int
    N: int
    dim: int = field(init=False)
    vacuum: np.ndarray = field(init=False, repr=False)
    total_occupation: np.ndarray = field(init=False, repr=False)

    a = property(lambda self: self._operators[0])        # omega -> a_w(N)
    a_dag = property(lambda self: self._operators[1])
    I = property(lambda self: self._operators[2])        # omega -> I_w(N)
    n_tilde = property(lambda self: self._operators[3])  # omega -> nt_w(N)

    def single_site_dim(self) -> int:
        return len(self.omegas) * (self.n_max + 1)

    def site_projector(self, omega_index: int) -> np.ndarray:
        m = len(self.omegas)
        p = np.zeros((m, m))
        p[omega_index, omega_index] = 1.0
        return p

    @cached_property
    def _operators(self) -> tuple[dict, dict, dict, dict]:
        """a, a_dag, I and n_tilde, read off the digit table.

        Basis state j lists its N single-site states as base-d1 digits,
        site 0 most significant (the order of the Kronecker product), with
        d1 = m (n_max + 1); digit = frequency index * (n_max + 1) +
        occupation.  a_w holds sqrt(occ)/sqrt(N) at (j - d1^(N-1-s), j) for
        each site s of state j that holds frequency w with occ > 0; I_w and
        nt_w are diagonal (sites holding w, over N, and their occupations
        summed).
        """
        N, dim, d1 = self.N, self.dim, self.single_site_dim()
        place = d1 ** np.arange(N - 1, -1, -1)
        digits = (np.arange(dim)[:, None] // place) % d1
        freq, occ = divmod(digits, self.n_max + 1)
        amp = np.sqrt(occ) / math.sqrt(N)

        def diagonal(values):
            j = np.flatnonzero(values)
            return sparse.csr_matrix((values[j], (j, j)), shape=(dim, dim))

        a, a_dag, I, n_tilde = {}, {}, {}, {}
        for i, w in enumerate(self.omegas):
            at_w = freq == i
            j, s = np.nonzero(at_w & (occ > 0))
            a[w] = sparse.csr_matrix((amp[j, s], (j - place[s], j)),
                                     shape=(dim, dim))
            a_dag[w] = a[w].T.tocsr()
            I[w] = diagonal(at_w.sum(1) / N)
            n_tilde[w] = diagonal(np.where(at_w, occ, 0).sum(1).astype(float))
        return a, a_dag, I, n_tilde


def build_rep(omegas: Sequence[float], weights: Sequence[float], n_max: int,
              N: int, dimension_cap: int = DEFAULT_DIMENSION_CAP) -> TruncatedRep:
    """Validate the ensemble and build its product vacuum and per-basis-state
    total occupation table as Kronecker chains of one-site vectors; the
    N-site operators are built on first access (TruncatedRep)."""
    omegas = tuple(float(w) for w in omegas)
    weights = tuple(float(p) for p in weights)
    if len(omegas) != len(set(omegas)):
        raise DomainError("frequencies must be distinct")
    if any(w <= 0 for w in omegas):
        raise DomainError("frequencies must be positive")
    if abs(sum(weights) - 1.0) > 1e-12 or any(p < 0 for p in weights):
        raise DomainError("weights must be nonnegative and sum to 1")
    if n_max < 1 or N < 1:
        raise DomainError("n_max and N must be positive")
    m = len(omegas)
    d1 = m * (n_max + 1)
    dim = d1 ** N
    if dim > dimension_cap:
        raise DimensionCap(f"requested dimension {dim} exceeds cap "
                           f"{dimension_cap}")
    rep = TruncatedRep(omegas, weights, n_max, N)
    rep.dim = dim
    v1 = np.zeros(d1)
    v1[::n_max + 1] = np.sqrt(weights)
    rep.vacuum = reduce(np.kron, [v1] * N)
    rep.total_occupation = reduce(np.add.outer,
                                  [np.tile(np.arange(n_max + 1), m)] * N).ravel()
    return rep


def commutator_residual(rep: TruncatedRep) -> float:
    """Largest operator-norm defect of the ladder algebra restricted to the
    subspace of total occupation < n_max (where truncation is invisible)."""
    keep = rep.total_occupation < rep.n_max
    idx = np.where(keep)[0]

    def restricted_norm(op) -> float:
        sub = op.tocsr()[idx][:, idx]
        if sub.nnz == 0:
            return 0.0
        dense = sub.toarray()
        return float(np.linalg.norm(dense, 2))

    worst = 0.0
    for w in rep.omegas:
        for v in rep.omegas:
            delta = 1.0 if w == v else 0.0
            comm = rep.a[w] @ rep.a_dag[v] - rep.a_dag[v] @ rep.a[w]
            worst = max(worst, restricted_norm(comm - delta * rep.I[w]))
            comm2 = rep.a[w] @ rep.n_tilde[v] - rep.n_tilde[v] @ rep.a[w]
            worst = max(worst, restricted_norm(comm2 - delta * rep.a[w]))
    return worst


def coherent_state(rep: TruncatedRep, alphas: Sequence[complex]) -> np.ndarray:
    """exp(sum_w alpha_w a_w^+ - conj(alpha_w) a_w) applied to the vacuum
    (exact up to the occupation cutoff).

    The generator is a sum of commuting one-site terms, each truncated per
    site, and the vacuum is a product, so the state is the N-fold Kronecker
    product of one site vector: per frequency block, sqrt(p_w) times the
    first column of expm((alpha_w L^+ - conj(alpha_w) L)/sqrt(N)) on the
    (n_max + 1)-level ladder L.  Real amplitudes keep the exponentials in
    real arithmetic; the state is returned complex either way.  The N-site
    operators are not built.
    """
    if len(alphas) != len(rep.omegas):
        raise DomainError("one displacement amplitude per frequency required")
    ladder = np.diag(np.sqrt(np.arange(1.0, rep.n_max + 1)), 1) \
        / math.sqrt(rep.N)
    site = np.concatenate([
        math.sqrt(p) * expm(al * ladder.T - np.conj(al) * ladder)[:, 0]
        for p, al in zip(rep.weights, alphas)])
    return reduce(np.kron, [site] * rep.N).astype(complex)


def excitation_projector_expectation(rep: TruncatedRep, state: np.ndarray,
                                     n: int) -> float:
    """<state| P(total occupation = n) |state>."""
    mask = rep.total_occupation == n
    return float(np.sum(np.abs(state[mask]) ** 2))


def frequency_projector_expectation(rep: TruncatedRep, state: np.ndarray,
                                    omega_index: int, s: int) -> float:
    """<state| Pi_w(s/N) |state> with Pi_w(s/N) the spectral projector of
    I_w(N) at eigenvalue s/N (sum over site subsets of size s)."""
    if not 0 <= s <= rep.N:
        raise DomainError("s must lie in 0..N")
    m = len(rep.omegas)
    d1 = rep.single_site_dim()
    proj = rep.site_projector(omega_index)
    p1 = np.kron(proj, np.eye(rep.n_max + 1))
    q1 = np.eye(d1) - p1
    total = 0.0
    vec = np.asarray(state)
    for hit_sites in combinations(range(rep.N), s):
        mats = [sparse.csr_matrix(p1 if site in hit_sites else q1)
                for site in range(rep.N)]
        op = mats[0]
        for mat in mats[1:]:
            op = sparse.kron(op, mat, format="csr")
        total += float(np.real(np.vdot(vec, op @ vec)))
    return total


# ------------------------------------------------------------- statistics

def binomial_projector_prob(p: float, N: int, s: int) -> float:
    """Probability of finding the chosen frequency s times in N trials."""
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must be a probability")
    if not 0 <= s <= N:
        raise DomainError("s must lie in 0..N")
    if N <= 60:
        return comb(N, s) * p ** s * (1.0 - p) ** (N - s)
    if p == 0.0:
        return 1.0 if s == 0 else 0.0
    if p == 1.0:
        return 1.0 if s == N else 0.0
    log_pmf = (math.lgamma(N + 1) - math.lgamma(s + 1)
               - math.lgamma(N - s + 1)
               + s * math.log(p) + (N - s) * math.log1p(-p))
    return math.exp(log_pmf)


def wlln_average(F: Callable[[float], float], p: float, N: int) -> float:
    """sum_s F(s/N) Binom(N, s, p): the ensemble average of F of the
    frequency-of-successes operator; tends to F(p) as N grows."""
    return float(sum(F(s / N) * binomial_projector_prob(p, N, s)
                     for s in range(N + 1)))


def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of length `parts` summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def renyi_poisson_pmf(probs: Sequence[float], intensities: Sequence[float],
                      N: int, n: int,
                      pattern_cap: int = DEFAULT_PATTERN_CAP) -> float:
    """Finite-N deformed Poisson law by exact coefficient extraction.

    Expanding (sum_i p_i e^{lambda w_i/N})^N multinomially, each frequency
    occupation pattern s (s_1 + ... + s_m = N) contributes an ordinary
    Poisson factor with parameter nu_s = sum_i s_i w_i / N:

        p(n, N) = sum_s C(N; s) prod_i p_i^{s_i} e^{-nu_s} nu_s^n / n!.
    """
    probs = [float(p) for p in probs]
    intensities = [float(w) for w in intensities]
    if abs(sum(probs) - 1.0) > 1e-12 or any(p < 0 for p in probs):
        raise DomainError("probs must be nonnegative and sum to 1")
    if any(w < 0 for w in intensities) or len(probs) != len(intensities):
        raise DomainError("intensities must be nonnegative, one per mode")
    if n < 0 or N < 1:
        raise DomainError("n >= 0 and N >= 1 required")
    m = len(probs)
    n_patterns = comb(N + m - 1, m - 1)
    if n_patterns > pattern_cap:
        raise CombinatorialCap(f"{n_patterns} occupation patterns exceed cap")
    if m == 2:
        # vectorized two-mode path (the common sweep case)
        s = np.arange(N + 1)
        log_coeff = (_log_comb(N, s) + xlogy(s, probs[0])
                     + xlogy(N - s, probs[1]))
        nu = (s * intensities[0] + (N - s) * intensities[1]) / N
        log_pois = np.where(nu > 0, n * np.log(np.where(nu > 0, nu, 1.0))
                            - nu - math.lgamma(n + 1), 0.0 if n == 0 else -np.inf)
        return float(np.sum(np.exp(log_coeff + log_pois)))
    total = 0.0
    log_n_fact = math.lgamma(n + 1)
    for pattern in _compositions(N, m):
        log_c = math.lgamma(N + 1) - sum(math.lgamma(s + 1) for s in pattern)
        skip = False
        for s_i, p_i in zip(pattern, probs):
            if p_i == 0.0:
                if s_i > 0:
                    skip = True
                    break
            else:
                log_c += s_i * math.log(p_i)
        if skip:
            continue
        nu = sum(s_i * w_i for s_i, w_i in zip(pattern, intensities)) / N
        if nu == 0.0:
            total += math.exp(log_c) * (1.0 if n == 0 else 0.0)
        else:
            total += math.exp(log_c + n * math.log(nu) - nu - log_n_fact)
    return total


def _log_comb(N, s):
    return gammaln(N + 1.0) - gammaln(s + 1.0) - gammaln(N - s + 1.0)


def shannon_poisson_pmf(probs: Sequence[float],
                        intensities: Sequence[float], n: int) -> float:
    """Plain Poisson with the mode-averaged parameter sum_i p_i w_i (the
    N -> inf limit of the deformed law)."""
    lam = float(sum(p * w for p, w in zip(probs, intensities)))
    if n < 0:
        raise DomainError("n must be nonnegative")
    if lam == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(lam) - lam - math.lgamma(n + 1))


def kn_average(q: float, probs: Sequence[float],
               values: Sequence[float]) -> float:
    """Exponential Kolmogorov-Nagumo mean (1/(1-q)) log sum_i p_i
    e^{(1-q) A_i}; the q -> 1 limit is the arithmetic mean sum p_i A_i."""
    probs = np.asarray(probs, dtype=float)
    values = np.asarray(values, dtype=float)
    if abs(probs.sum() - 1.0) > 1e-12 or np.any(probs < 0):
        raise DomainError("probs must be nonnegative and sum to 1")
    if abs(1.0 - q) < 1e-8:
        return float(np.dot(probs, values))
    t = (1.0 - q) * values
    m = np.max(t)
    log_sum = m + math.log(float(np.dot(probs, np.exp(t - m))))
    return log_sum / (1.0 - q)


# -------------------------------------------------------- source statistics

def source_intensity(q_charge: float, k_abs: float, dt: float) -> float:
    """Per-mode coherent intensity of a static point source switched on for
    a time dt: q^2 sin^2(k dt/2)/(k/2)^2, bounded by (q dt)^2."""
    if k_abs <= 0:
        raise DomainError("k_abs must be positive")
    half = 0.5 * k_abs
    return (q_charge * math.sin(half * dt) / half) ** 2


def source_mean_intensity(profile: VacuumProfile, q_charge: float, dt: float,
                          spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """int dk density(|k|) |alpha_k|^2: the Poisson parameter of the emitted
    quanta in the large-ensemble limit; bounded by dt^2 q^2."""
    def g(kappa):
        if kappa <= 0.0:
            return 0.0
        return density(profile, kappa) * source_intensity(q_charge, kappa, dt)

    if profile.kind is ProfileKind.BOX_SHELL:
        lo, hi = profile.k1, profile.k2
    else:
        lo, hi = 0.0, 60.0 / profile.y0
    val, _ = quad(lambda k: k * g(k), lo, hi, limit=spec.max_subdivisions,
                  epsabs=spec.abs_tol, epsrel=spec.rel_tol)
    return val / (4.0 * math.pi ** 2)


# --------------------------------------------------------- radiative shifts

def radiative_shift(profile: VacuumProfile, q_charge: float,
                    plane_gap: float | None = None,
                    spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Vacuum-averaged self-energy of a static point charge.

    Free space: q^2 int dk density/|k| = q^2 density_integral(profile, 1), in
    closed form (an average over the vacuum ensemble, not a single
    eigenvalue shift); DomainError for a profile that is not infrared
    admissible.  With a reflecting plane at distance plane_gap the mode
    weight picks up (1 - cos 2 k_z L), i.e. radially
    (1 - sin(2 kappa L)/(2 kappa L)); the difference from free space, taken
    by quadrature, reproduces the closed-form mirror-image interaction.
    """
    from .coulomb import _sine_transform

    free = q_charge ** 2 * density_integral(profile, 1)
    if plane_gap is None:
        return free
    if plane_gap <= 0:
        raise DomainError("plane_gap must be positive")
    # subtract the mirror term  q^2/(8 pi^2 L) int dkappa density sin(2Lk)/k
    mirror = q_charge ** 2 / (8.0 * math.pi ** 2 * plane_gap) \
        * _sine_transform(profile, 2.0 * plane_gap, spec)
    return free - mirror
