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
the finite-N deformation of Poisson excitation statistics:

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
from math import comb
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.special import gammaln, xlogy

from .coulomb import potential
from .errors import CombinatorialCap, DimensionCap, DomainError
from .vacuum import VacuumProfile, density_integral, physical_charge

# largest truncated-representation dimension build_rep builds, and most
# occupation patterns renyi_poisson_pmf walks
DIMENSION_CAP = 100_000
PATTERN_CAP = 2_000_000


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
              N: int) -> TruncatedRep:
    """Validate the ensemble and build its product vacuum and per-basis-state
    total occupation table as Kronecker chains of one-site vectors; the
    N-site operators are built on first access (TruncatedRep).
    DimensionCap past DIMENSION_CAP basis states."""
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
    if dim > DIMENSION_CAP:
        raise DimensionCap(f"requested dimension {dim} exceeds cap "
                           f"{DIMENSION_CAP}")
    rep = TruncatedRep(omegas, weights, n_max, N)
    rep.dim = dim
    v1 = np.zeros(d1)
    v1[::n_max + 1] = np.sqrt(weights)
    rep.vacuum = reduce(np.kron, [v1] * N)
    rep.total_occupation = reduce(np.add.outer,
                                  [np.tile(np.arange(n_max + 1), m)] * N).ravel()
    return rep


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


# ------------------------------------------------------------- statistics

def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of length `parts` summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def renyi_poisson_pmf(probs: Sequence[float], intensities: Sequence[float],
                      N: int, n: Sequence[int]) -> np.ndarray:
    """Finite-N deformed Poisson law by exact coefficient extraction.

    Expanding (sum_i p_i e^{lambda w_i/N})^N multinomially, each frequency
    occupation pattern s (s_1 + ... + s_m = N) contributes an ordinary
    Poisson factor with parameter nu_s = sum_i s_i w_i / N:

        p(n, N) = sum_s C(N; s) prod_i p_i^{s_i} e^{-nu_s} nu_s^n / n!.

    n is a 1-d sequence of excitation numbers; an array of p(n, N), one per
    entry, comes back.  The pattern weights C(N; s) prod_i p_i^{s_i} and the
    nu_s are formed once for all of n; each p(n, N) is summed in the same
    order whatever else n holds, so it has the same bits in every call.
    CombinatorialCap past PATTERN_CAP patterns.
    """
    probs = [float(p) for p in probs]
    intensities = [float(w) for w in intensities]
    if abs(sum(probs) - 1.0) > 1e-12 or any(p < 0 for p in probs):
        raise DomainError("probs must be nonnegative and sum to 1")
    if any(w < 0 for w in intensities) or len(probs) != len(intensities):
        raise DomainError("intensities must be nonnegative, one per mode")
    if np.ndim(n) != 1:
        raise DomainError("n must be a 1-d sequence of excitation numbers")
    ns = list(n)
    if any(v < 0 for v in ns) or N < 1:
        raise DomainError("n >= 0 and N >= 1 required")
    m = len(probs)
    n_patterns = comb(N + m - 1, m - 1)
    if n_patterns > PATTERN_CAP:
        raise CombinatorialCap(f"{n_patterns} occupation patterns exceed cap")
    if m == 2:
        return np.array(_two_mode_pmf(probs, intensities, N, ns))
    return np.array(_pattern_pmf(probs, intensities, N, ns))


def _two_mode_pmf(probs, intensities, N, ns) -> list[float]:
    """renyi_poisson_pmf for two modes, vectorized over the N + 1 patterns
    (the common sweep case); one pass over them per n, so that memory stays
    O(N) however many n are asked for."""
    s = np.arange(N + 1)
    # log(N choose s): g = log(s!), and g[::-1] = log((N - s)!) exactly,
    # being gammaln at the same integers
    g = gammaln(s + 1.0)
    log_coeff = (gammaln(N + 1.0) - g - g[::-1] + xlogy(s, probs[0])
                 + xlogy(N - s, probs[1]))
    nu = (s * intensities[0] + (N - s) * intensities[1]) / N
    positive = nu > 0
    every_positive = bool(positive.all())
    log_nu = np.log(nu if every_positive else np.where(positive, nu, 1.0))
    out = []
    for n in ns:
        log_pois = n * log_nu - nu - math.lgamma(n + 1)
        if not every_positive:      # nu = 0: Poisson mass 1 at n = 0 only
            log_pois = np.where(positive, log_pois,
                                0.0 if n == 0 else -np.inf)
        out.append(float(np.sum(np.exp(log_coeff + log_pois))))
    return out


def _pattern_pmf(probs, intensities, N, ns) -> list[float]:
    """renyi_poisson_pmf for any number of modes: one walk over the
    occupation patterns, each adding its Poisson term to every n's total."""
    totals = [0.0] * len(ns)
    log_n_fact = [math.lgamma(n + 1) for n in ns]
    for pattern in _compositions(N, len(probs)):
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
            weight = math.exp(log_c)
            for i, n in enumerate(ns):
                totals[i] += weight * (1.0 if n == 0 else 0.0)
        else:
            log_nu = math.log(nu)
            for i, n in enumerate(ns):
                totals[i] += math.exp(log_c + n * log_nu - nu - log_n_fact[i])
    return totals


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


# --------------------------------------------------------- radiative shifts

def radiative_shift(profile: VacuumProfile, q_charge: float,
                    plane_gap: float | None = None) -> float:
    """Vacuum-averaged self-energy of a static point charge, in closed form.

    Free space: q^2 int dk density/|k| = q^2 density_integral(profile, 1)
    (an average over the vacuum ensemble, not a single eigenvalue shift);
    DomainError for a profile that is not infrared admissible.  With a
    reflecting plane at distance plane_gap the mode weight picks up
    (1 - cos 2 k_z L), i.e. radially (1 - sin(2 kappa L)/(2 kappa L)); the
    difference from free space is the mirror-image interaction, mirror_term.
    """
    free = q_charge ** 2 * density_integral(profile, 1)
    if plane_gap is None:
        return free
    return free + mirror_term(profile, q_charge, plane_gap)


def mirror_term(profile: VacuumProfile, q_charge: float,
                plane_gap: float) -> float:
    """Self-energy change of a point charge at distance L = plane_gap from a
    reflecting plane, by the method of images: half the closed-form
    averaged potential V(2 L) between the charge and its image."""
    if plane_gap <= 0:
        raise DomainError("plane_gap must be positive")
    q_ph = physical_charge(q_charge, profile)
    return 0.5 * potential(profile, q_ph, 2.0 * plane_gap)
