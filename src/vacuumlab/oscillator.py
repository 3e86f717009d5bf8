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

the z^n coefficient of Q(z)^N, Q(z) = sum_w p_w e^{w_w (z - 1)/N}, taken by
binary powering of a truncated series.  The module doubles as the
brute-force oracle for p(n, N) (sparse N-site matrices, built on first use;
displacement as the Kronecker product of N one-site matrix exponentials,
exact because the generator is a sum of commuting one-site terms) and
evaluates the vacuum-averaged self-energy shifts of a static point charge,
free or facing a reflecting plane.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import expm

from .coulomb import potential
from .errors import DimensionCap, DomainError
from .vacuum import VacuumProfile, density_integral, physical_charge

# largest truncated-representation dimension build_rep builds
DIMENSION_CAP = 100_000


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
        N, dim, d1 = self.N, self.dim, len(self.omegas) * (self.n_max + 1)
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

def renyi_poisson_pmf(probs: Sequence[float], intensities: Sequence[float],
                      N: int, n: Sequence[int]) -> np.ndarray:
    """Finite-N deformed Poisson law p(n, N) = [z^n] Q(z)^N, with
    Q(z) = sum_w p_w e^{mu_w (z - 1)} and mu_w = w_w/N, as an array with
    one p(n, N) per entry of the 1-d sequence n.

    p(n, N) = q0^N [z^n] R^N with R = Q/q0: r_0 = 1 and r_k >= 0 from
    cumulative products mu_w/k, raised to the N-th power by binary powering
    of the series cut past max(n); nothing subtracts.  log q0 is log1p of
    an fsum of the probabilities, -1 and p_w expm1(-mu_w), which keeps the
    probabilities' defect from 1 (log q0 itself below q0 = 1/2).  Each
    p(n, N) has the same bits whatever else n holds.  DomainError where
    q0^N is not a normal double, -N log q0 > 708.4 (R^N reaches q0^-N; by
    Jensen, a mean intensity > 708).  A mode with mu_w > 745 drops out.
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
    p, mu = np.array(probs), np.array(intensities) / N
    shares = p * np.exp(-mu)                    # the modes' parts of q0
    q0 = math.fsum(shares)
    log_q0 = (math.log1p(math.fsum([*probs, -1.0, *(p * np.expm1(-mu))]))
              if q0 > 0.5 else math.log(q0) if q0 > 0.0 else -math.inf)
    if N * log_q0 < math.log(sys.float_info.min):
        raise DomainError(f"p(0, N) = exp({N * log_q0:g}) is no normal "
                          "double (a mean intensity past ~708)")
    # row k: the modes' (p_w e^{-mu_w}/q0) mu_w^k/k!, none above p_w/q0
    steps = np.vstack([shares / q0,
                       mu / np.arange(1, max(ns, default=0) + 1)[:, None]])
    r = np.cumprod(steps, axis=0).sum(axis=1)
    r[0] = 1.0
    return math.exp(N * log_q0) * _series_power(r, N)[ns]


def _series_power(r: np.ndarray, N: int) -> np.ndarray:
    """r(z)^N cut to len(r) terms, by binary powering over the bits of N.
    Coefficient k of a product, sum_j a_j b_(k-j), is added in order of j
    (bincount adds in input order), so it does not depend on len(r)."""
    index = np.add.outer(np.arange(len(r)), np.arange(len(r))).ravel()

    def product(a, b):
        return np.bincount(index, np.multiply.outer(a, b).ravel())[:len(r)]

    power = r
    for bit in bin(N)[3:]:
        power = product(power, power)
        if bit == "1":
            power = product(power, r)
    return power


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
    DomainError for a profile that is not infrared admissible or a q that
    physical_charge rejects.  With a reflecting plane at distance plane_gap
    the mode weight picks up (1 - cos 2 k_z L), i.e. radially
    (1 - sin(2 kappa L)/(2 kappa L)); the difference from free space is the
    mirror-image interaction, mirror_term.
    """
    physical_charge(q_charge, profile)
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
