"""Reference machinery that only the tests use: general-purpose oracles that
`validate` replaced with closed forms or fixed panels.

* The N-site truncated representation of indefinite-frequency oscillators
  (TruncatedRep, build_rep, coherent_state,
  excitation_projector_expectation): the operator algebra of the paper's
  construction, and a brute-force p(n, N) from the N-site coherent state.
  One oscillator carries a frequency register (one slot per eigenvalue
  omega) tensored with a truncated number ladder; the N-fold bosonic
  extension uses symmetrized one-site operators with normalization
  1/sqrt(N):

      a_w(N) = (a_w x 1 ... + ... + 1 x ... x a_w)/sqrt(N)
      I_w(N) = (P_w x 1 ... + ... + 1 x ... x P_w)/N
      nt_w(N) = sum over sites of P_w x n-ladder   (no normalization)

  satisfying [a_w(N), a_v(N)^+] = delta_wv I_w(N) and
  [a_w(N), nt_v(N)] = delta_wv a_w(N) exactly below the occupation cutoff.
  I_w(N) has the binomial frequency-of-successes spectrum s/N.
* density_sine_quad: int dkappa density(kappa) sin(w kappa)/kappa by
  sine-weighted quadpack rules (QAWO), the quadrature oracle of the
  closed-form averaged potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.integrate import quad
from scipy.linalg import expm

from vacuumlab import vacuum
from vacuumlab.errors import DomainError

# largest truncated-representation dimension build_rep builds
DIMENSION_CAP = 100_000


class DimensionCap(ValueError):
    """Requested truncated representation exceeds DIMENSION_CAP."""


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


def density_sine_quad(p: vacuum.VacuumProfile, w: float) -> float:
    """int dkappa density(kappa) sin(w kappa)/kappa for w > 0 by quadrature,
    the oracle of the closed-form potential: V(w) of bare charge q is
    -q^2/(2 pi^2 w) times it.  Box: one sine-weighted rule on [k1, k2].
    Exponential profile: in x = y0 kappa over [lambda^2 e^-7,
    max(60, 10 lambda)], in decade panels with one sine-weighted rule each.
    For small lambda density/kappa peaks near x = lambda^2, not lambda, and
    below the lower end e^(-lambda^2/x) < e^-1000 cuts it off.  Each rule
    is held to 1e-8 relative or 1e-10 of the peak density Z absolute.
    """
    rule = dict(epsabs=1e-10 * p.Z, epsrel=1e-8, limit=300, weight="sin")
    density = vacuum.density
    if p.kind is vacuum.ProfileKind.BOX_SHELL:
        return quad(lambda k: density(p, k) / k, p.k1, p.k2, wvar=w, **rule)[0]
    y0, lam = p.y0, math.sqrt(p.lambda2)
    lo, hi = p.lambda2 * math.exp(-7.0), max(60.0, 10.0 * lam)
    # the first panel, one to two decades wide, lies below lambda^2/10,
    # where e^(-lambda^2/x) < e^-10
    decades = range(math.floor(math.log10(lo)) + 2, math.ceil(math.log10(hi)))
    edges = [lo, *(10.0 ** e for e in decades), hi]
    return sum(quad(lambda x: density(p, x / y0) / x, a, b, wvar=w / y0,
                    **rule)[0]
               for a, b in zip(edges[:-1], edges[1:]))
