"""Double delta-barrier modes in one dimension.

The barrier pair a*delta(z + s) + b*delta(z - s) splits the line into three
regions; a plane wave incident from one side is sewn across the barriers by
four linear conditions (continuity, and derivative jumps equal to the
barrier strength times the value).  With unit incident amplitude the sewing
coefficients for a wave of momentum k > 0 coming from the left are

    Delta = k^2 + i(a + b)k/2 + (exp(4iks) - 1) ab/4
    B = -i e^{-2iks} (k(a + b e^{4iks})/2 - i(e^{4iks} - 1) ab/4) / Delta
    C = k(k + i b/2)/Delta
    D = -i e^{2iks} k b/2 / Delta
    E = k^2/Delta

(reflected, interior right-mover, interior left-mover, transmitted).

Two mode families share this machinery and differ only in scale:

* the vacuum-field mode f(k_z, z): barrier strengths (2 alpha, 2 beta) at
  z = -L/4 and z = +L/4;
* the field-operator mode ft(k_z, z): strengths (alpha, beta) at z = -L/2
  and z = +L/2.

For alpha = beta the homogeneous system has nontrivial solutions only at
complex wavenumbers expressible through Lambert W; those resonances and the
window form of the mode inner product (which carries the orthonormality
statement) are computed here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMode, DomainError
from .numerics import QuadratureSpec, quad_careful
from .specfun import lambert_w

DELTA_TOL = 1e-12


@dataclass(frozen=True)
class CavityConfig:
    """Barrier strengths and separation; dirichlet=True means the fully
    reflecting limit of both barriers (handled as a separate code path,
    never as a large float)."""

    alpha: float
    beta: float
    L: float
    dirichlet: bool = False

    def __post_init__(self):
        if self.L <= 0:
            raise DomainError("plate separation L must be positive")
        if not self.dirichlet and (self.alpha < 0 or self.beta < 0):
            raise DomainError("barrier strengths must be nonnegative")

    @property
    def symmetric(self) -> bool:
        return self.dirichlet or self.alpha == self.beta


@dataclass(frozen=True)
class ScatteringCoefficients:
    """Sewing amplitudes for one incidence side.

    Left incidence: A = 1 and F = 0; right incidence: F = 1 and A = 0.
    Flux unitarity: |B|^2 + |E|^2 = 1 for left, |E|^2 + |B|^2 = 1 (same
    moduli with the roles mirrored) for right.
    """

    A: complex
    B: complex
    C: complex
    D: complex
    E: complex
    F: complex


class Side:
    LEFT = "left"
    RIGHT = "right"


def _sewing(k, a, b, s):
    """Raw left-incidence coefficients (B, C, D, E) for barriers a, b at
    z = -s, +s: one numpy kernel over arrays that broadcast together (it
    takes floats as well; scalar callers go through _sewing_one).
    DegenerateMode if the determinant vanishes anywhere in the batch."""
    e2 = np.exp(4j * k * s)             # phase across the full cavity
    delta = k * k + 0.5j * (a + b) * k + (e2 - 1.0) * a * b / 4.0
    degenerate = np.abs(delta) < DELTA_TOL * np.maximum(np.maximum(1.0, k * k),
                                                        a * b)
    if degenerate.any():
        k_bad = np.broadcast_to(k, degenerate.shape)[degenerate][0]
        raise DegenerateMode(f"sewing determinant vanished at k={k_bad}")
    B = -1j * np.exp(-2j * k * s) \
        * (0.5 * k * (a + b * e2) - 0.25j * (e2 - 1.0) * a * b) / delta
    C = k * (k + 0.5j * b) / delta
    D = -1j * np.exp(2j * k * s) * 0.5 * k * b / delta
    E = k * k / delta
    return B, C, D, E


def _sewing_one(k: float, a: float, b: float, s: float):
    """_sewing at one point, as Python complex numbers.  Evaluated as a
    batch of one: numpy rounds complex products differently in its array
    loops and in its scalar arithmetic, and this keeps every scalar result
    equal, bit for bit, to the same entry of a batch."""
    return tuple(complex(c[0]) for c in
                 _sewing(*np.array([[k], [a], [b], [s]], dtype=float)))


def _sewing_dirichlet(k: float, s: float, resonance_tol: float = 1e-9):
    """Fully reflecting limit: interior survives only on the comb
    2k s = pi n (phase e^{4iks} = 1)."""
    phase = cmath.exp(4j * k * s)
    if abs(phase - 1.0) > resonance_tol:
        B = -cmath.exp(-2j * k * s)
        return B, 0.0 + 0j, 0.0 + 0j, 0.0 + 0j
    B = -cmath.exp(-2j * k * s)
    C = 0.5 + 0j
    D = -0.5 * cmath.exp(2j * k * s)
    return B, C, D, 0.0 + 0j


def scattering_coeffs(k: float, cfg: CavityConfig,
                      side: str = Side.LEFT) -> ScatteringCoefficients:
    """Sewing coefficients of the vacuum-field mode at one momentum k > 0,
    as Python complex fields.  For many momenta or configurations at once,
    scattering_coeffs_batch gives the same left-incidence values as arrays.

    The right-incidence problem is the left one with the barrier strengths
    interchanged.
    """
    if k <= 0:
        raise DomainError("scattering_coeffs requires k > 0")
    a, b = 2.0 * cfg.alpha, 2.0 * cfg.beta
    s = cfg.L / 4.0
    if side not in (Side.LEFT, Side.RIGHT):
        raise DomainError(f"unknown incidence side {side!r}")
    if cfg.dirichlet:
        B, C, D, E = _sewing_dirichlet(k, s)
    elif side == Side.LEFT:
        B, C, D, E = _sewing_one(k, a, b, s)
    else:
        B, C, D, E = _sewing_one(k, b, a, s)
    if side == Side.LEFT:
        return ScatteringCoefficients(A=1.0 + 0j, B=B, C=C, D=D, E=E, F=0.0j)
    return ScatteringCoefficients(A=0.0j, B=E, C=D, D=C, E=B, F=1.0 + 0j)


def scattering_coeffs_batch(k, alpha, beta, L):
    """Left-incidence sewing coefficients of the vacuum-field mode for many
    momenta and configurations in one numpy pass: k, alpha, beta and L are
    arrays (or floats) that broadcast together, with k > 0, L > 0 and
    alpha, beta >= 0 everywhere (DomainError otherwise, as CavityConfig and
    scattering_coeffs check them).  Returns the complex arrays (B, C, D, E),
    element for element equal to the fields of
    scattering_coeffs(k, CavityConfig(alpha, beta, L)); DegenerateMode if
    any entry's sewing determinant vanishes.
    """
    k, alpha, beta, L = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (k, alpha, beta, L)))
    if not np.all(L > 0):
        raise DomainError("plate separation L must be positive")
    if not (np.all(alpha >= 0) and np.all(beta >= 0)):
        raise DomainError("barrier strengths must be nonnegative")
    if not np.all(k > 0):
        raise DomainError("scattering_coeffs_batch requires k > 0")
    return _sewing(k, 2.0 * alpha, 2.0 * beta, L / 4.0)


def _sewn_wave(kz: float, z: float, s: float, coeffs,
               derivative: bool = False) -> complex:
    """The combined mode at k_z != 0 from its sewing coefficients
    coeffs = (B, C, D, E) (left incidence for k_z > 0, right incidence for
    k_z < 0): the plane waves exp(+-i k_z z) weighted as the region of z
    requires, barriers at -+s."""
    B, C, D, E = coeffs
    up = cmath.exp(1j * kz * z)
    dn = cmath.exp(-1j * kz * z)
    if kz > 0:
        if z < -s:
            amp_up, amp_dn = 1.0, B
        elif z <= s:
            amp_up, amp_dn = C, D
        else:
            amp_up, amp_dn = E, 0.0
    else:
        # incidence from the right: the space-reflected problem with the
        # barrier strengths interchanged, coefficients reattached mirrorwise
        if z > s:
            amp_up, amp_dn = 1.0, B
        elif z >= -s:
            amp_up, amp_dn = C, D
        else:
            amp_up, amp_dn = E, 0.0
    if derivative:
        return 1j * kz * (amp_up * up - amp_dn * dn)
    return amp_up * up + amp_dn * dn


def _combined_mode(kz: float, z: float, a: float, b: float, s: float,
                   dirichlet: bool, derivative: bool = False) -> complex:
    """Mode u(k_z, z) combining left incidence for k_z > 0 with right
    incidence for k_z < 0; plane waves exp(+-i k z), barriers at -+s.

    u(0, z) is taken as the k -> 0 limit: 1 for free space, 0 otherwise.
    """
    if kz == 0.0:
        if derivative:
            return 0.0 + 0j
        return 1.0 + 0j if (a == 0.0 and b == 0.0 and not dirichlet) else 0.0j
    k = abs(kz)
    if dirichlet:
        coeffs = _sewing_dirichlet(k, s)
    else:
        coeffs = _sewing_one(k, a, b, s) if kz > 0 else _sewing_one(k, b, a, s)
    return _sewn_wave(kz, z, s, coeffs, derivative)


def mode_function(kz: float, z: float, cfg: CavityConfig,
                  derivative: bool = False) -> complex:
    """Vacuum-field mode f(k_z, z): barriers 2*alpha, 2*beta at z = -+L/4.

    Free limit exp(i k_z z); symmetric configurations obey
    f(-k_z, -z) = f(k_z, z).
    """
    return _combined_mode(kz, z, 2.0 * cfg.alpha, 2.0 * cfg.beta,
                          cfg.L / 4.0, cfg.dirichlet, derivative)


def field_mode(kz: float, z: float, cfg: CavityConfig,
               derivative: bool = False) -> complex:
    """Field-operator mode ft(k_z, z): barriers alpha, beta at z = -+L/2.

    Same sewing machinery at half strength and doubled separation; the
    derivative jump across z = -+L/2 equals the barrier strength times the
    mode value there.
    """
    return _combined_mode(kz, z, cfg.alpha, cfg.beta, cfg.L / 2.0,
                          cfg.dirichlet, derivative)


def field_mode_coeffs(k: float, cfg: CavityConfig,
                      side: str = Side.LEFT) -> ScatteringCoefficients:
    """Sewing coefficients of the field-operator mode: the vacuum-mode
    coefficients evaluated at (alpha/2, beta/2, 2L)."""
    half = CavityConfig(cfg.alpha / 2.0, cfg.beta / 2.0, 2.0 * cfg.L,
                        cfg.dirichlet)
    return scattering_coeffs(k, half, side)


def resonance_equation(k: complex, cfg: CavityConfig) -> complex:
    """Determinant k^2 + 2 i alpha k + (exp(i k L) - 1) alpha^2 whose zeros
    are the homogeneous-mode wavenumbers (alpha = beta)."""
    if not cfg.symmetric or cfg.dirichlet:
        raise DomainError("resonances require finite alpha = beta")
    a = cfg.alpha
    return k * k + 2j * a * k + (cmath.exp(1j * k * cfg.L) - 1.0) * a * a


def resonance_roots(cfg: CavityConfig, branches=range(0, 3),
                    residual_tol: float = 1e-8) -> list[complex]:
    """Complex homogeneous-mode wavenumbers for alpha = beta > 0:

        k_{n,+-} = -i (L alpha - 2 W_n(+- e^{L alpha/2} L alpha / 2)) / L

    ordered (n, +), (n, -) over the requested branches.  Each root is
    verified against the resonance equation to residual_tol * alpha^2.
    """
    if not cfg.symmetric or cfg.dirichlet:
        raise DomainError("resonance roots require finite alpha = beta")
    a, L = cfg.alpha, cfg.L
    if a <= 0:
        raise DomainError("resonance roots require alpha > 0")
    arg = math.exp(L * a / 2.0) * L * a / 2.0
    roots = []
    for n in branches:
        for sign in (+1.0, -1.0):
            w = lambert_w(n, sign * arg)
            k = -1j * (L * a - 2.0 * w) / L
            resid = abs(resonance_equation(k, cfg))
            if resid > residual_tol * a * a * max(1.0, abs(k) ** 2 / (a * a)):
                raise DegenerateMode(
                    f"resonance root ({n}, {sign:+.0f}) residual {resid}")
            roots.append(k)
    return roots


def boundary_inner_product(lz: float, kz: float, window_n: float,
                           cfg: CavityConfig) -> complex:
    """int_{-n}^{n} conj(f(l_z, z)) f(k_z, z) dz through the boundary form

        [-conj(f(l)) f'(k) + f(k) conj(f(l))'] / (k_z^2 - l_z^2)

    evaluated at both window ends (valid because both modes solve the same
    barrier problem).  Oscillates in the window size for l_z != +-k_z with
    Cesaro mean 0 across channels; the coincident channel carries the delta
    normalization with weight 2 pi.
    """
    if not cfg.symmetric:
        raise DomainError("mode orthonormality analysis requires alpha = beta")
    if window_n <= cfg.L / 4.0:
        raise DomainError("window must contain both barriers (n > L/4)")
    if lz == 0.0 or kz == 0.0:
        raise DomainError("zero-momentum channel excluded (modes vanish)")
    if abs(kz * kz - lz * lz) < DELTA_TOL:
        raise DegenerateMode("coincident |momenta|: use the delta-channel "
                             "weight instead")
    n = window_n
    # mode_function's sewing, once per momentum; symmetric barriers share
    # one sewing between both incidence sides
    s = cfg.L / 4.0
    if cfg.dirichlet:
        ck, cl = (_sewing_dirichlet(abs(q), s) for q in (kz, lz))
    else:
        a = 2.0 * cfg.alpha
        ck, cl = zip(*(c.tolist()
                       for c in _sewing(np.abs([kz, lz]), a, a, s)))

    def pair(z):
        fk = _sewn_wave(kz, z, s, ck)
        fl = _sewn_wave(lz, z, s, cl)
        dfk = _sewn_wave(kz, z, s, ck, derivative=True)
        dfl = _sewn_wave(lz, z, s, cl, derivative=True)
        return fk, fl.conjugate(), dfk, dfl.conjugate()

    fk_p, fl_p, dfk_p, dfl_p = pair(n)
    fk_m, fl_m, dfk_m, dfl_m = pair(-n)
    num = (-fl_p * dfk_p + fk_p * dfl_p) - (-fl_m * dfk_m + fk_m * dfl_m)
    return num / (kz * kz - lz * lz)


_DELTA_CHANNEL_SPEC = QuadratureSpec(1e-10, 1e-9, 400)


def delta_channel_weight(kz: float, cfg: CavityConfig, window_n: float,
                         half_width: float | None = None) -> float:
    """Coefficient of the coincident-momentum delta in the mode inner
    product, extracted by integrating the window form over l_z near k_z
    (tends to 2 pi as the window grows).
    """
    if half_width is None:
        half_width = 0.25 * abs(kz)
    k = kz

    def f(l):
        if abs(l * l - k * k) < 1e-13:
            return 0.0
        return boundary_inner_product(l, k, window_n, cfg).real

    return quad_careful(f, k - half_width, k + half_width,
                        _DELTA_CHANNEL_SPEC, points=[k])
