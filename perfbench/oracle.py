"""Independent mpmath references for the benchmark's CLI outputs.

Nothing here imports vacuumlab: every reference is rebuilt from the closed
forms in the package docstrings, evaluated with mpmath at 30 digits.  The
checks run outside the timed region.

Tolerances are relative.  For the Coulomb curves the error is taken relative
to the kernel's magnitude (|K0(w)|, or |Si(k2 r)| + |Si(k1 r)|, times the
prefactor), so cancellation at a zero crossing does not count but small
tails do.

``KNOWN_DEFECTS`` lists the regimes where the program is known to miss the
oracle on this code base, each with the largest error it is allowed there.
A miss inside one of them still counts as an oracle failure in the reported
metrics; it only keeps the run's ``correct`` flag, which is meant to catch
regressions, from being false on every run.  A miss larger than the
regime's allowance is unexplained, so a change that makes a known defect
worse turns ``correct`` false.  A change that fixes a defect deletes its
entry.
"""

from __future__ import annotations

import json
import math

import mpmath as mp

DPS = 30
REL_TOL = 1e-8
ROOT_REL_TOL = 1e-9

# regime name -> (description printed with each miss, largest relative error
# allowed inside the regime).  The allowances sit above the worst error seen
# on scans of the whole parameter range the workloads draw from.
KNOWN_DEFECTS = {
    "casimir_quad_large_alpha_L": (
        "p_quad at scattered points once alpha*L exceeds about 6e2 "
        "(wrong by a factor 12-420)", 2e3),
    "k0_complex_large_w": (
        "exponential-profile potential where |w| > 2 and bessel_k0_complex "
        "switches to its quadrature branch (errors up to ~2e-2 of |K0|)", 5e-2),
}
CASIMIR_QUAD_DEFECT_ALPHA_L = 5e2
K0_DEFECT_ABS_W = 2.0


# ------------------------------------------------------------- references

def casimir_pressure(alpha: float, L: float) -> float:
    """Wick-rotated resummed 1+1 pressure -(1/pi) int_0^inf t x/(1-x) dt,
    x = e^{-2tL} (1 + 2t/alpha)^{-2}."""
    with mp.workdps(DPS):
        a, l = mp.mpf(alpha), mp.mpf(L)

        def f(t):
            log_x = -2 * t * l - 2 * mp.log1p(2 * t / a)
            return t / mp.expm1(-log_x)

        val = mp.quad(f, [0, 1 / l, 8 / l, mp.inf])
        return float(-val / mp.pi)


def comb_endpoint(L: float) -> float:
    return float(-mp.pi / (16 * mp.mpf(L) ** 2))


def euler_maclaurin_endpoint(L: float) -> float:
    return float(-mp.pi / (24 * mp.mpf(L) ** 2))


def box_potential(q: float, k1: float, k2: float, r: float):
    """(V, scale) of -(q_ph^2/(4 pi r)) (2/pi) (Si(k2 r) - Si(k1 r)),
    q_ph^2 = q^2 8 pi^2/(k2^2 - k1^2)."""
    with mp.workdps(DPS):
        q, k1, k2, r = (mp.mpf(v) for v in (q, k1, k2, r))
        qph2 = q ** 2 * 8 * mp.pi ** 2 / (k2 ** 2 - k1 ** 2)
        pref = qph2 / (4 * mp.pi * r) * 2 / mp.pi
        s2, s1 = mp.si(k2 * r), mp.si(k1 * r)
        return float(-pref * (s2 - s1)), float(pref * (abs(s2) + abs(s1)))


def lorentz_kernel_arg(lambda2: float, y0: float, r: float) -> complex:
    return complex(2.0 * math.sqrt(lambda2) * (1.0 + 1j * r / y0) ** 0.5)


def lorentz_potential(q: float, lambda2: float, y0: float, r: float):
    """(V, scale) of (q_ph^2 e^{2 lam}/(pi^2 r)) Im K0(2 lam sqrt(1 + i r/y0)),
    q_ph^2 = q^2 Z, Z = 4 pi^2 y0^2 e^{-2 lam} / (2 lam^2 K2(2 lam))."""
    with mp.workdps(DPS):
        q, b, y0, r = (mp.mpf(v) for v in (q, lambda2, y0, r))
        lam = mp.sqrt(b)
        norm = 4 * mp.pi ** 2 * y0 ** 2 / (2 * b * mp.besselk(2, 2 * lam))
        qph2 = q ** 2 * norm * mp.exp(-2 * lam)
        k0 = mp.besselk(0, 2 * lam * mp.sqrt(1 + 1j * r / y0))
        pref = qph2 * mp.exp(2 * lam) / (mp.pi ** 2 * r)
        return float(pref * k0.imag), float(pref * abs(k0))


def sine_integral_root(guess: float = 1.9) -> float:
    """Smallest positive root of pi/2 - Si(x) (the box sign-change constant)."""
    with mp.workdps(DPS):
        return float(mp.findroot(lambda x: mp.pi / 2 - mp.si(x), guess))


def lorentz_first_zero(lambda2: float, y0: float, guess: float) -> float:
    """Radius where Im K0(2 lam sqrt(1 + i r/y0)) first changes sign."""
    with mp.workdps(DPS):
        b, y0 = mp.mpf(lambda2), mp.mpf(y0)
        lam = mp.sqrt(b)

        def im_k0(log_r):
            r = mp.exp(log_r)
            return mp.besselk(0, 2 * lam * mp.sqrt(1 + 1j * r / y0)).imag

        return float(mp.exp(mp.findroot(im_k0, mp.log(guess))))


# ------------------------------------------------------------------ checks

class Verdict:
    """Outcome of checking one CLI output against the oracle.

    ``ops`` operations were checked; ``misses`` of them lie outside the
    oracle tolerance, ``unexplained`` of those outside every KNOWN_DEFECTS
    regime or beyond its allowance.  ``malformed`` marks output that could not be checked at all.
    ``err`` is the worst relative error seen (None where the workload has
    no numeric oracle).
    """

    def __init__(self):
        self.ops = 1
        self.misses = 0
        self.unexplained = 0
        self.malformed = False
        self.err: float | None = None
        self.notes: list[str] = []

    def value(self, name, got, ref, scale=None, defect=None):
        err = abs(got - ref) / abs(scale if scale is not None else ref)
        self.err = err if self.err is None else max(self.err, err)
        if not err <= REL_TOL:
            self.miss(f"{name}: got {got!r}, oracle {ref!r}, rel err {err:.3g}",
                      defect, within_allowance=err <= allowance(defect))

    def miss(self, note, defect=None, within_allowance=True):
        self.misses = 1
        if defect is None:
            self.unexplained = 1
            self.notes.append(note)
        elif not within_allowance:
            self.unexplained = 1
            self.notes.append(f"{note} [beyond the allowance of known defect "
                              f"{defect}]")
        else:
            self.notes.append(f"{note} [known defect: {defect}]")

    def reject(self, note):
        self.malformed = True
        self.miss(f"malformed output: {note}")


def allowance(defect: str | None) -> float:
    """Largest relative error allowed inside a known-defect regime."""
    return KNOWN_DEFECTS[defect][1] if defect is not None else REL_TOL


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def check_casimir(params: dict, reference: dict, text: str) -> Verdict:
    v = Verdict()
    try:
        header, rows = _csv_rows(text)
        (row,) = rows
        got = dict(zip(header, (float(x) for x in row)))
        alpha, L = got["alpha"], got["L"]
    except (ValueError, KeyError, IndexError) as exc:
        v.reject(repr(exc))
        return v
    if alpha != params["alpha"] or L != params["gap"]:
        v.reject(f"row echoes alpha={alpha!r} L={L!r}")
        return v
    quad_defect = ("casimir_quad_large_alpha_L"
                   if alpha * L > CASIMIR_QUAD_DEFECT_ALPHA_L else None)
    v.value("p_series", got["p_series"], reference["p"])
    v.value("p_quad", got["p_quad"], reference["p"], defect=quad_defect)
    v.value("p_comb16", got["p_comb16"], reference["comb16"])
    v.value("p_em24", got["p_em24"], reference["em24"])
    return v


def casimir_reference(params: dict) -> dict:
    a, L = params["alpha"], params["gap"]
    return {"p": casimir_pressure(a, L), "comb16": comb_endpoint(L),
            "em24": euler_maclaurin_endpoint(L)}


def coulomb_potential(params: dict, r: float):
    if params["profile"] == "box":
        return box_potential(params["q"], params["k1"], params["k2"], r)
    return lorentz_potential(params["q"], params["lambda2"], params["y0"], r)


def check_coulomb(params: dict, rows_to_check: list[int], text: str,
                  summary_text: str) -> Verdict:
    v = Verdict()
    try:
        header, rows = _csv_rows(text)
        r = [float(row[0]) for row in rows]
        pot = [float(row[1]) for row in rows]
        summary = json.loads(summary_text)
    except (ValueError, IndexError) as exc:
        v.reject(repr(exc))
        return v
    if header != ["r", "V", "profile_tag"] or len(rows) != params["samples"] \
            or any(b <= a for a, b in zip(r, r[1:])) \
            or not math.isclose(r[0], params["rmin"], rel_tol=1e-12) \
            or not math.isclose(r[-1], params["rmax"], rel_tol=1e-12):
        v.reject("curve header, length or radius grid")
        return v
    for i in rows_to_check:
        ref, scale = coulomb_potential(params, r[i])
        v.value(f"V(r={r[i]!r})", pot[i], ref, scale, _k0_defect(params, r[i]))
    r0 = summary.get("sign_change_radius")
    if r0 is None:
        v.miss(f"no sign-change radius: {summary.get('note')}")
        return v
    if not _brackets_sign_flip(params, r0, ROOT_REL_TOL):
        # inside the K0 regime the root may be off by the regime's allowance
        defect = _k0_defect(params, r0)
        v.miss(f"sign_change_radius {r0!r}: oracle V has one sign on "
               f"r0 (1 +- {ROOT_REL_TOL:g})", defect,
               within_allowance=defect is not None and _brackets_sign_flip(
                   params, r0, allowance(defect)))
    return v


def _brackets_sign_flip(params: dict, r0: float, rel: float) -> bool:
    v_lo = coulomb_potential(params, r0 * (1 - rel))[0]
    v_hi = coulomb_potential(params, r0 * (1 + rel))[0]
    return (v_lo < 0) != (v_hi < 0)


def _k0_defect(params: dict, r: float) -> str | None:
    if params["profile"] == "lorentz" and abs(lorentz_kernel_arg(
            params["lambda2"], params["y0"], r)) > K0_DEFECT_ABS_W:
        return "k0_complex_large_w"
    return None


def check_validate(report_text: str) -> Verdict:
    """Each acceptance criterion is one operation; a criterion that reports
    pass = false is a miss.  The report has no independent numeric oracle."""
    v = Verdict()
    try:
        report = json.loads(report_text)
        crit = report["criteria"]
        v.ops = len(crit)
        failed = [c["criterion"] for c in crit if not c["pass"]]
    except (ValueError, KeyError, TypeError) as exc:
        v.reject(repr(exc))
        return v
    if failed or report["passed"] is not (not failed):
        v.misses = len(failed) or 1
        v.unexplained = v.misses
        v.notes.append(f"failed criteria: {failed}")
    return v
