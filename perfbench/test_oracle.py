"""Checks of the benchmark's mpmath oracle.  Run: python3 -m pytest perfbench"""

import json
import math

import pytest

mp = pytest.importorskip("mpmath")

import oracle  # noqa: E402

PLANCK_LENGTH_KM = 1.616255e-38   # CODATA 2018
AU_KM = 1.495978707e8


def test_sine_integral_root():
    assert oracle.sine_integral_root() == pytest.approx(1.92645, abs=1e-5)


def test_box_potential_changes_sign_near_the_root():
    # for k2 >> k1 the zero sits where Si(k1 r) first returns to pi/2
    root = oracle.sine_integral_root()
    below, _ = oracle.box_potential(1.0, 1.0, 1e6, root * (1 - 1e-3))
    above, _ = oracle.box_potential(1.0, 1.0, 1e6, root * (1 + 1e-3))
    assert below < 0 < above


def test_planck_scale_zero_is_2560_au():
    y0 = 1e-38 / PLANCK_LENGTH_KM
    r0 = oracle.lorentz_first_zero(1e-49, y0, guess=2.4e49)
    assert r0 * PLANCK_LENGTH_KM / AU_KM == pytest.approx(2560.2, rel=5e-3)
    v_lo, _ = oracle.lorentz_potential(1.0, 1e-49, y0, r0 * (1 - 1e-6))
    v_hi, _ = oracle.lorentz_potential(1.0, 1e-49, y0, r0 * (1 + 1e-6))
    assert (v_lo < 0) != (v_hi < 0)


def test_casimir_approaches_euler_maclaurin_endpoint():
    L = 1.3
    ratios = [oracle.casimir_pressure(a, L) / oracle.euler_maclaurin_endpoint(L)
              for a in (10.0, 1e2, 1e4, 1e6)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert 0.0 < 1.0 - ratios[-1] < 1e-4


def test_casimir_matches_direct_reflection_series():
    # -(1/pi) sum_n int t x^n dt summed term by term at low precision
    alpha, L = 7.0, 0.8
    with mp.workdps(20):
        total = mp.nsum(lambda n: mp.quad(
            lambda t: t * mp.exp(-2 * n * t * L) * (1 + 2 * t / alpha) ** (-2 * n),
            [0, mp.inf]), [1, mp.inf])
    assert oracle.casimir_pressure(alpha, L) == pytest.approx(
        float(-total / mp.pi), rel=1e-12)


def _casimir_csv(alpha, L, p_series, p_quad):
    return ("# vacuumlab 0.1.0\nalpha,L,p_series,p_quad,p_comb16,p_em24\n"
            f"{alpha!r},{L!r},{p_series!r},{p_quad!r},"
            f"{-math.pi / (16 * L * L)!r},{-math.pi / (24 * L * L)!r}\n")


@pytest.mark.parametrize("alpha,L,quad_scale,misses,unexplained", [
    (20.0, 1.0, 1.0, 0, 0),        # right answer
    (20.0, 1.0, 1.5, 1, 1),        # wrong outside any known defect
    (5e3, 1.0, 1.5, 1, 0),         # wrong inside the known p_quad regime
    (5e3, 1.0, 1e4, 1, 1),         # ... by more than the regime allows
])
def test_check_casimir(alpha, L, quad_scale, misses, unexplained):
    params = {"alpha": alpha, "gap": L}
    ref = oracle.casimir_reference(params)
    text = _casimir_csv(alpha, L, ref["p"], ref["p"] * quad_scale)
    v = oracle.check_casimir(params, ref, text)
    assert (v.misses, v.unexplained, v.malformed) == (misses, unexplained, False)


LORENTZ = {"profile": "lorentz", "q": 1.0, "lambda2": 0.5, "y0": 1.0,
           "rmin": 0.1, "rmax": 1e4, "samples": 6}


@pytest.mark.parametrize("row,delta,misses,unexplained", [
    (4, 0.0, 0, 0),            # right answer
    (4, 1e-3, 1, 0),           # |w| ~ 45: inside the K0 regime's allowance
    (4, 0.1, 1, 1),            # inside the regime, beyond its allowance
    (0, 1e-3, 1, 1),           # |w| ~ 1.4: outside the regime
])
def test_check_coulomb_k0_regime(row, delta, misses, unexplained):
    radii = [0.1 * 10.0 ** k for k in range(6)]
    rows = []
    for i, r in enumerate(radii):
        ref, scale = oracle.coulomb_potential(LORENTZ, r)
        rows.append(f"{r!r},{ref + delta * scale * (i == row)!r},lorentz")
    curve = "# vacuumlab 0.1.0\nr,V,profile_tag\n" + "\n".join(rows) + "\n"
    r0 = oracle.lorentz_first_zero(0.5, 1.0, guess=10.0)
    summary = json.dumps({"sign_change_radius": r0})
    v = oracle.check_coulomb(LORENTZ, [0, 4, 5], curve, summary)
    assert (v.misses, v.unexplained, v.malformed) == (misses, unexplained, False)


def test_check_casimir_rejects_malformed_output():
    params = {"alpha": 20.0, "gap": 1.0}
    v = oracle.check_casimir(params, oracle.casimir_reference(params), "oops\n")
    assert v.malformed and v.unexplained


def test_check_validate_counts_failed_criteria():
    report = {"passed": False, "criteria": [
        {"criterion": "a", "pass": True}, {"criterion": "b", "pass": False}]}
    v = oracle.check_validate(json.dumps(report))
    assert (v.ops, v.misses) == (2, 1)
    report["criteria"][1]["pass"] = True
    report["passed"] = True
    assert oracle.check_validate(json.dumps(report)).misses == 0
