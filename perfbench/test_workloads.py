"""Checks of the seeded request lists.  Run: python3 -m pytest perfbench"""

import math
import random

import pytest

import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests(name):
    a = workloads.requests(name, 7, "/w")
    assert a == workloads.requests(name, 7, "/w")
    if name != "validate":
        assert a != workloads.requests(name, 8, "/w")


def test_lattice_has_one_point_per_stratum():
    pts = workloads.fibonacci_lattice(34, random.Random(3))
    for axis in (0, 1):
        assert sorted(int(p[axis] * 34) for p in pts) == list(range(34))


def test_casimir_parameters_in_range_and_exact_on_the_command_line():
    for req in workloads.requests("casimir_scan", 5, "/w"):
        p = req["params"]
        assert 10.0 <= p["alpha"] <= 1e4 and 0.5 <= p["gap"] <= 2.0
        assert float(req["argv"][2]) == p["alpha"]
        assert float(req["argv"][4]) == p["gap"]


def test_coulomb_requests_cover_both_profiles():
    reqs = workloads.requests("coulomb_curves", 5, "/w")
    profiles = [r["params"]["profile"] for r in reqs]
    assert profiles.count("box") == workloads.COULOMB_BOX_POINTS
    assert profiles.count("lorentz") == workloads.COULOMB_LORENTZ_POINTS
    for r in reqs:
        p = r["params"]
        if p["profile"] == "box":
            assert 1e-2 <= p["k1"] <= 1 and 3 <= p["k2"] / p["k1"] * (1 + 1e-12)
            assert p["k2"] / p["k1"] <= 1e3 * (1 + 1e-12)
            assert math.isclose(p["rmin"] * p["k2"], 0.1)
        else:
            assert 1e-12 <= p["lambda2"] <= 1 and 1e-4 <= p["y0"] <= 1
            assert math.isclose(p["rmax"], 1e4 * p["y0"])
        assert r["check_rows"][:2] == [0, 199]
