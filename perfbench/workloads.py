"""Request lists for each workload, generated from the seed alone.

Parameters are drawn log-uniformly over the ranges the workloads name.
Coulomb requests come from a randomly shifted Fibonacci lattice on the unit
square, which puts exactly one point in each 1/n strip of either
coordinate, so request lists from different seeds cost about the same and
the figures compare across seeds.  Casimir requests are independent draws.

The same seed always gives the same list; the seed also fixes the request
order and the Coulomb rows the oracle samples.
"""

from __future__ import annotations

import os
import random

FIBONACCI = (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144)

CASIMIR_POINTS = 40
# box : exponential is 89 : 144, not 1 : 1: box requests take 3-5 ms and
# exponential ones 13-40 ms, so with equal shares the median latency would
# fall in the gap between the two clusters and swing with noise; here it
# falls in the flat low end of the exponential cluster
COULOMB_BOX_POINTS = 89
COULOMB_LORENTZ_POINTS = 144
COULOMB_SAMPLES = 200
COULOMB_CHECKED_ROWS = 6     # first and last row plus seeded interior rows


def fibonacci_lattice(n: int, rng: random.Random) -> list[tuple[float, float]]:
    """n points (n a Fibonacci number) of the lattice (i/n, i F_{k-1}/n),
    shifted by a uniform random vector modulo 1."""
    k = FIBONACCI.index(n)
    g = FIBONACCI[k - 1]
    du, dv = rng.random(), rng.random()
    return [((i / n + du) % 1.0, (i * g / n + dv) % 1.0) for i in range(n)]


def log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"vacuumlab-perfbench:{workload}:{seed}")


def casimir_scan(seed: int, workdir: str) -> list[dict]:
    rng = _rng("casimir_scan", seed)
    reqs = []
    for _ in range(CASIMIR_POINTS):
        alpha = log_uniform(rng.random(), 10.0, 1e4)
        gap = log_uniform(rng.random(), 0.5, 2.0)
        reqs.append({"argv": ["casimir", "--alpha", repr(alpha),
                              "--gap", repr(gap)],
                     "params": {"alpha": alpha, "gap": gap}, "files": []})
    return reqs


def coulomb_curves(seed: int, workdir: str) -> list[dict]:
    rng = _rng("coulomb_curves", seed)
    summary = os.path.join(workdir, "coulomb_summary.json")
    params = []
    for u, v in fibonacci_lattice(COULOMB_BOX_POINTS, rng):
        k1 = log_uniform(u, 1e-2, 1.0)
        k2 = k1 * log_uniform(v, 3.0, 1e3)
        params.append({"profile": "box", "k1": k1, "k2": k2,
                       "rmin": 0.1 / k2, "rmax": 100.0 / k1})
    for u, v in fibonacci_lattice(COULOMB_LORENTZ_POINTS, rng):
        lambda2, y0 = log_uniform(u, 1e-12, 1.0), log_uniform(v, 1e-4, 1.0)
        params.append({"profile": "lorentz", "lambda2": lambda2, "y0": y0,
                       "rmin": 0.1 * y0, "rmax": 1e4 * y0})
    reqs = []
    for p in params:
        p.update(q=1.0, samples=COULOMB_SAMPLES)
        argv = ["coulomb", "--profile", p["profile"]]
        for key in ("k1", "k2") if p["profile"] == "box" else ("lambda2", "y0"):
            argv += [f"--{key}", repr(p[key])]
        argv += ["--rmin", repr(p["rmin"]), "--rmax", repr(p["rmax"]),
                 "--samples", str(COULOMB_SAMPLES), "--summary", summary]
        interior = rng.sample(range(1, COULOMB_SAMPLES - 1),
                              COULOMB_CHECKED_ROWS - 2)
        reqs.append({"argv": argv, "params": p, "files": [summary],
                     "check_rows": [0, COULOMB_SAMPLES - 1] + sorted(interior)})
    rng.shuffle(reqs)
    return reqs


def validate(seed: int, workdir: str) -> list[dict]:
    """`validate` takes no parameters, so every seed gives the same list."""
    report = os.path.join(workdir, "validate_report.json")
    return [{"argv": ["validate", "--out", report], "params": {},
             "files": [report]}]


WORKLOADS = {
    "casimir_scan": casimir_scan,
    "coulomb_curves": coulomb_curves,
    "validate": validate,
}


def requests(workload: str, seed: int, workdir: str) -> list[dict]:
    return WORKLOADS[workload](seed, workdir)
