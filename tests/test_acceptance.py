"""Acceptance gate: every headline criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion
report, or `vacuumlab validate` for the same content as JSON.
"""

import numpy as np
import pytest

from vacuumlab import validation
from vacuumlab.numerics import gauss_legendre
from vacuumlab.validation import ALL_CHECKS, _unitarity_draws, run_validation


def _report(results):
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.criterion}: expected {r.expected}, "
                     f"measured {r.measured}, tolerance {r.tolerance}")
    return lines


@pytest.mark.parametrize("check", ALL_CHECKS,
                         ids=lambda c: c.__name__.removeprefix("check_"))
def test_criterion(check):
    results = check()
    for line in _report(results):
        print(line)
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(_report(failed))


def test_full_suite_green():
    results = run_validation()
    assert all(r.passed for r in results)
    assert len(results) >= 40


def test_unitarity_draws_match_scalar_stream():
    # one (1000, 3) call yields the stream of alpha, L, k drawn in turn
    rng = np.random.default_rng(20240817)
    scalar = [[rng.uniform(0.01, 50.0), rng.uniform(0.1, 5.0),
               rng.uniform(0.01, 80.0)] for _ in range(1000)]
    assert np.array_equal(_unitarity_draws(), np.array(scalar))


def test_vacuum_normalization_integrates_once_per_lambda2(monkeypatch):
    # the exponential profile's s-integral depends on lambda^2 alone: one
    # panel rule for each of the four lambda^2, one for the box
    calls = []

    def counting(*args):
        calls.append(args)
        return gauss_legendre(*args)

    monkeypatch.setattr(validation, "gauss_legendre", counting)
    assert all(r.passed for r in validation.check_vacuum_normalization())
    assert len(calls) == 5
