"""Checks of the run's figures.  Run: python3 -m pytest perfbench"""

import pytest

import oracle
import reference
import run

UNIT = reference.REFERENCE_MS * 1e-3     # a reference block at nominal speed


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = list(range(1, 31))
    assert run.tail(values) == (20, pytest.approx(100 * 20 / 30))
    assert run.tail(values[:8]) == (8, 100.0)


def _verdict(misses=0, unexplained=0, ops=1):
    v = oracle.Verdict()
    v.ops, v.misses, v.unexplained = ops, misses, unexplained
    return v


def test_latency_is_scaled_by_the_local_reference_time():
    samples = [(0, 0.010, 0), (0, 0.010, 0), (0, 0.010, 0), (0, 0.010, 0)]
    refs = [UNIT, UNIT, 2 * UNIT, 2 * UNIT, 2 * UNIT]
    # window 1: the blocks just before and just after each sample
    got = run.scaled_latencies(samples, refs, 1)
    assert got == pytest.approx([0.010, 0.010 / 1.5, 0.005, 0.005])
    # window 2: two blocks each side, fewer at the ends of the run; the
    # median drops one slow block
    refs = [UNIT, 5 * UNIT, UNIT, UNIT, UNIT]
    assert run.scaled_latencies(samples, refs, 1) \
        == pytest.approx([0.010 / 3, 0.010 / 3, 0.010, 0.010])
    assert run.scaled_latencies(samples, refs, 2) == pytest.approx([0.010] * 4)
    assert run.scaled(0.5, 2 * UNIT) == pytest.approx(0.25)


def test_summarize_uses_each_requests_median_round():
    worker = {"samples": [(0, 0.010, 0), (1, 0.030, 0), (0, 0.020, 0),
                          (1, 0.050, 0), (0, 0.090, 0), (1, 0.040, 0)],
              "refs": [UNIT] * 7,
              "repeat_mismatch": [], "round_s": [0.04, 0.07, 0.13],
              "peak_rss_kb": 2048}
    f = run.summarize("casimir_scan", worker, [_verdict(), _verdict(1)],
                      [(1.0, UNIT), (3.0, 2 * UNIT), (4.0, 2 * UNIT)])
    assert f["setup_s"] == pytest.approx(1.5)           # median of 1, 1.5, 2
    assert f["req_p50_ms"] == pytest.approx(30.0)       # median of 20 and 40
    assert f["req_tail_ms"] == pytest.approx(40.0)      # too few: the maximum
    # rounds take 0.04, 0.07 and 0.13 s; two requests in the median round
    assert f["req_per_s"] == pytest.approx(2 / 0.07)
    assert (f["requests"], f["samples"]) == (2, 6)
    assert (f["attempted"], f["failed"], f["oracle_misses"]) == (6, 0, 3)
    assert f["ok_frac"] == pytest.approx(0.5)


def test_summarize_counts_crashes_and_changed_repeats_as_failed():
    worker = {"samples": [(0, 0.01, 0), (1, 0.01, None), (0, 0.01, 0)],
              "refs": [UNIT] * 4,
              "repeat_mismatch": [0], "round_s": [0.02],
              "peak_rss_kb": 1024}
    f = run.summarize("coulomb_curves", worker, [_verdict(), _verdict()],
                      [(1.0, UNIT)])
    assert (f["attempted"], f["failed"], f["unexplained_misses"]) == (3, 3, 3)


def test_summarize_counts_failed_validate_criteria():
    worker = {"samples": [(0, 0.5, 1), (0, 0.5, 1)], "refs": [UNIT] * 3,
              "repeat_mismatch": [],
              "round_s": [0.5, 0.5], "peak_rss_kb": 1024}
    f = run.summarize("validate", worker, [_verdict(2, 2, ops=48)],
                      [(1.0, UNIT)])
    assert (f["attempted"], f["failed"]) == (96, 4)
