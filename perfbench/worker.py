"""The measured process: drives ``vacuumlab.cli.main(argv)`` in-process.

    python3 perfbench/worker.py JOB.json RESULT.json

JOB.json holds ``requests``, ``seconds``, ``trace``, ``ref_reps`` and
``spans_path``.  The worker is a closed loop with one client: it sends each
request only after the previous one returned.  It runs whole rounds over the
request list for ``seconds`` (at least MIN_ROUNDS rounds), then, when
``trace`` is set, more rounds with the tracer installed for ``seconds`` / 2
(one round at least); each per-layer metric is the median over the traced
rounds.  Before every
request, and once after the last, it times ``ref_reps`` blocks of the fixed
reference work (``reference.py``); ``refs[k]`` is the time of one block just
before sample k.  It does no oracle work, so its peak RSS is the program's
own and the reference's small arrays.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import reference

MIN_ROUNDS = 3


def run_request(main, req: dict) -> tuple[float, int | None, str, str]:
    """(latency_s, exit code or None on an exception, output, stderr).
    The output is the captured stdout followed by each written file; the
    files are read back outside the timed region."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(list(req["argv"]))
        except Exception as exc:  # a crash is a failed request, not a stop
            rc = None
            err.write(f"{type(exc).__name__}: {exc}\n")
        latency = time.perf_counter() - start
    text = out.getvalue()
    for path in req["files"]:
        try:
            with open(path) as fh:
                text += f"\n--- {os.path.basename(path)}\n" + fh.read()
            os.remove(path)
        except OSError as exc:
            text += f"\n--- {os.path.basename(path)} missing: {exc}\n"
    return latency, rc, text, err.getvalue()


def main(job_path: str, result_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    import vacuumlab
    import vacuumlab.cli

    reqs, reps = job["requests"], job["ref_reps"]
    outputs: list[str | None] = [None] * len(reqs)
    codes: list[int | None] = [None] * len(reqs)
    stderr: list[str] = [""] * len(reqs)
    samples, refs, rounds, mismatched = [], [], [], set()
    reference.seconds_per_block(1)       # first calls, untimed
    started = time.perf_counter()
    # whole rounds only, so every request weighs the same; at least three,
    # so each request is timed three times, some seconds apart
    while len(rounds) < MIN_ROUNDS \
            or time.perf_counter() - started < job["seconds"]:
        round_start = time.perf_counter()
        for i, req in enumerate(reqs):
            refs.append(reference.seconds_per_block(reps))
            latency, rc, text, err = run_request(vacuumlab.cli.main, req)
            samples.append((i, latency, rc))
            if outputs[i] is None:
                outputs[i], codes[i], stderr[i] = text, rc, err
            elif text != outputs[i] or rc != codes[i]:
                mismatched.add(i)
        rounds.append(time.perf_counter() - round_start)
    refs.append(reference.seconds_per_block(reps))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "module_file": vacuumlab.__file__,
        "versions": _versions(),
        "samples": samples,
        "refs": refs,
        "round_s": rounds,
        "peak_rss_kb": peak_rss_kb,
        "outputs": outputs,
        "codes": codes,
        "stderr": stderr,
        "repeat_mismatch": sorted(mismatched),
    }
    if job["trace"]:
        result["traced"] = _traced_rounds(reqs, outputs, codes, reps,
                                          job["spans_path"], job["seconds"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def _traced_rounds(reqs, outputs, codes, reps: int, spans_path: str,
                   seconds: float) -> dict:
    """Rounds with the tracer installed until they have taken seconds / 2,
    one round at least, so that a workload of slow requests stays within
    the run's time limit and one of fast requests gets enough rounds for
    the tracer's overhead to show.  Each round's spans go to its own file;
    each metric is the median over the rounds.  Latencies and reference
    times are kept as in the untraced rounds, for the overhead."""
    from importlib import import_module
    from statistics import median

    import tracer as trace_mod
    from vacuumlab.errors import VacuumlabError

    tracer = trace_mod.Tracer(VacuumlabError)
    tracer.install({layer: import_module(f"vacuumlab.{layer}")
                    for layer in trace_mod.LAYERS})
    import vacuumlab.cli

    mismatched, round_s, per_round, spans = set(), [], [], 0
    samples, refs = [], []
    while not round_s or sum(round_s) < seconds / 2:
        k = len(round_s)
        tracer.reset()
        start = time.perf_counter()
        for i, req in enumerate(reqs):
            refs.append(reference.seconds_per_block(reps))
            tracer.request_id = i
            latency, rc, text, _ = run_request(vacuumlab.cli.main, req)
            samples.append((i, latency, rc))
            if text != outputs[i] or rc != codes[i]:
                mismatched.add(i)
        round_s.append(time.perf_counter() - start)
        closed = tracer.closed_spans()
        spans += len(closed)
        tracer.write(spans_path.replace(".csv.gz", f"-round{k}.csv.gz"))
        per_round.append(trace_mod.layer_metrics(closed, tracer.quad,
                                                 tracer.errors))
    refs.append(reference.seconds_per_block(reps))
    return {"round_s": round_s, "output_mismatch": sorted(mismatched),
            "samples": samples, "refs": refs, "spans": spans,
            "metrics": {name: median(m[name] for m in per_round)
                        for name in per_round[0]}}


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
