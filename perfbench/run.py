"""vacuumlab benchmark: oracle-checked CLI workloads with per-layer traces.

    python3 perfbench/run.py --workload coulomb_curves --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1

Run from the root of a source checkout; the package is imported from
``src/``.  For one workload the run:

1. generates the request list from ``--seed`` (``workloads.py``);
2. times ``import vacuumlab.cli`` in fresh interpreters (``setup_s``);
3. starts one worker process with BLAS/OpenMP pinned to one thread, which
   drives ``vacuumlab.cli.main(argv)`` in a closed loop, one client, in
   whole rounds over the list for ``--seconds`` (three rounds at least)
   untraced, then, with ``--trace 1``, traced rounds for ``--seconds`` / 2
   (``worker.py``, ``tracer.py``);
4. checks every output against the mpmath oracle in this process, outside
   the worker's timed region (``oracle.py``).

Every time the benchmark reports is scaled to the machine's speed at the
moment it was taken: the worker times a fixed block of reference work
(``reference.py``) before every request, and each latency is divided by the
reference's local time and multiplied by ``reference.REFERENCE_MS`` (see
``scaled``).  Latencies are per request, each the median over its rounds
(see ``summarize``).

BENCHMARK.json gates changes on ``coulomb_curves`` and ``validate`` only.
``casimir_scan`` runs here by name and under ``--all`` and shows the
``p_quad`` wrong-answer regime.  It was left out when, before latencies were
scaled by the reference, its timing spread across ten seeds reached
0.20-0.25 of the median; its heavy requests (1-4 s) make rounds long, and a
third gated workload would not fit the time allowed for all runs.
With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  Earlier lines
print each metric with its unit.  The full record, with run metadata and the
per-request oracle verdicts, goes to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")

SETUP_SAMPLES = 7
SETUP_REF_REPS = 8
# reference blocks timed before each request, and how many of the blocks
# timed before and after a sample make its local reference time (window
# blocks each side): a coulomb request takes 3-40 ms, a validate request 1 s
REFERENCE = {"casimir_scan": (4, 2), "coulomb_curves": (1, 10),
             "validate": (8, 1)}
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 150
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    """The benchmark cannot produce a result (no package, worker died)."""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", **PINNED)


def measure_setup() -> list[tuple[float, float]]:
    """(seconds, reference block seconds) per fresh interpreter: the time
    from spawning it until ``import vacuumlab.cli`` returns in it, and the
    time of one reference block that the child runs right after.  The child
    reads the same monotonic clock; one unrecorded import first writes the
    bytecode caches."""
    code = ("import vacuumlab.cli, time; t = time.perf_counter(); "
            "import reference; reference.seconds_per_block(1); "
            f"print(repr(t), repr(reference.seconds_per_block({SETUP_REF_REPS})))")
    env = dict(child_env(), PYTHONPATH=os.pathsep.join((SRC, HERE)))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import vacuumlab.cli failed:\n{proc.stderr}")
        if i:
            end, ref = map(float, proc.stdout.split())
            samples.append((end - start, ref))
    return samples


def scaled(latency: float, ref: float) -> float:
    """latency as it would read on a machine on which one reference block
    takes reference.REFERENCE_MS."""
    import reference

    return latency * reference.REFERENCE_MS * 1e-3 / ref


def scaled_latencies(samples: list, refs: list[float],
                     window: int) -> list[float]:
    """Each sample's latency scaled by its local reference time: the median
    of the window blocks timed before it (refs[k] and earlier) and the
    window blocks timed after it."""
    out = []
    for k, sample in enumerate(samples):
        local = statistics.median(refs[max(0, k - window + 1):k + window + 1])
        out.append(scaled(sample[1], local))
    return out


def run_worker(requests: list, seconds: float, trace: bool, ref_reps: int,
               tag: str) -> dict:
    job = os.path.join(WORKDIR, f"{tag}-job.json")
    result = os.path.join(WORKDIR, f"{tag}-worker.json")
    with open(job, "w") as fh:
        json.dump({"requests": requests, "seconds": seconds, "trace": trace,
                   "ref_reps": ref_reps,
                   "spans_path": os.path.join(WORKDIR, f"{tag}-spans.csv.gz")},
                  fh)
    if os.path.exists(result):
        os.remove(result)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                           job, result], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result):
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    with open(result) as fh:
        out = json.load(fh)
    os.remove(job)
    os.remove(result)
    expected = os.path.join(SRC, "vacuumlab")
    if os.path.dirname(os.path.abspath(out["module_file"])) != expected:
        raise BenchError(f"worker imported {out['module_file']}, "
                         f"not the package under {expected}")
    return out


def check_outputs(workload: str, requests: list, outputs: list) -> list:
    import oracle

    verdicts = []
    for req, text in zip(requests, outputs):
        if workload == "casimir_scan":
            v = oracle.check_casimir(req["params"],
                                     oracle.casimir_reference(req["params"]),
                                     text)
        elif workload == "coulomb_curves":
            curve, _, summary = text.partition("\n--- ")
            v = oracle.check_coulomb(req["params"], req["check_rows"], curve,
                                     summary.partition("\n")[2])
        else:
            v = oracle.check_validate(text.partition("\n--- ")[2]
                                      .partition("\n")[2])
        verdicts.append(v)
    return verdicts


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that still has
    TAIL_BEYOND samples above it (nearest rank); the maximum when there
    are too few samples."""
    s = sorted(values)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    rank = len(s) - TAIL_BEYOND
    return s[rank - 1], 100.0 * rank / len(s)


def summarize(workload: str, worker: dict, verdicts: list,
              setup: list[tuple[float, float]]) -> dict:
    """Figures of the untraced run.

    ``req_p50_ms`` and ``req_tail_ms`` describe the request mix: each
    request's latency is its median over the rounds of its scaled
    latencies.  A shared 2-vCPU virtual machine has phases, from a fraction
    of a second to many minutes long, in which every call runs up to 1.7
    times slower; scaling by the reference removes most of them and the
    median the rest.  A median, unlike a minimum, does not move with the
    number of rounds, so a faster program is not credited twice.
    ``req_per_s`` is the requests of a round over the median round's scaled
    time, so it also sees calls that turn slow in most rounds.

    Each sample carries the verdict of its request's checked output: a
    repeat that printed anything else, an exception or an unexpected exit
    code makes it a failed operation."""
    mismatched = set(worker["repeat_mismatch"])
    window = REFERENCE[workload][1]
    by_request: dict[int, list[float]] = {}
    raw: dict[int, list[float]] = {}
    ops = failed = misses = unexplained = 0
    latencies = scaled_latencies(worker["samples"], worker["refs"], window)
    for (i, raw_latency, rc), latency in zip(worker["samples"], latencies):
        by_request.setdefault(i, []).append(latency)
        raw.setdefault(i, []).append(raw_latency)
        v = verdicts[i]
        expected_rc = 1 if workload == "validate" and v.misses else 0
        ops += v.ops
        if rc != expected_rc or v.malformed or i in mismatched:
            failed += v.ops
            misses += v.ops
            unexplained += v.ops
        else:
            # a failed validation criterion is a failed operation; the other
            # workloads report oracle misses as fail_frac, not as failures
            failed += v.misses if workload == "validate" else 0
            misses += v.misses
            unexplained += v.unexplained
    latency = [statistics.median(v) for v in by_request.values()]
    errs = [v.err for v in verdicts if v.err is not None]
    tail_s, tail_pct = tail(latency)
    return {
        "attempted": ops,
        "failed": failed,
        "oracle_misses": misses,
        "unexplained_misses": unexplained,
        "fail_frac": misses / ops,
        "ok_frac": 1.0 - misses / ops,
        "err_max_rel": max(errs) if errs else None,
        "requests": len(latency),
        "samples": len(worker["samples"]),
        "rounds": len(worker["round_s"]),
        "setup_s": statistics.median(scaled(t, ref) for t, ref in setup),
        "setup_samples_s": setup,
        "req_p50_ms": statistics.median(latency) * 1e3,
        "req_tail_ms": tail_s * 1e3,
        "req_tail_percentile": tail_pct,
        "req_per_s": len(by_request) / statistics.median(
            round_times(latencies, len(by_request))),
        "raw_req_p50_ms": statistics.median(
            statistics.median(v) for v in raw.values()) * 1e3,
        "raw_req_per_s": len(latencies) / sum(s[1] for s in worker["samples"]),
        "ref_block_ms": statistics.median(worker["refs"]) * 1e3,
        "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
    }


def round_times(latencies: list[float], n_requests: int) -> list[float]:
    """Sum of the latencies of each round (n_requests samples in order)."""
    return [sum(latencies[k:k + n_requests])
            for k in range(0, len(latencies), n_requests)]


def trace_overhead(workload: str, worker: dict, n_requests: int) -> float:
    """Median scaled time of a traced round over the median scaled time of
    an untraced round, minus one."""
    window = REFERENCE[workload][1]

    def median_round(run: dict) -> float:
        lat = scaled_latencies(run["samples"], run["refs"], window)
        return statistics.median(round_times(lat, n_requests))

    return median_round(worker["traced"]) / median_round(worker) - 1.0


def metadata(args, worker: dict) -> dict:
    import mpmath

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu,
        "thread_pinning": PINNED, "client": "closed loop, 1 client, 1 process",
        "commit": _commit(), "mpmath": mpmath.__version__,
        **worker["versions"],
    }


def _commit() -> str | None:
    """HEAD of the checkout's git metadata, when the checkout has any."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(args, spec: dict) -> dict:
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    requests = workloads.requests(args.workload, args.seed, WORKDIR)
    setup = measure_setup()
    worker = run_worker(requests, args.seconds, bool(args.trace),
                        REFERENCE[args.workload][0], tag)
    verdicts = check_outputs(args.workload, requests, worker["outputs"])
    figures = summarize(args.workload, worker, verdicts, setup)
    traced = worker.get("traced")
    correct = figures["unexplained_misses"] == 0 and (
        traced is None or not traced["output_mismatch"])
    if args.trace:
        names, values = spec["per_layer"], dict(traced["metrics"])
        values["trace.overhead_frac"] = trace_overhead(args.workload, worker,
                                                       len(requests))
    else:
        names, values = spec["end_to_end"], figures
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in names}
    record = {
        "metadata": metadata(args, worker),
        "correct": correct,
        "figures": figures,
        "metrics": metrics,
        "traced": traced and {k: v for k, v in traced.items() if k != "metrics"},
        "layer_metrics": traced and traced["metrics"],
        "notes": [(i, n) for i, v in enumerate(verdicts) for n in v.notes],
        "stderr": {i: e for i, e in enumerate(worker["stderr"]) if e},
        "requests": [r["argv"] for r in requests],
    }
    with open(os.path.join(WORKDIR, f"{tag}-result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict) -> dict:
    f = record["figures"]
    print(f"# {record['metadata']['workload']} seed={record['metadata']['seed']}"
          f" requests={f['requests']} rounds={f['rounds']}"
          f" samples={f['samples']} tail=p{f['req_tail_percentile']:.1f}"
          f" fail_frac={f['fail_frac']:.4g}"
          f" ({f['oracle_misses']}/{f['attempted']} operations)"
          f" err_max_rel={f['err_max_rel']}")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": record["correct"], "attempted": f["attempted"],
            "failed": f["failed"], "metrics": record["metrics"]}


def main(argv=None) -> int:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--all", action="store_true",
                   help="run every workload, untraced then traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.all and args.workload is None:
        p.error("give --workload or --all")
    try:
        if not os.path.isfile(os.path.join(SRC, "vacuumlab", "__init__.py")):
            raise BenchError(f"no vacuumlab package under {SRC}")
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        os.makedirs(WORKDIR, exist_ok=True)
        if not args.all:
            result = report(run_workload(args, spec))
        else:
            for name in sorted(workloads.WORKLOADS):
                for trace in (0, 1):
                    args.workload, args.trace = name, trace
                    result = report(run_workload(args, spec))
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
