#!/usr/bin/env python3
"""sphertet benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload sporadic|families|queries \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``sphertet`` from ``src/``.
Each workload body runs in a fresh single-threaded interpreter
(``perfbench/worker.py``), because every ``sphertet`` command pays cold
caches.  Bodies are repeated until the next one would end after
``--seconds`` (at least two run).  Set-up is timed in fresh interpreters
between the bodies.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (correctness checks) and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run alternates untraced and traced
bodies; its per-layer numbers come from the traced ones and its
``trace.overhead_s`` is the difference of the two medians.  The full
record (environment, samples, query mix, failures) is written to
``.perfbench/results/``; compare two records with
``perfbench/compare.py``.

End-to-end metrics (timings are medians over the run's samples).  Every
timing is given on a fixed nominal host: it is multiplied by the host's
speed, measured with a reference kernel on the same CPU while it ran
(``perfbench/hostspeed.py``); the record keeps the raw times and speeds.

- ``wall_s``: one verified body with cold caches, set-up excluded;
- ``setup_s``: fresh interpreter until sphertet is imported and the
  fixtures and family catalog are loaded;
- ``peak_rss_mib``: the largest peak resident memory of a body process;
- ``query_p50_ms``, ``query_p90_ms``: over the requests of all untraced
  bodies of the run, the latency of one request, the unit a
  user could ask for alone: one query on ``queries``, one family's three
  verifications on ``families`` and, on ``sporadic``, the realizability
  decision of one exact solution inside the search.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd().resolve()
WORKER = Path(__file__).resolve().parent / "worker.py"
sys.path.insert(0, str(WORKER.parent.parent))
from perfbench import hostspeed  # noqa: E402
from perfbench.tracing import percentile  # noqa: E402

MIN_BODIES = 2
SETUPS_PER_BODY = 2  # set-up-only interpreters started before each body
RUN_LIMIT_S = 170  # the run must end within 180 s
# single-threaded numerical libraries
WORKER_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")


# per-layer metrics that run.py adds to those computed from spans
RUN_LAYER_METRICS = ("setup.import_s", "setup.fixtures_s", "trace.overhead_s",
                     "gate.check_fail_frac")


class BenchError(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> tuple[float, dict, dict]:
    """Run a worker to its end; return (set-up seconds, ready record, last record).

    Set-up runs from the spawn to the worker's ready time stamp; both use
    the system-wide monotonic clock.
    """
    spawned = time.monotonic_ns()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            env=WORKER_ENV, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} exceeded the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    records = [json.loads(ln) for ln in out.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or not records or records[0].get("event") != "ready":
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    ready = records[0]
    return (ready["monotonic_ns"] - spawned) / 1e9, ready, records[-1]


def environment(seed: int) -> dict:
    import mpmath
    import mpmath.libmp
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            tree.update(str(path.relative_to(ROOT)).encode() + b"\0")
            tree.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + seconds
    hard_deadline = started + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    run_worker(["--setup-only"], hard_deadline)  # warm-up: bytecode caches
    setups, imports, fixtures = [], [], []
    bodies = {False: [], True: []}
    body_times = []

    def start(args):
        setup_s, ready, last = run_worker(args, hard_deadline)
        imports.append(ready["import_s"])
        fixtures.append(ready["fixtures_s"])
        return setup_s, last

    while True:
        for _ in range(SETUPS_PER_BODY):
            setup_s, speed = start(["--setup-only"])
            setups.append((setup_s, speed["speed"]))
        index = len(body_times)
        traced = trace and index % 2 == 1
        t0 = time.monotonic()
        _, done = start([*common, "--body", str(index)] + (["--trace"] if traced else []))
        body_times.append(time.monotonic() - t0)
        if done.get("event") != "done":
            raise BenchError("worker ended without a result")
        bodies[traced].append(done)
        now = time.monotonic()
        # the next body with its set-up interpreters
        step = (statistics.median(body_times)
                + SETUPS_PER_BODY * statistics.median(t for t, _ in setups))
        if now + step > hard_deadline:
            break
        if len(body_times) >= MIN_BODIES and now + step > deadline:
            break
    return summarize(workload, seed, seconds, trace, bodies, setups, imports,
                     fixtures, time.monotonic() - started)


def summarize(workload, seed, seconds, trace, bodies, setups, imports, fixtures,
              elapsed) -> dict:
    plain = bodies[False]
    every = plain + bodies[True]
    attempted = sum(b["attempted"] for b in every)
    failures = [f for b in every for f in b["failures"]]
    if workload == "families":
        # certificate shapes must not depend on the verification order
        attempted += 1
        if len({json.dumps(b["signatures"], sort_keys=True) for b in every}) != 1:
            failures.append("family certificate counts differ between orders")
    # timings on the nominal host: each scaled by the host speed measured
    # with it (see hostspeed.py)
    requests = [ms for b in plain for ms in b["nominal_latencies_ms"]]
    raw_requests = [ms for b in plain for ms in b["latencies_ms"]]
    end_to_end = {
        "wall_s": statistics.median(b["wall_s"] * b["speed"] for b in plain),
        "setup_s": statistics.median(t * speed for t, speed in setups),
        "peak_rss_mib": max(b["rss_mib"] for b in plain),
        "query_p50_ms": percentile(requests, 50),
        "query_p90_ms": percentile(requests, 90),
    }
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "elapsed_s": elapsed,
        "environment": environment(seed),
        "end_to_end": end_to_end,
        "samples": {"bodies": len(plain), "traced_bodies": len(bodies[True]),
                    "setups": len(setups), "requests": len(requests)},
        "host_nominal_kernel_ns": hostspeed.NOMINAL_NS,
        "raw_end_to_end": {
            "wall_s": statistics.median(b["wall_s"] for b in plain),
            "setup_s": statistics.median(t for t, _ in setups),
            "query_p50_ms": percentile(raw_requests, 50),
            "query_p90_ms": percentile(raw_requests, 90),
        },
        "body_wall_s": [b["wall_s"] for b in plain],
        "body_speed": [b["speed"] for b in plain],
        "body_speed_samples": [b["speed_samples"] for b in plain],
        "body_rss_mib": [b["rss_mib"] for b in plain],
        "setup_s": [t for t, _ in setups],
        "setup_speed": [speed for _, speed in setups],
        "checks": {"attempted": attempted, "failed": len(failures),
                   "failures": failures[:50]},
    }
    if workload == "queries":
        record["query_stats"] = plain[0]["query_stats"]
    if trace:
        traced = bodies[True]
        if not traced:
            raise BenchError("no traced body fitted in the run")
        per_body = [b["layers"] for b in traced]
        layer = {k: statistics.median(m[k] for m in per_body) for k in per_body[0]}
        layer["setup.import_s"] = statistics.median(imports)
        layer["setup.fixtures_s"] = statistics.median(fixtures)
        layer["trace.overhead_s"] = (
            statistics.median(b["wall_s"] * b["speed"] for b in traced)
            - end_to_end["wall_s"])
        layer["gate.check_fail_frac"] = len(failures) / attempted
        record["per_layer"] = layer
        record["trace_files"] = [b["trace_file"] for b in traced]
    return record


def final_line(record: dict, spec: dict) -> dict:
    """The result line: the spec's end-to-end or per-layer metrics."""
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    checks = record["checks"]
    return {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    spec = json.loads((WORKER.parent.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sphertet" / "__init__.py").is_file():
        print(f"perfbench: no sphertet sources under {ROOT / 'src'}; "
              "run from the root of a sphertet checkout", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
        line = final_line(record, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    for failure in record["checks"]["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print("perfbench environment:", json.dumps(record["environment"], sort_keys=True))
    print(f"perfbench: {args.workload} seed {args.seed}: "
          f"{record['samples']['bodies']} bodies, record in {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
