"""One workload body in a fresh interpreter, so every body starts with the
cold caches a ``sphertet`` command starts with.

Run from the root of a checkout:

    python3 perfbench/worker.py --workload NAME --seed N --body K [--trace]
    python3 perfbench/worker.py --setup-only

The worker imports ``sphertet`` from ``src/``, loads the golden fixtures
and the family catalog, and prints ``{"event": "ready", ...}`` with the
time it got there; the parent times set-up from the spawn to that stamp.  Unless ``--setup-only`` is given it then
runs one body, checks its results and prints ``{"event": "done", ...}``
as its last line, with the host speed measured while the body ran
(``hostspeed.py``); a set-up-only worker measures it right after set-up.
With ``--trace`` the body runs under the span tracer and the spans are
written to ``.perfbench/traces/``.
"""

import argparse
import gc
import gzip
import json
import resource
import sys
import tempfile
import time
from pathlib import Path


SETUP_SPEED_SAMPLES = 40


def emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def setup(root: Path) -> dict:
    """Import sphertet from the checkout and load fixtures and catalog."""
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import sphertet
    from sphertet import families, records
    t1 = time.perf_counter()
    records.load_sporadic_fixture()
    records.load_lambert_fixture()
    records.load_family_fixture()
    records.load_coxeter_fixture()
    families.builtin_families()
    t2 = time.perf_counter()
    if root / "src" not in Path(sphertet.__file__).resolve().parents:
        raise SystemExit(f"sphertet imported from {sphertet.__file__}, "
                         f"not from {root / 'src'}")
    return {"import_s": t1 - t0, "fixtures_s": t2 - t1}


def _write_trace(path: Path, spans, meta: dict, table: dict) -> None:
    names = sorted({s.name for s in spans})
    index = {n: i for i, n in enumerate(names)}
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump(dict(meta, table=table, names=names,
                       span_columns=["name", "start_ns", "end_ns", "parent"],
                       spans=[[index[s.name], s.start_ns, s.end_ns, s.parent]
                              for s in spans]), fh)


def run_body(root: Path, workload: str, seed: int, body: int, trace: bool) -> dict:
    sys.path.insert(0, str(root))
    from perfbench import hostspeed, layers, workloads
    from perfbench.tracing import Tracer
    from sphertet import geometry

    extra: dict = {}
    scratch = None
    if workload == "sporadic":
        (root / ".perfbench").mkdir(exist_ok=True)
        scratch = tempfile.TemporaryDirectory(dir=root / ".perfbench")
        body_fn, outputs_fn, check_fn = (workloads.sporadic_body,
                                         workloads.sporadic_outputs,
                                         workloads.check_sporadic)
        arg = Path(scratch.name)
    elif workload == "families":
        body_fn, outputs_fn, check_fn = (workloads.families_body,
                                         workloads.families_outputs,
                                         workloads.check_families)
        arg = extra["order"] = workloads.family_order(seed, body)
    elif workload == "queries":
        body_fn, outputs_fn, check_fn = (workloads.queries_body,
                                         workloads.queries_outputs,
                                         workloads.check_queries)
        arg, extra["query_stats"] = workloads.generate_queries(seed)
    else:
        raise SystemExit(f"unknown workload {workload!r}")

    cached = geometry.realizability  # the lru_cache, before any wrapping
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(layers.TARGETS, layers.MODULE_PREFIXES)
    hits0 = cached.cache_info().hits
    gc.collect()
    with hostspeed.Sampler() as sampler:
        start, clock0 = time.perf_counter_ns(), hostspeed.clock_ns()
        try:
            raw = body_fn(arg)
        finally:
            end, clock1 = time.perf_counter_ns(), hostspeed.clock_ns()
            if tracer:
                tracer.uninstall()
            if scratch:
                scratch.cleanup()
    cache_hits = cached.cache_info().hits - hits0

    gate = workloads.Gate()
    out = outputs_fn(raw)
    check_fn(out, workloads.expected_values(), gate)
    result = {
        "event": "done",
        "wall_s": (clock1 - clock0) / 1e9,
        "speed": sampler.speed(),
        "speed_samples": len(sampler.samples_ns),
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": gate.attempted,
        "failures": gate.failures,
        "latencies_ms": [ns / 1e6 for _, ns in out["requests_ns"]],
        # each at the host speed measured around it
        "nominal_latencies_ms": [ns / 1e6 * sampler.speed_around(t0, t0 + ns)
                                 for t0, ns in out["requests_ns"]],
        **extra,
    }
    if workload == "families":
        result["signatures"] = {str(k): v for k, v in
                                workloads.family_signatures(out).items()}
    if tracer:
        spans = tracer.finished()
        table = layers.span_table(spans)
        result["layers"] = layers.span_metrics(spans, start, end, cache_hits)
        path = root / ".perfbench" / "traces" / f"{workload}-seed{seed}-body{body}.json.gz"
        _write_trace(path, spans, {"workload": workload, "seed": seed, "body": body,
                                   "body_start_ns": start, "body_end_ns": end}, table)
        result["trace_file"] = str(path.relative_to(root))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one perfbench body")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--body", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    ready = setup(root)
    emit(dict(ready, event="ready", monotonic_ns=time.monotonic_ns()))
    if args.setup_only:
        # the host's speed just after set-up, for scaling the set-up time
        sys.path.insert(0, str(root))
        from perfbench import hostspeed
        emit({"event": "speed", "speed": hostspeed.speed(
            [hostspeed.time_kernel() for _ in range(SETUP_SPEED_SAMPLES)])})
    else:
        emit(run_body(root, args.workload, args.seed, args.body, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
