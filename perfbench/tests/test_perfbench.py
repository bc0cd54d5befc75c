"""Tests of the benchmark itself: inputs, span arithmetic, the gate.

They run in seconds and assert no timing value.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest  # noqa: E402

from perfbench import compare, hostspeed, layers, run, workloads  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Span,
    Target,
    Tracer,
    coverage,
    outermost,
    percentile,
    self_times_ns,
)
from sphertet import geometry  # noqa: E402
from sphertet.cyclotomic import MAX_ORDER, CyclotomicNumber  # noqa: E402
from sphertet.families import builtin_families  # noqa: E402

F = Fraction


# -- inputs -----------------------------------------------------------------------


def test_query_stream_is_deterministic_per_seed():
    a, stats_a = workloads.generate_queries(7)
    b, stats_b = workloads.generate_queries(7)
    c, _ = workloads.generate_queries(8)
    assert a == b and stats_a == stats_b
    assert a != c


def test_query_stream_follows_the_fixed_schedule():
    fams = builtin_families()
    for seed in (1, 2):
        queries, stats = workloads.generate_queries(seed)
        assert len(queries) == workloads.QUERY_COUNT == stats["queries"]
        assert {q.family_id for q in queries} == set(range(1, 43))
        for j, q in enumerate(queries):
            fam = fams[q.family_id - 1]
            assert q.family_id == j % 42 + 1
            assert q.order == workloads.QUERY_ORDERS[j % 13] <= MAX_ORDER
            assert fam.interior_parameters(q.tau, q.mu)
            assert q.order == workloads.common_order(fam, q.tau, q.mu)
        assert all(stats["domains"][d] > 0 for d in ("segment", "A", "B"))
        assert sum(stats["order_bands"].values()) == len(queries)
        assert stats["share_order_gt420"] == sum(q.order > 420 for q in queries) / len(queries)


def test_family_order_is_a_seeded_permutation():
    order = workloads.family_order(3, 0)
    assert sorted(order) == list(range(1, 43))
    assert order == workloads.family_order(3, 0)
    assert order != workloads.family_order(3, 1)


# -- span arithmetic ----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("a", 0, 100, -1),
        Span("b", 10, 40, 0),
        Span("c", 20, 30, 1),
        Span("d", 50, 70, 0),
        Span("e", 60, 110, 0),  # overlaps d and outlives its parent
    ]
    assert self_times_ns(spans) == [100 - (30 + 50), 30 - 10, 10, 20, 50]


def test_recursive_spans_are_counted_once():
    spans = [Span("det", 0, 50, -1), Span("det", 10, 20, 0),
             Span("mul", 12, 14, 1), Span("det", 60, 70, -1)]
    assert outermost(spans) == [True, False, True, True]


def test_coverage_is_the_share_under_top_level_spans():
    spans = [Span("a", 0, 100, -1), Span("b", 20, 30, 0), Span("c", 150, 250, -1)]
    assert coverage(spans, 0, 200) == pytest.approx(150 / 200)
    assert coverage([], 0, 10) == 0.0


def test_percentile_edge_cases():
    assert percentile([], 50) == 0.0
    assert percentile([4.0], 90) == 4.0
    assert percentile([1, 2, 3, 4, 5], 50) == 3


def test_host_speed_is_the_trimmed_mean_of_kernel_speeds():
    nominal = hostspeed.NOMINAL_NS
    assert hostspeed.speed([]) == 1.0
    assert hostspeed.speed([nominal] * 5) == pytest.approx(1.0)
    # two episodes, one twice as slow: the mean speed, not the mean time
    assert hostspeed.speed([nominal] * 10 + [2 * nominal] * 10) == pytest.approx(0.75)
    # one sample hit by an interrupt among ten is dropped
    assert hostspeed.speed([nominal] * 9 + [100 * nominal]) == pytest.approx(1.0)


def test_sampler_restores_the_signal_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(period_s=10.0) as sampler:
        assert signal.getsignal(signal.SIGALRM) == sampler._on_timer
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_wraps_at_import_sites_and_restores():
    cached = geometry.realizability
    add = CyclotomicNumber.__add__
    tracer = Tracer()
    tracer.install([Target("sphertet.geometry.realizability", "real",
                           lambda a, r: r.realizable),
                    Target("sphertet.cyclotomic.CyclotomicNumber.__add__", "add")],
                   layers.MODULE_PREFIXES)
    try:
        assert CyclotomicNumber.__radd__ is CyclotomicNumber.__add__ is not add
        quad = geometry.PythagoreanQuadruple.from_fractions(
            F(2, 5), F(2, 5), F(3, 5), F(1, 5))
        geometry.is_realizable(quad)  # reaches realizability by module lookup
        geometry.is_realizable(quad)
    finally:
        tracer.uninstall()
    assert geometry.realizability is cached and CyclotomicNumber.__add__ is add
    assert CyclotomicNumber.__radd__ is add
    spans = tracer.finished()
    reals = [i for i, s in enumerate(spans) if s.name == "real"]
    assert len(reals) == 2 and spans[reals[0]].attr == spans[reals[1]].attr
    adds = [s for s in spans if s.name == "add"]
    assert adds and all(s.parent == reals[0] for s in adds)  # the second call hit


def test_span_metrics_cover_every_named_metric():
    spans = [
        Span("families.verify_domain", 0, 1_000_000, -1, 2),
        Span("trigpoly.positive", 100, 900_000, 0, (5, 1)),
        Span("trigpoly.eval_interval", 200, 300, 1),
        Span("cyclotomic.mul", 400, 500, 1, 420),
        Span("families.verify_identity", 1_000_000, 1_500_000, -1, 2),
    ]
    m = layers.span_metrics(spans, 0, 2_000_000, 0)
    assert set(m) == set(layers.SPAN_METRICS)
    assert m["trigpoly.bisection_segments"] == 5 and m["trigpoly.taylor_strips"] == 1
    assert m["families.family2_s"] == pytest.approx(1.5e-3)
    assert m["cyclotomic.mul_us.o420"] == pytest.approx(0.1)
    assert m["cyclotomic.mul_us.gt420"] == 0.0
    assert m["trace.coverage"] == pytest.approx(0.75)


# -- the correctness gate -----------------------------------------------------------


def _perfect_sporadic(exp: dict) -> dict:
    """Outputs that match the expected values exactly."""
    counts = exp["counts"]
    return {
        "counts": {k: counts[k] for k in
                   ("candidates", "exact_solutions", "realizable", "sporadic", "cubes")},
        "comparison_match": True,
        "sporadic_rows": copy.deepcopy(exp["sporadic_rows"]),
        "cubes": list(exp["cubes"]),
        "cube_volumes": list(exp["cube_volumes"]),
        "no_continuous_family": True,
        "companions": list(exp["companions"]),
        "triples": list(exp["triples"]),
        "certificate_found": True,
        "recheck": True,
        "reference_f3": exp["reference_f3"],
        "lifts": [(n, F(1, 324) / 2 ** (n - 3), F(1, 324) / 2 ** (n - 3))
                  for n in exp["lift_dims"]],
        "records_round_trip": True,
    }


@pytest.fixture(scope="module")
def expected():
    return workloads.expected_values()


def test_gate_passes_matching_outputs(expected):
    gate = workloads.Gate()
    workloads.check_sporadic(_perfect_sporadic(expected), expected, gate)
    assert gate.attempted > 10 and gate.failed == 0


@pytest.mark.parametrize("corrupt, failing", [
    (lambda e: e["counts"].__setitem__("sporadic", 58), "count sporadic"),
    (lambda e: e["sporadic_rows"].__setitem__(
        0, e["sporadic_rows"][0][:2] + (e["sporadic_rows"][0][2] + 1,)),
     "sporadic rows"),
    (lambda e: e["cube_volumes"].__setitem__(0, F(1, 2)), "lambert volumes"),
    (lambda e: e.__setitem__("triples", []), "nontrivial triples"),
])
def test_gate_trips_on_a_corrupted_expected_value(expected, corrupt, failing):
    outputs = _perfect_sporadic(expected)
    corrupted = copy.deepcopy(expected)  # in memory; fixtures stay untouched
    corrupt(corrupted)
    gate = workloads.Gate()
    workloads.check_sporadic(outputs, corrupted, gate)
    assert gate.failed == 1 and gate.failures[0].startswith(failing)
    assert expected == workloads.expected_values()


def test_gate_trips_on_bad_family_and_query_results(expected):
    good = {"identity": True, "volume_form": True, "domain_valid": True}
    fams = {fid: dict(good) for fid in range(1, 43)}
    fams[7]["domain_valid"] = False
    gate = workloads.Gate()
    workloads.check_families({"per_family": fams}, expected, gate)
    assert gate.failed == 1 and "family 7" in gate.failures[0]

    ok_row = {"query": (1, "1/12", "0", 24), "error": None, "volume_ok": True,
              "lengths_ok": True, "classified": True, "certificate": True,
              "recheck": True}
    rows = [ok_row, dict(ok_row, recheck=False),
            dict(ok_row, error="CyclotomicOrderError('order 5040')")]
    gate = workloads.Gate()
    workloads.check_queries({"rows": rows}, expected, gate)
    assert gate.failed == 2


def test_result_line_needs_every_metric_of_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"trace": False, "end_to_end": {"wall_s": 1.0},
              "checks": {"attempted": 3, "failed": 0}}
    with pytest.raises(run.BenchError):
        run.final_line(record, spec)
    record["end_to_end"] = {m["name"]: 1.0 for m in spec["end_to_end"]}
    line = run.final_line(record, spec)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True


# -- the benchmark description ---------------------------------------------------------


def test_benchmark_json_names_the_measured_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == set(layers.SPAN_METRICS) | set(run.RUN_LAYER_METRICS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in spec["end_to_end"])} in spec["end_to_end"]
    assert [w["name"] for w in spec["workloads"]] == ["sporadic", "families", "queries"]


def test_environment_mismatch_is_flagged():
    env = {"mpmath_backend": "python", "python": "3.11.7", "numpy": "2.4.6",
           "mpmath": "1.3.0", "nproc": 2, "machine": "x86_64",
           "implementation": "CPython", "seed": 1}
    assert compare.environment_mismatches(env, dict(env, seed=2)) == []
    assert compare.environment_mismatches(
        env, dict(env, mpmath_backend="gmpy")) == ["mpmath_backend"]
    base = {"workload": "queries", "environment": env, "end_to_end": {"wall_s": 2.0}}
    new = dict(base, environment=dict(env, mpmath_backend="gmpy"))
    lines, comparable = compare.compare(base, new)
    assert not comparable and any("FLAG" in ln for ln in lines)
    assert compare.compare(base, base)[1]
