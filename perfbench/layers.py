"""The traced layers of sphertet and the per-layer metrics derived from them.

Spans are taken around public functions (and ``CyclotomicNumber``
methods) at their import sites; nothing inside ``src/`` is changed.  A
metric ending in ``_s`` is the time spent inside calls of that name,
counting recursive calls once, except ``search.scan_s``, which is the
self time of ``run_sporadic_search`` (grid, float prefilter, exact
confirmation and dedup, without realizability or the family filter).
Percentile metrics are over single-call durations; for
``realizability`` only over calls that missed its cache (calls with child
spans), since a hit costs microseconds.  A metric of a layer
that a workload does not reach reads 0.

Which end-to-end metric each layer should move, on which workload:

- search, lambert, records, families.member_of: ``wall_s`` on sporadic;
- geometry.realizability and cyclotomic: ``wall_s`` on sporadic and
  ``query_p90_ms`` on queries (no change predicted on families);
- trigpoly and families.verify_*: ``wall_s`` on families;
- geometry.volume, families.instantiate/classify and certify:
  ``query_p50_ms`` on queries;
- setup: ``setup_s`` on every workload.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from perfbench.tracing import Span, Target, coverage, outermost, percentile, self_times_ns

MODULE_PREFIXES = ("sphertet", "perfbench")


def _order(args, result):
    return getattr(result, "order", None)


def _family_id(args, result):
    return args[0].family_id


def _search_counts(args, r):
    return (r.candidates_scanned, r.prefilter_hits, r.raw_solution_count)


def _positivity(args, w):
    strips = sum(e.method == "taylor-strip" for e in (w.left, w.right))
    return (w.bisection_segments, strips)


TARGETS = (
    Target("sphertet.search.run_sporadic_search", "search.run_sporadic_search",
           _search_counts),
    Target("sphertet.search.search_triples", "search.search_triples"),
    Target("sphertet.lambert.search_rational_lambert_cubes", "lambert.search",
           lambda a, r: r.candidates_scanned),
    Target("sphertet.lambert.companion_tetrahedra", "lambert.companions"),
    Target("sphertet.geometry.realizability", "geometry.realizability",
           lambda a, r: r.realizable),
    Target("sphertet.geometry.volume", "geometry.volume"),
    Target("sphertet.geometry.edge_lengths", "geometry.edge_lengths"),
    Target("sphertet.cyclotomic.CyclotomicNumber.__mul__", "cyclotomic.mul", _order),
    Target("sphertet.cyclotomic.CyclotomicNumber.__add__", "cyclotomic.add", _order),
    Target("sphertet.cyclotomic.sign", "cyclotomic.sign"),
    Target("sphertet.cyclotomic.CyclotomicNumber.float_interval",
           "cyclotomic.float_interval", lambda a, r: r.precision),
    Target("sphertet.trigpoly.TrigPoly.eval_interval", "trigpoly.eval_interval"),
    Target("sphertet.trigpoly.positive_on_open_interval", "trigpoly.positive",
           _positivity),
    Target("sphertet.trigpoly.det", "trigpoly.det"),
    Target("sphertet.families.verify_identity", "families.verify_identity", _family_id),
    Target("sphertet.families.verify_volume_form", "families.verify_volume_form",
           _family_id),
    Target("sphertet.families.verify_domain", "families.verify_domain", _family_id),
    Target("sphertet.families.member_of", "families.member_of"),
    Target("sphertet.families.instantiate", "families.instantiate"),
    Target("sphertet.families.classify_quadruple", "families.classify"),
    Target("sphertet.certify.nondecomposability_certificate", "certify.certificate",
           lambda a, r: r is not None),
    Target("sphertet.certify.recheck_obstruction", "certify.recheck"),
    Target("sphertet.certify.diameter_certificate", "certify.diameter",
           lambda a, r: r.precision),
    Target("sphertet.records.sporadic_comparison", "records.compare"),
    Target("sphertet.records.write_records", "records.write"),
    Target("sphertet.records.read_records", "records.read"),
)

# result-order bands of the cyclotomic latency metrics: name -> (lo, hi]
ORDER_BANDS = {"o30": (0, 30), "o60": (30, 60), "o210": (60, 210),
               "o420": (210, 420), "gt420": (420, 1 << 30)}
MUL_BANDS = ("o30", "o60", "o210", "o420", "gt420")
ADD_BANDS = ("o60", "o420", "gt420")

# names of the metrics computed from spans; run.py adds setup.*, gate.*
# and trace.overhead_s
SPAN_METRICS = (
    "search.scan_s", "search.candidates", "search.exact_solutions",
    "search.confirm_yield", "search.triples_s",
    "lambert.search_s", "lambert.candidates",
    "geometry.realizability_s", "geometry.realizability_calls",
    "geometry.realizability_cache_hits", "geometry.realizability_ms.p50",
    "geometry.realizability_ms.p98", "geometry.realizable_yield",
    "geometry.volume_s",
    "cyclotomic.mul_calls", "cyclotomic.mul_s", "cyclotomic.add_calls",
    "cyclotomic.add_s", "cyclotomic.sign_calls", "cyclotomic.sign_s",
    "cyclotomic.float_interval_calls", "cyclotomic.sign_refined",
    "cyclotomic.sign_bits_max",
    *(f"cyclotomic.mul_us.{b}" for b in MUL_BANDS),
    *(f"cyclotomic.add_us.{b}" for b in ADD_BANDS),
    "trigpoly.eval_interval_calls", "trigpoly.eval_interval_s",
    "trigpoly.eval_interval_us.p50", "trigpoly.positive_s",
    "trigpoly.bisection_segments", "trigpoly.taylor_strips", "trigpoly.det_s",
    "families.verify_domain_s", "families.verify_identity_s",
    "families.verify_volume_form_s", "families.family_ms.p75",
    "families.family2_s", "families.member_of_calls", "families.member_of_s",
    "families.instantiate_s", "families.classify_s",
    "certify.certificate_s", "certify.certificates_found", "certify.recheck_s",
    "certify.diameter_calls", "certify.diameter_bits_max",
    "records.write_s",
    "trace.coverage",
)


def band_of(order: int) -> str:
    for name, (lo, hi) in ORDER_BANDS.items():
        if lo < order <= hi:
            return name
    raise ValueError(f"order {order} outside every band")


def span_metrics(spans: Sequence[Span], start_ns: int, end_ns: int,
                 realizability_cache_hits: int) -> dict[str, float]:
    """Every metric in SPAN_METRICS from the spans of one traced body."""
    inclusive: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    durations: dict[str, list[int]] = defaultdict(list)
    attrs: dict[str, list] = defaultdict(list)
    has_children = {s.parent for s in spans}
    for i, (s, top, own) in enumerate(zip(spans, outermost(spans), self_times_ns(spans))):
        if top:
            inclusive[s.name] += s.duration_ns
        self_ns[s.name] += own
        durations[s.name].append(s.duration_ns)
        attrs[s.name].append(s.attr)
        if s.name == "geometry.realizability" and i in has_children:
            durations["geometry.realizability.miss"].append(s.duration_ns)

    def secs(name):
        return inclusive[name] / 1e9

    def calls(name):
        return len(durations[name])

    def given(name):
        return [a for a in attrs[name] if a is not None]

    def p(name, q, scale, keep=None):
        if keep is None:
            return percentile([d / scale for d in durations[name]], q)
        return percentile([d / scale for d, a in zip(durations[name], attrs[name])
                           if keep(a)], q)

    m: dict[str, float] = {}
    searches = given("search.run_sporadic_search")
    hits = sum(a[1] for a in searches)
    raw = sum(a[2] for a in searches)
    m["search.scan_s"] = self_ns["search.run_sporadic_search"] / 1e9
    m["search.candidates"] = sum(a[0] for a in searches)
    m["search.exact_solutions"] = raw
    m["search.confirm_yield"] = raw / hits if hits else 0.0
    m["search.triples_s"] = secs("search.search_triples")
    m["lambert.search_s"] = secs("lambert.search")
    m["lambert.candidates"] = sum(given("lambert.search"))

    real = "geometry.realizability"
    m["geometry.realizability_s"] = secs(real)
    m["geometry.realizability_calls"] = calls(real)
    m["geometry.realizability_cache_hits"] = realizability_cache_hits
    m["geometry.realizability_ms.p50"] = p(f"{real}.miss", 50, 1e6)
    m["geometry.realizability_ms.p98"] = p(f"{real}.miss", 98, 1e6)
    m["geometry.realizable_yield"] = (sum(given(real)) / calls(real)
                                      if calls(real) else 0.0)
    m["geometry.volume_s"] = secs("geometry.volume")

    for op in ("mul", "add", "sign", "float_interval"):
        m[f"cyclotomic.{op}_calls"] = calls(f"cyclotomic.{op}")
    for op in ("mul", "add", "sign"):
        m[f"cyclotomic.{op}_s"] = secs(f"cyclotomic.{op}")
    bits = given("cyclotomic.float_interval")
    m["cyclotomic.sign_refined"] = sum(b > 64 for b in bits)
    m["cyclotomic.sign_bits_max"] = max(bits, default=0)
    for op, bands in (("mul", MUL_BANDS), ("add", ADD_BANDS)):
        for b in bands:
            m[f"cyclotomic.{op}_us.{b}"] = p(
                f"cyclotomic.{op}", 50, 1e3,
                lambda order, b=b: order is not None and band_of(order) == b)

    ev = "trigpoly.eval_interval"
    m["trigpoly.eval_interval_calls"] = calls(ev)
    m["trigpoly.eval_interval_s"] = secs(ev)
    m["trigpoly.eval_interval_us.p50"] = p(ev, 50, 1e3)
    m["trigpoly.positive_s"] = secs("trigpoly.positive")
    m["trigpoly.bisection_segments"] = sum(a[0] for a in given("trigpoly.positive"))
    m["trigpoly.taylor_strips"] = sum(a[1] for a in given("trigpoly.positive"))
    m["trigpoly.det_s"] = secs("trigpoly.det")

    per_family: dict[int, int] = defaultdict(int)
    for kind in ("domain", "identity", "volume_form"):
        name = f"families.verify_{kind}"
        m[f"{name}_s"] = secs(name)
        for d, fid in zip(durations[name], attrs[name]):
            if fid is not None:
                per_family[fid] += d
    m["families.family_ms.p75"] = percentile(
        [d / 1e6 for d in per_family.values()], 75)
    m["families.family2_s"] = per_family.get(2, 0) / 1e9
    m["families.member_of_calls"] = calls("families.member_of")
    m["families.member_of_s"] = secs("families.member_of")
    m["families.instantiate_s"] = secs("families.instantiate")
    m["families.classify_s"] = secs("families.classify")

    m["certify.certificate_s"] = secs("certify.certificate")
    m["certify.certificates_found"] = sum(given("certify.certificate"))
    m["certify.recheck_s"] = secs("certify.recheck")
    m["certify.diameter_calls"] = calls("certify.diameter")
    m["certify.diameter_bits_max"] = max(given("certify.diameter"), default=0)
    m["records.write_s"] = secs("records.write")
    m["trace.coverage"] = coverage(spans, start_ns, end_ns)
    return m


def span_table(spans: Sequence[Span]) -> dict[str, dict]:
    """Calls, inclusive and self seconds per span name, for the trace file."""
    table: dict[str, dict] = {}
    for s, top, own in zip(spans, outermost(spans), self_times_ns(spans)):
        row = table.setdefault(s.name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own / 1e9
        if top:
            row["inclusive_s"] += s.duration_ns / 1e9
    return table
