"""Workload inputs, bodies and correctness checks.

Each body calls the same public library functions as
``scripts/reproduce_classification.py`` and the ``sphertet`` CLI.  A body
returns the library's results; ``*_outputs`` turns them into plain data
after the timed region, and ``check_*`` compares that data with the
expected values through a :class:`Gate`.  The expected values are the
paper's counts (constants below) and the golden fixtures, gathered once
by :func:`expected_values` into a dict that the checks only read.

Why these workloads:

- ``sporadic``: the reproduction without family verification.  Almost all
  of its time is ``geometry.realizability`` on the 790 exact solutions,
  i.e. cyclotomic multiplication and addition at orders up to 420.
- ``families``: identity, volume-form and domain certificates of all 42
  families.  It is dominated by interval ``TrigPoly`` evaluation and
  never calls ``realizability``, so cyclotomic changes should not move it.
- ``queries``: a seeded stream of library calls on family members at
  cyclotomic orders 24..2520, without cache reuse between queries.  It
  shows the cost of anything tuned to order 420 or to a warm cache.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

from perfbench.hostspeed import clock_ns
from sphertet.angles import RationalAngle
from sphertet.certify import (
    coxeter_catalog,
    lifted_volume_fraction,
    nondecomposability_certificate,
    recheck_obstruction,
    volume_fraction,
)
from sphertet.cyclotomic import MAX_ORDER
from sphertet.families import (
    builtin_families,
    classify_quadruple,
    instantiate,
    verify_domain,
    verify_identity,
    verify_volume_form,
)
from sphertet.geometry import PythagoreanQuadruple, edge_lengths, volume
from sphertet.lambert import companion_tetrahedra, search_rational_lambert_cubes
from sphertet.records import (
    certificate_record,
    lambert_records,
    load_lambert_fixture,
    load_sporadic_fixture,
    make_provenance,
    read_records,
    sporadic_comparison,
    sporadic_records,
    triple_record,
    write_records,
)
from sphertet import search as search_module
from sphertet.search import SearchConfig, run_sporadic_search, search_triples

F = Fraction
# the tetrahedron of the paper's non-decomposability example
REFERENCE_ANGLES = (F(5, 18), F(2, 9), F(13, 18), F(11, 18))
REFERENCE_CENTER = F(4, 25)

# the paper's counts
PAPER_COUNTS = {
    "candidates": 111804,
    "exact_solutions": 790,
    "realizable": 208,
    "sporadic": 59,
    "families": 42,
    "cubes": 2,
}


class Gate:
    """Counts correctness checks and keeps a line for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def equal(self, name: str, got, want) -> bool:
        return self.check(name, got == want, f"got {got!r}, expected {want!r}")


def _fracs(angles) -> tuple[Fraction, ...]:
    return tuple(a.frac for a in angles)


def expected_values() -> dict:
    """Paper counts and golden-fixture values the checks compare against."""
    rows = sorted(
        ((r["p"], r["q"], r["r"], r["s"]), (r["lp"], r["lq"], r["lr"], r["ls"]),
         r["vol"])
        for r in load_sporadic_fixture()
    )
    lambert = load_lambert_fixture()
    return {
        "counts": dict(PAPER_COUNTS),
        "sporadic_rows": rows,
        "cubes": sorted(g["angles"] for g in lambert),
        "cube_volumes": sorted(g["vol"] for g in lambert),
        "companions": sorted((g["companion"], g["vol"]) for g in lambert),
        "triples": [(F(1, 4), F(1, 4), F(2, 3))],
        "reference_f3": F(1, 324),
        "lift_dims": list(range(3, 9)),
    }


# -- sporadic -------------------------------------------------------------------


def _timed(fn, requests_ns: list):
    def timed(*args):
        t0 = clock_ns()
        result = fn(*args)
        requests_ns.append((t0, clock_ns() - t0))
        return result
    return timed


def sporadic_body(tmp_dir: Path) -> dict:
    cfg = SearchConfig(workers=1)
    # the search's requests are the exact realizability decisions, one per
    # exact solution; time each where the search calls it
    requests_ns: list[tuple[int, int]] = []
    decide = search_module.realizability
    search_module.realizability = _timed(decide, requests_ns)
    try:
        report = run_sporadic_search(cfg)
    finally:
        search_module.realizability = decide
    comparison = sporadic_comparison(report)
    triples = search_triples(cfg)
    lam = search_rational_lambert_cubes()
    companions = companion_tetrahedra()

    quad = PythagoreanQuadruple.from_fractions(*REFERENCE_ANGLES)
    cert = nondecomposability_certificate(
        quad, center=RationalAngle.from_fraction(REFERENCE_CENTER))
    payload = json.loads(json.dumps(cert.to_payload())) if cert else None
    recheck = recheck_obstruction(payload) if payload else False

    tet_f3 = volume_fraction(volume(quad).value)
    twin = {c.symbol: c for c in coxeter_catalog()}["I2(k)xI2(l)"]
    cox_f3 = volume_fraction(twin.volume(9, 9))
    lifts = [(n, lifted_volume_fraction(tet_f3, n), lifted_volume_fraction(cox_f3, n))
             for n in range(3, 9)]

    prov = make_provenance(cfg, run_id="perfbench")
    records = sporadic_records(report, prov)
    records += lambert_records(lam.cubes, lam.volumes, prov)
    records.append(triple_record(triples, prov))
    if payload:
        records.append(certificate_record(payload, prov))
    path = tmp_dir / "records.jsonl"
    write_records(records, path)
    reread = read_records(path)
    return {
        "report": report, "comparison": comparison, "triples": triples,
        "lambert": lam, "companions": companions, "certificate": cert,
        "recheck": recheck, "tet_f3": tet_f3, "lifts": lifts,
        "records": records, "written": path.read_bytes(), "reread": reread,
        "requests_ns": requests_ns,
    }


def sporadic_outputs(raw: dict) -> dict:
    report = raw["report"]
    return {
        "counts": {
            "candidates": report.candidates_scanned,
            "exact_solutions": report.raw_solution_count,
            "realizable": report.realizable_count,
            "sporadic": report.sporadic_count,
            "cubes": len(raw["lambert"].cubes),
        },
        "comparison_match": raw["comparison"]["match"],
        "sporadic_rows": sorted(
            (_fracs(r.quadruple.angles), _fracs(r.lengths.lengths), r.vol.value)
            for r in report.sporadic),
        "cubes": sorted(_fracs(c.angles) for c in raw["lambert"].cubes),
        "cube_volumes": sorted(v.value for v in raw["lambert"].volumes),
        "no_continuous_family": raw["lambert"].no_continuous_family,
        "companions": sorted((_fracs(c.quadruple.angles), c.vol.value)
                             for c in raw["companions"]),
        "triples": [_fracs(t) for t in raw["triples"].nontrivial],
        "certificate_found": raw["certificate"] is not None,
        "recheck": raw["recheck"],
        "reference_f3": raw["tet_f3"],
        "lifts": raw["lifts"],
        "requests_ns": raw["requests_ns"],
        "records_round_trip": (
            raw["written"] == "".join(r.to_json() + "\n" for r in raw["records"]).encode()
            and [r.to_json() for r in raw["reread"]] == [r.to_json() for r in raw["records"]]
        ),
    }


def check_sporadic(out: dict, exp: dict, gate: Gate) -> None:
    for key in ("candidates", "exact_solutions", "realizable", "sporadic", "cubes"):
        gate.equal(f"count {key}", out["counts"][key], exp["counts"][key])
    gate.check("sporadic_comparison match", out["comparison_match"] is True)
    gate.equal("sporadic rows", out["sporadic_rows"], exp["sporadic_rows"])
    gate.equal("lambert cubes", out["cubes"], exp["cubes"])
    gate.equal("lambert volumes", out["cube_volumes"], exp["cube_volumes"])
    gate.check("no continuous lambert family", out["no_continuous_family"] is True)
    gate.equal("companions", out["companions"], exp["companions"])
    gate.equal("nontrivial triples", out["triples"], exp["triples"])
    gate.check("certificate found", out["certificate_found"] is True)
    gate.check("certificate recheck", out["recheck"] is True)
    gate.equal("reference volume fraction", out["reference_f3"], exp["reference_f3"])
    gate.equal("lift dimensions", [n for n, _, _ in out["lifts"]], exp["lift_dims"])
    gate.check("lifted fractions agree", all(a == b for _, a, b in out["lifts"]),
               repr(out["lifts"]))
    gate.check("records round trip", out["records_round_trip"] is True)


# -- families -------------------------------------------------------------------


def family_order(seed: int, body: int) -> list[int]:
    """The verification order of one body: a permutation of 1..42."""
    order = [f.family_id for f in builtin_families()]
    random.Random(seed * 1_000_003 + body).shuffle(order)
    return order


def families_body(order: list[int]) -> list:
    fams = {f.family_id: f for f in builtin_families()}
    out = []
    for fid in order:
        fam = fams[fid]
        t0 = clock_ns()
        identity = verify_identity(fam)
        volume_form = verify_volume_form(fam)
        cert = verify_domain(fam)
        out.append((fid, identity, volume_form, cert, (t0, clock_ns() - t0)))
    return out


def families_outputs(raw: list) -> dict:
    per_family = {}
    for fid, identity, volume_form, cert, _ in raw:
        witnesses = [w for w in (cert.g3_witness, cert.g4_witness) if w is not None]
        per_family[fid] = {
            "identity": identity,
            "volume_form": volume_form,
            "domain_valid": cert.valid,
            "mode": cert.mode,
            "segments": [w.bisection_segments for w in witnesses],
            "strips": sum(e.method == "taylor-strip"
                          for w in witnesses for e in (w.left, w.right)),
        }
    return {
        "per_family": per_family,
        "requests_ns": [request for *_, request in raw],
    }


def check_families(out: dict, exp: dict, gate: Gate) -> None:
    fams = out["per_family"]
    gate.equal("family count", len(fams), exp["counts"]["families"])
    for fid in sorted(fams):
        row = fams[fid]
        gate.check(f"family {fid} valid",
                   row["identity"] is True and row["volume_form"] is True
                   and row["domain_valid"] is True, repr(row))


def family_signatures(out: dict) -> dict:
    """Per-family certificate shape; must not depend on verification order."""
    return {fid: (row["mode"], tuple(row["segments"]), row["strips"])
            for fid, row in out["per_family"].items()}


# -- queries --------------------------------------------------------------------

# Every seed gets the same schedule of (family, order) slots: slot j asks
# for a member of family j % 42 + 1 whose angles have common cyclotomic
# order QUERY_ORDERS[j % 13] exactly.  The order sets a query's cost (a
# query at order 2520 costs about fifty times one at order 36) and the
# family changes it by up to a third, so fixing both keeps the mix of work
# the same for every seed; the seed draws each slot's parameters.  Every
# order here is reachable by every family.
QUERY_ORDERS = (36, 48, 60, 84, 120, 168, 240, 360, 420, 720, 1008, 1680, 2520)
# 4 slots per order and every family at least once; a run repeats the
# stream in several bodies, so it measures hundreds of queries
QUERY_COUNT = 52
# coarse bands reported with each result
REPORT_BANDS = (("o<=60", 60), ("o61-210", 210), ("o211-420", 420),
                ("o>420", MAX_ORDER))
_MAX_DRAWS = 200_000


class Query(NamedTuple):
    family_id: int
    tau: Fraction
    mu: Fraction
    order: int


def common_order(fam, tau: Fraction, mu: Fraction) -> int:
    """Cyclotomic order holding the cosines of every angle of the member."""
    n = 1
    for form in fam.angle_forms:
        den = 2 * form.value_in_pi_units(tau, mu).denominator
        n = n * den // math.gcd(n, den)
    return n


def _draw_parameters(rng: random.Random, fam, dens: list[int]
                     ) -> tuple[Fraction, Fraction]:
    """Random parameters in the family's range with denominators in dens."""
    m = rng.choice(dens)
    if not fam.two_param:  # 0 < tau < 1/6
        return F(rng.randrange(1, max(2, -(-m // 6))), m), F(0)
    d = rng.choice(dens)
    return F(rng.randrange(1, m), m), F(rng.randrange(1, d), d)


def generate_queries(seed: int) -> tuple[list[Query], dict]:
    """The query stream of one seed, and its statistics.

    For each slot, draws parameters until the member is interior and has
    exactly the slot's order, skipping draws whose order exceeds
    MAX_ORDER.
    """
    rng = random.Random(seed)
    fams = builtin_families()
    queries: list[Query] = []
    draws = skipped_max = 0
    for j in range(QUERY_COUNT):
        fam = fams[j % len(fams)]
        order = QUERY_ORDERS[j % len(QUERY_ORDERS)]
        dens = [d for d in range(2, 2 * order + 1) if 2 * order % d == 0]
        while True:
            draws += 1
            if draws > _MAX_DRAWS:
                raise RuntimeError(f"no member of family {fam.family_id} "
                                   f"at order {order}")
            tau, mu = _draw_parameters(rng, fam, dens)
            if not fam.interior_parameters(tau, mu):
                continue
            got = common_order(fam, tau, mu)
            if got > MAX_ORDER:
                skipped_max += 1
            elif got == order:
                break
        queries.append(Query(fam.family_id, tau, mu, order))
    bands = {name: 0 for name, _ in REPORT_BANDS}
    for q in queries:
        bands[next(name for name, hi in REPORT_BANDS if q.order <= hi)] += 1
    stats = {
        "queries": len(queries),
        "draws": draws,
        "skipped_over_max_order": skipped_max,
        "share_order_gt420": sum(q.order > 420 for q in queries) / len(queries),
        "order_bands": bands,
        "domains": {d: sum(fams[q.family_id - 1].domain == d for q in queries)
                    for d in ("segment", "A", "B")},
    }
    return queries, stats


class QueryResult(NamedTuple):
    query: Query
    volume: Optional[Fraction]
    instance_volume: Optional[Fraction]
    lengths: Optional[tuple]
    member: object
    certificate: bool
    recheck: Optional[bool]
    error: Optional[str]
    request_ns: tuple[int, int]  # start and duration


def _run_query(fam, q: Query):
    inst = instantiate(fam, q.tau, q.mu)
    vol = volume(inst.quadruple)  # checked: raises unless realizable
    lengths = edge_lengths(inst.quadruple)
    member = classify_quadruple(inst.quadruple, extent="domain")
    cert = nondecomposability_certificate(inst.quadruple)
    recheck = None
    if cert is not None:
        recheck = recheck_obstruction(json.loads(json.dumps(cert.to_payload())))
    return inst, vol, lengths, member, cert, recheck


def queries_body(queries: list[Query]) -> list[QueryResult]:
    fams = builtin_families()
    out = []
    for q in queries:
        t0 = clock_ns()
        try:
            inst, vol, lengths, member, cert, recheck = _run_query(
                fams[q.family_id - 1], q)
        except Exception as exc:  # any failure of a query is a failed check
            out.append(QueryResult(q, None, None, None, None, False, None,
                                   repr(exc), (t0, clock_ns() - t0)))
            continue
        out.append(QueryResult(q, vol.value, inst.vol.value,
                               _fracs(lengths.lengths), member, cert is not None,
                               recheck, None, (t0, clock_ns() - t0)))
    return out


def queries_outputs(raw: list[QueryResult]) -> dict:
    fams = builtin_families()
    rows = []
    for r in raw:
        q = r.query
        rows.append({
            "query": (q.family_id, str(q.tau), str(q.mu), q.order),
            "error": r.error,
            "volume_ok": (r.volume is not None
                          and r.volume == fams[q.family_id - 1].vol.evaluate(q.tau, q.mu)
                          and r.volume == r.instance_volume),
            "lengths_ok": r.lengths is not None and len(r.lengths) == 4,
            "classified": r.member is not None,
            "certificate": r.certificate,
            "recheck": r.recheck,
        })
    return {
        "rows": rows,
        "requests_ns": [r.request_ns for r in raw],
        "certificates": sum(r.certificate for r in raw),
    }


def check_queries(out: dict, exp: dict, gate: Gate) -> None:
    for row in out["rows"]:
        name = f"query {row['query']}"
        if not gate.check(f"{name} ran", row["error"] is None, str(row["error"])):
            continue
        gate.check(f"{name} volume", row["volume_ok"])
        gate.check(f"{name} edge lengths", row["lengths_ok"])
        gate.check(f"{name} classified", row["classified"])
        if row["certificate"]:
            gate.check(f"{name} certificate rechecks", row["recheck"] is True)
