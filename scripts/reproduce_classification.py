#!/usr/bin/env python3
"""Run the whole classification end to end and write every artifact.

Stages, in order:

  1. grid search for sporadic solutions of cos a + cos b + cos c + cos d = 0
     (exact cosine-sum join, realizability, family filtering), compared
     row by row against the golden table;
  2. verification of all 42 continuous families (defining identity,
     closed-form volume, certified parameter domain);
  3. search for Lambert cubes with rational volume plus their companion
     tetrahedra, compared against the golden table;
  4. the unique nontrivial three-cosine solution;
  5. a non-decomposability certificate for the reference tetrahedron,
     serialized and independently rechecked;
  6. suspension lifts: the tetrahedron against its Coxeter-cell twin.

Every equality above is decided in exact arithmetic; no float decides
which grid points are solutions.  Outputs land in --out as one
canonical JSON record per line plus a CSV mirror of the sporadic table.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sphertet.angles import RationalAngle, angle  # noqa: E402
from sphertet.certify import (  # noqa: E402
    coxeter_catalog,
    lifted_volume_fraction,
    nondecomposability_certificate,
    recheck_obstruction,
    volume_fraction,
)
from sphertet.families import (  # noqa: E402
    builtin_families,
    verify_domain,
    verify_identity,
    verify_volume_form,
)
from sphertet.geometry import PythagoreanQuadruple, volume  # noqa: E402
from sphertet.lambert import (  # noqa: E402
    companion_tetrahedra,
    search_rational_lambert_cubes,
)
from sphertet.records import (  # noqa: E402
    certificate_record,
    lambert_comparison,
    lambert_records,
    make_provenance,
    sporadic_comparison,
    sporadic_csv,
    sporadic_records,
    triple_record,
    write_records,
)
from sphertet.search import SearchConfig, run_sporadic_search, search_triples  # noqa: E402

REFERENCE_QUAD = PythagoreanQuadruple.of(
    angle(5, 18), angle(2, 9), angle(13, 18), angle(11, 18)
)


def stage(title: str):
    print(f"\n== {title} " + "=" * max(0, 66 - len(title)))


def run(out_dir: Path) -> int:
    t_start = time.monotonic()
    cfg = SearchConfig()
    prov = make_provenance(cfg)
    failures = 0

    stage("sporadic quadruples")
    report = run_sporadic_search(cfg)
    print(f"candidates {report.candidates_scanned}, "
          f"zero-sum tuples {report.prefilter_hits}, "
          f"exact solutions {report.raw_solution_count}, "
          f"realizable {report.realizable_count}, "
          f"family members {report.family_member_count}, "
          f"sporadic {report.sporadic_count} "
          f"({report.elapsed_seconds:.1f}s)")
    for note in report.notes:
        print(f"note: {note}")
    cmp = sporadic_comparison(report)
    print("golden table match:", "exact" if cmp["match"] else
          f"MISMATCH missing={len(cmp['missing'])} extra={len(cmp['extra'])}")
    failures += 0 if cmp["match"] else 1
    write_records(sporadic_records(report, prov), out_dir / "sporadic.jsonl")
    (out_dir / "sporadic.csv").write_text(
        sporadic_csv(sporadic_records(report, prov)))

    stage("continuous families")
    families = builtin_families()
    bad = []
    for fam in families:
        cert = verify_domain(fam)
        if not (verify_identity(fam) and verify_volume_form(fam) and cert.valid):
            bad.append(fam.family_id)
    print(f"{len(families) - len(bad)}/{len(families)} families verified"
          + (f", failures: {bad}" if bad else ""))
    failures += len(bad)

    stage("Lambert cubes")
    lam = search_rational_lambert_cubes(cfg)
    for cube, vol in zip(lam.cubes, lam.volumes):
        a, b, c = (x.frac for x in cube.angles)
        print(f"cube ({a}, {b}, {c})*pi  volume {vol.value} * pi^2")
    print(f"scanned {lam.candidates_scanned} triples; "
          f"continuous family excluded: {lam.no_continuous_family}")
    companions = companion_tetrahedra()
    for comp in companions:
        quad = ", ".join(str(x.frac) for x in comp.quadruple.angles)
        print(f"companion ({quad})*pi  volume {comp.vol.value} * pi^2 "
              f"via {comp.volume_route}")
    lam_cmp = lambert_comparison(lam, companions)
    print("golden table match:", "exact" if lam_cmp["match"] else
          "MISMATCH " + ", ".join(k for k in ("cubes", "volumes", "companions")
                                  if not lam_cmp[k]))
    failures += 0 if lam_cmp["match"] and lam.no_continuous_family else 1
    write_records(lambert_records(lam.cubes, lam.volumes, prov),
                  out_dir / "lambert.jsonl")

    stage("three-cosine solutions")
    triples = search_triples(cfg)
    for t in triples.nontrivial:
        print("nontrivial solution:",
              "(" + ", ".join(str(x.frac) for x in t) + ")*pi")
    print(f"trivial right-angle hits: {triples.trivial_hits}")
    failures += 0 if len(triples.nontrivial) == 1 else 1
    write_records([triple_record(triples, prov)], out_dir / "triples.jsonl")

    stage("non-decomposability certificate")
    cert = nondecomposability_certificate(REFERENCE_QUAD,
                                          center=RationalAngle(4, 25))
    if cert is None:
        print("FAILED to certify the reference tetrahedron")
        failures += 1
    else:
        payload = cert.to_payload()
        ok = recheck_obstruction(payload)
        print(f"vertex {cert.vertex_index} link inside ball "
              f"(center {cert.center.frac}*pi, radius {cert.radius.frac}*pi), "
              f"area target {cert.area_target} infeasible; "
              f"independent recheck: {'ok' if ok else 'FAILED'}")
        failures += 0 if ok else 1
        write_records([certificate_record(payload, prov)],
                      out_dir / "certificate.jsonl")

    stage("suspension lifts")
    tet_f3 = volume_fraction(volume(REFERENCE_QUAD).value)
    twin = {c.symbol: c for c in coxeter_catalog()}["I2(k)xI2(l)"]
    cox_f3 = volume_fraction(twin.volume(9, 9))
    agree = True
    for n in range(3, 9):
        a, b = lifted_volume_fraction(tet_f3, n), lifted_volume_fraction(cox_f3, n)
        agree &= a == b
        print(f"n={n}: tetrahedron {a}  coxeter twin {b}")
    failures += 0 if agree and tet_f3 == Fraction(1, 324) else 1

    stage("summary")
    status = "OK" if failures == 0 else f"{failures} FAILURES"
    print(f"{status} in {time.monotonic() - t_start:.1f}s; "
          f"artifacts in {out_dir}")
    return 0 if failures == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("results"),
                        help="directory for the result artifacts")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    return run(args.out)


if __name__ == "__main__":
    sys.exit(main())
