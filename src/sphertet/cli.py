"""Command-line surface and the one stage driver.

Subcommands map one-to-one onto the library stages:

    search-quadruples   exhaustive four-cosine search and classification
    search-triples      exhaustive three-cosine search
    verify-families     identity / volume / domain checks for all 42 families
    search-lambert      the rational Lambert cube search and companions
    certify             non-decomposability certificate and suspension lifts
    catalog             export the family and Coxeter catalogs

Each stage command runs its stage, checks the result against the golden
fixtures and the paper's claims, and returns an exit code;
scripts/reproduce_classification.py runs them in turn through main().

The one setting is the output directory: --out, else SPHERTET_OUT_DIR;
without either no files are written and results go to stdout only.
Results are one canonical JSON record per line; the sporadic stage also
writes its table as CSV.  The searches have no settings: each decides
every point of the fixed grid exactly.

Exit codes: 0 success, 2 verification mismatch against the golden
fixtures or the paper, a family domain that fails to certify included
(verify-families still checks and records every other family), 3
internal invariant violation, 4 IO failure, 5 usage error (a flag or
argument the parser rejects, an empty --out, an unknown family id,
certify without --paper-example or --lift, --lift below 3).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import families as families_mod
from . import lambert as lambert_mod
from . import records as records_mod
from . import trigpoly as trigpoly_mod
from .angles import RationalAngle
from .geometry import PreconditionError, PythagoreanQuadruple, volume
from .search import SearchConfig, run_sporadic_search, search_triples

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_INVARIANT = 3
EXIT_IO = 4
EXIT_USAGE = 5

OUT_DIR_ENV = "SPHERTET_OUT_DIR"

# The one nontrivial solution of cos p cos q + cos r = 0 on the grid.
PAPER_TRIPLE = (RationalAngle(1, 4), RationalAngle(1, 4), RationalAngle(2, 3))


class UsageError(Exception):
    """A command line the program cannot act on."""


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as a UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _out_dir(args) -> Optional[Path]:
    """--out, else $SPHERTET_OUT_DIR; an empty --out is refused, an empty
    $SPHERTET_OUT_DIR counts as unset."""
    if args.out == "":
        raise UsageError("--out: expected a directory, got an empty path")
    out = args.out if args.out is not None else os.environ.get(OUT_DIR_ENV)
    return Path(out) if out else None


def _write(records, out: Optional[Path], name: str) -> None:
    if out is not None:
        records_mod.write_records(records, out / f"{name}.jsonl")


# -- search-quadruples --------------------------------------------------------


def cmd_search_quadruples(args) -> int:
    out = _out_dir(args)
    cfg = SearchConfig()
    report = run_sporadic_search(cfg)
    prov = records_mod.make_provenance(cfg)
    stage = args.stage
    recs = records_mod.stage_records(report, stage, prov)
    print(f"candidates scanned : {report.candidates_scanned}")
    print(f"zero-sum tuples    : {report.prefilter_hits}")
    print(f"exact solutions    : {report.raw_solution_count}")
    print(f"realizable         : {report.realizable_count}")
    print(f"family members     : {report.family_member_count}")
    print(f"sporadic           : {report.sporadic_count}")
    for note in report.notes:
        print(f"note: {note}")
    _write(recs, out, stage)
    if stage == "sporadic":
        if out is not None:
            (out / "sporadic.csv").write_text(records_mod.sporadic_csv(recs))
        cmp = records_mod.sporadic_comparison(report)
        if not cmp["match"]:
            print(f"fixture mismatch: {len(cmp['missing'])} missing, "
                  f"{len(cmp['extra'])} extra", file=sys.stderr)
            return EXIT_MISMATCH
        print("sporadic table matches the golden fixture (59 rows)")
    return EXIT_OK


# -- search-triples -----------------------------------------------------------


def cmd_search_triples(args) -> int:
    out = _out_dir(args)
    cfg = SearchConfig()
    report = search_triples(cfg)
    prov = records_mod.make_provenance(cfg)
    rec = records_mod.triple_record(report, prov)
    print(f"three-cosine search: {len(report.nontrivial)} nontrivial "
          f"solution(s), {report.trivial_hits} trivial grid hits")
    for p, q, r in report.nontrivial:
        print(f"  ({p}, {q}, {r})")
    _write([rec], out, "triples")
    if report.nontrivial != (PAPER_TRIPLE,):
        print("nontrivial solutions differ from the paper's only one, "
              "({}, {}, {})".format(*PAPER_TRIPLE), file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# -- verify-families ----------------------------------------------------------


def _proof_memo_counts() -> list[tuple[int, int]]:
    """(requests, distinct proofs) so far of the positivity and the
    product proof memos behind verify_domain."""
    infos = (trigpoly_mod._proved_positive.cache_info(),
             families_mod._proved_product.cache_info())
    return [(info.hits + info.misses, info.misses) for info in infos]


def cmd_verify_families(args) -> int:
    out = _out_dir(args)
    memo_before = _proof_memo_counts()
    fams = families_mod.builtin_families()
    if args.family is not None:
        try:
            fams = (families_mod.family_by_id(args.family),)
        except KeyError:
            raise UsageError(f"--family {args.family}: no such family "
                             f"(ids run from 1 to {len(fams)})") from None
    results = []
    failed = []
    for fam in fams:
        ok_id = families_mod.verify_identity(fam)
        ok_vol = families_mod.verify_volume_form(fam)
        mode = fam.domain_mode
        try:
            cert = families_mod.verify_domain(fam)
        except trigpoly_mod.PositivityError as exc:
            ok_dom, detail = False, str(exc)
        else:
            ok_dom = cert.valid
            detail = (f"segments={sum(len(w.samples) for w in cert.witnesses)}"
                      if mode == "interval-bisection" else "factored")
        status = "ok" if (ok_id and ok_vol and ok_dom) else "FAIL"
        print(f"family {fam.family_id:2d}: identity={'ok' if ok_id else 'FAIL'} "
              f"volume={'ok' if ok_vol else 'FAIL'} "
              f"domain={'ok' if ok_dom else 'FAIL'} ({mode}, {detail}) "
              f"[{status}]")
        results.append({
            "id": fam.family_id,
            "identity": ok_id,
            "volume": ok_vol,
            "domain": ok_dom,
            "mode": mode,
        })
        if status == "FAIL":
            checks = [n for n, ok in (("identity", ok_id), ("volume", ok_vol),
                                      ("domain", ok_dom)) if not ok]
            failed.append((fam.family_id, checks))
    (segment_sums, positivity_proofs), (region_sums, product_proofs) = [
        (n - n0, k - k0) for (n, k), (n0, k0) in zip(_proof_memo_counts(), memo_before)]
    print(f"{segment_sums + region_sums} Gram sums certified by {positivity_proofs} "
          f"+ {product_proofs} distinct proofs (positivity + product)")
    prov = records_mod.make_provenance()
    _write(records_mod.family_records(results, prov), out, "families")
    if failed:
        for fam_id, checks in failed:
            print(f"family {fam_id} failed: {', '.join(checks)}",
                  file=sys.stderr)
        return EXIT_MISMATCH
    print(f"{len(fams)}/{len(fams)} families verified")
    return EXIT_OK


# -- search-lambert -----------------------------------------------------------


def cmd_search_lambert(args) -> int:
    out = _out_dir(args)
    report = lambert_mod.search_rational_lambert_cubes()
    for cube, vol in zip(report.cubes, report.volumes):
        print(f"{cube}  volume {vol.value} * pi^2")
    print(f"scanned {report.candidates_scanned} triples, "
          f"{len(report.cubes)} with a zero cosine sum, "
          f"continuous family excluded: {report.no_continuous_family}")
    companions = lambert_mod.companion_tetrahedra()
    for t in companions:
        print(f"companion {t.quadruple}  volume {t.vol.value} * pi^2 "
              f"via coxeter-parametric (k = {t.coxeter_parameter})")
    prov = records_mod.make_provenance(SearchConfig())
    _write(records_mod.lambert_records(report.cubes, report.volumes, prov),
           out, "lambert")
    if not records_mod.lambert_comparison(report, companions)["match"]:
        print("lambert results disagree with the golden fixture",
              file=sys.stderr)
        return EXIT_MISMATCH
    if not report.no_continuous_family:
        print("a continuous family of rational Lambert cubes was not "
              "excluded", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# -- certify -------------------------------------------------------------------


def _reference_instance() -> tuple[PythagoreanQuadruple, RationalAngle]:
    """The family-11 member at t = pi/18 and its published ball center."""
    fam = families_mod.family_by_id(11)
    inst = families_mod.instantiate(fam, Fraction(1, 18))
    return inst.quadruple, RationalAngle(4, 25)


def cmd_certify(args) -> int:
    from . import certify as certify_mod  # imported by this command only

    out = _out_dir(args)
    if args.lift is not None and args.lift < 3:
        raise UsageError(f"--lift {args.lift}: the suspension dimension "
                         "must be at least 3")
    if not args.paper_example and args.lift is None:
        raise UsageError("certify: nothing to do; pass --paper-example "
                         "and/or --lift N")

    rc = EXIT_OK
    if args.paper_example:
        quad, center = _reference_instance()
        cert = certify_mod.nondecomposability_certificate(quad, center=center)
        if cert is None:
            print("no obstruction certificate found", file=sys.stderr)
            return EXIT_MISMATCH
        payload = cert.to_payload()
        print(f"quadruple {quad}  volume {volume(quad).value} * pi^2")
        print(f"obstruction at vertex {cert.vertex_index}: link "
              f"({cert.triangle.alpha}, {cert.triangle.beta}, "
              f"{cert.triangle.gamma})")
        print(f"  ball: center longitude {cert.center}, radius {cert.radius}, "
              f"certified at {cert.precision} bits")
        print(f"  area target {cert.area_target} with weights {cert.weights}: "
              f"infeasible")
        if not certify_mod.recheck_obstruction(
                json.loads(json.dumps(payload))):
            print("serialized certificate failed its recheck", file=sys.stderr)
            return EXIT_INVARIANT
        print("  serialized certificate rechecked independently: ok")
        prov = records_mod.make_provenance()
        _write([records_mod.certificate_record(payload, prov)], out,
               "certificate")

    if args.lift is not None:
        n = args.lift
        quad, _ = _reference_instance()
        f3 = certify_mod.volume_fraction(volume(quad).value)
        cells = [c for c in certify_mod.coxeter_catalog()
                 if c.vol_rule == "1/(2kl)"]
        coxeter_f3 = certify_mod.volume_fraction(cells[0].volume(k=9, l=9))
        print(f"suspension to S^{n}: Gram size {n + 1}")
        for dim in range(3, n + 1):
            fn = certify_mod.lifted_volume_fraction(f3, dim)
            fn_cox = certify_mod.lifted_volume_fraction(coxeter_f3, dim)
            mark = "==" if fn == fn_cox else "!="
            print(f"  n={dim}: fraction {fn} {mark} {fn_cox} (Coxeter twin)")
            if fn != fn_cox:
                rc = EXIT_INVARIANT
    return rc


# -- catalog -------------------------------------------------------------------


def cmd_catalog(args) -> int:
    out = _out_dir(args)
    data = families_mod.export_catalog()
    cox = [{"index": r["index"], "symbol": r["symbol"], "vol": r.get("vol"),
            "vol_rule": r.get("vol_formula")}
           for r in records_mod.load_coxeter_fixture()["rows"]]
    blob = json.dumps({"families": data, "coxeter": cox},
                      sort_keys=True, separators=(",", ":"))
    if out is not None:
        path = out / "catalog.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(blob)
        print(f"wrote {path}")
    else:
        print(blob)
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sphertet",
        description="exact classification of spherical tetrahedra with "
                    "rational dihedral angles and rational volume",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output directory "
                                     f"(default ${OUT_DIR_ENV})")

    p = sub.add_parser("search-quadruples",
                       help="enumerate rational-volume tetrahedra")
    common(p)
    p.add_argument("--stage", choices=("raw", "realizable", "sporadic"),
                   default="sporadic")
    p.set_defaults(func=cmd_search_quadruples)

    p = sub.add_parser("search-triples",
                       help="solve cos p cos q + cos r = 0 on the grid")
    common(p)
    p.set_defaults(func=cmd_search_triples)

    p = sub.add_parser("verify-families",
                       help="check the 42 continuous families")
    common(p)
    p.add_argument("--family", type=int, default=None,
                   help="restrict to one family id")
    p.set_defaults(func=cmd_verify_families)

    p = sub.add_parser("search-lambert", help="find rational Lambert cubes")
    common(p)
    p.set_defaults(func=cmd_search_lambert)

    p = sub.add_parser("certify",
                       help="non-decomposability certificate and lifts")
    common(p)
    p.add_argument("--paper-example", action="store_true",
                   help="certify the reference tetrahedron")
    p.add_argument("--lift", type=int, default=None, metavar="N",
                   help="lift volume fractions up to S^N")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("catalog", help="export family and Coxeter catalogs")
    common(p)
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (PreconditionError, ArithmeticError, ValueError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
