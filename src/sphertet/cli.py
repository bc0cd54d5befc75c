"""Command-line surface.

Subcommands map one-to-one onto the library stages:

    search-quadruples   exhaustive four-cosine search and classification
    verify-families     identity / volume / domain checks for all 42 families
    search-lambert      the rational Lambert cube search and companions
    certify             non-decomposability certificate and suspension lifts
    catalog             export the family and Coxeter catalogs

Configuration precedence is flags > config file (--config, a JSON
object with the keys "out" and "format") > defaults.  The default output
directory comes from SPHERTET_OUT_DIR; without it no files are written
and results go to stdout only.  The searches have no settings: each
decides every grid point exactly.

Exit codes: 0 success, 2 verification mismatch against the golden
fixtures, 3 internal invariant violation, 4 IO failure, 5 usage error
(a config file that is not a JSON object or has an unknown key or a bad
value, an unknown family id, CSV output for a stage other than sporadic,
--lift below 3).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import certify as certify_mod
from . import families as families_mod
from . import lambert as lambert_mod
from . import records as records_mod
from .angles import RationalAngle
from .geometry import PreconditionError, PythagoreanQuadruple, volume
from .search import SearchConfig, run_sporadic_search, search_triples

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_INVARIANT = 3
EXIT_IO = 4
EXIT_USAGE = 5

OUT_DIR_ENV = "SPHERTET_OUT_DIR"
CONFIG_KEYS = ("format", "out")


class UsageError(Exception):
    """A command line or config file the program cannot act on."""


def _load_config_file(path: Optional[str]) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    for key in data:
        if key not in CONFIG_KEYS:
            raise UsageError(f"config file {path}: unknown key {key!r} "
                             f"(allowed: {', '.join(CONFIG_KEYS)})")
    if not isinstance(data.get("out", ""), str):
        raise UsageError(f"config file {path}: 'out' must be a string")
    if data.get("format", "json") not in ("json", "csv"):
        raise UsageError(f"config file {path}: 'format' must be json or csv")
    return data


def _merge_setting(flag, file_cfg: dict, key: str, default):
    if flag is not None:
        return flag
    if key in file_cfg:
        return file_cfg[key]
    return default


def _out_dir(args, file_cfg: dict) -> Optional[Path]:
    out = _merge_setting(getattr(args, "out", None), file_cfg, "out",
                         os.environ.get(OUT_DIR_ENV))
    return Path(out) if out else None


def _fmt(args, file_cfg: dict) -> str:
    return _merge_setting(getattr(args, "format", None), file_cfg,
                          "format", "json")


def _write(records, out: Optional[Path], name: str, fmt: str) -> None:
    if out is None:
        return
    if fmt == "csv":
        path = out / f"{name}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(records_mod.sporadic_csv(records))
    else:
        records_mod.write_records(records, out / f"{name}.jsonl")


# -- search-quadruples --------------------------------------------------------


def cmd_search_quadruples(args) -> int:
    file_cfg = _load_config_file(args.config)
    cfg = SearchConfig()
    out = _out_dir(args, file_cfg)
    fmt = _fmt(args, file_cfg)
    if fmt == "csv" and (args.triples or args.stage != "sporadic"):
        what = "--triples" if args.triples else f"--stage {args.stage}"
        raise UsageError(f"format csv with {what}: CSV output exists only "
                         "for --stage sporadic; use --format json")

    if args.triples:
        report = search_triples(cfg)
        prov = records_mod.make_provenance(cfg)
        rec = records_mod.triple_record(report, prov)
        print(f"three-cosine search: {len(report.nontrivial)} nontrivial "
              f"solution(s), {report.trivial_hits} trivial grid hits")
        for p, q, r in report.nontrivial:
            print(f"  ({p}, {q}, {r})")
        _write([rec], out, "triples", "json")
        return EXIT_OK

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
    _write(recs, out, stage, fmt)
    if stage == "sporadic":
        cmp = records_mod.sporadic_comparison(report)
        if not cmp["match"]:
            print(f"fixture mismatch: {len(cmp['missing'])} missing, "
                  f"{len(cmp['extra'])} extra", file=sys.stderr)
            return EXIT_MISMATCH
        print("sporadic table matches the golden fixture (59 rows)")
    return EXIT_OK


# -- verify-families ----------------------------------------------------------


def cmd_verify_families(args) -> int:
    file_cfg = _load_config_file(args.config)
    out = _out_dir(args, file_cfg)
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
        cert = families_mod.verify_domain(fam)
        ok_dom = cert.valid
        status = "ok" if (ok_id and ok_vol and ok_dom) else "FAIL"
        detail = (f"segments={cert.g3_witness.bisection_segments + cert.g4_witness.bisection_segments}"
                  if cert.mode == "interval-bisection" else "factored")
        print(f"family {fam.family_id:2d}: identity={'ok' if ok_id else 'FAIL'} "
              f"volume={'ok' if ok_vol else 'FAIL'} "
              f"domain={'ok' if ok_dom else 'FAIL'} ({cert.mode}, {detail}) "
              f"[{status}]")
        results.append({
            "id": fam.family_id,
            "identity": ok_id,
            "volume": ok_vol,
            "domain": ok_dom,
            "mode": cert.mode,
        })
        if status == "FAIL":
            checks = [n for n, ok in (("identity", ok_id), ("volume", ok_vol),
                                      ("domain", ok_dom)) if not ok]
            failed.append((fam.family_id, checks))
    prov = records_mod.make_provenance()
    _write(records_mod.family_records(results, prov), out, "families", "json")
    if failed:
        for fam_id, checks in failed:
            print(f"family {fam_id} failed: {', '.join(checks)}",
                  file=sys.stderr)
        return EXIT_MISMATCH
    print(f"{len(fams)}/{len(fams)} families verified")
    return EXIT_OK


# -- search-lambert -----------------------------------------------------------


def cmd_search_lambert(args) -> int:
    file_cfg = _load_config_file(args.config)
    cfg = SearchConfig()
    out = _out_dir(args, file_cfg)
    report = lambert_mod.search_rational_lambert_cubes(cfg)
    for cube, vol in zip(report.cubes, report.volumes):
        print(f"{cube}  volume {vol.value} * pi^2")
    print(f"scanned {report.candidates_scanned} triples, "
          f"{report.prefilter_hits} with a zero cosine sum, "
          f"continuous family excluded: {report.no_continuous_family}")
    companions = lambert_mod.companion_tetrahedra()
    for t in companions:
        print(f"companion {t.quadruple}  volume {t.vol.value} * pi^2 "
              f"via {t.volume_route} (k = {t.coxeter_parameter})")
    prov = records_mod.make_provenance(cfg)
    _write(records_mod.lambert_records(report.cubes, report.volumes, prov),
           out, "lambert", "json")
    if not records_mod.lambert_comparison(report, companions)["match"]:
        print("lambert results disagree with the golden fixture",
              file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# -- certify -------------------------------------------------------------------


def _reference_instance() -> tuple[PythagoreanQuadruple, RationalAngle]:
    """The family-11 member at t = pi/18 and its published ball center."""
    fam = families_mod.family_by_id(11)
    inst = families_mod.instantiate(fam, Fraction(1, 18))
    return inst.quadruple, RationalAngle(4, 25)


def cmd_certify(args) -> int:
    file_cfg = _load_config_file(args.config)
    out = _out_dir(args, file_cfg)
    if args.lift is not None and args.lift < 3:
        raise UsageError(f"--lift {args.lift}: the suspension dimension "
                         "must be at least 3")
    if not args.paper_example and args.lift is None:
        print("nothing to do: pass --paper-example and/or --lift N",
              file=sys.stderr)
        return EXIT_MISMATCH

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
               "certificate", "json")

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
    file_cfg = _load_config_file(args.config)
    out = _out_dir(args, file_cfg)
    data = families_mod.export_catalog()
    cox = [{"index": c.index, "symbol": c.symbol,
            "vol": records_mod.frac_obj(c.vol) if c.vol is not None else None,
            "vol_rule": c.vol_rule} for c in certify_mod.coxeter_catalog()]
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
    parser = argparse.ArgumentParser(
        prog="sphertet",
        description="exact classification of spherical tetrahedra with "
                    "rational dihedral angles and rational volume",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory "
                                     f"(default ${OUT_DIR_ENV})")

    p = sub.add_parser("search-quadruples",
                       help="enumerate rational-volume tetrahedra")
    common(p)
    p.add_argument("--stage", choices=("raw", "realizable", "sporadic"),
                   default="sporadic")
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.add_argument("--triples", action="store_true",
                   help="search the three-cosine equation instead")
    p.set_defaults(func=cmd_search_quadruples)

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
    args = build_parser().parse_args(argv)
    try:
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
