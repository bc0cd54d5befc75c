"""Exact result serialization: JSON records, CSV tables, golden fixtures.

Every number leaving the library is a reduced fraction (of pi for
angles, of pi^2 for volumes); nothing persisted is ever a float.  JSON
uses {"num": int, "den": int} objects, CSV uses "num/den" strings laid
out like the published tables for human diffing.  Serialization is
canonical (sorted keys, fixed separators) so serialize -> parse ->
serialize is byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import uuid
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional

from .angles import frac_obj
from .geometry import PythagoreanQuadruple
from .lambert import CompanionTetrahedron, LambertSearchReport
from .search import SearchConfig, SearchReport, SporadicRow, TripleReport

RECORD_KINDS = (
    "sporadic",
    "family",
    "family-instance",
    "lambert",
    "certificate",
    "triple",
)

_JSON_KW = dict(sort_keys=True, separators=(",", ":"))


def obj_frac(d: dict) -> Fraction:
    return Fraction(d["num"], d["den"])


def frac_str(f) -> str:
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_frac(s: str) -> Fraction:
    return Fraction(s)


@dataclass(frozen=True)
class ResultRecord:
    """One persisted result with provenance.

    kind is one of RECORD_KINDS; payload carries only exact data
    (fractions as {"num","den"} objects, plain ints and strings);
    provenance records the run id, the config hash, and a timestamp.
    """

    kind: str
    payload: dict
    provenance: dict

    def __post_init__(self) -> None:
        if self.kind not in RECORD_KINDS:
            raise ValueError(f"unknown record kind {self.kind!r}")
        _reject_floats(self.payload)

    def to_json(self) -> str:
        return json.dumps(
            {"kind": self.kind, "payload": self.payload,
             "provenance": self.provenance},
            **_JSON_KW,
        )

    @classmethod
    def from_json(cls, text: str) -> "ResultRecord":
        data = json.loads(text)
        return cls(data["kind"], data["payload"], data["provenance"])


def _reject_floats(obj) -> None:
    if isinstance(obj, float):
        raise TypeError("floating-point value in a persisted payload")
    if isinstance(obj, dict):
        for v in obj.values():
            _reject_floats(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _reject_floats(v)


def config_hash(cfg: SearchConfig) -> str:
    blob = json.dumps(cfg.describe(), **_JSON_KW).encode()
    return hashlib.sha256(blob).hexdigest()


def make_provenance(cfg: Optional[SearchConfig] = None,
                    run_id: Optional[str] = None) -> dict:
    return {
        "run_id": run_id or uuid.uuid4().hex,
        "config_hash": config_hash(cfg) if cfg else "",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


# -- record builders ---------------------------------------------------------


def quadruple_payload(quad: PythagoreanQuadruple) -> dict:
    p, q, r, s = quad.angles
    return {"p": frac_obj(p.frac), "q": frac_obj(q.frac),
            "r": frac_obj(r.frac), "s": frac_obj(s.frac)}


def sporadic_records(report: SearchReport, provenance: dict
                     ) -> list[ResultRecord]:
    out = []
    for i, row in enumerate(report.sporadic, start=1):
        payload = {"no": i}
        payload.update(quadruple_payload(row.quadruple))
        lp, lq, lr, ls = row.lengths.lengths
        payload.update({"lp": frac_obj(lp.frac), "lq": frac_obj(lq.frac),
                        "lr": frac_obj(lr.frac), "ls": frac_obj(ls.frac),
                        "vol": frac_obj(row.vol.value)})
        out.append(ResultRecord("sporadic", payload, provenance))
    return out


def stage_records(report: SearchReport, stage: str, provenance: dict
                  ) -> list[ResultRecord]:
    if stage == "sporadic":
        return sporadic_records(report, provenance)
    out = []
    for quad in report.stage_quadruples(stage):
        out.append(ResultRecord("sporadic",
                                dict(stage=stage, **quadruple_payload(quad)),
                                provenance))
    return out


def triple_record(report: TripleReport, provenance: dict) -> ResultRecord:
    payload = {
        "nontrivial": [
            {"p": frac_obj(t[0].frac), "q": frac_obj(t[1].frac),
             "r": frac_obj(t[2].frac)} for t in report.nontrivial
        ],
        "trivial_hits": report.trivial_hits,
        "orbit_sizes": [
            {"triple": [frac_obj(f) for f in key], "size": size}
            for key, size in sorted(report.orbit_sizes.items())
        ],
    }
    return ResultRecord("triple", payload, provenance)


def lambert_records(cubes, volumes, provenance: dict) -> list[ResultRecord]:
    out = []
    for cube, vol in zip(cubes, volumes):
        payload = {
            "a": frac_obj(cube.a.frac),
            "b": frac_obj(cube.b.frac),
            "c": frac_obj(cube.c.frac),
            "vol": frac_obj(vol.value),
        }
        out.append(ResultRecord("lambert", payload, provenance))
    return out


def certificate_record(payload: dict, provenance: dict) -> ResultRecord:
    return ResultRecord("certificate", payload, provenance)


def family_records(results: Iterable[dict], provenance: dict
                   ) -> list[ResultRecord]:
    return [ResultRecord("family", r, provenance) for r in results]


# -- CSV tables --------------------------------------------------------------

_SPORADIC_COLUMNS = ("no", "p", "q", "r", "s", "lp", "lq", "lr", "ls", "vol")


def sporadic_csv(records: Iterable[ResultRecord]) -> str:
    """CSV mirroring the published table layout, fractions as strings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_SPORADIC_COLUMNS)
    for rec in records:
        p = rec.payload
        writer.writerow(
            [p["no"]] + [frac_str(obj_frac(p[c])) for c in _SPORADIC_COLUMNS[1:]]
        )
    return buf.getvalue()


def parse_sporadic_csv(text: str) -> list[dict]:
    rows = []
    reader = csv.DictReader(io.StringIO(text))
    for raw in reader:
        row = {"no": int(raw["no"])}
        for c in _SPORADIC_COLUMNS[1:]:
            row[c] = parse_frac(raw[c])
        rows.append(row)
    return rows


# -- file IO -----------------------------------------------------------------


def write_records(records: Iterable[ResultRecord], path: Path) -> None:
    """One canonical-JSON record per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(rec.to_json())
            fh.write("\n")


def read_records(path: Path) -> list[ResultRecord]:
    with open(path) as fh:
        return [ResultRecord.from_json(line) for line in fh if line.strip()]


# -- golden fixtures ---------------------------------------------------------


def _fixture(name: str) -> dict:
    path = resources.files("sphertet") / "fixtures" / name
    return json.loads(path.read_text())


def load_sporadic_fixture() -> list[dict]:
    """The 59 reference rows, all values as Fractions."""
    data = _fixture("sporadic_quadruples.json")
    rows = []
    for raw in data["rows"]:
        row = {"no": raw["no"]}
        for key in ("p", "q", "r", "s", "lp", "lq", "lr", "ls", "vol"):
            row[key] = obj_frac(raw[key])
        rows.append(row)
    if len(rows) != data["count"]:
        raise ValueError("sporadic fixture count mismatch")
    return rows


def load_lambert_fixture() -> list[dict]:
    data = _fixture("lambert_cubes.json")
    rows = []
    for raw in data["rows"]:
        rows.append({
            "name": raw["name"],
            "angles": tuple(sorted(
                (obj_frac(raw[k]) for k in ("a", "b", "c")), reverse=True)),
            "vol": obj_frac(raw["vol"]),
            "companion": tuple(obj_frac(raw["companion"][k])
                               for k in ("p", "q", "r", "s")),
        })
    return rows


def load_family_fixture() -> dict:
    return _fixture("continuous_families.json")


def load_coxeter_fixture() -> dict:
    return _fixture("coxeter_volumes.json")


# -- fixture comparison ------------------------------------------------------


def sporadic_comparison(report: SearchReport) -> dict:
    """Exact set comparison of a search result against the golden rows.

    Returns a dict with `match` plus the differing quadruples, compared
    as (angles, lengths, volume) tuples of Fractions.
    """
    def row_key(row: SporadicRow):
        return (
            tuple(a.frac for a in row.quadruple.angles),
            tuple(x.frac for x in row.lengths.lengths),
            row.vol.value,
        )

    def fixture_key(row: dict):
        return (
            (row["p"], row["q"], row["r"], row["s"]),
            (row["lp"], row["lq"], row["lr"], row["ls"]),
            row["vol"],
        )

    ours = {row_key(r) for r in report.sporadic}
    golden = {fixture_key(r) for r in load_sporadic_fixture()}
    return {
        "match": ours == golden,
        "missing": sorted(golden - ours),
        "extra": sorted(ours - golden),
    }


def lambert_comparison(report: LambertSearchReport,
                       companions: Iterable[CompanionTetrahedron]) -> dict:
    """Exact comparison of the Lambert cubes, their volumes and the
    companion tetrahedra against the golden rows.

    Returns a dict with `match` plus one flag per compared part.
    """
    golden = load_lambert_fixture()
    cubes = ({tuple(x.frac for x in c.angles) for c in report.cubes}
             == {g["angles"] for g in golden})
    volumes = {v.value for v in report.volumes} == {g["vol"] for g in golden}
    comps = ({(tuple(a.frac for a in t.quadruple.angles), t.vol.value)
              for t in companions}
             == {(g["companion"], g["vol"]) for g in golden})
    return {"match": cubes and volumes and comps, "cubes": cubes,
            "volumes": volumes, "companions": comps}
