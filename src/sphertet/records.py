"""Exact result serialization: JSON records, CSV tables, golden fixtures.

Every number leaving the library is a reduced fraction (of pi for
angles, of pi^2 for volumes); nothing persisted is ever a float.  JSON
uses {"num": int, "den": int} objects, CSV uses "num/den" strings laid
out like the published tables for human diffing.  Serialization is
canonical (sorted keys, fixed separators) so serialize -> parse ->
serialize is byte-identical.

The module is the one reader of the golden tables under fixtures/, and
at run time it depends on no package module but angles: the search,
Lambert and geometry types below name annotations only, so any layer,
the obstruction code included, can load the goldens without importing
the searches.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

from .angles import _fraction, frac_obj, obj_frac

if TYPE_CHECKING:
    from .geometry import PythagoreanQuadruple
    from .lambert import CompanionTetrahedron, LambertSearchReport
    from .search import SearchConfig, SearchReport, SporadicRow, TripleReport

RECORD_KINDS = (
    "sporadic",
    "family",
    "lambert",
    "certificate",
    "triple",
)

_JSON_KW = dict(sort_keys=True, separators=(",", ":"))


def frac_str(f) -> str:
    return str(_fraction(f, "fraction"))


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
    if not run_id:
        import uuid  # loads platform and _uuid: only runs without an id pay
        run_id = uuid.uuid4().hex
    return {
        "run_id": run_id,
        "config_hash": config_hash(cfg) if cfg else "",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


# -- record builders ---------------------------------------------------------


def quadruple_payload(quad: PythagoreanQuadruple) -> dict:
    p, q, r, s = quad.angles
    return {"p": frac_obj(p.frac), "q": frac_obj(q.frac),
            "r": frac_obj(r.frac), "s": frac_obj(s.frac)}


# The sporadic row: its number, then nine fractions (angles p, q, r, s,
# edge lengths lp..ls of pi, and the volume of pi^2), in the published
# column order shared by records, the CSV table and the golden fixture.
_SPORADIC_COLUMNS = ("no", "p", "q", "r", "s", "lp", "lq", "lr", "ls", "vol")


def _sporadic_row(no: int, values: Iterable, convert) -> dict:
    return {"no": no, **{c: convert(v) for c, v in zip(_SPORADIC_COLUMNS[1:], values)}}


def _row_values(row: SporadicRow) -> tuple[Fraction, ...]:
    """The nine fractions of a search row, in _SPORADIC_COLUMNS order."""
    return (*row.quadruple.fractions, *(x.frac for x in row.lengths.lengths),
            row.vol.value)


def sporadic_records(report: SearchReport, provenance: dict
                     ) -> list[ResultRecord]:
    out = []
    for i, row in enumerate(report.sporadic, start=1):
        out.append(ResultRecord("sporadic", _sporadic_row(i, _row_values(row), frac_obj),
                                provenance))
    return out


def stage_records(report: SearchReport, stage: str, provenance: dict
                  ) -> list[ResultRecord]:
    if stage == "sporadic":
        return sporadic_records(report, provenance)
    quads = {"raw": report.raw_solutions, "realizable": report.realizable}[stage]
    return [ResultRecord("sporadic", dict(stage=stage, **quadruple_payload(quad)), provenance)
            for quad in quads]


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
    return [_sporadic_row(int(raw["no"]), (raw[c] for c in _SPORADIC_COLUMNS[1:]), Fraction)
            for raw in csv.DictReader(io.StringIO(text))]


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
    """The golden table fixtures/name, read afresh on every call; a table
    whose stated count is not its number of rows raises ValueError."""
    data = json.loads((Path(__file__).parent / "fixtures" / name).read_text())
    if "rows" in data and data["count"] != len(data["rows"]):
        raise ValueError(f"{name} states {data['count']} rows but has {len(data['rows'])}")
    return data


def load_sporadic_fixture() -> list[dict]:
    """The 59 reference rows, all values as Fractions."""
    return [_sporadic_row(raw["no"], (raw[c] for c in _SPORADIC_COLUMNS[1:]), obj_frac)
            for raw in _fixture("sporadic_quadruples.json")["rows"]]


def load_lambert_fixture() -> list[dict]:
    rows = []
    for raw in _fixture("lambert_cubes.json")["rows"]:
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

    Returns {"match": bool, "missing": [...], "extra": [...]}: the sorted
    golden rows the search lacks and search rows the goldens lack, each a
    flat 9-tuple of Fractions (p, q, r, s, lp, lq, lr, ls, vol), the
    _SPORADIC_COLUMNS order.
    """
    ours = {_row_values(r) for r in report.sporadic}
    golden = {tuple(r[c] for c in _SPORADIC_COLUMNS[1:]) for r in load_sporadic_fixture()}
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
