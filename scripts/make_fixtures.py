#!/usr/bin/env python3
"""Regenerate the golden fixture files under src/sphertet/fixtures/.

The tables below are the expected classification results (sporadic
quadruples, Lambert cubes, Coxeter tetrahedron volumes).  Before a row
is written it is re-validated with the package's exact arithmetic:
residual zero, Gram matrix positive definite, closed-form volume and
edge lengths reproduced.  A transcription typo therefore aborts the
regeneration instead of poisoning the fixtures.

The continuous-family fixture is exported from the catalog module (the
single source of truth for family data), see sphertet.families.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sphertet.angles import frac_obj  # noqa: E402
from sphertet.families import export_catalog  # noqa: E402
from sphertet.geometry import (  # noqa: E402
    PythagoreanQuadruple,
    edge_lengths,
    is_pythagorean,
    is_realizable,
    volume,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "sphertet" / "fixtures"

# no, (p, q, r, s), (lp, lq, lr, ls), vol  -- all as fractions of pi / pi^2
SPORADIC = [
    (1, "2/3 1/3 3/5 1/5", "2/3 1/3 2/5 4/5", "7/90"),
    (2, "25/42 11/42 4/7 2/7", "25/42 11/42 3/7 5/7", "67/1764"),
    (3, "2/5 4/15 3/5 8/15", "2/5 4/15 2/5 7/15", "19/900"),
    (4, "2/5 1/5 2/3 1/2", "2/5 1/5 1/3 1/2", "7/720"),
    (5, "6/7 2/7 1/3 2/7", "6/7 2/7 2/3 5/7", "299/1764"),
    (6, "19/30 17/30 11/15 1/3", "19/30 17/30 4/15 2/3", "209/900"),
    (7, "2/3 2/3 4/5 2/5", "2/3 2/3 1/5 3/5", "31/90"),
    (8, "6/7 5/7 5/7 2/3", "6/7 5/7 2/7 1/3", "1013/1764"),
    (9, "13/30 11/30 11/15 1/3", "13/30 11/30 4/15 2/3", "29/900"),
    (10, "7/20 3/20 2/3 3/5", "7/20 3/20 1/3 2/5", "17/3600"),
    (11, "4/5 3/5 2/3 1/2", "4/5 3/5 1/3 1/2", "59/144"),
    (12, "23/30 11/30 7/15 1/3", "23/30 11/30 8/15 2/3", "161/900"),
    (13, "5/7 1/7 1/3 2/7", "5/7 1/7 2/3 5/7", "47/1764"),
    (14, "17/30 11/30 2/3 4/15", "17/30 11/30 1/3 11/15", "59/900"),
    (15, "2/3 1/5 2/5 1/3", "2/3 1/5 3/5 2/3", "37/900"),
    (16, "13/30 7/30 3/5 1/2", "13/30 7/30 2/5 1/2", "67/3600"),
    (17, "5/7 3/7 4/7 1/3", "5/7 3/7 3/7 2/3", "335/1764"),
    (18, "1/5 2/15 4/5 11/15", "1/5 2/15 1/5 4/15", "1/900"),
    (19, "31/42 25/42 5/7 3/7", "31/42 25/42 2/7 4/7", "613/1764"),
    (20, "11/15 3/5 3/5 8/15", "11/15 3/5 2/5 7/15", "319/900"),
    (21, "23/30 13/30 1/2 2/5", "23/30 13/30 1/2 3/5", "847/3600"),
    (22, "17/42 11/42 5/7 3/7", "17/42 11/42 2/7 4/7", "25/1764"),
    (23, "17/30 7/30 1/2 2/5", "17/30 7/30 1/2 3/5", "127/3600"),
    (24, "23/30 19/30 2/3 8/15", "23/30 19/30 1/3 7/15", "371/900"),
    (25, "1/3 1/3 4/5 2/5", "1/3 1/3 1/5 3/5", "1/90"),
    (26, "4/7 2/7 4/7 1/3", "4/7 2/7 3/7 2/3", "83/1764"),
    (27, "3/5 3/5 2/3 2/5", "3/5 3/5 1/3 3/5", "109/450"),
    (28, "1/3 1/5 2/3 3/5", "1/3 1/5 1/3 2/5", "7/900"),
    (29, "11/30 7/30 2/3 8/15", "11/30 7/30 1/3 7/15", "11/900"),
    (30, "3/5 2/5 3/5 1/3", "3/5 2/5 2/5 2/3", "49/450"),
    (31, "13/15 4/5 4/5 11/15", "13/15 4/5 1/5 4/15", "601/900"),
    (32, "5/7 4/7 2/3 3/7", "5/7 4/7 1/3 4/7", "545/1764"),
    (33, "3/5 4/15 7/15 2/5", "3/5 4/15 8/15 3/5", "49/900"),
    (34, "23/30 17/30 3/5 1/2", "23/30 17/30 2/5 1/2", "1267/3600"),
    (35, "2/5 2/5 2/3 2/5", "2/5 2/5 1/3 3/5", "19/450"),
    (36, "17/20 7/20 2/5 1/3", "17/20 7/20 3/5 2/3", "797/3600"),
    (37, "4/5 2/5 1/2 1/3", "4/5 2/5 1/2 2/3", "163/720"),
    (38, "3/7 2/7 2/3 3/7", "3/7 2/7 1/3 4/7", "41/1764"),
    (39, "13/15 1/5 4/15 1/5", "13/15 1/5 11/15 4/5", "91/900"),
    (40, "19/30 7/30 7/15 1/3", "19/30 7/30 8/15 2/3", "41/900"),
    (41, "2/3 2/5 2/3 1/5", "2/3 2/5 1/3 4/5", "103/900"),
    (42, "3/5 1/5 1/2 1/3", "3/5 1/5 1/2 2/3", "19/720"),
    (43, "3/5 1/3 2/3 1/5", "3/5 1/3 1/3 4/5", "43/900"),
    (44, "4/5 1/3 2/5 1/3", "4/5 1/3 3/5 2/3", "157/900"),
    (45, "19/30 13/30 2/3 4/15", "19/30 13/30 1/3 11/15", "119/900"),
    (46, "4/5 1/5 1/3 1/5", "4/5 1/5 2/3 4/5", "31/450"),
    (47, "17/20 13/20 2/3 3/5", "17/20 13/20 1/3 2/5", "1817/3600"),
    (48, "4/5 2/3 4/5 1/2", "4/5 2/3 1/5 1/2", "1691/3600"),
    (49, "4/5 2/15 4/15 1/5", "4/5 2/15 11/15 4/5", "31/900"),
    (50, "2/5 1/3 4/5 1/3", "2/5 1/3 1/5 2/3", "13/900"),
    (51, "1/5 1/5 4/5 2/3", "1/5 1/5 1/5 1/3", "1/450"),
    (52, "2/7 1/7 5/7 2/3", "2/7 1/7 2/7 1/3", "5/1764"),
    (53, "11/15 2/5 7/15 2/5", "11/15 2/5 8/15 3/5", "169/900"),
    (54, "31/42 17/42 4/7 2/7", "31/42 17/42 3/7 5/7", "319/1764"),
    (55, "4/5 4/5 4/5 2/3", "4/5 4/5 1/5 1/3", "271/450"),
    (56, "4/5 2/3 2/3 3/5", "4/5 2/3 1/3 2/5", "427/900"),
    (57, "11/15 2/3 11/15 1/2", "11/15 2/3 4/15 1/2", "493/1200"),
    (58, "2/3 3/5 4/5 1/3", "2/3 3/5 1/5 2/3", "253/900"),
    (59, "13/20 3/20 2/5 1/3", "13/20 3/20 3/5 2/3", "77/3600"),
]

# essential angles (descending), volume coefficient, companion quadruple
LAMBERT = [
    ("L1", "3/4 2/3 2/3", "31/576", "1/2 1/2 1/2 31/144"),
    ("L2", "2/3 3/5 4/5", "17/360", "1/2 1/2 1/2 17/90"),
]

COXETER = [
    (1, "A4", "1/60", None),
    (2, "B4", "1/192", None),
    (3, "D4", "1/96", None),
    (4, "H4", "1/7200", None),
    (5, "F4", "1/576", None),
    (6, "A3xA1", "1/24", None),
    (7, "B3xA1", "1/48", None),
    (8, "H3xA1", "1/120", None),
    (9, "I2(k)xI2(l)", None, "1/(2kl)"),
    (10, "I2(k)xA1x2", None, "1/(4k)"),
    (11, "A1x4", "1/8", None),
]


def parse_fracs(text: str) -> list[Fraction]:
    return [Fraction(tok) for tok in text.split()]


def build_sporadic() -> dict:
    rows = []
    for no, pqrs, lens, vol in SPORADIC:
        p, q, r, s = parse_fracs(pqrs)
        quad = PythagoreanQuadruple.from_fractions(p, q, r, s)
        assert quad.fractions == (p, q, r, s), f"row {no} not canonical"
        assert is_pythagorean(quad), f"row {no} residual nonzero"
        assert is_realizable(quad), f"row {no} not realizable"
        v = Fraction(vol)
        got_v = volume(quad).value
        assert got_v == v, f"row {no} volume mismatch: {got_v} vs {v}"
        expect_lens = tuple(parse_fracs(lens))
        got_lens = tuple(x.frac for x in edge_lengths(quad).lengths)
        assert got_lens == expect_lens, f"row {no} length mismatch: {got_lens}"
        rows.append(
            {
                "no": no,
                "p": frac_obj(p), "q": frac_obj(q),
                "r": frac_obj(r), "s": frac_obj(s),
                "lp": frac_obj(expect_lens[0]), "lq": frac_obj(expect_lens[1]),
                "lr": frac_obj(expect_lens[2]), "ls": frac_obj(expect_lens[3]),
                "vol": frac_obj(v),
            }
        )
    return {"kind": "sporadic-quadruples", "count": len(rows), "rows": rows}


def build_lambert() -> dict:
    rows = []
    for name, angles, vol, companion in LAMBERT:
        a, b, c = parse_fracs(angles)
        v = Fraction(vol)
        # volume re-derivation: Vol = 1/4 (pi^2/2 - (pi-a)^2 - (pi-b)^2 - (pi-c)^2)
        got = (Fraction(1, 2) - (1 - a) ** 2 - (1 - b) ** 2 - (1 - c) ** 2) / 4
        assert got == v, f"{name} volume mismatch: {got} vs {v}"
        cp, cq, cr, cs = parse_fracs(companion)
        comp = PythagoreanQuadruple.from_fractions(cp, cq, cr, cs)
        assert is_realizable(comp), f"{name} companion not realizable"
        rows.append(
            {
                "name": name,
                "a": frac_obj(a), "b": frac_obj(b), "c": frac_obj(c),
                "vol": frac_obj(v),
                "companion": {
                    "p": frac_obj(cp), "q": frac_obj(cq),
                    "r": frac_obj(cr), "s": frac_obj(cs),
                },
            }
        )
    return {"kind": "lambert-cubes", "count": len(rows), "rows": rows}


def build_coxeter() -> dict:
    rows = []
    for idx, symbol, vol, formula in COXETER:
        row: dict = {"index": idx, "symbol": symbol}
        if vol is not None:
            row["vol"] = frac_obj(Fraction(vol))
        else:
            row["vol_formula"] = formula
        rows.append(row)
    return {"kind": "coxeter-tetrahedra", "count": len(rows), "rows": rows}


def dump(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main() -> None:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    dump(FIXTURE_DIR / "sporadic_quadruples.json", build_sporadic())
    dump(FIXTURE_DIR / "lambert_cubes.json", build_lambert())
    dump(FIXTURE_DIR / "coxeter_volumes.json", build_coxeter())
    dump(FIXTURE_DIR / "continuous_families.json", export_catalog())


if __name__ == "__main__":
    main()
