from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sphertet.angles import RationalAngle
from sphertet.geometry import EdgeLengths, PythagoreanQuadruple, VolumeCoefficient
from sphertet.records import (
    ResultRecord,
    config_hash,
    frac_obj,
    frac_str,
    load_coxeter_fixture,
    load_family_fixture,
    load_lambert_fixture,
    load_sporadic_fixture,
    make_provenance,
    obj_frac,
    parse_sporadic_csv,
    read_records,
    sporadic_comparison,
    sporadic_csv,
    write_records,
)
from sphertet.search import DenominatorProfile, SearchConfig, SporadicRow

fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)


def _fixture_row_objects():
    rows = []
    for r in load_sporadic_fixture():
        quad = PythagoreanQuadruple.of(
            *(RationalAngle.from_fraction(r[k]) for k in "pqrs")
        )
        lengths = EdgeLengths(
            *(RationalAngle.from_fraction(r[k]) for k in ("lp", "lq", "lr", "ls"))
        )
        rows.append(SporadicRow(quad, lengths, VolumeCoefficient(r["vol"])))
    return rows


# -- fraction encodings --------------------------------------------------------


@given(fractions)
def test_fraction_object_round_trip(f):
    assert obj_frac(frac_obj(f)) == f


@given(fractions)
def test_fraction_string_round_trip(f):
    assert Fraction(frac_str(f)) == f


def test_integers_print_without_denominator():
    assert frac_str(Fraction(3, 1)) == "3"
    assert frac_str(Fraction(-7, 2)) == "-7/2"


# -- result records ------------------------------------------------------------


def test_record_round_trip_is_byte_identical():
    rec = ResultRecord(
        "sporadic",
        {"no": 1, "p": frac_obj(Fraction(2, 3)), "note": "x"},
        {"run_id": "abc", "config": "def", "timestamp": "t"},
    )
    text = rec.to_json()
    assert ResultRecord.from_json(text).to_json() == text


payloads = st.recursive(
    st.one_of(
        st.integers(min_value=-10**9, max_value=10**9),
        st.text(max_size=12),
        fractions.map(frac_obj),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)


@given(st.dictionaries(st.text(max_size=8), payloads, max_size=4))
def test_arbitrary_exact_payloads_round_trip(payload):
    rec = ResultRecord("certificate", payload, {"run_id": "r"})
    text = rec.to_json()
    assert ResultRecord.from_json(text).to_json() == text


def test_floats_are_rejected_anywhere_in_a_payload():
    with pytest.raises(TypeError):
        ResultRecord("sporadic", {"vol": 0.125}, {})
    with pytest.raises(TypeError):
        ResultRecord("sporadic", {"rows": [{"deep": [1, 2.5]}]}, {})


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError):
        ResultRecord("misc", {}, {})


def test_file_round_trip(tmp_path):
    recs = [
        ResultRecord("triple", {"i": i, "f": frac_obj(Fraction(i, 7))}, {"run_id": "r"})
        for i in range(1, 4)
    ]
    path = tmp_path / "out" / "records.jsonl"
    write_records(recs, path)
    back = read_records(path)
    assert [r.to_json() for r in back] == [r.to_json() for r in recs]


# -- provenance ----------------------------------------------------------------


def test_config_hash_tracks_the_config():
    assert config_hash(SearchConfig()) == config_hash(SearchConfig())
    assert config_hash(SearchConfig()) != config_hash(
        SearchConfig(profile=DenominatorProfile.length1_only()))
    assert config_hash(SearchConfig()) == config_hash(SearchConfig(workers=1))


def test_provenance_shape():
    prov = make_provenance(SearchConfig())
    assert set(prov) == {"run_id", "config_hash", "timestamp"}
    assert len(prov["run_id"]) == 32
    assert "T" in prov["timestamp"]


# -- CSV -----------------------------------------------------------------------


def test_sporadic_csv_round_trip():
    golden = load_sporadic_fixture()
    recs = []
    for r in golden:
        payload = {"no": r["no"]}
        payload.update({k: frac_obj(r[k]) for k in
                        ("p", "q", "r", "s", "lp", "lq", "lr", "ls", "vol")})
        recs.append(ResultRecord("sporadic", payload, {"run_id": "r"}))
    text = sporadic_csv(recs)
    assert text.splitlines()[0] == "no,p,q,r,s,lp,lq,lr,ls,vol"
    assert parse_sporadic_csv(text) == golden


# -- golden fixtures -----------------------------------------------------------


def test_sporadic_fixture_is_complete():
    rows = load_sporadic_fixture()
    assert len(rows) == 59
    assert sorted(r["no"] for r in rows) == list(range(1, 60))
    assert all(isinstance(r["vol"], Fraction) for r in rows)


def test_other_fixtures_load():
    lam = load_lambert_fixture()
    assert len(lam) == 2
    assert all(g["angles"] == tuple(sorted(g["angles"], reverse=True)) for g in lam)
    assert load_coxeter_fixture()["count"] == 11
    fam = load_family_fixture()
    assert len(fam["families"]) == 42
    assert obj_frac(fam["segment_end"]) == Fraction(1, 6)


# -- comparison against the golden rows -----------------------------------------


def test_comparison_accepts_the_golden_rows_and_flags_tampering():
    rows = _fixture_row_objects()
    report = SimpleNamespace(sporadic=tuple(rows))
    result = sporadic_comparison(report)
    assert result["match"]
    assert result["missing"] == [] and result["extra"] == []

    tampered = rows[:-1] + [
        SporadicRow(rows[-1].quadruple, rows[-1].lengths,
                    VolumeCoefficient(Fraction(1, 2)))
    ]
    bad = sporadic_comparison(SimpleNamespace(sporadic=tuple(tampered)))
    assert not bad["match"]
    assert len(bad["missing"]) == 1 and len(bad["extra"]) == 1
