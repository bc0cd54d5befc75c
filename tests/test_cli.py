from __future__ import annotations

import json

import pytest

from sphertet.cli import EXIT_IO, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from sphertet.records import read_records


def test_verify_one_family(capsys):
    assert main(["verify-families", "--family", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "family  3:" in out
    assert "identity=ok volume=ok domain=ok" in out
    assert "1/1 families verified" in out


def test_search_lambert_writes_records(tmp_path, capsys):
    assert main(["search-lambert", "--out", str(tmp_path)]) == EXIT_OK
    recs = read_records(tmp_path / "lambert.jsonl")
    assert len(recs) == 2
    assert {r.kind for r in recs} == {"lambert"}
    assert "scanned 1771 triples" in capsys.readouterr().out


def test_certify_with_lift(capsys):
    assert main(["certify", "--paper-example", "--lift", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "recheck" in out
    assert "n=5" in out


def test_certify_lift_below_three_is_a_usage_error(capsys):
    assert main(["certify", "--lift", "2"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--lift 2" in err and "at least 3" in err


def test_certify_requires_a_task(capsys):
    assert main(["certify"]) == EXIT_MISMATCH


def test_catalog_export(tmp_path, capsys):
    assert main(["catalog", "--out", str(tmp_path)]) == EXIT_OK
    data = json.loads((tmp_path / "catalog.json").read_text())
    assert len(data["families"]["families"]) == 42
    assert len(data["coxeter"]) == 11


def test_triples_search(capsys):
    assert main(["search-quadruples", "--triples"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "nontrivial" in out


@pytest.mark.parametrize("argv", [["--stage", "raw", "--format", "csv"],
                                  ["--stage", "realizable", "--format", "csv"],
                                  ["--triples", "--format", "csv"]])
def test_csv_outside_the_sporadic_stage_is_a_usage_error(tmp_path, capsys,
                                                          argv):
    rc = main(["search-quadruples", "--out", str(tmp_path), *argv])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert "only for --stage sporadic" in captured.err
    assert captured.out == "" and not any(tmp_path.iterdir())


def test_missing_config_file_is_an_io_error(tmp_path, capsys):
    rc = main(["search-lambert", "--config", str(tmp_path / "nope.json")])
    assert rc == EXIT_IO


def test_bad_config_shape_is_an_invariant_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1,2]")
    assert main(["search-lambert", "--config", str(cfg)]) == EXIT_USAGE
    assert "JSON object" in capsys.readouterr().err


def test_invalid_json_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{out: results")
    assert main(["catalog", "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(cfg) in err and "not valid JSON" in err


@pytest.mark.parametrize("key", ["tolernce", "tolerance", "workers",
                                 "out", "format"])
def test_unknown_config_key_or_bad_value_is_a_usage_error(tmp_path, capsys,
                                                          key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    assert main(["catalog", "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(cfg) in err and repr(key) in err


@pytest.mark.parametrize("flag", ["--tolerance", "--workers"])
def test_search_flags_are_gone(flag, capsys):
    with pytest.raises(SystemExit):
        main(["search-quadruples", flag, "1"])


def test_unknown_family_is_a_usage_error(capsys):
    assert main(["verify-families", "--family", "99"]) == EXIT_USAGE
    assert "--family 99" in capsys.readouterr().err


def test_config_file_supplies_the_out_dir(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "results")}))
    assert main(["catalog", "--config", str(cfg)]) == EXIT_OK
    assert (tmp_path / "results" / "catalog.json").exists()
