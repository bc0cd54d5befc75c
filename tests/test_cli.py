from __future__ import annotations

import dataclasses
import json
import runpy
import sys
from pathlib import Path

import pytest

from sphertet import cli
from sphertet import families as families_mod
from sphertet import lambert as lambert_mod
from sphertet import records as records_mod
from sphertet.angles import angle
from sphertet.cli import (
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    PAPER_TRIPLE,
    main,
)
from sphertet.records import (
    load_sporadic_fixture,
    parse_sporadic_csv,
    read_records,
    sporadic_csv,
)
from sphertet.trigpoly import PositivityError

SCRIPT = (Path(__file__).resolve().parent.parent / "scripts"
          / "reproduce_classification.py")


def test_verify_one_family(capsys):
    assert main(["verify-families", "--family", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "family  3:" in out
    assert "identity=ok volume=ok domain=ok" in out
    assert "1/1 families verified" in out


def test_a_family_domain_that_fails_to_certify_is_a_mismatch(tmp_path, monkeypatch,
                                                             capsys):
    """A domain proof that raises fails that family alone: the other 41
    are still checked, every record is written, and the run exits 2."""
    real = families_mod.verify_domain

    def failing(fam):
        if fam.family_id == 7:
            raise PositivityError("no proof")
        return real(fam)

    monkeypatch.setattr(families_mod, "verify_domain", failing)
    assert main(["verify-families", "--out", str(tmp_path)]) == EXIT_MISMATCH
    out, err = capsys.readouterr()
    lines = [line for line in out.splitlines() if line.startswith("family ")]
    assert len(lines) == 42
    assert [line for line in lines if "FAIL" in line] == [
        "family  7: identity=ok volume=ok domain=FAIL (interval-bisection, no proof) [FAIL]"]
    assert "family 7 failed: domain" in err
    payloads = [r.payload for r in read_records(tmp_path / "families.jsonl")]
    assert [p["id"] for p in payloads] == list(range(1, 43))
    assert payloads[6] == {"id": 7, "identity": True, "volume": True, "domain": False,
                           "mode": "interval-bisection"}
    assert all(p["domain"] for p in payloads if p["id"] != 7)


@pytest.mark.parametrize("stage, count", [("raw", 790), ("realizable", 208)])
def test_the_earlier_stages_write_their_quadruples(stage, count, tmp_path, capsys):
    assert main(["search-quadruples", "--stage", stage, "--out", str(tmp_path)]) == EXIT_OK
    assert [p.name for p in tmp_path.iterdir()] == [f"{stage}.jsonl"]
    recs = read_records(tmp_path / f"{stage}.jsonl")
    assert len(recs) == count
    assert {r.kind for r in recs} == {"sporadic"}
    assert {tuple(sorted(r.payload)) for r in recs} == {("p", "q", "r", "s", "stage")}
    assert {r.payload["stage"] for r in recs} == {stage}


def test_a_sporadic_table_other_than_the_golden_is_a_mismatch(monkeypatch, capsys):
    real = records_mod.load_sporadic_fixture
    monkeypatch.setattr(records_mod, "load_sporadic_fixture", lambda: real()[1:])
    assert main(["search-quadruples"]) == EXIT_MISMATCH
    assert "fixture mismatch: 0 missing, 1 extra" in capsys.readouterr().err


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
    assert main(["certify"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--paper-example" in err and "--lift" in err


def test_catalog_export(tmp_path, capsys):
    assert main(["catalog", "--out", str(tmp_path)]) == EXIT_OK
    data = json.loads((tmp_path / "catalog.json").read_text())
    assert len(data["families"]["families"]) == 42
    assert len(data["coxeter"]) == 11


def test_triples_search(capsys):
    assert main(["search-triples"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "nontrivial" in out


@pytest.mark.parametrize("nontrivial", [
    (),
    (PAPER_TRIPLE, (angle(1, 3), angle(1, 3), angle(1, 2))),
    ((angle(1, 4), angle(1, 4), angle(1, 3)),),
])
def test_triples_other_than_the_papers_are_a_mismatch(monkeypatch, capsys,
                                                      nontrivial):
    real = cli.search_triples
    monkeypatch.setattr(cli, "search_triples", lambda cfg: dataclasses.replace(
        real(cfg), nontrivial=nontrivial))
    assert main(["search-triples"]) == EXIT_MISMATCH
    assert "(pi/4, pi/4, 2pi/3)" in capsys.readouterr().err


def test_lambert_continuous_family_is_a_mismatch(monkeypatch, capsys):
    real = lambert_mod.search_rational_lambert_cubes
    monkeypatch.setattr(
        lambert_mod, "search_rational_lambert_cubes",
        lambda: dataclasses.replace(real(), no_continuous_family=False))
    assert main(["search-lambert"]) == EXIT_MISMATCH
    assert "continuous family" in capsys.readouterr().err


def test_sporadic_stage_writes_jsonl_and_csv(tmp_path, capsys):
    assert main(["search-quadruples", "--out", str(tmp_path)]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "sporadic.csv", "sporadic.jsonl"]
    text = (tmp_path / "sporadic.csv").read_text()
    assert text == sporadic_csv(read_records(tmp_path / "sporadic.jsonl"))
    rows = parse_sporadic_csv(text)

    def content(rows):  # the numbering is ours, the rows are golden
        return {tuple(sorted((k, v) for k, v in r.items() if k != "no"))
                for r in rows}

    assert [r["no"] for r in rows] == list(range(1, 60))
    assert content(rows) == content(load_sporadic_fixture())


def test_reproduce_script_runs_the_cli_stages(tmp_path, monkeypatch, capsys):
    calls = []
    failing = set()

    def fake_main(argv):
        calls.append(argv)
        return EXIT_MISMATCH if argv[0] in failing else EXIT_OK

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(sys, "path", list(sys.path))
    script = runpy.run_path(str(SCRIPT))
    out = ["--out", str(tmp_path)]
    assert script["main"](out) == 0
    assert calls == [
        ["search-quadruples", *out],
        ["verify-families", *out],
        ["search-lambert", *out],
        ["search-triples", *out],
        ["certify", "--paper-example", "--lift", "8", *out],
    ]
    assert "\nOK in " in capsys.readouterr().out

    failing.add("search-lambert")
    assert script["main"](out) == 1
    assert "FAILED: Lambert cubes (exit 2) in " in capsys.readouterr().out


def test_out_dir_under_a_regular_file_is_an_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["catalog", "--out", str(blocker / "results")]) == EXIT_IO
    assert capsys.readouterr().err.startswith("io error:")


@pytest.mark.parametrize("command", ["catalog", "search-lambert"])
def test_empty_out_dir_is_a_usage_error(command, tmp_path, monkeypatch, capsys):
    """An empty --out is refused before the stage runs, so nothing is
    printed or written; an empty SPHERTET_OUT_DIR still counts as unset."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "env"))
    assert main([command, "--out", ""]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: --out")
    assert "directory" in err
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setenv(cli.OUT_DIR_ENV, "")
    assert main([command]) == EXIT_OK
    assert capsys.readouterr().out and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--tolerance", "--workers", "--format",
                                  "--triples", "--config"])
def test_search_flags_are_gone(flag, capsys):
    assert main(["search-quadruples", flag, "1"]) == EXIT_USAGE
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["search-quadruples", "--stage", "bogus"],
    ["verify-families", "--family", "x"],
    [],
])
def test_rejected_command_line_is_a_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: sphertet")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search-quadruples", "--help"])
    assert exc.value.code == 0
    assert "--stage" in capsys.readouterr().out


def test_unknown_family_is_a_usage_error(capsys):
    assert main(["verify-families", "--family", "99"]) == EXIT_USAGE
    assert "--family 99" in capsys.readouterr().err
