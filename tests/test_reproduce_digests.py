"""The reproduce output, pinned byte for byte.

tests/reproduce_digests.json holds the sha256 of every artifact that
scripts/reproduce_classification.py writes, with each record's run_id
and timestamp masked, and of the stdout of `catalog` and of
`certify --paper-example --lift 8`.  A change that moves a record
rewrites that file and names the change:

    PYTHONPATH=src python tests/test_reproduce_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import runpy
import sys
import tempfile
from pathlib import Path

from sphertet import cli

DIGESTS = Path(__file__).resolve().with_name("reproduce_digests.json")
SCRIPT = (Path(__file__).resolve().parent.parent / "scripts"
          / "reproduce_classification.py")
STDOUTS = (["catalog"], ["certify", "--paper-example", "--lift", "8"])

_VOLATILE = re.compile(rb'"(run_id|timestamp)":"[^"]*"')


def masked_digest(data: bytes) -> str:
    return hashlib.sha256(_VOLATILE.sub(rb'"\1":""', data)).hexdigest()


def output_digests(out_dir: Path) -> dict[str, str]:
    """Digest of each artifact the reproduce script writes to out_dir,
    and of each pinned command's stdout, keyed by file name or command."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert runpy.run_path(str(SCRIPT))["run"](out_dir) == 0
    found = {path.name: masked_digest(path.read_bytes())
             for path in sorted(out_dir.iterdir())}
    for argv in STDOUTS:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        found[" ".join(argv) + " (stdout)"] = masked_digest(out.getvalue().encode())
    return found


def test_masking_hides_only_run_id_and_timestamp():
    line = b'{"x":1,"provenance":{"run_id":"%s","timestamp":"%s"}}'
    assert (masked_digest(line % (b"ab", b"2026-01-01"))
            == masked_digest(line % (b"cd", b"2027-02-02")))
    assert masked_digest(line % (b"ab", b"t")) != masked_digest(
        line.replace(b'"x":1', b'"x":2') % (b"ab", b"t"))


def test_reproduce_output_matches_the_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    pinned = json.loads(DIGESTS.read_text())
    found = output_digests(tmp_path)
    changed = {name: found.get(name) for name in sorted(pinned.keys() | found.keys())
               if pinned.get(name) != found.get(name)}
    assert not changed, ("outputs that differ from tests/reproduce_digests.json, "
                         "with their new digests: " + json.dumps(changed, indent=1))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps(output_digests(Path(tmp)), indent=1,
                                      sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
