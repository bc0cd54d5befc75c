#!/usr/bin/env python3
"""Run the whole classification end to end and write every artifact.

Runs the stage commands of the ``sphertet`` CLI in turn, in this
process, through ``sphertet.cli.main`` with ``--out DIR``.  Each command
decides its result exactly, checks it against the golden tables and the
paper, writes its records (sporadic.jsonl and sporadic.csv,
families.jsonl, lambert.jsonl, triples.jsonl, certificate.jsonl) and
returns an exit code.  The script exits 1 and names the failed stages
when any command returns a nonzero code.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sphertet import cli  # noqa: E402

STAGES = (
    ("sporadic quadruples", ["search-quadruples"]),
    ("continuous families", ["verify-families"]),
    ("Lambert cubes", ["search-lambert"]),
    ("three-cosine solutions", ["search-triples"]),
    ("certificate and suspension lifts",
     ["certify", "--paper-example", "--lift", "8"]),
)


def run(out_dir: Path) -> int:
    t_start = time.monotonic()
    failed = []
    for title, argv in STAGES:
        print(f"\n== {title} " + "=" * max(0, 66 - len(title)), flush=True)
        rc = cli.main([*argv, "--out", str(out_dir)])
        if rc:
            failed.append(f"{title} (exit {rc})")
    status = "FAILED: " + ", ".join(failed) if failed else "OK"
    print(f"\n{status} in {time.monotonic() - t_start:.1f}s; "
          f"artifacts in {out_dir}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("results"),
                        help="directory for the result artifacts")
    return run(parser.parse_args(argv).out)


if __name__ == "__main__":
    sys.exit(main())
