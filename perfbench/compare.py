#!/usr/bin/env python3
"""Compare two benchmark records written by ``perfbench/run.py``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both records with the ratio new/base.  Records made
with different mpmath backends (pure Python against gmpy2), Python or
library versions, or core counts are flagged: their timings measure the
environment as much as the code.  Exits 1 when the backends differ.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# environment keys whose difference makes timings incomparable
ENVIRONMENT_KEYS = ("mpmath_backend", "python", "implementation", "numpy",
                    "mpmath", "nproc", "machine")


def environment_mismatches(base: dict, new: dict) -> list[str]:
    """Environment keys on which two records differ."""
    return [k for k in ENVIRONMENT_KEYS if base.get(k) != new.get(k)]


def compare(base: dict, new: dict) -> tuple[list[str], bool]:
    """Report lines and whether the records are comparable at all."""
    lines = []
    if base["workload"] != new["workload"]:
        lines.append(f"different workloads: {base['workload']} / {new['workload']}")
    mismatches = environment_mismatches(base["environment"], new["environment"])
    for key in mismatches:
        lines.append(f"FLAG environment differs in {key}: "
                     f"{base['environment'].get(key)} / {new['environment'].get(key)}")
    for section in ("end_to_end", "per_layer"):
        a, b = base.get(section, {}), new.get(section, {})
        for name in sorted(set(a) & set(b)):
            ratio = f"{b[name] / a[name]:.3f}" if a[name] else "n/a"
            lines.append(f"{section:10s} {name:36s} {a[name]:14.6g} {b[name]:14.6g} {ratio}")
    return lines, "mpmath_backend" not in mismatches


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    lines, comparable = compare(base, new)
    print("\n".join(lines))
    if not comparable:
        print("NOT COMPARABLE: the records use different mpmath backends",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
