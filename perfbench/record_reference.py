"""Record the reference outputs that the benchmark checks against.

Runs every distinct operation of every workload at the default seed once,
requires its certificate to hold, and stores the SHA-256 of its canonical
output under the operation's key in reference.json.  Fixed inputs have the
same key on every seed, so their references are checked on every run; the
seeded random sets are checked against a reference only on the default seed.
Run it only on a commit whose outputs are trusted:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    mods = workloads.load_modules(HERE.parent)
    refs = {}
    for name in workloads.NAMES:
        wl = workloads.build(name, workloads.DEFAULT_SEED, mods, HERE / "out")
        for op in wl.ops():
            out = op.run()
            problem = op.certify(out)
            if problem:
                print(f"{name}: {op.key}: {problem}", file=sys.stderr)
                return 1
            refs[op.key] = op.digest(out)
        print(f"{name}: {len(wl.ops())} operations", file=sys.stderr)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
