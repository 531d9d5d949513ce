"""Time one benchmark set-up in a fresh interpreter and print the seconds.

Set-up is importing tropvor, generating the workload's inputs and loading
the reference outputs.  run.py starts this several times and reports the
median as setup_s:

    python3 perfbench/setup_probe.py --workload lattice_cells --seed 1
"""

from __future__ import annotations

import argparse
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    t0 = perf_counter()
    mods = workloads.load_modules(HERE.parent)
    workloads.build(args.workload, args.seed, mods, HERE / "out")
    workloads.load_reference()
    print(f"{perf_counter() - t0:.9f}")


if __name__ == "__main__":
    main()
