#!/usr/bin/env python3
"""Check that traced operation counts repeat exactly at one seed.

    python3 bench/check_determinism.py --seed 3 [--workload sweep ...]

For each workload, runs ``bench/run.py --trace 1`` twice at ``--seed`` and
requires identical values for the counts below, then runs once more at a
fresh seed (``--fresh-seed``, random by default) and requires a correct
result.  Exits 1 on any mismatch or failed run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")
ROOT = RUN.parents[1]
DETERMINISTIC = (
    "phasenoise.average.nodes",
    "optimizer.refine.evals",
    "optimizer.refine.capped",
    "montecarlo.trials",
    "optimizer.perr_geomean",
    "phasenoise.wide_sigma.fail_share",
)


def traced(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", default=["sweep", "eval", "mc"])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--fresh-seed", type=int, default=int.from_bytes(os.urandom(4), "little"))
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args()

    ok = True
    for workload in args.workload:
        first, second = (traced(workload, args.seed, args.seconds) for _ in range(2))
        for name in DETERMINISTIC:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            same = a == b
            ok &= same
            print(f"{workload} seed {args.seed} {name}: {a!r} vs {b!r} "
                  f"{'identical' if same else 'DIFFERENT'}")
        fresh = traced(workload, args.fresh_seed, args.seconds)
        ok &= fresh["correct"]
        print(f"{workload} fresh seed {args.fresh_seed}: correct={fresh['correct']} "
              f"attempted={fresh['attempted']} failed={fresh['failed']}")
    print("deterministic" if ok else "NOT deterministic")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
