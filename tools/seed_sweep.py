"""The acceptance battery over seeds 1..N, tabulated check by check.

    python3 tools/seed_sweep.py [--seeds 40] [--samples 1000000] [--src DIR]

`--src` is the `src` directory whose greenwalk is imported (default: this
checkout's), so one copy of the script sweeps any checkout.  For each
seed the script runs `acceptance.run_all(seed, WORKERS, samples)`, then
prints one JSON table: for every check its name, the number of seeds it
passed and the seeds it failed, and for the checks that grade the sampled
F_2 exit law by z-scores (Z_FIELDS) the largest value of each z field over
the seeds with the seed where it occurs.  The table holds no timings and
its keys are sorted, so a re-run prints the same bytes; a change that
moves no sampled report byte prints the same table as its parent.  The
script only reads reports: no check, bar or tolerance changes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKERS = 2
# the z fields of the sampled checks' details, by check number
Z_FIELDS = {6: ("worst_z_depth1", "worst_z_depth2"), 7: ("worst_z",),
            11: ("worst_z_beta1",), 12: ("worst_conformality_z",)}


def sweep(run_all, seeds, samples: int) -> dict:
    """The table for these seeds, from `run_all(seed, WORKERS, samples)`."""
    checks = {}
    for seed in seeds:
        report, _ = run_all(seed, workers=WORKERS, samples=samples)
        for c in report["checks"]:
            row = checks.setdefault(c["number"], {
                "name": c["name"], "passed": 0, "failing_seeds": []})
            if c["passed"]:
                row["passed"] += 1
            else:
                row["failing_seeds"].append(seed)
            for name in Z_FIELDS.get(c["number"], ()):
                worst = row.setdefault("worst_z", {})
                z = c["detail"][name]
                if name not in worst or z > worst[name]["z"]:
                    worst[name] = {"z": z, "seed": seed}
    failing = sorted({s for row in checks.values()
                      for s in row["failing_seeds"]})
    return {"seeds": list(seeds), "samples": samples, "checks": checks,
            "failing_seeds": failing}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=40)
    ap.add_argument("--samples", type=int, default=1_000_000)
    ap.add_argument("--src", default=str(Path(__file__).parent.parent / "src"))
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from greenwalk.acceptance import run_all

    table = sweep(run_all, range(1, args.seeds + 1), args.samples)
    print(json.dumps(table, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
