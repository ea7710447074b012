"""Every workload, every end-to-end metric, over one or more seeds.

    python3 perfbench/report.py [--seeds 7] [--trace] [--out FILE]

Runs `run.py` once per (workload, seed), in turn, for BENCHMARK.json's
workloads and the ungated `exitlaw`, and prints each
end-to-end metric by name and unit with its median, quartiles, spread
(quartile distance over median, as the acceptance rule for a benchmark
reads it) and bound, plus the workload-specific timings and the failed
fraction.  --trace adds one traced run and prints every per-layer metric.
--out writes all of it as JSON; perfbench/baseline.json was made this way
at the seed commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import JOBS, ROOT


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return (json.loads(lines[0])["environment"],
            json.loads(lines[-2])["detail"], json.loads(lines[-1]))


def quartiles(values: list) -> dict:
    med = statistics.median(values)
    out = {"median": med, "n": len(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="7",
                    help="comma-separated seeds, one run per workload each")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(f"{ROOT}/BENCHMARK.json") as fh:
        spec = json.load(fh)
    seeds = [int(s) for s in args.seeds.split(",")]
    report = {"seeds": seeds, "workloads": {}}
    ok = True
    # every job, the ungated exitlaw too; its bound column is information
    for w in JOBS:
        runs = []
        for seed in seeds:
            env, detail, result = bench(w, seed, spec["run_seconds"], 0)
            runs.append((detail, result))
            ok &= result["correct"]
        report["environment"] = env
        entry = report["workloads"][w] = {
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "metrics": {}, "named": {}}
        print(f"{w}: {len(runs)} runs, failed_frac "
              f"{entry['failed'] / entry['attempted']:.3g}")
        for m in spec["end_to_end"]:
            q = quartiles([r["metrics"][m["name"]]["value"] for _, r in runs])
            entry["metrics"][m["name"]] = {**q, "unit": m["unit"],
                                           "bound": m["bound"]}
            spread = f"{q['spread']:7.2%}" if "spread" in q else "      -"
            print(f"  {m['name']:14s} {q['median']:12.5g} {m['unit']:6s}"
                  f" spread {spread}  bound {m['bound']:.0%}")
        named = [k for k, v in runs[0][0].items()
                 if isinstance(v, float) and k != "failed_frac"]
        for k in named:
            q = quartiles([d[k] for d, _ in runs])
            entry["named"][k] = q
            print(f"  {k:20s} {q['median']:12.5g}")
    if args.trace:
        _, detail, result = bench(spec["workloads"][0]["name"], seeds[0],
                                  spec["run_seconds"], 1)
        ok &= result["correct"]
        report["per_layer"] = result["metrics"]
        print("per layer (one traced run of every workload):")
        for name, v in result["metrics"].items():
            print(f"  {name:46s} {v['value']:12.5g} {v['unit']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
