"""Paired benchmark runs of two checkouts, written to one JSON file.

    python3 tools/bench_compare.py --parent DIR --change DIR \
        --out BENCH_N.json [--pairs 3] [--seed 7]

Each pair runs `perfbench/run.py --workload W` (60-s runs) in both
checkouts, parent first in even pairs and change first in odd ones, for
W in verdicts and tables.  Then each checkout runs one traced round
(`--trace 1`), and a probe that draws the verdicts job's two sampled
exit laws (F2, 100,000 paths, depths 4 and 5, 2 workers) and reports the
peak RSS of the probe process and of its largest child (RUSAGE_CHILDREN),
which perfbench's `peak_rss_mb` does not see.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("verdicts", "tables")
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
PROBE = """
import json, resource
from greenwalk import harmonic_measure_estimate, srw_free
for depth in (4, 5):
    harmonic_measure_estimate(srw_free(2), depth, 100_000, {seed}, workers=2)
mb = lambda who: resource.getrusage(who).ru_maxrss / 1024
print(json.dumps({{"self_mb": mb(resource.RUSAGE_SELF),
                  "children_mb": mb(resource.RUSAGE_CHILDREN)}}))
"""


def perfbench(root: str, *args: str) -> dict:
    """The environment, detail and result lines of one perfbench run."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench in {root} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    out = {}
    for line in proc.stdout.splitlines():
        out.update(json.loads(line))
    return out


def quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list) -> dict:
    """Per metric: both sides' medians and quartiles, the median ratio
    and the number of pairs in which the change was lower."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        par = [p["parent"]["metrics"][name]["value"] for p in pairs]
        chg = [p["change"]["metrics"][name]["value"] for p in pairs]
        out[name] = {"parent": quartiles(par), "change": quartiles(chg),
                     "ratio": statistics.median(chg) / statistics.median(par),
                     "change_lower": sum(c < p for p, c in zip(par, chg)),
                     "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    seed = str(args.seed)
    result = {"command": " ".join(["tools/bench_compare.py", *sys.argv[1:]]),
              "environment": {}, "end_to_end": {}, "per_layer": {},
              "sampler_probe_rss_mb": {}}
    for workload in WORKLOADS:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs = {side: perfbench(roots[side], "--workload", workload,
                                    "--seed", seed) for side in order}
            pairs.append({"order": list(order), **{
                side: {"metrics": r["metrics"], "failed": r["failed"],
                       "attempted": r["attempted"],
                       "setup_s": r["detail"]["setup_s"]}
                for side, r in runs.items()}})
            for side, r in runs.items():
                result["environment"][side] = r["environment"]
            print(f"{workload} pair {i + 1}: " + ", ".join(
                f"{side} wall {r['metrics']['wall_s']['value']:.3f} setup "
                f"{r['metrics']['setup_s']['value']:.3f}"
                for side, r in runs.items()), file=sys.stderr)
        result["end_to_end"][workload] = {"pairs": pairs,
                                          "summary": summarize(pairs)}
    env = dict(os.environ, **THREAD_ENV)
    for side, root in roots.items():
        traced = perfbench(root, "--workload", "verdicts", "--seed", seed,
                           "--trace", "1")
        result["per_layer"][side] = {
            name: m["value"] for name, m in traced["metrics"].items()}
        result["per_layer"][side]["failed"] = traced["failed"]
        env["PYTHONPATH"] = os.path.join(root, "src")
        probe = subprocess.run([sys.executable, "-c", PROBE.format(seed=seed)],
                               cwd=root, env=env, capture_output=True,
                               text=True, check=True)
        result["sampler_probe_rss_mb"][side] = json.loads(probe.stdout)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
