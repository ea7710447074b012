"""Paired benchmark runs of two checkouts, written to one JSON file.

    python3 tools/bench_compare.py --parent DIR --change DIR \
        --out BENCH_N.json [--pairs 3] [--seed 7]

Each pair runs `perfbench/run.py --workload W` (60-s runs) in both
checkouts, parent first in even pairs and change first in odd ones, for
W in verdicts and tables.  Then the checkouts run TRACED_ROUNDS traced
rounds each (`--trace 1`), in alternating order, and every per-layer
metric is the median over a side's rounds (the rounds themselves are
kept under `per_layer_rounds`).  A probe draws the verdicts job's two
sampled exit laws (F2, 100,000 paths, depths 4 and 5, 2 workers) and
reports the peak RSS of the probe process and of its largest child
(RUSAGE_CHILDREN), which perfbench's `peak_rss_mb` does not see
(`sampler_probe_rss_mb`), each exit law's wall seconds
(`sampler_probe_wall_s`) and the user plus system CPU seconds of the
probe's sampling workers (`sampler_probe_cpu_s`, RUSAGE_CHILDREN), a
sampler number that a busy host moves less than wall time.  A
second probe runs each checkout's perfbench/worker.py in-process, GC_RUNS
times per job of GC_JOBS (verdicts and the three tables jobs), and
records every generation-2 collection with its duration in ms and where
it fell: in set-up, in a timed call (the part of the job that `wall_s`
sums) or between timed calls, together with the gc counts at the end of
set-up, the job's own `maxrss_mb` and the `greenwalk.*` modules the job
loaded (`gc_probe`), so that the job behind a change of `peak_rss_mb`
shows.  Each paired run also records `cpu_s`, the user plus system CPU
seconds of the perfbench processes it started (the RUSAGE_CHILDREN delta
around them), and each workload's `cpu_s` gives the median per side: a
slower host shows as wall time up with CPU time flat.  `src_lines`
repeats each side's line count of src/greenwalk/*.py from its perfbench
environment, and `src_lines_by_module` splits it by module file, counted
the same way (newlines per file), so a change shows where its lines went.

Per end-to-end metric, `gain_met` says whether the change is better in
at least 9 of 10 pairs and its median beats the parent's by more than the
parent's interquartile range; "better" is the metric's direction in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import resource
import statistics
import subprocess
import sys

WORKLOADS = ("verdicts", "tables")
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
PROBE = """
import json, resource, time
from greenwalk import harmonic_measure_estimate, srw_free
wall_s = {{}}
for depth in (4, 5):
    start = time.perf_counter()
    harmonic_measure_estimate(srw_free(2), depth, 100_000, {seed}, workers=2)
    wall_s[f"d{{depth}}"] = time.perf_counter() - start
mb = lambda who: resource.getrusage(who).ru_maxrss / 1024
children = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({{"rss_mb": {{"self_mb": mb(resource.RUSAGE_SELF),
                              "children_mb": mb(resource.RUSAGE_CHILDREN)}},
                  "wall_s": wall_s,
                  "cpu_s": children.ru_utime + children.ru_stime}}))
"""
TRACED_ROUNDS = 3
GC_RUNS = 3
GC_JOBS = ("verdicts", "tables:product_solve", "tables:wreath_solve",
           "tables:wreath_series")
GC_PROBE = """
import contextlib, gc, io, json, sys, time
sys.path.insert(0, "perfbench")
import worker
state = {{"where": "setup", "timed": False, "start": 0.0, "counts": None}}
collections = []
def on_gc(phase, info):
    if info["generation"] != 2:
        return
    if phase == "start":
        state["start"] = time.perf_counter()
        return
    where = "timed" if state["timed"] else state["where"]
    collections.append({{"where": where,
                        "ms": 1e3 * (time.perf_counter() - state["start"])}})
gc.callbacks.append(on_gc)
call, setup_done = worker.Job.call, worker.Job.setup_done
def timed_call(self, part, *args, **kwargs):
    outer = state["timed"]
    state["timed"] = outer or bool(part)
    try:
        return call(self, part, *args, **kwargs)
    finally:
        state["timed"] = outer
def end_of_setup(self):
    state["where"] = "untimed"
    state["counts"] = gc.get_count()
    setup_done(self)
worker.Job.call, worker.Job.setup_done = timed_call, end_of_setup
with contextlib.redirect_stdout(io.StringIO()) as out:
    worker.main(["--job", "{job}", "--seed", "{seed}",
                 "--t0", repr(time.time()),
                 "--reference", "perfbench/reference.json"])
job = json.loads(out.getvalue().splitlines()[-1])
print(json.dumps({{**{{where: {{"count": len(ms), "ms": ms}} for where, ms in (
    (w, [c["ms"] for c in collections if c["where"] == w])
    for w in ("setup", "timed", "untimed"))}},
    "setup_done_counts": state["counts"], "maxrss_mb": job["maxrss_mb"],
    "failed": job["failed"], "greenwalk_modules": sorted(
        m for m in sys.modules if m.startswith("greenwalk."))}}))
"""


def child_cpu_s() -> float:
    """User plus system CPU seconds of the waited-for child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def perfbench(root: str, *args: str) -> dict:
    """The environment, detail and result lines of one perfbench run, and
    its processes' CPU seconds as `cpu_s`."""
    start = child_cpu_s()
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench in {root} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    out = {"cpu_s": child_cpu_s() - start}
    for line in proc.stdout.splitlines():
        out.update(json.loads(line))
    return out


def src_lines_by_module(root: str) -> dict:
    """{file name: newline count} for each src/greenwalk/*.py of a
    checkout."""
    out = {}
    for path in sorted(glob.glob(os.path.join(root, "src", "greenwalk",
                                              "*.py"))):
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = fh.read().count(b"\n")
    return out


def quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list, better: dict) -> dict:
    """Per metric: both sides' medians and quartiles, the median ratio,
    the number of pairs in which the change was lower and `gain_met`."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        par = [p["parent"]["metrics"][name]["value"] for p in pairs]
        chg = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if better[name] == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in zip(par, chg))
        q = quartiles(par)
        gain = sign * (q["median"] - statistics.median(chg))
        out[name] = {"parent": q, "change": quartiles(chg),
                     "ratio": statistics.median(chg) / q["median"],
                     "change_lower": sum(c < p for p, c in zip(par, chg)),
                     "pairs": len(pairs),
                     "gain_met": wins >= math.ceil(0.9 * len(pairs))
                     and gain > q["q3"] - q["q1"]}
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
              "sampler_probe_rss_mb": {}, "sampler_probe_wall_s": {},
              "sampler_probe_cpu_s": {}, "gc_probe": {}}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"]
                  for m in json.load(fh)["end_to_end"]}
    for workload in WORKLOADS:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs = {side: perfbench(roots[side], "--workload", workload,
                                    "--seed", seed) for side in order}
            pairs.append({"order": list(order), **{
                side: {"metrics": r["metrics"], "cpu_s": r["cpu_s"],
                       "failed": r["failed"], "attempted": r["attempted"],
                       "setup_s": r["detail"]["setup_s"]}
                for side, r in runs.items()}})
            for side, r in runs.items():
                result["environment"][side] = r["environment"]
            print(f"{workload} pair {i + 1}: " + ", ".join(
                f"{side} wall {r['metrics']['wall_s']['value']:.3f} setup "
                f"{r['metrics']['setup_s']['value']:.3f} cpu {r['cpu_s']:.2f}"
                for side, r in runs.items()), file=sys.stderr)
        result["end_to_end"][workload] = {
            "pairs": pairs, "summary": summarize(pairs, better),
            "cpu_s": {side: statistics.median(p[side]["cpu_s"] for p in pairs)
                      for side in roots}}
    result["src_lines"] = {side: env["src_lines"]
                           for side, env in result["environment"].items()}
    result["src_lines_by_module"] = {side: src_lines_by_module(root)
                                     for side, root in roots.items()}
    env = dict(os.environ, **THREAD_ENV)
    rounds = {"parent": [], "change": []}
    for i in range(TRACED_ROUNDS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            traced = perfbench(roots[side], "--workload", "verdicts",
                               "--seed", seed, "--trace", "1")
            rounds[side].append({"failed": traced["failed"], **{
                name: m["value"] for name, m in traced["metrics"].items()}})
    result["per_layer_rounds"] = rounds
    for side, runs in rounds.items():
        result["per_layer"][side] = {name: statistics.median(
            r[name] for r in runs) for name in runs[0]}
        result["per_layer"][side]["failed"] = sum(r["failed"] for r in runs)
    for side, root in roots.items():
        env["PYTHONPATH"] = os.path.join(root, "src")
        probe = subprocess.run([sys.executable, "-c", PROBE.format(seed=seed)],
                               cwd=root, env=env, capture_output=True,
                               text=True, check=True)
        for name, value in json.loads(probe.stdout).items():
            result[f"sampler_probe_{name}"][side] = value
        result["gc_probe"][side] = {job: [json.loads(subprocess.run(
            [sys.executable, "-c", GC_PROBE.format(job=job, seed=seed)],
            cwd=root, env=env, capture_output=True, text=True,
            check=True).stdout) for _ in range(GC_RUNS)] for job in GC_JOBS}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
