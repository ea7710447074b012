"""greenwalk benchmark: one workload, closed loop, every job a fresh process.

    python3 perfbench/run.py --workload tables|exitlaw|verdicts \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from `src/` as is;
there is nothing to build.  Each round runs the workload's jobs one after
another, each in a new `perfbench/worker.py` process (closed loop, one
client, at most 2 sampler threads, BLAS/OpenMP threads pinned to 1, one
fixed PYTHONHASHSEED).
Rounds repeat while the next one still fits in --seconds; at least one
runs.  Every operation's output is checked (see worker.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over
rounds.  `exitlaw` is not one of BENCHMARK.json's workloads, since its
2-worker timings on 2 shared vCPUs spread past the bound between sets of
runs; it runs in the traced round and by hand.  --trace 1 runs one traced round of every workload, whichever
--workload names, and reports the per-layer metrics of BENCHMARK.json;
spans go to perfbench/out/.  Lines before the last give the environment
and details; the last line is the result object.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

JOBS = {
    "tables": ["tables:product_solve", "tables:wreath_solve",
               "tables:wreath_series"],
    "exitlaw": ["exitlaw"],
    "verdicts": ["verdicts"],
}
# each workload's two timed parts, reported in the detail line under the
# names in named_metrics
PARTS = {
    "tables": ("solve", "series"),
    "exitlaw": ("paths_w2", "paths_w1"),
    "verdicts": ("residuals", "other"),
}
LAYERS = ("groups", "kernels", "boundary", "measures", "sampler", "rng",
          "conformal")
MIN_SETUPS = 3
DEADLINE_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
# str hashes decide dict and set order in the cell loops, which moved a
# verdicts round by up to a quarter between processes; one fixed hash seed
# keeps that out of the spread
HASH_ENV = {"PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.children: list = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def spawn(self, job: str, trace: int, setup_only: bool = False) -> dict:
        a = self.args
        cmd = [sys.executable, WORKER, "--job", job, "--seed", str(a.seed),
               "--scale", a.scale, "--trace", str(trace),
               "--reference", a.reference]
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV, **HASH_ENV)
        t0 = time.time()
        try:
            proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"job {job} passed the {DEADLINE_S:.0f} s "
                             "deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"job {job} exited {proc.returncode}:\n"
                             + proc.stderr[-2000:])
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if not os.path.abspath(out["greenwalk_file"]).startswith(SRC + os.sep):
            raise BenchError(f"imported {out['greenwalk_file']}, not {SRC}")
        self.children.append(out)
        return out

    def round(self, workload: str, trace: int) -> dict:
        t0 = time.monotonic()
        outs = [self.spawn(job, trace) for job in JOBS[workload]]
        timed, work = {}, {}
        for out in outs:
            for part, s in out["timed"].items():
                timed[part] = timed.get(part, 0.0) + s
                work[part] = work.get(part, 0) + out["work"][part]
        extra_attempted, extra_failed, failures = cross_route(outs)
        first, second = PARTS[workload]
        return {
            "outs": outs,
            "duration": time.monotonic() - t0,
            "wall_s": sum(timed.values()),
            "primary_s": timed.get(first, 0.0),
            "secondary_s": timed.get(second, 0.0),
            "work": work,
            "setups": [o["setup_s"] for o in outs],
            "attempted": sum(o["attempted"] for o in outs) + extra_attempted,
            "failed": sum(o["failed"] for o in outs) + extra_failed,
            "failures": [f for o in outs for f in o["failures"]] + failures,
        }


def cross_route(outs: list):
    """Wreath table by solve and by series: every exposed entry agrees
    within the sum of the two reported errors."""
    entries = {o["job"]: o.get("entries") for o in outs}
    solve = entries.get("tables:wreath_solve")
    series = entries.get("tables:wreath_series")
    if "tables:wreath_series" not in entries:
        return 0, 0, []
    if not solve or not series or len(solve) != len(series):
        return 1, 1, [{"op": "tables.cross_route",
                       "problems": ["solve and series tables missing or of "
                                    "different size"]}]
    bad = [i for i, ((vs, es), (vr, er)) in enumerate(zip(solve, series))
           if abs(vs - vr) > es + er + 1e-12]
    if bad:
        return 1, 1, [{"op": "tables.cross_route",
                       "problems": [f"{len(bad)} entries disagree beyond "
                                    f"their errors, first at index {bad[0]}"]}]
    return 1, 0, []


def summary(values: list) -> dict:
    return {"median": statistics.median(values), "n": len(values),
            "min": min(values), "max": max(values)}


def self_times(spans: list) -> dict:
    """Per-layer self time: each span's duration minus the part covered by
    its child spans, summed by layer."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["run"], s["parent"])
            child[key] = child.get(key, 0.0) + s["end"] - s["start"]
    totals = {}
    for s in spans:
        own = s["end"] - s["start"] - child.get((s["run"], s["id"]), 0.0)
        totals[s["layer"]] = totals.get(s["layer"], 0.0) + own
    return totals


def environment(runner: Runner) -> dict:
    env = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
           "seed": runner.args.seed, "scale": runner.args.scale,
           "threads": THREAD_ENV, "max_sampler_workers": 2,
           **HASH_ENV}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip()
                                     for line in fh
                                     if line.startswith("model name")), None)
    except OSError:
        env["cpu_model"] = None
    for idx in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(idx, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(idx, "size")) as fh:
                size = fh.read().strip()
            with open(os.path.join(idx, "type")) as fh:
                kind = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind != "Instruction":
            env[f"l{level}_cache"] = size
    if runner.children:
        env.update(runner.children[0]["versions"])
    env["git_commit"] = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        env["git_commit"] = proc.stdout.strip() or None
    lines, digest = 0, hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "greenwalk", "*.py"))):
        with open(path, "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        digest.update(os.path.basename(path).encode() + b"\0" + data)
    env["src_lines"] = lines
    env["src_sha256"] = digest.hexdigest()[:16]
    return env


def end_to_end(runner: Runner, workload: str) -> tuple:
    rounds = []
    while True:
        rounds.append(runner.round(workload, 0))
        used = time.monotonic() - runner.start
        last = rounds[-1]["duration"]
        if used + last > runner.args.seconds or runner.remaining() < 2 * last:
            break
    setups = [s for r in rounds for s in r["setups"]]
    while len(setups) < MIN_SETUPS and runner.remaining() > 30:
        setups.append(runner.spawn(JOBS[workload][0], 0,
                                   setup_only=True)["setup_s"])
    series = {k: [r[k] for r in rounds]
              for k in ("wall_s", "primary_s", "secondary_s")}
    series["setup_s"] = setups
    values = {"wall_s": statistics.median(series["wall_s"]),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": max(o["maxrss_mb"] for o in runner.children)}
    detail = {k: summary(v) for k, v in series.items()}
    detail.update(named_metrics(workload, rounds[0]["work"],
                                statistics.median(series["primary_s"]),
                                statistics.median(series["secondary_s"])))
    return values, rounds, detail


def named_metrics(workload: str, work: dict, prim: float, sec: float) -> dict:
    """The two timed parts under the names they have on `workload`."""
    first, second = PARTS[workload]
    if workload == "tables":
        return {"solve_tables_s": prim, "series_tables_s": sec}
    if workload == "exitlaw":
        return {"paths_per_s": work[first] / prim,
                "paths_per_s_1w": work[second] / sec}
    return {"residuals_per_s": work[first] / prim, "other_verdicts_s": sec}


def per_layer(runner: Runner, workload: str) -> tuple:
    """One traced round of every workload, so that every workload reports
    every layer; `workload` only names the spans file."""
    rounds = {w: runner.round(w, 1) for w in JOBS}
    outs = [o for r in rounds.values() for o in r["outs"]]
    layer, spans = {}, []
    for o in outs:
        layer.update(o["layer"])
        spans += o["spans"]
    for name, secs in self_times(spans).items():
        if name in LAYERS:
            layer[f"{name}.self_s"] = secs
    parts = ("product_solve", "wreath_solve", "wreath_series")
    layer["kernels.elements_per_s"] = (
        sum(layer[f"kernels.work_elements.{p}"] for p in parts)
        / sum(layer[f"kernels.table_s.{p}"] for p in parts))
    layer["trace.overhead_s"] = sum(o["trace_overhead_s"] for o in outs)
    layer["trace.spans"] = len(spans)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{runner.args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": runner.args.seed,
                   "spans": spans}, fh)
    detail = {"traced_wall_s": {w: r["wall_s"] for w, r in rounds.items()},
              "spans_file": os.path.relpath(path, ROOT)}
    return layer, list(rounds.values()), detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(JOBS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "small"), default="full",
                    help="small: reduced sizes for the self-tests")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    for need in (os.path.join(SRC, "greenwalk", "__init__.py"), spec_path,
                 args.reference):
        if not os.path.isfile(need):
            print(f"perfbench: {need} not found; run from a greenwalk "
                  "checkout", file=sys.stderr)
            return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    runner = Runner(args)
    try:
        if args.trace:
            values, rounds, detail = per_layer(runner, args.workload)
        else:
            values, rounds, detail = end_to_end(runner, args.workload)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    detail.update({"workload": args.workload, "rounds": len(rounds),
                   "failed_frac": failed / max(attempted, 1),
                   "failures": [f for r in rounds for f in r["failures"]][:20]})
    print(json.dumps({"environment": environment(runner)}))
    print(json.dumps({"detail": detail}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
