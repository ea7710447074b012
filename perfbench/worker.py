"""One benchmark job in a fresh process.

`run.py` starts this script once per job, so every job pays interpreter
start, `import greenwalk` and ball enumeration, as a command-line user
does; `shared_ball`'s in-process cache never carries over between jobs.
The script calls only public names: `greenwalk.__all__`,
`groups.shared_ball`, `rng.block_rng` and `rng.block_count`.

Jobs:
  tables:product_solve | tables:wreath_solve | tables:wreath_series
  exitlaw | verdicts

A job sets up its inputs, then runs its timed operations, checking every
output against `reference.json` (values recorded at the seed commit) and
closed forms.  It prints one JSON line: setup time, timed parts, operation
counts, failures, peak RSS, and with --trace 1 its spans and per-layer
numbers.  With --record it prints the observed values instead of checking
them; `record_reference.py` uses that to write `reference.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

# Statistical checks run on whatever seed the benchmark is given, so a
# per-cell limit of 3 SE (the acceptance battery's, made for seed 7) would
# fail a correct program on several percent of seeds.  5 SE fails by
# chance about once in 10^6 checks.  At the reference seed the sampled
# measures must also match their recorded fingerprints exactly.
Z_GATE = 5.0
REFERENCE_SEED = 7
RNG_BLOCK = 4096  # rng.BLOCK_SIZE, the paths per block_rng stream
WREATH_REF_MIN_MASS = 0.01
TABLE_SAMPLE_ENTRIES = 64

SCALES = {
    "full": {
        # sized so that a round takes 5-8 s on 2 vCPUs and several rounds
        # fit in one run, whose median then drops the rounds that a burst
        # of host contention slowed
        "tables": {"product_solve": (5, 2, "linear-solve"),
                   "wreath_solve": (9, 6, "linear-solve"),
                   "wreath_series": (9, 6, "series")},
        # (label, walk, depth, paths, workers)
        "exitlaw": [("f2_w2", "f2", 4, 250_000, 2),
                    ("wreath_w2", "wreath", 2, 50_000, 2),
                    ("f2_w1", "f2", 4, 50_000, 1),
                    ("f2_small_w2", "f2", 4, 50_000, 2)],
        "verdict_paths": 100_000, "kms_words": 48, "extend_pairs": 100,
        "wreath_reference_paths": 2_000_000,
    },
    "small": {
        "tables": {"product_solve": (2, 2, "linear-solve"),
                   "wreath_solve": (4, 4, "linear-solve"),
                   "wreath_series": (4, 4, "series")},
        "exitlaw": [("f2_w2", "f2", 4, 20_000, 2),
                    ("wreath_w2", "wreath", 2, 8_000, 2),
                    ("f2_w1", "f2", 4, 8_000, 1),
                    ("f2_small_w2", "f2", 4, 8_000, 2)],
        "verdict_paths": 20_000, "kms_words": 8, "extend_pairs": 10,
        "wreath_reference_paths": 200_000,
    },
}
VERDICT_DEPTHS = (4, 5)


class Tracer:
    """Spans (name, layer, start, end, parent, run id) kept in memory.

    Disabled, `span` returns a shared null context, so the untraced run
    pays one attribute lookup and call per operation.
    """

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        self._null = nullcontext()

    def span(self, name: str, layer: str, **counters):
        if not self.enabled:
            return self._null
        return self._record(name, layer, counters)

    @contextmanager
    def _record(self, name, layer, counters):
        entry = {"id": len(self.spans), "name": name, "layer": layer,
                 "run": self.run_id,
                 "parent": self._stack[-1] if self._stack else None,
                 "counters": counters}
        self.spans.append(entry)
        self._stack.append(entry["id"])
        entry["start"] = time.perf_counter()
        try:
            yield entry
        finally:
            entry["end"] = time.perf_counter()
            self._stack.pop()


class SetupOnly(Exception):
    """Raised at the end of set-up in a --setup-only job."""


class Job:
    """Operation bookkeeping for one job: timing, checks and failures."""

    def __init__(self, tracer: Tracer, reference: dict | None, record: bool,
                 t0: float, setup_only: bool):
        self.tracer = tracer
        self.reference = reference
        self.record = record
        self.t0 = t0
        self.setup_only = setup_only
        self.setup_s = None
        self.observed: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.timed: dict = {}
        self.work: dict = {}
        self.durations: dict = {}
        self.layer: dict = {}
        self.trace_overhead = 0.0

    def call(self, part: str, fn, *args, work: int = 1, **kwargs):
        """Run one public call, adding its time to the timed part `part`,
        `work` items to that part's count, and the time to the duration
        list named after the function."""
        layer = fn.__module__.rsplit(".", 1)[-1]
        outer = time.perf_counter()
        with self.tracer.span(fn.__name__, layer, work=work):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
        if self.tracer.enabled:
            # what tracing adds to this call: the traced minus the untraced
            # time of the same call, free of run-to-run noise
            self.trace_overhead += time.perf_counter() - outer - dt
        if part:
            self.timed[part] = self.timed.get(part, 0.0) + dt
            self.work[part] = self.work.get(part, 0) + work
        self.durations.setdefault(fn.__name__, []).append(dt)
        return out

    def setup_done(self):
        """Marks the end of set-up: process start to here is setup_s."""
        self.setup_s = time.time() - self.t0
        if self.setup_only:
            raise SetupOnly

    def untimed(self, fn, *args, **kwargs):
        return self.call("", fn, *args, **kwargs)

    def op(self, key: str, fn, check, recorded: bool = False):
        """One checked operation: `fn()` gives observed values, `check`
        compares them with the reference (when `recorded`) and returns a
        list of problems."""
        self.attempted += 1
        try:
            obs = fn()
            if self.record:
                if recorded:
                    self.observed[key] = obs
                return obs
            problems = check(obs, self.reference.get(key))
        except Exception:  # an operation that raises counts as failed
            problems = [traceback.format_exc(limit=3)]
            obs = None
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"op": key, "problems": problems[:3]})
        return obs


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def fingerprint(m) -> str:
    canon = json.dumps(m.to_json_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def cell_table(m) -> dict:
    return {c["cyl"]: (c["mass"], c["se"]) for c in m.to_json_dict()["cells"]}


def make_walks(gw):
    wreath = gw.wreath_walk(2, 0.75, 0.4)
    f2 = gw.srw_free(2)
    return {"f2": f2, "wreath": wreath,
            "product": gw.product_walk(wreath, f2, 0.5)}


# -- tables ---------------------------------------------------------------------


def table_observation(gw, shared_ball, t, radius: int) -> dict:
    G = t.walk.group
    exposed = shared_ball(G, radius).elements
    stride = max(1, len(exposed) // TABLE_SAMPLE_ENTRIES)
    samples = {gw.serialize_element(G, g): [t.green_at(g), t.entry_error(g)]
               for g in exposed[::stride]}
    return {"ball_size": t.meta.get("ball_size"),
            "exposed": len(exposed),
            "series_terms": t.steps_used,
            "max_entry_error": t.meta["max_entry_error"],
            "green_at_e": [t.green_at_e, t.entry_error(G.identity())],
            "samples": samples}


def check_table(obs: dict, ref: dict) -> list:
    problems = []
    for key in ("ball_size", "exposed", "series_terms"):
        if obs[key] != ref[key]:
            problems.append(f"{key} {obs[key]} != reference {ref[key]}")
    if obs["max_entry_error"] > ref["max_entry_error"] * (1 + 1e-9):
        problems.append(f"max_entry_error grew: {obs['max_entry_error']} > "
                        f"{ref['max_entry_error']}")
    pairs = [("e", obs["green_at_e"], ref["green_at_e"])]
    if set(obs["samples"]) != set(ref["samples"]):
        problems.append("sampled elements differ from the reference")
    else:
        pairs += [(k, v, ref["samples"][k]) for k, v in obs["samples"].items()]
    for name, (v, e), (rv, re) in pairs:
        if not close(v, rv, e + re + 1e-12):
            problems.append(f"G(e,{name}) = {v} vs reference {rv} "
                            f"beyond errors {e} + {re}")
    return problems


def run_tables(gw, shared_ball, job: Job, part: str, scale: dict):
    walks = make_walks(gw)
    walk = walks["product" if part.startswith("product") else "wreath"]
    radius, margin, method = scale["tables"][part]
    G = walk.group
    job.setup_done()
    if job.tracer.enabled:
        # enumerate the work ball before the build, so that the build is
        # timed with its ball warm
        rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ball = job.untimed(shared_ball, G, radius + margin)
        rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ball_s = job.durations["shared_ball"][-1]
        sizes = ball.sphere_sizes()
        name = part.split("_")[0]
        if method == "linear-solve":  # the series job's ball is the same
            job.layer.update({
                f"groups.ball_s.{name}": ball_s,
                f"groups.ball_elements.{name}": len(ball),
                f"groups.elements_per_s.{name}": len(ball) / ball_s,
                f"groups.bytes_per_element.{name}":
                    (rss1 - rss0) * 1024 / len(ball),
                # BFS multiplies each element of spheres 0..r-1 by each
                # generator
                f"groups.ball_muls_computed.{name}":
                    sum(sizes[:-1]) * len(G.generators()),
            })
    timed_part = "series" if method == "series" else "solve"
    holder = {}

    def build():
        holder["t"] = job.call(timed_part, gw.build_kernel_table, walk,
                               radius=radius, margin=margin, method=method)
        return table_observation(gw, shared_ball, holder["t"], radius)

    obs = job.op(f"tables.{part}", build, check_table, recorded=True)
    if job.tracer.enabled and obs is not None:
        work = len(ball)
        half = len(shared_ball(G, radius + max(1, margin // 2)))
        balls = work + (half if method == "linear-solve" else 0)
        build_s = job.durations["build_kernel_table"][-1]
        job.layer.update({
            f"kernels.table_s.{part}": build_s,
            f"kernels.max_entry_error.{part}": obs["max_entry_error"],
            f"kernels.work_elements.{part}": work,
            # one G.mul per (ball element, step) for each operator built
            f"kernels.operator_muls_computed.{part}": balls * len(walk.steps),
        })
        if method == "series":
            job.layer["kernels.series_terms"] = obs["series_terms"]
    if not part.startswith("wreath") or "t" not in holder:
        return {}
    # the parent compares solve and series entry by entry
    t = holder["t"]
    return {"entries": [[t.green_at(g), t.entry_error(g)]
                        for g in shared_ball(G, radius).elements]}


# -- exit laws ------------------------------------------------------------------


def f2_closed_form_problems(gw, m) -> list:
    """Depth-1 masses 1/4 and depth-2 masses 1/12 within Z_GATE SE."""
    G = m.group
    problems = []
    for depth, target in ((1, 0.25), (2, 1.0 / 12.0)):
        for c in gw.all_cells(G, depth):
            z = abs(m.cell_mass(c) - target) / m.cell_se(c)
            if z > Z_GATE:
                problems.append(f"mass of {gw.cell_name(G, c)} is "
                                f"{z:.2f} SE from {target}")
    return problems


def measure_observation(m) -> dict:
    return {"fingerprint": fingerprint(m), "nonconverged": m.nonconverged,
            "cells": len(m.masses)}


def check_measure(obs: dict, ref: dict | None, seed: int) -> list:
    if seed == REFERENCE_SEED and ref and obs["fingerprint"] != ref["fingerprint"]:
        return [f"fingerprint {obs['fingerprint']} != reference "
                f"{ref['fingerprint']} at seed {seed}"]
    return []


def wreath_reference_problems(m, ref: dict) -> list:
    """Every bin heavier than WREATH_REF_MIN_MASS in the large-sample
    reference matches within Z_GATE combined standard errors."""
    got = cell_table(m)
    problems = []
    for name, (rm, rse) in ref["bins"].items():
        mass, se = got.get(name, (0.0, 0.0))
        z = abs(mass - rm) / math.hypot(se, rse)
        if z > Z_GATE:
            problems.append(f"bin {name}: {mass} vs reference {rm} ({z:.1f} SE)")
    return problems


def horizon(kind: str, depth: int) -> int:
    """The sampler's default horizons, passed explicitly."""
    return 2 * (depth + 20) + 114 if kind == "free" else 320


def sample(gw, job: Job, part: str, walk, depth: int, paths: int,
           workers: int, seed: int):
    return job.call(part, gw.harmonic_measure_estimate, walk, depth, paths,
                    seed, workers=workers,
                    horizon=horizon(walk.group.kind, depth), work=paths)


def run_exitlaw(gw, block_rng, block_count, job: Job, scale: dict, seed: int):
    walks = make_walks(gw)
    job.setup_done()
    measures, seconds = {}, {}
    for label, wname, depth, paths, workers in scale["exitlaw"]:
        part = "paths_w2" if workers == 2 else "paths_w1"

        def estimate(label=label, wname=wname, depth=depth, paths=paths,
                     workers=workers, part=part):
            m = sample(gw, job, part, walks[wname], depth, paths, workers, seed)
            measures[label] = m
            seconds[label] = job.durations["harmonic_measure_estimate"][-1]
            return measure_observation(m)

        def check(obs, ref, wname=wname, label=label):
            m = measures[label]
            problems = check_measure(obs, ref, seed)
            limit = 1e-3 if wname == "f2" else 1e-2
            if m.nonconverged > limit:
                problems.append(f"non-convergence {m.nonconverged} > {limit}")
            if wname == "f2":
                problems += f2_closed_form_problems(gw, m)
            else:
                problems += wreath_reference_problems(
                    m, job.reference["exitlaw.wreath_large"])
            return problems

        job.op(f"exitlaw.{label}", estimate, check, recorded=True)
    job.op("exitlaw.determinism",
           lambda: [fingerprint(measures["f2_w1"]),
                    fingerprint(measures["f2_small_w2"])],
           lambda obs, ref: [] if obs[0] == obs[1] else
           [f"1-worker fingerprint {obs[0]} != 2-worker {obs[1]}"])
    if job.tracer.enabled:
        # path steps are computed: paths x horizon, every path runs to it
        steps = {label: paths * horizon(walks[wname].group.kind, depth)
                 for label, wname, depth, paths, _ in scale["exitlaw"]}
        for label, m in measures.items():
            job.layer[f"sampler.path_steps_per_s.{label}"] = (
                steps[label] / seconds[label])
            job.layer[f"sampler.converged_frac.{label}"] = 1.0 - m.nonconverged
        job.layer["sampler.path_steps_computed"] = sum(steps.values())
        # the 1- and 2-worker F2 estimates have the same path count
        job.layer["sampler.scaling_eff"] = (
            job.layer["sampler.path_steps_per_s.f2_small_w2"]
            / (2 * job.layer["sampler.path_steps_per_s.f2_w1"]))
        # the sampler's draw call on the same block shapes: a rate it
        # cannot beat, since every path step consumes one draw
        _, _, depth, paths, _ = scale["exitlaw"][2]
        probs = [p for _, p in walks["f2"].steps]
        blocks = block_count(paths)
        with job.tracer.span("block_rng.choice", "rng", blocks=blocks):
            t0 = time.perf_counter()
            draws = 0
            for b in range(blocks):
                nb = min(RNG_BLOCK, paths - RNG_BLOCK * b)
                draws += block_rng(seed, b).choice(
                    len(probs), size=(nb, horizon("free", depth)), p=probs).size
            job.layer["rng.draws_per_s"] = draws / (time.perf_counter() - t0)
    return {}


def record_wreath_reference(gw, scale: dict) -> dict:
    """Large-sample wreath exit law (its own seed), the reference that
    seeded wreath estimates are checked against."""
    m = gw.harmonic_measure_estimate(make_walks(gw)["wreath"], 2,
                                     scale["wreath_reference_paths"], 12345,
                                     workers=2, horizon=horizon("wreath", 2))
    bins = {k: v for k, v in cell_table(m).items()
            if v[0] >= WREATH_REF_MIN_MASS}
    return {"paths": scale["wreath_reference_paths"], "seed": 12345,
            "bins": bins}


# -- verdicts -------------------------------------------------------------------


def rand_word(rng: random.Random, k: int, length: int) -> tuple:
    word = []
    for _ in range(length):
        choices = [s for s in range(-k, k + 1)
                   if s != 0 and not (word and word[-1] == -s)]
        word.append(rng.choice(choices))
    return tuple(word)


# two-factor word shapes: (|g1|, length of f1's cell, length of f2's cell
# with 0 for f2 = 1); every seed times the same mix of shapes
KMS_SHAPES = [(lg, lc, k) for lg in (1, 2) for lc in (1, 2) for k in (0, 1, 2)]


def reduced_words(length: int) -> list:
    out = [()]
    for _ in range(length):
        out = [w + (s,) for w in out for s in (1, 2, -1, -2)
               if not (w and w[-1] == -s)]
    return out


def kms_word(gw, G, g1: tuple, c1: tuple, c2: tuple):
    f2 = gw.CellFunction.indicator(G, c2) if c2 else gw.CellFunction.one(G)
    g = gw.GroupElement("free", g1)
    return gw.CellFunction.indicator(G, c1), g, f2, G.inv(g)


def record_kms_words(gw) -> dict:
    """Every word of every shape whose exact beta = 2 residual on the
    closed-form depth-4 exit law is at least 0.02, with that residual.
    Words below 0.02 test nothing (acceptance check 11 resamples them);
    every word has depth <= 4, so the residual is the same at depth 5."""
    f2 = gw.srw_free(2)
    G = f2.group
    t = gw.build_kernel_table(f2, radius=8, method="linear-solve")
    oracle = gw.tree_exit_measure(G, 4)
    table = {}
    for lg, lc, k in KMS_SHAPES:
        rows = []
        for g1 in reduced_words(lg):
            for c1 in reduced_words(lc):
                for c2 in reduced_words(k):
                    exact, _ = gw.kms_residual(t, oracle, 2.0,
                                               *kms_word(gw, G, g1, c1, c2))
                    if exact >= 0.02:
                        rows.append([g1, c1, c2, exact])
        table[f"{lg}{lc}{k}"] = rows
    return table


def kms_words(gw, G, table: dict, rng: random.Random, n: int) -> list:
    """n words, shapes in turn, each drawn uniformly from the recorded
    words of its shape: the distribution of check 11's resampling, without
    a seed-dependent number of draws.  Returns (word, exact beta = 2
    residual) pairs."""
    out = []
    for i in range(n):
        lg, lc, k = KMS_SHAPES[i % len(KMS_SHAPES)]
        g1, c1, c2, exact = rng.choice(table[f"{lg}{lc}{k}"])
        out.append((kms_word(gw, G, tuple(g1), tuple(c1), tuple(c2)), exact))
    return out


def verdict_inputs(gw, job: Job, scale: dict, seed: int) -> dict:
    walks = make_walks(gw)
    f2 = walks["f2"]
    G = f2.group
    t8 = job.untimed(gw.build_kernel_table, f2, radius=8, method="linear-solve")
    t12 = job.untimed(gw.build_kernel_table, f2, radius=12, method="linear-solve")
    inputs = {"G": G, "t8": t8, "t12": t12, "measures": {}}
    for depth in VERDICT_DEPTHS:
        holder = {}

        def estimate(depth=depth, holder=holder):
            holder["m"] = sample(gw, job, "", f2, depth,
                                 scale["verdict_paths"], 2, seed)
            return measure_observation(holder["m"])

        job.op(f"verdicts.measure_d{depth}", estimate,
               lambda obs, ref, holder=holder: check_measure(obs, ref, seed)
               + f2_closed_form_problems(gw, holder["m"]), recorded=True)
        if "m" in holder:
            inputs["measures"][depth] = holder["m"]
    if job.record:
        table = job.observed["kms_words"] = record_kms_words(gw)
    else:
        table = job.reference["kms_words"]
    inputs["words"] = kms_words(gw, G, table, random.Random(seed * 1000 + 11),
                                scale["kms_words"])
    erng = random.Random(seed * 1000 + 2)
    pairs = []
    for _ in range(scale["extend_pairs"]):
        g = gw.GroupElement("free", rand_word(erng, 2, erng.randint(0, 4)))
        prefix = rand_word(erng, 2, 8)
        seq, x = [], G.identity()
        for letter in prefix:
            x = G.mul(x, gw.GroupElement("free", (letter,)))
            seq.append(x)
        exact = float(gw.free_tree_kernel_oracle(
            2, g, gw.BoundaryApproximant.tree_end(G, prefix)))
        pairs.append((g, gw.BoundaryApproximant.sequence(G, seq), exact))
    inputs["pairs"] = pairs
    inputs["gens"] = [gw.parse_element(G, s) for s in ("a", "b", "A", "B")]
    inputs["cells"] = gw.all_cells(G, 1) + gw.all_cells(G, 2)
    return inputs


def phi_exact(t: float) -> float:
    # K(s, xi) is 3 on C(s) and 1/3 elsewhere; nu(C(s)) = 1/4
    return 0.25 * 3.0**t + 0.75 * 3.0**(-t)


def run_verdicts(gw, job: Job, scale: dict, seed: int):
    inputs = verdict_inputs(gw, job, scale, seed)
    job.setup_done()
    G, t8, t12 = inputs["G"], inputs["t8"], inputs["t12"]
    scan = job.op("verdicts.spine_scan",
                  lambda: job.call("other", gw.best_spine_candidate, t8, 3),
                  check_scan, recorded=True)
    for depth, m in inputs["measures"].items():
        start = len(job.durations.get("kms_residual", []))
        # KMS holds exactly at beta = 1 on the harmonic measure
        for (f1, g1, f2, g2), exact2 in inputs["words"]:
            for beta, pred in ((1.0, 0.0), (2.0, exact2)):
                job.op(f"verdicts.kms_d{depth}",
                       lambda beta=beta: job.call(
                           "residuals", gw.kms_residual, t8, m, beta,
                           f1, g1, f2, g2),
                       lambda obs, ref, pred=pred: [] if close(
                           obs[0], pred, Z_GATE * obs[1] + 1e-12) else
                       [f"residual {obs[0]} vs exact {pred} "
                        f"beyond {Z_GATE} x {obs[1]}"])
        kms_ms = sorted(1e3 * x for x in job.durations["kms_residual"][start:])
        job.op(f"verdicts.classify_d{depth}",
               lambda: job.call("other", gw.classify, t8, m, scan["best"]),
               check_classify)
        job.op(f"verdicts.phi_curve_d{depth}",
               lambda: job.call("other", gw.phi_curve, t8, m, 1),
               check_phi)
        for g in inputs["gens"]:
            for B in inputs["cells"]:
                job.op(f"verdicts.rn_d{depth}",
                       lambda g=g, B=B: job.call(
                           "residuals", gw.rn_identity_check, t8, m, g, B),
                       lambda obs, ref: [] if obs[1] <= Z_GATE else
                       [f"RN identity z = {obs[1]}"])
        if job.tracer.enabled:
            job.layer[f"conformal.kms_residual_ms.d{depth}.p50"] = pct(kms_ms, 50)
            job.layer[f"conformal.kms_residual_ms.d{depth}.p90"] = pct(kms_ms, 90)
            job.layer[f"measures.leaf_cells.d{depth}"] = len(
                job.untimed(gw.all_cells, G, depth))
    job.op("verdicts.harnack",
           lambda: job.call("other", gw.harnack_scan, t8, 3),
           lambda obs, ref: [] if close(obs, 3.0, 0.03) and close(
               obs, ref, 1e-9) else [f"Harnack constant {obs}, reference {ref}"],
           recorded=True)
    job.op("verdicts.feasibility",
           lambda: summarize_feasibility(
               job.call("other", gw.invariant_measure_feasibility, G, 3)),
           lambda obs, ref: [] if obs == ref else
           [f"feasibility {obs} != reference {ref}"], recorded=True)
    for g, xi, exact in inputs["pairs"]:
        job.op("verdicts.extend_kernel",
               lambda g=g, xi=xi: job.call("other", gw.extend_kernel, t12, g, xi),
               lambda obs, ref, exact=exact: [] if close(obs[0], exact, 1e-4)
               else [f"K = {obs[0]} vs tree oracle {exact}"])
    if job.tracer.enabled:
        dur = job.durations
        job.layer.update({
            "conformal.rn_check_ms.p50":
                pct(sorted(1e3 * x for x in dur["rn_identity_check"]), 50),
            "conformal.classify_s": sum(dur["classify"]),
            "conformal.phi_curve_s": sum(dur["phi_curve"]),
            "conformal.feasibility_s": sum(dur["invariant_measure_feasibility"]),
            "boundary.extend_kernel_ms.p50":
                pct(sorted(1e3 * x for x in dur["extend_kernel"]), 50),
            "boundary.spine_scan_s": sum(dur["best_spine_candidate"]),
            "kernels.harnack_s": sum(dur["harnack_scan"]),
            "sampler.verdict_setup_s": sum(dur["harmonic_measure_estimate"]),
        })
    return {}


def check_scan(obs: dict, ref: dict) -> list:
    got = {r["label"]: (r.get("maxDev"), r.get("maxErr")) for r in obs["all"]}
    want = {r["label"]: (r.get("maxDev"), r.get("maxErr")) for r in ref["all"]}
    if set(got) != set(want):
        return [f"spine candidates {sorted(got)} != {sorted(want)}"]
    problems = [f"{k}: maxDev {got[k][0]} vs reference {want[k][0]}"
                for k in got if (got[k][0] is None) != (want[k][0] is None)
                or (got[k][0] is not None and not close(
                    got[k][0], want[k][0], got[k][1] + want[k][1] + 1e-12))]
    if obs["best"]["isSpine"]:
        problems.append("F_2 SRW reported a spine")
    return problems


def check_classify(v, ref) -> list:
    """The verdict must follow from its own evidence: beta = 0 fails, the
    beta = 1 battery sits within Z_GATE, and no invariant measure exists."""
    ev = v.evidence
    b0, b1 = ev["beta0"], ev["beta1"]
    expected = "B" if b0["pass"] else ("C" if b1["pass"] else "none")
    problems = []
    if b0["pass"]:
        problems.append(f"beta = 0 battery passed (max z {b0['max_z']})")
    if b1["max_z"] > Z_GATE:
        problems.append(f"beta = 1 battery max z {b1['max_z']}")
    if v.verdict != expected or ev["set"] != ([1] if b1["pass"] else []):
        problems.append(f"verdict {v.verdict} / set {ev['set']} does not "
                        "follow from the evidence")
    if ev["feasibility"]["feasible"]:
        problems.append("invariant measure reported feasible")
    return problems


def check_phi(curve, ref) -> list:
    return [f"Phi({x}) = {v} vs exact {phi_exact(x)}"
            for x, v, e in zip(curve.grid, curve.values, curve.errors)
            if not close(v, phi_exact(x), Z_GATE * e + 1e-9 * phi_exact(x))]


def summarize_feasibility(feas: dict) -> dict:
    cert = feas.get("certificate")
    return {"feasible": feas["feasible"],
            "certificate_rows": len(cert["multipliers"]) if cert else 0}


def pct(sorted_vals: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(q / 100 * len(sorted_vals)) - 1)
    return sorted_vals[k]


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--job", required=True)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.time() when the parent started this process")
    ap.add_argument("--reference", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    import scipy

    import greenwalk as gw
    from greenwalk.groups import shared_ball
    from greenwalk.rng import block_count, block_rng

    scale = SCALES[args.scale]
    reference = None
    if not args.record:
        with open(args.reference) as fh:
            reference = json.load(fh)[args.scale]
    tracer = Tracer(bool(args.trace), f"{args.job}/seed{args.seed}")
    job = Job(tracer, reference, args.record, args.t0, args.setup_only)
    result = {"versions": {"numpy": numpy.__version__,
                           "scipy": scipy.__version__},
              "greenwalk_file": gw.__file__}
    kind, _, part = args.job.partition(":")
    t0 = time.perf_counter()
    try:
        with tracer.span(args.job, "bench"):
            if kind == "tables":
                result.update(run_tables(gw, shared_ball, job, part, scale))
            elif kind == "exitlaw":
                result.update(run_exitlaw(gw, block_rng, block_count, job,
                                          scale, args.seed))
            elif kind == "verdicts":
                result.update(run_verdicts(gw, job, scale, args.seed))
            elif kind == "wreath_reference" and args.record:
                job.observed["exitlaw.wreath_large"] = record_wreath_reference(
                    gw, scale)
            else:
                ap.error(f"unknown job {args.job!r}")
    except SetupOnly:
        pass
    result.update({
        "job": args.job,
        "setup_s": job.setup_s,
        "elapsed_s": time.perf_counter() - t0,
        "timed": job.timed,
        "work": job.work,
        "attempted": job.attempted,
        "failed": job.failed,
        "failures": job.failures,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if args.record:
        result["observed"] = job.observed
    if tracer.enabled:
        result["spans"] = tracer.spans
        result["layer"] = job.layer
        result["trace_overhead_s"] = job.trace_overhead
    json.dump(result, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
