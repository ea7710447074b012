"""Self-tests of the benchmark, at the reduced "small" scale.

    python3 -m pytest perfbench/test_bench.py

They check that every metric named in BENCHMARK.json is emitted with its
unit, that a perturbed reference value makes an operation fail, and that
the benchmark refuses to run where there is no program.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*extra):
    cmd = [sys.executable, RUN, "--seed", "3", "--seconds", "1",
           "--scale", "small", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    with open(os.path.join(HERE, "rationale.json")) as fh:
        rationale = json.load(fh)
    assert set(rationale["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert rationale["workloads"] == {w["name"]: w["why"]
                                      for w in SPEC["workloads"]}


# exitlaw is no gated workload, but the traced round and hand runs use it
JOBS = [w["name"] for w in SPEC["workloads"]] + ["exitlaw"]


@pytest.mark.parametrize("workload", JOBS)
def test_smoke_emits_every_end_to_end_metric(workload):
    out = result(bench("--workload", workload, "--trace", "0"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    proc = bench("--workload", "exitlaw", "--trace", "1")
    out = result(proc)
    assert out["correct"] and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
    assert set(detail["traced_wall_s"]) == set(JOBS)


def test_perturbed_reference_fails(tmp_path):
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    value, err = ref["small"]["tables.wreath_solve"]["green_at_e"]
    ref["small"]["tables.wreath_solve"]["green_at_e"] = [value + 10 * err, err]
    ref["small"]["verdicts.harnack"] += 1e-6
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    tables = result(bench("--workload", "tables", "--trace", "0",
                          "--reference", str(path)))
    assert not tables["correct"] and tables["failed"] == 1
    verdicts = result(bench("--workload", "verdicts", "--trace", "0",
                            "--reference", str(path)))
    assert not verdicts["correct"] and verdicts["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "tables", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
