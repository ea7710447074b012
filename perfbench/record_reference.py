"""Write perfbench/reference.json from the program as it is now.

    python3 perfbench/record_reference.py

Run once at the commit whose outputs are the reference (the benchmark's
seed commit); later commits are checked against the file, never re-record
it to make a change pass.  Records, for both scales, every operation the
worker marks as recorded (tables, spine scan, Harnack constant,
feasibility certificate, and the sampled measures' fingerprints at the
reference seed, the two-factor KMS words with their exact residuals),
plus a large-sample wreath exit law.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from run import HERE, JOBS, SRC, THREAD_ENV, WORKER
from worker import REFERENCE_SEED, SCALES


def observe(job: str, scale: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)
    cmd = [sys.executable, WORKER, "--job", job, "--seed", str(REFERENCE_SEED),
           "--scale", scale, "--record", "--reference", "-",
           "--t0", repr(time.time())]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["observed"]


def main() -> int:
    reference = {}
    for scale in SCALES:
        observed = observe("wreath_reference", scale)
        for jobs in JOBS.values():
            for job in jobs:
                observed.update(observe(job, scale))
        reference[scale] = observed
        print(f"{scale}: {len(observed)} recorded operations", file=sys.stderr)
    path = os.path.join(HERE, "reference.json")
    with open(path, "w") as fh:
        # one recorded operation per line, so a re-recording diffs readably
        fh.write("{\n" + ",\n".join(
            f" {json.dumps(scale)}: {{\n" + ",\n".join(
                f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                for k, v in sorted(ops.items())) + "\n }"
            for scale, ops in reference.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
