"""Digests of the balls and Green tables that the benchmark and the
default walks build, so that two checkouts can be compared byte for byte.

    python3 tools/table_digest.py [--src DIR]

`--src` is the `src` directory whose greenwalk is imported (default: this
checkout's).  Each line names one ball or table and its sha256 digests
(first 16 hex digits):
  ball   -- order (the serialized elements, one per line), depth and
            neighbours (the raw bytes with their dtype), for each table's
            work ball and exposed ball; a table on the free SRW's spheres
            has no work ball;
  table  -- values, errors (raw bytes, in the layout of the table's state
            space) and meta (sorted JSON);
  lookup -- `green_at` and `entry_error` at every element of the exposed
            ball, in its order (raw float bytes): the same whatever the
            table's layout;
  operator -- the CSR arrays of the step operator P^T (`indptr`,
            `indices`, `data`, with their dtypes) and `exit`, on each
            table's state space ("work") and restricted to the half
            ball of the linear-solve error estimate ("half").
Run it in both checkouts and diff the outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def array_digest(a) -> str:
    return digest(str(a.dtype).encode() + b":" + a.tobytes())


def tables(gw):
    """(name, table) for the benchmark's three tables, the default free,
    drift-Z, wreath and product tables, and the free SRW's series table."""
    wreath = gw.wreath_walk(2, 0.75, 0.4)
    product = gw.product_walk(wreath, gw.srw_free(2), 0.5)
    yield "bench.product_solve", gw.build_kernel_table(
        product, radius=5, margin=2, method="linear-solve")
    for method in ("linear-solve", "series"):
        yield f"bench.wreath_{method}", gw.build_kernel_table(
            wreath, radius=9, margin=6, method=method)
    for walk in (gw.srw_free(2), gw.drift_z(0.7), wreath, product):
        yield f"default.{walk.name}", gw.build_kernel_table(walk)
    yield "srw-free:2.series", gw.build_kernel_table(
        gw.srw_free(2), radius=8, method="series")


def lookup_digests(t, exposed) -> tuple[str, str]:
    """Digests of G(e, g) and its error read at each exposed element."""
    return tuple(array_digest(np.array([read(g) for g in exposed]))
                 for read in (t.green_at, t.entry_error))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).parent.parent / "src"))
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    import greenwalk as gw
    from greenwalk.groups import shared_ball
    from greenwalk.kernels import BallOperator

    for name, t in tables(gw):
        G = t.walk.group
        exposed = shared_ball(G, t.radius)
        print(f"table {name}: values {array_digest(t.values)} errors "
              f"{array_digest(t.errors)} meta "
              f"{digest(json.dumps(t.meta, sort_keys=True).encode())}")
        print("lookup {}: green_at {} entry_error {}".format(
            name, *lookup_digests(t, exposed.elements)))
        work = BallOperator.on_ball(t.walk, t.ball)
        margin = t.meta["work_radius"] - t.radius
        half = work.restricted(t.ball.depth <= t.radius + max(1, margin // 2))
        for label, op in (("work", work), ("half", half)):
            print(f"operator {name}.{label} ({op.size} states): " + " ".join(
                f"{key} {array_digest(a)}" for key, a in (
                    ("indptr", op.step.indptr), ("indices", op.step.indices),
                    ("data", op.step.data), ("exit", op.exit))))
        if not hasattr(t.ball, "elements"):
            continue
        for label, ball in (("work", t.ball), ("exposed", exposed)):
            order = "\n".join(gw.serialize_element(G, a)
                              for a in ball.elements)
            print(f"ball {name}.{label} ({G.spec()}, radius {ball.radius}, "
                  f"{len(ball)} elements): order {digest(order.encode())} "
                  f"depth {array_digest(ball.depth)} neighbours "
                  f"{array_digest(ball.neighbours)}")


if __name__ == "__main__":
    main()
