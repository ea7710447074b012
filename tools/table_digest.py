"""Digests of the balls and Green tables that the benchmark and the
default walks build, so that two checkouts can be compared byte for byte.

    python3 tools/table_digest.py [--src DIR]

`--src` is the `src` directory whose greenwalk is imported (default: this
checkout's).  Each line names one ball or table and its sha256 digests
(first 16 hex digits):
  ball   -- order (the serialized elements, one per line), depth and
            neighbours (the raw bytes with their dtype), for each table's
            work ball and exposed ball;
  table  -- values, errors (raw bytes) and meta (sorted JSON).
Run it in both checkouts and diff the outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def array_digest(a) -> str:
    return digest(str(a.dtype).encode() + b":" + a.tobytes())


def tables(gw):
    """(name, table) for the benchmark's three tables and the default
    free, drift-Z, wreath and product tables."""
    wreath = gw.wreath_walk(2, 0.75, 0.4)
    product = gw.product_walk(wreath, gw.srw_free(2), 0.5)
    yield "bench.product_solve", gw.build_kernel_table(
        product, radius=5, margin=2, method="linear-solve")
    for method in ("linear-solve", "series"):
        yield f"bench.wreath_{method}", gw.build_kernel_table(
            wreath, radius=9, margin=6, method=method)
    for walk in (gw.srw_free(2), gw.drift_z(0.7), wreath, product):
        yield f"default.{walk.name}", gw.build_kernel_table(walk)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).parent.parent / "src"))
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    import greenwalk as gw
    from greenwalk.groups import shared_ball

    for name, t in tables(gw):
        G = t.walk.group
        print(f"table {name}: values {array_digest(t.values)} errors "
              f"{array_digest(t.errors)} meta "
              f"{digest(json.dumps(t.meta, sort_keys=True).encode())}")
        if t.ball is None:
            continue
        for label, ball in (("work", t.ball), ("exposed",
                                               shared_ball(G, t.radius))):
            order = "\n".join(gw.serialize_element(G, a)
                              for a in ball.elements)
            print(f"ball {name}.{label} ({G.spec()}, radius {ball.radius}, "
                  f"{len(ball)} elements): order {digest(order.encode())} "
                  f"depth {array_digest(ball.depth)} neighbours "
                  f"{array_digest(ball.neighbours)}")


if __name__ == "__main__":
    main()
