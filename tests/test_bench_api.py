"""The package names the benchmark driver `perfbench/worker.py` uses.

The driver reaches the package through `greenwalk.__all__` (as `gw.<name>`)
and a few `from greenwalk.<module> import <name>` lines; removing or
renaming any of them breaks the benchmark, not the other tests.
"""

import importlib
import re
from pathlib import Path

import greenwalk

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_worker_calls_only_public_names():
    used = set(re.findall(r"\bgw\.([A-Za-z]\w*)", WORKER.read_text()))
    assert used
    assert used <= set(greenwalk.__all__), used - set(greenwalk.__all__)


def test_worker_module_imports_resolve():
    imports = re.findall(r"^\s*from greenwalk\.(\w+) import ([\w, ]+)$",
                         WORKER.read_text(), flags=re.M)
    found = {(mod, name.strip()) for mod, names in imports
             for name in names.split(",")}
    assert {("groups", "shared_ball"), ("rng", "block_rng"),
            ("rng", "block_count")} <= found
    for mod, name in found:
        assert callable(getattr(importlib.import_module(f"greenwalk.{mod}"),
                                name)), (mod, name)
