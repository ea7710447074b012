"""Full acceptance battery, one test per numbered check.

The battery runs once per session at full scale (1e6 samples, seed 7)
and each test reports a single PASS/FAIL line for its criterion.  The
final test re-runs the battery single-threaded and compares reports
byte for byte, so the determinism contract is checked across worker
counts at full scale, not just inside check 13.  The report's bytes are
pinned by their sha256, so a change that moves any of them fails here.
"""

import hashlib
import json

import pytest

from greenwalk.acceptance import run_all, summary_lines
from greenwalk.cli import _format_report

SEED = 7
SAMPLES = 1_000_000
# sha256 of the seed-7 report as `greenwalk suite --seed 7 --out` writes it
REPORT_SHA256 = ("7c4f0453f7773aa0c05b738c20e2f5f824d42fc8"
                 "86b94f75a4075011411c3910")


@pytest.fixture(scope="module")
def battery_run():
    return run_all(seed=SEED, workers=2, samples=SAMPLES)


@pytest.fixture(scope="module")
def battery(battery_run):
    return battery_run[0]


def _criterion(battery, number, name):
    check = next(c for c in battery["checks"] if c["number"] == number)
    assert check["name"] == name
    mark = "PASS" if check["passed"] else "FAIL"
    print(f"{mark} criterion {number}: {name}")
    assert check["passed"], f"criterion {number} ({name}): {check['detail']}"
    return check


def test_criterion_01_green_dual_route(battery):
    _criterion(battery, 1, "green-dual-route")


def test_criterion_02_martin_kernel_exactness(battery):
    _criterion(battery, 2, "martin-kernel-exactness")


def test_criterion_03_cocycle_identity(battery):
    _criterion(battery, 3, "cocycle-identity")


def test_criterion_04_harmonicity(battery):
    _criterion(battery, 4, "harmonicity")


def test_criterion_05_harnack_constant(battery):
    _criterion(battery, 5, "harnack-constant")


def test_criterion_06_harmonic_measure(battery):
    _criterion(battery, 6, "harmonic-measure")


def test_criterion_07_radon_nikodym(battery):
    _criterion(battery, 7, "radon-nikodym")


def test_criterion_08_phi_curve(battery):
    _criterion(battery, 8, "phi-curve")


def test_criterion_09_spine_drifted_z(battery):
    _criterion(battery, 9, "spine-drifted-z")


def test_criterion_10_no_spine_free(battery):
    _criterion(battery, 10, "no-spine-free")


def test_criterion_11_kms_residuals(battery):
    _criterion(battery, 11, "kms-residuals")


def test_criterion_12_product_construction(battery):
    _criterion(battery, 12, "product-construction")


def test_criterion_13_determinism(battery):
    _criterion(battery, 13, "determinism")
    # cross-worker determinism at full scale: the whole report must agree
    # with a single-threaded run, byte for byte
    single, _ = run_all(seed=SEED, workers=1, samples=SAMPLES)
    assert json.dumps(single, sort_keys=True) == json.dumps(
        battery, sort_keys=True
    )


# wall-clock limits of checks 1, 2 and 6; they read the meta, so the report
# stays a function of (seed, samples)
TIME_LIMITS_S = {"green-dual-route": 10.0, "martin-kernel-exactness": 30.0,
                 "harmonic-measure": 120.0}


def test_battery_timings_within_limits(battery_run):
    report, meta = battery_run
    for name, limit in TIME_LIMITS_S.items():
        assert meta["timings_s"][name] < limit, (name, meta["timings_s"])
    for check in report["checks"]:
        assert "runtime_ok" not in check["detail"]


def test_battery_is_green(battery):
    for line in summary_lines(battery):
        print(line)
    assert battery["passed"]
    assert len(battery["checks"]) == 13


def test_report_bytes_pinned(battery):
    text = _format_report(battery, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256
