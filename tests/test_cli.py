import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import greenwalk
from greenwalk.cli import main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_green_stdout(capsys):
    code, report = run_json(capsys, ["green"])
    assert code == 0
    assert report["command"] == "green"
    assert abs(report["green_at_e"] - 1.5) < 1e-6
    assert report["radius"] == 8


def test_green_series_method(capsys, tmp_path):
    cfg = write_config(tmp_path, "c.json", {"method": "series", "radius": 5})
    code, report = run_json(capsys, ["green", "--config", cfg])
    assert code == 0 and report["method"] == "series"


def test_unknown_config_key_names_field(capsys, tmp_path):
    cfg = write_config(tmp_path, "c.json", {"radius": 4, "bogus": 1})
    code = main(["green", "--config", cfg])
    assert code == 64
    err = capsys.readouterr().err
    assert "bogus" in err and "green" in err


def test_malformed_config_reports_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"radius": 4,,}')
    code = main(["green", "--config", str(path)])
    assert code == 64
    assert "line 1" in capsys.readouterr().err


def test_missing_config_file(capsys, tmp_path):
    code = main(["green", "--config", str(tmp_path / "absent.json")])
    assert code == 64


def test_unknown_flag_exits_usage():
    with pytest.raises(SystemExit) as exc:
        main(["green", "--frobnicate"])
    assert exc.value.code == 64


def test_unknown_subcommand_exits_usage():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 64


def test_invalid_walk_name(capsys, tmp_path):
    cfg = write_config(tmp_path, "c.json", {"walk": "levy-flight:2"})
    assert main(["green", "--config", cfg]) == 64


def test_unbounded_generation_search_exits_resource(tmp_path):
    """Nine of free:5's ten generators reach about 9 * 8^11 elements in
    12 steps; the search stops at its cap and the CLI exits 3 at once."""
    steps = [{"elem": s, "p": 1 / 9} for s in "abcdeABCD"]
    cfg = write_config(tmp_path, "c.json",
                       {"walk": {"group": "free:5", "steps": steps}})
    env = dict(os.environ,
               PYTHONPATH=str(Path(greenwalk.__file__).resolve().parents[1]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "greenwalk.cli", "green",
                           "--config", cfg], env=env, capture_output=True,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3, proc.stderr
    assert "not found within 12 steps" in proc.stderr
    assert elapsed < 2.0


def test_flag_overrides_config(capsys, tmp_path):
    cfg = write_config(tmp_path, "c.json", {"seed": 3, "samples": 2000,
                                            "depth": 1})
    code, report = run_json(capsys, ["harmonic", "--config", cfg,
                                     "--seed", "12"])
    assert code == 0 and report["seed"] == 12


def test_martin_end_kernel(capsys, tmp_path):
    cfg = write_config(tmp_path, "c.json", {"g": "a", "end": "end:b"})
    code, report = run_json(capsys, ["martin", "--config", cfg])
    assert code == 0
    assert report["kernel"] == pytest.approx(1 / 3, abs=1e-12)
    assert report["error"] == 0.0


def test_martin_requires_target(capsys, tmp_path):
    cfg = write_config(tmp_path, "c.json", {"g": "a"})
    assert main(["martin", "--config", cfg]) == 64


def test_spine_scan_drift(capsys, tmp_path):
    cfg = write_config(tmp_path, "c.json", {"walk": "drift-z:0.7"})
    code, report = run_json(capsys, ["spine-scan", "--config", cfg])
    assert code == 0
    assert report["best"]["label"] == "+inf"
    assert report["best"]["isSpine"] is True


def test_kms_beta2_fails_verdict(capsys, tmp_path):
    cfg = write_config(tmp_path, "c.json",
                       {"beta": 2.0, "samples": 2000, "depth": 2,
                        "g1": "b", "f1": "a"})
    code, report = run_json(capsys, ["kms", "--config", cfg])
    assert code == 2
    assert report["z"] > 3.0
    assert report["residual"] == pytest.approx(0.5, abs=0.1)


def test_kms_beta1_passes(capsys, tmp_path):
    cfg = write_config(tmp_path, "c.json",
                       {"beta": 1.0, "samples": 20_000, "depth": 2,
                        "g1": "b", "f1": "a"})
    code, report = run_json(capsys, ["kms", "--config", cfg])
    assert code == 0 and report["z"] < 3.0


def test_kms_needs_free_walk(capsys, tmp_path):
    cfg = write_config(tmp_path, "c.json", {"walk": "drift-z:0.7"})
    assert main(["kms", "--config", cfg]) == 64


def test_out_file_and_meta(tmp_path, capsys):
    out = tmp_path / "nested" / "report.json"
    code = main(["green", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["command"] == "green"
    meta = json.loads((tmp_path / "nested" / "report.json.meta.json")
                      .read_text())
    assert meta["command"] == "green"
    assert "created_utc" in meta and meta["seed"] == 7
    # stdout stays quiet when writing to a file
    assert capsys.readouterr().out == ""


def test_same_seed_reports_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"samples": 2000, "depth": 2})
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["conformal", "--config", cfg, "--seed", "5",
                 "--out", str(a)]) == 0
    assert main(["conformal", "--config", cfg, "--seed", "5",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["verdict"] == "C"
    assert report["evidence_set"] == [1]


def test_csv_format(capsys):
    code = main(["green", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("green_at_e,") for line in lines)


def test_phi_exact_measure(capsys, tmp_path):
    cfg = write_config(tmp_path, "c.json",
                       {"measure": "exact", "depth": 2,
                        "grid": [0.0, 0.5, 1.0]})
    code, report = run_json(capsys, ["phi", "--config", cfg])
    assert code == 0
    assert report["values"][0] == pytest.approx(1.0, abs=1e-12)
    assert report["values"][1] == pytest.approx(3 ** 0.5 / 2, abs=1e-12)
    assert report["convex_within_error"] is True


def test_phi_rejects_bad_measure(capsys, tmp_path):
    cfg = write_config(tmp_path, "c.json", {"measure": "imaginary"})
    assert main(["phi", "--config", cfg]) == 64


def test_conformal_wreath_batteries_unsupported(capsys, tmp_path):
    # no pullback rule translates the binned wreath exit law: both
    # batteries say so in the report and the verdict fails with exit 2
    cfg = write_config(tmp_path, "c.json",
                       {"walk": "wreath-walk:2,0.75,0.4", "samples": 2000,
                        "depth": 2, "radius": 4})
    code, report = run_json(capsys, ["conformal", "--config", cfg])
    assert code == 2
    assert report["verdict"] == "none"
    batteries = {k: v for row in report["residuals"] for k, v in row.items()}
    for beta in ("beta0", "beta1"):
        assert "no pullback rule" in batteries[beta]["unsupported"]
        assert batteries[beta]["pass"] is False


def test_product_report(capsys, tmp_path):
    cfg = write_config(tmp_path, "c.json",
                       {"samples": 2000, "depth": 2, "radius": 4})
    code, report = run_json(capsys, ["product", "--config", cfg])
    assert code == 0
    assert report["mass_gap"] <= 1e-12
    assert report["generation"]["covered"] is True
    push = report["pushforward"]
    assert push["conformality_worst_z"] < 3.0
    assert push["equivariance_max_residual"] < 1e-9


def test_suite_small(tmp_path, capsys):
    out = tmp_path / "suite.json"
    cfg = write_config(tmp_path, "c.json", {"samples": 20_000})
    code = main(["suite", "--config", cfg, "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    assert printed.count("PASS") == 13
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert len(report["checks"]) == 13
    meta = json.loads((tmp_path / "suite.json.meta.json").read_text())
    assert "timings_s" in meta and "total_s" in meta


@pytest.mark.parametrize("command, payload", [
    ("martin", {"g": "a", "end": "bogus"}),
    ("phi", {"grid": ["x", 1]}),
    ("phi", {"grid": [0, float("nan"), 1]}),
    ("phi", {"grid": [0, 1, float("inf")]}),
    ("phi", {"grid": [float("-inf"), 0, 1]}),
    ("phi", {"grid": [0, 1, 10 ** 400]}),
    ("green", {"walk": {"group": "free:2", "steps": [
        {"elem": "a", "p": "half"}, {"elem": "A", "p": 0.25},
        {"elem": "b", "p": 0.25}]}}),
    ("martin", {"g": 5, "end": "end:b"}),
    ("martin", {"g": "a", "end": 7}),
    ("green", {"walk": {"group": "free:2", "steps": [
        {"elem": "a"}, {"elem": "A", "p": 0.5}]}}),
    ("green", {"walk": "srw-free:x"}),
    ("green", {"walk": "{not json"}),
    ("harmonic", {"samples": 1000, "depth": 2, "horizon": 10_000_000}),
    # keys that the subcommand would not read
    ("green", {"seed": 3}),
    ("martin", {"g": "a", "end": "end:b", "workers": 2}),
    ("spine-scan", {"seed": 3, "workers": 1}),
    ("harmonic", {"samples": 1000, "depth": 2, "tolerance": 1e-3}),
    ("suite", {"tolerance": 1e-3}),
    # letters past F_30's +-30 in the dotted form
    ("martin", {"walk": "srw-free:30", "g": "+31", "h": "+1", "radius": 2}),
    ("kms", {"walk": "srw-free:30", "f1": "+31", "g1": "+1", "depth": 1,
             "samples": 1000, "radius": 2}),
], ids=["martin-end", "phi-grid", "phi-grid-nan", "phi-grid-inf",
        "phi-grid-neg-inf", "phi-grid-huge-int", "walk-p", "martin-g-int", "martin-end-int",
        "walk-no-p", "walk-name-arg", "walk-json-text", "horizon-too-long",
        "green-seed", "martin-workers", "spine-scan-seed", "harmonic-tolerance",
        "suite-tolerance", "martin-g-letter-range", "kms-f1-letter-range"])
def test_malformed_input_exits_usage(capsys, tmp_path, command, payload):
    cfg = write_config(tmp_path, "c.json", payload)
    assert main([command, "--config", cfg]) == 64
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("command, flag", [
    ("green", "--seed"), ("green", "--workers"), ("green", "--tolerance"),
    ("martin", "--seed"), ("martin", "--workers"), ("spine-scan", "--seed"),
    ("spine-scan", "--workers"), ("harmonic", "--tolerance"),
    ("kms", "--tolerance"), ("suite", "--tolerance"),
])
def test_unread_flag_exits_usage(capsys, command, flag):
    """A flag that the subcommand would not read is a usage error that
    names it, not a value silently dropped."""
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "1"])
    assert exc.value.code == 64
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_suite_stdout_is_json(capsys, monkeypatch):
    report = {"passed": True, "checks": [
        {"number": 1, "name": "stub", "passed": True}]}
    monkeypatch.setattr("greenwalk.cli.run_all",
                        lambda seed, workers, samples: (report, {}))
    code = main(["suite"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out) == report
    assert "PASS" in captured.err


# Small valid configs, one per input path: element and approximant parsing
# (martin, once with an end and once with an h), walk JSON (green), cell
# functions (kms), measures and grids (phi).  "REPORT" is replaced by a
# report path inside a scratch directory.
_VALID_CONFIGS = [
    ("martin", {"walk": "srw-free:2", "radius": 3, "g": "a", "end": "end:ab",
                "tolerance": 1e-6}),
    ("martin", {"walk": "srw-free:2", "radius": 3, "g": "a", "h": "ab"}),
    ("green", {"walk": {"group": "free:2", "name": "srw",
                        "steps": [{"elem": s, "p": 0.25} for s in "aAbB"]},
               "radius": 3, "method": "linear-solve", "out": "REPORT",
               "format": "json"}),
    ("kms", {"walk": "srw-free:2", "radius": 3, "depth": 2, "samples": 1000,
             "seed": 7, "workers": 1, "beta": 1.0, "g1": "a", "f1": "a",
             "f2": "b"}),
    ("phi", {"walk": "srw-free:2", "radius": 3, "measure": "exact",
             "depth": 2, "power": 1, "grid": [0.0, 1.0]}),
]
# deleting samples falls back to the 200,000-path default: valid, but slow
_KEEP = {("samples",)}
_WRONG = [None, True, 3, 2.5, "zz", [], ["a"], {}, {"x": 1}]
# wrong values of the right type, by field name
_MISVALUED = {
    "walk": ["srw-free:x", "srw-free:1", "drift-z:1.5", "drift-z:0.5",
             "wreath-walk:1,0.75,0.4", "product:0,srw-free:2,srw-free:2"],
    "radius": [0, -1, 41],
    "depth": [0, 9],
    "samples": [0, 999, 10_000_001],
    "g": ["ax", "a b", "aq"],
    "h": ["ax", "a b"],
    "end": ["end:ax", "bogus", "end:"],
    "grid": [[1.0, 0.0], [0.5, 0.5]],
}


def _fields(cfg, path=()):
    """Paths of every field, nested walk-JSON fields included."""
    for key, val in (cfg.items() if isinstance(cfg, dict) else enumerate(cfg)):
        yield path + (key,)
        if isinstance(val, (dict, list)):
            yield from _fields(val, path + (key,))


_CASES = [(i, path) for i, (_, cfg) in enumerate(_VALID_CONFIGS)
          for path in _fields(cfg)]
_MISVALUED_CASES = [(i, path, value) for i, path in _CASES
                    for value in _MISVALUED.get(path[-1], [])]


@st.composite
def _malformed(draw):
    misvalued = draw(st.booleans())
    if misvalued:
        i, path, value = draw(st.sampled_from(_MISVALUED_CASES))
    else:
        i, path = draw(st.sampled_from(_CASES))
    command, cfg = copy.deepcopy(_VALID_CONFIGS[i])
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if not misvalued:
        old = parent[path[-1]]
        wrong = [v for v in _WRONG if type(v) is not type(old)]
        value = draw(st.sampled_from(
            wrong + ([] if path in _KEEP else ["DELETE"])))
    if value == "DELETE":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return command, cfg


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_malformed())
def test_malformed_config_never_tracebacks(case):
    """One field of a small valid config gets a wrong type, a wrong value
    or goes away: the CLI ends with a documented exit code, never an
    exception."""
    command, cfg = case
    with tempfile.TemporaryDirectory() as scratch:
        if cfg.get("out") == "REPORT":
            cfg["out"] = os.path.join(scratch, "report.json")
        path = os.path.join(scratch, "c.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = main([command, "--config", path])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2, 3, 64), (command, cfg, err.getvalue())
    assert "Traceback" not in err.getvalue()
