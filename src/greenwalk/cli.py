"""Batch entry point: parse a config, run one experiment, write a report.

Subcommands: green, martin, harmonic, spine-scan, conformal, phi, kms,
product, suite.  Configuration comes from a JSON file (--config) with
flags overriding individual fields.  Reports are written atomically and
contain no timestamps; wall-clock data goes to a sibling .meta.json, so
the same config and seed always produce byte-identical report files.

Exit codes: 0 success, 2 a checked quantity exceeded its tolerance,
3 resource or convergence failure, 64 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction

from . import conformal as cf
from .acceptance import run_all, summary_lines
from .boundary import best_spine_candidate, extend_kernel, parse_approximant
from .errors import (
    ConfigError,
    ConvergenceError,
    GreenwalkError,
    PartitionError,
    PrecisionError,
    RangeError,
    ResourceLimitError,
    SamplingError,
    TransienceError,
    UnsupportedGroupError,
)
from .kernels import build_kernel_table
from .measures import (
    all_cells,
    cell_name,
    parse_cell,
    tree_exit_measure,
    uniform_depth1_measure,
)
from .sampler import harmonic_measure_estimate
from .walks import generation_certificate, resolve_walk
from .groups import parse_element

EXIT_OK = 0
EXIT_VERDICT = 2
EXIT_RESOURCE = 3
EXIT_USAGE = 64

_COMMON_KEYS = {"walk", "out", "format"}
# each subcommand's own keys: seed, workers and tolerance only where read
_SUB_KEYS = {
    "green": {"radius", "method"},
    "martin": {"radius", "g", "h", "end", "tolerance"},
    "harmonic": {"depth", "samples", "horizon", "seed", "workers"},
    "spine-scan": {"radius", "scan_radius", "n_terms"},
    "conformal": {"radius", "scan_radius", "depth", "samples", "seed",
                  "workers"},
    "phi": {"radius", "depth", "samples", "measure", "power", "grid",
            "seed", "workers"},
    "kms": {"radius", "depth", "samples", "beta", "f1", "g1", "f2", "g2",
            "seed", "workers"},
    "product": {"radius", "depth", "samples", "pushforward", "seed",
                "workers"},
    "suite": {"samples", "seed", "workers"},
}
_SCAN_RADIUS_DEFAULT = {"free": 3, "lattice": 6, "wreath": 2, "product": 2}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to the documented exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    p = _Parser(prog="greenwalk",
                description="kernel tables, boundary measures, and "
                            "conformality reports for group random walks")
    sub = p.add_subparsers(dest="command", required=True)
    for name, keys in _SUB_KEYS.items():
        s = sub.add_parser(name, add_help=True)
        s.add_argument("--config", help="JSON config file")
        s.add_argument("--out", help="report path (stdout when omitted)")
        s.add_argument("--format", choices=["json", "csv"])
        for flag, kind in (("seed", int), ("workers", int),
                           ("tolerance", float)):
            if flag in keys:
                s.add_argument(f"--{flag}", type=kind)
    return p


def _load_config(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}", "config")
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} is not valid JSON: line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}",
            "config",
        )


def _merge_config(args) -> dict:
    cfg = _load_config(args.config) if args.config else {}
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object", "config")
    allowed = _COMMON_KEYS | _SUB_KEYS[args.command]
    for key in cfg:
        if key not in allowed:
            raise ConfigError(
                f"unknown config key {key!r} for subcommand "
                f"{args.command!r}", key)
    for flag in ("seed", "workers", "out", "format", "tolerance"):
        val = getattr(args, flag, None)
        if val is not None:
            cfg[flag] = val
    return cfg


def _int_in(cfg, key, lo, hi, default):
    val = cfg.get(key, default)
    if not isinstance(val, int) or isinstance(val, bool) or not lo <= val <= hi:
        raise ConfigError(
            f"{key} must be an integer in [{lo}, {hi}], got {val!r}", key)
    return val


def _float_in(cfg, key, lo, hi, default):
    val = cfg.get(key, default)
    if not isinstance(val, (int, float)) or isinstance(val, bool) \
            or not lo <= float(val) <= hi:
        raise ConfigError(
            f"{key} must be a number in [{lo}, {hi}], got {val!r}", key)
    return float(val)


def _walk(cfg, default="srw-free:2"):
    return resolve_walk(cfg.get("walk", default))


def _common(cfg):
    seed = _int_in(cfg, "seed", 0, 2**63 - 1, 7)
    workers = _int_in(cfg, "workers", 1, 64, 1)
    tol = _float_in(cfg, "tolerance", 1e-12, 1.0, 1e-6)
    out = cfg.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a file path, got {out!r}", "out")
    return seed, workers, tol


def _estimate(w, cfg, seed, workers):
    depth = _int_in(cfg, "depth", 1, 8, 4)
    samples = _int_in(cfg, "samples", 1000, 10_000_000, 200_000)
    horizon = cfg.get("horizon")
    if horizon is not None:
        # a block's largest array is its 4,096 paths' time-major steps,
        # int64 on a lattice: 328 MB at the largest horizon accepted; the
        # raw draws behind them are read 512 paths at a time
        horizon = _int_in(cfg, "horizon", 1, 10_000, horizon)
    return harmonic_measure_estimate(w, depth, samples, seed,
                                     workers=workers, horizon=horizon)


def _table(w, cfg, max_radius=40, method="linear-solve"):
    """The Green table of w at the config's radius, or at the default
    radius when the config sets none."""
    radius = cfg.get("radius")
    if radius is not None:
        radius = _int_in(cfg, "radius", 1, max_radius, radius)
    return build_kernel_table(w, radius=radius, method=method)


# -- subcommand runners --------------------------------------------------------


def _run_green(cfg, seed, workers, tol):
    w = _walk(cfg)
    method = cfg.get("method", "linear-solve")
    if method not in ("linear-solve", "series"):
        raise ConfigError(f"method must be linear-solve or series, got "
                          f"{method!r}", "method")
    t = _table(w, cfg, method=method)
    e = w.group.identity()
    report = {
        "command": "green",
        "walk": w.name or w.group.spec(),
        "radius": t.radius,
        "method": method,
        "green_at_e": t.green_at(e),
        "entry_error_e": t.entry_error(e),
    }
    return report, True


def _run_martin(cfg, seed, workers, tol):
    w = _walk(cfg)
    G = w.group
    t = _table(w, cfg)
    if "g" not in cfg:
        raise ConfigError("martin needs an element g", "g")
    g = parse_element(G, cfg["g"])
    report = {"command": "martin", "walk": w.name or G.spec(),
              "g": cfg["g"], "radius": t.radius}
    if cfg.get("end"):
        try:
            xi = parse_approximant(G, cfg["end"], tolerance=tol)
        except ValueError as exc:
            raise ConfigError(str(exc), "end") from None
        val, err = extend_kernel(t, g, xi)
        report.update({"approximant": xi.serialize(),
                       "kernel": val, "error": err})
    elif cfg.get("h"):
        h = parse_element(G, cfg["h"])
        report.update({"h": cfg["h"], "kernel": t.martin(g, h)})
    else:
        raise ConfigError("martin needs either h (finite) or end "
                          "(boundary approximant)", "h")
    return report, True


def _run_harmonic(cfg, seed, workers, tol):
    w = _walk(cfg)
    m = _estimate(w, cfg, seed, workers)
    report = {"command": "harmonic", "walk": w.name or w.group.spec(),
              "seed": seed, "measure": m.to_json_dict()}
    return report, True


def _run_spine_scan(cfg, seed, workers, tol):
    w = _walk(cfg, default="drift-z:0.7")
    t = _table(w, cfg)
    scan_r = _int_in(cfg, "scan_radius", 1, 10,
                     _SCAN_RADIUS_DEFAULT[w.group.kind])
    n_terms = _int_in(cfg, "n_terms", 2, 32, 8)
    scan = best_spine_candidate(t, scan_r, n_terms=n_terms)
    report = {"command": "spine-scan", "walk": w.name or w.group.spec(),
              "scan_radius": scan_r, "best": scan["best"],
              "all": scan["all"]}
    return report, True


def _canonical_kms_rows(t, m):
    G = m.group
    rows = []
    for g in G.generators():
        f1 = cf.CellFunction.indicator(G, (g.data[0],))
        f2 = cf.CellFunction.one(G)
        for beta in (1.0, 2.0):
            res, err = cf.kms_residual(t, m, beta, f1, g, f2, G.inv(g))
            rows.append({"g": cell_name(G, g.data), "beta": beta,
                         "residual": res, "err": err,
                         "z": cf.z_score(res, err)})
    return rows


def _run_conformal(cfg, seed, workers, tol):
    w = _walk(cfg)
    G = w.group
    t = _table(w, cfg)
    m = _estimate(w, cfg, seed, workers)
    scan_r = _int_in(cfg, "scan_radius", 1, 10,
                     _SCAN_RADIUS_DEFAULT[G.kind])
    scan = best_spine_candidate(t, scan_r)
    verdict = cf.classify(t, m, scan["best"])
    residuals = []
    for key in ("beta_grid", "beta0", "beta1", "feasibility"):
        if key in verdict.evidence:
            residuals.append({key: verdict.evidence[key]})
    try:
        curve = cf.phi_curve(t, m, 1)
        phi = {"grid": list(curve.grid), "values": list(curve.values),
               "errors": list(curve.errors),
               "convex_within_error": curve.convex_within_error()}
    except GreenwalkError as exc:
        phi = {"note": str(exc)}
    if m.kind == "cylinder":
        kms = _canonical_kms_rows(t, m)
    else:
        kms = []
    report = {
        "command": "conformal",
        "walk": w.name or G.spec(),
        "verdict": verdict.verdict,
        "admissible": verdict.admissible,
        "evidence_set": verdict.evidence["set"],
        "spine": scan["best"],
        "residuals": residuals,
        "phi": phi,
        "kms": kms,
    }
    return report, verdict.verdict != "none"


def _run_phi(cfg, seed, workers, tol):
    w = _walk(cfg)
    G = w.group
    t = _table(w, cfg)
    source = cfg.get("measure", "uniform")
    if source == "uniform":
        m = uniform_depth1_measure(G)
    elif source == "exact":
        m = tree_exit_measure(G, _int_in(cfg, "depth", 1, 8, 4))
    elif source == "estimate":
        m = _estimate(w, cfg, seed, workers)
    else:
        raise ConfigError(
            f"measure must be uniform, exact or estimate, got {source!r}",
            "measure")
    n = _int_in(cfg, "power", 1, 8, 1)
    grid = cfg.get("grid")
    # a grid point is a power of kernel values, so it keeps to kms's beta
    # range, where K^beta stays a float; NaN and infinity fall outside
    if grid is not None and (
            not isinstance(grid, list) or len(grid) < 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       and -10.0 <= x <= 10.0 for x in grid)
            or any(b <= a for a, b in zip(grid, grid[1:]))):
        raise ConfigError("grid must be a strictly increasing list of at "
                          "least two numbers in [-10, 10]", "grid")
    curve = cf.phi_curve(t, m, n, grid=grid)
    report = {
        "command": "phi",
        "walk": w.name or G.spec(),
        "measure": source,
        "power": n,
        "grid": list(curve.grid),
        "values": list(curve.values),
        "errors": list(curve.errors),
        "second_differences": list(curve.second_differences()),
        "convex_within_error": curve.convex_within_error(),
    }
    return report, True


def _parse_cell_function(G, text):
    if text in (None, "", "1"):
        return cf.CellFunction.one(G)
    return cf.CellFunction.indicator(G, parse_cell(G, text))


def _run_kms(cfg, seed, workers, tol):
    w = _walk(cfg)
    G = w.group
    if G.kind != "free":
        raise UnsupportedGroupError(
            "the kms subcommand needs the free-boundary cell algebra")
    t = _table(w, cfg)
    m = _estimate(w, cfg, seed, workers)
    beta = _float_in(cfg, "beta", -10.0, 10.0, 1.0)
    g1 = parse_element(G, cfg.get("g1", "a"))
    g2 = parse_element(G, cfg["g2"]) if cfg.get("g2") else G.inv(g1)
    f1 = _parse_cell_function(G, cfg.get("f1", "a"))
    f2 = _parse_cell_function(G, cfg.get("f2"))
    res, err = cf.kms_residual(t, m, beta, f1, g1, f2, g2)
    z = cf.z_score(res, err)
    report = {
        "command": "kms",
        "walk": w.name or G.spec(),
        "beta": beta,
        "g1": cfg.get("g1", "a"),
        "g2": cfg.get("g2") or cell_name(G, G.inv(g1).data),
        "f1": cfg.get("f1", "a") or "1",
        "f2": cfg.get("f2") or "1",
        "residual": res,
        "err": err,
        "z": z,
    }
    return report, z < cf.Z_LIMIT


def _run_product(cfg, seed, workers, tol):
    w = _walk(cfg, default="product:0.5,wreath-walk:2,0.75,0.4,srw-free:2")
    G2 = w.group
    if G2.kind != "product":
        raise ConfigError(
            f"product subcommand needs a product walk, got {G2.spec()}",
            "walk")
    mass_gap = abs(sum(p for _, p in w.steps) - 1.0)
    cert = generation_certificate(w)
    report = {
        "command": "product",
        "walk": w.name or G2.spec(),
        "mass_gap": mass_gap,
        "generation": {"radius": cert.radius, "max_steps": cert.max_steps,
                       "covered": cert.covered},
    }
    ok = mass_gap <= 1e-12 and cert.covered
    right = G2.factors[1]
    pushforward = cfg.get("pushforward", True)
    if not isinstance(pushforward, bool):
        raise ConfigError(f"pushforward must be true or false, got "
                          f"{pushforward!r}", "pushforward")
    if pushforward and right.kind == "free":
        t2 = _table(w, cfg, max_radius=12)
        mu1 = resolve_walk(f"srw-free:{right.params[0]}")
        t1 = build_kernel_table(mu1)
        m1 = _estimate(mu1, cfg, seed, workers)
        ppc = cf.phi_map_pushforward_check(t2, t1, m1, all_cells(right, 1))
        worst_z = max(row["z"] for row in ppc["conformality"])
        report["pushforward"] = {
            "conformality_worst_z": worst_z,
            "equivariance_max_residual": ppc["equivariance"]["max_residual"],
            "identity_max_residual": ppc["identity"]["max_residual"],
        }
        ok = ok and worst_z < cf.Z_LIMIT
    return report, ok


def _run_suite(cfg, seed, workers, tol):
    samples = _int_in(cfg, "samples", 1000, 10_000_000, 1_000_000)
    report, meta = run_all(seed=seed, workers=workers, samples=samples)
    # without --out the report itself goes to stdout, which must stay JSON
    stream = sys.stdout if cfg.get("out") else sys.stderr
    for line in summary_lines(report):
        print(line, file=stream)
    return report, report["passed"], meta


_RUNNERS = {
    "green": _run_green,
    "martin": _run_martin,
    "harmonic": _run_harmonic,
    "spine-scan": _run_spine_scan,
    "conformal": _run_conformal,
    "phi": _run_phi,
    "kms": _run_kms,
    "product": _run_product,
    "suite": _run_suite,
}


# -- output --------------------------------------------------------------------


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def _to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])

    def emit(prefix, val):
        if isinstance(val, dict):
            for k in sorted(val):
                emit(f"{prefix}.{k}" if prefix else str(k), val[k])
        elif isinstance(val, list):
            for i, v in enumerate(val):
                emit(f"{prefix}.{i}", v)
        else:
            writer.writerow([prefix, val])

    emit("", report)
    return buf.getvalue()


def _format_report(report: dict, fmt: str) -> str:
    safe = _json_safe(report)
    if fmt == "csv":
        return _to_csv(safe)
    return json.dumps(safe, sort_keys=True, indent=2) + "\n"


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = _merge_config(args)
        seed, workers, tol = _common(cfg)
        out = _RUNNERS[args.command](cfg, seed, workers, tol)
    except ConfigError as exc:
        field = f" (field: {exc.field})" if exc.field else ""
        print(f"config error: {exc}{field}", file=sys.stderr)
        return EXIT_USAGE
    except UnsupportedGroupError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceLimitError, ConvergenceError, SamplingError, RangeError,
            TransienceError, PrecisionError, PartitionError) as exc:
        print(f"resource/convergence error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    report, ok = out[0], out[1]
    extra_meta = out[2] if len(out) > 2 else {}
    fmt = cfg.get("format", "json")
    if fmt not in ("json", "csv"):
        print(f"config error: format must be json or csv, got {fmt!r}",
              file=sys.stderr)
        return EXIT_USAGE
    text = _format_report(report, fmt)
    out_path = cfg.get("out")
    if out_path:
        _write_atomic(out_path, text)
        meta = {
            "command": args.command,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "elapsed_s": round(time.perf_counter() - t0, 3),
            "workers": workers,
            "seed": seed,
        }
        meta.update(_json_safe(extra_meta))
        _write_atomic(out_path + ".meta.json",
                      json.dumps(meta, sort_keys=True, indent=2) + "\n")
    else:
        print(text, end="")
    return EXIT_OK if ok else EXIT_VERDICT


if __name__ == "__main__":
    raise SystemExit(main())
