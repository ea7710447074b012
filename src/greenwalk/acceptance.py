"""End-to-end acceptance battery.

Thirteen numbered checks tie the package together: Green kernel tables by
two routes, boundary kernels against the exact tree formula, the cocycle
and harmonicity identities, Monte Carlo harmonic measure, Radon-Nikodym
and KMS residuals, spine detection and its absence, and the two-factor
product construction.  `run_all` returns a report dict that depends only
on the seed, never on the worker count; timings live in a separate meta
dict so equal-seed runs serialize to identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from functools import partial

from . import conformal as cf
from .boundary import (
    BoundaryApproximant,
    best_spine_candidate,
    cocycle_residual,
    extend_kernel,
    free_tree_kernel_oracle,
    harmonicity_residual,
)
from .groups import GroupElement, GroupModel, parse_element, shared_ball
from .kernels import build_kernel_table, harnack_scan
from .measures import (
    MeasureModel,
    _random_word,
    all_cells,
    cell_name,
    tree_exit_measure,
    uniform_depth1_measure,
)
from .sampler import harmonic_measure_estimate
from .walks import (
    drift_z,
    generation_certificate,
    product_walk,
    srw_free,
    wreath_walk,
)

# the standing wreath example: lamp order 2, right drift 0.75, lamp rate 0.4
WREATH_Q, WREATH_ALPHA, WREATH_GAMMA = 2, 0.75, 0.4

# the letters of F_2 in the order the battery's random words draw them
_F2_LETTERS = (-2, -1, 1, 2)

# the tables and the measure that several checks share, by ctx key
_BUILDERS = {
    "t_f2": lambda ctx: build_kernel_table(srw_free(2), radius=8,
                                           method="linear-solve"),
    # sequence witnesses at depth 8 against |g| <= 4 need radius 12
    "t_f2_deep": lambda ctx: build_kernel_table(srw_free(2), radius=12,
                                                method="linear-solve"),
    "t_drift": lambda ctx: build_kernel_table(drift_z(0.7), radius=20),
    "t_wreath": lambda ctx: build_kernel_table(
        wreath_walk(WREATH_Q, WREATH_ALPHA, WREATH_GAMMA)),
    "m_f2": lambda ctx: harmonic_measure_estimate(
        srw_free(2), depth=4, n_samples=ctx["samples"],
        seed=ctx["seed"], workers=ctx["workers"]),
}


def _shared(ctx, key: str):
    """ctx[key], built on first use."""
    if key not in ctx:
        ctx[key] = _BUILDERS[key](ctx)
    return ctx[key]


def _check_green(ctx):
    """G(e,e) = 3/2 on F_2 by linear solve and by series, within 1e-5."""
    ts = _shared(ctx, "t_f2")
    tr = build_kernel_table(ts.walk, radius=8, method="series")
    e = ts.walk.group.identity()
    vs, es = ts.green_at(e), ts.entry_error(e)
    vr, er = tr.green_at(e), tr.entry_error(e)
    ok = (abs(vs - 1.5) <= 1e-5 and abs(vr - 1.5) <= 1e-5
          and abs(vs - vr) <= es + er + 1e-15)
    return ok, {
        "target": 1.5,
        "solve": vs, "solve_err": es,
        "series": vr, "series_err": er,
        "cross_gap": abs(vs - vr),
    }


def _check_martin(ctx):
    """Sequence-route kernels match the confluence formula on 200 pairs."""
    G = GroupModel.free(2)
    t = _shared(ctx, "t_f2_deep")
    rng = random.Random(ctx["seed"] * 1000 + 2)
    word = partial(_random_word, _F2_LETTERS, pick=rng.randrange)
    worst = 0.0
    for _ in range(200):
        g = GroupElement("free", word(rng.randint(0, 4)))
        prefix = word(8)
        seq = [GroupElement("free", prefix[:i + 1]) for i in range(len(prefix))]
        xi = BoundaryApproximant.sequence(G, seq)
        val, _ = extend_kernel(t, g, xi)
        exact = float(free_tree_kernel_oracle(
            2, g, BoundaryApproximant.tree_end(G, prefix)))
        worst = max(worst, abs(val - exact))
    return worst <= 1e-4, {"pairs": 200, "max_abs_gap": worst,
                           "tolerance": 1e-4}


def _identity_battery(ctx, salt: int, residual, arity: int, counts: tuple,
                      lattice_ends: range, wreath_ends: range,
                      depths: tuple) -> dict:
    """{group: worst residual(t, g_1, ..., g_arity, xi)} over counts[i]
    draws on F_2, the drifted Z walk and the wreath walk, in that order.

    F_2 draws words of length <= 2 and then a fresh end, a random 8-letter
    word; the lattice draws steps in [-2, 2] and the wreath walk elements
    of its radius-2 ball, each against the translation sequence of its
    `*_ends` read at its witness depth in `depths`.
    """
    rng = random.Random(ctx["seed"] * 1000 + salt)
    word = partial(_random_word, _F2_LETTERS, pick=rng.randrange)
    tf, td, tw = (_shared(ctx, key)
                  for key in ("t_f2", "t_drift", "t_wreath"))
    Gf, Gz, Gw = tf.walk.group, td.walk.group, tw.walk.group
    ball2 = shared_ball(Gw, 2).elements
    xi_z = BoundaryApproximant.sequence(
        Gz, [GroupElement("lattice", (n,)) for n in lattice_ends])
    xi_w = BoundaryApproximant.sequence(
        Gw, [GroupElement("wreath", ((), n)) for n in wreath_ends])

    def worst(t, n, draw, end, **depth):
        top = 0.0
        for _ in range(n):
            gs = [draw() for _ in range(arity)]
            top = max(top, residual(t, *gs, end(), **depth))
        return top

    return {
        "free": worst(tf, counts[0],
                      lambda: GroupElement("free", word(rng.randint(0, 2))),
                      lambda: BoundaryApproximant.tree_end(Gf, word(8))),
        "lattice": worst(td, counts[1],
                         lambda: GroupElement("lattice",
                                              (rng.randint(-2, 2),)),
                         lambda: xi_z, at_depth=depths[0]),
        "wreath": worst(tw, counts[2], lambda: rng.choice(ball2),
                        lambda: xi_w, at_depth=depths[1]),
    }


def _check_cocycle(ctx):
    """D_{gh} = D_g(h.) + D_h on 500 random triples over three groups."""
    worst = _identity_battery(
        ctx, 3, cocycle_residual, arity=2, counts=(170, 165, 165),
        lattice_ends=range(1, 11), wreath_ends=range(1, 7), depths=(9, 5))
    return max(worst.values()) < 1e-6, {
        "triples": 500, "worst_by_group": worst, "tolerance": 1e-6}


def _check_harmonicity(ctx):
    """sum_s mu(s) K(gs, xi) = K(g, xi) on 200 pairs per group."""
    worst = _identity_battery(
        ctx, 4, harmonicity_residual, arity=1, counts=(200, 200, 200),
        lattice_ends=range(5, 15), wreath_ends=range(4, 8), depths=(9, 3))
    return max(worst.values()) < 1e-4, {
        "pairs_per_group": 200, "worst_by_group": worst, "tolerance": 1e-4}


def _check_harnack(ctx):
    """Empirical Harnack constant on F_2 at radius 3 is 3 within 1%."""
    C = harnack_scan(_shared(ctx, "t_f2"), 3)
    ok = abs(C - 3.0) <= 0.03
    return ok, {"constant": C, "target": 3.0, "rel_tolerance": 0.01}


def _check_harmonic_measure(ctx):
    """10^6-path exit law: depth-1 mass 1/4, depth-2 mass 1/12, each
    within three standard errors; non-convergence under 0.1%."""
    m = _shared(ctx, "m_f2")
    G = m.group
    worst1 = max(abs(m.cell_mass(c) - 0.25) / m.cell_se(c)
                 for c in all_cells(G, 1))
    worst2 = max(abs(m.cell_mass(c) - 1.0 / 12.0) / m.cell_se(c)
                 for c in all_cells(G, 2))
    ok = max(worst1, worst2) < cf.Z_LIMIT and m.nonconverged < 1e-3
    return ok, {
        "samples": ctx["samples"],
        "depth1_masses": {cell_name(G, c): m.cell_mass(c)
                          for c in all_cells(G, 1)},
        "worst_z_depth1": worst1,
        "worst_z_depth2": worst2,
        "nonconverged": m.nonconverged,
    }


def _check_radon_nikodym(ctx):
    """nu(g^{-1}B) = integral over B of K(g,.) for every generator and
    every cylinder of depth <= 2."""
    t = _shared(ctx, "t_f2")
    m = _shared(ctx, "m_f2")
    G = m.group
    gens = [parse_element(G, s) for s in ("a", "b", "A", "B")]
    cells = all_cells(G, 1) + all_cells(G, 2)
    worst_z, worst_at = 0.0, None
    for g in gens:
        for B in cells:
            _, z = cf.rn_identity_check(t, m, g, B)
            if z > worst_z:
                worst_z, worst_at = z, f"g={cell_name(G, g.data)} B={cell_name(G, B)}"
    a = parse_element(G, "a")
    lhs, _ = cf.cell_pullback_mass(m, a, (1,))
    rhs = sum(cf.kernel_on_cell(t, a, c) * m.cell_mass(c)
              for c in all_cells(G, 4) if c[:1] == (1,))
    ok = worst_z < cf.Z_LIMIT
    return ok, {
        "checks": len(gens) * len(cells),
        "worst_z": worst_z, "worst_at": worst_at,
        "anchor_pullback": lhs, "anchor_integral": rhs,
        "anchor_target": 0.75,
    }


def _check_phi_curve(ctx):
    """Uniform depth-1 measure: Phi(0) = Phi(1) = 1, Phi(1/2) = sqrt(3)/2,
    and the default grid is convex within error."""
    t = _shared(ctx, "t_f2")
    m = uniform_depth1_measure(GroupModel.free(2))
    anchors = cf.phi_curve(t, m, 1, grid=[0.0, 0.5, 1.0])
    slack = [max(cf.Z_LIMIT * e, 1e-9) for e in anchors.errors]
    target_half = math.sqrt(3.0) / 2.0
    ok_anchors = (abs(anchors.values[0] - 1.0) <= slack[0]
                  and abs(anchors.values[1] - target_half) <= slack[1]
                  and abs(anchors.values[2] - 1.0) <= slack[2])
    curve = cf.phi_curve(t, m, 1)
    ok = ok_anchors and curve.convex_within_error()
    return ok, {
        "phi_0": anchors.values[0],
        "phi_half": anchors.values[1],
        "phi_half_target": target_half,
        "phi_1": anchors.values[2],
        "min_second_difference": min(curve.second_differences()),
        "convex_within_error": curve.convex_within_error(),
    }


def _check_spine_drift(ctx):
    """Drifted Z walk: +inf is a spine at radius 6, K(1, -inf) = 3/7, and
    the Dirac there classifies as alternative A for every beta."""
    t = _shared(ctx, "t_drift")
    G = t.walk.group
    scan = best_spine_candidate(t, 6)
    best = scan["best"]
    xi_minus = BoundaryApproximant.sequence(
        G, [GroupElement("lattice", (-n,)) for n in range(1, 11)])
    k_val, _ = extend_kernel(t, GroupElement("lattice", (1,)), xi_minus)
    xi_plus = BoundaryApproximant.sequence(
        G, [GroupElement("lattice", (n,)) for n in range(1, 11)])
    m = MeasureModel.dirac(G, xi=xi_plus, atom="+inf",
                           note="unit atom at the spine")
    verdict = cf.classify(t, m, best)
    ok = (best["isSpine"] and best["label"] == "+inf"
          and best["maxDev"] < 1e-3
          and abs(k_val - 3.0 / 7.0) <= 1e-3
          and verdict.verdict == "A"
          and verdict.admissible == "all real beta")
    return ok, {
        "best_label": best["label"], "isSpine": best["isSpine"],
        "maxDev": best["maxDev"],
        "k_one_minus_inf": k_val, "k_target": 3.0 / 7.0,
        "verdict": verdict.verdict, "admissible": verdict.admissible,
        "evidence_set": verdict.evidence["set"],
    }


def _check_no_spine_free(ctx):
    """F_2 SRW: every spine candidate fails badly, invariant measures at
    depth 2 are infeasible with an exact certificate, and the classifier
    admits beta = 1 only."""
    t = _shared(ctx, "t_f2")
    m = _shared(ctx, "m_f2")
    scan = best_spine_candidate(t, 3)
    min_dev = min(row["maxDev"] for row in scan["all"])
    feas = cf.invariant_measure_feasibility(GroupModel.free(2), 2)
    verdict = cf.classify(t, m, scan["best"])
    ok = (min_dev > 0.5
          and not feas["feasible"] and feas.get("certificate") is not None
          and verdict.evidence["set"] == [1]
          and verdict.verdict == "C")
    return ok, {
        "candidates": len(scan["all"]),
        "min_maxDev": min_dev,
        "feasible": feas["feasible"],
        "certificate_rows": len(feas["certificate"]["multipliers"])
        if feas.get("certificate") else 0,
        "verdict": verdict.verdict,
        "evidence_set": verdict.evidence["set"],
    }


def _random_kms_word(rng: random.Random, G: GroupModel):
    word = partial(_random_word, _F2_LETTERS, pick=rng.randrange)
    g1 = GroupElement("free", word(rng.randint(1, 2)))
    g2 = G.inv(g1)
    c1 = word(rng.randint(1, 2))
    f1 = cf.CellFunction.indicator(G, c1)
    if rng.random() < 0.25:
        f2 = cf.CellFunction.one(G)
    else:
        f2 = cf.CellFunction.indicator(G, word(rng.randint(1, 2)))
    return f1, g1, f2, g2


def _check_kms(ctx):
    """100 random two-factor words: z < 3 at beta = 1; the same words at
    beta = 2 sit at least 10 error bars from zero.

    Words whose exact beta = 2 residual (on the closed-form exit law)
    is below 0.02 test nothing on either side, so they are resampled.
    """
    t = _shared(ctx, "t_f2")
    m = _shared(ctx, "m_f2")
    G = m.group
    oracle = tree_exit_measure(G, 4)
    rng = random.Random(ctx["seed"] * 1000 + 11)
    worst_z1 = 0.0
    min_ratio2 = math.inf
    for _ in range(100):
        for _ in range(50):
            f1, g1, f2, g2 = _random_kms_word(rng, G)
            pred, _ = cf.kms_residual(t, oracle, 2.0, f1, g1, f2, g2)
            if pred >= 0.02:
                break
        r1, e1 = cf.kms_residual(t, m, 1.0, f1, g1, f2, g2)
        worst_z1 = max(worst_z1, cf.z_score(r1, e1))
        r2, e2 = cf.kms_residual(t, m, 2.0, f1, g1, f2, g2)
        ratio = r2 / e2 if e2 > 0 else math.inf
        min_ratio2 = min(min_ratio2, ratio)
    ok = worst_z1 < cf.Z_LIMIT and min_ratio2 >= 10.0
    return ok, {"words": 100, "worst_z_beta1": worst_z1,
                "min_ratio_beta2": min_ratio2,
                "nondegeneracy_floor": 0.02}


def _check_product(ctx):
    """Product of the wreath walk and the F_2 SRW at a = 1/2: exact mass
    and marginals, semigroup generation, pushforward conformality, and a
    clean separation from the spine-direction Dirac."""
    mu0 = wreath_walk(WREATH_Q, WREATH_ALPHA, WREATH_GAMMA)
    mu1 = srw_free(2)
    p2 = product_walk(mu0, mu1, 0.5)
    G2 = p2.group
    left, right = G2.factors

    mass_gap = abs(sum(p for _, p in p2.steps) - 1.0)
    cert = generation_certificate(p2)

    marginal = {}
    for s, p in p2.steps:
        marginal[s.data[0]] = marginal.get(s.data[0], 0.0) + p
    expected = {left.identity(): 0.5}
    for s, p in mu0.steps:
        expected[s] = expected.get(s, 0.0) + 0.5 * p
    marg_gap = max(abs(marginal.get(g, 0.0) - expected.get(g, 0.0))
                   for g in set(marginal) | set(expected))

    t2 = build_kernel_table(p2)
    t1 = _shared(ctx, "t_f2")
    m1 = _shared(ctx, "m_f2")
    G1 = m1.group
    ppc = cf.phi_map_pushforward_check(t2, t1, m1, all_cells(G1, 1))
    worst_conf_z = max(row["z"] for row in ppc["conformality"])

    tw = _shared(ctx, "t_wreath")
    wscan = best_spine_candidate(tw, 2)
    dev = wscan["best"]["maxDev"]
    push_masses = {"Phi(C(" + cell_name(G1, c) + "))": m1.cell_mass(c)
                   for c in all_cells(G1, 1)}
    push_masses["spine0"] = 0.0
    report = cf.multiplicity_report([
        {"label": "factor-1 pushforward", "masses": push_masses,
         "conformal": worst_conf_z < cf.Z_LIMIT},
        {"label": "spine-direction Dirac", "masses": {"spine0": 1.0},
         "conformal": True,
         "detail": f"kernel deviation {dev:.3f} at radius 2 absorbed "
                   "into the error bar"},
    ])
    tv = report["pairs"][0]["tv_lower_bound"]

    ok = (mass_gap <= 1e-12 and cert.covered and marg_gap <= 1e-12
          and worst_conf_z < cf.Z_LIMIT and tv > 0.9)
    return ok, {
        "mass_gap": mass_gap,
        "generation_covered": cert.covered,
        "marginal_gap": marg_gap,
        "worst_conformality_z": worst_conf_z,
        "equivariance_max_residual": ppc["equivariance"]["max_residual"],
        "identity_max_residual": ppc["identity"]["max_residual"],
        "spine_scan_dev": dev,
        "tv_lower_bound": tv,
        "distinguished": report["count_distinguished"],
    }


def _measure_fingerprint(m: MeasureModel) -> str:
    canon = json.dumps(m.to_json_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _check_determinism(ctx):
    """The same seed gives byte-identical estimates at 1 and at 3 workers."""
    n = max(1000, min(ctx["samples"], 200_000))
    w = srw_free(2)
    ma = harmonic_measure_estimate(w, 4, n, ctx["seed"], workers=1)
    mb = harmonic_measure_estimate(w, 4, n, ctx["seed"], workers=3)
    ha, hb = _measure_fingerprint(ma), _measure_fingerprint(mb)
    ok = ha == hb
    return ok, {"samples": n, "fingerprint_w1": ha, "fingerprint_w3": hb,
                "identical": ok}


_CHECKS = [
    (1, "green-dual-route", _check_green),
    (2, "martin-kernel-exactness", _check_martin),
    (3, "cocycle-identity", _check_cocycle),
    (4, "harmonicity", _check_harmonicity),
    (5, "harnack-constant", _check_harnack),
    (6, "harmonic-measure", _check_harmonic_measure),
    (7, "radon-nikodym", _check_radon_nikodym),
    (8, "phi-curve", _check_phi_curve),
    (9, "spine-drifted-z", _check_spine_drift),
    (10, "no-spine-free", _check_no_spine_free),
    (11, "kms-residuals", _check_kms),
    (12, "product-construction", _check_product),
    (13, "determinism", _check_determinism),
]


def run_all(seed: int = 7, workers: int = 1, samples: int = 1_000_000):
    """Run the full battery; returns (report, meta).

    The report is deterministic for a fixed seed and sample count; meta
    carries wall-clock timings and the worker count, which must stay out
    of the report for the determinism contract to hold.
    """
    ctx = {"seed": seed, "workers": workers, "samples": samples}
    checks = []
    timings = {}
    for num, name, fn in _CHECKS:
        t0 = time.perf_counter()
        passed, detail = fn(ctx)
        timings[name] = round(time.perf_counter() - t0, 3)
        checks.append({"number": num, "name": name,
                       "passed": bool(passed), "detail": detail})
    report = {
        "suite": "acceptance",
        "seed": seed,
        "samples": samples,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    meta = {"workers": workers, "timings_s": timings,
            "total_s": round(sum(timings.values()), 3)}
    return report, meta


def summary_lines(report: dict) -> list:
    out = []
    for c in report["checks"]:
        mark = "PASS" if c["passed"] else "FAIL"
        out.append(f"{mark}  {c['number']:2d} {c['name']}")
    return out
