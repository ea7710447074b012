import math
import os
from functools import reduce
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

import greenwalk
from greenwalk import groups, kernels
from greenwalk.errors import RangeError, TransienceError
from greenwalk.groups import (
    GroupElement,
    GroupModel,
    ball_enumerate,
    parse_element,
    shared_ball,
)
from greenwalk.kernels import (
    BallOperator,
    _scan_positions,
    _absorbing_green_row,
    _build_solve,
    build_kernel_table,
    harnack_scan,
    n_step_distribution,
)
from greenwalk.walks import (
    drift_z,
    make_walk,
    product_walk,
    srw_free,
    wreath_walk,
)

F2 = GroupModel.free(2)


# -- F_2 closed forms ---------------------------------------------------------
#
# For the simple walk on F_k the first-visit probability across one edge is
# F = 1/(2k-1), hence G(e,e) = 1/(1 - 2k*F/(2k)) ... = (2k-1)/(2k-2) and
# G(e,g) = G(e,e) * F^{|g|}.  For k = 2: G(e,e) = 3/2, F = 1/3.


def test_f2_green_at_identity_both_methods():
    for method in ("linear-solve", "series"):
        t = build_kernel_table(srw_free(2), radius=6, method=method)
        e = F2.identity()
        assert abs(t.green_at_e - 1.5) <= t.entry_error(e) + 1e-12
        assert t.green_at_e == pytest.approx(1.5, abs=1e-6)


def test_f2_green_decay(t_f2):
    for word in ("a", "ab", "abA", "abab", "ababa"):
        g = parse_element(F2, word)
        expected = 1.5 * 3.0 ** (-len(g.data))
        assert t_f2.green_at(g) == pytest.approx(expected, rel=1e-9)
        assert t_f2.entry_error(g) <= 1e-6


def test_f2_first_visit_and_martin(t_f2):
    a = parse_element(F2, "a")
    ab = parse_element(F2, "ab")
    # F(e, a) = G(e, a) / G(a, a)
    assert t_f2.green_at(a) / t_f2.green_at_e == pytest.approx(1 / 3, rel=1e-9)
    # moving one step toward h multiplies the kernel by 1/F = 3
    assert t_f2.martin(a, ab) == pytest.approx(3.0, rel=1e-9)
    assert t_f2.martin(F2.identity(), ab) == 1.0


def test_f2_translation_invariance(t_f2):
    a = parse_element(F2, "a")
    ab = parse_element(F2, "ab")
    b = parse_element(F2, "b")
    assert t_f2.green_pair(a, ab) == t_f2.green_at(b)


def test_range_error_outside_radius(request):
    for name in ("t_f2", "t_drift", "t_wreath"):
        _check_table_range(request.getfixturevalue(name))


def _check_table_range(t):
    G = t.walk.group
    if t.walk.is_isotropic_free_srw:
        # the spheres find only reduced words of F_2 up to the chain radius
        far = [GroupElement("free", (1, 2) * 5),  # length 10 > radius 8
               GroupElement("wreath", ((), 0)),
               GroupElement("free", (3,)),
               GroupElement("free", (1, -1)),
               GroupElement("free", (1,) * (t.meta["work_radius"] + 1))]
    else:
        # a ball table holds the whole work ball; only its depth gates reads
        work = shared_ball(G, t.meta["work_radius"])
        far = [g for g, d in zip(work.elements, work.depth) if d > t.radius]
        assert far
    for g in far:
        assert not t.covers(g), g
        with pytest.raises(RangeError):
            t.green_at(g)
        with pytest.raises(RangeError):
            t.entry_error(g)
    for g in shared_ball(G, t.radius).elements:
        assert t.covers(g), g
        assert type(t.green_at(g)) is float
        assert type(t.entry_error(g)) is float


# -- drift walk on Z ----------------------------------------------------------
#
# For P(+1)=p > 1/2: G(0,0) = 1/(p-q) with q = 1-p, G(0,n) = G(0,0) for
# n > 0 (the walk drifts right, hitting is certain), and
# G(0,-n) = G(0,0) * (q/p)^n.


def test_drift_green_values(t_drift):
    G = t_drift.walk.group
    g00 = 1.0 / (0.7 - 0.3)
    assert t_drift.green_at_e == pytest.approx(g00, rel=1e-9)
    for n in range(1, 10):
        right = GroupElement("lattice", (n,))
        left = GroupElement("lattice", (-n,))
        assert t_drift.green_at(right) == pytest.approx(g00, rel=1e-9)
        assert t_drift.green_at(left) == pytest.approx(
            g00 * (0.3 / 0.7) ** n, rel=1e-8
        )
    assert G.kind == "lattice"


def test_drift_dual_route_agreement():
    solve = build_kernel_table(drift_z(0.7), radius=12, method="linear-solve")
    series = build_kernel_table(drift_z(0.7), radius=12, method="series")
    assert solve.meta["error_kind"] == "margin-halving estimate"
    assert series.meta["error_kind"] == "geometric tail envelope"
    for n in range(-12, 13):
        g = GroupElement("lattice", (n,))
        gap = abs(solve.green_at(g) - series.green_at(g))
        budget = solve.entry_error(g) + series.entry_error(g) + 1e-12
        assert gap <= budget, f"n={n}: gap {gap} exceeds {budget}"


def test_recurrent_walk_rejected():
    with pytest.raises(TransienceError):
        build_kernel_table(drift_z(0.5), radius=6)


def test_wreath_dual_route_agreement():
    w = wreath_walk(2, 0.75, 0.4)
    solve = build_kernel_table(w, radius=4, method="linear-solve")
    series = build_kernel_table(w, radius=4, method="series")
    Gw = w.group
    probes = [
        Gw.identity(),
        parse_element(Gw, "{}@1"),
        parse_element(Gw, "{}@2"),
        parse_element(Gw, "{0:1}@0"),
        parse_element(Gw, "{0:1,1:1}@2"),
        parse_element(Gw, "{}@-2"),
    ]
    for g in probes:
        gap = abs(solve.green_at(g) - series.green_at(g))
        budget = solve.entry_error(g) + series.entry_error(g) + 1e-10
        assert gap <= budget, f"{g}: gap {gap} exceeds {budget}"


# -- Harnack, n-step law ------------------------------------------------------


def test_harnack_constant_f2(t_f2):
    # on the tree the Green ratio across one edge is exactly 1/F = 3
    c = harnack_scan(t_f2, radius=3)
    assert c == pytest.approx(3.0, abs=1e-6)


def _pairwise_positions(table, radius):
    """The table position of x^-1 y for each pair of the scan ball, one
    product and one lookup per pair: the loop the vectorised scan
    replaced, kept as its reference."""
    G = table.walk.group
    elements = shared_ball(G, radius).elements
    pos = [table._position(G._mul(inv, y))
           for inv in map(G.inv, elements) for y in elements]
    return np.reshape(pos, (len(elements), len(elements)))


def _pairwise_harnack(table, radius):
    pos = _pairwise_positions(table, radius)
    dist, vals = table.ball.depth[pos], table.values[pos]
    ratio = reduce(np.maximum, (np.divide.outer(v, v) for v in vals.T))
    up = (ratio > 1.0) & (dist > 0)
    return max([t ** (1.0 / d) for t, d in zip(ratio[up].tolist(),
                                               dist[up].tolist())],
               default=1.0)


def _skewed_f2_table():
    steps = {"a": 0.35, "A": 0.15, "b": 0.3, "B": 0.2}
    walk = make_walk(F2, {parse_element(F2, s): p for s, p in steps.items()})
    return build_kernel_table(walk, radius=4, margin=2)


HARNACK_TABLES = {
    "F3-srw": lambda: build_kernel_table(srw_free(3), radius=8),
    "F2-skewed": _skewed_f2_table,
}


@pytest.mark.parametrize("table, radius", [
    # sphere tables, where a position is a length
    ("t_f2", 2), ("t_f2", 3), ("t_f2", 4), ("F3-srw", 3),
    # ball tables, where a position follows neighbour columns
    ("t_wreath", 3), ("F2-skewed", 2),
])
def test_harnack_scan_matches_pairwise_reference(table, radius, request):
    t = (HARNACK_TABLES[table]() if table in HARNACK_TABLES
         else request.getfixturevalue(table))
    want = _pairwise_positions(t, radius)
    assert np.array_equal(
        _scan_positions(t, shared_ball(t.walk.group, radius)), want)
    assert harnack_scan(t, radius) == _pairwise_harnack(t, radius)


def test_harnack_reads_only_the_scan_ball(t_f2, monkeypatch):
    radii = []

    def recording_ball(G, radius):
        radii.append(radius)
        return shared_ball(G, radius)

    monkeypatch.setattr(kernels, "shared_ball", recording_ball)
    harnack_scan(t_f2, radius=2)
    assert radii == [2]


def test_harnack_needs_double_radius(t_f2):
    with pytest.raises(RangeError):
        harnack_scan(t_f2, radius=5)


def test_kernel_bounds_hold(t_f2):
    # G(g,e)/G(e,e) <= K(g,h) <= G(e,e)/G(e,g)
    a = parse_element(F2, "a")
    lower = t_f2.green_at(F2.inv(a)) / t_f2.green_at_e
    upper = t_f2.green_at_e / t_f2.green_at(a)
    for word in ("ab", "ba", "Ab", "aa"):
        k = t_f2.martin(a, parse_element(F2, word))
        assert lower - 1e-9 <= k <= upper + 1e-9


def test_n_step_distribution_mass():
    dist, dropped = n_step_distribution(srw_free(2), 4, radius=4)
    assert dropped == pytest.approx(0.0, abs=1e-15)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    # parity: after an even number of steps only even-length words carry mass
    assert all(len(g.data) % 2 == 0 for g in dist)


def _rational_n_step(walk, n, radius):
    """The n-step law on B(e, radius) and the mass that left it, by
    convolution in Fractions: the oracle for the float matvecs."""
    G = walk.group
    ball = shared_ball(G, radius)
    dist, dropped = {G.identity(): Fraction(1)}, Fraction(0)
    for _ in range(n):
        nxt = {}
        for a, mass in dist.items():
            for s, p in walk.steps:
                b = G.mul(a, s)
                if ball.position(b) is not None:
                    nxt[b] = nxt.get(b, 0) + mass * Fraction(p)
                else:
                    dropped += mass * Fraction(p)
        dist = nxt
    return dist, dropped


def test_n_step_distribution_exact_matches_float():
    ex, ex_drop = _rational_n_step(srw_free(2), 4, radius=4)
    fl, _ = n_step_distribution(srw_free(2), 4, radius=4)
    assert ex_drop == 0
    assert set(ex) == set(fl)
    for g, frac in ex.items():
        assert fl[g] == pytest.approx(float(frac), rel=1e-12)
    # closed 4-step walks on the 4-regular tree: 16 out/back pairs plus
    # 12 two-deep excursions, each of probability 4^-4
    assert ex[F2.identity()] == Fraction(28, 256)


def test_n_step_truncation_drops_mass():
    dist, dropped = n_step_distribution(srw_free(2), 6, radius=2)
    assert dropped > 0
    assert sum(dist.values()) + dropped == pytest.approx(1.0, abs=1e-12)


# -- ball operators -------------------------------------------------------------


def _lazy_f2():
    e = F2.identity()
    return make_walk(F2, {e: 0.2, **{s: 0.2 for s in F2.generators()}})


def _lattice2_drift():
    Z2 = GroupModel.lattice(2)
    gens = Z2.generators()
    return make_walk(Z2, dict(zip(gens, (0.4, 0.1, 0.3, 0.2))))


def _ab_walk():
    """F_2 walk with a step of word length two."""
    return make_walk(F2, {parse_element(F2, x): 0.2
                          for x in ("a", "A", "b", "B", "ab")})


def _mul_successors(walk, ball):
    G = walk.group
    found = [[ball.position(G.mul(a, s)) for a in ball.elements]
             for s in walk.support()]
    return [[-1 if i is None else i for i in row] for row in found]


@pytest.mark.parametrize("walk", [
    srw_free(2),
    _lattice2_drift(),
    wreath_walk(2, 0.75, 0.4),
    wreath_walk(3, 0.6, 0.3),
    product_walk(wreath_walk(2, 0.75, 0.4), _lazy_f2(), 0.5),
    _ab_walk(),
], ids=["free:2", "lattice:2", "wreath:2", "wreath:3", "product-hold", "ab"])
def test_ball_operator_successors_match_mul(walk):
    ball = ball_enumerate(walk.group, 3)
    op = BallOperator.on_ball(walk, ball)
    assert [list(idx) for idx in op.succ] == _mul_successors(walk, ball)
    assert op.start == ball.position(walk.group.identity())


def test_product_hold_step_stays_put():
    walk = product_walk(wreath_walk(2, 0.75, 0.4), _lazy_f2(), 0.5)
    hold = walk.support().index(walk.group.identity())
    op = BallOperator.on_ball(walk, ball_enumerate(walk.group, 2))
    assert list(op.succ[hold]) == list(range(op.size))


@pytest.mark.parametrize("walk", [
    wreath_walk(2, 0.75, 0.4),
    product_walk(wreath_walk(2, 0.75, 0.4), _lazy_f2(), 0.5),
    _ab_walk(),
], ids=["wreath", "product-hold", "ab"])
def test_restricted_operator_equals_smaller_ball(walk):
    big = ball_enumerate(walk.group, 4)
    keep = big.depth <= 2
    sub = BallOperator.on_ball(walk, big).restricted(keep)
    fresh = BallOperator.on_ball(walk, ball_enumerate(walk.group, 2))
    assert (sub.size, sub.start) == (fresh.size, fresh.start)
    assert [list(a) for a in sub.succ] == [list(b) for b in fresh.succ]
    assert sub.probs == fresh.probs


def _coo_operator(op):
    """P^T and the exit mass as scipy builds them from COO triples: one
    (destination, source, probability) per step that stays inside, with
    duplicate entries summed."""
    n = op.size
    dest = np.concatenate(op.succ)
    src = np.tile(np.arange(n), len(op.succ))
    mass = np.repeat(op.probs, n)
    inside = dest >= 0
    step = scipy.sparse.csr_matrix(
        (mass[inside], (dest[inside], src[inside])), shape=(n, n))
    return step, np.bincount(src[~inside], weights=mass[~inside], minlength=n)


def _uniform_walk(G):
    return make_walk(G, {s: 1.0 / len(G.generators()) for s in G.generators()})


@pytest.mark.parametrize("walk, space, keep", [
    pytest.param(srw_free(k), kernels.Spheres(k, 12), None,
                 id=f"spheres-{k}") for k in (2, 3, 9)
] + [
    pytest.param(srw_free(3), kernels.Spheres(3, 12), 7,
                 id="spheres-restricted"),
    pytest.param(_ab_walk(), 4, None, id="ab"),
    pytest.param(_ab_walk(), 5, 3, id="ab-restricted"),
    pytest.param(product_walk(wreath_walk(2, 0.75, 0.4), _lazy_f2(), 0.5), 4,
                 None, id="product-hold"),
    pytest.param(_uniform_walk(GroupModel.lattice(40)), 2, None,
                 id="lattice40-two-words"),
])
def test_operator_csr_matches_coo_reference(walk, space, keep):
    """The operator's CSR arrays and exit mass equal scipy's COO build,
    bytes and dtypes, on the spheres of F_2, F_3 and F_9 (whose 2k - 1
    outward steps, and the identity's 2k steps, land on one entry), a
    walk with a non-generator step, a walk that holds, restricted
    operators (keeping depth <= keep), and a ball whose codes take two
    int64 words (lattice:40 at radius 2, 80 generators).  `space` is the
    state space or the radius of a ball."""
    if isinstance(space, int):
        space = ball_enumerate(walk.group, space)
    op = BallOperator.on_ball(walk, space)
    if keep is not None:
        op = op.restricted(op.depth <= keep)
    ref, exit = _coo_operator(op)
    assert ref.has_canonical_format
    for key in ("indptr", "indices", "data"):
        got, want = getattr(op.step, key), getattr(ref, key)
        assert got.dtype == want.dtype, key
        assert got.tobytes() == want.tobytes(), key
    assert op.exit.dtype == exit.dtype
    assert op.exit.tobytes() == exit.tobytes()


def test_product_ball_and_operator_peak_memory():
    """The product ball at radius 7 (15,910 elements) and its operator are
    built with no ball-sized int64 temporaries: traced peak 2.8 MiB, where
    the joint sort of ball and products, the int64 neighbour blocks and
    the COO build of the operator took 5.3 MiB."""
    walk = product_walk(wreath_walk(2, 0.75, 0.4), srw_free(2), 0.5)
    tracemalloc.start()
    try:
        BallOperator.on_ball(walk, ball_enumerate(walk.group, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# (fixed-point value, sparse-LU value): the first is the table's own
# solve; the second was recorded with every operator entry computed by
# `mul` and the rows solved by sparse LU, and stays within 1e-14
_AB_TABLE = {
    "green_e": (1.2931375442094262, 1.2931375442094262),
    "error_e": (0.0004950744945499963, 0.0004950744945497743),
    "green_ab": (0.40289499884318386, 0.4028949988431838),
    "error_ab": (0.0015626234957149543, 0.0015626234957147878),
    "max_error": (0.003002560380481828, 0.0030025603804817863),
}


def test_non_generator_step_table_unchanged():
    walk = _ab_walk()
    t = build_kernel_table(walk, radius=3, margin=4)
    assert t.meta["ball_size"] == 4373
    e, ab = F2.identity(), parse_element(F2, "ab")
    got = {"green_e": t.green_at(e), "error_e": t.entry_error(e),
           "green_ab": t.green_at(ab), "error_ab": t.entry_error(ab),
           "max_error": t.meta["max_entry_error"]}
    for key, (now, lu) in _AB_TABLE.items():
        assert got[key] == now, key
        assert abs(now - lu) <= 1e-14, key


# G(e, a^d) and its error for d = 0..8 on the radius-8 F_2 SRW tables, and
# the series' term count, as the distance chain's banded solve and
# hand-written convolution gave them before the chain ran on the sphere
# operator: the sphere route reproduces them bit for bit
_SRW_TABLE = {
    "linear-solve": (
        [1.5, 0.5, 0.16666666666666666, 0.05555555555555555,
         0.018518518518518517, 0.006172839506172839, 0.00205761316872428,
         0.0006858710562414266, 0.00022862368541380886],
        [1e-15] * 9, None),
    "series": (
        [1.4999999989843809, 0.49999999898438063, 0.16666666601331678,
         0.05555555502296206, 0.0185185182156733, 0.006172839279910376,
         0.002057613048159991, 0.0006858709709098615,
         0.00022862364188955145],
        [2.623034967409802e-09, 2.4467062126991586e-09,
         1.6826450515736392e-09, 1.2771409937710848e-09,
         7.752512731352365e-10, 5.384682239217751e-10,
         3.059096635981316e-10, 2.0097118252510767e-10,
         1.0915741824415878e-10], 112),
}


@pytest.mark.parametrize("method", ["linear-solve", "series"])
def test_srw_table_unchanged(method):
    t = build_kernel_table(srw_free(2), radius=8, method=method)
    words = [GroupElement("free", (1,) * d) for d in range(9)]
    values, errors, steps_used = _SRW_TABLE[method]
    assert [t.green_at(g) for g in words] == values
    assert [t.entry_error(g) for g in words] == errors
    assert t.steps_used == steps_used


@pytest.mark.parametrize("walk, radius, margin", [
    (product_walk(wreath_walk(2, 0.75, 0.4), srw_free(2), 0.5), 5, 2),
    (wreath_walk(2, 0.75, 0.4), 9, 6),
], ids=["product", "wreath"])
def test_generator_walk_tables_decode_no_work_ball_element(walk, radius,
                                                           margin):
    """A walk whose steps are generators builds and reads its table from
    the work ball's codes alone: its elements are never decoded."""
    groups._cached_ball.cache_clear()
    for method in ("linear-solve", "series"):
        t = build_kernel_table(walk, radius=radius, margin=margin,
                               method=method)
        for g in shared_ball(walk.group, radius).elements:
            t.green_at(g)
            t.entry_error(g)
        assert "elements" not in vars(t.ball)


# -- Green rows by the fixed point ------------------------------------------------


def _battery_product():
    return product_walk(wreath_walk(2, 0.75, 0.4), srw_free(2), 0.5)


# the wreath half ball has 155 states and its fixed point takes 219 sweeps,
# so that one row comes from the sparse LU fallback
@pytest.mark.parametrize("walk, radius, margin, half_solver", [
    (_battery_product(), 2, 2, "fixed-point"),
    (wreath_walk(2, 0.75, 0.4), 4, 4, "spsolve"),
    (_ab_walk(), 3, 2, "fixed-point"),
], ids=["product", "wreath", "ab"])
def test_green_rows_match_dense_solve(walk, radius, margin, half_solver):
    # the work-ball and half-ball rows of a linear-solve table
    ball = shared_ball(walk.group, radius + margin)
    op = BallOperator.on_ball(walk, ball)
    half = op.restricted(ball.depth <= radius + max(1, margin // 2))
    for sub, expected in ((op, "fixed-point"), (half, half_solver)):
        row, solver, sweeps = _absorbing_green_row(sub)
        assert solver == expected and sweeps <= sub.size
        dense = np.linalg.solve(np.eye(sub.size) - sub.step.toarray(),
                                sub.start_vector())
        assert np.abs(row - dense).max() <= 1e-13


def test_solve_route_per_table(t_wreath, t_drift):
    # drift-Z mixes too slowly for the fixed point to settle within one
    # sweep per state, so it takes the sparse LU fallback
    product = build_kernel_table(_battery_product())
    slow = build_kernel_table(drift_z(0.51), radius=20)
    for t, solver in ((product, "fixed-point"), (t_wreath, "fixed-point"),
                      (t_drift, "spsolve"), (slow, "spsolve")):
        assert t.meta["solver"] == {"work": solver, "half": solver}
        sweeps = t.meta["sweeps"]
        assert 0 < sweeps["half"] <= sweeps["work"] <= t.meta["ball_size"]
    assert slow.meta["sweeps"]["work"] == slow.meta["ball_size"] == 161


def test_solve_needs_margin():
    with pytest.raises(ValueError, match="margin"):
        build_kernel_table(wreath_walk(2, 0.75, 0.4), radius=2, margin=0)


# -- entry error bars against closed forms ----------------------------------------
#
# Linear-solve tables report |G_{r+m} - G_{r+m/2}| per entry: an estimate,
# not a proven bound.  Against the closed forms (Woess 2000, ch. 1) it holds
# with room on every exposed entry: the worst |error| / entry_error measured
# was 0.125 on the F_2 ball route (r = 4, m = 4, 161 entries) and 0.444 on
# drift-Z (p = 0.7, r = 20, 41 entries).


def test_entry_error_covers_f2_closed_form():
    # the isotropic walk normally runs on the spheres; the ball route is
    # the one whose error bar is in question
    walk = srw_free(2)
    t = _build_solve(walk, 4, 4, shared_ball(walk.group, 8))
    assert t.meta["ball_size"] == len(t.values) == 13121
    exposed = shared_ball(walk.group, 4).elements
    assert len(exposed) == 161
    for g in exposed:
        exact = 1.5 * 3.0 ** -len(g.data)
        assert abs(t.green_at(g) - exact) <= t.entry_error(g), g


def test_entry_error_covers_drift_z_closed_form(t_drift):
    p = 0.7
    exposed = shared_ball(t_drift.walk.group, t_drift.radius).elements
    assert len(exposed) == 41
    for g in exposed:
        n = g.data[0]
        exact = (1 if n >= 0 else ((1 - p) / p) ** -n) / (2 * p - 1)
        assert abs(t_drift.green_at(g) - exact) <= t_drift.entry_error(g), g


# {name: (code run after `import sys, greenwalk as gw`, expected output)}
IMPORT_PROBES = {
    # the package loads the table core: errors, groups, walks, kernels
    "analysis-unloaded": (
        "print(sorted(m for m in sys.modules if m in {'greenwalk.' + n for n "
        "in ('boundary', 'measures', 'sampler', 'conformal', 'acceptance')}))",
        "[]"),
    # exactly the table core loads, nothing more and nothing less
    "core-modules": (
        "print(sorted(m for m in sys.modules if m.startswith('greenwalk.')))",
        "['greenwalk.errors', 'greenwalk.groups', 'greenwalk.kernels', "
        "'greenwalk.walks']"),
    # the sparse LU solver is imported where it is used
    "scipy-solvers-unloaded": (
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.linalg', 'scipy.sparse.linalg'))))",
        "[]"),
    # every public name is listed before it loads, then resolves
    "public-names": (
        "listed = set(dir(gw)); from greenwalk import *; "
        "print([n for n in gw.__all__ if n not in listed "
        "or n not in globals() or not hasattr(gw, n)])",
        "[]"),
    "submodule-attribute": (
        "print(gw.conformal.classify is gw.classify, "
        "gw.acceptance.run_all is gw.run_all)",
        "True True"),
}


@pytest.mark.parametrize("probe", sorted(IMPORT_PROBES))
def test_import_boundary(probe):
    """In a fresh interpreter: `import greenwalk` loads the table core and
    no scipy solver; the analysis layer's names load on first access."""
    code, expected = IMPORT_PROBES[probe]
    env = dict(os.environ,
               PYTHONPATH=str(Path(greenwalk.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c",
                          "import sys, greenwalk as gw; " + code],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == expected
