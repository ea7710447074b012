import copy
import math
from fractions import Fraction

import pytest

from greenwalk.boundary import (
    BoundaryApproximant,
    act_on_boundary,
    best_spine_candidate,
    cocycle_residual,
    extend_kernel,
    free_tree_kernel_oracle,
    harmonicity_residual,
    parse_approximant,
    spine_candidates,
    spine_scan,
)
from greenwalk.errors import ConvergenceError, UnsupportedGroupError
from greenwalk.groups import GroupElement, GroupModel, parse_element
from greenwalk.kernels import build_kernel_table
from greenwalk.walks import drift_z, srw_free

F2 = GroupModel.free(2)


def end(word):
    return BoundaryApproximant.tree_end(F2, parse_element(F2, word))


# -- exact tree-end kernels ---------------------------------------------------


def test_oracle_exact_values():
    a = parse_element(F2, "a")
    ab = parse_element(F2, "ab")
    assert free_tree_kernel_oracle(2, a, end("bbb")) == Fraction(1, 3)
    assert free_tree_kernel_oracle(2, a, end("aab")) == Fraction(3)
    assert free_tree_kernel_oracle(2, ab, end("abab")) == Fraction(9)
    assert free_tree_kernel_oracle(2, F2.identity(), end("ba")) == 1


def test_oracle_needs_separating_depth():
    # the end is known only one letter deep; a two-letter element on the
    # same ray is not separated yet
    with pytest.raises(ConvergenceError):
        free_tree_kernel_oracle(2, parse_element(F2, "aa"), end("a"))


def test_extend_kernel_uses_exact_route(t_f2):
    val, err = extend_kernel(t_f2, parse_element(F2, "ab"), end("abba"))
    assert err == 0.0
    assert val == 9.0


def test_sequence_route_matches_oracle():
    """Finite Martin kernels along the ray converge to the exact formula."""
    t = build_kernel_table(srw_free(2), radius=12)
    rays = ["aaaaaa", "ababab", "bAbAbA", "Babab", "abaaaa"]
    probes = ["a", "b", "A", "ab", "aB", "ba", "abA", "ABa", "bb"]
    checked = 0
    for ray_word in rays:
        ray = parse_element(F2, ray_word)
        prefixes = [
            GroupElement("free", ray.data[:n]) for n in range(1, len(ray.data) + 1)
        ]
        xi_seq = BoundaryApproximant.sequence(F2, prefixes, tolerance=1e-9)
        xi_end = end(ray_word)
        for word in probes:
            g = parse_element(F2, word)
            got, err = extend_kernel(t, g, xi_seq)
            want = float(free_tree_kernel_oracle(2, g, xi_end))
            assert got == pytest.approx(want, abs=1e-9), (ray_word, word)
            checked += 1
    assert checked == len(rays) * len(probes)


def test_at_depth_is_finite_martin(t_f2):
    g = parse_element(F2, "ab")
    xs = [parse_element(F2, w) for w in ("b", "ba", "bab")]
    xi = BoundaryApproximant.sequence(F2, xs)
    for i, x in enumerate(xs):
        val, _ = extend_kernel(t_f2, g, xi, at_depth=i)
        assert val == t_f2.martin(g, x)
    with pytest.raises(Exception):
        extend_kernel(t_f2, g, xi, at_depth=3)


def test_strict_false_returns_value_with_error(t_wreath):
    cands = {c.label: c for c in spine_candidates(t_wreath.walk.group)}
    xi = cands["t-inf"]
    g = parse_element(t_wreath.walk.group, "{0:1}@0")
    val, err = extend_kernel(t_wreath, g, xi, strict=False)
    assert val > 0 and err > 0


def test_nonconverging_sequence_raises(t_f2):
    # alternate between two rays so the kernel at "a" oscillates
    elems = []
    for n in range(1, 5):
        elems.append(parse_element(F2, "a" * n))
        elems.append(parse_element(F2, "b" * n))
    xi = BoundaryApproximant.sequence(F2, elems, tolerance=1e-9)
    with pytest.raises(ConvergenceError):
        extend_kernel(t_f2, parse_element(F2, "a"), xi)


def test_kernel_limit_cache_is_per_table(t_drift):
    # one approximant read against two tables, each built where a freed
    # one lived, gives each table's limit: K(1, -inf) is q/p, 3/7 at
    # p = 0.7, 2/3 at 0.6
    G = t_drift.walk.group
    xi = BoundaryApproximant.sequence(
        G, [GroupElement("lattice", (-n,)) for n in range(1, 11)])
    one = GroupElement("lattice", (1,))
    t_six = build_kernel_table(drift_z(0.6), radius=20)
    for _ in range(5):
        t = copy.copy(t_drift)
        assert extend_kernel(t, one, xi)[0] == pytest.approx(3 / 7, abs=1e-3)
        del t
        t = copy.copy(t_six)
        assert extend_kernel(t, one, xi)[0] == pytest.approx(2 / 3, abs=1e-3)
        del t


# -- identities ---------------------------------------------------------------


def test_cocycle_identity_tree(t_f2):
    for gw, hw, xw in [("a", "b", "bbb"), ("ab", "A", "baa"), ("b", "b", "abb")]:
        res = cocycle_residual(
            t_f2, parse_element(F2, gw), parse_element(F2, hw), end(xw)
        )
        assert res < 1e-12, (gw, hw, xw)


def test_cocycle_identity_drift(t_drift):
    G = t_drift.walk.group
    xi = BoundaryApproximant.sequence(
        G, [GroupElement("lattice", (n,)) for n in range(1, 11)]
    )
    g = GroupElement("lattice", (2,))
    h = GroupElement("lattice", (-1,))
    assert cocycle_residual(t_drift, g, h, xi, at_depth=9) < 1e-9


def test_harmonicity_tree(t_f2):
    for gw, xw in [("e", "ab"), ("a", "bb"), ("ab", "ba")]:
        g = parse_element(F2, gw)
        res = harmonicity_residual(t_f2, g, end(xw))
        assert res < 1e-12, (gw, xw)


def test_harmonicity_drift(t_drift):
    G = t_drift.walk.group
    xi = BoundaryApproximant.sequence(
        G, [GroupElement("lattice", (n,)) for n in range(5, 15)]
    )
    g = GroupElement("lattice", (1,))
    assert harmonicity_residual(t_drift, g, xi, at_depth=3) < 1e-9


def test_kernel_bounds_residual_zero(t_f2):
    # G(g,e)/G(e,e) <= K(g, xi) <= G(e,e)/G(e,g), within the kernel error
    g = parse_element(F2, "ab")
    val, err = extend_kernel(t_f2, g, end("ba"))
    lower = t_f2.green_at(F2.inv(g)) / t_f2.green_at_e
    upper = t_f2.green_at_e / t_f2.green_at(g)
    assert lower - err <= val <= upper + err


# -- boundary action ----------------------------------------------------------


def test_act_on_boundary_tree():
    moved = act_on_boundary(F2, parse_element(F2, "a"), end("bb"))
    assert moved.prefix == (1, 2, 2)
    # cancellation shortens the known prefix
    shrunk = act_on_boundary(F2, parse_element(F2, "B"), end("bb"))
    assert shrunk.prefix == (2,)


def test_act_on_boundary_sequence(t_drift):
    G = t_drift.walk.group
    xi = BoundaryApproximant.sequence(
        G, [GroupElement("lattice", (n,)) for n in range(1, 4)]
    )
    moved = act_on_boundary(G, GroupElement("lattice", (5,)), xi)
    assert [x.data[0] for x in moved.elements] == [6, 7, 8]


# -- spine detection ----------------------------------------------------------


def test_spine_scan_drift(t_drift):
    cands = {c.label: c for c in spine_candidates(t_drift.walk.group)}
    verdict = spine_scan(t_drift, cands["+inf"], R=3)
    assert verdict["isSpine"]
    assert verdict["maxDev"] < 1e-9
    # the opposite direction is genuinely non-constant: K(n, -inf) = (q/p)^n,
    # worst over the ball at n = -3
    verdict = spine_scan(t_drift, cands["-inf"], R=3)
    assert not verdict["isSpine"]
    assert verdict["maxDev"] == pytest.approx((7 / 3) ** 3 - 1, rel=1e-6)


def test_spine_scan_free_fails(t_f2):
    cands = {c.label: c for c in spine_candidates(F2)}
    assert set(cands) == {"ainf", "Ainf", "binf", "Binf"}
    verdict = spine_scan(t_f2, cands["ainf"], R=3)
    assert not verdict["isSpine"]
    # K(a^3, a-direction) = 3^3 dominates the ball: |K - 1| = 26
    assert verdict["maxDev"] == pytest.approx(26.0, abs=1e-9)


def test_wreath_candidate_labels():
    labels = {c.label for c in spine_candidates(GroupModel.wreath(2))}
    assert "t+inf" in labels and "t-inf" in labels
    assert "flank.t-" in labels and "flank.t+" in labels
    assert any(label.startswith("lamp0.") for label in labels)


def test_best_spine_candidate_drift(t_drift):
    out = best_spine_candidate(t_drift, R=3)
    assert out["best"]["label"] == "+inf"
    assert out["best"]["isSpine"]
    assert len(out["all"]) == 2


def test_parse_approximant_round_trip():
    xi = parse_approximant(F2, "end:ab")
    assert xi.kind == "tree_end" and xi.prefix == (1, 2)
    assert xi.serialize() == "end:ab"
    seq = parse_approximant(F2, "seq:a;aa;aab")
    assert seq.kind == "sequence" and len(seq.elements) == 3
    assert seq.serialize() == "seq:a;aa;aab"
    Z = GroupModel.lattice(1)
    spun = parse_approximant(Z, "spine-scan:+inf")
    assert spun.kind == "sequence" and spun.label == "+inf"
    assert spun.serialize() == "spine-scan:+inf"
    # a moved candidate is no longer the template its label names
    moved = act_on_boundary(Z, GroupElement("lattice", (5,)), spun)
    assert parse_approximant(Z, moved.serialize()).elements == moved.elements
    with pytest.raises(ValueError):
        parse_approximant(Z, "spine-scan:sideways")
    with pytest.raises(ValueError):
        parse_approximant(F2, "ray:ab")


def test_tree_end_rejects_other_groups():
    with pytest.raises(UnsupportedGroupError):
        BoundaryApproximant.tree_end(GroupModel.lattice(1), (1,))

