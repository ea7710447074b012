"""Leaf arrays against the leaf-by-leaf cell algebra.

A cylinder measure keeps its depth-D leaf masses in all_cells order, in
which every cylinder of depth <= D is a contiguous range of leaves.  The
range sums must equal the brute-force sums over `cell_contains` exactly,
and the cell functionals must reproduce, float for float, the values in
leaf_functionals.json.  `record` wrote that file's "exact" and "estimate"
entries with the leaf-by-leaf implementation (one `cell_mass` scan and one
tree-kernel oracle call per leaf), on the inputs of the session fixtures
t_f2, m_exact and m_f2, and its "kernels" entries with the element-by-element
kernel reads (checked products and one table lookup per value and per error
bar), on t_f2 and t_wreath.  The errors of the "estimate" normalizations are
the multinomial contrast of the sampled masses, which
test_conformal::test_normalization_error_is_the_multinomial_contrast
checks against a left-to-right sum.
"""

import json
import math
import os
import random

import pytest
from conftest import cell_contains

from greenwalk.boundary import (
    BoundaryApproximant,
    best_spine_candidate,
    extend_kernel,
    spine_candidates,
)
from greenwalk.conformal import (
    CellFunction,
    _cylinder_contrast,
    _cylinder_leaves,
    _cylinder_pieces,
    _kms_leaves,
    _kms_sides,
    classify,
    conformality_residual,
    kernel_leaves,
    kms_residual,
    normalization_check,
    phi_curve,
    rn_identity_check,
)
from greenwalk.errors import (
    GreenwalkError,
    PartitionError,
    UnsupportedGroupError,
)
from greenwalk.groups import (
    GroupModel,
    parse_element,
    serialize_element,
    shared_ball,
)
from greenwalk.kernels import build_kernel_table, harnack_scan
from greenwalk.measures import (
    MeasureModel,
    all_cells,
    translate_cell,
    tree_exit_measure,
)
from greenwalk.walks import make_walk

F2 = GroupModel.free(2)
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "leaf_functionals.json")


def _random_measure(G, depth, rng, n_eff):
    """Random masses, about a fifth of the leaves empty."""
    leaves = all_cells(G, depth)
    raw = [0.0 if rng.random() < 0.2 else rng.random() for _ in leaves]
    total = sum(raw)
    masses = {w: x / total for w, x in zip(leaves, raw)}
    return MeasureModel.cylinder(G, depth, masses, n_eff=n_eff)


def _brute_mass(m, word):
    return sum(x for w, x in m.masses.items() if cell_contains(word, w))


def _brute_se(m, p):
    """The binomial error of mass p; 0.0 for an exact measure."""
    if m.n_eff > 0:
        return math.sqrt(max(p * (1.0 - p), 0.0) / m.n_eff)
    return 0.0


def _cylinders(G, depth, rng, limit=1000):
    """Every cylinder of depth <= `depth`, or all of depth <= 2 plus a
    seeded sample when there are more than `limit`."""
    words = [w for d in range(depth + 1) for w in all_cells(G, d)]
    if len(words) <= limit:
        return words
    shallow = [w for w in words if len(w) <= 2]
    return shallow + rng.sample(words[len(shallow):], limit - len(shallow))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n_eff", [0, 5000])
def test_range_sums_equal_brute_force(k, depth, n_eff):
    G = GroupModel.free(k)
    rng = random.Random(1000 * k + 10 * depth + (n_eff > 0))
    m = _random_measure(G, depth, rng, n_eff)
    for word in _cylinders(G, depth, rng):
        assert m.cell_mass(word) == _brute_mass(m, word), word
        assert m.cell_se(word) == _brute_se(m, _brute_mass(m, word)), word
    # disjoint unions: the pieces of translated cylinders
    for g in ("a", "bA", "Ab")[:depth]:
        g = parse_element(G, g)
        for B in all_cells(G, min(2, depth - len(g.data) + 1)):
            pieces = translate_cell(G, g, B)
            if any(len(p) > depth for p in pieces):
                continue
            p = sum(_brute_mass(m, piece) for piece in pieces)
            assert m.set_mass(pieces) == p
            assert m.set_se(pieces) == _brute_se(m, p)


def test_cylinders_are_leaf_ranges():
    from greenwalk.measures import leaf_ranges

    for k, depth in ((2, 4), (3, 3)):
        G = GroupModel.free(k)
        leaves = all_cells(G, depth)
        for word, (lo, hi) in leaf_ranges(G, depth).items():
            inside = [i for i, leaf in enumerate(leaves)
                      if cell_contains(word, leaf)]
            assert inside == list(range(lo, hi)), word


# -- functionals, recorded from the leaf-by-leaf implementation ----------------

KMS_WORDS = [("a", "a", "1"), ("ab", "b", "a"), ("A", "aB", "A"),
             ("Ba", "B", "ab"), ("b", "a", "1"), ("aB", "ab", "Ab")]
CONTRASTS = [("a", "a"), ("b", "aB"), ("AB", "b"), ("ab", "BA"), ("B", "bb")]
NORMALIZATIONS = ["a", "bA", "aba"]


def _fn(word):
    if word == "1":
        return CellFunction.one(F2)
    return CellFunction.indicator(F2, parse_element(F2, word).data)


def functionals(t, m) -> dict:
    """Every cell functional on fixed inputs, keyed by a readable label."""
    el = lambda s: parse_element(F2, s)
    out = {}
    for g, c1, c2 in KMS_WORDS:
        for beta in (1.0, 2.0):
            out[f"kms g={g} f1={c1} f2={c2} beta={beta}"] = kms_residual(
                t, m, beta, _fn(c1), el(g), _fn(c2), F2.inv(el(g)))
    for g, B in CONTRASTS:
        for beta in (0.0, 1.0, 2.0):
            out[f"contrast g={g} B={B} beta={beta}"] = _cylinder_contrast(
                t, m, beta, el(g), el(B).data)
    for g in NORMALIZATIONS:
        for beta in (0.5, 1.0):
            out[f"normalization g={g} beta={beta}"] = normalization_check(
                t, m, beta, el(g))
    curve = phi_curve(t, m, 1)
    out["phi values"] = curve.values
    out["phi errors"] = curve.errors
    return {key: list(val) for key, val in out.items()}


# witness words of the F_2 sequence approximants, the acting elements, and
# the witness indices read with at_depth (|g^-1 x_n| stays within radius 8)
SEQUENCES = ["abAbaBAB", "bbaBBAba"]
ACTING = ["e", "a", "B", "Ab"]
AT_DEPTHS = (0, 2, 5)
WREATH_LABELS = ["t+inf", "lamp0.t-inf", "flank.t+"]


def _sequence(G, word):
    prefixes = [parse_element(G, word[:n]) for n in range(1, len(word) + 1)]
    return BoundaryApproximant.sequence(G, prefixes)


def _outcome(fn, *args, **kwargs) -> tuple:
    """fn's (value, error) pair, or the name of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except GreenwalkError as exc:
        return (type(exc).__name__,)


def kernel_functionals(t_f2, t_wreath) -> dict:
    """Sequence kernels, Harnack constants and spine scans on fixed inputs,
    keyed by a readable label."""
    out = {}
    for word in SEQUENCES:
        for g in ACTING:
            xi = _sequence(F2, word)
            out[f"extend seq={word} g={g}"] = _outcome(
                extend_kernel, t_f2, parse_element(F2, g), xi)
            for n in AT_DEPTHS:
                out[f"extend seq={word} g={g} at={n}"] = _outcome(
                    extend_kernel, t_f2, parse_element(F2, g), xi, at_depth=n)
    W = t_wreath.walk.group
    cands = {c.label: c for c in spine_candidates(W)}
    for label in WREATH_LABELS:
        for g in shared_ball(W, 1).elements:
            name = f"wreath extend {label} g={serialize_element(W, g)}"
            out[name] = _outcome(extend_kernel, t_wreath, g, cands[label],
                                 strict=False)
            for n in (0, 3):
                out[f"{name} at={n}"] = _outcome(
                    extend_kernel, t_wreath, g, cands[label], at_depth=n)
    out["harnack free:2 r=3"] = (harnack_scan(t_f2, 3),)
    out["harnack wreath:2 r=3"] = (harnack_scan(t_wreath, 3),)
    for name, t, R in (("free:2", t_f2, 3), ("wreath:2", t_wreath, 2)):
        for row in best_spine_candidate(t, R)["all"]:
            out[f"spine {name} R={R} {row['label']}"] = (
                row.get("maxDev"), row.get("maxErr"), row.get("error"))
    return {key: list(val) for key, val in out.items()}


def record(t, m_exact, m_f2, t_wreath, path=REFERENCE):
    """Write the reference file (run once, with the implementation the
    leaf arrays and kernel reads must reproduce)."""
    with open(path, "w") as f:
        json.dump({"exact": functionals(t, m_exact),
                   "estimate": functionals(t, m_f2),
                   "kernels": kernel_functionals(t, t_wreath)}, f, indent=1)
        f.write("\n")


def _assert_matches(got: dict, want: dict):
    assert set(got) == set(want)
    for key in want:
        # repr also tells 0 from 0.0, which a report would print differently
        assert list(map(repr, got[key])) == list(map(repr, want[key])), key


@pytest.mark.parametrize("which", ["exact", "estimate"])
def test_functionals_match_recorded(which, t_f2, m_exact, m_f2):
    with open(REFERENCE) as f:
        want = json.load(f)[which]
    _assert_matches(functionals(t_f2, m_exact if which == "exact" else m_f2),
                    want)


def test_kernel_reads_match_recorded(t_f2, t_wreath):
    with open(REFERENCE) as f:
        want = json.load(f)["kernels"]
    _assert_matches(kernel_functionals(t_f2, t_wreath), want)


def test_kernel_leaves_are_read_only(t_f2):
    leaves = kernel_leaves(t_f2, parse_element(F2, "aB"), 4, 2.0)
    with pytest.raises(ValueError):
        leaves[0] = 1.0
    assert kernel_leaves(t_f2, parse_element(F2, "aB"), 4, 2.0) is leaves


def test_kernel_leaves_check_before_the_memo(t_f2):
    # a lazy walk on F_2 shares the memo's key with the SRW, so a memo
    # consulted first would answer its table with the SRW's kernels
    lazy = make_walk(F2, {F2.identity(): 0.2,
                          **{s: 0.2 for s in F2.generators()}})
    t_lazy = build_kernel_table(lazy, radius=2, margin=1)
    a = parse_element(F2, "a")
    kernel_leaves(t_f2, a, 3)
    with pytest.raises(UnsupportedGroupError, match="isotropic free SRW"):
        kernel_leaves(t_lazy, a, 3)
    with pytest.raises(PartitionError):
        kernel_leaves(t_f2, parse_element(F2, "ab"), 1)


# -- cached contrast sides ----------------------------------------------------


def _clear_sides():
    for cache in (_kms_sides, _kms_leaves, _cylinder_pieces, _cylinder_leaves):
        cache.cache_clear()


def _battery(t, measures, fresh: bool) -> list:
    """KMS words and cylinder contrasts at three betas, RN identities and
    the classifier's evidence on each measure; with `fresh`, every call
    starts from empty side caches.  Each word gets new CellFunctions."""
    el = lambda s: parse_element(F2, s)

    def call(fn, *args):
        if fresh:
            _clear_sides()
        return fn(*args)

    out = []
    for m in measures:
        for beta in (0.0, 1.0, 2.0):
            for g, c1, c2 in KMS_WORDS:
                out.append(call(kms_residual, t, m, beta, _fn(c1), el(g),
                                _fn(c2), F2.inv(el(g))))
            for g, B in CONTRASTS:
                out.append(call(conformality_residual, t, m, beta, el(g),
                                el(B).data))
        for g, B in CONTRASTS:
            out.append(call(rn_identity_check, t, m, el(g), el(B).data))
        out.append(call(classify, t, m, None).evidence)
    return out


def test_cached_sides_repeat_uncached_values(t_f2, m_exact, m_f2):
    measures = [m_exact, m_f2, tree_exit_measure(F2, 5)]
    want = _battery(t_f2, measures, fresh=True)
    _clear_sides()
    assert _battery(t_f2, measures, fresh=False) == want  # filling
    assert _battery(t_f2, measures, fresh=False) == want  # all cached


def test_equal_functions_share_their_sides(t_f2, m_f2):
    b = parse_element(F2, "b")
    f = CellFunction.indicator(F2, (1,))
    same = CellFunction(F2, {(1,): 1.0, (2,): 0.0})
    assert same is not f and same == f and hash(same) == hash(f)
    assert f != CellFunction.indicator(F2, (2,))
    _clear_sides()
    want = kms_residual(t_f2, m_f2, 2.0, f, b, CellFunction.one(F2), F2.inv(b))
    got = kms_residual(t_f2, m_f2, 2.0, same, b, CellFunction.one(F2),
                       F2.inv(b))
    assert got == want
    assert _kms_sides.cache_info().currsize == 1
    assert _kms_leaves.cache_info().currsize == 1


def test_cached_sides_are_read_only(t_f2, m_f2):
    f, g = CellFunction.indicator(F2, (1, 2)), parse_element(F2, "b")
    kms_residual(t_f2, m_f2, 1.0, f, g, f, F2.inv(g))
    conformality_residual(t_f2, m_f2, 1.0, g, (1,))
    arrays = [f._leaves, *_cylinder_leaves(F2, g, (1,), m_f2.depth),
              *_kms_leaves(f, g, f, F2.inv(g), m_f2.depth),
              *(h._leaves for h in _kms_sides(f, g, f, F2.inv(g)))]
    for leaves in arrays:
        with pytest.raises(ValueError):
            leaves[0] = 1.0
