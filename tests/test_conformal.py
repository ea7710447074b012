import math
from fractions import Fraction

import pytest
from conftest import cell_contains

from greenwalk.boundary import BoundaryApproximant, spine_candidates, spine_scan
from greenwalk.conformal import (
    CellFunction,
    cell_pullback_mass,
    classify,
    conformality_residual,
    invariant_measure_feasibility,
    kernel_leaves,
    kernel_on_cell,
    kms_residual,
    multiplicity_report,
    normalization_check,
    phi_curve,
    phi_map_pushforward_check,
)
from greenwalk.errors import PartitionError, UnsupportedGroupError
from greenwalk.groups import GroupElement, GroupModel, parse_element
from greenwalk.kernels import build_kernel_table
from greenwalk.measures import (
    MeasureModel,
    all_cells,
    tree_exit_measure,
    uniform_depth1_measure,
)
from greenwalk.sampler import harmonic_measure_estimate
from greenwalk.walks import product_walk, srw_free, wreath_walk

F2 = GroupModel.free(2)
F3 = GroupModel.free(3)
Z = GroupModel.lattice(1)


@pytest.fixture(scope="module")
def t_prod():
    w2 = product_walk(wreath_walk(2, 0.75, 0.4), srw_free(2), 0.5)
    return build_kernel_table(w2)


def _el(word):
    return parse_element(F2, word)


# -- conformality residuals -----------------------------------------------------


def test_kernel_on_cell_constant_values(t_f2):
    # K(a, .) is 3 on C(a) and 1/3 on every other depth-1 cell
    a = _el("a")
    assert kernel_on_cell(t_f2, a, (1,)) == 3.0
    for cell in ((2,), (-1,), (-2,)):
        assert kernel_on_cell(t_f2, a, cell) == pytest.approx(1 / 3, abs=1e-15)


def test_identity_element_residual_zero(t_f2, m_exact):
    res, err = conformality_residual(t_f2, m_exact, 1.0, F2.identity(), (1,))
    assert res == 0.0 and err >= 0.0


def test_exact_measure_is_conformal_at_beta1(t_f2, m_exact):
    for gw in ("a", "b", "A"):
        for B in ((1,), (2,), (-1, 2)):
            res, err = conformality_residual(t_f2, m_exact, 1.0, _el(gw), B)
            assert res < 1e-12, (gw, B, res)


def test_rn_anchor_value(t_f2, m_exact):
    # nu(a^{-1} C(a)) = 3/4: everything except C(A)
    lhs, _ = cell_pullback_mass(m_exact, _el("a"), (1,))
    assert lhs == pytest.approx(0.75, abs=1e-12)


def test_beta0_residual_frozen(t_f2, m_exact):
    # at beta 0 the right side is nu(C(a)) = 1/4 while the pullback is 3/4
    res, err = conformality_residual(t_f2, m_exact, 0.0, _el("a"), (1,))
    assert res == pytest.approx(0.5, abs=1e-12)


def test_residual_needs_depth(t_f2):
    # a^{-1} C(b) = C(Ab) needs depth-2 cells, more than the measure has
    shallow = uniform_depth1_measure(F2)
    with pytest.raises(PartitionError) as exc:
        conformality_residual(t_f2, shallow, 1.0, _el("a"), (2,))
    assert exc.value.suggested_depth >= 2
    # a depth-3 indicator has no values on depth-1 leaves
    with pytest.raises(PartitionError) as exc:
        CellFunction.indicator(F2, (1, 2, 1)).values(shallow.depth)
    assert exc.value.suggested_depth == 3


def test_dirac_at_spine_zero_for_all_beta(t_drift):
    m = MeasureModel.dirac(Z, None, "+inf")
    one = GroupElement("lattice", (1,))
    for beta in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 5.0):
        res, err = conformality_residual(t_drift, m, beta, one, "+inf")
        assert res == 0.0 and err == 0.0, beta


def test_binned_residual_frozen(t_drift):
    # uniform two-point law on the ends of Z under the drifted walk:
    # m(g^{-1} B) = m(B) = 1/2, integral uses K(1, -inf) = q/p = 3/7
    m = MeasureModel.binned(Z, {"+inf": 0.5, "-inf": 0.5})
    one = GroupElement("lattice", (1,))
    kernels = {("(1)", "+inf"): (1.0, 0.0), ("(1)", "-inf"): (3 / 7, 0.0)}
    res, err = conformality_residual(t_drift, m, 1.0, one, "-inf",
                                     bin_kernels=kernels)
    assert res == pytest.approx(0.5 - 0.5 * 3 / 7, abs=1e-12)
    assert err == 0.0
    res, err = conformality_residual(t_drift, m, 1.0, one, "+inf",
                                     bin_kernels=kernels)
    assert res == pytest.approx(0.0, abs=1e-12)


def test_binned_residual_requires_kernels(t_drift):
    m = MeasureModel.binned(Z, {"+inf": 0.5, "-inf": 0.5})
    one = GroupElement("lattice", (1,))
    with pytest.raises(UnsupportedGroupError, match="kernel value"):
        conformality_residual(t_drift, m, 1.0, one, "-inf")
    # but beta = 0 needs none
    res, err = conformality_residual(t_drift, m, 0.0, one, "-inf")
    assert res == 0.0


def test_binned_wreath_has_no_pullback_rule(t_wreath):
    # the sampled wreath exit law is binned by drift sign and lamp window;
    # no rule translates those bins, so both residuals refuse
    w = t_wreath.walk
    m = harmonic_measure_estimate(w, 2, 2000, 7)
    B = m.cells()[0]
    g = w.group.generators()[0]
    for beta in (0.0, 1.0):
        with pytest.raises(UnsupportedGroupError, match="no pullback rule"):
            conformality_residual(t_wreath, m, beta, g, B)


def test_normalization_check(t_f2, m_exact):
    val, err = normalization_check(t_f2, m_exact, 1.0, F2.identity())
    assert val == pytest.approx(1.0, abs=1e-12) and err == 0.0
    val, err = normalization_check(t_f2, m_exact, 1.0, _el("a"))
    assert val == pytest.approx(1.0, abs=1e-12)
    # at beta = 1/2 the integral drops to sqrt(3)/2 < 1
    val, _ = normalization_check(t_f2, m_exact, 0.5, _el("a"))
    assert val == pytest.approx(math.sqrt(3) / 2, abs=1e-12)


@pytest.mark.parametrize("beta", [0.5, 1.0])
@pytest.mark.parametrize("g", ["a", "bA"])
def test_normalization_error_is_the_multinomial_contrast(t_f2, m_f2, g, beta):
    # the integral is one linear form of the sampled masses, so its error
    # is that of the contrast: sqrt((sum c^2 p - (sum c p)^2) / n_eff)
    ginv = F2.inv(_el(g))
    c = kernel_leaves(t_f2, ginv, m_f2.depth, beta).tolist()
    p = [m_f2.masses[w] for w in all_cells(F2, m_f2.depth)]
    first = sum(ci * pi for ci, pi in zip(c, p))
    second = sum(ci * ci * pi for ci, pi in zip(c, p))
    want = math.sqrt((second - first * first) / m_f2.n_eff)
    val, err = normalization_check(t_f2, m_f2, beta, _el(g))
    assert val == pytest.approx(first, rel=1e-12)
    assert err == pytest.approx(want, rel=1e-12)


# -- Phi curve -------------------------------------------------------------------


def test_phi_exact_anchors(t_f2):
    m = tree_exit_measure(F2, 2)
    ph = phi_curve(t_f2, m, n=1, grid=(0.0, 0.5, 1.0))
    assert ph.values[0] == pytest.approx(1.0, abs=1e-12)
    assert ph.values[1] == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    assert ph.values[2] == pytest.approx(1.0, abs=1e-12)
    assert ph.convex_within_error()


def test_phi_two_step(t_f2):
    m = tree_exit_measure(F2, 2)
    ph = phi_curve(t_f2, m, n=2, grid=(0.0, 0.5, 1.0))
    assert ph.values[1] == pytest.approx(0.75, abs=1e-12)
    assert ph.values[0] == pytest.approx(1.0, abs=1e-12)
    assert ph.values[2] == pytest.approx(1.0, abs=1e-12)


def test_phi_on_sampled_measure(t_f2, m_f2):
    # For the isotropic walk every boundary point sees one kernel value 3
    # and three values 1/3, so the n=1 integrand is the constant
    # (3^t + 3^(1-t))/4: the curve is measure-independent and the sampled
    # law reproduces it with zero statistical spread.
    ph = phi_curve(t_f2, m_f2, n=1, grid=(0.0, 0.5, 1.0))
    assert ph.values[0] == pytest.approx(1.0, abs=1e-12)
    assert ph.values[1] == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    assert ph.values[2] == pytest.approx(1.0, abs=1e-12)
    assert all(e <= 1e-9 for e in ph.errors)


def test_phi_needs_depth(t_f2):
    with pytest.raises(PartitionError) as exc:
        phi_curve(t_f2, uniform_depth1_measure(F2), n=2)
    assert exc.value.suggested_depth == 2


def test_phi_dirac_spine_constant_one(t_drift):
    m = MeasureModel.dirac(Z, None, "+inf")
    ph = phi_curve(t_drift, m, n=1, grid=(-1.0, 0.0, 2.0))
    assert ph.values == (1.0, 1.0, 1.0)
    assert ph.errors == (0.0, 0.0, 0.0)


def test_phi_rejects_bad_grid(t_f2):
    with pytest.raises(ValueError):
        phi_curve(t_f2, tree_exit_measure(F2, 2), grid=(0.5, 0.5))


# -- classification --------------------------------------------------------------


def test_classify_spine_dirac_is_A(t_drift):
    cands = {c.label: c for c in spine_candidates(Z)}
    spine = spine_scan(t_drift, cands["+inf"], R=3)
    m = MeasureModel.dirac(Z, None, "+inf")
    v = classify(t_drift, m, spine)
    assert v.verdict == "A"
    assert v.spine_found and v.admissible == "all real beta"
    assert v.evidence["set"] == "all"
    assert all(row["excess"] <= 0.0 for row in v.evidence["beta_grid"])


def test_classify_sampled_exit_law_is_C(t_f2, m_f2):
    v = classify(t_f2, m_f2, None)
    assert v.verdict == "C"
    assert not v.spine_found
    assert v.admissible == "subset of {0, 1}"
    # the invariance battery fails and the exact certificate removes 0
    assert v.evidence["set"] == [1]
    assert not v.evidence["feasibility"]["feasible"]


def test_classify_lopsided_is_none(t_f2):
    masses = {
        w: (1 / 6 if w[0] == 1 else 1 / 18) for w in all_cells(F2, 2)
    }
    v = classify(t_f2, MeasureModel.cylinder(F2, 2, masses), None)
    assert v.verdict == "none"
    assert v.evidence["set"] == []
    assert not v.evidence["beta0"]["pass"]
    assert not v.evidence["beta1"]["pass"]


# -- exact feasibility -------------------------------------------------------------


def test_feasibility_depth0_trivial():
    out = invariant_measure_feasibility(F2, 0)
    assert out["feasible"]


@pytest.mark.parametrize("depth", [1, 2])
def test_feasibility_infeasible_with_certificate(depth):
    out = invariant_measure_feasibility(F2, depth)
    assert not out["feasible"]
    cert = out["certificate"]
    assert cert["multipliers"]
    assert "0 = 1" in cert["statement"]
    # multipliers are serialized rationals
    for label, mult in cert["multipliers"].items():
        Fraction(mult)
        assert isinstance(label, str)


@pytest.mark.parametrize("G, depth", [
    (F2, 1), (F2, 2), (F2, 3), (F2, 4), (F3, 1), (F3, 2),
], ids=["free:2-d1", "free:2-d2", "free:2-d3", "free:2-d4", "free:3-d1",
        "free:3-d2"])
def test_feasibility_certificate_recombines(G, depth):
    """Replay the certificate: the multipliers really produce 0 = 1."""
    from greenwalk.measures import translate_cell

    out = invariant_measure_feasibility(G, depth)
    mult = out["certificate"]["multipliers"]
    leaves = all_cells(G, depth)

    def constraint_row(label):
        if label == "total mass = 1":
            return [Fraction(1)] * len(leaves), Fraction(1)
        # label format: "g*C(v) = C(v)"
        gname, _, rest = label.partition("*C(")
        vname = rest[: rest.index(")")]
        g = parse_element(G, gname)
        v = () if vname == "e" else parse_element(G, vname).data
        row = [Fraction(0)] * len(leaves)
        for piece in translate_cell(G, g, v):
            for i, leaf in enumerate(leaves):
                if cell_contains(tuple(piece), leaf):
                    row[i] += 1
        for i, leaf in enumerate(leaves):
            if cell_contains(tuple(v), leaf):
                row[i] -= 1
        return row, Fraction(0)

    total_row = [Fraction(0)] * len(leaves)
    total_rhs = Fraction(0)
    for label, lam in mult.items():
        lam = Fraction(lam)
        row, rhs = constraint_row(label)
        total_row = [a + lam * b for a, b in zip(total_row, row)]
        total_rhs += lam * rhs
    assert all(x == 0 for x in total_row)
    assert total_rhs != 0


def test_feasibility_copies_are_independent():
    """classify keeps the result in its evidence; changing one returned
    dict must not reach the next caller."""
    first = invariant_measure_feasibility(F2, 2)
    want = invariant_measure_feasibility(F2, 2)
    first["feasible"] = True
    first["certificate"]["multipliers"].clear()
    first["certificate"]["statement"] = "changed"
    assert invariant_measure_feasibility(F2, 2) == want
    assert want["certificate"]["multipliers"]


def test_feasibility_lattice():
    out = invariant_measure_feasibility(Z, 1)
    assert out["feasible"]
    assert "fix both ends" in out["note"]


def test_feasibility_unsupported():
    with pytest.raises(UnsupportedGroupError):
        invariant_measure_feasibility(GroupModel.wreath(2), 1)


# -- KMS words and residuals --------------------------------------------------------


def test_kms_residual_identity_element(t_f2, m_exact):
    one = CellFunction.one(F2)
    ind_a = CellFunction.indicator(F2, (1,))
    e = F2.identity()
    res, err = kms_residual(t_f2, m_exact, 2.0, ind_a, e, one, e)
    assert res < 1e-15 and err >= 0.0


def test_kms_residual_noncancelling_pair_exact_zero(t_f2, m_exact):
    one = CellFunction.one(F2)
    res, err = kms_residual(t_f2, m_exact, 2.0, one, _el("a"), one, _el("b"))
    assert (res, err) == (0.0, 0.0)


def test_kms_beta1_exact(t_f2, m_exact):
    ind_a = CellFunction.indicator(F2, (1,))
    one = CellFunction.one(F2)
    res, err = kms_residual(t_f2, m_exact, 1.0, ind_a, _el("b"), one, _el("B"))
    assert res < 1e-12 and err == 0.0


def test_kms_beta2_frozen(t_f2, m_exact):
    # omega(1_a U_b 1 U_B) = nu(C(a)) = 1/4; the beta = 2 exchange side is
    # 9 * nu(C(Ba)) = 3/4, so the residual is exactly 1/2
    ind_a = CellFunction.indicator(F2, (1,))
    one = CellFunction.one(F2)
    res, err = kms_residual(t_f2, m_exact, 2.0, ind_a, _el("b"), one, _el("B"))
    assert res == pytest.approx(0.5, abs=1e-12)
    assert err == 0.0


def test_kms_beta1_statistical(t_f2, m_f2):
    ind_a = CellFunction.indicator(F2, (1,))
    one = CellFunction.one(F2)
    res, err = kms_residual(t_f2, m_f2, 1.0, ind_a, _el("b"), one, _el("B"))
    assert err > 0
    assert res / err < 3.0


def test_kms_word_too_deep(t_f2, m_f2):
    deep = CellFunction.indicator(F2, (1, 2, 1, 2, 1))
    one = CellFunction.one(F2)
    with pytest.raises(PartitionError) as exc:
        kms_residual(t_f2, m_f2, 1.0, deep, _el("b"), one, _el("B"))
    # shifting the depth-5 indicator past U_b costs one more level
    assert exc.value.suggested_depth == 6


def test_cell_algebra_needs_cylinder_measure(t_f2):
    one = CellFunction.one(F2)
    atom = MeasureModel.dirac(F2, None, "spine")
    with pytest.raises(UnsupportedGroupError):
        kms_residual(t_f2, atom, 1.0, one, _el("b"), one, _el("B"))


# -- product boundary ---------------------------------------------------------------


def test_pushforward_three_part_check(t_prod, t_f2, m_exact):
    out = phi_map_pushforward_check(t_prod, t_f2, m_exact,
                                    cells=[(1,), (2,)])
    ident = out["identity"]
    assert ident["pairs"], "no witness pair resolved inside the table"
    for row in ident["pairs"]:
        assert row["residual"] == abs(row["finite"] - row["defined"])
    # equivariance reduces to exact tree-kernel algebra
    assert out["equivariance"]["max_residual"] < 1e-12
    conf = out["conformality"]
    image_rows = [r for r in conf if r["cell"].startswith("Phi(")]
    assert len(image_rows) == 8  # 2 cells x 4 generators
    for row in image_rows:
        assert row["residual"] < 1e-12
    tail = conf[-1]
    assert tail["cell"] == "complement of the image"
    assert tail["residual"] == 0.0 and tail["z"] == 0.0


def test_pushforward_group_mismatch(t_prod, t_drift, m_exact):
    with pytest.raises(UnsupportedGroupError):
        phi_map_pushforward_check(t_prod, t_drift, m_exact, cells=[(1,)])


# -- multiplicity -------------------------------------------------------------------


def test_multiplicity_identical_measures():
    entries = [
        {"label": "left", "masses": {"+inf": 1.0}, "conformal": True},
        {"label": "right", "masses": {"+inf": 1.0}, "conformal": True},
    ]
    out = multiplicity_report(entries)
    assert out["pairs"][0]["tv_lower_bound"] == 0.0
    assert out["count_passing"] == 2
    assert out["count_distinguished"] == 1


def test_multiplicity_drift_exactly_one(t_drift):
    """On drifted Z only the Dirac at +inf passes conformality."""
    one = GroupElement("lattice", (1,))
    kernels = {("(1)", "+inf"): (1.0, 0.0), ("(1)", "-inf"): (3 / 7, 0.0)}
    cands = {c.label: c for c in spine_candidates(Z)}
    candidates = [
        ("dirac@+inf", MeasureModel.dirac(Z, cands["+inf"], "+inf"),
         {"+inf": 1.0, "-inf": 0.0}),
        ("dirac@-inf", MeasureModel.dirac(Z, cands["-inf"], "-inf"),
         {"+inf": 0.0, "-inf": 1.0}),
        ("uniform-ends", MeasureModel.binned(Z, {"+inf": 0.5, "-inf": 0.5}),
         {"+inf": 0.5, "-inf": 0.5}),
    ]
    entries = []
    for label, m, masses in candidates:
        worst = 0.0
        for B in ("+inf", "-inf"):
            ks = kernels if m.kind == "binned" else None
            res, err = conformality_residual(t_drift, m, 1.0, one, B,
                                             bin_kernels=ks)
            worst = max(worst, res - 3.0 * err)
        entries.append({"label": label, "masses": masses,
                        "conformal": worst <= 1e-9, "worst": worst})
    out = multiplicity_report(entries)
    assert out["count_passing"] == 1
    assert entries[0]["conformal"]
    assert not entries[1]["conformal"] and not entries[2]["conformal"]
