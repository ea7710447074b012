import json
import math

import pytest
from conftest import cell_contains

from greenwalk.conformal import cell_pullback_mass
from greenwalk.errors import PartitionError, UnsupportedGroupError
from greenwalk.groups import GroupElement, GroupModel, parse_element
from greenwalk.measures import (
    MeasureModel,
    all_cells,
    cell_children,
    cell_name,
    parse_cell,
    translate_cell,
    tree_exit_measure,
    uniform_depth1_measure,
)

F2 = GroupModel.free(2)


def test_all_cells_counts():
    assert all_cells(F2, 0) == [()]
    for d in range(1, 5):
        assert len(all_cells(F2, d)) == 4 * 3 ** (d - 1)
    # every word is reduced
    for w in all_cells(F2, 3):
        assert all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def test_cell_children_and_names():
    kids = cell_children(F2, (1,))
    assert len(kids) == 3 and (1, -1) not in kids
    assert cell_name(F2, (1, -2)) == "aB"
    assert parse_cell(F2, "aB") == (1, -2)
    assert cell_contains((1,), (1, 2)) and not cell_contains((1, 2), (1,))


def test_translate_cell_against_leaf_enumeration():
    """Check g*C(B) cell splitting against a brute-force leaf count.

    For |g| < depth, m(g^{-1} C(B)) must equal the total mass of depth-4
    leaves u with g*u still starting with B after reduction.
    """
    m = tree_exit_measure(F2, 4)
    leaves = all_cells(F2, 4)
    for gw in ("a", "B", "ab", "Ab", "aBA"):
        g = parse_element(F2, gw)
        # translated cells reach depth |g| + |B|, which must fit the measure
        cells_b = [(1,), (2,)] if len(g.data) > 2 else [(1,), (2,), (-1, 2), (2, 2)]
        for B in cells_b:
            got, _ = cell_pullback_mass(m, g, B)
            want = sum(
                m.masses[u]
                for u in leaves
                if cell_contains(B, F2.mul(g, GroupElement("free", u)).data)
            )
            assert got == pytest.approx(want, abs=1e-12), (gw, B)
    # when |g| + |B| exceeds the depth the pullback honestly refuses
    with pytest.raises(PartitionError):
        cell_pullback_mass(m, parse_element(F2, "aBA"), (2, 2))


def test_translate_cell_splits_on_cancellation():
    # A * C(a) strips the leading letter, leaving every end that does not
    # start with the return direction A
    pieces = translate_cell(F2, parse_element(F2, "A"), (1,))
    assert sorted(pieces) == sorted([(1,), (2,), (-2,)])


def test_translate_cell_identity():
    assert translate_cell(F2, F2.identity(), (1, 2)) == [(1, 2)]
    assert translate_cell(F2, parse_element(F2, "b"), ()) == [()]


def test_tree_exit_measure_exact():
    m1 = tree_exit_measure(F2, 1)
    assert all(v == 0.25 for v in m1.masses.values())
    m2 = tree_exit_measure(F2, 2)
    assert all(v == pytest.approx(1 / 12, abs=1e-15) for v in m2.masses.values())
    for d in (1, 2, 3, 4):
        m = tree_exit_measure(F2, d)
        assert sum(m.masses.values()) == pytest.approx(1.0, abs=1e-12)


def test_cylinder_validation():
    cells = all_cells(F2, 1)
    with pytest.raises(ValueError, match="sum"):
        MeasureModel.cylinder(F2, 1, {cells[0]: 0.5})
    bad = {w: 1 / 3 for w in cells}
    bad[cells[0]] = -1 / 3 + 2 / 3
    with pytest.raises(ValueError):
        MeasureModel.cylinder(F2, 1, {cells[0]: -0.25, cells[1]: 0.65,
                                      cells[2]: 0.3, cells[3]: 0.3})


def test_cell_mass_aggregates():
    m = tree_exit_measure(F2, 3)
    assert m.cell_mass((1,)) == pytest.approx(0.25, abs=1e-12)
    assert m.cell_mass((1, 2)) == pytest.approx(1 / 12, abs=1e-12)
    assert m.cell_mass(()) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(PartitionError) as exc:
        m.cell_mass((1, 2, 1, 2))
    assert exc.value.suggested_depth == 4


def test_set_mass_disjoint_union():
    m = tree_exit_measure(F2, 2)
    assert m.set_mass([(1,), (2,)]) == pytest.approx(0.5, abs=1e-12)


def test_binomial_se_from_n_eff():
    cells = all_cells(F2, 1)
    m = MeasureModel.cylinder(F2, 1, {w: 0.25 for w in cells}, n_eff=10_000)
    assert m.cell_se((1,)) == pytest.approx(math.sqrt(0.25 * 0.75 / 10_000))


def test_dirac_labelled_atom():
    Z = GroupModel.lattice(1)
    m = MeasureModel.dirac(Z, None, "+inf")
    assert m.cell_mass("+inf") == 1.0
    assert m.cell_mass("-inf") == 0.0
    assert m.cells() == ["+inf"]


def test_binned_measure():
    Z = GroupModel.lattice(1)
    m = MeasureModel.binned(Z, {"+inf": 1.0, "-inf": 0.0})
    assert m.cell_mass("+inf") == 1.0
    with pytest.raises(PartitionError):
        m.cell_mass("sideways")
    assert m.cells() == ["+inf", "-inf"]


def test_uniform_depth1():
    m = uniform_depth1_measure(F2)
    assert m.depth == 1 and m.cell_mass((-2,)) == 0.25


def test_json_round_trip():
    m = tree_exit_measure(F2, 2)
    blob = m.to_json_dict()
    assert blob["kind"] == "cylinder" and blob["depth"] == 2
    assert len(blob["cells"]) == 12
    assert all(set(c) == {"cyl", "mass", "se"} for c in blob["cells"])
    data = json.loads(json.dumps(blob))
    again = {parse_cell(F2, c["cyl"]): c["mass"] for c in data["cells"]}
    assert again == pytest.approx(m.masses)
    assert data["nonconverged"] == m.nonconverged


def test_json_dirac_shape():
    m = MeasureModel.dirac(GroupModel.lattice(1), None, "+inf")
    blob = m.to_json_dict()
    assert blob == {"kind": "dirac", "group": "lattice:1", "atom": "+inf",
                    "xi": None, "note": ""}


def test_cells_only_on_free_groups():
    with pytest.raises(UnsupportedGroupError):
        all_cells(GroupModel.lattice(1), 1)
