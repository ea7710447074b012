"""The sparse fraction-free feasibility solve against the dense
`Fraction` Gauss-Jordan it replaced.

`oracle_feasibility` and `oracle_solve` are that code, unchanged but for
their names: dense rows from `leaf_vector`, augmented with an identity
block for the multipliers, eliminated in `Fraction`s.  The sparse solve
must return equal dicts, with the certificate's multipliers in the same
order.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenwalk.conformal import _rational_solve, invariant_measure_feasibility
from greenwalk.errors import UnsupportedGroupError
from greenwalk.groups import GroupModel, serialize_element
from greenwalk.measures import all_cells, cell_name, leaf_vector, translate_cell




def _ordered(out: dict):
    """The dict with its multipliers as an ordered list of pairs."""
    cert = out.get("certificate")
    return out, cert and list(cert["multipliers"].items())


@pytest.mark.parametrize("k, depth", [
    (2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
])
def test_feasibility_equals_fraction_oracle(k, depth):
    G = GroupModel.free(k)
    want = oracle_feasibility(G, depth)
    assert _ordered(invariant_measure_feasibility(G, depth)) == _ordered(want)


def _sparse(rows, rhs):
    """Dense integer rows and rhs in the sparse solver's row form."""
    nvar = len(rows[0])
    out = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        entry = {c: x for c, x in enumerate(row) if x}
        if b:
            entry[nvar] = b
        entry[nvar + 1 + i] = 1
        out.append(entry)
    return out


def _branch(out: dict) -> str:
    if not out["feasible"]:
        return "infeasible"
    return "negative" if min(out["solution"].values()) < 0 else "feasible"


@st.composite
def _systems(draw):
    nvar = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    entries = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entries, min_size=nvar, max_size=nvar),
                         min_size=n, max_size=n))
    return rows, draw(st.lists(entries, min_size=n, max_size=n))


def test_sparse_solve_matches_oracle_on_random_systems():
    """Small random integer systems reach all three outcomes: a
    nonnegative pivot solution, a negative one, and a certificate."""
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_systems())
    def check(system):
        rows, rhs = system
        labels = [f"c{i}" for i in range(len(rows))]
        want = oracle_solve([[Fraction(x) for x in row] for row in rows],
                            [Fraction(b) for b in rhs], labels)
        got = _rational_solve(_sparse(rows, rhs), len(rows[0]), labels)
        assert _ordered(got) == _ordered(want)
        seen.add(_branch(want))

    check()
    assert seen == {"feasible", "negative", "infeasible"}


# -- the dense Fraction solve, as it was -------------------------------------------


def oracle_feasibility(G: GroupModel, depth: int) -> dict:
    if G.kind == "lattice":
        return {
            "feasible": True,
            "note": "translations fix both ends; every measure on the "
                    "two-point boundary is invariant",
        }
    if G.kind != "free":
        raise UnsupportedGroupError(
            f"feasibility is implemented for free and lattice boundary "
            f"models, not {G.spec()}"
        )
    if depth < 0:
        raise ValueError("depth must be >= 0")
    nvar = len(all_cells(G, depth))
    rows, rhs, labels = [], [], []
    rows.append([Fraction(1)] * nvar)
    rhs.append(Fraction(1))
    labels.append("total mass = 1")
    skipped = 0
    gens = G.generators()
    for g in gens:
        for d in range(0, depth + 1):
            for v in all_cells(G, d):
                pieces = translate_cell(G, g, v)
                if any(len(p) > depth for p in pieces):
                    skipped += 1
                    continue
                terms = [(p, 1) for p in pieces] + [(v, -1)]
                row = [Fraction(x) for x in leaf_vector(G, depth, terms)]
                if any(row):
                    rows.append(row)
                    rhs.append(Fraction(0))
                    labels.append(
                        f"{serialize_element(G, g)}*C({cell_name(G, v)}) "
                        f"= C({cell_name(G, v)})"
                    )
    result = oracle_solve(rows, rhs, labels)
    result["depth"] = depth
    result["skipped_constraints"] = skipped
    if result["feasible"] and "solution" in result:
        sol = result["solution"]
        if any(x < 0 for x in sol.values()):
            result["feasible"] = False
            result["note"] = ("equalities are consistent but the pivot "
                              "solution has negative mass; no certificate "
                              "of either kind")
    return result


def oracle_solve(rows, rhs, labels) -> dict:
    """Gauss-Jordan over Q with multiplier tracking.

    Returns feasible + a pivot solution, or an infeasibility certificate:
    rational multipliers lambda with sum(lambda_i * row_i) = 0 while
    sum(lambda_i * rhs_i) != 0.
    """
    n = len(rows)
    mvar = len(rows[0])
    aug = [list(rows[i]) + [Fraction(1) if j == i else Fraction(0)
                            for j in range(n)] + [rhs[i]]
           for i in range(n)]
    piv_cols = []
    r = 0
    for col in range(mvar):
        sel = next((i for i in range(r, n) if aug[i][col] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        pv = aug[r][col]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(col)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if aug[i][-1] != 0:
            scale = aug[i][-1]
            mult = {labels[j]: str(aug[i][mvar + j] / scale)
                    for j in range(n) if aug[i][mvar + j] != 0}
            return {
                "feasible": False,
                "certificate": {
                    "multipliers": mult,
                    "statement": "combination of the listed constraints "
                                 "reduces to 0 = 1",
                },
            }
    solution = dict.fromkeys(range(mvar), Fraction(0))
    solution.update((col, aug[i][-1]) for i, col in enumerate(piv_cols))
    return {"feasible": True, "solution": solution}

