"""Conformality checks, Phi-convexity, KMS residuals, and products.

A measure m is K^beta-conformal when m(g^{-1}B) = integral over B of
K(g, .)^beta dm.  On the tree boundary both sides are finite linear
functionals of the estimated cell masses: the left side through the
cylinder translation algebra, the right side through kernels that are
exactly constant on cells at least as deep as |g|.  Residuals therefore
come with honest standard errors, and the beta = 0 alternative reduces
to an exact rational feasibility problem, solved by fraction-free
(integer-preserving) elimination on sparse integer rows, which gives the
same certificate as elimination in fractions.

Cell functions, tree kernels and measures meet as numpy leaf vectors on
the depth-D cells, so a residual is a few array operations.  Every sum of
a linear form runs left to right onto 0.0 (`measures.leaf_sum`), as the
leaf-by-leaf loops did: `np.sum` adds pairwise, which rounds differently
in the last bits and would move bytes of the report.

The product construction couples two walks so that steps move one factor
at a time; boundary points of a factor push forward to the product
boundary.  The pushforward check gives an image point the factor kernel.
That is not the product's Martin kernel: finite product kernels converge
to phi_0(g) * F(z_1)^(|h| - 2 cut) (Picardello and Woess 1994), so the
check's identity rows are not expected to vanish (ROADMAP item 1).
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

import numpy as np

from .boundary import (
    BoundaryApproximant,
    act_on_boundary,
    extend_kernel,
    free_tree_kernel_oracle,
    tree_kernel,
)
from .errors import PartitionError, UnsupportedGroupError
from .groups import GroupElement, GroupModel, serialize_element, shared_ball
from .kernels import KernelTable, n_step_distribution
from .measures import (
    MeasureModel,
    _letters,
    _random_word,
    _translate,
    all_cells,
    cell_name,
    leaf_ranges,
    leaf_sum,
    leaf_vector,
    translate_cell,
)
from .walks import WalkSpec

Z_LIMIT = 3.0
BETA_GRID = (-1.0, 0.0, 0.5, 1.0, 2.0)
PHI_GRID = tuple(np.linspace(-1.0, 2.0, 21))
# phi_map_pushforward_check's witness pairs, witness depth and seed
PUSHFORWARD_PAIRS = 40
PUSHFORWARD_WITNESS_DEPTH = 4
PUSHFORWARD_SEED = 11


# -- step functions on the tree boundary ---------------------------------------


class CellFunction:
    """Finite real combination of cylinder indicators on a free boundary.

    The function is kept as its values on the leaves of its own depth, the
    length of its longest word with a nonzero coefficient (0 for the zero
    function); at a finer depth every leaf repeats the value of its
    ancestor.  A function never changes (its leaf array is read-only), and
    two functions with the same group, depth and leaf values are equal and
    hash alike, so equal functions share the cached sides of a KMS word.
    """

    def __init__(self, G: GroupModel, coeffs: dict):
        coeffs = {tuple(w): float(c) for w, c in coeffs.items() if c != 0.0}
        self.G = G
        self.depth = max(map(len, coeffs), default=0)
        self._leaves = _read_only(leaf_vector(G, self.depth, coeffs.items()))

    @classmethod
    def _from_leaves(cls, G: GroupModel, depth: int,
                     leaves: np.ndarray) -> "CellFunction":
        """The function with these values on the depth leaves, at depth 0
        when every value is zero."""
        f = cls.__new__(cls)
        f.G = G
        f.depth, leaves = (depth, leaves) if leaves.any() else (0, np.zeros(1))
        f._leaves = _read_only(leaves)
        return f

    @functools.cached_property
    def _key(self) -> tuple:
        return self.G, self.depth, self._leaves.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, CellFunction) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    @staticmethod
    def one(G: GroupModel) -> "CellFunction":
        return CellFunction(G, {(): 1.0})

    @staticmethod
    def indicator(G: GroupModel, word) -> "CellFunction":
        return CellFunction(G, {tuple(word): 1.0})

    def values(self, depth: int) -> np.ndarray:
        """Values on the depth-`depth` leaves; requires depth >= self.depth.

        Each leaf repeats its depth-`self.depth` ancestor's value, added
        onto 0.0 as a leaf_vector term is (so -0.0 reads 0.0).
        """
        if depth < self.depth:
            raise PartitionError(
                f"cell of depth {depth} cannot resolve a function of "
                f"depth {self.depth}",
                suggested_depth=self.depth,
            )
        n = leaf_ranges(self.G, depth)[()][1]
        return 0.0 + self._leaves.repeat(n // len(self._leaves))

    def compose_shift(self, g: GroupElement) -> "CellFunction":
        """xi -> f(g^{-1} xi), i.e. the factor picked up when pulling an
        operator-word function past U_g: each leaf with a nonzero value
        is translated by g, and its value moves to the image cells."""
        if not self.depth:
            return self
        G = self.G
        G.check(g)
        words = all_cells(G, self.depth)
        terms = [(piece, float(self._leaves[i]))
                 for i in np.flatnonzero(self._leaves)
                 for piece in _translate(G, g, words[i])]
        # the images of disjoint leaves are disjoint, so no leaf sums twice
        depth = max((len(piece) for piece, _ in terms), default=0)
        return CellFunction._from_leaves(G, depth, leaf_vector(G, depth, terms))

    def __mul__(self, other: "CellFunction") -> "CellFunction":
        d = max(self.depth, other.depth)
        return CellFunction._from_leaves(self.G, d,
                                         self.values(d) * other.values(d))

    def integrate(self, m: MeasureModel):
        """(integral, standard error) against a cylinder measure."""
        if m.kind != "cylinder":
            raise UnsupportedGroupError("cell integrals need a cylinder measure")
        return _linear_form(self.values(m.depth), m.leaf_mass, m.leaf_se, 0)


def kernel_leaves(t: KernelTable, g: GroupElement, depth: int,
                  beta: float = 1.0) -> np.ndarray:
    """K(g, .)^beta on each depth-`depth` leaf, exact; needs depth >= |g|.

    `tree_kernel` per leaf, with cut the common prefix length of g and
    the leaf.  The values depend on (k, g, depth, beta) alone, so each is
    computed once per process (`_kernel_leaves`) and returned read-only;
    the walk and depth are checked first.
    """
    if not t.walk.is_isotropic_free_srw:
        raise UnsupportedGroupError(
            "cellwise kernels are available for the isotropic free SRW only"
        )
    if depth < len(g.data):
        raise PartitionError(
            f"cell depth {depth} below |g| = {len(g.data)}; kernel not "
            "constant there",
            suggested_depth=len(g.data),
        )
    return _kernel_leaves(t.walk.group, g.data, depth, beta)


@functools.lru_cache(maxsize=1024)
def _kernel_leaves(G: GroupModel, word: tuple, depth: int,
                   beta: float) -> np.ndarray:
    """kernel_leaves for a checked walk and depth.  The leaves with cut >= c
    are the range of g's length-c prefix, so the |g| + 1 values, each made
    a float once, are written shortest prefix first."""
    ranges = leaf_ranges(G, depth)
    value = np.empty(ranges[()][1])
    for c in range(len(word) + 1):
        lo, hi = ranges[word[:c]]
        value[lo:hi] = float(tree_kernel(G.params[0], len(word), c)) ** beta
    return _read_only(value)


def kernel_on_cell(t: KernelTable, g: GroupElement, cell: tuple) -> float:
    """K(g, .) on C(cell), exact; requires len(cell) >= |g|."""
    cell = tuple(cell)
    values = kernel_leaves(t, g, len(cell))
    return float(values[leaf_ranges(t.walk.group, len(cell))[cell][0]])


# -- pullback masses -----------------------------------------------------------


def cell_pullback_mass(m: MeasureModel, g: GroupElement, B):
    """(m(g^{-1}B), standard error) for cylinder and Dirac measures and
    the two-end bins of Z; other binned measures have no pullback rule."""
    G = m.group
    if m.kind == "cylinder":
        _, cells = _cylinder_pieces(G, g, tuple(B))
        return m.set_mass(cells), m.set_se(cells)
    if m.kind == "dirac":
        # labelled atoms used here sit at group-fixed boundary points
        return m.cell_mass(B), 0.0
    if G.kind == "lattice":
        # translations fix both ends
        return m.cell_mass(B), m.cell_se(B)
    raise UnsupportedGroupError(
        f"no pullback rule for binned measures on {G.spec()}"
    )


# -- conformality ---------------------------------------------------------------


def conformality_residual(t: KernelTable, m: MeasureModel, beta: float,
                          g: GroupElement, B, bin_kernels: dict | None = None):
    """|m(g^{-1}B) - integral over B of K(g,.)^beta dm| with its error.

    On cylinder measures both sides are expanded over the measure's leaf
    cells, so the standard error is that of one linear contrast of the
    estimated masses.  Dirac measures evaluate the kernel at the atom;
    the two-end bins of Z need kernel values per (acting element, bin),
    passed as `bin_kernels[(serialized g, bin)] = (value, error)`, except
    at beta = 0 where no kernels enter.
    """
    G = m.group
    if m.kind == "cylinder":
        return _cylinder_contrast(t, m, beta, g, tuple(B))
    if m.kind == "dirac":
        return _dirac_residual(t, m, beta, g, B)
    # binned
    lhs, lhs_se = cell_pullback_mass(m, g, B)
    in_B = m.cell_mass(B)
    se_B = m.cell_se(B)
    if beta == 0.0:
        return abs(lhs - in_B), math.sqrt(lhs_se**2 + se_B**2)
    key = (serialize_element(G, g), B)
    if bin_kernels is None or key not in bin_kernels:
        raise UnsupportedGroupError(
            "binned conformality at beta != 0 needs a kernel value for "
            f"{key[0]!r} on bin {key[1]!r}"
        )
    kval, kerr = bin_kernels[key]
    rhs = in_B * kval**beta
    rhs_err = in_B * _power_err(kval, kerr, beta) + se_B * kval**beta
    return abs(lhs - rhs), math.sqrt(lhs_se**2 + rhs_err**2)


def z_score(res: float, err: float) -> float:
    """A residual in units of its error bar.  With a zero error bar the
    residual is exact: 0 at rounding level (<= 1e-12), else infinite."""
    return res / err if err > 0 else (0.0 if res <= 1e-12 else math.inf)


def rn_identity_check(t: KernelTable, nu: MeasureModel, g: GroupElement, B):
    """Residual and z-score of nu(g^{-1} B) = integral over B of K(g, .).

    B is a cylinder word tuple on the free boundary.  The integral uses
    exact tree kernels on subcells fine enough that K(g, .) is constant,
    so the only stochastic error is the Monte Carlo mass error.
    """
    res, err = conformality_residual(t, nu, 1.0, g, B)
    return res, z_score(res, err)


def stationarity_residual(w: WalkSpec, m: MeasureModel, B):
    """|sum_s mu(s) m(s^{-1}B) - m(B)| with its standard error."""
    base, base_se = cell_pullback_mass(m, w.group.identity(), B)
    total = 0.0
    var = base_se**2
    for s, p in w.steps:
        val, se = cell_pullback_mass(m, s, B)
        total += p * val
        var += (p * se) ** 2
    return abs(total - base), math.sqrt(var)


def _power_err(k: float, kerr: float, beta: float) -> float:
    lo = max(k - kerr, 1e-300) ** beta
    hi = (k + kerr) ** beta
    return max(abs(hi - k**beta), abs(lo - k**beta))


def _cylinder_contrast(t: KernelTable, m: MeasureModel, beta: float,
                       g: GroupElement, B: tuple):
    need, _ = _cylinder_pieces(m.group, g, B)
    m._check_depth(need)
    lhs, rhs = _cylinder_leaves(m.group, g, B, m.depth)
    return _kernel_contrast(t, m, beta, g, lhs, rhs)


@functools.lru_cache(maxsize=256)
def _cylinder_pieces(G: GroupModel, g: GroupElement, B: tuple):
    """(need, pieces): g^-1 B as a tuple of cells, and the depth the
    contrast of g and B needs; neither depends on beta, the measure or its
    depth, so each (G, g, B) translates once."""
    pieces = tuple(translate_cell(G, G.inv(g), B))
    need = max([len(g.data), len(B)] + [len(piece) for piece in pieces])
    return need, pieces


@functools.lru_cache(maxsize=256)
def _cylinder_leaves(G: GroupModel, g: GroupElement, B: tuple, depth: int):
    """The indicators of g^-1 B and of B on the depth leaves, read-only;
    once per (G, g, B, depth)."""
    _, pieces = _cylinder_pieces(G, g, B)
    lhs = leaf_vector(G, depth, [(piece, 1.0) for piece in pieces])
    return _read_only(lhs), _read_only(leaf_vector(G, depth, [(B, 1.0)]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _kernel_contrast(t: KernelTable, m: MeasureModel, beta: float,
                     g: GroupElement, lhs: np.ndarray, rhs: np.ndarray):
    """|integral of (lhs - rhs * K(g, .)^beta) dm| with its standard
    error, for leaf vectors lhs and rhs on m's leaves: one linear contrast
    of the leaf masses."""
    coeff = lhs - rhs * kernel_leaves(t, g, m.depth, beta)
    value, err = _linear_form(coeff, m.leaf_mass, m.leaf_se, m.n_eff)
    return abs(value), err


def _linear_form(coeff: np.ndarray, masses: np.ndarray, ses: np.ndarray,
                 n_eff: int):
    """(sum c_i * mass_i, standard error) over leaf masses; terms with
    c_i = 0 are skipped and the rest are added in leaf order.

    Estimated masses from a common sample are one multinomial draw, so
    Var = (sum c^2 p - (sum c p)^2) / n with plug-in masses; with
    n_eff = 0 the per-leaf error bars add in quadrature.  The squares
    there are Python's `pow(x, 2)` (libm pow), which rounds differently
    from x * x for about one value in a thousand.
    """
    keep = coeff != 0.0
    c, x = coeff[keep], masses[keep]
    value = leaf_sum(c * x)
    if n_eff > 0:
        var = max(leaf_sum(c * c * x) - value * value, 0.0) / n_eff
    else:
        var = sum(map(pow, (c * ses[keep]).tolist(), repeat(2)))
    return value, math.sqrt(var)


def _dirac_residual(t: KernelTable, m: MeasureModel, beta: float,
                    g: GroupElement, B):
    """Residual at a labelled atom, which sits at a group-fixed point."""
    in_B = m.cell_mass(B)
    kval, kerr = (1.0, 0.0) if m.xi is None else extend_kernel(t, g, m.xi)
    residual = abs(in_B - in_B * kval**beta)
    return residual, in_B * _power_err(kval, kerr, beta)


def normalization_check(t: KernelTable, m: MeasureModel, beta: float,
                        g: GroupElement):
    """(integral of K(g^{-1}, .)^beta dm, error); 1 for conformal m."""
    ginv = m.group.inv(g)
    if m.kind == "dirac":
        kval, kerr = ((1.0, 0.0) if m.xi is None
                      else extend_kernel(t, ginv, m.xi))
        return kval**beta, _power_err(kval, kerr, beta)
    if m.kind == "binned":
        raise UnsupportedGroupError(
            "normalization over binned boundaries needs per-bin kernels; "
            "use conformality_residual with bin_kernels instead"
        )
    depth = max(m.depth, len(ginv.data))
    coeff = kernel_leaves(t, ginv, depth, beta)
    m._check_depth(depth)
    return _linear_form(coeff, m.leaf_mass, m.leaf_se, 0)


# -- Phi curve -------------------------------------------------------------------


@dataclass(eq=False)
class PhiCurve:
    """Phi(t) = sum_h mu^n(e,h) * integral of K(h,.)^t dm, on a grid."""

    walk: object
    measure: MeasureModel
    n: int
    grid: tuple
    values: tuple
    errors: tuple

    def second_differences(self) -> tuple:
        v = self.values
        return tuple(v[i + 1] - 2 * v[i] + v[i - 1]
                     for i in range(1, len(v) - 1))

    def second_difference_errors(self) -> tuple:
        e = self.errors
        return tuple(e[i + 1] + 2 * e[i] + e[i - 1]
                     for i in range(1, len(e) - 1))

    def convex_within_error(self) -> bool:
        return all(d >= -(err + 1e-12) for d, err in
                   zip(self.second_differences(),
                       self.second_difference_errors()))


def phi_curve(t: KernelTable, m: MeasureModel, n: int = 1,
              grid=None) -> PhiCurve:
    grid = tuple(float(x) for x in (PHI_GRID if grid is None else grid))
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    reach = n * t.walk.max_step_length()
    dist, dropped = n_step_distribution(t.walk, n, radius=max(reach, 1))
    if dropped != 0.0:
        raise PartitionError(
            f"n-step support dropped mass {dropped}", suggested_depth=reach
        )
    if m.kind == "dirac":
        # a labelled atom sits at a group-fixed point, where K(h, .) = 1
        values = [sum(dist.values())] * len(grid)
        errors = [0.0] * len(grid)
        return PhiCurve(t.walk, m, n, grid, tuple(values), tuple(errors))
    if m.kind == "binned":
        raise UnsupportedGroupError("phi_curve needs a cylinder boundary")
    # a cylinder measure shallower than the n-step reach refuses here
    depth = max(m.depth, reach)
    m._check_depth(depth)
    masses, ses = m.leaf_mass, m.leaf_se
    values, errors = [], []
    for tv in grid:
        coeff = np.zeros(len(masses))
        for h, p in dist.items():
            coeff = coeff + p * kernel_leaves(t, h, depth, tv)
        val, err = _linear_form(coeff, masses, ses, m.n_eff)
        values.append(val)
        errors.append(err)
    return PhiCurve(t.walk, m, n, grid, tuple(values), tuple(errors))


# -- classification ---------------------------------------------------------------


@dataclass(eq=False)
class BetaVerdict:
    verdict: str          # "A" | "B" | "C" | "none"
    spine_found: bool
    spine_radius: int | None
    spine_tol: float | None
    spine_max_dev: float | None
    admissible: str
    evidence: dict


def classify(t: KernelTable, m: MeasureModel,
             spine: dict | None) -> BetaVerdict:
    """Grade the measure against the three conformality alternatives.

    A: Dirac at a detected spine (conformal for every beta).  B: passes
    the beta = 0 (invariance) battery.  C: passes the beta = 1 battery.
    Each battery acts by every generator on each bin, depth-1 cylinder or
    atom of the measure.
    The admissible KMS set is "all real beta" exactly when a spine was
    found, otherwise a subset of {0, 1}; on free boundaries an exact
    infeasibility certificate for invariant measures removes 0.
    """
    G = m.group
    spine_found = bool(spine and spine.get("isSpine"))
    info = spine or {}
    radius, tol, max_dev = info.get("radius"), info.get("tol"), info.get("maxDev")
    evidence: dict = {}
    gens = list(G.generators())
    cells = _battery_cells(m)
    if spine_found and m.kind == "dirac":
        grid_evidence = []
        for beta in BETA_GRID:
            worst = 0.0
            for g in gens:
                for B in cells:
                    res, err = conformality_residual(t, m, beta, g, B)
                    worst = max(worst, res - Z_LIMIT * err)
            grid_evidence.append({"beta": beta, "excess": worst})
        evidence["beta_grid"] = grid_evidence
        evidence["set"] = "all"
        return BetaVerdict("A", True, radius, tol, max_dev,
                           "all real beta", evidence)
    batteries = {}
    for beta in (0.0, 1.0):
        worst_z, worst, blocked = 0.0, None, None
        for g in gens:
            for B in cells:
                try:
                    res, err = conformality_residual(t, m, beta, g, B)
                except UnsupportedGroupError as exc:
                    blocked = str(exc)
                    break
                z = z_score(res, err)
                if z > worst_z:
                    worst_z, worst = z, {"g": serialize_element(G, g),
                                         "residual": res, "err": err}
            if blocked:
                break
        if blocked:
            batteries[beta] = {"unsupported": blocked, "pass": False}
        else:
            batteries[beta] = {"max_z": worst_z, "worst": worst,
                               "pass": worst_z < Z_LIMIT}
    evidence["beta0"] = batteries[0.0]
    evidence["beta1"] = batteries[1.0]
    admitted = [b for b in (0, 1) if batteries[float(b)]["pass"]]
    if G.kind == "free" and not spine_found:
        feas = invariant_measure_feasibility(G, min(2, m.depth or 2))
        evidence["feasibility"] = feas
        if not feas["feasible"] and 0 in admitted:
            admitted.remove(0)
    evidence["set"] = admitted
    admissible = "all real beta" if spine_found else "subset of {0, 1}"
    verdict = ("B" if batteries[0.0]["pass"]
               else "C" if batteries[1.0]["pass"] else "none")
    return BetaVerdict(verdict, spine_found, radius, tol, max_dev,
                       admissible, evidence)


def _battery_cells(m: MeasureModel):
    if m.kind == "binned":
        return list(m.masses)
    if m.kind == "cylinder":
        return all_cells(m.group, 1)
    return [m.atom]


# -- exact feasibility of invariant measures ---------------------------------------


def invariant_measure_feasibility(G: GroupModel, depth: int) -> dict:
    """Can a boundary measure be invariant under the whole group?

    Free case: sets up m(g * C) = m(C) for generators g over cylinders of
    depth <= `depth`, expressed in the depth-`depth` cell masses, as
    sparse integer rows, and eliminates them fraction-free: integer rows
    that stay proportional to those of Gauss-Jordan over Q, so the answer
    is the one exact rational elimination gives.  An infeasibility
    certificate is a rational combination of constraints reducing to
    0 = 1.  Lattice case: translations fix both ends, so every measure is
    invariant.

    The answer depends on (group, depth) only, so it is computed once per
    process; each call gets its own deep copy to keep or change.
    """
    return copy.deepcopy(_feasibility(G, depth))


@functools.lru_cache(maxsize=64)
def _feasibility(G: GroupModel, depth: int) -> dict:
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
    nvar = leaf_ranges(G, depth)[()][1]
    rows, labels = [], []

    def add(terms, rhs: int, label: str):
        # small integer coefficients, so the float sums are exact
        vec = leaf_vector(G, depth, terms)
        cols = np.flatnonzero(vec)
        row = dict(zip(cols.tolist(), vec[cols].astype(int).tolist()))
        if row:
            if rhs:
                row[nvar] = rhs
            row[nvar + 1 + len(rows)] = 1
            rows.append(row)
            labels.append(label)

    add([((), 1)], 1, "total mass = 1")
    skipped = 0
    for g in G.generators():
        g_name = serialize_element(G, g)
        for d in range(0, depth + 1):
            for v in all_cells(G, d):
                pieces = translate_cell(G, g, v)
                if any(len(p) > depth for p in pieces):
                    skipped += 1
                    continue
                v_name = cell_name(G, v)
                add([(p, 1) for p in pieces] + [(v, -1)], 0,
                    f"{g_name}*C({v_name}) = C({v_name})")
    result = _rational_solve(rows, nvar, labels)
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


def _rational_solve(rows, nvar: int, labels) -> dict:
    """Gauss-Jordan over Q with multiplier tracking, fraction-free.

    Row i is a sparse integer dict {column: value} with no zero entries:
    columns below `nvar` are the unknowns, column `nvar` the right-hand
    side and column nvar + 1 + i the multiplier of constraint i, entry 1.
    The pivot is the first row at or below the current one with a nonzero
    in the column, and every other row becomes (pv * row - f * pivot row)
    divided by the gcd of its entries (integer-preserving elimination,
    Bareiss 1968), so each row stays a nonzero multiple of the row that
    Gauss-Jordan in `Fraction`s would hold and the ratios read off at the
    end are the same.

    Returns feasible + a pivot solution, or an infeasibility certificate:
    rational multipliers lambda with sum(lambda_i * row_i) = 0 while
    sum(lambda_i * rhs_i) != 0, in constraint order.
    """
    rows = list(rows)  # the dicts themselves are never changed
    n = len(rows)
    piv_cols = []
    r = 0
    for col in range(nvar):
        sel = next((i for i in range(r, n) if col in rows[i]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        prow = rows[r]
        pv = prow[col]
        for i, row in enumerate(rows):
            f = row.get(col)
            if f and i != r:
                rows[i] = _eliminate(row, prow, pv, f)
        piv_cols.append(col)
        r += 1
        if r == n:
            break
    for row in rows[r:]:
        scale = row.get(nvar)
        if scale:
            mult = {labels[c - nvar - 1]: str(Fraction(x, scale))
                    for c, x in sorted(row.items()) if c > nvar}
            return {
                "feasible": False,
                "certificate": {
                    "multipliers": mult,
                    "statement": "combination of the listed constraints "
                                 "reduces to 0 = 1",
                },
            }
    solution = dict.fromkeys(range(nvar), Fraction(0))
    solution.update((col, Fraction(rows[i].get(nvar, 0), rows[i][col]))
                    for i, col in enumerate(piv_cols))
    return {"feasible": True, "solution": solution}


def _eliminate(row: dict, prow: dict, pv: int, f: int) -> dict:
    """(pv * row - f * prow) / gcd: zero in the pivot column, no zero
    entries, integer entries with no common factor."""
    g = math.gcd(pv, f)
    a, b = pv // g, f // g
    out = {c: a * x for c, x in row.items()}
    for c, y in prow.items():
        x = out.get(c, 0) - b * y
        if x:
            out[c] = x
        else:
            del out[c]
    g = math.gcd(*out.values())
    if g > 1:
        out = {c: x // g for c, x in out.items()}
    return out


# -- KMS words ---------------------------------------------------------------------


def kms_residual(t: KernelTable, m: MeasureModel, beta: float,
                 f1: CellFunction, g1: GroupElement,
                 f2: CellFunction, g2: GroupElement):
    """|omega(f1 U_{g1} f2 U_{g2}) - omega(f2 U_{g2} f1 U_{g1} K(g1^{-1},.)^beta)|.

    Both sides are expanded over the measure's leaf cells, so the
    residual comes with the standard error of a single linear contrast.
    When g2 is not g1^{-1} both states vanish and the residual is exactly
    zero.
    """
    G = t.walk.group
    if G.mul(g1, g2) != G.identity():
        return 0.0, 0.0
    if m.kind != "cylinder":
        raise UnsupportedGroupError("KMS states need a cylinder measure")
    lhs_fn, rhs_fn = _kms_sides(f1, g1, f2, g2)
    m._check_depth(max(lhs_fn.depth, rhs_fn.depth, len(g1.data)))
    lhs, rhs = _kms_leaves(f1, g1, f2, g2, m.depth)
    return _kernel_contrast(t, m, beta, G.inv(g1), lhs, rhs)


@functools.lru_cache(maxsize=256)
def _kms_sides(f1: CellFunction, g1: GroupElement,
               f2: CellFunction, g2: GroupElement):
    """The operator-word functions f1 (f2 o g1) and f2 (f1 o g2) of
    kms_residual; they do not depend on beta or on the measure, so each
    word builds them once."""
    return f1 * f2.compose_shift(g1), f2 * f1.compose_shift(g2)


@functools.lru_cache(maxsize=256)
def _kms_leaves(f1: CellFunction, g1: GroupElement,
                f2: CellFunction, g2: GroupElement, depth: int):
    """The values of both `_kms_sides` functions on the depth leaves,
    read-only; once per word and measure depth."""
    return tuple(_read_only(f.values(depth))
                 for f in _kms_sides(f1, g1, f2, g2))


# -- product construction ------------------------------------------------------------


def phi_map_pushforward_check(t2: KernelTable, t1: KernelTable,
                              m1: MeasureModel, cells):
    """Kernel identity, equivariance, and pushforward conformality.

    The factor-1 boundary maps into the product boundary, and the check
    gives an image point the factor kernel K((g,h), image of xi) := K(h, xi).
    Three checks:

    * identity: finite product kernels K((g,h), (e, x_n)) against K(h, xi)
      at the deepest witnesses t2 covers.  `identity_max_residual` is not
      expected to vanish: the finite kernels converge to the product's own
      Martin kernel phi_0(g) * F(z_1)^(|h| - 2 cut) (Picardello and Woess
      1994), not to K(h, xi); see ROADMAP item 1.  The rows carry the
      witness depth and no pass bar.
    * equivariance: (g,h) moving the image point must match h moving xi
      first.  With defined kernels both routes reduce to factor-side
      cocycle expressions; the residual is float noise when they agree.
    * conformality: beta = 1 residuals of the pushforward on the image
      cells.  Pullback and integral both reduce exactly to factor-side
      quantities, so the z-scores are those of the factor measure; the
      complement of the image is invariant and contributes exact zeros.
    """
    G2 = t2.walk.group
    G1 = t1.walk.group
    if G2.kind != "product":
        raise UnsupportedGroupError("t2 must live on a product group")
    left, right = G2.factors
    if right.spec() != G1.spec():
        raise UnsupportedGroupError(
            f"second product factor {right.spec()} does not match the "
            f"factor table's group {G1.spec()}"
        )
    k1 = G1.params[0]
    letters = _letters(k1)
    rng = np.random.default_rng(PUSHFORWARD_SEED)
    ball1 = shared_ball(G1, 1)
    ball0 = shared_ball(left, 1)
    idx = rng.integers
    identity_rows = []
    worst_id = 0.0
    for _ in range(PUSHFORWARD_PAIRS):
        prefix = _random_word(letters, PUSHFORWARD_WITNESS_DEPTH, idx)
        g0 = ball0.elements[idx(len(ball0.elements))]
        h = ball1.elements[idx(len(ball1.elements))]
        gh = GroupElement("product", (g0, h))
        seq = [GroupElement("free", prefix[:i + 1]) for i in range(len(prefix))]
        n_use = None
        for n in range(len(seq) - 1, -1, -1):
            pt = GroupElement("product", (left.identity(), seq[n]))
            probe = G2.mul(G2.inv(gh), pt)
            if t2.covers(pt) and t2.covers(probe):
                n_use = n
                break
        if n_use is None:
            continue
        pt = GroupElement("product", (left.identity(), seq[n_use]))
        finite = t2.martin(gh, pt)
        end = BoundaryApproximant.tree_end(G1, prefix)
        target = float(free_tree_kernel_oracle(k1, h, end))
        resid = abs(finite - target)
        worst_id = max(worst_id, resid)
        identity_rows.append({
            "g0": serialize_element(left, g0),
            "h": serialize_element(G1, h),
            "witness": n_use + 1,
            "finite": finite,
            "defined": target,
            "residual": resid,
        })
    worst_eq = 0.0
    equi_rows = []
    for _ in range(PUSHFORWARD_PAIRS):
        prefix = _random_word(letters, PUSHFORWARD_WITNESS_DEPTH + 2, idx)
        end = BoundaryApproximant.tree_end(G1, prefix)
        h = ball1.elements[idx(len(ball1.elements))]
        hp = ball1.elements[idx(len(ball1.elements))]
        # route 1: Gamma_2 cocycle on defined kernels
        hinv = G1.inv(h)
        num = float(free_tree_kernel_oracle(k1, G1.mul(hinv, hp), end))
        den = float(free_tree_kernel_oracle(k1, hinv, end))
        lhs = num / den
        # route 2: move the boundary point by h first
        moved = act_on_boundary(G1, h, end)
        rhs = float(free_tree_kernel_oracle(k1, hp, moved))
        resid = abs(lhs - rhs)
        worst_eq = max(worst_eq, resid)
        equi_rows.append({
            "h": serialize_element(G1, h),
            "hprime": serialize_element(G1, hp),
            "residual": resid,
        })
    conf_rows = []
    for B in cells:
        for h in G1.generators():
            res, err = conformality_residual(t1, m1, 1.0, h, B)
            conf_rows.append({
                "cell": "Phi(C(" + cell_name(G1, B) + "))",
                "h": serialize_element(G1, h),
                "residual": res,
                "err": err,
                "z": z_score(res, err),
            })
    conf_rows.append({
        "cell": "complement of the image", "h": "(any)",
        "residual": 0.0, "err": 0.0, "z": 0.0,
    })
    return {
        "identity": {"max_residual": worst_id, "pairs": identity_rows},
        "equivariance": {"max_residual": worst_eq, "pairs": equi_rows},
        "conformality": conf_rows,
    }


def multiplicity_report(measures: list) -> dict:
    """Count candidate conformal measures a shared partition tells apart.

    `measures` is a list of {"label", "masses": {cell label: mass},
    "conformal": bool, "detail": ...} entries prepared by the caller (the
    conformality batteries differ per measure kind).  The report adds
    pairwise total-variation lower bounds over the shared cell labels and
    the count of passing, mutually distinguished measures.
    """
    entries = list(measures)
    labels = sorted({lab for e in entries for lab in e["masses"]})
    pairs = []
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            tv = 0.5 * sum(
                abs(entries[i]["masses"].get(lab, 0.0)
                    - entries[j]["masses"].get(lab, 0.0))
                for lab in labels
            )
            pairs.append({
                "a": entries[i]["label"],
                "b": entries[j]["label"],
                "tv_lower_bound": tv,
            })
    passing = [e for e in entries if e.get("conformal")]
    distinguished = 0
    if passing:
        seen = [passing[0]]
        for e in passing[1:]:
            if all(_pair_tv(pairs, e["label"], s["label"]) > 0.5
                   for s in seen):
                seen.append(e)
        distinguished = len(seen)
    return {
        "measures": [{k: v for k, v in e.items() if k != "masses"}
                     for e in entries],
        "partition": labels,
        "pairs": pairs,
        "count_passing": len(passing),
        "count_distinguished": distinguished,
    }


def _pair_tv(pairs, a, b):
    for p in pairs:
        if {p["a"], p["b"]} == {a, b}:
            return p["tv_lower_bound"]
    return 0.0
