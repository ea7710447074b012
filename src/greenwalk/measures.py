"""Measures on boundary models: cylinder algebras, bins, and atoms.

Free-group boundaries carry the cylinder algebra of reduced-word
prefixes.  Translating a cylinder by a group element stays inside the
algebra but may need deeper cells: g * C(v) is C(gv) when the product
keeps at least one letter of v, and otherwise splits into the cells of
v's one-letter extensions, handled by a short recursion.  Cells are
enumerated lexicographically in one letter order, so each cylinder of
depth <= D is a contiguous range of the depth-D leaves, and a cylinder
measure answers every cell query with a sum over a range of its leaf
array.  Boundaries without a word structure (the two ends of Z, the
binned wreath boundary, product partitions) use labelled cells instead.

Leaf vectors are numpy float arrays, and every sum over them runs left to
right (`leaf_sum`), as the leaf-by-leaf loops they replace did.  `np.sum`
is not used: its pairwise order rounds differently in the last bits, and
the report is byte-identical only if every float is.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass, field

import numpy as np

from .errors import PartitionError, UnsupportedGroupError
from .groups import (GroupElement, GroupModel, is_reduced_word, parse_element,
                     serialize_element)

MASS_TOL = 1e-9


# -- cylinder words on the tree boundary --------------------------------------


@functools.lru_cache(maxsize=16)
def _letters(k: int) -> tuple:
    """The one letter order a, b, ..., A, B, ... of F_k.  Cells, children
    and the pushforward check's random words follow it, so cells come out
    lexicographic and every cylinder is a contiguous range of leaves.
    Built once per k, as every child of every cell reads it."""
    return tuple(range(1, k + 1)) + tuple(range(-1, -k - 1, -1))


def all_cells(G: GroupModel, depth: int) -> list:
    """Reduced words of exactly `depth` letters, lexicographic in the
    shared letter order; depth 0 is the whole boundary."""
    if G.kind != "free":
        raise UnsupportedGroupError("cylinder cells exist on free groups only")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    words = [()]
    for _ in range(depth):
        words = [child for w in words for child in cell_children(G, w)]
    return words


def cell_children(G: GroupModel, word: tuple) -> list:
    return [word + (s,) for s in _followers(_letters(G.params[0]), word[-1:])]


def _random_word(letters: tuple, length: int, pick) -> tuple:
    """A random reduced word of `length` letters: each letter is the
    `pick(n)`-th of the n letters, in the order of `letters`, that may
    follow the one before."""
    word = ()
    for _ in range(length):
        choices = _followers(letters, word[-1:])
        word += (choices[pick(len(choices))],)
    return word


@functools.lru_cache(maxsize=256)
def _followers(letters: tuple, last: tuple) -> tuple:
    """The letters of F_k, in the order of `letters`, that may follow a
    reduced word whose `[-1:]` is `last`."""
    k = len(letters) // 2
    return tuple(s for s in letters if is_reduced_word(k, last + (s,)))


@functools.lru_cache(maxsize=64)
def leaf_ranges(G: GroupModel, depth: int) -> types.MappingProxyType:
    """{w: (lo, hi)} for every reduced word with |w| <= depth: C(w) is
    all_cells(G, depth)[lo:hi].  Cached, so the mapping is read-only."""
    ranges = {}
    for i, leaf in enumerate(all_cells(G, depth)):
        for cut in range(depth + 1):
            lo, _ = ranges.get(leaf[:cut], (i, i))
            ranges[leaf[:cut]] = (lo, i + 1)
    return types.MappingProxyType(ranges)


def leaf_vector(G: GroupModel, depth: int, terms) -> np.ndarray:
    """sum of c * 1_C(w) over (w, c) in `terms`, as values on the depth
    leaves; terms are added onto 0.0 in the order given, words outside the
    tree (not reduced) add nothing."""
    ranges = leaf_ranges(G, depth)
    vec = np.zeros(ranges[()][1])
    for w, c in terms:
        lo, hi = ranges.get(tuple(w), (0, 0))
        vec[lo:hi] += c
    return vec


def leaf_sum(values: np.ndarray) -> float:
    """values[0] + values[1] + ... added left to right onto 0.0, as Python's
    `sum` adds a list; 0.0 when empty."""
    return 0.0 + float(np.add.accumulate(values)[-1]) if len(values) else 0.0


def cell_name(G: GroupModel, word: tuple) -> str:
    return serialize_element(G, GroupElement("free", tuple(word)))


def parse_cell(G: GroupModel, text: str) -> tuple:
    return parse_element(G, text).data


def translate_cell(G: GroupModel, g: GroupElement, word: tuple) -> list:
    """g * C(word) as a disjoint union of cells, returned as word tuples.

    When multiplying g onto the prefix cancels the whole prefix the image
    is no longer a single cylinder, so the cell is split into its
    one-letter extensions and the translation recurses; each extension
    either survives as C(g * extension) or splits again.  Recursion stops
    once prefixes outlast |g|.
    """
    word = tuple(word)
    if not word:
        return [()]
    G.check(g)
    G.check(GroupElement("free", word))
    return _translate(G, g, word)


def _translate(G: GroupModel, g: GroupElement, word: tuple) -> list:
    """translate_cell for a checked g and a nonempty reduced word; the
    extensions it visits are reduced too, so no product is checked."""
    out = []

    def visit(v: tuple):
        u = G._mul(g, GroupElement("free", v))
        if len(u.data) == len(g.data) - len(v):
            # the whole prefix cancelled into g; children decide
            for child in cell_children(G, v):
                visit(child)
        else:
            out.append(u.data)

    visit(word)
    return out


# -- measure models ------------------------------------------------------------


@dataclass(eq=False)
class MeasureModel:
    """A measure on one of the supported boundary models.

    kind "cylinder": masses per depth-D reduced word on the free boundary.
    kind "binned": masses per named cell of a measurable partition (two
    ends of Z, wreath window bins, product factor cells).
    kind "dirac": unit atom; `atom` labels the cell carrying it, compared
    by ==, and `xi` keeps the approximant.
    """

    kind: str
    group: GroupModel
    depth: int = 0
    masses: dict = field(default_factory=dict)
    nonconverged: float = 0.0
    xi: object = None
    atom: object = None
    note: str = ""
    # converged sample count behind estimated masses, the one source of
    # every standard error; 0 for an exact measure, whose errors are 0.0
    n_eff: int = 0

    def __post_init__(self):
        if self.kind != "cylinder":
            return
        # leaf masses in all_cells order, where every cylinder of depth
        # <= D is a contiguous range; the masses dict stays public
        self._ranges = leaf_ranges(self.group, self.depth)
        self.leaf_mass = np.array([self.masses[w] for w in
                                   all_cells(self.group, self.depth)])

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def cylinder(G: GroupModel, depth: int, masses: dict,
                 nonconverged: float = 0.0, note: str = "",
                 n_eff: int = 0) -> "MeasureModel":
        filled = {w: float(masses.get(w, 0.0)) for w in all_cells(G, depth)}
        _check_masses(filled, "cylinder", "cell")
        return MeasureModel("cylinder", G, depth=depth, masses=filled,
                            nonconverged=nonconverged, note=note, n_eff=n_eff)

    @staticmethod
    def binned(G: GroupModel, masses: dict, nonconverged: float = 0.0,
               note: str = "", n_eff: int = 0) -> "MeasureModel":
        _check_masses(masses, "bin", "bin")
        return MeasureModel("binned", G, masses=dict(masses),
                            nonconverged=nonconverged, note=note, n_eff=n_eff)

    @staticmethod
    def dirac(G: GroupModel, xi, atom, note: str = "") -> "MeasureModel":
        """Unit atom at xi; `atom` is the label of the cell containing it."""
        return MeasureModel("dirac", G, xi=xi, atom=atom, note=note)

    # -- mass queries ----------------------------------------------------------

    def cell_mass(self, cell) -> float:
        """Mass of one cell: a word tuple (any depth <= D) or bin label."""
        if self.kind == "dirac":
            return 1.0 if cell == self.atom else 0.0
        if self.kind == "binned":
            if cell not in self.masses:
                raise PartitionError(f"unknown bin {cell!r}", suggested_depth=0)
            return self.masses[cell]
        lo, hi = self._leaf_span(cell)
        return leaf_sum(self.leaf_mass[lo:hi])

    def cell_se(self, cell) -> float:
        """Standard error of cell_mass(cell) (`_binomial_se`)."""
        return _binomial_se(self.cell_mass(cell), self.n_eff)

    def _leaf_span(self, cell) -> tuple:
        """C(cell) as a leaf range; words outside the tree are empty."""
        word = tuple(cell)
        self._check_depth(len(word))
        return self._ranges.get(word, (0, 0))

    def _check_depth(self, depth: int) -> None:
        """Refuse cells of depth `depth` when the leaves are coarser."""
        if depth > self.depth:
            raise PartitionError(
                f"cell at depth {depth} finer than measure depth "
                f"{self.depth}; re-estimate deeper",
                suggested_depth=depth,
            )

    def set_mass(self, cells) -> float:
        """Mass of a disjoint union of cells."""
        return sum(self.cell_mass(c) for c in cells)

    def set_se(self, cells) -> float:
        """Standard error of set_mass(cells) (`_binomial_se`)."""
        return _binomial_se(self.set_mass(cells), self.n_eff)

    def cells(self) -> list:
        if self.kind == "dirac":
            return [self.atom]
        return sorted(self.masses, key=_cell_sort_key)

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        cells = []
        if self.kind == "dirac":
            return {
                "kind": "dirac",
                "group": self.group.spec(),
                "atom": str(self.atom),
                "xi": self.xi.serialize() if self.xi is not None else None,
                "note": self.note,
            }
        for c in self.cells():
            name = cell_name(self.group, c) if self.kind == "cylinder" else str(c)
            cells.append({"cyl": name, "mass": self.masses[c],
                          "se": self.cell_se(c)})
        return {
            "kind": self.kind,
            "group": self.group.spec(),
            "depth": self.depth,
            "cells": cells,
            "nonconverged": self.nonconverged,
            "note": self.note,
        }


def _binomial_se(p: float, n_eff: int) -> float:
    """sqrt(p (1 - p) / n_eff): the error of a mass p estimated as the
    share of n_eff independent draws, and 0.0 for an exact measure
    (n_eff = 0).  Every cell and set of a measure takes its error here."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / n_eff) if n_eff else 0.0


def _check_masses(masses: dict, total_name: str, unit: str) -> None:
    """Refuse masses that do not sum to 1 or that are negative."""
    total = sum(masses.values())
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"{total_name} masses sum to {total}, not 1")
    if any(v < -MASS_TOL for v in masses.values()):
        raise ValueError(f"negative {unit} mass")


def _cell_sort_key(cell):
    if isinstance(cell, tuple):
        return (0, len(cell), cell)
    return (1, 0, str(cell))


def uniform_depth1_measure(G: GroupModel) -> MeasureModel:
    """Uniform mass on the depth-1 cylinders of a free boundary."""
    cells = all_cells(G, 1)
    n = len(cells)
    return MeasureModel.cylinder(G, 1, {w: 1.0 / n for w in cells},
                                 note="uniform depth-1")


def tree_exit_measure(G: GroupModel, depth: int) -> MeasureModel:
    """Exit law of the isotropic free SRW, exactly.

    By symmetry the first letter is uniform over the 2k directed
    generators and every later letter is uniform over the 2k - 1
    non-backtracking continuations, so C(w) carries
    (1/2k) * (1/(2k-1))^(|w|-1).
    """
    if G.kind != "free":
        raise UnsupportedGroupError("tree exit law needs a free group")
    k = G.params[0]
    masses = {}
    for w in all_cells(G, depth):
        masses[w] = (1.0 / (2 * k)) * (2 * k - 1) ** (-(len(w) - 1))
    return MeasureModel.cylinder(G, depth, masses, note="exact exit law")
