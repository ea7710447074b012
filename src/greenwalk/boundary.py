"""Boundary points as kernel-limit approximants.

A boundary point is carried numerically in one of three shapes: a tree
end (reduced prefix of the infinite word, free groups only), a sequence
of group elements leaving every finite ball, or a spine candidate (a
labelled generator sequence produced by scanning).  Extended kernels
K(g, xi) come either from the exact first-visit geometry of the tree or
as Cauchy limits of finite Martin kernels along the sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConvergenceError, RangeError, UnsupportedGroupError
from .groups import (GroupElement, GroupModel, parse_element,
                     serialize_element, shared_ball)
from .kernels import KernelTable

SEQUENCE_AGREEMENTS = 3
SPINE_TOL_Z = 1e-3
SPINE_TOL_WREATH = 0.05
SPINE_TEMPLATE_DEPTH = 3


@dataclass(eq=False)
class BoundaryApproximant:
    """One boundary point, known to finite depth.

    kind is "tree_end", "sequence" or "spine_candidate".  For tree ends
    `prefix` is the reduced word of signed generator indices and `depth`
    its length; for the other kinds `elements` is the witness sequence
    x_n with x_n -> infinity.  `cache` maps (table, element) to
    (value, error) pairs so repeated scans do not recompute limits.
    """

    kind: str
    group: GroupModel
    prefix: tuple = ()
    elements: tuple = ()
    label: str = ""
    tolerance: float = 1e-6
    cache: dict = field(default_factory=dict)

    @staticmethod
    def tree_end(group: GroupModel, prefix, tolerance: float = 1e-6):
        if group.kind != "free":
            raise UnsupportedGroupError("tree ends exist only on free groups")
        if isinstance(prefix, GroupElement):
            prefix = prefix.data
        prefix = tuple(prefix)
        word = GroupElement("free", prefix)
        group.check(word)  # rejects non-reduced prefixes
        return BoundaryApproximant("tree_end", group, prefix=prefix,
                                   tolerance=tolerance)

    @staticmethod
    def sequence(group: GroupModel, elements, tolerance: float = 1e-6):
        elements = tuple(elements)
        if not elements:
            raise ValueError("sequence approximant needs at least one element")
        for x in elements:
            group.check(x)
        return BoundaryApproximant("sequence", group, elements=elements,
                                   tolerance=tolerance)

    @staticmethod
    def spine_candidate(group: GroupModel, label: str, generators,
                        tolerance: float = 1e-6):
        """Candidate built by repeating a generator template.

        `generators` is the step template; element n of the witness
        sequence is the product of the first n template repetitions.
        """
        gens = tuple(generators)
        if not gens:
            raise ValueError("spine candidate needs a nonempty template")
        elems = []
        cur = group.identity()
        for g in gens:
            cur = group.mul(cur, g)
            elems.append(cur)
        return BoundaryApproximant("spine_candidate", group,
                                   elements=tuple(elems), label=label,
                                   tolerance=tolerance)

    @property
    def depth(self) -> int:
        if self.kind == "tree_end":
            return len(self.prefix)
        return len(self.elements)

    def serialize(self) -> str:
        if self.kind == "tree_end":
            word = GroupElement("free", self.prefix)
            return "end:" + serialize_element(self.group, word)
        if self.kind == "spine_candidate":
            return "spine-scan:" + self.label
        parts = ";".join(serialize_element(self.group, x) for x in self.elements)
        return "seq:" + parts


def parse_approximant(group: GroupModel, text: str,
                      tolerance: float = 1e-6) -> BoundaryApproximant:
    if not isinstance(text, str):
        raise ValueError(f"approximant must be a string, got {text!r}")
    if text.startswith("end:"):
        word = parse_element(group, text[4:])
        return BoundaryApproximant.tree_end(group, word, tolerance)
    if text.startswith("seq:"):
        elems = [parse_element(group, p) for p in text[4:].split(";") if p]
        return BoundaryApproximant.sequence(group, elems, tolerance)
    if text.startswith("spine-scan:"):
        label = text[len("spine-scan:"):]
        for cand in spine_candidates(group):
            if cand.label == label:
                cand.tolerance = tolerance
                return cand
        raise ValueError(f"no spine template named {label!r}")
    raise ValueError(
        "approximant must start with end:, seq: or spine-scan:"
    )


# -- tree geometry ------------------------------------------------------------


def free_tree_kernel_oracle(k: int, g: GroupElement,
                            end: BoundaryApproximant) -> Fraction:
    """Exact K(g, xi) for the isotropic SRW on F_k: `tree_kernel` at the
    confluence of g and the ray of xi.  Callers pair it with an SRW table."""
    if end.kind != "tree_end":
        raise UnsupportedGroupError("oracle takes tree ends only")
    if k < 2:
        raise ValueError("free rank must be >= 2")
    word, ray, cut = g.data, end.prefix, 0
    while cut < min(len(word), len(ray)) and word[cut] == ray[cut]:
        cut += 1
    if cut == len(ray) and len(word) > cut:
        raise ConvergenceError(
            f"end known to depth {len(ray)} cannot separate an "
            f"element of length {len(word)}; deepen the prefix",
            achieved_depth=len(ray),
            last_values=(),
        )
    return tree_kernel(k, len(word), cut)


def tree_kernel(k: int, length: int, cut: int) -> Fraction:
    """K(g, xi) of the isotropic SRW on F_k, |g| = `length`, whose walk first
    meets the ray of xi at their common prefix c of `cut` letters: each edge
    costs F = 1/(2k-1), so K = F^(d(g,c) - d(e,c)) = F^(length - 2 cut)."""
    return Fraction(1, 2 * k - 1) ** (length - 2 * cut)


# -- extended kernels ---------------------------------------------------------


def extend_kernel(t: KernelTable, g: GroupElement, xi: BoundaryApproximant,
                  at_depth: int | None = None, strict: bool = True):
    """K(g, xi) with an error bar, as (value, error).

    Tree ends on the isotropic free SRW use the exact confluence formula.
    Sequences take finite Martin kernels K(g, x_n) along the witness and
    accept the limit once three consecutive values agree within the
    approximant tolerance; the error bar is the last oscillation.  With
    `at_depth` the finite kernel at that witness index is returned
    directly (no limit detection), which keeps algebraic identities exact
    when several kernels must be compared at a common depth.  With
    `strict=False` a sequence that never settles still returns its
    deepest usable value, with the observed movement as the error bar;
    scans use this to report deviations instead of giving up.
    """
    if xi.group.spec() != t.walk.group.spec():
        raise ValueError("approximant and table live on different groups")
    if xi.kind == "tree_end" and t.walk.is_isotropic_free_srw:
        k = t.walk.group.params[0]
        val = free_tree_kernel_oracle(k, g, xi)
        return float(val), 0.0
    if xi.kind == "tree_end":
        raise UnsupportedGroupError(
            "tree-end kernels are only implemented for the isotropic free "
            "SRW; use a sequence approximant for other free-group walks"
        )
    # the witness elements were checked when the approximant was built, so
    # each x costs one product with g^-1 and one read of x and of g^-1 x
    if at_depth is not None:
        if not 0 <= at_depth < len(xi.elements):
            raise RangeError(
                f"witness index {at_depth} outside sequence of length "
                f"{len(xi.elements)}"
            )
        read = t._kernel_read(t.walk.group.inv(g), xi.elements[at_depth])
        if read is None:
            raise RangeError(f"element outside table radius {t.radius}")
        return read
    key = (t, g)
    hit = xi.cache.get(key)
    if hit is not None:
        return hit
    ginv = t.walk.group.inv(g)
    values = []
    for x in xi.elements:
        read = t._kernel_read(ginv, x)
        if read is None:
            break
        value, err = read
        values.append(value)
        if len(values) >= SEQUENCE_AGREEMENTS:
            tail = values[-SEQUENCE_AGREEMENTS:]
            if max(tail) - min(tail) < xi.tolerance:
                out = (value, max(abs(value - values[-2]), err))
                xi.cache[key] = out
                return out
    if not strict and values:
        tail = values[-min(len(values), SEQUENCE_AGREEMENTS):]
        spread = max(tail) - min(tail) if len(tail) > 1 else xi.tolerance
        return values[-1], max(spread, err)
    raise ConvergenceError(
        f"kernel K(g, x_n) did not stabilise within tolerance "
        f"{xi.tolerance:g} over {len(values)} usable witness elements",
        achieved_depth=len(values),
        last_values=tuple(values[-4:]),
    )


def act_on_boundary(G: GroupModel, g: GroupElement,
                    xi: BoundaryApproximant) -> BoundaryApproximant:
    """phi_g(xi) = g xi, preserving the approximant kind.

    Tree ends left-concatenate and reduce (the known depth shrinks if g
    cancels into the prefix); sequences multiply pointwise.
    """
    if xi.kind == "tree_end":
        word = G.mul(g, GroupElement("free", xi.prefix))
        return BoundaryApproximant("tree_end", G, prefix=word.data,
                                   tolerance=xi.tolerance)
    moved = tuple(G.mul(g, x) for x in xi.elements)
    return BoundaryApproximant(xi.kind, G, elements=moved, label=xi.label,
                               tolerance=xi.tolerance)


def cocycle_value(t: KernelTable, g: GroupElement, xi: BoundaryApproximant,
                  at_depth: int | None = None) -> float:
    """D_g(xi) = log K(g^{-1}, xi)."""
    val, _ = extend_kernel(t, t.walk.group.inv(g), xi, at_depth=at_depth)
    if val <= 0:
        raise ConvergenceError(
            "extended kernel is not positive; table range too small",
            achieved_depth=xi.depth, last_values=(val,),
        )
    return math.log(val)


def cocycle_residual(t: KernelTable, g: GroupElement, h: GroupElement,
                     xi: BoundaryApproximant,
                     at_depth: int | None = None) -> float:
    """|D_{gh}(xi) - D_g(h xi) - D_h(xi)|, all terms at one depth.

    Evaluating the three cocycle terms at a common witness depth keeps
    the identity a statement about finite kernels, where it holds up to
    table error, rather than mixing limits taken at different depths.
    """
    G = t.walk.group
    gh = G.mul(g, h)
    hxi = act_on_boundary(G, h, xi)
    lhs = cocycle_value(t, gh, xi, at_depth=at_depth)
    rhs = cocycle_value(t, g, hxi, at_depth=at_depth) + cocycle_value(
        t, h, xi, at_depth=at_depth
    )
    return abs(lhs - rhs)


def harmonicity_residual(t: KernelTable, g: GroupElement,
                         xi: BoundaryApproximant,
                         at_depth: int | None = None) -> float:
    """|sum_s mu(s) K(gs, xi) - K(g, xi)|.

    The extended kernel is mu-harmonic in g; at finite depth the identity
    already holds exactly unless the walk can sit on the witness element
    itself, so residuals measure pure table error.
    """
    G = t.walk.group
    total = 0.0
    for s, p in t.walk.steps:
        val, _ = extend_kernel(t, G.mul(g, s), xi, at_depth=at_depth)
        total += p * val
    base, _ = extend_kernel(t, g, xi, at_depth=at_depth)
    return abs(total - base)


# -- spine detection ----------------------------------------------------------


def spine_scan(t: KernelTable, xi: BoundaryApproximant, R: int) -> dict:
    """Check K(g, xi) = 1 over the ball of radius R, up to the group's
    default_spine_tolerance.

    Returns {"isSpine", "maxDev", "maxErr", "radius", "tol"}.  maxDev is
    the worst |K - 1| over the ball, maxErr the worst kernel uncertainty;
    the verdict holds only for the scanned radius, and only when both
    stay under tol.
    """
    tol = default_spine_tolerance(t.walk.group)
    ball = shared_ball(t.walk.group, R)
    max_dev = 0.0
    max_err = 0.0
    for g in ball.elements:
        val, err = extend_kernel(t, g, xi, strict=False)
        dev = abs(float(val) - 1.0)
        max_dev = max(max_dev, dev)
        max_err = max(max_err, float(err))
    return {"isSpine": bool(max_dev < tol and max_err < tol),
            "maxDev": float(max_dev), "maxErr": float(max_err),
            "radius": R, "tol": tol}


def default_spine_tolerance(G: GroupModel) -> float:
    if G.kind == "wreath":
        return SPINE_TOL_WREATH
    return SPINE_TOL_Z


def spine_candidates(G: GroupModel, n_terms: int = 8) -> list:
    """Candidate spine directions worth scanning on this group.

    Lattices offer the two (per-axis) infinities.  Free groups get the
    generator-direction rays.  Wreath groups get the pure translation
    directions t^n, t^-n, lamp-decorated variants deco * t^(+-n), and the
    two flank families (lamps lit at -n and +n with the lighter parked at
    one of them), whose lamp support escapes in both directions; the true
    spine direction is not pinned down by any construction we implement,
    so scanning templates and reporting the best deviation is the honest
    substitute.  Wreath witness sequences settle slowly, so they carry a
    loose stabilisation tolerance.
    """
    out = []
    if G.kind == "free":
        for gen in G.generators():
            label = serialize_element(G, gen) + "inf"
            out.append(BoundaryApproximant.spine_candidate(
                G, label, [gen] * n_terms))
        return out
    if G.kind == "lattice":
        d = G.params[0]
        for axis in range(d):
            for sign, name in ((1, "+"), (-1, "-")):
                step = [0] * d
                step[axis] = sign
                gen = GroupElement("lattice", tuple(step))
                label = f"axis{axis}{name}inf" if d > 1 else f"{name}inf"
                out.append(BoundaryApproximant.spine_candidate(
                    G, label, [gen] * n_terms))
        return out
    if G.kind == "wreath":
        tol = 0.1
        t_pos = GroupElement("wreath", ((), 1))
        t_neg = GroupElement("wreath", ((), -1))
        decorations = [((), "")]
        for depth in range(1, SPINE_TEMPLATE_DEPTH + 1):
            sites = tuple(range(depth))
            lamps = tuple((s, 1) for s in sites)
            decorations.append((lamps, f"lamp0..{depth - 1}" if depth > 1
                                else "lamp0"))
        for lamps, deco_name in decorations:
            for gen, dname in ((t_pos, "t+inf"), (t_neg, "t-inf")):
                if lamps:
                    deco = GroupElement("wreath", (lamps, 0))
                    template = [deco] + [gen] * n_terms
                    label = f"{deco_name}.{dname}"
                else:
                    template = [gen] * n_terms
                    label = dname
                out.append(BoundaryApproximant.spine_candidate(
                    G, label, template, tolerance=tol))
        for pos_sign, label in ((-1, "flank.t-"), (1, "flank.t+")):
            elems = tuple(
                GroupElement("wreath", (((-j, 1), (j, 1)), pos_sign * j))
                for j in range(1, min(n_terms, 4) + 1)
            )
            out.append(BoundaryApproximant(
                "spine_candidate", G, elements=elems, label=label,
                tolerance=tol))
        return out
    return []


def best_spine_candidate(t: KernelTable, R: int, n_terms: int = 8) -> dict:
    """Scan every template and report the best (smallest maxDev) one."""
    cands = spine_candidates(t.walk.group, n_terms=n_terms)
    if not cands:
        raise UnsupportedGroupError(
            f"no spine templates defined for {t.walk.group.spec()}"
        )
    results = []
    for cand in cands:
        try:
            verdict = spine_scan(t, cand, R)
        except (ConvergenceError, RangeError) as exc:
            results.append({"label": cand.label, "error": str(exc)})
            continue
        verdict["label"] = cand.label
        results.append(verdict)
    scored = [r for r in results if "maxDev" in r]
    if not scored:
        raise ConvergenceError(
            "no spine template produced a stable kernel limit",
            achieved_depth=n_terms,
            last_values=(),
        )
    best = min(scored, key=lambda r: r["maxDev"])
    return {"best": best, "all": results}

