"""Walk specifications: finitely supported step distributions on a group.

A walk is a probability measure mu on the group with finite support; the
induced chain moves x -> x*s with probability mu(s).  Validation checks
that the support generates the group as a semigroup (every element of a
reference ball is a product of boundedly many support elements), which is
what the kernel layer needs for irreducibility.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .errors import ConfigError, ResourceLimitError
from .groups import (
    GroupElement,
    GroupModel,
    ball_enumerate,
    parse_element,
    parse_group,
    serialize_element,
    word_length,
)

PROB_SUM_TOL = 1e-12
GENERATION_RADIUS = 3
GENERATION_STEPS = 12
# the most elements a generation search may reach before it gives up
GENERATION_REACH_CAP = 50_000


@dataclass(frozen=True)
class GenerationCertificate:
    """Record that ball(radius) is covered by <= max_steps support products."""

    radius: int
    max_steps: int
    covered: bool
    missing: tuple = ()


@dataclass(frozen=True)
class WalkSpec:
    """An immutable walk: group, step distribution, and a display name."""

    group: GroupModel
    steps: tuple  # tuple of (GroupElement, float), sorted by serialization
    name: str = ""

    def step_dict(self) -> dict:
        return dict(self.steps)

    def support(self) -> tuple:
        return tuple(s for s, _ in self.steps)

    def max_step_length(self) -> int:
        return max((word_length(self.group, s) for s, _ in self.steps),
                   default=0)

    @cached_property
    def is_isotropic_free_srw(self) -> bool:
        """True when the walk is the uniform step on the free generators."""
        if self.group.kind != "free":
            return False
        if set(self.support()) != set(self.group.generators()):
            return False
        probs = [p for _, p in self.steps]
        return max(probs) - min(probs) < 1e-15

    def mean_drift(self):
        """Mean step vector for lattice walks, None otherwise."""
        if self.group.kind != "lattice":
            return None
        d = self.group.params[0]
        drift = [0.0] * d
        for s, p in self.steps:
            for i in range(d):
                drift[i] += p * s.data[i]
        return tuple(drift)


def make_walk(group: GroupModel, steps: dict, name: str = "") -> WalkSpec:
    """Validate and freeze a walk specification.

    Probabilities must be positive and sum to 1 within 1e-12, and the
    support must reach every element of ball(GENERATION_RADIUS) using at
    most GENERATION_STEPS factors.
    """
    if not steps:
        raise ConfigError("walk needs at least one step", "steps")
    for s, p in steps.items():
        group.check(s)
        if not (p > 0):
            raise ConfigError(
                f"step probability must be positive, got {p} at "
                f"{serialize_element(group, s)!r}",
                "steps",
            )
    total = sum(steps.values())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ConfigError(
            f"step probabilities sum to {total!r}, not 1 within {PROB_SUM_TOL}",
            "steps",
        )
    ordered = tuple(
        sorted(steps.items(), key=lambda kv: serialize_element(group, kv[0]))
    )
    walk = WalkSpec(group, ordered, name)
    cert = generation_certificate(walk, GENERATION_RADIUS, GENERATION_STEPS)
    if not cert.covered:
        missing = ", ".join(
            serialize_element(group, m) for m in cert.missing[:4]
        )
        raise ConfigError(
            f"walk support does not generate: ball({cert.radius}) elements "
            f"unreachable in <= {cert.max_steps} steps (e.g. {missing})",
            "steps",
        )
    return walk


def generation_certificate(walk: WalkSpec, radius: int,
                           max_steps: int) -> GenerationCertificate:
    """Check semigroup generation of a reference ball by the support.

    A support that holds every generator reaches each element of the ball
    along a geodesic, so it covers the ball in `radius` steps with no
    search; any other support is searched breadth-first, with the
    unchecked multiply since `make_walk` checked every step, until the
    ball is covered.  The ball is in serialized order, so the missing
    elements are too.  A search that reaches GENERATION_REACH_CAP elements
    before it decides raises ResourceLimitError: on a free group the
    reached set grows like |support|^max_steps.
    """
    G = walk.group
    support = walk.support()
    if max_steps >= radius and set(G.generators()) <= set(support):
        return GenerationCertificate(radius, max_steps, True, ())
    ball = ball_enumerate(G, radius)
    hit = _reach(G, support, ball, max_steps)
    missing = tuple(ball.elements[i] for i in range(len(ball)) if i not in hit)
    return GenerationCertificate(radius, max_steps, not missing, missing)


def _reach(G: GroupModel, support: tuple, ball, max_steps: int) -> set:
    """The ball positions that products of at most max_steps support
    elements reach; the search stops once it has reached them all."""
    hit = {ball.position(G.identity())}
    reached = {G.identity()}
    frontier = [G.identity()]
    for _ in range(max_steps):
        if len(hit) == len(ball) or not frontier:
            break
        nxt = []
        for a in frontier:
            for s in support:
                b = G._mul(a, s)
                if b in reached:
                    continue
                if len(reached) == GENERATION_REACH_CAP:
                    raise ResourceLimitError(
                        f"walk support: generation of ball({ball.radius}) "
                        f"not found within {max_steps} steps before the "
                        f"search reached {GENERATION_REACH_CAP:,} elements",
                        "generation_reach", GENERATION_REACH_CAP)
                reached.add(b)
                nxt.append(b)
                if (i := ball.position(b)) is not None:
                    hit.add(i)
                    if len(hit) == len(ball):
                        return hit
        frontier = nxt
    return hit


# -- built-in walks -----------------------------------------------------------


def srw_free(k: int) -> WalkSpec:
    """Simple random walk on F_k: uniform on the 2k generators."""
    G = GroupModel.free(k)
    p = 1.0 / (2 * k)
    return make_walk(G, {s: p for s in G.generators()}, name=f"srw-free:{k}")


def drift_z(p: float) -> WalkSpec:
    """Nearest-neighbour walk on Z with P(+1) = p, P(-1) = 1-p."""
    if not (0.0 < p < 1.0):
        raise ConfigError(f"drift parameter must be in (0,1), got {p}", "p")
    G = GroupModel.lattice(1)
    up = GroupElement("lattice", (1,))
    down = GroupElement("lattice", (-1,))
    return make_walk(G, {up: p, down: 1.0 - p}, name=f"drift-z:{p:g}")


def wreath_walk(q: int, alpha: float, gamma: float) -> WalkSpec:
    """Walk-or-switch walk on Z_q wr Z.

    With probability gamma the lamp at the current position is incremented
    by a uniform nonzero amount; otherwise the lamplighter translates,
    +1 with probability alpha and -1 with probability 1-alpha.  alpha far
    from 1/2 gives positional drift.
    """
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must be in (0,1), got {alpha}", "alpha")
    if not (0.0 < gamma < 1.0):
        raise ConfigError(f"gamma must be in (0,1), got {gamma}", "gamma")
    G = GroupModel.wreath(q)
    steps = {
        GroupElement("wreath", ((), 1)): (1.0 - gamma) * alpha,
        GroupElement("wreath", ((), -1)): (1.0 - gamma) * (1.0 - alpha),
    }
    for u in range(1, q):
        steps[GroupElement("wreath", (((0, u),), 0))] = gamma / (q - 1)
    return make_walk(G, steps, name=f"wreath-walk:{q},{alpha:g},{gamma:g}")


def product_walk(left: WalkSpec, right: WalkSpec, a: float) -> WalkSpec:
    """Coordinate-lazy product walk on G0 x G1.

    One coordinate moves per step: with probability a a left step, with
    probability 1-a a right step; the two walks' holds at the identity
    merge into a single hold probability
        mu((e,e))   = a*mu0(e) + (1-a)*mu1(e),
        mu((g,e))   = a*mu0(g)          for g != e,
        mu((e,h))   = (1-a)*mu1(h)      for h != e,
        mu((g,h))   = 0                 otherwise.
    """
    if not (0.0 < a < 1.0):
        raise ConfigError(f"mixing weight must be in (0,1), got {a}", "a")
    G = GroupModel.product(left.group, right.group)
    e0 = left.group.identity()
    e1 = right.group.identity()
    steps: dict = {}
    hold = a * left.step_dict().get(e0, 0.0) + (1.0 - a) * right.step_dict().get(e1, 0.0)
    if hold > 0:
        steps[GroupElement("product", (e0, e1))] = hold
    for s, p in left.steps:
        if s != e0:
            steps[GroupElement("product", (s, e1))] = a * p
    for s, p in right.steps:
        if s != e1:
            steps[GroupElement("product", (e0, s))] = (1.0 - a) * p
    name = f"product:{a:g},{left.name or left.group.spec()},{right.name or right.group.spec()}"
    return make_walk(G, steps, name=name)


def named_walk(spec: str) -> WalkSpec:
    """Parse a built-in walk name.

    Grammar: srw-free:k | drift-z:p | wreath-walk:q,alpha,gamma
           | product:a,<left>,<right>
    Nested product arguments are resolved by the fixed arity of each name.
    """
    try:
        walk, rest = _parse_named(spec.strip())
    except ValueError as exc:
        raise ConfigError(f"bad walk spec {spec!r}: {exc}", "walk") from None
    if rest:
        raise ConfigError(f"trailing walk spec fragment {rest!r}", "walk")
    return walk


def _parse_named(spec: str):
    head, _, tail = spec.partition(":")
    head = head.strip()
    if head == "srw-free":
        args, rest = _take_args(tail, 1)
        return srw_free(int(args[0])), rest
    if head == "drift-z":
        args, rest = _take_args(tail, 1)
        return drift_z(float(args[0])), rest
    if head == "wreath-walk":
        args, rest = _take_args(tail, 3)
        return wreath_walk(int(args[0]), float(args[1]), float(args[2])), rest
    if head == "product":
        args, rest = _take_args(tail, 1)
        a = float(args[0])
        if not rest.startswith(","):
            raise ConfigError(f"product spec missing left walk in {spec!r}", "walk")
        left, rest = _parse_named(rest[1:])
        if not rest.startswith(","):
            raise ConfigError(f"product spec missing right walk in {spec!r}", "walk")
        right, rest = _parse_named(rest[1:])
        return product_walk(left, right, a), rest
    raise ConfigError(f"unknown walk name {head!r}", "walk")


def _take_args(tail: str, n: int):
    """Split off the first n comma-separated arguments; return (args, rest).

    `rest` keeps its leading comma stripped off by the caller's grammar.
    """
    parts = tail.split(",", n)
    if len(parts) < n or any(p.strip() == "" for p in parts[:n]):
        raise ConfigError(f"walk spec needs {n} arguments, got {tail!r}", "walk")
    rest = ("," + parts[n]) if len(parts) > n and parts[n] != "" else ""
    return [p.strip() for p in parts[:n]], rest


# -- JSON walk files ----------------------------------------------------------


def walk_from_json(obj) -> WalkSpec:
    """Build a walk from {"group": "...", "steps": [{"elem": "...", "p": ...}]}."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"walk JSON is not valid: {exc}", "walk") from None
    if not isinstance(obj, dict):
        raise ConfigError("walk JSON must be an object", "walk")
    unknown = set(obj) - {"group", "steps", "name"}
    if unknown:
        raise ConfigError(f"unknown walk keys {sorted(unknown)}", "walk")
    if "group" not in obj or "steps" not in obj:
        raise ConfigError("walk JSON needs 'group' and 'steps'", "walk")
    G = parse_group(obj["group"])
    if not isinstance(obj["steps"], list) or not all(
            isinstance(entry, dict) for entry in obj["steps"]):
        raise ConfigError("walk steps must be a list of {elem, p} objects",
                          "steps")
    steps = {}
    for entry in obj["steps"]:
        unknown = set(entry) - {"elem", "p"}
        if unknown:
            raise ConfigError(f"unknown step keys {sorted(unknown)}", "steps")
        if "elem" not in entry or "p" not in entry:
            raise ConfigError("every walk step needs 'elem' and 'p'", "steps")
        el = parse_element(G, entry["elem"])
        if el in steps:
            raise ConfigError(
                f"duplicate step element {entry['elem']!r}", "steps"
            )
        try:
            steps[el] = float(entry["p"])
        except (TypeError, ValueError):
            raise ConfigError(
                f"step probability must be a number, got {entry['p']!r}",
                "steps",
            ) from None
    return make_walk(G, steps, name=obj.get("name", ""))


def resolve_walk(spec) -> WalkSpec:
    """Accept a WalkSpec, a named-walk string, or a walk JSON object."""
    if isinstance(spec, WalkSpec):
        return spec
    if isinstance(spec, dict):
        return walk_from_json(spec)
    if isinstance(spec, str):
        text = spec.strip()
        if text.startswith("{"):
            return walk_from_json(text)
        return named_walk(text)
    raise ConfigError(f"cannot interpret walk spec {spec!r}", "walk")
