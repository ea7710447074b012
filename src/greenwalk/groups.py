"""Canonical group models and word-metric balls.

Supported groups: free groups F_k (reduced words), lattices Z^d (integer
vectors), wreath products Z_q wr Z (finitely supported lamp configurations
together with a position), and direct products of any two of these.

Elements are immutable and hashable tuples; every model fixes one
canonical representation per element, so dict/set membership is exact.
Word lengths have a closed form for every kind (`word_length`); a `Ball`
holds every element up to a radius, as integer codes (`_Codes`) or as
pairs of factor-ball positions, with its word length and its Cayley-graph
neighbours, and every ball is sized exactly before it is searched.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import repeat
from math import comb
from operator import add
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, RepresentationError, ResourceLimitError

BALL_CAP_DEFAULT = 5_000_000

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_INT = frozenset((int,))


class GroupElement(NamedTuple):
    """One canonical group element; a tuple, so it hashes and compares in C.

    data layout by kind:
      free     -- reduced word, tuple of nonzero ints (+i generator, -i inverse)
      lattice  -- tuple of d ints
      wreath   -- (lamps, pos): lamps is a tuple of (site, value) pairs with
                  strictly increasing sites and values in 1..q-1; pos is an int
      product  -- (left element, right element)
    """

    kind: str
    data: tuple

    def __repr__(self):
        return f"GroupElement({self.kind}, {self.data!r})"


# GroupElement(kind, data) from the pair (kind, data), in C
_element = partial(tuple.__new__, GroupElement)


@dataclass(frozen=True)
class GroupModel:
    """A group together with its canonical generating set."""

    kind: str
    params: tuple
    factors: tuple = ()

    # -- constructors -------------------------------------------------------

    @staticmethod
    def free(k: int) -> "GroupModel":
        if k < 2:
            raise ConfigError(f"free group rank must be >= 2, got {k}", "k")
        return GroupModel("free", (k,))

    @staticmethod
    def lattice(d: int) -> "GroupModel":
        if d < 1:
            raise ConfigError(f"lattice dimension must be >= 1, got {d}", "d")
        return GroupModel("lattice", (d,))

    @staticmethod
    def wreath(q: int) -> "GroupModel":
        if q < 2:
            raise ConfigError(f"wreath lamp order must be >= 2, got {q}", "q")
        return GroupModel("wreath", (q,))

    @staticmethod
    def product(left: "GroupModel", right: "GroupModel") -> "GroupModel":
        return GroupModel("product", (), (left, right))

    # -- basics --------------------------------------------------------------

    def spec(self) -> str:
        if self.kind == "product":
            return f"product({self.factors[0].spec()},{self.factors[1].spec()})"
        return f"{self.kind}:{self.params[0]}"

    def identity(self) -> GroupElement:
        if self.kind == "free":
            return GroupElement("free", ())
        if self.kind == "lattice":
            return GroupElement("lattice", (0,) * self.params[0])
        if self.kind == "wreath":
            return GroupElement("wreath", ((), 0))
        return GroupElement(
            "product",
            (self.factors[0].identity(), self.factors[1].identity()),
        )

    def check(self, a: GroupElement) -> None:
        """Reject elements that are not in canonical form for this group."""
        if a.kind != self.kind:
            raise RepresentationError(
                f"element kind {a.kind!r} does not match group {self.spec()!r}"
            )
        if self.kind == "free":
            if not is_reduced_word(self.params[0], a.data):
                raise RepresentationError(
                    f"{a.data!r} is not a reduced word of {self.spec()}"
                )
        elif self.kind == "lattice":
            if len(a.data) != self.params[0] or not all(
                isinstance(x, int) for x in a.data
            ):
                raise RepresentationError(
                    f"expected {self.params[0]} integer coordinates, got "
                    f"{a.data!r}"
                )
        elif self.kind == "wreath":
            q = self.params[0]
            lamps, pos = a.data
            sites = [site for site, _ in lamps]
            if not isinstance(pos, int) or sites != sorted(set(sites)):
                raise RepresentationError(f"malformed wreath data {a.data!r}")
            for site, val in lamps:
                if not isinstance(site, int) or not 1 <= val <= q - 1:
                    raise RepresentationError(
                        f"lamp ({site!r}, {val!r}) out of range for "
                        f"{self.spec()}"
                    )
        else:
            self.factors[0].check(a.data[0])
            self.factors[1].check(a.data[1])

    # -- group operations ----------------------------------------------------

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        self.check(a)
        self.check(b)
        return self._mul(a, b)

    def _mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        """`mul` without `check`, for elements already in canonical form."""
        return GroupElement(self.kind, self._dmul(a.data, b.data))

    def _dmul(self, a: tuple, b: tuple) -> tuple:
        """The product of two canonical `data` tuples of this group."""
        if self.kind == "free":
            return _free_concat(a, b)
        if self.kind == "lattice":
            return tuple(x + y for x, y in zip(a, b))
        if self.kind == "wreath":
            lamps, pos_a = a
            lamps_b, pos_b = b
            for site, val in lamps_b:  # none for a translation
                s = site + pos_a
                i = bisect_left(lamps, (s,))
                old = lamps[i][1] if i < len(lamps) and lamps[i][0] == s else 0
                v = (old + val) % self.params[0]
                lamps = (lamps[:i] + (((s, v),) if v else ())
                         + lamps[i + (old > 0):])
            return lamps, pos_a + pos_b
        return (self.factors[0]._mul(a[0], b[0]),
                self.factors[1]._mul(a[1], b[1]))

    def inv(self, a: GroupElement) -> GroupElement:
        self.check(a)
        if self.kind == "free":
            return GroupElement("free", tuple(-x for x in reversed(a.data)))
        if self.kind == "lattice":
            return GroupElement("lattice", tuple(-x for x in a.data))
        if self.kind == "wreath":
            q = self.params[0]
            lamps, pos = a.data
            flipped = tuple(
                sorted((site - pos, (q - val) % q) for site, val in lamps)
            )
            return GroupElement("wreath", (flipped, -pos))
        return GroupElement(
            "product",
            (self.factors[0].inv(a.data[0]), self.factors[1].inv(a.data[1])),
        )

    # -- generators ----------------------------------------------------------

    def generators(self) -> tuple[GroupElement, ...]:
        """Canonical symmetric generating set, duplicate-free.

        wreath: translations by +/-1 plus every lamp increment at the
        current position (for q=2 the single flip is its own inverse).
        """
        if self.kind == "free":
            k = self.params[0]
            gens = []
            for i in range(1, k + 1):
                gens.append(GroupElement("free", (i,)))
                gens.append(GroupElement("free", (-i,)))
            return tuple(gens)
        if self.kind == "lattice":
            d = self.params[0]
            gens = []
            for i in range(d):
                for sign in (1, -1):
                    vec = [0] * d
                    vec[i] = sign
                    gens.append(GroupElement("lattice", tuple(vec)))
            return tuple(gens)
        if self.kind == "wreath":
            q = self.params[0]
            gens = [
                GroupElement("wreath", ((), 1)),
                GroupElement("wreath", ((), -1)),
            ]
            for u in range(1, q):
                gens.append(GroupElement("wreath", (((0, u),), 0)))
            return tuple(gens)
        lid = self.factors[0].identity()
        rid = self.factors[1].identity()
        gens = [
            GroupElement("product", (s, rid))
            for s in self.factors[0].generators()
        ]
        gens += [
            GroupElement("product", (lid, s))
            for s in self.factors[1].generators()
        ]
        return tuple(gens)


@lru_cache(maxsize=64)
def _free_letters(k: int) -> frozenset:
    return frozenset(range(-k, k + 1)) - {0}


def is_reduced_word(k: int, word: tuple) -> bool:
    """The reduced-word rule of F_k: int letters (no bool or float) in
    +-1..+-k, none next to its inverse, with which it sums to 0."""
    return (_INT.issuperset(map(type, word))
            and _free_letters(k).issuperset(word)
            and 0 not in map(add, word, word[1:]))


def _free_concat(a: tuple, b: tuple) -> tuple:
    """Concatenate two reduced words, cancelling at the junction."""
    out = list(a)
    for x in b:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


# -- serialization ------------------------------------------------------------


def serialize_element(G: GroupModel, a: GroupElement) -> str:
    G.check(a)
    return _serialize(G, a)


def _serialize(G: GroupModel, a: GroupElement) -> str:
    """`serialize_element` without `check`."""
    if G.kind == "free":
        k = G.params[0]
        if not a.data:  # "e" is a letter of F_5 to F_26
            return "1" if 5 <= k <= 26 else "e"
        if k <= 26:
            return "".join(
                _LETTERS[x - 1] if x > 0 else _LETTERS[-x - 1].upper()
                for x in a.data
            )
        return ".".join(f"{x:+d}" for x in a.data)
    if G.kind == "lattice":
        return "(" + ",".join(str(x) for x in a.data) + ")"
    if G.kind == "wreath":
        lamps, pos = a.data
        body = ",".join([f"{site}:{val}" for site, val in lamps])
        return "{" + body + "}@" + str(pos)
    left = _serialize(G.factors[0], a.data[0])
    right = _serialize(G.factors[1], a.data[1])
    return "[" + left + ";" + right + "]"


def parse_element(G: GroupModel, text: str) -> GroupElement:
    if not isinstance(text, str):
        raise ConfigError(f"element must be a string, got {text!r}", "elem")
    text = text.strip()
    try:
        return _parse_element(G, text)
    except (ValueError, IndexError) as exc:
        raise ConfigError(
            f"cannot parse element {text!r} for group {G.spec()!r}: {exc}",
            "elem",
        ) from None


def _parse_element(G: GroupModel, text: str) -> GroupElement:
    if G.kind == "free":
        k = G.params[0]
        if text in ("", _serialize(G, G.identity())):
            return G.identity()
        if "." in text or text.lstrip("+-").isdigit() and k > 26:
            word = tuple(int(p) for p in text.split("."))
        else:  # a character that is not a letter reads as 0
            word = tuple((-1 if ch.isupper() else 1)
                         * (_LETTERS.find(ch.lower()) + 1) for ch in text)
        if not is_reduced_word(k, word):
            raise ValueError(f"{word!r} is not a reduced word of F_{k}")
        return GroupElement("free", word)
    if G.kind == "lattice":
        d = G.params[0]
        inner = text.strip()
        if inner.startswith("(") and inner.endswith(")"):
            inner = inner[1:-1]
        parts = [p for p in inner.split(",") if p.strip() != ""]
        if len(parts) != d:
            raise ValueError(f"expected {d} coordinates, got {len(parts)}")
        return GroupElement("lattice", tuple(int(p) for p in parts))
    if G.kind == "wreath":
        q = G.params[0]
        if "}@" not in text or not text.startswith("{"):
            raise ValueError("expected '{site:val,...}@pos'")
        body, pos_s = text[1:].split("}@", 1)
        lamps = {}
        if body:
            for item in body.split(","):
                site_s, val_s = item.split(":")
                site, val = int(site_s), int(val_s) % q
                if val == 0:
                    raise ValueError(f"lamp value at {site} reduces to zero")
                if site in lamps:
                    raise ValueError(f"duplicate lamp site {site}")
                lamps[site] = val
        return GroupElement("wreath", (tuple(sorted(lamps.items())), int(pos_s)))
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError("expected '[left;right]'")
    parts = _split_top(text[1:-1], ";")
    if parts is None:
        raise ValueError("missing top-level ';' separator")
    return GroupElement("product", (_parse_element(G.factors[0], parts[0]),
                                    _parse_element(G.factors[1], parts[1])))


def _split_top(text: str, sep: str) -> tuple[str, str] | None:
    """`text` cut at its first `sep` outside brackets, or None."""
    depth = 0
    for i, ch in enumerate(text):
        if ch in "[{(":
            depth += 1
        elif ch in "]})":
            depth -= 1
        elif ch == sep and depth == 0:
            return text[:i], text[i + 1 :]
    return None


def parse_group(spec: str) -> GroupModel:
    """Parse a group spec: free:k, lattice:d, wreath:q, product(a,b)."""
    if not isinstance(spec, str):
        raise ConfigError(f"group spec must be a string, got {spec!r}", "group")
    spec = spec.strip()
    if spec.startswith("product(") and spec.endswith(")"):
        parts = _split_top(spec[len("product(") : -1], ",")
        if parts is None:
            raise ConfigError(f"malformed product spec {spec!r}", "group")
        return GroupModel.product(parse_group(parts[0]), parse_group(parts[1]))
    if ":" in spec:
        head, _, arg = spec.partition(":")
        try:
            n = int(arg)
        except ValueError:
            raise ConfigError(f"non-integer parameter in {spec!r}", "group") from None
        if head == "free":
            return GroupModel.free(n)
        if head == "lattice":
            return GroupModel.lattice(n)
        if head == "wreath":
            return GroupModel.wreath(n)
    raise ConfigError(f"unknown group spec {spec!r}", "group")


# -- balls --------------------------------------------------------------------


class Ball:
    """All elements of word length <= radius, in the order of their
    serialized forms, kept as integer codes rather than objects.

    `position(g)` finds g by its code among the ball's sorted codes (None
    outside the ball); `elements` is decoded from the codes on first use.
    `depth[i]` is the word length of elements[i], and `neighbours`, of
    shape (len(ball), len(group.generators())) and dtype int32, is the
    Cayley graph: entry [i, j] is the position of elements[i] *
    generators[j], or -1 when that product lies outside the ball.
    """

    def __init__(self, group: GroupModel, radius: int, codes, rows, depth,
                 table, by_key):
        """The ball of the elements that `codes` codes as rows[k], with
        word lengths depth[k] and neighbour rows table[k] (-1 outside);
        `by_key` lists the rows in the order of their search keys."""
        n = len(rows)
        by_form = np.lexsort(codes.units(rows, ""))  # position -> row
        rank = np.full(n + 1, -1, dtype=np.int32)  # row -> position; -1 stays
        rank[by_form] = np.arange(n, dtype=np.int32)
        self.group, self.radius, self.depth = group, radius, depth[by_form]
        self.neighbours = rank[table[by_form]]
        self._codes, self._rows = codes, rows[by_form]
        self._at = rank[by_key]  # the position of each key in key order
        self._keys = _keys(rows[by_key])

    def __len__(self):
        return len(self.depth)

    @cached_property
    def elements(self) -> tuple:
        return tuple(map(_element, zip(repeat(self.group.kind),
                                       self._codes.decode(self._rows))))

    def position(self, g: GroupElement) -> int | None:
        key = self._codes.key(g)
        if key is None:
            return None
        i = self._keys.searchsorted(key)
        return int(self._at[i]) if i < len(self) and self._keys[i] == key else None

    def _ranks(self, end: str) -> np.ndarray:
        """Each element's rank among the serialized forms followed by `end`."""
        return _inverse(np.lexsort(self._codes.units(self._rows, end)))

    def sphere_sizes(self) -> list[int]:
        return np.bincount(self.depth, minlength=self.radius + 1).tolist()


def ball_enumerate(G: GroupModel, radius: int,
                   cap: int = BALL_CAP_DEFAULT) -> Ball:
    """The ball B(e, radius); products come from `_product_ball`.

    Otherwise a ball of more than `cap` elements raises ResourceLimitError
    from its exact size, before any search.  `_code_search` then finds the
    ball on integer codes of as many int64 words as the group and radius
    need (`_Codes`), one vectorised step per sphere, and fills
    `Ball.neighbours`; the serialized order comes from the codes too
    (`_Codes.units`), so no element is made.  No `check` runs: elements
    are checked where they enter the package (parsers, constructors,
    `mul`, `inv`).
    """
    if radius < 0:
        raise ConfigError(f"ball radius must be >= 0, got {radius}", "radius")
    if G.kind == "product":
        return _product_ball(G, radius, cap)
    if G.kind == "free":
        k = G.params[0]
        size = (k * (2 * k - 1) ** radius - 1) // (k - 1)
    elif G.kind == "lattice":
        d = G.params[0]
        size = sum(2**i * comb(d, i) * comb(radius, i) for i in range(d + 1))
    else:
        size = _wreath_ball_size(G.params[0], radius)
    if size > cap:
        raise _cap_error(G, radius, cap)
    codes = _Codes(G, radius)
    rows, sizes, table, by_key = _code_search(codes)
    return Ball(G, radius, codes, rows, np.repeat(np.arange(radius + 1), sizes),
                table, by_key)


class _Codes:
    """Integer codes of the elements of B(radius) on a free, lattice or
    wreath group: rows of digits, packed into as few int64 words as the
    radices allow.

    Free: column i >= 1 holds letter i, generator j (in `generators()`
    order) as digit j + 1 and 0 past the end; column 0 is a radix-1 stub,
    so a word of length t ends in column t.  Lattice: column i holds
    coordinate i plus radius + 1.  Wreath: column 0 holds pos plus
    radius + 1, which is the column of the lamp at pos; the lamp columns
    cover the sites [-radius, radius].  The radices leave room for every
    step from the outermost sphere, whose code is then found absent.
    """

    def __init__(self, G: GroupModel, radius: int):
        self.G, self.radius, r, n = G, radius, radius, G.params[0]
        radix, zero = {
            "free": ([1] + [2 * n + 1] * (r + 1), [0] * (r + 2)),
            "lattice": ([2 * r + 3] * n, [r + 1] * n),
            "wreath": ([2 * r + 3] + [n] * (2 * r + 1),
                       [r + 1] + [0] * (2 * r + 1)),
        }[G.kind]
        word, mult, w, m = [], [], 0, 1
        for b in radix:
            if m * b > 2**63:
                w, m = w + 1, 1
            word.append(w)
            mult.append(m)
            m *= b
        self.columns = list(zip(zero, radix, word, mult))
        self.radix, self.word, self.mult = (
            np.array(x, dtype=np.int64) for x in (radix, word, mult))
        self.identity = np.zeros((1, w + 1), dtype=np.int64)
        np.add.at(self.identity[0], self.word, np.array(zero) * self.mult)

    def digit(self, rows: np.ndarray, col) -> np.ndarray:
        """Digit `col` (one column, or one per row) of each row."""
        word = rows[np.arange(len(rows)), self.word[col]]
        return word // self.mult[col] % self.radix[col]

    def _add(self, rows: np.ndarray, col, delta) -> np.ndarray:
        out = rows.copy()
        out[np.arange(len(rows)), self.word[col]] += delta * self.mult[col]
        return out

    def steps(self, rows: np.ndarray, t: int) -> np.ndarray:
        """The codes of a * s for the elements a of word length t coded by
        `rows` and each generator s, shape (len(rows), |gens|, words)."""
        n = self.G.params[0]
        if self.G.kind == "lattice":
            out = [self._add(rows, i, s) for i in range(n) for s in (1, -1)]
        elif self.G.kind == "wreath":
            at = self.digit(rows, 0)
            lamp = self.digit(rows, at)
            out = [self._add(rows, 0, 1), self._add(rows, 0, -1)]
            out += [self._add(rows, at, (lamp + u) % n - lamp)
                    for u in range(1, n)]
        else:
            last = self.digit(rows, t)
            out = []
            for j in range(2 * n):
                pop = last == (j ^ 1) + 1  # s cancels the last letter
                out.append(self._add(rows, np.where(pop, t, t + 1),
                                     np.where(pop, -last, j + 1)))
        return np.stack(out, axis=1)

    def _configs(self, rows: np.ndarray):
        """A wreath code's position digits, and its distinct lamp
        configurations: each row's configuration id and their codes."""
        pos = self.digit(rows, 0)
        rows = self._add(rows, 0, -pos)
        order, first = _row_runs(rows)
        config = np.empty(len(rows), dtype=np.int64)
        config[order] = np.cumsum(first) - 1
        return pos, config, rows[order[first]]

    def digits(self, rows: np.ndarray) -> np.ndarray:
        """Every digit of each row, in the smallest dtype that holds them."""
        out = np.empty((len(rows), len(self.radix)),
                       np.min_scalar_type(int(self.radix.max()) - 1))
        for col, (_, radix, word, mult) in enumerate(self.columns):
            out[:, col] = rows[:, word] // mult % radix
        return out

    def key(self, g: GroupElement):
        """The search key (`_keys`) of g's code, or None when g has another
        kind or shape, is not reduced, or a digit of g leaves its radix."""
        G, r = self.G, self.radius
        if g.kind != G.kind or G.kind == "lattice" and len(g.data) != len(
                self.radix):
            return None
        if G.kind == "free":  # generator j is digit j + 1
            if not is_reduced_word(G.params[0], g.data):
                return None
            moves = [(i, 2 * abs(x) - (x > 0)) for i, x in enumerate(g.data, 1)]
        elif G.kind == "lattice":
            moves = list(enumerate(g.data))
        else:  # a lamp past [-radius, radius] has no column
            moves = [(0, g.data[1])] + [(s + r + 1 if abs(s) <= r else -1, v)
                                        for s, v in g.data[0]]
        words = self.identity[0].tolist()
        for col, delta in moves:
            if not 0 <= col < len(self.columns):
                return None
            zero, radix, word, mult = self.columns[col]
            if not 0 <= zero + delta < radix:
                return None
            words[word] += delta * mult
        return words[0] if len(words) == 1 else _keys(np.array([words]))[0]

    def units(self, rows: np.ndarray, end: str) -> np.ndarray:
        """`np.lexsort` keys (primary last) that order the coded elements as
        Python orders their serialized forms followed by `end`.

        A form is a sequence of units, one per key: a letter (with its
        separator past F_26), a coordinate with its separator, a lit lamp
        with its separator ("," or the head's "}@"), the position.  Units
        of two forms differ before either ends, unless one ends its form
        and so sorts first both ways; a unit past a form's end is "".  Each
        unit id indexes an alphabet ranked once with Python's order.
        """
        G, r, n = self.G, self.radius, self.G.params[0]
        if G.kind == "wreath":  # each lamp configuration's head is ranked once
            pos, config, rows = self._configs(rows)
        digits = self.digits(rows)
        if G.kind == "lattice":
            units = digits + (2 * r + 3) * (np.arange(n) == n - 1)
            alphabet = [f"{x}{sep}" for sep in ",)" for x in range(-r - 1, r + 2)]
        elif G.kind == "free":
            units = digits[:, 1:].astype(np.int64)
            length = np.count_nonzero(units, axis=1)
            text = [_serialize(G, s) for s in G.generators()]
            if n <= 26:  # letters take no separator, so `end` is a unit
                units[np.arange(len(rows)), length] = 2 * n + 1
                alphabet = [""] + text + [end]
            else:
                units[np.arange(len(rows)), length - 1] += 2 * n * (length > 0)
                alphabet = [""] + [t + "." for t in text] + [t + end for t in text]
            units[length == 0, 0] = len(alphabet)  # no letter starts as e does
            alphabet.append(_serialize(G, G.identity()))
        else:
            lamps = digits[:, 1:]
            at, site = np.nonzero(lamps)  # the lit lamps, row by row
            lit = np.count_nonzero(lamps, axis=1)
            col = np.arange(len(at)) - (np.cumsum(lit) - lit)[at]
            units = np.zeros((len(rows), max(1, lit.max())), np.int64)
            units[at, col] = (1 + 2 * (site * n + lamps[at, site])
                              + (col == lit[at] - 1))
            alphabet = [""] + [f"{s}:{v}{sep}" for s in range(-r, r + 1)
                               for v in range(n) for sep in (",", "}@")]
            units[lit == 0, 0] = len(alphabet)
            alphabet.append("}@")
        keys = _ranked(alphabet)[units].T[::-1]
        if G.kind != "wreath":
            return keys
        return np.stack([
            _ranked([f"{p}{end}" for p in range(-r - 1, r + 2)])[pos],
            _inverse(np.lexsort(keys))[config]])

    def decode(self, rows: np.ndarray) -> list:
        """The `data` tuples of the coded elements.

        Each nonzero digit but wreath column 0 is a letter, a coordinate or
        a lit lamp, and `value` gives its part of the `data`.  A wreath lamp
        configuration is decoded once for all the positions it occurs with.
        """
        G, r, n = self.G, self.radius, self.G.params[0]
        if G.kind == "wreath":
            pos, config, rows = self._configs(rows)
        digits, stride = self.digits(rows), 0
        if G.kind == "free":
            value = [0] + [s * i for i in range(1, n + 1) for s in (1, -1)]
        elif G.kind == "lattice":
            value = list(range(-r - 1, r + 2))
        else:
            stride, digits = n, digits[:, 1:]
            value = [(s, v) for s in range(-r, r + 1) for v in range(n)]
        at, cols = np.nonzero(digits)
        flat = (cols * stride + digits[at, cols]).tolist()
        ends = np.cumsum(np.count_nonzero(digits, axis=1)).tolist()
        del digits, at, cols
        vals = [tuple(map(value.__getitem__, flat[a:b]))
                for a, b in zip([0] + ends, ends)]
        if G.kind != "wreath":
            return vals
        return [(vals[c], p)
                for c, p in zip(config.tolist(), (pos - (r + 1)).tolist())]


class _PairCodes:
    """A product ball's codes: the pair id i * len(R) + j of the positions
    of its factors in the factor balls L and R."""

    def __init__(self, L: Ball, R: Ball):
        self.L, self.R = L, R

    def key(self, g: GroupElement):
        if g.kind != "product":
            return None
        i, j = self.L.position(g.data[0]), self.R.position(g.data[1])
        return None if i is None or j is None else i * len(self.R) + j

    def units(self, rows: np.ndarray, end: str) -> list:
        # "[" + left + ";" + right + "]": two such forms differ before their
        # closing brackets, so `end` never decides
        I, J = np.divmod(rows[:, 0], len(self.R))
        return [self.R._ranks("]")[J], self.L._ranks(";")[I]]

    def decode(self, rows: np.ndarray) -> list:
        I, J = np.divmod(rows[:, 0], len(self.R))
        left, right = self.L.elements, self.R.elements
        return [(left[i], right[j]) for i, j in zip(I.tolist(), J.tolist())]


def _ranked(alphabet: list) -> np.ndarray:
    """Each unit's rank in Python's string order; equal units tie."""
    rank = {u: i for i, u in enumerate(sorted(set(alphabet)))}
    return np.array([rank[u] for u in alphabet])


def _inverse(order: np.ndarray) -> np.ndarray:
    """The inverse of the permutation `order`."""
    out = np.empty_like(order)
    out[order] = np.arange(len(order))
    return out


def _keys(rows: np.ndarray) -> np.ndarray:
    """One sortable key per code row: its word, or the big-endian bytes of
    its words, which sort as the rows do."""
    if rows.shape[1] == 1:
        return rows[:, 0]
    return np.ascontiguousarray(rows, ">i8").view(f"V{8 * rows.shape[1]}")[:, 0]


def _code_search(codes: _Codes) -> tuple:
    """The codes of B(radius) sphere by sphere, the sphere sizes, the
    neighbour table in that order (-1 outside the ball), and the order of
    the codes' search keys (`_keys`).

    A generator moves the word length by at most one, so the next sphere
    is the distinct products of the current one that lie in neither it
    nor the previous one.  Once the ball is complete, each sphere's
    products are looked up among the ball's sorted keys, one sphere at a
    time.
    """
    cur = codes.identity
    prev = cur[:0]
    spheres, steps = [], []
    for t in range(codes.radius + 1):
        spheres.append(cur)
        steps.append(codes.steps(cur, t))
        if t < codes.radius:
            rows = np.concatenate([prev, cur,
                                   steps[-1].reshape(-1, cur.shape[1])])
            order, first = _row_runs(rows)
            old = len(prev) + len(cur)
            prev, cur = cur, rows[order[first & (order >= old)]]
    ball = np.concatenate(spheres)
    keys = _keys(ball)
    by_key = np.argsort(keys)
    keys = keys[by_key]
    table = np.empty((len(ball), steps[0].shape[1]), dtype=np.int32)
    start = 0
    for product in steps:
        query = _keys(product.reshape(-1, ball.shape[1]))
        i = keys.searchsorted(query)
        i[i == len(keys)] = 0  # past the last key: no match
        table[start:start + len(product)] = np.where(
            keys[i] == query, by_key[i], -1).reshape(len(product), -1)
        start += len(product)
    return ball, [len(s) for s in spheres], table, by_key


def _row_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable order of `rows` that puts equal rows together, and whether
    each row in that order is the first of its run."""
    order = np.lexsort(rows.T)
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, first


def _wreath_ball_size(q: int, radius: int) -> int:
    """|B(radius)| on Z_q wr Z, counted from the word length L + 2w - d of
    `word_length`: L lit lamps, a span [m, M] of width w = M - m around 0
    and pos, and d = |pos|.  Such a span reaches a sites below min(0, pos)
    and w - d - a above max(0, pos); an end that reaches past them must be
    a lit site (forced), the other sites of the span are free, and each
    lit lamp takes one of q - 1 values.
    """
    size = 0
    for w in range(radius + 1):
        for d in range(w + 1):
            most = min(radius - 2 * w + d, w + 1)  # lit lamps
            extra = w - d
            ends = {0: 1} if extra == 0 else {1: 2, 2: extra - 1}
            for forced, spans in ends.items():
                free = w + 1 - forced
                lamps = sum(comb(free, L - forced) * (q - 1) ** L
                            for L in range(forced, most + 1))
                size += (2 if d else 1) * spans * lamps
    return size


def _product_ball(G: GroupModel, radius: int, cap: int) -> Ball:
    """B(radius) on a product: the factor-ball index pairs (i, j) with
    L.depth[i] + R.depth[j] <= radius, since word length on a product is
    |g| + |h| and each generator acts on one factor.  The admissible j for
    an i are a prefix of R's indices by depth, so (i, j) gets the id
    offset[i] + r_rank[j], and the cap is checked before any pair is made.
    """
    try:
        L, R = (ball_enumerate(F, radius, cap) for F in G.factors)
    except ResourceLimitError:  # a factor ball is a subset of the product's
        raise _cap_error(G, radius, cap) from None
    dl, dr = L.depth, R.depth
    r_order = np.argsort(dr, kind="stable")
    r_rank = np.empty(len(R), dtype=np.int32)
    r_rank[r_order] = np.arange(len(R))
    within = np.cumsum(R.sphere_sizes())  # |B_R(d)| for d = 0..radius
    counts = within[radius - dl]  # admissible j for each i
    n = int(counts.sum())  # sum over a+b <= r of |S_L(a)| * |S_R(b)|
    if n > cap:
        raise _cap_error(G, radius, cap)
    offset = np.zeros(len(L) + 1, dtype=np.int32)
    np.cumsum(counts, out=offset[1:])
    I = np.repeat(np.arange(len(L)), counts)
    J = r_order[np.arange(n) - offset[I]]
    # a left step keeps j and a right step keeps i; each neighbour column
    # is filled in int32, one at a time
    table = np.full((n, L.neighbours.shape[1] + R.neighbours.shape[1]), -1,
                    dtype=np.int32)
    room, at = radius - dr[J], r_rank[J]
    for c, li in enumerate(L.neighbours.T):
        li = li[I]
        np.copyto(table[:, c], offset[li] + at,
                  where=(li >= 0) & (dl[li] <= room))
    room, at = radius - dl[I], offset[:-1][I]
    for c, rj in enumerate(R.neighbours.T, L.neighbours.shape[1]):
        rj = rj[J]
        np.copyto(table[:, c], at + r_rank[rj],
                  where=(rj >= 0) & (dr[rj] <= room))
    ids = I * len(R) + J
    return Ball(G, radius, _PairCodes(L, R), ids[:, None], dl[I] + dr[J],
                table, np.argsort(ids))


def _cap_error(G: GroupModel, radius: int, cap: int) -> ResourceLimitError:
    return ResourceLimitError(f"ball of radius {radius} on {G.spec()} "
                              f"exceeds cap of {cap} elements",
                              cap_name="ball_cap", cap_value=cap)


@lru_cache(maxsize=64)
def _cached_ball(spec: str, radius: int, cap: int) -> Ball:
    return ball_enumerate(parse_group(spec), radius, cap)


def shared_ball(G: GroupModel, radius: int, cap: int = BALL_CAP_DEFAULT) -> Ball:
    """Memoised ball for repeated table builds on the same group."""
    return _cached_ball(G.spec(), radius, cap)


def word_length(G: GroupModel, a: GroupElement) -> int:
    """Word length of `a` in the generators of `G`, in closed form.

    Free groups: the reduced word's length; lattices: the l1 norm;
    products: the sum of the factor lengths.  On Z_q wr Z one lamp
    increment of any value is one generator, so |g| is the number of lit
    lamps plus the shortest route from 0 that visits [m, M] and ends at
    pos, where [m, M] spans 0, pos and the lit sites: (M - m) +
    min(M - pos - m, M + pos - m) = 2(M - m) - |pos| (Cleary-Taback 2005;
    Parry 1992).
    """
    G.check(a)
    if G.kind == "free":
        return len(a.data)
    if G.kind == "lattice":
        return sum(abs(x) for x in a.data)
    if G.kind == "wreath":
        lamps, pos = a.data
        sites = [site for site, _ in lamps]
        m, M = min(0, pos, *sites), max(0, pos, *sites)
        return len(lamps) + 2 * (M - m) - abs(pos)
    return sum(word_length(F, x) for F, x in zip(G.factors, a.data))
