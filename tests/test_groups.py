import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenwalk import groups
from greenwalk.errors import ConfigError, RepresentationError, ResourceLimitError
from greenwalk.groups import (
    GroupElement,
    GroupModel,
    _Codes,
    _wreath_ball_size,
    ball_enumerate,
    parse_element,
    parse_group,
    serialize_element,
    word_length,
)
from greenwalk.kernels import Spheres
from greenwalk.measures import _letters, _random_word, all_cells

F2 = GroupModel.free(2)
Z = GroupModel.lattice(1)
W = GroupModel.wreath(2)
P = GroupModel.product(GroupModel.wreath(2), GroupModel.free(2))


def _free_from_letters(letters):
    out = F2.identity()
    for s in letters:
        out = F2.mul(out, GroupElement("free", (s,)))
    return out


free_elements = st.lists(
    st.integers(-2, 2).filter(lambda s: s != 0), max_size=6
).map(_free_from_letters)

lattice_elements = st.integers(-40, 40).map(
    lambda n: GroupElement("lattice", (n,))
)


def _wreath_element(args):
    lamps, pos = args
    return GroupElement("wreath", (tuple(sorted(lamps.items())), pos))


wreath_elements = st.tuples(
    st.dictionaries(st.integers(-4, 4), st.just(1), max_size=4),
    st.integers(-4, 4),
).map(_wreath_element)

product_elements = st.tuples(wreath_elements, free_elements).map(
    lambda ab: GroupElement("product", ab)
)

GROUPS_AND_ELEMENTS = [
    (F2, free_elements),
    (Z, lattice_elements),
    (W, wreath_elements),
    (P, product_elements),
]


@pytest.mark.parametrize("G,elems", GROUPS_AND_ELEMENTS,
                         ids=["free", "lattice", "wreath", "product"])
def test_group_laws(G, elems):
    @settings(max_examples=60, deadline=None)
    @given(elems, elems, elems)
    def run(a, b, c):
        assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))
        e = G.identity()
        assert G.mul(a, e) == a
        assert G.mul(e, a) == a
        assert G.mul(a, G.inv(a)) == e
        assert G.mul(G.inv(a), a) == e

    run()


@pytest.mark.parametrize("G,elems", GROUPS_AND_ELEMENTS,
                         ids=["free", "lattice", "wreath", "product"])
def test_serialize_parse_round_trip(G, elems):
    @settings(max_examples=60, deadline=None)
    @given(elems)
    def run(a):
        assert parse_element(G, serialize_element(G, a)) == a

    run()


@pytest.mark.parametrize("k, radius", [(2, 3), (5, 3), (26, 3), (27, 2)])
def test_free_ball_round_trips(k, radius):
    """Every element's serialized form parses back to it: the identity's
    form is "e" up to F_4, "1" on F_5 to F_26 (where "e" is the letter
    e), and "e" again past F_26, whose letters are signed numbers."""
    G = GroupModel.free(k)
    ball = ball_enumerate(G, radius)
    texts = [serialize_element(G, a) for a in ball.elements]
    assert len(set(texts)) == len(ball)
    assert all(parse_element(G, t) == a for t, a in zip(texts, ball.elements))
    assert texts[0 if 5 <= k <= 26 else -1] == serialize_element(
        G, G.identity()) == ("1" if 5 <= k <= 26 else "e")


def test_free_canonical_form_rejected():
    for bad in [(1, -1), (0,), (3,), (2, -2)]:
        with pytest.raises(RepresentationError):
            F2.check(GroupElement("free", bad))


def test_wreath_canonical_form_rejected():
    with pytest.raises(RepresentationError):
        W.check(GroupElement("wreath", (((0, 2),), 0)))  # value = q is not reduced
    with pytest.raises(RepresentationError):
        W.check(GroupElement("wreath", (((0, 1), (0, 1)), 0)))  # repeated site


# (k, word, a text form of it for the parser or None, is it reduced)
REDUCED_WORD_CASES = [
    (2, (), "e", True),
    (2, (1, -2, -1), "aBA", True),
    (2, (2, 1, 2), "+2.+1.+2", True),
    (2, (1, 0), "+1.+0", False),
    (2, (3,), "c", False),
    (2, (1, -3), "+1.-3", False),
    (2, (2, -2), "bB", False),
    (2, (True,), None, False),
    (2, (1.0,), None, False),
    (30, (), "e", True),
    (30, (30, -29, 1), "+30.-29.+1", True),
    (30, (5,), "+5", True),
    (30, (0,), "0", False),
    (30, (31,), "+31", False),
    (30, (1, -31), "+1.-31", False),
    (30, (7, -7), "+7.-7", False),
    (30, (2, True), None, False),
    (30, (1.0, 2), None, False),
]


@pytest.mark.parametrize("k, word, text, reduced", REDUCED_WORD_CASES)
def test_reduced_word_rule_agrees(k, word, text, reduced):
    """check, the lookups of the spheres and of a free ball, and the
    parser apply one rule: int letters in +-1..+-k, none next to its
    inverse."""
    G = GroupModel.free(k)
    g = GroupElement("free", word)
    ball = groups.shared_ball(G, 2)
    i = ball.position(g)
    assert (i is not None) == (reduced and len(word) <= 2)
    assert i is None or ball.elements[i] == g
    if reduced:
        G.check(g)
        assert Spheres(k, 4).position(g) == len(word)
        assert parse_element(G, text) == g
        return
    with pytest.raises(RepresentationError):
        G.check(g)
    assert Spheres(k, 4).position(g) is None
    if text is not None:
        with pytest.raises(ConfigError):
            parse_element(G, text)


@pytest.mark.parametrize("k, depth", [(2, 4), (30, 2)])
def test_generated_words_are_reduced(k, depth):
    """Cells and random words, in both letter orders, pass check."""
    G = GroupModel.free(k)
    rng = random.Random(k)
    words = [w for d in range(depth + 1) for w in all_cells(G, d)]
    for letters in (_letters(k), _letters(k)[::-1]):
        words += [_random_word(letters, 6, rng.randrange) for _ in range(200)]
    for w in words:
        G.check(GroupElement("free", w))


def test_kind_mismatch_rejected():
    with pytest.raises(RepresentationError):
        F2.check(GroupElement("lattice", (1,)))


def test_free_ball_sizes():
    # |B(r)| = 1 + 4 * (3^r - 1) / 2 = 2 * 3^r - 1
    for r in range(0, 6):
        assert len(ball_enumerate(F2, r).elements) == 2 * 3**r - 1


def test_lattice_ball_sizes():
    for r in range(0, 8):
        assert len(ball_enumerate(Z, r).elements) == 2 * r + 1


def test_ball_nesting():
    small = set(ball_enumerate(W, 2).elements)
    big = set(ball_enumerate(W, 3).elements)
    assert small < big


def _lengths(ball):
    """Each ball element's word length, keyed by element."""
    return dict(zip(ball.elements, ball.depth.tolist()))


def test_ball_lengths_match_bfs_layers():
    for g, length in _lengths(ball_enumerate(F2, 4)).items():
        assert length == len(g.data)


def test_ball_cap():
    with pytest.raises(ResourceLimitError):
        ball_enumerate(F2, 12, cap=1000)


@pytest.mark.parametrize(
    "G", [F2, GroupModel.free(3), GroupModel.lattice(2),
          GroupModel.lattice(4), W, P],
    ids=["free", "free:3", "lattice", "lattice:4", "wreath", "product"])
def test_ball_cap_trips_past_exact_size(G):
    size = len(ball_enumerate(G, 3))
    assert len(ball_enumerate(G, 3, cap=size)) == size
    with pytest.raises(ResourceLimitError):
        ball_enumerate(G, 3, cap=size - 1)


@pytest.mark.parametrize("G, radius", [
    (F2, 14), (GroupModel.free(3), 10), (GroupModel.lattice(3), 200),
    (GroupModel.lattice(6), 30), (W, 30), (GroupModel.wreath(3), 20),
], ids=["free:2", "free:3", "lattice:3", "lattice:6", "wreath:2",
        "wreath:3"])
def test_free_and_lattice_cap_trips_before_enumerating(G, radius,
                                                       monkeypatch):
    """Every kind, wreath products included (wreath:2 at radius 30 has
    29,569,464 elements), is sized exactly before the code search."""
    def no_search(codes):
        raise AssertionError("ball search ran past the cap")

    monkeypatch.setattr(groups, "_code_search", no_search)
    with pytest.raises(ResourceLimitError, match=re.escape(G.spec())):
        ball_enumerate(G, radius)


@pytest.mark.parametrize("q, radius", [(2, 12), (3, 8)])
def test_wreath_ball_size_matches_enumeration(q, radius):
    G = GroupModel.wreath(q)
    for r in range(radius + 1):
        assert _wreath_ball_size(q, r) == len(ball_enumerate(G, r))


def test_product_cap_counts_pairs_before_building():
    G = parse_group("product(free:2,free:2)")
    # sum over a+b <= 2 of |S(a)| * |S(b)| with sphere sizes 1, 4, 12
    size = 1 + 2 * 4 + 2 * 12 + 4 * 4
    assert len(ball_enumerate(G, 2, cap=size)) == size
    assert len(ball_enumerate(F2, 2)) < size - 1  # both factors fit
    for cap in (size - 1, 10):  # the second trips inside a factor ball
        with pytest.raises(ResourceLimitError, match=re.escape(G.spec())):
            ball_enumerate(G, 2, cap=cap)


def _reference_ball(G, radius):
    """Ball fields from a plain BFS with the public `mul`."""
    gens = G.generators()
    length = {G.identity(): 0}
    frontier = [G.identity()]
    for dist in range(1, radius + 1):
        nxt = []
        for a in frontier:
            for s in gens:
                b = G.mul(a, s)
                if b not in length:
                    length[b] = dist
                    nxt.append(b)
        frontier = nxt
    elements = tuple(sorted(length, key=lambda a: serialize_element(G, a)))
    index = {a: i for i, a in enumerate(elements)}
    depth = [length[a] for a in elements]
    neighbours = [[index.get(G.mul(a, s), -1) for s in gens]
                  for a in elements]
    return elements, depth, neighbours, length


def _outside(G, radius, length):
    """Elements a ball of this radius must not find: one of length
    radius + 1, one of another kind and, on a wreath product, one whose
    digits leave every radix."""
    far = next(b for a, d in length.items() if d == radius
               for b in (G.mul(a, s) for s in G.generators())
               if b not in length)
    other = GroupElement("free" if G.kind == "lattice" else "lattice", (0,))
    if G.kind == "wreath":
        return [far, other, parse_element(G, "{-300:1,500:1}@200")]
    return [far, other]


# radii 0-4 of each kind, then the benchmark's balls (wreath:2 radius 15,
# the product at radius 7), balls whose codes take two int64 words, and
# balls whose order has traps: F_5 and F_27, whose identity and letters
# differ from F_2's, a lattice factor whose position ends in ";" (where
# "1;" sorts after "10;") and a product of two lattices
@pytest.mark.parametrize("spec, radii", [
    pytest.param(spec, range(5), id=spec) for spec in [
        "free:2", "free:3", "lattice:1", "lattice:3", "wreath:2", "wreath:3",
        "product(wreath:2,free:2)", "product(lattice:1,wreath:3)",
        "product(product(free:2,lattice:1),wreath:2)"]
] + [
    pytest.param(spec, [radius], id=f"{spec}-r{radius}")
    for spec, radius in [("free:2", 7), ("wreath:2", 15), ("wreath:5", 6),
                         ("lattice:40", 2), ("product(wreath:2,free:2)", 7),
                         ("free:5", 3), ("free:27", 2),
                         ("product(wreath:2,lattice:1)", 11),
                         ("product(lattice:1,lattice:1)", 12)]
])
def test_ball_matches_reference_bfs(spec, radii):
    G = parse_group(spec)
    for radius in radii:
        ball = ball_enumerate(G, radius)
        elements, depth, neighbours, length = _reference_ball(G, radius)
        assert ball.elements == elements
        assert ball.depth.tolist() == depth
        assert ball.neighbours.dtype == np.int32
        assert ball.neighbours.tolist() == neighbours
        assert [ball.position(a) for a in elements] == list(range(len(ball)))
        for a in _outside(G, radius, length):
            assert ball.position(a) is None, a
        assert _lengths(ball) == length
        assert all(word_length(G, a) == length[a] for a in elements)


@pytest.mark.parametrize("spec, radius, words", [
    ("free:2", 7, 1), ("wreath:2", 15, 1), ("lattice:40", 2, 2),
    ("wreath:7", 11, 2),
])
def test_code_words(spec, radius, words):
    """A code takes as many int64 words as its digits need: lattice:40 at
    radius 2 has 40 base-7 digits, wreath:7 at radius 11 (1,643,669
    elements) a base-25 position and 23 base-7 lamps."""
    assert _Codes(parse_group(spec), radius).identity.shape == (1, words)


@pytest.mark.parametrize("spec, radius", [
    ("wreath:2", 12), ("wreath:3", 8), ("product(wreath:2,free:2)", 6),
])
def test_word_length_is_ball_depth(spec, radius):
    G = parse_group(spec)
    ball = ball_enumerate(G, radius)
    assert [word_length(G, a) for a in ball.elements] == ball.depth.tolist()


def test_word_length_past_any_ball():
    g = parse_element(W, "{-300:1,500:1}@200")
    # 2 lamps + the route 0 -> -300 -> 500 -> 200
    assert word_length(W, g) == 2 + 300 + 800 + 300


@pytest.mark.parametrize("spec", ["free:2", "lattice:2", "wreath:2",
                                  "wreath:3", "product(wreath:2,free:2)"])
def test_ball_neighbours_match_mul(spec):
    G = parse_group(spec)
    ball = ball_enumerate(G, 3)
    gens = G.generators()
    assert ball.neighbours.shape == (len(ball), len(gens))
    for i, a in enumerate(ball.elements):
        found = [ball.position(G.mul(a, s)) for s in gens]
        assert ball.neighbours[i].tolist() == [
            -1 if j is None else j for j in found]
    assert ball.elements == tuple(
        sorted(ball.elements, key=lambda a: serialize_element(G, a)))
    assert all(ball.position(a) == i for i, a in enumerate(ball.elements))


def test_group_element_is_an_immutable_tuple():
    g = parse_element(W, "{0:1,3:1}@-2")
    assert repr(g) == "GroupElement(wreath, (((0, 1), (3, 1)), -2))"
    assert repr(F2.identity()) == "GroupElement(free, ())"
    with pytest.raises(AttributeError):
        g.data = ((), 0)
    with pytest.raises(AttributeError):
        g.label = "x"
    assert GroupElement("free", (1,)) != GroupElement("lattice", (1,))
    assert GroupElement("free", ()) != GroupElement("wreath", ())


@pytest.mark.parametrize("spec, text, gens", [
    ("free:2", "aB", [0, 3]),
    ("wreath:2", "{-1:1,1:1}@2", [1, 2, 0, 0, 2, 0]),
    ("lattice:2", "(1,-1)", [0, 3]),
])
def test_parsed_multiplied_and_ball_elements_agree(spec, text, gens):
    """One element built three ways (parsed, a product of generators, read
    off a ball) hashes and compares equal."""
    G = parse_group(spec)
    parsed = parse_element(G, text)
    made = G.identity()
    for j in gens:
        made = G.mul(made, G.generators()[j])
    ball = ball_enumerate(G, 8)
    found = ball.elements[ball.position(parsed)]
    assert parsed == made == found
    assert hash(parsed) == hash(made) == hash(found)
    assert type(found) is GroupElement


def test_parse_group_round_trip():
    for spec in ["free:2", "free:3", "lattice:1", "wreath:2",
                 "product(wreath:2,free:2)",
                 "product(product(free:2,lattice:1),wreath:2)",
                 "product(lattice:2,product(wreath:3,free:2))"]:
        G = parse_group(spec)
        assert G.spec() == spec


def test_parse_group_rejects_junk():
    with pytest.raises(ConfigError):
        parse_group("dihedral:8")
    with pytest.raises(ConfigError):
        GroupModel.free(1)


def test_free_element_parsing():
    a = parse_element(F2, "a")
    assert a.data == (1,)
    assert parse_element(F2, "aB").data == (1, -2)
    assert parse_element(F2, "e") == F2.identity()
    with pytest.raises(ConfigError):
        parse_element(F2, "aA")  # not reduced
    with pytest.raises(ConfigError):
        parse_element(F2, "c")  # out of alphabet


def test_wreath_element_parsing():
    g = parse_element(W, "{0:1,3:1}@-2")
    assert g.data == (((0, 1), (3, 1)), -2)
    with pytest.raises(ConfigError):
        parse_element(W, "{0:2}@0")  # lamp value reduces to zero mod 2


def test_product_element_parsing():
    g = parse_element(P, "[{}@1;ab]")
    assert g.data[0].data == ((), 1)
    assert g.data[1].data == (1, 2)
    # the separator is the first ';' outside brackets
    nested = parse_group("product(product(free:2,lattice:1),wreath:2)")
    g = parse_element(nested, "[[aB;(-3)];{-1:1,2:1}@4]")
    assert g.data == (
        GroupElement("product", (GroupElement("free", (1, -2)),
                                 GroupElement("lattice", (-3,)))),
        GroupElement("wreath", (((-1, 1), (2, 1)), 4)),
    )
    with pytest.raises(ConfigError):
        parse_element(nested, "[[aB;(-3)]]")  # no top-level ';'


def test_wreath_multiplication_moves_lamps():
    t = GroupElement("wreath", ((), 1))
    lamp = GroupElement("wreath", (((0, 1),), 0))
    # walking right then lighting a lamp lights the lamp at the new spot
    g = W.mul(t, lamp)
    assert g.data == (((1, 1),), 1)
    assert W.mul(g, W.inv(g)) == W.identity()
