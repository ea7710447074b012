import json

import pytest

from greenwalk import walks
from greenwalk.errors import ConfigError, ResourceLimitError
from greenwalk.groups import GroupElement, GroupModel, parse_element
from greenwalk.walks import (
    WalkSpec,
    drift_z,
    generation_certificate,
    make_walk,
    named_walk,
    product_walk,
    resolve_walk,
    srw_free,
    walk_from_json,
    wreath_walk,
)


def test_srw_free_is_uniform_on_generators():
    w = srw_free(2)
    steps = w.step_dict()
    assert len(steps) == 4
    assert all(p == 0.25 for p in steps.values())
    assert set(steps) == set(w.group.generators())


def test_drift_z_probabilities():
    w = drift_z(0.7)
    steps = {g.data[0]: p for g, p in w.steps}
    assert steps == {1: 0.7, -1: pytest.approx(0.3)}
    with pytest.raises(ConfigError):
        drift_z(1.0)
    with pytest.raises(ConfigError):
        drift_z(0.0)


def test_wreath_walk_cases():
    w = wreath_walk(2, 0.75, 0.4)
    steps = {g: p for g, p in w.steps}
    lamp = GroupElement("wreath", (((0, 1),), 0))
    right = GroupElement("wreath", ((), 1))
    left = GroupElement("wreath", ((), -1))
    assert steps[lamp] == pytest.approx(0.4)
    assert steps[right] == pytest.approx(0.6 * 0.75)
    assert steps[left] == pytest.approx(0.6 * 0.25)
    assert sum(steps.values()) == pytest.approx(1.0)


def test_wreath_walk_lamp_alphabet():
    w = wreath_walk(3, 0.6, 0.3)
    lamp_steps = [(g, p) for g, p in w.steps if g.data[1] == 0]
    assert len(lamp_steps) == 2  # values 1 and 2, uniform
    assert all(p == pytest.approx(0.15) for _, p in lamp_steps)


def test_make_walk_validation():
    G = GroupModel.free(2)
    a = parse_element(G, "a")
    with pytest.raises(ConfigError):
        make_walk(G, {a: 0.5})  # mass 0.5
    with pytest.raises(ConfigError):
        make_walk(G, {a: 1.5, G.inv(a): -0.5})  # negative probability


def test_named_walk_round_trip():
    for spec, group_spec in [
        ("srw-free:2", "free:2"),
        ("drift-z:0.7", "lattice:1"),
        ("wreath-walk:2,0.75,0.4", "wreath:2"),
        ("product:0.5,wreath-walk:2,0.75,0.4,srw-free:2",
         "product(wreath:2,free:2)"),
    ]:
        w = named_walk(spec)
        assert w.group.spec() == group_spec
        assert sum(p for _, p in w.steps) == pytest.approx(1.0)


def test_named_walk_errors():
    with pytest.raises(ConfigError):
        named_walk("levy-flight:2")
    with pytest.raises(ConfigError):
        named_walk("srw-free:2,extra")
    with pytest.raises(ConfigError):
        named_walk("product:0.5,srw-free:2")  # missing right factor


def test_product_walk_four_cases():
    mu0 = wreath_walk(2, 0.75, 0.4)
    mu1 = srw_free(2)
    w = product_walk(mu0, mu1, 0.5)
    G2 = w.group
    left, right = G2.factors
    e0, e1 = left.identity(), right.identity()
    steps = {g: p for g, p in w.steps}
    assert sum(steps.values()) == pytest.approx(1.0, abs=1e-15)
    # no step moves both coordinates, and (e, e) has no mass here since
    # neither factor walk sits still
    for g, p in steps.items():
        moved = (g.data[0] != e0) + (g.data[1] != e1)
        assert moved == 1
    for g0, p in mu0.steps:
        assert steps[GroupElement("product", (g0, e1))] == pytest.approx(0.5 * p)
    for g1, p in mu1.steps:
        assert steps[GroupElement("product", (e0, g1))] == pytest.approx(0.5 * p)


def test_product_walk_marginal_exact():
    mu0 = wreath_walk(2, 0.75, 0.4)
    w = product_walk(mu0, srw_free(2), 0.5)
    left = w.group.factors[0]
    marginal = {}
    for g, p in w.steps:
        marginal[g.data[0]] = marginal.get(g.data[0], 0.0) + p
    expected = {left.identity(): 0.5}
    for g, p in mu0.steps:
        expected[g] = expected.get(g, 0.0) + 0.5 * p
    assert set(marginal) == set(expected)
    for g in expected:
        assert marginal[g] == pytest.approx(expected[g], abs=1e-15)


def test_product_walk_mixing_bounds():
    mu0 = wreath_walk(2, 0.75, 0.4)
    mu1 = srw_free(2)
    for a in (0.0, 1.0, -0.2, 1.2):
        with pytest.raises(ConfigError):
            product_walk(mu0, mu1, a)


def test_generation_certificate():
    cert = generation_certificate(srw_free(2), 3, 12)
    assert cert.covered and cert.missing == ()
    # every generator is a step, but 2 steps reach only B(2): the search
    # reports the 36 words of length 3
    cert = generation_certificate(srw_free(2), 3, 2)
    assert not cert.covered and len(cert.missing) == 36
    assert all(len(g.data) == 3 for g in cert.missing)
    # one-sided support cannot reach inverses; make_walk refuses it outright
    G = GroupModel.free(2)
    a = parse_element(G, "a")
    b = parse_element(G, "b")
    with pytest.raises(ConfigError, match="does not generate"):
        make_walk(G, {a: 0.5, b: 0.5})
    lame = WalkSpec(G, ((a, 0.5), (b, 0.5)), "one-sided")
    cert = generation_certificate(lame, 1, 12)
    assert not cert.covered
    assert any(g == G.inv(a) for g in cert.missing)


def test_generation_search_is_capped(monkeypatch):
    # {a, A, b} reaches tens of thousands of words in 12 steps, never B
    monkeypatch.setattr(walks, "GENERATION_REACH_CAP", 1000)
    G = GroupModel.free(2)
    steps = {parse_element(G, x): 1 / 3 for x in ("a", "A", "b")}
    with pytest.raises(ResourceLimitError, match="not found within 12 steps"):
        make_walk(G, steps)
    # a search that stays below the cap still decides
    cert = generation_certificate(srw_free(2), 3, 2)
    assert len(cert.missing) == 36
    # the built-in walks hold every generator and do not search at all
    monkeypatch.setattr(walks, "GENERATION_REACH_CAP", 1)
    product_walk(wreath_walk(2, 0.75, 0.4), srw_free(3), 0.5)
    drift_z(0.7)


def test_walk_json_round_trip():
    w = wreath_walk(2, 0.75, 0.4)
    blob = {"group": "wreath:2", "name": "wreath-walk:2,0.75,0.4",
            "steps": [{"elem": "{0:1}@0", "p": 0.4},
                      {"elem": "{}@-1", "p": 0.15},
                      {"elem": "{}@1", "p": 0.45}]}
    again = walk_from_json(json.loads(json.dumps(blob)))
    assert again.group.spec() == w.group.spec()
    assert dict(again.steps) == pytest.approx(dict(w.steps))
    assert resolve_walk(blob).steps == again.steps
    assert resolve_walk("srw-free:2").steps == srw_free(2).steps


def test_max_step_length():
    assert srw_free(2).max_step_length() == 1
    assert wreath_walk(2, 0.75, 0.4).max_step_length() == 1
    assert product_walk(wreath_walk(2, 0.75, 0.4),
                        srw_free(2), 0.5).max_step_length() == 1
    W = GroupModel.wreath(2)
    # lamps at 0 and 2: flip, two steps right, flip, two steps back
    far = GroupElement("wreath", (((0, 1), (2, 1)), 0))
    assert WalkSpec(W, ((far, 1.0),)).max_step_length() == 6


def test_mean_drift():
    assert drift_z(0.7).mean_drift() == pytest.approx((0.4,))
    assert srw_free(2).mean_drift() is None
