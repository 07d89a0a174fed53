import random

import pytest

from covercalc.diagrams import DecoratedDiagram, Edge, _twist_sign
from covercalc.signs import GraphIso, chain_twist, comparison_sign

from helpers import (
    dumbbell,
    k4_diagram,
    petersen_with_legs,
    random_diagram,
    relabel,
    theta,
    theta_with_legs,
    vertex_map_exists_by_search,
)


def with_twists(d, twists):
    return DecoratedDiagram(d.label, d.vertices, d.edges, d.legs, twists)


def identity_iso(d):
    return GraphIso({e.id: e.id for e in d.edges})


def test_chain_twist_direct_link_returns_linking_number():
    for l0 in range(-3, 4):
        assert chain_twist([l0]) == l0


def test_chain_twist_one_intermediate_flips_sign():
    assert chain_twist([1, 1]) == -1


def test_chain_twist_longer_chain():
    assert chain_twist([2, 3, 1]) == 6


def test_chain_twist_empty_rejected():
    with pytest.raises(ValueError):
        chain_twist([])


def test_chain_twist_of_unit_linkings_is_unit():
    rng = random.Random(1)
    for _ in range(50):
        chain = [rng.choice((1, -1)) for _ in range(rng.randint(1, 6))]
        t = chain_twist(chain)
        assert t in (1, -1)


def test_chain_twist_magnitude_is_product():
    rng = random.Random(2)
    for _ in range(50):
        chain = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
        expected = 1
        for l in chain:
            expected *= abs(l)
        assert abs(chain_twist(chain)) == expected


def test_comparison_sign_identity():
    d = with_twists(theta(), {"e1": 1, "e2": 1, "e3": 1})
    assert comparison_sign(d, d, identity_iso(d)) == 1


def test_comparison_sign_single_flip():
    d1 = with_twists(theta(), {"e1": 1, "e2": 1, "e3": 1})
    d2 = with_twists(theta(), {"e1": -1, "e2": 1, "e3": 1})
    assert comparison_sign(d1, d2, identity_iso(d1)) == -1


def test_comparison_sign_double_flip():
    d1 = with_twists(theta(), {"e1": 1, "e2": 1, "e3": 1})
    d2 = with_twists(theta(), {"e1": -1, "e2": -1, "e3": 1})
    assert comparison_sign(d1, d2, identity_iso(d1)) == 1


def test_comparison_sign_requires_twist_data():
    d1 = with_twists(theta(), {"e1": 1, "e2": 1, "e3": 1})
    d2 = theta()
    with pytest.raises(ValueError):
        comparison_sign(d1, d2, identity_iso(d1))


def test_comparison_sign_rejects_non_unit_twists():
    d = with_twists(theta(), {"e1": 2, "e2": 1, "e3": 1})
    with pytest.raises(ValueError):
        comparison_sign(d, d, identity_iso(d))


def test_comparison_sign_rejects_non_bijection():
    d = with_twists(theta(), {"e1": 1, "e2": 1, "e3": 1})
    with pytest.raises(ValueError):
        comparison_sign(d, d, GraphIso({"e1": "e1", "e2": "e1", "e3": "e3"}))


def test_comparison_sign_rejects_adjacency_breaking_map():
    d1 = with_twists(dumbbell(), {"lx": 1, "mid": 1, "ly": 1})
    d2 = with_twists(theta(), {"e1": 1, "e2": 1, "e3": 1})
    # dumbbell and theta have the same edge count but incompatible adjacency
    with pytest.raises(ValueError):
        comparison_sign(d1, d2, GraphIso({"lx": "e1", "mid": "e2", "ly": "e3"}))


def test_comparison_sign_across_relabeling():
    d1 = with_twists(k4_diagram(), {e.id: 1 for e in k4_diagram().edges})
    d2 = relabel(d1, "q")
    iso = GraphIso(
        {e.id: f"qe{i}" for i, e in enumerate(d1.edges)}
    )
    assert comparison_sign(d1, d2, iso) == 1


def test_comparison_sign_symmetric_under_swap():
    rng = random.Random(9)
    base = theta()
    for _ in range(50):
        t1 = {e.id: rng.choice((1, -1)) for e in base.edges}
        t2 = {e.id: rng.choice((1, -1)) for e in base.edges}
        d1 = with_twists(base, t1)
        d2 = with_twists(base, t2)
        iso = identity_iso(base)
        forward = comparison_sign(d1, d2, iso)
        backward = comparison_sign(d2, d1, GraphIso({v: k for k, v in iso.edge_map.items()}))
        assert forward == backward
        assert forward in (1, -1)


def test_comparison_sign_rejects_many_to_one_map():
    # two edges onto one: the parallel edges of the theta fit a two-edge graph
    d1 = with_twists(theta(), {"e1": 1, "e2": 1, "e3": 1})
    d2 = DecoratedDiagram("pair", ("x", "y"), (Edge("a", "x", "y"), Edge("b", "x", "y")),
                          twists={"a": 1, "b": -1})
    with pytest.raises(ValueError, match="not a bijection"):
        comparison_sign(d1, d2, GraphIso({"e1": "a", "e2": "a", "e3": "b"}))


def test_comparison_sign_rejects_repeated_edge_ids():
    # an edge id listed twice names no bijection of the edges, though the id sets and
    # the vertex ends of the last pair match: a sign would count e1's twist once or twice
    d = with_twists(theta(), {"e1": -1, "e2": 1, "e3": 1})
    doubled = DecoratedDiagram("doubled", d.vertices, d.edges + d.edges[:1], twists=d.twists)
    positive = with_twists(doubled, {"e1": 1, "e2": 1, "e3": 1})
    for pair in ((d, doubled), (doubled, d), (doubled, positive)):
        with pytest.raises(ValueError, match="not a bijection"):
            comparison_sign(*pair, identity_iso(d))


def test_twist_sign_is_the_product_of_full_unit_twist_data():
    # cwl_delta's sign; a comparison sign is the product of the two diagrams' twist signs
    d = with_twists(theta(), {"e1": -1, "e2": 1, "e3": 1})
    assert _twist_sign(d) == -1
    assert _twist_sign(with_twists(d, {"e1": -1, "e2": 1})) is None
    assert _twist_sign(with_twists(d, {"e1": 2, "e2": 1, "e3": 1})) is None
    flipped = with_twists(d, {"e1": 1, "e2": 1, "e3": -1})
    assert comparison_sign(d, flipped, identity_iso(d)) == _twist_sign(d) * _twist_sign(flipped) == 1


def _shuffled(d, rng):
    """The same diagram with its vertices and edges listed in random order."""
    vertices, edges = list(d.vertices), list(d.edges)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return DecoratedDiagram(d.label, vertices, edges, d.legs, d.twists)


def test_comparison_sign_matches_the_search_oracle():
    rng = random.Random(31)
    outcomes = {"signed": 0, "refused": 0}
    bases = [petersen_with_legs()] + [random_diagram(rng, max_legs=8) for _ in range(150)]
    for base in bases:
        d1 = with_twists(base, {e.id: rng.choice((1, -1)) for e in base.edges})
        d2 = relabel(d1, "q")
        d2 = _shuffled(with_twists(d2, {e.id: rng.choice((1, -1)) for e in d2.edges}), rng)
        true_map = {e.id: f"qe{i}" for i, e in enumerate(d1.edges)}
        for trial in range(4):
            images = list(true_map.values())
            if trial == 1:
                rng.shuffle(images)
            elif trial > 1:
                i, j = rng.randrange(len(images)), rng.randrange(len(images))
                images[i], images[j] = images[j], images[i]
            edge_map = dict(zip(true_map, images))
            iso = GraphIso(edge_map)
            if vertex_map_exists_by_search(d1, d2, edge_map):
                expected = 1
                for e1, e2 in edge_map.items():
                    expected *= d1.twists[e1] * d2.twists[e2]
                assert comparison_sign(d1, d2, iso) == expected
                outcomes["signed"] += 1
            else:
                with pytest.raises(ValueError, match="does not respect vertex adjacency"):
                    comparison_sign(d1, d2, iso)
                outcomes["refused"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_comparison_sign_on_a_1203_edge_identity_map():
    # one edge of recursion per edge would pass Python's default recursion limit
    d = theta_with_legs(1200)
    d = with_twists(d, {e.id: 1 for e in d.edges})
    assert len(d.edges) == 1203
    assert comparison_sign(d, d, identity_iso(d)) == 1


def test_comparison_sign_refuses_a_swap_across_16_thetas():
    # edges a_t, b_t, c_t join u_t and v_t; swapping c00 and c01 joins two thetas,
    # which a search over the 2^16 orientations of the a edges finds only at the end
    edges = tuple(Edge(f"{x}{t:02d}", f"u{t}", f"v{t}") for t in range(16) for x in "abc")
    vertices = tuple(v for t in range(16) for v in (f"u{t}", f"v{t}"))
    d = DecoratedDiagram("thetas", vertices, edges, twists={e.id: 1 for e in edges})
    edge_map = {e.id: e.id for e in edges}
    edge_map["c00"], edge_map["c01"] = "c01", "c00"
    with pytest.raises(ValueError, match="does not respect vertex adjacency"):
        comparison_sign(d, d, GraphIso(edge_map))
