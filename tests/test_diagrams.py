import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from covercalc import diagrams
from covercalc.diagrams import (
    DecoratedDiagram,
    DiagramError,
    Edge,
    Leg,
    attach_leg_by_subdivision,
    cycle_windings,
    degree,
    is_theta_shaped,
    spanning_tree,
    surplus,
    theta,
    validate_complete,
)
from covercalc.engine import cwl_delta, multiplier
from covercalc.knots import unknot

from helpers import (
    chord_fixture,
    cycle_windings_by_potentials,
    dumbbell,
    example_two_leg_theta,
    fork_fixture,
    json_ids,
    json_numbers,
    k4_diagram,
    kappa_diagram,
    non_lists,
    non_objects,
    non_scalars,
    petersen_with_legs,
    random_diagram,
    relabel,
    replaced,
    theta_with_legs,
)


def test_theta_surplus():
    assert surplus(theta()) == 2


def test_theta_with_one_leg_surplus():
    assert surplus(theta_with_legs(1)) == 2


def test_kappa_surplus_is_four():
    for n in (1, 3, 5):
        assert surplus(kappa_diagram(n)) == 4


def test_theta_degree():
    assert degree(theta()) == 1


def test_theta_with_two_legs_degree():
    assert degree(theta_with_legs(2)) == 3


def test_degree_formula_on_modeled_wheel_shape():
    # kappa with n legs models 4 + n trivalent vertices and n legs
    for n in (2, 4):
        d = kappa_diagram(n)
        assert degree(d) == Fraction(4 + 2 * n, 2)


def test_theta_validates():
    assert validate_complete(theta()) is None


def test_dumbbell_validates():
    assert validate_complete(dumbbell()) is None


def test_chord_rejected():
    v = validate_complete(chord_fixture())
    assert v is not None
    assert v.code == "incidence"
    assert v.element == "a"


def test_fork_rejected():
    v = validate_complete(fork_fixture())
    assert v is not None
    assert v.code == "fork"
    assert v.element == "w"


def test_disconnected_rejected():
    d = DecoratedDiagram(
        label="two-thetas",
        vertices=("u", "v", "x", "y"),
        edges=(
            Edge("e1", "u", "v"),
            Edge("e2", "u", "v"),
            Edge("e3", "u", "v"),
            Edge("f1", "x", "y"),
            Edge("f2", "x", "y"),
            Edge("f3", "x", "y"),
        ),
    )
    v = validate_complete(d)
    assert v is not None and v.code == "disconnected"


def test_leg_target_must_be_incident():
    d = theta_with_legs(1)
    bad_legs = tuple(Leg(l.id, l.vertex, l.sign, "e2") for l in d.legs)
    bad = DecoratedDiagram(d.label, d.vertices, d.edges, bad_legs)
    v = validate_complete(bad)
    assert v is not None and v.code == "leg-target" and v.element == "l1"


@pytest.mark.parametrize(
    "change, element, message",
    [
        ({"vertices": ("u", "v", "w1", "w2", "u")}, "two-leg-theta", "duplicate vertex ids"),
        ({"legs": (Leg("l1", "w1", 1, "m1"), Leg("l1", "w2", 1, "n1"))}, "two-leg-theta",
         "duplicate leg ids"),
        ({"edges": (*example_two_leg_theta().edges[:4], Edge("n2", "w2", "x", 0))}, "n2",
         "edge endpoint is not a vertex"),
        ({"legs": (Leg("l1", "w1", 1, "m1"), Leg("l2", "x", 1, "n1"))}, "l2",
         "leg attached to unknown vertex"),
        ({"legs": (Leg("l1", "w1", 2, "m1"), Leg("l2", "w2", 1, "n1"))}, "l1", "leg wrap sign must be ±1"),
        ({"legs": (Leg("l1", "w1", 1, "m1"), Leg("l2", "w2", 1, "z"))}, "l2", "leg targets unknown edge"),
    ],
    ids=["vertex-ids", "leg-ids", "edge-endpoint", "leg-vertex", "leg-sign", "leg-edge"],
)
def test_reference_violations_are_named(change, element, message):
    d = example_two_leg_theta()
    fields = {"label": d.label, "vertices": d.vertices, "edges": d.edges, "legs": d.legs, **change}
    v = validate_complete(DecoratedDiagram(**fields))
    assert (v.code, v.element, v.message) == ("reference", element, message)


def test_twist_on_unknown_edge_rejected():
    # a mistyped twist key is an error, not a sign that silently turns "unknown"
    data = theta().to_json_dict()
    data["twists"] = {"e1": 1, "9": 1}
    v = validate_complete(DecoratedDiagram.from_json_dict(data))
    assert (v.code, v.element, v.message) == ("reference", "9", "twist on unknown edge")


def test_low_surplus_rejected():
    # a triangle with one leg per vertex: trivalent everywhere, surplus 0
    d = DecoratedDiagram(
        label="low-surplus",
        vertices=("a", "b", "c"),
        edges=(Edge("e1", "a", "b"), Edge("e2", "b", "c"), Edge("e3", "c", "a")),
        legs=(Leg("l1", "a", 1, "e1"), Leg("l2", "b", 1, "e2"), Leg("l3", "c", 1, "e3")),
    )
    v = validate_complete(d)
    assert v is not None and v.code == "surplus"


def test_cycle_basis_theta():
    assert len(cycle_windings(theta())) == 2


def test_cycle_basis_single_loop():
    d = dumbbell()
    _, steps, chords = spanning_tree(d.vertices, d.edges)
    assert [e.id for e, *_ in steps] == ["mid"]
    assert [e.id for e in chords] == ["lx", "ly"]
    # each fundamental cycle is one self-loop: only that loop's winding counts
    windings = (2, 5, 3)
    wound = DecoratedDiagram(
        d.label, d.vertices, [Edge(e.id, e.tail, e.head, w) for e, w in zip(d.edges, windings)]
    )
    assert cycle_windings(wound) == [[2], [3]]


def test_cycle_basis_tree_is_refused():
    d = DecoratedDiagram(
        label="tree",
        vertices=("a", "b"),
        edges=(Edge("e", "a", "b"),),
    )
    with pytest.raises(DiagramError, match=r"^incidence\[a\]") as raised:
        cycle_windings(d)
    assert raised.value.violation == validate_complete(d)


def test_cycle_winding_affine_example_values():
    # rows [constant, l1, l2]: the cycle windings are (eps1, eps2 + 1)
    assert sorted(cycle_windings(example_two_leg_theta())) == [[0, 1, 0], [1, 0, 1]]


def test_cycle_winding_no_legs_zero_windings():
    assert cycle_windings(theta()) == [[0], [0]]


def test_cycle_winding_single_constant():
    constants = sorted(row[0] for row in cycle_windings(theta(windings=(0, 0, 3))))
    # e3 carries winding 3 and lies on exactly one fundamental cycle
    assert 3 in constants or -3 in constants


def test_spanning_tree_steps_and_chords():
    d = k4_diagram()
    root, steps, chords = spanning_tree(d.vertices, d.edges)
    assert root == 1
    assert len(steps) == len(d.vertices) - 1
    assert {child for _, _, child, _ in steps} == {2, 3, 4}
    for e, parent, child, sign in steps:
        assert (e.tail, e.head) == ((parent, child) if sign == 1 else (child, parent))
    tree_ids = {e.id for e, *_ in steps}
    assert [e.id for e in chords] == [e.id for e in d.edges if e.id not in tree_ids]


def test_spanning_tree_root_is_lowest_id_and_misses_other_components():
    edges = (Edge("f", "y", "x"), Edge("g", "b", "a"))
    root, steps, chords = spanning_tree(("y", "x", "b", "a"), edges)
    assert root == "a"
    assert [(e.id, p, c, s) for e, p, c, s in steps] == [("g", "a", "b", -1)]
    assert chords == [edges[0]]


def _two_thetas():
    return DecoratedDiagram(
        "split",
        ("x", "y", "a", "b"),
        (Edge("f1", "x", "y"), Edge("f2", "x", "y"), Edge("f3", "x", "y"),
         Edge("g1", "a", "b"), Edge("g2", "a", "b"), Edge("g3", "a", "b")),
    )


def test_disconnected_names_lowest_unreached_vertex():
    assert validate_complete(_two_thetas()).element == "x"


def test_surplus_degree_invariant_under_relabeling():
    rng = random.Random(5)
    for _ in range(10):
        d = random_diagram(rng, max_legs=6)
        r = relabel(d, "z")
        assert surplus(r) == surplus(d)
        assert degree(r) == degree(d)
        assert validate_complete(r) is None


def test_adding_leg_keeps_surplus_raises_degree():
    for base in (theta(), dumbbell(), k4_diagram()):
        d = attach_leg_by_subdivision(base, base.edges[0].id, "new-leg")
        assert validate_complete(d) is None
        assert surplus(d) == surplus(base)
        assert degree(d) == degree(base) + 1


def _admissible_states(d, p):
    rows = cycle_windings(d)
    states = set()
    for bits in itertools.product((0, 1), repeat=len(d.legs)):
        eps = (1,) + bits
        if all(sum(c * e for c, e in zip(row, eps)) % p == 0 for row in rows):
            states.add(bits)
    return states


def _renamed_and_reordered(d, rng):
    """The same diagram with shuffled integer vertex ids and edge order."""
    ids = list(range(len(d.vertices)))
    rng.shuffle(ids)
    vmap = dict(zip(d.vertices, ids))
    edges = [Edge(e.id, vmap[e.tail], vmap[e.head], e.winding) for e in d.edges]
    rng.shuffle(edges)
    legs = [Leg(l.id, vmap[l.vertex], l.sign, l.edge) for l in d.legs]
    return DecoratedDiagram(d.label, [vmap[v] for v in d.vertices], edges, legs)


def test_admissible_set_independent_of_spanning_tree():
    rng = random.Random(19)
    trees_varied = 0
    for _ in range(15):
        d = random_diagram(rng, max_legs=8)
        p = rng.randint(1, 5)
        baseline = _admissible_states(d, p)
        chord_sets = {frozenset(e.id for e in spanning_tree(d.vertices, d.edges)[2])}
        for _ in range(4):
            other = _renamed_and_reordered(d, rng)
            assert validate_complete(other) is None
            assert _admissible_states(other, p) == baseline
            chord_sets.add(frozenset(e.id for e in spanning_tree(other.vertices, other.edges)[2]))
        trees_varied += len(chord_sets) > 1
    assert trees_varied >= 10


def test_sawn_edge_graph_of_theta_with_legs():
    for n in (0, 1, 4):
        d = theta_with_legs(n) if n else theta()
        assert is_theta_shaped(d)


def test_sawn_edge_graph_non_theta_shapes():
    assert not is_theta_shaped(dumbbell())
    assert not is_theta_shaped(k4_diagram())
    assert not is_theta_shaped(kappa_diagram(2))


def test_theta_shaped_with_legs_on_all_three_edges():
    d = theta()
    for i, edge in enumerate(("e1", "e2", "e3", "e1~l1b", "e3~l3b"), 1):
        d = attach_leg_by_subdivision(d, edge, f"l{i}", sign=(-1) ** i)
        assert validate_complete(d) is None
        assert is_theta_shaped(d)


def test_dumbbell_with_legs_on_both_loops_is_not_theta():
    # each loop becomes a chain of leg vertices that returns to its start
    d = attach_leg_by_subdivision(dumbbell(), "lx", "l1")
    d = attach_leg_by_subdivision(d, "ly", "l2")
    d = attach_leg_by_subdivision(d, "ly~l2b", "l3")
    assert validate_complete(d) is None and surplus(d) == 2
    assert not is_theta_shaped(d)


def test_leg_vertex_with_parallel_edges_is_not_theta():
    # w carries a leg and both its edges run to x, so sawing leaves a loop at x
    d = DecoratedDiagram(
        "parallel-leg",
        ("x", "y", "w"),
        (Edge("a", "x", "w"), Edge("b", "w", "x"), Edge("c", "x", "y"), Edge("loop", "y", "y")),
        (Leg("l1", "w", 1, "a"),),
    )
    assert validate_complete(d) is None and surplus(d) == 2
    assert not is_theta_shaped(d)


def test_dumbbell_with_legs_on_its_bridge_is_not_theta():
    # the legs subdivide the bridge: every piece of it still lies on no cycle
    d = dumbbell()
    for i, edge in enumerate(("mid", "mid~l1b", "mid~l1b~l2b"), 1):
        d = attach_leg_by_subdivision(d, edge, f"l{i}", sign=(-1) ** i)
        assert validate_complete(d) is None and surplus(d) == 2
        assert not is_theta_shaped(d)
        assert all(row[1:] == [0] * i for row in cycle_windings(d))


def test_cycle_windings_match_the_potential_oracle():
    rng = random.Random(23)
    diagrams = [petersen_with_legs(), kappa_diagram(5), example_two_leg_theta()]
    diagrams += [random_diagram(rng, max_legs=12) for _ in range(60)]
    for d in diagrams:
        for x in (d, _renamed_and_reordered(d, rng), relabel(d, "z")):
            assert validate_complete(x) is None
            assert cycle_windings(x) == cycle_windings_by_potentials(x)


def _theta_with_a_second_leg_at_u():
    d = theta_with_legs(1)
    return DecoratedDiagram(d.label, d.vertices, d.edges, d.legs + (Leg("l2", "u", 1, "e2"),))


@pytest.mark.parametrize("reader", [cycle_windings, is_theta_shaped])
@pytest.mark.parametrize(
    "fixture, code, element",
    [(_two_thetas, "disconnected", "x"), (_theta_with_a_second_leg_at_u, "incidence", "u")],
)
def test_cycle_readers_refuse_invalid_diagrams(reader, fixture, code, element):
    d = fixture()
    with pytest.raises(DiagramError) as raised:
        reader(d)
    assert (raised.value.violation.code, raised.value.violation.element) == (code, element)
    assert raised.value.violation == validate_complete(d)


@pytest.mark.parametrize(
    "read",
    [
        lambda d: multiplier(d, 5),
        lambda d: cwl_delta(unknot(), d, 5),
        cycle_windings,
        is_theta_shaped,
    ],
    ids=["multiplier", "cwl_delta", "cycle_windings", "is_theta_shaped"],
)
def test_each_diagram_reader_validates_once(monkeypatch, read):
    validate, calls = diagrams._validate, []
    monkeypatch.setattr(diagrams, "_validate", lambda d: calls.append(d) or validate(d))
    d = theta_with_legs(3)
    read(d)
    assert calls == [d]


def test_theta_shape_of_random_diagrams_follows_the_base_graph():
    rng = random.Random(7)
    for _ in range(40):
        d = random_diagram(rng, max_legs=8)
        assert is_theta_shaped(d) == (d.label == "theta")
        assert is_theta_shaped(_renamed_and_reordered(d, rng)) == (d.label == "theta")


def test_json_round_trip():
    d = example_two_leg_theta()
    again = DecoratedDiagram.from_json_dict(d.to_json_dict())
    assert again.vertices == d.vertices
    assert again.edges == d.edges
    assert again.legs == d.legs
    assert validate_complete(again) is None


def test_twists_default_positive_is_absent():
    d = theta()
    assert d.twists == {}
    assert "twists" not in d.to_json_dict()


def test_json_round_trip_keeps_integer_edge_twists():
    base = theta()
    d = DecoratedDiagram(
        "int-theta",
        base.vertices,
        tuple(Edge(i, e.tail, e.head, e.winding) for i, e in enumerate(base.edges, 1)),
        (),
        {1: -1, 2: 1, 3: 1},
    )
    again = DecoratedDiagram.from_json_dict(json.loads(json.dumps(d.to_json_dict())))
    assert again.twists == {1: -1, 2: 1, 3: 1}
    assert cwl_delta(unknot(), again, 2).sign == -1


def _theta_json(**changes):
    data = example_two_leg_theta().to_json_dict()
    data["twists"] = {"k": 1}
    data.update(changes)
    return data


@pytest.mark.parametrize(
    "field, value",
    [("winding", 1.9), ("winding", True), ("sign", 1.0), ("sign", False),
     ("twist", 1.5), ("twist", "one")],
)
def test_from_json_rejects_non_integer_numbers(field, value):
    data = _theta_json()
    if field == "winding":
        data["edges"][0]["winding"] = value
    elif field == "sign":
        data["legs"][0]["sign"] = value
    else:
        data["twists"]["k"] = value
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        DecoratedDiagram.from_json_dict(data)


def test_from_json_accepts_integers_and_decimal_strings():
    data = _theta_json()
    data["edges"][3]["winding"] = "1"
    data["legs"][1]["sign"] = "-1"
    data["twists"]["k"] = "-1"
    d = DecoratedDiagram.from_json_dict(data)
    assert d.edge_by_id("n1").winding == 1 and d.legs[1].sign == -1 and d.twists == {"k": -1}


@pytest.mark.parametrize(
    "data",
    [[1], "theta", _theta_json(edges=[5]), _theta_json(edges={"k": {}}), _theta_json(legs=5),
     _theta_json(legs=["l1"]), _theta_json(vertices="uv"), _theta_json(twists=[1])],
    ids=["list", "string", "edge-number", "edges-object", "legs-number", "leg-string",
         "vertices-string", "twists-list"],
)
def test_from_json_rejects_wrong_shapes(data):
    with pytest.raises(ValueError, match="must be an? (object|list)"):
        DecoratedDiagram.from_json_dict(data)


@pytest.mark.parametrize(
    "first, second", [(1, "1"), ("-2", -2), (0, "0")], ids=["int-str", "str-int", "zero"]
)
def test_from_json_rejects_edge_ids_that_print_alike(first, second):
    data = _theta_json()
    data["edges"][0]["id"], data["edges"][2]["id"] = first, second
    with pytest.raises(ValueError, match=f"edge ids {first!r} and {second!r} share the JSON key"):
        DecoratedDiagram.from_json_dict(data)


def test_exact_duplicate_edge_ids_are_left_to_validation():
    data = _theta_json()
    data["edges"][2]["id"] = data["edges"][0]["id"]
    d = DecoratedDiagram.from_json_dict(data)
    assert validate_complete(d).message == "duplicate edge ids"


@pytest.mark.parametrize("label", [["x", 1], {"a": 1}, 3, None, True])
def test_from_json_rejects_non_string_labels(label):
    with pytest.raises(ValueError, match="diagram label must be a string"):
        DecoratedDiagram.from_json_dict(_theta_json(label=label))


def test_from_json_missing_label_is_empty():
    data = _theta_json()
    del data["label"]
    assert DecoratedDiagram.from_json_dict(data).label == ""


# -- JSON schema properties ------------------------------------------------


@st.composite
def json_diagrams(draw):
    """Any diagram the JSON schema can carry; it need not be valid or complete."""
    vertices = draw(st.lists(json_ids, min_size=1, max_size=5, unique=True))
    vertex = st.sampled_from(vertices)
    # twist keys are strings in JSON, so edge ids must stay apart under str()
    edge_ids = draw(st.lists(json_ids, max_size=5, unique_by=str))
    edges = [Edge(i, draw(vertex), draw(vertex), draw(json_numbers)) for i in edge_ids]
    legs, twists = [], {}
    if edge_ids:
        edge = st.sampled_from(edge_ids)
        legs = draw(st.lists(st.builds(Leg, json_ids, vertex, json_numbers, edge), max_size=4))
        twists = draw(st.dictionaries(edge, json_numbers, max_size=3))
    return DecoratedDiagram(draw(st.text(max_size=5)), vertices, edges, legs, twists)


@given(json_diagrams())
def test_json_round_trip_property(d):
    assert DecoratedDiagram.from_json_dict(json.loads(json.dumps(d.to_json_dict()))) == d


def _id_paths(data):
    paths = [("vertices", i) for i in range(len(data["vertices"]))]
    paths += [("edges", i, k) for i in range(len(data["edges"])) for k in ("id", "tail", "head")]
    paths += [("legs", i, k) for i in range(len(data["legs"])) for k in ("id", "vertex", "edge")]
    return paths


def _number_paths(data):
    paths = [("edges", i, "winding") for i in range(len(data["edges"]))]
    paths += [("legs", i, "sign") for i in range(len(data["legs"]))]
    return paths + [("twists", k) for k in data.get("twists", {})]


@given(json_diagrams(), st.data())
def test_from_json_rejects_non_scalar_ids_property(d, data):
    good = d.to_json_dict()
    path = data.draw(st.sampled_from(_id_paths(good)))
    with pytest.raises(ValueError, match="must be a string or an integer"):
        DecoratedDiagram.from_json_dict(replaced(good, path, data.draw(non_scalars)))


@given(json_diagrams(), st.data())
def test_from_json_rejects_non_integer_numbers_property(d, data):
    good = d.to_json_dict()
    paths = _number_paths(good)
    if paths:
        path = data.draw(st.sampled_from(paths))
        with pytest.raises(ValueError, match="must be an integer or a decimal string"):
            DecoratedDiagram.from_json_dict(replaced(good, path, data.draw(non_scalars)))


@given(json_diagrams(), st.data())
def test_from_json_rejects_wrong_shapes_property(d, data):
    good = d.to_json_dict()
    good.setdefault("twists", {})
    field = data.draw(st.sampled_from(["edges", "legs", "vertices", "twists", "edge", "leg"]))
    if field == "twists":
        bad = replaced(good, ("twists",), data.draw(non_objects))
    elif field in ("edge", "leg") and good[field + "s"]:
        bad = replaced(good, (field + "s", 0), data.draw(non_objects))
    elif field in ("edges", "legs", "vertices"):
        bad = replaced(good, (field,), data.draw(non_lists))
    else:
        bad = data.draw(non_objects)  # the top level itself
    with pytest.raises(ValueError, match="must be an? (object|list)"):
        DecoratedDiagram.from_json_dict(bad)
