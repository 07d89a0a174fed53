import itertools
import json
import random
from fractions import Fraction

import pytest

from covercalc.diagrams import (
    DecoratedDiagram,
    Edge,
    Leg,
    attach_leg_by_subdivision,
    cycle_basis,
    cycle_winding_affine,
    degree,
    is_theta_graph,
    sawn_edge_graph,
    surplus,
    theta,
    validate_complete,
)
from covercalc.engine import cwl_delta
from covercalc.knots import unknot

from helpers import (
    chord_fixture,
    dumbbell,
    example_two_leg_theta,
    fork_fixture,
    k4_diagram,
    kappa_diagram,
    random_diagram,
    relabel,
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
    assert len(cycle_basis(theta()).cycles) == 2


def test_cycle_basis_single_loop():
    d = dumbbell()
    basis = cycle_basis(d)
    assert len(basis.cycles) == 2
    loop_cycles = [c for c in basis.cycles if len(c.edge_coeffs) == 1]
    assert len(loop_cycles) == 2


def test_cycle_basis_tree_is_empty():
    d = DecoratedDiagram(
        label="tree",
        vertices=("a", "b"),
        edges=(Edge("e", "a", "b"),),
    )
    assert cycle_basis(d).cycles == ()


def test_cycle_winding_affine_example_values():
    d = example_two_leg_theta()
    forms = cycle_winding_affine(d, cycle_basis(d))
    by_constant = sorted(forms, key=lambda f: f.constant)
    assert [f.constant for f in by_constant] == [0, 1]
    assert by_constant[0].coeffs == {"l1": 1}
    assert by_constant[1].coeffs == {"l2": 1}


def test_cycle_winding_no_legs_zero_windings():
    forms = cycle_winding_affine(theta(), cycle_basis(theta()))
    assert all(f.constant == 0 and not f.coeffs for f in forms)


def test_cycle_winding_single_constant():
    d = theta(windings=(0, 0, 3))
    forms = cycle_winding_affine(d, cycle_basis(d))
    constants = sorted(f.constant for f in forms)
    # e3 carries winding 3 and lies on exactly one fundamental cycle
    assert 3 in constants or -3 in constants


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


def _admissible_states(d, p, edge_order=None):
    forms = cycle_winding_affine(d, cycle_basis(d, edge_order=edge_order))
    legs = [l.id for l in d.legs]
    states = set()
    for bits in itertools.product((0, 1), repeat=len(legs)):
        eps = dict(zip(legs, bits))
        if all(
            (f.constant + sum(c * eps[lid] for lid, c in f.coeffs.items())) % p == 0
            for f in forms
        ):
            states.add(bits)
    return states


def test_admissible_set_independent_of_spanning_tree():
    rng = random.Random(19)
    for _ in range(15):
        d = random_diagram(rng, max_legs=8)
        p = rng.randint(1, 5)
        baseline = _admissible_states(d, p)
        ids = [e.id for e in d.edges]
        for _ in range(4):
            rng.shuffle(ids)
            assert _admissible_states(d, p, edge_order=list(ids)) == baseline


def test_sawn_edge_graph_of_theta_with_legs():
    for n in (0, 1, 4):
        d = theta_with_legs(n) if n else theta()
        assert is_theta_graph(sawn_edge_graph(d))


def test_sawn_edge_graph_non_theta_shapes():
    assert not is_theta_graph(sawn_edge_graph(dumbbell()))
    assert not is_theta_graph(sawn_edge_graph(k4_diagram()))
    assert not is_theta_graph(sawn_edge_graph(kappa_diagram(2)))


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
