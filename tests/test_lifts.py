import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from covercalc import lifts
from covercalc.lifts import LiftEdge, LiftSystem, admissible, solve

from helpers import json_ids, json_numbers, non_lists, non_objects, non_scalars, replaced


def triangle(offsets, p, directed_cycle=True):
    a, b, c = offsets
    if directed_cycle:
        edges = (LiftEdge("e1", 1, 2, a), LiftEdge("e2", 2, 3, b), LiftEdge("e3", 3, 1, c))
    else:
        edges = (LiftEdge("e1", 1, 2, a), LiftEdge("e2", 2, 3, b), LiftEdge("e3", 1, 3, c))
    return LiftSystem(vertices=(1, 2, 3), edges=edges, p=p)


def brute_force(system):
    solutions = []
    for values in itertools.product(range(system.p), repeat=len(system.vertices)):
        assign = dict(zip(system.vertices, values))
        if all(
            (assign[e.head] - assign[e.tail] - e.offset) % system.p == 0
            for e in system.edges
        ):
            solutions.append(assign)
    return solutions


def as_set(solutions):
    return {tuple(sorted(s.items(), key=lambda kv: str(kv[0]))) for s in solutions}


def test_triangle_zero_offsets_has_constant_solutions():
    sols = solve(triangle((0, 0, 0), 3))
    assert sols is not None and len(sols) == 3
    assert all(len(set(s.values())) == 1 for s in sols)


def test_directed_cycle_with_unit_surplus_is_inadmissible():
    system = triangle((1, 0, 0), 3)
    assert solve(system) is None
    assert as_set(brute_force(system)) == set()


def test_single_edge_offset_reduces_mod_p():
    system = LiftSystem(
        vertices=("a", "b"), edges=(LiftEdge("e", "a", "b", 5),), p=2
    )
    sols = solve(system)
    assert sols is not None and len(sols) == 2
    for s in sols:
        assert (s["b"] - s["a"]) % 2 == 1


def test_p1_always_admissible():
    assert admissible(triangle((1, 2, 3), 1))


def test_theta_cycle_offsets_inadmissible():
    # two independent cycles with offset sums 0 and 1 mod 2
    system = LiftSystem(
        vertices=("u", "v"),
        edges=(
            LiftEdge("e1", "u", "v", 0),
            LiftEdge("e2", "u", "v", 0),
            LiftEdge("e3", "u", "v", 1),
        ),
        p=2,
    )
    assert not admissible(system)
    assert as_set(brute_force(system)) == set()


def test_acyclic_always_admissible():
    system = LiftSystem(
        vertices=(1, 2, 3, 4),
        edges=(LiftEdge("a", 1, 2, 7), LiftEdge("b", 2, 3, -4), LiftEdge("c", 3, 4, 2)),
        p=5,
    )
    assert admissible(system)


def test_disconnected_raises():
    system = LiftSystem(
        vertices=(1, 2, 3, 4),
        edges=(LiftEdge("a", 1, 2, 0), LiftEdge("b", 3, 4, 0)),
        p=3,
    )
    with pytest.raises(ValueError):
        solve(system)


def test_edge_on_an_unknown_vertex_is_named():
    system = LiftSystem(vertices=(1, 2), edges=(LiftEdge("a", 1, 2, 0), LiftEdge("b", 2, 7, 0)), p=3)
    with pytest.raises(ValueError, match="^edge b references an unknown vertex$"):
        solve(system)


def test_rejects_bad_modulus():
    with pytest.raises(ValueError):
        LiftSystem(vertices=(1,), edges=(), p=0)


def random_system(rng):
    n = rng.randint(1, 5)
    vertices = tuple(range(1, n + 1))
    # spanning path keeps it connected, then extra random edges
    edges = [
        LiftEdge(f"t{i}", i, i + 1, rng.randint(-6, 6)) for i in range(1, n)
    ]
    for j in range(rng.randint(0, 4)):
        a, b = rng.randint(1, n), rng.randint(1, n)
        edges.append(LiftEdge(f"x{j}", a, b, rng.randint(-6, 6)))
    return LiftSystem(vertices=vertices, edges=tuple(edges), p=rng.randint(1, 5))


def test_solver_matches_brute_force():
    rng = random.Random(42)
    for _ in range(100):
        system = random_system(rng)
        expected = as_set(brute_force(system))
        got = solve(system)
        assert as_set(got or []) == expected
        assert len(got or []) in (0, system.p)


def test_solutions_ordered_by_root_value():
    system = triangle((1, 1, -2), 4)
    sols = solve(system)
    assert sols is not None
    root = min(system.vertices)
    assert [s[root] for s in sols] == [0, 1, 2, 3]


def test_admissible_invariant_under_edge_reversal():
    rng = random.Random(23)
    for _ in range(50):
        system = random_system(rng)
        k = rng.randrange(len(system.edges)) if system.edges else None
        if k is None:
            continue
        flipped = list(system.edges)
        e = flipped[k]
        flipped[k] = LiftEdge(e.id, e.head, e.tail, -e.offset)
        other = LiftSystem(system.vertices, tuple(flipped), system.p)
        assert admissible(system) == admissible(other)


def test_json_round_trip():
    system = triangle((1, 0, -1), 3)
    again = LiftSystem.from_json_dict(system.to_json_dict())
    assert again.p == 3
    assert as_set(solve(again) or []) == as_set(solve(system) or [])


def test_duplicate_vertex_id_is_named():
    system = LiftSystem(vertices=(1, 2, 2, 3), edges=triangle((0, 0, 0), 3).edges, p=3)
    with pytest.raises(ValueError, match="duplicate vertex id 2"):
        solve(system)


@pytest.mark.parametrize("offset, p", [(0, 3), (3, 3), (2, 3), (-4, 2), (5, 1)])
def test_self_loop_is_a_chord_of_its_own(offset, p):
    system = LiftSystem(
        vertices=("a", "b"),
        edges=(LiftEdge("loop", "b", "b", offset), LiftEdge("e", "a", "b", 1)),
        p=p,
    )
    got = solve(system)
    assert (got is not None) == (offset % p == 0)
    assert as_set(got or []) == as_set(brute_force(system))


def test_parallel_chords_match_brute_force():
    # one tree edge and two chords, all joining the same two vertices
    for a, b, c in itertools.product((0, 1, 2, -3), repeat=3):
        system = LiftSystem(
            vertices=(2, 1),
            edges=(LiftEdge("e1", 1, 2, a), LiftEdge("e2", 1, 2, b), LiftEdge("e3", 2, 1, c)),
            p=3,
        )
        got = solve(system)
        assert (got is not None) == ((a - b) % 3 == 0 and (a + c) % 3 == 0)
        assert as_set(got or []) == as_set(brute_force(system))


def test_solutions_over_the_output_bound_are_refused(monkeypatch):
    # p solutions of |V| values each: 3 * 3 = 9 entries for the triangle
    monkeypatch.setattr(lifts, "MAX_LIFT_ENTRIES", 9)
    assert len(solve(triangle((1, 1, -2), 3))) == 3
    with pytest.raises(ValueError, match="are 12 values, over the output bound of 9"):
        solve(triangle((1, 1, -2), 4))
    # an inconsistent system has no solutions to build and is still answered
    assert solve(triangle((1, 0, 0), 4)) is None


def test_admissible_builds_no_solutions(monkeypatch):
    monkeypatch.setattr(lifts, "MAX_LIFT_ENTRIES", 0)
    for p in (1, 4, 10**30):
        assert admissible(triangle((1, 1, -2), p))
        assert admissible(triangle((1, 0, 0), p)) == (p == 1)


def lift_json(**changes):
    data = triangle((1, 0, -1), 3).to_json_dict()
    data.update(changes)
    return data


@pytest.mark.parametrize(
    "data, what",
    [
        (lift_json(p=2.7), "p"),
        (lift_json(p=True), "p"),
        (lift_json(p="three"), "p"),
        (lift_json(edges=[{"tail": 1, "head": 2, "winding": 1.9}]), "winding"),
        (lift_json(edges=[{"tail": 1, "head": 2, "offset": False}]), "winding"),
    ],
    ids=["p-float", "p-bool", "p-word", "winding-float", "offset-bool"],
)
def test_from_json_rejects_non_integer_numbers(data, what):
    with pytest.raises(ValueError, match=f"{what} must be an integer"):
        LiftSystem.from_json_dict(data)


def test_from_json_accepts_decimal_strings():
    system = LiftSystem.from_json_dict(
        lift_json(p="3", edges=[{"tail": 1, "head": 2, "offset": "-1"}, {"tail": 2, "head": 3}])
    )
    assert system.p == 3
    assert [e.offset for e in system.edges] == [-1, 0]


@pytest.mark.parametrize(
    "data",
    [[1], None, lift_json(edges=[5]), lift_json(edges={"e1": {}}), lift_json(vertices=3)],
    ids=["list", "null", "edge-number", "edges-object", "vertices-number"],
)
def test_from_json_rejects_wrong_shapes(data):
    with pytest.raises(ValueError, match="must be an? (object|list)"):
        LiftSystem.from_json_dict(data)


@pytest.mark.parametrize(
    "vertices", [[1, "1"], ["2", 1, 2], [3, -3, "-3"]], ids=["int-str", "str-int", "negative"]
)
def test_from_json_rejects_vertex_ids_that_print_alike(vertices):
    with pytest.raises(ValueError, match="vertex ids .* share the JSON key"):
        LiftSystem.from_json_dict(lift_json(vertices=vertices))


def test_exact_duplicate_vertex_ids_from_json_are_named_by_the_solver():
    system = LiftSystem.from_json_dict(lift_json(vertices=[1, 2, 2, 3]))
    with pytest.raises(ValueError, match="duplicate vertex id 2"):
        solve(system)


# -- JSON schema properties ------------------------------------------------


@st.composite
def json_lift_systems(draw):
    """Any lift system the JSON schema can carry; it need not be connected."""
    # solutions are keyed by vertex strings, so vertex ids must stay apart under str()
    vertices = draw(st.lists(json_ids, min_size=1, max_size=5, unique_by=str))
    vertex = st.sampled_from(vertices)
    edges = draw(st.lists(st.builds(LiftEdge, json_ids, vertex, vertex, json_numbers), max_size=5))
    return LiftSystem(tuple(vertices), tuple(edges), draw(st.integers(1, 2**70)))


@given(json_lift_systems())
def test_json_round_trip_property(system):
    assert LiftSystem.from_json_dict(json.loads(json.dumps(system.to_json_dict()))) == system


@given(json_lift_systems(), st.data())
def test_from_json_rejects_non_scalar_ids_property(system, data):
    good = system.to_json_dict()
    paths = [("vertices", i) for i in range(len(good["vertices"]))]
    paths += [("edges", i, k) for i in range(len(good["edges"])) for k in ("id", "tail", "head")]
    path = data.draw(st.sampled_from(paths))
    with pytest.raises(ValueError, match="must be a string or an integer"):
        LiftSystem.from_json_dict(replaced(good, path, data.draw(non_scalars)))


@given(json_lift_systems(), st.data())
def test_from_json_rejects_non_integer_numbers_property(system, data):
    good = system.to_json_dict()
    paths = [("p",)] + [("edges", i, "winding") for i in range(len(good["edges"]))]
    path = data.draw(st.sampled_from(paths))
    with pytest.raises(ValueError, match="must be an integer or a decimal string"):
        LiftSystem.from_json_dict(replaced(good, path, data.draw(non_scalars)))


@given(json_lift_systems(), st.data())
def test_from_json_rejects_wrong_shapes_property(system, data):
    good = system.to_json_dict()
    field = data.draw(st.sampled_from(["edges", "vertices", "edge", "top"]))
    if field == "edge" and good["edges"]:
        bad = replaced(good, ("edges", 0), data.draw(non_objects))
    elif field in ("edges", "vertices"):
        bad = replaced(good, (field,), data.draw(non_lists))
    else:
        bad = data.draw(non_objects)
    with pytest.raises(ValueError, match="must be an? (object|list)"):
        LiftSystem.from_json_dict(bad)
