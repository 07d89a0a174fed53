"""Value semantics of the library's records, as frozen dataclasses gave them.

Each record compares equal only to an instance of its own class with equal
fields, hashes over its fields (except the mutable ``DecoratedDiagram``),
refuses assignment, takes positional or keyword arguments with its defaults
and prints in the dataclass form.
"""
import copy
import pickle

import pytest

from covercalc.diagrams import DecoratedDiagram, Edge, Leg, Violation
from covercalc.engine import LeadingTerm
from covercalc.lifts import LiftEdge, LiftSystem
from covercalc.signs import GraphIso

# (class, keyword arguments) for every record
KWARGS = [
    (Edge, dict(id="e1", tail="u", head="v", winding=2)),
    (Leg, dict(id="l1", vertex="w", sign=-1, edge="e1")),
    (Violation, dict(code="fork", element="w", message="two legs")),
    (LiftEdge, dict(id="e1", tail="u", head="v", offset=2)),
    (LiftSystem, dict(vertices=("u", "v"), edges=(LiftEdge("e1", "u", "v", 1),), p=3)),
    (GraphIso, dict(edge_map={"e1": "f1"})),
    (LeadingTerm, dict(magnitude=6, sign=-1, grade=2, label="theta", p=3, note="n")),
    (DecoratedDiagram, dict(
        label="d", vertices=("u", "v"), edges=(Edge("e1", "u", "v"),),
        legs=(Leg("l1", "u", 1, "e1"),), twists={"e1": 1},
    )),
]
FROZEN = [(cls, kw) for cls, kw in KWARGS if cls not in (DecoratedDiagram, GraphIso)]
ids = [cls.__name__ for cls, _ in KWARGS]


@pytest.mark.parametrize("cls, kwargs", KWARGS, ids=ids)
def test_positional_and_keyword_construction_agree(cls, kwargs):
    by_keyword = cls(**kwargs)
    by_position = cls(*kwargs.values())
    assert by_keyword == by_position
    assert not (by_keyword != by_position)
    for name, value in kwargs.items():
        assert getattr(by_keyword, name) == value


def _other(value):
    """A valid value of the same kind that differs from ``value``."""
    if isinstance(value, (dict, tuple)):
        return type(value)()
    return value + 1 if isinstance(value, int) else f"{value}'"


@pytest.mark.parametrize("cls, kwargs", KWARGS, ids=ids)
def test_a_changed_field_breaks_equality(cls, kwargs):
    record = cls(**kwargs)
    for name, value in kwargs.items():
        assert record != cls(**{**kwargs, name: _other(value)})


@pytest.mark.parametrize("cls, kwargs", KWARGS, ids=ids)
def test_repr_has_the_dataclass_form(cls, kwargs):
    fields = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(cls(**kwargs)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, kwargs", KWARGS, ids=ids)
def test_copies_and_pickles_compare_equal(cls, kwargs):
    record = cls(**kwargs)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_records_of_different_classes_never_compare_equal():
    assert Edge("e1", "u", "v", 2) != LiftEdge("e1", "u", "v", 2)
    assert LiftEdge("e1", "u", "v", 2) != Edge("e1", "u", "v", 2)
    assert Edge("e1", "u", "v", 2) != ("e1", "u", "v", 2)
    assert Violation("a", "b", "c") != Leg("a", "b", "c", "d")


@pytest.mark.parametrize("cls, kwargs", FROZEN, ids=[cls.__name__ for cls, _ in FROZEN])
def test_frozen_records_hash_over_their_fields(cls, kwargs):
    assert hash(cls(**kwargs)) == hash(cls(*kwargs.values()))
    assert len({cls(**kwargs), cls(**kwargs)}) == 1


def test_graph_iso_hashes_only_a_hashable_map():
    with pytest.raises(TypeError):
        hash(GraphIso({"e1": "f1"}))
    assert hash(GraphIso((("e1", "f1"),))) == hash(GraphIso((("e1", "f1"),)))


def test_decorated_diagram_is_mutable_and_unhashable():
    d = DecoratedDiagram("d", ("u", "v"), (Edge("e1", "u", "v"),))
    with pytest.raises(TypeError):
        hash(d)
    same = DecoratedDiagram("d", ["u", "v"], [Edge("e1", "u", "v")], [], None)
    assert d == same
    same.label = "other"
    assert same.label == "other" and d != same


@pytest.mark.parametrize("cls, kwargs", [kw for kw in KWARGS if kw[0] is not DecoratedDiagram],
                         ids=[i for i in ids if i != "DecoratedDiagram"])
def test_assignment_and_deletion_raise(cls, kwargs):
    record = cls(**kwargs)
    name = next(iter(kwargs))
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(record, name, "changed")
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(record, name)
    assert getattr(record, name) == kwargs[name]


def test_defaults():
    assert Edge("e1", "u", "v") == Edge("e1", "u", "v", 0)
    assert Edge("e1", "u", "v").winding == 0
    assert LiftEdge("e1", "u", "v").offset == 0
    assert LeadingTerm(0, None, 2, "d", 3).note is None
    d = DecoratedDiagram("d", (), ())
    assert (d.legs, d.twists) == ((), {})


@pytest.mark.parametrize("p", [0, -1])
def test_lift_system_refuses_p_below_1(p):
    with pytest.raises(ValueError, match="modulus p must be >= 1"):
        LiftSystem(vertices=("u",), edges=(), p=p)
