"""Mod-p lift equations: which sheet assignments of a decoration survive.

Each oriented edge e imposes a_head = a_tail + offset in Z_p, where the
offset is the signed intersection count of the edge with the spanning
surface. On a connected graph the system either has no solution or exactly
p of them, one per value at the root: the values are potentials in Z_p
along ``diagrams.spanning_tree``, the search that also serves diagrams, and
the system is solvable iff every chord's cycle has offset sum 0 mod p.
"""
from __future__ import annotations

from collections.abc import Hashable, Mapping

from .diagrams import spanning_tree
from .records import (
    _json_id, _json_ids_apart, _json_int, _json_list, _json_object, _json_objects, _Record, _set,
)

MAX_LIFT_ENTRIES = 2**20  # refuse solutions holding more than this many vertex values (p * |V|)


class LiftEdge(_Record):
    """The equation a_head = a_tail + offset in Z_p."""

    __slots__ = ("id", "tail", "head", "offset")

    def __init__(self, id: Hashable, tail: Hashable, head: Hashable, offset: int = 0):
        _set(self, "id", id)
        _set(self, "tail", tail)
        _set(self, "head", head)
        _set(self, "offset", offset)


class LiftSystem(_Record):
    """The lift equations of ``edges`` on ``vertices`` modulo p >= 1."""

    __slots__ = ("vertices", "edges", "p")

    def __init__(self, vertices: tuple, edges: tuple, p: int):
        if p < 1:
            raise ValueError("modulus p must be >= 1")
        _set(self, "vertices", vertices)
        _set(self, "edges", edges)
        _set(self, "p", p)

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [
                {"id": e.id, "tail": e.tail, "head": e.head, "winding": e.offset}
                for e in self.edges
            ],
            "p": self.p,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LiftSystem":
        """Parse the ``to_json_dict`` form.

        The top level and every edge must be objects and ``vertices`` and
        ``edges`` lists. Vertex and edge ids, tails and heads must be JSON
        strings or integers, and two vertex ids may not print alike (1 and
        "1"), since solutions are written keyed by vertex strings. Windings
        (or offsets) and p must be JSON integers or decimal strings; anything
        else raises ValueError.
        """
        _json_object(data, "lift system")
        edges = tuple(
            LiftEdge(
                _json_id(e.get("id", i), "edge id"),
                _json_id(e["tail"], "edge tail"),
                _json_id(e["head"], "edge head"),
                _json_int(e.get("winding", e.get("offset", 0)), "edge winding"),
            )
            for i, e in enumerate(_json_objects(data.get("edges", []), "edges", "edge"))
        )
        vertices = _json_list(data.get("vertices", []), "vertices")
        vertices = tuple(_json_id(v, "vertex id") for v in vertices)
        _json_ids_apart(vertices, "vertex id")
        return cls(
            vertices=vertices,
            edges=edges,
            p=_json_int(data["p"], "p"),
        )


def _potentials(system: LiftSystem) -> dict | None:
    """Vertex values with the lowest-id root at 0, or None when inconsistent.

    Propagates values along ``diagrams.spanning_tree`` from the root, then
    checks the chords, the edges off the tree.
    """
    p = system.p
    if not system.vertices:
        return {}
    seen = set()
    for v in system.vertices:
        if v in seen:
            raise ValueError(f"duplicate vertex id {v!r} in lift system")
        seen.add(v)
    for e in system.edges:
        if e.tail not in seen or e.head not in seen:
            raise ValueError(f"edge {e.id} references an unknown vertex")

    root, steps, chords = spanning_tree(system.vertices, system.edges)
    if len(steps) != len(system.vertices) - 1:
        raise ValueError("lift system graph is not connected")
    potential = {root: 0}
    for e, parent, child, sign in steps:
        potential[child] = (potential[parent] + sign * e.offset) % p
    for e in chords:
        if (potential[e.head] - potential[e.tail] - e.offset) % p != 0:
            return None
    return potential


def solve(system: LiftSystem) -> list[dict] | None:
    """All solutions of the lift equations, or None when inconsistent.

    Solutions are ordered by the root's value 0..p-1 so output is
    reproducible. A consistent system whose p solutions would hold more
    than MAX_LIFT_ENTRIES vertex values is refused with ValueError before
    any is built.
    """
    potential = _potentials(system)
    if not potential:  # inconsistent, or no vertices
        return None if potential is None else []
    p = system.p
    entries = p * len(potential)
    if entries > MAX_LIFT_ENTRIES:
        raise ValueError(
            f"{p} solutions of {len(potential)} vertices are {entries} values, "
            f"over the output bound of {MAX_LIFT_ENTRIES}"
        )
    return [
        {v: (val + r) % p for v, val in potential.items()}
        for r in range(p)
    ]


def admissible(system: LiftSystem) -> bool:
    """True iff every loop's signed offset sum vanishes mod p."""
    return _potentials(system) is not None
