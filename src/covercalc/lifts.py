"""Mod-p lift equations: which sheet assignments of a decoration survive.

Each oriented edge e imposes a_head = a_tail + offset in Z_p, where the
offset is the signed intersection count of the edge with the spanning
surface. On a connected graph the system either has no solution or exactly
p of them, one per value at the root.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Optional


@dataclass(frozen=True)
class LiftEdge:
    id: Hashable
    tail: Hashable
    head: Hashable
    offset: int = 0


@dataclass(frozen=True)
class LiftSystem:
    vertices: tuple
    edges: tuple
    p: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("modulus p must be >= 1")

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
        edges = tuple(
            LiftEdge(
                e.get("id", i),
                e["tail"],
                e["head"],
                int(e.get("winding", e.get("offset", 0))),
            )
            for i, e in enumerate(data.get("edges", []))
        )
        return cls(
            vertices=tuple(data.get("vertices", [])),
            edges=edges,
            p=int(data["p"]),
        )


def _id_key(x) -> tuple:
    return (0, x, "") if isinstance(x, int) else (1, 0, str(x))


def solve(system: LiftSystem) -> Optional[list[dict]]:
    """All solutions of the lift equations, or None when inconsistent.

    Propagates values along a spanning tree from the lowest-id root, then
    checks every remaining edge. Solutions are ordered by the root's value
    0..p-1 so output is reproducible.
    """
    p = system.p
    if not system.vertices:
        return []
    adjacency: dict = {}
    for v in system.vertices:
        if v in adjacency:
            raise ValueError(f"duplicate vertex id {v!r} in lift system")
        adjacency[v] = []
    for e in system.edges:
        if e.tail not in adjacency or e.head not in adjacency:
            raise ValueError(f"edge {e.id} references an unknown vertex")
        adjacency[e.tail].append((e.head, e.offset))
        adjacency[e.head].append((e.tail, -e.offset))

    root = min(system.vertices, key=_id_key)
    potential = {root: 0}
    frontier = [root]
    while frontier:
        v = frontier.pop()
        for w, off in adjacency[v]:
            if w not in potential:
                potential[w] = (potential[v] + off) % p
                frontier.append(w)
    if len(potential) != len(system.vertices):
        raise ValueError("lift system graph is not connected")

    for e in system.edges:
        if (potential[e.head] - potential[e.tail] - e.offset) % p != 0:
            return None

    return [
        {v: (val + r) % p for v, val in potential.items()}
        for r in range(p)
    ]


def admissible(system: LiftSystem) -> bool:
    """True iff every loop's signed offset sum vanishes mod p."""
    return solve(system) is not None
