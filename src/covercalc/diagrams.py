"""Trivalent graphs with legs: the combinatorial shadow of graph Y-links.

A decorated diagram records a connected trivalent multigraph, an integer
winding on every edge (signed intersections with a spanning surface), legs
attached at their own trivalent vertices with a wrap sign, and optional
half-twist data. Completeness validation enforces the one-leg-per-vertex
rule that rules out chords and forks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Mapping, Optional, Sequence


@dataclass(frozen=True)
class Edge:
    id: Hashable
    tail: Hashable
    head: Hashable
    winding: int = 0


@dataclass(frozen=True)
class Leg:
    id: Hashable
    vertex: Hashable
    sign: int
    edge: Hashable  # the incident edge the wrap is counted on


@dataclass(frozen=True)
class Violation:
    code: str
    element: Hashable
    message: str


class DiagramError(ValueError):
    """Raised when an operation requires a valid complete diagram."""

    def __init__(self, violation: Violation):
        super().__init__(f"{violation.code}[{violation.element}]: {violation.message}")
        self.violation = violation


@dataclass
class DecoratedDiagram:
    label: str
    vertices: tuple
    edges: tuple
    legs: tuple = ()
    twists: dict = field(default_factory=dict)

    def __init__(self, label, vertices, edges, legs=(), twists=None):
        self.label = label
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.legs = tuple(legs)
        self.twists = dict(twists) if twists else {}

    def edge_by_id(self, edge_id) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise KeyError(edge_id)

    def to_json_dict(self) -> dict:
        data = {
            "label": self.label,
            "vertices": list(self.vertices),
            "edges": [
                {"id": e.id, "tail": e.tail, "head": e.head, "winding": e.winding}
                for e in self.edges
            ],
            "legs": [
                {"id": l.id, "vertex": l.vertex, "sign": l.sign, "edge": l.edge}
                for l in self.legs
            ],
        }
        if self.twists:
            data["twists"] = {str(k): v for k, v in self.twists.items()}
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "DecoratedDiagram":
        edges = tuple(
            Edge(e["id"], e["tail"], e["head"], int(e.get("winding", 0)))
            for e in data.get("edges", [])
        )
        legs = tuple(
            Leg(l["id"], l["vertex"], int(l["sign"]), l["edge"])
            for l in data.get("legs", [])
        )
        # JSON object keys are strings: map each back to the edge id it names
        edge_ids = {str(e.id): e.id for e in edges}
        return cls(
            label=str(data.get("label", "")),
            vertices=tuple(data.get("vertices", [])),
            edges=edges,
            legs=legs,
            twists={edge_ids.get(k, k): int(v) for k, v in data.get("twists", {}).items()},
        )


def _id_key(x) -> tuple:
    # deterministic ordering across mixed int/str ids
    return (0, x, "") if isinstance(x, int) else (1, 0, str(x))


def surplus(d: DecoratedDiagram) -> int:
    """Trivalent-vertex count minus leg count: the leading filtration grade."""
    return len(d.vertices) - len(d.legs)


def degree(d: DecoratedDiagram) -> Fraction:
    """Half the total vertex count of the dashed graph (trivalent + univalent)."""
    return Fraction(len(d.vertices) + len(d.legs), 2)


def validate_complete(d: DecoratedDiagram) -> Optional[Violation]:
    """Check the completeness invariants; return the first violation, or None.

    In order: well-formed references, trivalence (edge endpoints plus leg
    attachments sum to 3 at every vertex), one leg per vertex (no forks),
    connectivity of the edge graph, leg targets incident to their vertex,
    and surplus >= 2.
    """
    vset = set(d.vertices)
    if len(vset) != len(d.vertices):
        return Violation("reference", d.label, "duplicate vertex ids")
    edge_ids = [e.id for e in d.edges]
    if len(set(edge_ids)) != len(edge_ids):
        return Violation("reference", d.label, "duplicate edge ids")
    leg_ids = [l.id for l in d.legs]
    if len(set(leg_ids)) != len(leg_ids):
        return Violation("reference", d.label, "duplicate leg ids")
    for e in d.edges:
        if e.tail not in vset or e.head not in vset:
            return Violation("reference", e.id, "edge endpoint is not a vertex")
    for l in d.legs:
        if l.vertex not in vset:
            return Violation("reference", l.id, "leg attached to unknown vertex")
        if l.sign not in (1, -1):
            return Violation("reference", l.id, "leg wrap sign must be ±1")
        if l.edge not in set(edge_ids):
            return Violation("reference", l.id, "leg targets unknown edge")

    incidence = {v: 0 for v in d.vertices}
    for e in d.edges:
        incidence[e.tail] += 1
        incidence[e.head] += 1
    legs_at = {v: [] for v in d.vertices}
    for l in d.legs:
        incidence[l.vertex] += 1
        legs_at[l.vertex].append(l)
    for v in d.vertices:
        if incidence[v] != 3:
            return Violation(
                "incidence", v, f"vertex has total incidence {incidence[v]}, expected 3"
            )
    for v in d.vertices:
        if len(legs_at[v]) > 1:
            return Violation("fork", v, "more than one leg attached to a vertex")

    if d.vertices:
        seen = {d.vertices[0]}
        frontier = [d.vertices[0]]
        adjacency: dict = {v: [] for v in d.vertices}
        for e in d.edges:
            adjacency[e.tail].append(e.head)
            adjacency[e.head].append(e.tail)
        while frontier:
            v = frontier.pop()
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if len(seen) != len(d.vertices):
            stray = min((v for v in d.vertices if v not in seen), key=_id_key)
            return Violation("disconnected", stray, "edge graph is not connected")

    for l in d.legs:
        e = d.edge_by_id(l.edge)
        if l.vertex not in (e.tail, e.head):
            return Violation("leg-target", l.id, "target edge not incident to leg vertex")

    s = surplus(d)
    if s < 2:
        return Violation("surplus", d.label, f"surplus {s} is below the required 2")
    return None


def require_valid(d: DecoratedDiagram) -> None:
    violation = validate_complete(d)
    if violation is not None:
        raise DiagramError(violation)


@dataclass(frozen=True)
class Cycle:
    id: Hashable
    edge_coeffs: Mapping[Hashable, int]  # signed incidence, edge id -> ±1


@dataclass(frozen=True)
class CycleBasis:
    cycles: tuple


def cycle_basis(d: DecoratedDiagram, edge_order: Optional[Sequence] = None) -> CycleBasis:
    """Fundamental cycles of a deterministic spanning tree.

    Tree edges are chosen greedily in lowest-id order (or in the explicit
    ``edge_order`` if given, which exists so tests can vary the tree). Each
    non-tree edge contributes one cycle: the edge with coefficient +1 closed
    up by the signed tree path from its head back to its tail.
    """
    if edge_order is None:
        ordered = sorted(d.edges, key=lambda e: _id_key(e.id))
    else:
        by_id = {e.id: e for e in d.edges}
        ordered = [by_id[i] for i in edge_order]
        if len(ordered) != len(d.edges):
            raise ValueError("edge_order must enumerate every edge exactly once")

    parent = {v: v for v in d.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree = []
    chords = []
    for e in ordered:
        a, b = find(e.tail), find(e.head)
        if a == b:
            chords.append(e)
        else:
            parent[a] = b
            tree.append(e)

    roots = {find(v) for v in d.vertices}
    if len(roots) > 1:
        raise ValueError("cycle basis requires a connected edge graph")

    adjacency: dict = {v: [] for v in d.vertices}
    for e in tree:
        adjacency[e.tail].append((e.head, e, 1))
        adjacency[e.head].append((e.tail, e, -1))

    def tree_path(src, dst):
        # signed edges along the unique tree path src -> dst
        stack = [(src, [])]
        visited = {src}
        while stack:
            v, path = stack.pop()
            if v == dst:
                return path
            for w, e, sgn in adjacency[v]:
                if w not in visited:
                    visited.add(w)
                    stack.append((w, path + [(e, sgn)]))
        raise AssertionError("spanning tree path not found")

    cycles = []
    for e in chords:
        coeffs = {e.id: 1}
        if e.tail != e.head:
            for f, sgn in tree_path(e.head, e.tail):
                coeffs[f.id] = sgn
        cycles.append(Cycle(id=e.id, edge_coeffs=coeffs))
    return CycleBasis(cycles=tuple(cycles))


@dataclass(frozen=True)
class AffineWinding:
    """Winding of one basis cycle as an affine form in the leg variables."""

    cycle_id: Hashable
    constant: int
    coeffs: Mapping[Hashable, int]  # leg id -> ±1


def cycle_winding_affine(d: DecoratedDiagram, basis: CycleBasis) -> list[AffineWinding]:
    """Per-cycle winding as constant + sum of leg contributions.

    A leg in state ε=1 adds one signed wrap to its target edge, so it
    contributes (cycle incidence of that edge) · (wrap sign) · ε.
    """
    windings = {e.id: e.winding for e in d.edges}
    forms = []
    for cycle in basis.cycles:
        constant = sum(sgn * windings[eid] for eid, sgn in cycle.edge_coeffs.items())
        coeffs = {}
        for leg in d.legs:
            sgn = cycle.edge_coeffs.get(leg.edge, 0)
            if sgn:
                coeffs[leg.id] = sgn * leg.sign
        forms.append(AffineWinding(cycle_id=cycle.id, constant=constant, coeffs=coeffs))
    return forms


def sawn_edge_graph(d: DecoratedDiagram) -> list[tuple]:
    """Edge list after sawing off the legs and smoothing the freed vertices.

    Removing a leg leaves its attachment vertex with edge-degree 2; such
    vertices are suppressed by merging their two incident edge ends. The
    result is the underlying trivalent multigraph, returned as (tail, head)
    pairs with fresh orientation data discarded.
    """
    ends = []  # each edge as a mutable [endpoint, endpoint]
    for e in d.edges:
        ends.append([e.tail, e.head])
    alive = [True] * len(ends)

    def degree_slots(v):
        slots = []
        for i, pair in enumerate(ends):
            if not alive[i]:
                continue
            for j in (0, 1):
                if pair[j] == v:
                    slots.append((i, j))
        return slots

    changed = True
    while changed:
        changed = False
        vertex_pool = {p for i, pair in enumerate(ends) if alive[i] for p in pair}
        for v in sorted(vertex_pool, key=_id_key):
            slots = degree_slots(v)
            if len(slots) != 2:
                continue
            (i, ji), (k, jk) = slots
            if i == k:
                # isolated circle component; keep as a self-loop marker
                continue
            other = ends[k][1 - jk]
            ends[i][ji] = other
            alive[k] = False
            changed = True
            break
    return [tuple(pair) for i, pair in enumerate(ends) if alive[i]]


def is_theta_graph(edge_pairs: list[tuple]) -> bool:
    """True when the multigraph is two vertices joined by three parallel edges."""
    if len(edge_pairs) != 3:
        return False
    vertices = {v for pair in edge_pairs for v in pair}
    if len(vertices) != 2:
        return False
    return all(a != b for a, b in edge_pairs)


# -- construction helpers ------------------------------------------------


def theta(label: str = "theta", windings: Sequence[int] = (0, 0, 0)) -> DecoratedDiagram:
    """The theta graph: two vertices joined by three edges e1, e2, e3."""
    w1, w2, w3 = windings
    return DecoratedDiagram(
        label=label,
        vertices=("u", "v"),
        edges=(
            Edge("e1", "u", "v", w1),
            Edge("e2", "u", "v", w2),
            Edge("e3", "u", "v", w3),
        ),
    )


def subdivide_edge(
    d: DecoratedDiagram,
    edge_id,
    new_vertex,
    first_id,
    second_id,
    winding_split: Optional[tuple] = None,
) -> DecoratedDiagram:
    """Split edge tail->head into tail->new_vertex->head.

    The original winding goes on the first segment unless ``winding_split``
    is given. Twist data on the split edge is dropped (it no longer names a
    single leaf pairing).
    """
    old = d.edge_by_id(edge_id)
    if winding_split is None:
        winding_split = (old.winding, 0)
    wa, wb = winding_split
    edges = tuple(e for e in d.edges if e.id != edge_id) + (
        Edge(first_id, old.tail, new_vertex, wa),
        Edge(second_id, new_vertex, old.head, wb),
    )
    twists = {k: v for k, v in d.twists.items() if k != edge_id}
    return DecoratedDiagram(
        label=d.label,
        vertices=d.vertices + (new_vertex,),
        edges=edges,
        legs=d.legs,
        twists=twists,
    )


def add_leg(d: DecoratedDiagram, leg_id, vertex, sign, target_edge) -> DecoratedDiagram:
    return DecoratedDiagram(
        label=d.label,
        vertices=d.vertices,
        edges=d.edges,
        legs=d.legs + (Leg(leg_id, vertex, sign, target_edge),),
        twists=d.twists,
    )


def attach_leg_by_subdivision(
    d: DecoratedDiagram,
    edge_id,
    leg_id,
    sign: int = 1,
    target: str = "first",
) -> DecoratedDiagram:
    """Subdivide an edge and hang a leg on the fresh vertex.

    This is the move that adds one leg while keeping the diagram complete:
    surplus is unchanged, degree rises by one.
    """
    base = str(leg_id)
    new_vertex = f"w_{base}"
    first_id, second_id = f"{edge_id}~{base}a", f"{edge_id}~{base}b"
    out = subdivide_edge(d, edge_id, new_vertex, first_id, second_id)
    chosen = first_id if target == "first" else second_id
    return add_leg(out, leg_id, new_vertex, sign, chosen)
