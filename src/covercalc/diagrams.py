"""Trivalent graphs with legs: the combinatorial shadow of graph Y-links.

A decorated diagram records a connected trivalent multigraph, an integer
winding on every edge (signed intersections with a spanning surface), legs
attached at their own trivalent vertices with a wrap sign, and optional
half-twist data. Completeness validation enforces the one-leg-per-vertex
rule that rules out chords and forks.

``Edge``, ``Leg`` and ``Violation`` are frozen records on ``records._Record``
(slots, equality and hashing by fields, assignment raises), the value
semantics of frozen dataclasses without importing ``dataclasses``.
``DecoratedDiagram`` compares by fields too but stays mutable and
unhashable.

One graph search serves every traversal: ``spanning_tree`` grows a tree
from the lowest-id vertex, and validation checks that it reaches every
vertex. ``_windings`` validates once and reuses that tree: one pass up it
gives every edge its coefficients in the fundamental cycles, in O(E b) for
b cycles, from which it sums windings and leg wraps and finds bridges.
``engine``, ``cycle_windings`` and ``is_theta_shaped`` read only its
result, so each raises DiagramError for an invalid diagram. The mod-p lift
solver in ``lifts`` uses the same search for vertex potentials in Z_p.
"""
from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence

from .records import (
    _json_id, _json_ids_apart, _json_int, _json_list, _json_object, _json_objects, _json_str,
    _Record, _set,
)


class Edge(_Record):
    """An oriented edge tail -> head with its winding."""

    __slots__ = ("id", "tail", "head", "winding")

    def __init__(self, id: Hashable, tail: Hashable, head: Hashable, winding: int = 0):
        _set(self, "id", id)
        _set(self, "tail", tail)
        _set(self, "head", head)
        _set(self, "winding", winding)


class Leg(_Record):
    """A leg at ``vertex`` with wrap ``sign``, counted on the incident ``edge``."""

    __slots__ = ("id", "vertex", "sign", "edge")

    def __init__(self, id: Hashable, vertex: Hashable, sign: int, edge: Hashable):
        _set(self, "id", id)
        _set(self, "vertex", vertex)
        _set(self, "sign", sign)
        _set(self, "edge", edge)


class Violation(_Record):
    """The first broken completeness rule: its code, the element and why."""

    __slots__ = ("code", "element", "message")

    def __init__(self, code: str, element: Hashable, message: str):
        _set(self, "code", code)
        _set(self, "element", element)
        _set(self, "message", message)


class DiagramError(ValueError):
    """Raised when an operation requires a valid complete diagram."""

    def __init__(self, violation: Violation):
        super().__init__(f"{violation.code}[{violation.element}]: {violation.message}")
        self.violation = violation


class DecoratedDiagram(_Record):
    """A decorated diagram; unlike the other records it is mutable and unhashable."""

    __slots__ = ("label", "vertices", "edges", "legs", "twists")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

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
        """Parse the ``to_json_dict`` form.

        The top level and every edge and leg must be objects, ``vertices``,
        ``edges`` and ``legs`` lists and ``twists`` an object. Ids and the
        ids an edge or leg refers to must be JSON strings or integers, and two
        edge ids may not print alike (1 and "1"), since twists key them by
        their string.
        Windings, signs and twists must be JSON integers or decimal strings;
        anything else raises ValueError rather than being truncated.
        """
        _json_object(data, "diagram")
        edges = tuple(
            Edge(
                _json_id(e["id"], "edge id"),
                _json_id(e["tail"], "edge tail"),
                _json_id(e["head"], "edge head"),
                _json_int(e.get("winding", 0), "edge winding"),
            )
            for e in _json_objects(data.get("edges", []), "edges", "edge")
        )
        legs = tuple(
            Leg(
                _json_id(l["id"], "leg id"),
                _json_id(l["vertex"], "leg vertex"),
                _json_int(l["sign"], "leg sign"),
                _json_id(l["edge"], "leg edge"),
            )
            for l in _json_objects(data.get("legs", []), "legs", "leg")
        )
        # JSON object keys are strings: map each back to the edge id it names
        _json_ids_apart((e.id for e in edges), "edge id")
        edge_ids = {str(e.id): e.id for e in edges}
        twists = _json_object(data.get("twists", {}), "twists")
        vertices = _json_list(data.get("vertices", []), "vertices")
        return cls(
            label=_json_str(data.get("label", ""), "diagram label"),
            vertices=tuple(_json_id(v, "vertex id") for v in vertices),
            edges=edges,
            legs=legs,
            twists={edge_ids.get(k, k): _json_int(v, "twist") for k, v in twists.items()},
        )


def _id_key(x) -> tuple:
    # deterministic ordering across mixed int/str ids
    return (0, x, "") if isinstance(x, int) else (1, 0, str(x))


def spanning_tree(vertices: Sequence, edges: Sequence) -> tuple:
    """A spanning tree of the component of the lowest-id vertex.

    ``edges`` are objects with ``tail`` and ``head`` among ``vertices``
    (which must be non-empty). Returns ``(root, steps, chords)``: each step
    ``(edge, parent, child, sign)`` reaches a new vertex, with sign +1 when
    the edge runs parent -> child and -1 otherwise, and ``chords`` are the
    remaining edges in input order, self-loops included. The graph is
    connected iff there are ``len(vertices) - 1`` steps.
    """
    incident: dict = {v: [] for v in vertices}
    for i, e in enumerate(edges):
        incident[e.tail].append((i, e.head, 1))
        incident[e.head].append((i, e.tail, -1))
    root = min(vertices, key=_id_key)
    steps, used, seen, stack = [], set(), {root}, [root]
    while stack:
        v = stack.pop()
        for i, w, sign in incident[v]:
            if w not in seen:
                seen.add(w)
                used.add(i)
                steps.append((edges[i], v, w, sign))
                stack.append(w)
    return root, steps, [e for i, e in enumerate(edges) if i not in used]


def surplus(d: DecoratedDiagram) -> int:
    """Trivalent-vertex count minus leg count: the leading filtration grade."""
    return len(d.vertices) - len(d.legs)


def degree(d: DecoratedDiagram) -> Fraction:
    """Half the total vertex count of the dashed graph (trivalent + univalent)."""
    # imported here to keep it off the CLI's import path; the return
    # annotation is a string (PEP 563) and never needs the name
    from fractions import Fraction

    return Fraction(len(d.vertices) + len(d.legs), 2)


def _twist_sign(d: DecoratedDiagram) -> int | None:
    """d's sign against the all-positive orientation: its twists' product, or None unless all are ±1."""
    sign = 1
    for e in d.edges:
        t = d.twists.get(e.id)
        if t not in (1, -1):
            return None
        sign *= t
    return sign


def validate_complete(d: DecoratedDiagram) -> Violation | None:
    """Check the completeness invariants; return the first violation, or None.

    In order: well-formed references, trivalence (edge endpoints plus leg
    attachments sum to 3 at every vertex), one leg per vertex (no forks),
    connectivity of the edge graph (the lowest-id vertex the spanning tree
    misses is named), leg targets incident to their vertex, and surplus >= 2.
    """
    violation = _validate(d)
    return violation if isinstance(violation, Violation) else None


def _validate(d: DecoratedDiagram) -> Violation | tuple:
    # validate_complete's violation or, for a valid d, the spanning_tree it grew
    incidence = dict.fromkeys(d.vertices, 0)
    if len(incidence) != len(d.vertices):
        return Violation("reference", d.label, "duplicate vertex ids")
    ends = {e.id: (e.tail, e.head) for e in d.edges}
    if len(ends) != len(d.edges):
        return Violation("reference", d.label, "duplicate edge ids")
    leg_ids = [l.id for l in d.legs]
    if len(set(leg_ids)) != len(leg_ids):
        return Violation("reference", d.label, "duplicate leg ids")
    # incidence is counted with the reference checks and read once they all hold
    for e in d.edges:
        if e.tail not in incidence or e.head not in incidence:
            return Violation("reference", e.id, "edge endpoint is not a vertex")
        incidence[e.tail] += 1
        incidence[e.head] += 1
    legs_at = dict.fromkeys(d.vertices, 0)
    for l in d.legs:
        if l.vertex not in incidence:
            return Violation("reference", l.id, "leg attached to unknown vertex")
        if l.sign not in (1, -1):
            return Violation("reference", l.id, "leg wrap sign must be ±1")
        if l.edge not in ends:
            return Violation("reference", l.id, "leg targets unknown edge")
        incidence[l.vertex] += 1
        legs_at[l.vertex] += 1
    for k in d.twists:
        if k not in ends:
            return Violation("reference", k, "twist on unknown edge")

    for v in d.vertices:
        if incidence[v] != 3:
            return Violation(
                "incidence", v, f"vertex has total incidence {incidence[v]}, expected 3"
            )
    for v in d.vertices:
        if legs_at[v] > 1:
            return Violation("fork", v, "more than one leg attached to a vertex")

    tree = None
    if d.vertices:
        tree = root, steps, _ = spanning_tree(d.vertices, d.edges)
        if len(steps) != len(d.vertices) - 1:
            reached = {root} | {child for _, _, child, _ in steps}
            stray = min((v for v in d.vertices if v not in reached), key=_id_key)
            return Violation("disconnected", stray, "edge graph is not connected")

    for l in d.legs:
        if l.vertex not in ends[l.edge]:
            return Violation("leg-target", l.id, "target edge not incident to leg vertex")

    s = surplus(d)
    if s < 2:
        return Violation("surplus", d.label, f"surplus {s} is below the required 2")
    return tree


def _windings(d: DecoratedDiagram) -> tuple:
    """Validate d once and return its ``(constants, vectors, bridgeless)``.

    Raises DiagramError on d's first violation, else reuses the spanning_tree
    validation grew. Cycle k runs the k-th chord (in edge order) tail -> head
    and closes through the tree; a tree edge from parent to child runs along
    it once per end of chord k below the child, +1 for a tail and -1 for a
    head, times the step sign, summed in one pass up the tree. ``constants``
    are the cycles' windings, ``vectors`` each leg's sign times the cycle
    vector of its target edge, and ``bridgeless`` says no edge has the zero
    vector, a bridge's. O((E + L) b) for b cycles.
    """
    tree = _validate(d)
    if isinstance(tree, Violation):
        raise DiagramError(tree)
    _, steps, chords = tree
    below = {v: [0] * len(chords) for v in d.vertices}
    cycles = {}
    for k, e in enumerate(chords):
        cycles[e.id] = [int(i == k) for i in range(len(chords))]
        below[e.tail][k] += 1
        below[e.head][k] -= 1
    for e, parent, child, sign in reversed(steps):
        cycles[e.id] = [sign * c for c in below[child]]
        below[parent] = [a + c for a, c in zip(below[parent], below[child])]
    constants = [0] * len(chords)
    for e in d.edges:
        if e.winding:
            constants = [a + e.winding * c for a, c in zip(constants, cycles[e.id])]
    vectors = [tuple(l.sign * c for c in cycles[l.edge]) for l in d.legs]
    return tuple(constants), vectors, all(map(any, cycles.values()))


def cycle_windings(d: DecoratedDiagram) -> list[list[int]]:
    """Winding of each fundamental cycle as a row [constant, c_1, ..., c_L].

    A leg in state eps = 1 adds one signed wrap to its target edge, so a
    cycle winds by the sum of winding(e) times the edge's coefficient in it
    plus the sum of sign(l) * eps_l times the coefficient of the edge leg l
    targets (slot i is the i-th leg of ``d.legs``). One row per chord, in
    edge order; the rows are a basis of the cycle windings. O((E + L) b)
    for b cycles. Raises DiagramError for an invalid d.
    """
    constants, vectors, _ = _windings(d)
    return [list(row) for row in zip(constants, *vectors)]


def is_theta_shaped(d: DecoratedDiagram) -> bool:
    """True when sawing the legs off d leaves the theta graph.

    Sawing frees each leg vertex and merges its two edges, so the sawn graph
    has the two leg-free vertices of a surplus-2 diagram joined by three
    edges: the theta graph or the dumbbell (two loops and a bridge). Sawing
    keeps bridges, so d is theta-shaped iff it has surplus 2 and no bridge.
    Raises DiagramError for an invalid d.
    """
    _, _, bridgeless = _windings(d)
    return surplus(d) == 2 and bridgeless


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


def attach_leg_by_subdivision(
    d: DecoratedDiagram,
    edge_id,
    leg_id,
    sign: int = 1,
    target: str = "first",
) -> DecoratedDiagram:
    """Subdivide an edge and hang a leg on the fresh vertex.

    Edge tail -> head becomes tail -> w -> head with the winding on the
    first segment, and the leg's wrap is counted on the ``target`` segment.
    A leg that targeted the split edge moves to the segment at its vertex:
    the first at the tail, the second at the head, and the first for a
    self-loop, whose segments both end there. The two segments run along the
    same cycles, so no cycle winding changes. Twist data on the split edge
    is dropped (it no longer names a single leaf pairing). This is the move
    that adds one leg while keeping the diagram complete: surplus is
    unchanged, degree rises by one.
    """
    old = d.edge_by_id(edge_id)
    base = str(leg_id)
    w = f"w_{base}"
    first = Edge(f"{edge_id}~{base}a", old.tail, w, old.winding)
    second = Edge(f"{edge_id}~{base}b", w, old.head, 0)
    legs = tuple(
        Leg(l.id, l.vertex, l.sign, (first if l.vertex == old.tail else second).id)
        if l.edge == edge_id else l
        for l in d.legs
    )
    return DecoratedDiagram(
        label=d.label,
        vertices=d.vertices + (w,),
        edges=tuple(e for e in d.edges if e.id != edge_id) + (first, second),
        legs=legs + (Leg(leg_id, w, sign, (first if target == "first" else second).id),),
        twists={k: v for k, v in d.twists.items() if k != edge_id},
    )
