"""Twist and comparison-sign calculus for graph Y-links.

Two Y-links with isomorphic underlying graphs differ in the graded quotient
by the product, over edges, of the two twists the isomorphism matches up.
A twist carried through a chain of claspers picks up one sign flip per
intermediate clasper.

Convention note: the chain twist is implemented as (-1)^mu * l_0 * ... * l_mu
(mu + 1 linking numbers along the chain), so that a direct leaf-leaf link
(mu = 0) returns its own linking number. Magnitudes agree with any
convention that repeats the leading factor when l_0 = ±1.
"""
from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence

from .diagrams import DecoratedDiagram, _twist_sign
from .records import _Record, _set


def chain_twist(linkings: Sequence[int]) -> int:
    """Twist of an edge whose leaves are linked through a clasper chain."""
    if not linkings:
        raise ValueError("a twist chain needs at least one linking number")
    mu = len(linkings) - 1
    product = 1
    for l in linkings:
        product *= l
    return (-1) ** mu * product


class GraphIso(_Record):
    """An edge bijection between two diagrams' underlying graphs."""

    __slots__ = ("edge_map",)

    def __init__(self, edge_map: Mapping[Hashable, Hashable]):
        _set(self, "edge_map", edge_map)


def _vertex_ends(d: DecoratedDiagram, name: Mapping) -> list:
    """The sorted list, over vertices, of the sorted names of their edge ends.

    A vertex bijection carrying every edge to the edge of the same name
    exists iff two diagrams give the same list: it must match vertices with
    equal end multisets, and any such matching works, since a name at a
    vertex (twice for a loop) fixes that edge's ends there.
    """
    ends: dict = {}
    for e in d.edges:
        ends.setdefault(e.tail, []).append(name[e.id])
        ends.setdefault(e.head, []).append(name[e.id])
    return sorted(sorted(names) for names in ends.values())


def comparison_sign(d1: DecoratedDiagram, d2: DecoratedDiagram, iso: GraphIso) -> int:
    """Product over edges of the two matched twists; always ±1.

    Requires ±1 twist data on every edge of both diagrams (leaves linking
    exactly once) and an edge bijection that some vertex bijection respects,
    decided in O(E log E) by comparing the diagrams' ``_vertex_ends``.
    """
    ids1 = {e.id for e in d1.edges}
    ids2 = {e.id for e in d2.edges}
    images = set(iso.edge_map.values())
    sizes = {len(d1.edges), len(ids1), len(images), len(d2.edges)}  # one size: no id repeats
    if set(iso.edge_map) != ids1 or images != ids2 or len(sizes) != 1:
        raise ValueError("edge map is not a bijection between the two edge sets")
    sign1, sign2 = _twist_sign(d1), _twist_sign(d2)
    if sign1 is None or sign2 is None:
        d = d1 if sign1 is None else d2
        eid = next(e.id for e in d.edges if d.twists.get(e.id) not in (1, -1))
        raise ValueError(f"missing or non-unit twist on edge {eid}")
    index = {e.id: i for i, e in enumerate(d2.edges)}
    renamed = {e1: index[e2] for e1, e2 in iso.edge_map.items()}
    if _vertex_ends(d1, renamed) != _vertex_ends(d2, index):
        raise ValueError("edge map does not respect vertex adjacency")
    # over a bijection, the product of t1(e) t2(iso e) is the product of d1's twists times d2's
    return sign1 * sign2
