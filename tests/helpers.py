"""Shared fixture builders: reference diagrams, random generators, relabeling,
Hypothesis strategies for the JSON input schemas, a guard on the |H_1| paths,
the trace path called on unfolded coefficients, polynomial oracles for |H_1|
(a product, a float evaluation, the t-world resultant Res(t^p - 1, A) and
the circulant determinant), the leg-state enumeration, grouped-product and
tuple-keyed per-leg oracles for the multiplier, the indicator sum checked on
both multiplier paths and the oracles, and search oracles for cycle windings
and for edge maps that respect adjacency."""
from __future__ import annotations

import copy
import itertools
import math
import random
from collections import Counter

from hypothesis import strategies as st

from covercalc import engine, knots
from covercalc.diagrams import (
    DecoratedDiagram,
    Edge,
    Leg,
    attach_leg_by_subdivision,
    spanning_tree,
    theta,
)


def chord_fixture() -> DecoratedDiagram:
    """Two legs joined by a single edge: the ruled-out chord."""
    return DecoratedDiagram(
        label="chord",
        vertices=("a", "b"),
        edges=(Edge("e", "a", "b", 0),),
        legs=(Leg("l1", "a", 1, "e"), Leg("l2", "b", 1, "e")),
    )


def fork_fixture() -> DecoratedDiagram:
    """Two legs on one vertex: the ruled-out fork (incidence still 3 everywhere)."""
    return DecoratedDiagram(
        label="fork",
        vertices=("u", "v", "w"),
        edges=(
            Edge("e1", "u", "v", 0),
            Edge("e2", "u", "v", 0),
            Edge("e3", "u", "w", 0),
        ),
        legs=(
            Leg("l1", "v", 1, "e1"),
            Leg("l2", "w", 1, "e3"),
            Leg("l3", "w", -1, "e3"),
        ),
    )


def theta_with_legs(n: int) -> DecoratedDiagram:
    """Theta with n legs hung on edge e1 by repeated subdivision."""
    d = theta(label=f"theta-{n}legs")
    edge = "e1"
    for i in range(1, n + 1):
        d = attach_leg_by_subdivision(d, edge, f"l{i}", sign=1, target="first")
        edge = f"{edge}~l{i}b"
    return d


def example_two_leg_theta() -> DecoratedDiagram:
    """Theta with two legs whose cycle windings are (eps1, eps2 + 1).

    Edges are named so the lowest-id spanning tree is {k, m1, n1}, making
    the two fundamental cycles pass through exactly one leg chain each.
    """
    return DecoratedDiagram(
        label="two-leg-theta",
        vertices=("u", "v", "w1", "w2"),
        edges=(
            Edge("k", "u", "v", 0),
            Edge("m1", "u", "w1", 0),
            Edge("m2", "w1", "v", 0),
            Edge("n1", "u", "w2", 1),
            Edge("n2", "w2", "v", 0),
        ),
        legs=(Leg("l1", "w1", 1, "m1"), Leg("l2", "w2", 1, "n1")),
    )


def kappa_diagram(n: int) -> DecoratedDiagram:
    """K4 with a chain of n legs subdividing one edge.

    Every cycle through the chain picks up winding sum eps_1 + ... + eps_n,
    all other cycles are constant zero, so the multiplier reduces to the
    roots-of-unity sum of (1-t)^n.
    """
    d = DecoratedDiagram(
        label=f"kappa-{n}",
        vertices=(1, 2, 3, 4),
        edges=(
            Edge("a", 1, 2, 0),
            Edge("b", 1, 3, 0),
            Edge("c", 1, 4, 0),
            Edge("d", 2, 3, 0),
            Edge("e", 2, 4, 0),
            Edge("f", 3, 4, 0),
        ),
    )
    edge = "a"
    for i in range(1, n + 1):
        d = attach_leg_by_subdivision(d, edge, f"l{i}", sign=1, target="first")
        edge = f"{edge}~l{i}b"
    return d


def dumbbell() -> DecoratedDiagram:
    """Two self-loops joined by an edge; valid and complete, surplus 2."""
    return DecoratedDiagram(
        label="dumbbell",
        vertices=("x", "y"),
        edges=(
            Edge("lx", "x", "x", 0),
            Edge("mid", "x", "y", 0),
            Edge("ly", "y", "y", 0),
        ),
    )


def k4_diagram() -> DecoratedDiagram:
    return DecoratedDiagram(
        label="k4",
        vertices=(1, 2, 3, 4),
        edges=(
            Edge("a", 1, 2, 0),
            Edge("b", 1, 3, 0),
            Edge("c", 1, 4, 0),
            Edge("d", 2, 3, 0),
            Edge("e", 2, 4, 0),
            Edge("f", 3, 4, 0),
        ),
    )


def prism(n: int) -> DecoratedDiagram:
    """The prism over an n-cycle (b = n + 1): two n-cycles a and b joined by n rungs."""
    pairs = [(f"a{i}", f"a{(i + 1) % n}") for i in range(n)]
    pairs += [(f"b{i}", f"b{(i + 1) % n}") for i in range(n)]
    pairs += [(f"a{i}", f"b{i}") for i in range(n)]
    return DecoratedDiagram(
        label=f"prism-{n}",
        vertices=tuple(f"{side}{i}" for side in "ab" for i in range(n)),
        edges=tuple(Edge(f"e{i}", a, b, 0) for i, (a, b) in enumerate(pairs)),
    )


def petersen() -> DecoratedDiagram:
    """The Petersen graph (b = 6), legless."""
    pairs = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    pairs += [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    return DecoratedDiagram(
        label="petersen",
        vertices=tuple(range(10)),
        edges=tuple(Edge(f"e{i}", a, b, 0) for i, (a, b) in enumerate(pairs)),
    )


def petersen_with_legs() -> DecoratedDiagram:
    """The Petersen graph (b = 6) with two legs of opposite sign on each edge.

    The graph is 3-edge-connected, so no two edges lie on the same cycles:
    the 30 legs have 30 distinct winding vectors.
    """
    d = petersen()
    for i in range(len(d.edges)):
        d = attach_leg_by_subdivision(d, f"e{i}", f"p{i}", sign=1)
        d = attach_leg_by_subdivision(d, f"e{i}~p{i}b", f"n{i}", sign=-1)
    return d


def random_diagram(
    rng: random.Random, max_legs: int = 12, bases=(theta, dumbbell, k4_diagram)
) -> DecoratedDiagram:
    """A random valid complete diagram: a base graph from ``bases``, random windings, legs."""
    base = rng.choice(bases)()
    edges = tuple(
        Edge(e.id, e.tail, e.head, rng.randint(-3, 3)) for e in base.edges
    )
    d = DecoratedDiagram(base.label, base.vertices, edges)
    n_legs = rng.randint(0, max_legs)
    for i in range(1, n_legs + 1):
        taken = {l.edge for l in d.legs}
        edge = rng.choice([e.id for e in d.edges if e.id not in taken])
        d = attach_leg_by_subdivision(
            d,
            edge,
            f"l{i}",
            sign=rng.choice((1, -1)),
            target=rng.choice(("first", "second")),
        )
    return d


def relabel(d: DecoratedDiagram, prefix: str) -> DecoratedDiagram:
    """Rename every vertex, edge and leg id; structure preserved."""
    vmap = {v: f"{prefix}v{i}" for i, v in enumerate(d.vertices)}
    emap = {e.id: f"{prefix}e{i}" for i, e in enumerate(d.edges)}
    lmap = {l.id: f"{prefix}l{i}" for i, l in enumerate(d.legs)}
    return DecoratedDiagram(
        label=d.label + "-relabeled",
        vertices=tuple(vmap[v] for v in d.vertices),
        edges=tuple(
            Edge(emap[e.id], vmap[e.tail], vmap[e.head], e.winding) for e in d.edges
        ),
        legs=tuple(
            Leg(lmap[l.id], vmap[l.vertex], l.sign, emap[l.edge]) for l in d.legs
        ),
        twists={emap[k]: v for k, v in d.twists.items()},
    )


def flip_all(d: DecoratedDiagram) -> DecoratedDiagram:
    """Flip every wrap sign and negate every base winding."""
    return DecoratedDiagram(
        label=d.label,
        vertices=d.vertices,
        edges=tuple(Edge(e.id, e.tail, e.head, -e.winding) for e in d.edges),
        legs=tuple(Leg(l.id, l.vertex, -l.sign, l.edge) for l in d.legs),
        twists=d.twists,
    )


# -- JSON schema strategies ------------------------------------------------

# ids are JSON strings or integers; numbers are JSON integers of any size
json_ids = st.one_of(st.integers(-(10**6), 10**6), st.text(max_size=6))
json_numbers = st.integers(-(2**70), 2**70)
_lists = st.lists(st.integers(), max_size=2)
_objects = st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
_leaves = st.one_of(json_numbers, st.text(max_size=3), st.floats(allow_nan=False),
                    st.booleans(), st.none())
# what no id and no integer field may hold
non_scalars = st.one_of(st.floats(allow_nan=False), st.booleans(), st.none(), _lists, _objects)
non_objects = st.one_of(_leaves, _lists)
non_lists = st.one_of(_leaves, _objects)


def replaced(data, path: tuple, value):
    """A deep copy of ``data`` with the entry at ``path`` (keys and indices) set to ``value``."""
    data = copy.deepcopy(data)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


def forbid_resultant_paths(monkeypatch) -> None:
    """Make every |H_1| path fail the test if it is called."""
    def refuse(*args):
        raise AssertionError("no resultant path may run")

    for name in ("_trace_product", "_t_world_product"):
        monkeypatch.setattr(knots, name, refuse)


# -- polynomial oracles for |H_1| ---------------------------------------------


def poly_mul(a, b) -> list[int]:
    """The product of two polynomials given by dense coefficients a_0.., by convolution."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            prod[j] += x * y
    return prod


def evaluate(coeffs, z: complex, low: int = 0) -> complex:
    """The value of sum_k coeffs[k] z^(low + k), in floating point."""
    return sum(c * z ** (low + k) for k, c in enumerate(coeffs))


def trace_product(coeffs, p: int) -> int:
    """knots._trace_product on the palindrome coeffs, folded mod t^p - 1 as check_bounds folds it."""
    folded = knots._folded(coeffs, p) if len(coeffs) > p else coeffs
    return knots._trace_product(folded, len(coeffs) // 2, p)


def subresultant_product(coeffs: list[int], p: int) -> int:
    """prod over p-th roots of unity z of sum_k coeffs[k] z^k, as Res(t^p - 1, A).

    The t-world path, for any A: t^p - 1 is never formed, power_remainder
    gives the first remainder of the sequence and knots._collins the rest.
    Returns the same signed integer as circulant_product.
    """
    b = knots._trim(knots._folded(coeffs, p) if len(coeffs) > p else list(coeffs))
    if len(b) < 2:
        return b[0] ** p if b else 0
    sign = 1
    # Res(t^p - 1, -b) = (-1)^p Res(t^p - 1, b); a monic b then needs no scaling
    if b[-1] < 0:
        b = [-c for c in b]
        sign = -1 if p & 1 else 1
    return sign * knots._collins(p, b, power_remainder(b, p))


def power_remainder(b: list[int], p: int) -> list[int]:
    """lead(b)^(p - d + 1) (t^p - 1) mod b, trimmed, for d = deg b with 1 <= d < p.

    Square-and-multiply keeps r = lead(b)^e t^k mod b: each bit of p squares
    r, multiplies it by t when the bit is set and pseudo-reduces once, adding
    the reduction's steps to e. O(d^2 log p) operations on lists of length 2d.
    """
    d = len(b) - 1
    lead = b[d]
    r, e = [1], 0
    for bit in bin(p)[2:]:
        shift = bit == "1"
        square = [0] * (2 * len(r) - 1 + shift)
        for i, x in enumerate(r):
            if x:
                for j, y in enumerate(r, i + shift):
                    square[j] += x * y
        e = 2 * e + (len(square) - d if len(square) > d else 0)
        r = knots._pseudo_remainder(square, b)
    scale = lead ** (p - d + 1 - e)
    r = [c * scale for c in r] or [0]
    r[0] -= scale * lead**e
    return knots._trim(r)


def circulant_product(coeffs: list[int], p: int) -> int:
    """det of the p x p circulant of sum_k coeffs[k] t^k in Z[t]/(t^p - 1).

    The circulant's eigenvalues are the values of A at the p-th roots of
    unity, so its determinant is their product: an oracle that shares no
    step with the remainder sequences. O(p^3) operations.
    """
    row = knots._folded(coeffs, p)
    return bareiss_det([row[p - i:] + row[:p - i] for i in range(p)])


def bareiss_det(matrix: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def lucas(n: int) -> int:
    """The Lucas number L_n; |H_1| of the figure-eight's p-fold cover is L_2p - 2."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def multiplier_enumeration(constants, groups, p, signed):
    """Signed count of admissible leg states, times p, by enumerating them.

    Legs with identical winding vectors are interchangeable, so states are
    enumerated per group with binomial multiplicities: prod(m_i + 1) states
    for the groups ``{vector: m_i}``.
    """
    vectors = list(groups)
    multiplicities = list(groups.values())
    total = 0
    for counts in itertools.product(*(range(m + 1) for m in multiplicities)):
        windings = list(constants)
        weight = 1
        flips = 0
        for vec, m, j in zip(vectors, multiplicities, counts):
            weight *= math.comb(m, j)
            flips += j
            for i, v in enumerate(vec):
                windings[i] += j * v
        if all(w % p == 0 for w in windings):
            if signed and flips % 2:
                total -= weight
            else:
                total += weight
    return p * total


def multiplier_grouped(constants, groups, p, signed):
    """p times the coefficient at 0 of x^c * prod over groups of (1 -/+ x^v)^m.

    x^v has order q = p / gcd(p, v) in Z_p^b, so the factor of the m legs
    sharing v has min(q, m + 1) terms x^(r v), with coefficient
    engine._class_sum. One sparse b-dimensional product per group, with no
    merging of v and -v and nothing read off unmultiplied.
    """
    sign = -1 if signed else 1
    ring = {tuple(c % p for c in constants): 1}
    for vec, m in groups.items():
        q = p // math.gcd(p, *vec)
        product = {}
        for r in range(min(q, m + 1)):
            c = engine._class_sum(m, r, q, sign)
            for exp, coef in ring.items():
                key = tuple((e + r * v) % p for e, v in zip(exp, vec))
                product[key] = product.get(key, 0) + c * coef
        ring = product
    return p * ring.get((0,) * len(constants), 0)


def integer_product(constants, vectors, signed):
    """x^c * prod (1 -/+ x^v) in Z[x^±1]^b, exponents left unreduced: {exponent: coefficient}.

    No step reduces mod p, so one product serves every p: see integer_filter.
    """
    sign = -1 if signed else 1
    ring = {tuple(constants): 1}
    for vec in vectors:
        product = dict(ring)
        for exp, coef in ring.items():
            key = tuple(e + v for e, v in zip(exp, vec))
            product[key] = product.get(key, 0) + sign * coef
        ring = {exp: coef for exp, coef in product.items() if coef}
    return ring


def integer_filter(product, p):
    """p times the sum of the coefficients of ``product`` whose exponents are all 0 mod p."""
    return p * sum(coef for exp, coef in product.items() if all(e % p == 0 for e in exp))


def per_leg_product(constants, vectors, p, signed):
    """p times the coefficient at 0 of x^c * prod_v (1 -/+ x^v) in Z[Z_p^b].

    One factor per leg on a dict keyed by exponent tuples, each entry reduced
    mod p after every leg: the per-leg product of ``engine.multiplier``
    without its packed exponents.
    """
    sign = -1 if signed else 1
    ring = {tuple(c % p for c in constants): 1}
    for vec in vectors:
        product = dict(ring)
        for exp, coef in ring.items():
            key = tuple((e + v) % p for e, v in zip(exp, vec))
            product[key] = product.get(key, 0) + sign * coef
        ring = product
    return p * ring.get((0,) * len(constants), 0)


def indicator_sum(constants, vectors, p, signed=False):
    """The mod-p indicator sum of x^c * prod (1 -/+ x^v), from five computations.

    The line path and the packed per-leg path of ``engine.multiplier``,
    per_leg_product, the grouped oracle and multiplier_enumeration must
    agree on p times the sum.
    """
    groups = Counter(vectors)
    by_poly = per_leg_product(constants, vectors, p, signed)
    assert by_poly == engine._multiplier_polynomial(constants, vectors, p, signed)
    assert by_poly == engine._multiplier_lines(constants, groups, p, signed)
    assert by_poly == multiplier_grouped(constants, groups, p, signed)
    assert by_poly == multiplier_enumeration(constants, groups, p, signed)
    assert by_poly % p == 0
    return by_poly // p


def cycle_windings_by_potentials(d: DecoratedDiagram) -> list[list[int]]:
    """Rows [constant, c_1, ..., c_L] per chord from dense vertex potentials.

    Edge e carries the affine form winding(e) + sum of sign(l) * eps_l over
    the legs l targeting it; potentials sum the forms along the spanning
    tree, and the chord e closes the cycle form(e) + potential(tail) -
    potential(head). O(|V| L) time and memory.
    """
    width = len(d.legs) + 1
    form = {e.id: [e.winding] + [0] * (width - 1) for e in d.edges}
    for slot, leg in enumerate(d.legs, 1):
        form[leg.edge][slot] += leg.sign
    root, steps, chords = spanning_tree(d.vertices, d.edges)
    potential = {root: [0] * width}
    for e, parent, child, sign in steps:
        potential[child] = [a + sign * b for a, b in zip(potential[parent], form[e.id])]
    return [
        [f + t - h for f, t, h in zip(form[e.id], potential[e.tail], potential[e.head])]
        for e in chords
    ]


def vertex_map_exists_by_search(d1: DecoratedDiagram, d2: DecoratedDiagram, edge_map) -> bool:
    """Backtracking search for a vertex map that carries each edge's ends to its image's.

    Tries both orientations of every edge in turn; exponential in the worst
    case and recursive, one level per edge.
    """
    ep1 = {e.id: (e.tail, e.head) for e in d1.edges}
    ep2 = {e.id: (e.tail, e.head) for e in d2.edges}
    items = sorted(edge_map.items(), key=lambda kv: str(kv[0]))

    def extend(index: int, vmap: dict, used: set) -> bool:
        if index == len(items):
            return True
        e1, e2 = items[index]
        (a, b), (c, d) = ep1[e1], ep2[e2]
        for x, y in ((c, d), (d, c)):
            ok = True
            new = {}
            for src, dst in ((a, x), (b, y)):
                want = vmap.get(src, new.get(src))
                if want is None:
                    if dst in used or dst in new.values() and new.get(src) != dst:
                        ok = False
                        break
                    new[src] = dst
                elif want != dst:
                    ok = False
                    break
            if ok:
                merged = dict(vmap)
                merged.update(new)
                if extend(index + 1, merged, used | set(new.values())):
                    return True
        return False

    return extend(0, {}, set())
