"""Leading-term calculus for branched cyclic covers of decorated knots.

Each leading-order number here is a roots-of-unity filter: p times the
coefficient at 0 of an element of the group ring Z[Z_p^b]. For a complete
graph Y-link decoration with b basis cycles that element is
x^c * prod over legs of (1 -/+ x^v), with c the constant cycle windings and
v a leg's winding contributions, both from the one validated pass of
``diagrams._windings``, so the filter is p times the signed count of
leg states whose cycle windings all vanish mod p. ``multiplier`` takes one
factor per winding line: the m legs on u and the n legs on -u mod p give
(-/+1)^n y^-n (1 -/+ y)^(m + n) in Z[y]/(y^q - 1) for y = x^u of order q,
one row of binomials, and for each coordinate k the first line c e_k with
c prime to p is read off at the end instead of multiplied in. The product
with one factor per leg, which shares none of this, checks every call: L of
x^c and the first half of the legs and R of the rest meet in the middle,
sum_k L[k] R[-k]. Each path, with its own code, keys an exponent in Z_p^b by
one packed int, b bit fields of w = (p - 1).bit_length() + 1 bits, and
reduces all fields mod p at once with one add, shift and mask.
For decorations that saw to the theta graph (``diagrams.is_theta_shaped``)
this feeds the Casson-Walker-Lescop delta 2|H_1| per admissible copy. The
LMO multiplier of l legs is the b = 1 case (1 - x)^l, whose filter is the
binomial sum p * sum over k = 0 mod p of (-1)^k C(l, k); ``lmo_window``
steps it over consecutive l in Z[t]/(t^p - 1). A delta comes back as a
``LeadingTerm``, a frozen record on ``records._Record``.
"""
from __future__ import annotations

import math
from collections import Counter

# diagrams and knots load inside multiplier and cwl_delta, so the window path
# needs neither; annotations naming their classes stay strings (PEP 563)
from .records import _Record, _set

MAX_WORK = 2**25  # (legs + 1) * (legs // 64 + 1) * min(prod(m_i + 1), p^b, box) of one multiplier
MAX_WINDOW_WORK = 2**35  # estimated bit operations one lmo_window call may spend


class LeadingTerm(_Record):
    """A leading-order value of the diagram ``label`` at p.

    ``sign`` is +1, -1 or None for unknown, ``grade`` the filtration grade
    (the surplus) and ``note`` an optional explanation.
    """

    __slots__ = ("magnitude", "sign", "grade", "label", "p", "note")

    def __init__(
        self,
        magnitude: int,
        sign: int | None,
        grade: int,
        label: str,
        p: int,
        note: str | None = None,
    ):
        _set(self, "magnitude", magnitude)
        _set(self, "sign", sign)
        _set(self, "grade", grade)
        _set(self, "label", label)
        _set(self, "p", p)
        _set(self, "note", note)

    def to_json_dict(self) -> dict:
        data = {
            "magnitude": str(self.magnitude),
            "sign": "unknown" if self.sign is None else f"{self.sign:+d}",
            "grade": self.grade,
            "p": self.p,
            "label": self.label,
        }
        if self.note:
            data["note"] = self.note
        return data


def _class_sum(m, r, q, sign):
    """Sum of sign^j C(m, j) over 0 <= j <= m with j = r mod q."""
    # j = r + k q carries sign^r * (sign^q)^k, so sum even and odd k apart
    even = sum(math.comb(m, j) for j in range(r, m + 1, 2 * q))
    odd = sum(math.comb(m, j) for j in range(r + q, m + 1, 2 * q))
    return sign**r * (even + sign**q * odd)


def _multiplier_lines(constants, groups, p, signed):
    """p times the coefficient at 0 of x^c * prod over groups of (1 -/+ x^v)^m.

    Legs on v and on -v mod p share the line of u = min(v, -v mod p). With
    m legs on u and n on -u, y = x^u of order q = p / gcd(p, u) gives the
    factor (1 -/+ y)^m (1 -/+ 1/y)^n = (-/+1)^n y^-n (1 -/+ y)^(m + n) in
    Z[y]/(y^q - 1): one row of C(m + n, j), by C(N, j + 1) = C(N, j) (N - j)
    / (j + 1), added at j - n mod q. Legs on v = 0 mod p give the scalar
    (1 -/+ 1)^m. A line u = c e_k with c prime to p is not multiplied in for
    the first such line of each coordinate k: the other lines' sparse
    product R, read at residue r, needs x^(j u) with r_k + j c = 0 mod p,
    that is j = -r_k / c, and r = 0 on every coordinate no line takes.
    R's keys are packed as the check's are, with no shared helper: a taken
    coordinate reads its field as key >> (k w) & mask, and key & free is 0
    iff every free coordinate is.
    """
    sign = -1 if signed else 1
    scalar, lines = 1, {}
    for vec, m in groups.items():
        v = tuple(x % p for x in vec)
        u = min(v, tuple(-x % p for x in v))
        if not any(u):
            scalar *= (1 + sign) ** m
        else:
            lines.setdefault(u, [0, 0])[v != u] += m
    if not scalar:
        return 0
    w = (p - 1).bit_length() + 1
    mask = (1 << w) - 1
    ones = sum(1 << (k * w) for k in range(len(constants)))
    probe = ((1 << (w - 1)) - p) * ones
    taken, ring = {}, {sum(c % p << (k * w) for k, c in enumerate(constants)): 1}
    for u, (m, n) in lines.items():
        q = p // math.gcd(p, *u)
        binomial, factor = sign**n, {}
        for j in range(m + n + 1):
            k = (j - n) % q
            factor[k] = factor.get(k, 0) + binomial
            binomial = sign * binomial * (m + n - j) // (j + 1)
        axes = [k for k, c in enumerate(u) if c]
        k = axes[0]
        if len(axes) == 1 and k not in taken and math.gcd(u[k], p) == 1:
            taken[k] = (pow(u[k], -1, p), factor)
            continue
        product = {}
        for j, c in factor.items():
            if c:
                shift = sum(j * x % p << (k * w) for k, x in enumerate(u))
                for key, coef in ring.items():
                    key += shift
                    key -= ((key + probe) >> (w - 1) & ones) * p
                    product[key] = product.get(key, 0) + c * coef
        ring = product
    free = sum(mask << (k * w) for k in range(len(constants)) if k not in taken)
    total = 0
    for key, coef in ring.items():
        if not key & free:
            for k, (inverse, factor) in taken.items():
                coef *= factor.get(-(key >> (k * w) & mask) * inverse % p, 0)
            total += coef
    return p * scalar * total


def _multiplier_polynomial(constants, vectors, p, signed):
    """p times the coefficient at 0 of x^c * prod_v (1 -/+ x^v) in Z[Z_p^b].

    Meet in the middle (Horowitz and Sahni, J. ACM 21, 1974): L = x^c times
    the first half of the legs' factors and R the rest's, dicts over
    exponents multiplied by one factor per leg, give sum_k L[k] R[-k]; each
    support stays within the whole product's bounds, min(2^legs, p^b) and
    the box. An exponent e, reduced mod p, is the packed int
    sum_k e_k 2^(k w) with w = (p - 1).bit_length() + 1, so 2^(w - 1) >= p.
    Adding a packed leg, also reduced, leaves each field at most 2p - 2 <
    2^w, with no carry into the next field; a field is then >= p exactly
    when adding 2^(w - 1) - p to it sets its top bit, so one shift and mask
    find the fields to lower by p, and turn the fields p - k_i into -k.
    """
    w = (p - 1).bit_length() + 1
    ones = sum(1 << (k * w) for k in range(len(constants)))
    probe = ((1 << (w - 1)) - p) * ones
    sign = -1 if signed else 1

    def packed(exponents):
        return sum(e % p << (k * w) for k, e in enumerate(exponents))

    half = len(vectors) // 2
    left, right = {packed(constants): 1}, {0: 1}
    for ring, legs in ((left, vectors[:half]), (right, vectors[half:])):
        for shift in map(packed, legs):
            for key, coef in ring.copy().items():
                key += shift
                key -= ((key + probe) >> (w - 1) & ones) * p
                ring[key] = ring.get(key, 0) + sign * coef
    total = 0
    for key, coef in left.items():
        key = p * ones - key
        total += coef * right.get(key - ((key + probe) >> (w - 1) & ones) * p, 0)
    return p * total


def multiplier(d: DecoratedDiagram, p: int, signed: bool = True) -> int:
    """p times the signed count of leg states with all cycle windings = 0 mod p.

    Computed in Z[Z_p^b] with one factor per winding line (_multiplier_lines)
    and checked against the product with one factor per leg; the two must
    agree, else RuntimeError. With legs grouped by equal winding vectors
    into groups of m_i, the per-leg support stays within
    S = min(prod(m_i + 1), p^b, prod_j B_j): cycle j's winding c_j plus a
    sum of leg entries v_ij takes at most the B_j = sum_i |v_ij| + 1 values
    of an interval, before reduction mod p too. A coefficient has at most
    about legs bits, so a call whose work (legs + 1) * (legs // 64 + 1) * S
    exceeds MAX_WORK raises ValueError before either path runs.
    """
    from .diagrams import _windings

    if p < 1:
        raise ValueError("p must be >= 1")
    constants, vectors, _ = _windings(d)
    return _multiplier_of_windings(constants, vectors, p, signed)


def _multiplier_of_windings(constants, vectors, p, signed):
    # multiplier from the _windings of a valid diagram, which has b >= 2 cycles
    groups = Counter(vectors)
    box = math.prod(sum(map(abs, column)) + 1 for column in zip(*vectors))
    states = min(math.prod(m + 1 for m in groups.values()), p ** len(constants), box)
    work = (len(vectors) + 1) * (len(vectors) // 64 + 1) * states
    if work > MAX_WORK:
        raise ValueError(f"multiplier work {work} exceeds the work bound of {MAX_WORK}")
    by_line = _multiplier_lines(constants, groups, p, signed)
    by_leg = _multiplier_polynomial(constants, vectors, p, signed)
    if by_line != by_leg:
        raise RuntimeError(
            f"internal disagreement: line product {by_line} vs per-leg product {by_leg}"
        )
    return by_line


def cwl_delta(
    knot: KnotDescriptor,
    d: DecoratedDiagram,
    p: int,
    signed: bool = True,
) -> LeadingTerm:
    """Casson-Walker-Lescop leading delta for a theta-with-legs decoration.

    Magnitude is 2 * |H_1| of the cover times the absolute multiplier, and
    |H_1| is not computed when the multiplier is 0; the invariant vanishes
    on higher-surplus shapes, so a non-theta sawn diagram reports magnitude
    0 with a note. One validated pass serves the shape test (surplus 2 and
    no bridge, as ``diagrams.is_theta_shaped``) and the multiplier.
    """
    from .diagrams import _twist_sign, _windings, surplus
    from .knots import h1_order

    if p < 1:
        raise ValueError("p must be >= 1")
    constants, vectors, bridgeless = _windings(d)
    grade = surplus(d)
    if not (grade == 2 and bridgeless):
        return LeadingTerm(
            magnitude=0,
            sign=None,
            grade=grade,
            label=d.label,
            p=p,
            note="sawn diagram is not a theta graph; the invariant vanishes here",
        )
    m = _multiplier_of_windings(constants, vectors, p, signed)
    magnitude = 2 * h1_order(knot, p) * abs(m) if m else 0
    sign = _twist_sign(d) if magnitude else None
    return LeadingTerm(magnitude=magnitude, sign=sign, grade=grade, label=d.label, p=p)


def lmo_leading_multiplier(l: int, p: int) -> int:
    """Exact sum of (1 - w)^l over all p-th roots of unity w.

    The filter keeps the terms of (1 - t)^l whose exponent is divisible by
    p, so the sum is p * sum over k = 0 mod p of (-1)^k C(l, k). The work,
    about l / p binomials of l bits, is estimated as l * l * (l // p + 1),
    the start term of lmo_window's estimate; over MAX_WINDOW_WORK raises
    ValueError before any binomial is computed.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if p < 1:
        raise ValueError("p must be >= 1")
    work = l * l * (l // p + 1)
    if work > MAX_WINDOW_WORK:
        raise ValueError(f"LMO multiplier work {work} exceeds the work bound of {MAX_WINDOW_WORK}")
    return p * _class_sum(l, 0, p, -1)


def lmo_window(l_start: int, count: int, p: int) -> list[int]:
    """lmo_leading_multiplier(l, p) for l = l_start, ..., l_end = l_start + count - 1.

    The class sums v_l[i] = sum over k = i mod p of (-1)^k C(l, k) are the
    coefficients of (1 - t)^l in Z[t]/(t^p - 1), and the multiplier is
    p * v_l[0]. One binomial pass gives v at l_start; multiplying by 1 - t
    steps it, v_{l+1}[i] = v_l[i] - v_l[i - 1], in O(p) sums per row. Only
    m = min(p, l_end + 1) classes are kept: for p > l_end the entry m - 1 is
    t^l_end, which stays 0 until the last row, so the cyclic step is exact.

    The work, count * m sums of up to l_end bits (which bound the output)
    plus about l_end / p binomials of l_end bits for the start and the
    check, is estimated before anything runs; over MAX_WINDOW_WORK raises
    ValueError. The first and the last row (one row when count = 1) are
    checked against lmo_leading_multiplier, and a disagreement raises
    RuntimeError; the first row's check costs no more than the last's.
    """
    if l_start < 1 or count < 1 or p < 1:
        raise ValueError("l_start, count and p must all be >= 1")
    l_end = l_start + count - 1
    m = min(p, l_end + 1)
    work = l_end * (count * m + l_end * (l_end // p + 1))
    if work > MAX_WINDOW_WORK:
        raise ValueError(f"window work {work} exceeds the work bound of {MAX_WINDOW_WORK}")
    v = [0] * m
    binomial = 1
    for k in range(l_start + 1):
        v[k % p] += -binomial if k & 1 else binomial
        binomial = binomial * (l_start - k) // (k + 1)
    values = [p * v[0]]
    for _ in range(count - 1):
        v = [a - b for a, b in zip(v, [v[-1]] + v[:-1])]
        values.append(p * v[0])
    for l, value in {l_start: values[0], l_end: values[-1]}.items():
        check = lmo_leading_multiplier(l, p)
        if value != check:
            raise RuntimeError(
                f"internal disagreement at l = {l}: stepped {value} vs binomial sum {check}"
            )
    return values


def window_nonzero(l_start: int, p: int) -> tuple[int, int]:
    """First l' in [l_start, l_start + p) with nonzero leading multiplier.

    Such an l' always exists for p >= 2 (the shifted sums form a nonsingular
    Vandermonde system); failure to find one is a hard error. For p = 1
    every multiplier with l >= 1 vanishes and the window is vacuous, so the
    degenerate pair (l_start, 0) is reported.
    """
    if l_start < 1:
        raise ValueError("l_start must be >= 1")
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 1:
        return (l_start, 0)
    for l in range(l_start, l_start + p):
        value = lmo_leading_multiplier(l, p)
        if value != 0:
            return (l, value)
    raise RuntimeError(
        f"no nonzero multiplier in [{l_start}, {l_start + p}) for p={p}; "
        "this should be impossible"
    )
