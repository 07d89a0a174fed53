"""Knots and the |H_1| of their branched cyclic covers, in exact integers.

The order of the first homology of the p-fold branched cyclic cover of a
knot is the absolute value of the product of its Alexander polynomial A
over all p-th roots of unity, never a complex float; a vanishing product
encodes positive first Betti number. A knot holds A as the dense
palindrome a_0..a_2n, shifted by a unit t^k so that both ends are nonzero
and checked once at construction, so the functions here only compute. As
A(t) = t^n B(t + 1/t), roots of unity z and 1/z give the same value: the
product is the square of one Collins subresultant sequence of B, of degree
n, up to A(1) and A(-1), and for p <= 16 the t-world Res(t^p - 1, A)
checks it. Both read only n and the fold of A mod t^p - 1 that check_bounds
priced: it refuses a product whose size bound exceeds MAX_H1_BITS or whose
estimated work (_h1_work) exceeds MAX_H1_WORK. A range of p (h1_orders) and
a wheel table (f_table) are each one request to _priced_rows, refused when
its rows' summed work does. Wheel knots come from binomial coefficients.
"""
from __future__ import annotations

import math
from collections.abc import Sequence

from .records import _json_int, _json_object, _json_objects, _json_str, _Record, _set

CROSS_CHECK_MAX_P = 16  # every |H_1| is also computed as Res(t^p - 1, A) up to this p
MAX_H1_BITS = 2**21  # refuse a resultant whose a-priori size bound exceeds this many bits
MAX_H1_WORK = 2**29  # estimated word operations (_h1_work) of one |H_1| request or wheel table


class KnotDescriptor(_Record):
    """A knot presented by its Alexander polynomial A, up to units ±t^k.

    ``coeffs`` is the tuple a_0..a_2n of A(t) = sum_k a_k t^(low + k), both
    ends nonzero; ``low`` and the variable name ``var`` are kept only for the
    JSON round trip. Each coefficient must be an int and not a bool: any other
    number raises ValueError rather than being truncated.
    """

    __slots__ = ("label", "coeffs", "low", "var")

    def __init__(self, label: str, coeffs, low: int = 0, var: str = "t"):
        coeffs = tuple(coeffs)
        for coef in coeffs:
            if not isinstance(coef, int) or isinstance(coef, bool):
                raise ValueError(f"Alexander polynomial coefficients must be integers, got {coef!r}")
        if sum(coeffs) not in (1, -1):
            raise ValueError(f"Alexander polynomial must evaluate to ±1 at t=1, got {sum(coeffs)}")
        if not coeffs[0]:
            raise ValueError("Alexander polynomial coeffs must begin with a nonzero coefficient")
        # symmetric up to ±t^k; -t^k needs no test, as an anti-palindrome
        # vanishes at t = 1, nor an odd degree, as its palindromes have even A(1)
        if coeffs != coeffs[::-1]:
            raise ValueError("Alexander polynomial is not symmetric under t -> 1/t up to a unit")
        _set(self, "label", label)
        _set(self, "coeffs", coeffs)
        _set(self, "low", low)
        _set(self, "var", var)

    def to_json_dict(self) -> dict:
        terms = enumerate(self.coeffs, self.low)
        return {
            "vars": [self.var],
            "terms": [{"exp": [exp], "coef": str(coef)} for exp, coef in terms if coef],
            "label": self.label,
        }

    @classmethod
    def from_json_dict(cls, data) -> "KnotDescriptor":
        """Parse the ``to_json_dict`` form strictly, dropping zero terms.

        ``vars`` must hold exactly one name, ``terms`` must be a list of
        objects and each ``exp`` must hold exactly one exponent. Exponents
        and coefficients must be JSON integers or decimal strings; floats
        and booleans raise ValueError rather than being truncated, and so
        does an exponent given twice. Only the half-degree h is checked here:
        |H_1| costs _h1_work(h, 1, 0) or more at every p, so a wider knot is
        refused before the dense list, of at most 2 isqrt(MAX_H1_WORK) entries,
        is built; the constructor checks the rest.
        """
        _json_object(data, "knot")
        label = _json_str(data.get("label", ""), "knot label")
        names = data["vars"]
        if not (isinstance(names, list) and len(names) == 1 and isinstance(names[0], str)):
            raise ValueError(f"vars must name exactly one variable, got {names!r}")
        terms: dict[int, int] = {}
        for term in _json_objects(data["terms"], "terms", "term"):
            exp = term["exp"]
            if not (isinstance(exp, list) and len(exp) == 1):
                raise ValueError(f"exp must hold exactly one exponent, got {exp!r}")
            e = _json_int(exp[0], "exponent")
            if e in terms:
                raise ValueError(f"duplicate exponent {e}")
            terms[e] = _json_int(term["coef"], "coefficient")
        nonzero = {e: c for e, c in terms.items() if c}
        low, high = min(nonzero, default=0), max(nonzero, default=-1)  # zero: no coeffs
        half = (high - low) // 2
        if _h1_work(half, 1, 0) > MAX_H1_WORK:
            raise ValueError(f"Alexander polynomial half-degree {half} needs |H_1| work > {MAX_H1_WORK}")
        coeffs = [nonzero.get(e, 0) for e in range(low, high + 1)]
        return cls(label, coeffs, low, names[0])


def h1_order(knot: KnotDescriptor, p: int) -> int:
    """|H_1| of the p-fold branched cyclic cover; 0 encodes positive Betti number."""
    return abs(resultant_with_cyclotomic(knot.coeffs, p))


def h1_orders(knot: KnotDescriptor, p_values: range) -> list[tuple[int, int]]:
    """Rows (p, h1_order(knot, p)) for p in p_values, priced as one request by _priced_rows."""
    requests = ((p, knot.coeffs, p) for p in p_values)
    return _priced_rows(requests, lambda p: f"|H_1| at p = {p_values[0]}..{p}")


def _priced_rows(requests, span) -> list[tuple[int, int]]:
    """Rows (key, |product|) for requests (key, coeffs, p), all priced before any row is computed.

    check_bounds prices each request once, keeping only its fold and half-degree, and
    ValueError is raised at the first one over a bound, or as "{span(key)} needs work
    ..." where the summed _h1_work passes MAX_H1_WORK. Each row comes from its fold.
    """
    work, priced = 0, []
    for key, coeffs, p in requests:
        folded, cost = check_bounds(coeffs, p)
        work += cost
        if work > MAX_H1_WORK:
            raise ValueError(f"{span(key)} needs work {work}, over the work bound of {MAX_H1_WORK}")
        priced.append((key, folded, len(coeffs) // 2, p))
    return [(key, abs(_checked_product(folded, n, p))) for key, folded, n, p in priced]


def wheel_knot(n: int) -> KnotDescriptor:
    """The n-spoke wheel surgery knot, A(t) = (1-(1-t)^n)(1-(1-t^-1)^n).

    As (1 - t)(1 - 1/t) = -(1 - t)^2 / t, the coefficient of t^j and of t^-j
    is (-1)^j (C(2n, n + j) - C(n, j)) for 0 <= j <= n. One pass down from
    C(2n, 2n) = C(n, n) = 1 steps both binomials by the ratio
    C(m, k - 1) = C(m, k) k / (m - k + 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    half = []  # at t^(n-1) down to t^0; t^n has C(2n, 2n) - C(n, n) = 0
    wide = narrow = 1  # C(2n, n + j) and C(n, j)
    for j in range(n, 0, -1):
        wide = wide * (n + j) // (n - j + 1)
        narrow = narrow * j // (n - j + 1)
        half.append(wide - narrow if j & 1 else narrow - wide)
    return KnotDescriptor(f"wheel-{n}", half + half[-2::-1], 1 - n)


def f_table(p: int, n_max: int) -> list[tuple[int, int]]:
    """Rows (n, |H_1| of the p-fold cover of the n-spoke wheel) for n=1..n_max.

    One request to _priced_rows, like h1_orders: each wheel knot is built and
    priced in turn, and a refusal comes before any row is computed. Row n
    costs at least n^2, so pricing stops within 1,200 knots.
    """
    if p < 1 or n_max < 1:
        raise ValueError("p and n_max must be >= 1")
    rows = ((n, wheel_knot(n).coeffs, p) for n in range(1, n_max + 1))
    return _priced_rows(rows, lambda n: f"wheel-table at p = {p}, n = 1..{n}")


def unknot() -> KnotDescriptor:
    return KnotDescriptor("unknot", (1,))


def trefoil() -> KnotDescriptor:
    return KnotDescriptor("trefoil", (1, -1, 1), -1)


def figure_eight() -> KnotDescriptor:
    return KnotDescriptor("figure-eight", (-1, 3, -1), -1)


def resultant_with_cyclotomic(coeffs: Sequence[int], p: int) -> int:
    """prod over p-th roots of unity z of A(z) = sum_k coeffs[k] z^k, as an exact integer.

    ``coeffs`` is a palindrome a_0..a_2n with a_0 nonzero, as a knot holds
    it. check_bounds refuses first; then _trace_product runs one
    subresultant sequence of degree n, whose first remainder comes from a
    Lucas ladder in O(n^2 log p) operations, and whose square gives the
    product. For p <= CROSS_CHECK_MAX_P, _t_world_product, Res(t^p - 1, A) on
    A folded mod t^p - 1 in O(p^2) operations, checks it, and a disagreement
    raises RuntimeError. Only the absolute value is meaningful; the unit
    shift changes the sign.
    """
    return _checked_product(check_bounds(coeffs, p)[0], len(coeffs) // 2, p)


def check_bounds(coeffs: Sequence[int], p: int) -> tuple[Sequence[int], int]:
    """A folded mod t^p - 1 and the _h1_work of its product, once p >= 1 and both bounds hold.

    ValueError for p < 1, and for a product that may need more than
    MAX_H1_BITS bits (_h1_bits_bound, read on the fold) or more than
    MAX_H1_WORK estimated work. Nothing of either product path runs.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    folded = _folded(coeffs, p) if len(coeffs) > p else coeffs
    bits = _h1_bits_bound(folded, p) if any(folded) else 0
    if bits > MAX_H1_BITS:
        raise ValueError(
            f"|H_1| at p = {p} may need {bits} bits, over the output bound of {MAX_H1_BITS}"
        )
    work = _h1_work(len(coeffs) // 2, p, bits)
    if work > MAX_H1_WORK:
        raise ValueError(
            f"|H_1| at p = {p} needs work {work}, over the work bound of {MAX_H1_WORK}"
        )
    return folded, work


def _checked_product(folded: Sequence[int], n: int, p: int) -> int:
    """_trace_product on a fold, checked against _t_world_product on it up to CROSS_CHECK_MAX_P."""
    value = _trace_product(folded, n, p)
    if p <= CROSS_CHECK_MAX_P:
        check = _t_world_product(folded, p)
        if check != value:
            raise RuntimeError(f"internal disagreement: trace path {value} vs t-world {check}")
    return value


def _folded(coeffs: Sequence[int], p: int) -> list[int]:
    """The p coefficients of sum_k coeffs[k] t^k in Z[t]/(t^p - 1)."""
    return [sum(coeffs[i::p]) for i in range(p)]


def _h1_bits_bound(folded: Sequence[int], p: int) -> int:
    """A bound on the bit length of the product of sum_k folded[k] z^k over z^p = 1.

    By Parseval the mean of |A(z)|^2 over the p roots is sum a_k^2 when the
    exponents are distinct mod p, and by AM-GM the product of the |A(z)|^2
    is at most that mean to the p-th power, so |product| <= (sum a_k^2)^(p/2).
    """
    return int(p * math.log2(sum(c * c for c in folded)) / 2) + 1


def _h1_work(h: int, p: int, bits: int) -> int:
    """Estimated word operations of |H_1| at p for half-degree h and a bits-bit result.

    A call costs 2^12 whatever its size (about 4 us on the unknot, row
    included), forming B (h + 1)^2, and a remainder sequence of degree k on
    s-bit integers (k s)^2 / 2^13, fitted to CPython 3.11 on a 2-CPU x86-64
    machine: k = min(h, p // 2) and s = bits / 2 on the trace path, whose
    result is squared, and k = min(2h, p - 1) and s = bits on the t-world check.
    """
    trace = min(h, p // 2) * bits // 2
    check = min(2 * h, p - 1) * bits if p <= CROSS_CHECK_MAX_P else 0
    return 2**12 + (h + 1) ** 2 + (trace * trace + check * check >> 13)


def _t_world_product(folded: Sequence[int], p: int) -> int:
    """prod over p-th roots of unity z of A(z) = sum_k folded[k] z^k, as Res(t^p - 1, A).

    deg A < p, so one pseudo-remainder of t^p - 1 by A, O(p^2) operations,
    starts the Collins sequence; no step of the trace identity is shared.
    """
    b = _trim(list(folded))  # folded may be the knot's tuple
    if len(b) < 2:
        return b[0] ** p if b else 0
    return _collins(p, b, _pseudo_remainder([-1] + [0] * (p - 1) + [1], b))


def _trace_product(folded: Sequence[int], n: int, p: int) -> int:
    """prod over p-th roots of unity z of A(z), A palindromic of degree 2n, from A mod t^p - 1.

    Such an A is t^n B(t + 1/t) with B = a_n + sum_k a_(n+k) V_k, where the
    Lucas polynomials V_k (V_0 = 2, V_1 = x, V_(k+1) = x V_k - V_(k-1)) have
    V_k(z + 1/z) = z^k + z^-k. G_p = V_(m+1) - V_m for p = 2m + 1 and
    V_(q+1) - V_(q-1) for p = 2q is monic of degree g = p // 2 + 1, with the
    roots 2, -2 for even p, and 2 cos(2 pi k / p) for 0 < k < p / 2. Roots of
    unity z and 1/z give the same root, so the product is R^2 / (A(1) A(-1))
    for even p and R^2 / A(1) for odd p, with R = Res(G_p, B), and 0 when that
    divisor is 0. On the roots V_k equals V_j for j = min(k mod p, -k mod p)
    <= p // 2, and B mod G_p is read off the fold, of min(2n + 1, p) entries:
    folded[(n + j) % p], the sum of a_(n+k) over |k| <= n with k = j mod p,
    is the coefficient of V_j (of 1 at j = 0) but twice it at j = p / 2,
    where k = j and k = -j meet. R comes from _collins, whose first remainder
    _lucas_remainder builds.
    """
    divisor = sum(folded)
    if not p & 1:
        divisor *= sum(folded[::2]) - sum(folded[1::2])  # p even keeps parity
    if not divisor:
        return 0
    trace = [folded[(n + j) % p] for j in range(min(n, p // 2) + 1)]  # of V_j, and of 1 at j = 0
    if 2 * n >= p and not p & 1:
        trace[-1] //= 2
    b = [trace[0]] + [0] * (len(trace) - 1)
    low, high = [2], [0, 1]  # V_(j-1), V_j
    for j in range(1, len(trace)):
        for i, v in enumerate(high):
            b[i] += trace[j] * v
        step = [0] + high
        for i, v in enumerate(low):
            step[i] -= v
        low, high = high, step
    b = _trim(b)  # not zero: B = 0 mod G_p would make A(1) = 0
    g = p // 2 + 1
    root = _collins(g, b, _lucas_remainder(b, p)) if len(b) > 1 else b[0] ** g
    return root * root // divisor


def _collins(da: int, b: list[int], r: list[int]) -> int:
    """Res(a, b) for deg a = da > deg b >= 1, given r = prem(a, b); lead(b) may be negative.

    Collins' subresultant remainder sequence (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 3.3.7, without content removal): each
    pseudo-remainder is divided exactly by g h^delta, which keeps the
    integers at the size of the subresultants instead of letting them grow
    exponentially.
    """
    g = h = sign = 1
    while True:
        db = len(b) - 1
        delta = da - db  # >= 1: remainders drop in degree
        if da & db & 1:
            sign = -sign
        if not r:
            return 0  # a common factor
        scale = g * h**delta
        a, da, b = b, db, [c // scale for c in r]
        g = a[-1]
        h = g**delta // h ** (delta - 1)
        if len(b) == 1:
            return sign * b[0] ** da // h ** (da - 1)
        r = _pseudo_remainder(a, b)


def _lucas_remainder(b: list[int], p: int) -> list[int]:
    """lead(b)^(g - n + 1) G_p mod b, trimmed, for n = deg b with 1 <= n < g = p // 2 + 1.

    A Lucas ladder over the bits of p // 2 takes (V_j, V_(j+1)) to
    (V_2j, V_2j+1) or (V_2j+1, V_2j+2) by V_2i = V_i^2 - 2 and
    V_(i+k) = V_i V_k - V_(i-k), two products per bit; G_p is then
    V_(j+1) - V_j for odd p and 2 V_(j+1) - x V_j for even p. For n = 1 the
    residues are values at the root -c / lead of b = c + lead x, kept as the
    integers lead^j V_j(-c / lead). Otherwise u = lead^eu V_j mod b and
    w = lead^ew V_(j+1) mod b, and each product is pseudo-reduced once with
    its steps added to its exponent.
    """
    n = len(b) - 1
    lead = b[n]
    if n == 1:
        c = b[0]
        u, w, power = 2, -c, 1  # lead^j V_j(-c / lead), lead^(j+1) V_(j+1)(-c / lead), lead^j
        for bit in bin(p // 2)[2:]:
            square = power * power
            if bit == "1":
                u, w, power = u * w + c * square, w * w - 2 * square * lead * lead, square * lead
            else:
                u, w, power = u * u - 2 * square, u * w + c * square, square
        return _trim([w - lead * u if p & 1 else 2 * w + c * u])

    def times(u, eu, w, ew, minus):
        """lead^e (V V' - minus) mod b and e, for u = lead^eu V and w = lead^ew V' mod b."""
        prod = [0] * (len(u) + len(w) - 1)
        for i, y in enumerate(u):
            if y:
                for k, z in enumerate(w, i):
                    prod[k] += y * z
        e = eu + ew
        if len(prod) > n:
            e += len(prod) - n
            prod = _pseudo_remainder(prod, b)
        prod += [0] * (len(minus) - len(prod))
        scale = lead**e
        for i, c in enumerate(minus):
            prod[i] -= scale * c
        return _trim(prod), e

    x = [0, 1]
    u, eu, w, ew = [2], 0, x, 0
    for bit in bin(p // 2)[2:]:
        cross = times(u, eu, w, ew, x)
        if bit == "1":
            u, eu, (w, ew) = *cross, times(w, ew, w, ew, [2])
        else:
            (u, eu), w, ew = times(u, eu, u, eu, [2]), *cross
    terms = ((1, w, ew), (-1, u, eu)) if p & 1 else ((2, w, ew), (-1, *times(u, eu, x, 0, [])))
    e = p // 2 + 2 - n  # g - n + 1
    r = [0] * n
    for c, poly, ep in terms:
        scale = c * lead ** (e - ep)
        for i, y in enumerate(poly):
            r[i] += scale * y
    return _trim(r)


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The remainder of lead(b)^(len(a) - len(b) + 1) a on division by b, trimmed."""
    d = len(b) - 1
    lead, lower = b[d], b[:d]
    r = a[:]
    for top in range(len(a) - 1, d - 1, -1):
        c = r.pop()
        if lead != 1:
            r = [lead * x for x in r]
        if c:
            for i, y in enumerate(lower, top - d):
                r[i] -= c * y
    return _trim(r)


def _trim(poly: list[int]) -> list[int]:
    """Drop zero leading coefficients in place; [] for zero."""
    while poly and not poly[-1]:
        poly.pop()
    return poly

