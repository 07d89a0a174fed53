"""|H_1| of branched cyclic covers from a knot's dense palindromic coefficients.

The input is the list a_0..a_2n of an Alexander polynomial shifted by a unit
t^k so that both ends are nonzero; ``knots.KnotDescriptor`` checks at
construction that it is a palindrome, so this module only computes. The one
computation is the product of A over all p-th roots of unity, an exact
integer resultant, never a complex float. It goes through the trace
polynomial B of degree n (A(t) = t^n B(t + 1/t)): the product is the square
of one Collins subresultant sequence of B, up to A(1) and A(-1), and for
p <= 16 it is checked against the t-world Res(t^p - 1, A). A product is
refused before either path runs when its size bound exceeds MAX_H1_BITS or
the estimated work of those paths exceeds MAX_H1_WORK.
"""
from __future__ import annotations

import math
from collections.abc import Sequence

CROSS_CHECK_MAX_P = 16  # every |H_1| is also computed as Res(t^p - 1, A) up to this p
MAX_H1_BITS = 2**21  # refuse a resultant whose a-priori size bound exceeds this many bits
MAX_H1_WORK = 2**29  # estimated word operations (_h1_work) of one |H_1| or one wheel table


def resultant_with_cyclotomic(coeffs: Sequence[int], p: int) -> int:
    """prod over p-th roots of unity z of A(z) = sum_k coeffs[k] z^k, as an exact integer.

    ``coeffs`` is a palindrome a_0..a_2n with a_0 nonzero, as a knot holds
    it. check_bounds raises ValueError before anything runs for p < 1, and
    for an input whose product may need more than MAX_H1_BITS bits (see
    _h1_bits_bound, read on A folded mod t^p - 1) or more than MAX_H1_WORK
    estimated work (_h1_work). A then goes to _trace_product: one
    subresultant sequence of degree n, whose first remainder comes from a
    Lucas ladder in O(n^2 log p) operations, and whose square gives the
    product. For p <= CROSS_CHECK_MAX_P it is checked against
    _t_world_product, Res(t^p - 1, A) on the folded A in O(p^2) operations,
    and a disagreement raises RuntimeError. Only the absolute value is
    meaningful; the unit shift changes the sign.
    """
    folded = check_bounds(coeffs, p)
    value = _trace_product(coeffs, p)
    if p <= CROSS_CHECK_MAX_P:
        check = _t_world_product(folded, p)
        if check != value:
            raise RuntimeError(f"internal disagreement: trace path {value} vs t-world {check}")
    return value


def check_bounds(coeffs: Sequence[int], p: int) -> Sequence[int]:
    """A folded mod t^p - 1, once p >= 1 and the product at p is within both bounds.

    ValueError for p < 1, and for a nonzero folded A whose product may need
    more than MAX_H1_BITS bits or more than MAX_H1_WORK estimated work.
    Nothing of either product path runs.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    folded = _folded(coeffs, p) if len(coeffs) > p else coeffs
    if not any(folded):
        return folded
    bits = _h1_bits_bound(folded, p)
    if bits > MAX_H1_BITS:
        raise ValueError(
            f"|H_1| at p = {p} may need {bits} bits, over the output bound of {MAX_H1_BITS}"
        )
    work = _h1_work(len(coeffs) // 2, p, bits)
    if work > MAX_H1_WORK:
        raise ValueError(
            f"|H_1| at p = {p} needs work {work}, over the work bound of {MAX_H1_WORK}"
        )
    return folded


def check_range(coeffs: Sequence[int], p_values: range) -> None:
    """check_bounds at each p, and ValueError once the summed _h1_work passes MAX_H1_WORK."""
    half, work = len(coeffs) // 2, 0
    for p in p_values:  # a knot's fold is never zero, as A(1) = ±1
        work += _h1_work(half, p, _h1_bits_bound(check_bounds(coeffs, p), p))
        if work > MAX_H1_WORK:
            raise ValueError(f"|H_1| at p = {p_values[0]}..{p} needs work {work}, "
                             f"over the work bound of {MAX_H1_WORK}")


def _folded(coeffs: Sequence[int], p: int) -> list[int]:
    """The p coefficients of sum_k coeffs[k] t^k in Z[t]/(t^p - 1)."""
    row = [0] * p
    for k, c in enumerate(coeffs):
        row[k % p] += c
    return row


def _h1_bits_bound(folded: Sequence[int], p: int) -> int:
    """A bound on the bit length of the product of sum_k folded[k] z^k over z^p = 1.

    By Parseval the mean of |A(z)|^2 over the p roots is sum a_k^2 when the
    exponents are distinct mod p, and by AM-GM the product of the |A(z)|^2
    is at most that mean to the p-th power, so |product| <= (sum a_k^2)^(p/2).
    """
    return int(p * math.log2(sum(c * c for c in folded)) / 2) + 1


def _h1_work(h: int, p: int, bits: int) -> int:
    """Estimated word operations of |H_1| at p for half-degree h and a bits-bit result.

    Forming B costs (h + 1)^2, and a remainder sequence of degree k on s-bit
    integers (k s)^2 / 2^13, fitted to CPython 3.11 on a 2-CPU x86-64 machine:
    k = min(h, p // 2) and s = bits / 2 on the trace path, whose result is
    squared, and k = min(2h, p - 1) and s = bits on the t-world check.
    """
    trace = min(h, p // 2) * bits // 2
    check = min(2 * h, p - 1) * bits if p <= CROSS_CHECK_MAX_P else 0
    return (h + 1) ** 2 + (trace * trace + check * check >> 13)


def _t_world_product(folded: Sequence[int], p: int) -> int:
    """prod over p-th roots of unity z of A(z) = sum_k folded[k] z^k, as Res(t^p - 1, A).

    deg A < p, so one pseudo-remainder of t^p - 1 by A, O(p^2) operations,
    starts the Collins sequence; no step of the trace identity is shared.
    """
    b = _trim(list(folded))  # folded may be the knot's tuple
    if len(b) < 2:
        return b[0] ** p if b else 0
    return _collins(p, b, _pseudo_remainder([-1] + [0] * (p - 1) + [1], b))


def _trace_product(coeffs: Sequence[int], p: int) -> int:
    """prod over p-th roots of unity z of A(z) = sum_k coeffs[k] z^k, A palindromic of degree 2n.

    Such an A is t^n B(t + 1/t) with B = a_n + sum_k a_(n+k) V_k, where the
    Lucas polynomials V_k (V_0 = 2, V_1 = x, V_(k+1) = x V_k - V_(k-1)) have
    V_k(z + 1/z) = z^k + z^-k. G_p = V_(m+1) - V_m for p = 2m + 1 and
    V_(q+1) - V_(q-1) for p = 2q is monic of degree g = p // 2 + 1, with the
    roots 2, -2 for even p, and 2 cos(2 pi k / p) for 0 < k < p / 2. Roots of
    unity z and 1/z give the same root, so the product is R^2 / (A(1) A(-1))
    for even p and R^2 / A(1) for odd p, with R = Res(G_p, B), and 0 when that
    divisor is 0. On the roots V_k equals V_j for j = min(k mod p, -k mod p)
    <= p // 2, so folding k to j gives B mod G_p at once. R comes from
    _collins, whose first remainder _lucas_remainder builds.
    """
    n = len(coeffs) // 2
    divisor = sum(coeffs)
    if not p & 1:
        divisor *= sum(coeffs[::2]) - sum(coeffs[1::2])
    if not divisor:
        return 0
    trace = [0] * (min(n, p // 2) + 1)  # trace[j]: the coefficient of V_j, and of 1 at j = 0
    trace[0] = coeffs[n]
    for k in range(1, n + 1):
        j = min(k % p, -k % p)
        trace[j] += coeffs[n + k] if j else 2 * coeffs[n + k]
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

