"""Homology orders of branched cyclic covers from Alexander polynomials.

The order of the first homology of the p-fold branched cyclic cover of a
knot is the absolute value of the product of its Alexander polynomial over
all p-th roots of unity, with the convention that a vanishing product
encodes positive first Betti number. An Alexander polynomial is palindromic
of even degree 2n up to a unit, A(t) = t^n B(t + 1/t), and roots of unity z
and 1/z give the same value, so the product is a square up to A(1) and
A(-1): one resultant of B, of degree n, gives it, and for p <= 16 the
t-world Res(t^p - 1, A) checks it, all in exact integers through
``LaurentPoly.resultant_with_cyclotomic``, whose docstring says how and when
it refuses. Wheel-knot polynomials come from a closed form in binomial
coefficients, and a wheel table's summed row estimates are bounded alike.
"""
from __future__ import annotations

from .laurent import MAX_H1_WORK, LaurentPoly, _h1_work, _palindromic, _shifted_dense
from .records import _json_object, _json_str, _Record, _set


class KnotDescriptor(_Record):
    """A knot presented by its Alexander polynomial (up to units ±t^k)."""

    __slots__ = ("label", "alexander")

    def __init__(self, label: str, alexander: LaurentPoly):
        at_one = alexander.coefficient_sum()
        if at_one not in (1, -1):
            raise ValueError(
                f"Alexander polynomial must evaluate to ±1 at t=1, got {at_one}"
            )
        # symmetric up to ±t^k; -t^k needs no test, as an anti-palindrome vanishes at t = 1
        if not _palindromic(_shifted_dense(alexander.terms)):
            raise ValueError(
                "Alexander polynomial is not symmetric under t -> 1/t up to a unit"
            )
        _set(self, "label", label)
        _set(self, "alexander", alexander)

    def to_json_dict(self) -> dict:
        data = self.alexander.to_json_dict()
        data["label"] = self.label
        return data

    @classmethod
    def from_json_dict(cls, data) -> "KnotDescriptor":
        _json_object(data, "knot")
        return cls(
            _json_str(data.get("label", ""), "knot label"),
            LaurentPoly.from_json_dict(data),
        )


def h1_order(knot: KnotDescriptor, p: int) -> int:
    """|H_1| of the p-fold branched cyclic cover; 0 encodes positive Betti number."""
    return abs(knot.alexander.resultant_with_cyclotomic(p))


def wheel_knot(n: int) -> KnotDescriptor:
    """The n-spoke wheel surgery knot, A(t) = (1-(1-t)^n)(1-(1-t^-1)^n).

    As (1 - t)(1 - 1/t) = -(1 - t)^2 / t, the coefficient of t^j and of t^-j
    is (-1)^j (C(2n, n + j) - C(n, j)) for 0 <= j <= n. One pass down from
    C(2n, 2n) = C(n, n) = 1 steps both binomials by the ratio
    C(m, k - 1) = C(m, k) k / (m - k + 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    terms = {}
    wide = narrow = 1  # C(2n, n + j) and C(n, j)
    for j in range(n, 0, -1):
        terms[j] = terms[-j] = narrow - wide if j & 1 else wide - narrow
        wide = wide * (n + j) // (n - j + 1)
        narrow = narrow * j // (n - j + 1)
    terms[0] = wide - narrow
    return KnotDescriptor(f"wheel-{n}", LaurentPoly(terms))


def f_table(p: int, n_max: int) -> list[tuple[int, int]]:
    """Rows (n, |H_1| of the p-fold cover of the n-spoke wheel) for n=1..n_max.

    Over MAX_H1_WORK estimated word operations raises ValueError before any
    row. Row n costs _h1_work(n - 1, p, 2pn): wheel-n has half-degree n - 1,
    as C(2n, 2n) - C(n, n) = 0, and |A| <= (1 + 2^n)^2 on the unit circle
    bounds its |H_1| by 2pn bits.
    """
    if p < 1 or n_max < 1:
        raise ValueError("p and n_max must be >= 1")
    work = 0
    for n in range(1, n_max + 1):  # at least n^2 a row: stops within 1,200 rows
        work += _h1_work(n - 1, p, 2 * p * n)
        if work > MAX_H1_WORK:
            raise ValueError(f"wheel-table work exceeds the work bound of {MAX_H1_WORK}")
    return [(n, h1_order(wheel_knot(n), p)) for n in range(1, n_max + 1)]


def unknot() -> KnotDescriptor:
    return KnotDescriptor("unknot", LaurentPoly({0: 1}))


def trefoil() -> KnotDescriptor:
    return KnotDescriptor("trefoil", LaurentPoly({-1: 1, 0: -1, 1: 1}))


def figure_eight() -> KnotDescriptor:
    return KnotDescriptor("figure-eight", LaurentPoly({-1: -1, 0: 3, 1: -1}))
