"""Homology orders of branched cyclic covers from Alexander polynomials.

The order of the first homology of the p-fold branched cyclic cover of a
knot is the absolute value of the product of its Alexander polynomial over
all p-th roots of unity, with the convention that a vanishing product
encodes positive first Betti number. A knot holds its polynomial as the
dense palindrome a_0..a_2n, checked once at construction; A(t) =
t^n B(t + 1/t), and roots of unity z and 1/z give the same value, so the
product is a square up to A(1) and A(-1): one resultant of B, of degree n,
gives it, and for p <= 16 the t-world Res(t^p - 1, A) checks it, all in
exact integers through ``laurent.resultant_with_cyclotomic``, whose
docstring says how and when it refuses. Wheel-knot polynomials come from a
closed form in binomial coefficients, and a wheel table's summed row
estimates are bounded alike.
"""
from __future__ import annotations

from .laurent import MAX_H1_WORK, _h1_work, resultant_with_cyclotomic
from .records import _json_int, _json_object, _json_objects, _json_str, _Record, _set

_ASYMMETRIC = "Alexander polynomial is not symmetric under t -> 1/t up to a unit"


def _check_at_one(at_one: int) -> None:
    if at_one not in (1, -1):
        raise ValueError(f"Alexander polynomial must evaluate to ±1 at t=1, got {at_one}")


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
        _check_at_one(sum(coeffs))
        if not coeffs[0]:
            raise ValueError("Alexander polynomial coeffs must begin with a nonzero coefficient")
        # symmetric up to ±t^k; -t^k needs no test, as an anti-palindrome
        # vanishes at t = 1, nor an odd degree, as its palindromes have even A(1)
        if coeffs != coeffs[::-1]:
            raise ValueError(_ASYMMETRIC)
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
        does an exponent given twice. A(1) = ±1, the palindrome and the
        half-degree h are checked on the sparse terms, before the dense list
        over their exponent span is built; |H_1| costs (h + 1)^2 or more at
        every p (laurent._h1_work), so h > isqrt(MAX_H1_WORK) - 1 is refused.
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
        _check_at_one(sum(nonzero.values()))
        low, high = min(nonzero), max(nonzero)  # A(1) = ±1, so some term is nonzero
        if any(nonzero.get(low + high - e) != c for e, c in nonzero.items()):
            raise ValueError(_ASYMMETRIC)
        half = (high - low) // 2
        if (half + 1) ** 2 > MAX_H1_WORK:
            raise ValueError(f"Alexander polynomial half-degree {half} needs |H_1| work > {MAX_H1_WORK}")
        coeffs = [nonzero.get(e, 0) for e in range(low, high + 1)]
        return cls(label, coeffs, low, names[0])


def h1_order(knot: KnotDescriptor, p: int) -> int:
    """|H_1| of the p-fold branched cyclic cover; 0 encodes positive Betti number."""
    return abs(resultant_with_cyclotomic(knot.coeffs, p))


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
    return KnotDescriptor("unknot", (1,))


def trefoil() -> KnotDescriptor:
    return KnotDescriptor("trefoil", (1, -1, 1), -1)


def figure_eight() -> KnotDescriptor:
    return KnotDescriptor("figure-eight", (-1, 3, -1), -1)
