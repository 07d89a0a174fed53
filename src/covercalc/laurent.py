"""Exact integer Laurent polynomials in one or several variables.

A polynomial is stored as a map from integer exponent vectors to nonzero
integer coefficients. Root-of-unity evaluations are carried out by
exponent-class bookkeeping on those integers, never by complex floats, so
every exported quantity is an exact integer.
"""
from __future__ import annotations

from typing import Iterable, Mapping

CROSS_CHECK_MAX_P = 16  # the ring-path |H_1| is also computed by the circulant up to this p


class LaurentPoly:
    """An integer Laurent polynomial over an ordered tuple of variables.

    Instances are immutable by convention: no method mutates ``terms``.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple, int] | None = None):
        variables = tuple(variables)
        clean: dict[tuple[int, ...], int] = {}
        for exp, coef in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(variables):
                raise ValueError(
                    f"exponent vector {exp} does not match variables {variables}"
                )
            coef = int(coef)
            if coef:
                clean[exp] = coef
        self.vars = variables
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str] = ("t",)) -> "LaurentPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, c: int, variables: Iterable[str] = ("t",)) -> "LaurentPoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def gen(cls, var: str, variables: Iterable[str] | None = None) -> "LaurentPoly":
        """The monomial ``var`` inside the ring on ``variables``."""
        variables = tuple(variables) if variables is not None else (var,)
        if var not in variables:
            raise ValueError(f"unknown variable {var!r}")
        exp = tuple(1 if v == var else 0 for v in variables)
        return cls(variables, {exp: 1})

    @classmethod
    def monomial(cls, variables: Iterable[str], exponents: Iterable[int], coef: int = 1) -> "LaurentPoly":
        variables = tuple(variables)
        return cls(variables, {tuple(exponents): coef})

    @classmethod
    def univariate(cls, coeffs: Mapping[int, int], var: str = "t") -> "LaurentPoly":
        """Build a one-variable polynomial from a ``{exponent: coefficient}`` map."""
        return cls((var,), {(e,): c for e, c in coeffs.items()})

    # -- ring structure ------------------------------------------------

    def _check_same_ring(self, other: "LaurentPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable lists differ: {self.vars} vs {other.vars}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_same_ring(other)
        terms = dict(self.terms)
        for exp, coef in other.terms.items():
            new = terms.get(exp, 0) + coef
            if new:
                terms[exp] = new
            else:
                terms.pop(exp, None)
        return LaurentPoly(self.vars, terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_same_ring(other)
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                new = terms.get(exp, 0) + c1 * c2
                if new:
                    terms[exp] = new
                else:
                    terms.pop(exp, None)
        return LaurentPoly(self.vars, terms)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined; use substitute_inverse")
        result = LaurentPoly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "LaurentPoly(0)"
        parts = []
        for exp in sorted(self.terms):
            coef = self.terms[exp]
            mono = "*".join(
                f"{v}^{e}" for v, e in zip(self.vars, exp) if e != 0
            )
            parts.append(f"{coef}" + (f"*{mono}" if mono else ""))
        return "LaurentPoly(" + " + ".join(parts) + ")"

    # -- queries -------------------------------------------------------

    def is_univariate(self) -> bool:
        return len(self.vars) == 1

    def coefficient_sum(self) -> int:
        """Value at all variables = 1."""
        return sum(self.terms.values())

    def evaluate(self, values: Mapping[str, complex]) -> complex:
        """Evaluate numerically. Intended for test oracles only."""
        total: complex = 0
        for exp, coef in self.terms.items():
            term: complex = coef
            for v, e in zip(self.vars, exp):
                term *= values[v] ** e
            total += term
        return total

    # -- the operations the rest of the library is built on ------------

    def substitute_inverse(self, var: str) -> "LaurentPoly":
        """Replace ``var`` by its inverse (negate its exponent everywhere)."""
        if var not in self.vars:
            raise ValueError(f"unknown variable {var!r}")
        i = self.vars.index(var)
        terms = {
            tuple(-e if j == i else e for j, e in enumerate(exp)): c
            for exp, c in self.terms.items()
        }
        return LaurentPoly(self.vars, terms)

    def root_of_unity_sum(self, p_order: int) -> int:
        """Sum of this univariate polynomial over all p-th roots of unity.

        Since the roots-of-unity filter kills every exponent class except
        multiples of p, the sum is p times the sum of those coefficients:
        an exact integer, no complex arithmetic involved.
        """
        if not self.is_univariate():
            raise ValueError("root_of_unity_sum requires a univariate polynomial")
        if p_order < 1:
            raise ValueError("p_order must be >= 1")
        return p_order * sum(
            c for (e,), c in self.terms.items() if e % p_order == 0
        )

    def modp_indicator_sum(self, p_order: int) -> int:
        """Sum of coefficients on terms whose every exponent is divisible by p.

        Equals (1/p^b) times the sum of the polynomial's values over all
        b-tuples of p-th roots of unity, where b is the number of variables.
        """
        if p_order < 1:
            raise ValueError("p_order must be >= 1")
        return sum(
            c
            for exp, c in self.terms.items()
            if all(e % p_order == 0 for e in exp)
        )

    def resultant_with_cyclotomic(self, p_order: int) -> int:
        """Product of values over all p-th roots of unity, as an exact integer.

        The polynomial is shifted by a unit t^k so its constant term is
        nonzero, and exponents of degree p or more are folded mod p, leaving
        a_0 + ... + a_d t^d. Two exact paths compute the product, and the
        input size picks one:

        - ring path, when 3d <= p and d^3 * ceil(log2 |a_d|) <= 256 p:
          reduce y^p modulo the monic lift a_d^(d-1) A(y / a_d) by
          square-and-multiply, then take the d x d determinant of
          multiplication by y^p - a_d^p; O(d^3 + d^2 log p) operations;
        - circulant path, otherwise: the determinant of the p x p circulant
          matrix of the polynomial in Z[t]/(t^p - 1); O(p^3) operations.

        Both determinants use fraction-free Bareiss elimination. The lift
        inflates the ring path's integers by a_d^(p(d-1)), which is why a
        high-degree non-monic input needs a larger p before that path wins
        (the bound was measured on wheel knots and random polynomials). For
        p <= 16 the ring path is cross-checked against the circulant, and a
        disagreement raises RuntimeError. Only the absolute value is
        meaningful; the unit shift changes the sign.
        """
        if not self.is_univariate():
            raise ValueError("resultant_with_cyclotomic requires a univariate polynomial")
        if p_order < 1:
            raise ValueError("p_order must be >= 1")
        if not self.terms:
            raise ValueError("resultant of the zero polynomial is undefined")
        coeffs = _shifted_dense({e: c for (e,), c in self.terms.items()})
        if len(coeffs) > p_order:
            folded = {}
            for k, c in enumerate(coeffs):
                folded[k % p_order] = folded.get(k % p_order, 0) + c
            coeffs = _shifted_dense(folded)
            if not coeffs:
                return 0
        d = len(coeffs) - 1
        lift_bits = (abs(coeffs[d]) - 1).bit_length()  # ceil(log2 |a_d|)
        if 3 * d > p_order or d**3 * lift_bits > 256 * p_order:
            return _circulant_product(coeffs, p_order)
        value = _ring_product(coeffs, p_order)
        if p_order <= CROSS_CHECK_MAX_P:
            check = _circulant_product(coeffs, p_order)
            if check != value:
                raise RuntimeError(
                    f"internal disagreement: ring path {value} vs circulant {check}"
                )
        return value

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [
                {"exp": list(exp), "coef": str(coef)}
                for exp, coef in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LaurentPoly":
        variables = tuple(data["vars"])
        terms = {
            tuple(int(e) for e in t["exp"]): int(t["coef"])
            for t in data["terms"]
        }
        return cls(variables, terms)


def _shifted_dense(coeffs: Mapping[int, int]) -> list[int]:
    """Dense coefficients a_0..a_d with a_0 and a_d nonzero; [] for zero."""
    exps = [e for e, c in coeffs.items() if c]
    if not exps:
        return []
    lo = min(exps)
    return [coeffs.get(e, 0) for e in range(lo, max(exps) + 1)]


def _circulant_product(coeffs: list[int], p: int) -> int:
    """det of the p x p circulant of sum_k coeffs[k] t^k in Z[t]/(t^p - 1)."""
    row = [0] * p
    for k, c in enumerate(coeffs):
        row[k % p] += c
    return _bareiss_det([row[p - i:] + row[:p - i] for i in range(p)])


def _ring_product(coeffs: list[int], p: int) -> int:
    """prod over p-th roots of unity z of sum_k coeffs[k] z^k, for coeffs[-1] != 0.

    With A = a_d prod (t - alpha) the product is
    (-1)^(pd) a_d^p prod (alpha^p - 1). The roots beta = a_d alpha of the
    monic integer lift F(y) = a_d^(d-1) A(y / a_d) turn this into
    (-1)^(pd) N(y^p - a_d^p) / a_d^(p(d-1)), where N is the determinant of
    multiplication in Z[y]/(F).
    """
    d = len(coeffs) - 1
    lead = coeffs[d]
    if d == 0:
        return lead**p
    # F = y^d + sum_{i<d} f[i] y^i, reduced by y^d -> -sum f[i] y^i
    f = [coeffs[i] * lead ** (d - 1 - i) for i in range(d)]

    def reduce(poly: list[int]) -> list[int]:
        for top in range(len(poly) - 1, d - 1, -1):
            c = poly[top]
            if c:
                for i in range(d):
                    poly[top - d + i] -= c * f[i]
        return poly[:d]

    def times_y(g: list[int]) -> list[int]:
        return reduce([0] + g)

    power = [1] + [0] * (d - 1)
    for bit in bin(p)[2:]:
        square = [0] * (2 * d - 1)
        for i, a in enumerate(power):
            if a:
                for j, b in enumerate(power):
                    square[i + j] += a * b
        power = reduce(square)
        if bit == "1":
            power = times_y(power)
    power[0] -= lead**p
    columns = [power]
    for _ in range(d - 1):
        columns.append(times_y(columns[-1]))
    norm = _bareiss_det(columns)
    value, rest = divmod(norm, lead ** (p * (d - 1)))
    if rest:
        raise RuntimeError(f"ring-path norm not divisible by a_d^(p(d-1)), a_d={lead}, p={p}")
    return -value if p * d % 2 else value


def _bareiss_det(matrix: list[list[int]]) -> int:
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
