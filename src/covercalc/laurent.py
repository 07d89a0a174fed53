"""Exact integer Laurent polynomials in one variable.

A polynomial is stored as a map from integer exponents to nonzero integer
coefficients. Its one roots-of-unity computation, the product of its values
over all p-th roots of unity, is an exact integer determinant, never a
complex float, so every exported quantity is an exact integer.
"""
from __future__ import annotations

from typing import Mapping

CROSS_CHECK_MAX_P = 16  # the ring-path |H_1| is also computed by the circulant up to this p


class LaurentPoly:
    """An integer Laurent polynomial in the variable ``var``.

    Instances are immutable by convention: no method mutates ``terms``. The
    variable name is carried to and from the JSON ``vars`` field.
    """

    __slots__ = ("var", "terms")

    def __init__(self, terms: Mapping[int, int] | None = None, var: str = "t"):
        self.var = var
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    # -- ring structure ------------------------------------------------

    def _check_same_var(self, other: "LaurentPoly") -> None:
        if self.var != other.var:
            raise ValueError(f"variables differ: {self.var!r} vs {other.var!r}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_same_var(other)
        terms = dict(self.terms)
        for exp, coef in other.terms.items():
            terms[exp] = terms.get(exp, 0) + coef
        return LaurentPoly(terms, self.var)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.terms.items()}, self.var)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_same_var(other)
        terms: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                terms[e1 + e2] = terms.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(terms, self.var)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined; use substitute_inverse")
        result = LaurentPoly({0: 1}, self.var)
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
            and self.var == other.var
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        parts = [
            f"{coef}*{self.var}^{exp}" if exp else f"{coef}"
            for exp, coef in sorted(self.terms.items())
        ]
        return "LaurentPoly(" + (" + ".join(parts) or "0") + ")"

    # -- queries -------------------------------------------------------

    def coefficient_sum(self) -> int:
        """Value at the variable = 1."""
        return sum(self.terms.values())

    def evaluate(self, z: complex) -> complex:
        """Evaluate numerically at ``z``. Intended for test oracles only."""
        return sum(coef * z**exp for exp, coef in self.terms.items())

    # -- the operations the rest of the library is built on ------------

    def substitute_inverse(self) -> "LaurentPoly":
        """Replace the variable by its inverse (negate every exponent)."""
        return LaurentPoly({-e: c for e, c in self.terms.items()}, self.var)

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
        if p_order < 1:
            raise ValueError("p_order must be >= 1")
        if not self.terms:
            raise ValueError("resultant of the zero polynomial is undefined")
        coeffs = _shifted_dense(self.terms)
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
            "vars": [self.var],
            "terms": [
                {"exp": [exp], "coef": str(coef)}
                for exp, coef in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LaurentPoly":
        """Parse the ``to_json_dict`` form strictly.

        ``vars`` must hold exactly one name, ``terms`` must be a list of
        objects and each ``exp`` must hold exactly one exponent. Exponents
        and coefficients must be JSON integers or decimal strings; floats
        and booleans raise ValueError rather than being truncated, and so
        does an exponent given twice.
        """
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
        return cls(terms, names[0])


def _json_int(value, what: str) -> int:
    """An integer from a JSON integer or decimal string; anything else raises ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{what} must be an integer or a decimal string, got {value!r}")


def _json_object(value, what: str) -> dict:
    """A JSON object; anything else raises ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {type(value).__name__}")
    return value


def _json_list(value, what: str) -> list:
    """A JSON list; anything else raises ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _json_objects(value, what: str, each: str) -> list:
    """A JSON list of objects; anything else raises ValueError."""
    for item in _json_list(value, what):
        _json_object(item, f"each {each}")
    return value


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
