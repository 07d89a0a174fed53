import cmath
import random

import pytest
from hypothesis import given, strategies as st

from covercalc import laurent
from covercalc.laurent import LaurentPoly, _bareiss_det

T = LaurentPoly.gen("t")
ONE = LaurentPoly.const(1)


def uni(coeffs):
    return LaurentPoly.univariate(coeffs)


# -- strategies ------------------------------------------------------------

exponents = st.integers(min_value=-6, max_value=6)
coefficients = st.integers(min_value=-9, max_value=9)
univariate_polys = st.dictionaries(exponents, coefficients, max_size=8).map(uni)


def test_add_cancellation():
    assert (ONE - T) + T == ONE


def test_add_identity():
    p = uni({-2: 3, 1: -1})
    assert LaurentPoly.zero() + p == p


def test_add_doubling():
    assert (ONE - T) + (ONE - T) == uni({0: 2, 1: -2})


def test_mul_direct_expansion():
    assert (ONE - T) * (ONE - T.substitute_inverse("t")) == uni({0: 2, 1: -1, -1: -1})


def test_mul_binomial_cube():
    assert (ONE - T) ** 3 == uni({0: 1, 1: -3, 2: 3, 3: -1})


def test_mul_unit():
    assert T * T.substitute_inverse("t") == ONE


def test_variable_mismatch_raises():
    other = LaurentPoly.gen("s")
    with pytest.raises(ValueError):
        T + other
    with pytest.raises(ValueError):
        T * other


def test_substitute_inverse_basic():
    assert (ONE - T).substitute_inverse("t") == uni({0: 1, -1: -1})


def test_substitute_inverse_palindrome():
    sym = uni({-1: 1, 0: -1, 1: 1})
    assert sym.substitute_inverse("t") == sym


def test_substitute_inverse_square():
    assert ((ONE - T) ** 2).substitute_inverse("t") == uni({0: 1, -1: -2, -2: 1})


def test_substitute_inverse_unknown_variable():
    with pytest.raises(ValueError):
        T.substitute_inverse("s")


def test_root_of_unity_sum_cube_at_p2():
    # (1-1)^3 + (1-(-1))^3 = 8; also 2 * (C(3,0) + C(3,2)) = 8
    assert ((ONE - T) ** 3).root_of_unity_sum(2) == 8


def test_root_of_unity_sum_p1_is_value_at_one():
    p = (ONE - T) ** 4
    assert p.root_of_unity_sum(1) == 0


def test_root_of_unity_sum_constant():
    assert LaurentPoly.const(5).root_of_unity_sum(3) == 15


def test_root_of_unity_sum_rejects_bad_order():
    with pytest.raises(ValueError):
        T.root_of_unity_sum(0)


def test_root_of_unity_sum_requires_univariate():
    p = LaurentPoly.const(1, ("a", "b"))
    with pytest.raises(ValueError):
        p.root_of_unity_sum(2)


def test_modp_indicator_sum_four_monomials():
    ab = ("a", "b")
    p = (
        LaurentPoly.const(1, ab)
        + LaurentPoly.gen("a", ab)
        + LaurentPoly.gen("b", ab)
        + LaurentPoly.monomial(ab, (1, 1))
    )
    assert p.modp_indicator_sum(2) == 1


def test_modp_indicator_sum_p1_sums_everything():
    p = uni({-3: 2, 0: -1, 5: 4})
    assert p.modp_indicator_sum(1) == 5


def test_modp_indicator_sum_odd_exponent():
    p = LaurentPoly.monomial(("a", "b"), (1, 2))
    assert p.modp_indicator_sum(2) == 0


def test_resultant_identity_polynomial():
    assert abs(ONE.resultant_with_cyclotomic(5)) == 1


def test_resultant_trefoil_p2():
    trefoil = uni({-1: 1, 0: -1, 1: 1})
    assert abs(trefoil.resultant_with_cyclotomic(2)) == 3


def test_resultant_vanishes_at_root_of_unity():
    assert (ONE - T).resultant_with_cyclotomic(3) == 0


def test_resultant_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        LaurentPoly.zero().resultant_with_cyclotomic(2)


# -- properties -------------------------------------------------------------


@given(univariate_polys, univariate_polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(univariate_polys, univariate_polys, univariate_polys)
def test_multiplication_commutes_and_associates(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


@given(univariate_polys, univariate_polys, univariate_polys)
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


def _float_roots_sum(p, order):
    return sum(
        p.evaluate({"t": cmath.exp(2j * cmath.pi * q / order)})
        for q in range(order)
    )


def test_root_of_unity_sum_matches_float_oracle():
    rng = random.Random(20260823)
    for _ in range(60):
        coeffs = {rng.randint(-10, 30): rng.randint(-8, 8) for _ in range(rng.randint(1, 12))}
        p = uni(coeffs)
        order = rng.randint(1, 12)
        exact = p.root_of_unity_sum(order)
        approx = _float_roots_sum(p, order)
        assert abs(approx.imag) < 1e-6 * max(1.0, abs(exact))
        assert abs(approx.real - exact) <= 1e-6 * max(1.0, abs(exact))


def test_modp_indicator_specializes_on_univariate():
    rng = random.Random(7)
    for _ in range(40):
        p = uni({rng.randint(-8, 8): rng.randint(-5, 5) for _ in range(6)})
        order = rng.randint(1, 9)
        assert p.modp_indicator_sum(order) * order == p.root_of_unity_sum(order)


def test_resultant_invariant_under_units_and_inversion():
    rng = random.Random(11)
    for _ in range(30):
        p = uni({rng.randint(-4, 6): rng.randint(-4, 4) for _ in range(5)})
        if not p:
            continue
        order = rng.randint(1, 8)
        base = abs(p.resultant_with_cyclotomic(order))
        shifted = p * uni({rng.randint(-3, 3): 1})
        assert abs(shifted.resultant_with_cyclotomic(order)) == base
        assert abs(p.substitute_inverse("t").resultant_with_cyclotomic(order)) == base


def test_resultant_multiplicative():
    rng = random.Random(13)
    for _ in range(30):
        a = uni({rng.randint(-2, 4): rng.randint(-3, 3) for _ in range(4)})
        b = uni({rng.randint(-2, 4): rng.randint(-3, 3) for _ in range(4)})
        if not a or not b:
            continue
        order = rng.randint(1, 7)
        lhs = abs((a * b).resultant_with_cyclotomic(order))
        rhs = abs(a.resultant_with_cyclotomic(order)) * abs(b.resultant_with_cyclotomic(order))
        assert lhs == rhs


def test_bareiss_det_small_cases():
    assert _bareiss_det([]) == 1
    assert _bareiss_det([[7]]) == 7
    assert _bareiss_det([[1, 2], [3, 4]]) == -2
    assert _bareiss_det([[0, 1], [1, 0]]) == -1
    assert _bareiss_det([[1, 2], [2, 4]]) == 0


def test_json_round_trip_preserves_big_integers():
    big = 2**200 - 1
    p = LaurentPoly(("t",), {(-3,): big, (4,): -1})
    assert LaurentPoly.from_json_dict(p.to_json_dict()) == p
    assert p.to_json_dict()["terms"][0]["coef"] == str(big)


# -- the two |H_1| paths ---------------------------------------------------


def test_resultant_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(29)
    cases = [(ONE - T, 3), (uni({0: 1, 1: 1}), 4), (uni({0: 5}), 1), (uni({0: -2, 3: 1}), 2)]
    for _ in range(40):
        # nonzero coefficients, so the leading one is non-monic most of the time
        poly = uni({rng.randint(-4, 8): rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]) for _ in range(rng.randint(1, 6))})
        d = max(e for (e,) in poly.terms) - min(e for (e,) in poly.terms)
        for p in {1, rng.randint(2, 6), max(1, d), max(1, 3 * d - 1), max(1, 3 * d), 17}:
            cases.append((poly, p))
    for poly, p in cases:
        shift = min(e for (e,) in poly.terms)
        shifted = sum(c * t ** (e - shift) for (e,), c in poly.terms.items())
        want = abs(sympy.resultant(sympy.Poly(shifted, t), sympy.Poly(t**p - 1, t)))
        assert abs(poly.resultant_with_cyclotomic(p)) == want, (poly, p)


def _count_paths(monkeypatch):
    calls = {"ring": 0, "circulant": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(laurent, "_ring_product", counted("ring", laurent._ring_product))
    monkeypatch.setattr(laurent, "_circulant_product", counted("circulant", laurent._circulant_product))
    return calls


@pytest.mark.parametrize(
    "coeffs, p, ring, circulant",
    [
        ({-1: 1, 0: -1, 1: 1}, 5, 0, 1),  # trefoil, 3d > p
        ({-1: 1, 0: -1, 1: 1}, 6, 1, 1),  # 3d <= p <= 16: ring path, cross-checked
        ({-1: 1, 0: -1, 1: 1}, 17, 1, 0),  # above the cross-check threshold
        ({0: 3, 1: 1, 20: 2}, 10, 1, 1),  # folds to 5 + t, so the ring path runs
        ({0: 1, 3: -1}, 3, 0, 0),  # folds to zero: the product vanishes
        ({0: 1, 18: 10}, 91, 0, 1),  # d^3 ceil(log2 |a_d|) > 256 p: the lift costs too much
        ({0: 1, 18: 10}, 92, 1, 0),
    ],
)
def test_resultant_path_selection(monkeypatch, coeffs, p, ring, circulant):
    calls = _count_paths(monkeypatch)
    uni(coeffs).resultant_with_cyclotomic(p)
    assert calls == {"ring": ring, "circulant": circulant}


def test_resultant_paths_agree_with_sign():
    rng = random.Random(31)
    for _ in range(200):
        coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 7))]
        coeffs[0] = coeffs[0] or 1
        coeffs[-1] = coeffs[-1] or -3
        p = rng.randint(1, 12)
        assert laurent._ring_product(coeffs, p) == laurent._circulant_product(coeffs, p)


def test_resultant_cross_check_disagreement_raises(monkeypatch):
    monkeypatch.setattr(laurent, "_ring_product", lambda coeffs, p: 12345)
    with pytest.raises(RuntimeError, match="internal disagreement"):
        uni({-1: 1, 0: -1, 1: 1}).resultant_with_cyclotomic(7)
