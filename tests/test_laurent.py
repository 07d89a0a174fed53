import cmath
import itertools
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from covercalc import laurent
from covercalc.engine import _multiplier_grouped, _multiplier_polynomial, lmo_leading_multiplier
from covercalc.knots import wheel_knot
from covercalc.laurent import LaurentPoly, _bareiss_det

from helpers import forbid_resultant_paths, multiplier_enumeration

T = LaurentPoly({1: 1})
ONE = LaurentPoly({0: 1})
uni = LaurentPoly


# -- strategies ------------------------------------------------------------

exponents = st.integers(min_value=-6, max_value=6)
coefficients = st.integers(min_value=-9, max_value=9)
univariate_polys = st.dictionaries(exponents, coefficients, max_size=8).map(uni)


def test_add_cancellation():
    assert (ONE - T) + T == ONE


def test_add_identity():
    p = uni({-2: 3, 1: -1})
    assert LaurentPoly() + p == p


def test_add_doubling():
    assert (ONE - T) + (ONE - T) == uni({0: 2, 1: -2})


def test_mul_direct_expansion():
    assert (ONE - T) * (ONE - T.substitute_inverse()) == uni({0: 2, 1: -1, -1: -1})


def test_mul_binomial_cube():
    assert (ONE - T) ** 3 == uni({0: 1, 1: -3, 2: 3, 3: -1})


def test_mul_unit():
    assert T * T.substitute_inverse() == ONE


def test_variable_mismatch_raises():
    other = LaurentPoly({1: 1}, "s")
    with pytest.raises(ValueError):
        T + other
    with pytest.raises(ValueError):
        T * other


def test_substitute_inverse_basic():
    assert (ONE - T).substitute_inverse() == uni({0: 1, -1: -1})


def test_substitute_inverse_palindrome():
    sym = uni({-1: 1, 0: -1, 1: 1})
    assert sym.substitute_inverse() == sym


def test_substitute_inverse_square():
    assert ((ONE - T) ** 2).substitute_inverse() == uni({0: 1, -1: -2, -2: 1})


# -- roots-of-unity sums ------------------------------------------------------
# The engine computes these sums as coefficients in Z[Z_p^b]: the sum of
# (1 - w)^l over the p-th roots of unity by lmo_leading_multiplier, and p times
# the mod-p indicator sum of x^c * prod (1 -/+ x^v) by both multiplier paths.


def indicator_sum(constants, vectors, p, signed=False):
    """The mod-p indicator sum from both multiplier paths and the enumeration."""
    by_poly = _multiplier_polynomial(constants, vectors, p, signed)
    assert by_poly == _multiplier_grouped(constants, Counter(vectors), p, signed)
    assert by_poly == multiplier_enumeration(constants, Counter(vectors), p, signed)
    assert by_poly % p == 0
    return by_poly // p


def test_root_of_unity_sum_cube_at_p2():
    # (1-1)^3 + (1-(-1))^3 = 8; also 2 * (C(3,0) + C(3,2)) = 8
    assert lmo_leading_multiplier(3, 2) == 8


def test_root_of_unity_sum_p1_is_value_at_one():
    assert lmo_leading_multiplier(4, 1) == 0


def test_root_of_unity_sum_constant():
    # (1 - w)^0 = 1 at each of the three cube roots of unity
    assert lmo_leading_multiplier(0, 3) == 3


def test_root_of_unity_sum_rejects_bad_order():
    with pytest.raises(ValueError):
        lmo_leading_multiplier(1, 0)


def test_root_of_unity_sum_requires_univariate():
    data = {"vars": ["a", "b"], "terms": [{"exp": [1, 0], "coef": "1"}]}
    with pytest.raises(ValueError, match="exactly one variable"):
        LaurentPoly.from_json_dict(data)


def test_modp_indicator_sum_four_monomials():
    # (1 + a)(1 + b) = 1 + a + b + ab: only the constant has even exponents
    assert indicator_sum((0, 0), [(1, 0), (0, 1)], 2) == 1


def test_modp_indicator_sum_p1_sums_everything():
    # t^3 (1 + t)(1 + t^-2)(1 + t^5) has coefficient sum 8
    assert indicator_sum((3,), [(1,), (-2,), (5,)], 1) == 8
    assert indicator_sum((3,), [(1,), (-2,), (5,)], 1, signed=True) == 0


def test_modp_indicator_sum_odd_exponent():
    assert indicator_sum((1, 2), [], 2) == 0
    assert indicator_sum((2, -4), [], 2) == 1


def test_resultant_identity_polynomial():
    assert abs(ONE.resultant_with_cyclotomic(5)) == 1


def test_resultant_trefoil_p2():
    trefoil = uni({-1: 1, 0: -1, 1: 1})
    assert abs(trefoil.resultant_with_cyclotomic(2)) == 3


def test_resultant_vanishes_at_root_of_unity():
    assert (ONE - T).resultant_with_cyclotomic(3) == 0


def test_resultant_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        LaurentPoly().resultant_with_cyclotomic(2)


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


def test_root_of_unity_sum_matches_float_oracle():
    # p times the coefficient at 0 in Z[Z_p^b] is p^(1-b) times the sum of
    # the product's values over all b-tuples of p-th roots of unity
    rng = random.Random(20260823)
    for _ in range(60):
        b = rng.randint(1, 2)
        constants = tuple(rng.randint(-6, 6) for _ in range(b))
        vectors = [tuple(rng.randint(-3, 3) for _ in range(b)) for _ in range(rng.randint(0, 7))]
        order = rng.randint(1, 7)
        sign = rng.choice((1, -1))
        exact = _multiplier_polynomial(constants, vectors, order, sign == -1)
        assert _multiplier_grouped(constants, Counter(vectors), order, sign == -1) == exact
        roots = [cmath.exp(2j * cmath.pi * q / order) for q in range(order)]
        approx = 0
        for w in itertools.product(roots, repeat=b):
            value = math.prod(z**c for z, c in zip(w, constants))
            for vec in vectors:
                value *= 1 + sign * math.prod(z**v for z, v in zip(w, vec))
            approx += value
        approx *= order ** (1 - b)
        assert abs(approx.imag) < 1e-6 * max(1.0, abs(exact))
        assert abs(approx.real - exact) <= 1e-6 * max(1.0, abs(exact))


def test_grouped_product_at_composite_orders():
    # entries sharing a factor g with p give x^v of order q = p / g, strictly
    # between 1 and p, and a vector = 0 mod p gives q = 1
    rng = random.Random(6)
    for p in (4, 6, 9, 12, 15, 30):
        for g in (d for d in range(2, p) if p % d == 0):
            b = rng.randint(1, 3)
            vectors = [tuple(g * rng.randint(-3, 3) for _ in range(b)) for _ in range(3)]
            vectors.append(tuple(p * rng.randint(-2, 2) for _ in range(b)))
            vectors = [v for v in vectors for _ in range(rng.randint(1, 4))]
            constants = tuple(rng.choice((0, g, 1)) for _ in range(b))
            for signed in (True, False):
                indicator_sum(constants, vectors, p, signed)


def test_modp_indicator_specializes_on_univariate():
    # one cycle crossed by a chain of l legs: p times the filter of (1 - x)^l is LMO's
    rng = random.Random(7)
    for _ in range(40):
        l, order = rng.randint(0, 30), rng.randint(1, 9)
        chain = indicator_sum((0,), [(1,)] * l, order, signed=True)
        assert chain * order == lmo_leading_multiplier(l, order)


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
        assert abs(p.substitute_inverse().resultant_with_cyclotomic(order)) == base


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
    p = LaurentPoly({-3: big, 4: -1})
    assert LaurentPoly.from_json_dict(p.to_json_dict()) == p
    assert p.to_json_dict()["terms"][0]["coef"] == str(big)


@given(
    st.dictionaries(st.integers(-10**6, 10**6), st.integers(-(2**80), 2**80), max_size=10),
    st.sampled_from(["t", "s", "q"]),
)
def test_json_round_trip_property(coeffs, var):
    p = LaurentPoly(coeffs, var)
    assert LaurentPoly.from_json_dict(json.loads(json.dumps(p.to_json_dict()))) == p


def knot_json(*terms):
    return {"vars": ["t"], "terms": [{"exp": exp, "coef": coef} for exp, coef in terms]}


@pytest.mark.parametrize("coef", [1.9, -1.5, 2.0, True, "1.9", None])
def test_from_json_rejects_non_integer_coefficient(coef):
    with pytest.raises(ValueError, match="coefficient"):
        LaurentPoly.from_json_dict(knot_json(([0], coef)))


@pytest.mark.parametrize("exp", [-1.5, 1.0, True, "x"])
def test_from_json_rejects_non_integer_exponent(exp):
    with pytest.raises(ValueError, match="exponent"):
        LaurentPoly.from_json_dict(knot_json(([exp], "1")))


def test_from_json_rejects_duplicate_exponent():
    with pytest.raises(ValueError, match="duplicate exponent 1"):
        LaurentPoly.from_json_dict(knot_json(([1], "2"), ([0], "-3"), ([1], "2")))


@pytest.mark.parametrize("exp", [[], [1, 0], 1])
def test_from_json_rejects_exp_without_exactly_one_entry(exp):
    with pytest.raises(ValueError, match="exactly one exponent"):
        LaurentPoly.from_json_dict(knot_json((exp, "1")))


@pytest.mark.parametrize("terms", [5, {"exp": [0], "coef": "1"}, [5], [["exp", "coef"]]])
def test_from_json_rejects_terms_that_are_not_a_list_of_objects(terms):
    with pytest.raises(ValueError, match="terms must be a list|each term must be an object"):
        LaurentPoly.from_json_dict({"vars": ["t"], "terms": terms})


def test_from_json_accepts_integers_and_decimal_strings():
    p = LaurentPoly.from_json_dict(knot_json(([-1], 1), (["0"], "-1"), ([1], "1")))
    assert p == LaurentPoly({-1: 1, 0: -1, 1: 1})


# -- |H_1|: one path and its circulant check ----------------------------------


def test_resultant_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(29)
    cases = [(ONE - T, 3), (uni({0: 1, 1: 1}), 4), (uni({0: 5}), 1), (uni({0: -2, 3: 1}), 2)]
    for _ in range(40):
        # nonzero coefficients, so the leading one is non-monic most of the time
        poly = uni({rng.randint(-4, 8): rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]) for _ in range(rng.randint(1, 6))})
        d = max(poly.terms) - min(poly.terms)
        for p in {1, rng.randint(2, 6), max(1, d), max(1, 3 * d - 1), max(1, 3 * d), 17}:
            cases.append((poly, p))
    for poly, p in cases:
        shift = min(poly.terms)
        shifted = sum(c * t ** (e - shift) for e, c in poly.terms.items())
        want = abs(sympy.resultant(sympy.Poly(shifted, t), sympy.Poly(t**p - 1, t)))
        assert abs(poly.resultant_with_cyclotomic(p)) == want, (poly, p)


def _count_paths(monkeypatch):
    calls = {"trace": 0, "subresultant": 0, "circulant": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        attr = f"_{name}_product"
        monkeypatch.setattr(laurent, attr, counted(name, getattr(laurent, attr)))
    return calls


@pytest.mark.parametrize(
    "coeffs, p, subresultant, circulant",
    [
        ({-1: 1, 0: -1, 1: 1}, 5, 1, 1),  # trefoil, cross-checked up to p = 16
        ({-1: 1, 0: -1, 1: 1}, 6, 1, 1),
        ({-1: 1, 0: -1, 1: 1}, 17, 1, 0),  # above the cross-check threshold
        ({0: 3, 1: 1, 20: 2}, 10, 1, 1),  # folds to 5 + t
        ({0: 1, 3: -1}, 3, 0, 0),  # folds to zero: the product vanishes
        ({0: 1, 18: 10}, 91, 1, 0),  # one path at every degree and leading coefficient
        ({0: 1, 18: 10}, 92, 1, 0),
        ({0: 1, 8: 1}, 24, 1, 0),
        ({0: 1, 9: 1}, 27, 1, 0),
        ({0: 1, 6: 2}, 40, 1, 0),
        ({0: 1, 6: 3}, 40, 1, 0),
        ({0: 1, 2: 2**12}, 40, 1, 0),
        ({0: 1, 2: -(2**12) - 1}, 40, 1, 0),
    ],
)
def test_resultant_path_selection(monkeypatch, coeffs, p, subresultant, circulant):
    # subresultant counts both sequences: the trace path for a palindromic
    # polynomial of even degree (the trefoil, 1 + t^8), the t-world path otherwise
    calls = _count_paths(monkeypatch)
    uni(coeffs).resultant_with_cyclotomic(p)
    dense = [coeffs.get(e, 0) for e in range(min(coeffs), max(coeffs) + 1)]
    on_trace = subresultant if dense == dense[::-1] and len(dense) % 2 else 0
    assert calls == {"trace": on_trace, "subresultant": subresultant - on_trace, "circulant": circulant}


def test_wrong_subresultant_is_caught_by_the_circulant(monkeypatch):
    # each input is caught on the path it takes: a knot on the trace path, a
    # polynomial that is not palindromic on the t-world path
    for path, poly in (("_trace_product", wheel_knot(10).alexander), ("_subresultant_product", uni({0: 2, 1: 1}))):
        monkeypatch.setattr(laurent, path, lambda coeffs, p: 12345)
        with pytest.raises(RuntimeError, match="internal disagreement: subresultant path 12345"):
            poly.resultant_with_cyclotomic(5)
        with pytest.raises(RuntimeError, match="internal disagreement: subresultant path"):
            poly.resultant_with_cyclotomic(16)
        # above the threshold nothing checks it
        assert poly.resultant_with_cyclotomic(17) == 12345
        monkeypatch.undo()


def _random_coeffs(rng, length):
    # sparse, so the remainder sequence drops more than one degree at a time
    return [rng.choice([0, 0, rng.randint(-6, 6)]) for _ in range(length)]


def test_subresultant_matches_circulant_with_sign(monkeypatch):
    drops = []
    prem = laurent._pseudo_remainder

    def recorded(a, b):
        r = prem(a, b)
        drops.append(len(b) - len(r))
        return r

    monkeypatch.setattr(laurent, "_pseudo_remainder", recorded)
    rng = random.Random(37)
    cases = [([5], p) for p in (1, 2, 7)]  # d = 0
    cases += [([-1, 0, 0, 1], 6), ([1, 0, 1], 4), ([0, 1, 0, 0, 1], 12)]  # cyclotomic factors
    for _ in range(300):
        p = rng.randint(1, 40)
        coeffs = _random_coeffs(rng, rng.randint(1, 60))  # lengths past p fold
        if rng.random() < 0.25:
            # times 1 - t^k with k | p: a p-th root of unity is a root, the product vanishes
            k = rng.choice([q for q in range(1, p + 1) if p % q == 0])
            coeffs = [c - (coeffs[i - k] if i >= k else 0) for i, c in enumerate(coeffs + [0] * k)]
        coeffs[-1] = coeffs[-1] or rng.choice([-3, -2, 2, 5])  # mostly non-monic
        cases.append((coeffs, p))
    cases += [(_random_coeffs(rng, 8) + [3], 1) for _ in range(5)]  # p = 1
    zeros = 0
    for coeffs, p in cases:
        want = laurent._circulant_product(coeffs, p)
        assert laurent._subresultant_product(coeffs, p) == want, (coeffs, p)
        zeros += want == 0
    assert zeros >= 30
    assert max(drops) > 1


def _random_palindrome(rng, n):
    half = [rng.randint(-6, 6) for _ in range(n)] + [rng.choice([-3, -2, -1, 1, 2, 5])]
    return half + half[-2::-1]  # a_0 .. a_2n with a_k = a_(2n-k), mostly non-monic


def test_trace_product_matches_circulant_with_sign():
    rng = random.Random(43)
    at_one = at_minus_one = 0
    cases = [([c], p) for c in (1, -1, 3) for p in (1, 2, 7)]  # n = 0
    for _ in range(2000):
        n, p = rng.randint(0, 8), rng.randint(1, 40)
        coeffs = _random_palindrome(rng, n)
        kind = rng.random()
        if kind < 0.15 and n:
            # shift the middle coefficient so that A(1) = 0
            coeffs[n] -= sum(coeffs)
            at_one += 1
        elif kind < 0.3 and n and p % 2 == 0:
            # and so that A(-1) = 0 at even p
            coeffs[n] -= (-1) ** n * sum(c * (-1) ** k for k, c in enumerate(coeffs))
            at_minus_one += 1
        cases.append((coeffs, p))
    zeros = 0
    for coeffs, p in cases:
        want = laurent._circulant_product(coeffs, p)
        assert laurent._trace_product(coeffs, p) == want, (coeffs, p)
        zeros += want == 0
    assert at_one >= 200 and at_minus_one >= 100 and zeros >= at_one + at_minus_one
    assert {len(c) // 2 for c, _ in cases} == set(range(9))
    assert {p for _, p in cases} == set(range(1, 41))


def test_trace_product_matches_the_t_world_path():
    for knot, p in ((wheel_knot(10), 1000), (wheel_knot(30), 200)):
        coeffs = laurent._shifted_dense(knot.alexander.terms)
        assert laurent._trace_product(coeffs, p) == laurent._subresultant_product(coeffs, p), (knot, p)
    for coeffs in ([1, -1, 1], [-1, 3, -1]):  # the trefoil and the figure-eight
        for p in range(1, 4097):
            assert laurent._trace_product(coeffs, p) == laurent._subresultant_product(coeffs, p), (coeffs, p)


def test_a_knot_stays_on_the_half_degree_sequence(monkeypatch):
    def refuse(b, p):
        raise AssertionError("a knot must not reach the t-world remainder")

    divisors = []
    prem = laurent._pseudo_remainder

    def recorded(a, b):
        divisors.append(len(b) - 1)
        return prem(a, b)

    monkeypatch.setattr(laurent, "_power_remainder", refuse)
    monkeypatch.setattr(laurent, "_pseudo_remainder", recorded)
    knots = [uni({-1: 1, 0: -1, 1: 1}), uni({-1: -1, 0: 3, 1: -1})]
    knots += [wheel_knot(n).alexander for n in (2, 5, 9)]
    knots += [uni({-2: 2, -1: -3, 0: 3, 1: -3, 2: 2})]  # non-monic, 2 - 3t + 3t^2 - 3t^3 + 2t^4
    for poly in knots:
        n = (max(poly.terms) - min(poly.terms)) // 2
        for p in (1, 2, 3, 7, 16, 17, 40, 101, 256):
            divisors.clear()
            poly.resultant_with_cyclotomic(p)
            assert max(divisors, default=0) <= n, (poly, p)
            if n > 1 and p > 2 * n:
                assert max(divisors) == n  # the ladder reduces by B itself


def test_output_bound_covers_the_product():
    rng = random.Random(41)
    for _ in range(200):
        poly = uni({rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(rng.randint(1, 6))})
        if not poly.terms:
            continue
        p = rng.randint(1, 30)
        folded = laurent._folded(laurent._shifted_dense(poly.terms), p)
        if not any(folded):
            continue
        bound = laurent._h1_bits_bound(folded, p)
        assert abs(poly.resultant_with_cyclotomic(p)).bit_length() <= bound, (poly, p)


def test_output_bound_refuses_before_any_path_runs(monkeypatch):
    assert laurent.MAX_H1_BITS == 2**21
    forbid_resultant_paths(monkeypatch)
    for n in (10, 30):
        with pytest.raises(ValueError, match="over the output bound of 2097152"):
            wheel_knot(n).alexander.resultant_with_cyclotomic(10**6)


def test_output_bound_accepts_trefoil_at_p_a_million(monkeypatch):
    monkeypatch.setattr(laurent, "_trace_product", lambda coeffs, p: 4)
    assert uni({-1: 1, 0: -1, 1: 1}).resultant_with_cyclotomic(10**6) == 4


def test_output_bound_is_read_on_the_folded_polynomial(monkeypatch):
    monkeypatch.setattr(laurent, "MAX_H1_BITS", 2)
    # 5 + t - 5t^2 at p = 2 folds to t: 1 bit, where the unfolded sum a_i^2 = 51 would give 6
    assert abs(uni({0: 5, 1: 1, 2: -5}).resultant_with_cyclotomic(2)) == 1
    monkeypatch.setattr(laurent, "MAX_H1_BITS", 7)
    # 3 + t at p = 4: floor(4 log2(10) / 2) + 1 = 7 bits, and 80 has 7
    assert uni({0: 3, 1: 1}).resultant_with_cyclotomic(4) == 80
    monkeypatch.setattr(laurent, "MAX_H1_BITS", 6)
    with pytest.raises(ValueError, match="may need 7 bits"):
        uni({0: 3, 1: 1}).resultant_with_cyclotomic(4)
