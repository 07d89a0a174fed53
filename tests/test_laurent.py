import ast
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from covercalc import knots
from covercalc.engine import lmo_leading_multiplier
from covercalc.knots import KnotDescriptor, h1_order, resultant_with_cyclotomic, wheel_knot
from covercalc.records import _Record

from helpers import (
    bareiss_det,
    circulant_product,
    forbid_resultant_paths,
    indicator_sum,
    poly_mul,
    subresultant_product,
    trace_product,
)

TREFOIL = (1, -1, 1)


def _random_palindrome(rng, n):
    half = [rng.randint(-6, 6) for _ in range(n)] + [rng.choice([-3, -2, -1, 1, 2, 5])]
    return half + half[-2::-1]  # a_0 .. a_2n with a_k = a_(2n-k), mostly non-monic


def _random_palindromic_poly(rng, max_n):
    """A palindrome of even degree 2n <= 2 max_n with nonzero ends, as a knot holds it."""
    coeffs = _random_palindrome(rng, rng.randint(0, max_n))
    while not coeffs[0]:  # the middle coefficient is nonzero
        coeffs = coeffs[1:-1]
    return coeffs


def _random_alexander(rng, max_n):
    """The same with A(1) = 1, as an Alexander polynomial has."""
    coeffs = _random_palindromic_poly(rng, max_n)
    coeffs[len(coeffs) // 2] += 1 - sum(coeffs)
    return coeffs


def _dense(terms):
    """The coefficients of a term map from its lowest exponent up."""
    return [terms.get(e, 0) for e in range(min(terms), max(terms) + 1)]


def test_resultant_identity_polynomial():
    assert abs(resultant_with_cyclotomic((1,), 5)) == 1


def test_resultant_trefoil_p2():
    assert abs(resultant_with_cyclotomic(TREFOIL, 2)) == 3


def test_resultant_refuses_p_below_one(monkeypatch):
    forbid_resultant_paths(monkeypatch)
    with pytest.raises(ValueError, match="^p must be >= 1$"):
        resultant_with_cyclotomic(TREFOIL, 0)


def test_resultant_vanishes_at_root_of_unity():
    # 1 + t + t^2 vanishes at the primitive cube roots of unity
    assert resultant_with_cyclotomic((1, 1, 1), 3) == 0


def test_resultant_rejects_zero_polynomial():
    # a knot is refused at construction, before any resultant, and so is zero read from JSON
    message = "^Alexander polynomial must evaluate to ±1 at t=1, got 0$"
    with pytest.raises(ValueError, match=message):
        KnotDescriptor("zero", ())
    with pytest.raises(ValueError, match=message):
        KnotDescriptor.from_json_dict(knot_json(([0], "0"), ([3], 0)))


@pytest.mark.parametrize(
    "terms",
    [
        {},  # zero
        {0: 2, 1: 1},  # not palindromic
        {0: 1, 1: -1},  # anti-palindromic, 1 - t
        {-1: 1, 0: -1, 1: 2},
        {0: 1, 1: 1},  # palindromes of odd degree
        {-2: 3, -1: 1, 0: 1, 1: 3},
        {0: 1, 5: 1},
        {0: -1, 1: 1, 2: 1},  # A(1) = 1 but not palindromic
        {0: 2, 1: -1},  # odd degree and A(1) = 1
        {0: 0, 3: -3, 4: 1, 5: 1},  # odd degree and A(1) = -1 once its zero term is dropped
    ],
)
def test_resultant_refuses_all_but_even_palindromes_before_any_path_runs(monkeypatch, terms):
    # the one palindrome check is at construction; an odd-degree palindrome has even A(1)
    forbid_resultant_paths(monkeypatch)
    data = knot_json(*(([e], c) for e, c in terms.items()))
    with pytest.raises(ValueError, match="^Alexander polynomial (must evaluate to ±1|is not symmetric)"):
        KnotDescriptor.from_json_dict(data)


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
    # a unit -t^k or t -> 1/t changes a knot's JSON terms, not the coefficients it reads
    rng = random.Random(11)
    for _ in range(30):
        coeffs = _random_alexander(rng, 3)
        order = rng.randint(1, 8)
        base = abs(resultant_with_cyclotomic(coeffs, order))
        k = rng.randint(-3, 3)
        for sign, step in ((1, 1), (-1, 1), (1, -1)):
            terms = (([k + step * i], sign * c) for i, c in enumerate(coeffs))
            knot = KnotDescriptor.from_json_dict(knot_json(*terms))
            assert knot.coeffs == tuple(sign * c for c in coeffs)
            assert h1_order(knot, order) == base


def test_resultant_multiplicative():
    # a connected sum of knots multiplies their Alexander polynomials
    rng = random.Random(13)
    for _ in range(30):
        a, b = _random_palindromic_poly(rng, 2), _random_palindromic_poly(rng, 2)
        order = rng.randint(1, 7)
        lhs = abs(resultant_with_cyclotomic(poly_mul(a, b), order))
        rhs = abs(resultant_with_cyclotomic(a, order)) * abs(resultant_with_cyclotomic(b, order))
        assert lhs == rhs


def test_bareiss_det_small_cases():
    assert bareiss_det([]) == 1
    assert bareiss_det([[7]]) == 7
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[1, 2], [2, 4]]) == 0


def test_json_round_trip_preserves_big_integers():
    big = 2**200 - 1
    k = KnotDescriptor("big", (big, 1 - 2 * big, big), -3)
    assert KnotDescriptor.from_json_dict(k.to_json_dict()) == k
    assert k.to_json_dict()["terms"][0] == {"exp": [-3], "coef": str(big)}


@given(
    st.lists(st.integers(-(2**80), 2**80), max_size=5),
    st.integers(-10**6, 10**6),
    st.sampled_from([1, -1]),
    st.sampled_from(["t", "s", "q"]),
)
def test_json_round_trip_property(upper, low, at_one, var):
    while upper and not upper[-1]:
        upper.pop()
    k = KnotDescriptor("k", upper[::-1] + [at_one - 2 * sum(upper)] + upper, low, var)
    assert KnotDescriptor.from_json_dict(json.loads(json.dumps(k.to_json_dict()))) == k


def knot_json(*terms):
    return {"vars": ["t"], "terms": [{"exp": exp, "coef": coef} for exp, coef in terms]}


@pytest.mark.parametrize("coef", [1.9, -1.5, 2.0, True, "1.9", None])
def test_from_json_rejects_non_integer_coefficient(coef):
    with pytest.raises(ValueError, match="coefficient"):
        KnotDescriptor.from_json_dict(knot_json(([0], coef)))


@pytest.mark.parametrize("exp", [-1.5, 1.0, True, "x"])
def test_from_json_rejects_non_integer_exponent(exp):
    with pytest.raises(ValueError, match="exponent"):
        KnotDescriptor.from_json_dict(knot_json(([exp], "1")))


def test_from_json_rejects_duplicate_exponent():
    with pytest.raises(ValueError, match="duplicate exponent 1"):
        KnotDescriptor.from_json_dict(knot_json(([1], "2"), ([0], "-3"), ([1], "2")))


@pytest.mark.parametrize("exp", [[], [1, 0], 1])
def test_from_json_rejects_exp_without_exactly_one_entry(exp):
    with pytest.raises(ValueError, match="exactly one exponent"):
        KnotDescriptor.from_json_dict(knot_json((exp, "1")))


@pytest.mark.parametrize("terms", [5, {"exp": [0], "coef": "1"}, [5], [["exp", "coef"]]])
def test_from_json_rejects_terms_that_are_not_a_list_of_objects(terms):
    with pytest.raises(ValueError, match="terms must be a list|each term must be an object"):
        KnotDescriptor.from_json_dict({"vars": ["t"], "terms": terms})


def test_from_json_requires_exactly_one_variable():
    data = {"vars": ["a", "b"], "terms": [{"exp": [1, 0], "coef": "1"}]}
    with pytest.raises(ValueError, match="exactly one variable"):
        KnotDescriptor.from_json_dict(data)


def test_from_json_accepts_integers_and_decimal_strings():
    k = KnotDescriptor.from_json_dict(knot_json(([-1], 1), (["0"], "-1"), ([1], "1")))
    assert k == KnotDescriptor("", (1, -1, 1), -1)


# -- |H_1|: one path and its t-world check ------------------------------------


def test_resultant_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(29)
    cases = [(TREFOIL, 3), ((1, 1, 1), 4), ((5,), 1), ((-2, 1, -2), 2)]
    for _ in range(40):
        poly = _random_palindromic_poly(rng, 4)
        d = len(poly) - 1
        for p in {1, rng.randint(2, 6), max(1, d), max(1, 3 * d - 1), max(1, 3 * d), 17}:
            cases.append((poly, p))
    for poly, p in cases:
        dense = sum(c * t**k for k, c in enumerate(poly))
        want = abs(sympy.resultant(sympy.Poly(dense, t), sympy.Poly(t**p - 1, t)))
        assert abs(resultant_with_cyclotomic(poly, p)) == want, (poly, p)


def _count_paths(monkeypatch):
    calls = {"trace": 0, "t_world": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        attr = f"_{name}_product"
        monkeypatch.setattr(knots, attr, counted(name, getattr(knots, attr)))
    return calls


@pytest.mark.parametrize(
    "coeffs, p, trace, t_world",
    [
        ({-1: 1, 0: -1, 1: 1}, 5, 1, 1),  # trefoil, cross-checked up to p = 16
        ({-1: 1, 0: -1, 1: 1}, 6, 1, 1),
        ({-1: 1, 0: -1, 1: 1}, 17, 1, 0),  # above the cross-check threshold
        ({0: 3, 1: 1, 19: 1, 20: 3}, 10, 1, 1),  # degree 20 at p = 10 folds to 6 + t + t^9
        ({0: 1, 3: -2, 6: 1}, 3, 1, 1),  # (1 - t^3)^2 folds to zero: both paths return 0 at once
        ({0: 10, 9: 1, 18: 10}, 91, 1, 0),  # one path at every degree and leading coefficient
        ({0: 10, 9: 1, 18: 10}, 92, 1, 0),
        ({0: 1, 8: 1}, 24, 1, 0),
        ({0: 1, 5: 3, 10: 1}, 27, 1, 0),
        ({0: 2, 3: 1, 6: 2}, 40, 1, 0),
        ({0: 3, 3: -1, 6: 3}, 40, 1, 0),
        ({0: 2**12, 1: 1, 2: 2**12}, 40, 1, 0),
        ({0: -(2**12) - 1, 1: 1, 2: -(2**12) - 1}, 40, 1, 0),
    ],
)
def test_resultant_path_selection(monkeypatch, coeffs, p, trace, t_world):
    calls = _count_paths(monkeypatch)
    resultant_with_cyclotomic(_dense(coeffs), p)
    assert calls == {"trace": trace, "t_world": t_world}


@pytest.mark.parametrize("p", [3, 16, 17, 40])
def test_a_zero_fold_gives_zero_on_both_paths(p):
    # (1 - t^p)^2 folds to zero mod t^p - 1; its sum, A(1), is 0, so the trace
    # path returns at its divisor test and the t-world check at its empty fold
    coeffs = _dense({0: 1, p: -2, 2 * p: 1})
    assert trace_product(coeffs, p) == 0
    assert knots._t_world_product(knots._folded(coeffs, p), p) == 0
    assert resultant_with_cyclotomic(coeffs, p) == 0


def test_wrong_trace_product_is_caught_by_the_t_world_check(monkeypatch):
    monkeypatch.setattr(knots, "_trace_product", lambda folded, n, p: 12345)
    poly = wheel_knot(10).coeffs
    for p in (5, 16):
        with pytest.raises(RuntimeError, match=r"^internal disagreement: trace path 12345 vs t-world -?\d+$"):
            resultant_with_cyclotomic(poly, p)
    # above the threshold nothing checks it
    assert resultant_with_cyclotomic(poly, 17) == 12345


def _random_coeffs(rng, length):
    # sparse, so the remainder sequence drops more than one degree at a time
    return [rng.choice([0, 0, rng.randint(-6, 6)]) for _ in range(length)]


def test_subresultant_matches_circulant_with_sign(monkeypatch):
    drops = []
    prem = knots._pseudo_remainder

    def recorded(a, b):
        r = prem(a, b)
        drops.append(len(b) - len(r))
        return r

    monkeypatch.setattr(knots, "_pseudo_remainder", recorded)
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
        want = circulant_product(coeffs, p)
        assert subresultant_product(coeffs, p) == want, (coeffs, p)
        zeros += want == 0
    assert zeros >= 30
    assert max(drops) > 1


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
        want = circulant_product(coeffs, p)
        assert trace_product(coeffs, p) == want, (coeffs, p)
        zeros += want == 0
    assert at_one >= 200 and at_minus_one >= 100 and zeros >= at_one + at_minus_one
    assert {len(c) // 2 for c, _ in cases} == set(range(9))
    assert {p for _, p in cases} == set(range(1, 41))


@given(st.lists(st.integers(-6, 6), max_size=12), st.integers(-6, 6).filter(bool), st.integers(1, 30))
@example(lower=[1, -2], top=3, p=4)  # even p with 2n >= p: the entry at j = p / 2 is halved
@example(lower=[2, 0, 1], top=-1, p=7)  # 2n + 1 = p: A is not folded
def test_trace_read_from_the_fold_matches_circulant(lower, top, p):
    # the trace path reads B mod G_p off the fold that check_bounds priced
    half = [top] + lower  # a_0 .. a_n
    coeffs = half + half[-2::-1]
    folded = knots.check_bounds(coeffs, p)[0]
    assert len(folded) == min(len(coeffs), p)
    assert knots._trace_product(folded, len(lower), p) == circulant_product(coeffs, p)


def test_t_world_check_matches_trace_circulant_and_sympy_with_sign(monkeypatch):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    drops = []
    prem = knots._pseudo_remainder

    def recorded(a, b):
        r = prem(a, b)
        drops.append(len(b) - len(r))
        return r

    rng = random.Random(47)
    cases = [wheel_knot(n).coeffs for n in range(1, 31)]
    at_one = at_minus_one = 0
    for _ in range(60):
        n = rng.randint(1, 8)
        half = [rng.choice([-3, -2, 2, 5])] + _random_coeffs(rng, n)  # non-monic, sparse
        coeffs = half + half[-2::-1]
        if rng.random() < 0.5:
            coeffs[n] -= sum(coeffs)  # A(1) = 0
            at_one += 1
        else:
            coeffs[n] -= (-1) ** n * sum(c * (-1) ** k for k, c in enumerate(coeffs))  # A(-1) = 0
            at_minus_one += 1
        cases.append(coeffs)
    monkeypatch.setattr(knots, "_pseudo_remainder", recorded)
    zeros = most = 0
    for coeffs in cases:
        poly = sympy.Poly.from_list(coeffs[::-1], t)
        for p in range(1, 17):
            folded = knots._folded(coeffs, p) if len(coeffs) > p else coeffs
            drops.clear()
            want = knots._t_world_product(folded, p)
            most = max([most, *drops])
            assert want == knots._trace_product(folded, len(coeffs) // 2, p) == circulant_product(coeffs, p), (coeffs, p)
            # sympy.resultant(f, g) has the sign of Res(g, f) when deg f < deg g
            if poly.degree() > p:
                oracle = (-1) ** (p * poly.degree()) * sympy.resultant(poly, sympy.Poly(t**p - 1, t))
            else:
                oracle = sympy.resultant(sympy.Poly(t**p - 1, t), poly)
            assert want == oracle, (coeffs, p)
            zeros += want == 0
    assert at_one >= 20 and at_minus_one >= 20 and zeros >= at_one * 16
    assert all(c[-1] not in (1, -1) for c in cases[1:])  # wheel-n leads with ±n
    assert most > 1


def test_trace_product_matches_the_t_world_path():
    for knot, p in ((wheel_knot(10), 1000), (wheel_knot(30), 200)):
        coeffs = knot.coeffs
        assert trace_product(coeffs, p) == subresultant_product(coeffs, p), (knot, p)
    for coeffs in ([1, -1, 1], [-1, 3, -1]):  # the trefoil and the figure-eight
        for p in range(1, 4097):
            assert trace_product(coeffs, p) == subresultant_product(coeffs, p), (coeffs, p)


def test_a_knot_stays_on_the_half_degree_sequence(monkeypatch):
    # only the trace path's divisors: the t-world check divides by A folded,
    # of degree up to min(2n, p - 1)
    divisors, tracing = [], []
    prem, trace = knots._pseudo_remainder, knots._trace_product

    def recorded(a, b):
        if tracing:
            divisors.append(len(b) - 1)
        return prem(a, b)

    def traced(folded, n, p):
        tracing.append(p)
        try:
            return trace(folded, n, p)
        finally:
            tracing.pop()

    monkeypatch.setattr(knots, "_pseudo_remainder", recorded)
    monkeypatch.setattr(knots, "_trace_product", traced)
    polys = [TREFOIL, (-1, 3, -1)]
    polys += [wheel_knot(n).coeffs for n in (2, 5, 9)]
    polys += [(2, -3, 3, -3, 2)]  # non-monic, 2 - 3t + 3t^2 - 3t^3 + 2t^4
    for poly in polys:
        n = len(poly) // 2
        for p in (1, 2, 3, 7, 16, 17, 40, 101, 256):
            divisors.clear()
            resultant_with_cyclotomic(poly, p)
            assert max(divisors, default=0) <= n, (poly, p)
            if n > 1 and p > 2 * n:
                assert max(divisors) == n  # the ladder reduces by B itself


def test_output_bound_covers_the_product():
    rng = random.Random(41)
    for _ in range(200):
        poly = _random_palindromic_poly(rng, 3)
        p = rng.randint(1, 30)
        folded = knots._folded(poly, p)
        if not any(folded):
            continue
        bound = knots._h1_bits_bound(folded, p)
        assert abs(resultant_with_cyclotomic(poly, p)).bit_length() <= bound, (poly, p)


def test_output_bound_refuses_before_any_path_runs(monkeypatch):
    assert knots.MAX_H1_BITS == 2**21
    forbid_resultant_paths(monkeypatch)
    for n in (10, 30):
        with pytest.raises(ValueError, match="over the output bound of 2097152"):
            resultant_with_cyclotomic(wheel_knot(n).coeffs, 10**6)


def test_output_bound_accepts_trefoil_at_p_a_million(monkeypatch):
    monkeypatch.setattr(knots, "_trace_product", lambda folded, n, p: 4)
    assert resultant_with_cyclotomic(TREFOIL, 10**6) == 4


def test_output_bound_is_read_on_the_folded_polynomial(monkeypatch):
    monkeypatch.setattr(knots, "MAX_H1_BITS", 3)
    # 5 + t - 10t^2 + t^3 + 5t^4 at p = 2 folds to 2t: 3 bits, where the
    # unfolded sum a_i^2 = 152 would give 8
    assert abs(resultant_with_cyclotomic((5, 1, -10, 1, 5), 2)) == 4
    monkeypatch.setattr(knots, "MAX_H1_BITS", 8)
    # 1 - 6t + t^2 at p = 3: floor(3 log2(38) / 2) + 1 = 8 bits, and 196 has 8
    assert abs(resultant_with_cyclotomic((1, -6, 1), 3)) == 196
    monkeypatch.setattr(knots, "MAX_H1_BITS", 7)
    with pytest.raises(ValueError, match="may need 8 bits"):
        resultant_with_cyclotomic((1, -6, 1), 3)


def test_work_bound_refuses_before_any_path_runs(monkeypatch):
    assert knots.MAX_H1_WORK == 2**29
    forbid_resultant_paths(monkeypatch)
    for n, p, work in ((40, 4000, 4519110611), (80, 1000, 4740044483)):
        message = f"|H_1| at p = {p} needs work {work}, over the work bound of 536870912"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            resultant_with_cyclotomic(wheel_knot(n).coeffs, p)


def test_output_bound_is_checked_before_the_work_bound(monkeypatch):
    forbid_resultant_paths(monkeypatch)
    monkeypatch.setattr(knots, "MAX_H1_WORK", 0)
    with pytest.raises(ValueError, match="over the output bound"):
        resultant_with_cyclotomic(wheel_knot(80).coeffs, 10**6)
    with pytest.raises(ValueError, match="over the work bound of 0$"):
        resultant_with_cyclotomic(TREFOIL, 5)


def test_a_range_is_priced_by_its_summed_work(monkeypatch):
    # each p alone is within both bounds; the rows' summed _h1_work is not
    forbid_resultant_paths(monkeypatch)
    ranges = ((knots.trefoil(), 1, 38940), (wheel_knot(30), 2, 264))
    for knot, start, last in ranges:
        message = f"|H_1| at p = {start}..{last + 1} needs work "
        with pytest.raises(ValueError, match=f"^{re.escape(message)}\\d+, over the work bound of 536870912$"):
            knots.h1_orders(knot, range(start, 10**8))
    # one p over a bound gets check_bounds' own message
    for p, message in ((4000, "needs work 4519110611, over the work"), (10**6, "over the output bound")):
        with pytest.raises(ValueError, match=f"^\\|H_1\\| at p = {p} .*{message}"):
            knots.h1_orders(wheel_knot(40), range(p, p + 1))
    # an accepted range computes every row, here from stubs that agree
    for name in ("_trace_product", "_t_world_product"):
        monkeypatch.setattr(knots, name, lambda *args: -args[-1])
    for knot, start, last in ranges:
        assert knots.h1_orders(knot, range(start, last + 1)) == [(p, p) for p in range(start, last + 1)]


def test_work_bound_accepts_every_half_degree_one_polynomial_above_p_16():
    # even at the largest output the bits bound admits, the trace path's estimate stays under
    for p in (17, 11000, 10**6, 10**18):
        assert knots._h1_work(1, p, knots.MAX_H1_BITS) < knots.MAX_H1_WORK


SRC = Path(knots.__file__).parent


def test_knots_imports_and_definitions():
    # the |H_1| functions live in knots, which imports only the stdlib and records;
    # no module imports the former laurent
    nodes = list(ast.walk(ast.parse((SRC / "knots.py").read_text(encoding="utf-8"))))
    modules = [node.module for node in nodes if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
    assert set(modules) == {"__future__", "math", "collections.abc", "records"}
    assert [node.name for node in nodes if isinstance(node, ast.ClassDef)] == ["KnotDescriptor"]
    functions = [node for node in nodes if isinstance(node, ast.FunctionDef)]
    defined = {node.name for node in functions}
    assert not {"_shifted_dense", "_palindromic", "check_range"} & defined  # the knot shifts and checks once
    # one single-p path and one pricing of many requests, which h1_orders and f_table share
    callers = {
        node.name: {call.func.id for call in ast.walk(node)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
        for node in functions
    }
    assert {name for name, called in callers.items() if "check_bounds" in called} == {
        "resultant_with_cyclotomic", "_priced_rows"
    }
    assert "_priced_rows" in callers["h1_orders"] & callers["f_table"]
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sources = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        sources |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        assert not {source for source in sources if source and "laurent" in source}, path.name
    assert issubclass(KnotDescriptor, _Record)
    assert not {"__eq__", "__repr__", "__hash__"} & set(vars(KnotDescriptor))
