import cmath
import copy
import json
import math
import pickle
import random
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from covercalc import knots
from covercalc.knots import (
    KnotDescriptor,
    f_table,
    figure_eight,
    h1_order,
    trefoil,
    unknot,
    wheel_knot,
)
from helpers import (
    evaluate,
    forbid_resultant_paths,
    lucas,
    poly_mul,
    subresultant_product,
    takes_factored_path,
    trace_product,
)


def test_unknot_h1_is_one_for_all_p():
    for p in range(1, 8):
        assert h1_order(unknot(), p) == 1


def test_trefoil_double_cover():
    assert h1_order(trefoil(), 2) == 3


def test_figure_eight_double_cover():
    assert h1_order(figure_eight(), 2) == 5


def test_wheel_double_cover_closed_form():
    assert f_table(2, 300) == [(n, (2**n - 1) ** 2) for n in range(1, 301)]


def _wheel_by_expansion(n):
    """(1 - (1 - t)^n)(1 - (1 - 1/t)^n) multiplied out, as (coeffs, low)."""
    power = [1]
    for _ in range(n):
        power = poly_mul(power, [1, -1])
    half = [1 - power[0]] + [-c for c in power[1:]]  # at t^0 .. t^n
    full = poly_mul(half, half[::-1])  # at t^-n .. t^n
    return tuple(full[1:-1]), 1 - n  # half[0] = 0 zeroes both ends


@pytest.mark.parametrize("n", list(range(1, 41)) + [300])
def test_wheel_closed_form_matches_the_expansion(n):
    knot = wheel_knot(n)
    assert (knot.coeffs, knot.low) == _wheel_by_expansion(n)


def test_wheel_one_is_trivial():
    assert wheel_knot(1) == KnotDescriptor("wheel-1", (1,), 0)


def test_wheel_two_expansion():
    w2 = wheel_knot(2)
    # (2t - t^2)(2t^-1 - t^-2) expanded
    assert (w2.coeffs, w2.low) == ((-2, 5, -2), -1)
    assert sum(w2.coeffs) == 1


def test_wheel_at_one_is_always_one():
    for n in range(1, 12):
        assert sum(wheel_knot(n).coeffs) == 1


def test_wheel_rejects_nonpositive():
    with pytest.raises(ValueError):
        wheel_knot(0)


def test_wheel_knot_is_bounded_as_the_json_reader_is_before_it_allocates():
    # wheel-n has half-degree n - 1: wheel-23170, of 46,339 coefficients of up to
    # 46,340 bits, is the widest knot any p accepts, and some p does accept it
    knot = wheel_knot(23170)
    assert len(knot.coeffs) == 46339 and h1_order(knot, 1) == 1
    del knot
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^Alexander polynomial half-degree 23170 needs \|H_1\| work > 536870912$"):
            wheel_knot(23171)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**14


def test_f_table_values():
    table = f_table(2, 5)
    assert table == [(1, 1), (2, 9), (3, 49), (4, 225), (5, 961)]


def test_f_table_trivial_cover():
    assert all(f == 1 for _, f in f_table(1, 10))


def priced(monkeypatch):
    """The p of each knots.check_bounds call."""
    calls, check_bounds = [], knots.check_bounds

    def counted(coeffs, p):
        calls.append(p)
        return check_bounds(coeffs, p)

    monkeypatch.setattr(knots, "check_bounds", counted)
    return calls


def priced_rows(monkeypatch):
    """priced, with the trace path and its check mod q stubbed to 7."""
    calls = priced(monkeypatch)
    for name in ("_trace_product", "_product_mod_q"):
        monkeypatch.setattr(knots, name, lambda *args: 7)
    return calls


REFUSALS = {
    (2, 2000): "wheel-table at p = 2, n = 1..1169 needs work 538234771, over the work bound",
    (7, 2000): "wheel-table at p = 7, n = 1..1150 needs work 537661502, over the work bound",
    (101, 150): "wheel-table at p = 101, n = 1..84 needs work 551543473, over the work bound",
    (1, 10**9): "wheel-table at p = 1, n = 1..1169 needs work 537974969, over the work bound",
    (10**18, 2): f"|H_1| at p = {10**18} may need ",  # wheel-2 is over the output bound
}


@pytest.mark.parametrize("p, n_max", REFUSALS)
def test_f_table_over_the_work_bound_refuses_before_any_row(monkeypatch, p, n_max):
    # priced as one request, like h1 --p-range: a single row over a bound gets check_bounds' message
    assert knots.MAX_H1_WORK == 2**29
    forbid_resultant_paths(monkeypatch)
    with pytest.raises(ValueError, match=f"^{re.escape(REFUSALS[p, n_max])}"):
        f_table(p, n_max)


def test_f_table_refuses_a_row_over_the_output_bound_before_any_row(monkeypatch):
    # wheel-2 at p = 900,000 may need 2,269,978 bits; its table was accepted by a 2pn model
    forbid_resultant_paths(monkeypatch)
    with pytest.raises(ValueError, match="^\\|H_1\\| at p = 900000 may need 2269978 bits, over the output bound"):
        f_table(900_000, 2)


def test_f_table_accepts_what_its_rows_are_priced_at(monkeypatch):
    # five rows at p = 10^5 are within the per-call bounds and their summed work
    calls = priced_rows(monkeypatch)
    assert f_table(10**5, 5) == [(n, 7) for n in range(1, 6)]
    assert calls == [10**5] * 5


@pytest.mark.parametrize("p, n_max", [(2, 40), (7, 30), (17, 12)])
def test_f_table_prices_each_row_once(monkeypatch, p, n_max):
    # each row comes from the fold it was priced on, with no second pricing
    rows = [(n, h1_order(wheel_knot(n), p)) for n in range(1, n_max + 1)]
    calls = priced(monkeypatch)
    assert f_table(p, n_max) == rows
    assert calls == [p] * n_max


# the largest n_max each p accepts, each row priced by check_bounds on its wheel knot
LARGEST_TABLES = [(1, 1168), (2, 1168), (7, 1149), (16, 811), (17, 791), (101, 83), (10**5, 5)]


@pytest.mark.parametrize("p, n_max", LARGEST_TABLES)
def test_f_table_refusal_boundary(monkeypatch, p, n_max):
    # rows are priced in turn and the first over a bound or the summed bound refuses,
    # so a refusal at the price of row n_max + 1 means rows 1..n_max are accepted
    calls = priced_rows(monkeypatch)
    message = f"^(wheel-table at p = {p}, n = 1\\.\\.{n_max + 1}|\\|H_1\\| at p = {p}) needs work \\d+, "
    with pytest.raises(ValueError, match=message + "over the work bound of 536870912$"):
        f_table(p, n_max + 1)
    assert len(calls) == n_max + 1


# the largest n_max each p accepted when a row was estimated at 2pn bits, not priced on its fold
TWO_PN_TABLES = [(1, 1168), (2, 1167), (7, 941), (16, 371), (17, 788), (101, 82), (10**5, 4)]


@pytest.mark.parametrize("p, n_max", TWO_PN_TABLES)
def test_every_row_of_an_accepted_table_passes_the_per_call_work_bound(monkeypatch, p, n_max):
    # each is still accepted: every row within check_bounds' bounds, and their summed work too
    calls = priced_rows(monkeypatch)
    assert f_table(p, n_max) == [(n, 7) for n in range(1, n_max + 1)]
    assert calls == [p] * n_max


def test_wheel_table_is_symmetric_and_vanishes_exactly_at_multiples_of_six():
    # f(p, n) = |prod over z^p = 1, w^n = 1 of (1 - z - w)|^2 = f(n, p), and
    # 1 - z - w = 0 only for z, w = exp(+-i pi / 3), sixth roots of unity
    f = {p: dict(f_table(p, 40)) for p in range(1, 41)}
    for p in range(1, 41):
        for n in range(1, 41):
            assert f[p][n] == f[n][p], (p, n)
            assert (f[p][n] == 0) == (p % 6 == 0 and n % 6 == 0), (p, n)


# (n, p, whether wheel-n at p takes the factored path): on each side of its
# rule, 2 <= deg B and p // 2 + 1 <= 2 deg B, at prime and composite p, and
# at 6 | n and 6 | p, where the product is 0
SYMMETRY_EXAMPLES = [(10, 17, True), (17, 10, True), (4, 37, False), (5, 40, False), (12, 18, True), (6, 36, False)]


@given(st.integers(1, 60), st.integers(1, 60))
@example(n=10, p=17)
@example(n=17, p=10)
@example(n=4, p=37)
@example(n=5, p=40)
@example(n=12, p=18)
@example(n=6, p=36)
def test_a_wheel_knot_at_p_is_wheel_p_at_n(n, p):
    # above p = 16 no check mod q runs, so this symmetry is the only oracle of either path
    # there; past the 40 x 40 table above, both sides are single h1_order calls
    assert h1_order(wheel_knot(n), p) == h1_order(wheel_knot(p), n)


@pytest.mark.parametrize("n, p, factored", SYMMETRY_EXAMPLES)
def test_the_symmetry_examples_take_the_path_they_name(n, p, factored):
    assert takes_factored_path(wheel_knot(n).coeffs, p) == factored
    assert (h1_order(wheel_knot(n), p) == 0) == (n % 6 == 0 and p % 6 == 0)


def _g(n):
    """G_n = (1 - (1 - t)^n) / t, of degree n - 1 and not palindromic; wheel-n's A is G_n(t) G_n(1/t)."""
    return [(-1) ** j * math.comb(n, j + 1) for j in range(n)]


def test_wheel_table_is_the_square_of_one_resultant_of_g():
    # roots of unity z and 1/z pair up, so f(p, n) = Res(t^p - 1, G_n)^2: the
    # t-world oracle on G_n shares no step with the trace path on A
    for p in range(1, 60):
        assert f_table(p, 12) == [(n, subresultant_product(_g(n), p) ** 2) for n in range(1, 13)], p
    for p, n in ((200, 30), (400, 30), (1000, 10)):
        assert h1_order(wheel_knot(n), p) == subresultant_product(_g(n), p) ** 2, (p, n)


@pytest.mark.parametrize("p, n_max", [(0, 3), (3, 0)])
def test_f_table_refuses_p_or_n_max_below_one(p, n_max):
    with pytest.raises(ValueError, match="^p and n_max must be >= 1$"):
        f_table(p, n_max)


def test_f_table_divergent_subsequence_for_p6():
    values = [h1_order(wheel_knot(6 * k + 3), 6) for k in range(8)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_construction_rejects_bad_value_at_one():
    with pytest.raises(ValueError, match="^Alexander polynomial must evaluate to ±1 at t=1, got 2$"):
        KnotDescriptor("bad", (2,))


def test_construction_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric under t -> 1/t"):
        KnotDescriptor("bad", (-1, 1, 1))


def test_construction_rejects_zero_ends():
    # (0, 1, 0) is a palindrome, but not the shifted form a knot holds
    with pytest.raises(ValueError, match="must begin with a nonzero coefficient"):
        KnotDescriptor("bad", (0, 1, 0))


@pytest.mark.parametrize(
    "coeffs",
    [(0.5, 0, 0.5), (1.0,), (True,), (-1, True, 1), (Fraction(1, 2), 0, Fraction(1, 2)), (Fraction(1),)],
)
def test_construction_rejects_non_integer_coefficients(coeffs):
    # each passes the A(1) and palindrome checks; a float or Fraction knot used to
    # fail later, inside the resultant, with ZeroDivisionError
    with pytest.raises(ValueError, match="^Alexander polynomial coefficients must be integers, got "):
        KnotDescriptor("bad", coeffs)


@pytest.mark.parametrize(
    "terms",
    [{0: 1, 10**7: 1}, {0: 1, 5: -1, 10**7: 1}],
    ids=["A(1)=2", "asymmetric"],
)
def test_from_json_refuses_a_wide_knot_before_building_its_dense_list(terms):
    # the dense list over exponents 0..10^7 would take some 80 MB; the width
    # is checked first, so neither A(1) nor the palindrome is ever reached
    data = {"vars": ["t"], "terms": [{"exp": [e], "coef": c} for e, c in terms.items()]}
    message = r"^Alexander polynomial half-degree 5000000 needs \|H_1\| work > 536870912$"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            KnotDescriptor.from_json_dict(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "terms, message",
    [
        ({0: 1, 46338: 1}, "must evaluate to ±1 at t=1, got 2"),
        ({-23169: 1, 0: 1, 23169: -1}, "is not symmetric under t -> 1/t up to a unit"),
        ({0: 1, 4: -1, 10: 1, 11: 0}, "is not symmetric under t -> 1/t up to a unit"),
        ({0: 1, 1: 1}, "must evaluate to ±1 at t=1, got 2"),
        ({7: 0}, "must evaluate to ±1 at t=1, got 0"),
    ],
    ids=["A(1)=2-widest", "asymmetric-widest", "asymmetric", "odd-degree", "zero"],
)
def test_from_json_leaves_a_knot_within_the_width_bound_to_the_constructor(terms, message):
    # the parser checks only the width; the constructor's messages reach the user unchanged
    data = {"vars": ["t"], "terms": [{"exp": [e], "coef": c} for e, c in terms.items()]}
    with pytest.raises(ValueError, match=f"^Alexander polynomial {re.escape(message)}$"):
        KnotDescriptor.from_json_dict(data)


def wide_knot(n):
    """{t^-n: 1, t^0: -1, t^n: 1}: a palindrome of half-degree n with A(1) = 1."""
    return {"vars": ["t"], "terms": [{"exp": [e], "coef": c} for e, c in ((-n, 1), (0, -1), (n, 1))]}


def test_from_json_refuses_a_knot_wider_than_any_h1_call_accepts():
    # |H_1| of half-degree h costs at least _h1_work(h, 1, 0) = 2^12 + (h + 1)^2 at every p
    widest = math.isqrt(knots.MAX_H1_WORK - 2**12) - 1
    assert widest == 23169
    assert len(KnotDescriptor.from_json_dict(wide_knot(widest)).coeffs) == 2 * widest + 1
    with pytest.raises(ValueError, match="^Alexander polynomial half-degree 23170 needs "):
        KnotDescriptor.from_json_dict(wide_knot(widest + 1))
    # so the parser refuses no knot that some h1 call would accept
    coeffs = [1] + [0] * widest + [-1] + [0] * widest + [1]
    for p in (1, 2, 3, 16, 17, 10**5):
        with pytest.raises(ValueError, match="over the (work|output) bound"):
            knots.check_bounds(coeffs, p)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"half-degree 2000000 needs \|H_1\| work > 536870912$"):
            KnotDescriptor.from_json_dict(wide_knot(2 * 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_knot_descriptor_has_record_semantics():
    k = trefoil()
    assert k == KnotDescriptor("trefoil", [1, -1, 1], -1)
    assert k != KnotDescriptor("other", k.coeffs, k.low)
    assert k != KnotDescriptor("trefoil", k.coeffs)  # another unit, low = 0
    assert k != KnotDescriptor("trefoil", k.coeffs, k.low, "s")
    assert k != figure_eight()
    assert k != ("trefoil", k.coeffs, k.low, k.var)
    assert repr(k) == "KnotDescriptor(label='trefoil', coeffs=(1, -1, 1), low=-1, var='t')"
    for attempt in (lambda: setattr(k, "label", "x"), lambda: delattr(k, "coeffs")):
        with pytest.raises(AttributeError):
            attempt()
    # its fields are a string, a tuple of ints, an int and a string
    assert hash(k) == hash(("trefoil", (1, -1, 1), -1, "t"))
    assert len({k, trefoil(), figure_eight()}) == 2


def test_knot_descriptor_copies_and_pickles_compare_equal():
    k = wheel_knot(5)
    for again in (copy.copy(k), copy.deepcopy(k), pickle.loads(pickle.dumps(k))):
        assert again == k
        assert type(again) is KnotDescriptor


def test_h1_multiplicative_under_connect_sum():
    rng = random.Random(3)
    a, b = trefoil(), figure_eight()
    for p in range(1, 9):
        combined = KnotDescriptor("sum", poly_mul(a.coeffs, b.coeffs))
        assert h1_order(combined, p) == h1_order(a, p) * h1_order(b, p)
    for _ in range(20):
        p = rng.randint(1, 8)
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        combined = KnotDescriptor("sum", poly_mul(wheel_knot(n).coeffs, wheel_knot(m).coeffs))
        assert h1_order(combined, p) == h1_order(wheel_knot(n), p) * h1_order(
            wheel_knot(m), p
        )


def test_h1_matches_float_product():
    rng = random.Random(17)
    knots = [trefoil(), figure_eight()] + [wheel_knot(n) for n in range(1, 8)]
    for _ in range(40):
        k = rng.choice(knots)
        p = rng.randint(1, 12)
        exact = h1_order(k, p)
        prod = 1.0
        for q in range(p):
            prod *= abs(evaluate(k.coeffs, cmath.exp(2j * cmath.pi * q / p), k.low))
        if prod > 1e-3:
            assert abs(prod - exact) <= 1e-6 * max(1.0, exact)
        else:
            assert exact == 0


def test_zero_encodes_positive_betti_number():
    # A(t) with a p-th root of unity as a root: use (t - 1 + t^-1) at p = 6,
    # whose roots are primitive sixth roots of unity.
    assert h1_order(trefoil(), 6) == 0


def test_json_round_trip():
    k = trefoil()
    again = KnotDescriptor.from_json_dict(k.to_json_dict())
    assert again == k
    assert again.label == "trefoil"


def test_json_zero_terms_and_another_variable_read_to_the_normal_form():
    # the trefoil in s at exponents 4..6, with zero terms inside and past both ends
    coefs = {0: "0", 4: "1", 5: -1, 6: "1", 7: 0, 9: "0"}
    data = {"label": "trefoil", "vars": ["s"], "terms": [{"exp": [e], "coef": c} for e, c in coefs.items()]}
    k = KnotDescriptor.from_json_dict(data)
    assert k == KnotDescriptor("trefoil", (1, -1, 1), 4, "s")
    normal = {"vars": ["s"], "terms": [{"exp": [e], "coef": c} for e, c in ((4, "1"), (5, "-1"), (6, "1"))],
              "label": "trefoil"}
    assert k.to_json_dict() == normal
    assert KnotDescriptor.from_json_dict(normal) == k
    assert [h1_order(k, p) for p in range(1, 41)] == [h1_order(trefoil(), p) for p in range(1, 41)]


def test_golden_knot_fixtures_round_trip_byte_for_byte():
    files = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))["files"]
    knots_read = 0
    for name, data in files.items():
        if "vars" in data and name != "bad-knot.json":
            assert json.dumps(KnotDescriptor.from_json_dict(data).to_json_dict()) == json.dumps(data), name
            knots_read += 1
    assert knots_read == 5


@pytest.mark.parametrize("label", [["x", 1], {"a": 1}, 3, None, True])
def test_from_json_rejects_non_string_labels(label):
    data = trefoil().to_json_dict()
    data["label"] = label
    with pytest.raises(ValueError, match="knot label must be a string"):
        KnotDescriptor.from_json_dict(data)


def test_from_json_missing_label_is_empty():
    data = trefoil().to_json_dict()
    del data["label"]
    assert KnotDescriptor.from_json_dict(data).label == ""


# -- large p, out of reach of a p x p determinant --------------------------

TREFOIL_PERIOD = (0, 1, 3, 4, 3, 1)  # |H_1| of the trefoil's p-fold cover by p mod 6


def test_trefoil_period_six_up_to_ten_thousand():
    # a stride of 13 = 1 mod 6 visits every residue class
    for p in list(range(1, 10_001, 13)) + [9_999, 10_000]:
        assert h1_order(trefoil(), p) == TREFOIL_PERIOD[p % 6], p


def test_trefoil_period_six_past_ten_to_the_eighteen():
    # no list of length p could be allocated here: G_p is reduced by a Lucas ladder.
    # h1_order would refuse these p by the output bound, so the path is called directly
    for k in range(6):
        p = 10**18 + k
        assert trace_product([1, -1, 1], p) == TREFOIL_PERIOD[p % 6], p


@pytest.mark.parametrize("p", [500, 2000, 11_000])
def test_figure_eight_is_lucas_minus_two(p):
    assert h1_order(figure_eight(), p) == lucas(2 * p) - 2


def test_wheel_table_at_p_1009_matches_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    p = 1009
    rows = f_table(p, 3)
    for n, value in rows:
        poly = sympy.Poly(sympy.expand((1 - (1 - t) ** n) * (t**n - (t - 1) ** n)), t)
        assert value == abs(sympy.resultant(poly, sympy.Poly(t**p - 1, t))), n


# -- divisibility across divisors ---------------------------------------------
# Res(t^p - 1, A) is the product over e | p of the integers Res(Phi_e, A), so
# |H_1|(d) divides |H_1|(p) whenever d | p (Fox, Free differential calculus
# III, Ann. of Math. 64, 1956). The oracle shares no code with any |H_1| path.


def _divides(small, big):
    return big == 0 if small == 0 else big % small == 0


@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(lambda upper: upper[-1]),
    st.sampled_from([1, -1]),
)
def test_h1_of_a_divisor_divides_h1(upper, at_one):
    # a random palindrome of half-degree 1 to 4 with A(1) = ±1
    knot = KnotDescriptor("k", upper[::-1] + [at_one - 2 * sum(upper)] + upper)
    h1 = {p: h1_order(knot, p) for p in range(1, 41)}
    for p, value in h1.items():
        for d in range(1, p):
            if p % d == 0:
                assert _divides(h1[d], value), (knot.coeffs, d, p)


def test_wheel_rows_of_divisors_divide():
    # G_d divides G_n whenever d | n, so f(p, d) divides f(p, n)
    for p in range(1, 17):
        f = dict(f_table(p, 24))
        for n, value in f.items():
            for d in range(1, n):
                if n % d == 0:
                    assert _divides(f[d], value), (p, d, n)
