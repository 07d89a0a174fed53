import cmath
import itertools
import math
import random
from collections import Counter

import pytest

from covercalc import engine
from covercalc.diagrams import (
    DecoratedDiagram,
    DiagramError,
    Edge,
    Leg,
    attach_leg_by_subdivision,
    cycle_windings,
    surplus,
    theta,
    validate_complete,
)
from covercalc.engine import (
    cwl_delta,
    lmo_leading_multiplier,
    lmo_window,
    multiplier,
    window_nonzero,
)
from covercalc.knots import h1_order, trefoil, unknot, wheel_knot

from helpers import (
    chord_fixture,
    dumbbell,
    example_two_leg_theta,
    flip_all,
    indicator_sum,
    integer_filter,
    integer_product,
    k4_diagram,
    kappa_diagram,
    multiplier_enumeration,
    multiplier_grouped,
    per_leg_product,
    petersen,
    petersen_with_legs,
    prism,
    random_diagram,
    relabel,
    theta_with_legs,
)


def binomial_filter_sum(n, p):
    return p * sum(
        (-1) ** (p * k) * math.comb(n, p * k) for k in range(n // p + 1)
    )


def test_legless_admissible_gives_p():
    assert multiplier(theta(), 5) == 5


def test_legless_inadmissible_gives_zero():
    assert multiplier(theta(windings=(0, 1, 0)), 3) == 0


def test_legless_p_divides_windings():
    assert multiplier(theta(windings=(0, 3, 6)), 3) == 3


def test_multiplier_p1_with_legs_cancels():
    for n in (1, 2, 5):
        assert multiplier(theta_with_legs(n), 1) == 0


def test_multiplier_p1_legless_is_one():
    assert multiplier(theta(), 1) == 1


def test_multiplier_rejects_invalid_diagram():
    with pytest.raises(DiagramError):
        multiplier(chord_fixture(), 2)


def leg_product(d):
    """(constants, per-leg winding vectors) read off the cycle winding rows."""
    rows = cycle_windings(d)
    vectors = [tuple(row[i] for row in rows) for i in range(1, len(d.legs) + 1)]
    return tuple(row[0] for row in rows), vectors


def test_multiplier_leg_cap(monkeypatch):
    # n legs on one edge of the theta (b = 2) share one winding vector: the
    # support is min(n + 1, p^2) and the work (n + 1) * min(n + 1, p^2)
    monkeypatch.setattr(engine, "MAX_WORK", 16 * 9)
    assert multiplier(theta_with_legs(15), 3) == lmo_leading_multiplier(15, 3)
    monkeypatch.setattr(engine, "MAX_WORK", 16 * 16)
    assert multiplier(theta_with_legs(15), 101) == lmo_leading_multiplier(15, 101)

    def refuse(*args):
        raise AssertionError("no multiplier path may run")

    monkeypatch.setattr(engine, "_multiplier_lines", refuse)
    monkeypatch.setattr(engine, "_multiplier_polynomial", refuse)
    with pytest.raises(ValueError, match="work 289 .* work bound of 256"):
        multiplier(theta_with_legs(16), 101)
    monkeypatch.setattr(engine, "MAX_WORK", 16 * 9)
    with pytest.raises(ValueError, match="work 153 .* work bound of 144"):
        multiplier(theta_with_legs(16), 3)


def test_multiplier_runs_long_chains_under_the_default_bound():
    assert engine.MAX_WORK == 2**25
    for p in (2, 3, 7):
        assert multiplier(theta_with_legs(40), p) == lmo_leading_multiplier(40, p)


def test_multiplier_box_admits_k4_with_forty_legs_at_a_large_p():
    # a leg's entries are -1, 0 or 1, so cycle j winds over at most
    # B_j = sum_i |v_ij| + 1 values: the box prod_j B_j bounds the support
    # where min(prod(m_i + 1), p^b) does not
    rng = random.Random(4)
    d = k4_diagram()
    for i in range(40):
        edge = rng.choice([e.id for e in d.edges])
        sign, target = rng.choice((1, -1)), rng.choice(("first", "second"))
        d = attach_leg_by_subdivision(d, edge, f"l{i}", sign=sign, target=target)
    constants, vectors = leg_product(d)
    p = 100_003
    states = math.prod(m + 1 for m in Counter(vectors).values())
    assert 41 * min(states, p**3) > engine.MAX_WORK
    assert multiplier(d, p) == integer_filter(integer_product(constants, vectors, True), p)


def test_packed_check_matches_the_tuple_keyed_product():
    # the packed field width w = (p - 1).bit_length() + 1 steps up after
    # p = 1, 2, 4, 8, 16 and 32; bases of b = 2..6 and windings of either sign
    ps = (1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 10**6 + 3)
    bases = (theta, k4_diagram, lambda: prism(3), lambda: prism(4), petersen)
    rng = random.Random(20)
    seen_b, negative = set(), False
    for trial in range(30):
        constants, vectors = leg_product(random_diagram(rng, max_legs=8, bases=bases))
        seen_b.add(len(constants))
        negative = negative or min(constants) < 0
        for p in ps:
            for signed in (True, False):
                want = per_leg_product(constants, vectors, p, signed)
                assert engine._multiplier_polynomial(constants, vectors, p, signed) == want, (
                    trial, p, signed
                )
    assert seen_b == {2, 3, 4, 5, 6} and negative
    constants, vectors = leg_product(petersen_with_legs())
    for p in (1, 2, 3, 4):
        for signed in (True, False):
            want = per_leg_product(constants, vectors, p, signed)
            assert engine._multiplier_polynomial(constants, vectors, p, signed) == want


def test_split_check_matches_the_tuple_keyed_product_at_every_leg_count():
    # the check grows legs[:n // 2] from x^c and legs[n // 2:] from 1: 0 and 1
    # legs leave the first half bare, an odd count makes the halves unequal
    ps = (1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 10**6 + 3)
    rng = random.Random(21)
    nonzero = 0
    for b in range(2, 7):
        for legs in (0, 1, 2, 3, 4, 5, 7, 8):
            vectors = [tuple(rng.randint(-2, 2) for _ in range(b)) for _ in range(legs)]
            # x^c cancels a random subset of the legs, so state 0 is reachable at every p
            chosen = [vec for vec in vectors if rng.random() < 0.5]
            constants = tuple(-sum(vec[k] for vec in chosen) + rng.choice((0, 0, 1)) for k in range(b))
            for p in ps:
                for signed in (True, False):
                    want = per_leg_product(constants, vectors, p, signed)
                    assert engine._multiplier_polynomial(constants, vectors, p, signed) == want, (
                        b, legs, p, signed
                    )
                    nonzero += want != 0
    assert nonzero > 200


def test_line_factor_wraps_when_a_line_has_more_legs_than_its_order():
    # m legs on u and n on -u give one row of C(m + n, j), added at j - n mod q;
    # with m + n > q the row wraps round Z_q, on unit lines c e_k (read off when
    # c is prime to p, multiplied in otherwise) and off the axes alike
    rng = random.Random(22)
    wrapped, kept_on_axis = 0, 0
    for p in (4, 6, 8, 9, 10, 12, 15):
        for trial in range(8):
            b = rng.randint(1, 3)
            groups = Counter()
            for _ in range(rng.randint(1, 4)):
                vec = tuple(rng.randint(-3, 3) for _ in range(b))
                groups[vec] += rng.randint(1, 2 * p)
                groups[tuple(-x for x in vec)] += rng.randint(0, 2 * p)
            constants = tuple(rng.randint(-5, 5) for _ in range(b))
            lines = Counter()
            for vec, m in groups.items():
                v = tuple(x % p for x in vec)
                lines[min(v, tuple(-x % p for x in v))] += m
            for u, legs in lines.items():
                if any(u):
                    wrapped += legs > p // math.gcd(p, *u)
                    axes = [c for c in u if c]
                    kept_on_axis += len(axes) == 1 and math.gcd(axes[0], p) > 1
            for signed in (True, False):
                want = multiplier_grouped(constants, groups, p, signed)
                assert engine._multiplier_lines(constants, groups, p, signed) == want, (p, trial, signed)
    assert wrapped > 50 and kept_on_axis > 5


def theta_chain(n):
    """The shape of theta_with_legs(n), built in O(n): e1 split into u - w1 - ... - wn - v.

    Leg li hangs on wi and wraps the segment into wi, as the subdivision
    move's first target does; repeated subdivision costs O(n^2).
    """
    path = ["u", *(f"w{i}" for i in range(1, n + 1)), "v"]
    return DecoratedDiagram(
        label=f"theta-chain-{n}",
        vertices=("u", "v", *path[1:-1]),
        edges=(
            *(Edge(f"s{i}", path[i], path[i + 1], 0) for i in range(n + 1)),
            Edge("e2", "u", "v", 0),
            Edge("e3", "u", "v", 0),
        ),
        legs=tuple(Leg(f"l{i}", path[i], 1, f"s{i - 1}") for i in range(1, n + 1)),
    )


def test_multiplier_takes_a_twenty_thousand_leg_chain_at_p2():
    # one line holds every leg: its factor is one row of 20,001 binomials, and
    # the check's two halves each stay within p^b = 4 states
    for p in (2, 3, 7):
        assert multiplier(theta_chain(40), p) == lmo_leading_multiplier(40, p)
    assert multiplier(theta_chain(20_000), 2) == 2**20_000


def test_multiplier_work_counts_coefficient_words(monkeypatch):
    # a chain of N legs at p = 2 works on N-bit binomials: (N + 1) * (N // 64 + 1) * 4
    for name in ("_multiplier_lines", "_multiplier_polynomial"):
        monkeypatch.setattr(engine, name, lambda *args: 7)
    assert multiplier(theta_chain(23_167), 2) == 7  # work 33,547,264
    for name in ("_multiplier_lines", "_multiplier_polynomial"):
        monkeypatch.setattr(engine, name, lambda *args: pytest.fail("no multiplier path may run"))
    with pytest.raises(ValueError, match="^multiplier work 33641388 exceeds the work bound of 33554432$"):
        multiplier(theta_chain(23_168), 2)


def test_multiplier_takes_thirty_distinct_legs_at_p3():
    # 2^30 grouped states, but the support stays within 3^6 = 729 classes
    d = petersen_with_legs()
    constants, vectors = leg_product(d)
    assert len(Counter(vectors)) == 30 and len(constants) == 6
    # p^(1 - b) times the sum of the leg product over all b-tuples of cube roots
    roots = [cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]
    for sign in (1, -1):
        approx = 0
        for w in itertools.product(roots, repeat=6):
            value = 1
            for vec in vectors:
                value *= 1 + sign * math.prod(z**v for z, v in zip(w, vec))
            approx += value
        exact = multiplier(d, 3, signed=sign == -1)
        assert abs(approx * 3 ** (1 - 6) - exact) <= 1e-6 * max(1, abs(exact))
    assert exact == 0 and multiplier(d, 3, signed=False) == 4552608


def test_multiplier_matches_state_enumeration():
    # random diagrams at every p up to 30, composite p included; legs on the
    # dumbbell's bridge have winding vector 0, a factor x^0 of order q = 1
    bridge, edge = dumbbell(), "mid"
    for i in range(1, 4):
        bridge = attach_leg_by_subdivision(bridge, edge, f"b{i}")
        edge += f"~b{i}b"
    bridge = attach_leg_by_subdivision(bridge, "lx", "c1", sign=-1)
    rng = random.Random(53)
    diagrams = [bridge] + [random_diagram(rng, max_legs=8) for _ in range(29)]
    assert Counter(leg_product(bridge)[1])[(0, 0)] == 3
    for p in range(1, 31):
        for d in (diagrams[p - 1], bridge):
            constants, vectors = leg_product(d)
            for signed in (True, False):
                want = multiplier_enumeration(constants, Counter(vectors), p, signed)
                assert multiplier(d, p, signed=signed) == want, (d.label, p, signed)


def test_repeated_subdivision_keeps_diagrams_valid_and_multipliers_exact():
    d = attach_leg_by_subdivision(attach_leg_by_subdivision(theta(), "e1", "l1"), "e1~l1a", "l2")
    assert validate_complete(d) is None
    assert {l.id: l.edge for l in d.legs} == {"l1": "e1~l1a~l2b", "l2": "e1~l1a~l2a"}
    # split any edge, often one a leg targets, with either target segment
    rng = random.Random(8)
    for trial in range(40):
        d = theta("t", windings=(rng.randint(-3, 3), rng.randint(-3, 3), 0))
        for i in range(rng.randint(1, 7)):
            targeted = [l.edge for l in d.legs]
            edge = rng.choice(targeted if targeted and rng.random() < 0.7 else [e.id for e in d.edges])
            d = attach_leg_by_subdivision(
                d, edge, f"n{i}", sign=rng.choice((1, -1)), target=rng.choice(("first", "second"))
            )
            assert validate_complete(d) is None, (trial, i)
        constants, vectors = leg_product(d)
        for p in (2, 3, 5, 6):
            want = multiplier_enumeration(constants, Counter(vectors), p, True)
            assert multiplier(d, p) == want, (trial, p)


def test_multiplier_path_disagreement_raises(monkeypatch):
    monkeypatch.setattr(engine, "_multiplier_polynomial", lambda *args: 0)
    with pytest.raises(RuntimeError, match="internal disagreement"):
        multiplier(theta_with_legs(40), 3)


def test_wrong_line_path_is_caught_by_the_per_leg_check(monkeypatch):
    want = multiplier(theta_with_legs(40), 3)
    monkeypatch.setattr(engine, "_multiplier_lines", lambda *args: want + 3)
    message = f"^internal disagreement: line product {want + 3} vs per-leg product {want}$"
    with pytest.raises(RuntimeError, match=message):
        multiplier(theta_with_legs(40), 3)
    with pytest.raises(RuntimeError, match="internal disagreement"):
        cwl_delta(unknot(), theta_with_legs(40), 3)


def test_multiplier_is_p_times_one_count_past_the_stable_range():
    # a leg's winding entries are -1, 0 or 1, so each cycle winds within
    # |c_j| + sum_i |v_ij| = W of 0: for p > W, 0 mod p means 0, and the
    # multiplier is p times the signed count of states with all windings 0.
    # At every p it is p times the filter of one integer product in Z[x^±1]^b
    rng = random.Random(61)
    for trial in range(40):
        d = random_diagram(rng, max_legs=10)
        constants, vectors = leg_product(d)
        assert all(x in (-1, 0, 1) for vec in vectors for x in vec)
        w = max(abs(c) + sum(abs(vec[j]) for vec in vectors) for j, c in enumerate(constants))
        big = 10**9 + 7
        for signed in (True, False):
            zero_count = multiplier_enumeration(constants, Counter(vectors), big, signed) // big
            product = integer_product(constants, vectors, signed)
            for p in (*range(1, 12), w + 1, w + 2, w + 5, w + 7, 2 * w + 3, 10**6 + 3):
                value = multiplier(d, p, signed=signed)
                assert value == integer_filter(product, p), (trial, signed, p)
                if p > w:
                    assert value == p * zero_count, (trial, signed, p)


# The two multiplier paths on bare leg products: p times the mod-p indicator
# sum of x^c * prod (1 -/+ x^v) in Z[Z_p^b].


def test_multiplier_paths_four_monomials():
    # (1 + a)(1 + b) = 1 + a + b + ab: only the constant has even exponents
    assert indicator_sum((0, 0), [(1, 0), (0, 1)], 2) == 1


def test_multiplier_paths_at_p1_sum_every_coefficient():
    # t^3 (1 + t)(1 + t^-2)(1 + t^5) has coefficient sum 8
    assert indicator_sum((3,), [(1,), (-2,), (5,)], 1) == 8
    assert indicator_sum((3,), [(1,), (-2,), (5,)], 1, signed=True) == 0


def test_multiplier_paths_without_legs_test_the_constants():
    assert indicator_sum((1, 2), [], 2) == 0
    assert indicator_sum((2, -4), [], 2) == 1


def test_multiplier_paths_on_lines_that_merge_or_stay_multiplied():
    # at p = 2, v = -v: the legs on (1, 0) and (-1, 0) share one line
    assert indicator_sum((0, 0), [(1, 0), (-1, 0), (1, 1)], 2, signed=True) == 2
    # (2, 0) at p = 4 has order 2, so it is multiplied in, not read off
    assert indicator_sum((0, 0), [(2, 0), (-2, 0), (0, 1)], 4) == 2
    assert indicator_sum((2, 0), [(2, 0), (2, 0), (0, 1)], 4, signed=True) == -2
    # vectors that are 0 mod p give the scalar (1 -/+ 1)^m
    assert indicator_sum((0, 0), [(0, 0), (3, 0), (0, 1)], 3) == 4
    assert indicator_sum((0, 0), [(0, 0), (3, 0), (0, 1)], 3, signed=True) == 0
    # no line lies on an axis, and the third coordinate has no leg at all
    assert indicator_sum((0, 0, 5), [(1, 1, 0), (1, -1, 0)], 5) == 1
    assert indicator_sum((0, 0, 1), [(1, 1, 0), (1, -1, 0)], 5) == 0


def test_multiplier_paths_agree_on_random_vectors():
    # p = 1, p = 2 and composite p, where a unit vector c e_k with gcd(c, p) > 1
    # must stay multiplied; zero vectors and coordinates no leg reaches
    rng = random.Random(20261019)
    for _ in range(400):
        b = rng.randint(1, 3)
        constants = tuple(rng.randint(-6, 6) for _ in range(b))
        vectors = [tuple(rng.randint(-3, 3) for _ in range(b)) for _ in range(rng.randint(0, 7))]
        if rng.random() < 0.5 and vectors:
            vectors += rng.choices(vectors, k=rng.randint(1, 3))
        p = rng.choice((1, 2, 3, 4, 5, 6, 8, 9, 12, 13))
        for signed in (True, False):
            indicator_sum(constants, vectors, p, signed)


def test_multiplier_paths_match_float_oracle():
    # p times the coefficient at 0 in Z[Z_p^b] is p^(1-b) times the sum of
    # the product's values over all b-tuples of p-th roots of unity
    rng = random.Random(20260823)
    for _ in range(60):
        b = rng.randint(1, 2)
        constants = tuple(rng.randint(-6, 6) for _ in range(b))
        vectors = [tuple(rng.randint(-3, 3) for _ in range(b)) for _ in range(rng.randint(0, 7))]
        order = rng.randint(1, 7)
        sign = rng.choice((1, -1))
        exact = engine._multiplier_polynomial(constants, vectors, order, sign == -1)
        assert engine._multiplier_lines(constants, Counter(vectors), order, sign == -1) == exact
        assert multiplier_grouped(constants, Counter(vectors), order, sign == -1) == exact
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




def test_kappa_matches_binomial_identity():
    for n in range(1, 11):
        for p in range(1, 8):
            assert multiplier(kappa_diagram(n), p) == binomial_filter_sum(n, p)


def test_kappa_matches_roots_of_unity_sum():
    for n in range(1, 11):
        for p in range(1, 8):
            assert multiplier(kappa_diagram(n), p) == lmo_leading_multiplier(n, p)


def test_multiplier_invariant_under_relabeling():
    rng = random.Random(31)
    for _ in range(20):
        d = random_diagram(rng, max_legs=8)
        p = rng.randint(1, 7)
        assert abs(multiplier(d, p)) == abs(multiplier(relabel(d, "r"), p))


def test_multiplier_invariant_under_global_flip():
    rng = random.Random(37)
    for _ in range(20):
        d = random_diagram(rng, max_legs=8)
        p = rng.randint(1, 7)
        assert abs(multiplier(d, p)) == abs(multiplier(flip_all(d), p))


def test_double_path_agreement_is_enforced():
    # multiplier() cross-checks enumeration against the polynomial filter on
    # every call; random diagrams exercise both with and without legs
    rng = random.Random(41)
    for _ in range(100):
        d = random_diagram(rng, max_legs=12)
        multiplier(d, rng.randint(1, 7))


def test_cwl_legless_theta_admissible():
    for p in (1, 2, 3, 5):
        for knot in (unknot(), trefoil(), wheel_knot(3)):
            term = cwl_delta(knot, theta(), p)
            assert term.magnitude == 2 * p * h1_order(knot, p)
            assert term.grade == 2


def test_cwl_with_a_zero_multiplier_needs_no_h1():
    # |H_1| of wheel-40 at p = 4000 is over its work bound, but nothing multiplies it
    with pytest.raises(ValueError, match="over the work bound"):
        h1_order(wheel_knot(40), 4000)
    term = cwl_delta(wheel_knot(40), theta(windings=(0, 1, 0)), 4000)
    assert (term.magnitude, term.sign, term.grade) == (0, None, 2)


def test_cwl_legless_theta_inadmissible():
    term = cwl_delta(trefoil(), theta(windings=(1, 0, 0)), 2)
    assert term.magnitude == 0
    assert term.sign is None


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: multiplier(example_two_leg_theta(), 0), "p must be >= 1"),
        (lambda: lmo_leading_multiplier(-1, 3), "l must be >= 0"),
        (lambda: window_nonzero(1, 0), "p must be >= 1"),
    ],
    ids=["multiplier-p", "lmo-l", "window-p"],
)
def test_arguments_below_their_minimum_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_cwl_non_theta_shape_vanishes_with_note():
    term = cwl_delta(trefoil(), dumbbell(), 2)
    assert term.magnitude == 0
    assert term.note is not None
    assert term.grade == surplus(dumbbell())


def test_cwl_two_leg_example_anchors():
    # frozen regression anchors for the two-leg theta of the worked example
    d = example_two_leg_theta()
    signed_p1 = cwl_delta(unknot(), d, 1)
    assert signed_p1.magnitude == 0  # alternating signs cancel at p=1
    unsigned_p1 = cwl_delta(unknot(), d, 1, signed=False)
    assert unsigned_p1.magnitude == 8  # 2 * 1 * (1 * 4)
    signed_p2 = cwl_delta(unknot(), d, 2)
    assert signed_p2.magnitude == 4  # one admissible state, multiplier -2


def test_cwl_magnitude_divisible_by_2p_when_legless_admissible():
    for p in range(1, 7):
        for knot in (trefoil(), wheel_knot(2)):
            term = cwl_delta(knot, theta(), p)
            if h1_order(knot, p) >= 1:
                assert term.magnitude % (2 * p) == 0


def test_cwl_sign_pinned_by_full_twist_data():
    base = theta()
    d = DecoratedDiagram(
        base.label, base.vertices, base.edges, (), {"e1": 1, "e2": 1, "e3": 1}
    )
    assert cwl_delta(unknot(), d, 2).sign == 1
    d_neg = DecoratedDiagram(
        base.label, base.vertices, base.edges, (), {"e1": -1, "e2": 1, "e3": 1}
    )
    assert cwl_delta(unknot(), d_neg, 2).sign == -1


def test_cwl_sign_unknown_without_twists():
    assert cwl_delta(unknot(), theta(), 2).sign is None


def test_cwl_rejects_bad_p():
    with pytest.raises(ValueError):
        cwl_delta(unknot(), theta(), 0)


def test_lmo_multiplier_p2_closed_form():
    for l in range(1, 31):
        assert lmo_leading_multiplier(l, 2) == 2**l


def test_lmo_multiplier_l0_gives_p():
    for p in range(1, 9):
        assert lmo_leading_multiplier(0, p) == p


def test_lmo_multiplier_p1_vanishes():
    for l in range(1, 10):
        assert lmo_leading_multiplier(l, 1) == 0


def test_lmo_multiplier_cube_at_p2():
    # (1-1)^3 + (1-(-1))^3 = 8; also 2 * (C(3,0) + C(3,2)) = 8
    assert lmo_leading_multiplier(3, 2) == 8


def test_lmo_multiplier_at_p1_is_the_value_at_one():
    assert lmo_leading_multiplier(4, 1) == 0


def test_lmo_multiplier_of_the_constant_counts_the_roots():
    # (1 - w)^0 = 1 at each of the three cube roots of unity
    assert lmo_leading_multiplier(0, 3) == 3


def test_lmo_multiplier_rejects_bad_order():
    with pytest.raises(ValueError):
        lmo_leading_multiplier(1, 0)


def test_lmo_multiplier_float_oracle():
    rng = random.Random(43)
    for _ in range(40):
        l, p = rng.randint(0, 25), rng.randint(1, 10)
        exact = lmo_leading_multiplier(l, p)
        approx = sum(
            (1 - cmath.exp(2j * cmath.pi * q / p)) ** l for q in range(p)
        )
        if abs(exact) > 1e-3:
            assert abs(approx - exact) <= 1e-6 * abs(exact)
        else:
            assert abs(approx) < 1e-3


def test_lmo_multiplier_refuses_over_the_work_bound_before_any_binomial(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a refused multiplier must not compute")

    monkeypatch.setattr(engine, "_class_sum", forbidden)
    for call in (lambda: lmo_leading_multiplier(10**6, 7), lambda: window_nonzero(10**6, 7)):
        with pytest.raises(ValueError, match="LMO multiplier work 142858000000000000 exceeds"):
            call()
    # l = 6 at p = 7: 6 * 6 * (6 // 7 + 1) = 36, the start term of the window's own estimate
    monkeypatch.setattr(engine, "MAX_WINDOW_WORK", 35)
    with pytest.raises(ValueError, match="work 36 exceeds the work bound of 35"):
        lmo_leading_multiplier(6, 7)
    monkeypatch.setattr(engine, "MAX_WINDOW_WORK", 36)
    with pytest.raises(AssertionError, match="must not compute"):
        lmo_leading_multiplier(6, 7)
    monkeypatch.undo()
    # what the window accepts, its check accepts too
    monkeypatch.setattr(engine, "MAX_WINDOW_WORK", 120)
    assert lmo_window(5, 2, 7) == [lmo_leading_multiplier(l, 7) for l in (5, 6)]


def test_window_p2_first_value():
    for l in (1, 5, 17):
        assert window_nonzero(l, 2) == (l, 2**l)


def test_window_p3_from_one():
    assert window_nonzero(1, 3) == (1, 3)


def test_window_p1_is_vacuous():
    assert window_nonzero(4, 1) == (4, 0)


def test_window_rejects_bad_start():
    with pytest.raises(ValueError):
        window_nonzero(0, 3)


def test_window_always_succeeds_in_range():
    for p in range(2, 13):
        for l in range(1, 201):
            l_found, value = window_nonzero(l, p)
            assert l <= l_found < l + p
            assert value != 0


@pytest.mark.parametrize("p", [1, 2, 3, 5, 7, 12, 40, 200])
def test_lmo_window_steps_the_binomial_sums(p):
    # p = 40 and 200 exceed some windows' last leg count, so only min(p, l_end + 1) classes are kept
    for l_start in (1, 2, 9, 39, 40, 41, 120):
        for count in (1, 2, p + 3, 60):
            rows = lmo_window(l_start, count, p)
            assert rows == [lmo_leading_multiplier(l, p) for l in range(l_start, l_start + count)]


@pytest.mark.parametrize("args", [(0, 3, 5), (1, 0, 5), (1, 3, 0), (-2, 3, 5)])
def test_lmo_window_rejects_bad_arguments(args):
    with pytest.raises(ValueError, match="must all be >= 1"):
        lmo_window(*args)


def test_lmo_window_refuses_over_the_work_bound_before_computing(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a refused window must not compute")

    monkeypatch.setattr(engine, "lmo_leading_multiplier", forbidden)
    # l_end = 6 and m = min(7, 6 + 1) = 7: 6 * (2 * 7 + 6 * (6 // 7 + 1)) = 120
    monkeypatch.setattr(engine, "MAX_WINDOW_WORK", 119)
    with pytest.raises(ValueError, match="window work 120 exceeds the work bound of 119"):
        lmo_window(5, 2, 7)
    monkeypatch.setattr(engine, "MAX_WINDOW_WORK", 120)
    with pytest.raises(AssertionError, match="must not compute"):
        lmo_window(5, 2, 7)


def test_lmo_window_checks_its_last_row(monkeypatch):
    monkeypatch.setattr(
        engine, "lmo_leading_multiplier", lambda l, p: 1 if l == 4 else lmo_leading_multiplier(l, p)
    )
    with pytest.raises(RuntimeError, match="internal disagreement at l = 4: stepped 7 vs binomial sum 1"):
        lmo_window(1, 4, 7)


def test_lmo_window_checks_its_first_row(monkeypatch):
    monkeypatch.setattr(
        engine, "lmo_leading_multiplier", lambda l, p: 1 if l == 3 else lmo_leading_multiplier(l, p)
    )
    with pytest.raises(RuntimeError, match="internal disagreement at l = 3: stepped 7 vs binomial sum 1"):
        lmo_window(3, 5, 7)


def test_lmo_window_checks_a_single_row_once(monkeypatch):
    calls = []
    monkeypatch.setattr(
        engine, "lmo_leading_multiplier", lambda l, p: calls.append(l) or lmo_leading_multiplier(l, p)
    )
    assert lmo_window(6, 1, 5) == [lmo_leading_multiplier(6, 5)]
    assert calls == [6]


def test_leading_term_json_shape():
    term = cwl_delta(trefoil(), theta(), 2)
    data = term.to_json_dict()
    assert data == {
        "magnitude": "12",
        "sign": "unknown",
        "grade": 2,
        "p": 2,
        "label": "theta",
    }
