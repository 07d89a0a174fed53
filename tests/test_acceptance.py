"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import cmath
import itertools
import math
import random

from covercalc.diagrams import surplus, degree, theta, validate_complete
from covercalc.engine import cwl_delta, lmo_leading_multiplier, multiplier, window_nonzero
from covercalc.knots import KnotDescriptor, f_table, h1_order, trefoil, unknot, wheel_knot
from covercalc.lifts import solve
from covercalc.signs import GraphIso, chain_twist, comparison_sign
from covercalc.diagrams import DecoratedDiagram

from helpers import (
    chord_fixture,
    evaluate,
    fork_fixture,
    kappa_diagram,
    random_diagram,
    theta_with_legs,
)
from test_lifts import as_set, brute_force, random_system


def _report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def _random_alexander_poly(rng):
    """A knot of a random Alexander polynomial: palindromic of even degree, A(1) = 1, up to a unit."""
    n = rng.randint(0, 6)
    upper = [rng.randint(-4, 4) for _ in range(n)]  # a_1 .. a_n, and a_-k = a_k
    while upper and not upper[-1]:
        upper.pop()
    coeffs = upper[::-1] + [1 - 2 * sum(upper)] + upper
    shift = rng.randint(-5, 5)
    return KnotDescriptor("random", coeffs, shift - len(upper))


def test_criterion_1_fox_formula_oracle_agreement():
    rng = random.Random(101)
    for _ in range(50):
        knot = _random_alexander_poly(rng)
        assert sum(knot.coeffs) == 1
        p = rng.randint(1, 12)
        exact = h1_order(knot, p)
        prod = 1.0
        for q in range(p):
            prod *= abs(evaluate(knot.coeffs, cmath.exp(2j * cmath.pi * q / p), knot.low))
        if prod > 1e-3 and exact != 0:
            assert abs(prod - exact) <= 1e-6 * exact
        else:
            assert exact == 0 and prod <= 1e-3
    _report(1, "resultant matches float Fox-formula product on 50 random Alexander polynomials")


def test_criterion_2_wheel_family():
    for n in range(1, 21):
        assert h1_order(wheel_knot(n), 2) == (2**n - 1) ** 2
    assert all(f == 1 for _, f in f_table(1, 12))
    subsequence = [h1_order(wheel_knot(6 * k + 3), 6) for k in range(8)]
    assert all(a < b for a, b in zip(subsequence, subsequence[1:]))
    _report(2, "f(2,n)=(2^n-1)^2 for n<=20, f(1,n)=1, f(6,6k+3) strictly increasing")


def test_criterion_3_lift_solver_vs_brute_force():
    rng = random.Random(103)
    for _ in range(100):
        system = random_system(rng)
        got = solve(system)
        assert as_set(got or []) == as_set(brute_force(system))
        assert len(got or []) in (0, system.p)
    _report(3, "solver matches brute force on 100 random systems; counts in {0, p}")


def test_criterion_4_multiplier_double_path():
    # multiplier() raises if its two internal paths disagree, so a clean run
    # over 100 random diagrams is the assertion
    rng = random.Random(104)
    for _ in range(100):
        d = random_diagram(rng, max_legs=12)
        p = rng.randint(1, 7)
        multiplier(d, p)
        multiplier(d, p, signed=False)
    _report(4, "line and per-leg products agree on 100 random diagrams")


def test_criterion_5_kappa_identity():
    for n in range(1, 26):
        diagram = kappa_diagram(n)
        for p in range(1, 11):
            value = multiplier(diagram, p)
            binomial = p * sum(
                (-1) ** (p * k) * math.comb(n, p * k) for k in range(n // p + 1)
            )
            assert value == binomial
            approx = sum(
                (1 - cmath.exp(2j * cmath.pi * q / p)) ** n for q in range(p)
            )
            if abs(value) > 1e-3:
                assert abs(approx - value) <= 1e-6 * abs(value)
    _report(5, "kappa_n multiplier equals the exact binomial filter and float sum")


def test_criterion_6_vandermonde_window():
    for p in range(2, 13):
        for l in range(1, 201):
            l_found, value = window_nonzero(l, p)
            assert l <= l_found < l + p and value != 0
    _report(6, "nonzero multiplier found in every window, 2<=p<=12, l<=200")


def test_criterion_7_legless_theta_cwl():
    for p in (1, 2, 3, 5, 7):
        for knot in (unknot(), trefoil(), wheel_knot(2)):
            term = cwl_delta(knot, theta(), p)
            assert term.magnitude == 2 * p * h1_order(knot, p)
    for p in (2, 3, 5):
        term = cwl_delta(trefoil(), theta(windings=(0, 1, 0)), p)
        assert term.magnitude == 0
    assert cwl_delta(trefoil(), theta(windings=(0, 3, 0)), 3).magnitude == 2 * 3 * 4
    _report(7, "legless theta gives 2p|H1| when admissible, 0 otherwise")


def test_criterion_8_completeness_validation():
    chord = validate_complete(chord_fixture())
    assert chord is not None and chord.code == "incidence" and chord.element == "a"
    fork = validate_complete(fork_fixture())
    assert fork is not None and fork.code == "fork" and fork.element == "w"
    fixtures = [theta(), theta_with_legs(1), theta_with_legs(3)]
    for d in fixtures:
        assert validate_complete(d) is None
        assert surplus(d) == len(d.vertices) - len(d.legs)
        assert degree(d) * 2 == len(d.vertices) + len(d.legs)
    assert surplus(theta()) == 2 and surplus(theta_with_legs(1)) == 2
    _report(8, "chord/fork rejected with expected ids; theta fixtures validate")


def test_criterion_9_sign_calculus():
    rng = random.Random(109)
    base = theta()
    iso = GraphIso({e.id: e.id for e in base.edges})
    for _ in range(50):
        twists = {e.id: rng.choice((1, -1)) for e in base.edges}
        d = DecoratedDiagram(base.label, base.vertices, base.edges, (), twists)
        assert comparison_sign(d, d, iso) == 1
        flipped_edge = rng.choice(["e1", "e2", "e3"])
        twists2 = dict(twists)
        twists2[flipped_edge] = -twists2[flipped_edge]
        d2 = DecoratedDiagram(base.label, base.vertices, base.edges, (), twists2)
        assert comparison_sign(d, d2, iso) == -1
        inverse = GraphIso({v: k for k, v in iso.edge_map.items()})
        assert comparison_sign(d2, d, inverse) == comparison_sign(d, d2, iso)
    for l0 in range(-3, 4):
        assert chain_twist([l0]) == l0
    _report(9, "comparison-sign identity/flip/symmetry and chain-twist base case hold")
