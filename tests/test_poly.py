"""Exact Laurent-polynomial arithmetic and the quarter-exponent (t, z) ring."""

import random
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slinv import (
    CURVE_BINOMIAL,
    JKPoly,
    LaurentPoly,
    NonMonomialDenominator,
    ZeroPolynomial,
)
from slinv.poly import curve_binomial_sum

RING = ("x", "y")


def random_poly(rng, variables=RING, scales=None, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(-3, 3) for _ in variables)
        terms[exps] = rng.randint(-5, 5)
    return LaurentPoly(variables, terms, scales)


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(411)
    for _ in range(40):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert p + 0 == p
        assert p * 1 == p
        assert p - p == LaurentPoly.zero(RING)


def test_no_zero_coefficients_survive_normalization():
    assert LaurentPoly(RING, {(1, 0): 0, (0, 0): 2}).terms == {(0, 0): 2}
    p = LaurentPoly(RING, {(2, 1): 7})
    assert (p - p).terms == {}
    assert not (p - p)


def test_binomial_square():
    X = LaurentPoly.var(("X",), "X")
    assert (X - 1) * (X - 1) == X * X - 2 * X + 1


def test_monomial_inversion_and_its_limits():
    x = LaurentPoly.var(RING, "x")
    assert x ** -2 * x ** 2 == LaurentPoly.const(RING, 1)
    with pytest.raises(NonMonomialDenominator):
        (x + 1) ** -1
    with pytest.raises(NonMonomialDenominator):
        LaurentPoly.term(RING, 3, (0, 1)) ** -1  # coefficient 3 is not a unit


def test_cross_ring_arithmetic_is_rejected():
    p = LaurentPoly.var(RING, "x")
    q = LaurentPoly.var(("x", "z"), "x")
    with pytest.raises(ValueError):
        p + q
    scaled = LaurentPoly.var(RING, "x", scales=(4, 1))
    with pytest.raises(ValueError):
        p * scaled


def test_coefficient_lookup_by_name():
    p = LaurentPoly.parse("3*V*X^-1 + 6", ("X", "Y", "U", "V"))
    assert p.coefficient_of(V=1, X=-1) == 3
    assert p.coefficient_of() == 6
    assert p.coefficient_of(U=2) == 0  # absent monomial
    with pytest.raises(ValueError, match="unknown variable 'W'"):
        p.coefficient_of(W=1)  # not in the ring, so no slot to read
    jk_ring = LaurentPoly(("t",), {(2,): 5, (-6,): -2}, (4,))
    assert jk_ring.coefficient_of(t=Fraction(1, 2)) == 5
    assert jk_ring.coefficient_of(t=Fraction(-3, 2)) == -2
    assert jk_ring.coefficient_of(t=Fraction(1, 3)) == 0  # not representable


def test_evaluation_is_a_ring_homomorphism():
    rng = random.Random(2024)
    for _ in range(25):
        p, q = random_poly(rng), random_poly(rng)
        at = {"x": Fraction(rng.randint(1, 5)), "y": Fraction(rng.randint(-5, -1))}
        assert (p + q).evaluate(at) == p.evaluate(at) + q.evaluate(at)
        assert (p * q).evaluate(at) == p.evaluate(at) * q.evaluate(at)


def test_evaluation_at_ints_equals_evaluation_at_fractions():
    """Terms with no negative exponent evaluate in int at int values, the
    rest as before; the value and its Fraction type do not depend on it."""
    rng = random.Random(2025)
    for _ in range(25):
        p = random_poly(rng)
        ints = {"x": rng.randint(-5, 5) or 1, "y": rng.randint(-5, 5) or 2}
        value = p.evaluate(ints)
        assert type(value) is Fraction
        assert value == p.evaluate({name: Fraction(v) for name, v in ints.items()})
    assert type(LaurentPoly.zero(("x",)).evaluate({})) is Fraction


def test_scaled_variables_evaluate_via_their_root():
    # stored exponent 2 at scale 4 means t^(1/2); the value binds the root t^(1/4)
    half_power = LaurentPoly(("t",), {(2,): 1}, (4,))
    assert half_power.evaluate({"t": 3}) == 9


def test_canonical_rendering_is_insertion_order_independent():
    a = LaurentPoly(("X", "V"), {(1, 0): 3, (0, 1): -1, (0, 0): 6})
    b = LaurentPoly(("X", "V"), {(0, 0): 6, (0, 1): -1, (1, 0): 3})
    assert a.to_text() == b.to_text()
    assert a.to_json() == b.to_json()
    assert a.to_text() == "3*X - V + 6"


def test_parse_round_trips_canonical_text_and_json():
    rng = random.Random(77)
    for scales in (None, (4, 1)):
        for _ in range(25):
            p = random_poly(rng, scales=scales)
            assert LaurentPoly.parse(p.to_text(), RING, scales) == p
            assert LaurentPoly.from_json(p.to_json(), RING, scales) == p
    assert LaurentPoly.parse("0", RING) == LaurentPoly.zero(RING)
    assert LaurentPoly.parse("x^2*y^-1 - 2", RING).coefficient((2, -1)) == 1


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        LaurentPoly.parse("q + 1", RING)
    with pytest.raises(ValueError):
        LaurentPoly.parse("x^^2", RING)
    with pytest.raises(ValueError):
        LaurentPoly.parse("t^1/3", ("t",), (4,))  # 1/3 not a quarter-integer


def test_substitution_shift_round_trips():
    rng = random.Random(909)
    big = ("X", "Y")
    X = LaurentPoly.var(big, "X")
    Y = LaurentPoly.var(big, "Y")
    x = LaurentPoly.var(RING, "x")
    y = LaurentPoly.var(RING, "y")
    for _ in range(20):
        terms = {
            (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-4, 4) for _ in range(4)
        }
        p = LaurentPoly(RING, terms)
        shifted = p.substitute({"x": X - 1, "y": Y - 1})
        back = shifted.substitute({"X": x + 1, "Y": y + 1})
        assert back == p


TARGETS = ("X", "Y")
exponents = st.integers(-3, 3)
coefficients = st.integers(-5, 5).filter(bool)


@st.composite
def substitutions(draw):
    """A polynomial in (x, y) and targets for x and y in a (X, Y) ring of
    scales (2, 1): an invertible monomial for a variable that p raises to a
    negative power, else any polynomial."""
    terms = draw(st.dictionaries(st.tuples(exponents, exponents), coefficients, max_size=5))
    p = LaurentPoly(RING, terms)
    targets = {}
    for i, name in enumerate(RING):
        if any(exps[i] < 0 for exps in terms):
            unit = draw(st.sampled_from((1, -1)))
            terms_of = st.dictionaries(
                st.tuples(exponents, exponents), st.just(unit), min_size=1, max_size=1
            )
        else:
            terms_of = st.dictionaries(st.tuples(exponents, exponents), coefficients, max_size=4)
        targets[name] = LaurentPoly(TARGETS, draw(terms_of), (2, 1))
    point = {
        name: draw(st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
        for name in TARGETS
    }
    return p, targets, point


@settings(derandomize=True, max_examples=200, deadline=None)
@given(substitutions())
def test_substitution_commutes_with_evaluation(case):
    """p(T_x, T_y) at a rational point equals p at the targets' values
    there: evaluation alone, no ring multiplication, on the right."""
    p, targets, point = case
    values = {name: target.evaluate(point) for name, target in targets.items()}
    assert p.substitute(targets).evaluate(point) == p.evaluate(values)


def test_substitution_needs_monomial_targets_for_negative_powers():
    p = LaurentPoly(RING, {(-1, 0): 1})
    X = LaurentPoly.var(("X",), "X")
    with pytest.raises(NonMonomialDenominator):
        p.substitute({"x": X + 1, "y": X})
    assert p.substitute({"x": X, "y": X}) == X ** -1


# -- the (t, z) representation ---------------------------------------------------


def test_jk_terms_reject_negative_z_powers():
    with pytest.raises(ValueError):
        JKPoly({(0, -1): 1})


def test_jk_ring_results_keep_z_powers_nonnegative():
    # the ring wraps its results unchecked, but inverting z is refused
    with pytest.raises(ValueError):
        JKPoly.term(1, 0, 1) ** -1
    assert JKPoly.term(-1, 4, 0) ** -2 == JKPoly.term(1, -8, 0)
    assert type(JKPoly.term(1, 0, 1) * 3) is JKPoly


def test_curve_binomial_sum_expands_its_powers():
    """Horner's rule on one power alone against the ring's power."""
    for e in range(25):
        expected = {tq: coeff for (tq, _), coeff in (CURVE_BINOMIAL ** e).terms.items()}
        assert curve_binomial_sum({e: {0: 1}}) == expected, e


def test_jk_arithmetic_and_queries():
    jk = JKPoly.term(1, -18) + JKPoly.term(3, -14) + JKPoly.term(6, -12, 1)
    assert jk.coefficient(-14) == 3
    assert jk.coefficient(-12, 1) == 6
    assert jk.coefficient(0, 0) == 0
    assert jk.has_z_terms()
    assert jk.z_collapsed() == {-18: 1, -14: 3, -12: 6}
    assert (jk - jk) == JKPoly.zero()
    assert jk * JKPoly.const(1) == jk


def test_jk_parse_round_trips_canonical_text():
    jk = JKPoly(
        {(-18, 0): -1, (-14, 0): 3, (-10, 0): 3, (-6, 0): -1, (-12, 1): 6}
    )
    assert jk.to_text() == "-t^-9/2 + 3*t^-7/2 + 3*t^-5/2 - t^-3/2 + 6*z*t^-3"
    assert JKPoly.parse(jk.to_text()) == jk
    assert JKPoly.from_json(jk.to_json()) == jk
    assert JKPoly.parse("0") == JKPoly.zero()


def test_jk_span_and_zero_span_error():
    assert JKPoly.const(5).t_span() == 0
    jk = JKPoly({(-18, 0): 1, (-6, 0): 1})
    assert jk.t_span() == Fraction(3)
    with pytest.raises(ZeroPolynomial):
        JKPoly.zero().t_span()


def test_jones_specialization_of_z_free_polynomial_is_itself():
    jk = JKPoly({(-16, 0): -1, (-12, 0): 1, (-4, 0): 1})
    specialized = jk.jones_specialization()
    assert specialized == LaurentPoly(("t",), {(-16,): -1, (-12,): 1, (-4,): 1}, (4,))


def test_jones_specialization_substitutes_the_curve_binomial():
    # a bare z becomes -t^(-1/2) - t^(1/2)
    assert JKPoly.term(1, 0, 1).jones_specialization() == LaurentPoly(
        ("t",), {(-2,): -1, (2,): -1}, (4,)
    )


def test_jk_laurent_conversions_validate_the_ring():
    jk = JKPoly({(4, 1): 2})
    assert JKPoly.from_laurent(jk.to_laurent()) == jk
    with pytest.raises(ValueError):
        JKPoly.from_laurent(LaurentPoly(("t", "z"), {(0, 0): 1}, (1, 1)))


def test_non_integer_coefficients_and_exponents_are_rejected():
    """Construction and from_json raise ValueError on a coefficient or an
    exponent that is not an integer, which int() would truncate, and still
    take integral values of any numeric type."""
    with pytest.raises(ValueError):
        LaurentPoly(("x",), {(1,): Fraction(1, 2)})
    with pytest.raises(ValueError):
        LaurentPoly.from_json([{"coeff": 1.5, "exps": [0]}], ("x",))
    with pytest.raises(ValueError):
        LaurentPoly.from_json([{"coeff": 1, "exps": [0.5]}], ("x",))
    with pytest.raises(ValueError):
        JKPoly({(1.25, 0): 1})
    assert LaurentPoly(("x",), {(2.0,): Fraction(3)}) == LaurentPoly(("x",), {(2,): 3})


# -- construction: the bulk check and the per-term loop ------------------------------


def _both_paths(build, terms):
    """build(terms) on the plain dict, which takes the bulk check, and on a
    read-only view of it, which is no dict and takes the per-term loop: the
    two results, or the two errors' types and messages."""
    out = []
    for given in (dict(terms), MappingProxyType(dict(terms))):
        try:
            out.append(build(given))
        except (ValueError, TypeError) as exc:
            out.append((type(exc), str(exc)))
    return out


def test_the_bulk_check_and_the_term_loop_agree():
    """Both paths keep the same int-typed terms with zeros dropped, make
    bools ints, and raise the same errors with the same messages."""
    rng = random.Random(29)
    rings = [(("x",), None), (RING, None), (("X", "Y", "U", "V"), None), (("t",), (4,))]
    for _ in range(200):
        variables, scales = rng.choice(rings)
        terms = {
            tuple(rng.randint(-4, 4) for _ in variables): rng.randint(-2, 2) for _ in range(rng.randint(0, 6))
        }
        bulk, loop = _both_paths(lambda t: LaurentPoly(variables, t, scales), terms)
        assert bulk == loop and bulk.terms == {e: c for e, c in terms.items() if c}
        assert {type(v) for e, c in bulk.terms.items() for v in (*e, c)} <= {int}
    for terms in ({(True, 0): True, (0, 2): 0}, {(1, False): 3, (2, 2): False}):
        bulk, loop = _both_paths(lambda t: LaurentPoly(RING, t), terms)
        assert bulk == loop
        assert {type(v) for e, c in bulk.terms.items() for v in (*e, c)} == {int}
    assert LaurentPoly(RING, {(True, 0): True}).terms == {(1, 0): 1}
    bad = [
        ({(1,): 1}, "exponent vector (1,) has wrong length"),
        ({(0, 0, 0): 1}, "exponent vector (0, 0, 0) has wrong length"),
        ({(Fraction(1, 2), 0): 1}, "non-integer coefficient or exponent"),
        ({(0.5, 0): 1}, "non-integer coefficient or exponent"),
        ({(0, 0): Fraction(3, 2)}, "non-integer coefficient or exponent"),
        ({(0, 0): 1.5}, "non-integer coefficient or exponent"),
    ]
    for terms, message in bad:
        bulk, loop = _both_paths(lambda t: LaurentPoly(RING, t), terms)
        assert bulk == loop and bulk[0] is ValueError and message in bulk[1], terms
    # integral values of other numeric types take the loop and become ints
    bulk, loop = _both_paths(lambda t: LaurentPoly(RING, t), {(2.0, Fraction(1)): Fraction(3)})
    assert bulk == loop and bulk.terms == {(2, 1): 3}
    assert {type(v) for v in (*next(iter(bulk.terms)), *bulk.terms.values())} == {int}


def test_jk_construction_rejects_negative_z_powers_on_both_paths():
    for terms, zp in (({(0, -1): 1}, -1), ({(4, 2): 1, (0, -3): 0, (0, -5): 2}, -3)):
        bulk, loop = _both_paths(JKPoly, terms)
        assert bulk == loop == (ValueError, f"negative z-power {zp}")
    for terms in ({(0,): 1}, {(0, 1, 2): 1}, {(1.25, 0): 1}, {(0, 0.5): 1}, {(0, 0): Fraction(1, 2)}):
        bulk, loop = _both_paths(JKPoly, terms)
        assert bulk == loop and bulk[0] in (ValueError, TypeError), terms
    assert _both_paths(JKPoly, {(-2, 0): -1, (2, 3): 4, (6, 1): 0}) == [JKPoly({(-2, 0): -1, (2, 3): 4})] * 2
