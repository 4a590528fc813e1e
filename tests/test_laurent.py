import pytest
from hypothesis import given, settings, strategies as st

from clustertube.laurent import (
    MAX_EXPONENT,
    LaurentError,
    LaurentPoly,
    lp_denominator_vector,
    lp_div_exact,
    pretty,
)

import laurent_reference as ref


def mono(exp, c=1):
    return LaurentPoly.monomial(len(exp), exp, c)


def test_denominator_of_variable():
    p = LaurentPoly.variable(3, 1)
    assert lp_denominator_vector(p) == (-1, 0, 0)


def test_denominator_reference_small_case():
    # (x1 + x3) / x2
    p = mono((1, -1, 0)) + mono((0, -1, 1))
    assert lp_denominator_vector(p) == (0, 1, 0)


def test_denominator_reference_big_case():
    # (x1^2 + 2 x1 x2 + x2^2 + x3^2) / (x1 x3^2)
    p = (
        mono((1, 0, -2))
        + mono((0, 1, -2), 2)
        + mono((-1, 2, -2))
        + mono((-1, 0, 0))
    )
    assert lp_denominator_vector(p) == (1, 0, 2)
    assert pretty(p) == "(x1^2+2*x1*x2+x2^2+x3^2)/(x1*x3^2)"


def test_denominator_of_zero_rejected():
    with pytest.raises(LaurentError, match="undefined denominator"):
        lp_denominator_vector(LaurentPoly.zero(2))


def test_exact_division_roundtrip():
    p = mono((1, 0)) + mono((0, 1))
    q = mono((0, -1)) + mono((-1, 0), 3)
    prod = p * q
    assert lp_div_exact(prod, q) == p
    assert lp_div_exact(prod, p) == q


def test_exact_division_failure():
    p = mono((1, 0)) + mono((0, 1))
    with pytest.raises(LaurentError):
        lp_div_exact(mono((2, 0)) + mono((0, 2)), p)


def test_exact_division_non_integral_quotient():
    x1, x2 = mono((1, 0)), mono((0, 1))
    with pytest.raises(LaurentError):
        lp_div_exact(x1 + x2, mono((1, 0), 2) + mono((0, 1), 2))
    with pytest.raises(LaurentError):
        lp_div_exact(x1 + x2, mono((1, 0), -2) + x2)


def test_exact_division_negative_leading_coefficient():
    # the lex-leading term of q is -2*x1
    q = mono((1, 0), -2) + mono((0, 1), 3)
    p = mono((2, 0), 5) - mono((0, 1)) + mono((0, 0), 7)
    assert lp_div_exact(p * q, q) == p
    assert lp_div_exact(q * q, q) == q
    assert lp_div_exact(-q, q) == -LaurentPoly.one(2)


def test_exact_division_negative_exponents():
    q = mono((-1, 1)) - mono((0, -2), 3)
    p = mono((2, -1)) + mono((-3, 0), 4)
    assert lp_div_exact(p * q, q) == p
    assert lp_div_exact(p * q, p) == q
    assert lp_div_exact(q, mono((-1, 1))) == LaurentPoly.one(2) - mono((1, -3), 3)
    with pytest.raises(LaurentError):
        lp_div_exact(p * q + mono((0, -5)), q)


def test_public_constructor_checks_exponent_lengths():
    with pytest.raises(LaurentError, match="length mismatch"):
        LaurentPoly(2, {(1,): 1})
    with pytest.raises(LaurentError, match="length mismatch"):
        LaurentPoly.variable(2, 1).shift((1,))


def test_canonical_text_and_json_roundtrip():
    p = mono((1, 0, -2)) - mono((0, 1, 0), 2)
    assert p.canonical_text() == "-2*x^(0,1,0)+1*x^(1,0,-2)"


exps = st.tuples(*(st.integers(min_value=-3, max_value=3) for _ in range(2)))
polys = st.dictionaries(exps, st.integers(min_value=-5, max_value=5), max_size=4).map(
    lambda terms: LaurentPoly(2, terms)
)


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * LaurentPoly.one(2) == p
    assert (p + q) * r == p * r + q * r


@given(polys, exps)
@settings(max_examples=60, deadline=None)
def test_denominator_shift_rule(p, alpha):
    if p.is_zero():
        return
    shifted = lp_denominator_vector(p.shift(alpha))
    base = lp_denominator_vector(p)
    assert shifted == tuple(b - a for b, a in zip(base, alpha))


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_exact_division_inverts_multiplication(p, q):
    if q.is_zero():
        return
    assert lp_div_exact(p * q, q) == p


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_canonical_text_is_kept_and_matches_a_fresh_build(p, q):
    for r in (p, q, p * q, p + q, p ** 2):
        text = r.canonical_text()
        assert r.canonical_text() is text
        assert text == LaurentPoly(r.nvars, dict(r.ordered_terms())).canonical_text()


@given(polys, polys, exps, st.integers(min_value=0, max_value=3))
@settings(max_examples=100, deadline=None)
def test_public_constructor_equals_the_trusted_one(p, q, alpha, k):
    results = [p + q, p - q, -p, p * q, p.shift(alpha), p ** k]
    if not q.is_zero():
        results.append(lp_div_exact(p * q, q))
    for r in results:
        public = LaurentPoly(r.nvars, dict(r.ordered_terms()))
        assert r == public
        assert hash(r) == hash(public)
        assert r.terms == public.terms
        assert r.ordered_terms() == public.ordered_terms()
        assert r.canonical_text() == public.canonical_text()
        assert all(type(c) is int and c for c in r.terms.values())
        assert all(type(key) is int for key in r.terms)
        assert all(type(x) is int for e, _ in r.ordered_terms() for x in e)
        # the carried bound covers every exponent, so no key can have wrapped
        assert all(abs(x) <= r._bound <= MAX_EXPONENT for e, _ in r.ordered_terms() for x in e)


# exponents near half the bound make sums reach the bound itself, where a
# wrapped or carried field would show
def _exponent_lists(nvars):
    wide = st.integers(min_value=-(MAX_EXPONENT // 2), max_value=MAX_EXPONENT // 2)
    narrow = st.integers(min_value=-4, max_value=4)
    return st.tuples(*(st.one_of(narrow, wide) for _ in range(nvars)))


def _ref_polys(nvars):
    return st.dictionaries(_exponent_lists(nvars), st.integers(min_value=-4, max_value=4),
                           max_size=4).map(lambda terms: {e: c for e, c in terms.items() if c})


ref_cases = st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(
    st.just(n), _ref_polys(n), _ref_polys(n),
    st.tuples(*(st.integers(min_value=-4, max_value=4) for _ in range(n))),
    st.integers(min_value=0, max_value=2)))


@given(ref_cases)
@settings(max_examples=150, deadline=None)
def test_packed_arithmetic_matches_the_tuple_reference(case):
    n, a, b, alpha, k = case
    p, q = LaurentPoly(n, a), LaurentPoly(n, b)
    checks = [
        (p + q, ref.plus(a, b)), (p - q, ref.minus(a, b)), (-p, ref.neg(a)),
        (p * q, ref.times(a, b)), (p.shift(alpha), ref.shift(a, alpha)),
    ]
    if all(abs(x) <= 4 for e in a for x in e):
        checks.append((p ** (k + 1), ref.power(a, k + 1, n)))
    if b:
        checks.append((lp_div_exact(p * q, q), a))
        quotient = ref.div_exact(a, b)
        if quotient is None:
            with pytest.raises(LaurentError):
                lp_div_exact(p, q)
        else:
            checks.append((lp_div_exact(p, q), quotient))
    for r, expected in checks:
        assert r.ordered_terms() == sorted(expected.items())
        rebuilt = LaurentPoly(n, expected)
        assert r == rebuilt and hash(r) == hash(rebuilt)
        assert r.canonical_text() == ref.canonical_text(expected)
        assert pretty(r) == ref.pretty(expected)
        if expected:
            assert lp_denominator_vector(r) == ref.denominator_vector(expected)
    # equal polynomials whose terms were inserted in other orders
    assert p + q == q + p and hash(p + q) == hash(q + p)
    assert p * q == q * p and hash(p * q) == hash(q * p)
    assert (p == q) == (a == b)


def _narrow_polys(nvars, min_size=0):
    return st.dictionaries(st.tuples(*(st.integers(min_value=-3, max_value=3) for _ in range(nvars))),
                           st.integers(min_value=-4, max_value=4).filter(bool),
                           min_size=min_size, max_size=4)


remainder_cases = st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(
    st.just(n), _narrow_polys(n), _narrow_polys(n, min_size=1), _narrow_polys(n)))


@given(remainder_cases)
@settings(max_examples=150, deadline=None)
def test_a_product_plus_a_remainder_divides_exactly_when_the_reference_does(case):
    # a*b + r is divisible by b only for some r: mostly the quotient is not
    # a Laurent polynomial, or it has a non-integer coefficient
    n, a, b, r = case
    dividend = ref.plus(ref.times(a, b), r)
    expected = ref.div_exact(dividend, b)
    p, q = LaurentPoly(n, dividend), LaurentPoly(n, b)
    if expected is None:
        with pytest.raises(LaurentError):
            lp_div_exact(p, q)
    else:
        assert lp_div_exact(p, q) == LaurentPoly(n, expected)


def _near_bound_polys(nvars, max_size):
    # exponents at the packing bound, at half of it and small, so that
    # quotients and products reach or pass the bound in every field
    edge = st.sampled_from([MAX_EXPONENT, MAX_EXPONENT // 2 + 1, MAX_EXPONENT // 2])
    near = st.one_of(edge, edge.map(lambda x: -x), st.integers(min_value=-2, max_value=2))
    return st.dictionaries(st.tuples(*(near for _ in range(nvars))),
                           st.integers(min_value=-3, max_value=3).filter(bool),
                           min_size=1, max_size=max_size)


near_bound_cases = st.integers(min_value=1, max_value=3).flatmap(lambda n: st.tuples(
    st.just(n), _near_bound_polys(n, 3), _near_bound_polys(n, 3), _near_bound_polys(n, 1)))


@given(near_bound_cases)
@settings(max_examples=200, deadline=None)
def test_exact_division_near_the_packing_bound_matches_the_tuple_reference(case):
    # a*b / b, when a*b fits, and a over a monomial m, whose quotient is
    # exact unless a coefficient does not divide, and may pass the bound
    n, a, b, m = case
    product = ref.times(a, b)
    pairs = [(a, m)]
    if all(abs(x) <= MAX_EXPONENT for e in product for x in e):
        pairs.append((product, b))
    for dividend, divisor in pairs:
        expected = ref.div_exact(dividend, divisor)
        p, q = LaurentPoly(n, dividend), LaurentPoly(n, divisor)
        if expected is None:
            with pytest.raises(LaurentError):
                lp_div_exact(p, q)
        elif any(abs(x) > MAX_EXPONENT for e in expected for x in e):
            with pytest.raises(LaurentError, match="packing bound"):
                lp_div_exact(p, q)
        else:
            quotient = lp_div_exact(p, q)
            assert quotient.ordered_terms() == sorted(expected.items())
            assert all(abs(x) <= quotient._bound <= MAX_EXPONENT
                       for e, _ in quotient.ordered_terms() for x in e)


def test_exponents_beyond_the_packing_bound_raise():
    top = MAX_EXPONENT
    corner = LaurentPoly(2, {(top, -top): 1})
    assert corner.ordered_terms() == [((top, -top), 1)]
    with pytest.raises(LaurentError, match="packing bound"):
        LaurentPoly(2, {(top + 1, 0): 1})
    with pytest.raises(LaurentError, match="packing bound"):
        LaurentPoly.monomial(2, (0, -top - 1))
    with pytest.raises(LaurentError, match="packing bound"):
        corner.shift((1, 0))
    with pytest.raises(LaurentError, match="packing bound"):
        corner * LaurentPoly.variable(2, 1)
    half = LaurentPoly.monomial(1, (top // 2 + 1,))
    with pytest.raises(LaurentError, match="packing bound"):
        half ** 2
    with pytest.raises(LaurentError, match="packing bound"):
        lp_div_exact(LaurentPoly.monomial(1, (-top,)), LaurentPoly.monomial(1, (top,)))
    # up to the bound itself, products and shifts are exact
    low = LaurentPoly.monomial(2, (top // 2, -(top // 2)))
    high = LaurentPoly.monomial(2, (top - top // 2, -(top - top // 2)))
    assert low * high == corner
    assert LaurentPoly.one(2).shift((top, -top)) == corner
    assert corner.shift((-top, top)) == LaurentPoly.one(2)
    assert lp_div_exact(corner, high) == low
