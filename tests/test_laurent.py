import pytest
from hypothesis import given, settings, strategies as st

from clustertube.laurent import (
    LaurentError,
    LaurentPoly,
    lp_denominator_vector,
    lp_div_exact,
    pretty,
)


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
        assert text == LaurentPoly(r.nvars, r.terms).canonical_text()


@given(polys, polys, exps, st.integers(min_value=0, max_value=3))
@settings(max_examples=100, deadline=None)
def test_public_constructor_equals_the_trusted_one(p, q, alpha, k):
    results = [p + q, p - q, -p, p * q, p.shift(alpha), p ** k]
    if not q.is_zero():
        results.append(lp_div_exact(p * q, q))
    for r in results:
        public = LaurentPoly(r.nvars, r.terms)
        assert r == public
        assert hash(r) == hash(public)
        assert list(r.terms.items()) == list(public.terms.items())
        assert r.canonical_text() == public.canonical_text()
        assert all(type(c) is int and c for c in r.terms.values())
        assert all(type(x) is int for e in r.terms for x in e)
