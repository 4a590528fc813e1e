from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clustertube.linalg import (
    ExactMatrix,
    QuotientSpace,
    coords_in_span,
    flatten_blocks,
    independent_units,
    intertwiner_basis,
    kernel_basis,
    rank,
    rref,
    solve,
    span_rank,
    unflatten_blocks,
)


def test_rref_identity():
    m = ExactMatrix.identity(2)
    red, pivots, rk = rref(m)
    assert rk == 2
    assert pivots == (0, 1)
    assert red == m


def test_rref_zero_matrix():
    assert rref(ExactMatrix.zero(3, 3)).rank == 0


def test_rref_rank_one():
    # second row is twice the first
    assert rank(ExactMatrix([[1, 2], [2, 4]])) == 1


def test_kernel_identity_empty():
    assert kernel_basis(ExactMatrix.identity(3)) == []


def test_kernel_zero_matrix_full():
    assert len(kernel_basis(ExactMatrix.zero(2, 3))) == 3


def test_kernel_sum_constraint():
    (v,) = kernel_basis(ExactMatrix([[1, 1]]))
    assert v[0] == -v[1] != 0


def test_solve_basic():
    m = ExactMatrix([[2, 0], [0, 3]])
    assert solve(m, [4, 9]) == (Fraction(2), Fraction(3))
    assert solve(ExactMatrix([[1], [1]]), [1, 2]) is None


def test_coords_in_span():
    cols = [(1, 0, 1), (0, 1, 1)]
    assert coords_in_span(cols, (2, 3, 5)) == (Fraction(2), Fraction(3))
    assert coords_in_span(cols, (0, 0, 1)) is None


def test_quotient_space_projection():
    q = QuotientSpace(3, [(1, 1, 0)])
    assert q.dim == 2
    image = q.project((1, 1, 0))
    assert not any(image)
    v = q.project((1, 0, 0))
    assert q.project(q.lift(v)) == v


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def matrices(draw):
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=4))
    rows = draw(
        st.lists(
            st.lists(small_entries, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return ExactMatrix(rows)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    red = rref(m).matrix
    assert rref(red).matrix == red


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    vecs = kernel_basis(m)
    assert rank(m) + len(vecs) == m.ncols
    for v in vecs:
        assert not any(m.apply(v))


def _greedy_by_rank(span, positions, dim):
    """The greedy lift as it was written before ``independent_units``: one
    full rank computation per candidate unit vector."""
    span = [list(v) for v in span]
    chosen = []
    current = span_rank(span)
    for p in positions:
        unit = [Fraction(int(t == p)) for t in range(dim)]
        new_rank = span_rank(span + [unit])
        if new_rank > current:
            span.append(unit)
            current = new_rank
            chosen.append(p)
    return chosen


@st.composite
def spans_and_positions(draw):
    dim = draw(st.integers(min_value=1, max_value=5))
    span = draw(st.lists(st.lists(small_entries, min_size=dim, max_size=dim), max_size=5))
    positions = draw(st.lists(st.integers(min_value=0, max_value=dim - 1), max_size=2 * dim))
    return span, positions, dim


@given(spans_and_positions())
@settings(max_examples=100, deadline=None)
def test_independent_units_matches_rank_greedy(case):
    span, positions, dim = case
    assert independent_units(span, positions, dim) == _greedy_by_rank(span, positions, dim)


def test_independent_units_rejects_wrong_length():
    with pytest.raises(ValueError):
        independent_units([(1, 0)], [0], 3)


def test_flatten_unflatten_round_trip():
    blocks = (ExactMatrix([[1, 2, 3], [4, 5, 6]]), ExactMatrix.zero(0, 2), ExactMatrix([[7], [8]]))
    flat = flatten_blocks(blocks)
    assert flat == tuple(Fraction(k) for k in range(1, 9))
    assert unflatten_blocks(flat, [(2, 3), (0, 2), (2, 1)]) == blocks


def test_intertwiner_basis_is_the_commutant():
    # maps commuting with a nilpotent Jordan block of size 3 on one vertex:
    # the polynomials in it, a space of dimension 3
    jordan = ExactMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    basis = intertwiner_basis((3,), (3,), [(0, 0, jordan, jordan)])
    assert len(basis) == 3
    for (phi,) in basis:
        assert phi.mul(jordan) == jordan.mul(phi)
    # two vertices, one arrow 0 -> 1 carried by the identity on both sides:
    # phi_1 = phi_0, so the basis is Hom(k^1, k^2)
    ident = ExactMatrix.identity(1)
    two = intertwiner_basis((1, 1), (2, 2), [(0, 1, ident, ExactMatrix.identity(2))])
    assert len(two) == 2
    assert all(phi0 == phi1 for phi0, phi1 in two)
    assert intertwiner_basis((0, 2), (3, 0), []) == []
