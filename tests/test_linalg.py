from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clustertube.linalg import (
    ExactMatrix,
    QuotientSpace,
    SpanSolver,
    block_diagonal,
    exact_div,
    flatten_blocks,
    intertwiner_basis,
    intertwiner_dim,
    kernel_basis,
    rank,
    rref,
    unflatten_blocks,
)

from linalg_reference import coords_in_span, identity_matrix, solve


def test_rref_identity():
    m = identity_matrix(2)
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
    assert kernel_basis(identity_matrix(3)) == []


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
    ident = identity_matrix(1)
    two = intertwiner_basis((1, 1), (2, 2), [(0, 1, ident, identity_matrix(2))])
    assert len(two) == 2
    assert all(phi0 == phi1 for phi0, phi1 in two)
    assert intertwiner_basis((0, 2), (3, 0), []) == []


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_intertwiner_dim_is_the_length_of_the_basis(data):
    # random arrows between two vertices (loops included), small entries
    dims = st.integers(0, 3)
    src = (data.draw(dims), data.draw(dims))
    tgt = (data.draw(dims), data.draw(dims))
    arrows = []
    for _ in range(data.draw(st.integers(0, 3))):
        s, t = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
        entries = st.integers(-2, 2)
        a = ExactMatrix([[data.draw(entries) for _ in range(src[s])] for _ in range(src[t])],
                        ncols=src[s])
        b = ExactMatrix([[data.draw(entries) for _ in range(tgt[s])] for _ in range(tgt[t])],
                        ncols=tgt[s])
        arrows.append((s, t, a, b))
    assert intertwiner_dim(src, tgt, arrows) == len(intertwiner_basis(src, tgt, arrows))


def test_block_diagonal_places_each_block_on_the_diagonal():
    a = ExactMatrix([[1, 2], [3, 4]])
    b = ExactMatrix([[Fraction(1, 2)]])
    empty = ExactMatrix.zero(0, 2)
    m = block_diagonal([a, empty, b])
    assert m == ExactMatrix([[1, 2, 0, 0, 0], [3, 4, 0, 0, 0], [0, 0, 0, 0, Fraction(1, 2)]])
    assert block_diagonal([ExactMatrix.zero(2, 0)]) == ExactMatrix.zero(2, 0)
    assert block_diagonal([]) == ExactMatrix.zero(0, 0)


# -- the int-or-Fraction entry contract, checked against a Fraction reference --


def _reference_rref(rows, ncols):
    """Gauss-Jordan over ``Fraction`` as ``rref`` was written before entries
    became ints where integral: same pivot rule, every entry a Fraction."""
    rows = [[Fraction(x) for x in r] for r in rows]
    nrows = len(rows)
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot_row = next((i for i in range(pr, nrows) if rows[i][pc] != 0), None)
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        lead = rows[pr][pc]
        rows[pr] = [x / lead for x in rows[pr]]
        for i in range(nrows):
            if i != pr and rows[i][pc] != 0:
                f = rows[i][pc]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return rows, pivots


def _reference_kernel(rows, ncols):
    red, pivots = _reference_rref(rows, ncols)
    basis = []
    for fc in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def _reference_solve(rows, ncols, b):
    red, pivots = _reference_rref([list(r) + [x] for r, x in zip(rows, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


def _is_normal(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def _all_normal(values):
    return all(_is_normal(x) for x in values)


rational_entries = st.one_of(
    small_entries,
    small_entries,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(-4, 4).map(Fraction),  # integral Fractions must come back as ints
)


@st.composite
def rational_rows(draw, max_rows=4, max_cols=4):
    nrows = draw(st.integers(min_value=1, max_value=max_rows))
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    return draw(
        st.lists(
            st.lists(rational_entries, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )


@given(rational_rows())
@settings(max_examples=150, deadline=None)
def test_rref_and_kernel_equal_the_fraction_reference(rows):
    ncols = len(rows[0])
    red, pivots, rk = rref(ExactMatrix(rows))
    ref_rows, ref_pivots = _reference_rref(rows, ncols)
    assert list(pivots) == ref_pivots and rk == len(ref_pivots)
    assert [list(r) for r in red.rows] == ref_rows
    assert all(_all_normal(r) for r in red.rows)
    kernel = kernel_basis(ExactMatrix(rows))
    assert kernel == _reference_kernel(rows, ncols)
    assert all(_all_normal(v) for v in kernel)


@given(rational_rows(), st.data())
@settings(max_examples=150, deadline=None)
def test_span_solver_coords_equal_the_fraction_reference(rows, data):
    ncols = len(rows[0])
    # half the targets are in the column span by construction
    if data.draw(st.booleans()):
        c = data.draw(st.lists(rational_entries, min_size=ncols, max_size=ncols))
        b = [sum(Fraction(x) * y for x, y in zip(r, c)) for r in rows]
    else:
        b = data.draw(st.lists(rational_entries, min_size=len(rows), max_size=len(rows)))
    cols = [tuple(r[j] for r in rows) for j in range(ncols)]
    coords = SpanSolver(cols, len(rows)).coords(b)
    assert coords == _reference_solve(rows, ncols, b)
    assert coords is None or _all_normal(coords)


@given(rational_rows())
@settings(max_examples=100, deadline=None)
def test_public_constructor_equals_the_trusted_one(rows):
    normal = tuple(tuple(x.numerator if type(x) is Fraction and x.denominator == 1 else x
                         for x in r) for r in rows)
    public = ExactMatrix(rows)
    trusted = ExactMatrix._trusted(normal, len(rows[0]))
    assert public == trusted
    assert hash(public) == hash(trusted)
    assert public.rows == normal
    assert all(_all_normal(r) for r in public.rows)


@st.composite
def product_pairs(draw):
    n, k, m = (draw(st.integers(min_value=1, max_value=4)) for _ in range(3))

    def block(nrows, ncols):
        row = st.lists(rational_entries, min_size=ncols, max_size=ncols)
        return ExactMatrix(draw(st.lists(row, min_size=nrows, max_size=nrows)))

    return block(n, k), block(k, m)


@given(product_pairs())
@settings(max_examples=100, deadline=None)
def test_matrix_operations_return_normal_entries(pair):
    a, b = pair
    results = [a.scale(Fraction(3, 2)), a.scale(-1), a.add(a.scale(-1)), a.add(a), a.mul(b)]
    for m in results:
        assert all(_all_normal(r) for r in m.rows)
    assert a.add(a.scale(-1)).is_zero()
    assert _all_normal(a.apply([Fraction(1, 2)] * a.ncols))


@given(rational_entries, rational_entries.filter(bool))
def test_exact_div_is_exact_and_normal(a, b):
    q = exact_div(a, b)
    assert q == Fraction(a) / Fraction(b)
    assert _is_normal(q)


def test_exact_div_keeps_ints_and_raises_on_zero():
    assert exact_div(6, -3) == -2 and type(exact_div(6, -3)) is int
    assert exact_div(1, 3) == Fraction(1, 3)
    assert exact_div(Fraction(3, 2), Fraction(1, 2)) == 3 and type(exact_div(Fraction(3, 2), Fraction(1, 2))) is int
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


def test_span_solver_rejects_a_target_outside_the_span():
    solver = SpanSolver([(1, 0, 1), (0, 1, 1), (1, 1, 2)], 3)
    assert len(solver.echelon) == 2
    # the third vector depends on the first two, so it gets coefficient 0
    assert solver.coords((2, 3, 5)) == (2, 3, 0) == coords_in_span(
        [(1, 0, 1), (0, 1, 1), (1, 1, 2)], (2, 3, 5))
    assert solver.coords((0, 0, 1)) is None
    assert SpanSolver([], 2).coords((0, 0)) == ()
    assert SpanSolver([], 2).coords((0, 1)) is None
    with pytest.raises(ValueError):
        solver.coords((1, 0))


def test_quotient_space_normalises_its_input():
    q = QuotientSpace(2, [(Fraction(2), Fraction(2))])
    assert q.pivots == (0,)
    assert q.project((Fraction(3, 1), Fraction(1, 2))) == (Fraction(-5, 2),)
    assert _all_normal(q.lift((Fraction(4, 2),))) and q.lift((Fraction(4, 2),)) == (0, 2)
