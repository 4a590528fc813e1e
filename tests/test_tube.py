import itertools
import random
from functools import lru_cache
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from clustertube import linalg, tube as tube_module
from clustertube.amod import apply_F
from clustertube.endo import build_endomorphism_algebra
from clustertube.linalg import ExactMatrix, flatten_blocks, intertwiner_basis
from clustertube.tube import (
    ConsistencyError,
    Indec,
    MaximalRigid,
    Tube,
    TubeError,
    _radical_indices,
    all_rigid_indecs,
    b_matrix,
    b_matrix_multiplicities,
    basis_product,
    chom_coords,
    enumerate_maximal_rigid,
    hom_c_basis,
    identity_index,
    in_pr_T,
    is_rigid,
    is_rigid_set,
    mutate_rigid,
    unit_coords,
)

from linalg_reference import coords_in_span, identity_matrix
import tube_reference
from tube_reference import chom_from_coords, identity_chom, identity_vmaps, tau_chom


def test_hom_dimensions_small_cases(tube3):
    assert tube3.hom_tube_dim(Indec(1, 2), Indec(2, 1)) == 1
    assert tube3.hom_tube_dim(Indec(1, 1), Indec(2, 1)) == 0
    assert tube3.hom_tube_dim(Indec(1, 1), Indec(1, 1)) == 1


def test_ext_small_cases(tube3):
    assert tube3.ext_space(Indec(1, 1), Indec(3, 1)).dim == 0
    for x in (Indec(1, 1), Indec(2, 3), Indec(4, 2)):
        assert tube3.ext_space(x, tube3.tau(x)).dim >= 1


def test_ar_duality_random_pairs(tube3):
    rng = random.Random(7)
    for _ in range(20):
        x = Indec(rng.randint(1, 4), rng.randint(1, 5))
        z = Indec(rng.randint(1, 4), rng.randint(1, 5))
        assert tube3.ext_space(x, z).dim == tube3.hom_tube_dim(z, tube3.tau(x))


def test_hom_c_long_summand_cases(tube3):
    x = Indec(1, 3)
    # everything in the wing of the translate is invisible from x
    for y in tube3.wing(tube3.tau(x)):
        assert tube3.hom_c_dim(x, y) == 0
    # objects supporting tube morphisms both ways see dimension two
    assert tube3.hom_c_dim(x, x) == 2
    assert tube3.hom_c_dim(Indec(1, 3), Indec(2, 3)) == 2


def test_hom_c_translation_invariance(tube3):
    for x, y in itertools.product(all_rigid_indecs(tube3)[:6], repeat=2):
        assert tube3.hom_c_dim(x, y) == tube3.hom_c_dim(tube3.tau(x), tube3.tau(y))


def test_two_calabi_yau_symmetry(tube3):
    for x, y in itertools.product(all_rigid_indecs(tube3), repeat=2):
        assert tube3.ext1_c_dim(x, y) == tube3.ext1_c_dim(y, x)


def test_rigidity_boundary(tube3):
    assert is_rigid(tube3, Indec(1, 3))
    assert not is_rigid(tube3, Indec(1, 4))
    assert is_rigid_set(tube3, [Indec(2, 2)])
    assert len(all_rigid_indecs(tube3)) == 3 * 4


def test_composition_stratification(tube3):
    # on the endomorphism bases of every maximal rigid object: two
    # shift-stratum maps compose to zero, and a tube map after a
    # shift-stratum map never lands back in the tube stratum
    for t in enumerate_maximal_rigid(3, tube3):
        for x, y in itertools.product(t.summands, repeat=2):
            basis = hom_c_basis(tube3, x, y)
            d_elems = [f for f in basis if f.d]
            t_elems = [f for f in basis if f.t]
            for z in t.summands:
                incoming_d = [h for h in hom_c_basis(tube3, z, x) if h.d]
                for g in d_elems:
                    for f in incoming_d:
                        assert g.compose(f).is_zero()
                for g in t_elems:
                    for f in incoming_d:
                        assert not g.compose(f).t


def test_shift_stratum_dimension_matches_serre_dual():
    from clustertube.tube import Tube

    for n in (2, 3, 4):
        tube = Tube(n)
        for a in range(1, n + 2):
            for b in range(1, n + 2):
                for c in range(1, n + 2):
                    x, y = Indec(a, b), Indec(c, min(b + 1, n + 1))
                    assert tube.dmor_space(x, y).dim == tube.hom_tube_dim(
                        y, tube.tau(x, 2)
                    )


def test_tau_of_morphism_respects_coordinates(tube3):
    x, y = Indec(1, 2), Indec(1, 3)
    for f in hom_c_basis(tube3, x, y):
        shifted = tau_chom(tube3, f, 2)
        assert shifted.src == (tube3.tau(x, 2),)
        back = tau_chom(tube3, shifted, -2)
        assert chom_coords(tube3, back) == chom_coords(tube3, f)


def test_identity_composes_neutrally(tube3):
    x, y = Indec(2, 3), Indec(3, 2)
    idx = identity_chom(tube3, (x,))
    idy = identity_chom(tube3, (y,))
    for f in hom_c_basis(tube3, x, y):
        assert chom_coords(tube3, idy.compose(f)) == chom_coords(tube3, f)
        assert chom_coords(tube3, f.compose(idx)) == chom_coords(tube3, f)


def test_maximal_rigid_counts():
    for n, expected in ((2, 6), (3, 20), (4, 70)):
        ts = enumerate_maximal_rigid(n)
        assert len(ts) == expected
        for t in ts:
            longs = [s for s in t.summands if s.b == n]
            assert len(longs) == 1


def test_linear_object_is_maximal_rigid(tube3):
    t = MaximalRigid(tube3, (Indec(1, 3), Indec(1, 2), Indec(1, 1)))
    assert is_rigid_set(tube3, t.summands)
    # nothing outside extends it
    for x in all_rigid_indecs(tube3):
        if x in t.summands:
            continue
        assert not is_rigid_set(tube3, list(t.summands) + [x])


def test_mutation_exchange_triangles(linear_t, tube3):
    data = mutate_rigid(linear_t, 1)
    assert data.new == Indec(4, 3)
    assert data.right_middle == (Indec(1, 2), Indec(1, 2))
    assert data.left_middle == ()
    back = mutate_rigid(data.mutated, data.mutated.summands.index(data.new) + 1)
    assert back.mutated.as_set() == linear_t.as_set()


def test_mutation_involutive_everywhere(tube3):
    for t in enumerate_maximal_rigid(3, tube3):
        for k in range(1, 4):
            data = mutate_rigid(t, k)
            again = mutate_rigid(data.mutated, data.mutated.summands.index(data.new) + 1)
            assert again.mutated.as_set() == t.as_set()
            assert again.new == data.old


def test_mutation_stays_in_enumerated_set(tube2):
    known = {t.as_set() for t in enumerate_maximal_rigid(2, tube2)}
    for t in enumerate_maximal_rigid(2, tube2):
        for k in (1, 2):
            assert mutate_rigid(t, k).mutated.as_set() in known


def test_b_matrix_of_cyclic_object(cyclic_t):
    assert b_matrix_multiplicities(cyclic_t) == ((0, 1, -1), (-2, 0, 1), (2, -1, 0))
    # cross-validated constructor agrees and validates sign-skew-symmetry
    assert b_matrix(cyclic_t).b == ((0, 1, -1), (-2, 0, 1), (2, -1, 0))


def test_mutation_direction_out_of_range(linear_t):
    with pytest.raises(TubeError):
        mutate_rigid(linear_t, 0)
    with pytest.raises(TubeError):
        mutate_rigid(linear_t, 4)


def test_maximal_rigid_requires_long_summand(tube3):
    with pytest.raises(TubeError):
        MaximalRigid(tube3, (Indec(1, 2), Indec(1, 1), Indec(2, 1)))


# -- coordinates in the shift-map basis ------------------------------------------


def test_hom_coords_equals_coords_in_span_on_every_call(monkeypatch):
    stored = Tube.hom_coords
    calls = []

    def checked(tube, x, y, f):
        coords = stored(tube, x, y, f)
        basis = [flatten_blocks(b) for b in tube.hom_basis(x, y)]
        assert coords == coords_in_span(basis, flatten_blocks(f))
        calls.append((x, y))
        return coords

    monkeypatch.setattr(Tube, "hom_coords", checked)
    tube = Tube(3)
    # the structure constants are read without composing, so compose the
    # basis morphisms of every triple of rigid objects
    _products_agree_with_composition(tube, itertools.product(all_rigid_indecs(tube), repeat=3))
    for t in enumerate_maximal_rigid(3, tube):
        algebra = build_endomorphism_algebra(t)
        algebra.verify_associativity()
        algebra.verify_relations()
        for k in range(1, 4):
            mutate_rigid(t, k)
        for x in all_rigid_indecs(tube):
            if in_pr_T(t, x):
                apply_F(algebra, x)
    # 840 calls on 56 distinct (x, y) when this was written
    assert len(calls) > 500 and len(set(calls)) > 40


def test_hom_coords_rejects_a_map_outside_the_hom_space(tube3):
    x = Indec(1, 2)  # one basis vector at each of the vertices 0 and 1
    assert tube3.hom_coords(x, x, identity_vmaps(tube3, x)) == (1,)
    # the identity at vertex 0 and zero at vertex 1 does not commute with
    # the arrow 1 -> 0
    one, zero = identity_matrix(1), ExactMatrix.zero(1, 1)
    empty = ExactMatrix.zero(0, 0)
    with pytest.raises(ConsistencyError):
        tube3.hom_coords(x, x, (one, zero, empty, empty))
    # an empty Hom space admits only the zero map
    y = Indec(1, 1)  # the socle of x, not a quotient of it
    assert tube3.hom_basis(x, y) == []
    assert tube3.hom_coords(x, y, (zero, ExactMatrix.zero(0, 1), empty, empty)) == ()
    with pytest.raises(ConsistencyError):
        tube3.hom_coords(x, y, (one, ExactMatrix.zero(0, 1), empty, empty))


def test_hom_coords_rejects_a_block_of_the_wrong_shape(tube3):
    x = Indec(1, 5)  # basis positions 0 and 4 at vertex 0, one at each other vertex
    ident = identity_vmaps(tube3, x)
    assert tube3.hom_coords(x, x, ident) == (0, 1)
    # the 2 x 2 identity at vertex 0 as a 4 x 1 block flattens to the same entries
    tall = ExactMatrix([[1], [0], [0], [1]])
    with pytest.raises(TubeError):
        tube3.hom_coords(x, x, (tall,) + ident[1:])
    with pytest.raises(TubeError):
        tube3.hom_coords(x, x, ident[:-1])


# -- invariants beyond the exhaustive scope ----------------------------------------


@pytest.mark.parametrize("n", range(2, 9))
def test_maximal_rigid_count_is_the_type_c_cluster_count(n):
    # Buan-Marsh-Vatne: as many maximal rigid objects as clusters of type C_n
    assert len(enumerate_maximal_rigid(n)) == comb(2 * n, n)


_TUBES = {n: Tube(n) for n in range(2, 9)}


@st.composite
def rigid_pairs(draw):
    tube = _TUBES[draw(st.integers(min_value=2, max_value=8))]
    x, y = (
        tube.indec(draw(st.integers(1, tube.p)), draw(st.integers(1, tube.n)))
        for _ in range(2)
    )
    return tube, x, y


@given(rigid_pairs())
@settings(max_examples=150, deadline=None)
def test_ext_is_symmetric_and_hom_is_translation_invariant(case):
    tube, x, y = case
    # 2-Calabi-Yau: Ext^1(X, Y) and Ext^1(Y, X) are dual
    assert tube.ext1_c_dim(x, y) == tube.ext1_c_dim(y, x)
    for k in (1, 2, tube.p - 1):
        assert tube.hom_c_dim(tube.tau(x, k), tube.tau(y, k)) == tube.hom_c_dim(x, y)


@lru_cache(maxsize=None)
def _enumerated(n):
    """The maximal rigid objects of rank n, and the set of their summand sets."""
    ts = enumerate_maximal_rigid(n, _TUBES[n])
    return ts, frozenset(t.as_set() for t in ts)


@st.composite
def objects_and_directions(draw):
    # an index, not the object, so that drawing never enumerates
    n = draw(st.integers(min_value=2, max_value=8))
    return n, draw(st.integers(0, comb(2 * n, n) - 1)), draw(st.integers(1, n))


@given(objects_and_directions())
@settings(max_examples=30, deadline=None)
def test_mutation_is_an_involution_inside_the_enumerated_set(case):
    n, i, k = case
    ts, known = _enumerated(n)
    t = ts[i]
    data = mutate_rigid(t, k)
    assert data.mutated.as_set() in known
    back = mutate_rigid(data.mutated, data.mutated.summands.index(data.new) + 1)
    assert back.mutated.as_set() == t.as_set()
    assert back.new == data.old


def test_dmor_space_is_the_ext_space_at_the_inverse_translate():
    tube = Tube(3)
    rigids = all_rigid_indecs(tube)
    for x in rigids:
        for y in rigids:
            space = tube.dmor_space(x, y)
            assert space is tube.ext_space(x, tube.tau(y, -1))
            assert tube.dmor_space(x, y) is space


def _direct_hom_basis(tube, x, y):
    return intertwiner_basis(tube.indec_dims(x), tube.indec_dims(y), tube.hom_equations(x, y))


def _no_solve(*args):
    raise AssertionError("Tube solved a linear system for a Hom space")


@pytest.mark.parametrize("n", range(2, 8))
def test_a_rotated_hom_basis_equals_a_direct_solve(n, monkeypatch):
    tube = Tube(n)
    objects = [Indec(a, b) for a in range(1, tube.p + 1) for b in range(1, 2 * n + 2)]
    direct = {(x, y): _direct_hom_basis(tube, x, y) for x in objects for y in objects}
    # Tube makes no solve: every row reduction in linalg runs through
    # rref or _reduce
    monkeypatch.setattr(linalg, "rref", _no_solve)
    monkeypatch.setattr(linalg, "_reduce", _no_solve)
    for (x, y), basis in direct.items():
        assert tube.hom_basis(x, y) == basis
        assert tube.hom_tube_dim(x, y) == len(basis)
        # the basis of the frame pair, rotated back, is the same list
        s = x.a - 1
        frame = tube.hom_basis(tube.tau(x, s), tube.tau(y, s))
        assert [tube.tau_vmaps(f, -s) for f in frame] == basis
        for i, f in enumerate(basis):
            assert tube.hom_coords(x, y, f) == tuple(int(j == i) for j in range(len(basis)))
    assert len(tube._hom_cache) == len(objects) ** 2


def test_validating_and_enumerating_maximal_rigid_objects_builds_no_hom_basis():
    tube = Tube(5)
    for t in enumerate_maximal_rigid(5):
        assert MaximalRigid(tube, t.summands) == t
    assert tube._compatible_cache and not tube._hom_cache
    tube = Tube(4)
    assert len(enumerate_maximal_rigid(4, tube)) == comb(8, 4)
    assert tube._compatible_cache and not tube._hom_cache


def _vmaps(flat, shapes):
    """Vertex maps of the given (rows, cols) shapes, read block by block,
    row by row from ``flat``."""
    out, pos = [], 0
    for r, c in shapes:
        out.append(ExactMatrix([flat[pos + i * c : pos + (i + 1) * c] for i in range(r)], ncols=c))
        pos += r * c
    return tuple(out)


@st.composite
def long_pairs(draw):
    """Two objects of length up to 3(n + 1), n <= 12, int or Fraction
    coefficients for the basis of Hom between them, an entry to perturb and
    a translation."""
    n = draw(st.integers(min_value=2, max_value=12))
    tube = _TUBES.get(n) or Tube(n)
    x, y = (tube.indec(draw(st.integers(1, tube.p)), draw(st.integers(1, 3 * tube.p)))
            for _ in range(2))
    dim = tube.hom_tube_dim(x, y)
    coeffs = draw(st.lists(st.integers(-5, 5) | st.fractions(max_denominator=7),
                           min_size=dim, max_size=dim))
    return tube, x, y, coeffs, draw(st.integers(0, 10 ** 6)), draw(st.integers(1, tube.p))


@given(long_pairs())
@settings(max_examples=200, deadline=None)
def test_the_closed_form_hom_calculus_beyond_the_exhaustive_scope(case):
    tube, x, y, coeffs, pick, k = case
    basis = tube.hom_basis(x, y)
    assert basis == _direct_hom_basis(tube, x, y)
    # tau^k of the i-th basis map is the i-th basis map of the translated pair
    assert [tube.tau_vmaps(f, k) for f in basis] == tube.hom_basis(tube.tau(x, k), tube.tau(y, k))
    # the coordinates of a combination are its coefficients, in normal form
    shapes = list(zip(tube.indec_dims(y), tube.indec_dims(x)))
    flat = [0] * sum(r * c for r, c in shapes)
    for c, f in zip(coeffs, basis):
        flat = [a + c * b for a, b in zip(flat, flatten_blocks(f))]
    coords = tube.hom_coords(x, y, _vmaps(flat, shapes))
    assert coords == tuple(coeffs)
    assert all(type(c) is int or c.denominator > 1 for c in coords)
    if not flat:
        return
    # one perturbed entry leaves the span, unless it is alone on its support
    flat[pick % len(flat)] += 1
    reference = coords_in_span([flatten_blocks(f) for f in basis], flat)
    if reference is None:
        with pytest.raises(ConsistencyError):
            tube.hom_coords(x, y, _vmaps(flat, shapes))
    else:
        assert tube.hom_coords(x, y, _vmaps(flat, shapes)) == reference


def test_the_cluster_tube_hom_basis_is_built_once_per_pair():
    tube = Tube(3)
    rigids = all_rigid_indecs(tube)
    for x in rigids:
        for y in rigids:
            basis = hom_c_basis(tube, x, y)
            assert hom_c_basis(tube, x, y) is basis
            assert len(basis) == tube.hom_c_dim(x, y)


# -- the table of structure constants ------------------------------------------


def _products_agree_with_composition(tube, triples):
    """Every entry of the table on the given (x, y, z) is a position of
    hom_c_basis(x, z) or None, its unit vector equals the coordinates of the
    composed basis morphisms, and the table keeps it."""
    checked = 0
    for x, y, z in triples:
        dim = tube.hom_c_dim(x, z)
        for i, u in enumerate(hom_c_basis(tube, y, z)):
            for j, v in enumerate(hom_c_basis(tube, x, y)):
                pos = basis_product(tube, x, y, z, i, j)
                assert pos is None or type(pos) is int and 0 <= pos < dim
                assert unit_coords(pos, dim) == chom_coords(tube, u.compose(v))
                assert tube._product_cache[(x, y, z, i, j)] == pos
                checked += 1
    return checked


def _objects(tube, longest):
    return [Indec(a, b) for a in range(1, tube.p + 1) for b in range(1, longest + 1)]


def test_the_product_table_equals_composition_at_rank_two():
    # every object up to length 2n + 1, so shift maps f_delta with delta < 0
    # and classes on several diagonals compose
    tube = Tube(2)
    objects = _objects(tube, 2 * tube.n + 1)
    assert _products_agree_with_composition(tube, itertools.product(objects, repeat=3)) == 8052


def test_the_product_table_equals_composition_at_rank_three():
    tube = Tube(3)
    triples = itertools.product(all_rigid_indecs(tube), repeat=3)
    assert _products_agree_with_composition(tube, triples) > 1000


def test_the_product_table_equals_composition_on_rigid_triples_at_rank_four():
    tube = Tube(4)
    triples = itertools.product(all_rigid_indecs(tube), repeat=3)
    assert _products_agree_with_composition(tube, triples) == 4920


def test_the_product_table_equals_composition_on_a_sample_at_rank_four():
    tube = Tube(4)
    objects = [Indec(a, b) for a in range(1, tube.p + 1) for b in range(1, tube.n + 2)]
    rng = random.Random(20)
    triples = [tuple(rng.choice(objects) for _ in range(3)) for _ in range(300)]
    assert _products_agree_with_composition(tube, triples) > 100


def test_chom_coords_returns_normal_form_entries(tube3):
    for x, y in ((Indec(1, 2), Indec(1, 3)), (Indec(1, 5), Indec(4, 5))):
        dim = tube3.hom_c_dim(x, y)
        assert dim > 0
        for k in range(dim):
            for c in (1, 2, Fraction(4, 2), Fraction(1, 3)):
                coords = chom_coords(tube3, chom_from_coords(tube3, x, y, _unit(k, dim, c)))
                assert all(type(c) is int or c.denominator > 1 for c in coords)
                assert coords == tuple(_unit(k, dim, c))


# -- Ext^1 and the structure constants in closed form ----------------------------


def _unit(k, dim, c=1):
    return [c if i == k else 0 for i in range(dim)]


@pytest.mark.parametrize("n", range(2, 6))
def test_the_closed_form_ext_space_equals_the_row_reduced_cokernel(n):
    tube = Tube(n)
    objects = _objects(tube, 2 * n + 1)
    for x in objects:
        for y in objects:
            space, reference = tube.ext_space(x, y), tube_reference.ExtSpace(tube, x, y)
            assert (space.block_shapes, space.total) == (reference.block_shapes, reference.total)
            assert (space.dim, space.reps) == (reference.dim, reference.reps)
            for e in range(space.total):
                assert space.project(_unit(e, space.total)) == reference.project(_unit(e, space.total))
            for k in range(space.dim):
                assert space.lift(_unit(k, space.dim)) == reference.lift(_unit(k, space.dim))
            # AR duality: one class per shift of Hom(y, tau x)
            assert space.dim == tube.hom_tube_dim(y, tube.tau(x))


def test_ext_coordinates_are_in_normal_form():
    tube = Tube(3)
    x, y = Indec(1, 5), Indec(4, 5)  # y = tau x: diagonals -4 and 0
    space, reference = tube.ext_space(x, y), tube_reference.ExtSpace(tube, x, y)
    assert space.dim == 2
    flat = [Fraction(k, 2) for k in range(space.total)]
    assert space.project(flat) == reference.project(flat)
    assert all(type(c) is int or c.denominator > 1 for c in space.project(flat))
    for coords in ((Fraction(4, 2), Fraction(1, 3)), (1, -2)):
        assert space.lift(coords) == reference.lift(coords)


def test_ext_maps_reject_a_vector_of_the_wrong_length(tube3):
    space = tube3.ext_space(Indec(1, 5), Indec(4, 5))
    assert space.total > 0 and space.dim > 0
    for wrong in (space.total - 1, space.total + 1):
        with pytest.raises(TubeError):
            space.project([0] * wrong)
    for wrong in (space.dim - 1, space.dim + 1):
        with pytest.raises(TubeError):
            space.lift([0] * wrong)
    with pytest.raises(TubeError):
        space.flatten(space.lift([1] * space.dim)[:-1])


def test_the_radical_of_an_endomorphism_ring_drops_only_the_identity():
    tube = Tube(3)
    # f_-4 is nilpotent on (1, 5) though it lies in the tube stratum
    assert _radical_indices(tube, Indec(1, 5), Indec(1, 5)) == [0, 2]
    for x in _objects(tube, 3 * tube.p):
        basis = hom_c_basis(tube, x, x)
        radical = _radical_indices(tube, x, x)
        (identity,) = set(range(len(basis))) - set(radical)
        assert identity_index(tube, x) == identity
        assert chom_coords(tube, identity_chom(tube, (x,))) == tuple(_unit(identity, len(basis)))
        for k in radical:
            power = basis[k]
            for _ in range(len(basis)):
                power = power.compose(basis[k])
            assert power.is_zero()
    x, y = Indec(1, 2), Indec(1, 3)
    assert _radical_indices(tube, x, y) == list(range(tube.hom_c_dim(x, y)))


def _no_rref(*args):
    raise AssertionError("Tube row reduced")


def test_the_tube_makes_no_rref_for_an_ext_space_or_a_product(monkeypatch):
    monkeypatch.setattr(linalg, "rref", _no_rref)
    monkeypatch.setattr(linalg, "_reduce", _no_rref)
    tube = Tube(4)
    objects = _objects(tube, 2 * tube.n + 1)
    for x in objects:
        for y in objects:
            space = tube.ext_space(x, y)
            for k in range(space.dim):
                assert space.project(space.flatten(space.lift(_unit(k, space.dim)))) == tuple(
                    _unit(k, space.dim))
    products = 0
    for x, y, z in itertools.product(_objects(tube, tube.n + 1), repeat=3):
        for i in range(tube.hom_c_dim(y, z)):
            for j in range(tube.hom_c_dim(x, y)):
                basis_product(tube, x, y, z, i, j)
                products += 1
    assert products > 10000


@st.composite
def long_triples(draw):
    """Three objects of length up to 3(n + 1), n <= 12, and a translation."""
    n = draw(st.integers(min_value=2, max_value=12))
    tube = _TUBES.get(n) or Tube(n)
    x, y, z = (tube.indec(draw(st.integers(1, tube.p)), draw(st.integers(1, 3 * tube.p)))
               for _ in range(3))
    return tube, x, y, z, draw(st.integers(1, tube.p))


@given(long_triples())
@settings(max_examples=100, deadline=None)
def test_the_closed_form_products_beyond_the_exhaustive_scope(case):
    tube, x, y, z, k = case
    tx, ty, tz = (tube.tau(o, k) for o in (x, y, z))
    dim = tube.hom_c_dim(x, z)
    for i, u in enumerate(hom_c_basis(tube, y, z)):
        for j, v in enumerate(hom_c_basis(tube, x, y)):
            pos = basis_product(tube, x, y, z, i, j)
            # one basis position or zero
            assert pos is None or type(pos) is int and 0 <= pos < dim
            assert unit_coords(pos, dim) == chom_coords(tube, u.compose(v))
            # translation-equivariant
            assert basis_product(tube, tx, ty, tz, i, j) == pos


@pytest.mark.parametrize("n", range(2, 6))
def test_translation_keeps_every_hom_c_basis_coordinate(n):
    # tau_A hands each presentation entry's coordinates to map_F at tau^2 T
    # unchanged; the translated morphism, moved intertwiner by intertwiner
    # and class by class, must have them
    tube = Tube(n)
    objects = _objects(tube, 2 * n + 1)
    translated = 0
    for x, y in itertools.product(objects, repeat=2):
        basis = hom_c_basis(tube, x, y)
        for i, f in enumerate(basis):
            for k in (1, 2, -1):
                g = tau_chom(tube, f, k)
                assert (g.src, g.tgt) == ((tube.tau(x, k),), (tube.tau(y, k),))
                assert chom_coords(tube, g) == unit_coords(i, len(basis))
                translated += 1
    assert translated == {2: 990, 3: 3360, 4: 8550, 5: 18216}[n]
