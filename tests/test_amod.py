import pytest

from clustertube import amod
from clustertube.amod import (
    DomainError,
    apply_F,
    b_matrix_from_euler_form,
    coindex,
    direct_sum,
    ext1_A_dim,
    hom_A_dim,
    i_vector,
    index,
    injective,
    is_locally_free,
    is_tau_rigid,
    projective,
    rank_vector,
    simple,
    socle_basis,
    tau_A,
    zero_module,
)
from clustertube.endo import build_endomorphism_algebra
from clustertube.tube import (
    ConsistencyError,
    Indec,
    MaximalRigid,
    Tube,
    all_rigid_indecs,
    b_matrix_multiplicities,
)


def test_functor_kills_shifted_summands(cyclic_algebra, cyclic_t, tube3):
    for s in cyclic_t.summands:
        assert apply_F(cyclic_algebra, tube3.tau(s)).is_zero()


def test_functor_rejects_unpresented_objects(cyclic_algebra, tube3):
    with pytest.raises(DomainError):
        apply_F(cyclic_algebra, Indec(4, 4))  # outside the fundamental region


def test_projectives_and_injectives(cyclic_algebra):
    for i in (1, 2, 3):
        p = projective(cyclic_algebra, i)
        inj = injective(cyclic_algebra, i)
        n_mod = apply_F(cyclic_algebra, Indec(2, 2))
        assert hom_A_dim(p, n_mod) == n_mod.dims[i - 1]
        assert ext1_A_dim(p, n_mod) == 0
        soc = socle_basis(inj)
        assert [len(s) for s in soc] == [int(v == i - 1) for v in range(3)]
        assert hom_A_dim(simple(cyclic_algebra, i), inj) == 1


def test_tau_of_projectives_vanishes(cyclic_algebra):
    for i in (1, 2, 3):
        p = projective(cyclic_algebra, i)
        assert tau_A(p).is_zero()
        assert is_tau_rigid(p)


def test_nine_rigid_modules_with_reference_ranks(cyclic_algebra, tube3):
    ranks = []
    for x in all_rigid_indecs(tube3):
        m = apply_F(cyclic_algebra, x)
        if m.is_zero():
            continue
        assert is_locally_free(m)
        assert is_tau_rigid(m)
        ranks.append(rank_vector(m))
    assert sorted(ranks) == [
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (1, 0, 0),
        (1, 0, 1),
        (1, 0, 2),
        (1, 1, 0),
        (1, 1, 1),
        (1, 2, 0),
    ]


def test_loop_vertex_dimension_even_on_rigid_images(cyclic_algebra, tube3):
    for x in all_rigid_indecs(tube3):
        m = apply_F(cyclic_algebra, x)
        assert m.dims[0] in (0, 2)


def test_simple_at_loop_vertex_not_locally_free(cyclic_algebra):
    assert not is_locally_free(simple(cyclic_algebra, 1))
    assert is_locally_free(zero_module(cyclic_algebra))


def test_functor_image_dimensions_across_the_boundary(linear_algebra, tube3):
    # modules over the wing stack: images of (i, n+1) and (i+1, n-1) agree
    for i in (1, 2):
        a = apply_F(linear_algebra, Indec(i, 4))
        b = apply_F(linear_algebra, tube3.indec(i + 1, 2))
        assert a.dims == b.dims
        assert is_locally_free(a)


def test_injective_copresentation_of_thick_module(cyclic_algebra):
    m = apply_F(cyclic_algebra, Indec(1, 3))  # rank (1, 0, 2)
    assert rank_vector(m) == (1, 0, 2)
    assert i_vector(m) == (-1, 0, 2)


def test_coindex_of_shifted_summands(cyclic_algebra, cyclic_t, tube3):
    for i, s in enumerate(cyclic_t.summands):
        expected = tuple(-int(j == i) for j in range(3))
        assert coindex(cyclic_algebra, tube3.tau(s)) == expected
        assert index(cyclic_algebra, tube3.tau(s)) == expected


def test_index_coindex_matrix_identity(cyclic_algebra, cyclic_t, tube3):
    b = b_matrix_multiplicities(cyclic_t)
    for x in all_rigid_indecs(tube3):
        m = apply_F(cyclic_algebra, x)
        rank = rank_vector(m) if not m.is_zero() else (0, 0, 0)
        co = coindex(cyclic_algebra, x)
        ix = index(cyclic_algebra, x)
        assert tuple(c - i for c, i in zip(co, ix)) == tuple(
            sum(b[i][j] * rank[j] for j in range(3)) for i in range(3)
        )
        assert ix == tuple(-c for c in coindex(cyclic_algebra, tube3.tau(x)))


def test_euler_form_reproduces_exchange_matrix(cyclic_algebra, cyclic_t):
    assert b_matrix_from_euler_form(cyclic_algebra) == b_matrix_multiplicities(cyclic_t)


def test_direct_sum_bookkeeping(cyclic_algebra):
    a = apply_F(cyclic_algebra, Indec(1, 1))
    b = apply_F(cyclic_algebra, Indec(2, 2))
    s = direct_sum([a, b])
    assert s.dims == tuple(x + y for x, y in zip(a.dims, b.dims))
    assert hom_A_dim(s, s) == (
        hom_A_dim(a, a) + hom_A_dim(a, b) + hom_A_dim(b, a) + hom_A_dim(b, b)
    )
    assert coindex(cyclic_algebra, (Indec(1, 1), Indec(2, 2))) == tuple(
        x + y
        for x, y in zip(coindex(cyclic_algebra, Indec(1, 1)), coindex(cyclic_algebra, Indec(2, 2)))
    )


def test_rank_vector_requires_locally_free(cyclic_algebra):
    with pytest.raises(DomainError):
        rank_vector(simple(cyclic_algebra, 1))


def test_coindex_domain_guard(cyclic_algebra):
    # length 2n at the wrong position is presented but not copresented
    with pytest.raises(DomainError):
        coindex(cyclic_algebra, Indec(1, 6))


def test_functor_images_satisfy_relations(cyclic_algebra, tube3):
    # construction re-checks the relations; run over the whole region
    for x in all_rigid_indecs(tube3):
        apply_F(cyclic_algebra, x)
    for i in (1, 2):
        apply_F(cyclic_algebra, Indec(i, 4))


# -- the module-layer memo ------------------------------------------------------
# Each test builds its own Tube: index/coindex vectors are memoised per tube,
# so a shared tube would carry entries over from earlier tests.


def fresh_cyclic_algebra():
    tube = Tube(3)
    return build_endomorphism_algebra(
        MaximalRigid(tube, (Indec(1, 3), Indec(3, 1), Indec(1, 1)))
    )


def test_apply_F_memo_shares_one_module_per_object():
    alg = fresh_cyclic_algebra()
    x = Indec(2, 2)
    m = apply_F(alg, x)
    assert apply_F(alg, (x,)) is m
    assert apply_F(alg, (2, 2)) is m
    assert projective(alg, 2) is apply_F(alg, alg.t.summands[1])
    assert injective(alg, 2) is apply_F(alg, alg.tube.tau(alg.t.summands[1], 2))


def test_domain_errors_survive_a_filled_memo():
    alg = fresh_cyclic_algebra()
    tube = alg.tube
    for x in all_rigid_indecs(tube):
        coindex(alg, x)
        index(alg, x)
    assert tube._coindex_cache and tube._index_cache
    with pytest.raises(DomainError):
        apply_F(alg, Indec(4, 4))
    with pytest.raises(DomainError):
        index(alg, Indec(4, 4))
    with pytest.raises(DomainError):
        coindex(alg, Indec(1, 6))


def test_coindex_disagreement_is_never_memoised(monkeypatch):
    alg = fresh_cyclic_algebra()
    x = Indec(2, 2)
    monkeypatch.setattr(amod, "i_vector", lambda m: (99, 99, 99))
    for _ in range(2):
        with pytest.raises(ConsistencyError):
            coindex(alg, x)
    assert (alg.t.summands, x) not in alg.tube._coindex_cache


def test_memoised_index_and_coindex_match_a_new_tube():
    alg = fresh_cyclic_algebra()
    xs = all_rigid_indecs(alg.tube)
    for x in xs:
        coindex(alg, x)
        index(alg, x)
    # a second End(T) on the same tube reads the tube's memo
    again = build_endomorphism_algebra(alg.t, check=False)
    cold = fresh_cyclic_algebra()
    for x in xs:
        assert coindex(again, x) == coindex(cold, x)
        assert index(again, x) == index(cold, x)
