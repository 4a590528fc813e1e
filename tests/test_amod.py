import pytest
from hypothesis import given, settings, strategies as st

from clustertube import amod
from clustertube.amod import (
    DomainError,
    ModMap,
    act_element,
    apply_F,
    b_matrix_from_euler_form,
    coindex,
    direct_sum,
    euler_leq1,
    hom_A_basis,
    hom_A_dim,
    i_vector,
    index,
    injective,
    injective_copresentation,
    is_locally_free,
    is_tau_rigid,
    map_F,
    minimal_projective_presentation,
    projective,
    projective_cover,
    rank_vector,
    simple,
    socle_basis,
    tau_A,
    zero_module,
)
from clustertube.endo import b_matrix_from_quiver, build_endomorphism_algebra
from clustertube.linalg import ExactMatrix
from clustertube.tube import (
    ConsistencyError,
    Indec,
    MaximalRigid,
    Tube,
    all_rigid_indecs,
    b_matrix_multiplicities,
    chom_coords,
    enumerate_maximal_rigid,
    hom_c_basis,
    in_pr_T,
    mutate_rigid,
)
from clustertube.verify import _irreducible_maps

from amod_reference import arrow_matrices_by_composition, map_F_args, map_F_by_blocks, stack_chom
from linalg_reference import coords_in_span
from tube_reference import chom_from_coords, identity_chom, tau_chom
from verify_reference import tau_orbit_representatives


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
        assert hom_A_dim(p, n_mod) - euler_leq1(p, n_mod) == 0
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


def test_a_direct_sum_of_sums_is_the_image_of_the_whole_sum(cyclic_algebra, tube3):
    # each vertex space of a sum is its summands' Hom bases in provenance
    # order, so a sum of sums has the data of the image map_F maps into
    x, y, z = Indec(1, 1), Indec(1, 2), Indec(1, 3)
    whole = apply_F(cyclic_algebra, (x, y, z))
    for parts in (((x,), (y, z)), ((x, y), (z,))):
        s = direct_sum([apply_F(cyclic_algebra, part) for part in parts])
        assert s.provenance == whole.provenance == (x, y, z)
        assert s.same_data(whole)
        ident = map_F(cyclic_algebra, *map_F_args(identity_chom(tube3, (x, y, z))))
        assert ident.tgt.same_data(s)
        assert ident.commutes() and ident.is_injective() and ident.is_surjective()


def test_simples_are_built_once_per_vertex(cyclic_algebra):
    for i in (1, 2, 3):
        assert simple(cyclic_algebra, i) is simple(cyclic_algebra, i)


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
    algebra = build_endomorphism_algebra(
        MaximalRigid(tube, (Indec(1, 3), Indec(3, 1), Indec(1, 1)))
    )
    algebra.verify_associativity()
    algebra.verify_relations()
    return algebra


def memo_entries(alg, kind, x=None):
    """The keys of the tube's memo entries ``kind`` for the algebra, or for
    its functor image of x only."""
    return [key for key in alg.tube._module_memo
            if key[:2] == (amod._algebra_class(alg), kind)
            and (x is None or key[-1] == amod._content(apply_F(alg, x)))]


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
    assert memo_entries(alg, "coindex") and memo_entries(alg, "index")
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
    assert not memo_entries(alg, "coindex", x)


def test_memoised_index_and_coindex_match_a_new_tube():
    alg = fresh_cyclic_algebra()
    xs = all_rigid_indecs(alg.tube)
    for x in xs:
        coindex(alg, x)
        index(alg, x)
    # the second calls read the tube's memo
    cold = fresh_cyclic_algebra()
    for x in xs:
        assert coindex(alg, x) == coindex(cold, x)
        assert index(alg, x) == index(cold, x)


def test_an_algebra_that_outlives_its_memo_recomputes(monkeypatch):
    # verify gives the tube a new memo after each frame group, and the class
    # numbers restart there: the stale algebra's number 0 names the other
    # algebra's content in the new memo
    tube = Tube(3)
    ts = enumerate_maximal_rigid(3, tube)
    stale, other = build_endomorphism_algebra(ts[0]), build_endomorphism_algebra(ts[1])
    assert amod._algebra_class(stale) == 0
    tube._module_memo = {}
    assert amod._algebra_class(other) == 0
    read_other = b_matrix_from_euler_form(other)
    assert read_other != b_matrix_from_quiver(stale)
    forms = []
    euler = amod.euler_leq1
    monkeypatch.setattr(amod, "euler_leq1", lambda m, n: forms.append(m) or euler(m, n))
    assert b_matrix_from_euler_form(stale) == b_matrix_from_quiver(stale)
    assert len(forms) == 9
    assert len(tube._module_memo) == 2  # the other algebra's number and form only
    assert b_matrix_from_euler_form(other) == read_other and len(forms) == 9


def test_act_element_on_a_projective_is_precomposition(cyclic_algebra, linear_algebra):
    # P_v = Hom(T, T_v): the basis element b at a position of Hom(T_i, T_j)
    # sends h in Hom(T_j, T_v) to h o b, composed here as morphisms
    for alg in (cyclic_algebra, linear_algebra):
        tube, summands = alg.tube, alg.t.summands
        acted = 0  # each position at least once, on the identity of its target
        for v in range(alg.n):
            p = projective(alg, v + 1)
            for (i, j), dim in alg.block_dim.items():
                for k in range(dim):
                    b = alg.basis[alg.block_offset[(i, j)] + k][2]
                    for r, h in enumerate(hom_c_basis(tube, summands[j], summands[v])):
                        unit = tuple(int(q == r) for q in range(p.dims[j]))
                        assert act_element(p, i, j, k, unit) == chom_coords(tube, h.compose(b))
                        acted += 1
        assert acted >= alg.dim


def test_act_element_with_the_identity_returns_the_vector(cyclic_algebra):
    alg = cyclic_algebra
    m = apply_F(alg, (Indec(1, 2), Indec(2, 3)))
    for i in range(alg.n):
        assert alg.paths[(i, i)][alg.identity_pos[i]] is None
        for r in range(m.dims[i]):
            vec = tuple(2 if q == r else q for q in range(m.dims[i]))
            assert act_element(m, i, i, alg.identity_pos[i], vec) == vec


# -- tau_A assembles nu(psi) from one block map per presentation entry ------------


def _tau_A_entrywise(m):
    """The Nakayama construction one (vertex, basis vector, entry) at a time:
    a fresh block map per triple, applied to one unit vector.  The reference
    for ``tau_A``'s assembly from one block map per entry."""
    alg = m.algebra
    if m.is_zero():
        return zero_module(alg)
    pres = minimal_projective_presentation(m)
    if not pres.p1_vertices:
        return zero_module(alg)
    tube = alg.tube
    i0_mods = [injective(alg, v) for v in pres.p0_vertices]
    i1_mods = [injective(alg, v) for v in pres.p1_vertices]
    nu_i1, nu_i0 = direct_sum(i1_mods), direct_sum(i0_mods)
    mats = []
    for u in range(alg.n):
        cols = []
        for t_idx, ut in enumerate(pres.p1_vertices):
            src_mod = i1_mods[t_idx]
            for r in range(src_mod.dims[u]):
                col = [0] * nu_i0.dims[u]
                unit = [int(s == r) for s in range(src_mod.dims[u])]
                for s_idx, vs in enumerate(pres.p0_vertices):
                    coords = pres.entries[s_idx][t_idx]
                    if not any(coords):
                        continue
                    a_elem = chom_from_coords(
                        tube, alg.t.summands[ut - 1], alg.t.summands[vs - 1], coords
                    )
                    g = tau_chom(tube, a_elem, 2)
                    block = map_F(alg, *map_F_args(g))
                    assert block.src is src_mod and block.tgt is i0_mods[s_idx]
                    off = sum(i0m.dims[u] for i0m in i0_mods[:s_idx])
                    for k, x in enumerate(block.mats[u].apply(unit)):
                        col[off + k] += x
                cols.append(tuple(col))
        mats.append(ExactMatrix.from_columns(cols, nu_i0.dims[u]))
    ker, _ = ModMap(nu_i1, nu_i0, mats).kernel()
    return ker


def _functor_images(t):
    """End(T) and the nonzero images of the rigid indecomposables it presents."""
    alg = build_endomorphism_algebra(t)
    images = [apply_F(alg, x) for x in all_rigid_indecs(t.tube) if in_pr_T(t, x)]
    return alg, [m for m in images if not m.is_zero()]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tau_A_equals_the_entrywise_nakayama_construction(n):
    tube = Tube(n)
    ts = enumerate_maximal_rigid(n, tube) if n <= 3 else tau_orbit_representatives(tube)
    compared = 0
    for t in ts:
        _, images = _functor_images(t)
        for m in images:
            assert tau_A(m).same_data(_tau_A_entrywise(m)), (t, m.provenance)
            compared += 1
    assert compared > len(ts)


def test_tau_A_builds_one_block_map_per_nonzero_entry(monkeypatch):
    calls = []
    real_map_F = amod.map_F

    def counting_map_F(*args, **kwargs):
        calls.append(args[1])
        return real_map_F(*args, **kwargs)

    monkeypatch.setattr(amod, "map_F", counting_map_F)
    nonprojective = 0
    for t in enumerate_maximal_rigid(3, Tube(3)):
        _, images = _functor_images(t)
        for m in images:
            entries = minimal_projective_presentation(m).entries
            del calls[:]
            tau_A(m)
            assert len(calls) == sum(1 for row in entries for coords in row if any(coords))
            nonprojective += bool(calls)
    assert nonprojective > 0


# -- the Euler form from the syzygy kept on the module ----------------------------


def _euler_three_solves(m, n_mod):
    """hom - ext^1 with ext^1 = hom(OmegaM, N) - hom(P0, N) + hom(M, N) from a
    fresh projective cover: three Hom solves, two of which cancel."""
    if m.is_zero() or n_mod.is_zero():
        return 0, 0
    cov = projective_cover(m)
    ker, _ = cov.cover.kernel()
    hom_p0 = sum(n_mod.dims[v - 1] for v in cov.vertices)
    ext1 = hom_A_dim(ker, n_mod) - hom_p0 + hom_A_dim(m, n_mod)
    return hom_A_dim(m, n_mod) - ext1, ext1


def _simples_and_images(t):
    alg, images = _functor_images(t)
    return [simple(alg, i + 1) for i in range(alg.n)] + images


@pytest.mark.parametrize("n", [2, 3])
def test_euler_form_equals_the_three_solve_reference(n):
    tube = Tube(n)
    pairs = 0
    for t in enumerate_maximal_rigid(n, tube):
        mods = _simples_and_images(t)
        for m in mods:
            for n_mod in mods:
                euler, ext1 = _euler_three_solves(m, n_mod)
                assert euler_leq1(m, n_mod) == euler
                assert hom_A_dim(m, n_mod) - euler_leq1(m, n_mod) == ext1
                pairs += 1
    assert pairs > 0


_REPS = {}


def _reps(n):
    if n not in _REPS:
        _REPS[n] = tau_orbit_representatives(Tube(n))
    return _REPS[n]


@st.composite
def module_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    t = _reps(n)[draw(st.integers(0, len(_reps(n)) - 1))]
    mods = _simples_and_images(t)
    return draw(st.sampled_from(mods)), draw(st.sampled_from(mods))


@given(module_pairs())
@settings(max_examples=25, deadline=None)
def test_euler_form_on_sampled_representatives(pair):
    m, n_mod = pair
    euler, ext1 = _euler_three_solves(m, n_mod)
    assert euler_leq1(m, n_mod) == euler
    assert hom_A_dim(m, n_mod) - euler_leq1(m, n_mod) == ext1


def test_the_syzygy_is_computed_once_and_kept_on_the_module(monkeypatch):
    alg = fresh_cyclic_algebra()
    m = apply_F(alg, Indec(2, 2))
    kernels = []
    real_kernel = amod.ModMap.kernel

    def counting_kernel(self):
        kernels.append(self)
        return real_kernel(self)

    monkeypatch.setattr(amod.ModMap, "kernel", counting_kernel)
    for i in range(alg.n):
        euler_leq1(m, simple(alg, i + 1))
    minimal_projective_presentation(m)
    assert [k for k in kernels if k.tgt is m] == [m._cover.cover]
    assert m._syzygy[0].dims == tuple(
        p - d for p, d in zip(m._cover.cover.src.dims, m.dims)
    )


# -- the injective copresentation against a per-socle-vector solve ------------------


def _copresentation_per_socle_vector(m):
    """Reference (a, b): for every socle vector, the images of all Hom(M, I_v)
    basis maps are computed anew and the whole condition system is solved
    with coords_in_span."""
    alg = m.algebra
    if m.is_zero():
        return (0,) * alg.n, (0,) * alg.n
    soc = socle_basis(m)
    a = tuple(len(soc[v]) for v in range(alg.n))
    soc_data = amod._socle_generator_data(alg)
    env_summands, env_maps = [], []
    for v in range(alg.n):
        inj, gen = soc_data[v]
        hom_basis_v = hom_A_basis(m, inj)
        for r in range(len(soc[v])):
            conditions, rhs = [], []
            for w in range(alg.n):
                for r2, s2 in enumerate(soc[w]):
                    hit = w == v and r2 == r
                    images = [phi.mats[w].apply(s2) for phi in hom_basis_v]
                    for coord in range(inj.dims[w]):
                        conditions.append([img[coord] for img in images])
                        rhs.append(gen[coord] if hit else 0)
            sol = coords_in_span([list(c) for c in zip(*conditions)], rhs)
            assert sol is not None
            mats = [ExactMatrix.zero(inj.dims[w], m.dims[w]) for w in range(alg.n)]
            for cf, base in zip(sol, hom_basis_v):
                if cf:
                    mats = [acc.add(bm.scale(cf)) for acc, bm in zip(mats, base.mats)]
            env_summands.append(inj)
            env_maps.append(ModMap(m, inj, mats))
    e0 = direct_sum(env_summands)
    mats = []
    for w in range(alg.n):
        rows = [list(r) for comp in env_maps for r in comp.mats[w].rows]
        mats.append(ExactMatrix(rows, ncols=m.dims[w]) if rows else ExactMatrix.zero(0, m.dims[w]))
    emb = ModMap(m, e0, mats)
    assert emb.commutes() and emb.is_injective()
    cok, _ = emb.cokernel()
    soc_c = socle_basis(cok)
    return a, tuple(len(soc_c[v]) for v in range(alg.n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_injective_copresentation_equals_the_per_socle_vector_reference(n):
    tube = Tube(n)
    ts = enumerate_maximal_rigid(n, tube) if n <= 3 else tau_orbit_representatives(tube)
    compared = 0
    for t in ts:
        _, images = _functor_images(t)
        for m in images:
            assert injective_copresentation(m) == _copresentation_per_socle_vector(m), (
                t, m.provenance)
            compared += 1
    assert compared > len(ts)


# -- functor images and maps from the table of structure constants -------------


def test_functor_images_equal_the_composition_reference():
    tube = Tube(3)
    compared = 0
    for t in enumerate_maximal_rigid(3, tube):
        alg = build_endomorphism_algebra(t)
        for x in all_rigid_indecs(tube):
            if in_pr_T(t, x):
                assert apply_F(alg, x).mats == arrow_matrices_by_composition(alg, x), (t, x)
                compared += 1
    assert compared > 100


def _triangle_and_ar_maps(t, alg):
    """Every exchange-triangle approximation of t and every AR map between
    objects that t presents: the maps whose images ``verify`` reads."""
    tube = t.tube
    for k in range(1, tube.n + 1):
        data = mutate_rigid(t, k)
        if data.right_middle:
            yield stack_chom(tube, data.right_middle, data.right_maps, data.old, True)
        if data.left_middle:
            yield stack_chom(tube, data.left_middle, data.left_maps, data.old, False)
    for x in all_rigid_indecs(tube):
        middle = [tube.indec(x.a - 1, x.b + 1)] + ([tube.indec(x.a, x.b - 1)] if x.b > 1 else [])
        sigma_x = tube.tau(x)
        if all(in_pr_T(t, y) for y in middle + [x, sigma_x]):
            yield stack_chom(tube, middle, _irreducible_maps(tube, x, middle, True), x, True)
            yield stack_chom(tube, middle, _irreducible_maps(tube, sigma_x, middle, False),
                              sigma_x, False)


def test_map_F_equals_the_per_block_reference_on_every_triangle_and_ar_map():
    tube = Tube(3)
    compared = 0
    for t in enumerate_maximal_rigid(3, tube):
        alg = build_endomorphism_algebra(t)
        for g in _triangle_and_ar_maps(t, alg):
            got, want = map_F(alg, *map_F_args(g)), map_F_by_blocks(alg, g)
            assert got.src is want.src and got.tgt is want.tgt
            assert got.mats == want.mats, (t, g.src, g.tgt)
            compared += 1
    assert compared > 200


def test_map_F_of_a_translated_element_equals_the_per_block_reference(cyclic_algebra):
    # the Nakayama blocks of tau_A: maps between injectives with
    # shift-stratum components and non-unit coordinates
    alg = cyclic_algebra
    tube = alg.tube
    compared = 0
    for (u, v), dim in alg.block_dim.items():
        for k in range(dim):
            coords = tuple(2 if r == k else int(r < k) for r in range(dim))
            elem = chom_from_coords(tube, alg.t.summands[u], alg.t.summands[v], coords)
            g = tau_chom(tube, elem, 2)
            want = map_F_by_blocks(alg, g).mats
            assert map_F(alg, *map_F_args(g)).mats == want
            # tau_A's form: the element's own coordinates at the translates
            assert map_F(alg, g.src, g.tgt, {(0, 0): coords}).mats == want
            compared += 1
    assert compared == alg.dim


@pytest.mark.parametrize("n", [2, 3])
def test_hom_A_dim_is_the_length_of_the_basis(n):
    tube = Tube(n)
    compared = 0
    for t in enumerate_maximal_rigid(n, tube)[:6]:
        alg, images = _functor_images(t)
        mods = images + [simple(alg, i + 1) for i in range(alg.n)]
        for m in mods:
            for m2 in mods:
                assert hom_A_dim(m, m2) == len(hom_A_basis(m, m2))
                compared += 1
    assert compared > 100


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_functor_image_is_checked_once(monkeypatch):
    alg = fresh_cyclic_algebra()
    checks = _counting(monkeypatch, amod, "in_pr_T")
    x, y = Indec(2, 2), Indec(1, 2)
    m = apply_F(alg, x)
    assert len(checks) == 1
    assert apply_F(alg, (x,)) is m and apply_F(alg, (2, 2)) is m
    assert len(checks) == 1
    both = apply_F(alg, (x, y))
    assert len(checks) == 2  # y only; the sum is the direct sum of the two images
    assert both.same_data(direct_sum([m, apply_F(alg, y)]))
    assert apply_F(alg, (x, y)) is both and len(checks) == 2


def test_index_and_coindex_check_a_summand_tuple_once(monkeypatch):
    alg = fresh_cyclic_algebra()
    checks = _counting(monkeypatch, amod, "in_pr_T")
    x = (Indec(2, 2), Indec(1, 2))
    first = (index(alg, x), coindex(alg, x))
    made = len(checks)
    assert made > 0
    assert (index(alg, x), coindex(alg, x)) == first
    assert len(checks) == made


def test_a_failed_index_or_coindex_is_never_kept():
    alg = fresh_cyclic_algebra()
    bad = (Indec(2, 2), Indec(4, 4))
    for _ in range(2):
        with pytest.raises(DomainError):
            index(alg, bad)
        with pytest.raises(DomainError):
            coindex(alg, bad)
    assert not [key for key in alg._vectors if key[1] == bad]


def test_local_freeness_is_decided_once_per_module(monkeypatch):
    alg = fresh_cyclic_algebra()
    ranks = _counting(monkeypatch, amod, "mat_rank")
    m = apply_F(alg, Indec(2, 2))
    assert m.dims[0] % 2 == 0  # so the loop's rank decides
    assert [is_locally_free(m) for _ in range(3)] == [True] * 3
    assert len(ranks) == 1
