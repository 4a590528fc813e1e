import pytest

from clustertube.endo import (
    FinDimAlgebra,
    Quiver,
    b_matrix_from_quiver,
    build_endomorphism_algebra,
    gabriel_quiver,
    validate_Qn,
)
from clustertube.tube import (
    ConsistencyError,
    MaximalRigid,
    Tube,
    chom_coords,
    enumerate_maximal_rigid,
    unit_coords,
)
from endo_reference import structure_checksum


def test_local_endomorphism_dimensions(cyclic_algebra):
    assert cyclic_algebra.block_dim[(0, 0)] == 2
    assert cyclic_algebra.block_dim[(1, 1)] == 1
    assert cyclic_algebra.block_dim[(2, 2)] == 1


def test_loop_is_nilpotent(cyclic_algebra):
    rho = cyclic_algebra.loop_arrow()
    assert rho.src == rho.tgt == 1
    assert rho.rep.compose(rho.rep).is_zero()


def test_algebra_dimension_formula(cyclic_algebra, cyclic_t, tube3):
    expected = sum(
        tube3.hom_c_dim(a, b)
        for a in cyclic_t.summands
        for b in cyclic_t.summands
    )
    assert cyclic_algebra.dim == expected


def test_associativity_checked(cyclic_algebra, linear_algebra):
    cyclic_algebra.verify_associativity()
    linear_algebra.verify_associativity()


def _reference_three_cycles(algebra):
    """The triple loop over the arrows that finding the three-cycles once
    ran on every call."""
    cycles = []
    for a in algebra.arrows:
        for b in algebra.arrows:
            for c in algebra.arrows:
                if a.is_loop or b.is_loop or c.is_loop:
                    continue
                if (
                    a.tgt == b.src
                    and b.tgt == c.src
                    and c.tgt == a.src
                    and len({a.src, b.src, c.src}) == 3
                    and a.idx <= b.idx
                    and a.idx <= c.idx
                ):
                    cycles.append((a, b, c))
    return cycles


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stored_relations_equal_the_triple_loop(n):
    for t in enumerate_maximal_rigid(n):
        algebra = build_endomorphism_algebra(t)
        cycles = _reference_three_cycles(algebra)
        assert algebra._three_cycles == cycles
        loop = algebra.loop_arrow()
        expected = [(loop, loop)] + [p for a, b, c in cycles for p in ((a, b), (b, c), (c, a))]
        assert algebra.relation_pairs() == expected
        assert algebra.relation_pairs() is algebra.relation_pairs()


def test_relations_hold(cyclic_algebra):
    cyclic_algebra.verify_relations()
    # the cyclic example has a genuine three-cycle worth of relations
    assert len(cyclic_algebra.relation_pairs()) == 4


def test_linear_quiver_shape(linear_algebra):
    q = gabriel_quiver(linear_algebra)
    assert sorted(q.arrows) == [(1, 1), (2, 1), (3, 2)]
    assert validate_Qn(q)


def test_cyclic_quiver_shape(cyclic_algebra):
    q = gabriel_quiver(cyclic_algebra)
    assert sorted(q.arrows) == [(1, 1), (1, 2), (2, 3), (3, 1)]
    assert validate_Qn(q)


def test_radical_is_an_ideal(cyclic_algebra):
    alg = cyclic_algebra
    n = alg.n
    rad = {
        (i, j): set(alg.radical_indices(i, j)) for i in range(n) for j in range(n)
    }
    for (i, j), rads in rad.items():
        for u in rads:
            for k in range(n):
                for off in range(alg.block_dim[(k, i)]):
                    v = alg.block_offset[(k, i)] + off
                    # a composite with a radical factor stays radical: it is
                    # never the identity of a local block
                    if k == j:
                        assert alg.mult[(u, v)] != alg.identity_pos[k]
                for off in range(alg.block_dim[(j, k)]):
                    w = alg.block_offset[(j, k)] + off
                    if k == i:
                        assert alg.mult[(w, u)] != alg.identity_pos[k]


def test_unique_loop_across_small_ranks():
    for n in (2, 3):
        for t in enumerate_maximal_rigid(n):
            algebra = build_endomorphism_algebra(t)
            q = gabriel_quiver(algebra)
            assert len(q.loops()) == 1
            assert q.loops()[0] == (1, 1)
            assert validate_Qn(q)


def test_double_cycle_shape_is_fully_consistent():
    # the most intricate admissible shape: a vertex on two oriented
    # three-cycles; full associativity and relations must hold there
    from clustertube.tube import Indec, MaximalRigid, Tube

    tube = Tube(5)
    t = MaximalRigid(
        tube, (Indec(1, 5), Indec(1, 1), Indec(1, 3), Indec(3, 1), Indec(5, 1))
    )
    algebra = build_endomorphism_algebra(t)
    q = gabriel_quiver(algebra)
    assert any(len(q.neighbors(v)) == 4 for v in range(1, 6))
    assert validate_Qn(q)
    algebra.verify_associativity()
    algebra.verify_relations()


def test_validate_rejects_two_loops():
    assert not validate_Qn(Quiver(3, [(1, 1), (2, 2), (1, 2)]))


def test_validate_rejects_two_cycle():
    assert not validate_Qn(Quiver(2, [(1, 1), (1, 2), (2, 1)]))


def test_validate_rejects_long_unchorded_cycle():
    # an oriented four-cycle with the loop: minimal but too long
    assert not validate_Qn(
        Quiver(4, [(1, 1), (1, 2), (2, 3), (3, 4), (4, 1)])
    )


def test_b_matrix_from_quiver_doubles_loop_column(cyclic_algebra):
    assert b_matrix_from_quiver(cyclic_algebra) == (
        (0, 1, -1),
        (-2, 0, 1),
        (2, -1, 0),
    )


def test_structure_checksum_is_stable(cyclic_t):
    a1 = build_endomorphism_algebra(cyclic_t)
    a2 = build_endomorphism_algebra(cyclic_t)
    assert structure_checksum(a1) == structure_checksum(a2)


# -- products read from the tube's table of structure constants ----------------


def _composite_coords(algebra, path):
    """Coordinates of the composite of the arrows of ``path``, first arrow
    first, by composing the morphisms themselves."""
    value = algebra.arrows[path[0]].rep
    for idx in path[1:]:
        value = algebra.arrows[idx].rep.compose(value)
    return chom_coords(algebra.tube, value)


@pytest.mark.parametrize("n", [2, 3])
def test_relations_and_paths_read_from_the_table_equal_composites(n):
    for t in enumerate_maximal_rigid(n):
        algebra = build_endomorphism_algebra(t)
        for first, second in algebra.relation_pairs():
            assert algebra.mult[(second.pos, first.pos)] is None
            assert not any(_composite_coords(algebra, (first.idx, second.idx)))
        # each recorded path, composed as morphisms, lands on its position;
        # only the identity of a diagonal block has no path
        for (i, j), labels in algebra.paths.items():
            assert len(labels) == algebra.block_dim[(i, j)]
            for k, label in enumerate(labels):
                if label is None:
                    assert i == j and k == algebra.identity_pos[i]
                else:
                    assert _composite_coords(algebra, label) == unit_coords(k, len(labels))


def test_a_position_that_no_path_reaches_fails_the_build(cyclic_t, monkeypatch):
    # without its last arrow the algebra has a radical position outside
    # rad^2 that no path of the remaining arrows reaches
    real = FinDimAlgebra._choose_arrows

    def dropping_the_last_arrow(self):
        real(self)
        self.arrows.pop()

    build_endomorphism_algebra(cyclic_t)
    monkeypatch.setattr(FinDimAlgebra, "_choose_arrows", dropping_the_last_arrow)
    with pytest.raises(ConsistencyError, match="paths do not span"):
        build_endomorphism_algebra(cyclic_t)


def test_a_forged_structure_constant_fails_associativity(cyclic_t):
    # on a new tube, End(T) fills the table with its own products only; find
    # a nonzero one, then build End(T) again on a tube whose table holds a
    # wrong value for it
    def on_new_tube():
        return MaximalRigid(Tube(cyclic_t.tube.n), cyclic_t.summands)

    clean = build_endomorphism_algebra(on_new_tube())
    clean.verify_associativity()
    clean.verify_relations()
    # a product that lands in a block of dimension two or more, moved to
    # another position of that block
    tube = clean.tube
    key, right = next((k, v) for k, v in tube._product_cache.items()
                      if v is not None and tube.hom_c_dim(k[0], k[2]) > 1)
    t = on_new_tube()
    t.tube._product_cache[key] = (right + 1) % tube.hom_c_dim(key[0], key[2])
    forged = build_endomorphism_algebra(t)
    assert forged.mult != clean.mult
    with pytest.raises(ConsistencyError, match="multiplication table is wrong"):
        forged.verify_associativity()


def test_the_loop_is_found_once(cyclic_algebra):
    assert cyclic_algebra.loop_arrow() is cyclic_algebra.loop_arrow()
    assert cyclic_algebra.loop_arrow().is_loop
