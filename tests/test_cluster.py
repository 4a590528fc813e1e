from collections import deque
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from clustertube import cluster
from clustertube.cluster import (
    ClusterError,
    ExchangeMatrix,
    NotFiniteTypeError,
    Seed,
    cartan_counterpart,
    enumerate_atlas,
    mutate_matrix,
    mutate_seed,
)
from clustertube.laurent import LaurentPoly, lp_div_exact
from clustertube.tube import Indec, MaximalRigid, Tube, b_matrix, enumerate_maximal_rigid

B_RANK_TWO = ExchangeMatrix([[0, 1], [-2, 0]])
B_CYCLIC = ExchangeMatrix([[0, 1, -1], [-2, 0, 1], [2, -1, 0]])


def stack_b_matrix(n):
    """The exchange matrix of the stack object (1,n),(1,n-1),...,(1,1)."""
    return b_matrix(MaximalRigid(Tube(n), tuple(Indec(1, b) for b in range(n, 0, -1))))


ATLAS_MATRICES = {
    "rank2": lambda: B_RANK_TWO,
    "cyclic3": lambda: B_CYCLIC,
    "stack4": lambda: stack_b_matrix(4),
}


def reference_mutation(b, k):
    """Independent transcription of the mutation rule, for cross-checking."""
    n = len(b)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == k or j == k:
                out[i][j] = -b[i][j]
            else:
                sgn = 0 if b[i][k] == 0 else (1 if b[i][k] > 0 else -1)
                out[i][j] = b[i][j] + sgn * max(b[i][k] * b[k][j], 0)
    return tuple(tuple(r) for r in out)


def test_matrix_mutation_involutive():
    assert mutate_matrix(mutate_matrix(B_CYCLIC, 2), 2) == B_CYCLIC


def test_matrix_mutation_negates_row_and_column():
    out = mutate_matrix(B_CYCLIC, 1)
    for j in range(3):
        assert out.b[0][j] == -B_CYCLIC.b[0][j]
        assert out.b[j][0] == -B_CYCLIC.b[j][0]


def test_matrix_mutation_against_transcribed_rule():
    for k in (1, 2, 3):
        assert mutate_matrix(B_CYCLIC, k).b == reference_mutation(B_CYCLIC.b, k - 1)
    # frozen regression for direction 1: this seed is symmetric enough that
    # the mutation flips the sign of the whole matrix
    assert mutate_matrix(B_CYCLIC, 1).b == ((0, -1, 1), (2, 0, -1), (-2, 1, 0))


def test_matrix_mutation_rejects_bad_direction():
    with pytest.raises(ClusterError):
        mutate_matrix(B_CYCLIC, 0)


def test_mutation_keeps_its_sign_skew_check():
    with pytest.raises(ClusterError, match="sign-skew"):
        ExchangeMatrix([[0, 1], [1, 0]])
    # sign-skew-symmetric but not skew-symmetrizable: the constructor accepts
    # it, and mutation in direction 1 leaves the sign-skew-symmetric matrices
    b = ExchangeMatrix([[0, -2, 1], [1, 0, -2], [-2, 1, 0]])
    with pytest.raises(ClusterError, match="sign-skew"):
        mutate_matrix(b, 1)
    m = B_CYCLIC
    for k in (1, 2, 3):
        m = mutate_matrix(m, k)
        assert m == ExchangeMatrix(m.b)


@st.composite
def sign_skew_matrices(draw):
    """Sign-skew-symmetric integer matrices of rank at most 5, entries in -3..3."""
    n = draw(st.integers(min_value=1, max_value=5))
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = draw(st.integers(min_value=-3, max_value=3))
            y = draw(st.integers(min_value=1, max_value=3)) if x else 0
            b[i][j], b[j][i] = x, -y if x > 0 else y
    return b


@given(sign_skew_matrices())
@example([[0, -2, 1], [1, 0, -2], [-2, 1, 0]])
@settings(max_examples=200, deadline=None)
def test_mutation_checks_sign_skew_exactly_when_the_full_check_fails(b):
    # mutate_matrix reads only the pairs it changed
    B = ExchangeMatrix(b)
    for k in range(1, B.n + 1):
        full = reference_mutation(B.b, k - 1)
        try:
            cluster._check_sign_skew(full)
        except ClusterError:
            with pytest.raises(ClusterError, match="sign-skew"):
                mutate_matrix(B, k)
        else:
            assert mutate_matrix(B, k).b == full


def test_seed_mutation_known_directions():
    seed = Seed.initial(B_CYCLIC)
    x1, x2, x3 = seed.cluster
    out2 = mutate_seed(seed, 2)
    assert out2.cluster[1] * x2 == x1 + x3
    out3 = mutate_seed(seed, 3)
    assert out3.cluster[2] * x3 == x1 + x2


def test_seed_mutation_off_pattern_rejected():
    x1 = LaurentPoly.variable(2, 1)
    x2 = LaurentPoly.variable(2, 2)
    bad = Seed(ExchangeMatrix([[0, 1], [-2, 0]]), [x1 + x2, x2])
    with pytest.raises(ClusterError, match="not on a cluster pattern"):
        mutate_seed(bad, 1)


def test_seed_mutation_involutive():
    seed = Seed.initial(B_CYCLIC)
    assert mutate_seed(mutate_seed(seed, 1), 1) == seed


def test_atlas_rank_two_type_c():
    atlas = enumerate_atlas(B_RANK_TWO)
    assert len(atlas.variables) == 6
    assert len(atlas.seeds) == 6


def reference_key(seed):
    """The seed's key with the permuted matrix built entry by entry."""
    texts, b = seed.texts, seed.matrix.b
    order = sorted(range(len(texts)), key=texts.__getitem__)
    return (tuple(tuple(b[i][j] for j in order) for i in order),
            tuple(texts[i] for i in order))


SMALL_RANK_ATLASES = {
    "rank1": (lambda: ExchangeMatrix([[0]]), 2, 2),
    "rank2_type_a": (lambda: ExchangeMatrix([[0, 1], [-1, 0]]), 5, 5),
    "rank2_type_c": (lambda: B_RANK_TWO, 6, 6),
}


@pytest.mark.parametrize("name", sorted(SMALL_RANK_ATLASES))
def test_small_rank_atlases(name):
    make, n_seeds, n_variables = SMALL_RANK_ATLASES[name]
    B = make()
    atlas = enumerate_atlas(B)
    assert (len(atlas.seeds), len(atlas.variables)) == (n_seeds, n_variables)
    keys, edges, texts = reference_atlas(B)
    assert [s.key() for s in atlas.seeds] == keys
    assert atlas.edges == edges and atlas.variable_texts() == texts
    for seed in atlas.seeds:
        for k in range(1, B.n + 1):
            mutated = mutate_seed(seed, k)
            assert mutated.key() == reference_key(mutated)
            assert mutated.canonical().key() == mutated.key()


def test_a_rank_one_seed_is_its_own_canonical_form():
    seed = Seed.initial(ExchangeMatrix([[0]]))
    assert seed.canonical() is seed
    assert seed.key() == (((0,),), seed.texts)
    mutated = mutate_seed(seed, 1)
    assert mutated.canonical() is mutated
    assert mutated.key() == (((0,),), mutated.texts) != seed.key()


def test_seed_mutation_keeps_the_distinctness_check():
    # x_2' = (1 + 1) / x_2 = 2/x_2 coincides with x_1 = 2/x_2 here
    x2 = LaurentPoly.variable(2, 2)
    x1 = lp_div_exact(LaurentPoly.one(2) + LaurentPoly.one(2), x2)
    seed = Seed(ExchangeMatrix([[0, 0], [0, 0]]), [x1, x2])
    with pytest.raises(ClusterError, match="pairwise distinct"):
        mutate_seed(seed, 2)


def test_atlas_cyclic_seed_counts(tube3):
    atlas = enumerate_atlas(B_CYCLIC)
    assert len(atlas.variables) == 12
    assert len(atlas.seeds) == len(enumerate_maximal_rigid(3, tube3))


def test_atlas_variables_are_laurent():
    atlas = enumerate_atlas(B_CYCLIC)
    for v in atlas.variables:
        assert isinstance(v, LaurentPoly)
        assert all(isinstance(c, int) for c in v.terms.values())


def test_atlas_cap():
    with pytest.raises(NotFiniteTypeError, match="not finite type within cap"):
        enumerate_atlas(B_CYCLIC, cap=3)


def test_cartan_counterpart_values():
    assert cartan_counterpart(ExchangeMatrix([[0, 0], [0, 0]])) == ((2, 0), (0, 2))
    assert cartan_counterpart(ExchangeMatrix([[0, 1], [-2, 0]])) == ((2, -1), (-2, 2))
    assert cartan_counterpart(B_CYCLIC) == ((2, -1, -1), (-2, 2, -1), (-2, -1, 2))


def type_c_cartan(n):
    """The type-C Cartan matrix in the labelling used here.

    Vertex 1 is the long (weight two) vertex, followed by the simply laced
    chain; concretely the doubled entry sits at position (2, 1).
    """
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    for i in range(n - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    a[1][0] = -2
    return a


def matrices_equal_up_to_permutation(a, b):
    n = len(a)
    return len(b) == n and any(
        all(a[i][j] == b[perm[i]][perm[j]] for i in range(n) for j in range(n))
        for perm in permutations(range(n))
    )


def test_atlas_contains_type_c_vertex():
    atlas = enumerate_atlas(B_CYCLIC)
    target = type_c_cartan(3)
    assert any(
        matrices_equal_up_to_permutation(cartan_counterpart(s.matrix), target)
        for s in atlas.seeds
    )


def test_mutation_involutive_over_full_atlas():
    for make in ATLAS_MATRICES.values():
        B = make()
        atlas = enumerate_atlas(B)
        for seed in atlas.seeds:
            for k in range(1, B.n + 1):
                assert mutate_seed(mutate_seed(seed, k), k) == seed
                assert mutate_matrix(mutate_matrix(seed.matrix, k), k) == seed.matrix


@pytest.mark.parametrize("name", sorted(ATLAS_MATRICES))
def test_atlas_computes_each_exchange_once(name, monkeypatch):
    B = ATLAS_MATRICES[name]()
    computed = []

    def counting_mutate_seed(seed, k, known=None, relations=None):
        computed.append(k)
        return mutate_seed(seed, k, known=known, relations=relations)

    monkeypatch.setattr(cluster, "mutate_seed", counting_mutate_seed)
    atlas = enumerate_atlas(B)
    seeds, n = atlas.seeds, B.n
    assert len(atlas.edges) == n * len(seeds)
    assert 2 * len(computed) == n * len(seeds)
    # every edge, recomputed independently in both directions
    edges = set(atlas.edges)
    assert len(edges) == len(atlas.edges)
    for i, k, j in atlas.edges:
        assert mutate_seed(seeds[i], k) == seeds[j]
        new_var = next(p for p in seeds[j].cluster if p not in seeds[i].cluster)
        k_back = seeds[j].cluster.index(new_var) + 1
        assert mutate_seed(seeds[j], k_back) == seeds[i]
        assert (j, k_back, i) in edges


def _count_divisions(monkeypatch):
    divisions = []

    def counting_div(p, q):
        divisions.append(q)
        return lp_div_exact(p, q)

    monkeypatch.setattr(cluster, "lp_div_exact", counting_div)
    return divisions


DIVISION_MATRICES = {**ATLAS_MATRICES, "stack5": lambda: stack_b_matrix(5)}


@pytest.mark.parametrize("name", sorted(DIVISION_MATRICES))
def test_atlas_divides_once_per_new_variable(name, monkeypatch):
    B = DIVISION_MATRICES[name]()
    divisions = _count_divisions(monkeypatch)
    atlas = enumerate_atlas(B)
    assert len(divisions) == len(atlas.variables) - B.n
    # every seed holds the very objects of atlas.variables: one per variable
    objects = {id(v): v for v in atlas.variables}
    in_seeds = set()
    for seed in atlas.seeds:
        for p in seed.cluster:
            assert objects.get(id(p)) is p
            in_seeds.add(id(p))
    assert in_seeds == set(objects)


def test_a_forged_table_entry_is_checked_not_trusted(monkeypatch):
    seed = Seed.initial(B_CYCLIC)
    expected = mutate_seed(seed, 2)
    true_var = expected.cluster[1]
    lo, hi = cluster._ends(true_var)
    terms = true_var.ordered_terms()
    low_exp = terms[0][0]
    between = low_exp[:-1] + (low_exp[-1] + 1,)
    assert low_exp < between < terms[-1][0]
    forged = true_var + LaurentPoly.monomial(3, between)
    assert forged != true_var and cluster._ends(forged) == (lo, hi)
    known = {(lo, hi): forged}
    divisions = _count_divisions(monkeypatch)
    out = mutate_seed(seed, 2, known=known)
    assert out == expected and out.cluster == expected.cluster
    assert all(p is not forged for p in out.cluster)
    assert len(divisions) == 1
    assert known == {(lo, hi): true_var} and known[(lo, hi)] is out.cluster[1]


def _binomial(seed, k):
    """The exchange binomial of the seed in direction k, built without
    ``cluster._product``."""
    one = LaurentPoly.one(seed.cluster[0].nvars)
    column = [row[k - 1] for row in seed.matrix.b]
    pos, neg = one, one
    for p, e in zip(seed.cluster, column):
        if e > 0:
            pos = pos * p ** e
        elif e < 0:
            neg = neg * p ** -e
    return pos + neg


def _relations_of(atlas):
    """The distinct exchange relations {x, x'} with their binomial, read off
    the atlas's edges."""
    relations = set()
    for i, k, j in atlas.edges:
        seed = atlas.seeds[i]
        x = seed.cluster[k - 1]
        x_new = next(p for p in atlas.seeds[j].cluster if p not in seed.cluster)
        binomial = _binomial(seed, k)
        assert x * x_new == binomial
        texts = frozenset((x.canonical_text(), x_new.canonical_text()))
        relations.add((texts, binomial.canonical_text()))
    return relations


@pytest.mark.parametrize("name", sorted(DIVISION_MATRICES))
def test_atlas_checks_each_exchange_relation_once(name, monkeypatch):
    B = DIVISION_MATRICES[name]()
    relations = _relations_of(enumerate_atlas(B))
    products = []
    product = cluster._product

    def counting_product(factors, nvars):
        products.append(len(factors))
        return product(factors, nvars)

    monkeypatch.setattr(cluster, "_product", counting_product)
    atlas = enumerate_atlas(B)
    # each binomial is built from two products, once per exchange relation
    assert len(products) == 2 * len(relations)
    if name == "stack5":
        assert (len(relations), len(atlas.edges) // 2) == (135, 630)


def test_a_failed_product_check_raises_and_stores_nothing(monkeypatch):
    def wrong_div(p, q):
        return lp_div_exact(p, q) + LaurentPoly.one(q.nvars)

    monkeypatch.setattr(cluster, "lp_div_exact", wrong_div)
    known, relations = {}, {}
    with pytest.raises(ClusterError, match="not on a cluster pattern"):
        mutate_seed(Seed.initial(B_CYCLIC), 2, known=known, relations=relations)
    assert known == {} and relations == {}
    with pytest.raises(ClusterError, match="not on a cluster pattern"):
        enumerate_atlas(B_CYCLIC)


def test_every_stored_relation_is_a_proved_identity():
    B = ATLAS_MATRICES["stack4"]()
    atlas = enumerate_atlas(B)
    relations = {}
    for i, k, j in atlas.edges:
        assert mutate_seed(atlas.seeds[i], k, relations=relations) == atlas.seeds[j]
    # every relation is stored both ways
    assert len(relations) == 2 * len(_relations_of(atlas))
    by_text = {v.canonical_text(): v for v in atlas.variables}
    one = LaurentPoly.one(B.n)
    for (x_text, monomials), x_new in relations.items():
        binomial = LaurentPoly.zero(B.n)
        for monomial in monomials:
            term = one
            for text, e in monomial:
                term = term * by_text[text] ** e
            binomial = binomial + term
        assert x_new * by_text[x_text] == binomial


def reference_atlas(B):
    """Breadth-first search with table-free mutations, in the atlas's order:
    the seed keys in discovery order and the edges."""
    initial = Seed.initial(B).canonical()
    keys = [initial.key()]
    index = {keys[0]: 0}
    seeds, edges = [initial], []
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for k in range(1, B.n + 1):
            mutated = mutate_seed(seeds[i], k).canonical()
            key = mutated.key()
            if key not in index:
                index[key] = len(seeds)
                seeds.append(mutated)
                keys.append(key)
                queue.append(index[key])
            edges.append((i, k, index[key]))
    return keys, edges, sorted({t for key in keys for t in key[1]})


@lru_cache(maxsize=None)
def _maximal_rigid(n):
    return enumerate_maximal_rigid(n, Tube(n))


@st.composite
def maximal_rigid_objects(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    ts = _maximal_rigid(n)
    return ts[draw(st.integers(min_value=0, max_value=len(ts) - 1))]


@given(maximal_rigid_objects())
@settings(max_examples=12, deadline=None)
def test_atlas_equals_a_table_free_search(t):
    B = b_matrix(t)
    atlas = enumerate_atlas(B)
    keys, edges, texts = reference_atlas(B)
    assert [s.key() for s in atlas.seeds] == keys
    assert atlas.edges == edges
    assert atlas.variable_texts() == texts


def _same_as_public(m):
    public = ExchangeMatrix(m.b)
    return (m == public and hash(m) == hash(public) and m.n == public.n
            and all(type(x) is int for row in m.b for x in row))


def test_permuted_matrices_equal_the_public_constructor_across_the_atlas():
    B = ATLAS_MATRICES["stack4"]()
    atlas = enumerate_atlas(B)
    permuted = 0
    for seed in atlas.seeds:
        assert _same_as_public(seed.matrix)
        for k in range(1, B.n + 1):
            mutated = mutate_seed(seed, k)
            assert mutated.matrix.b == reference_mutation(seed.matrix.b, k - 1)
            assert _same_as_public(mutated.matrix)
            canonical = mutated.canonical()
            assert _same_as_public(canonical.matrix)
            assert canonical.key() == mutated.key()
            permuted += canonical is not mutated
    assert permuted > 0
