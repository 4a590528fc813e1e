import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from clustertube.amod import DomainError, apply_F, direct_sum, is_tau_rigid, rank_vector
from clustertube.endo import build_endomorphism_algebra
from clustertube.grassmann import (
    OracleError,
    ar_sequences_ending_at_tau_rigid,
    chi_lf,
    chi_lf_oracle_fq,
    chi_table,
    verify_ar_recursion,
    _in_rowspace,
    _point_data,
    _mod_rank,
    _subset_counts,
    _subspaces,
)
from clustertube.strings import (
    Letter,
    StringBasis,
    StringWord,
    _letter_source,
    _word_action_edges,
    is_valid_string,
    string_module,
    string_normal_form,
    word_vertices,
)
from clustertube.tube import Indec, MaximalRigid, Tube, all_rigid_indecs, enumerate_maximal_rigid
from grassmann_reference import subset_counts_by_masks
from strings_reference import conjugate, enumerate_strings


def gaussian_binomial(m, d, q):
    num = den = 1
    for i in range(d):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_subspace_enumeration_counts():
    for m, d, q in ((3, 1, 2), (4, 2, 3), (3, 2, 5)):
        spaces = list(_subspaces(d, m, q))
        assert len(spaces) == gaussian_binomial(m, d, q)
        assert len({tuple(map(tuple, s)) for s in spaces}) == len(spaces)


def _in_rowspace_by_rank(rows, vec, p):
    """The rank comparison ``_in_rowspace`` made before, kept as the reference."""
    if not any(x % p for x in vec):
        return True
    if not rows:
        return False
    return _mod_rank(rows + [vec], p) == _mod_rank(rows, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_in_rowspace_equals_the_rank_test(p):
    rng = random.Random(p)
    outcomes = set()
    for ambient in range(1, 6):
        for dim in range(ambient + 1):
            spaces = list(_subspaces(dim, ambient, p))
            for rows in rng.sample(spaces, min(len(spaces), 10)):
                vecs = [[rng.randrange(p) for _ in range(ambient)] for _ in range(5)]
                # combinations of the rows, which lie in their span
                vecs += [[sum(rng.randrange(p) * row[c] for row in rows) % p for c in range(ambient)]
                         for _ in range(3)]
                for vec in vecs:
                    inside = _in_rowspace(rows, vec, p)
                    assert inside == _in_rowspace_by_rank(rows, vec, p), (rows, vec)
                    outcomes.add(inside)
    assert outcomes == {True, False}


def test_chi_boundary_values(cyclic_algebra):
    for x in (Indec(1, 3), Indec(3, 1), Indec(2, 2)):
        m = apply_F(cyclic_algebra, x)
        r = rank_vector(m)
        assert chi_lf(m, (0,) * 3) == 1
        assert chi_lf(m, r) == 1


def test_reference_tables(cyclic_algebra):
    thick = chi_table(apply_F(cyclic_algebra, Indec(1, 3)))
    assert thick.entries == {
        (0, 0, 0): 1,
        (0, 0, 1): 2,
        (0, 0, 2): 1,
        (1, 0, 2): 1,
    }
    wide = chi_table(apply_F(cyclic_algebra, Indec(3, 3)))
    assert sorted(wide.entries.values()) == [1, 1, 1, 2]
    middle = chi_table(apply_F(cyclic_algebra, Indec(2, 2)))
    assert list(middle.entries.values()) == [1, 1, 1]


def test_oracle_trivial_and_negative_inputs(cyclic_algebra):
    m = apply_F(cyclic_algebra, Indec(2, 2))
    assert chi_lf_oracle_fq(m, (0, 0, 0)) == 1
    assert chi_lf_oracle_fq(m, (2, 0, 0)) == 0  # beyond the dimension vector
    with pytest.raises(Exception):
        chi_lf(m, (-1, 0, 0))


def test_oracle_needs_enough_primes(monkeypatch):
    from clustertube import grassmann

    # a new tube, so that no verdict of this module is in its memo yet
    alg, _ = _translated_algebras()
    m = apply_F(alg, Indec(1, 3))
    monkeypatch.setattr(grassmann, "_first_primes", lambda k: [2])
    with pytest.raises(OracleError, match="primes"):
        chi_lf_oracle_fq(m, (0, 0, 1))


def test_oracle_matches_direct_count_on_reference_module(cyclic_algebra):
    m = apply_F(cyclic_algebra, Indec(3, 1))  # the rank (1,1,1) module
    r = rank_vector(m)
    for e in itertools.product(*[range(x + 1) for x in r]):
        assert chi_lf(m, e) == chi_lf_oracle_fq(m, e)


def test_multiplicativity_on_direct_sums(tube2):
    t = MaximalRigid(tube2, (Indec(1, 2), Indec(1, 1)))
    algebra = build_endomorphism_algebra(t)
    a = apply_F(algebra, Indec(2, 2))
    b = apply_F(algebra, Indec(1, 1))
    s = direct_sum([a, b])
    ta, tb, ts = chi_table(a), chi_table(b), chi_table(s)
    for g, chi in ts.entries.items():
        total = 0
        for e in itertools.product(*[range(x + 1) for x in g]):
            f = tuple(gg - ee for gg, ee in zip(g, e))
            total += ta.entries.get(e, 0) * tb.entries.get(f, 0)
        assert chi == total
    # and the finite-field oracle sees the same numbers on the sum
    for g in ts.entries:
        assert chi_lf_oracle_fq(s, g) == ts.entries[g]


def test_chi_requires_locally_free(cyclic_algebra):
    from clustertube.amod import simple

    with pytest.raises(Exception):
        chi_lf(simple(cyclic_algebra, 1), (0, 0, 0))


def test_table_unchanged_by_zero_summand(cyclic_algebra):
    from clustertube.amod import zero_module

    m = apply_F(cyclic_algebra, Indec(2, 2))
    s = direct_sum([m, zero_module(cyclic_algebra)])
    assert chi_table(s).entries == chi_table(m).entries


def test_oracle_on_rank_three_direct_sum(cyclic_algebra):
    s = direct_sum(
        [apply_F(cyclic_algebra, Indec(2, 2)), apply_F(cyclic_algebra, Indec(1, 1))]
    )
    tab = chi_table(s)
    for e in tab.entries:
        assert chi_lf_oracle_fq(s, e) == tab.entries[e]


def test_ar_recursion_on_reference_algebra(cyclic_algebra):
    count = 0
    for l_mod, m_mod, n_mod, end in ar_sequences_ending_at_tau_rigid(cyclic_algebra):
        assert verify_ar_recursion(l_mod, m_mod, n_mod)
        count += 1
    assert count > 0


def test_ar_recursion_along_the_long_row():
    # the sequences linking neighbouring length-n images, in two ranks
    for n in (3, 4):
        tube = Tube(n)
        t = MaximalRigid(tube, tuple(Indec(1, b) for b in range(n, 0, -1)))
        algebra = build_endomorphism_algebra(t)
        for c in range(2, n):
            l_mod = apply_F(algebra, Indec(c, n))
            m_mod = direct_sum(
                [
                    apply_F(algebra, Indec(c + 1, n - 1)),
                    apply_F(algebra, Indec(c, n + 1)),
                ]
            )
            n_mod = apply_F(algebra, Indec(c + 1, n))
            assert verify_ar_recursion(l_mod, m_mod, n_mod)


def test_recursion_degenerate_zero_rank(cyclic_algebra):
    for l_mod, m_mod, n_mod, _ in ar_sequences_ending_at_tau_rigid(cyclic_algebra):
        zero = (0, 0, 0)
        lhs = chi_lf(m_mod, zero)
        assert lhs == 1
        break


def test_chi_equality_across_the_boundary(linear_algebra, tube3):
    # the functor images over and under the rim have identical chi tables
    for i in (1, 2):
        over = chi_table(apply_F(linear_algebra, Indec(i, 4)))
        under = chi_table(apply_F(linear_algebra, tube3.indec(i + 1, 2)))
        assert over.entries == under.entries


def test_nine_of_the_fifteen_string_modules_are_tau_rigid(cyclic_algebra):
    # the known picture of the cyclic algebra: every indecomposable is a
    # string module, nine tau-rigid and six others, by dimension vector
    modules = [string_module(cyclic_algebra, w) for w in enumerate_strings(cyclic_algebra)]
    assert len(modules) == 15
    marked = sorted(tuple(m.dims) for m in modules if is_tau_rigid(m))
    unmarked = sorted(tuple(m.dims) for m in modules if not is_tau_rigid(m))
    assert marked == [
        (0, 0, 1), (0, 1, 0), (0, 1, 1), (2, 0, 0), (2, 0, 1),
        (2, 0, 2), (2, 1, 0), (2, 1, 1), (2, 2, 0),
    ]
    assert unmarked == [
        (1, 0, 0), (1, 0, 1), (1, 1, 0), (2, 0, 1), (2, 1, 0), (2, 1, 1),
    ]


# -- string data is computed once per module ---------------------------------------


def test_each_image_is_normalised_once_through_the_suite(monkeypatch):
    from clustertube import grassmann, verify

    seen = []  # the modules themselves, so that no id can be reused
    normal_form = grassmann.string_normal_form

    def recording_normal_form(m):
        assert all(m is not other for other in seen), m.provenance
        seen.append(m)
        return normal_form(m)

    monkeypatch.setattr(grassmann, "string_normal_form", recording_normal_form)
    # one worker: the record sees only this process
    assert verify.run_suite(3, oracle=True, workers=1).ok
    assert len(seen) > 0
    assert all(m.provenance is not None and len(m.provenance) == 1 for m in seen)


def test_a_module_without_provenance_gets_its_own_string_data(cyclic_algebra, monkeypatch):
    from clustertube import grassmann

    normal_form = grassmann.string_normal_form
    calls = []

    def counting_normal_form(m):
        calls.append(m)
        return normal_form(m)

    monkeypatch.setattr(grassmann, "string_normal_form", counting_normal_form)
    words = [w for w in enumerate_strings(cyclic_algebra) if len(w.letters) >= 2]
    for word in words[:4]:
        m = string_module(cyclic_algebra, word)
        assert m.provenance is None
        assert grassmann._indec_summands(m) == [m]
        assert grassmann._string_data(m)[0].word == word
        expected = subset_counts_by_masks(cyclic_algebra, normal_form(m))
        assert grassmann._string_data(m)[1] == expected
        # the chi table of m halves its own profile counts at the loop vertex
        lv = cyclic_algebra.loop_arrow().src - 1
        halved = {tuple(d // 2 if v == lv else d for v, d in enumerate(profile)): c
                  for profile, c in expected.items()}
        assert chi_table(m).entries == dict(sorted(halved.items()))
        assert grassmann._string_data(m)[1] == expected
        assert calls == [m]
        del calls[:]


def test_chi_table_equals_the_mask_count_over_fresh_forms():
    from clustertube.grassmann import _convolve
    from clustertube.strings import string_normal_form
    from clustertube.tube import all_rigid_indecs, enumerate_maximal_rigid, in_pr_T

    tube = Tube(3)
    compared = 0
    for t in enumerate_maximal_rigid(3, tube):
        alg = build_endomorphism_algebra(t)
        lv = alg.loop_arrow().src - 1
        for x in all_rigid_indecs(tube):
            if not in_pr_T(t, x) or apply_F(alg, x).is_zero():
                continue
            m = apply_F(alg, x)
            table = chi_table(m)
            counts = {(0,) * alg.n: 1}
            for y in m.provenance:
                piece = apply_F(alg, y)
                counts = _convolve(counts, subset_counts_by_masks(alg, string_normal_form(piece)))
            direct = {}
            for profile, c in counts.items():
                e = tuple(d // 2 if v == lv else d for v, d in enumerate(profile))
                direct[e] = direct.get(e, 0) + c
            assert table.entries == dict(sorted(direct.items())), (t, x)
            compared += 1
    assert compared > 100


# -- the one-pass count against the masks -------------------------------------------


def _word_basis(algebra, word):
    """The string basis of a word as ``_subset_counts`` reads it: the
    vertices and action edges of its positions, in the word's own order."""
    return StringBasis(word, tuple(word_vertices(algebra, word)), _word_action_edges(word),
                       None, None)


@pytest.mark.parametrize("name", ["cyclic_algebra", "linear_algebra"])
def test_the_pass_equals_the_masks_on_every_string(name, request):
    algebra = request.getfixturevalue(name)
    words = enumerate_strings(algebra)
    for word in words:
        sb = string_normal_form(string_module(algebra, word))
        assert _subset_counts(algebra, sb) == subset_counts_by_masks(algebra, sb), word.key()
    assert len(words) >= 15


@pytest.mark.parametrize("n, step", [(2, 1), (3, 1), (4, 1), (5, 1), (6, 7)])
def test_the_pass_equals_the_masks_on_every_functor_image(n, step):
    tube = Tube(n)
    compared = 0
    for t in enumerate_maximal_rigid(n, tube)[::step]:
        alg = build_endomorphism_algebra(t)
        for x in all_rigid_indecs(tube):
            m = apply_F(alg, x)
            if m.is_zero():
                continue
            sb = string_normal_form(m)
            assert _subset_counts(alg, sb) == subset_counts_by_masks(alg, sb), (t, x)
            compared += 1
    assert compared > 0


@lru_cache(maxsize=None)
def _objects(n):
    return enumerate_maximal_rigid(n, Tube(n))


@lru_cache(maxsize=None)
def _algebra(n, i):
    return build_endomorphism_algebra(_objects(n)[i])


@st.composite
def word_recipes(draw):
    """(n, object index, start vertex, start at the loop, choices): see
    ``_grown_word``."""
    n = draw(st.integers(min_value=2, max_value=8))
    return (n, draw(st.integers(0, len(_objects(n)) - 1)), draw(st.integers(1, n)),
            draw(st.booleans()), draw(st.lists(st.integers(0, 7), max_size=15)))


def _grown_word(algebra, vertex, from_loop, choices):
    """A valid word of at most 16 positions: the trivial word at ``vertex``,
    or the loop letter if ``from_loop``, extended by one letter per choice
    (the choice-th valid one, cyclically) until none is valid."""
    loop = algebra.loop_arrow()
    letters = [Letter(loop.idx, False)] if from_loop else []
    every = [Letter(a.idx, inverse) for a in algebra.arrows for inverse in (False, True)]
    for choice in choices:
        valid = [l for l in every if is_valid_string(algebra, StringWord(letters + [l]))
                 and (letters or _letter_source(algebra, l) == vertex)]
        if not valid:
            break
        letters.append(valid[choice % len(valid)])
    return StringWord(letters) if letters else StringWord((), trivial_vertex=vertex)


@given(word_recipes())
@settings(max_examples=60, deadline=None)
@example((2, 0, 1, False, []))
@example((5, 0, 1, True, [0] * 15))
@example((8, 0, 2, False, [3] * 15))
def test_the_pass_equals_the_masks_on_sampled_words(recipe):
    n, i, vertex, from_loop, choices = recipe
    algebra = _algebra(n, i)
    word = _grown_word(algebra, vertex, from_loop, choices)
    assert is_valid_string(algebra, word) and len(word.letters) <= 15
    # the inverse word starts where this one ends, at a loop pair if it does
    for w in (word, word.inverse()):
        sb = _word_basis(algebra, w)
        assert _subset_counts(algebra, sb) == subset_counts_by_masks(algebra, sb)


# -- the tube's module memo --------------------------------------------------------


def _translated_algebras():
    """End(T) and End(tau T) on a new tube: one content class."""
    tube = Tube(3)
    t = MaximalRigid(tube, (Indec(1, 3), Indec(3, 1), Indec(1, 1)))
    algebras = build_endomorphism_algebra(t), build_endomorphism_algebra(t.shifted(1))
    for algebra in algebras:
        algebra.verify_associativity()
        algebra.verify_relations()
    return algebras


def test_translated_objects_share_chi_tables_and_oracle_verdicts(monkeypatch):
    from clustertube import grassmann

    alg, moved = _translated_algebras()
    tube = alg.tube
    counted = []
    count_points = grassmann._count_points

    def counting(*args):
        counted.append(args)
        return count_points(*args)

    monkeypatch.setattr(grassmann, "_count_points", counting)
    pairs = [(x, tube.tau(x)) for x in tube.wing(Indec(1, 3)) if not apply_F(alg, x).is_zero()]
    rows = []
    for algebra, side in ((alg, 0), (moved, 1)):
        del counted[:]
        for pair in pairs:
            m = apply_F(algebra, pair[side])
            e = rank_vector(m)
            rows.append((chi_table(m), chi_lf_oracle_fq(m, e)))
        assert bool(counted) == (side == 0)
    half = len(pairs)
    assert half > 3
    assert all(a[0] is b[0] and a[1] == b[1] == 1 for a, b in zip(rows[:half], rows[half:]))


def test_an_inconclusive_oracle_is_never_memoised(monkeypatch):
    from clustertube import grassmann

    alg, _ = _translated_algebras()
    m = apply_F(alg, Indec(1, 3))
    first_primes = grassmann._first_primes
    monkeypatch.setattr(grassmann, "_first_primes", lambda k: [2])
    for _ in range(2):
        with pytest.raises(OracleError, match="primes"):
            chi_lf_oracle_fq(m, (0, 0, 1))
    assert not [key for key in alg.tube._module_memo if "oracle" in key]
    monkeypatch.setattr(grassmann, "_first_primes", first_primes)
    assert chi_lf_oracle_fq(m, (0, 0, 1)) == chi_lf(m, (0, 0, 1))


def test_the_recursion_checks_its_domain_on_a_filled_memo():
    alg, moved = _translated_algebras()
    for algebra in (alg, moved):
        sequences = list(ar_sequences_ending_at_tau_rigid(algebra))
        assert sequences and all(verify_ar_recursion(l, m, n) for l, m, n, _ in sequences)
        l_mod, m_mod, n_mod, _ = sequences[0]
        with pytest.raises(DomainError, match="not additive"):
            verify_ar_recursion(l_mod, m_mod, m_mod)


def test_the_point_count_reads_integral_rows_checked_once_per_module():
    from fractions import Fraction

    from clustertube.amod import AModule

    alg, _ = _translated_algebras()
    m = apply_F(alg, Indec(1, 3))
    data = _point_data(m)
    assert _point_data(m) is data
    assert data[0] == tuple(mat.rows for mat in m.mats)
    halved = AModule(alg, m.dims, [mat.scale(Fraction(1, 2)) for mat in m.mats], check=False)
    for _ in range(2):
        with pytest.raises(OracleError, match="integral"):
            _point_data(halved)
    assert halved._points is None


def test_the_oracle_refuses_a_non_unit_entry_and_keeps_nothing(cyclic_algebra):
    # the module of the sweep's rescaling test: its entries 1/5 have no
    # value mod 5, so the point count could not read it there; chi_table
    # still reads the module through its string normal form
    from fractions import Fraction

    from clustertube.amod import _content
    from clustertube.linalg import ExactMatrix

    m = apply_F(cyclic_algebra, Indec(1, 3))
    d = ExactMatrix([[Fraction(5), 0], [0, 1]])
    d_inv = ExactMatrix([[Fraction(1, 5), 0], [0, 1]])
    scaled = conjugate(cyclic_algebra, m, {1: (d, d_inv)})
    assert any(x == Fraction(1, 5) for mat in scaled.mats for row in mat.rows for x in row)
    for e in ((0, 0, 1), (1, 0, 2)):
        with pytest.raises(OracleError, match="0 or"):
            chi_lf_oracle_fq(scaled, e)
    assert scaled._points is None
    assert not [key for key in cyclic_algebra.tube._module_memo
                if "oracle" in key and _content(scaled) in key]
    assert chi_table(scaled).entries == chi_table(m).entries


def test_the_oracle_refuses_a_non_monomial_module_and_keeps_nothing(cyclic_algebra):
    # the twisted module of the strings tests: every entry is 0 or +-1, but
    # a row with two nonzero entries need not keep its rank mod every prime
    from clustertube.amod import _content
    from clustertube.linalg import ExactMatrix

    m = apply_F(cyclic_algebra, Indec(1, 3))
    d = ExactMatrix([[1, 1], [0, 1]])
    d_inv = ExactMatrix([[1, -1], [0, 1]])
    twisted = conjugate(cyclic_algebra, m, {1: (d, d_inv)})
    assert all(x in (0, 1, -1) for mat in twisted.mats for row in mat.rows for x in row)
    for e in ((0, 0, 1), (1, 0, 2)):
        with pytest.raises(OracleError, match="monomial"):
            chi_lf_oracle_fq(twisted, e)
    assert twisted._points is None
    assert not [key for key in cyclic_algebra.tube._module_memo
                if "oracle" in key and _content(twisted) in key]


def _count_points_over_all_tuples(m, ehat, e_loop, p):
    """The point count as one loop over every tuple of subspaces, checking
    each arrow on the whole tuple, kept as the reference."""
    from itertools import product

    from clustertube.amod import loop_vertex

    alg = m.algebra
    lv = loop_vertex(alg) - 1
    loop = alg.loop_arrow()
    mats = {a.idx: [[int(x) for x in row] for row in m.mats[a.idx].rows] for a in alg.arrows}
    spaces = [list(_subspaces(ehat[v], m.dims[v], p)) for v in range(alg.n)]
    count = 0
    for choice in product(*spaces):
        ok = True
        for a in alg.arrows:
            i, j = a.src - 1, a.tgt - 1
            mat = mats[a.idx]
            for w in choice[j]:
                img = [sum(mat[r][c] * w[c] for c in range(m.dims[j])) % p
                       for r in range(m.dims[i])]
                if not _in_rowspace(choice[i], img, p):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        basis = choice[lv]
        mat = mats[loop.idx]
        images = [[sum(mat[r][c] * w[c] for c in range(m.dims[lv])) % p
                   for r in range(m.dims[lv])] for w in basis]
        if _mod_rank(images, p) == e_loop:
            count += 1
    return count


@pytest.mark.parametrize("n", [2, 3])
def test_the_point_count_equals_the_loop_over_all_tuples(n):
    from clustertube import grassmann
    from clustertube.tube import all_rigid_indecs, enumerate_maximal_rigid, in_pr_T

    tube = Tube(n)
    compared = nonzero = 0
    for t in enumerate_maximal_rigid(n, tube)[:4]:
        alg = build_endomorphism_algebra(t)
        for x in all_rigid_indecs(tube):
            if not in_pr_T(t, x) or apply_F(alg, x).is_zero():
                continue
            m = apply_F(alg, x)
            rank = rank_vector(m)
            lv = grassmann.loop_vertex(alg) - 1
            for e in itertools.product(*[range(r + 1) for r in rank]):
                ehat = grassmann._hat(alg, e)
                if any(d > md for d, md in zip(ehat, m.dims)):
                    continue
                for p in (2, 3, 5):
                    got = grassmann._count_points(m, ehat, e[lv], p)
                    assert got == _count_points_over_all_tuples(m, ehat, e[lv], p), (t, x, e, p)
                    compared += 1
                    nonzero += got > 0
    assert compared > 50 and nonzero > 20
