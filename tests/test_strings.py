from fractions import Fraction

import pytest

from clustertube.amod import apply_F, rank_vector, simple, tau_A
from clustertube.endo import build_endomorphism_algebra
from clustertube.linalg import ExactMatrix
from clustertube.strings import (
    Letter,
    NotStringModuleError,
    StringWord,
    string_module,
    string_normal_form,
)
from clustertube.tube import Indec, Tube, all_rigid_indecs, enumerate_maximal_rigid
from strings_reference import conjugate, enumerate_strings


def _arrow_by_role(algebra):
    """Name the arrows of the three-cycle example: loop, 1->2, 2->3, 3->1."""
    roles = {}
    for a in algebra.arrows:
        if a.is_loop:
            roles["rho"] = a
        else:
            roles[(a.src, a.tgt)] = a
    return roles


def test_example_string_modules_match_displayed_matrices(cyclic_algebra):
    roles = _arrow_by_role(cyclic_algebra)
    alpha, gamma, rho = roles[(1, 2)], roles[(3, 1)], roles["rho"]
    # word read right to left: first gamma, then the loop, then alpha
    w1 = StringWord((Letter(gamma.idx, False), Letter(rho.idx, False), Letter(alpha.idx, False)))
    m1 = string_module(cyclic_algebra, w1)
    assert m1.dims == (2, 1, 1)
    assert m1.mats[rho.idx].rows == ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
    assert rank_vector(m1) == (1, 1, 1)
    w2 = StringWord((Letter(gamma.idx, False), Letter(rho.idx, True), Letter(alpha.idx, False)))
    m2 = string_module(cyclic_algebra, w2)
    assert m2.mats[rho.idx].rows == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
    assert m1.dims == m2.dims


def test_string_count_matches_module_count(cyclic_algebra):
    # representation-finite: 15 indecomposables for the three-cycle algebra
    words = enumerate_strings(cyclic_algebra)
    assert len(words) == 15
    dim_vectors = sorted(string_module(cyclic_algebra, w).dims for w in words)
    assert dim_vectors.count((2, 1, 1)) == 2
    assert dim_vectors.count((2, 0, 2)) == 1


def test_normal_form_of_simples(cyclic_algebra):
    for i in (1, 2, 3):
        sb = string_normal_form(simple(cyclic_algebra, i))
        assert len(sb.word.letters) == 0
        assert sb.word.trivial_vertex == i


def test_normal_form_of_functor_images(cyclic_algebra, tube3):
    for x in all_rigid_indecs(tube3):
        m = apply_F(cyclic_algebra, x)
        if m.is_zero():
            continue
        sb = string_normal_form(m)
        # the sweep must terminate in an honest isomorphism onto the
        # zero/one string module
        assert sb.iso.commutes()
        assert sb.module.dims == m.dims
        for mat in sb.module.mats:
            for row in mat.rows:
                assert all(x in (0, 1) for x in row)


def test_normal_form_rejects_zero(cyclic_algebra):
    from clustertube.amod import zero_module

    with pytest.raises(NotStringModuleError):
        string_normal_form(zero_module(cyclic_algebra))


def test_loop_letter_appears_at_most_once(cyclic_algebra):
    rho = next(a for a in cyclic_algebra.arrows if a.is_loop)
    for w in enumerate_strings(cyclic_algebra):
        uses = sum(1 for l in w.letters if l.arrow_idx == rho.idx)
        assert uses <= 1


def test_boundary_words_differ_by_loop_flip(linear_algebra, tube3):
    rho_idx = next(a for a in linear_algebra.arrows if a.is_loop).idx

    def flip(word):
        return StringWord(
            tuple(
                Letter(l.arrow_idx, (not l.inverse) if l.arrow_idx == rho_idx else l.inverse)
                for l in word.letters
            )
        ).canonical()

    for i in (1, 2):
        w_over = string_normal_form(apply_F(linear_algebra, Indec(i, 4))).word
        w_under = string_normal_form(apply_F(linear_algebra, tube3.indec(i + 1, 2))).word
        assert flip(w_over) == w_under.canonical()


def test_sweep_rescales_non_unit_entries(cyclic_algebra):
    # conjugating a basis vector scales the arrow entries; the sweep must
    # still normalize the module and recover the same word
    m = apply_F(cyclic_algebra, Indec(1, 3))
    d = ExactMatrix([[Fraction(5), 0], [0, 1]])
    d_inv = ExactMatrix([[Fraction(1, 5), 0], [0, 1]])
    twisted = conjugate(cyclic_algebra, m, {1: (d, d_inv)})
    sb = string_normal_form(twisted)
    assert sb.word == string_normal_form(m).word
    assert sb.iso.commutes() and sb.iso.is_injective() and sb.iso.is_surjective()


def test_a_non_monomial_basis_has_no_string_form(cyclic_algebra):
    # a non-monomial change of basis at a two-dimensional vertex leaves a
    # row with two nonzero entries; the module is still isomorphic to a
    # string module, but the sweep reads words off monomial bases only
    m = apply_F(cyclic_algebra, Indec(1, 3))
    assert m.dims[0] == 2
    d = ExactMatrix([[1, 1], [0, 1]])
    d_inv = ExactMatrix([[1, -1], [0, 1]])
    twisted = conjugate(cyclic_algebra, m, {1: (d, d_inv)})
    with pytest.raises(NotStringModuleError, match="not monomial"):
        string_normal_form(twisted)


def test_normal_form_of_the_ar_translate(cyclic_algebra):
    # the AR translate comes back as a plain representation with no
    # provenance; it still has a string normal form of its dimensions
    m = apply_F(cyclic_algebra, Indec(1, 2))
    t = tau_A(m)
    assert not t.is_zero()
    sb = string_normal_form(t)
    assert sb.module.dims == t.dims


@pytest.mark.parametrize("n", [2, 3])
def test_every_image_and_its_translate_has_a_string_form(n):
    # every nonzero functor image of a rigid indecomposable, over every
    # End(T), and its AR translate are monomial in the basis they are built
    # in, so the sweep alone reads their words
    tube = Tube(n)
    images = translates = 0
    for t in enumerate_maximal_rigid(n, tube):
        algebra = build_endomorphism_algebra(t)
        for x in all_rigid_indecs(tube):
            m = apply_F(algebra, x)
            if m.is_zero():
                continue
            for module in (m, tau_A(m)):
                if module.is_zero():
                    continue
                sb = string_normal_form(module)
                assert sb.module.dims == module.dims, (t, x)
                assert sb.iso.commutes() and sb.iso.is_injective() and sb.iso.is_surjective()
                images += module is m
                translates += module is not m
    assert (images, translates) == {2: (24, 12), 3: (180, 120)}[n]
