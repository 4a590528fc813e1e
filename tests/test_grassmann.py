import itertools
import random

import pytest

from clustertube.amod import apply_F, direct_sum, is_tau_rigid, rank_vector
from clustertube.endo import build_endomorphism_algebra
from clustertube.grassmann import (
    OracleError,
    ar_sequences_ending_at_tau_rigid,
    chi_lf,
    chi_lf_oracle_fq,
    chi_table,
    verify_ar_recursion,
    _in_rowspace,
    _mod_rank,
    _subspaces,
)
from clustertube.strings import enumerate_strings, string_module
from clustertube.tube import Indec, MaximalRigid, Tube


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


def test_oracle_needs_enough_primes(cyclic_algebra):
    m = apply_F(cyclic_algebra, Indec(1, 3))
    with pytest.raises(OracleError, match="primes"):
        chi_lf_oracle_fq(m, (0, 0, 1), primes=[2])


def test_oracle_matches_direct_count_on_reference_module(cyclic_algebra):
    m = apply_F(cyclic_algebra, Indec(3, 1))  # the rank (1,1,1) module
    r = rank_vector(m)
    for e in itertools.product(*[range(x + 1) for x in r]):
        assert chi_lf(m, e) == chi_lf_oracle_fq(m, e)


def test_multiplicativity_on_direct_sums(tube2):
    t = MaximalRigid(tube2, (Indec(1, 2), Indec(1, 1)))
    algebra = build_endomorphism_algebra(t, check=False)
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
        algebra = build_endomorphism_algebra(t, check=False)
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
    words = [w for w in enumerate_strings(cyclic_algebra) if w.length() >= 2]
    for word in words[:4]:
        m = string_module(cyclic_algebra, word)
        assert m.provenance is None
        assert grassmann._indec_summands(m) == [m]
        assert grassmann._string_data(m)[0].word == word
        expected = grassmann._string_profile_counts(cyclic_algebra, normal_form(m))
        assert grassmann._profile_counts(m) == expected
        assert grassmann._profile_counts(m) == expected
        assert calls == [m]
        del calls[:]


def test_chi_table_equals_the_mask_count_over_fresh_forms():
    from clustertube.grassmann import _convolve, _string_profile_counts
    from clustertube.strings import string_normal_form
    from clustertube.tube import all_rigid_indecs, enumerate_maximal_rigid, in_pr_T

    tube = Tube(3)
    compared = 0
    for t in enumerate_maximal_rigid(3, tube):
        alg = build_endomorphism_algebra(t, check=False)
        lv = alg.loop_arrow().src - 1
        for x in all_rigid_indecs(tube):
            if not in_pr_T(t, x) or apply_F(alg, x).is_zero():
                continue
            m = apply_F(alg, x)
            table = chi_table(m)
            counts = {(0,) * alg.n: 1}
            for y in m.provenance:
                piece = apply_F(alg, y)
                counts = _convolve(counts, _string_profile_counts(alg, string_normal_form(piece)))
            direct = {}
            for profile, c in counts.items():
                e = tuple(d // 2 if v == lv else d for v, d in enumerate(profile))
                direct[e] = direct.get(e, 0) + c
            assert table.entries == dict(sorted(direct.items())), (t, x)
            compared += 1
    assert compared > 100
