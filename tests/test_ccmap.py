import json
import random
from importlib import resources

import pytest

from clustertube import ccmap
from clustertube.ccmap import CCMap, cached_atlas
from clustertube.amod import _sigma_summand_index, apply_F, coindex
from clustertube.laurent import LaurentPoly, lp_denominator_vector
from clustertube.tube import (Indec, MaximalRigid, Tube, TubeError, all_rigid_indecs,
                              enumerate_maximal_rigid)


def load_reference():
    with resources.files("clustertube.data").joinpath("c3_reference.json").open() as fh:
        return json.load(fh)


def test_shifted_summands_are_initial_variables(cyclic_cc, cyclic_t, tube3):
    # the formula itself: the zero module contributes the single chi entry
    # at zero, and the coindex -e_i gives the initial variable x_i
    for i, s in enumerate(cyclic_t.summands):
        res = cyclic_cc.cc(tube3.tau(s))
        assert res.module.is_zero()
        assert res.coindex == tuple(-int(j == i) for j in range(3))
        assert res.poly == LaurentPoly.variable(3, i + 1)


def test_a_forged_coindex_on_a_shifted_summand_fails_both_checks(monkeypatch, linear_t, tube3):
    shifted = tube3.tau(linear_t.summands[1])
    assert shifted == Indec(4, 2)

    def forged_coindex(algebra, x):
        return (0, -1, -1) if x == (shifted,) else coindex(algebra, x)

    monkeypatch.setattr(ccmap, "coindex", forged_coindex)
    cm = CCMap(linear_t)
    assert "shifted summand 2 is not the initial variable" in cm.verify_bijection()
    assert "initial denominator off on (4,2)" in cm.verify_denominators()


def test_reference_characters(cyclic_cc):
    ref = load_reference()
    by_rank = {}
    for x in all_rigid_indecs(cyclic_cc.tube):
        res = cyclic_cc.cc(x)
        if not res.module.is_zero():
            from clustertube.amod import rank_vector

            by_rank[rank_vector(res.module)] = res
    assert len(by_rank) == 9
    for entry in ref["characters"]:
        res = by_rank[tuple(entry["rank"])]
        assert res.poly.canonical_text() == entry["poly"]
        assert list(res.denom) == entry["denom"]


def test_boundary_collapse(cyclic_cc):
    for i in (1, 2):
        over = cyclic_cc.cc(Indec(i, 4)).poly
        under = cyclic_cc.cc(cyclic_cc.tube.indec(i + 1, 2)).poly
        assert over == under


def test_multiplicativity_on_random_pairs(cyclic_cc, tube3):
    rng = random.Random(11)
    rigids = all_rigid_indecs(tube3)
    for _ in range(6):
        x, y = rng.choice(rigids), rng.choice(rigids)
        direct = cyclic_cc.cc((x, y)).poly
        assert direct == cyclic_cc.cc(x).poly * cyclic_cc.cc(y).poly


def test_bijection_report(cyclic_cc):
    assert cyclic_cc.verify_bijection() == []
    assert len(all_rigid_indecs(cyclic_cc.tube)) == 12
    assert len(cached_atlas(cyclic_cc.b).variables) == 12


def test_bijection_for_every_rank_two_object(tube2):
    for t in enumerate_maximal_rigid(2, tube2):
        assert CCMap(t).verify_bijection() == [], t


def test_denominator_report(cyclic_cc):
    assert cyclic_cc.verify_denominators() == []
    rigid = all_rigid_indecs(cyclic_cc.tube)
    assert sum(x in _sigma_summand_index(cyclic_cc.algebra) for x in rigid) == 3
    assert sum(not cyclic_cc.cc(x).module.is_zero() for x in rigid) == 9


def test_a_forged_initial_denominator_fails(cyclic_t, tube3):
    cm = CCMap(cyclic_t)
    assert cm.verify_denominators() == []
    # x1^2 / x2 on the shifted summand tau T_1: denominator (-2, 1, 0), whose sum is still -1
    shifted = tube3.tau(cyclic_t.summands[0])
    real = cm.cc(shifted)
    poly = LaurentPoly.monomial(3, (2, -1, 0))
    cm._cache[(shifted,)] = real._replace(poly=poly, denom=lp_denominator_vector(poly))
    assert cm.cc(shifted).denom == (-2, 1, 0)
    assert cm.verify_denominators() == [f"initial denominator off on {shifted}"]


def test_a_zero_functor_image_outside_the_shifted_summands_fails(cyclic_t, tube3):
    cm = CCMap(cyclic_t)
    x = next(x for x in all_rigid_indecs(tube3) if x not in _sigma_summand_index(cm.algebra))
    real = cm.cc(x)
    cm._cache[(x,)] = real._replace(module=apply_F(cm.algebra, cm.tube.tau(cyclic_t.summands[0])))
    assert cm.verify_denominators() == [
        f"zero functor image outside the shifted summands at {x}"]


def test_exchange_relations_report(cyclic_cc):
    assert cyclic_cc.verify_exchange_relations() == []


def test_the_boundary_collapse_needs_the_long_summand_at_one(tube3):
    # stated for the long summand (1, n); another object is refused, not translated
    t = MaximalRigid(tube3, (Indec(2, 3), Indec(4, 1), Indec(2, 1)))
    with pytest.raises(TubeError, match=r"long summand \(1,3\), not \(2,3\)"):
        CCMap(t).verify_exchange_relations()


def test_bijection_headroom_one_rank_up():
    # one rank beyond the verified desk scale: 30 characters against the
    # 252-seed atlas, still exact and still fast
    tube = Tube(5)
    t = MaximalRigid(tube, tuple(Indec(1, b) for b in range(5, 0, -1)))
    cm = CCMap(t)
    assert len(cached_atlas(cm.b).seeds) == 252
    assert cm.verify_bijection() == []
    assert len(all_rigid_indecs(tube)) == 30
    assert cm.verify_denominators() == []


def test_atlas_cache_reuse(cyclic_cc):
    a1 = cached_atlas(cyclic_cc.b)
    a2 = cached_atlas(cyclic_cc.b)
    assert a1 is a2
