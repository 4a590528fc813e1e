import json
import random
from importlib import resources

import pytest

from clustertube.ccmap import CCMap, cached_atlas
from clustertube.cluster import ExchangeMatrix, NotFiniteTypeError
from clustertube.laurent import LaurentPoly
from clustertube.tube import Indec, MaximalRigid, all_rigid_indecs, enumerate_maximal_rigid


def load_reference():
    with resources.files("clustertube.data").joinpath("c3_reference.json").open() as fh:
        return json.load(fh)


def test_shifted_summands_are_initial_variables(cyclic_cc, cyclic_t, tube3):
    for i, s in enumerate(cyclic_t.summands):
        assert cyclic_cc.cc(tube3.tau(s)).poly == LaurentPoly.variable(3, i + 1)


def test_formula_agrees_with_special_rule_on_shifted_summands(cyclic_cc, cyclic_t, tube3):
    # the zero module contributes the single chi entry at zero, so the
    # generic formula collapses to the initial variable by itself
    from clustertube.amod import coindex

    for i, s in enumerate(cyclic_t.summands):
        co = coindex(cyclic_cc.algebra, tube3.tau(s))
        poly = LaurentPoly.monomial(3, tuple(-c for c in co))
        assert poly == cyclic_cc.cc(tube3.tau(s)).poly


def test_reference_characters(cyclic_cc):
    ref = load_reference()
    by_rank = {}
    for x in all_rigid_indecs(cyclic_cc.tube):
        res = cyclic_cc.cc(x)
        if res.module is not None and not res.module.is_zero():
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
    rep = cyclic_cc.verify_bijection()
    assert rep["ok"], rep["failures"]
    assert rep["object_count"] == 12
    assert rep["atlas_variables"] == 12
    assert all(
        {"object", "rank", "coindex", "poly", "denom", "matched_variable"} <= set(r)
        for r in rep["rows"]
    )
    assert all(r["matched_variable"] is not None for r in rep["rows"])


def test_bijection_for_every_rank_two_object(tube2):
    for t in enumerate_maximal_rigid(2, tube2):
        rep = CCMap(t).verify_bijection()
        assert rep["ok"], (t, rep["failures"])


def test_denominator_report(cyclic_cc):
    rep = cyclic_cc.verify_denominators()
    assert rep["ok"], rep["failures"]
    assert len(rep["rows"]) == 9
    assert len(rep["initial"]) == 3


def test_exchange_relations_report(cyclic_cc):
    rep = cyclic_cc.verify_exchange_relations()
    assert rep["ok"], rep["failures"]


def test_exchange_relations_translate_frames(tube3):
    # an object whose long summand is not at position one goes through the
    # translation before the relation families are checked
    t = MaximalRigid(tube3, (Indec(2, 3), Indec(4, 1), Indec(2, 1)))
    rep = CCMap(t).verify_exchange_relations()
    assert rep["ok"], rep["failures"]


def test_exchange_identity_on_every_mutation_edge_rank_two(tube2):
    from clustertube.tube import mutate_rigid

    one = LaurentPoly.one(2)
    for t in enumerate_maximal_rigid(2, tube2):
        cm = CCMap(t)
        for k in (1, 2):
            data = mutate_rigid(t, k)
            lhs = cm.cc(data.old).poly * cm.cc(data.new).poly
            right = one
            for s in data.right_middle:
                right = right * cm.cc(s).poly
            left = one
            for s in data.left_middle:
                left = left * cm.cc(s).poly
            assert lhs == right + left


def test_bijection_headroom_one_rank_up():
    # one rank beyond the verified desk scale: 30 characters against the
    # 252-seed atlas, still exact and still fast
    from clustertube.ccmap import cached_atlas
    from clustertube.tube import Tube

    tube = Tube(5)
    t = MaximalRigid(tube, tuple(Indec(1, b) for b in range(5, 0, -1)))
    cm = CCMap(t)
    assert len(cached_atlas(cm.b).seeds) == 252
    rep = cm.verify_bijection()
    assert rep["ok"], rep["failures"]
    assert rep["object_count"] == 30
    assert cm.verify_denominators()["ok"]


def test_atlas_cache_reuse(cyclic_cc):
    a1 = cached_atlas(cyclic_cc.b)
    a2 = cached_atlas(cyclic_cc.b)
    assert a1 is a2


def test_atlas_cache_honours_cap_on_a_hit():
    b = ExchangeMatrix([[0, 1], [-2, 0]])
    assert len(cached_atlas(b).seeds) == 6
    with pytest.raises(NotFiniteTypeError):
        cached_atlas(b, cap=3)
