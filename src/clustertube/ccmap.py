"""The cluster character of a maximal rigid object and its verifications.

For an object X presented by T, the character is the Laurent polynomial

    x^(-coindex(X)) * sum_e chi(Gr_e(F X)) * x^(B_T e),

evaluated the same way on every object.  On a shifted summand tau T_i the
functor image is zero and the coindex is -e_i, so the formula itself gives
the initial variable x_i.  The verification entry points return their
failure lines; they check, in exact arithmetic, that the character
bijects the indecomposable rigid objects onto the cluster variables of the
exchange matrix of T, that denominator vectors equal rank vectors, and that
the characters collapse at the boundary of the rigid region.  The exchange
relations are checked from the characters on the tube's recorded exchange
graph, in ``verify``.
"""
from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from .cluster import ClusterAtlas, ExchangeMatrix, enumerate_atlas
from .laurent import LaurentPoly, lp_denominator_vector, pretty
from .endo import FinDimAlgebra, build_endomorphism_algebra
from .tube import (
    Indec,
    MaximalRigid,
    Tube,
    TubeError,
    all_rigid_indecs,
    b_matrix,
)
from .amod import AModule, apply_F, coindex, rank_vector, _normalize_object, _sigma_summand_index
from .grassmann import chi_table


class CCResult(NamedTuple):
    module: AModule
    coindex: tuple
    poly: LaurentPoly
    denom: tuple


_atlas_cache: Dict[tuple, ClusterAtlas] = {}


def cached_atlas(b: ExchangeMatrix) -> ClusterAtlas:
    """``enumerate_atlas(b)``, memoised by matrix."""
    if b.b not in _atlas_cache:
        _atlas_cache[b.b] = enumerate_atlas(b)
    return _atlas_cache[b.b]


class CCMap:
    """Character computations for one maximal rigid object.

    ``b``, if given, is taken as the exchange matrix of ``t`` unchecked;
    otherwise it is computed and cross-validated on ``algebra``.
    """

    def __init__(self, t: MaximalRigid, algebra: Optional[FinDimAlgebra] = None,
                 b: Optional[ExchangeMatrix] = None):
        self.t = t
        self.tube: Tube = t.tube
        self.n = self.tube.n
        self.algebra = algebra or build_endomorphism_algebra(t)
        self.b = b if b is not None else b_matrix(t, algebra=self.algebra)
        self._cache: Dict[tuple, CCResult] = {}

    # -- the character ---------------------------------------------------------

    def cc(self, x) -> CCResult:
        """Character of a rigid object, a shifted summand, or a direct sum."""
        key = _normalize_object(self.tube, x)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        n = self.n
        module = apply_F(self.algebra, key)
        coind = coindex(self.algebra, key)
        # B_T is singular for odd n, so distinct e can share an exponent
        terms: Dict[tuple, int] = {}
        for e, chi in chi_table(module).entries.items():
            exp = tuple(sum(self.b.b[i][j] * e[j] for j in range(n)) for i in range(n))
            terms[exp] = terms.get(exp, 0) + chi
        poly = LaurentPoly(n, terms).shift([-c for c in coind])
        result = CCResult(module, coind, poly, lp_denominator_vector(poly))
        self._cache[key] = result
        return result

    # -- verification reports ----------------------------------------------------

    def verify_bijection(self) -> List[str]:
        """Character image versus the cluster variables of the atlas."""
        tube = self.tube
        seen: Dict[str, Indec] = {}
        failures = []
        for x in all_rigid_indecs(tube):
            text = self.cc(x).poly.canonical_text()
            if text in seen:
                failures.append(f"character repeats on {seen[text]} and {x}")
            seen[text] = x
        for i, s in enumerate(self.t.summands):
            if self.cc(tube.tau(s)).poly != LaurentPoly.variable(self.n, i + 1):
                failures.append(f"shifted summand {i + 1} is not the initial variable")
        atlas_texts = set(cached_atlas(self.b).variable_texts())
        if atlas_texts != seen.keys():
            missing = sorted(atlas_texts - seen.keys())
            extra = sorted(seen.keys() - atlas_texts)
            failures.append(
                f"variable sets differ; missing={missing[:4]} extra={extra[:4]}"
            )
        return failures

    def verify_denominators(self) -> List[str]:
        """Denominator vector equals rank vector on tau-rigid images.  The
        functor image is zero exactly on the n shifted summands, whose
        characters are initial variables with denominator -e_i, outside the
        statement."""
        n = self.n
        failures = []
        initial = 0
        sigma = _sigma_summand_index(self.algebra)
        for x in all_rigid_indecs(self.tube):
            res = self.cc(x)
            i = sigma.get(x)
            if i is not None:
                initial += 1
                if res.denom != tuple(-int(j == i) for j in range(n)):
                    failures.append(f"initial denominator off on {x}")
            elif res.module.is_zero():
                failures.append(f"zero functor image outside the shifted summands at {x}")
            else:
                rank = rank_vector(res.module)
                if res.denom != rank:
                    failures.append(f"denominator of {x}: {res.denom} != rank {rank}")
        if initial != n:
            failures.append(f"{initial} shifted summands among the rigid objects, not {n}")
        return failures

    def verify_exchange_relations(self) -> List[str]:
        """The boundary collapse X_(i, n+1) = X_(i+1, n-1) for i < n.

        Stated for a maximal rigid object whose long summand is (1, n); any
        other T raises ``TubeError``.  The exchange relations themselves are
        checked on the tube's recorded exchange graph, by
        ``verify.check_exchange_relations``.
        """
        n = self.n
        if self.t.long != Indec(1, n):
            raise TubeError(f"the boundary collapse is stated for the long summand (1,{n}), "
                            f"not {self.t.long}")
        failures = []
        for i in range(1, n):
            over, under = self.cc(Indec(i, n + 1)).poly, self.cc(Indec(i + 1, n - 1)).poly
            if over != under:
                failures.append(f"boundary collapse i={i}: "
                                f"{over.canonical_text()} != {under.canonical_text()}")
        return failures

    # -- reporting ----------------------------------------------------------------

    def character_table(self) -> List[dict]:
        """Sorted per-object report rows for every indecomposable rigid."""
        rows = []
        for x in sorted(all_rigid_indecs(self.tube)):
            res = self.cc(x)
            rank = None if res.module.is_zero() else list(rank_vector(res.module))
            rows.append(
                {
                    "object": str(x),
                    "rank": rank,
                    "coindex": list(res.coindex),
                    "poly": res.poly.canonical_text(),
                    "pretty": pretty(res.poly),
                    "denom": list(res.denom),
                }
            )
        return rows
