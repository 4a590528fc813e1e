"""The cluster character of a maximal rigid object and its verifications.

For an object X presented by T, the character is the Laurent polynomial

    x^(-coindex(X)) * sum_e chi(Gr_e(F X)) * x^(B_T e),

which sends the shifted summands of T to the initial variables.  The
verification entry points check, in exact arithmetic, that the character
bijects the indecomposable rigid objects onto the cluster variables of the
exchange matrix of T, that denominator vectors equal rank vectors, and that
the exchange relations hold along mutations and the covering walk.
"""
from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from .cluster import ClusterAtlas, ExchangeMatrix, enumerate_atlas
from .laurent import LaurentPoly, lp_denominator_vector, pretty
from .endo import FinDimAlgebra, build_endomorphism_algebra
from .tube import (
    ConsistencyError,
    Indec,
    MaximalRigid,
    Tube,
    all_rigid_indecs,
    b_matrix,
)
from .amod import AModule, apply_F, coindex, rank_vector, _normalize_object
from .grassmann import chi_table


class CCResult(NamedTuple):
    objects: Tuple[Indec, ...]
    module: Optional[AModule]
    coindex: tuple
    poly: LaurentPoly
    denom: Optional[tuple]

    def to_json(self) -> dict:
        rank = None
        if self.module is not None and not self.module.is_zero():
            rank = list(rank_vector(self.module))
        return {
            "object": [[x.a, x.b] for x in self.objects],
            "rank": rank,
            "coindex": list(self.coindex),
            "poly": self.poly.canonical_text(),
            "denom": list(self.denom) if self.denom is not None else None,
        }


_atlas_cache: Dict[tuple, ClusterAtlas] = {}


def cached_atlas(b: ExchangeMatrix, cap: int = 10000) -> ClusterAtlas:
    """``enumerate_atlas(b, cap=cap)``, memoised by matrix and cap."""
    key = (b.b, cap)
    if key not in _atlas_cache:
        _atlas_cache[key] = enumerate_atlas(b, cap=cap)
    return _atlas_cache[key]


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
        self.algebra = algebra or build_endomorphism_algebra(t, check=False)
        self.b = b if b is not None else b_matrix(t, algebra=self.algebra)
        self._cache: Dict[tuple, CCResult] = {}
        self._sigma = {self.tube.tau(s): i for i, s in enumerate(t.summands)}

    # -- the character ---------------------------------------------------------

    def cc(self, x) -> CCResult:
        """Character of a rigid object, a shifted summand, or a direct sum."""
        objects = _normalize_object(self.tube, x)
        key = tuple(objects)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        n = self.n
        if len(objects) == 1 and objects[0] in self._sigma:
            i = self._sigma[objects[0]]
            poly = LaurentPoly.variable(n, i + 1)
            result = CCResult(objects, None, tuple(-int(j == i) for j in range(n)),
                              poly, lp_denominator_vector(poly))
            self._cache[key] = result
            return result
        if any(s in self._sigma for s in objects):
            # mixed sums: multiply the factors
            poly = LaurentPoly.one(n)
            coind = [0] * n
            for s in objects:
                part = self.cc(s)
                poly = poly * part.poly
                coind = [a + b for a, b in zip(coind, part.coindex)]
            result = CCResult(objects, None, tuple(coind), poly,
                              lp_denominator_vector(poly))
            self._cache[key] = result
            return result
        module = apply_F(self.algebra, objects)
        coind = coindex(self.algebra, objects)
        table = chi_table(module)
        poly = LaurentPoly.zero(n)
        for e, chi in table.entries.items():
            exp = tuple(
                sum(self.b.b[i][j] * e[j] for j in range(n)) - coind[i]
                for i in range(n)
            )
            poly = poly + LaurentPoly.monomial(n, exp, chi)
        denom = lp_denominator_vector(poly) if not poly.is_zero() else None
        result = CCResult(objects, module, coind, poly, denom)
        self._cache[key] = result
        return result

    # -- verification reports ----------------------------------------------------

    def verify_bijection(self, cap: int = 10000) -> dict:
        """Character image versus the cluster variables of the atlas."""
        tube = self.tube
        n = self.n
        rows = []
        seen: Dict[str, Indec] = {}
        failures = []
        for x in all_rigid_indecs(tube):
            res = self.cc(x)
            text = res.poly.canonical_text()
            if text in seen:
                failures.append(f"character repeats on {seen[text]} and {x}")
            seen[text] = x
            rows.append(res)
        for i, s in enumerate(self.t.summands):
            expected = LaurentPoly.variable(n, i + 1)
            if self.cc(tube.tau(s)).poly != expected:
                failures.append(f"shifted summand {i + 1} is not the initial variable")
        atlas = cached_atlas(self.b, cap=cap)
        atlas_texts = set(atlas.variable_texts())
        image_texts = set(seen)
        if atlas_texts != image_texts:
            missing = sorted(atlas_texts - image_texts)
            extra = sorted(image_texts - atlas_texts)
            failures.append(
                f"variable sets differ; missing={missing[:4]} extra={extra[:4]}"
            )
        row_payload = []
        for r in rows:
            item = r.to_json()
            text = r.poly.canonical_text()
            item["matched_variable"] = text if text in atlas_texts else None
            row_payload.append(item)
        return {
            "ok": not failures,
            "object_count": len(rows),
            "atlas_variables": len(atlas_texts),
            "failures": failures,
            "rows": row_payload,
        }

    def verify_denominators(self) -> dict:
        """Denominator vector equals rank vector on tau-rigid images.  The
        functor image is zero exactly on the n shifted summands, whose
        characters are initial variables with denominator -e_i, outside the
        statement."""
        n = self.n
        failures = []
        rows = []
        initial = []
        for x in all_rigid_indecs(self.tube):
            res = self.cc(x)
            i = self._sigma.get(x)
            if i is not None:
                initial.append({"object": str(x), "denom": list(res.denom)})
                if res.denom != tuple(-int(j == i) for j in range(n)):
                    failures.append(f"initial denominator off on {x}")
            elif res.module.is_zero():
                failures.append(f"zero functor image outside the shifted summands at {x}")
            else:
                rank = rank_vector(res.module)
                rows.append({"object": str(x), "rank": list(rank), "denom": list(res.denom)})
                if tuple(res.denom) != tuple(rank):
                    failures.append(f"denominator of {x}: {res.denom} != rank {rank}")
        if len(initial) != n:
            failures.append(f"{len(initial)} shifted summands among the rigid objects, not {n}")
        return {"ok": not failures, "failures": failures, "rows": rows, "initial": initial}

    def verify_exchange_relations(self) -> dict:
        """The three exchange-relation families and the covering walk.

        Stated for a maximal rigid object whose long summand is (1, n); other
        objects are handled by translating the whole picture first.
        """
        tube = self.tube
        n = self.n
        if self.t.long != Indec(1, n):
            shift = self.t.long.a - 1
            shifted = CCMap(self.t.shifted(shift))
            if shifted.b.b != self.b.b:
                raise ConsistencyError("translation changed the exchange matrix")
            return shifted.verify_exchange_relations()
        failures = []

        def eq(name: str, left: LaurentPoly, right: LaurentPoly):
            if left != right:
                failures.append(
                    f"{name}: {left.canonical_text()} != {right.canonical_text()}"
                )

        one = LaurentPoly.one(n)
        x1 = self.cc(tube.tau(Indec(1, n))).poly
        eq(
            "long exchange at (1,n)",
            x1 * self.cc(Indec(1, n)).poly,
            one + self.cc(Indec(1, n - 1)).poly ** 2,
        )
        eq(
            "long exchange at (n,n)",
            x1 * self.cc(Indec(n, n)).poly,
            one + self.cc(Indec(n + 1, n - 1)).poly ** 2,
        )
        for c in range(1, n):
            eq(
                f"length-n relation c={c}",
                self.cc(Indec(c, n)).poly * self.cc(Indec(c + 1, n)).poly,
                one + self.cc(Indec(c + 1, n - 1)).poly ** 2,
            )
        for b in range(1, n):
            for a in range(1, n + 2):
                lower = (
                    one
                    if b == 1
                    else self.cc(Indec(a + 1, b - 1)).poly
                )
                eq(
                    f"short relation a={a},b={b}",
                    self.cc(Indec(a, b)).poly * self.cc(Indec(a + 1, b)).poly,
                    one + lower * self.cc(Indec(a, b + 1)).poly,
                )
        for i in range(1, n):
            eq(
                f"boundary collapse i={i}",
                self.cc(Indec(i, n + 1)).poly,
                self.cc(Indec(i + 1, n - 1)).poly,
            )
        walk_failures = self.verify_walk()
        failures.extend(walk_failures)
        return {"ok": not failures, "failures": failures}

    def verify_walk(self) -> List[str]:
        """Mutation walk covering every indecomposable rigid object.

        Each step of ``Tube.covering_walk`` must satisfy the exchange
        identity on the characters of T.
        """
        steps, walk_failures = self.tube.covering_walk()
        failures = []
        for i, data in enumerate(steps):
            lhs = self.cc(data.old).poly * self.cc(data.new).poly
            prod_r = LaurentPoly.one(self.n)
            for s in data.right_middle:
                prod_r = prod_r * self.cc(s).poly
            prod_l = LaurentPoly.one(self.n)
            for s in data.left_middle:
                prod_l = prod_l * self.cc(s).poly
            if lhs != prod_r + prod_l:
                failures.append(f"walk step {i}: exchange identity fails at {data.old}")
        return failures + list(walk_failures)

    # -- reporting ----------------------------------------------------------------

    def character_table(self) -> List[dict]:
        """Sorted per-object report rows for every indecomposable rigid."""
        rows = []
        for x in sorted(all_rigid_indecs(self.tube)):
            res = self.cc(x)
            rank = (
                list(rank_vector(res.module))
                if res.module is not None and not res.module.is_zero()
                else None
            )
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
