"""Euler characteristics of locally free submodule Grassmannians.

The primary count is of the coordinate subrepresentations of the string
normal form (subsets of the string basis closed under the arrow actions
whose loop-vertex part is a union of complete loop pairs), in one pass
along the word.  ``chi_table`` is the one reading of these counts: the
characters sum it, ``chi_lf`` looks it up, the AR recursion convolves it.
An independent finite-field oracle counts actual subspace tuples over
several primes, interpolates the counting polynomial and evaluates it at
one; the suite checks every entry of the table against it.  The oracle
counts on the module's own arrow matrices, never on its string normal
form, so it does not read the sweep whose counts it checks.
"""
from __future__ import annotations

from itertools import combinations, product
from typing import Dict, Iterable, List, Sequence, Tuple

from .endo import FinDimAlgebra
from .linalg import exact_div
from .tube import ConsistencyError
from .amod import (
    AModule,
    DomainError,
    _content,
    _memoised,
    _sigma_summand_index,
    apply_F,
    direct_sum,
    is_locally_free,
    loop_vertex,
    rank_vector,
)
from .strings import StringBasis, is_monomial, string_normal_form


class OracleError(RuntimeError):
    pass


RankVec = Tuple[int, ...]


def _hat(algebra: FinDimAlgebra, e: Sequence[int]) -> RankVec:
    """Dimension vector of a locally free module of rank vector e."""
    lv = loop_vertex(algebra) - 1
    return tuple(2 * x if v == lv else x for v, x in enumerate(e))


def _string_data(m: AModule) -> Tuple[StringBasis, Dict[RankVec, int]]:
    """String normal form of an indecomposable module and its profile
    counts, computed once and kept on the module."""
    if m._strings is None:
        sb = string_normal_form(m)
        m._strings = (sb, _subset_counts(m.algebra, sb))
    return m._strings


def _indec_summands(m: AModule) -> List[AModule]:
    """The nonzero indecomposable summands of a module: the shared functor
    images of its provenance, or the module itself without provenance."""
    if m.is_zero():
        return []
    if m.provenance is None:
        return [m]
    pieces = (apply_F(m.algebra, x) for x in m.provenance)
    return [piece for piece in pieces if not piece.is_zero()]


def _summands_content(m: AModule) -> tuple:
    """The module part of a memo key for a character count of m: the
    content of m and of each summand whose string data the count reads."""
    return (_content(m), tuple(_content(piece) for piece in _indec_summands(m)))


def _subset_counts(algebra: FinDimAlgebra, sb: StringBasis) -> Dict[RankVec, int]:
    """Number of admissible coordinate subsets per vertex-dimension profile.

    Admissible means closed under every action edge and, at the loop vertex,
    a union of complete loop pairs: the locally free condition for a
    coordinate subspace.  Edge i - 1 links positions i - 1 and i, so one
    pass along the word counts the admissible prefixes by packed profile
    (a field per vertex, too wide for any count to carry), in two tables:
    last position out of the subset, and last position in it.
    """
    lv = loop_vertex(algebra)
    width = len(sb.nodes).bit_length()
    loops = [algebra.arrows[aidx].is_loop for _, _, aidx in sb.edges]
    paired = {pos + side for pos, loop in enumerate(loops) if loop for side in (0, 1)}
    # a loop-vertex position on no loop pair stays out
    bits = [0 if v == lv and pos not in paired else 1 << width * (v - 1)
            for pos, v in enumerate(sb.nodes)]
    out, inside = {0: 1}, ({bits[0]: 1} if bits[0] else {})
    for pos, (u, w, _) in enumerate(sb.edges, start=1):
        # an action edge u -> w forbids u in with w out, a loop pair its two
        # positions differing; this position out extends the prefixes of out
        if loops[pos - 1]:
            to_in = (inside,)
        elif u < w:  # the previous position in puts this one in
            to_in = (out, inside)
        else:  # this position in puts the previous one in
            out, to_in = _shifted_sum((out, inside), 0), (inside,)
        inside = _shifted_sum(to_in, bits[pos]) if bits[pos] else {}
    field = (1 << width) - 1
    return {tuple(packed >> width * v & field for v in range(algebra.n)): c
            for packed, c in _shifted_sum((out, inside), 0).items()}


def _shifted_sum(tables: Sequence[Dict[int, int]], bit: int) -> Dict[int, int]:
    """The sum of the count tables, each packed profile raised by ``bit``."""
    out: Dict[int, int] = {}
    for table in tables:
        for packed, c in table.items():
            out[packed + bit] = out.get(packed + bit, 0) + c
    return out


def _convolve(a: Dict[RankVec, int], b: Dict[RankVec, int]) -> Dict[RankVec, int]:
    out: Dict[RankVec, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def chi_lf(m: AModule, e: Sequence[int]) -> int:
    """Euler characteristic of the locally free submodule Grassmannian,
    read from ``chi_table``."""
    if any(x < 0 for x in e):
        raise DomainError("rank vectors are componentwise nonnegative")
    if not is_locally_free(m):
        raise DomainError("ambient module must be locally free")
    return chi_table(m).entries.get(tuple(e), 0)


class ChiTable:
    """All Euler characteristics chi(e) for 0 <= e <= rank M."""

    __slots__ = ("entries",)

    def __init__(self, entries: Dict[RankVec, int]):
        self.entries = dict(sorted(entries.items()))


def chi_table(m: AModule) -> ChiTable:
    """Tabulate chi over the full rank range, with basic sanity checks.

    Kept in the tube's module memo (``amod._memoised``); callers must not
    mutate it."""
    return _memoised(m.algebra, ("chi table", _summands_content(m)), lambda: _chi_table(m))


def _chi_table(m: AModule) -> ChiTable:
    """The convolution of the profile counts of m's indecomposable
    summands, each profile halved at the loop vertex to a rank vector."""
    alg = m.algebra
    rank = rank_vector(m)
    counts: Dict[RankVec, int] = {(0,) * alg.n: 1}
    for piece in _indec_summands(m):
        counts = _convolve(counts, _string_data(piece)[1])
    lv = loop_vertex(alg) - 1
    entries: Dict[RankVec, int] = {}
    for profile, c in counts.items():
        e = tuple(
            x // 2 if v == lv else x for v, x in enumerate(profile)
        )
        if profile[lv] % 2:
            raise ConsistencyError("admissible subset with odd loop-vertex dimension")
        entries[e] = entries.get(e, 0) + c
    zero = (0,) * alg.n
    if entries.get(zero) != 1 or entries.get(rank) != 1:
        raise ConsistencyError("chi table misses the zero or the full submodule")
    for e, c in entries.items():
        if c < 0 or any(x < 0 or x > r for x, r in zip(e, rank)):
            raise ConsistencyError("chi table entry out of range")
    return ChiTable(entries)


# -- finite-field oracle --------------------------------------------------------


def _first_primes(k: int) -> List[int]:
    primes = []
    c = 2
    while len(primes) < k:
        if all(c % p for p in primes):
            primes.append(c)
        c += 1
    return primes


def _mod_rref(rows: List[List[int]], p: int) -> List[List[int]]:
    rows = [list(r) for r in rows]
    if not rows:
        return rows
    ncols = len(rows[0])
    pr = 0
    for pc in range(ncols):
        piv = None
        for i in range(pr, len(rows)):
            if rows[i][pc] % p:
                piv = i
                break
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        inv = pow(rows[pr][pc], -1, p)
        rows[pr] = [(x * inv) % p for x in rows[pr]]
        for i in range(len(rows)):
            if i != pr and rows[i][pc] % p:
                f = rows[i][pc]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[pr])]
        pr += 1
        if pr == len(rows):
            break
    return [r for r in rows if any(x % p for x in r)]


def _mod_rank(rows: List[List[int]], p: int) -> int:
    return len(_mod_rref(rows, p))


def _subspaces(dim: int, ambient: int, p: int) -> Iterable[List[List[int]]]:
    """All dim-dimensional subspaces of F_p^ambient as canonical RREF bases."""
    if dim == 0:
        yield []
        return
    if dim > ambient:
        return
    for pivots in combinations(range(ambient), dim):
        # free RREF entries: non-pivot columns to the right of each pivot
        free_positions = []
        for r, pc in enumerate(pivots):
            for c in range(pc + 1, ambient):
                if c in pivots:
                    continue
                free_positions.append((r, c))
        for values in product(range(p), repeat=len(free_positions)):
            rows = [[0] * ambient for _ in range(dim)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), val in zip(free_positions, values):
                rows[r][c] = val
            yield rows


def _in_rowspace(rows: List[List[int]], vec: List[int], p: int) -> bool:
    """Whether vec lies in the span of ``rows``, a basis in RREF over F_p as
    ``_subspaces`` yields it, so each row's first 1 is its pivot.  A pivot
    column is zero in the other rows, so subtracting vec[pc] times the row
    with pivot pc clears vec at pc and at no other pivot; vec is in the
    span iff nothing is left."""
    for row in rows:
        pc = row.index(1)
        f = vec[pc] % p
        if f:
            vec = [(x - f * y) % p for x, y in zip(vec, row)]
    return not any(x % p for x in vec)


def _point_data(m: AModule) -> Tuple[tuple, dict]:
    """The rows of each arrow matrix of m, checked once to be monomial with
    entries 0 and +-1, and a dict for what the point count enumerates on m,
    both kept on m; any other module keeps nothing.

    The entries 0 and +-1 are zero or units mod every prime, and with at
    most one nonzero entry per row and per column every arrow sends each
    basis vector to +-1 times one basis vector or to zero, over every F_p:
    the count reads a module with the same coefficient quiver at every
    prime."""
    if m._points is None:
        # entries are in normal form: an int exactly when integral
        if any(type(x) is not int or x not in (0, 1, -1)
               for mat in m.mats for row in mat.rows for x in row):
            raise OracleError("oracle needs integral arrow entries 0 or +-1")
        if not all(is_monomial(mat) for mat in m.mats):
            raise OracleError("oracle needs monomial arrow matrices")
        m._points = (tuple(mat.rows for mat in m.mats), {})
    return m._points


def _count_points(m: AModule, ehat: RankVec, e_loop: int, p: int) -> int:
    """Number of F_p-points: arrow-stable subspace tuples of dimension ehat
    whose loop-vertex part is free over F_p[x]/(x^2).

    The tuples are chosen one vertex at a time, and each arrow between
    vertices already chosen is checked as soon as both its ends are.  The
    subspaces of each vertex, the loop's rank on each subspace and the
    images of each subspace's basis under each arrow are computed once per
    module, dimension and prime (``_point_data``)."""
    alg = m.algebra
    lv = loop_vertex(alg) - 1
    loop = alg.loop_arrow()
    mats, known = _point_data(m)

    def image(mat, w):
        return [sum(x * y for x, y in zip(row, w)) % p for row in mat]

    def subspaces(v: int) -> list:
        key = ("subspaces", v, ehat[v], p)
        if key not in known:
            known[key] = list(_subspaces(ehat[v], m.dims[v], p))
        return known[key]

    def images(a, s: int) -> list:
        # the images of the basis of subspace s at a's target
        j = a.tgt - 1
        key = ("images", a.idx, ehat[j], p, s)
        if key not in known:
            known[key] = [image(mats[a.idx], w) for w in subspaces(j)[s]]
        return known[key]

    spaces = [subspaces(v) for v in range(alg.n)]
    # loop-vertex freeness: the loop action on the subspace has rank e_loop
    key = ("loop ranks", ehat[lv], p)
    if key not in known:
        known[key] = [_mod_rank(images(loop, s), p) for s in range(len(spaces[lv]))]
    choices = [range(len(spaces[v])) for v in range(alg.n)]
    choices[lv] = [s for s, r in enumerate(known[key]) if r == e_loop]
    # the arrows to check once vertex v is chosen: those whose later end is v
    closing = [[a for a in alg.arrows if max(a.src, a.tgt) - 1 == v] for v in range(alg.n)]

    def stable(a, choice) -> bool:
        rows = spaces[a.src - 1][choice[a.src - 1]]
        return all(_in_rowspace(rows, img, p) for img in images(a, choice[a.tgt - 1]))

    def extend(choice: List[int]) -> int:
        v = len(choice)
        if v == alg.n:
            return 1
        count = 0
        for s in choices[v]:
            choice.append(s)
            if all(stable(a, choice) for a in closing[v]):
                count += extend(choice)
            choice.pop()
        return count

    return extend([])


def chi_lf_oracle_fq(m: AModule, e: Sequence[int]) -> int:
    """Finite-field point-count oracle for chi.

    Counts points over each prime, interpolates the counting polynomial and
    evaluates at one.  The interpolated degree must respect the ambient
    Grassmannian dimension bound; otherwise the oracle is inconclusive.
    """
    if any(x < 0 for x in e):
        raise DomainError("rank vectors are componentwise nonnegative")
    if not is_locally_free(m):
        raise DomainError("ambient module must be locally free")
    key = ("oracle", _content(m), tuple(e))
    return _memoised(m.algebra, key, lambda: _oracle_count(m, e))


def _oracle_count(m: AModule, e: Sequence[int]) -> int:
    alg = m.algebra
    ehat = _hat(alg, e)
    lv = loop_vertex(alg) - 1
    degree_bound = sum(d * (md - d) for d, md in zip(ehat, m.dims))
    if any(d > md for d, md in zip(ehat, m.dims)):
        return 0
    primes = _first_primes(degree_bound + 2)
    if len(primes) <= degree_bound:
        raise OracleError(
            f"oracle inconclusive: need more than {degree_bound} primes"
        )
    points = [(p, _count_points(m, ehat, e[lv], p)) for p in primes]
    # Lagrange interpolation through all sample points
    coeffs = _interpolate(points)
    if len(coeffs) - 1 > degree_bound:
        raise OracleError("oracle inconclusive: interpolation degree exceeds bound")
    value = sum(coeffs)  # evaluation at q = 1
    if value.denominator != 1:
        raise OracleError("oracle inconclusive: non-integral value at one")
    return int(value)


def _interpolate(points: Sequence[Tuple[int, int]]) -> list:
    """Exact rational coefficients (low degree first) of the polynomial
    through the points."""
    coeffs = [0] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [1]
        denom = 1
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            # multiply basis by (x - xj)
            new = [0] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] -= c * xj
                new[k + 1] += c
            basis = new
            denom *= xi - xj
        for k, c in enumerate(basis):
            coeffs[k] += exact_div(yi * c, denom)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


# -- the Auslander-Reiten recursion ----------------------------------------------


def verify_ar_recursion(l_mod: AModule, m_mod: AModule, n_mod: AModule) -> bool:
    """Check the factorization of chi along an AR sequence 0->L->M->N->0
    ending in a tau-rigid module: every fibre of the span map is an affine
    space except the empty one over (0, N)."""
    for mod in (l_mod, m_mod, n_mod):
        if not mod.is_zero() and not is_locally_free(mod):
            raise DomainError("the recursion applies to locally free modules")
    if tuple(
        lm + nm for lm, nm in zip(l_mod.dims, n_mod.dims)
    ) != m_mod.dims:
        raise DomainError("dimension vectors are not additive; not exact")
    key = ("AR recursion",) + tuple(_summands_content(mod) for mod in (l_mod, m_mod, n_mod))
    return _memoised(l_mod.algebra, key, lambda: _recursion_holds(l_mod, m_mod, n_mod))


def _recursion_holds(l_mod: AModule, m_mod: AModule, n_mod: AModule) -> bool:
    """chi table of M = (chi table of L) * (chi table of N) - [rank N]."""
    expected = _convolve(chi_table(l_mod).entries, chi_table(n_mod).entries)
    rank_n = rank_vector(n_mod)
    expected[rank_n] = expected.get(rank_n, 0) - 1
    expected = {k: v for k, v in expected.items() if v}
    return expected == {k: v for k, v in chi_table(m_mod).entries.items() if v}


def ar_sequences_ending_at_tau_rigid(algebra: FinDimAlgebra):
    """AR sequences of the module category ending in tau-rigid modules.

    These are the functor images of the tube AR triangles whose end terms
    avoid the shifted summands; yields (L, M, N, end_object) with M given as
    the direct sum of the middle functor images.
    """
    from .tube import all_rigid_indecs

    tube = algebra.tube
    sigma = _sigma_summand_index(algebra)
    for x in all_rigid_indecs(tube):
        # x is a summand of T exactly when tau x is a shifted summand
        if x in sigma or tube.tau(x) in sigma:
            continue
        m_mod = direct_sum([apply_F(algebra, y) for y in tube.ar_middle(x)])
        yield apply_F(algebra, tube.tau(x)), m_mod, apply_F(algebra, x), x
