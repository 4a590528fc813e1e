"""String combinatorics for the gentle endomorphism algebras.

Every indecomposable module here is a string module.  This module builds
string modules from words, enumerates all strings of an algebra, and
normalizes a module into string form: a basis in which every arrow matrix
is zero/one with at most one nonzero entry per row and per column.

For modules carrying functor provenance the normalization is a pure
rescaling sweep: in the tube/shift-stratum splitting the arrow matrices are
already monomial, so it suffices to propagate scale factors breadth-first
along the string and read off the word.  Modules without provenance are
matched against the enumerated string modules through an explicit
isomorphism.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import ExactMatrix, exact_div, rank as mat_rank
from .endo import FinDimAlgebra
from .tube import ConsistencyError
from .amod import AModule, DomainError, ModMap, hom_A_basis


class NotStringModuleError(DomainError):
    pass


class Letter(NamedTuple):
    arrow_idx: int
    inverse: bool

    def key(self):
        return (self.arrow_idx, self.inverse)


class StringWord:
    """A reduced walk in the quiver; ``letters`` empty means a lazy path."""

    __slots__ = ("letters", "trivial_vertex")

    def __init__(self, letters: Sequence[Letter] = (), trivial_vertex: Optional[int] = None):
        self.letters = tuple(letters)
        self.trivial_vertex = trivial_vertex
        if not self.letters and trivial_vertex is None:
            raise DomainError("a trivial string needs its vertex")

    def length(self) -> int:
        return len(self.letters)

    def inverse(self) -> "StringWord":
        if not self.letters:
            return self
        return StringWord(tuple(Letter(l.arrow_idx, not l.inverse) for l in reversed(self.letters)))

    def canonical(self) -> "StringWord":
        if not self.letters:
            return self
        other = self.inverse()
        return self if [l.key() for l in self.letters] <= [l.key() for l in other.letters] else other

    def key(self):
        if not self.letters:
            return ("1", self.trivial_vertex)
        return tuple(l.key() for l in self.letters)

    def __eq__(self, other):
        return isinstance(other, StringWord) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def _letter_source(algebra: FinDimAlgebra, l: Letter) -> int:
    a = algebra.arrows[l.arrow_idx]
    return a.tgt if l.inverse else a.src


def _letter_target(algebra: FinDimAlgebra, l: Letter) -> int:
    a = algebra.arrows[l.arrow_idx]
    return a.src if l.inverse else a.tgt


def word_vertices(algebra: FinDimAlgebra, word: StringWord) -> List[int]:
    """The vertices u(0), ..., u(r) visited by the word."""
    if not word.letters:
        return [word.trivial_vertex]
    verts = [_letter_source(algebra, word.letters[0])]
    for l in word.letters:
        verts.append(_letter_target(algebra, l))
    return verts


def is_valid_string(algebra: FinDimAlgebra, word: StringWord) -> bool:
    if not word.letters:
        return 1 <= word.trivial_vertex <= algebra.n
    rel = {(f.idx, s.idx) for f, s in algebra.relation_pairs()}
    prev = None
    for l in word.letters:
        if prev is not None:
            if _letter_target(algebra, prev) != _letter_source(algebra, l):
                return False
            if prev.arrow_idx == l.arrow_idx and prev.inverse != l.inverse:
                return False
            if not prev.inverse and not l.inverse:
                if (prev.arrow_idx, l.arrow_idx) in rel:
                    return False
            if prev.inverse and l.inverse:
                if (l.arrow_idx, prev.arrow_idx) in rel:
                    return False
        prev = l
    return True


def string_module(algebra: FinDimAlgebra, word: StringWord) -> AModule:
    """The string module of a word, with zero/one arrow matrices."""
    if not is_valid_string(algebra, word):
        raise DomainError("not a valid string")
    verts = word_vertices(algebra, word)
    n = algebra.n
    positions: List[List[int]] = [[] for _ in range(n)]
    for pos, v in enumerate(verts):
        positions[v - 1].append(pos)
    dims = [len(p) for p in positions]
    index_at: Dict[int, int] = {}
    for v in range(n):
        for r, pos in enumerate(positions[v]):
            index_at[pos] = r
    mats = []
    for a in algebra.arrows:
        entries = {}
        for i, l in enumerate(word.letters, start=1):
            if l.arrow_idx != a.idx:
                continue
            if not l.inverse:
                # action sends position i to position i-1
                entries[(index_at[i - 1], index_at[i])] = 1
            else:
                entries[(index_at[i], index_at[i - 1])] = 1
        rows = [
            [entries.get((r, c), 0) for c in range(dims[a.tgt - 1])]
            for r in range(dims[a.src - 1])
        ]
        mats.append(ExactMatrix(rows, ncols=dims[a.tgt - 1]))
    return AModule(algebra, dims, mats, check=True)


def enumerate_strings(algebra: FinDimAlgebra) -> List[StringWord]:
    """All strings of the algebra, one representative per inverse pair."""
    letters = [Letter(a.idx, False) for a in algebra.arrows] + [
        Letter(a.idx, True) for a in algebra.arrows
    ]
    out: Dict[tuple, StringWord] = {}
    for v in range(1, algebra.n + 1):
        w = StringWord((), trivial_vertex=v)
        out[w.key()] = w
    cap = 4 * algebra.dim + 8

    def extend(current: List[Letter]):
        if len(current) > cap:
            raise ConsistencyError("string enumeration exceeded the length cap")
        word = StringWord(tuple(current))
        canon = word.canonical()
        out.setdefault(canon.key(), canon)
        for l in letters:
            candidate = current + [l]
            if is_valid_string(algebra, StringWord(tuple(candidate))):
                extend(candidate)

    for l in letters:
        extend([l])
    return sorted(out.values(), key=lambda w: (w.length(), w.key()))


class StringBasis(NamedTuple):
    """String form of a module: word, positions, canonical matrices.

    ``nodes`` lists, per word position, the vertex (1-based); ``edges`` the
    action edges (from_pos, to_pos, arrow_idx); ``module`` is the rebuilt
    zero/one string module; ``iso`` an explicit isomorphism from the input.
    """

    word: StringWord
    nodes: Tuple[int, ...]
    edges: Tuple[Tuple[int, int, int], ...]
    module: AModule
    iso: Optional[ModMap]


def _monomial_entries(m: ExactMatrix) -> List[Tuple[int, int, Fraction]]:
    out = []
    for r, row in enumerate(m.rows):
        for c, x in enumerate(row):
            if x:
                out.append((r, c, x))
    return out


def string_normal_form(m: AModule) -> StringBasis:
    """Normalize an indecomposable module into string form.

    Modules with functor provenance are already monomial in the stratum
    splitting; the sweep checks this shape, rescales basis vectors along the
    string and reads off the word.  Anything else falls back to isomorphism
    matching against the enumerated strings.
    """
    if m.is_zero():
        raise NotStringModuleError("the zero module is not a string module")
    alg = m.algebra
    node_list = [(v, r) for v in range(alg.n) for r in range(m.dims[v])]
    node_pos = {node: i for i, node in enumerate(node_list)}
    edges = []  # (from_node, to_node, arrow_idx, value)
    for a in alg.arrows:
        mat = m.mats[a.idx]
        ents = _monomial_entries(mat)
        rows_seen = {}
        cols_seen = {}
        for r, c, x in ents:
            if r in rows_seen or c in cols_seen:
                return _string_form_by_matching(m)
            rows_seen[r] = True
            cols_seen[c] = True
            edges.append(
                (node_pos[(a.tgt - 1, c)], node_pos[(a.src - 1, r)], a.idx, x)
            )
    adjacency: Dict[int, List[tuple]] = {i: [] for i in range(len(node_list))}
    for u, w, aidx, x in edges:
        adjacency[u].append((w, aidx, x, True))
        adjacency[w].append((u, aidx, x, False))
    degrees = {i: len(adjacency[i]) for i in adjacency}
    if any(d > 2 for d in degrees.values()):
        return _string_form_by_matching(m)
    if len(edges) != len(node_list) - 1:
        return _string_form_by_matching(m)
    endpoints = sorted(i for i, d in degrees.items() if d <= 1)
    if len(node_list) == 1:
        start = 0
    else:
        if len(endpoints) != 2:
            return _string_form_by_matching(m)
        start = endpoints[0]
    # walk the path
    order = [start]
    walk_edges: List[Tuple[int, int, int, Fraction, bool]] = []
    prev = None
    current = start
    while len(order) < len(node_list):
        nxt = [e for e in adjacency[current] if e[0] != prev]
        if len(nxt) != 1:
            return _string_form_by_matching(m)
        w, aidx, x, forward_from_current = nxt[0]
        walk_edges.append((current, w, aidx, x, forward_from_current))
        prev = current
        current = w
        order.append(w)
    # letters: the action of a forward letter runs from the later word
    # position to the earlier one
    letters = []
    for u, w, aidx, x, action_from_u in walk_edges:
        letters.append(Letter(aidx, inverse=action_from_u))
    word = StringWord(tuple(letters)) if letters else StringWord(
        (), trivial_vertex=node_list[start][0] + 1
    )
    canon = word.canonical()
    if canon is not word:
        order = list(reversed(order))
        word = canon
    if not is_valid_string(alg, word):
        raise NotStringModuleError("recovered walk is not a string")
    expected_vertices = word_vertices(alg, word)
    if [node_list[i][0] + 1 for i in order] != expected_vertices:
        raise NotStringModuleError("walk vertices do not match the word")
    canonical_module = string_module(alg, word)
    # rescale the original basis so every edge entry becomes one, giving an
    # explicit isomorphism onto the canonical string module
    scale = {order[0]: 1}
    edge_by_pair = {}
    for u, w, aidx, x, action_from_u in walk_edges:
        # absolute action direction: u -> w when action_from_u holds
        edge_by_pair[(u, w)] = (aidx, x, action_from_u)
        edge_by_pair[(w, u)] = (aidx, x, not action_from_u)
    for i in range(1, len(order)):
        u, w = order[i - 1], order[i]
        aidx, x, action_u_to_w = edge_by_pair[(u, w)]
        # an action edge s -> t with entry x and scales phi(z) = s_z e_z
        # commutes with the unit canonical action exactly when x s_t = s_s
        if action_u_to_w:
            scale[w] = exact_div(scale[u], x)
        else:
            scale[w] = x * scale[u]
    # build iso vertex maps: original basis vector -> scale * canonical basis vector
    word_verts = expected_vertices
    vertex_slot: Dict[int, int] = {}
    counters = [0] * alg.n
    for pos, v in enumerate(word_verts):
        vertex_slot[pos] = counters[v - 1]
        counters[v - 1] += 1
    iso_mats = []
    for v in range(alg.n):
        mat = [[0] * m.dims[v] for _ in range(canonical_module.dims[v])]
        for pos, node_idx in enumerate(order):
            nv, nr = node_list[node_idx]
            if nv != v:
                continue
            mat[vertex_slot[pos]][nr] = scale[node_idx]
        iso_mats.append(ExactMatrix(mat, ncols=m.dims[v]))
    iso = ModMap(m, canonical_module, iso_mats)
    if not iso.commutes() or not iso.is_injective() or not iso.is_surjective():
        raise NotStringModuleError("rescaling sweep failed to produce an isomorphism")
    nodes = tuple(word_verts)
    action_edges = _word_action_edges(word)
    return StringBasis(word, nodes, action_edges, canonical_module, iso)


def _word_action_edges(word: StringWord) -> Tuple[Tuple[int, int, int], ...]:
    out = []
    for i, l in enumerate(word.letters, start=1):
        if l.inverse:
            out.append((i - 1, i, l.arrow_idx))
        else:
            out.append((i, i - 1, l.arrow_idx))
    return tuple(out)


def _string_form_by_matching(m: AModule) -> StringBasis:
    """Match a module against the enumerated strings via an explicit iso."""
    alg = m.algebra
    for word in enumerate_strings(alg):
        cand = string_module(alg, word)
        if cand.dims != m.dims:
            continue
        iso = _find_isomorphism(m, cand)
        if iso is not None:
            return StringBasis(
                word, tuple(word_vertices(alg, word)), _word_action_edges(word), cand, iso
            )
    raise NotStringModuleError("module matches no string module")


def _find_isomorphism(m: AModule, n_mod: AModule) -> Optional[ModMap]:
    """An isomorphism M -> N taken from the basis of Hom(M, N), or ``None``
    if M and N are not isomorphic.

    For a string module N this is exact.  End(N) is local (Butler-Ringel,
    Comm. Algebra 15, 1987), so if psi: M -> N is an isomorphism, the
    non-isomorphisms in Hom(M, N) form the proper subspace psi o rad End(M).
    A basis cannot lie inside a proper subspace, so some basis element is an
    isomorphism.
    """
    for phi in hom_A_basis(m, n_mod):
        if all(mat_rank(mat) == mat.nrows == mat.ncols for mat in phi.mats):
            return phi
    return None
