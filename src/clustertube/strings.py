"""String combinatorics for the gentle endomorphism algebras.

Every indecomposable module here is a string module.  This module builds
string modules from words and normalizes a module into string form: a
basis in which every arrow matrix is zero/one with at most one nonzero
entry per row and per column.

The normalization is a rescaling sweep.  The functor images and the
Auslander-Reiten translates the package builds are already monomial (every
arrow matrix has at most one nonzero entry per row and per column, and its
coefficient graph is a path), so it suffices to propagate scale factors
breadth-first along the path and read off the word.  A module that is not
of this shape raises ``NotStringModuleError``, even when it is isomorphic
to a string module: the sweep never searches for a change of basis.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import ExactMatrix, exact_div
from .endo import FinDimAlgebra
from .amod import AModule, DomainError, ModMap


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
    entries: List[Dict[Tuple[int, int], int]] = [{} for _ in algebra.arrows]
    for frm, to, aidx in _word_action_edges(word):
        entries[aidx][(index_at[to], index_at[frm])] = 1
    mats = []
    for a in algebra.arrows:
        rows = [
            [entries[a.idx].get((r, c), 0) for c in range(dims[a.tgt - 1])]
            for r in range(dims[a.src - 1])
        ]
        mats.append(ExactMatrix(rows, ncols=dims[a.tgt - 1]))
    return AModule(algebra, dims, mats, check=True)


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
    iso: ModMap


def is_monomial(mat: ExactMatrix) -> bool:
    """Whether every row and every column of mat has at most one nonzero entry."""
    return all(sum(map(bool, line)) <= 1 for line in (*mat.rows, *zip(*mat.rows)))


def string_normal_form(m: AModule) -> StringBasis:
    """Normalize an indecomposable module into string form.

    The sweep checks that the arrow entries of m form a path with one
    entry per row and per column of each arrow matrix, rescales basis
    vectors along the path and reads off the word.  A module of any other
    shape raises ``NotStringModuleError``.
    """
    if m.is_zero():
        raise NotStringModuleError("the zero module is not a string module")
    alg = m.algebra
    node_list = [(v, r) for v in range(alg.n) for r in range(m.dims[v])]
    node_pos = {node: i for i, node in enumerate(node_list)}
    edges = []  # (from_node, to_node, arrow_idx, value)
    for a in alg.arrows:
        mat = m.mats[a.idx]
        if not is_monomial(mat):
            raise NotStringModuleError("an arrow matrix is not monomial")
        edges += [(node_pos[(a.tgt - 1, c)], node_pos[(a.src - 1, r)], a.idx, x)
                  for r, row in enumerate(mat.rows) for c, x in enumerate(row) if x]
    adjacency: Dict[int, List[tuple]] = {i: [] for i in range(len(node_list))}
    for u, w, aidx, x in edges:
        adjacency[u].append((w, aidx, x, True))
        adjacency[w].append((u, aidx, x, False))
    degrees = {i: len(adjacency[i]) for i in adjacency}
    if any(d > 2 for d in degrees.values()):
        raise NotStringModuleError("a basis vector meets more than two arrow entries")
    if len(edges) != len(node_list) - 1:
        raise NotStringModuleError("the arrow entries do not form a tree")
    endpoints = sorted(i for i, d in degrees.items() if d <= 1)
    if len(node_list) == 1:
        start = 0
    else:
        if len(endpoints) != 2:
            raise NotStringModuleError("the arrow entries do not form a path")
        start = endpoints[0]
    # walk the path
    order = [start]
    walk_edges: List[Tuple[int, int, int, Fraction, bool]] = []
    prev = None
    current = start
    while len(order) < len(node_list):
        nxt = [e for e in adjacency[current] if e[0] != prev]
        if len(nxt) != 1:
            raise NotStringModuleError("the arrow entries do not form a path")
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
        walk_edges = [(w, u, aidx, x, not action_from_u)
                      for u, w, aidx, x, action_from_u in reversed(walk_edges)]
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
    for u, w, aidx, x, action_u_to_w in walk_edges:
        # an action edge s -> t with entry x and scales phi(z) = s_z e_z
        # commutes with the unit canonical action exactly when x s_t = s_s
        if action_u_to_w:
            scale[w] = exact_div(scale[u], x)
        else:
            scale[w] = x * scale[u]
    # build iso vertex maps: the basis vector at each word position goes to
    # its scale times the next canonical basis vector at its vertex
    iso_rows = [[[0] * m.dims[v] for _ in range(canonical_module.dims[v])] for v in range(alg.n)]
    slots = [0] * alg.n
    for node_idx in order:
        v, r = node_list[node_idx]
        iso_rows[v][slots[v]][r] = scale[node_idx]
        slots[v] += 1
    iso = ModMap(m, canonical_module,
                 [ExactMatrix(rows, ncols=m.dims[v]) for v, rows in enumerate(iso_rows)])
    if not iso.commutes() or not iso.is_injective() or not iso.is_surjective():
        raise NotStringModuleError("rescaling sweep failed to produce an isomorphism")
    return StringBasis(word, tuple(expected_vertices), _word_action_edges(word),
                       canonical_module, iso)


def _word_action_edges(word: StringWord) -> Tuple[Tuple[int, int, int], ...]:
    """The action edges (from_pos, to_pos, arrow_idx) of the word: letter i
    acts from position i to i - 1, an inverse letter the other way."""
    out = []
    for i, l in enumerate(word.letters, start=1):
        if l.inverse:
            out.append((i - 1, i, l.arrow_idx))
        else:
            out.append((i, i - 1, l.arrow_idx))
    return tuple(out)
