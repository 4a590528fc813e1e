"""Fomin-Zelevinsky seeds, matrix mutation and finite-type atlases.

The atlas side is the ground truth for every bijection test: it enumerates
the full cluster pattern of an exchange matrix by breadth-first mutation and
collects the set of cluster variables as exact Laurent polynomials.
"""
from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import product
from operator import itemgetter, mul
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .laurent import LaurentPoly, lp_div_exact, LaurentError

IntMatrix = Tuple[Tuple[int, ...], ...]


class ClusterError(ValueError):
    pass


class NotFiniteTypeError(ClusterError):
    pass


def _freeze(b: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(int(x) for x in row) for row in b)


def _check_sign_skew(b: IntMatrix, pairs: Optional[Iterable[Tuple[int, int]]] = None) -> None:
    """ClusterError unless b_ij and b_ji have opposite signs (or are both
    zero) on each pair (i, j) of ``pairs``; on every pair by default."""
    if pairs is None:
        n = len(b)
        pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
    for i, j in pairs:
        x, y = b[i][j], b[j][i]
        if (x > 0) - (x < 0) != (y < 0) - (y > 0):
            raise ClusterError("matrix is not sign-skew-symmetric")


class ExchangeMatrix:
    """A sign-skew-symmetric integer matrix with zero diagonal.

    The public constructor is the checked boundary: it converts every entry
    with ``int()`` and checks the shape, the diagonal and sign-skew-symmetry
    on every pair of entries b_ij, b_ji.  ``_trusted`` checks nothing.
    ``Seed`` uses it for a simultaneous permutation of rows and columns,
    which preserves all three properties.  :func:`mutate_matrix` keeps a
    zero diagonal and the shape, but it preserves sign-skew-symmetry only
    for skew-symmetrizable matrices: ``[[0, -2, 1], [1, 0, -2], [-2, 1,
    0]]`` is sign-skew-symmetric, its mutation in direction 1 is not.  So
    mutation checks the pairs it changed before the result goes through
    ``_trusted``.  Every matrix reaches ``_trusted`` only from the checked
    constructor, a permutation or a checked mutation, so every
    ``ExchangeMatrix`` is sign-skew-symmetric.
    """

    __slots__ = ("n", "b")

    def __init__(self, b: Sequence[Sequence[int]]):
        b = _freeze(b)
        n = len(b)
        if any(len(row) != n for row in b):
            raise ClusterError("exchange matrix must be square")
        if any(b[i][i] != 0 for i in range(n)):
            raise ClusterError("exchange matrix must have zero diagonal")
        _check_sign_skew(b)
        self.n = n
        self.b = b

    @classmethod
    def _trusted(cls, b: IntMatrix) -> "ExchangeMatrix":
        """A matrix over a square int tuple that is already known to be a
        valid exchange matrix; nothing is checked or converted."""
        m = object.__new__(cls)
        m.n = len(b)
        m.b = b
        return m

    def __eq__(self, other):
        return isinstance(other, ExchangeMatrix) and self.b == other.b

    def __hash__(self):
        return hash(self.b)

    def __repr__(self):
        return f"ExchangeMatrix({list(map(list, self.b))})"


def mutate_matrix(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation in direction k (1-based); involutive.

    The result keeps a zero diagonal, but not always sign-skew-symmetry (see
    :class:`ExchangeMatrix`), so that is checked; ClusterError when it fails.
    Off row and column k, b_ij changes only where b_ik b_kj > 0, and since B
    is sign-skew-symmetric b_kj has the sign opposite to b_jk.  So the
    changed pairs are exactly i with b_ik > 0 against j with b_jk < 0;
    row and column k are negated together, and every other pair keeps the
    entries B checked.  The check reads only the changed pairs, which is
    therefore the whole check.
    """
    n = B.n
    if not 1 <= k <= n:
        raise ClusterError(f"mutation direction {k} out of range")
    k0 = k - 1
    b = B.b
    bk = b[k0]
    new = []
    pos, neg = [], []
    for i, row in enumerate(b):
        # b'_ij = b_ij + sgn(b_ik) max(b_ik b_kj, 0) off row and column k
        c = row[k0]
        if i == k0:
            r = [-x for x in row]
        elif c > 0:
            pos.append(i)
            r = [x + c * y if y > 0 else x for x, y in zip(row, bk)]
        elif c < 0:
            neg.append(i)
            r = [x - c * y if y < 0 else x for x, y in zip(row, bk)]
        else:
            new.append(row)
            continue
        r[k0] = -c
        new.append(tuple(r))
    new = tuple(new)
    _check_sign_skew(new, product(pos, neg))
    return ExchangeMatrix._trusted(new)


def cartan_counterpart(B: ExchangeMatrix) -> IntMatrix:
    """Generalized Cartan matrix: 2 on the diagonal, -|b_ij| off it."""
    n = B.n
    return tuple(
        tuple(2 if i == j else -abs(B.b[i][j]) for j in range(n)) for i in range(n)
    )


class Seed:
    """An exchange matrix together with a labelled cluster of Laurent polynomials.

    ``texts`` holds the canonical text of each cluster entry, in cluster
    order; the constructor builds them for its distinctness check and keeps
    them for the canonical order and the exchange-relation keys.
    """

    __slots__ = ("matrix", "cluster", "texts")

    def __init__(self, matrix: ExchangeMatrix, cluster: Sequence[LaurentPoly]):
        cluster = tuple(cluster)
        if len(cluster) != matrix.n:
            raise ClusterError("cluster size must match matrix rank")
        texts = tuple(c.canonical_text() for c in cluster)
        if len(set(texts)) != len(texts):
            raise ClusterError("cluster entries must be pairwise distinct")
        self.matrix = matrix
        self.cluster = cluster
        self.texts = texts

    @classmethod
    def _trusted(cls, matrix: ExchangeMatrix, cluster: tuple, texts: tuple) -> "Seed":
        """A seed over a permutation or a checked mutation of a checked seed;
        nothing is checked."""
        s = object.__new__(cls)
        s.matrix = matrix
        s.cluster = cluster
        s.texts = texts
        return s

    @classmethod
    def initial(cls, matrix: ExchangeMatrix) -> "Seed":
        n = matrix.n
        return cls(matrix, [LaurentPoly.variable(n, i) for i in range(1, n + 1)])

    def _canonical_order(self) -> Tuple[List[int], tuple]:
        """The order that sorts the cluster by canonical text, and the key of
        the seed in that order: its permuted matrix and the sorted texts."""
        texts = self.texts
        order = sorted(range(len(texts)), key=texts.__getitem__)
        b = self.matrix.b
        if len(order) == 1:  # itemgetter of one index returns the bare item
            return order, (b, texts)
        pick = itemgetter(*order)
        return order, (tuple(map(pick, pick(b))), pick(texts))

    def _permuted(self, order: List[int], key: tuple) -> "Seed":
        """This seed in the given order, from the key ``_canonical_order``
        returned with it."""
        if order == list(range(len(order))):
            return self
        new_b, texts = key
        return Seed._trusted(ExchangeMatrix._trusted(new_b),
                             tuple(self.cluster[i] for i in order), texts)

    def canonical(self) -> "Seed":
        """Sort the cluster by canonical text and permute the matrix along.

        A seed that is already in canonical order is returned as it is.
        """
        return self._permuted(*self._canonical_order())

    def key(self) -> tuple:
        return self._canonical_order()[1]

    def __eq__(self, other):
        return isinstance(other, Seed) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def _product(factors: List[LaurentPoly], nvars: int) -> LaurentPoly:
    """The product of the factors; the empty product is 1."""
    return reduce(mul, factors) if factors else LaurentPoly.one(nvars)


def _ends(p: LaurentPoly) -> Tuple[int, int]:
    """The packed keys of the lowest and highest exponents of a nonzero p in
    lexicographic order, which is the integer order of the keys."""
    return min(p.terms), max(p.terms)


VariableTable = Dict[Tuple[int, int], LaurentPoly]
RelationTable = Dict[Tuple[str, tuple], LaurentPoly]


def _exchanged_variable(seed: Seed, k0: int, known: VariableTable) -> LaurentPoly:
    """x_k' for position k0 of the seed: the binomial over x_k, taken from
    ``known`` or divided, and checked by the product identity."""
    b = seed.matrix.b
    x_k = seed.cluster[k0]
    nvars = x_k.nvars
    pos = [p ** row[k0] for p, row in zip(seed.cluster, b) if row[k0] > 0]
    neg = [p ** -row[k0] for p, row in zip(seed.cluster, b) if row[k0] < 0]
    binomial = _product(pos, nvars) + _product(neg, nvars)
    key = None
    if binomial.terms and x_k.terms:  # _ends needs a nonzero polynomial
        (b_lo, b_hi), (x_lo, x_hi) = _ends(binomial), _ends(x_k)
        key = (b_lo - x_lo, b_hi - x_hi)
        cand = known.get(key)
        if cand is not None and cand * x_k == binomial:
            return cand
    try:
        new_var = lp_div_exact(binomial, x_k)
    except LaurentError as exc:
        raise ClusterError("seed not on a cluster pattern") from exc
    if new_var * x_k != binomial:
        raise ClusterError("seed not on a cluster pattern")
    if key is not None:
        # the product identity makes key the quotient's own ends
        known[key] = new_var
    return new_var


def _relation_key(seed: Seed, k0: int) -> Tuple[str, tuple]:
    """The exchange relation at position k0, exactly: the text of x_k and
    the binomial's two monomials as sorted (factor text, exponent) tuples,
    the pair ordered so that it does not depend on the sign of the column."""
    texts = seed.texts
    column = [row[k0] for row in seed.matrix.b]
    pos = tuple(sorted((t, e) for t, e in zip(texts, column) if e > 0))
    neg = tuple(sorted((t, -e) for t, e in zip(texts, column) if e < 0))
    return texts[k0], (pos, neg) if pos <= neg else (neg, pos)


def mutate_seed(
    seed: Seed,
    k: int,
    known: Optional[VariableTable] = None,
    relations: Optional[RelationTable] = None,
) -> Seed:
    """Seed mutation in direction k (1-based).

    The new variable x_k' is the exact quotient of the exchange binomial by
    the old variable x_k, and the product identity x_k' * x_k = binomial is
    checked.  The Laurent ring is an integral domain, so that identity
    determines x_k' by itself.

    Two tables are read and filled; each is a fresh empty one when not
    given.  ``known`` holds variables keyed by ``_ends``.  Lex order is
    translation-invariant, so the keys of the quotient's ends are the
    binomial's minus x_k's; the variable under that key is taken when it
    passes the product check.  Otherwise, on a miss or a failed check, the
    binomial is divided and the quotient registered in the table.  A key
    collision thus costs one more division, never a wrong variable.

    ``relations`` maps each exchange relation already proved to its new
    variable.  The key (see ``_relation_key``) is the canonical text
    of x_k and the binomial's monomials as (factor text, exponent) tuples.
    Canonical text determines a polynomial, so the key determines the
    equation x_k * x_k' = binomial, and a hit returns the stored x_k'
    without building the binomial or checking the product again.  After a
    passed check the relation is stored both ways, x_k -> x_k' and
    x_k' -> x_k, since the identity is symmetric; a failed check raises
    ClusterError and stores nothing.  Through :func:`enumerate_atlas` a
    rank-n atlas makes one product check per exchange relation and one
    division per new variable.

    The mutated seed keeps the parent's texts with the one new text in
    position k, and ClusterError is raised unless that text differs from
    the other entries', so it is built with the check the constructor would
    make on the whole cluster.
    """
    n = seed.matrix.n
    if not 1 <= k <= n:
        raise ClusterError(f"mutation direction {k} out of range")
    known = {} if known is None else known
    relations = {} if relations is None else relations
    k0 = k - 1
    relation = _relation_key(seed, k0)
    new_var = relations.get(relation)
    proved = new_var is None
    if proved:
        new_var = _exchanged_variable(seed, k0, known)
    new_text = new_var.canonical_text()
    texts = seed.texts[:k0] + (new_text,) + seed.texts[k0 + 1:]
    if texts.count(new_text) > 1:
        raise ClusterError("cluster entries must be pairwise distinct")
    cluster = seed.cluster[:k0] + (new_var,) + seed.cluster[k0 + 1:]
    mutated = Seed._trusted(mutate_matrix(seed.matrix, k), cluster, texts)
    if proved:
        relations[relation] = new_var
        relations[(new_text, relation[1])] = seed.cluster[k0]
    return mutated


class ClusterAtlas:
    """The full cluster pattern of a finite-type exchange matrix.

    ``seeds`` holds one canonical representative per unordered seed;
    ``variables`` is the set of all cluster variables; ``edges`` records the
    mutation graph as (seed index, direction, seed index) triples.
    """

    __slots__ = ("seeds", "variables", "edges")

    def __init__(self, seeds: List[Seed], variables: Set[LaurentPoly], edges):
        self.seeds = seeds
        self.variables = variables
        self.edges = edges

    def variable_texts(self) -> List[str]:
        return sorted(p.canonical_text() for p in self.variables)

    def to_json(self) -> dict:
        return {
            "seeds": [
                {
                    "b": [list(r) for r in s.matrix.b],
                    "cluster": [p.canonical_text() for p in s.cluster],
                }
                for s in self.seeds
            ],
            "variables": self.variable_texts(),
        }


def enumerate_atlas(B: ExchangeMatrix, cap: int = 10000) -> ClusterAtlas:
    """Breadth-first closure of the initial seed under all mutations.

    Seeds are deduplicated by canonical form, and each mutated seed's key is
    built once, from the texts its canonical order sorts by; only a new seed
    is permuted into that order.  Each exchange is computed once:
    mutation is an involution, so when mutating seed i in direction k gives
    seed j with the new variable at position k', the edge (j, k', i) is
    recorded and looked up when seed j is expanded.  A rank-n atlas with S
    seeds thus makes n * S / 2 exchanges.  Each exchange passes two tables
    to :func:`mutate_seed`: the exchange relations proved so far, so the
    atlas checks one product per exchange relation, and the variables found
    so far, so it divides once per new variable and its seeds share one
    object per variable.  A new seed shares all but its new variable with
    the seed it was mutated from, so only that variable is added to
    ``variables``.  Raises NotFiniteTypeError when more than ``cap`` seeds
    appear, which guards against non-finite input.
    """
    initial = Seed.initial(B).canonical()
    index: Dict[tuple, int] = {initial.key(): 0}
    seeds = [initial]
    variables: Set[LaurentPoly] = set(initial.cluster)
    known: VariableTable = {_ends(v): v for v in initial.cluster}
    relations: RelationTable = {}
    edges = []
    reverse: Dict[Tuple[int, int], int] = {}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        seed = seeds[i]
        for k in range(1, B.n + 1):
            j = reverse.pop((i, k), None)
            if j is None:
                mutated = mutate_seed(seed, k, known=known, relations=relations)
                order, key = mutated._canonical_order()
                j = index.get(key)
                if j is None:
                    if len(seeds) >= cap:
                        raise NotFiniteTypeError("not finite type within cap")
                    j = len(seeds)
                    index[key] = j
                    new = mutated._permuted(order, key)
                    seeds.append(new)
                    variables.add(mutated.cluster[k - 1])
                    queue.append(j)
                # seed j lists the cluster in this order, so the new
                # variable sits where position k - 1 of mutated went
                reverse[(j, order.index(k - 1) + 1)] = i
            edges.append((i, k, j))
    return ClusterAtlas(seeds, variables, edges)
