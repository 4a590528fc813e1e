"""Exact linear algebra over the rationals.

Everything downstream (Hom spaces, Ext cokernels, Euler characteristics)
is integer or rational valued, so all matrix arithmetic here is done with
``fractions.Fraction`` entries and no floating point is used anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

Vector = tuple  # tuple of Fraction


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class ExactMatrix:
    """A dense matrix with exact rational entries.

    Instances are treated as immutable: no method mutates ``self``.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[Sequence], ncols: Optional[int] = None):
        rows = [tuple(_frac(x) for x in r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0 if ncols is None else ncols
        if ncols is not None and rows and width != ncols:
            raise ValueError("ncols mismatch")
        self.rows = tuple(rows)
        self.nrows = len(rows)
        self.ncols = width

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "ExactMatrix":
        row = (Fraction(0),) * ncols
        return cls([row] * nrows, ncols=ncols)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], nrows: int) -> "ExactMatrix":
        cols = [tuple(_frac(x) for x in c) for c in cols]
        for c in cols:
            if len(c) != nrows:
                raise ValueError("column length mismatch")
        return cls([[c[i] for c in cols] for i in range(nrows)], ncols=len(cols))

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    def mul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        ot = other.transpose().rows
        return ExactMatrix(
            [[_dot(r, c) for c in ot] for r in self.rows], ncols=other.ncols
        )

    def add(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix sum")
        return ExactMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
            ncols=self.ncols,
        )

    def scale(self, c) -> "ExactMatrix":
        c = _frac(c)
        return ExactMatrix([[c * x for x in r] for r in self.rows], ncols=self.ncols)

    def neg(self) -> "ExactMatrix":
        return self.scale(-1)

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(_dot(r, v) for r in self.rows)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"ExactMatrix[{self.nrows}x{self.ncols}: {body}]"


def _dot(u: Sequence, v: Sequence) -> Fraction:
    s = Fraction(0)
    for a, b in zip(u, v):
        if a and b:
            s += a * b
    return s


class RrefResult(NamedTuple):
    matrix: ExactMatrix
    pivots: tuple
    rank: int


def rref(m: ExactMatrix) -> RrefResult:
    """Reduced row echelon form with leading ones.

    Pivots are chosen left to right, first nonzero entry in each column,
    which makes the result (and everything derived from it) deterministic.
    """
    rows = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot_row = None
        for i in range(pr, nrows):
            if rows[i][pc] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        lead = rows[pr][pc]
        if lead != 1:
            rows[pr] = [x / lead for x in rows[pr]]
        for i in range(nrows):
            if i != pr and rows[i][pc] != 0:
                f = rows[i][pc]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return RrefResult(ExactMatrix(rows, ncols=ncols), tuple(pivots), len(pivots))


def rank(m: ExactMatrix) -> int:
    return rref(m).rank


def kernel_basis(m: ExactMatrix) -> list:
    """Basis of the right kernel {v : M v = 0}.

    One basis vector per free column, with entry 1 at the free column; the
    size of the returned list is ``ncols - rank``.
    """
    red, pivots, rk = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m.ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red.rows[r][fc]
        basis.append(tuple(v))
    return basis


def solve(m: ExactMatrix, b: Sequence) -> Optional[Vector]:
    """One solution of M x = b, or None if inconsistent."""
    if len(b) != m.nrows:
        raise ValueError("rhs length mismatch")
    aug = ExactMatrix([list(r) + [_frac(x)] for r, x in zip(m.rows, b)])
    red, pivots, rk = rref(aug)
    if m.ncols in pivots:
        return None
    x = [Fraction(0)] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = red.rows[r][m.ncols]
    return tuple(x)


def coords_in_span(vectors: Sequence[Sequence], target: Sequence) -> Optional[Vector]:
    """Coefficients c with sum_i c_i vectors[i] = target, or None."""
    n = len(target)
    mat = ExactMatrix.from_columns(list(vectors), n) if vectors else ExactMatrix.zero(n, 0)
    return solve(mat, target)


def span_rank(vectors: Iterable[Sequence]) -> int:
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        return 0
    return rank(ExactMatrix(vecs))


def independent_units(span: Iterable[Sequence], positions: Iterable[int], dim: int) -> List[int]:
    """Greedy lift of a basis modulo a span.

    Returns the positions p, in the given order, whose unit vector e_p of
    length ``dim`` is independent of ``span`` and of the units kept before
    it.  Every vector is reduced once against an incremental echelon basis.
    """
    echelon = []  # (pivot, row): 1 at the pivot, 0 at every earlier pivot

    def insert(v) -> bool:
        if len(v) != dim:
            raise ValueError("vector length mismatch")
        v = list(v)
        for pc, row in echelon:
            f = v[pc]
            if f:
                v = [x - f * y for x, y in zip(v, row)]
        pc = next((j for j, x in enumerate(v) if x), None)
        if pc is None:
            return False
        inv = 1 / Fraction(v[pc])
        echelon.append((pc, [x * inv for x in v]))
        return True

    for v in span:
        insert(v)
    chosen = []
    for p in positions:
        unit = [0] * dim
        unit[p] = 1
        if insert(unit):
            chosen.append(p)
    return chosen


def flatten_blocks(blocks: Iterable[ExactMatrix]) -> Vector:
    """The entries of a sequence of matrices, block by block, row by row."""
    return tuple(x for b in blocks for row in b.rows for x in row)


def unflatten_blocks(flat: Sequence, shapes: Iterable[Tuple[int, int]]) -> tuple:
    """Inverse of :func:`flatten_blocks` for blocks of the given (rows, cols)."""
    blocks = []
    pos = 0
    for r, c in shapes:
        blocks.append(ExactMatrix([flat[pos + i * c : pos + (i + 1) * c] for i in range(r)], ncols=c))
        pos += r * c
    return tuple(blocks)


def intertwiner_basis(src_dims: Sequence[int], tgt_dims: Sequence[int], arrows) -> list:
    """Basis of the families of maps phi_v: k^src_dims[v] -> k^tgt_dims[v]
    with phi_t A = B phi_s for every arrow ``(s, t, A, B)``.

    ``A`` maps the source space at s to the one at t, ``B`` does the same for
    the target spaces.  Each basis element is a tuple of matrices, one per
    vertex; the basis is the kernel basis of the stacked equations.
    """
    shapes = list(zip(tgt_dims, src_dims))
    offsets = []
    total = 0
    for r, c in shapes:
        offsets.append(total)
        total += r * c
    if total == 0:
        return []
    rows = []
    for s, t, a, b in arrows:
        # one equation per entry (r, c) of the two composites src_s -> tgt_t
        for r in range(tgt_dims[t]):
            for c in range(src_dims[s]):
                row = [Fraction(0)] * total
                for k in range(src_dims[t]):
                    if a.rows[k][c]:
                        row[offsets[t] + r * src_dims[t] + k] += a.rows[k][c]
                for k in range(tgt_dims[s]):
                    if b.rows[r][k]:
                        row[offsets[s] + k * src_dims[s] + c] -= b.rows[r][k]
                if any(row):
                    rows.append(row)
    if rows:
        kernel = kernel_basis(ExactMatrix(rows, ncols=total))
    else:
        kernel = [tuple(Fraction(int(i == k)) for i in range(total)) for k in range(total)]
    return [unflatten_blocks(vec, shapes) for vec in kernel]


class QuotientSpace:
    """Cokernel of a family of vectors inside a coordinate space.

    Stores the row echelon form of the subspace being quotiented out; the
    canonical basis of the quotient consists of the unit vectors at the
    non-pivot coordinates, so ``project`` followed by ``lift`` is a
    deterministic choice of representatives.
    """

    __slots__ = ("ambient_dim", "red_rows", "pivots", "nonpivots")

    def __init__(self, ambient_dim: int, spanning: Sequence[Sequence]):
        self.ambient_dim = ambient_dim
        spanning = [tuple(_frac(x) for x in v) for v in spanning]
        for v in spanning:
            if len(v) != ambient_dim:
                raise ValueError("vector length mismatch")
        if spanning:
            red, pivots, _ = rref(ExactMatrix(spanning))
            self.red_rows = red.rows[: len(pivots)]
            self.pivots = pivots
        else:
            self.red_rows = ()
            self.pivots = ()
        pivot_set = set(self.pivots)
        self.nonpivots = tuple(
            j for j in range(ambient_dim) if j not in pivot_set
        )

    @property
    def dim(self) -> int:
        return len(self.nonpivots)

    def project(self, v: Sequence) -> Vector:
        """Coordinates of v's class in the canonical quotient basis."""
        v = [_frac(x) for x in v]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        for row, pc in zip(self.red_rows, self.pivots):
            f = v[pc]
            if f:
                v = [x - f * y for x, y in zip(v, row)]
        return tuple(v[j] for j in self.nonpivots)

    def lift(self, coords: Sequence) -> Vector:
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        v = [Fraction(0)] * self.ambient_dim
        for c, j in zip(coords, self.nonpivots):
            v[j] = _frac(c)
        return tuple(v)
