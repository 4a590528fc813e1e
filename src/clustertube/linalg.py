"""Exact linear algebra over the rationals.

Everything downstream (Hom spaces, Ext cokernels, Euler characteristics)
is integer or rational valued, and no floating point is used anywhere.

Entry contract: an exact rational is stored as a plain ``int`` when it is
integral and as a ``fractions.Fraction`` only when it is not (denominator
> 1).  ``_frac`` is the one place that normalises outside input: every
public function here runs the numbers it is given through it (except
``unflatten_blocks``, whose input comes from this module), and everything
it returns is normalised.  ``exact_div`` is the one division in the package;
it divides two ``int``s with ``divmod``, so a quotient is an ``int``
exactly when it is integral.  Most matrices here are 0/±1 with pivots ±1,
so their entries never leave ``int``.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

Vector = tuple  # tuple of normalised entries: int, or Fraction with denominator > 1


def _frac(x):
    """One exact rational in normal form: an ``int`` when integral, else a
    ``Fraction``."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def exact_div(a, b):
    """The quotient a / b of two exact rationals, in normal form.

    The only division in the package: ``int`` by ``int`` goes through
    ``divmod`` and stays an ``int`` when the division is exact.
    """
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _frac(Fraction(a) / Fraction(b))


class ExactMatrix:
    """A dense matrix with exact rational entries in normal form.

    Instances are treated as immutable: no method mutates ``self``.  The
    public constructor normalises every entry; operations on matrices build
    their results through ``_trusted``, which does no per-entry work.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[Sequence], ncols: Optional[int] = None):
        rows = tuple(tuple(map(_frac, r)) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0 if ncols is None else ncols
        if ncols is not None and rows and width != ncols:
            raise ValueError("ncols mismatch")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = width

    @classmethod
    def _trusted(cls, rows: tuple, ncols: int) -> "ExactMatrix":
        """A matrix over a tuple of equal-length row tuples whose entries are
        already in normal form; nothing is checked or converted."""
        m = object.__new__(cls)
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        return m

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls._trusted(((0,) * ncols,) * nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls._trusted(_unit_rows(n), n)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], nrows: int) -> "ExactMatrix":
        cols = [tuple(map(_frac, c)) for c in cols]
        for c in cols:
            if len(c) != nrows:
                raise ValueError("column length mismatch")
        rows = tuple(zip(*cols)) if cols else ((),) * nrows
        return cls._trusted(rows, len(cols))

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def mul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        if not (self.nrows and self.ncols and other.ncols):
            return ExactMatrix.zero(self.nrows, other.ncols)
        cols = tuple(zip(*other.rows))
        return ExactMatrix._trusted(
            tuple(tuple(_dot(r, c) for c in cols) for r in self.rows), other.ncols
        )

    def add(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix sum")
        return ExactMatrix._trusted(
            tuple(
                tuple(_normal(a + b) for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
            self.ncols,
        )

    def scale(self, c) -> "ExactMatrix":
        c = _frac(c)
        if c == 1:
            return self
        if c == -1:
            rows = tuple(tuple(-x for x in r) for r in self.rows)
        else:
            rows = tuple(tuple(_normal(c * x) for x in r) for r in self.rows)
        return ExactMatrix._trusted(rows, self.ncols)

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(_dot(r, v) for r in self.rows)

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

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


def _unit_rows(n: int) -> tuple:
    """The rows of the n x n identity: the unit vectors of length n."""
    zeros = (0,) * n
    return tuple(zeros[:i] + (1,) + zeros[i + 1 :] for i in range(n))


def _normal(x):
    """Normal form of a sum or product of normalised entries: only a
    ``Fraction`` result can have become integral."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _dot(u: Sequence, v: Sequence):
    s = 0
    for a, b in zip(u, v):
        if a and b:
            s += a * b
    return s if type(s) is int else _frac(s)


def _reduce(v: list, echelon: Sequence[Tuple[int, list]]) -> list:
    """Clear the pivot of each echelon row from ``v``, in order and in place.

    An echelon row is (pivot, nonzero entries as (column, value) pairs) with
    1 at its pivot and 0 at the pivots of the rows before it, so clearing the
    rows in order leaves ``v`` zero at every pivot.  Returns the multiple of
    each row that was subtracted.
    """
    factors = []
    for pc, entries in echelon:
        f = v[pc]
        factors.append(f)
        if f:
            for j, y in entries:
                x = v[j] - f * y
                v[j] = x if type(x) is int else _normal(x)
    return factors


def _echelon_row(v: list, pc: int) -> list:
    """The nonzero entries of v divided by its entry at pc, as (column, value)."""
    lead = v[pc]
    if lead == 1:
        return [(j, x) for j, x in enumerate(v) if x]
    if lead == -1:
        return [(j, -x) for j, x in enumerate(v) if x]
    return [(j, exact_div(x, lead)) for j, x in enumerate(v) if x]


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
            if rows[i][pc]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        echelon = [(pc, _echelon_row(rows[pr], pc))]
        prow = rows[pr] = [0] * ncols
        for j, y in echelon[0][1]:
            prow[j] = y
        for i in range(nrows):
            if i != pr and rows[i][pc]:
                _reduce(rows[i], echelon)
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    red = ExactMatrix._trusted(tuple(map(tuple, rows)), ncols)
    return RrefResult(red, tuple(pivots), len(pivots))


def rank(m: ExactMatrix) -> int:
    """The rank of m, by forward elimination only: each row is reduced by
    the independent rows before it, as ``SpanSolver.insert`` does."""
    echelon: List[Tuple[int, list]] = []
    for row in m.rows:
        v = list(row)
        _reduce(v, echelon)
        pc = next((j for j, x in enumerate(v) if x), None)
        if pc is not None:
            echelon.append((pc, _echelon_row(v, pc)))
    return len(echelon)


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
        v = [0] * m.ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red.rows[r][fc]
        basis.append(tuple(v))
    return basis


class SpanSolver:
    """Coordinates in a family of vectors, from one stored echelon form.

    ``coords(target)`` is a tuple c with sum_k c_k vectors[k] = target, or
    None when the target is outside the span.  A vector that depends on the
    ones before it gets coefficient 0, as a free column does when the
    augmented matrix [vectors | target] is row-reduced.  Each
    vector is reduced once, on ``insert``, and each echelon row keeps its
    expression in the vectors; a target then costs one pass over the rows.
    """

    __slots__ = ("dim", "size", "echelon", "combos")

    def __init__(self, vectors: Iterable[Sequence], dim: int):
        self.dim = dim
        self.size = 0
        self.echelon: List[Tuple[int, list]] = []
        self.combos: List[list] = []  # echelon row r = sum of c * vectors[k] over (k, c)
        for vec in vectors:
            self.insert(vec)

    def insert(self, vec: Sequence) -> bool:
        """Append a vector to the family; True when it is independent of
        the vectors before it."""
        v = self._vector(vec)
        k = self.size
        self.size += 1
        factors = _reduce(v, self.echelon)
        pc = next((j for j, x in enumerate(v) if x), None)
        if pc is None:
            return False
        combo = {k: 1}
        for f, entries in zip(factors, self.combos):
            if f:
                for j, y in entries:
                    combo[j] = _normal(combo.get(j, 0) - f * y)
        lead = v[pc]
        self.echelon.append((pc, _echelon_row(v, pc)))
        self.combos.append([(j, exact_div(c, lead)) for j, c in combo.items() if c])
        return True

    @property
    def rank(self) -> int:
        return len(self.echelon)

    def _vector(self, vec: Sequence) -> list:
        v = list(map(_frac, vec))
        if len(v) != self.dim:
            raise ValueError("vector length mismatch")
        return v

    def coords(self, target: Sequence) -> Optional[Vector]:
        v = self._vector(target)
        factors = _reduce(v, self.echelon)
        if any(v):
            return None
        out = [0] * self.size
        for f, entries in zip(factors, self.combos):
            if f:
                for j, y in entries:
                    x = out[j] + f * y
                    out[j] = x if type(x) is int else _normal(x)
        return tuple(out)


def independent_units(span: Iterable[Sequence], positions: Iterable[int], dim: int) -> List[int]:
    """Greedy lift of a basis modulo a span.

    Returns the positions p, in the given order, whose unit vector e_p of
    length ``dim`` is independent of ``span`` and of the units kept before
    it.  Every vector is reduced once, as it is appended to a
    :class:`SpanSolver`.
    """
    family = SpanSolver(span, dim)
    return [p for p in positions if family.insert([int(j == p) for j in range(dim)])]


def flatten_blocks(blocks: Iterable[ExactMatrix]) -> Vector:
    """The entries of a sequence of matrices, block by block, row by row."""
    return tuple(x for b in blocks for row in b.rows for x in row)


def unflatten_blocks(flat: Sequence, shapes: Iterable[Tuple[int, int]]) -> tuple:
    """Inverse of :func:`flatten_blocks` for blocks of the given (rows, cols).

    ``flat`` must already be in normal form, as the entries of a matrix or a
    vector returned from this module are.
    """
    flat = tuple(flat)
    blocks = []
    pos = 0
    for r, c in shapes:
        rows = tuple(flat[pos + i * c : pos + (i + 1) * c] for i in range(r))
        blocks.append(ExactMatrix._trusted(rows, c))
        pos += r * c
    return tuple(blocks)


def _intertwiner_equations(src_dims: Sequence[int], tgt_dims: Sequence[int], arrows):
    """The stacked equations phi_t A = B phi_s of ``intertwiner_basis``: the
    (rows, cols) shape of each phi_v, the number of unknowns and the nonzero
    equation rows."""
    shapes = list(zip(tgt_dims, src_dims))
    offsets = []
    total = 0
    for r, c in shapes:
        offsets.append(total)
        total += r * c
    rows = []
    if total == 0:
        return shapes, total, rows
    for s, t, a, b in arrows:
        # one equation per entry (r, c) of the two composites src_s -> tgt_t
        for r in range(tgt_dims[t]):
            for c in range(src_dims[s]):
                row = [0] * total
                for k in range(src_dims[t]):
                    x = a.rows[k][c]
                    if x:
                        j = offsets[t] + r * src_dims[t] + k
                        row[j] = _normal(row[j] + x)
                for k in range(tgt_dims[s]):
                    x = b.rows[r][k]
                    if x:
                        j = offsets[s] + k * src_dims[s] + c
                        row[j] = _normal(row[j] - x)
                if any(row):
                    rows.append(tuple(row))
    return shapes, total, rows


def intertwiner_basis(src_dims: Sequence[int], tgt_dims: Sequence[int], arrows) -> list:
    """Basis of the families of maps phi_v: k^src_dims[v] -> k^tgt_dims[v]
    with phi_t A = B phi_s for every arrow ``(s, t, A, B)``.

    ``A`` maps the source space at s to the one at t, ``B`` does the same for
    the target spaces.  Each basis element is a tuple of matrices, one per
    vertex; the basis is the kernel basis of the stacked equations.
    """
    shapes, total, rows = _intertwiner_equations(src_dims, tgt_dims, arrows)
    if total == 0:
        return []
    if rows:
        kernel = kernel_basis(ExactMatrix._trusted(tuple(rows), total))
    else:
        kernel = _unit_rows(total)
    return [unflatten_blocks(vec, shapes) for vec in kernel]


def intertwiner_dim(src_dims: Sequence[int], tgt_dims: Sequence[int], arrows) -> int:
    """The dimension of the space ``intertwiner_basis`` spans, by one rank
    of its equations, without building the basis."""
    _, total, rows = _intertwiner_equations(src_dims, tgt_dims, arrows)
    return total - rank(ExactMatrix._trusted(tuple(rows), total)) if rows else total


def block_diagonal(blocks: Sequence[ExactMatrix]) -> ExactMatrix:
    """The block-diagonal matrix with the given blocks, in order."""
    ncols = sum(b.ncols for b in blocks)
    rows = []
    left = 0
    for b in blocks:
        before, after = (0,) * left, (0,) * (ncols - left - b.ncols)
        rows.extend(before + row + after for row in b.rows)
        left += b.ncols
    return ExactMatrix._trusted(tuple(rows), ncols)


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
        spanning = tuple(tuple(map(_frac, v)) for v in spanning)
        for v in spanning:
            if len(v) != ambient_dim:
                raise ValueError("vector length mismatch")
        if spanning:
            red, pivots, _ = rref(ExactMatrix._trusted(spanning, ambient_dim))
            self.red_rows = tuple(
                [(j, x) for j, x in enumerate(row) if x] for row in red.rows[: len(pivots)]
            )
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
        v = list(map(_frac, v))
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        _reduce(v, zip(self.pivots, self.red_rows))
        return tuple(v[j] for j in self.nonpivots)

    def lift(self, coords: Sequence) -> Vector:
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        v = [0] * self.ambient_dim
        for c, j in zip(coords, self.nonpivots):
            v[j] = _frac(c)
        return tuple(v)
