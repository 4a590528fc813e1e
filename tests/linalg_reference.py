"""Reference solvers: one row reduction of an augmented matrix per call.

``clustertube.linalg.SpanSolver`` reduces a family once and then answers
every target; the tests compare it, and the package code built on it,
against these.  ``identity_matrix`` builds the identity the tests need.
"""
from clustertube.linalg import ExactMatrix, rref


def solve(m, b):
    """One solution of M x = b, or None if inconsistent."""
    if len(b) != m.nrows:
        raise ValueError("rhs length mismatch")
    aug = ExactMatrix([r + (x,) for r, x in zip(m.rows, b)], ncols=m.ncols + 1)
    red, pivots, _ = rref(aug)
    if m.ncols in pivots:
        return None
    x = [0] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = red.rows[r][m.ncols]
    return tuple(x)


def coords_in_span(vectors, target):
    """Coefficients c with sum_i c_i vectors[i] = target, or None."""
    n = len(target)
    mat = ExactMatrix.from_columns(list(vectors), n) if vectors else ExactMatrix.zero(n, 0)
    return solve(mat, target)


def identity_matrix(n):
    """The n x n identity."""
    return ExactMatrix([[int(i == j) for j in range(n)] for i in range(n)], ncols=n)
