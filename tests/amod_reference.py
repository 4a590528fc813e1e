"""Reference functor images and maps: one composition of cluster-tube
morphisms per basis element and block.

``clustertube.amod.apply_F`` and ``map_F`` read the products of basis
morphisms from the tube's table of structure constants (``map_F`` takes
each block of a morphism in coordinates); the tests compare them against
these.  ``stack_chom`` assembles the components of an approximation into
one morphism between sums, and ``map_F_args`` reads a morphism's blocks in
coordinates, the form ``map_F`` takes.
"""
from clustertube.amod import ModMap, apply_F
from clustertube.linalg import ExactMatrix
from clustertube.tube import CHom, chom_coords, hom_c_basis


def stack_chom(tube, middle, comps, target, into_target):
    """The morphism between sums whose components middle_i -> target
    (``into_target``) or target -> middle_i are ``comps``."""
    src, tgt = (tuple(middle), (target,)) if into_target else ((target,), tuple(middle))
    t, d = {}, {}
    for i, comp in enumerate(comps):
        key = (i, 0) if into_target else (0, i)
        if (0, 0) in comp.t:
            t[key] = comp.t[(0, 0)]
        if (0, 0) in comp.d:
            d[key] = comp.d[(0, 0)]
    return CHom(tube, src, tgt, t=t, d=d)


def block(g, s_idx, t_idx):
    """The block g_st: X_s -> Y_t of a morphism between sums."""
    key = (s_idx, t_idx)
    t = {(0, 0): g.t[key]} if key in g.t else {}
    d = {(0, 0): g.d[key]} if key in g.d else {}
    return CHom(g.tube, (g.src[s_idx],), (g.tgt[t_idx],), t=t, d=d)


def map_F_args(g):
    """The summand tuples of g and the coordinates of each of its blocks."""
    return g.src, g.tgt, {(s, t): chom_coords(g.tube, block(g, s, t))
                          for s in range(len(g.src)) for t in range(len(g.tgt))}


def arrow_matrices_by_composition(algebra, x):
    """The arrow matrices of Hom(T, X) for an indecomposable X: column m of
    the matrix of arrow a: T_i -> T_j holds the coordinates of m o a."""
    tube = algebra.tube
    mats = []
    for a in algebra.arrows:
        ti, tj = algebra.t.summands[a.src - 1], algebra.t.summands[a.tgt - 1]
        cols = [chom_coords(tube, m.compose(a.rep)) for m in hom_c_basis(tube, tj, x)]
        mats.append(ExactMatrix.from_columns(cols, len(hom_c_basis(tube, ti, x))))
    return tuple(mats)


def map_F_by_blocks(algebra, g):
    """Hom(T, g): every basis morphism h: T_i -> X_s is composed with each
    block g_st of g, and the coordinates of g_st o h go into the rows of
    the target's vertex-i space that carry summand t: the vertex-i basis
    of Hom(T, Y_1 + ... + Y_k) is that of Hom(T_i, Y_1), then Hom(T_i, Y_2)
    and so on."""
    tube = algebra.tube
    src = apply_F(algebra, g.src)
    tgt = apply_F(algebra, g.tgt)
    mats = []
    for i in range(algebra.n):
        ti = algebra.t.summands[i]
        offsets = [0]
        for y in g.tgt:
            offsets.append(offsets[-1] + len(hom_c_basis(tube, ti, y)))
        cols = []
        for s_idx, s in enumerate(g.src):
            for h in hom_c_basis(tube, ti, s):
                col = [0] * tgt.dims[i]
                for t_idx in range(len(g.tgt)):
                    coords = chom_coords(tube, block(g, s_idx, t_idx).compose(h))
                    for r, c in enumerate(coords, offsets[t_idx]):
                        col[r] += c
                cols.append(tuple(col))
        mats.append(ExactMatrix.from_columns(cols, tgt.dims[i]))
    return ModMap(src, tgt, mats)
