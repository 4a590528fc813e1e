"""Reference functor images and maps: one composition of cluster-tube
morphisms per basis element and block.

``clustertube.amod.apply_F`` and ``map_F`` read the products of basis
morphisms from the tube's table of structure constants (``map_F`` takes
each block of a morphism in coordinates once); the tests compare them
against these.
"""
from clustertube.amod import ModMap, apply_F
from clustertube.linalg import ExactMatrix
from clustertube.tube import chom_coords, hom_c_basis


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
                    coords = chom_coords(tube, g.block(s_idx, t_idx).compose(h))
                    for r, c in enumerate(coords, offsets[t_idx]):
                        col[r] += c
                cols.append(tuple(col))
        mats.append(ExactMatrix.from_columns(cols, tgt.dims[i]))
    return ModMap(src, tgt, mats)
