"""Reference for the closed-form Ext^1 spaces of ``clustertube.tube``.

``ExtSpace`` here is the cokernel of the differential of the two-term
complex, row reduced by ``linalg.QuotientSpace``, with the attributes and
maps of ``tube.ExtSpace``: the closed form must have the same dimension,
representatives and maps.
"""
from clustertube.linalg import QuotientSpace, unflatten_blocks
from clustertube.tube import Indec, Tube


class ExtSpace:
    """Ext^1(src, tgt) with the canonical representatives of
    :class:`QuotientSpace`: the unit vectors at its non-pivot coordinates."""

    def __init__(self, tube: Tube, src: Indec, tgt: Indec):
        xd, yd = tube.indec_dims(src), tube.indec_dims(tgt)
        self.block_shapes = tuple((yd[(v - 1) % tube.p], xd[v]) for v in range(tube.p))
        self.total, spanning = tube.ext_differential(src, tgt)
        self.quotient = QuotientSpace(self.total, spanning)

    @property
    def dim(self) -> int:
        return self.quotient.dim

    @property
    def reps(self) -> tuple:
        return self.quotient.nonpivots

    def project(self, flat) -> tuple:
        return self.quotient.project(flat)

    def lift(self, coords) -> tuple:
        return unflatten_blocks(self.quotient.lift(coords), self.block_shapes)
