"""References for the morphism calculus of ``clustertube.tube``.

``ExtSpace`` here is the cokernel of the differential of the two-term
complex, row reduced by ``linalg.QuotientSpace``, with the attributes and
maps of ``tube.ExtSpace``: the closed form must have the same dimension,
representatives and maps.  ``tau_chom`` translates a morphism by moving its
intertwiners and extension classes, the reference for the closed-form fact
that translation keeps every ``hom_c_basis`` coordinate; ``chom_from_coords``
and the identities build the morphisms the tests compose.
"""
from clustertube.linalg import QuotientSpace, unflatten_blocks
from clustertube.tube import CHom, Indec, Tube

from linalg_reference import identity_matrix


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


def identity_vmaps(tube: Tube, x: Indec) -> tuple:
    """The identity intertwiner of x, one identity matrix per vertex."""
    return tuple(identity_matrix(d) for d in tube.indec_dims(x))


def identity_chom(tube: Tube, objects) -> CHom:
    """The identity of a sum of indecomposables, one tube block per summand."""
    return CHom(tube, objects, objects,
                t={(i, i): identity_vmaps(tube, x) for i, x in enumerate(objects)})


def chom_from_coords(tube: Tube, x: Indec, y: Indec, coords) -> CHom:
    """The morphism x -> y with the given ``hom_c_basis`` coordinates: the
    combination of the shift maps, and the shift-stratum coordinates."""
    k = tube.hom_tube_dim(x, y)
    t = {}
    for c, f in zip(coords, tube.hom_basis(x, y)):
        if c:
            scaled = tuple(m.scale(c) for m in f)
            t[(0, 0)] = tube.add_vmaps(t[(0, 0)], scaled) if t else scaled
    d = {(0, 0): tuple(coords[k:])} if any(coords[k:]) else {}
    return CHom(tube, (x,), (y,), t=t, d=d)


def tau_chom(tube: Tube, f: CHom, k: int) -> CHom:
    """Apply the rotation tau^k to a morphism.

    Tube-stratum intertwiners are relabelled; shift-stratum classes are
    lifted to representatives, cyclically relabelled block-wise and projected
    into the cokernel basis of the shifted extension space.
    """
    src = tuple(tube.tau(x, k) for x in f.src)
    tgt = tuple(tube.tau(y, k) for y in f.tgt)
    t = {key: tube.tau_vmaps(vm, k) for key, vm in f.t.items()}
    d = {}
    p = tube.p
    for (i, j), coords in f.d.items():
        old_space = tube.dmor_space(f.src[i], f.tgt[j])
        new_space = tube.dmor_space(src[i], tgt[j])
        blocks = old_space.lift(coords)
        shifted = tuple(blocks[(v + k) % p] for v in range(p))
        new_coords = new_space.project(new_space.flatten(shifted))
        if any(new_coords):
            d[(i, j)] = new_coords
    return CHom(tube, src, tgt, t=t, d=d)
