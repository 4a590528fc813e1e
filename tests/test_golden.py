"""Byte-level lock on the morphism calculus, End(T) and exchange triangles.

The digest covers, for n = 2, 3, 4 and every maximal rigid T, the
structure checksum of End(T), the exchange matrix from triangle
multiplicities, and for each mutation the middle terms of both exchange
triangles with the coordinates of every approximation component.  It was
taken before the intertwiner solver, the greedy lift and the two
approximations were merged, so any change in a chosen basis, arrow or
approximation map shows up here.  It was also taken while ``chom_coords``
returned ``Fraction``s; it now returns normal-form entries (an ``int`` when
integral), so each coordinate is written as a ``Fraction`` again.
"""
import hashlib
from fractions import Fraction

from endo_reference import structure_checksum

from clustertube.endo import build_endomorphism_algebra
from clustertube.tube import Tube, b_matrix, chom_coords, enumerate_maximal_rigid, mutate_rigid

DIGEST = "a9431235f9c4ba3cecd90fb46d9b4efea837640661e6a4a0a4a9e6b0b48b9d05"


def _as_fractions(coords):
    return tuple(map(Fraction, coords))


def _pieces():
    for n in (2, 3, 4):
        tube = Tube(n)
        for t in enumerate_maximal_rigid(n, tube):
            yield structure_checksum(build_endomorphism_algebra(t))
            yield repr(b_matrix(t, cross_validate=False).b)
            for k in range(1, n + 1):
                data = mutate_rigid(t, k)
                yield repr((
                    data.right_middle,
                    data.left_middle,
                    [_as_fractions(chom_coords(tube, f)) for f in data.right_maps],
                    [_as_fractions(chom_coords(tube, f)) for f in data.left_maps],
                ))


def test_structure_and_exchange_digest():
    h = hashlib.sha256()
    for piece in _pieces():
        h.update(piece.encode())
    assert h.hexdigest() == DIGEST
