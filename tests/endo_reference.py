"""The structure checksum of End(T): a digest of its multiplication table.

Two algebras with the same dimension and the same structure constants in
the same basis have the same checksum, so a change in a chosen basis or
composition shows up as a new digest.  Each stored position is hashed as
the unit vector of its block (zero for None), the text the table held when
its entries were coordinate vectors.
"""
import hashlib

from clustertube.tube import unit_coords


def _constant(algebra, key):
    u, v = key
    dim = algebra.block_dim[(algebra.basis[v][0], algebra.basis[u][1])]
    return unit_coords(algebra.mult[key], dim)


def structure_checksum(algebra) -> str:
    payload = [f"{key}:{','.join(str(x) for x in _constant(algebra, key))}"
               for key in sorted(algebra.mult)]
    text = f"dim={algebra.dim};" + ";".join(payload)
    return hashlib.sha256(text.encode()).hexdigest()
