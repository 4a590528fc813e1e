"""The structure checksum of End(T): a digest of its multiplication table.

Two algebras with the same dimension and the same structure constants in
the same basis have the same checksum, so a change in a chosen basis or
composition shows up as a new digest.
"""
import hashlib


def structure_checksum(algebra) -> str:
    payload = [f"{key}:{','.join(str(x) for x in algebra.mult[key])}"
               for key in sorted(algebra.mult)]
    text = f"dim={algebra.dim};" + ";".join(payload)
    return hashlib.sha256(text.encode()).hexdigest()
