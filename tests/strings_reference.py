"""Reference string combinatorics: every string of an algebra, and a module
seen in another basis.

``clustertube.strings`` builds string modules from words and reads the word
off a monomial module; it never lists the strings.  The tests list them
here, to compare the string modules against the known representation type
of the example algebras.
"""
from typing import Dict, List

from clustertube.amod import AModule
from clustertube.strings import Letter, StringWord, is_valid_string


def enumerate_strings(algebra) -> List[StringWord]:
    """All strings of the algebra, one representative per inverse pair,
    shortest first."""
    letters = [Letter(a.idx, False) for a in algebra.arrows] + [
        Letter(a.idx, True) for a in algebra.arrows
    ]
    out: Dict[tuple, StringWord] = {}
    for v in range(1, algebra.n + 1):
        w = StringWord((), trivial_vertex=v)
        out[w.key()] = w
    cap = 4 * algebra.dim + 8

    def extend(current: List[Letter]):
        assert len(current) <= cap, "string enumeration exceeded the length cap"
        canon = StringWord(tuple(current)).canonical()
        out.setdefault(canon.key(), canon)
        for l in letters:
            candidate = current + [l]
            if is_valid_string(algebra, StringWord(tuple(candidate))):
                extend(candidate)

    for l in letters:
        extend([l])
    return sorted(out.values(), key=lambda w: (len(w.letters), w.key()))


def conjugate(algebra, m, changes):
    """The module m with its vertex-v basis changed by d, for each entry
    v: (d, d_inv) of ``changes`` (d_inv the inverse of d)."""
    mats = []
    for a in algebra.arrows:
        mat = m.mats[a.idx]
        if a.src in changes:
            mat = changes[a.src][0].mul(mat)
        if a.tgt in changes:
            mat = mat.mul(changes[a.tgt][1])
        mats.append(mat)
    return AModule(algebra, m.dims, mats)
