"""Reference chi counts: every coordinate subset of a string, tried one by one.

``clustertube.grassmann._subset_counts`` counts the admissible coordinate
subsets of a string basis in one pass along the word.  The tests compare it
against this count, which tries all 2^len subsets against the three
conditions directly and so reads nothing of the word's shape.
"""
from typing import Dict

from clustertube.amod import loop_vertex


def subset_counts_by_masks(algebra, sb) -> Dict[tuple, int]:
    """Number of admissible coordinate subsets per vertex-dimension profile.

    Admissible means closed under every action edge and, at the loop vertex,
    a union of complete loop pairs; that is exactly the locally free
    condition for a coordinate subspace.
    """
    lv = loop_vertex(algebra)
    npos = len(sb.nodes)
    loop_edges = [
        (u, w) for (u, w, aidx) in sb.edges if algebra.arrows[aidx].is_loop
    ]
    counts: Dict[tuple, int] = {}
    for mask in range(1 << npos):
        ok = True
        for (u, w, aidx) in sb.edges:
            if mask >> u & 1 and not mask >> w & 1:
                ok = False
                break
        if not ok:
            continue
        for (u, w) in loop_edges:
            if (mask >> u & 1) != (mask >> w & 1):
                ok = False
                break
        if not ok:
            continue
        # nodes at the loop vertex must all sit on loop pairs
        paired = {u for e in loop_edges for u in e}
        for pos, v in enumerate(sb.nodes):
            if v == lv and mask >> pos & 1 and pos not in paired:
                ok = False
                break
        if not ok:
            continue
        profile = [0] * algebra.n
        for pos, v in enumerate(sb.nodes):
            if mask >> pos & 1:
                profile[v - 1] += 1
        key = tuple(profile)
        counts[key] = counts.get(key, 0) + 1
    return counts
