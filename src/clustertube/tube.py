"""The cluster tube of rank n+1 and its morphism calculus.

Objects are the indecomposables ``(a, b)`` of a tube: nilpotent
representations of a cyclic quiver with ``n + 1`` vertices (arrows go from
vertex ``v`` to ``v - 1``), where ``a`` is the socle position and ``b`` the
length.  Morphisms in the orbit category split into two strata:

* tube morphisms, stored as explicit intertwiners of the representations;
* shift-stratum morphisms, stored as first-extension classes between a
  source object and the inverse translate of the target, in the fixed
  cokernel basis of the standard two-term complex.

Both strata are read in closed form: Hom(x, y) has the basis of shift maps
f_delta, and Ext^1 one class per surviving diagonal of the complex's ambient
space, so no Hom or Ext space is solved or row reduced.  The products of
basis morphisms, the structure constants behind End(T) and the functor
images, are read from the shifts and diagonals too (``basis_product``).
``CHom.compose`` still composes any two morphisms by pushing and pulling
extension classes along intertwiners; it is the reference the structure
constants are checked against.  On top of this calculus the module
enumerates rigid and maximal rigid objects, mutates them through exchange
triangles computed as minimal approximations, and assembles the associated
skew-symmetrizable matrix.
"""
from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import (
    ExactMatrix,
    _frac,
    flatten_blocks,
    independent_units,
    kernel_basis,  # unused here; perfbench/selftest.py traces a call through this module copy
    unflatten_blocks,
)


class TubeError(ValueError):
    pass


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; signals a bug, not bad input."""


class Indec(NamedTuple):
    """Indecomposable tube object: socle position ``a`` (1-based) and length ``b``."""

    a: int
    b: int

    def __str__(self):
        return f"({self.a},{self.b})"


VertexMaps = Tuple[ExactMatrix, ...]  # one matrix per vertex, phi_v: X_v -> Y_v


class ExtSpace:
    """Ext^1 between two tube objects, in closed form.

    The ambient space is the arrow-indexed block sum of Hom(X_v, Y_{v-1}),
    flattened block by block, row by row; its unit e(i, j) sends position j
    of x to position i of y (positions count from the socle).  Ext^1 is the
    cokernel of the differential of the standard two-term complex
    (``Tube.ext_differential``), which identifies e(i, j + 1) with
    e(i - 1, j) and kills e(0, j) for j >= 1 and e(i, x.b - 1) for
    i <= y.b - 2.  So each diagonal d = j - i is one class, and the
    diagonals that survive are 1 - y.b <= d <= min(0, x.b - y.b) with
    d = y.a - x.a + 1 (mod p): the shifts of Hom(y, tau x), as AR duality
    Ext^1(x, y) = D Hom(y, tau x) says (Ringel, LNM 1099, 1984).

    Coordinate k is the class of ``diagonals[k]``; its representative
    ``reps[k]`` is the diagonal's largest flattened entry, and the
    coordinates are ordered by it.  These are the basis and representatives
    that row reducing the differential from the left leaves, so ``project``
    (the sum of the entries along each surviving diagonal) and ``lift``
    (each coordinate at its representative) are the cokernel's maps.
    """

    __slots__ = ("block_shapes", "total", "diagonals", "reps", "members")

    def __init__(self, tube: "Tube", src: Indec, tgt: Indec):
        px, py = tube.basis_positions(src), tube.basis_positions(tgt)
        self.block_shapes = tuple((len(py[v - 1]), len(px[v])) for v in range(tube.p))
        on = [j - i for v in range(tube.p) for i in py[v - 1] for j in px[v]]
        self.total = len(on)
        alive = range(1 - tgt.b + (tgt.a - src.a + tgt.b) % tube.p, min(0, src.b - tgt.b) + 1,
                      tube.p)
        # each surviving diagonal's entries, in flattened order
        members = {d: [] for d in alive}
        for e, d in enumerate(on):
            if d in alive:
                members[d].append(e)
        self.members = tuple(sorted(members.values(), key=lambda m: m[-1]))
        self.reps = tuple(m[-1] for m in self.members)
        self.diagonals = tuple(on[e] for e in self.reps)

    @property
    def dim(self) -> int:
        return len(self.reps)

    def flatten(self, blocks: Sequence[ExactMatrix]) -> tuple:
        flat = flatten_blocks(blocks)
        if len(flat) != self.total:
            raise TubeError("block flattening mismatch")
        return flat

    def project(self, flat: Sequence) -> tuple:
        """Coordinates of the class of an ambient vector, in normal form."""
        if len(flat) != self.total:
            raise TubeError("ambient vector length mismatch")
        return tuple(_frac(sum(map(flat.__getitem__, m))) for m in self.members)

    def lift(self, coords: Sequence) -> Tuple[ExactMatrix, ...]:
        """The representative of a class: each coordinate at its diagonal's
        representative entry, zero elsewhere."""
        if len(coords) != self.dim:
            raise TubeError("coordinate length mismatch")
        flat = [0] * self.total
        for e, c in zip(self.reps, coords):
            flat[e] = _frac(c)
        return unflatten_blocks(flat, self.block_shapes)


class Tube:
    """Computation context for one tube rank; caches all morphism spaces."""

    def __init__(self, n: int):
        if n < 2:
            raise TubeError("tube rank must be at least 3 (n >= 2)")
        self.n = n
        self.p = n + 1
        # the shift-map basis of Hom(x, y) as hom_basis returns it, and the
        # layout of its supports that hom_basis and hom_coords read
        self._hom_cache: Dict[Tuple[Indec, Indec], List[VertexMaps]] = {}
        self._layout_cache: Dict[Tuple[Indec, Indec], tuple] = {}
        # the cluster-tube basis of Hom(x, y) as returned by hom_c_basis
        self._hom_c_cache: Dict[Tuple[Indec, Indec], List["CHom"]] = {}
        # the structure constants of the cluster tube, as basis_product
        # returns them, filled on first request
        self._product_cache: Dict[Tuple[Indec, Indec, Indec, int, int], tuple] = {}
        # Ext^1 spaces by (x, y); dmor_space reads them at (x, tau^-1 y)
        self._ext_cache: Dict[Tuple[Indec, Indec], ExtSpace] = {}
        self._dims_cache: Dict[Indec, tuple] = {}
        self._arrow_cache: Dict[Tuple[Indec, int], ExactMatrix] = {}
        # per indecomposable, the rigid indecomposables with no extension to
        # or from it, as compatible returns them
        self._compatible_cache: Dict[Indec, frozenset] = {}
        # the pure results of the module layer (clustertube.amod), keyed by
        # the exact content of the End(T) and modules they are computed from,
        # so translated T with equal End(T) share them; verify renews it per
        # frame group
        self._module_memo: dict = {}

    # -- objects -----------------------------------------------------------

    def norm_pos(self, a: int) -> int:
        return (a - 1) % self.p + 1

    def indec(self, a: int, b: int) -> Indec:
        if b < 1:
            raise TubeError("length must be positive")
        return Indec(self.norm_pos(a), b)

    def tau(self, x: Indec, k: int = 1) -> Indec:
        return Indec((x.a - k - 1) % self.p + 1, x.b)

    def ar_middle(self, x: Indec) -> Tuple[Indec, ...]:
        """The middle term of the AR triangle tau x -> E -> x -> tau x[1]:
        (a-1, b+1), and (a, b-1) unless x is quasi-simple."""
        up = self.indec(x.a - 1, x.b + 1)
        return (up, self.indec(x.a, x.b - 1)) if x.b > 1 else (up,)

    def indec_dims(self, x: Indec) -> tuple:
        cached = self._dims_cache.get(x)
        if cached is None:
            cached = self._dims_cache[x] = tuple(map(len, self.basis_positions(x)))
        return cached

    def basis_positions(self, x: Indec) -> tuple:
        """Per vertex v (0-based), the socle-to-top indices j of the basis vectors of x at v."""
        return tuple(range((v + 1 - x.a) % self.p, x.b, self.p) for v in range(self.p))

    def arrow_matrix(self, x: Indec, v: int) -> ExactMatrix:
        """The arrow map X_v -> X_{v-1}: basis vector j goes to j - 1.

        Built once per (x, v) and kept."""
        key = (x, v)
        cached = self._arrow_cache.get(key)
        if cached is None:
            positions = self.basis_positions(x)
            src, tgt = positions[v], positions[v - 1]
            rows = [[int(js == jt + 1) for js in src] for jt in tgt]
            cached = self._arrow_cache[key] = ExactMatrix(rows, ncols=len(src))
        return cached

    def wing(self, top: Indec) -> List[Indec]:
        """All indecomposables in the triangle below ``top`` in the AR quiver."""
        return [self.indec(top.a + i, d) for i in range(top.b) for d in range(1, top.b - i + 1)]

    # -- tube morphisms ------------------------------------------------------

    def _hom_shifts(self, x: Indec, y: Indec) -> range:
        """The delta, ascending, for which f_delta: e_j -> e_{j+delta} (0 when
        j + delta < 0) is an intertwiner x -> y: 1 - x.b <= delta <= min(0,
        y.b - x.b) and delta = x.a - y.a (mod p).  The f_delta are a basis of
        Hom(x, y) (Ringel, LNM 1099, 1984; Simson-Skowronski vol. 2, 2007)."""
        return range(1 - x.b + (x.a - y.a + x.b - 1) % self.p, min(0, y.b - x.b) + 1, self.p)

    def _hom_layout(self, x: Indec, y: Indec) -> tuple:
        """For maps x -> y: the (rows, cols) shape of each vertex block; per
        entry, in ``flatten_blocks`` order, the index of the shift whose map
        has it in its support (position in y minus position in x), or the
        number of shifts; and the first entry of each support."""
        key = (x, y)
        cached = self._layout_cache.get(key)
        if cached is None:
            px, py = self.basis_positions(x), self.basis_positions(y)
            shifts = self._hom_shifts(x, y)
            on = [shifts.index(i - j) if i - j in shifts else len(shifts)
                  for rows, cols in zip(py, px) for i in rows for j in cols]
            cached = self._layout_cache[key] = (tuple(zip(map(len, py), map(len, px))), on,
                                                [on.index(k) for k in range(len(shifts))])
        return cached

    def hom_basis(self, x: Indec, y: Indec) -> List[VertexMaps]:
        """The shift maps f_delta of ``_hom_shifts``, ascending: a basis of the
        intertwiners x -> y with disjoint supports, built once and kept."""
        key = (x, y)
        cached = self._hom_cache.get(key)
        if cached is None:
            shapes, on, firsts = self._hom_layout(x, y)
            cached = self._hom_cache[key] = [unflatten_blocks([int(i == k) for i in on], shapes)
                                             for k in range(len(firsts))]
        return cached

    def hom_equations(self, x: Indec, y: Indec) -> list:
        """The arrows of ``linalg.intertwiner_basis`` whose solutions are the
        intertwiners x -> y: phi_{v-1} X_v = Y_v phi_v along every arrow
        v -> v - 1."""
        return [(v, (v - 1) % self.p, self.arrow_matrix(x, v), self.arrow_matrix(y, v))
                for v in range(self.p)]

    def ext_differential(self, x: Indec, y: Indec) -> Tuple[int, list]:
        """The ambient dimension of ``ExtSpace(x, y)`` and the image of the
        differential of the two-term complex, one flat vector per unit of
        Hom(X_v, Y_v): the cokernel of these vectors is Ext^1(x, y)."""
        p = self.p
        xd, yd = self.indec_dims(x), self.indec_dims(y)
        offsets = []
        total = 0
        for v in range(p):
            offsets.append(total)
            total += yd[v - 1] * xd[v]
        # The differential sends the unit E_rc of Hom(X_v, Y_v) to E_rc X_{v+1}
        # in block v+1 (row r is row c of the arrow X_{v+1} -> X_v) and to
        # -Y_v E_rc in block v (column c is minus column r of Y_v -> Y_{v-1}).
        spanning = []
        for v in range(p):
            w = (v + 1) % p
            xarr = self.arrow_matrix(x, w).rows
            yarr = self.arrow_matrix(y, v).rows
            for r in range(yd[v]):
                for c in range(xd[v]):
                    vec = [0] * total
                    start = offsets[w] + r * xd[w]
                    vec[start : start + xd[w]] = xarr[c]
                    for i, row in enumerate(yarr):
                        vec[offsets[v] + i * xd[v] + c] = -row[r]
                    spanning.append(vec)
        return total, spanning

    def hom_tube_dim(self, x: Indec, y: Indec) -> int:
        return len(self._hom_shifts(x, y))

    def ext_space(self, x: Indec, y: Indec) -> ExtSpace:
        key = (x, y)
        cached = self._ext_cache.get(key)
        if cached is None:
            cached = ExtSpace(self, x, y)
            self._ext_cache[key] = cached
        return cached

    def dmor_space(self, x: Indec, y: Indec) -> ExtSpace:
        """Shift-stratum morphisms x -> y, as Ext^1(x, tau^{-1} y)."""
        return self.ext_space(x, self.tau(y, -1))

    def hom_c_dim(self, x: Indec, y: Indec) -> int:
        """Total morphism dimension in the cluster tube."""
        return self.hom_tube_dim(x, y) + self.hom_tube_dim(y, self.tau(x, 2))

    def ext1_c_dim(self, x: Indec, y: Indec) -> int:
        return self.hom_c_dim(x, self.tau(y))

    def compatible(self, x: Indec) -> frozenset:
        """The rigid indecomposables y with Ext^1(x, y) = Ext^1(y, x) = 0,
        computed on the first request for x."""
        found = self._compatible_cache.get(x)
        if found is None:
            found = self._compatible_cache[x] = frozenset(
                y for y in all_rigid_indecs(self)
                if self.ext1_c_dim(x, y) == 0 and self.ext1_c_dim(y, x) == 0)
        return found

    # -- vertex-map utilities ----------------------------------------------

    def identity_vmaps(self, x: Indec) -> VertexMaps:
        return tuple(ExactMatrix.identity(d) for d in self.indec_dims(x))

    def compose_vmaps(self, g: VertexMaps, f: VertexMaps) -> VertexMaps:
        return tuple(gm.mul(fm) for gm, fm in zip(g, f))

    def add_vmaps(self, a: VertexMaps, b: VertexMaps) -> VertexMaps:
        return tuple(am.add(bm) for am, bm in zip(a, b))

    def scale_vmaps(self, a: VertexMaps, c) -> VertexMaps:
        return tuple(am.scale(c) for am in a)

    def tau_vmaps(self, f: VertexMaps, k: int) -> VertexMaps:
        """Relabel an intertwiner along the rotation (tau^k f)_v = f_{v+k}."""
        p = self.p
        return tuple(f[(v + k) % p] for v in range(p))

    def vmaps_is_zero(self, f: VertexMaps) -> bool:
        return all(m.is_zero() for m in f)

    def hom_coords(self, x: Indec, y: Indec, f: VertexMaps) -> tuple:
        """Coordinates in ``hom_basis(x, y)``, read off the supports after every
        entry is checked (``TubeError``: a misshapen block; ``ConsistencyError``: off the span)."""
        shapes, on, firsts = self._hom_layout(x, y)
        if tuple((m.nrows, m.ncols) for m in f) != shapes:
            raise TubeError("vertex maps do not match the dimension vectors")
        flat = flatten_blocks(f)
        coords = tuple(map(flat.__getitem__, firsts))
        if tuple(map((coords + (0,)).__getitem__, on)) != flat:
            raise ConsistencyError("intertwiner does not lie in the morphism space")
        return coords


class CHom:
    """A morphism between formal direct sums of indecomposables.

    Stored blockwise: ``t`` maps hold the tube-stratum intertwiners, ``d``
    coordinate vectors hold the shift-stratum classes.  Missing blocks are
    zero.  Composition follows the stratification: tube o tube stays in the
    tube stratum, mixed compositions push or pull extension classes, and the
    composition of two shift-stratum morphisms vanishes.
    """

    __slots__ = ("tube", "src", "tgt", "t", "d")

    def __init__(self, tube: Tube, src: Sequence[Indec], tgt: Sequence[Indec],
                 t: Optional[dict] = None, d: Optional[dict] = None):
        self.tube = tube
        self.src = tuple(src)
        self.tgt = tuple(tgt)
        self.t = dict(t or {})
        self.d = dict(d or {})

    @classmethod
    def zero(cls, tube: Tube, src: Sequence[Indec], tgt: Sequence[Indec]) -> "CHom":
        return cls(tube, src, tgt)

    @classmethod
    def identity(cls, tube: Tube, obj: Sequence[Indec]) -> "CHom":
        t = {(i, i): tube.identity_vmaps(x) for i, x in enumerate(obj)}
        return cls(tube, obj, obj, t=t)

    @classmethod
    def t_single(cls, tube: Tube, src: Indec, tgt: Indec, vmaps: VertexMaps) -> "CHom":
        return cls(tube, (src,), (tgt,), t={(0, 0): vmaps})

    @classmethod
    def d_single(cls, tube: Tube, src: Indec, tgt: Indec, coords) -> "CHom":
        return cls(tube, (src,), (tgt,), d={(0, 0): tuple(coords)})

    def add(self, other: "CHom") -> "CHom":
        if self.src != other.src or self.tgt != other.tgt:
            raise TubeError("cannot add morphisms with different endpoints")
        t = dict(self.t)
        for key, vm in other.t.items():
            t[key] = self.tube.add_vmaps(t[key], vm) if key in t else vm
        d = dict(self.d)
        for key, coords in other.d.items():
            if key in d:
                d[key] = tuple(a + b for a, b in zip(d[key], coords))
            else:
                d[key] = coords
        return CHom(self.tube, self.src, self.tgt, t=t, d=d)

    def scale(self, c) -> "CHom":
        t = {k: self.tube.scale_vmaps(vm, c) for k, vm in self.t.items()}
        d = {k: tuple(c * x for x in coords) for k, coords in self.d.items()}
        return CHom(self.tube, self.src, self.tgt, t=t, d=d)

    def compose(self, other: "CHom") -> "CHom":
        """self o other (apply ``other`` first).

        Blockwise, on lifted representatives: tube maps multiply vertex by
        vertex, and a shift-stratum class is pulled back along a tube map
        before it or pushed forward along one after it, then projected.  On
        basis morphisms this is the diagonal rule of ``basis_product``
        (Ringel, LNM 1099, 1984), which reads the same coordinates without
        composing; this route is its reference."""
        if other.tgt != self.src:
            raise TubeError("morphisms are not composable")
        tube = self.tube
        t_acc: Dict[tuple, VertexMaps] = {}
        d_raw: Dict[tuple, list] = {}

        def add_t(i, k, vm):
            key = (i, k)
            t_acc[key] = tube.add_vmaps(t_acc[key], vm) if key in t_acc else vm

        def add_d_flat(i, k, flat):
            key = (i, k)
            if key in d_raw:
                d_raw[key] = [a + b for a, b in zip(d_raw[key], flat)]
            else:
                d_raw[key] = list(flat)

        # self's blocks by source, each list in key order
        g_t: Dict[int, list] = {}
        for (j, k), g_vm in sorted(self.t.items()):
            g_t.setdefault(j, []).append((k, g_vm))
        g_d: Dict[int, list] = {}
        for (j, k), g_coords in sorted(self.d.items()):
            g_d.setdefault(j, []).append((k, g_coords))
        for (i, j), f_vm in sorted(other.t.items()):
            for k, g_vm in g_t.get(j, ()):
                add_t(i, k, tube.compose_vmaps(g_vm, f_vm))
            for k, g_coords in g_d.get(j, ()):
                # shift-stratum after tube morphism: pull the class back
                space = tube.dmor_space(other.src[i], self.tgt[k])
                lifted = tube.dmor_space(self.src[j], self.tgt[k]).lift(g_coords)
                pulled = tuple(psi.mul(f_vm[v]) for v, psi in enumerate(lifted))
                add_d_flat(i, k, space.flatten(pulled))
        for (i, j), f_coords in sorted(other.d.items()):
            for k, g_vm in g_t.get(j, ()):
                # tube morphism after shift stratum: push the class forward
                src_obj = other.src[i]
                space_new = tube.dmor_space(src_obj, self.tgt[k])
                space_old = tube.dmor_space(src_obj, other.tgt[j])
                blocks = space_old.lift(f_coords)
                shifted = tube.tau_vmaps(g_vm, -1)
                p = tube.p
                pushed = tuple(shifted[(v - 1) % p].mul(blocks[v]) for v in range(p))
                add_d_flat(i, k, space_new.flatten(pushed))
        d_acc = {}
        for (i, k), flat in d_raw.items():
            space = tube.dmor_space(other.src[i], self.tgt[k])
            coords = space.project(flat)
            if any(coords):
                d_acc[(i, k)] = coords
        t_clean = {k: vm for k, vm in t_acc.items() if not tube.vmaps_is_zero(vm)}
        return CHom(tube, other.src, self.tgt, t=t_clean, d=d_acc)

    def is_zero(self) -> bool:
        tube = self.tube
        if any(not tube.vmaps_is_zero(vm) for vm in self.t.values()):
            return False
        return all(not any(c) for c in self.d.values())

    def block(self, i: int, k: int) -> "CHom":
        t = {}
        d = {}
        if (i, k) in self.t:
            t[(0, 0)] = self.t[(i, k)]
        if (i, k) in self.d:
            d[(0, 0)] = self.d[(i, k)]
        return CHom(self.tube, (self.src[i],), (self.tgt[k],), t=t, d=d)


def hom_c_basis(tube: Tube, x: Indec, y: Indec) -> List[CHom]:
    """Basis of the cluster-tube morphism space: tube stratum first.

    Built once per (x, y) and kept on the tube; callers must not mutate the
    list or its morphisms."""
    key = (x, y)
    out = tube._hom_c_cache.get(key)
    if out is None:
        out = [CHom.t_single(tube, x, y, vm) for vm in tube.hom_basis(x, y)]
        space = tube.dmor_space(x, y)
        for i in range(space.dim):
            coords = tuple(int(j == i) for j in range(space.dim))
            out.append(CHom.d_single(tube, x, y, coords))
        tube._hom_c_cache[key] = out
    return out


def chom_coords(tube: Tube, f: CHom) -> tuple:
    """Coordinates of a single-block morphism in the hom_c_basis ordering,
    in normal form."""
    if len(f.src) != 1 or len(f.tgt) != 1:
        raise TubeError("coordinates are defined for single-block morphisms")
    x, y = f.src[0], f.tgt[0]
    t_vm = f.t.get((0, 0))
    t_coords = tube.hom_coords(x, y, t_vm) if t_vm is not None else (0,) * tube.hom_tube_dim(x, y)
    d_coords = f.d.get((0, 0))
    if d_coords is None:
        return t_coords + (0,) * tube.dmor_space(x, y).dim
    return t_coords + tuple(map(_frac, d_coords))


def basis_product(tube: Tube, x: Indec, y: Indec, z: Indec, i: int, j: int) -> tuple:
    """The hom_c_basis(x, z) coordinates of u o v, for u the i-th element of
    hom_c_basis(y, z) and v the j-th of hom_c_basis(x, y).

    One structure constant of the cluster tube, read from the shifts and the
    diagonals alone, so it is a unit vector or zero: the shift maps compose
    as f_delta' o f_delta = f_(delta + delta'), which is zero below
    1 - x.b; a shift-stratum class on diagonal d (``ExtSpace``) composed
    with f_delta on either side is the class on diagonal d - delta, or zero
    if that diagonal dies; and two shift-stratum classes compose to zero
    (Ringel, LNM 1099, 1984).  ``CHom.compose`` is the reference that
    ``FinDimAlgebra.verify_associativity`` and "tube invariants" check these
    against.  Kept on the tube per triple and pair of indices."""
    key = (x, y, z, i, j)
    coords = tube._product_cache.get(key)
    if coords is None:
        in_yz, in_xy = tube._hom_shifts(y, z), tube._hom_shifts(x, y)
        out_t, out_d = tube._hom_shifts(x, z), tube.dmor_space(x, z).diagonals
        pos = None
        if i < len(in_yz) and j < len(in_xy):
            shift = in_yz[i] + in_xy[j]
            pos = out_t.index(shift) if shift in out_t else None
        elif i < len(in_yz) or j < len(in_xy):
            if i < len(in_yz):
                d = tube.dmor_space(x, y).diagonals[j - len(in_xy)] - in_yz[i]
            else:
                d = tube.dmor_space(y, z).diagonals[i - len(in_yz)] - in_xy[j]
            pos = len(out_t) + out_d.index(d) if d in out_d else None
        coords = tube._product_cache[key] = tuple(
            int(k == pos) for k in range(len(out_t) + len(out_d)))
    return coords


def chom_from_coords(tube: Tube, x: Indec, y: Indec, coords: Sequence) -> CHom:
    """Rebuild a single-block morphism from hom_c_basis coordinates."""
    basis = hom_c_basis(tube, x, y)
    if len(coords) != len(basis):
        raise TubeError("coordinate length mismatch")
    out = CHom.zero(tube, (x,), (y,))
    for c, f in zip(coords, basis):
        if c:
            out = out.add(f.scale(c))
    return out


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


def in_region_F(tube: Tube, x: Indec) -> bool:
    """Membership in the fundamental region for objects presented by a
    maximal rigid object whose long summand is (1, n)."""
    n = tube.n
    if x.b <= n:
        return True
    return n + 1 <= x.b <= 2 * n and x.a + x.b <= 2 * n + 1


def in_pr_T(t: "MaximalRigid", x: Indec) -> bool:
    shift = t.long.a - 1
    return in_region_F(t.tube, t.tube.tau(x, shift))


def in_pr_sigma_T(t: "MaximalRigid", x: Indec) -> bool:
    shift = t.long.a - 1
    return in_region_F(t.tube, t.tube.tau(t.tube.tau(x, shift), -1))


# -- rigid objects ----------------------------------------------------------


def is_rigid(tube: Tube, x: Indec) -> bool:
    """Length criterion, cross-checked against self-extension vanishing."""
    by_length = x.b <= tube.n
    by_ext = tube.ext1_c_dim(x, x) == 0
    if by_length != by_ext:
        raise ConsistencyError(f"rigidity criteria disagree on {x}")
    return by_length


def is_rigid_set(tube: Tube, objs: Sequence[Indec]) -> bool:
    objs = [tube.indec(*o) for o in objs]
    if len(set(objs)) != len(objs):
        return False
    for x in objs:
        if not is_rigid(tube, x):
            return False
    return all(y in tube.compatible(x) for i, x in enumerate(objs) for y in objs[i + 1 :])


def all_rigid_indecs(tube: Tube) -> List[Indec]:
    return [Indec(a, b) for a in range(1, tube.p + 1) for b in range(1, tube.n + 1)]


class MaximalRigid:
    """A basic maximal rigid object, the unique length-n summand first.

    The order of the remaining summands is significant: it fixes the row and
    column labelling of the associated exchange matrix.
    """

    __slots__ = ("tube", "summands")

    def __init__(self, tube: Tube, summands: Sequence[Indec], validate: bool = True):
        summands = tuple(tube.indec(*s) for s in summands)
        if len(summands) != tube.n:
            raise TubeError(f"a maximal rigid object here has {tube.n} summands")
        longs = [s for s in summands if s.b == tube.n]
        if len(longs) != 1 or summands[0].b != tube.n:
            raise TubeError("need exactly one length-n summand, listed first")
        if validate and not is_rigid_set(tube, summands):
            raise TubeError("summands are not pairwise rigid")
        self.tube = tube
        self.summands = summands

    @property
    def long(self) -> Indec:
        return self.summands[0]

    def as_set(self) -> frozenset:
        return frozenset(self.summands)

    def canonical(self) -> "MaximalRigid":
        rest = sorted(self.summands[1:])
        return MaximalRigid(self.tube, (self.summands[0],) + tuple(rest), validate=False)

    def reordered(self, rest_order: Sequence[Indec]) -> "MaximalRigid":
        if frozenset(rest_order) != frozenset(self.summands[1:]):
            raise TubeError("reordering must permute the short summands")
        return MaximalRigid(self.tube, (self.long,) + tuple(rest_order), validate=False)

    def shifted(self, k: int) -> "MaximalRigid":
        """Apply tau^k to every summand, keeping the labelling."""
        return MaximalRigid(
            self.tube, tuple(self.tube.tau(s, k) for s in self.summands), validate=False
        )

    def __eq__(self, other):
        return isinstance(other, MaximalRigid) and self.summands == other.summands

    def __hash__(self):
        return hash(self.summands)

    def __repr__(self):
        return "MaximalRigid[" + " + ".join(str(s) for s in self.summands) + "]"

    def to_json(self) -> dict:
        return {"summands": [[s.a, s.b] for s in self.summands]}


def enumerate_maximal_rigid(n: int, tube: Optional[Tube] = None) -> List[MaximalRigid]:
    """All basic maximal rigid objects, one wing at a time.

    Every maximal rigid object consists of a unique length-n summand together
    with n-1 further summands inside its wing, so for each possible long
    summand we search pairwise-compatible completions in that wing.
    """
    tube = tube or Tube(n)
    out: List[MaximalRigid] = []
    for a in range(1, tube.p + 1):
        top = Indec(a, n)
        candidates = [x for x in tube.wing(top) if x != top]

        def extend(chosen: List[Indec], pool: List[Indec]):
            if len(chosen) == n - 1:
                out.append(
                    MaximalRigid(tube, (top,) + tuple(sorted(chosen)), validate=False)
                )
                return
            for idx, x in enumerate(pool):
                extend(chosen + [x], [y for y in pool[idx + 1 :] if y in tube.compatible(x)])

        extend([], sorted(candidates))
    return out


# -- mutation and exchange triangles ----------------------------------------


class ApproxResult(NamedTuple):
    middle: Tuple[Indec, ...]
    components: Tuple[CHom, ...]  # per middle summand, the morphism to/from the target


class ExchangeData(NamedTuple):
    """Everything attached to one mutation of a maximal rigid object.

    ``right_middle`` sits in the triangle  new -> right_middle -> old,
    ``left_middle`` in the triangle  old -> left_middle -> new, where ``old``
    is the replaced summand and ``new`` its exchange partner.  ``right_maps``
    are the components right_middle_i -> old of the minimal right
    approximation, ``left_maps`` the components old -> left_middle_i.
    """

    mutated: "MaximalRigid"
    old: Indec
    new: Indec
    right_middle: Tuple[Indec, ...]
    right_maps: Tuple[CHom, ...]
    left_middle: Tuple[Indec, ...]
    left_maps: Tuple[CHom, ...]


def _radical_indices(tube: Tube, x: Indec, y: Indec) -> List[int]:
    """Positions in hom_c_basis(x, y) of a basis of its radical inside add(T).

    Between distinct indecomposables that is every position.  In End(x) it
    is every basis element but the identity f_0: the other shift maps
    f_delta, delta < 0, and the shift stratum are nilpotent."""
    positions = range(len(hom_c_basis(tube, x, y)))
    if x != y:
        return list(positions)
    identity = tube._hom_shifts(x, x).index(0)
    return [k for k in positions if k != identity]


def minimal_approximation(tube: Tube, z: Indec, others: Sequence[Indec], side: str) -> ApproxResult:
    """Minimal right (``side="right"``, sums of the others -> z) or left
    (``side="left"``, z -> sums of the others) approximation of z.

    The multiplicity of each summand u equals the dimension of its slot in
    the top of Hom(others, z), or of Hom(z, others), as a module over the
    endomorphism algebra of the sum of the others; the component maps lift
    a basis of that top modulo the compositions through radical maps.
    """
    if side not in ("right", "left"):
        raise TubeError(f"unknown approximation side {side!r}")
    right = side == "right"

    def homs(u: Indec) -> List[CHom]:
        return hom_c_basis(tube, u, z) if right else hom_c_basis(tube, z, u)

    middle: List[Indec] = []
    comps: List[CHom] = []
    for u in others:
        basis = homs(u)
        if not basis:
            continue
        radical_images = []
        for w in others:
            through = range(len(homs(w)))
            if not through:
                continue
            if right:  # h o r for r in rad(u, w), h: w -> z
                radical_images += [basis_product(tube, u, w, z, h, r)
                                   for r in _radical_indices(tube, u, w) for h in through]
            else:  # r o h for r in rad(w, u), h: z -> w
                radical_images += [basis_product(tube, z, w, u, r, h)
                                   for r in _radical_indices(tube, w, u) for h in through]
        # deterministic greedy lift of a basis of Hom(u, z) or Hom(z, u)
        # modulo the radical part: keep the basis vectors whose classes are new
        for idx in independent_units(radical_images, range(len(basis)), len(basis)):
            middle.append(u)
            comps.append(basis[idx])
    return ApproxResult(tuple(middle), tuple(comps))


def completions(tube: Tube, others: Sequence[Indec]) -> List[Indec]:
    """Indecomposables completing the given almost complete object."""
    return [x for x in all_rigid_indecs(tube)
            if x not in others and all(x in tube.compatible(y) for y in others)]


def mutate_rigid(t: MaximalRigid, k: int) -> ExchangeData:
    """Replace the k-th summand (1-based) by its unique exchange partner."""
    tube = t.tube
    if not 1 <= k <= tube.n:
        raise TubeError(f"mutation index {k} out of range")
    old = t.summands[k - 1]
    others = [s for i, s in enumerate(t.summands) if i != k - 1]
    comps = completions(tube, others)
    if len(comps) != 2 or old not in comps:
        raise ConsistencyError(
            f"expected exactly two completions of {others}, found {comps}"
        )
    new = next(c for c in comps if c != old)
    right = minimal_approximation(tube, old, others, "right")
    left = minimal_approximation(tube, old, others, "left")
    summands = list(t.summands)
    summands[k - 1] = new
    if new.b == tube.n:
        order = [new] + [s for s in summands if s != new]
    else:
        order = summands
    mutated = MaximalRigid(tube, tuple(order), validate=False)
    return ExchangeData(
        mutated=mutated,
        old=old,
        new=new,
        right_middle=right.middle,
        right_maps=right.components,
        left_middle=left.middle,
        left_maps=left.components,
    )


def b_matrix_multiplicities(t: MaximalRigid, triangles: Optional[Sequence[ExchangeData]] = None
                            ) -> Tuple[Tuple[int, ...], ...]:
    """Exchange matrix from exchange-triangle middle-term multiplicities;
    ``triangles``, if given, are ``mutate_rigid(t, k)`` for k = 1..n."""
    tube = t.tube
    n = tube.n
    if triangles is None:
        triangles = [mutate_rigid(t, j) for j in range(1, n + 1)]
    cols = []
    for data in triangles:
        col = []
        for i in range(n):
            ti = t.summands[i]
            col.append(data.right_middle.count(ti) - data.left_middle.count(ti))
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def b_matrix(t: MaximalRigid, cross_validate: bool = True, algebra=None,
             triangles: Optional[Sequence[ExchangeData]] = None):
    """The skew-symmetrizable matrix attached to a maximal rigid object.

    Computed from exchange-triangle multiplicities (from ``triangles`` when
    given, as in ``b_matrix_multiplicities``) and, unless disabled,
    cross-validated against the arrow-count rule on the endomorphism quiver
    and the antisymmetrized truncated Euler form on simples.
    """
    from .cluster import ExchangeMatrix

    mult = b_matrix_multiplicities(t, triangles)
    if cross_validate:
        from .endo import b_matrix_from_quiver, build_endomorphism_algebra
        from .amod import b_matrix_from_euler_form

        if algebra is None:
            algebra = build_endomorphism_algebra(t)
        arrows = b_matrix_from_quiver(algebra)
        euler = b_matrix_from_euler_form(algebra)
        if mult != arrows or mult != euler:
            raise ConsistencyError(
                "exchange-matrix formulas disagree: "
                f"multiplicities={mult}, arrows={arrows}, euler={euler}"
            )
    return ExchangeMatrix(mult)
