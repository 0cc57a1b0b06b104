"""Complement models and homological spanning / competitor checks.

Questions about the complement of a face set F inside the box B = |K| are
decided on cl F, the closure of F.  Lefschetz duality,
H_k(B - |F|) = H^{n-k}(K, cl F u dK), the sequence of the triple
(K, cl F u dK, dK) and excision give Alexander duality:
H~_k(B - |F|) = H^{n-k-1}(cl F, cl F n dK) for 0 <= k <= n-1 (reduced
homology, so H_0 has one more Z), torsion included (Hatcher, Algebraic
Topology, Thm 3.44).  Its cochains are the simplices of cl F off dK, so
homology is one or two sparse eliminations whose size follows |F|, not
the box.

Point pairs and degree-0 cycles are decided by early-exit searches on the
dual graph of K (top simplices joined across (n-1)-faces outside F): two
points lie in one component exactly when a path in it joins the top
simplices holding them.  A degree-1 cycle pushed onto dual paths near it
gives a cocycle z = delta(y) of (K, dK), with y solved once per complex and
cycle; the cycle bounds in the complement of |F| exactly when y restricted
to cl F is a coboundary of (cl F, cl F n dK).

The full subcomplex of the barycentric subdivision on the simplices outside
cl F is a homotopy model of the same complement.  It is built only for the
public `complex` view and for constraint cycles of degree 2 and above.
"""

from __future__ import annotations

import bisect
import itertools
import warnings
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import (Callable, Container, Dict, FrozenSet, List, Optional,
                    Sequence, Tuple)

import numpy as np

from .complexes import (Chain, Complex, FaceSet, canonical_vertices,
                        kuhn_tops)
from .errors import InvalidInputError, PreconditionError, RealizationError
from . import homology as _hom


# -- barycentric subdivision bookkeeping -----------------------------------

def _sd_offsets(K: Complex) -> List[int]:
    """Subdivision ids: the simplices of K numbered dimension by dimension,
    so the (k, i)-simplex has id offsets[k] + i."""
    offsets = [0]
    for k in range(K.dim + 1):
        offsets.append(offsets[-1] + K.n_simplices(k))
    return offsets


class _SdStructure:
    """Chains-in-the-face-poset view of the barycentric subdivision of K.

    Subdivision vertices are the simplices of K, numbered dimension by
    dimension (offsets[k] + index).  A subdivision m-simplex is a strictly
    increasing chain of m+1 faces, so its id tuple is already canonical.
    """

    def __init__(self, K: Complex, max_dim: int):
        self.K = K
        self.max_dim = max_dim
        self.offsets = _sd_offsets(K)
        self.total = self.offsets[-1]

        self.chains: Dict[int, List[Tuple[int, ...]]] = {0: []}
        self.chains[0] = [(i,) for i in range(self.total)]
        for m in range(1, max_dim + 1):
            self.chains[m] = []
        self._generate()
        self.edge_arrays = None
        if max_dim >= 1 and self.chains[1]:
            E = np.array(self.chains[1], dtype=np.int64)
            self.edge_arrays = (E[:, 0], E[:, 1])

    def sd_id(self, k: int, idx: int) -> int:
        return self.offsets[k] + idx

    def barycenter(self, sdid: int) -> Tuple[Fraction, ...]:
        """Exact barycenter of the simplex of K behind a subdivision vertex."""
        k = bisect.bisect_right(self.offsets, sdid) - 1
        verts = self.K.simplex(k, sdid - self.offsets[k])
        pts = [self.K.coords[v] for v in verts]
        return tuple(sum(col) / len(pts) for col in zip(*pts))

    def _generate(self) -> None:
        K = self.K
        if self.max_dim < 1:
            return
        index = K._index
        offsets = self.offsets
        edges = self.chains.get(1)
        tris = self.chains.get(2)
        want3 = self.max_dim >= 3

        def sub_ids(t: Tuple[int, ...]) -> List[int]:
            out = []
            for r in range(1, len(t)):
                off = offsets[r - 1]
                idx = index[r - 1]
                for sub in itertools.combinations(t, r):
                    out.append(off + idx[sub])
            return out

        # proper-subset ids per simplex, top dimension by top dimension
        subs_cache: Dict[int, List[int]] = {}
        high: Dict[int, List[Tuple[int, ...]]] = {m: [] for m in range(3, self.max_dim + 1)}
        for k in range(1, K.dim + 1):
            off = offsets[k]
            for i, t in enumerate(K.simplices(k)):
                b = off + i
                below = sub_ids(t)
                subs_cache[b] = below
                for a in below:
                    edges.append((a, b))
                if tris is not None:
                    for m in below:
                        for a in subs_cache.get(m, ()):
                            tris.append((a, m, b))
                if want3:
                    self._extend_high(b, below, subs_cache, high)
        for m, lst in high.items():
            self.chains[m] = lst

    def _extend_high(self, top: int, below: List[int],
                     subs_cache: Dict[int, List[int]],
                     high: Dict[int, List[Tuple[int, ...]]]) -> None:
        # depth-first chains of length >= 4 ending at `top`
        def descend(prefix: Tuple[int, ...], node: int) -> None:
            chain = (node,) + prefix
            if len(chain) - 1 >= 3 and len(chain) - 1 <= self.max_dim:
                high[len(chain) - 1].append(chain)
            for a in subs_cache.get(node, ()):
                descend(chain, a)

        for m in below:
            for a in subs_cache.get(m, ()):
                descend((m, top), a)


def _sd_structure(K: Complex, max_dim: int) -> _SdStructure:
    cached = K.cache.get("sd")
    if cached is None or cached.max_dim < max_dim:
        cached = _SdStructure(K, max_dim)
        K.cache["sd"] = cached
    return cached


class _DualGraph:
    """Per-complex tables of the point searches: one top simplex containing
    each simplex and, built on first use, the dual graph: adjacency lists of
    the top simplices of K joined across its interior (n-1)-faces, read only
    by the early-exit `reachable`.

    In a triangulated box the open star of a simplex outside cl F is a
    connected set that misses |F| and meets every top simplex containing
    the simplex, and those top simplices are joined through the
    (n-1)-faces containing it, none of which lies in cl F (Kaczynski,
    Mischaikow, Mrozek, Computational Homology, 2004).  So the components
    of the box minus |F| are the components of this graph less its edges
    across faces of F, and a simplex outside cl F lies in the component
    of any top simplex containing it.
    """

    def __init__(self, K: Complex):
        self.K = K
        n = K.dim
        self.n_top = K.n_simplices(n)
        # one top simplex containing each simplex of K, by subdivision id
        rows = [list(range(self.n_top))]
        for k in range(n - 1, -1, -1):
            up = rows[0]
            row = []
            for cof in K.cofacets(k):
                if not cof:
                    raise PreconditionError(
                        "complement models need a pure complex")
                row.append(up[cof[0]])
            rows.insert(0, row)
        self.top_of = [t for row in rows for t in row]

    @cached_property
    def adjacency(self) -> List[List[Tuple[int, int]]]:
        """Per top simplex: (facet, top across it) for each interior facet,
        in facet order."""
        adj: List[List[Tuple[int, int]]] = [[] for _ in range(self.n_top)]
        for f, tops in enumerate(self.K.cofacets(self.K.dim - 1)):
            for t in tops[1:]:
                adj[tops[0]].append((f, t))
                adj[t].append((f, tops[0]))
        return adj

    def reachable(self, t0: int, t1: int, cut: Container[int]) -> bool:
        """True iff a dual-graph path joins tops t0 and t1 without crossing
        a facet in `cut` (depth first, stopping at t1)."""
        if t0 == t1:
            return True
        adj = self.adjacency
        seen = {t0}
        stack = [t0]
        while stack:
            for f, u in adj[stack.pop()]:
                if u not in seen and f not in cut:
                    if u == t1:
                        return True
                    seen.add(u)
                    stack.append(u)
        return False


def _dual_graph(K: Complex) -> _DualGraph:
    cached = K.cache.get("dual")
    if cached is None:
        cached = K.cache["dual"] = _DualGraph(K)
    return cached


# -- relative cochains ------------------------------------------------------

def _coboundary(K: Complex, A: Dict[int, set], r: int
                ) -> Dict[int, Dict[int, int]]:
    """Columns {r-simplex: {(r+1)-simplex: sign}} of delta_r on the
    relative cochains carried by the simplices A[0], A[1], ... of K (a
    complex less a subcomplex): K's boundary columns transposed."""
    cols: Dict[int, Dict[int, int]] = {}
    if r not in A or r + 1 not in A:
        return cols
    index, table, keep = K._index[r], K.simplices(r + 1), A[r]
    for j in sorted(A[r + 1]):
        s = table[j]
        sign = 1
        for i in range(len(s)):
            f = index[s[:i] + s[i + 1:]]
            if f in keep:
                cols.setdefault(f, {})[j] = sign
            sign = -sign
    return cols


def _relative_cohomology(K: Complex, A: Dict[int, set], j: int
                         ) -> Tuple[int, Tuple[int, ...]]:
    """Rank and torsion of H^j of the relative cochains on A: the rank is
    |A_j| - rank delta_j - rank delta_{j-1}, and the torsion is the
    non-unit invariants of delta_{j-1}."""
    rank_j = len(_hom._snf_diagonal_sparse(_coboundary(K, A, j)))
    diag = _hom._snf_diagonal_sparse(_coboundary(K, A, j - 1))
    rank = len(A.get(j, ())) - rank_j - len(diag)
    return rank, tuple(d for d in diag if d > 1)


# -- the complement model ---------------------------------------------------

class ComplementModel:
    """The complement of |F| in the box of K, with fast bounding tests.

    Homology in every degree and degree-1 cycles are decided on the
    relative cochains of (cl F, cl F n dK), point pairs and degree-0 cycles
    by searches on K's dual graph; the dual graph and the subdivision
    arrays (`sd`, `good`, the kept edges) are built on first use.
    """

    def __init__(self, K: Complex, F: FaceSet, max_dim: int):
        if F.complex is not K:
            raise PreconditionError("face set belongs to a different complex")
        self.K = K
        self.F = F
        self.max_dim = max_dim
        self.offsets = _sd_offsets(K)
        self._complex: Optional[Complex] = None
        self._id_map: Optional[Dict[int, int]] = None

    @cached_property
    def dual(self) -> _DualGraph:
        return _dual_graph(self.K)

    @cached_property
    def sd(self) -> _SdStructure:
        return _sd_structure(self.K, self.max_dim)

    @cached_property
    def _closure(self) -> List[set]:
        """Per dimension r = 0..d: the r-simplices of cl F."""
        K, d = self.K, self.F.dim
        cl: List[set] = [set() for _ in range(d + 1)]
        for f in self.F.faces:
            verts = K.simplex(d, f)
            for r in range(d + 1):
                index = K._index[r]
                cl[r].update(index[s]
                             for s in itertools.combinations(verts, r + 1))
        return cl

    @cached_property
    def bad(self) -> np.ndarray:
        """True per subdivision id whose simplex lies in cl F."""
        bad = np.zeros(self.offsets[-1], dtype=bool)
        for r, faces in enumerate(self._closure):
            bad[[self.offsets[r] + i for i in faces]] = True
        return bad

    @cached_property
    def good(self) -> np.ndarray:
        return ~self.bad

    @cached_property
    def edges_a(self) -> np.ndarray:
        """Lower ends of the subdivision edges with both ends outside cl F."""
        if self.sd.edge_arrays is None:
            return np.zeros(0, dtype=np.int64)
        a, b = self.sd.edge_arrays
        return a[self.good[a] & self.good[b]]

    # raw ids below are subdivision-vertex ids (simplices of K)

    def is_clear(self, k: int, idx: int) -> bool:
        """True if the barycenter cell of the (k, idx) simplex avoids |F|."""
        return not self.bad[self.offsets[k] + idx]

    # -- full Complex view (lazy) -------------------------------------------

    @property
    def complex(self) -> Complex:
        if self._complex is None:
            good = self.good
            keep_v = [i for i in range(self.sd.total) if good[i]]
            id_map = {old: new for new, old in enumerate(keep_v)}
            simplices: Dict[int, List[Tuple[int, ...]]] = {
                0: [(id_map[v],) for v in keep_v]}
            for m in range(1, self.max_dim + 1):
                kept = []
                for ch in self.sd.chains.get(m, ()):
                    ok = True
                    for v in ch:
                        if not good[v]:
                            ok = False
                            break
                    if ok:
                        kept.append(tuple(id_map[v] for v in ch))
                simplices[m] = kept
            coords = [self.sd.barycenter(v) for v in keep_v]
            self._complex = Complex(simplices, coords, validate=False)
            self._id_map = id_map
        return self._complex

    def model_vertex(self, k: int, idx: int) -> int:
        """Complement-complex vertex id of the (k, idx)-simplex of K."""
        sdid = self.sd.sd_id(k, idx)
        if self.bad[sdid]:
            raise RealizationError(
                f"simplex ({k},{idx}) lies inside the removed set")
        _ = self.complex
        return self._id_map[sdid]

    # -- relative cochains of (cl F, cl F n dK) -------------------------------

    @cached_property
    def _relative(self) -> Dict[int, set]:
        """Per dimension r = 0..d: the r-simplices of cl F off dK (no
        bounding hyperplane of the box holds all their vertices), which
        carry the relative cochains of (cl F, cl F n dK)."""
        K, grid = self.K, self.K.grid
        if grid is None:
            raise PreconditionError(
                "complement homology needs a grid-built complex")
        # per vertex of cl F, one bit per bounding hyperplane holding it
        walls = {}
        for v in self._closure[0]:
            p = grid.points[v]
            walls[v] = sum(1 << (2 * a + (p[a] > 0)) for a in range(K.dim)
                           if p[a] in (0, grid.box[a]))
        out = {}
        for r, faces in enumerate(self._closure):
            out[r] = set()
            for i in faces:
                shared = -1
                for v in K.simplex(r, i):
                    shared &= walls[v]
                if not shared:
                    out[r].add(i)
        return out

    # -- bounding tests -----------------------------------------------------

    def _touches(self, c: ConstraintCycle) -> bool:
        """True iff a vertex of the constraint's cycle lies in cl F: then a
        face of a cycle simplex does, and the cycle meets |F|."""
        return not support_vertices(self.K, [c]).isdisjoint(self._closure[0])

    def _bounds_deg0(self, coeffs: Dict[int, int]) -> bool:
        """True iff the 0-cycle {vertex id outside cl F: coeff} bounds: its
        vertices grouped by dual-graph searches between their tops, every
        group's coefficients sum to 0."""
        top_of = self.dual.top_of
        cut = _cut(self.K, self.F.dim, self.F.faces)
        totals: Dict[int, int] = {}  # representative top -> coefficient sum
        for v, c in coeffs.items():
            t = top_of[v]
            rep = next((r for r in totals
                        if self.dual.reachable(t, r, cut)), t)
            totals[rep] = totals.get(rep, 0) + c
        return not any(totals.values())

    def _cocycle_reason(self, cocycle: _Cocycle) -> str:
        """The degree-1 decision: 'contact', 'degenerate', then
        'null-homologous' when y|cl F is a coboundary of (cl F, cl F n dK).
        The solutions of delta(y') = z on (K, dK) are y + delta(w), as
        H^{n-2}(K, dK) = 0, so z = delta(y') with y' = 0 on cl F u dK (the
        cycle bounds in the complement) exactly when y|cl F = delta(w|cl F).
        """
        if (cocycle.vertices is None
                or not cocycle.vertices.isdisjoint(self._closure[0])):
            return "contact"
        if cocycle.zero:
            return "degenerate"
        if cocycle.y is None:
            return "nontrivial"
        A = self._relative
        on_f = A.get(self.K.dim - 2, ())
        rhs = {i: c for i, c in cocycle.y.items() if i in on_f}
        if rhs and not _hom._snf_diagonal_sparse(
                _coboundary(self.K, A, self.K.dim - 3), rhs=rhs).solvable:
            return "nontrivial"
        return "null-homologous"

    def check(self, constraints: Sequence[ConstraintCycle]
              ) -> List[ConstraintStatus]:
        """Per-constraint spanning verdicts in this model."""
        out: List[ConstraintStatus] = []
        faces = self.F.faces
        cut = _cut(self.K, self.F.dim, faces)
        for i, c in enumerate(constraints):
            if c.kind == "point-pair":
                pair = _resolve_pair(self.K, c, self.F.dim)
                reason = _pair_reason(self.dual, pair, faces, cut)
            elif c.degree == 1:
                reason = self._cocycle_reason(_cocycle(self.K, c))
            else:
                reason = self._cycle_reason(c)
            out.append(ConstraintStatus(i, reason == "nontrivial", reason))
        return out

    def _cycle_reason(self, c: ConstraintCycle) -> str:
        """Verdict on an explicit cycle of degree 0 (dual-graph searches)
        or of degree >= 2 (a solve on the subdivision)."""
        if c.degree >= 2 and self.max_dim < c.degree + 1:
            # a g-cycle bounds only through the (g+1)-simplices
            raise PreconditionError(
                f"a degree-{c.degree} cycle needs max_dim >= "
                f"{c.degree + 1}, got {self.max_dim}")
        if self._touches(c):
            return "contact"
        try:
            dim, raw = _realize_raw(c, self.K)
        except RealizationError:
            return "contact"
        if not raw:
            return "degenerate"
        if dim == 0:
            null = self._bounds_deg0(raw)
        else:
            null, _ = _hom.is_null_homologous(realize_constraint(c, self))
        return "null-homologous" if null else "nontrivial"

    def homology(self, k: int) -> _hom.HomologyGroup:
        """H_k of the complement of |F|: H^{n-k-1}(cl F, cl F n dK) by
        Alexander duality (zero for k = n), plus one Z in degree 0, where
        the duality gives reduced homology.  The duality holds as K is a
        ball; it reads dK from lattice coordinates, so every degree raises
        `PreconditionError` on a complex not built by `build_grid_complex`.
        """
        n = self.K.dim
        if not 0 <= k <= n:
            raise InvalidInputError(
                f"homology dimension {k} out of range 0..{n}")
        rank, torsion = _relative_cohomology(self.K, self._relative,
                                             n - k - 1)
        return _hom.HomologyGroup(k=k, rank=rank + (k == 0), torsion=torsion)


def complement_subcomplex(K: Complex, F: FaceSet,
                          max_dim: Optional[int] = None) -> ComplementModel:
    """Model of the open complement of |F| inside the box of K.

    `max_dim` truncates the skeleton of the subdivision behind the
    `complex` view; testing a degree-g `cycle` constraint there needs
    max_dim >= g+1, and `check` raises `PreconditionError` otherwise.
    `homology` and the checks of degree 0 and 1 do not read it.
    """
    if max_dim is None:
        max_dim = K.dim
    return ComplementModel(K, F, max_dim)


# -- constraints -------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintCycle:
    """A homology constraint: a cycle that must not bound in the complement.

    Points are integer lattice coordinates of the ambient grid complex.
    `point-pair` has degree 0 (separation), `loop` a closed lattice polygon of
    degree 1, `cycle` an explicit list of (simplex lattice points, coeff).
    """

    kind: str
    points: Tuple[Tuple[int, ...], ...] = ()
    degree: Optional[int] = None
    items: Tuple[Tuple[Tuple[Tuple[int, ...], ...], int], ...] = ()

    def __post_init__(self):
        if self.kind not in ("point-pair", "loop", "cycle"):
            raise InvalidInputError(f"unknown constraint kind {self.kind!r}")
        pts = tuple(tuple(int(c) for c in p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if self.kind == "point-pair":
            if len(pts) != 2:
                raise InvalidInputError("point-pair needs exactly two points")
            object.__setattr__(self, "degree", 0)
        elif self.kind == "loop":
            if len(pts) < 2:
                raise InvalidInputError("loop needs at least two points")
            object.__setattr__(self, "degree", 1)
        else:
            if self.degree is None:
                raise InvalidInputError("general cycle needs an explicit degree")
            if self.degree < 0:
                raise InvalidInputError(
                    f"cycle degree {self.degree} is negative")


def _lattice_vertex(K: Complex, p: Sequence[int]) -> int:
    if K.grid is None:
        raise RealizationError("constraints need a grid-built complex")
    try:
        return K.grid.vertex_at(p)
    except InvalidInputError as exc:
        raise RealizationError(str(exc)) from exc


def support_vertices(K: Complex,
                     constraints: Sequence[ConstraintCycle]) -> set:
    """Vertices of K on the constraints' cycles.  A face set with one of
    them in its closure puts that constraint in contact."""
    out = set()
    for c in constraints:
        for p in c.points + tuple(q for pts, _ in c.items for q in pts):
            try:
                out.add(_lattice_vertex(K, p))
            except RealizationError:
                pass  # such a constraint fails for every face set alike
    return out


@dataclass(frozen=True)
class _PointPair:
    """A point-pair constraint resolved on K for d-face sets: its two vertex
    ids (None when a point is off the grid), a top simplex holding each and
    the d-faces whose closure holds either point."""

    ids: Optional[Tuple[int, int]]
    tops: Tuple[int, ...] = ()
    touching: FrozenSet[int] = frozenset()


def _resolve_pair(K: Complex, spec: ConstraintCycle, d: int) -> _PointPair:
    try:
        ids = tuple(_lattice_vertex(K, p) for p in spec.points)
    except RealizationError:
        return _PointPair(None)
    touching = set()
    for v in ids:  # a vertex's index among the 0-simplices is v
        star = {v}
        for k in range(d):
            cof = K.cofacets(k)
            star = {c for s in star for c in cof[s]}
        touching |= star
    top_of = _dual_graph(K).top_of
    return _PointPair(ids, (top_of[ids[0]], top_of[ids[1]]),
                      frozenset(touching))


def _cut(K: Complex, d: int, faces: Tuple[int, ...]) -> Container[int]:
    """The facets a dual-graph path may not cross: F when d = n-1."""
    return set(faces) if d == K.dim - 1 else ()


def _pair_reason(dual: _DualGraph, pair: _PointPair, faces: Tuple[int, ...],
                 cut: Container[int]) -> str:
    """The one point-pair decision: 'contact' when a point is off the grid
    or in cl F, then 'degenerate' for identical points, then
    'null-homologous' when a dual path joins the two tops, else
    'nontrivial'."""
    if pair.ids is None or not pair.touching.isdisjoint(faces):
        return "contact"
    if pair.ids[0] == pair.ids[1]:
        return "degenerate"
    if dual.reachable(pair.tops[0], pair.tops[1], cut):
        return "null-homologous"
    return "nontrivial"


def _subdivide_simplex(K: Complex, verts: Tuple[int, ...], coeff: int,
                       out: Dict[Tuple[int, ...], int]) -> None:
    """Add the barycentric pieces of an oriented K-simplex to `out`, keyed
    by raw-id chains (strictly increasing, hence canonical)."""
    k = len(verts) - 1
    index = K._index
    offsets = _sd_offsets(K)
    for perm in itertools.permutations(range(k + 1)):
        sgn = canonical_vertices(perm)[1]
        chain_ids = []
        prefix: Tuple[int, ...] = ()
        for p in perm:
            prefix = tuple(sorted(prefix + (verts[p],)))
            r = len(prefix) - 1
            chain_ids.append(offsets[r] + index[r][prefix])
        key = tuple(chain_ids)
        out[key] = out.get(key, 0) + sgn * coeff
    for key in [key for key, c in out.items() if c == 0]:
        del out[key]


def _realize_raw(spec: ConstraintCycle, K: Complex):
    """Raw realization: (degree, coeffs keyed by raw-id simplex tuple, or by
    raw vertex id in degree 0).  Raises `RealizationError` when the cycle is
    not one of K; contact with a face set is the caller's test."""
    if spec.kind == "point-pair":
        # a vertex's subdivision id is its vertex id
        ids = [_lattice_vertex(K, p) for p in spec.points]
        if ids[0] == ids[1]:
            return 0, {}
        return 0, {ids[1]: 1, ids[0]: -1}

    if spec.kind == "loop":
        out: Dict[Tuple[int, ...], int] = {}
        pts = list(spec.points)
        if pts[0] == pts[-1]:
            pts = pts[:-1]
        for i in range(len(pts)):
            p, q = pts[i], pts[(i + 1) % len(pts)]
            u, v = _lattice_vertex(K, p), _lattice_vertex(K, q)
            if u == v:
                raise RealizationError(f"repeated loop point {p}")
            pair = (u, v) if u < v else (v, u)
            if not K.contains(pair):
                raise RealizationError(f"loop hop {p}->{q} is not a grid edge")
            sgn = 1 if u < v else -1
            _subdivide_simplex(K, pair, sgn, out)
        return 1, out

    # explicit cycle
    out = {}
    for verts_pts, coeff in spec.items:
        vids = [_lattice_vertex(K, p) for p in verts_pts]
        canon = tuple(sorted(vids))
        if len(canon) != spec.degree + 1 or not K.contains(canon):
            raise RealizationError(f"cycle item {verts_pts} is not a grid simplex")
        # orientation sign of the given vertex order
        _, sgn = canonical_vertices(vids)
        _subdivide_simplex(K, canon, sgn * int(coeff), out)
    if spec.degree == 0:
        # 0-chains are keyed by vertex id, as for point pairs
        return 0, {key[0]: c for key, c in out.items()}
    return spec.degree, out


@dataclass(frozen=True)
class _Cocycle:
    """A degree-1 constraint resolved on K for every face set: the vertices
    of its cycle (None when it does not realize on K), whether it is zero,
    and the cochain y of `_cobound`."""

    vertices: Optional[FrozenSet[int]]
    zero: bool = False
    y: Optional[Dict[int, int]] = None


def _cocycle(K: Complex, spec: ConstraintCycle) -> _Cocycle:
    """`_Cocycle` of a degree-1 constraint, cached per complex: neither z
    nor y depends on the face set, which only decides contact, so a solve
    decides each candidate by the one small solve on cl F."""
    cache = K.cache.setdefault("cocycles", {})
    if spec not in cache:
        try:
            _, raw = _realize_raw(spec, K)
        except RealizationError:
            cache[spec] = _Cocycle(None)
        else:
            vertices = frozenset(support_vertices(K, [spec]))
            cache[spec] = (_Cocycle(vertices, zero=True) if not raw else
                           _Cocycle(vertices, y=_cobound(K, raw, vertices)))
    return cache[spec]


def _cobound(K: Complex, raw: Dict[Tuple[int, int], int],
             vertices: FrozenSet[int]) -> Optional[Dict[int, int]]:
    """An (n-2)-cochain y of (K, dK) with delta(y) = z, the crossing cocycle
    of the raw 1-chain, or None when there is none (not a cycle).

    K' is the sub-box of the cycle's vertices grown by one and clipped to
    the box: a ball holding the open star of every simplex on the cycle.
    A subdivision vertex a goes to the first top of K' containing it, an
    edge a < b to a dual path from the top of a to that of b through the
    open star of a.  Leaving top t through the facet opposite its vertex i
    counts eps_t (-1)^(i+1), eps_t = sign(det t) = the sign of t's axis
    permutation, so the crossings sum to a cocycle z of (K', dK'), where
    H^{n-1} = 0: y is one sparse solve with a witness over delta_{n-2} off
    dK', whose cofaces all lie in K', so delta(y) = z on (K, dK) too.
    """
    n, lattice, points = K.dim, K.grid.lattice, K.grid.points
    coords = list(zip(*(points[v] for v in vertices)))
    lo = [max(min(c) - 1, 0) for c in coords]
    hi = [min(max(c) + 1, b) for c, b in zip(coords, K.grid.box)]
    tops, eps = [], []
    on_facet: Dict[Tuple[int, ...], List[int]] = {}
    on_vertex: Dict[int, List[int]] = {}
    for top, perm in kuhn_tops(lattice, lo, hi):
        for i in range(n + 1):
            on_facet.setdefault(top[:i] + top[i + 1:], []).append(len(tops))
        for v in top:
            on_vertex.setdefault(v, []).append(len(tops))
        tops.append(top)
        eps.append(canonical_vertices(perm)[1])
    offsets, index = _sd_offsets(K), K._index[n - 1]

    def home(sdid: int) -> Tuple[Tuple[int, ...], int]:
        k = bisect.bisect_right(offsets, sdid) - 1
        s = K.simplex(k, sdid - offsets[k])
        return s, next(t for t in on_vertex[s[0]]
                       if all(v in tops[t] for v in s))

    z: Dict[int, int] = {}
    for (a, b), c in raw.items():
        (inside, t0), (_, t1) = home(a), home(b)
        prev: Dict[int, Optional[Tuple[int, int, int]]] = {t0: None}
        queue = deque([t0])
        while t1 not in prev:  # breadth first through the star of a
            t = queue.popleft()
            top = tops[t]
            for i, v in enumerate(top):
                facet = top[:i] + top[i + 1:]
                for u in on_facet[facet]:
                    if v not in inside and u not in prev:
                        prev[u] = (t, index[facet], eps[t] * (-1) ** (i + 1))
                        queue.append(u)
        while prev[t1] is not None:
            t1, f, sign = prev[t1]
            z[f] = z.get(f, 0) + sign * c
    inner = [f for f, ts in on_facet.items() if len(ts) == 2]
    outer = {f[:i] + f[i + 1:] for f, ts in on_facet.items() if len(ts) == 1
             for i in range(n)}
    A = {n - 1: {index[f] for f in inner}}
    if n >= 2:
        A[n - 2] = {K._index[n - 2][f[:i] + f[i + 1:]] for f in inner
                    for i in range(n) if f[:i] + f[i + 1:] not in outer}
    sol = _hom._snf_diagonal_sparse(_coboundary(K, A, n - 2), rhs=z,
                                    witness=True)
    return sol.witness if sol.solvable else None


_DEGENERATE = {"point-pair": "degenerate point pair (identical points)",
               "loop": "degenerate loop (edges cancel)"}


def realize_constraint(spec: ConstraintCycle, model: ComplementModel) -> Chain:
    """Realize a constraint as a chain on the complement complex; warns when
    a point pair or loop realizes as the zero chain."""
    if spec.degree > model.max_dim:
        raise PreconditionError(
            f"a degree-{spec.degree} constraint needs max_dim >= "
            f"{spec.degree}, got {model.max_dim}")
    if model._touches(spec):
        raise RealizationError("constraint support touches the removed set")
    dim, raw = _realize_raw(spec, model.K)
    if not raw and spec.kind in _DEGENERATE:
        warnings.warn(_DEGENERATE[spec.kind])
    C = model.complex
    remap = model._id_map
    coeffs: Dict[int, int] = {}
    for key, c in raw.items():
        if dim == 0:
            verts = (remap[key],)
        else:
            verts = tuple(remap[v] for v in key)
        coeffs[C.index(verts)] = c
    chain = Chain(C, dim, coeffs)
    if not chain.is_zero() and not _hom.is_cycle(chain):
        raise RealizationError("realized constraint is not a cycle")
    return chain


@dataclass(frozen=True)
class ConstraintStatus:
    """Per-constraint verdict of a spanning check."""

    index: int
    passed: bool
    reason: str  # 'nontrivial', 'null-homologous', 'contact', 'degenerate'


def spanning_check(K: Complex, F: FaceSet,
                   constraints: Sequence[ConstraintCycle]
                   ) -> List[ConstraintStatus]:
    """Per-constraint spanning verdicts for F.

    A constraint passes when its cycle stays homologically nontrivial in the
    complement model of F.  Geometric contact with |F| is reported separately
    from a homologically killed cycle.
    """
    max_dim = max([c.degree for c in constraints] or [0]) + 1
    return ComplementModel(K, F, max_dim).check(constraints)


def is_spanning(K: Complex, F: FaceSet,
                constraints: Sequence[ConstraintCycle]) -> bool:
    """True iff F passes every constraint (see `spanning_predicate`)."""
    if F.complex is not K:
        raise PreconditionError("face set belongs to a different complex")
    return spanning_predicate(K, constraints, F.dim)(F.faces)


def spanning_predicate(K: Complex, constraints: Sequence[ConstraintCycle],
                       d: int) -> Callable[[Tuple[int, ...]], bool]:
    """`is_spanning` for d-face sets of K, as a function of the face tuple.

    Built once per solve: each point pair is resolved here to its vertices,
    a top simplex holding each and the d-faces whose closure holds either
    point.  A call then decides every pair by a dual-graph search that stops
    at the second top (cutting the faces when d = n-1), with no face set or
    model built.  Other constraints go to one `ComplementModel` per call,
    only when every pair passes; a loop's cochain y is solved once per
    complex (`_cocycle`), so a call then takes one small solve on cl F.
    """
    if not 0 <= d < K.dim:
        raise InvalidInputError(
            f"face dimension {d} must lie strictly below {K.dim}")
    pairs = [_resolve_pair(K, c, d) for c in constraints
             if c.kind == "point-pair"]
    dual = _dual_graph(K) if pairs else None
    rest = [c for c in constraints if c.kind != "point-pair"]
    max_dim = max([c.degree for c in constraints] or [0]) + 1

    def spans(faces: Tuple[int, ...]) -> bool:
        cut = _cut(K, d, faces)
        for pair in pairs:
            if _pair_reason(dual, pair, faces, cut) != "nontrivial":
                return False
        if not rest:
            return True
        model = ComplementModel(K, FaceSet(K, d, faces), max_dim)
        return all(s.passed for s in model.check(rest))

    return spans


# -- sub-box regions and competitor checks ----------------------------------

@dataclass(frozen=True)
class Region:
    """Axis-aligned lattice sub-box (inclusive vertex bounds)."""

    lo: Tuple[int, ...]
    hi: Tuple[int, ...]

    def __post_init__(self):
        lo = tuple(int(c) for c in self.lo)
        hi = tuple(int(c) for c in self.hi)
        if len(lo) != len(hi) or any(a > b for a, b in zip(lo, hi)):
            raise InvalidInputError(f"bad region bounds {lo}..{hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains_point(self, p: Sequence[int]) -> bool:
        return all(a <= c <= b for c, a, b in zip(p, self.lo, self.hi))

    def contains_face(self, K: Complex, dim: int, idx: int) -> bool:
        if K.grid is None:
            raise InvalidInputError("regions need a grid-built complex")
        return all(self.contains_point(K.grid.points[v])
                   for v in K.simplex(dim, idx))


@dataclass(frozen=True)
class CompetitorVerdict:
    """Outcome of a discrete topological-competitor check."""

    boundary_match: bool
    survival: Tuple[Tuple[int, bool], ...]
    overall: bool


def competitor_check(E: FaceSet, F: FaceSet, region: Region, d: int,
                     constraints: Sequence[ConstraintCycle]) -> CompetitorVerdict:
    """Check that F competes with E: equal outside the region, and every
    constraint that is nontrivial for E stays nontrivial for F."""
    if E.complex is not F.complex:
        raise PreconditionError("face sets live in different complexes")
    if E.dim != d or F.dim != d:
        raise PreconditionError("face sets have the wrong dimension")
    K = E.complex
    outside_E = {f for f in E.faces if not region.contains_face(K, d, f)}
    outside_F = {f for f in F.faces if not region.contains_face(K, d, f)}
    boundary_match = outside_E == outside_F

    st_E = spanning_check(K, E, constraints)
    st_F = spanning_check(K, F, constraints)
    survival = tuple((i, (not e.passed) or f.passed)
                     for i, (e, f) in enumerate(zip(st_E, st_F)))
    overall = boundary_match and all(ok for _, ok in survival)
    return CompetitorVerdict(boundary_match=boundary_match,
                             survival=survival, overall=overall)


def free_collapse_candidates(F: FaceSet,
                             region: Optional[Region] = None) -> List[Tuple[int, int]]:
    """Elementary collapse moves available on F.

    Returns (face, free subface) pairs: the (d-1)-subface lies in exactly one
    face of F, so removing the face is a deformation retraction.  With a
    region, both cells must sit inside it (compactly supported deformation).
    """
    K = F.complex
    d = F.dim
    incidence: Dict[Tuple[int, ...], List[int]] = {}
    for f in F.faces:
        s = K.simplex(d, f)
        for i in range(len(s)):
            sub = s[:i] + s[i + 1:]
            incidence.setdefault(sub, []).append(f)
    out = []
    for sub, owners in incidence.items():
        if len(owners) != 1:
            continue
        f = owners[0]
        if region is not None:
            if not region.contains_face(K, d, f):
                continue
            if not all(region.contains_point(K.grid.points[v]) for v in sub):
                continue
        out.append((f, K.index(sub)))
    return sorted(out)
