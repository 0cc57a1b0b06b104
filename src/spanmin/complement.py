"""Complement models and homological spanning / competitor checks.

Questions about the complement of a face set F inside the box B = |K| are
decided on the simplices of K itself.  Lefschetz duality gives
H_k(B - |F|) = H^{n-k}(K, cl F u dK) (Hatcher, Algebraic Topology, 3.3;
Kaczynski, Mischaikow, Mrozek, Computational Homology, 2004): the relative
cochains are the simplices outside cl F u dK, and their coboundaries are
K's boundary columns transposed.  Degree 0 is the dual graph of K (top
simplices joined across (n-1)-faces outside F): a point pair is separated
exactly when no path in it joins the two top simplices holding its points,
which `spanning_predicate` decides per face tuple with nothing rebuilt
between calls.  A degree-1 cycle is pushed onto a closed path in that
graph, whose signed crossings form a relative (n-1)-cocycle, and it bounds
exactly when that cocycle is a coboundary.

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

from .complexes import Chain, Complex, FaceSet, canonical_vertices
from .errors import InvalidInputError, PreconditionError, RealizationError
from . import homology as _hom


# -- barycentric subdivision bookkeeping -----------------------------------

class _SdStructure:
    """Chains-in-the-face-poset view of the barycentric subdivision of K.

    Subdivision vertices are the simplices of K, numbered dimension by
    dimension (offsets[k] + index).  A subdivision m-simplex is a strictly
    increasing chain of m+1 faces, so its id tuple is already canonical.
    """

    def __init__(self, K: Complex, max_dim: int):
        self.K = K
        self.max_dim = max_dim
        self.offsets = _dual_graph(K).offsets
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
    """Per-complex tables of the complement model: subdivision-id offsets,
    one top simplex containing each simplex, the face closure of each
    d-simplex and, built on first use, the dK mask, the signed facet
    crossings of the top simplices and the dual graph: adjacency lists of
    the top simplices of K joined across its interior (n-1)-faces, read
    by the early-exit `reachable` and by `homology._spanning_forest`.

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
        self.offsets = [0]  # subdivision ids: simplices of K, dim by dim
        for k in range(n + 1):
            self.offsets.append(self.offsets[-1] + K.n_simplices(k))
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
        self._closure: Dict[int, np.ndarray] = {}

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

    def closure(self, d: int) -> np.ndarray:
        """Row per d-simplex: the subdivision ids of all its faces."""
        if d not in self._closure:
            rows = []
            for t in self.K.simplices(d):
                rows.append([self.offsets[r - 1] + self.K._index[r - 1][sub]
                             for r in range(1, d + 2)
                             for sub in itertools.combinations(t, r)])
            self._closure[d] = np.array(rows, dtype=np.int64).reshape(
                len(rows), 2 ** (d + 1) - 1)
        return self._closure[d]

    @cached_property
    def on_boundary(self) -> np.ndarray:
        """True per subdivision id whose simplex lies in dK: the faces of
        the (n-1)-simplices with a single coface."""
        n = self.K.dim
        outer = [f for f, tops in enumerate(self.K.cofacets(n - 1))
                 if len(tops) == 1]
        mask = np.zeros(self.offsets[-1], dtype=bool)
        if outer:
            mask[self.closure(n - 1)[outer]] = True
        return mask

    @cached_property
    def crossings(self) -> List[List[Tuple[int, int, int]]]:
        """Per top simplex t and vertex slot i: the facet f opposite vertex
        i, the top across f (-1 on dK) and the sign -[t:f] eps_t of a
        crossing out of t through f.

        eps_t, the sign of t's determinant, orients t.  The two tops on a
        face induce opposite orientations on it, so the signed crossings of
        a dual path from t0 to t1 sum to an (n-1)-cochain z with
        delta(z) = eps_t1 t1* - eps_t0 t0*; along a closed path z is a
        cocycle.
        """
        K, n = self.K, self.K.dim
        T = np.array(K.simplices(n), dtype=np.int64)
        X = K.coords_float()
        eps = np.sign(np.linalg.det(X[T[:, 1:]] - X[T[:, :1]]))
        index, cof = K._index[n - 1], K.cofacets(n - 1)
        out = []
        for t, (verts, e) in enumerate(zip(K.simplices(n), eps.tolist())):
            row = []
            for i in range(n + 1):
                f = index[verts[:i] + verts[i + 1:]]
                across = next((u for u in cof[f] if u != t), -1)
                row.append((f, across, int(e) * (-1) ** (i + 1)))
            out.append(row)
        return out

    def star_path(self, sdid: int, t0: int, t1: int
                  ) -> List[Tuple[int, int]]:
        """Signed crossings (facet, sign) of a dual-graph path from top t0
        to top t1, both containing the simplex behind `sdid`, that stays
        among the tops containing it (breadth first)."""
        k = bisect.bisect_right(self.offsets, sdid) - 1
        inside = set(self.K.simplex(k, sdid - self.offsets[k]))
        tops = self.K.simplices(self.K.dim)
        prev: Dict[int, Optional[Tuple[int, int, int]]] = {t0: None}
        queue = deque([t0])
        while t1 not in prev:
            t = queue.popleft()
            for v, (f, u, s) in zip(tops[t], self.crossings[t]):
                # the facet opposite v contains the simplex iff v is not
                # one of its vertices
                if u >= 0 and v not in inside and u not in prev:
                    prev[u] = (t, f, s)
                    queue.append(u)
        path = []
        step = prev[t1]
        while step is not None:
            t, f, s = step
            path.append((f, s))
            step = prev[t]
        return path


def _dual_graph(K: Complex) -> _DualGraph:
    cached = K.cache.get("dual")
    if cached is None:
        cached = K.cache["dual"] = _DualGraph(K)
    return cached


# -- the complement model ---------------------------------------------------

class ComplementModel:
    """The complement of |F| in the box of K, with fast bounding tests.

    Degrees 0 and 1 and all homology are decided on K's dual graph and
    relative cochains; the subdivision arrays (`sd`, `good`, the kept
    edges) are built on first use.
    """

    def __init__(self, K: Complex, F: FaceSet, max_dim: int):
        if F.complex is not K:
            raise PreconditionError("face set belongs to a different complex")
        self.K = K
        self.F = F
        self.max_dim = max_dim
        self.dual = _dual_graph(K)
        self._deltas: Dict[int, Dict[int, Dict[int, int]]] = {}
        self._complex: Optional[Complex] = None
        self._id_map: Optional[Dict[int, int]] = None

    @cached_property
    def sd(self) -> _SdStructure:
        return _sd_structure(self.K, self.max_dim)

    @cached_property
    def bad(self) -> np.ndarray:
        """True per subdivision id whose simplex lies in cl F."""
        bad = np.zeros(self.dual.offsets[-1], dtype=bool)
        if self.F.faces:
            bad[self.dual.closure(self.F.dim)[list(self.F.faces)]] = True
        return bad

    @cached_property
    def good(self) -> np.ndarray:
        return ~self.bad

    @cached_property
    def _kept_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        if self.sd.edge_arrays is None:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        a, b = self.sd.edge_arrays
        keep = self.good[a] & self.good[b]
        return a[keep], b[keep]

    @property
    def edges_a(self) -> np.ndarray:
        return self._kept_edges[0]

    @property
    def edges_b(self) -> np.ndarray:
        return self._kept_edges[1]

    # raw ids below are subdivision-vertex ids (simplices of K)

    def is_clear(self, k: int, idx: int) -> bool:
        """True if the barycenter cell of the (k, idx) simplex avoids |F|."""
        return not self.bad[self.dual.offsets[k] + idx]

    @cached_property
    def _top_labels(self) -> List[int]:
        """Component label per top simplex: its root in the spanning forest
        of the dual graph less its edges across faces of F.  Read by
        `homology(0)` and explicit degree-0 `cycle` constraints; point
        pairs are decided by `_pair_reason`."""
        cut = _cut(self.K, self.F.dim, self.F.faces)
        return _hom._spanning_forest(self.dual.adjacency, cut)[0]

    def _label(self, sdid: int) -> int:
        """Component label of a subdivision id outside cl F."""
        return self._top_labels[self.dual.top_of[sdid]]

    def same_component(self, u: int, v: int) -> bool:
        return self._label(u) == self._label(v)

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

    # -- bounding tests -----------------------------------------------------

    def _bounds_deg0(self, coeffs: Dict[int, int]) -> bool:
        """True iff the 0-cycle {raw vertex id: coeff} bounds in the model."""
        totals: Dict[int, int] = {}
        for v, c in coeffs.items():
            label = self._label(v)
            totals[label] = totals.get(label, 0) + c
        return not any(totals.values())

    def _bounds_deg1(self, coeffs: Dict[Tuple[int, int], int]) -> bool:
        """Bounding test for 1-cycles given as {(a,b) raw edge: coeff}.

        The cycle is pushed onto the dual graph: a subdivision vertex a goes
        to the top simplex top_of[a], and an edge a < b to a path between
        the tops of a and b through the open star of a, which is
        contractible and misses |F|.  The crossings of those paths, signed
        by `_DualGraph.crossings`, form a relative (n-1)-cocycle z of
        (K, cl F u dK), and the cycle bounds in the complement exactly when
        z = delta(y) for a relative (n-2)-cochain y: one sparse integer
        solve over the columns of delta_{n-2}.
        """
        dual = self.dual
        top_of = dual.top_of
        z: Dict[int, int] = {}
        for (a, b), c in coeffs.items():
            for f, s in dual.star_path(a, top_of[a], top_of[b]):
                z[f] = z.get(f, 0) + s * c
        return _hom._snf_diagonal_sparse(self._delta(self.K.dim - 2),
                                         rhs=z).solvable

    @cached_property
    def _outside(self) -> List[bool]:
        """True per subdivision id whose simplex lies outside cl F u dK,
        i.e. carries a relative cochain of (K, cl F u dK)."""
        return (~(self.bad | self.dual.on_boundary)).tolist()

    def _delta(self, r: int) -> Dict[int, Dict[int, int]]:
        """Columns {r-simplex: {(r+1)-coface: sign}} of the relative
        coboundary delta_r, the transpose of K's boundary columns of
        dimension r+1 on the simplices outside cl F u dK (empty outside
        0..n-1)."""
        if r not in self._deltas:
            cols: Dict[int, Dict[int, int]] = {}
            if 0 <= r < self.K.dim:
                keep = self._outside
                lo, up = self.dual.offsets[r], self.dual.offsets[r + 1]
                for j, col in _hom._boundary_columns(self.K, r + 1).items():
                    if keep[up + j]:
                        for i, s in col.items():
                            if keep[lo + i]:
                                cols.setdefault(i, {})[j] = s
            self._deltas[r] = cols
        return self._deltas[r]

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
                out.append(ConstraintStatus(i, reason == "nontrivial",
                                            reason))
                continue
            if c.degree >= 2 and self.max_dim < c.degree + 1:
                # a g-cycle bounds only through the (g+1)-simplices
                raise PreconditionError(
                    f"a degree-{c.degree} cycle needs max_dim >= "
                    f"{c.degree + 1}, got {self.max_dim}")
            try:
                dim, raw = _realize_raw(c, self)
            except RealizationError:
                out.append(ConstraintStatus(i, False, "contact"))
                continue
            if not raw:
                out.append(ConstraintStatus(i, False, "degenerate"))
                continue
            if dim == 0:
                null = self._bounds_deg0(raw)
            elif dim == 1:
                null = self._bounds_deg1(raw)
            else:
                chain = realize_constraint(c, self)
                null, _ = _hom.is_null_homologous(chain)
            out.append(ConstraintStatus(
                i, not null, "nontrivial" if not null else "null-homologous"))
        return out

    def homology(self, k: int) -> _hom.HomologyGroup:
        """H_k of the complement of |F|.

        Degree 0 counts the components of the dual graph.  Degree k >= 1
        is H^{n-k}(K, cl F u dK) by Lefschetz duality: with m = n - k and
        A_m the m-simplices outside cl F u dK, the rank is
        |A_m| - rank delta_m - rank delta_{m-1}, and the torsion is the
        non-unit invariants of delta_{m-1}.
        """
        n = self.K.dim
        if not 0 <= k <= n:
            raise InvalidInputError(
                f"homology dimension {k} out of range 0..{n}")
        if k == 0:  # no top simplex lies in cl F
            rank = len(set(self._top_labels))
            return _hom.HomologyGroup(k=0, rank=rank, torsion=())
        m = n - k
        rank_m = len(_hom._snf_diagonal_sparse(self._delta(m)))
        diag = _hom._snf_diagonal_sparse(self._delta(m - 1))
        offsets = self.dual.offsets
        n_cochains = sum(self._outside[offsets[m]:offsets[m + 1]])
        rank = n_cochains - rank_m - len(diag)
        torsion = tuple(d for d in diag if d > 1)
        return _hom.HomologyGroup(k=k, rank=rank, torsion=torsion)


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


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def _subdivide_simplex(model: ComplementModel, verts: Tuple[int, ...],
                       coeff: int, out: Dict[Tuple[int, ...], int]) -> None:
    """Add the barycentric pieces of an oriented K-simplex to `out`.

    Keys are raw-id chains (strictly increasing, hence canonical); a bad cell
    anywhere in the support raises.
    """
    K = model.K
    k = len(verts) - 1
    index = K._index
    offsets = model.dual.offsets
    for perm in itertools.permutations(range(k + 1)):
        sgn = _perm_sign(perm)
        chain_ids = []
        prefix: Tuple[int, ...] = ()
        for p in perm:
            prefix = tuple(sorted(prefix + (verts[p],)))
            r = len(prefix) - 1
            sdid = offsets[r] + index[r][prefix]
            if model.bad[sdid]:
                raise RealizationError("constraint support touches the removed set")
            chain_ids.append(sdid)
        key = tuple(chain_ids)
        out[key] = out.get(key, 0) + sgn * coeff
    for key in [key for key, c in out.items() if c == 0]:
        del out[key]


def _realize_raw(spec: ConstraintCycle, model: ComplementModel):
    """Raw realization: (degree, coeffs keyed by raw-id simplex tuple, or by
    raw vertex id in degree 0)."""
    K = model.K
    if spec.kind == "point-pair":
        ids = []
        for p in spec.points:
            v = _lattice_vertex(K, p)  # a vertex's subdivision id is v
            if not model.is_clear(0, v):
                raise RealizationError(f"point {p} lies on the removed set")
            ids.append(v)
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
            _subdivide_simplex(model, pair, sgn, out)
        return 1, {(a, b): c for (a, b), c in out.items()}

    # explicit cycle
    out = {}
    for verts_pts, coeff in spec.items:
        vids = [_lattice_vertex(K, p) for p in verts_pts]
        canon = tuple(sorted(vids))
        if len(canon) != spec.degree + 1 or not K.contains(canon):
            raise RealizationError(f"cycle item {verts_pts} is not a grid simplex")
        # orientation sign of the given vertex order
        _, sgn = canonical_vertices(vids)
        _subdivide_simplex(model, canon, sgn * int(coeff), out)
    if spec.degree == 0:
        # 0-chains are keyed by vertex id, as for point pairs
        return 0, {key[0]: c for key, c in out.items()}
    return spec.degree, out


_DEGENERATE = {"point-pair": "degenerate point pair (identical points)",
               "loop": "degenerate loop (edges cancel)"}


def realize_constraint(spec: ConstraintCycle, model: ComplementModel) -> Chain:
    """Realize a constraint as a chain on the complement complex; warns when
    a point pair or loop realizes as the zero chain."""
    if spec.degree > model.max_dim:
        raise PreconditionError(
            f"a degree-{spec.degree} constraint needs max_dim >= "
            f"{spec.degree}, got {model.max_dim}")
    dim, raw = _realize_raw(spec, model)
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
                   constraints: Sequence[ConstraintCycle],
                   max_dim: Optional[int] = None) -> List[ConstraintStatus]:
    """Per-constraint spanning verdicts for F.

    A constraint passes when its cycle stays homologically nontrivial in the
    complement model of F.  Geometric contact with |F| is reported separately
    from a homologically killed cycle.
    """
    if max_dim is None:
        degs = [c.degree for c in constraints] or [0]
        max_dim = max(degs) + 1
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
    only when every pair passes.
    """
    if not 0 <= d < K.dim:
        raise InvalidInputError(
            f"face dimension {d} must lie strictly below {K.dim}")
    dual = _dual_graph(K)
    pairs = [_resolve_pair(K, c, d) for c in constraints
             if c.kind == "point-pair"]
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
