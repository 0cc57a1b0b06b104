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

A constraint is resolved once per complex and face dimension d into one
record, `_Resolved`, by which `check` and `spanning_predicate` decide it.
It holds a verdict no face set changes (a degree-g cycle with d < n-1-g
bounds as in the box: cl F has no (n-g-1)-cochains), or a 0-cycle's tops,
labelled by component by one flood of K's dual graph when d = n-1, or a
loop's sub-box and the d-faces there that can carry its cochain y:
z = delta(y) is the loop's crossing cocycle on (K, dK), and the loop
bounds in the complement of |F| exactly when y restricted to cl F is a
coboundary of (cl F, cl F n dK).  y is solved on first need, when a face
set meets those d-faces, once per complex, loop and d; a face set that
misses them bounds the loop with no solve.

The full subcomplex of the barycentric subdivision on the simplices outside
cl F is a homotopy model of the same complement.  Only constraint cycles of
degree 2 and above read it: a g-cycle, cut into its barycentric pieces,
bounds when it is the boundary of a (g+1)-chain of subdivision chains
outside cl F, one sparse solve over the chain table (`_reason`).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import (Callable, Container, Dict, FrozenSet, List, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from .complexes import (Chain, Complex, FaceSet, _boundary_columns,
                        _closure_rows, _kuhn_faces, _kuhn_tops, _row_ranks,
                        canonical_vertices)
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
    The chains ending at a simplex are the simplex alone and, extended by
    it, every chain of at most max_dim faces ending at one of its proper
    faces, which come earlier in the numbering.
    """

    def __init__(self, K: Complex, max_dim: int):
        self.max_dim = max_dim
        self.offsets = _sd_offsets(K)
        self.total = self.offsets[-1]
        self.chains: Dict[int, List[Tuple[int, ...]]] = {
            m: [] for m in range(max_dim + 1)}
        ends: List[List[Tuple[int, ...]]] = []  # extendable, per id
        for k in range(K.dim + 1):
            faces = [(self.offsets[r], K._index[r], r + 1) for r in range(k)]
            for t in K.simplices(k):
                b = (len(ends),)
                self.chains[0].append(b)
                extendable = [b] if max_dim else []
                for off, index, size in faces:
                    for face in itertools.combinations(t, size):
                        for c in ends[off + index[face]]:
                            chain = c + b
                            self.chains[len(chain) - 1].append(chain)
                            if len(chain) <= max_dim:
                                extendable.append(chain)
                ends.append(extendable)


def _sd_structure(K: Complex, max_dim: int) -> _SdStructure:
    cached = K.cache.get("sd")
    if cached is None or cached.max_dim < max_dim:
        cached = _SdStructure(K, max_dim)
        K.cache["sd"] = cached
    return cached


def _subdivide_simplex(K: Complex, verts: Tuple[int, ...], coeff: int,
                       out: Dict[Tuple[int, ...], int]) -> None:
    """Add the barycentric pieces of an oriented K-simplex to `out`, keyed
    by subdivision-id chains (strictly increasing, hence canonical)."""
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


# -- the dual graph ----------------------------------------------------------

class _Dual(NamedTuple):
    """A graph as flat lists: node t's edges are the slots
    start[t]:start[t+1] of `facet`, the facet an edge crosses, and `top`,
    the node across it, ordered by (facet, top)."""

    start: List[int]
    facet: List[int]
    top: List[int]


def _flat_graph(owner: np.ndarray, facet: np.ndarray, across: np.ndarray,
                n: int) -> _Dual:
    """The `_Dual` of n nodes with one slot per (owner, facet, across)."""
    order = np.lexsort((across, facet, owner))
    start = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=n))))
    return _Dual(start.tolist(), facet[order].tolist(), across[order].tolist())


def _dual_graph(K: Complex) -> _Dual:
    """The dual graph of K, cached per complex: top simplices as nodes, one
    edge per interior facet; a facet of several tops joins the lowest to
    each other one.

    In a triangulated box the open star of a simplex outside cl F is a
    connected set that misses |F| and meets every top simplex containing
    the simplex, and those top simplices are joined through the
    (n-1)-faces containing it, none of which lies in cl F (Kaczynski,
    Mischaikow, Mrozek, Computational Homology, 2004).  So the components
    of the box minus |F| are the components of this graph less its edges
    across faces of F, and a simplex outside cl F lies in the component
    of any top simplex containing it.

    One pass over the tops' facets: a facet's id is the rank of its row
    among the (n-1)-face rows, and a stable sort by id groups its tops.
    """
    dual = K.cache.get("dual")
    if dual is None:
        n, tops, table = K.dim, K.rows(K.dim), K.rows(K.dim - 1)
        cols = list(itertools.combinations(range(n + 1), n))
        facet = _row_ranks(np.concatenate(
            [table, tops[:, cols].reshape(-1, n)]))[len(table):]
        order = np.argsort(facet, kind="stable")
        facet, top = facet[order], order // (n + 1)
        head = np.concatenate(([True], facet[1:] != facet[:-1]))
        low = top[np.flatnonzero(head)[np.cumsum(head) - 1]][~head]
        facet, top = np.tile(facet[~head], 2), top[~head]
        dual = K.cache["dual"] = _flat_graph(
            np.concatenate([low, top]), facet, np.concatenate([top, low]),
            len(tops))
    return dual


def _first_tops(tops: np.ndarray, simplices: Sequence[Tuple[int, ...]]
                ) -> List[int]:
    """The index of the first row of `tops` (increasing vertex ids) holding
    each of `simplices`, canonical vertex tuples each held by some row.

    One pass per simplex size s over the rows' s-vertex subsets, each keyed
    as one integer in base (max id + 1), in row order: the first key equal
    to a simplex's is its first top.  The keys stay below (max id + 1)^s,
    far inside int64 for the vertices and edges the callers ask for."""
    base = int(tops.max()) + 1
    first: Dict[Tuple[int, ...], int] = {}
    for size in {len(s) for s in simplices}:
        cols = list(itertools.combinations(range(tops.shape[1]), size))
        weights = base ** np.arange(size - 1, -1, -1)
        keys = (tops[:, cols] @ weights).ravel()
        want = {int(np.dot(s, weights)): s
                for s in simplices if len(s) == size}
        at = np.flatnonzero(np.isin(keys, list(want)))
        found, i = np.unique(keys[at], return_index=True)
        first.update((want[key], t) for key, t in
                     zip(found.tolist(), (at[i] // len(cols)).tolist()))
    return [first[tuple(s)] for s in simplices]


def _flood(graph: _Dual, cut: Container[int], seeds: Sequence[int]
           ) -> List[int]:
    """Component labels of the `seeds` in `graph` less its edges across
    the facets in `cut`: two seeds share a label exactly when a path joins
    them.  Each label is one depth-first flood from the first seed still
    unlabelled, and the search stops as soon as every seed has a label."""
    start, facet, top = graph
    label: Dict[int, int] = {}
    left = set(seeds)
    n = 0
    for s in seeds:
        if s in label:
            continue
        label[s] = n
        left.discard(s)
        stack = [s]
        while stack and left:
            t = stack.pop()
            for i in range(start[t], start[t + 1]):
                u = top[i]
                if u not in label and facet[i] not in cut:
                    label[u] = n
                    left.discard(u)
                    stack.append(u)
        n += 1
    return [label[s] for s in seeds]


def _contract(K: Complex, pool: Sequence[int], tops: Sequence[int]
              ) -> Tuple[_Dual, List[int]]:
    """K's dual graph contracted along the facets off `pool`, distinct
    (n-1)-faces, and the node of each top of `tops` in it.

    A node is a component of the dual graph less its edges across pool
    facets, labelled by one `_flood` from `tops` and the tops of the pool
    facets; an edge joins two nodes across a pool facet and carries its
    pool position in `facet`, not the facet's id.  A pool facet with both
    sides in one node never separates anything and has no edge.  Two tops
    are joined in the dual graph less the facets of a state exactly when
    their nodes are joined by edges outside the state.
    """
    dual, at = _dual_graph(K), {f: p for p, f in enumerate(pool)}
    slots = np.flatnonzero(np.isin(dual.facet, pool)).tolist()
    owner = (np.searchsorted(dual.start, slots, side="right") - 1).tolist()
    seeds = list(tops) + owner
    node = dict(zip(seeds, _flood(dual, at, seeds)))
    ends = np.array([(node[t], at[dual.facet[i]], node[dual.top[i]])
                     for t, i in zip(owner, slots)],
                    dtype=np.int64).reshape(-1, 3)
    ends = ends[ends[:, 0] != ends[:, 2]]
    small = _flat_graph(ends[:, 0], ends[:, 1], ends[:, 2],
                        max(node.values()) + 1)
    return small, [node[t] for t in tops]


def _unbalanced(coeffs: Sequence[int], labels: Sequence[int]) -> bool:
    """True iff the coefficients summed per label are not all 0: a
    0-cycle with these coefficients at points of the labelled components
    does not bound."""
    sums: Dict[int, int] = {}
    for c, label in zip(coeffs, labels):
        sums[label] = sums.get(label, 0) + c
    return any(sums.values())


# -- relative cochains ------------------------------------------------------

def _simplex_ids(K: Complex, r: int, rows: np.ndarray) -> List[int]:
    """The ids in K of the r-simplices given as rows of vertex ids."""
    index = K._index[r]
    return [index[s] for s in zip(*rows.T.tolist())]


def _walled(K: Complex, table: np.ndarray, lo: Sequence[int],
            hi: Sequence[int]) -> np.ndarray:
    """True per row of `table` (vertex ids of K) that a wall of the lattice
    box lo..hi holds: on some axis all its vertices sit at lo, or all at
    hi.  A vertex id is its point's row-major rank in K's box, so
    `np.unravel_index` reads the points off the rows."""
    shape = [b + 1 for b in K.grid.box]
    walls = np.reshape([lo, hi], (2, -1, 1, 1))
    # points[a, i, j] is coordinate a of vertex i of row j, so each
    # reduction over a row's vertices runs along whole columns
    points = np.array(np.unravel_index(table.T, shape))
    return (points == walls).all(axis=2).any(axis=(0, 1))


def _off_walls(K: Complex, rows: Dict[int, np.ndarray], lo: Sequence[int],
               hi: Sequence[int]) -> Dict[int, set]:
    """Per dimension r of `rows`, the ids of the rows[r] simplices that no
    wall of the lattice box lo..hi holds (`_walled`)."""
    return {r: set(_simplex_ids(K, r, table[~_walled(K, table, lo, hi)]))
            for r, table in rows.items()}


def _coboundary(K: Complex, A: Dict[int, set], r: int
                ) -> Dict[int, Dict[int, int]]:
    """Columns {r-simplex: {(r+1)-simplex: sign}} of delta_r on the
    relative cochains carried by the simplices A[0], A[1], ... of K (a
    complex less a subcomplex): K's boundary columns transposed."""
    cols: Dict[int, Dict[int, int]] = {}
    if r not in A or r + 1 not in A:
        return cols
    keep = A[r]
    for j, col in _boundary_columns(K, r + 1, A[r + 1]).items():
        for f, sign in col.items():
            if f in keep:
                cols.setdefault(f, {})[j] = sign
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

    cl F and its relative cochains off dK are built whole, once, on first
    use: homology and the loop solves read them.  Constraint checks go
    through each constraint's record (see `_reason`).  The subdivision
    arrays (`sd`, `good`, the kept edges), which only cycles of degree 2
    and above read, are built on first use too.
    """

    def __init__(self, K: Complex, F: FaceSet, max_dim: int):
        if F.complex is not K:
            raise PreconditionError("face set belongs to a different complex")
        self.K = K
        self.F = F
        self.max_dim = max_dim

    @cached_property
    def _closure(self) -> Dict[int, np.ndarray]:
        """Per dimension r = 0..d: the r-simplices of cl F, as sorted rows."""
        return _closure_rows([self.K.rows(self.F.dim)[list(self.F.faces)]])

    # -- the barycentric subdivision (lazy) ---------------------------------

    @cached_property
    def sd(self) -> _SdStructure:
        return _sd_structure(self.K, self.max_dim)

    @cached_property
    def offsets(self) -> List[int]:
        return _sd_offsets(self.K)

    @cached_property
    def bad(self) -> np.ndarray:
        """True per subdivision id whose simplex lies in cl F."""
        bad = np.zeros(self.offsets[-1], dtype=bool)
        for r, rows in self._closure.items():
            bad[[self.offsets[r] + i
                 for i in _simplex_ids(self.K, r, rows)]] = True
        return bad

    @cached_property
    def good(self) -> np.ndarray:
        return ~self.bad

    @cached_property
    def edges_a(self) -> np.ndarray:
        """Lower ends of the subdivision edges with both ends outside cl F."""
        edges = self.sd.chains.get(1, ())
        E = np.fromiter(itertools.chain.from_iterable(edges), np.int64,
                        2 * len(edges)).reshape(-1, 2)
        a, b = E[:, 0], E[:, 1]
        return a[self.good[a] & self.good[b]]

    # -- relative cochains of (cl F, cl F n dK) -------------------------------

    @cached_property
    def _relative(self) -> Dict[int, set]:
        """Per dimension r = 0..d: the r-simplices of cl F off dK, the
        relative cochains of (cl F, cl F n dK), by the wall rule
        (`_off_walls`) that `_cobound` applies to a loop's sub-box."""
        grid = self.K.grid
        if grid is None:
            raise PreconditionError(
                "complement homology needs a grid-built complex")
        return _off_walls(self.K, self._closure, [0] * len(grid.box),
                          grid.box)

    # -- bounding tests -----------------------------------------------------

    def check(self, constraints: Sequence[ConstraintCycle]
              ) -> List[ConstraintStatus]:
        """Per-constraint spanning verdicts in this model (see `_reason`)."""
        reasons = [_reason(_resolve(self.K, c, self.F.dim), self)
                   for c in constraints]
        return [ConstraintStatus(i, reason == "nontrivial", reason)
                for i, reason in enumerate(reasons)]

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

    `max_dim` truncates the skeleton of the subdivision; a degree-g
    `cycle` constraint whose verdict is left to the subdivision
    (d >= n-1-g, no contact) needs max_dim >= g+1 there, and `check`
    raises `PreconditionError` otherwise.  `homology`, the
    checks of degree 0 and 1 and the fixed verdicts do not read it.
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
    A field the kind does not read, or another degree, is an error.
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
        if self.kind == "cycle":
            if self.degree is None:
                raise InvalidInputError("general cycle needs an explicit degree")
            if self.degree < 0:
                raise InvalidInputError(f"cycle degree {self.degree} is negative")
            if pts:
                raise InvalidInputError("general cycle takes items, not points")
            return
        if self.kind == "point-pair" and len(pts) != 2:
            raise InvalidInputError("point-pair needs exactly two points")
        if len(pts) < 2:
            raise InvalidInputError("loop needs at least two points")
        if self.items:
            raise InvalidInputError(f"{self.kind} takes points, not items")
        degree = int(self.kind == "loop")
        if self.degree not in (None, degree):
            raise InvalidInputError(
                f"{self.kind} has degree {degree}, not {self.degree}")
        object.__setattr__(self, "degree", degree)


def _lattice_vertex(K: Complex, p: Sequence[int]) -> int:
    if K.grid is None:
        raise RealizationError("constraints need a grid-built complex")
    try:
        return K.grid.vertex_at(p)
    except InvalidInputError as exc:
        raise RealizationError(str(exc)) from exc


def _support_vertices(K: Complex, spec: ConstraintCycle) -> set:
    """Vertices of K on the constraint's cycle.  A face set with one of
    them in its closure puts the constraint in contact."""
    out = set()
    for p in spec.points + tuple(q for pts, _ in spec.items for q in pts):
        try:
            out.add(_lattice_vertex(K, p))
        except RealizationError:
            pass  # such a constraint fails for every face set alike
    return out


def _realize_raw(spec: ConstraintCycle,
                 K: Complex) -> Dict[Tuple[int, ...], int]:
    """The constraint's chain on K, {canonical vertex tuple: coeff} with
    zero terms dropped: a point pair p, q is the 0-cycle q - p and a loop
    the sum of its hops.  Raises `RealizationError` when a term is not a
    simplex of K; contact with a face set is the caller's test."""
    if spec.kind == "point-pair":
        p, q = spec.points
        items = (((q,), 1), ((p,), -1))
    elif spec.kind == "loop":
        pts = list(spec.points)
        if pts[0] == pts[-1]:
            pts = pts[:-1]
        items = tuple(((p, q), 1) for p, q in zip(pts, pts[1:] + pts[:1]))
    else:
        items = spec.items
    out: Dict[Tuple[int, ...], int] = {}
    for pts, coeff in items:
        vids = [_lattice_vertex(K, p) for p in pts]
        if len(vids) != spec.degree + 1 or not K.contains(tuple(sorted(vids))):
            raise RealizationError(
                f"{spec.kind} term {pts} is not a grid simplex")
        canon, sgn = canonical_vertices(vids)
        out[canon] = out.get(canon, 0) + sgn * int(coeff)
    return {s: c for s, c in out.items() if c}


@dataclass(frozen=True)
class _Resolved:
    """A constraint resolved on K for d-face sets: the d-faces holding a
    vertex of its cycle (the one contact rule), then the verdict of every
    face set they miss, or a (top, coefficient) per vertex of a 0-cycle
    (d = n-1), or a loop's sub-box K' = lo..hi of `_cobound` with `reach`,
    the d-faces that can carry its cochain y (`_loop_reach`); y itself is
    solved when a face set first meets `reach` (`_loop_y`).  A higher
    cycle with none of these is decided on the subdivision."""

    spec: ConstraintCycle
    touching: FrozenSet[int]
    verdict: Optional[str] = None
    tops: Tuple[Tuple[int, int], ...] = ()
    box: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
    reach: FrozenSet[int] = frozenset()


def _resolve(K: Complex, spec: ConstraintCycle, d: int) -> _Resolved:
    """`_Resolved` of a constraint, cached per complex and d: none of it
    depends on the face set, so a solve decides each candidate by one
    `_reason` call.  Its verdict is 'contact' for a cycle not of K,
    'degenerate' for the zero chain, and the box's for a degree-g cycle
    with d < n-1-g: H~_g of the complement is H^{n-g-1}(cl F, cl F n dK),
    and cl F has no cochains of that degree.  Raises `RealizationError`
    when a chain of degree >= 1 has a boundary: it is not a cycle,
    whatever the face set."""
    cache = K.cache.setdefault("constraints", {})
    rec = cache.get((spec, d))
    if rec is not None:
        return rec
    try:
        chain = _realize_raw(spec, K)
    except RealizationError:
        chain = None
    g, n = spec.degree, K.dim
    if chain and g >= 1 and not _hom.is_cycle(Chain(
            K, g, {K.index(s): c for s, c in chain.items()})):
        raise RealizationError("constraint chain has a boundary: not a cycle")
    vertices = _support_vertices(K, spec)
    on_cycle = np.zeros(len(K.coords), dtype=bool)
    on_cycle[list(vertices)] = True
    touching = frozenset(
        np.flatnonzero(on_cycle[K.rows(d)].any(axis=1)).tolist())
    verdict, tops, box, reach = None, (), None, frozenset()
    if chain is None:
        verdict = "contact"
    elif not chain:
        verdict = "degenerate"
    elif d < n - 1 - g:
        bounds = g > 0 or not sum(chain.values())
        verdict = "null-homologous" if bounds else "nontrivial"
    elif g == 0:
        tops = tuple(zip(_first_tops(K.rows(n), list(chain)), chain.values()))
    elif g == 1:
        box = _loop_box(K, vertices)
        reach = _loop_reach(K, *box, d)
    rec = cache[(spec, d)] = _Resolved(spec, touching, verdict, tops, box,
                                       reach)
    return rec


def _loop_box(K: Complex, vertices: set
              ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(lo, hi) of a loop's sub-box K': the lattice box of its vertices
    grown by one and clipped to K's box, a ball holding the open star of
    every simplex on the loop."""
    coords = list(zip(*(K.grid.points[v] for v in vertices)))
    return (tuple(max(min(c) - 1, 0) for c in coords),
            tuple(min(max(c) + 1, b) for c, b in zip(coords, K.grid.box)))


def _loop_reach(K: Complex, lo: Sequence[int], hi: Sequence[int], d: int
                ) -> FrozenSet[int]:
    """The d-faces of K (d = n-2 or n-1) holding an (n-2)-simplex of the
    sub-box lo..hi off its walls: the only simplices where the cochain y
    of `_cobound` can be nonzero.  Such a simplex has its open star in
    the sub-box, so each of these d-faces is a d-face of the sub-box's
    tops (`_kuhn_faces`) with an (n-2)-face off the walls."""
    r = K.dim - 2
    table = _kuhn_faces([b + 1 for b in K.grid.box], lo, hi, (d,))[d]
    off = np.zeros(len(table), dtype=bool)
    for cols in itertools.combinations(range(d + 1), r + 1):
        off |= ~_walled(K, table[:, cols], lo, hi)
    return frozenset(_simplex_ids(K, d, table[off]))


def _loop_y(K: Complex, rec: _Resolved, d: int
            ) -> Dict[int, Tuple[Tuple[int, int], ...]]:
    """The cochain y of a loop's record per d-face (`_per_face` of
    `_cobound`), solved on first need and cached per complex, loop and
    d."""
    cache = K.cache.setdefault("loop_y", {})
    y = cache.get((rec.spec, d))
    if y is None:
        chain = _realize_raw(rec.spec, K)
        y = cache[(rec.spec, d)] = _per_face(K, _cobound(K, chain, *rec.box),
                                             d)
    return y


def _per_face(K: Complex, y: Dict[int, int], d: int
              ) -> Dict[int, Tuple[Tuple[int, int], ...]]:
    """y per d-face: the nonzero terms of the (n-2)-cochain y on the faces
    each d-face holds, for the d-faces with any.  Those have n-1 vertices
    on y's support, found as `touching` is, by one vertex mask."""
    r, rows, index = K.dim - 2, K.rows(d), K._index[K.dim - 2]
    on_y = np.zeros(len(K.coords), dtype=bool)
    on_y[K.rows(r)[list(y)]] = True
    near = np.flatnonzero(on_y[rows].sum(axis=1) > r)
    out = {}
    for f, row in zip(near.tolist(), rows[near].tolist()):
        ids = [index[s] for s in itertools.combinations(row, r + 1)]
        if any(y.get(i) for i in ids):
            out[f] = tuple((i, y[i]) for i in ids if y.get(i))
    return out


def _cobound(K: Complex, chain: Dict[Tuple[int, ...], int],
             lo: Sequence[int], hi: Sequence[int]) -> Dict[int, int]:
    """An (n-2)-cochain y of (K, dK) with delta(y) = z, the crossing cocycle
    of the 1-cycle `chain` on K.

    K' is the sub-box lo..hi of `_loop_box`: a ball holding the open star
    of every simplex on the cycle.  Its tops and their signs are the rows
    of `_kuhn_tops`, and each vertex and edge of the cycle goes to the
    first of them containing it (`_first_tops`, the top rule of
    `_resolve`), found in one pass.  An edge u -> v
    with coefficient c becomes the two halves of its barycentric
    subdivision: a dual path from the top of u to that of uv through the
    open star of u, counted +c, and one from the top of v to that of uv
    through the open star of v, counted -c.  Leaving top t through the
    facet opposite its vertex i counts eps_t (-1)^(i+1), eps_t = sign(det
    t) = the sign of t's axis permutation, so the crossings sum to a
    cocycle z of (K', dK'), where H^{n-1} = 0: y is one sparse solve with
    a witness over delta_{n-2} on the (n-2)- and (n-1)-simplices of K' off
    dK' (`_off_walls` of the faces of its tops, `_kuhn_faces`, with the
    sub-box's walls, the rule `_relative` applies to cl F in the box),
    whose cofaces all lie in K', so delta(y) = z on (K, dK) too.
    """
    n, shape = K.dim, [b + 1 for b in K.grid.box]
    rows, signs = _kuhn_tops(shape, lo, hi)
    tops, eps = [tuple(t) for t in rows.tolist()], signs.tolist()
    on_facet: Dict[Tuple[int, ...], List[int]] = {}
    for t, top in enumerate(tops):
        for i in range(n + 1):
            on_facet.setdefault(top[:i] + top[i + 1:], []).append(t)
    index = K._index[n - 1]
    held = list(chain) + list({(a,) for edge in chain for a in edge})
    first = dict(zip(held, _first_tops(rows, held)))

    z: Dict[int, int] = {}
    for (u, v), c in chain.items():
        for a, coeff in ((u, c), (v, -c)):
            t0, t1 = first[(a,)], first[(u, v)]
            prev: Dict[int, Optional[Tuple[int, int, int]]] = {t0: None}
            queue = deque([t0])
            while t1 not in prev:  # breadth first through the star of a
                t = queue.popleft()
                top = tops[t]
                for i, w in enumerate(top):
                    facet = top[:i] + top[i + 1:]
                    for x in on_facet[facet]:
                        if w != a and x not in prev:
                            prev[x] = (t, index[facet],
                                       eps[t] * (-1) ** (i + 1))
                            queue.append(x)
            while prev[t1] is not None:
                t1, f, sign = prev[t1]
                z[f] = z.get(f, 0) + sign * coeff
    A = _off_walls(K, _kuhn_faces(shape, lo, hi, range(max(n - 2, 0), n)),
                   lo, hi)
    return _hom._snf_diagonal_sparse(_coboundary(K, A, n - 2), rhs=z,
                                     witness=True).witness


def _reason(rec: _Resolved, model: ComplementModel) -> str:
    """The spanning decision on a resolved constraint for the face set of
    `model`: 'contact' when a vertex of the cycle lies in cl F, then the
    record's verdict if it has one, else 'null-homologous' when the cycle
    bounds in the complement of |F| and 'nontrivial' when it does not.

    A 0-cycle bounds when its coefficients sum to 0 on every component,
    which one `_flood` of the dual graph less F labels.  For a 1-cycle,
    delta(y') = z on (K, dK) iff y' = y + delta(w), as H^{n-2}(K, dK) = 0,
    so the cycle bounds (some y' is 0 on cl F u dK) iff y|cl F =
    delta(w|cl F).  As y is 0 on dK, y|cl F joins y over the faces of F:
    empty, the cycle bounds; else one small solve on cl F decides.  A face
    set that misses the record's `reach` has it empty, so y is solved
    (`_loop_y`) only for one that meets it.
    A g-cycle of higher degree bounds in the complement when its
    barycentric pieces (`_subdivide_simplex`) are the boundary of a
    (g+1)-chain of the subdivision's full subcomplex off cl F: one solve
    over the (g+1)-chains with every id `good`, each column its facet
    chains with signs (-1)^i.  Chains are canonical id tuples, so they key
    the rows directly.  The subdivision must reach degree g+1
    (`PreconditionError` otherwise).
    """
    faces = model.F.faces
    if not rec.touching.isdisjoint(faces):
        return "contact"
    if rec.verdict:
        return rec.verdict
    if rec.tops:
        tops, coeffs = zip(*rec.tops)
        null = not _unbalanced(
            coeffs, _flood(_dual_graph(model.K), set(faces), tops))
    elif rec.spec.degree == 1:
        y = {} if rec.reach.isdisjoint(faces) else _loop_y(
            model.K, rec, model.F.dim)
        rhs = dict(term for f in faces for term in y.get(f, ()))
        null = not rhs or _hom._snf_diagonal_sparse(
            _coboundary(model.K, model._relative, model.K.dim - 3),
            rhs=rhs).solvable
    else:
        g = rec.spec.degree
        if model.max_dim < g + 1:
            # a g-cycle bounds only through the (g+1)-simplices
            raise PreconditionError(f"a degree-{g} cycle needs max_dim >= "
                                    f"{g + 1}, got {model.max_dim}")
        chains = model.sd.chains[g + 1]
        ids = np.array(chains, dtype=np.int64).reshape(-1, g + 2)
        cols = {ch: {ch[:i] + ch[i + 1:]: (-1) ** i for i in range(g + 2)}
                for ch, keep in zip(chains, model.good[ids].all(axis=1))
                if keep}
        rhs: Dict[Tuple[int, ...], int] = {}
        for verts, c in _realize_raw(rec.spec, model.K).items():
            _subdivide_simplex(model.K, verts, c, rhs)
        null = _hom._snf_diagonal_sparse(cols, rhs=rhs).solvable
    return "null-homologous" if null else "nontrivial"


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
    """True iff F passes every constraint of `spanning_check`, which
    raises `PreconditionError` for a face set of another complex."""
    return all(s.passed for s in spanning_check(K, F, constraints))


def spanning_predicate(K: Complex, constraints: Sequence[ConstraintCycle],
                       d: int, pool: Sequence[int]
                       ) -> Callable[[int], bool]:
    """`is_spanning` for the subsets of `pool`, distinct d-faces of K, as a
    function of a bitmask over pool positions (bit p stands for pool[p]).
    A repeated face, or an id that is not a d-face, raises
    `InvalidInputError`.

    Built once per solve from each constraint's record (`_resolve`): the
    pool faces in contact make one mask, and a failing verdict fails
    every state.  For d = n-1 the 0-cycles are decided on the dual graph
    contracted along the facets off the pool (`_contract`): the complement
    of a state is that small graph less the pool facets in the state.  A
    call floods it from the cycles' nodes, with no face tuple built.  A
    face set and `ComplementModel` are built per call only when the
    0-cycles pass and a record of degree >= 1 with no verdict is left, for
    `_reason`, the decision `check` makes.  Verdicts are kept per pattern of the bits
    read (contact and small-graph edge bits, or every bit with such a
    record left) for states seen again.
    """
    if not 0 <= d < K.dim:
        raise InvalidInputError(
            f"face dimension {d} must lie strictly below {K.dim}")
    resolved = [_resolve(K, c, d) for c in constraints]
    rest = [rec for rec in resolved if rec.verdict is None and rec.spec.degree]
    max_dim = max([c.degree for c in constraints] or [0]) + 1
    pool = tuple(pool)
    if len(set(pool)) != len(pool):
        raise InvalidInputError("pool repeats a face")
    outside = [f for f in pool if not 0 <= f < K.n_simplices(d)]
    if outside:
        raise InvalidInputError(f"pool face {outside[0]} out of range")
    touched = set().union(*(rec.touching for rec in resolved))
    contact = sum(1 << p for p, f in enumerate(pool) if f in touched)
    never = any(rec.verdict not in (None, "nontrivial") for rec in resolved)
    # the 0-cycles decided on the dual graph, by their (top, coefficient)
    # terms; per cycle, its coefficients and the slice of `nodes` holding
    # the small graph's nodes of its tops
    terms = [rec.tops for rec in resolved if rec.tops]
    cycles: List[Tuple[int, int, List[int]]] = []
    edges = 0
    if terms and not never:
        small, nodes = _contract(K, pool,
                                 [t for tops in terms for t, _ in tops])
        for tops in terms:
            i = cycles[-1][1] if cycles else 0
            cycles.append((i, i + len(tops), [c for _, c in tops]))
        edges = sum(1 << p for p in set(small.facet))

    def positions(state: int) -> List[int]:
        return [p for p, bit in enumerate(bin(state)[:1:-1]) if bit == "1"]

    def decide(state: int) -> bool:
        if never or state & contact:
            return False
        if cycles:
            labels = _flood(small, set(positions(state & edges)), nodes)
            if not all(_unbalanced(coeffs, labels[i:j])
                       for i, j, coeffs in cycles):
                return False
        if not rest:
            return True
        F = FaceSet(K, d, tuple(pool[p] for p in positions(state)))
        model = ComplementModel(K, F, max_dim)
        return all(_reason(rec, model) == "nontrivial" for rec in rest)

    # the verdicts per pattern of the bits `decide` reads
    reads = -1 if rest else edges | contact
    verdicts: Dict[int, bool] = {}

    def spans(state: int) -> bool:
        key = state & reads
        hit = verdicts.get(key)
        if hit is None:
            hit = verdicts[key] = decide(key)
        return hit

    return spans


# -- a cut bound for separation ----------------------------------------------

# augmenting paths per flow; a flow stopped there is still a lower bound
CUT_AUGMENT_CAP = 1000


def _integer_costs(costs: Sequence[float]) -> Tuple[List[int], int]:
    """The costs as integers over one power-of-two denominator: cost i is
    exactly ints[i] / den."""
    ratios = [float(c).as_integer_ratio() for c in costs]
    den = max([q for _, q in ratios], default=1)
    return [p * (den // q) for p, q in ratios], den


def _max_flow(graph: _Dual, cap: Sequence[int], s: int, t: int) -> int:
    """The value of a flow from node s to node t of `graph`, whose slots
    carry positions into `cap`: an undirected edge of capacity cap[p] per
    position p.  Shortest augmenting paths (Edmonds-Karp), at most
    CUT_AUGMENT_CAP of them.  Every flow is at most the capacity of every
    cut between s and t (weak duality), so a flow stopped at the cap still
    bounds the minimum cut from below; run to the end it equals it."""
    start, facet, top = graph
    flow = [0] * len(cap)  # net flow across p, from its lower node up
    total = 0
    for _ in range(CUT_AUGMENT_CAP):
        prev: Dict[int, Tuple[int, int]] = {s: (s, -1)}
        queue = [s]
        for x in queue:  # breadth first; the list grows as it is read
            if t in prev:
                break
            for i in range(start[x], start[x + 1]):
                y, p = top[i], facet[i]
                if y not in prev and (cap[p] - flow[p] if x < y
                                      else cap[p] + flow[p]) > 0:
                    prev[y] = (x, i)
                    queue.append(y)
        if t not in prev:
            break
        path, y = [], t
        while y != s:
            x, i = prev[y]
            path.append((x, y, facet[i]))
            y = x
        push = min(cap[p] - flow[p] if x < y else cap[p] + flow[p]
                   for x, y, p in path)
        for x, y, p in path:
            flow[p] += push if x < y else -push
        total += push
    return total


def separation_bound(K: Complex, constraints: Sequence[ConstraintCycle],
                     d: int, pool: Sequence[int], caps: Sequence[int],
                     fixed: int) -> Optional[int]:
    """A lower bound on the cost of every state of `pool` that spans and
    holds the `fixed` bits, a state costing the sum of `caps` over its
    positions (nonnegative integers), or None when there is none to give.

    Bitmasks over `pool` as in `spanning_predicate`.  Only 0-cycles of two
    terms with opposite coefficients (a point pair, for d = n-1) give a
    bound: a state passes such a cycle exactly when it cuts the two
    terms' nodes apart in the contracted dual graph (`_contract`).  So its
    cost is at least that of the fixed positions, which are in every state
    and are taken out of the graph, plus a minimum cut between the two
    nodes, which `_max_flow` bounds from below.  Pool faces in contact
    fail every state, so their edges cannot be cut: their capacity exceeds
    the sum of all caps.  The bound is the largest over such cycles; with
    one cycle and the flow run to the end it is the least cost of a
    spanning state.
    """
    resolved = [_resolve(K, c, d) for c in constraints]
    pairs = [rec.tops for rec in resolved
             if len(rec.tops) == 2 and rec.tops[0][1] == -rec.tops[1][1]]
    if not pairs:
        return None
    small, nodes = _contract(K, pool, [t for tops in pairs for t, _ in tops])
    touched = set().union(*(rec.touching for rec in resolved))
    held = sum(c for p, c in enumerate(caps) if fixed >> p & 1)
    uncut = sum(caps) + 1
    cap = [0 if fixed >> p & 1 else uncut if f in touched else c
           for p, (f, c) in enumerate(zip(pool, caps))]
    # two terms in one node fail every state; 0 bounds that vacuously
    return held + max(_max_flow(small, cap, s, t) if s != t else 0
                      for s, t in zip(nodes[::2], nodes[1::2]))


# -- sub-box regions and competitor checks ----------------------------------

@dataclass(frozen=True)
class Region:
    """Axis-aligned lattice sub-box (inclusive vertex bounds).  `faces` is
    the one test of which d-faces lie in it, for generators, solves and
    competitor checks; `contains_face` is its per-face reference."""

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

    def _check(self, K: Complex) -> None:
        if K.grid is None:
            raise InvalidInputError("regions need a grid-built complex")
        if len(self.lo) != K.dim:
            raise InvalidInputError(
                f"region has {len(self.lo)} axes, the complex {K.dim}")

    def contains_face(self, K: Complex, dim: int, idx: int) -> bool:
        self._check(K)
        return all(self.contains_point(K.grid.points[v])
                   for v in K.simplex(dim, idx))

    def faces(self, K: Complex, d: int) -> Tuple[int, ...]:
        """The sorted ids of the d-faces of K with every vertex in the box."""
        self._check(K)
        points = np.asarray(K.grid.points, dtype=np.int64)
        inside = ((points >= self.lo) & (points <= self.hi)).all(axis=1)
        return tuple(np.flatnonzero(inside[K.rows(d)].all(axis=1)).tolist())


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
    inside = set(region.faces(K, d))
    boundary_match = set(E.faces) - inside == set(F.faces) - inside

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
    region, the face, and so its subface, must sit inside it (compactly
    supported deformation).
    """
    K = F.complex
    d = F.dim
    inside = None if region is None else set(region.faces(K, d))
    incidence: Dict[int, List[int]] = {}
    for f, col in _boundary_columns(K, d, F.faces).items():
        for sub in col:
            incidence.setdefault(sub, []).append(f)
    return sorted((owners[0], sub) for sub, owners in incidence.items()
                  if len(owners) == 1
                  and (inside is None or owners[0] in inside))
