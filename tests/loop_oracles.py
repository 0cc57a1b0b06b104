"""Per-simplex Python loops kept as references for the array code.

`spanmin` builds grid complexes (and a loop's sub-box) from Kuhn top
arrays, and face closures, face volumes, generated face sets, lattice-box
face sets, constraint contact sets, the dual graph and each simplex's top
with integer-array code; these are the plain loops it must agree with,
table for table and bit for bit.  `heap_exhaustive`, the unpruned
cost-order enumeration of every subset of a pool, is the reference for
the exhaustive search and its tail pruning.  `reachable`, one
depth-first search between two tops, is the reference for the component
labels that decide point pairs, and `min_cut_by_flow`, one exact-rational flow on the whole
dual graph, for the least cost of a set that separates one pair.  The per-vertex wall bits of cl F and the facet-count rule
for a loop's sub-box are the references for the one lattice-wall rule of
the relative cochains, and y restricted to cl F off the boundary,
taken through both, is the reference for a loop's right-hand side read
per face.  The dense boundary matrix is the
`np.linalg.matrix_rank` oracle of the homology tests, and `cofacets`
serves the whole-box oracles of `relative_cochains`.
"""

import heapq
import itertools
import math
from collections import deque
from fractions import Fraction
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from spanmin import Complex, FaceSet, InfeasibleError, InvalidInputError
from spanmin.complement import spanning_predicate
from spanmin.complexes import canonical_vertices


def closure_by_sets(maximal: Iterable[Sequence[int]], coords) -> Complex:
    """The closure of the given simplices, one set of faces per dimension
    filled by `itertools.combinations`."""
    simp: Dict[int, set] = {}
    for s in maximal:
        t, _ = canonical_vertices(s)
        for r in range(1, len(t) + 1):
            bucket = simp.setdefault(r - 1, set())
            for sub in itertools.combinations(t, r):
                bucket.add(sub)
    return Complex(simp, coords)


def face_volumes_by_loop(K: Complex, d: int) -> np.ndarray:
    """One Gram determinant per d-face."""
    coords = K.coords
    vols = np.zeros(K.n_simplices(d))
    fact = math.factorial(d)
    for i, s in enumerate(K.simplices(d)):
        edges = coords[list(s[1:])] - coords[s[0]]
        gram = edges @ edges.T
        det = float(np.linalg.det(gram)) if d > 0 else 1.0
        vols[i] = math.sqrt(max(det, 0.0)) / fact
    return vols


def faces_where_by_scan(K: Complex, d: int, predicate) -> tuple:
    """The d-faces whose lattice points satisfy `predicate`."""
    points = K.grid.points
    return tuple(i for i, s in enumerate(K.simplices(d))
                 if predicate([points[v] for v in s]))


def faces_in_box_by_scan(K: Complex, d: int, region) -> tuple:
    """The d-faces that `region.contains_face` accepts, one call each."""
    return tuple(i for i in range(K.n_simplices(d))
                 if region.contains_face(K, d, i))


def touching_by_scan(K: Complex, d: int, vertices: set) -> frozenset:
    """The d-faces holding one of `vertices`."""
    return frozenset(i for i, s in enumerate(K.simplices(d))
                     if not vertices.isdisjoint(s))


def contact_free_by_scan(K: Complex, d: int, faces: Sequence[int],
                         constraints) -> tuple:
    """The faces sharing no vertex with a lattice point of a constraint's
    points or items (points off the lattice are skipped)."""
    touched = set()
    for c in constraints:
        for p in list(c.points) + [q for term, _ in c.items for q in term]:
            try:
                touched.add(K.grid.vertex_at(p))
            except InvalidInputError:
                pass
    return tuple(f for f in faces if touched.isdisjoint(K.simplex(d, f)))


def heap_exhaustive(K: Complex, constraints, weight,
                    candidate_pool: FaceSet) -> Tuple[Tuple[int, ...], float]:
    """(faces, objective) of the cheapest spanning subset of the pool's
    contact-free faces (`contact_free_by_scan`), the first in (cost, face
    tuple) order: every subset is pushed on a heap, with no pruning, and
    popped until one spans.  Raises InfeasibleError when none does, after
    popping all of them."""
    d = candidate_pool.dim
    pool = list(contact_free_by_scan(K, d, candidate_pool.faces,
                                     constraints))
    spans = spanning_predicate(K, constraints, d, pool)
    vols = face_volumes_by_loop(K, d)
    costs = [float(weight.at(f) * vols[f]) for f in pool]
    heap = [(0.0, (), 0, -1)]
    while heap:
        cost, faces, mask, last = heapq.heappop(heap)
        if spans(mask):
            return faces, cost
        for j in range(last + 1, len(pool)):
            heapq.heappush(heap, (cost + costs[j], faces + (pool[j],),
                                  mask | 1 << j, j))
    raise InfeasibleError("no subset of the pool spans")


def tail_tested_heap(K: Complex, constraints, weight, candidate_pool: FaceSet
                     ) -> Tuple[Tuple[int, ...], float, int, int]:
    """The tail-pruned heap that tests every tail, the first child's too:
    (faces, objective, predicate calls, pops that had a child position).

    A popped subset S with last position i pushes S + P0[j] while
    S | P0[j:] spans; the call on the full mask is not counted."""
    d = candidate_pool.dim
    pool = list(contact_free_by_scan(K, d, candidate_pool.faces,
                                     constraints))
    spans = spanning_predicate(K, constraints, d, pool)
    vols = face_volumes_by_loop(K, d)
    costs = [float(weight.at(f) * vols[f]) for f in pool]
    full = (1 << len(pool)) - 1
    if not spans(full):
        raise InfeasibleError("no subset of the pool spans")
    heap = [(0.0, (), 0, -1)]
    calls = parents = 0
    while heap:
        cost, faces, mask, last = heapq.heappop(heap)
        calls += 1
        if spans(mask):
            return faces, cost, calls, parents
        parents += last + 1 < len(pool)
        for j in range(last + 1, len(pool)):
            calls += 1
            if not spans(mask | full >> j << j):
                break
            heapq.heappush(heap, (cost + costs[j], faces + (pool[j],),
                                  mask | 1 << j, j))
    raise InfeasibleError("no subset of the pool spans")


def kuhn_tops(lattice: Dict[Tuple[int, ...], int], lo: Sequence[int],
              hi: Sequence[int]) -> Iterator[Tuple[Tuple[int, ...],
                                                   Tuple[int, ...]]]:
    """(vertices, axis permutation) per top simplex of the lattice cubes
    with corners in lo..hi: per cube in row-major order, one path from its
    lower corner per permutation, a unit step along each axis in turn."""
    for origin in itertools.product(*[range(a, b) for a, b in zip(lo, hi)]):
        for perm in itertools.permutations(range(len(lo))):
            p = list(origin)
            verts = [lattice[tuple(p)]]
            for axis in perm:
                p[axis] += 1
                verts.append(lattice[tuple(p)])
            yield tuple(verts), perm


def first_top_by_scan(tops: Sequence[Sequence[int]],
                      s: Sequence[int]) -> int:
    """The first of `tops` holding every vertex of s."""
    return next(t for t, top in enumerate(tops) if set(s) <= set(top))


def cofacets(K: Complex, k: int) -> List[List[int]]:
    """For each k-simplex, the indices of its (k+1)-cofaces, increasing;
    cached in `K.cache`."""
    key = ("cofacets", k)
    if key not in K.cache:
        out: List[List[int]] = [[] for _ in range(K.n_simplices(k))]
        for j, s in enumerate(K.simplices(k + 1)):
            for i in range(len(s)):
                out[K.index(s[:i] + s[i + 1:])].append(j)
        K.cache[key] = out
    return K.cache[key]


def dual_graph_by_cofacets(K: Complex) -> List[List[Tuple[int, int]]]:
    """Per top simplex, (facet, top across it): the facets in order, each
    joining its lowest top to every other one."""
    adj: List[List[Tuple[int, int]]] = [
        [] for _ in range(K.n_simplices(K.dim))]
    for f, tops in enumerate(cofacets(K, K.dim - 1)):
        for t in tops[1:]:
            adj[tops[0]].append((f, t))
            adj[t].append((f, tops[0]))
    return adj


def reachable(adj: List[List[Tuple[int, int]]], t0: int, t1: int,
              cut: set) -> bool:
    """True iff a path of the per-top dual graph `adj` joins tops t0 and
    t1 without crossing a facet in `cut` (depth first, stopping at t1)."""
    if t0 == t1:
        return True
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


def pairs_span_by_search(K: Complex, pairs) -> Callable[[tuple], bool]:
    """`is_spanning` for point pairs on (n-1)-face sets of K, as a function
    of the face tuple: a pair fails when a point is off the grid or on a
    face of the set, when its points coincide, and when `reachable` joins
    tops holding its points on `dual_graph_by_cofacets`."""
    adj = dual_graph_by_cofacets(K)
    ends = []
    for c in pairs:
        try:
            u, v = (K.grid.vertex_at(p) for p in c.points)
        except InvalidInputError:
            return lambda faces: False
        ends.append((touching_by_scan(K, K.dim - 1, {u, v}), u == v,
                     top_by_walk(K, (u,)), top_by_walk(K, (v,))))

    def spans(faces) -> bool:
        cut = set(faces)
        return all(touch.isdisjoint(cut) and not same
                   and not reachable(adj, t0, t1, cut)
                   for touch, same, t0, t1 in ends)

    return spans


def min_cut_by_flow(K: Complex, pair, faces: Iterable[int],
                    costs: Dict[int, float],
                    fixed: Iterable[int] = ()) -> Optional[Fraction]:
    """The least cost, as an exact rational, of a set of (n-1)-faces of K
    that holds `fixed`, lies in `faces` and passes the point pair, or None
    when no such set exists.

    One shortest-augmenting-path flow between tops holding the two points
    on the whole `dual_graph_by_cofacets`, in exact rationals: a facet of
    `faces` that holds neither point has its cost as capacity, a fixed one
    none (its cost is paid anyway), and every other facet cannot be cut."""
    u, v = (K.grid.vertex_at(p) for p in pair.points)
    contact = touching_by_scan(K, K.dim - 1, {u, v})
    fixed = set(fixed)
    cap = {f: Fraction(0) if f in fixed else Fraction(costs[f])
           for f in faces if f not in contact}
    held = sum((Fraction(costs[f]) for f in fixed), Fraction(0))
    uncut = sum(cap.values(), Fraction(1))
    adj = dual_graph_by_cofacets(K)
    s, t = top_by_walk(K, (u,)), top_by_walk(K, (v,))
    flow: Dict[int, Fraction] = {}  # across a facet, from its lower top up

    def residual(x, y, f):
        c = cap.get(f, uncut)
        return c - flow.get(f, 0) if x < y else c + flow.get(f, 0)

    total = Fraction(0)
    while s != t:
        prev = {s: None}
        queue = deque([s])
        while queue and t not in prev:
            x = queue.popleft()
            for f, y in adj[x]:
                if y not in prev and residual(x, y, f) > 0:
                    prev[y] = (x, f)
                    queue.append(y)
        if t not in prev:
            break
        path, y = [], t
        while prev[y] is not None:
            x, f = prev[y]
            path.append((x, y, f))
            y = x
        push = min(residual(x, y, f) for x, y, f in path)
        for x, y, f in path:
            flow[f] = flow.get(f, 0) + (push if x < y else -push)
        total += push
        if total >= uncut:
            break
    return None if s == t or total >= uncut else held + total


def top_by_walk(K: Complex, verts: Tuple[int, ...]) -> int:
    """A top simplex containing the simplex `verts`: from it, the first
    cofacet dimension by dimension."""
    s = K.index(verts)
    for k in range(len(verts) - 1, K.dim):
        s = cofacets(K, k)[s][0]
    return s


def closure_by_combinations(K: Complex, d: int,
                            faces: Iterable[int]) -> Dict[int, set]:
    """Per dimension r = 0..d: the ids of the r-simplices of the closure of
    the given d-faces."""
    cl: Dict[int, set] = {r: set() for r in range(d + 1)}
    for f in faces:
        verts = K.simplex(d, f)
        for r in range(d + 1):
            cl[r].update(K.index(s)
                         for s in itertools.combinations(verts, r + 1))
    return cl


def off_walls_by_vertex_bits(K: Complex, cl: Dict[int, set],
                             lo: Sequence[int], hi: Sequence[int]
                             ) -> Dict[int, set]:
    """Per dimension r of `cl`, the r-simplices of cl[r] that no wall of
    the lattice box lo..hi holds: each vertex gets one bit per wall through
    its point, and a simplex is on a wall when its vertices share a bit."""
    walls: Dict[int, int] = {}
    out = {}
    for r, faces in cl.items():
        out[r] = set()
        for i in faces:
            shared = -1
            for v in K.simplex(r, i):
                if v not in walls:
                    p = K.grid.points[v]
                    walls[v] = sum(1 << (2 * a + (p[a] == hi[a]))
                                   for a in range(K.dim)
                                   if p[a] in (lo[a], hi[a]))
                shared &= walls[v]
            if not shared:
                out[r].add(i)
    return out


def loop_rhs_by_closure(K: Complex, y: Dict[int, int], d: int,
                       faces: Iterable[int]) -> Dict[int, int]:
    """The right-hand side of a loop check on the d-face set `faces`: the
    nonzero terms of the (n-2)-cochain y on the (n-2)-simplices of cl F
    that no wall of the box holds."""
    r, faces = K.dim - 2, list(faces)
    cl = {r: closure_by_combinations(K, d, faces)[r]}
    off = off_walls_by_vertex_bits(K, cl, [0] * K.dim, K.grid.box)[r]
    return {i: c for i, c in y.items() if c and i in off}


def subbox_cochains_by_facets(K: Complex, tops: Sequence[Sequence[int]]
                              ) -> Dict[int, set]:
    """The (n-1)- and (n-2)-simplices off the boundary of the ball that the
    top simplices `tops` of K fill: an (n-1)-face is inner when two of the
    tops hold it, and an (n-2)-face of an inner one is off the boundary
    unless it is a face of a facet held by one top only."""
    n = K.dim
    on_facet: Dict[Tuple[int, ...], List[int]] = {}
    for t, top in enumerate(map(tuple, tops)):
        for i in range(n + 1):
            on_facet.setdefault(top[:i] + top[i + 1:], []).append(t)
    inner = [f for f, ts in on_facet.items() if len(ts) == 2]
    outer = {f[:i] + f[i + 1:] for f, ts in on_facet.items() if len(ts) == 1
             for i in range(n)}
    A = {n - 1: {K.index(f) for f in inner}}
    if n >= 2:
        A[n - 2] = {K.index(f[:i] + f[i + 1:]) for f in inner
                    for i in range(n) if f[:i] + f[i + 1:] not in outer}
    return A


def boundary_matrix(K: Complex, k: int) -> np.ndarray:
    """Integer matrix of the boundary operator in dimension k.

    Rows are (k-1)-simplices, columns are k-simplices; entries in {-1,0,1}.
    """
    if not (1 <= k <= K.dim):
        raise InvalidInputError(f"boundary dimension {k} out of range 1..{K.dim}")
    M = np.zeros((K.n_simplices(k - 1), K.n_simplices(k)), dtype=np.int64)
    lower = K._index[k - 1]
    for j, s in enumerate(K.simplices(k)):
        sign = 1
        for i in range(len(s)):
            M[lower[s[:i] + s[i + 1:]], j] += sign
            sign = -sign
    return M
