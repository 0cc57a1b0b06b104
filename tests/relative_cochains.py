"""Whole-box relative cochains: the agreement oracle for the cl F path.

Lefschetz duality gives H_k(B - |F|) = H^{n-k}(K, cl F u dK) for the box
B = |K|.  The relative cochains are the simplices of K outside cl F u dK,
with dK read off the (n-1)-simplices that have a single coface (not off
lattice coordinates), and a degree-1 cycle bounds in the complement
exactly when its crossing cocycle, pushed onto the dual graph of the whole
box, is the coboundary of such a cochain.
Both questions take eliminations over the whole box; `spanmin.complement`
answers them on cl F alone by Alexander duality, and the tests check that
the two agree.

The complement complex, the full subcomplex of the barycentric subdivision
on the simplices outside cl F assembled as a `Complex`, and a constraint
cut into its barycentric pieces on it are the oracle of every degree: its
homology, and a null-homology test with a witness, against the loop
cochains, the duality and the degree >= 2 solve on the subdivision's
chain table.
"""

import itertools
from collections import deque
from typing import Dict, List, Tuple

import numpy as np

from loop_oracles import cofacets, top_by_walk
from spanmin import Chain, Complex
from spanmin.complement import (ComplementModel, _realize_raw,
                                _subdivide_simplex)
from spanmin.complexes import _boundary_columns
from spanmin.homology import HomologyGroup, _snf_diagonal_sparse


def vertex_ids(model: ComplementModel) -> Dict[int, int]:
    """The vertex id in `complement_complex(model)` of each subdivision id
    outside cl F: those ids in increasing order."""
    return {old: i for i, old in
            enumerate(np.flatnonzero(model.good).tolist())}


def complement_complex(model: ComplementModel) -> Complex:
    """The full subcomplex of the subdivision (up to `model.max_dim`) on
    the simplices of K outside cl F, built and validated as a `Complex`
    whose vertices (`vertex_ids`) sit at the barycenters of their
    simplices of K."""
    K, new = model.K, vertex_ids(model)
    simplices = {m: [tuple(new[v] for v in ch) for ch in chains
                     if all(v in new for v in ch)]
                 for m, chains in model.sd.chains.items()}
    centres = np.concatenate([K.coords[K.rows(k)].mean(axis=1)
                              for k in range(K.dim + 1)])
    return Complex(simplices, centres[list(new)])


def realize(spec, model: ComplementModel) -> Chain:
    """The constraint's chain on K cut into its barycentric pieces, as a
    chain of `complement_complex(model)`.  The constraint must be out of
    contact with F (a piece in cl F has no simplex there)."""
    C, new = complement_complex(model), vertex_ids(model)
    pieces: Dict[Tuple[int, ...], int] = {}
    for verts, c in _realize_raw(spec, model.K).items():
        _subdivide_simplex(model.K, verts, c, pieces)
    return Chain(C, spec.degree, {C.index(tuple(new[v] for v in key)): c
                                  for key, c in pieces.items()})


def outside(model: ComplementModel) -> List[bool]:
    """True per subdivision id whose simplex lies outside cl F u dK."""
    K, offsets = model.K, model.offsets
    n = K.dim
    on_boundary = np.zeros(offsets[-1], dtype=bool)
    for f, tops in enumerate(cofacets(K, n - 1)):
        if len(tops) == 1:
            s = K.simplex(n - 1, f)
            for r in range(1, n + 1):
                for sub in itertools.combinations(s, r):
                    on_boundary[offsets[r - 1] + K.index(sub)] = True
    return (~(model.bad | on_boundary)).tolist()


def delta(model: ComplementModel, keep: List[bool], r: int
          ) -> Dict[int, Dict[int, int]]:
    """Columns {r-simplex: {(r+1)-coface: sign}} of the relative coboundary
    delta_r of (K, cl F u dK), empty outside 0..n-1."""
    K, offsets = model.K, model.offsets
    cols: Dict[int, Dict[int, int]] = {}
    if 0 <= r < K.dim:
        lo, up = offsets[r], offsets[r + 1]
        for j, col in _boundary_columns(K, r + 1).items():
            if keep[up + j]:
                for i, s in col.items():
                    if keep[lo + i]:
                        cols.setdefault(i, {})[j] = s
    return cols


def homology(model: ComplementModel, k: int) -> HomologyGroup:
    """H_k of the complement as H^{n-k}(K, cl F u dK), for 0 <= k <= n:
    with m = n - k, the rank is |A_m| - rank delta_m - rank delta_{m-1}
    and the torsion the non-unit invariants of delta_{m-1}."""
    keep = outside(model)
    m = model.K.dim - k
    rank_m = len(_snf_diagonal_sparse(delta(model, keep, m)))
    diag = _snf_diagonal_sparse(delta(model, keep, m - 1))
    offsets = model.offsets
    n_cochains = sum(keep[offsets[m]:offsets[m + 1]])
    return HomologyGroup(k=k, rank=n_cochains - rank_m - len(diag),
                         torsion=tuple(d for d in diag if d > 1))


def crossings(K) -> List[List[Tuple[int, int, int]]]:
    """Per top simplex t and vertex slot i: the facet f opposite vertex i,
    the top across f (-1 on dK) and the sign -[t:f] eps_t of a crossing out
    of t through f, eps_t the sign of t's determinant."""
    n = K.dim
    T = np.array(K.simplices(n), dtype=np.int64)
    X = K.coords
    eps = np.sign(np.linalg.det(X[T[:, 1:]] - X[T[:, :1]]))
    index, cof = K._index[n - 1], cofacets(K, n - 1)
    out = []
    for t, (verts, e) in enumerate(zip(K.simplices(n), eps.tolist())):
        row = []
        for i in range(n + 1):
            f = index[verts[:i] + verts[i + 1:]]
            across = next((u for u in cof[f] if u != t), -1)
            row.append((f, across, int(e) * (-1) ** (i + 1)))
        out.append(row)
    return out


def star_path(K, cross, inside, t0: int, t1: int) -> List[Tuple[int, int]]:
    """Signed crossings (facet, sign) of a dual path from top t0 to top t1
    that stays among the tops containing the vertex set `inside`."""
    tops = K.simplices(K.dim)
    prev = {t0: None}
    queue = deque([t0])
    while t1 not in prev:
        t = queue.popleft()
        for v, (f, u, s) in zip(tops[t], cross[t]):
            if u >= 0 and v not in inside and u not in prev:
                prev[u] = (t, f, s)
                queue.append(u)
    path = []
    while prev[t1] is not None:
        t1, f, s = prev[t1]
        path.append((f, s))
    return path


def crossing_cocycle(model: ComplementModel,
                     chain: Dict[Tuple[int, int], int]) -> Dict[int, int]:
    """The signed crossings of the 1-chain {(u, v): coeff} on K, subdivided
    (u -> v with coeff c is c (u, uv) - c (v, uv)) and pushed onto the whole
    dual graph: a simplex s goes to `top_by_walk(K, s)`, and a piece
    (a, e) to a path between the tops of a and e through the open star of
    a."""
    K = model.K
    cross = crossings(K)
    z: Dict[int, int] = {}
    for (u, v), c in chain.items():
        for a, coeff in ((u, c), (v, -c)):
            for f, s in star_path(K, cross, {a}, top_by_walk(K, (a,)),
                                  top_by_walk(K, (u, v))):
                z[f] = z.get(f, 0) + s * coeff
    return z


def bounds_deg1(model: ComplementModel,
                chain: Dict[Tuple[int, int], int]) -> bool:
    """True iff the crossing cocycle of the 1-cycle on K is a coboundary of
    (K, cl F u dK): one sparse solve over the columns of delta_{n-2}."""
    cols = delta(model, outside(model), model.K.dim - 2)
    return _snf_diagonal_sparse(cols, rhs=crossing_cocycle(model, chain)
                                ).solvable
