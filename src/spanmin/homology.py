"""Exact integer homology and bounding tests by one sparse elimination.

`_snf_diagonal_sparse` is the package's only integer elimination: it gives
the invariant factors of a set of sparse columns (the nonzero diagonal of
their Smith normal form) and, on request, decides whether a right-hand side
is an integer combination of them.  All arithmetic is over
arbitrary-precision Python ints; no modular shortcuts, so torsion is exact.
It pivots by one static rule: columns in order of their starting length,
each on its unit in the row with the fewest columns, then the entry of
smallest magnitude once that order is exhausted.  Every degree, 0
included, goes through it: homology groups read the invariant factors of
the boundary operators, and null-homology tests solve over the columns of
the next boundary operator, returning an explicit integer witness chain
whenever the class vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .complexes import Chain, Complex, _boundary_columns, boundary
from .errors import InvalidInputError, PreconditionError


class Elimination(list):
    """Invariant factors of a set of columns (the list itself), plus the
    verdict on an optional right-hand side z.

    `solvable` tells whether z is an integer combination of the columns
    (None when no right-hand side was given); `witness` is one such
    combination {column: coefficient} when it was asked for.
    """

    solvable: Optional[bool] = None
    witness: Optional[Dict[int, int]] = None


def _sub_multiple(dst: Dict[int, int], src: Dict[int, int], q: int) -> None:
    """dst -= q * src on sparse integer vectors."""
    for i, v in src.items():
        nv = dst.get(i, 0) - q * v
        if nv:
            dst[i] = nv
        else:
            dst.pop(i, None)


def _divisibility_chain(diag: List[int]) -> List[int]:
    """Rewrite a multiset of positive integers as a divisibility chain.

    A 1 divides everything, so only the other entries need the pairwise
    gcd/lcm pass.
    """
    ones = [d for d in diag if d == 1]
    rest = [d for d in diag if d > 1]
    changed = True
    while changed:
        changed = False
        for a in range(len(rest)):
            for b in range(a + 1, len(rest)):
                g = math.gcd(rest[a], rest[b])
                l = rest[a] * rest[b] // g
                if (g, l) != (rest[a], rest[b]):
                    rest[a], rest[b] = g, l
                    changed = True
    return ones + sorted(rest)


def _snf_diagonal_sparse(cols: Dict[int, Dict[int, int]],
                         rhs: Optional[Dict[int, int]] = None,
                         witness: bool = False) -> Elimination:
    """Invariant factors from sparse dict-of-dict columns, and optionally
    the integer solve of sum_j x_j cols[j] = rhs.

    One static pivot rule: the columns are taken in order of their starting
    length, and each step pivots on the first one still holding a unit, at
    its unit in the row with the fewest columns.  Once that order is
    exhausted, the entry of smallest magnitude pivots.  Returns the nonzero
    diagonal as a divisibility chain.

    The right-hand side z takes every row operation but is never a pivot.
    When a pivot p is retired its column is p e_i, so z is reduced by
    z[i] / p times that column.  A remainder there can never be cleared (no
    later operation touches a retired row), so the elimination stops with
    the answer no and the invariants retired so far.  Otherwise z lies in
    the span over Z exactly when nothing of it is left at the end.  With
    `witness`, every column keeps its history as a combination of the
    original columns, and the reductions of z add up to a solution x.
    """
    cols = {j: dict(col) for j, col in cols.items() if col}
    rows: Dict[int, set] = {}
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, set()).add(j)
    z = None if rhs is None else {i: v for i, v in rhs.items() if v}
    hist = ({j: {j: 1} for j in cols} if witness and z is not None
            else None)
    x: Dict[int, int] = {}

    def result(diag: List[int], solvable: Optional[bool]) -> Elimination:
        out = Elimination(_divisibility_chain(diag))
        out.solvable = solvable
        if solvable and hist is not None:
            out.witness = x
        return out

    # columns by starting length; the sort is stable, so ties keep input
    # order and the witness stays deterministic
    order = sorted(cols, key=lambda j: len(cols[j]))
    k = 0
    diag: List[int] = []
    while cols:
        while k < len(order) and not any(
                abs(v) == 1 for v in cols.get(order[k], {}).values()):
            k += 1
        if k < len(order):
            # the first column still holding a unit pivots on its unit in
            # the row with the fewest columns
            j0 = order[k]
            i0 = min((i for i, v in cols[j0].items() if abs(v) == 1),
                     key=lambda i: len(rows[i]))
        else:
            # the ordered pass is over (a column it skipped may have gained
            # a unit through fill since): take the smallest magnitude,
            # which guarantees Euclidean progress on this row/column
            best = None
            for j, col in cols.items():
                cl = len(col) - 1
                for i, v in col.items():
                    key = (abs(v), (len(rows[i]) - 1) * cl)
                    if best is None or key < best[0]:
                        best = (key, i, j)
            _, i0, j0 = best
        col0 = cols[j0]
        p = col0[i0]

        # eliminate pivot row across other columns (column ops); a column
        # is deleted the moment it becomes empty
        for j in list(rows[i0]):
            if j == j0:
                continue
            colj = cols[j]
            q = colj[i0] // p
            if not q:
                continue
            for i, v in col0.items():
                nv = colj.get(i, 0) - q * v
                if nv:
                    colj[i] = nv
                    rows.setdefault(i, set()).add(j)
                elif i in colj:
                    del colj[i]
                    rows[i].discard(j)
            if hist is not None:
                _sub_multiple(hist[j], hist[j0], q)
            if not colj:
                del cols[j]
        # if remainders survive the pivot stays non-unit; the pivot choice
        # next round sees the smaller remainder
        if len(rows[i0]) > 1:
            continue
        # row i0 now holds only the pivot, so a row op "row i -= q row i0"
        # changes column j0 and the right-hand side alone
        zi0 = z.get(i0, 0) if z else 0
        pending = False
        for i in [i for i in col0 if i != i0]:
            q, r = divmod(col0[i], p)
            if zi0:
                nz = z.get(i, 0) - q * zi0
                if nz:
                    z[i] = nz
                else:
                    z.pop(i, None)
            if r:
                col0[i] = r
                pending = True
            else:
                del col0[i]
                rows[i].discard(j0)
        if pending:
            continue
        # pivot row/column clean: retire it
        diag.append(abs(p))
        del cols[j0]
        del rows[i0]
        if zi0:
            q, r = divmod(z.pop(i0), p)
            if r:
                return result(diag, False)
            if hist is not None:
                _sub_multiple(x, hist[j0], -q)
        if hist is not None:
            del hist[j0]
    return result(diag, None if z is None else not z)


@dataclass(frozen=True)
class HomologyGroup:
    """Rank and torsion coefficients of H_k over the integers."""

    k: int
    rank: int
    torsion: Tuple[int, ...]

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __repr__(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{t}" for t in self.torsion]
        return f"H_{self.k} = " + (" + ".join(parts) if parts else "0")


def _boundary_diagonal(K: Complex, k: int) -> Elimination:
    """Invariant factors of d_k, eliminated once per complex (K.cache)."""
    key = ("boundary_diagonal", k)
    if key not in K.cache:
        K.cache[key] = _snf_diagonal_sparse(_boundary_columns(K, k))
    return K.cache[key]


def homology_group(K: Complex, k: int) -> HomologyGroup:
    """H_k(K, Z) as rank plus torsion, computed exactly and cached.

    In every degree, rank = n_k - rank d_k - rank d_{k+1} and the torsion
    is the non-unit invariant factors of d_{k+1}; each d_k is eliminated
    once per complex, so H_k and H_{k+1} share d_{k+1}.
    """
    if not (0 <= k <= K.dim):
        raise InvalidInputError(f"homology dimension {k} out of range 0..{K.dim}")
    key = ("homology", k)
    if key in K.cache:
        return K.cache[key]

    rank_dk = len(_boundary_diagonal(K, k))
    diag = _boundary_diagonal(K, k + 1)
    result = HomologyGroup(k=k, rank=K.n_simplices(k) - rank_dk - len(diag),
                           torsion=tuple(d for d in diag if d > 1))
    K.cache[key] = result
    return result


def is_cycle(z: Chain) -> bool:
    return boundary(z).is_zero()


def is_null_homologous(z: Chain) -> Tuple[bool, Optional[Chain]]:
    """Decide [z] = 0 in H_k(K, Z) for the complex K of z; on success
    return x with boundary(x) = z.

    In every degree this is the sparse integer solve of boundary(x) = z
    over the columns of the next boundary operator, so the answer is exact
    over the integers (torsion included).
    """
    if not is_cycle(z):
        raise PreconditionError("is_null_homologous requires a cycle")
    K, k = z.complex, z.dim
    if z.is_zero():
        return True, Chain(K, k + 1, {})
    sol = _snf_diagonal_sparse(_boundary_columns(K, k + 1), rhs=z.coeffs,
                               witness=True)
    if not sol.solvable:
        return False, None
    return True, Chain(K, k + 1, sol.witness)
