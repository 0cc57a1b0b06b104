"""Finite simplicial complexes, grid triangulations, integer chains, boundaries.

Simplices are stored as strictly increasing tuples of vertex ids; a simplex
given with permuted vertices contributes only the sign of the permutation.
Every combinatorial question reads the integer simplex tables (and, on a
grid, the integer lattice points); vertex coordinates are one float array,
read only by measures, projections and mesh export.

On a grid, vertex ids are row-major lattice ranks, and a k-simplex of the
Kuhn triangulation is a base vertex b plus a flag S1 < ... < Sk of nested
nonempty axis sets: its vertices are b and b + e(Sj), e(S) the sum of the
unit steps along S.  Its row is b, b + stride(S1), ..., b + stride(Sk),
so the rows sort by base, then by (stride(S1), ..., stride(Sk)), an order
of the flags that no box changes.  Listing the bases in row-major order,
each followed by its valid flags in that order, gives every grid table
sorted, with no sort (`_kuhn_faces`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError

Vertices = Tuple[int, ...]


def canonical_vertices(vertices: Sequence[int]) -> Tuple[Vertices, int]:
    """Sort vertex ids, returning (sorted tuple, permutation sign)."""
    verts = list(vertices)
    if len(set(verts)) != len(verts):
        raise InvalidInputError(f"repeated vertex in simplex {vertices!r}")
    sign = 1
    for i in range(1, len(verts)):  # insertion sort; simplices are tiny
        j = i
        while j > 0 and verts[j - 1] > verts[j]:
            verts[j - 1], verts[j] = verts[j], verts[j - 1]
            sign = -sign
            j -= 1
    return tuple(verts), sign


def _integer(c) -> int:
    """c as an int when it is an integer value: a numpy integer or an
    integral float passes; any other value (1.5, nan, inf) raises
    `InvalidInputError` rather than being truncated."""
    try:
        i = int(c)
        integral = i == c
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise InvalidInputError(f"lattice coordinate {c!r} is not an integer")
    return i


def _lattice_point(point: Sequence) -> Tuple[int, ...]:
    """A lattice point's coordinates as ints (`_integer`)."""
    return tuple(c if type(c) is int else _integer(c) for c in point)


@dataclass(frozen=True)
class GridInfo:
    """Lattice metadata attached to grid-built complexes."""

    box: Tuple[int, ...]
    scale: float
    points: Tuple[Tuple[int, ...], ...]  # vertex id -> lattice point

    @functools.cached_property
    def _strides(self) -> Tuple[int, ...]:
        """The row-major strides of the box's points, computed once."""
        return tuple(math.prod(b + 1 for b in self.box[a + 1:])
                     for a in range(len(self.box)))

    def vertex_at(self, point: Sequence[int]) -> int:
        """The id of a lattice point: its row-major rank in the box."""
        key = _lattice_point(point)
        if len(key) == len(self.box):
            rank = 0
            for c, b, stride in zip(key, self.box, self._strides):
                if not 0 <= c <= b:
                    break
                rank += c * stride
            else:
                return rank
        raise InvalidInputError(f"lattice point {key} outside the box")


class Complex:
    """A finite simplicial complex with indexed, ordered simplex tables.

    The k-simplices are numbered in lexicographic order of their vertex
    tuples; `rows(k)` gives the same table as an integer array.  Immutable
    after construction; per-complex caches (face volumes, constraints,
    the dual graph, subdivisions) are filled lazily by the other modules.
    """

    def __init__(self, simplices: Dict[int, Iterable[Vertices]], coords):
        self._fill({k: sorted(set(map(tuple, tab)))
                    for k, tab in simplices.items()}, coords, {})
        self._check_closure()

    def _fill(self, tables: Dict[int, List[Vertices]], coords,
              rows: Dict[int, np.ndarray]) -> None:
        self.coords = np.asarray(coords, dtype=float)
        dims = [k for k, tab in tables.items() if tab]
        self.dim = max(dims) if dims else 0
        self._tables: Dict[int, List[Vertices]] = {
            k: tables.get(k, []) for k in range(self.dim + 1)}
        self._index: Dict[int, Dict[Vertices, int]] = {
            k: dict(zip(tab, range(len(tab))))
            for k, tab in self._tables.items()}
        self._rows = rows
        self.cache: Dict = {}
        self.grid: Optional[GridInfo] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_maximal(cls, maximal: Iterable[Sequence[int]], coords) -> "Complex":
        """Build the closure of the given simplices (all faces included)."""
        by_size: Dict[int, List[Sequence[int]]] = {}
        for s in maximal:
            if len(s):
                by_size.setdefault(len(s), []).append(s)
        groups = []
        for size, simplices in by_size.items():
            rows = np.sort(np.array(simplices, dtype=np.int64), axis=1)
            repeated = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
            if repeated.any():
                bad = simplices[int(np.flatnonzero(repeated)[0])]
                raise InvalidInputError(f"repeated vertex in simplex {bad!r}")
            if rows[:, 0].min() < 0:
                raise InvalidInputError("vertex ids must be nonnegative")
            groups.append(rows)
        return cls._from_rows(_closure_rows(groups), coords)

    @classmethod
    def _from_rows(cls, rows: Dict[int, np.ndarray], coords) -> "Complex":
        """The complex whose k-simplices are the rows of rows[k]: increasing
        vertex ids, rows unique and in lexicographic order, closed under
        faces.  The tuple tables are read off the arrays as they stand."""
        # one shared int object per vertex id, not one per table entry
        top = max((int(r.max()) + 1 for r in rows.values() if r.size),
                  default=0)
        ids = np.arange(top).astype(object)
        K = cls.__new__(cls)
        K._fill({k: list(zip(*ids[r].T.tolist())) for k, r in rows.items()},
                coords, dict(rows))
        return K

    def _check_closure(self) -> None:
        nv = len(self.coords)
        for v in self._tables.get(0, ()):
            if len(v) != 1 or not (0 <= v[0] < nv):
                raise InvalidInputError(f"bad vertex simplex {v}")
        for k in range(1, self.dim + 1):
            lower = self._index.get(k - 1, {})
            for s in self._tables[k]:
                if list(s) != sorted(set(s)):
                    raise InvalidInputError(f"non-canonical simplex {s}")
                for i in range(len(s)):
                    face = s[:i] + s[i + 1:]
                    if face not in lower:
                        raise InvalidInputError(
                            f"face {face} of {s} missing from the complex")

    # -- lookups -----------------------------------------------------------

    def n_simplices(self, k: int) -> int:
        return len(self._tables.get(k, ()))

    def simplices(self, k: int) -> List[Vertices]:
        return self._tables.get(k, [])

    def simplex(self, k: int, i: int) -> Vertices:
        return self._tables[k][i]

    def rows(self, k: int) -> np.ndarray:
        """The k-simplex table as an (m, k+1) int64 array: row i is
        simplex(k, i)."""
        if k not in self._rows:
            self._rows[k] = np.array(self.simplices(k),
                                     dtype=np.int64).reshape(-1, k + 1)
        return self._rows[k]

    def index(self, verts: Vertices) -> int:
        """Index of a canonically ordered simplex."""
        return self._index[len(verts) - 1][verts]

    def contains(self, verts: Vertices) -> bool:
        return verts in self._index.get(len(verts) - 1, {})

    def find(self, vertices: Sequence[int]) -> Tuple[int, int, int]:
        """Canonicalize and look up: returns (dim, index, orientation sign)."""
        t, sign = canonical_vertices(vertices)
        return len(t) - 1, self.index(t), sign

    def __repr__(self) -> str:
        counts = ", ".join(f"{k}:{self.n_simplices(k)}"
                           for k in range(self.dim + 1))
        return f"Complex(dim={self.dim}, counts={{{counts}}})"


class Chain:
    """Sparse formal sum of k-simplices with integer coefficients."""

    __slots__ = ("complex", "dim", "coeffs")

    def __init__(self, complex: Complex, dim: int, coeffs: Optional[Dict[int, int]] = None):
        self.complex = complex
        self.dim = dim
        clean: Dict[int, int] = {}
        if coeffs:
            n = complex.n_simplices(dim)
            for i, c in coeffs.items():
                if c == 0:
                    continue
                if not (0 <= i < n):
                    raise InvalidInputError(f"simplex index {i} out of range in dim {dim}")
                clean[i] = int(c)
        self.coeffs = clean

    @classmethod
    def from_simplices(cls, complex: Complex, items) -> "Chain":
        """Build a chain from (vertex sequence, coefficient) pairs."""
        coeffs: Dict[int, int] = {}
        dim = None
        for verts, c in items:
            k, idx, sign = complex.find(verts)
            if dim is None:
                dim = k
            elif dim != k:
                raise InvalidInputError("mixed dimensions in chain input")
            coeffs[idx] = coeffs.get(idx, 0) + sign * int(c)
        if dim is None:
            raise InvalidInputError("empty chain input needs an explicit dimension")
        return cls(complex, dim, coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Chain") -> "Chain":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, 0) + c
        return Chain(self.complex, self.dim, out)

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-1) * other

    def __rmul__(self, a: int) -> "Chain":
        return Chain(self.complex, self.dim,
                     {i: a * c for i, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Chain) and self.complex is other.complex
                and self.dim == other.dim and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.complex), self.dim, tuple(sorted(self.coeffs.items()))))

    def _check_compatible(self, other: "Chain") -> None:
        if self.complex is not other.complex or self.dim != other.dim:
            raise InvalidInputError("chains live in different groups")

    def __repr__(self) -> str:
        terms = " + ".join(f"{c}*{self.complex.simplex(self.dim, i)}"
                           for i, c in sorted(self.coeffs.items()))
        return f"Chain(dim={self.dim}, {terms or '0'})"


def _boundary_columns(K: Complex, k: int, ids: Optional[Iterable[int]] = None
                      ) -> Dict[int, Dict[int, int]]:
    """Sparse columns {k-simplex: {(k-1)-face: sign}} of the k-th boundary,
    for the k-simplices `ids` (every one by default) in increasing order.

    The empty face is not a simplex of K, so a vertex has no facets and
    every column of the 0-th boundary is empty.
    """
    table, lower = K.simplices(k), K._index.get(k - 1, {})
    signs = [(i, (-1) ** i) for i in range(k + 1)] if k else []
    cols: Dict[int, Dict[int, int]] = {}
    for j in range(len(table)) if ids is None else sorted(ids):
        s = table[j]
        cols[j] = {lower[s[:i] + s[i + 1:]]: sign for i, sign in signs}
    return cols


def _simplex_ids(K: Complex, r: int, rows: np.ndarray) -> List[int]:
    """The ids in K of the r-simplices given as rows of vertex ids."""
    index = K._index[r]
    return [index[s] for s in zip(*rows.T.tolist())]


def boundary(c: Chain) -> Chain:
    """Alternating-sign sum of facets, extended linearly; zero on 0-chains."""
    out: Dict[int, int] = {}
    for j, col in _boundary_columns(c.complex, c.dim, c.coeffs).items():
        for f, sign in col.items():
            out[f] = out.get(f, 0) + sign * c.coeffs[j]
    return Chain(c.complex, c.dim - 1, out)


@dataclass(frozen=True)
class FaceSet:
    """A subset of the d-faces of an ambient complex."""

    complex: Complex
    dim: int
    faces: Tuple[int, ...]

    def __post_init__(self):
        K = self.complex
        if not (0 <= self.dim < K.dim):
            raise InvalidInputError(
                f"face dimension {self.dim} must lie strictly below {K.dim}")
        faces = tuple(sorted(set(int(f) for f in self.faces)))
        n = K.n_simplices(self.dim)
        for f in faces:
            if not (0 <= f < n):
                raise InvalidInputError(f"face index {f} out of range")
        object.__setattr__(self, "faces", faces)

    def __len__(self) -> int:
        return len(self.faces)

    def __contains__(self, f: int) -> bool:
        return f in set(self.faces)

    def union(self, others: Iterable[int]) -> "FaceSet":
        return FaceSet(self.complex, self.dim, self.faces + tuple(others))

    def difference(self, others: Iterable[int]) -> "FaceSet":
        drop = set(others)
        return FaceSet(self.complex, self.dim,
                       tuple(f for f in self.faces if f not in drop))

    def vertex_ids(self) -> set:
        out = set()
        for f in self.faces:
            out.update(self.complex.simplex(self.dim, f))
        return out


def faceset_to_chain(F: FaceSet, orientation: Optional[Dict[int, int]] = None) -> Chain:
    """Chain with coefficient +-1 per face; default is the canonical orientation."""
    coeffs = {}
    for f in F.faces:
        s = 1 if orientation is None else int(orientation.get(f, 1))
        if s not in (1, -1):
            raise InvalidInputError(f"orientation for face {f} must be +-1")
        coeffs[f] = s
    return Chain(F.complex, F.dim, coeffs)


def _kuhn_tops(shape: Sequence[int], lo: Sequence[int],
               hi: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """The Kuhn tops of the lattice cubes with lower corners in lo..hi-1 on
    a lattice of the given shape (row-major ids), and each one's sign.

    Per cube in row-major order, one row per axis permutation: the corner's
    id plus the running id strides along it, an increasing path of unit
    steps.  Its sign is the permutation's, sign(det) of its edge vectors.
    """
    n = len(shape)
    stride = [math.prod(shape[a + 1:]) for a in range(n)]
    perms = list(itertools.permutations(range(n)))
    corners = (np.indices(np.subtract(hi, lo)).reshape(n, -1).T + lo) @ stride
    paths = np.array([np.cumsum([0] + [stride[a] for a in perm])
                      for perm in perms])
    tops = (corners[:, None, None] + paths).reshape(-1, n + 1)
    signs = [canonical_vertices(perm)[1] for perm in perms]
    return tops, np.tile(signs, len(corners))


def _row_ranks(rows: np.ndarray) -> np.ndarray:
    """The dense lexicographic rank of each row of a nonnegative integer
    array among its distinct rows.  Each column prefix is replaced by its
    dense rank among the distinct prefixes (sort, adjacent difference,
    binary search), so every key stays below len(rows) * (max entry + 1):
    no int64 overflow, where one key per whole row would need
    (max entry + 1) ** width."""
    base = int(rows.max(initial=0)) + 1
    rank = np.zeros(len(rows), dtype=np.int64)
    for col in rows.T:
        key = rank * base + col
        distinct = np.sort(key)
        distinct = distinct[np.concatenate(
            ([True], distinct[1:] != distinct[:-1]))]
        rank = np.searchsorted(distinct, key)
    return rank


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a nonnegative integer array, in lexicographic
    order (see `_row_ranks`)."""
    if not len(rows):
        return rows
    rank = _row_ranks(rows)
    first = np.empty(int(rank.max()) + 1, dtype=np.int64)
    first[rank] = np.arange(len(rows))
    return rows[first]


def _closure_rows(groups: Sequence[np.ndarray],
                  dims: Optional[Iterable[int]] = None
                  ) -> Dict[int, np.ndarray]:
    """Every face of the given simplices, dimension by dimension (each one
    in `dims`, every one by default), as sorted unique rows.  Each group is
    an (m, s) array of increasing vertex ids, one group per simplex size s;
    the k-faces are the (k+1)-column subsets of the rows."""
    out: Dict[int, np.ndarray] = {}
    if dims is None:
        dims = range(max((g.shape[1] for g in groups), default=0))
    for k in dims:
        out[k] = _unique_rows(np.concatenate([
            g[:, list(cols)] for g in groups if g.shape[1] > k
            for cols in itertools.combinations(range(g.shape[1]), k + 1)]))
    return out


@functools.lru_cache(maxsize=None)
def _flags(n: int) -> Tuple[np.ndarray, ...]:
    """Per k = 0..n, the flags S1 < ... < Sk of nonempty axis sets of a
    lattice in R^n (each a strict subset of the next) as the rows of an
    (m, k) array, in the order of (stride(S1), ..., stride(Sk)).  A set is
    a bitmask with bit n-1-a for axis a: every lattice axis has at least
    two points, so a stride exceeds the sum of the strides after it, and
    comparing two sets by stride is comparing their masks.  Built once per
    n, on first use, and read-only, as every caller shares it."""
    flags: List[Tuple[int, ...]] = [()]
    out = [np.zeros((1, 0), dtype=np.int64)]
    for k in range(1, n + 1):
        flags = sorted(f + (m,) for f in flags for m in range(1, 1 << n)
                       if not f or (m != f[-1] and m & f[-1] == f[-1]))
        out.append(np.array(flags, dtype=np.int64).reshape(-1, k))
    for table in out:
        table.flags.writeable = False
    return tuple(out)


def _kuhn_faces(shape: Sequence[int], lo: Sequence[int], hi: Sequence[int],
                dims: Iterable[int]) -> Dict[int, np.ndarray]:
    """Per k in `dims`, the k-faces of the Kuhn tops (`_kuhn_tops`) of the
    lattice cubes with lower corners in lo..hi-1, as sorted unique rows of
    row-major vertex ids: the rows `_closure_rows` gives for those tops,
    with no sort.

    A k-face is a base b in lo..hi plus a flag S1 < ... < Sk (`_flags`):
    its vertices are b and b + e(Sj), e(S) the sum of the unit steps along
    S, so its row is b and b + stride(Sj).  The flag is valid at b when
    b_a < hi_a on every axis a of Sk.  Bases go in row-major order, each
    followed by its valid flags in flag order, which is lexicographic
    order of the rows (Freudenthal, Ann. Math. 43 (1942); Todd, The
    Computation of Fixed Points and Applications (1976))."""
    n = len(shape)
    stride = np.array([math.prod(shape[a + 1:]) for a in range(n)])
    bit = 1 << np.arange(n - 1, -1, -1)
    points = np.indices(np.subtract(hi, lo) + 1).reshape(n, -1).T + lo
    bases = points @ stride
    free = (points < hi) @ bit  # per base, the axes it may step along
    set_stride = ((np.arange(1 << n)[:, None] & bit) > 0) @ stride
    out = {}
    for k in dims:
        flags = _flags(n)[k]
        steps = np.concatenate([np.zeros((len(flags), 1), dtype=np.int64),
                                set_stride[flags]], axis=1)
        last = flags[:, -1] if k else np.zeros(1, dtype=np.int64)
        at, flag = np.nonzero((last & ~free[:, None]) == 0)
        out[k] = bases[at, None] + steps[flag]
    return out


def build_grid_complex(n: int, box: Sequence[int], scale: float = 1.0) -> Complex:
    """Triangulated box grid in R^n (each cube split into n! simplices).

    Every unit cell is subdivided along its main diagonal into the n!
    Kuhn simplices of `_kuhn_tops`, so the result is closed under faces and
    two cells always meet in a common face.  Vertex ids are row-major
    lattice ranks (`GridInfo.vertex_at`).  The k-simplex table is read off
    the flags of `_kuhn_faces`: bases in row-major order, each followed by
    its valid flags S1 < ... < Sk in the order of (stride(S1), ...,
    stride(Sk)), which is the lexicographic order of the vertex rows, so
    no table is sorted and no Python loop runs per simplex.
    """
    if not (1 <= int(n) <= 4):
        raise InvalidInputError(f"ambient dimension {n} unsupported (need 1..4)")
    box = tuple(int(b) for b in box)
    if len(box) != n or any(b < 1 for b in box):
        raise InvalidInputError(f"box {box} must have {n} axes with counts >= 1")
    scale = float(scale)
    if not (math.isfinite(scale) and scale > 0):
        raise InvalidInputError(
            f"scale must be positive and finite, not {scale}")

    shape = tuple(b + 1 for b in box)
    points = tuple(itertools.product(*[range(s) for s in shape]))
    coords = scale * np.array(points, dtype=float)
    K = Complex._from_rows(_kuhn_faces(shape, (0,) * n, box, range(n + 1)),
                           coords)
    K.grid = GridInfo(box=box, scale=scale, points=points)
    return K
