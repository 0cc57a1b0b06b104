"""Finite simplicial complexes, grid triangulations, integer chains, boundaries.

Simplices are stored as strictly increasing tuples of vertex ids; a simplex
given with permuted vertices contributes only the sign of the permutation.
Every combinatorial question reads the integer simplex tables (and, on a
grid, the integer lattice points); vertex coordinates are one float array,
read only by measures, projections and mesh export.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

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


@dataclass(frozen=True)
class GridInfo:
    """Lattice metadata attached to grid-built complexes."""

    box: Tuple[int, ...]
    scale: float
    lattice: Dict[Tuple[int, ...], int]  # integer lattice point -> vertex id
    points: Tuple[Tuple[int, ...], ...]  # vertex id -> lattice point

    def vertex_at(self, point: Sequence[int]) -> int:
        key = tuple(int(c) for c in point)
        if key not in self.lattice:
            raise InvalidInputError(f"lattice point {key} outside the box")
        return self.lattice[key]


class Complex:
    """A finite simplicial complex with indexed, ordered simplex tables.

    Immutable after construction; per-complex caches (cofacets, homology,
    subdivisions) are filled lazily by the other modules.
    """

    def __init__(self, simplices: Dict[int, Iterable[Vertices]], coords,
                 validate: bool = True):
        self.coords = np.asarray(coords, dtype=float)
        dims = [k for k, tab in simplices.items() if tab]
        self.dim = max(dims) if dims else 0
        self._tables: Dict[int, List[Vertices]] = {}
        self._index: Dict[int, Dict[Vertices, int]] = {}
        for k in range(self.dim + 1):
            tab = sorted(set(map(tuple, simplices.get(k, ()))))
            self._tables[k] = tab
            self._index[k] = {s: i for i, s in enumerate(tab)}
        self._cofacets: Dict[int, List[List[int]]] = {}
        self.cache: Dict = {}
        self.grid: Optional[GridInfo] = None
        if validate:
            self._check_closure()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_maximal(cls, maximal: Iterable[Sequence[int]], coords) -> "Complex":
        """Build the closure of the given simplices (all faces included)."""
        simp: Dict[int, set] = {}
        for s in maximal:
            t, _ = canonical_vertices(s)
            for r in range(1, len(t) + 1):
                bucket = simp.setdefault(r - 1, set())
                for sub in itertools.combinations(t, r):
                    bucket.add(sub)
        return cls(simp, coords, validate=False)

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

    def index(self, verts: Vertices) -> int:
        """Index of a canonically ordered simplex."""
        return self._index[len(verts) - 1][verts]

    def contains(self, verts: Vertices) -> bool:
        return verts in self._index.get(len(verts) - 1, {})

    def find(self, vertices: Sequence[int]) -> Tuple[int, int, int]:
        """Canonicalize and look up: returns (dim, index, orientation sign)."""
        t, sign = canonical_vertices(vertices)
        return len(t) - 1, self.index(t), sign

    def cofacets(self, k: int) -> List[List[int]]:
        """For each k-simplex, the indices of its (k+1)-cofaces."""
        if k not in self._cofacets:
            out: List[List[int]] = [[] for _ in self._tables.get(k, ())]
            for j, s in enumerate(self._tables.get(k + 1, ())):
                for i in range(len(s)):
                    face = s[:i] + s[i + 1:]
                    out[self._index[k][face]].append(j)
            self._cofacets[k] = out
        return self._cofacets[k]

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


def boundary(c: Chain) -> Chain:
    """Alternating-sign sum of facets, extended linearly; zero on 0-chains."""
    K = c.complex
    if c.dim <= 0:
        return Chain(K, c.dim - 1, {})
    out: Dict[int, int] = {}
    table = K.simplices(c.dim)
    lower = K._index[c.dim - 1]
    for idx, coeff in c.coeffs.items():
        s = table[idx]
        sign = 1
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            j = lower[face]
            out[j] = out.get(j, 0) + sign * coeff
            sign = -sign
    return Chain(K, c.dim - 1, out)


def boundary_matrix(K: Complex, k: int) -> np.ndarray:
    """Integer matrix of the boundary operator in dimension k.

    Rows are (k-1)-simplices, columns are k-simplices; entries in {-1,0,1}.
    """
    if not (1 <= k <= K.dim):
        raise InvalidInputError(f"boundary dimension {k} out of range 1..{K.dim}")
    rows = K.n_simplices(k - 1)
    cols = K.n_simplices(k)
    M = np.zeros((rows, cols), dtype=np.int64)
    lower = K._index[k - 1]
    for j, s in enumerate(K.simplices(k)):
        sign = 1
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            M[lower[face], j] += sign
            sign = -sign
    return M


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


def kuhn_tops(lattice: Dict[Tuple[int, ...], int], lo: Sequence[int],
              hi: Sequence[int]) -> Iterator[Tuple[Vertices, Tuple[int, ...]]]:
    """(vertices, axis permutation) per top simplex of the lattice cubes
    with corners in lo..hi: per cube in row-major order, one path from its
    lower corner per permutation, a unit step along each axis in turn.
    Lattice ids are row-major, so the vertices increase along the path."""
    for origin in itertools.product(*[range(a, b) for a, b in zip(lo, hi)]):
        for perm in itertools.permutations(range(len(lo))):
            p = list(origin)
            verts = [lattice[tuple(p)]]
            for axis in perm:
                p[axis] += 1
                verts.append(lattice[tuple(p)])
            yield tuple(verts), perm


def build_grid_complex(n: int, box: Sequence[int], scale: float = 1.0) -> Complex:
    """Triangulated box grid in R^n (each cube split into n! simplices).

    Every unit cell is subdivided along its main diagonal into the n!
    permutation simplices, so the result is closed under faces and two cells
    always meet in a common face.  Vertex ids follow row-major lattice order.
    """
    if not (1 <= int(n) <= 4):
        raise InvalidInputError(f"ambient dimension {n} unsupported (need 1..4)")
    box = tuple(int(b) for b in box)
    if len(box) != n or any(b < 1 for b in box):
        raise InvalidInputError(f"box {box} must have {n} axes with counts >= 1")
    if not (float(scale) > 0):
        raise InvalidInputError("scale must be positive")

    shape = tuple(b + 1 for b in box)
    points = list(itertools.product(*[range(s) for s in shape]))
    lattice = {p: i for i, p in enumerate(points)}
    coords = float(scale) * np.array(points, dtype=float)

    tops = [t for t, _ in kuhn_tops(lattice, (0,) * n, box)]
    K = Complex.from_maximal(tops, coords)
    K.grid = GridInfo(box=box, scale=float(scale), lattice=lattice,
                      points=tuple(points))
    return K
