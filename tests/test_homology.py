"""Exact integer homology, and the sparse elimination behind it checked
against determinantal divisors of the dense matrix."""

import math
import random
from collections import deque
from itertools import combinations

import numpy as np
import pytest

from spanmin import (Chain, Complex, InvalidInputError, PreconditionError,
                     boundary, build_grid_complex, homology_group, is_cycle,
                     is_null_homologous)
from spanmin.complexes import _boundary_columns
from spanmin.homology import _snf_diagonal_sparse

from loop_oracles import boundary_matrix


def hollow_triangle():
    return Complex({0: [(0,), (1,), (2,)],
                    1: [(0, 1), (0, 2), (1, 2)]},
                   coords=[(0, 0), (1, 0), (0, 1)])


def hollow_tetrahedron():
    return Complex.from_maximal(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
        coords=[(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def flat_torus():
    """The 7-vertex (Csaszar) triangulation of the torus: 14 triangles."""
    tris = []
    for i in range(7):
        tris.append(((i) % 7, (i + 1) % 7, (i + 3) % 7))
        tris.append(((i) % 7, (i + 2) % 7, (i + 3) % 7))
    coords = [(float(i), 0.0) for i in range(7)]
    return Complex.from_maximal(tris, coords)


# -- divisor oracle ----------------------------------------------------------
#
# An answer key for the elimination that shares no code with it: D_r, the
# gcd of all r x r minors of a dense matrix, is invariant under unimodular
# row and column operations, so the invariant factors are d_r = D_r / D_(r-1),
# and Ax = b is solvable over Z exactly when A and [A | b] have the same
# divisors (Newman, Integral Matrices, 1972, ch. II).  Every minor is taken,
# so it is for small matrices only.

def bareiss_det(M):
    """Exact determinant of a square integer matrix by fraction-free
    (Bareiss) elimination."""
    M = [list(row) for row in M]
    n = len(M)
    sign = prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if M[i][k]), None)
        if p is None:
            return 0
        if p != k:
            M[k], M[p] = M[p], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * prev


def determinantal_divisors(A):
    """[D_1, ..., D_rank]: D_r is the gcd of all r x r minors of A.  Once a
    D_r is 0 every larger minor is too, so the list stops there."""
    A = [[int(v) for v in row] for row in A]
    m, n = len(A), len(A[0]) if A else 0
    out = []
    for r in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(A, r):
            for cs in combinations(range(n), r):
                g = math.gcd(g, bareiss_det([[row[j] for j in cs]
                                             for row in rows]))
        if not g:
            break
        out.append(g)
    return out


def invariant_factors(A):
    D = [1] + determinantal_divisors(A)
    return [b // a for a, b in zip(D, D[1:])]


def divisor_solvable(A, b):
    """Is b an integer combination of the columns of A?"""
    Ab = [list(row) + [v] for row, v in zip(A, b)]
    return determinantal_divisors(A) == determinantal_divisors(Ab)


def columns(A):
    """Sparse {column: {row: entry}} form of a dense integer matrix."""
    A = [[int(v) for v in row] for row in A]
    return {j: {i: row[j] for i, row in enumerate(A) if row[j]}
            for j in range(len(A[0]) if A else 0)}


def dense_smith(A, b):
    """Invariant factors of A and, on the row operations that diagonalise
    it, whether A x = b has an integer solution: a textbook dense Smith
    form (smallest entry of the trailing block pivots; a pivot that leaves
    a remainder or fails to divide the block is replaced), for matrices
    beyond the reach of `determinantal_divisors`."""
    M = [[int(v) for v in row] for row in A]
    c = [int(v) for v in b]
    m, n = len(M), len(M[0]) if M else 0
    diag = []
    for t in range(min(m, n)):
        while True:
            block = [(abs(M[i][j]), i, j) for i in range(t, m)
                     for j in range(t, n) if M[i][j]]
            if not block:
                break
            _, i, j = min(block)
            M[t], M[i], c[t], c[i] = M[i], M[t], c[i], c[t]
            for row in M:
                row[t], row[j] = row[j], row[t]
            p = M[t][t]
            for i in range(t + 1, m):
                q = M[i][t] // p
                M[i] = [u - q * v for u, v in zip(M[i], M[t])]
                c[i] -= q * c[t]
            for j in range(t + 1, n):
                q = M[t][j] // p
                for row in M:
                    row[j] -= q * row[t]
            if any(M[i][t] for i in range(t + 1, m)) or any(M[t][t + 1:]):
                continue  # a remainder is the next, smaller pivot
            rest = next((i for i in range(t + 1, m)
                         if any(v % p for v in M[i][t + 1:])), None)
            if rest is None:
                break
            # p does not divide row `rest`: fold it into row t
            M[t] = [u + v for u, v in zip(M[t], M[rest])]
            c[t] += c[rest]
        if not block:
            break
        diag.append(abs(M[t][t]))
    r = len(diag)
    solvable = (all(c[k] % diag[k] == 0 for k in range(r))
                and not any(c[r:]))
    return diag, solvable


def test_divisor_oracle_known_cases():
    assert bareiss_det([]) == 1
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[2, 1, 0], [1, 3, 1], [0, 1, 4]]) == 18
    # [[4,10],[6,4]]: entry gcd 2, det -44 -> invariants (2, 22)
    assert determinantal_divisors([[4, 10], [6, 4]]) == [2, 44]
    assert invariant_factors([[4, 10], [6, 4]]) == [2, 22]
    assert divisor_solvable([[2, 0], [0, 4]], [2, 8])
    assert not divisor_solvable([[2, 0], [0, 4]], [2, 2])
    assert not divisor_solvable([[1], [1]], [1, 2])


# -- elimination -------------------------------------------------------------

FIXED_CASES = [
    (np.eye(3, dtype=int), [1, 1, 1]),
    (np.zeros((2, 3), dtype=int), []),
    ([[2, 4], [6, 8]], [2, 4]),
    ([], []),
]


def test_sparse_diagonal_matches_dense_random():
    """The elimination against the divisors of the dense matrix, on four
    fixed cases and 60 random sparse matrices."""
    for A, expected in FIXED_CASES:
        assert invariant_factors(A) == expected
        assert _snf_diagonal_sparse(columns(A)) == expected
    rng = np.random.default_rng(7)
    for _ in range(60):
        m, n = rng.integers(1, 9, size=2)
        A = rng.integers(-6, 7, size=(int(m), int(n)))
        A[rng.random(A.shape) < 0.5] = 0
        assert _snf_diagonal_sparse(columns(A)) == invariant_factors(A)


def test_snf_divisibility_chain_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        m, n = rng.integers(1, 7, size=2)
        A = rng.integers(-9, 10, size=(int(m), int(n)))
        d = _snf_diagonal_sparse(columns(A))
        assert len(d) == np.linalg.matrix_rank(A)
        assert all(a > 0 for a in d)
        assert all(b % a == 0 for a, b in zip(d, d[1:]))


def test_sparse_diagonal_handles_non_unit_entries():
    cols = {0: {0: 4, 1: 6}, 1: {0: 10, 1: 4}}
    # matrix [[4,10],[6,4]]: det = -44, gcd = 2 -> invariants (2, 22)
    assert _snf_diagonal_sparse(cols) == [2, 22]


# -- homology battery --------------------------------------------------------

def test_circle_homology():
    K = hollow_triangle()
    assert homology_group(K, 0).rank == 1
    h1 = homology_group(K, 1)
    assert (h1.rank, h1.torsion) == (1, ())


def test_hollow_tetrahedron_homology():
    K = hollow_tetrahedron()
    assert homology_group(K, 0).rank == 1
    assert homology_group(K, 1).is_trivial()
    h2 = homology_group(K, 2)
    assert (h2.rank, h2.torsion) == (1, ())


def test_torus_homology():
    K = flat_torus()
    assert K.n_simplices(2) == 14
    assert homology_group(K, 0).rank == 1
    h1 = homology_group(K, 1)
    assert (h1.rank, h1.torsion) == (2, ())
    assert homology_group(K, 2).rank == 1


def test_contractible_grids_trivial():
    for n, box in [(1, [3]), (2, [2, 2]), (3, [1, 1, 1])]:
        K = build_grid_complex(n, box)
        assert homology_group(K, 0).rank == 1
        for k in range(1, n + 1):
            assert homology_group(K, k).is_trivial()


def test_two_components():
    K = Complex({0: [(0,), (1,), (2,), (3,)], 1: [(0, 1), (2, 3)]},
                coords=[(0,), (1,), (2,), (3,)])
    assert homology_group(K, 0).rank == 2


def test_vertex_ids_need_not_be_contiguous():
    # vertices 0, 2 and 4 of five points: components and witnesses are
    # taken on vertex indices, not vertex ids
    K = Complex({0: [(0,), (2,), (4,)], 1: [(2, 4)]},
                coords=[(0,), (1,), (2,), (3,), (4,)])
    assert homology_group(K, 0).rank == 2
    z = Chain(K, 0, {K.index((4,)): 1, K.index((2,)): -1})
    null, witness = is_null_homologous(z)
    assert null and boundary(witness) == z
    z = Chain(K, 0, {K.index((4,)): 1, K.index((0,)): -1})
    assert is_null_homologous(z) == (False, None)


def test_homology_dimension_range():
    K = hollow_triangle()
    with pytest.raises(InvalidInputError):
        homology_group(K, 2)
    with pytest.raises(InvalidInputError):
        homology_group(K, -1)


def test_rank_consistency_on_grid():
    K = build_grid_complex(2, [2, 2])
    for k in range(1, 3):
        nk = K.n_simplices(k)
        rk = np.linalg.matrix_rank(boundary_matrix(K, k))
        rk1 = (np.linalg.matrix_rank(boundary_matrix(K, k + 1))
               if k + 1 <= K.dim else 0)
        assert homology_group(K, k).rank == nk - rk - rk1


def test_subdivided_square_same_homology():
    for box in ([1, 1], [2, 2], [4, 4]):
        K = build_grid_complex(2, box)
        assert homology_group(K, 0).rank == 1
        assert homology_group(K, 1).is_trivial()


# -- cycles and null-homology ------------------------------------------------

def test_is_cycle():
    K = hollow_triangle()
    loop = Chain.from_simplices(K, [((0, 1), 1), ((1, 2), 1), ((2, 0), 1)])
    assert is_cycle(loop)
    assert not is_cycle(Chain(K, 1, {0: 1}))
    assert is_cycle(Chain(K, 1, {}))


def test_null_homology_filled_triangle():
    K = Complex.from_maximal([(0, 1, 2)], coords=[(0, 0), (1, 0), (0, 1)])
    loop = Chain.from_simplices(K, [((0, 1), 1), ((1, 2), 1), ((2, 0), 1)])
    null, witness = is_null_homologous(loop)
    assert null
    assert boundary(witness) == loop


def test_null_homology_hollow_triangle():
    K = hollow_triangle()
    loop = Chain.from_simplices(K, [((0, 1), 1), ((1, 2), 1), ((2, 0), 1)])
    null, witness = is_null_homologous(loop)
    assert not null and witness is None
    # H_1 is torsion-free, so 2z does not bound either
    null2, _ = is_null_homologous(2 * loop)
    assert not null2


def test_null_homology_zero_cycle():
    K = build_grid_complex(2, [2, 2])
    p = K.grid.vertex_at((0, 0))
    q = K.grid.vertex_at((2, 2))
    z = Chain(K, 0, {q: 1, p: -1})
    null, witness = is_null_homologous(z)
    assert null
    assert boundary(witness) == z


def test_null_homology_separated_points():
    K = Complex({0: [(0,), (1,)]}, coords=[(0,), (1,)])
    z = Chain(K, 0, {0: -1, 1: 1})
    null, witness = is_null_homologous(z)
    assert not null and witness is None


def test_null_homology_requires_cycle():
    K = hollow_triangle()
    with pytest.raises(PreconditionError):
        is_null_homologous(Chain(K, 1, {0: 1}))


def test_null_homology_witnesses_random_grid():
    rng = np.random.default_rng(3)
    K = build_grid_complex(2, [3, 3])
    n2 = K.n_simplices(2)
    for _ in range(15):
        x = Chain(K, 2, {int(i): int(c) for i, c in
                         zip(rng.integers(0, n2, 5), rng.integers(-3, 4, 5))})
        z = boundary(x)
        null, witness = is_null_homologous(z)
        assert null
        assert boundary(witness) == z


# -- degree 0 against a breadth-first oracle ---------------------------------
#
# Components by breadth-first search over the edges, sharing no code with
# the elimination that answers H_0 and 0-cycles.

def bfs_components(K):
    """Vertex index -> least vertex index of its component."""
    nbrs = [[] for _ in range(K.n_simplices(0))]
    for a, b in K.simplices(1):
        ia, ib = K.index((a,)), K.index((b,))
        nbrs[ia].append(ib)
        nbrs[ib].append(ia)
    label = {}
    for r in range(len(nbrs)):
        if r in label:
            continue
        label[r] = r
        queue = deque([r])
        while queue:
            for w in nbrs[queue.popleft()]:
                if w not in label:
                    label[w] = r
                    queue.append(w)
    return label


def random_components(rng):
    """1-4 groups of vertex ids drawn from 0..59, each group made connected
    by simplices of up to four vertices along a random order of it; a group
    of one id is an isolated vertex."""
    ids = rng.sample(range(60), rng.randint(4, 14))
    cuts = sorted(rng.sample(range(1, len(ids)), rng.randint(0, 3)))
    maximal = []
    for a, b in zip([0] + cuts, cuts + [len(ids)]):
        group = ids[a:b]
        maximal.append(group[:1])
        for u, v in zip(group, group[1:]):
            extra = rng.sample(group, rng.randint(0, min(2, len(group))))
            maximal.append(sorted({u, v, *extra}))
    return Complex.from_maximal(maximal, coords=np.zeros((60, 3)))


def test_degree_zero_matches_breadth_first_oracle():
    rng = random.Random(2029)
    for _ in range(200):
        K = random_components(rng)
        label = bfs_components(K)
        h0 = homology_group(K, 0)
        assert (h0.rank, h0.torsion) == (len(set(label.values())), ())
        verts = range(K.n_simplices(0))
        for _ in range(5):
            coeffs = {}
            for v in rng.sample(verts, rng.randint(1, min(4, len(verts)))):
                c = rng.choice((-2, -1, 1, 2))
                coeffs[v] = coeffs.get(v, 0) + c
                if rng.random() < 0.6:  # cancel it within its component
                    w = rng.choice([u for u in verts if label[u] == label[v]])
                    coeffs[w] = coeffs.get(w, 0) - c
            z = Chain(K, 0, coeffs)
            sums = {}
            for v, c in z.coeffs.items():
                sums[label[v]] = sums.get(label[v], 0) + c
            null, witness = is_null_homologous(z)
            assert null == (not any(sums.values()))
            if null:
                assert witness.dim == 1 and boundary(witness) == z
            else:
                assert witness is None


# -- sparse integer solve ----------------------------------------------------

def test_sparse_solve_matches_dense_oracle_random():
    """Solvability against the divisors of A and [A | b], invariants
    against those of A, on 300 random systems; the dense Smith form
    oracle is checked against the same divisors."""
    rng = np.random.default_rng(29)
    verdicts = []
    for _ in range(300):
        m, n = (int(s) for s in rng.integers(1, 7, size=2))
        A = rng.integers(-6, 7, size=(m, n)) * int(rng.choice([1, 1, 2, 3]))
        A[rng.random(A.shape) < 0.5] = 0
        if rng.random() < 0.5:
            b = A @ rng.integers(-3, 4, size=n)
        else:
            b = rng.integers(-4, 5, size=m)
        cols = columns(A)
        rhs = {i: int(b[i]) for i in range(m) if b[i]}
        sol = _snf_diagonal_sparse(cols, rhs=rhs, witness=True)
        expected = (invariant_factors(A),
                    divisor_solvable(A.tolist(), b.tolist()))
        assert dense_smith(A, b) == expected
        assert sol.solvable == expected[1]
        assert _snf_diagonal_sparse(cols) == expected[0]
        verdicts.append(sol.solvable)
        if sol.solvable:
            # a yes runs the elimination to the end: same invariants
            assert list(sol) == _snf_diagonal_sparse(cols)
            x = [sol.witness.get(j, 0) for j in range(n)]
            assert [sum(int(A[i, j]) * x[j] for j in range(n))
                    for i in range(m)] == b.tolist()
        else:
            assert sol.witness is None
    assert 50 < sum(verdicts) < 250


def test_sparse_solve_torsion_and_empty_cases():
    cols = {0: {0: 2, 1: 2}, 1: {1: 4}}
    assert _snf_diagonal_sparse(cols).solvable is None
    assert not _snf_diagonal_sparse(cols, rhs={0: 1, 1: 1}).solvable
    assert not _snf_diagonal_sparse(cols, rhs={1: 2}).solvable
    sol = _snf_diagonal_sparse(cols, rhs={0: 2, 1: 6}, witness=True)
    assert sol.solvable and sol.witness == {0: 1, 1: 1}
    assert not _snf_diagonal_sparse({}, rhs={0: 1}).solvable
    assert _snf_diagonal_sparse({}, rhs={}, witness=True).witness == {}


# -- pivot rule edge paths ---------------------------------------------------

def test_unit_gained_through_fill_after_the_ordered_pass():
    # both columns have two entries; the first holds no unit when the
    # ordered pass reaches it and is skipped, the second pivots at r0 and
    # leaves the first with the unit 1 at r1, which the smallest-magnitude
    # scan then takes
    cols = {0: {0: 2, 1: 3}, 1: {0: 1, 1: 1}}
    A = [[2, 1], [3, 1]]
    assert _snf_diagonal_sparse(cols) == invariant_factors(A) == [1, 1]
    for b in ([1, 0], [0, 5], [7, -4]):
        sol = _snf_diagonal_sparse(cols, rhs={0: b[0], 1: b[1]},
                                   witness=True)
        assert sol.solvable and divisor_solvable(A, b)
        x = [sol.witness.get(j, 0) for j in range(2)]
        assert [sum(A[i][j] * x[j] for j in range(2))
                for i in range(2)] == b


def test_column_emptied_by_fill_before_its_turn():
    # the boundary of a hollow triangle: the third edge is the sum of the
    # first two, so the second pivot empties it before the ordered pass
    # reaches it
    A = [[1, 0, 1], [-1, 1, 0], [0, -1, -1]]
    cols = columns(A)
    assert _snf_diagonal_sparse(cols) == invariant_factors(A) == [1, 1]
    for b, expected in (([1, 0, -1], True), ([1, 0, 0], False),
                        ([2, -1, -1], True)):
        assert divisor_solvable(A, b) == expected
        rhs = {i: v for i, v in enumerate(b) if v}
        sol = _snf_diagonal_sparse(cols, rhs=rhs, witness=True)
        assert sol.solvable == expected
        if expected:
            x = [sol.witness.get(j, 0) for j in range(3)]
            assert [sum(A[i][j] * x[j] for j in range(3))
                    for i in range(3)] == b
    # a column that is a multiple of an earlier one empties the same way
    assert _snf_diagonal_sparse({0: {0: 1}, 1: {0: 3}}) == [1]


def test_identical_calls_give_the_same_witness():
    # on the 4x4 grid, d_1 x = z for the 0-cycle between opposite corners
    # has a solution for every path between them; the stable column order
    # makes every call pick the same one
    K = build_grid_complex(2, [4, 4])
    cols = _boundary_columns(K, 1)
    z = {K.grid.vertex_at((4, 4)): 1, K.grid.vertex_at((0, 0)): -1}
    first = _snf_diagonal_sparse(cols, rhs=z, witness=True)
    second = _snf_diagonal_sparse(cols, rhs=z, witness=True)
    assert first.solvable and first.witness == second.witness
    assert boundary(Chain(K, 1, first.witness)).coeffs == z


def test_random_boundary_shaped_matrices():
    """Rank, invariant factors and solves on 200 seeded sparse 0/+-1
    matrices of up to 15 x 15 with at most four entries per column, the
    shape of boundary matrices, against the dense Smith form."""
    rng = np.random.default_rng(97)
    verdicts = []
    for _ in range(200):
        m, n = (int(s) for s in rng.integers(1, 16, size=2))
        A = np.zeros((m, n), dtype=int)
        for j in range(n):
            rows = rng.choice(m, size=int(rng.integers(0, min(m, 4) + 1)),
                              replace=False)
            A[rows, j] = rng.choice([-1, 1], size=len(rows))
        if rng.random() < 0.5:
            b = A @ rng.integers(-2, 3, size=n)
        else:
            b = rng.integers(-2, 3, size=m)
        diag, solvable = dense_smith(A, b)
        cols = columns(A)
        inv = _snf_diagonal_sparse(cols)
        assert inv == diag
        assert len(inv) == np.linalg.matrix_rank(A)
        rhs = {i: int(b[i]) for i in range(m) if b[i]}
        sol = _snf_diagonal_sparse(cols, rhs=rhs, witness=True)
        assert sol.solvable == solvable
        if solvable:
            x = np.array([sol.witness.get(j, 0) for j in range(n)])
            assert (A @ x == b).all()
        verdicts.append(solvable)
    assert 60 < sum(verdicts) < 180


def counting_eliminations(monkeypatch):
    """Wrap `_snf_diagonal_sparse` where homology and the complement model
    look it up; the list gets one entry per call, its column count."""
    import spanmin.homology as hom
    calls = []
    original = hom._snf_diagonal_sparse

    def counting(cols, *args, **kwargs):
        calls.append(len(cols))
        return original(cols, *args, **kwargs)

    monkeypatch.setattr(hom, "_snf_diagonal_sparse", counting)
    return calls


def test_each_boundary_is_eliminated_once_per_complex(monkeypatch):
    # H_k reads d_k and d_{k+1}: H_0..H_3 of a 3^3 box share d_1..d_3, so
    # the five boundaries d_0..d_4 are eliminated once each, not eight times
    calls = counting_eliminations(monkeypatch)
    K = build_grid_complex(3, [3, 3, 3])
    groups = [homology_group(K, k) for k in range(4)]
    assert sorted(calls) == sorted(len(_boundary_columns(K, k))
                                   for k in range(5))
    assert [(h.rank, h.torsion) for h in groups] == [(1, ())] + [(0, ())] * 3
    fresh = build_grid_complex(3, [3, 3, 3])
    assert [homology_group(fresh, k) for k in (3, 1, 2, 0)] == [
        groups[k] for k in (3, 1, 2, 0)]
    assert len(calls) == 10


def test_each_coboundary_is_eliminated_once_per_model(monkeypatch):
    # the complement's H_k reads delta_{n-k-1} and delta_{n-k-2} of the
    # relative cochains, so H_0..H_4 of one model eliminate each of the
    # n + 2 = 6 coboundaries once; another model eliminates its own
    from spanmin import complement_subcomplex
    from spanmin.problems import generate_faceset
    K = build_grid_complex(4, [2, 2, 2, 2])
    F = generate_faceset("two-planes-orthogonal", K, 2)
    calls = counting_eliminations(monkeypatch)
    model = complement_subcomplex(K, F)
    groups = [model.homology(k) for k in range(5)]
    assert len(calls) == 6
    assert [model.homology(k) for k in range(5)] == groups
    assert len(calls) == 6
    other = complement_subcomplex(K, F)
    assert [other.homology(k) for k in range(5)] == groups
    assert len(calls) == 12
    assert [(h.rank, h.torsion) for h in groups] == [
        (1, ()), (2, ()), (1, ()), (0, ()), (0, ())]
