"""Complex construction, chains, boundaries, and face sets."""

import itertools
import math
import random

import numpy as np
import pytest

from spanmin import (Chain, Complex, FaceSet, InvalidInputError, boundary,
                     build_grid_complex, faceset_to_chain)
from spanmin.complexes import (GridInfo, _boundary_columns, _closure_rows,
                               _kuhn_faces, _kuhn_tops, _unique_rows,
                               canonical_vertices)

from loop_oracles import boundary_matrix, closure_by_sets, kuhn_tops


# -- canonicalization --------------------------------------------------------

def test_canonical_vertices_sorts_and_signs():
    assert canonical_vertices([0, 1, 2]) == ((0, 1, 2), 1)
    assert canonical_vertices([1, 0, 2]) == ((0, 1, 2), -1)
    assert canonical_vertices([2, 0, 1]) == ((0, 1, 2), 1)


def test_canonical_vertices_rejects_repeats():
    with pytest.raises(InvalidInputError):
        canonical_vertices([0, 1, 1])


# -- grid construction -------------------------------------------------------

def test_unit_square_counts():
    K = build_grid_complex(2, [1, 1])
    assert [K.n_simplices(k) for k in range(3)] == [4, 5, 2]


def test_single_cube_has_six_tetrahedra():
    K = build_grid_complex(3, [1, 1, 1])
    assert K.n_simplices(3) == 6
    assert K.n_simplices(0) == 8


def test_path_graph():
    K = build_grid_complex(1, [3])
    assert K.n_simplices(0) == 4
    assert K.n_simplices(1) == 3


def test_grid_counts_2x2():
    K = build_grid_complex(2, [2, 2])
    # 9 vertices; 12 axis edges + 4 diagonals + ... = 16 + diagonals
    assert K.n_simplices(0) == 9
    assert K.n_simplices(2) == 2 * 4  # two triangles per cell
    assert K.n_simplices(1) == 16


def test_grid_counts_4d():
    K = build_grid_complex(4, [1, 1, 1, 1])
    counts = [K.n_simplices(k) for k in range(5)]
    assert counts == [16, 65, 110, 84, 24]
    assert counts[4] == math.factorial(4)


def test_top_cell_count_formula():
    for n, box in [(1, [4]), (2, [3, 2]), (3, [2, 1, 2])]:
        K = build_grid_complex(n, box)
        assert K.n_simplices(0) == np.prod([b + 1 for b in box])
        assert K.n_simplices(n) == math.factorial(n) * np.prod(box)


def test_grid_invalid_inputs():
    with pytest.raises(InvalidInputError):
        build_grid_complex(0, [])
    with pytest.raises(InvalidInputError):
        build_grid_complex(5, [1] * 5)
    with pytest.raises(InvalidInputError):
        build_grid_complex(2, [1, 0])
    with pytest.raises(InvalidInputError):
        build_grid_complex(2, [1, 1], scale=0.0)


def test_grid_lattice_lookup():
    K = build_grid_complex(2, [2, 2])
    v = K.grid.vertex_at((1, 2))
    assert K.grid.points[v] == (1, 2)
    with pytest.raises(InvalidInputError):
        K.grid.vertex_at((3, 0))


def test_closure_validation():
    # a triangle missing one of its edges is rejected
    with pytest.raises(InvalidInputError):
        Complex({0: [(0,), (1,), (2,)], 1: [(0, 1), (1, 2)],
                 2: [(0, 1, 2)]},
                coords=[(0, 0), (1, 0), (0, 1)])


def test_from_maximal_closes_faces():
    K = Complex.from_maximal([(0, 1, 2)], coords=[(0, 0), (1, 0), (0, 1)])
    assert K.n_simplices(1) == 3
    assert K.contains((0, 2))


def same_complex(A, B):
    """Equal tables, index dicts, integer rows and coordinate bytes."""
    assert A.dim == B.dim
    for k in range(A.dim + 1):
        assert A.simplices(k) == B.simplices(k)
        assert A._index[k] == B._index[k]
        for C in (A, B):
            assert C.rows(k).dtype == np.int64
            assert C.rows(k).tolist() == [list(s) for s in C.simplices(k)]
    assert A.coords.tobytes() == B.coords.tobytes()


GRID_BOXES = [(1, (1,)), (1, (5,)), (2, (3, 2)), (2, (1, 4)),
              (3, (2, 1, 3)), (3, (2, 2, 2)), (4, (1, 1, 1, 1)),
              (4, (2, 2, 2, 2)), (4, (3, 1, 2, 2)), (4, (1, 3, 1, 2))]


@pytest.mark.parametrize("n,box", GRID_BOXES)
def test_grid_build_matches_the_closure_of_kuhn_tops(n, box):
    K = build_grid_complex(n, box, scale=0.37)
    points = list(itertools.product(*[range(b + 1) for b in box]))
    lattice = {p: i for i, p in enumerate(points)}
    tops = [t for t, _ in kuhn_tops(lattice, (0,) * n, box)]
    coords = 0.37 * np.array(points, dtype=float)
    same_complex(K, Complex.from_maximal(tops, coords))
    same_complex(K, closure_by_sets(tops, coords))
    assert K.grid == GridInfo(box=box, scale=0.37, points=tuple(points))
    assert all(type(v) is int for s in K.simplices(n) for v in s)


@pytest.mark.parametrize("n,box", GRID_BOXES)
def test_vertex_at_is_the_row_major_rank(n, box):
    grid = build_grid_complex(n, box).grid
    points = list(grid.points)
    assert [grid.vertex_at(p) for p in points] == [
        points.index(p) for p in points]
    for a in range(n):
        for c in (-1, box[a] + 1):
            p = [0] * n
            p[a] = c
            with pytest.raises(InvalidInputError, match="outside the box"):
                grid.vertex_at(p)
    for p in ((0,) * (n - 1), (0,) * (n + 1)):
        with pytest.raises(InvalidInputError, match="outside the box"):
            grid.vertex_at(p)


KUHN_SUB_BOXES = [
    # (box, lo, hi): the cubes with lower corners in lo..hi-1, among them
    # width-1 axes and sub-boxes against the far walls
    ((5,), (0,), (5,)), ((5,), (4,), (5,)), ((5,), (2,), (3,)),
    ((3, 2), (1, 0), (3, 2)), ((4, 4), (3, 0), (4, 4)),
    ((1, 4), (0, 3), (1, 4)), ((2, 2, 2), (0, 0, 0), (2, 2, 2)),
    ((3, 2, 3), (1, 1, 0), (3, 2, 3)), ((4, 3, 2), (3, 0, 1), (4, 3, 2)),
    ((2, 2, 2, 2), (1, 0, 1, 0), (2, 2, 2, 2)),
    ((3, 1, 2, 2), (2, 0, 0, 1), (3, 1, 2, 2)),
    ((4, 4, 4, 4), (0, 3, 1, 2), (2, 4, 3, 3)),
]


@pytest.mark.parametrize("box,lo,hi", KUHN_SUB_BOXES)
def test_kuhn_tops_match_the_oracle_rows_and_signs(box, lo, hi):
    shape = tuple(b + 1 for b in box)
    points = list(itertools.product(*[range(s) for s in shape]))
    lattice = {p: i for i, p in enumerate(points)}
    rows, signs = _kuhn_tops(shape, lo, hi)
    expected = list(kuhn_tops(lattice, lo, hi))
    assert len(expected) == math.factorial(len(box)) * math.prod(
        b - a for a, b in zip(lo, hi))
    assert rows.tolist() == [list(t) for t, _ in expected]
    assert signs.tolist() == [canonical_vertices(p)[1] for _, p in expected]
    at = np.array(points)
    for top, sign in zip(rows, signs):
        edges = at[top[1:]] - at[top[0]]
        assert np.sign(np.linalg.det(edges)) == sign


@pytest.mark.parametrize("box,lo,hi", [
    (box, (0,) * len(box), box) for _, box in GRID_BOXES] + KUHN_SUB_BOXES)
def test_kuhn_faces_are_the_closure_of_the_kuhn_tops(box, lo, hi):
    # the flag tables against the sorted closure of the same tops, on every
    # whole box of GRID_BOXES and on sub-boxes off the origin, against the
    # far walls and with width-1 axes; each dimension alone and all at once
    shape = tuple(b + 1 for b in box)
    n = len(box)
    tops, _ = _kuhn_tops(shape, lo, hi)
    want = _closure_rows([tops])
    got = _kuhn_faces(shape, lo, hi, range(n + 1))
    assert sorted(got) == sorted(want) == list(range(n + 1))
    for k in range(n + 1):
        assert got[k].dtype == np.int64
        assert got[k].shape == want[k].shape
        assert (got[k] == want[k]).all()
        [alone] = _kuhn_faces(shape, lo, hi, (k,)).values()
        assert (alone == want[k]).all()


def test_from_maximal_matches_the_set_closure_on_random_complexes():
    rng = random.Random(11)
    for _ in range(40):
        ids = rng.sample(range(3, 400), rng.randint(1, 12))
        maximal = [rng.sample(ids, rng.randint(1, min(5, len(ids))))
                   for _ in range(rng.randint(1, 15))]
        coords = np.zeros((400, 2))
        same_complex(Complex.from_maximal(maximal, coords),
                     closure_by_sets(maximal, coords))


def test_from_maximal_rejects_repeated_and_negative_ids():
    with pytest.raises(InvalidInputError):
        Complex.from_maximal([(0, 1), (2, 1, 2)], coords=np.zeros((3, 1)))
    with pytest.raises(InvalidInputError):
        Complex.from_maximal([(-1, 1)], coords=np.zeros((3, 1)))


def test_unique_rows_keys_do_not_overflow():
    # one key per row would need (2**40)**5 > 2**63; dense prefix ranks
    # stay below rows * 2**40
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 2 ** 40, size=(50, 5))
    rows = np.concatenate([rows, rows[::3]])
    expected = sorted(set(map(tuple, rows.tolist())))
    assert _unique_rows(rows).tolist() == [list(t) for t in expected]


# -- boundary operator -------------------------------------------------------

def test_boundary_of_edge():
    K = Complex.from_maximal([(0, 1)], coords=[(0,), (1,)])
    z = boundary(Chain.from_simplices(K, [((0, 1), 1)]))
    assert z.coeffs == {K.index((1,)): 1, K.index((0,)): -1}


def test_boundary_squared_is_zero():
    K = build_grid_complex(3, [1, 1, 1])
    for k in range(2, K.dim + 1):
        prod = boundary_matrix(K, k - 1) @ boundary_matrix(K, k)
        assert not prod.any()


def test_boundary_matrix_columns_sum_to_zero_deg1():
    K = build_grid_complex(2, [2, 2])
    M = boundary_matrix(K, 1)
    assert (M.sum(axis=0) == 0).all()
    assert set(np.unique(M)) <= {-1, 0, 1}


def test_boundary_matrix_range_check():
    K = build_grid_complex(2, [1, 1])
    with pytest.raises(InvalidInputError):
        boundary_matrix(K, 0)
    with pytest.raises(InvalidInputError):
        boundary_matrix(K, 3)


@pytest.mark.parametrize("box", [(2, 3), (2, 1, 2), (1, 1, 1, 1)])
def test_boundary_columns_of_some_ids_are_the_full_table_restricted(box):
    # one facet-sign loop for homology, boundaries, cochains and collapses:
    # any ids, in any order and repeated, give the full table's columns,
    # in increasing order, and those columns are the dense matrix's
    rng = random.Random(len(box))
    K = build_grid_complex(len(box), list(box))
    for k in range(K.dim + 1):
        full = _boundary_columns(K, k)
        assert list(full) == list(range(K.n_simplices(k)))
        if k:
            M = boundary_matrix(K, k)
            assert all(M[i, j] == v for j, col in full.items()
                       for i, v in col.items())
            assert all(len(col) == k + 1 for col in full.values())
        else:
            assert not any(full.values())
        for size in (0, 1, 5):
            ids = rng.choices(range(K.n_simplices(k)), k=size)
            got = _boundary_columns(K, k, ids)
            assert list(got) == sorted(set(ids))
            assert got == {j: full[j] for j in ids}


def test_boundary_zero_on_vertices():
    K = build_grid_complex(1, [1])
    z = boundary(Chain(K, 0, {0: 3}))
    assert z.is_zero()


def test_permuted_simplex_contributes_sign():
    K = Complex.from_maximal([(0, 1, 2)], coords=[(0, 0), (1, 0), (0, 1)])
    forward = Chain.from_simplices(K, [((0, 1, 2), 1)])
    backward = Chain.from_simplices(K, [((1, 0, 2), 1)])
    assert backward == (-1) * forward
    assert boundary(backward) == (-1) * boundary(forward)


def test_boundary_linearity():
    rng = np.random.default_rng(5)
    K = build_grid_complex(2, [2, 2])
    n = K.n_simplices(1)
    for _ in range(20):
        c1 = Chain(K, 1, {int(i): int(v) for i, v in
                          zip(rng.integers(0, n, 4), rng.integers(-5, 6, 4))})
        c2 = Chain(K, 1, {int(i): int(v) for i, v in
                          zip(rng.integers(0, n, 4), rng.integers(-5, 6, 4))})
        a, b = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
        assert boundary(a * c1 + b * c2) == a * boundary(c1) + b * boundary(c2)


# -- chain algebra -----------------------------------------------------------

def test_chain_addition_cancels():
    K = build_grid_complex(2, [1, 1])
    c = Chain(K, 1, {0: 2, 1: -1})
    d = Chain(K, 1, {0: -2, 1: 1})
    assert (c + d).is_zero()
    assert (c - c).is_zero()


def test_chain_rejects_bad_index():
    K = build_grid_complex(2, [1, 1])
    with pytest.raises(InvalidInputError):
        Chain(K, 1, {99: 1})


def test_chain_drops_zero_coefficients():
    K = build_grid_complex(2, [1, 1])
    assert Chain(K, 1, {0: 0}).is_zero()


def test_chains_from_different_complexes_do_not_mix():
    K1 = build_grid_complex(2, [1, 1])
    K2 = build_grid_complex(2, [1, 1])
    with pytest.raises(InvalidInputError):
        Chain(K1, 1, {0: 1}) + Chain(K2, 1, {0: 1})


# -- face sets ---------------------------------------------------------------

def test_faceset_dedupes_and_sorts():
    K = build_grid_complex(2, [2, 2])
    F = FaceSet(K, 1, (3, 1, 3, 2))
    assert F.faces == (1, 2, 3)
    assert len(F) == 3
    assert 2 in F and 9 not in F


def test_faceset_set_operations():
    K = build_grid_complex(2, [2, 2])
    F = FaceSet(K, 1, (0, 1))
    assert F.union([2]).faces == (0, 1, 2)
    assert F.difference([1]).faces == (0,)


def test_faceset_dimension_bounds():
    K = build_grid_complex(2, [1, 1])
    with pytest.raises(InvalidInputError):
        FaceSet(K, 2, (0,))  # d must be strictly below ambient
    with pytest.raises(InvalidInputError):
        FaceSet(K, 1, (99,))


def test_faceset_to_chain_default_orientation():
    K = build_grid_complex(2, [1, 1])
    F = FaceSet(K, 1, (0, 2))
    c = faceset_to_chain(F)
    assert c.coeffs == {0: 1, 2: 1}
    with pytest.raises(InvalidInputError):
        faceset_to_chain(F, orientation={0: 2})


def test_empty_faceset_to_chain_is_zero():
    K = build_grid_complex(2, [1, 1])
    assert faceset_to_chain(FaceSet(K, 1, ())).is_zero()


def test_hollow_tetrahedron_faces_form_cycle():
    K = Complex.from_maximal(
        [(0, 1, 2, 3)],
        coords=[(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    # alternating signs on the sorted face table reproduce the boundary of
    # the solid tetrahedron (up to a global sign), hence a cycle
    orient = {i: (1 if i % 2 == 0 else -1) for i in range(4)}
    c = faceset_to_chain(FaceSet(K, 2, range(4)), orientation=orient)
    assert boundary(c).is_zero()
