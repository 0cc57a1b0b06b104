"""Measure, exhaustive / local minimization, and the projection certificate."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from spanmin import (Complex, ConstraintCycle, FaceSet, InfeasibleError,
                     InvalidInputError, PlaneRegion, PoolTooLargeError,
                     PreconditionError, WeightField, build_grid_complex,
                     minimize_exhaustive, minimize_local,
                     projection_lower_bound, weighted_measure)
from spanmin.grassmann import PlanePair
from spanmin.problems import generate_faceset
from spanmin.complement import Region, _integer_costs, separation_bound
from spanmin.solver import _face_volumes, _round_down, _union_area

from loop_oracles import (contact_free_by_scan, face_volumes_by_loop,
                          heap_exhaustive, min_cut_by_flow, tail_tested_heap)
from test_complement import rectangle_loop


def edge_index(K, a, b):
    u, v = K.grid.vertex_at(a), K.grid.vertex_at(b)
    return K.index(tuple(sorted((u, v))))


def separation_instance():
    """2x2 grid, point pair straddling the middle row."""
    K = build_grid_complex(2, [2, 2])
    cons = [ConstraintCycle(kind="point-pair", points=((1, 0), (1, 2)))]
    return K, cons


# -- weights and measure -------------------------------------------------------

def test_weight_field_bounds():
    with pytest.raises(InvalidInputError):
        WeightField.uniform(0.5)
    with pytest.raises(InvalidInputError):
        WeightField.uniform(5.0, upper=4.0)
    w = WeightField(table={0: 2.0}, default=1.0, upper=3.0)
    assert w.at(0) == 2.0 and w.at(7) == 1.0


def test_weight_field_is_a_table_with_a_default():
    for c in (1.0, 2.5):
        w = WeightField.uniform(c)
        assert w.table == {} and w.at(0) == w.at(9) == c == w.upper
    w = WeightField(table={3: 2.0}, default=1.5)
    assert (w.at(3), w.at(0), w.at(4), w.upper) == (2.0, 1.5, 1.5, 2.0)


def test_measure_single_unit_face():
    K = build_grid_complex(2, [1, 1])
    tri = FaceSet(K, 1, ())  # start from edges: a unit edge has length 1
    h = WeightField.uniform(1.0)
    assert weighted_measure(tri, h) == 0.0
    e = edge_index(K, (0, 0), (1, 0))
    assert weighted_measure(FaceSet(K, 1, (e,)), h) == pytest.approx(1.0)


def test_measure_2faces_sum_to_cell_area():
    K = build_grid_complex(3, [1, 1, 1])
    bottom = [i for i, s in enumerate(K.simplices(2))
              if all(K.grid.points[v][2] == 0 for v in s)]
    F = FaceSet(K, 2, bottom)
    assert weighted_measure(F, WeightField.uniform(1.0)) == pytest.approx(1.0)


def test_measure_scales_linearly_in_weight():
    K = build_grid_complex(2, [2, 2])
    F = FaceSet(K, 1, (0, 3, 5))
    a = weighted_measure(F, WeightField.uniform(1.0))
    b = weighted_measure(F, WeightField.uniform(2.0))
    assert b == pytest.approx(2 * a)


def test_measure_respects_scale():
    K = build_grid_complex(2, [1, 1], scale=2.5)
    e = edge_index(K, (0, 0), (1, 0))
    got = weighted_measure(FaceSet(K, 1, (e,)), WeightField.uniform(1.0))
    assert got == pytest.approx(2.5)


@pytest.mark.parametrize("scale", [1.0, 0.1, 0.37, 1.3])
@pytest.mark.parametrize("n,box", [(1, (4,)), (2, (3, 2)), (3, (2, 1, 3)),
                                   (4, (2, 2, 1, 2))])
def test_face_volumes_match_the_per_face_gram_loop(n, box, scale):
    # at scales that are not dyadic, fl(s*a) - fl(s*b) depends on the base
    # point, so faces of one step pattern need not share their bits
    K = build_grid_complex(n, box, scale=scale)
    for d in range(n + 1):
        assert (_face_volumes(K, d).tobytes()
                == face_volumes_by_loop(K, d).tobytes())


def test_face_volumes_match_the_loop_off_the_grid():
    rng = np.random.default_rng(8)
    coords = rng.normal(size=(7, 3))
    K = Complex.from_maximal([(0, 1, 2, 3), (2, 4, 5), (5, 6), (1, 6)],
                             coords)
    for d in range(K.dim + 1):
        assert (_face_volumes(K, d).tobytes()
                == face_volumes_by_loop(K, d).tobytes())


# -- exhaustive minimization -----------------------------------------------------

def test_exhaustive_separation_optimum():
    K, cons = separation_instance()
    mid = [i for i in range(K.n_simplices(1))
           if all(K.grid.points[v][1] == 1 for v in K.simplex(1, i))]
    pool = FaceSet(K, 1, range(K.n_simplices(1)))
    res = minimize_exhaustive(K, cons, WeightField.uniform(1.0), pool)
    assert res.objective == pytest.approx(2.0)
    assert set(res.faces.faces) == set(mid)
    assert res.certificate["method"] == "exhaustive"


def test_exhaustive_no_constraints_gives_empty_set():
    K = build_grid_complex(2, [1, 1])
    pool = FaceSet(K, 1, range(K.n_simplices(1)))
    res = minimize_exhaustive(K, [], WeightField.uniform(1.0), pool)
    assert res.faces.faces == () and res.objective == 0.0


def test_exhaustive_infeasible():
    K, cons = separation_instance()
    # two edges hugging the right wall cannot separate the points
    pool = FaceSet(K, 1, (edge_index(K, (2, 0), (2, 1)),
                          edge_index(K, (2, 1), (2, 2))))
    with pytest.raises(InfeasibleError):
        minimize_exhaustive(K, cons, WeightField.uniform(1.0), pool)


def test_exhaustive_pool_cap():
    K = build_grid_complex(2, [3, 3])
    pool = FaceSet(K, 1, range(31))
    with pytest.raises(PoolTooLargeError):
        minimize_exhaustive(K, [], WeightField.uniform(1.0), pool)


def test_exhaustive_weight_monotone():
    K, cons = separation_instance()
    pool = FaceSet(K, 1, range(K.n_simplices(1)))
    lo = minimize_exhaustive(K, cons, WeightField.uniform(1.0), pool)
    hi = minimize_exhaustive(K, cons, WeightField.uniform(1.5), pool)
    assert lo.objective <= hi.objective + 1e-12


# -- local minimization ----------------------------------------------------------

def bumped_path(K):
    """A feasible but longer separating cut: one flat edge plus a diagonal."""
    hops = [((0, 1), (1, 1)), ((1, 1), (2, 2))]
    return FaceSet(K, 1, tuple(edge_index(K, a, b) for a, b in hops))


def test_local_requires_feasible_init():
    K, cons = separation_instance()
    with pytest.raises(PreconditionError):
        minimize_local(K, cons, WeightField.uniform(1.0),
                       init=FaceSet(K, 1, ()), budget=10, seed=0)


def test_local_budget_zero_returns_init():
    K, cons = separation_instance()
    init = generate_faceset("separating-row", K, 1)
    res = minimize_local(K, cons, WeightField.uniform(1.0), init,
                         budget=0, seed=0)
    assert res.faces.faces == init.faces
    assert res.objective == pytest.approx(2.0)


def test_local_rejects_a_negative_budget():
    K, cons = separation_instance()
    init = generate_faceset("separating-row", K, 1)
    with pytest.raises(InvalidInputError, match="budget must be nonnegative"):
        minimize_local(K, cons, WeightField.uniform(1.0), init, budget=-1,
                       seed=0)


def test_local_optimal_init_unchanged():
    # the row costs the cut bound, so the search stops before its first
    # descent
    K, cons = separation_instance()
    init = generate_faceset("separating-row", K, 1)
    res = minimize_local(K, cons, WeightField.uniform(1.0), init,
                         budget=2000, seed=1)
    assert res.objective == pytest.approx(2.0)
    assert (res.accepted, res.evaluations) == (0, 0)
    assert res.certificate == {"method": "local", "lower_bound": 2.0}


def test_local_straightens_bumped_path():
    K, cons = separation_instance()
    init = bumped_path(K)
    assert weighted_measure(init, WeightField.uniform(1.0)) > 2.0
    res = minimize_local(K, cons, WeightField.uniform(1.0), init,
                         budget=5000, seed=2)
    assert res.objective == pytest.approx(2.0)


def test_local_matches_exhaustive():
    K, cons = separation_instance()
    pool = FaceSet(K, 1, range(K.n_simplices(1)))
    oracle = minimize_exhaustive(K, cons, WeightField.uniform(1.0), pool)
    init = bumped_path(K)
    res = minimize_local(K, cons, WeightField.uniform(1.0), init,
                         budget=5000, seed=3, pool=pool)
    assert res.objective == pytest.approx(oracle.objective)


def test_local_history_non_increasing():
    K, cons = separation_instance()
    res = minimize_local(K, cons, WeightField.uniform(1.0), bumped_path(K),
                         budget=5000, seed=4)
    hist = res.history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    assert res.accepted == len(hist) - 1


def test_local_deterministic_per_seed():
    K, cons = separation_instance()
    runs = [minimize_local(K, cons, WeightField.uniform(1.0), bumped_path(K),
                           budget=3000, seed=7) for _ in range(2)]
    assert runs[0].faces.faces == runs[1].faces.faces
    assert runs[0].evaluations == runs[1].evaluations
    assert runs[0].history == runs[1].history


def test_local_incompatible_pool():
    K, cons = separation_instance()
    other = build_grid_complex(2, [2, 2])
    init = generate_faceset("separating-row", K, 1)
    with pytest.raises(PreconditionError):
        minimize_local(K, cons, WeightField.uniform(1.0), init, budget=10,
                       seed=0, pool=FaceSet(other, 1, ()))


# -- projection certificate -------------------------------------------------------

E12 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
E34 = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


def two_planes_setup():
    K = build_grid_complex(4, [2, 2, 2, 2])
    F = generate_faceset("two-planes-orthogonal", K, 2)
    disks = (PlaneRegion("box", (0.0, 0.0, 2.0, 2.0)),
             PlaneRegion("box", (0.0, 0.0, 2.0, 2.0)))
    return K, F, disks


def test_projection_bound_tight_on_planes():
    K, F, disks = two_planes_setup()
    bound = projection_lower_bound(F, E12, E34, disks, resolution=256)
    J = weighted_measure(F, WeightField.uniform(1.0))
    assert J == pytest.approx(8.0)
    assert bound == pytest.approx(J, rel=1e-9)


def test_projection_bound_drops_with_hole():
    K, F, disks = two_planes_setup()
    c = [b // 2 for b in K.grid.box]
    plane1 = [i for i in F.faces
              if all(K.grid.points[v][2] == c[2] and K.grid.points[v][3] == c[3]
                     for v in K.simplex(2, i))]
    holed = F.difference(plane1[:2])
    full = projection_lower_bound(F, E12, E34, disks, resolution=256)
    less = projection_lower_bound(holed, E12, E34, disks, resolution=256)
    assert less < full - 0.5


def test_projection_bound_orthogonal_reduction():
    # lambda = 2 cos(pi/4)^2 equals the orthogonal constant
    K, F, disks = two_planes_setup()
    assert 2.0 * math.cos(math.pi / 4) ** 2 == pytest.approx(1.0)
    bound = projection_lower_bound(F, E12, E34, disks, resolution=256)
    assert bound == pytest.approx(8.0, rel=1e-9)


@pytest.mark.parametrize("pair,bound", [
    # exact areas, rounded down by the error term of `_union_area`
    (PlanePair.orthogonal(), 7.999999999997158),
    (PlanePair.from_angles(0.35, 1.05), 3.5188914554766657),
    # only coordinate frames get the constant 1: at alpha1 = pi/2 - 1e-10
    # the supremum is above 1 (see test_grassmann's witness), so the
    # constant is 2 cos(alpha1/2) cos(alpha2/2) = 1 + 5e-11, and its slack
    (PlanePair.from_angles(math.pi / 2 - 1e-10, math.pi / 2),
     7.9999999993717354)])
def test_projection_bound_pinned(pair, bound):
    K, F, disks = two_planes_setup()
    assert projection_lower_bound(F, pair.frame1, pair.frame2, disks,
                                  resolution=256) == bound


@pytest.mark.parametrize("b", [2, 3])
def test_projection_bound_general_frames_below_the_area(b):
    # F is a competitor of its own projections, so the bound stays at most
    # J = area(F) for every frame pair; an orthonormal frame maps the box
    # into the square of side 4b around 0
    K = build_grid_complex(4, [b] * 4)
    F = generate_faceset("two-planes-orthogonal", K, 2)
    J = weighted_measure(F, WeightField.uniform(1.0))
    wide = PlaneRegion("box", (-2.0 * b, -2.0 * b, 2.0 * b, 2.0 * b))
    rng = np.random.default_rng(2000 + b)
    for _ in range(20):
        f1, f2 = (np.linalg.qr(rng.standard_normal((4, 2)))[0].T
                  for _ in range(2))
        bound = projection_lower_bound(F, f1, f2, (wide, wide))
        assert 0.0 < bound <= J


def test_projection_bound_requires_dim2():
    K = build_grid_complex(2, [1, 1])
    with pytest.raises(PreconditionError):
        projection_lower_bound(FaceSet(K, 1, ()), E12, E34,
                               (PlaneRegion("disk", (0, 0, 1)),
                                PlaneRegion("disk", (0, 0, 1))))


@pytest.mark.parametrize("resolution", [0, -3])
def test_projection_bound_rejects_bad_resolution(resolution):
    # a disk is measured as its inscribed 4 * resolution-gon
    K, F, disks = two_planes_setup()
    with pytest.raises(InvalidInputError, match="resolution"):
        projection_lower_bound(F, E12, E34, disks, resolution=resolution)


def exact_union_area(triangles, polygon):
    """`_union_area` in rationals, without rounding: exact on float input.

    Cuts at every vertex abscissa and at every crossing of two edges, then
    one midpoint per slab, where the union's length is linear."""
    def edges(points):
        pts = [(Fraction(float(x)), Fraction(float(y))) for x, y in points]
        return [(p, q) if p[0] <= q[0] else (q, p)
                for p, q in zip(pts, pts[1:] + pts[:1])]

    def height(e, x):
        (ax, ay), (bx, by) = e
        return ay + (x - ax) * (by - ay) / (bx - ax)

    def section(es, x):
        ys = [height(e, x) for e in es if e[0][0] < x < e[1][0]]
        return (min(ys), max(ys)) if ys else None

    sides = [edges(t) for t in triangles]
    rim = edges(polygon)
    every = list(itertools.chain(rim, *sides))
    cuts = {p[0] for e in every for p in e}
    lines = [e for e in every if e[0][0] < e[1][0]]
    for e, f in itertools.combinations(lines, 2):
        lo, hi = max(e[0][0], f[0][0]), min(e[1][0], f[1][0])
        if lo < hi:
            g0 = height(e, lo) - height(f, lo)
            g1 = height(e, hi) - height(f, hi)
            if g0 * g1 < 0:
                cuts.add(lo + (hi - lo) * g0 / (g0 - g1))
    xs = sorted(cuts)
    area = Fraction(0)
    for a, b in zip(xs, xs[1:]):
        m = (a + b) / 2
        r = section(rim, m)
        if r is None:
            continue
        spans = sorted((max(lo, r[0]), min(hi, r[1])) for lo, hi in
                       filter(None, (section(s, m) for s in sides)))
        length, reach = Fraction(0), None
        for lo, hi in spans:
            start = lo if reach is None else max(lo, reach)
            length += max(hi - start, 0)
            reach = hi if reach is None else max(reach, hi)
        area += (b - a) * length
    return area


def reference_rasterize_area(triangles, region, resolution):
    """Area of (union of triangles) ∩ region by testing cell centres.

    A loose cross-check of `_union_area`: a cell whose classification
    differs from its true coverage meets the boundary of the union cut to
    the region, and a segment spanning dx, dy meets at most
    dx/hx + dy/hy + 3 cells of size hx x hy, a convex region of extent
    W x H at most 2W/hx + 2H/hy + 4.  So the result is off by at most
    (hx + hy) * (the triangles' perimeters + 2W + 2H) + hx*hy*(9n + 4)
    (`raster_error_bound`)."""
    x0, y0, x1, y1 = region.bbox()
    if x1 <= x0 or y1 <= y0:
        return 0.0
    res = int(resolution)
    hx = (x1 - x0) / res
    hy = (y1 - y0) / res
    xs = x0 + (np.arange(res) + 0.5) * hx
    ys = y0 + (np.arange(res) + 0.5) * hy
    covered = np.zeros((res, res), dtype=bool)
    for tri in triangles:
        a, b, c = tri
        area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if abs(area2) < 1e-12:
            continue
        tx0, tx1 = min(a[0], b[0], c[0]), max(a[0], b[0], c[0])
        ty0, ty1 = min(a[1], b[1], c[1]), max(a[1], b[1], c[1])
        i0 = max(0, int(np.floor((tx0 - x0) / hx - 0.5)))
        i1 = min(res, int(np.ceil((tx1 - x0) / hx + 0.5)))
        j0 = max(0, int(np.floor((ty0 - y0) / hy - 0.5)))
        j1 = min(res, int(np.ceil((ty1 - y0) / hy + 0.5)))
        if i0 >= i1 or j0 >= j1:
            continue
        X, Y = np.meshgrid(xs[i0:i1], ys[j0:j1], indexing="ij")
        eps = 1e-12
        s0 = (b[0] - a[0]) * (Y - a[1]) - (b[1] - a[1]) * (X - a[0])
        s1 = (c[0] - b[0]) * (Y - b[1]) - (c[1] - b[1]) * (X - b[0])
        s2 = (a[0] - c[0]) * (Y - c[1]) - (a[1] - c[1]) * (X - c[0])
        if area2 < 0:
            s0, s1, s2 = -s0, -s1, -s2
        covered[i0:i1, j0:j1] |= (s0 >= -eps) & (s1 >= -eps) & (s2 >= -eps)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    if region.kind == "box":
        inside = (X >= x0) & (X <= x1) & (Y >= y0) & (Y <= y1)
    else:
        cx, cy, r = region.params
        inside = (X - cx) ** 2 + (Y - cy) ** 2 <= r * r
    return float(np.count_nonzero(covered & inside)) * hx * hy


def raster_error_bound(triangles, region, resolution):
    x0, y0, x1, y1 = region.bbox()
    hx, hy = (x1 - x0) / resolution, (y1 - y0) / resolution
    perimeters = np.linalg.norm(
        triangles - np.roll(triangles, 1, axis=1), axis=2).sum()
    return ((hx + hy) * (perimeters + 2 * (x1 - x0) + 2 * (y1 - y0))
            + hx * hy * (9 * len(triangles) + 4))


def raster_triangle_sets(rng):
    """Random, degenerate, out-of-box and lattice triangles in the plane."""
    sets = [rng.uniform(-3.0, 3.0, size=(12, 3, 2)) for _ in range(4)]
    sets.append(rng.uniform(-0.2, 0.2, size=(6, 3, 2)) + rng.uniform(-2, 2, 2))
    p, q = rng.uniform(-2, 2, size=(2, 2))
    sets.append(np.array([
        [p, q, 2 * q - p],                  # collinear
        [p, p, q],                          # repeated vertex
        [p, p + 1e-7, p + [0.0, 1e-7]],     # area below the cut
        [[5, 5], [6, 5], [5, 6]],           # beyond the box
        [[-9, -9], [-8, -9], [-9, -8]],     # before the box
        [[-9, 0], [9, 0.5], [0, 9]],        # larger than the box
    ], dtype=float))
    lattice = []
    for k in range(-2, 2):
        for l in range(-2, 2):
            lattice.append([[k, l], [k + 1, l], [k + 1, l + 1]])
            lattice.append([[k + 1, l + 1], [k, l + 1], [k, l]])
    lattice += [[[0, 0], [2, 0], [0, 2]], [[-2, -2], [2, 2], [-2, 2]]]
    sets.append(np.array(lattice, dtype=float))
    sets.append(np.array(lattice[::3], dtype=float)[:, ::-1])
    return sets


AREA_REGIONS = [PlaneRegion("box", (-2.0, -2.0, 2.0, 2.0)),
                PlaneRegion("box", (0.0, -1.0, 2.0, 1.0)),
                PlaneRegion("disk", (0.0, 0.0, 2.0)),
                PlaneRegion("disk", (0.5, -0.5, 1.5))]


def test_union_area_rounds_below_the_rational_oracle():
    rng = np.random.default_rng(31)
    for tris in raster_triangle_sets(rng):
        for region in AREA_REGIONS:
            polygon = region.polygon(3)
            exact = exact_union_area(tris, polygon)
            got = _union_area(tris, polygon)
            assert Fraction(got) <= exact
            assert float(exact) - got <= max(1e-9 * float(exact), 1e-12)
    empty = np.zeros((0, 3, 2))
    assert _union_area(empty, AREA_REGIONS[2].polygon(8)) == 0.0


def test_union_area_of_a_sliver():
    # a thin triangle of area 0.01; cell centres once read it as 0.5
    sliver = np.array([[[0.0, 0.25], [1.0, 0.25], [0.5, 0.27]]])
    box = PlaneRegion("box", (0.0, 0.0, 1.0, 1.0)).polygon(1)
    got = _union_area(sliver, box)
    assert Fraction(got) <= exact_union_area(sliver, box)
    assert got <= 0.01
    assert got == pytest.approx(0.01, rel=0, abs=1e-12)


@pytest.mark.parametrize("r", [1, 2, 3, 16, 256])
def test_union_area_of_a_covered_disk_is_the_inscribed_polygon(r):
    # the disk stands for its inscribed 4r-gon, of area 2r R^2 sin(pi/2r)
    R = 1.5
    cover = np.array([[[-10.0, -10.0], [10.0, -10.0], [0.3, 10.0]]])
    got = _union_area(cover, PlaneRegion("disk", (0.3, -0.2, R)).polygon(r))
    inscribed = 2 * r * R * R * math.sin(math.pi / (2 * r))
    assert got <= inscribed
    assert got == pytest.approx(inscribed, rel=1e-10)


def test_union_area_of_lattice_triangles_is_an_integer():
    # unit squares split by a diagonal, overlapping and cut by the boxes
    tris = raster_triangle_sets(np.random.default_rng(0))[6]
    for params, area in [((-2.0, -2.0, 2.0, 2.0), 16), ((0.0, -1.0, 2.0, 1.0), 4),
                         ((-1.0, -1.0, 0.0, 0.0), 1), ((0.0, 0.0, 0.0, 2.0), 0)]:
        got = _union_area(tris, PlaneRegion("box", params).polygon(1))
        assert got <= area
        assert got == pytest.approx(area, rel=1e-10, abs=1e-12)


def test_union_area_within_the_raster_bound():
    rng = np.random.default_rng(31)
    for tris in raster_triangle_sets(rng):
        for region in AREA_REGIONS:
            # the raster measures the disk, the slabs its inscribed polygon
            polygon = region.polygon(64)
            gap = 0.0
            if region.kind == "disk":
                gap = math.pi * region.params[2] ** 2 - 128 * math.sin(
                    math.pi / 128) * region.params[2] ** 2
            area = _union_area(tris, polygon)
            for res in (8, 33, 64):
                raster = reference_rasterize_area(tris, region, res)
                assert abs(raster - area) <= (
                    raster_error_bound(tris, region, res) + gap)


def test_plane_region_validation():
    with pytest.raises(InvalidInputError):
        PlaneRegion("oval", (0, 0, 1))
    with pytest.raises(InvalidInputError):
        PlaneRegion("box", (0, 0, 1))
    disk = PlaneRegion("disk", (0.0, 0.0, 2.0))
    assert disk.bbox() == (-2.0, -2.0, 2.0, 2.0)
    assert PlaneRegion("disk", (1.0, 1.0, 0.0)).bbox() == (1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("kind,params,match", [
    ("box", (0.0, 0.0, math.inf, 2.0), "finite"),
    ("box", (math.nan, 0.0, 2.0, 2.0), "finite"),
    ("box", (0.0, -math.inf, 2.0, 2.0), "finite"),
    ("disk", (0.0, math.nan, 1.0), "finite"),
    ("disk", (0.0, 0.0, math.inf), "finite"),
    ("disk", (0.0, 0.0, -1.0), "non-negative"),
    ("box", (2.0, 0.0, 0.0, 2.0), "corners"),
    ("box", (0.0, 2.0, 2.0, 0.0), "corners")])
def test_plane_region_rejects_unbounded_or_negative(kind, params, match):
    # an infinite box made the certified bound nan, a nan corner raised a
    # bare ValueError in the rasterizer, a negative radius read area 0, and
    # reversed corners read area 0 and halved the 2^4 certificate
    with pytest.raises(InvalidInputError, match=match):
        PlaneRegion(kind, params)


def test_exhaustive_infeasible_pool_decided_by_one_check(monkeypatch):
    # 30 edges below the row y = 3 that joins the two points: no subset
    # separates them, and 2^30 subsets are never enumerated
    import spanmin.solver as solver
    K = build_grid_complex(2, [6, 6])
    cons = [ConstraintCycle(kind="point-pair", points=((0, 3), (6, 3)))]
    pts = K.grid.points
    low = [i for i, s in enumerate(K.simplices(1))
           if all(pts[v][1] <= 2 for v in s)]
    pool = FaceSet(K, 1, low[:30])
    pools, calls = [], []
    real = solver.spanning_predicate

    def counted(K, constraints, d, pool):
        pools.append(tuple(pool))
        spans = real(K, constraints, d, pool)

        def counted_spans(state):
            calls.append(state)
            return spans(state)

        return counted_spans

    monkeypatch.setattr(solver, "spanning_predicate", counted)
    with pytest.raises(InfeasibleError):
        minimize_exhaustive(K, cons, WeightField.uniform(1.0), pool)
    assert pools == [pool.faces]
    assert calls == [(1 << 30) - 1]


def test_exhaustive_skips_faces_touching_a_constraint():
    # pool edges at a constrained point never enter the search; the optimum
    # and the search's evaluations over the remaining pool are unchanged
    K, cons = separation_instance()
    near = FaceSet(K, 1, [i for i, s in enumerate(K.simplices(1))
                          if K.grid.vertex_at((1, 0)) in s])
    row = generate_faceset("separating-row", K, 1)
    alone = minimize_exhaustive(K, cons, WeightField.uniform(1.0), row)
    mixed = minimize_exhaustive(K, cons, WeightField.uniform(1.0),
                                row.union(near.faces))
    assert mixed.faces.faces == alone.faces.faces == row.faces
    assert mixed.objective == alone.objective == 2.0
    assert mixed.evaluations == alone.evaluations


def test_exhaustive_rejects_a_pool_of_another_complex():
    K = build_grid_complex(2, [4, 4])
    cons = [ConstraintCycle(kind="point-pair", points=((2, 0), (2, 4)))]
    row = generate_faceset("separating-row", build_grid_complex(2, [4, 4]), 1)
    with pytest.raises(PreconditionError, match="different complex"):
        minimize_exhaustive(K, cons, WeightField.uniform(1.0), row)


SQUARE = ((1, 1, 0), (2, 1, 0), (2, 2, 0), (1, 2, 0))


@pytest.mark.parametrize("box,d,cons", [
    ((4, 4), 1, [ConstraintCycle(kind="point-pair", points=((2, 0), (2, 4))),
                 ConstraintCycle(kind="point-pair", points=((1, 1), (3, 2)))]),
    ((3, 3, 3), 1, [ConstraintCycle(kind="loop", points=SQUARE)]),
    ((3, 3, 3), 2, [ConstraintCycle(kind="point-pair",
                                    points=((0, 1, 1), (3, 2, 1))),
                    ConstraintCycle(kind="loop", points=SQUARE),
                    # off the box: no chain, and the corner still touches
                    ConstraintCycle(kind="point-pair",
                                    points=((0, 0, 0), (4, 4, 4)))])])
def test_exhaustive_pool_reduction_matches_the_vertex_scan(monkeypatch, box,
                                                           d, cons):
    # the pool is cut by the predicate's `touching` sets, and must equal the
    # faces sharing no vertex with a constraint's points
    import spanmin.solver as solver
    K = build_grid_complex(len(box), list(box))
    rng = np.random.default_rng(len(cons))
    seen, calls = [], []

    def first_check(K, constraints, d, pool):
        seen.append(tuple(pool))

        def spans(state):
            calls.append(state)
            return False  # stop at the P0 check

        return spans

    monkeypatch.setattr(solver, "spanning_predicate", first_check)
    cut = 0
    for _ in range(12):
        pool = FaceSet(K, d, rng.choice(K.n_simplices(d), size=30,
                                        replace=False).tolist())
        with pytest.raises(InfeasibleError):
            minimize_exhaustive(K, cons, WeightField.uniform(1.0), pool)
        assert seen[-1] == contact_free_by_scan(K, d, pool.faces, cons)
        assert calls == [(1 << len(seen[-1])) - 1]
        calls.clear()
        cut += len(pool) - len(seen[-1])
    assert cut > 0


# -- the tail pruning against the unpruned heap ---------------------------------

# (box, d, loops): codimension 1 takes point pairs across the wall x0 = 1,
# codimension 2 loops around the plane x0 = x1 = 1 (the second one at the
# top of the box); the wall or plane seeds each pool
PRUNE_CASES = [((4, 4), 1, 0), ((3, 3), 1, 0), ((2, 2, 2), 2, 0),
               ((3, 2, 2), 2, 0), ((2, 2, 2), 1, 1), ((3, 2, 2), 1, 2),
               ((2, 1, 1, 1), 3, 0), ((2, 2, 1, 1), 2, 1)]
# weights that tie a unit edge with a diagonal (sqrt 2) or a long
# diagonal (sqrt 3), and costs that tie up to rounding
TIE_WEIGHTS = (1.0, 1.5, 2.0, math.sqrt(2), math.sqrt(3))


def prune_instances(box, d, loops, count=6):
    """Seeded (constraints, weight, pool) on the box: the wall or plane,
    sometimes less one face, plus random faces, and sometimes a face at a
    constraint's point; one or two constraints, and a weight table over
    part of the pool."""
    n = len(box)
    K = build_grid_complex(n, list(box))
    points = K.grid.points
    plane = [i for i, s in enumerate(K.simplices(d))
             if all(points[v][a] == 1 for v in s for a in range(n - d))]
    rng = random.Random(f"{box} {d}")
    out = []
    for _ in range(count):
        if loops:
            cons = [rectangle_loop((0, 1), (0, 0), (2, 2), (0,) * n)]
            if loops > 1 or rng.random() < 0.5:
                cons.append(rectangle_loop((0, 1), (0, 0), (2, 2),
                                           (0, 0) + tuple(box[2:])))
        else:
            cons = [ConstraintCycle(kind="point-pair", points=(
                (0,) + tuple(rng.randint(0, b) for b in box[1:]),
                (box[0],) + tuple(rng.randint(0, b) for b in box[1:])))
                for _ in range(rng.randint(1, 2))]
        faces = set(plane)
        if rng.random() < 0.3:
            faces.remove(rng.choice(plane))
        faces.update(rng.sample(range(K.n_simplices(d)), 8))
        if rng.random() < 0.4:
            at = K.grid.vertex_at(cons[0].points[0])
            faces.add(rng.choice([i for i, s in enumerate(K.simplices(d))
                                  if at in s]))
        table = {f: rng.choice(TIE_WEIGHTS)
                 for f in rng.sample(sorted(faces), len(faces) // 2)}
        out.append((cons, WeightField(table, upper=2.0),
                    FaceSet(K, d, sorted(faces))))
    return K, out


@pytest.mark.parametrize("box,d,loops", PRUNE_CASES, ids=[
    f"{'x'.join(map(str, box))}-d{d}-loops{loops}"
    for box, d, loops in PRUNE_CASES])
def test_exhaustive_matches_the_unpruned_heap(box, d, loops):
    # the tail test drops only subtrees with no spanning set, so the
    # optimum, its face tuple and infeasibility are those of the heap that
    # pops every subset; each case holds feasible and contact pools
    K, instances = prune_instances(box, d, loops)
    feasible = contact = 0
    for cons, weight, pool in instances:
        contact += len(contact_free_by_scan(K, d, pool.faces, cons)) < len(
            pool.faces)
        try:
            faces, objective = heap_exhaustive(K, cons, weight, pool)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                minimize_exhaustive(K, cons, weight, pool)
            continue
        res = minimize_exhaustive(K, cons, weight, pool)
        assert res.faces.faces == faces
        assert res.objective == objective
        feasible += 1
    assert feasible and contact


@pytest.mark.parametrize("box,d,loops", PRUNE_CASES, ids=[
    f"{'x'.join(map(str, box))}-d{d}-loops{loops}"
    for box, d, loops in PRUNE_CASES])
def test_first_child_is_pushed_untested(box, d, loops):
    # S | P0[i+1:] is the tail that pushed S (the full mask for the root),
    # so testing it again only repeats a passing call: the search makes one
    # call fewer per pop with a child position, on the same heap
    K, instances = prune_instances(box, d, loops)
    feasible = 0
    for cons, weight, pool in instances:
        try:
            faces, objective, calls, parents = tail_tested_heap(
                K, cons, weight, pool)
        except InfeasibleError:
            continue
        res = minimize_exhaustive(K, cons, weight, pool)
        assert (res.faces.faces, res.objective) == (faces, objective)
        assert res.evaluations == calls - parents
        feasible += parents > 0
    assert feasible


# -- pinned search trajectories ------------------------------------------------

# Instances of the criterion-4 loop: a 4x4 grid, the point pair (2,0)-(2,4),
# and a pool of the middle row plus band edges.  Each row holds the pool, the
# local-search seed, and (faces, objective, evaluations, accepted, history)
# of the exhaustive search and of the local search with budget 10,000.  The
# exhaustive evaluations count pops and the tail tests made, which cut the
# pops from 336, 1043 and 1389 to 18, 112 and 80; the local rows are from
# the descent that draws its moves lazily.
PINNED = [
    ((3, 7, 18, 20, 23, 31, 33, 34, 43, 44, 46, 49), 534836507,
     ((7, 20, 33, 46), 4.0, 64, 0, ()),
     ((7, 20, 33, 46), 4.0, 19, 1, (13.656854249492381, 4.000000000000002))),
    ((4, 6, 7, 10, 17, 20, 23, 29, 32, 33, 36, 43, 44, 46, 47), 28162508,
     ((7, 20, 33, 46), 4.0, 376, 0, ()),
     ((7, 20, 33, 46), 4.0, 379, 2,
      (15.828427124746192, 5.000000000000002, 4.000000000000002))),
    ((3, 5, 7, 8, 10, 16, 18, 20, 29, 30, 31, 33, 36, 42, 45, 46, 49, 54),
     449804157,
     ((7, 20, 33, 46), 4.0, 326, 0, ()),
     ((7, 20, 33, 46), 4.0, 70, 1, (19.656854249492383, 4.000000000000002))),
]


def band_instance(pool_faces):
    K = build_grid_complex(2, [4, 4])
    cons = [ConstraintCycle(kind="point-pair", points=((2, 0), (2, 4)))]
    return K, cons, FaceSet(K, 1, pool_faces)


def trajectory(res):
    return (res.faces.faces, res.objective, res.evaluations, res.accepted,
            res.history)


@pytest.mark.parametrize("pool_faces,seed,exhaustive,local", PINNED)
def test_search_trajectories_pinned(pool_faces, seed, exhaustive, local):
    K, cons, pool = band_instance(pool_faces)
    w = WeightField.uniform(1.0)
    assert trajectory(minimize_exhaustive(K, cons, w, pool)) == exhaustive
    res = minimize_local(K, cons, w, init=pool, budget=10_000, seed=seed,
                         pool=pool)
    assert trajectory(res) == local


def test_exhaustive_evaluation_cap(monkeypatch):
    # the first pinned pool spans, but its optimum is found at the 64th
    # predicate call of the search
    import spanmin.solver as solver
    K, cons, pool = band_instance(PINNED[0][0])
    w = WeightField.uniform(1.0)
    monkeypatch.setattr(solver, "EXHAUSTIVE_EVALUATION_CAP", 63)
    with pytest.raises(PoolTooLargeError, match="passed 63 evaluations"):
        minimize_exhaustive(K, cons, w, pool)
    monkeypatch.setattr(solver, "EXHAUSTIVE_EVALUATION_CAP", 64)
    assert minimize_exhaustive(K, cons, w, pool).evaluations == 64


# -- the cut bound of the local search -------------------------------------------

def cut_instances():
    """Seeded one-pair pools around a lattice box B that holds p in its
    interior relative to the grid's box, and not q: B's sides inside the
    box, in a 4x4 to 6x6 grid or in 3^3 (B a square or cube at p, at a
    corner in 3^3, sometimes grown along one axis), separate the pair.
    Random faces are added, on every other instance two in contact with a
    point, and some instances fix a few side faces; each also comes with a
    second pair across the same sides.  Yields (K, d, pair, second pair,
    pool, weight, fixed faces)."""
    rng = random.Random(2027)
    for trial in range(24):
        if trial % 3 < 2:
            m = 4 + trial % 3 + (trial // 3) % 2
            box, grow = [m, m], [1, 1]
            p = [rng.randint(0, m - 2) for _ in range(2)]
        else:
            box, grow = [3, 3, 3], [1, 1, 1]
            p = [rng.choice([0, 3]) for _ in range(3)]
        grow[rng.randrange(len(box))] += trial % 2
        n, d = len(box), len(box) - 1
        K = build_grid_complex(n, box)
        lo = [max(c - g, 0) for c, g in zip(p, grow)]
        hi = [min(c + g, b) for c, g, b in zip(p, grow, box)]

        def interior(pt):
            return all(a < c < b or c == a == 0 or c == b == e
                       for a, b, c, e in zip(lo, hi, pt, box))

        sides = set()
        for axis in range(n):
            for wall in (lo[axis], hi[axis]):
                if 0 < wall < box[axis]:
                    a, b = list(lo), list(hi)
                    a[axis] = b[axis] = wall
                    sides.update(Region(a, b).faces(K, d))
        inside = Region(lo, hi)
        outside = [pt for pt in K.grid.points if not inside.contains_point(pt)]
        q, q2 = rng.sample(outside, 2)
        p2 = rng.choice([pt for pt in K.grid.points if interior(pt)])
        ends = {K.grid.vertex_at(p), K.grid.vertex_at(q)}
        touching = [f for f in range(K.n_simplices(d))
                    if ends.intersection(K.simplex(d, f))]
        rest = [f for f in range(K.n_simplices(d)) if f not in sides]
        extra = rng.sample(rest, 5 if n == 2 else 4)
        extra += rng.sample(touching, 2 * (trial % 2 == 0))
        pool = sorted(sides.union(extra))
        weight = WeightField(table={f: rng.choice([1.0, 1.25, 1.5, 2.0])
                                    for f in pool})
        fixed = (rng.sample(sorted(sides), rng.randint(1, 2))
                 if trial % 4 == 1 else [])
        pair = ConstraintCycle("point-pair", (tuple(p), q))
        second = ConstraintCycle("point-pair", (p2, q2))
        yield K, d, pair, second, pool, weight, fixed


def cut_bound(K, d, cons, pool, weight, fixed):
    """`separation_bound` of the pool as an exact rational."""
    vols = _face_volumes(K, d)
    caps, den = _integer_costs([weight.at(f) * vols[f] for f in pool])
    mask = sum(1 << pool.index(f) for f in fixed)
    bound = separation_bound(K, cons, d, pool, caps, mask)
    return Fraction(bound, den)


@pytest.mark.parametrize("num,den", [(9, 1), (3, 4), (2 ** 60 + 1, 2 ** 10),
                                     (2 ** 70 - 1, 2 ** 52), (10 ** 20 + 7, 3)])
def test_cut_bound_certificate_rounds_down(num, den):
    # a sum of costs can hold more significant bits than a float: the
    # certificate is the float at or just below it
    low = _round_down(num, den)
    assert Fraction(low) <= Fraction(num, den)
    assert Fraction(math.nextafter(low, math.inf)) > Fraction(num, den)


def exact_cost(K, d, faces, weight):
    vols = _face_volumes(K, d)
    return sum((Fraction(float(weight.at(f) * vols[f])) for f in faces),
               Fraction(0))


def test_cut_bound_is_the_exhaustive_optimum(monkeypatch):
    # one pair: the bound is the least cost of a spanning pool state,
    # exactly, the exhaustive optimum's and the whole-dual-graph flow's
    # (the flow's alone with fixed faces); two pairs: at most the optimum;
    # a flow stopped after one augmenting path: at most the full one
    import spanmin.complement as complement
    counts = {"2": 0, "3": 0, "fixed": 0, "contact": 0, "capped": 0}
    for K, d, pair, second, pool, weight, fixed in cut_instances():
        vols = _face_volumes(K, d)
        costs = {f: float(weight.at(f) * vols[f]) for f in pool}
        bound = cut_bound(K, d, [pair], pool, weight, fixed)
        assert bound == min_cut_by_flow(K, pair, pool, costs, fixed)
        counts[str(K.dim)] += 1
        counts["fixed"] += bool(fixed)
        counts["contact"] += len(contact_free_by_scan(
            K, d, pool, [pair])) < len(pool)
        if not fixed:
            for cons in ([pair], [pair, second]):
                res = minimize_exhaustive(K, cons, weight,
                                          FaceSet(K, d, pool))
                optimum = exact_cost(K, d, res.faces.faces, weight)
                two = cut_bound(K, d, cons, pool, weight, ())
                assert two == optimum if len(cons) == 1 else two <= optimum
        with monkeypatch.context() as m:
            m.setattr(complement, "CUT_AUGMENT_CAP", 1)
            capped = cut_bound(K, d, [pair], pool, weight, fixed)
        assert capped <= bound
        counts["capped"] += capped < bound
    assert counts == {**counts, "2": 16, "3": 8, "fixed": 6}
    assert 12 <= counts["contact"] < 24
    assert counts["capped"] > 12
