"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Every criterion is self-contained, uses frozen seeds, and asserts both the
property and its stated time budget.
"""

import math
import random
import time

import numpy as np

from spanmin import (Complex, ConstraintCycle, FaceSet, PlanePair,
                     PlaneRegion, Region, WeightField, build_grid_complex,
                     complement_subcomplex, equality_family,
                     free_collapse_candidates, homology_group, is_spanning,
                     minimize_exhaustive, minimize_local,
                     projection_lower_bound, verify_projection_bounds, wedge,
                     weighted_measure)
from spanmin.cli import main as cli_main
from spanmin.grassmann import projection_sums
from spanmin.problems import generate_faceset, linking_loops

from test_complement import subdivision_oracle


def report(criterion: int, label: str, passed: bool) -> None:
    print(f"criterion {criterion:2d} ({label}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {criterion} ({label}) failed"


def band_edges(K, lo, hi):
    """Edges of a 2D grid whose vertices all satisfy lo <= (x, y) <= hi."""
    R = Region(lo=lo, hi=hi)
    return [i for i in range(K.n_simplices(1))
            if R.contains_face(K, 1, i)]


def test_criterion_01_homology_battery():
    t0 = time.perf_counter()
    ok = True

    circle = Complex({0: [(0,), (1,), (2,)],
                      1: [(0, 1), (0, 2), (1, 2)]},
                     coords=[(0, 0), (1, 0), (0, 1)])
    h1 = homology_group(circle, 1)
    ok &= (h1.rank, h1.torsion) == (1, ())

    tet = Complex.from_maximal(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
        coords=[(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    h2 = homology_group(tet, 2)
    ok &= (h2.rank, h2.torsion) == (1, ())
    ok &= homology_group(tet, 1).is_trivial()

    torus = Complex.from_maximal(
        [(i % 7, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
        + [(i % 7, (i + 2) % 7, (i + 3) % 7) for i in range(7)],
        coords=[(float(i), 0.0) for i in range(7)])
    ht = homology_group(torus, 1)
    ok &= (ht.rank, ht.torsion) == (2, ())

    for n, box in [(1, [4]), (2, [3, 3]), (3, [2, 2, 2])]:
        K = build_grid_complex(n, box)
        ok &= homology_group(K, 0).rank == 1
        for k in range(1, n + 1):
            ok &= homology_group(K, k).is_trivial()

    elapsed = time.perf_counter() - t0
    report(1, "homology battery", ok and elapsed < 5.0)


def test_criterion_02_complement_ranks():
    t0 = time.perf_counter()
    ok = True

    # 100 randomized 2D instances: homological separation verdict must agree
    # with a direct connected-component (union-find) oracle
    rng = np.random.default_rng(2024)
    K = build_grid_complex(2, [3, 3])
    p, q = (0, 0), (3, 3)
    cons = [ConstraintCycle(kind="point-pair", points=(p, q))]
    pk, qk = K.grid.vertex_at(p), K.grid.vertex_at(q)
    # edges not incident to the constraint points, so contact never occurs
    # and every instance admits an oracle verdict
    pool = [i for i, s in enumerate(K.simplices(1))
            if pk not in s and qk not in s]
    for _ in range(100):
        faces = tuple(sorted(
            rng.choice(pool, size=int(rng.integers(4, 14)),
                       replace=False).tolist()))
        F = FaceSet(K, 1, faces)
        # a vertex's subdivision id is its vertex id
        _, labels = subdivision_oracle(K, F)
        ok &= is_spanning(K, F, cons) == (labels[pk] != labels[qk])

    # coordinate 2-plane through a 3^4-cell 4D box: complement H_1 = Z
    K4 = build_grid_complex(4, [3, 3, 3, 3])
    c = [b // 2 for b in K4.grid.box]
    plane = tuple(
        i for i, s in enumerate(K4.simplices(2))
        if all(K4.grid.points[v][2] == c[2] and K4.grid.points[v][3] == c[3]
               for v in s))
    model = complement_subcomplex(K4, FaceSet(K4, 2, plane), max_dim=2)
    h1 = model.homology(1)
    ok &= (h1.rank, h1.torsion) == (1, ())

    elapsed = time.perf_counter() - t0
    report(2, "complement ranks", ok and elapsed < 60.0)


def test_criterion_03_collapse_stability():
    # random free-face-collapse sequences supported in a region never flip a
    # spanning verdict from pass to fail
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(303)
    K = build_grid_complex(2, [4, 4])
    cons = [ConstraintCycle(kind="point-pair", points=((2, 0), (2, 4)))]
    row = [i for i in range(K.n_simplices(1))
           if all(K.grid.points[v][1] == 2 for v in K.simplex(1, i))]
    clutter_pool = [e for e in band_edges(K, (1, 1), (3, 3)) if e not in row]
    B = Region(lo=(1, 1), hi=(3, 3))

    sequences = 0
    while sequences < 200:
        extra = rng.sample(clutter_pool, rng.randint(2, 8))
        F = FaceSet(K, 1, tuple(row) + tuple(extra))
        if not is_spanning(K, F, cons):
            continue
        sequences += 1
        while True:
            moves = free_collapse_candidates(F, region=B)
            if not moves:
                break
            face, _ = rng.choice(moves)
            F = F.difference([face])
            ok &= is_spanning(K, F, cons)

    elapsed = time.perf_counter() - t0
    report(3, "collapse stability", ok and elapsed < 60.0)


def test_criterion_04_solver_oracle_equivalence():
    # local search with budget 10^4 matches the exhaustive optimum on 50
    # random instances with <= 20 candidate faces
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(404)
    K = build_grid_complex(2, [4, 4])
    cons = [ConstraintCycle(kind="point-pair", points=((2, 0), (2, 4)))]
    h = WeightField.uniform(1.0)
    row = [i for i in range(K.n_simplices(1))
           if all(K.grid.points[v][1] == 2 for v in K.simplex(1, i))]
    extras_pool = [e for e in band_edges(K, (0, 1), (4, 3)) if e not in row]

    for trial in range(50):
        extras = rng.sample(extras_pool, rng.randint(8, 14))
        pool = FaceSet(K, 1, tuple(row) + tuple(extras))
        oracle = minimize_exhaustive(K, cons, h, pool)
        res = minimize_local(K, cons, h, init=pool, budget=10000,
                             seed=1000 + trial, pool=pool)
        ok &= abs(res.objective - oracle.objective) < 1e-9

    elapsed = time.perf_counter() - t0
    report(4, "solver oracle equivalence", ok and elapsed < 120.0)


def test_criterion_05_certified_two_planes():
    t0 = time.perf_counter()
    K = build_grid_complex(4, [2, 2, 2, 2])
    F = generate_faceset("two-planes-orthogonal", K, 2)
    ok = is_spanning(K, F, linking_loops(K.grid.box))

    J = weighted_measure(F, WeightField.uniform(1.0))
    frame1 = np.array([[1., 0., 0., 0.], [0., 1., 0., 0.]])
    frame2 = np.array([[0., 0., 1., 0.], [0., 0., 0., 1.]])
    disks = (PlaneRegion("box", (0.0, 0.0, 2.0, 2.0)),
             PlaneRegion("box", (0.0, 0.0, 2.0, 2.0)))
    bound = projection_lower_bound(F, frame1, frame2, disks, resolution=512)
    ok &= abs(J - bound) <= 1e-9 * max(J, 1.0)

    elapsed = time.perf_counter() - t0
    report(5, "certified two-planes optimum", ok and elapsed < 60.0)


def test_criterion_06_orthogonal_projection_bound():
    t0 = time.perf_counter()
    pair = PlanePair.orthogonal()
    rep = verify_projection_bounds(pair, samples=1_000_000, seed=606)
    ok = rep.max_sum <= 1.0 + 1e-9

    fam = np.array([equality_family(pair, a)
                    for a in np.linspace(0.0, math.pi / 2, 1000)])
    sums = projection_sums(pair, fam)
    ok &= float(np.max(sums)) >= 1.0 - 1e-9
    ok &= float(np.max(sums)) <= 1.0 + 1e-9

    elapsed = time.perf_counter() - t0
    report(6, "orthogonal projection bound", ok and elapsed < 10.0)


def test_criterion_07_general_pair_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(20):
        P = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
        Q = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
        pair = PlanePair(frame1=P, frame2=Q)
        rep = verify_projection_bounds(pair, samples=50_000,
                                       seed=int(rng.integers(1 << 30)))
        ok &= rep.max_sum <= pair.projection_bound()

    elapsed = time.perf_counter() - t0
    report(7, "general pair bound", ok and elapsed < 30.0)


def test_criterion_08_per_triangle_inequality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    pair = PlanePair.from_angles(0.35, 1.05)
    L1, L2 = pair.projection_matrices()

    tris = rng.standard_normal((10_000, 3, 4))
    a = tris[:, 1] - tris[:, 0]
    b = tris[:, 2] - tris[:, 0]
    xi = wedge(a, b)
    norms = np.linalg.norm(xi, axis=1)
    areas = norms / 2.0
    unit = xi / norms[:, None]
    s1 = np.linalg.norm(unit @ L1.T, axis=1)
    s2 = np.linalg.norm(unit @ L2.T, axis=1)

    # projected areas computed independently from the plane coordinates
    def projected_area(frame):
        pa = tris @ frame.T
        u = pa[:, 1] - pa[:, 0]
        v = pa[:, 2] - pa[:, 0]
        return 0.5 * np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])

    lhs = projected_area(pair.frame1) + projected_area(pair.frame2)
    rhs = (s1 + s2) * areas
    ok = bool(np.all(lhs <= rhs + 1e-9))

    elapsed = time.perf_counter() - t0
    report(8, "per-triangle inequality", ok and elapsed < 10.0)


def test_criterion_09_norm_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    x = rng.standard_normal((1_000_000, 4))
    y = rng.standard_normal((1_000_000, 4))
    lhs = np.linalg.norm(wedge(x, y), axis=1)
    nx = np.linalg.norm(x, axis=1)
    # sine from the orthogonal component of y against x (numerically stable)
    xhat = x / nx[:, None]
    perp = y - np.sum(xhat * y, axis=1)[:, None] * xhat
    rhs = nx * np.linalg.norm(perp, axis=1)
    ok = bool(np.all(np.abs(lhs - rhs) <= 1e-9 * np.maximum(rhs, 1.0)))

    elapsed = time.perf_counter() - t0
    report(9, "norm identity", ok and elapsed < 30.0)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    problem = tmp_path / "problem.txt"
    problem.write_text(
        "n 2\nd 1\nbox 2 2\ninit generator separating-row\n"
        "constraint point-pair 1 0 ; 1 2\nseed 5\n")

    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        body = "\n".join(l for l in out.splitlines()
                         if not l.startswith("time:"))
        return code, body

    ok = True
    for argv in (["homology", "--input", str(problem)],
                 ["check", "--input", str(problem)],
                 ["solve", "--input", str(problem)],
                 ["lemmas", "--pair", "orthogonal", "--samples", "2000",
                  "--seed", "5"]):
        first = run(argv)
        second = run(argv)
        ok &= first == second and first[0] == 0

    elapsed = time.perf_counter() - t0
    report(10, "CLI determinism", ok and elapsed < 60.0)
