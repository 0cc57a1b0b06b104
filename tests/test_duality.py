"""Complement questions on cl F (Alexander duality) against the whole-box
relative cochains, plus the k = 0 case, torsion, and the per-loop cache."""

import itertools

import numpy as np
import pytest

import spanmin.complement
from spanmin import (Complex, ConstraintCycle, FaceSet, PreconditionError,
                     WeightField, build_grid_complex,
                     complement_subcomplex, homology_group,
                     is_null_homologous, minimize_exhaustive,
                     spanning_predicate)
from spanmin.complement import (ComplementModel, _cobound, _loop_box,
                                _loop_reach, _loop_y, _off_walls,
                                _realize_raw, _relative_cohomology, _resolve,
                                _simplex_ids, _support_vertices)
from spanmin.complexes import _closure_rows, _kuhn_faces, _kuhn_tops
from spanmin.problems import generate_faceset, linking_loops

import relative_cochains as oracle
from loop_oracles import (closure_by_combinations, loop_rhs_by_closure,
                          off_walls_by_vertex_bits,
                          subbox_cochains_by_facets)
from test_complement import (DEG0_CASES, DEG1_CASES, HOMOLOGY_CASES,
                             boundary_items, box_loops, lattice_faces,
                             meridians, rectangle_loop, subdivision_oracle,
                             touches)


def sphere_faces(K, d):
    """The boundary of a (d+1)-face of the middle top simplex through its
    long diagonal: a d-sphere inside the box."""
    n = K.dim
    top = K.simplex(n, K.n_simplices(n) // 2)
    return tuple(K.index(s) for s in itertools.combinations(
        top[:d + 1] + top[-1:], d + 1))


def wall_faces(K, d):
    """The (n-1)-faces in the hyperplane x0 = 1 (empty for d < n-1)."""
    points = K.grid.points
    if d != K.dim - 1:
        return ()
    return tuple(i for i, s in enumerate(K.simplices(d))
                 if all(points[v][0] == 1 for v in s))


def random_face_sets(K, d, rng, trials):
    """Seeded face sets: random faces, alone and with a sphere or a wall."""
    for trial in range(trials):
        size = int(rng.integers(0, 3 * K.dim))
        extra = rng.choice(K.n_simplices(d), size=size, replace=False)
        base = (sphere_faces(K, d), wall_faces(K, d), ())[trial % 3]
        yield FaceSet(K, d, tuple(extra.tolist()) + base)


BOXES = [(3, 3), (2, 4), (2, 2, 2), (3, 2, 2), (1, 1, 1, 1), (2, 1, 1, 1),
         (2, 2, 1, 1)]


@pytest.mark.parametrize("box", BOXES)
def test_duality_homology_matches_relative_cochain_oracle(box):
    # H_k as H^{n-k-1}(cl F, cl F n dK) against H^{n-k}(K, cl F u dK),
    # rank and torsion, for every face dimension and k = 0..n
    n = len(box)
    rng = np.random.default_rng(sum(box) * 100 + n)
    K = build_grid_complex(n, list(box))
    ranks = set()
    for d in range(n):
        for F in random_face_sets(K, d, rng, 6):
            model = complement_subcomplex(K, F)
            for k in range(n + 1):
                h, want = model.homology(k), oracle.homology(model, k)
                assert (h.rank, h.torsion) == (want.rank, want.torsion)
                if 1 <= k < n:
                    ranks.add(h.rank)
    assert ranks - {0}


@pytest.mark.parametrize("box", BOXES)
def test_wall_rule_matches_the_vertex_bits_of_the_closure(box):
    # the closure rows of a face set against a combinations closure, and
    # the one wall rule against the per-vertex wall bits: with the box's
    # walls (the `_relative` cochains) and with a random sub-box's
    n = len(box)
    rng = np.random.default_rng(sum(box) * 1000 + n)
    K = build_grid_complex(n, list(box))
    walled = set()
    for d in range(n):
        for F in random_face_sets(K, d, rng, 6):
            model = complement_subcomplex(K, F)
            cl = closure_by_combinations(K, d, F.faces)
            assert {r: set(_simplex_ids(K, r, rows))
                    for r, rows in model._closure.items()} == cl
            whole = off_walls_by_vertex_bits(K, cl, [0] * n, box)
            assert model._relative == whole
            walled.update(r for r in cl if whole[r] != cl[r])
            lo = [int(rng.integers(0, b)) for b in box]
            hi = [int(rng.integers(a + 1, b + 1)) for a, b in zip(lo, box)]
            assert _off_walls(K, model._closure, lo, hi) == \
                off_walls_by_vertex_bits(K, cl, lo, hi)
    assert walled


@pytest.mark.parametrize("case", sorted(DEG1_CASES))
def test_wall_rule_matches_the_facet_counts_of_each_loop_sub_box(case):
    # the cochains of `_cobound` on a loop's sub-box K' (its vertices
    # grown by one and clipped to the box): the wall rule on the faces of
    # K''s tops against the facets held by two tops, and their faces off
    # the facets held by one; and the record's `reach`, the d-faces of K
    # holding one of those (n-2)-simplices, against a scan of every d-face
    box, _, _, linked, _ = DEG1_CASES[case]
    K = build_grid_complex(len(box), list(box))
    n = K.dim
    loops = box_loops(box)
    rng = np.random.default_rng(61)
    for loop in linked + [loops[i] for i in rng.choice(len(loops), size=4,
                                                        replace=False)]:
        at = list(zip(*(K.grid.points[v] for e in _realize_raw(loop, K)
                        for v in e)))
        lo = [max(min(c) - 1, 0) for c in at]
        hi = [min(max(c) + 1, b) for c, b in zip(at, box)]
        assert _loop_box(K, _support_vertices(K, loop)) == (tuple(lo),
                                                             tuple(hi))
        tops, _ = _kuhn_tops([b + 1 for b in box], lo, hi)
        faces = _kuhn_faces([b + 1 for b in box], lo, hi, (n - 2, n - 1))
        full = _closure_rows([tops])
        assert all((faces[r] == full[r]).all() for r in faces)
        got = _off_walls(K, faces, lo, hi)
        want = subbox_cochains_by_facets(K, tops.tolist())
        assert got == want
        for d in (n - 2, n - 1):
            held = {f for f, s in enumerate(K.simplices(d))
                    if any(K.index(r) in want[n - 2]
                           for r in itertools.combinations(s, n - 1))}
            assert _loop_reach(K, lo, hi, d) == held
            assert _resolve(K, loop, d).reach == held


@pytest.mark.parametrize("case", sorted(DEG1_CASES))
def test_loop_verdicts_match_relative_cochain_oracle(case):
    # one complex per family, so later face sets read the cached y of
    # each loop; the verdict must not depend on which face set came first
    box, d, base_faces, linked, _ = DEG1_CASES[case]
    rng = np.random.default_rng(53)
    K = build_grid_complex(len(box), list(box))
    base = base_faces(K)
    loops = box_loops(box)
    trials = 3 if len(box) == 4 else 8
    verdicts = set()
    for trial in range(trials):
        extra = rng.choice(K.n_simplices(d), size=trial % 4,
                           replace=False).tolist()
        F = FaceSet(K, d, tuple(extra) + (base if trial % 2 == 0 else ()))
        model = ComplementModel(K, F, max_dim=2)
        picked = [loops[i] for i in rng.choice(len(loops), size=6,
                                               replace=False)]
        for loop, status in zip(linked + picked,
                                model.check(linked + picked)):
            if touches(model, loop):
                assert status.reason == "contact"
                continue
            raw = _realize_raw(loop, K)
            want = ("null-homologous" if oracle.bounds_deg1(model, raw)
                    else "nontrivial")
            assert status.reason == want
            verdicts.add(want)
    assert verdicts == {"null-homologous", "nontrivial"}


@pytest.mark.parametrize("case", sorted(DEG1_CASES))
def test_loop_right_hand_side_per_face_matches_the_closure_oracle(case):
    # y read per face of F and joined, against y restricted to the
    # (n-2)-simplices of cl F off dK, for d = n-2 and d = n-1, on random
    # face sets with and without faces that carry y
    box, _, _, linked, _ = DEG1_CASES[case]
    K = build_grid_complex(len(box), list(box))
    n = K.dim
    loops = box_loops(box)
    rng = np.random.default_rng(67)
    picked = linked + [loops[i] for i in rng.choice(len(loops), size=3,
                                                    replace=False)]
    seen = set()
    for d in (n - 2, n - 1):
        for loop in picked:
            rec = _resolve(K, loop, d)
            y = _cobound(K, _realize_raw(loop, K), *rec.box)
            per_face = _loop_y(K, rec, d)
            assert set(per_face) <= rec.reach
            for trial in range(6):
                faces = rng.choice(K.n_simplices(d), size=trial,
                                   replace=False).tolist()
                if trial % 2 and per_face:
                    faces += rng.choice(sorted(per_face), size=2).tolist()
                got = dict(t for f in faces for t in per_face.get(f, ()))
                assert got == loop_rhs_by_closure(K, y, d, faces)
                seen.add(bool(got))
    assert seen == {True, False}


@pytest.mark.parametrize("case", ["3d-tube", "4d-planes"])
def test_loop_check_off_y_builds_no_closure(case, monkeypatch):
    # a face set with no face that carries y bounds the loop at once, in
    # `check` as in the pool predicate: cl F is not built and the wall
    # rule does not run; a face set that links the loops needs both
    calls = []
    for name in ("_closure_rows", "_off_walls"):
        def counted(*args, fn=getattr(spanmin.complement, name), name=name):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(spanmin.complement, name, counted)
    box, d, base_faces, linked, _ = DEG1_CASES[case]
    K = build_grid_complex(len(box), list(box))
    recs = [_resolve(K, loop, d) for loop in linked]
    busy = set().union(*(set(_loop_y(K, rec, d)) | rec.touching
                         for rec in recs))
    calls.clear()
    free = [f for f in range(K.n_simplices(d)) if f not in busy]
    F = FaceSet(K, d, free[::max(1, len(free) // 12)])
    assert len(F) >= 8
    reasons = [s.reason for s in complement_subcomplex(K, F).check(linked)]
    assert reasons == ["null-homologous"] * len(linked)
    spans = spanning_predicate(K, linked, d, F.faces)
    assert not spans((1 << len(F)) - 1)
    assert calls == []
    F = FaceSet(K, d, base_faces(K))
    assert all(s.passed for s in complement_subcomplex(K, F).check(linked))
    assert set(calls) == {"_closure_rows", "_off_walls"}


def test_cycles_below_their_codimension_bound_as_in_the_box():
    # a degree-g cycle with d < n-1-g: cl F has no (n-g-1)-cochains, so
    # the record holds the box's verdict, that the cycle bounds; against
    # the subdivision, on loops with d = 0 in 3D, and on loops with
    # d = 0, 1 and boundaries of tetrahedra with d = 0 in 4D
    cases = [((2, 2, 2), 0, 1), ((1, 1, 1, 1), 0, 1), ((1, 1, 1, 1), 1, 1),
             ((1, 1, 1, 1), 0, 2)]
    rng = np.random.default_rng(71)
    for box, d, g in cases:
        K = build_grid_complex(len(box), list(box))
        if g == 1:
            loops = box_loops(box)
            cycles = [loops[i] for i in rng.choice(len(loops), size=3,
                                                   replace=False)]
        else:
            cycles = [ConstraintCycle(kind="cycle", degree=2,
                                      items=boundary_items(K, K.simplex(3, j)))
                      for j in rng.choice(K.n_simplices(3), size=3,
                                          replace=False)]
        checked = 0
        for trial, c in enumerate(cycles):
            assert _resolve(K, c, d).verdict == "null-homologous"
            faces = rng.choice(K.n_simplices(d), size=trial,
                               replace=False).tolist()
            model = complement_subcomplex(K, FaceSet(K, d, faces),
                                          max_dim=g + 1)
            [status] = model.check([c])
            if status.reason == "contact":
                continue
            null, _ = is_null_homologous(oracle.realize(c, model))
            assert null and status.reason == "null-homologous"
            checked += 1
        assert checked


def deg0_face_sets():
    """The face sets of the degree-0 and homology oracle tests."""
    for box, d, size in DEG0_CASES:
        K = build_grid_complex(len(box), list(box))
        rng = np.random.default_rng(sum(box) * 10 + d)
        for trial in range(6):
            n_faces = int(rng.integers(0, size + 1)) if trial else 0
            faces = rng.choice(K.n_simplices(d), size=n_faces, replace=False)
            faces = tuple(faces.tolist())
            if trial == 1:
                faces = wall_faces(K, d) or faces
            yield FaceSet(K, d, faces)
    for box, d in HOMOLOGY_CASES:
        K = build_grid_complex(len(box), list(box))
        rng = np.random.default_rng(sum(box) * 10 + d)
        for trial in range(4):
            extra = rng.choice(K.n_simplices(d),
                               size=int(rng.integers(0, 2 * K.dim)),
                               replace=False).tolist()
            yield FaceSet(K, d, tuple(extra) + (
                sphere_faces(K, d) if trial % 2 == 0 else ()))


def test_reduced_h0_is_top_relative_cohomology():
    # k = 0: `homology(0)` is H^{n-1}(cl F, cl F n dK), the reduced H_0 of
    # the complement, plus one Z; against the whole-box relative cochains
    # and the components of a union-find over the subdivision
    components = set()
    for F in deg0_face_sets():
        model = complement_subcomplex(F.complex, F, max_dim=1)
        h0 = model.homology(0)
        assert h0.torsion == ()
        assert oracle.homology(model, 0).rank == h0.rank
        good, labels = subdivision_oracle(F.complex, F)
        assert len({labels[u] for u in np.flatnonzero(good).tolist()}) == (
            h0.rank)
        components.add(h0.rank)
    assert {1, 2} <= components


RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5), (1, 2, 4),
       (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]


def relative_simplices(K, sub=()):
    """Per dimension: the simplices of K outside the subcomplex spanned by
    the simplices `sub` (vertex tuples)."""
    drop = {s for t in sub for r in range(1, len(t) + 1)
            for s in itertools.combinations(t, r)}
    return {r: {i for i, s in enumerate(K.simplices(r)) if s not in drop}
            for r in range(K.dim + 1)}


def test_relative_cohomology_reports_torsion():
    # the six-vertex projective plane: H^2 = Z/2; without one open
    # triangle it is a Moebius band M, and H^2(M, dM) = Z/2 as well
    coords = [(i,) for i in range(6)]
    P = Complex.from_maximal(RP2, coords)
    assert homology_group(P, 1).torsion == (2,)
    A = relative_simplices(P)
    assert [_relative_cohomology(P, A, j, {}) for j in range(3)] == [
        (1, ()), (0, ()), (0, (2,))]
    M = Complex.from_maximal(RP2[1:], coords)
    A = relative_simplices(M, [(0, 1), (1, 2), (0, 2)])
    assert [_relative_cohomology(M, A, j, {}) for j in range(3)] == [
        (0, ()), (0, ()), (0, (2,))]


# a Moebius band of seven unit squares with vertices in {1, 2, 3}^3 (the
# strip turns through three axis planes and comes back flipped)
MOEBIUS_SQUARES = [
    ((1, 1, 1), (2, 1, 2)), ((2, 1, 1), (3, 1, 2)), ((2, 1, 1), (3, 2, 1)),
    ((2, 2, 1), (3, 3, 1)), ((1, 2, 1), (2, 3, 1)), ((1, 2, 1), (2, 2, 2)),
    ((1, 1, 1), (1, 2, 2))]


def moebius_faces(K, width):
    """The band scaled by `width` (each square cut into width x width unit
    squares, vertices in {1, ..., 2 width + 1}^3) in the slice x4 = 1 of a
    box 2 width + 2 wide, each unit square split along its diagonal, plus
    a collar of squares from its boundary circle down to x4 = 0."""
    at = lambda p, h: K.grid.vertex_at(tuple(p) + (h,))
    triangles = []
    for lo, hi in MOEBIUS_SQUARES:
        a, b = [ax for ax in range(3) if lo[ax] != hi[ax]]
        for i, j in itertools.product(range(width), repeat=2):
            p = [1 + width * (c - 1) for c in lo]
            p[a] += i
            p[b] += j
            for ax in (a, b):
                q = list(p)
                q[ax] += 1
                r = list(q)
                r[a + b - ax] += 1
                triangles.append((tuple(p), tuple(q), tuple(r)))
    edges = {}
    for t in triangles:
        for e in itertools.combinations(t, 2):
            edges[e] = edges.get(e, 0) + 1
    faces = [K.index(tuple(sorted(at(p, 1) for p in t))) for t in triangles]
    for u, w in (e for e, c in edges.items() if c == 1):
        for corners in ((at(u, 0), at(u, 1), at(w, 1)),
                        (at(u, 0), at(w, 0), at(w, 1))):
            faces.append(K.index(tuple(sorted(corners))))
    return tuple(faces)


def test_moebius_band_complement_has_torsion():
    # H_1 of the complement is H^2(M, dM) = Z/2 for the band M (its
    # boundary reaches dK through the collar): torsion on a grid face set,
    # against the whole-box oracle
    K = build_grid_complex(4, [4, 4, 4, 2])
    F = FaceSet(K, 2, moebius_faces(K, 1))
    assert len(F) == 42
    model = complement_subcomplex(K, F, max_dim=2)
    for k in range(5):
        h, want = model.homology(k), oracle.homology(model, k)
        assert (h.rank, h.torsion) == (want.rank, want.torsion)
    assert (model.homology(1).rank, model.homology(1).torsion) == (0, (2,))


def test_moebius_meridian_is_two_torsion():
    # on a band two squares wide, a meridian around the interior vertex
    # (1, 2, 2) in the (x1, x4) plane stays nontrivial and the loop run
    # twice bounds: the loop path decides over Z, as the oracle does
    K = build_grid_complex(4, [6, 6, 6, 2])
    model = complement_subcomplex(K, FaceSet(K, 2, moebius_faces(K, 2)),
                                  max_dim=2)
    assert (model.homology(1).rank, model.homology(1).torsion) == (0, (2,))
    meridian = rectangle_loop((0, 3), (0, 0), (2, 2), (1, 2, 2, 0))
    twice = ConstraintCycle(kind="loop", points=meridian.points * 2)
    assert [s.reason for s in model.check([meridian, twice])] == [
        "nontrivial", "null-homologous"]
    for loop, bounds in ((meridian, False), (twice, True)):
        raw = _realize_raw(loop, K)
        assert oracle.bounds_deg1(model, raw) == bounds


def test_exhaustive_solve_same_with_loop_cache_cold_and_warm(monkeypatch):
    # the wire through the cube links the middle meridian; the per-loop
    # cochain is solved once per complex and reused by every candidate
    calls = []
    cobound = spanmin.complement._cobound

    def counted(*args):
        calls.append(args)
        return cobound(*args)

    monkeypatch.setattr(spanmin.complement, "_cobound", counted)
    box = (2, 2, 2)
    loop = meridians(box, (1,))
    weight = WeightField.uniform(1.0)
    results = []
    for _ in range(2):
        K = build_grid_complex(3, list(box))
        wire = lattice_faces(K, [((0, 1, 1), (1, 1, 1)),
                                 ((1, 1, 1), (2, 1, 1))])
        rng = np.random.default_rng(11)
        others = [f for f in range(K.n_simplices(1)) if f not in wire]
        pool = FaceSet(K, 1, wire + tuple(
            rng.choice(others, size=8, replace=False).tolist()))
        cold = minimize_exhaustive(K, loop, weight, pool)
        assert len(calls) == 1
        warm = minimize_exhaustive(K, loop, weight, pool)
        assert len(calls) == 1
        assert (cold.faces.faces, cold.objective, cold.evaluations) == (
            warm.faces.faces, warm.objective, warm.evaluations)
        assert cold.faces.faces == tuple(sorted(wire))
        results.append((cold.faces.faces, cold.objective, cold.evaluations))
        calls.clear()
    assert results[0] == results[1]


def test_loop_cochain_is_solved_only_for_face_sets_that_reach_it(monkeypatch):
    # 2^4 box, the two linking loops: the empty set meets neither loop's
    # `reach` and solves no cochain, the plane x3 = x4 = 1 meets only the
    # first loop's, and the two planes both; each verdict is the one of a
    # record whose cochains were all solved up front, through `check` and
    # through the pool predicate alike
    calls = []
    cobound = spanmin.complement._cobound

    def counted(*args):
        calls.append(args)
        return cobound(*args)

    monkeypatch.setattr(spanmin.complement, "_cobound", counted)
    box = (2, 2, 2, 2)
    loops = linking_loops(box)

    def faces(K, name):
        if name == "plane":
            return tuple(i for i, s in enumerate(K.simplices(2))
                         if all(K.grid.points[v][2:] == (1, 1) for v in s))
        if name == "two planes":
            return generate_faceset("two-planes-orthogonal", K, 2).faces
        return ()

    eager = build_grid_complex(4, list(box))
    for loop in loops:
        _loop_y(eager, _resolve(eager, loop, 2), 2)
    null, linked = "null-homologous", "nontrivial"
    for name, solves, verdicts in (("empty", 0, [null, null]),
                                   ("plane", 1, [linked, null]),
                                   ("two planes", 2, [linked, linked])):
        want = [s.reason for s in complement_subcomplex(
            eager, FaceSet(eager, 2, faces(eager, name))).check(loops)]
        assert want == verdicts
        for route in ("check", "predicate"):
            K = build_grid_complex(4, list(box))
            calls.clear()
            F = FaceSet(K, 2, faces(K, name))
            if route == "check":
                got = [s.reason for s in
                       complement_subcomplex(K, F).check(loops)]
                assert got == want
            else:
                spans = spanning_predicate(K, loops, 2, F.faces)
                assert spans((1 << len(F)) - 1) == (want == [linked] * 2)
            assert len(calls) == solves, (name, route)
    assert want == ["nontrivial"] * 2


def test_positive_degrees_need_a_grid_built_complex():
    # the duality needs K to be a ball and reads dK from lattice
    # coordinates; a complex given by its top simplices carries neither
    # promise, so every degree, 0 included, refuses it
    K = Complex.from_maximal([(0, 1, 2), (1, 2, 3)],
                             coords=[(0, 0), (1, 0), (0, 1), (1, 1)])
    model = complement_subcomplex(K, FaceSet(K, 1, (K.index((1, 2)),)))
    for k in (0, 1, 2):
        with pytest.raises(PreconditionError, match="grid-built"):
            model.homology(k)
