"""Complement models, constraint realization, spanning and competitor checks."""

import itertools
import random
import warnings

import numpy as np
import pytest

from spanmin import (Chain, Complex, ConstraintCycle, FaceSet,
                     InvalidInputError, PreconditionError, RealizationError,
                     Region, WeightField, boundary, build_grid_complex,
                     competitor_check, complement_subcomplex,
                     free_collapse_candidates, homology_group,
                     is_null_homologous, is_spanning, minimize_local,
                     spanning_check, spanning_predicate)
from spanmin.complement import (ComplementModel, _dual_graph, _first_tops,
                                _loop_box, _realize_raw, _resolve,
                                _support_vertices)
import spanmin.homology
from spanmin.complexes import _boundary_columns, _kuhn_tops
from spanmin.problems import generate_faceset, linking_loops

import relative_cochains as oracle
from loop_oracles import (dual_graph_by_cofacets, faces_in_box_by_scan,
                          first_top_by_scan, pairs_span_by_search,
                          top_by_walk, touching_by_scan)


def separating_row(K):
    """All horizontal edges across the middle of a 2D grid box."""
    return generate_faceset("separating-row", K, 1)


def pool_spans(K, constraints, F, extra):
    """`spanning_predicate` on F as the state of a pool of F's faces and
    `extra` d-faces."""
    pool = sorted(set(F.faces) | set(extra))
    state = sum(1 << p for p, f in enumerate(pool) if f in F.faces)
    return spanning_predicate(K, constraints, F.dim, pool)(state)


def per_top(dual):
    """A flat `_dual_graph` as per-top lists of (facet, top across)."""
    return [list(zip(dual.facet[a:b], dual.top[a:b]))
            for a, b in zip(dual.start, dual.start[1:])]


def point_pair(box):
    mid = box[1] // 2
    return ConstraintCycle(kind="point-pair",
                           points=((0, 0), (0, box[1])))


# -- constraint validation ----------------------------------------------------

def test_constraint_kind_validation():
    with pytest.raises(InvalidInputError):
        ConstraintCycle(kind="sphere", points=((0, 0),))
    with pytest.raises(InvalidInputError):
        ConstraintCycle(kind="point-pair", points=((0, 0),))
    with pytest.raises(InvalidInputError):
        ConstraintCycle(kind="loop", points=((0, 0),))
    assert ConstraintCycle(kind="point-pair",
                           points=((0, 0), (1, 1))).degree == 0
    assert ConstraintCycle(kind="loop",
                           points=((0, 0), (1, 0), (1, 1))).degree == 1
    with pytest.raises(InvalidInputError):
        ConstraintCycle(kind="cycle", degree=-1)


def test_constraint_rejects_fields_its_kind_ignores():
    # on the 4x4 separating row, a stray term at (2, 2) would count as a
    # vertex of the cycle and put it in contact, though the cycle itself,
    # the 0-cycle (0, 4) - (0, 0) in both forms, passes
    K = build_grid_complex(2, [4, 4])
    row = separating_row(K)
    ends = ((0, 0), (0, 4))
    terms = ((((0, 0),), -1), (((0, 4),), 1))
    stray = ((((2, 2),), 1),)
    clean = [ConstraintCycle(kind="point-pair", points=ends),
             ConstraintCycle(kind="cycle", degree=0, items=terms)]
    assert [s.reason for s in spanning_check(K, row, clean)] == [
        "nontrivial", "nontrivial"]
    with pytest.raises(InvalidInputError, match="not items"):
        ConstraintCycle(kind="point-pair", points=ends, items=stray)
    with pytest.raises(InvalidInputError, match="not points"):
        ConstraintCycle(kind="cycle", degree=0, points=((2, 2),), items=terms)
    with pytest.raises(InvalidInputError, match="not items"):
        ConstraintCycle(kind="loop", points=ends + ((4, 4),), items=stray)
    # a point pair is a 0-cycle and a loop a 1-cycle, whatever is passed
    with pytest.raises(InvalidInputError, match="degree 0, not 7"):
        ConstraintCycle(kind="point-pair", points=ends, degree=7)
    with pytest.raises(InvalidInputError, match="degree 1, not 0"):
        ConstraintCycle(kind="loop", points=ends + ((4, 4),), degree=0)
    assert ConstraintCycle(kind="point-pair", points=ends, degree=0) == clean[0]


def test_constraint_rejects_coordinates_that_are_not_integers():
    # (2, 0.9) used to become the pair (2, 0)-(2, 4) and be checked; a nan
    # raised ValueError; numpy integers and integral floats are points
    for bad in (0.9, 1.5, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError, match="not an integer"):
            ConstraintCycle(kind="point-pair", points=((2, bad), (2, 4)))
        with pytest.raises(InvalidInputError, match="not an integer"):
            ConstraintCycle(kind="loop", points=((0, 0), (bad, 0), (1, 1)))
        with pytest.raises(InvalidInputError, match="not an integer"):
            ConstraintCycle(kind="cycle", degree=0,
                            items=((((bad, 0),), 1), (((0, 4),), -1)))
    pair = ConstraintCycle(kind="point-pair", points=((2, 0), (2, 4)))
    assert ConstraintCycle(kind="point-pair", points=(
        np.array([2, 0]), (np.int64(2), 4.0))) == pair
    assert ConstraintCycle(kind="cycle", degree=0, items=[
        ([(np.int64(2), 0)], -1), ([(2, 4)], 1)]).items == (
        (((2, 0),), -1), (((2, 4),), 1))


# -- complement model ---------------------------------------------------------

def test_single_interior_edge_does_not_separate():
    K = build_grid_complex(2, [2, 2])
    v0, v1 = K.grid.vertex_at((1, 1)), K.grid.vertex_at((2, 1))
    e = K.index(tuple(sorted((v0, v1))))
    model = complement_subcomplex(K, FaceSet(K, 1, (e,)), max_dim=1)
    assert model.homology(0).rank == 1


def test_separating_row_two_components():
    K = build_grid_complex(2, [2, 2])
    model = complement_subcomplex(K, separating_row(K), max_dim=1)
    assert model.homology(0).rank == 2


def test_separating_row_with_gap_reconnects():
    K = build_grid_complex(2, [2, 2])
    F = separating_row(K)
    gapped = F.difference(F.faces[:1])
    model = complement_subcomplex(K, gapped, max_dim=1)
    assert model.homology(0).rank == 1


def test_4d_plane_complement_h1():
    K = build_grid_complex(4, [2, 2, 2, 2])
    c = [b // 2 for b in K.grid.box]
    faces = tuple(
        i for i, s in enumerate(K.simplices(2))
        if all(K.grid.points[v][2] == c[2] and K.grid.points[v][3] == c[3]
               for v in s))
    model = complement_subcomplex(K, FaceSet(K, 2, faces), max_dim=2)
    h1 = model.homology(1)
    assert (h1.rank, h1.torsion) == (1, ())


def test_wrong_complex_rejected():
    K1 = build_grid_complex(2, [1, 1])
    K2 = build_grid_complex(2, [1, 1])
    with pytest.raises(PreconditionError):
        ComplementModel(K1, FaceSet(K2, 1, ()), max_dim=1)


# -- realization and spanning -------------------------------------------------

def test_point_pair_realizes_as_zero_cycle():
    # the pair p, q is the 0-cycle q - p on K
    K = build_grid_complex(2, [2, 2])
    chain = _realize_raw(point_pair(K.grid.box), K)
    p, q = K.grid.vertex_at((0, 0)), K.grid.vertex_at((0, 2))
    assert chain == {(q,): 1, (p,): -1}


def test_loop_realizes_as_cycle():
    K = build_grid_complex(2, [3, 3])
    loop = ConstraintCycle(kind="loop", points=(
        (0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)))
    chain = _realize_raw(loop, K)
    assert len(chain) == 8 and all(len(s) == 2 for s in chain)
    assert boundary(Chain(K, 1, {K.index(s): c
                                 for s, c in chain.items()})).is_zero()


def test_loop_must_follow_grid_edges():
    K = build_grid_complex(2, [3, 3])
    bad = ConstraintCycle(kind="loop", points=((0, 0), (2, 0), (0, 2)))
    with pytest.raises(RealizationError):
        _realize_raw(bad, K)
    # no face set changes that: every check reports contact
    [status] = spanning_check(K, FaceSet(K, 1, ()), [bad])
    assert status.reason == "contact"


def test_spanning_check_pass_and_fail():
    K = build_grid_complex(2, [2, 2])
    F = separating_row(K)
    cons = [point_pair(K.grid.box)]
    [status] = spanning_check(K, F, cons)
    assert status.passed and status.reason == "nontrivial"
    # removing one edge opens a gap: the pair bounds
    gapped = F.difference(F.faces[:1])
    [status] = spanning_check(K, gapped, cons)
    assert not status.passed and status.reason == "null-homologous"


def test_spanning_check_contact_reason():
    K = build_grid_complex(2, [2, 2])
    F = separating_row(K)
    touching = ConstraintCycle(kind="point-pair", points=((0, 1), (2, 2)))
    [status] = spanning_check(K, F, [touching])
    assert not status.passed and status.reason == "contact"


def test_spanning_check_degenerate_reason():
    K = build_grid_complex(2, [2, 2])
    degenerate = ConstraintCycle(kind="point-pair", points=((0, 0), (0, 0)))
    [status] = spanning_check(K, FaceSet(K, 1, ()), [degenerate])
    assert not status.passed and status.reason == "degenerate"


def test_checks_emit_no_warning():
    K = build_grid_complex(2, [2, 2])
    empty = FaceSet(K, 1, ())
    pair = ConstraintCycle(kind="point-pair", points=((0, 0), (0, 0)))
    loop = ConstraintCycle(kind="loop", points=((0, 0), (1, 0)))  # cancels
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        statuses = spanning_check(K, empty, [pair, loop])
        assert not is_spanning(K, empty, [pair])
    assert [s.reason for s in statuses] == ["degenerate", "degenerate"]


def test_degree0_cycle_matches_point_pair():
    K = build_grid_complex(2, [2, 2])
    F = separating_row(K)
    cases = [(FaceSet(K, 1, ()), ((0, 0), (2, 2)), "null-homologous"),
             (F, ((0, 0), (0, 2)), "nontrivial"),
             (F, ((0, 1), (2, 2)), "contact")]
    for faces, (p, q), reason in cases:
        pair = ConstraintCycle(kind="point-pair", points=(p, q))
        cycle = ConstraintCycle(kind="cycle", degree=0,
                                items=(((q,), 1), ((p,), -1)))
        assert spanning_check(K, faces, [pair, cycle]) == spanning_check(
            K, faces, [pair, pair])
        assert spanning_check(K, faces, [cycle])[0].reason == reason
        assert _realize_raw(cycle, K) == _realize_raw(pair, K)


def test_4d_linking_loop_spanning():
    K = build_grid_complex(4, [2, 2, 2, 2])
    F = generate_faceset("two-planes-orthogonal", K, 2)
    loops = linking_loops(K.grid.box)
    assert is_spanning(K, F, loops)
    # dropping the plane linked by the first loop kills that constraint
    c = [b // 2 for b in K.grid.box]
    first_plane = tuple(
        i for i in F.faces
        if all(K.grid.points[v][2] == c[2] and K.grid.points[v][3] == c[3]
               for v in K.simplex(2, i)))
    statuses = spanning_check(K, F.difference(first_plane), loops)
    assert not statuses[0].passed
    assert statuses[1].passed


def test_union_find_oracle_agreement():
    # degree-0 verdicts match a direct reachability computation
    rng = np.random.default_rng(19)
    K = build_grid_complex(2, [3, 3])
    ne = K.n_simplices(1)
    cons = [ConstraintCycle(kind="point-pair", points=((0, 0), (3, 3)))]
    for _ in range(25):
        faces = tuple(sorted(rng.choice(ne, size=10, replace=False).tolist()))
        F = FaceSet(K, 1, faces)
        [status] = spanning_check(K, F, cons)
        if status.reason == "contact":
            continue
        # a vertex's subdivision id is its vertex id
        _, labels = subdivision_oracle(K, F)
        u, v = K.grid.vertex_at((0, 0)), K.grid.vertex_at((3, 3))
        assert status.passed == (labels[u] != labels[v])


def touches(model, c):
    """True iff the removed set holds one of the constraint's lattice
    points (a vertex's subdivision id is its vertex id)."""
    return any(model.bad[model.K.grid.vertex_at(p)] for p in c.points)


def rectangle_loop(axes, lo, hi, base):
    """Closed lattice loop around the rectangle lo..hi in the plane of two
    axes through the lattice point `base`, in unit steps."""
    a, b = axes

    def at(u, v):
        p = list(base)
        p[a], p[b] = u, v
        return tuple(p)

    return ConstraintCycle(kind="loop", points=tuple(
        [at(u, lo[1]) for u in range(lo[0], hi[0])]
        + [at(hi[0], v) for v in range(lo[1], hi[1])]
        + [at(u, hi[1]) for u in range(hi[0], lo[0], -1)]
        + [at(lo[0], v) for v in range(hi[1], lo[1], -1)]))


def box_loops(box):
    """Every lattice rectangle loop in every coordinate plane of the box."""
    n = len(box)
    loops = []
    for a in range(n):
        for b in range(a + 1, n):
            rest = [ax for ax in range(n) if ax not in (a, b)]
            bases = itertools.product(*[range(box[ax] + 1) for ax in rest])
            for fixed in bases:
                base = [0] * n
                for ax, c in zip(rest, fixed):
                    base[ax] = c
                for x0, x1 in itertools.combinations(range(box[a] + 1), 2):
                    for y0, y1 in itertools.combinations(range(box[b] + 1), 2):
                        loops.append(rectangle_loop((a, b), (x0, y0),
                                                    (x1, y1), base))
    return loops


def lattice_faces(K, corners):
    """Indices of the simplices of K with the given lattice vertices."""
    return tuple(K.index(tuple(sorted(K.grid.vertex_at(p) for p in c)))
                 for c in corners)


def tube_corners():
    """Triangles of the tube [0,3] x [1,2] x [1,2] around the x axis (its
    four side walls, open at both ends) in the 3^3 grid."""
    out = []
    for x in range(3):
        for fixed_ax, c, free_ax in ((1, 1, 2), (1, 2, 2), (2, 1, 1),
                                     (2, 2, 1)):
            def at(dx, t):
                p = [x + dx, 0, 0]
                p[fixed_ax], p[free_ax] = c, 1 + t
                return tuple(p)
            # the grid splits each square along its main diagonal
            out.append((at(0, 0), at(1, 0), at(1, 1)))
            out.append((at(0, 0), at(0, 1), at(1, 1)))
    return out


def meridians(box, xs):
    """Loops around the x axis: the outlines of the cross-sections at xs."""
    return [rectangle_loop((1, 2), (0, 0), (box[1], box[2]), (x, 0, 0))
            for x in xs]


def two_planes_clutter(K):
    """The two orthogonal coordinate planes of a 4D box plus four seeded
    2-faces that share no vertex with the linking loops."""
    two = generate_faceset("two-planes-orthogonal", K, 2).faces
    on_loops = {K.grid.vertex_at(p) for c in linking_loops(K.grid.box)
                for p in c.points}
    candidates = [i for i, s in enumerate(K.simplices(2))
                  if i not in two and not on_loops & set(s)]
    rng = np.random.default_rng(7)
    return two + tuple(rng.choice(candidates, size=4, replace=False).tolist())


DEG1_CASES = {
    # (box, face dim, base faces, loops linking them, trials)
    # interior edge in a square: the outer loop goes around it
    "2d-edge": ((3, 3), 1, lambda K: lattice_faces(K, [((1, 1), (2, 1))]),
                [rectangle_loop((0, 1), (0, 0), (3, 3), (0, 0))], 4),
    # an edge path across the cube from face to face
    "3d-wire": ((2, 2, 2), 1,
                lambda K: lattice_faces(K, [((0, 1, 1), (1, 1, 1)),
                                            ((1, 1, 1), (2, 1, 1))]),
                meridians((2, 2, 2), (0, 1, 2)), 4),
    # a tube of triangles open at both ends
    "3d-tube": ((3, 3, 3), 2, lambda K: lattice_faces(K, tube_corners()),
                meridians((3, 3, 3), (0, 2)), 4),
    # two planes and clutter, linked by loops on the boundary of the box;
    # one trial, since each full-complex solve in 4D takes seconds
    "4d-planes": ((2, 2, 2, 2), 2, two_planes_clutter,
                  linking_loops((2, 2, 2, 2)), 1),
}


@pytest.mark.parametrize("case", sorted(DEG1_CASES))
def test_deg1_fast_path_matches_full_complex_oracle(case):
    # the loop verdict of `check` (a cochain y solved once per loop, then
    # y|cl F tested on cl F) against the plain sparse solve on the whole
    # complement complex, with a witness check on every yes
    box, d, base_faces, linked, trials = DEG1_CASES[case]
    rng = np.random.default_rng(31)
    K = build_grid_complex(len(box), list(box))
    base = base_faces(K)
    loops = box_loops(box)
    verdicts = set()
    for trial in range(trials):
        extra = rng.choice(K.n_simplices(d), size=trial % 3,
                           replace=False).tolist()
        faces = tuple(extra) + (base if trial % 2 == 0 else ())
        model = complement_subcomplex(K, FaceSet(K, d, faces), max_dim=2)
        picked = [loops[i] for i in rng.choice(len(loops), size=2,
                                               replace=False)]
        for loop in linked + picked:
            [status] = model.check([loop])
            if touches(model, loop):
                assert status.reason == "contact"
                continue
            fast = status.reason == "null-homologous"
            chain = oracle.realize(loop, model)
            null, witness = is_null_homologous(chain)
            assert fast == null
            if null:
                assert boundary(witness) == chain
            verdicts.add(fast)
    assert verdicts == {True, False}


@pytest.mark.parametrize("case", sorted(DEG1_CASES))
def test_first_top_matches_a_scan_on_the_loops(case):
    # the top rule of `_resolve` and `_cobound`, on the whole box and on
    # each loop's sub-box (its vertices grown by one and clipped to the
    # box), for every vertex and edge of the loop, asked one at a time
    # and all in one pass
    box, _, _, linked, _ = DEG1_CASES[case]
    K = build_grid_complex(len(box), list(box))
    for loop in linked:
        edges = list(_realize_raw(loop, K))
        at = list(zip(*(K.grid.points[v] for e in edges for v in e)))
        lo = [max(min(c) - 1, 0) for c in at]
        hi = [min(max(c) + 1, b) for c, b in zip(at, box)]
        assert _loop_box(K, _support_vertices(K, loop)) == (tuple(lo),
                                                             tuple(hi))
        sub, _ = _kuhn_tops([b + 1 for b in box], lo, hi)
        held = edges + sorted({(v,) for e in edges for v in e})
        for tops in (K.rows(K.dim), sub):
            rows = tops.tolist()
            want = [first_top_by_scan(rows, s) for s in held]
            assert _first_tops(tops, held) == want
            assert [_first_tops(tops, [s])[0] for s in held] == want


HOMOLOGY_CASES = [((3, 3), 0), ((3, 3), 1), ((2, 2, 2), 1), ((2, 2, 2), 2),
                  ((1, 1, 1, 1), 1), ((1, 1, 1, 1), 2), ((1, 1, 1, 1), 3)]


@pytest.mark.parametrize("box,d", HOMOLOGY_CASES)
def test_duality_homology_matches_subdivision_oracle(box, d):
    # H_k from K's relative cochains against H_k of the whole complement
    # complex in the subdivision, rank and torsion, for k = 1..n-1
    n = len(box)
    rng = np.random.default_rng(sum(box) * 10 + d)
    K = build_grid_complex(n, list(box))
    # the boundary of a (d+1)-face of the middle top simplex through its
    # long diagonal (in the unit 4D box the only edge inside the box)
    top = K.simplex(n, K.n_simplices(n) // 2)
    sphere = tuple(K.index(s) for s in itertools.combinations(
        top[:d + 1] + top[-1:], d + 1))
    ranks = []
    for trial in range(4):
        extra = rng.choice(K.n_simplices(d), size=int(rng.integers(0, 2 * n)),
                           replace=False).tolist()
        faces = tuple(extra) + (sphere if trial % 2 == 0 else ())
        model = complement_subcomplex(K, FaceSet(K, d, faces))
        for k in range(1, n):
            h = model.homology(k)
            want = homology_group(oracle.complement_complex(model), k)
            assert (h.rank, h.torsion) == (want.rank, want.torsion)
            ranks.append(h.rank)
    assert any(ranks)


def test_homology_ignores_truncated_skeleton():
    # a model truncated to its 1-skeleton still reports the complement's
    # homology, not that of the truncated subdivision
    K = build_grid_complex(2, [3, 3])
    model = complement_subcomplex(K, FaceSet(K, 1, ()), max_dim=1)
    assert model.homology(1).is_trivial()
    assert model.homology(2).is_trivial()
    with pytest.raises(InvalidInputError):
        model.homology(3)


def sphere_cycle(K):
    """The boundary sphere of a 3D box as a degree-2 `cycle` constraint:
    the boundary of the sum of all tetrahedra, each oriented by the sign of
    its determinant."""
    pts = K.grid.points
    coeffs = {}
    for j, s in enumerate(K.simplices(3)):
        p0 = np.array(pts[s[0]])
        det = np.linalg.det([np.array(pts[v]) - p0 for v in s[1:]])
        coeffs[j] = 1 if det > 0 else -1
    z = boundary(Chain(K, 3, coeffs))
    return ConstraintCycle(kind="cycle", degree=2, items=tuple(
        (tuple(pts[v] for v in K.simplex(2, i)), c)
        for i, c in sorted(z.coeffs.items())))


def test_degree2_cycle_constraint_sphere():
    K = build_grid_complex(3, [3, 3, 3])
    sphere = sphere_cycle(K)
    assert len(sphere.items) == 6 * 9 * 2
    edge = lattice_faces(K, [((1, 1, 1), (2, 1, 1))])
    [status] = spanning_check(K, FaceSet(K, 1, edge), [sphere])
    assert status.passed and status.reason == "nontrivial"
    empty = FaceSet(K, 1, ())
    [status] = spanning_check(K, empty, [sphere])
    assert not status.passed and status.reason == "null-homologous"
    chain = oracle.realize(sphere, complement_subcomplex(K, empty))
    null, witness = is_null_homologous(chain)
    assert null and boundary(witness) == chain


def test_truncated_subdivision_rejects_high_degree_cycle():
    # the sphere bounds only through 3-simplices of the subdivision, so a
    # model truncated below them cannot decide it
    K = build_grid_complex(3, [3, 3, 3])
    sphere = sphere_cycle(K)
    empty = FaceSet(K, 1, ())
    for max_dim in (1, 2):
        with pytest.raises(PreconditionError):
            complement_subcomplex(K, empty, max_dim=max_dim).check([sphere])


def test_truncated_subdivision_answers_a_fixed_verdict():
    # a 2-cycle in 4D with d = 0 < n-1-g bounds whatever the vertices
    # removed (cl F has no 1-cochains), a verdict its record holds, so a
    # model truncated to its 1-skeleton reads no subdivision and answers
    # as the full check does
    K = build_grid_complex(4, [1, 1, 1, 1])
    tet = K.simplex(3, 0)
    cycle = ConstraintCycle(kind="cycle", degree=2,
                            items=boundary_items(K, tet))
    off = next(v for v in range(K.n_simplices(0)) if v not in tet)
    for faces in ((), (off,)):
        F = FaceSet(K, 0, faces)
        [status] = complement_subcomplex(K, F, max_dim=1).check([cycle])
        assert status.reason == "null-homologous"
        assert spanning_check(K, F, [cycle]) == [status]
    # in 3D, d = 0 is not below n-1-g = 0: whether the boundary sphere
    # bounds depends on the vertices removed, so it is left to the
    # subdivision, which a truncated model cannot reach
    K = build_grid_complex(3, [3, 3, 3])
    sphere = sphere_cycle(K)
    empty = FaceSet(K, 0, ())
    inner = FaceSet(K, 0, lattice_faces(K, [((1, 1, 1),)]))
    assert spanning_check(K, empty, [sphere])[0].reason == "null-homologous"
    assert spanning_check(K, inner, [sphere])[0].reason == "nontrivial"
    with pytest.raises(PreconditionError):
        complement_subcomplex(K, empty, max_dim=1).check([sphere])


DEG2_CASES = [((3, 3, 3), 0, "sphere"), ((3, 3, 3), 1, "sphere"),
              ((2, 2, 2), 1, "tetrahedron"), ((1, 1, 1, 1), 2, "tetrahedron"),
              ((2, 2, 1, 1), 1, "tetrahedron")]


@pytest.mark.parametrize("box,d,kind", DEG2_CASES)
def test_degree2_verdicts_match_the_complement_complex_oracle(box, d, kind,
                                                              monkeypatch):
    # the solve over the subdivision's chain table, through `spanning_check`,
    # `is_spanning` and the pool predicate, against null-homology of the
    # cycle's pieces in the assembled complement complex, with a witness
    # on every yes; the system `check` solves must be that complex's d_3
    # and the pieces, renamed.  The 3^3 boundary sphere is linked by any
    # face set inside it; the boundary of a tetrahedron of K bounds that
    # tetrahedron, which meets no face set out of contact with it
    solves = []

    def recorded(cols, rhs=None, witness=False):
        solves.append((cols, rhs))
        return eliminate(cols, rhs=rhs, witness=witness)

    eliminate = spanmin.homology._snf_diagonal_sparse
    monkeypatch.setattr(spanmin.homology, "_snf_diagonal_sparse", recorded)
    rng = np.random.default_rng(sum(box) * 10 + d)
    K = build_grid_complex(len(box), list(box))
    if kind == "sphere":
        cycle = sphere_cycle(K)
        inside = [i for i, s in enumerate(K.simplices(d))
                  if all(0 < c < 3 for v in s for c in K.grid.points[v])]
    else:
        tet = K.simplex(3, K.n_simplices(3) // 2)
        cycle = ConstraintCycle(kind="cycle", degree=2,
                                items=boundary_items(K, tet))
        inside = []
    every_third = range(0, K.n_simplices(d), 3)
    seen = set()
    for trial in range(6):
        faces = rng.choice(K.n_simplices(d), size=trial % 3,
                           replace=False).tolist()
        if inside and trial % 2:
            faces = rng.choice(inside, size=trial // 2 + 1).tolist()
        F = FaceSet(K, d, faces)
        solves.clear()
        [status] = spanning_check(K, F, [cycle])
        system = solves[:]
        assert is_spanning(K, F, [cycle]) == status.passed
        assert pool_spans(K, [cycle], F, every_third) == status.passed
        if status.reason == "contact":
            assert set(F.vertex_ids()) & set(
                K.grid.vertex_at(p) for pts, _ in cycle.items for p in pts)
            continue
        model = ComplementModel(K, F, max_dim=3)
        chain = oracle.realize(cycle, model)
        C, new = chain.complex, oracle.vertex_ids(model)

        def rename(ch):
            return C.index(tuple(new[v] for v in ch))

        [(cols, rhs)] = system
        assert {rename(ch): {rename(f): c for f, c in col.items()}
                for ch, col in cols.items()} == _boundary_columns(C, 3)
        assert {rename(ch): c for ch, c in rhs.items()} == chain.coeffs
        null, witness = is_null_homologous(chain)
        assert status.reason == ("null-homologous" if null else "nontrivial")
        if null:
            assert boundary(witness) == chain
        seen.add(null)
    assert seen == ({True, False} if kind == "sphere" else {True})


def boundary_items(K, verts):
    """The boundary of the simplex of K on the vertex ids `verts` as
    `cycle` items (lattice points of each facet, sign)."""
    pts = [K.grid.points[v] for v in verts]
    return tuple((tuple(pts[:i] + pts[i + 1:]), (-1) ** i)
                 for i in range(len(pts)))


def test_non_cycles_raise_in_every_degree():
    # a chain with a boundary is no cycle whatever the face set: every
    # entry point raises, in degree 1 (an interior edge, an edge on dK)
    # as in degree 2 (a triangle), even when the face set touches it
    cases = [((4, 4), 1, [((1, 1), (2, 1))]),
             ((3, 3), 1, [((0, 0), (1, 0))]),
             ((2, 2, 2), 1, [((0, 0, 0), (1, 0, 0), (1, 1, 0))])]
    for box, d, corners in cases:
        K = build_grid_complex(len(box), list(box))
        (pts,) = corners
        c = ConstraintCycle(kind="cycle", degree=len(pts) - 1,
                            items=((pts, 1),))
        on = lattice_faces(K, [pts[:d + 1]])
        for F in (FaceSet(K, d, ()), FaceSet(K, d, on)):
            for call in (lambda: spanning_check(K, F, [c]),
                         lambda: is_spanning(K, F, [c]),
                         lambda: spanning_predicate(K, [c], d, F.faces)):
                with pytest.raises(RealizationError, match="not a cycle"):
                    call()
    # the same simplices closed up into boundaries are judged as before
    K = build_grid_complex(2, [3, 3])
    tri = K.simplex(2, 0)
    c = ConstraintCycle(kind="cycle", degree=1, items=boundary_items(K, tri))
    empty = FaceSet(K, 1, ())
    assert spanning_check(K, empty, [c])[0].reason == "null-homologous"
    assert not is_spanning(K, empty, [c])


# -- regions and competitor checks ---------------------------------------------

def test_region_validation_and_membership():
    with pytest.raises(InvalidInputError):
        Region(lo=(1, 1), hi=(0, 0))
    R = Region(lo=(0, 0), hi=(2, 1))
    assert R.contains_point((1, 1))
    assert not R.contains_point((1, 2))
    # bounds are lattice points: (0.5, 0) used to become (0, 0)
    for bad in (0.5, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError, match="not an integer"):
            Region(lo=(bad, 0), hi=(2, 1))
    assert Region(lo=(np.int64(0), 0.0), hi=(2, 1)) == R


def test_competitor_identity():
    K = build_grid_complex(2, [2, 2])
    E = separating_row(K)
    R = Region(lo=(0, 0), hi=(2, 2))
    v = competitor_check(E, E, R, 1, [point_pair(K.grid.box)])
    assert v.overall and v.boundary_match


def test_competitor_hole_detected():
    K = build_grid_complex(2, [2, 2])
    E = separating_row(K)
    F = E.difference(E.faces[:1])
    R = Region(lo=(0, 0), hi=(2, 2))
    v = competitor_check(E, F, R, 1, [point_pair(K.grid.box)])
    assert not v.overall
    assert v.survival[0] == (0, False)


def test_competitor_boundary_mismatch():
    K = build_grid_complex(2, [2, 2])
    E = separating_row(K)
    F = E.difference(E.faces[:1])
    R = Region(lo=(0, 0), hi=(0, 0))  # the edit is outside this region
    v = competitor_check(E, F, R, 1, [])
    assert not v.boundary_match and not v.overall


def test_competitor_monotone_in_region():
    # passing for a region implies passing for any containing region
    K = build_grid_complex(2, [2, 2])
    E = separating_row(K)
    small = Region(lo=(0, 0), hi=(1, 2))
    big = Region(lo=(0, 0), hi=(2, 2))
    cons = [point_pair(K.grid.box)]
    if competitor_check(E, E, small, 1, cons).overall:
        assert competitor_check(E, E, big, 1, cons).overall


def test_competitor_mismatched_inputs():
    K = build_grid_complex(2, [2, 2])
    E = separating_row(K)
    R = Region(lo=(0, 0), hi=(2, 2))
    with pytest.raises(PreconditionError):
        competitor_check(E, FaceSet(K, 1, ()), R, 0, [])


def test_region_arity_must_match_the_complex():
    # two bounds on a 3D box would leave the third axis unchecked
    K = build_grid_complex(3, [2, 2, 2])
    R = Region(lo=(0, 0), hi=(1, 1))
    F = FaceSet(K, 1, (0, 1))
    with pytest.raises(InvalidInputError, match="2 axes"):
        minimize_local(K, [], WeightField.uniform(1.0), F, budget=10, seed=0,
                       region=R)
    with pytest.raises(InvalidInputError, match="2 axes"):
        competitor_check(F, F, R, 1, [])
    with pytest.raises(InvalidInputError, match="2 axes"):
        free_collapse_candidates(F, region=R)


@pytest.mark.parametrize("box,lo,hi", [
    ((5,), (1,), (3,)), ((5,), (2,), (2,)),
    ((4, 3), (1, 0), (3, 2)), ((4, 3), (0, 1), (4, 1)), ((3, 1), (1, 0), (2, 1)),
    ((3, 2, 3), (1, 0, 1), (2, 2, 3)), ((3, 2, 3), (0, 1, 0), (3, 1, 3)),
    ((1, 2, 1), (0, 0, 0), (1, 2, 1)),
    ((2, 3, 1, 2), (0, 1, 0, 1), (2, 3, 1, 2)),
    ((2, 2, 2, 2), (1, 0, 1, 0), (1, 2, 1, 2))])
def test_region_faces_match_the_contains_face_scan(box, lo, hi):
    # lo = hi axes cut a slab, width-1 axes hold both layers of the box
    K = build_grid_complex(len(box), list(box))
    R = Region(lo=lo, hi=hi)
    sizes = []
    for d in range(K.dim + 1):
        faces = R.faces(K, d)
        assert faces == faces_in_box_by_scan(K, d, R)
        sizes.append(len(faces))
    assert sizes[0] == np.prod([b - a + 1 for a, b in zip(lo, hi)])
    with pytest.raises(InvalidInputError, match="axes"):
        Region(lo=lo + (0,), hi=hi + (0,)).faces(K, 1)


def test_region_faces_need_a_grid():
    K = Complex.from_maximal([(0, 1, 2)], np.eye(3)[:, :2])
    with pytest.raises(InvalidInputError, match="grid-built"):
        Region(lo=(0, 0), hi=(1, 1)).faces(K, 1)


# -- free-face collapses --------------------------------------------------------

def test_collapse_candidates_on_path():
    K = build_grid_complex(2, [2, 2])
    # an L-shaped path of edges: both ends are free
    pts = [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (2, 1))]
    faces = tuple(K.index(tuple(sorted(
        (K.grid.vertex_at(a), K.grid.vertex_at(b))))) for a, b in pts)
    F = FaceSet(K, 1, faces)
    moves = free_collapse_candidates(F)
    collapsible = {f for f, _ in moves}
    assert faces[0] in collapsible and faces[2] in collapsible
    assert faces[1] not in collapsible


def test_collapse_candidates_of_vertex_sets_are_empty():
    # a vertex's only facet is the empty face, which is not a simplex of
    # K: no vertex set has a collapse move, one vertex or several
    K = build_grid_complex(2, [2, 2])
    for faces in ((4,), (0, 1), ()):
        assert free_collapse_candidates(FaceSet(K, 0, faces)) == []


def test_collapse_candidates_respect_region():
    K = build_grid_complex(2, [2, 2])
    pts = [((0, 0), (1, 0)), ((1, 0), (2, 0))]
    faces = tuple(K.index(tuple(sorted(
        (K.grid.vertex_at(a), K.grid.vertex_at(b))))) for a, b in pts)
    F = FaceSet(K, 1, faces)
    R = Region(lo=(1, 0), hi=(2, 0))
    moves = free_collapse_candidates(F, region=R)
    assert all(f == faces[1] for f, _ in moves)


# -- the chains of the barycentric subdivision --------------------------------

def flag_chains(K, m):
    """The strictly increasing chains of m+1 faces of K under inclusion, as
    tuples of subdivision ids: per simplex, every m of its proper faces
    (itertools.combinations over its vertex subsets) that nest."""
    offsets = np.cumsum([0] + [K.n_simplices(k) for k in range(K.dim)])

    def sd_id(s):
        return int(offsets[len(s) - 1]) + K.index(s)

    out = set()
    for k in range(K.dim + 1):
        for top in K.simplices(k):
            proper = [f for r in range(1, k + 1)
                      for f in itertools.combinations(top, r)]
            for flag in itertools.combinations(proper, m):
                flag += (top,)
                if all(len(a) < len(b) and set(a) <= set(b)
                       for a, b in zip(flag, flag[1:])):
                    out.add(tuple(sd_id(f) for f in flag))
    return out


@pytest.mark.parametrize("box", [(2, 3), (2, 2, 1), (1, 1, 1, 1)])
def test_subdivision_chains_are_the_flags_of_k(box):
    from spanmin.complement import _sd_structure
    K = build_grid_complex(len(box), list(box))
    for m in range(min(3, K.dim) + 1):
        sd = _sd_structure(K, m)
        assert sd.max_dim == m
        for j in range(m + 1):
            assert len(set(sd.chains[j])) == len(sd.chains[j])
            assert set(sd.chains[j]) == flag_chains(K, j)


@pytest.mark.parametrize("box,m,count", [
    ((3, 3, 3), 3, 17965), ((2, 2, 2, 2), 2, 145985),
    ((2, 2, 2, 2), 3, 265793), ((2, 2, 1, 1), 3, 69229),
    ((3, 3, 2, 2), 2, 322013)])
def test_subdivision_chain_counts_pinned(box, m, count):
    from spanmin.complement import _SdStructure
    sd = _SdStructure(build_grid_complex(len(box), list(box)), m)
    assert sum(len(sd.chains[j]) for j in range(m + 1)) == count


# -- degree 0 on the dual graph against the subdivision ------------------------

def union_find_components(n, a, b):
    """Component label per vertex of the graph on range(n) with edges
    a[i]-b[i] (integer arrays)."""
    parent = list(range(n))
    for u, v in zip(a.tolist(), b.tolist()):  # finds inlined: path halving
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
    labels = []
    for x in range(n):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        labels.append(x)
    return labels


def subdivision_oracle(K, F):
    """(good mask, component label per subdivision id) from a union-find
    over the whole subdivision graph, outside cl F."""
    from spanmin.complement import _sd_structure
    sd = _sd_structure(K, 1)
    good = np.ones(sd.total, dtype=bool)
    for f in F.faces:
        t = K.simplex(F.dim, f)
        for r in range(1, len(t) + 1):
            for sub in itertools.combinations(t, r):
                good[sd.offsets[r - 1] + K.index(sub)] = False
    a, b = np.array(sd.chains[1], dtype=np.int64).T
    keep = good[a] & good[b]
    return good, union_find_components(sd.total, a[keep], b[keep])


DEG0_CASES = [((3, 3), 1, 9), ((3, 3), 0, 4), ((2, 2, 2), 2, 30),
              ((2, 2, 2), 1, 12), ((2, 2, 1, 1), 3, 60), ((2, 2, 1, 1), 2, 40)]


@pytest.mark.parametrize("box,d,size", DEG0_CASES)
def test_dual_graph_deg0_matches_subdivision_oracle(box, d, size):
    rng = np.random.default_rng(sum(box) * 10 + d)
    K = build_grid_complex(len(box), list(box))
    points = list(K.grid.points)
    # the predicate decides F as one state of a pool with more faces
    every_third = range(0, K.n_simplices(d), 3)
    seen_verdicts = set()
    for trial in range(6):
        n_faces = int(rng.integers(0, size + 1)) if trial else 0
        faces = rng.choice(K.n_simplices(d), size=n_faces, replace=False)
        faces = tuple(faces.tolist())
        if trial == 1 and d == len(box) - 1:  # the wall x0 = 1
            faces = tuple(i for i, s in enumerate(K.simplices(d))
                           if all(points[v][0] == 1 for v in s))
        F = FaceSet(K, d, faces)
        good, oracle = subdivision_oracle(K, F)
        model = complement_subcomplex(K, F, max_dim=1)
        assert np.array_equal(model.good, good)
        n_comp = len({oracle[u] for u in np.flatnonzero(good).tolist()})
        assert model.homology(0).rank == n_comp
        # point pairs: boundary points, contact points, degenerate pairs
        on_f = sorted({v for f in F.faces for v in K.simplex(d, f)})
        picks = [tuple(rng.choice(len(points), size=2).tolist())
                 for _ in range(12)]
        picks += [(v, int(rng.integers(len(points)))) for v in on_f[:3]]
        picks += [(0, len(points) - 1), (5, 5)]
        cons = [ConstraintCycle(kind="point-pair",
                                points=(points[u], points[v]))
                for u, v in picks]
        statuses = spanning_check(K, F, cons)
        for (u, v), c, st in zip(picks, cons, statuses):
            assert pool_spans(K, [c], F, every_third) == st.passed
            assert is_spanning(K, F, [c]) == st.passed
            if not (good[u] and good[v]):
                want = "contact"
            elif u == v:
                want = "degenerate"
            elif oracle[u] == oracle[v]:
                want = "null-homologous"
            else:
                want = "nontrivial"
            assert st.reason == want
            assert st.passed == (want == "nontrivial")
            seen_verdicts.add(want)
        # mixed lists (a pair plus a loop) and an off-grid point
        loop = rectangle_loop((0, 1), (0, 0), box[:2], (0,) * len(box))
        off = ConstraintCycle(kind="point-pair", points=(
            points[0], (-1,) + points[0][1:]))
        model = ComplementModel(K, F, max_dim=2)
        assert [s.reason for s in model.check([off])] == ["contact"]
        for mixed in ([cons[0], loop], [loop, cons[-2]], [cons[-2], off]):
            want = all(s.passed for s in model.check(mixed))
            assert pool_spans(K, mixed, F, every_third) == want
            assert is_spanning(K, F, mixed) == want
    assert {"contact", "degenerate", "null-homologous"} <= seen_verdicts
    if d == len(box) - 1:
        assert "nontrivial" in seen_verdicts
    # below codimension 1 the complement is connected: no dual graph
    assert ("dual" in K.cache) == (d == len(box) - 1)


def deg0_cycle_verdict(K, good, labels, items):
    """The verdict on an explicit 0-cycle ((point,), coeff) items from the
    subdivision union-find: contact when a point is off the grid or in
    cl F, degenerate when the coefficients cancel, null-homologous when
    they sum to 0 on every component."""
    coeffs = {}
    for (p,), c in items:
        try:
            v = K.grid.vertex_at(p)
        except InvalidInputError:
            return "contact"
        if not good[v]:
            return "contact"
        coeffs[v] = coeffs.get(v, 0) + c
    if not any(coeffs.values()):
        return "degenerate"
    totals = {}
    for v, c in coeffs.items():
        totals[labels[v]] = totals.get(labels[v], 0) + c
    return "nontrivial" if any(totals.values()) else "null-homologous"


def zero_sum_coefficients(rng, m):
    """m = 3..5 coefficients in +-1, +-2 that sum to 0."""
    c, e = (int(x) for x in rng.choice([-1, 1], size=2))
    return {3: [c, c, -2 * c], 4: [c, -c, 2 * e, -2 * e],
            5: [c, c, -2 * c, e, -e]}[m]


@pytest.mark.parametrize("box,d,size", DEG0_CASES)
def test_deg0_cycles_match_subdivision_oracle(box, d, size):
    # explicit 0-cycles of 3-5 vertices with coefficients in +-1, +-2,
    # decided by dual-graph searches between their tops; half of them sum
    # to 0, so only the split over components decides them
    rng = np.random.default_rng(sum(box) * 10 + d + 1)
    K = build_grid_complex(len(box), list(box))
    points = list(K.grid.points)
    seen, split = set(), False
    for trial in range(6):
        n_faces = int(rng.integers(0, size + 1)) if trial else 0
        faces = tuple(rng.choice(K.n_simplices(d), size=n_faces,
                                 replace=False).tolist())
        if trial == 1 and d == len(box) - 1:  # the wall x0 = 1
            faces = tuple(i for i, s in enumerate(K.simplices(d))
                          if all(points[v][0] == 1 for v in s))
        F = FaceSet(K, d, faces)
        good, labels = subdivision_oracle(K, F)
        clear = [v for v in range(len(points)) if good[v]]
        on_f = sorted({v for f in F.faces for v in K.simplex(d, f)})
        cycles = []
        for j in range(12):
            m = int(rng.integers(3, 6))
            vs = rng.choice(clear or on_f, size=m).tolist()
            cs = (zero_sum_coefficients(rng, m) if j % 2 else
                  rng.choice([-2, -1, 1, 2], size=m).tolist())
            items = [((points[v],), int(c)) for v, c in zip(vs, cs)]
            if j % 4 == 1 and on_f:  # one vertex of cl F
                items[0] = ((points[on_f[j % len(on_f)]],), items[0][1])
            if j == 3:  # one point off the grid
                (p,), c = items[-1]
                items[-1] = (((-1,) + p[1:],), c)
            cycles.append(items)
        if clear:
            a = clear[0]
            b = next((v for v in clear if labels[v] != labels[a]), clear[-1])
            a2 = next((v for v in clear
                       if v != a and labels[v] == labels[a]), a)
            cycles += [[((points[a],), 1), ((points[b],), -2),
                        ((points[a],), 1)],
                       [((points[a],), 2), ((points[b],), 1),
                        ((points[a],), -2), ((points[b],), -1)],
                       # a's component sums to 0, b's does not
                       [((points[a],), 1), ((points[a2],), -1),
                        ((points[b],), 1)]]
        cons = [ConstraintCycle(kind="cycle", degree=0, items=tuple(items))
                for items in cycles]
        statuses = spanning_check(K, F, cons)
        model = ComplementModel(K, F, max_dim=1)
        assert statuses == model.check(cons)
        assert "bad" not in vars(model)  # no mask over every simplex
        for items, st in zip(cycles, statuses):
            want = deg0_cycle_verdict(K, good, labels, items)
            assert st.reason == want
            assert st.passed == (want == "nontrivial")
            seen.add(want)
            split |= want == "nontrivial" and not sum(c for _, c in items)
    assert seen == {"contact", "degenerate", "null-homologous", "nontrivial"}
    if d == len(box) - 1:
        assert split
    assert ("dual" in K.cache) == (d == len(box) - 1)


def test_dual_graph_deg0_at_scale():
    # 64 x 32 box: 4096 tops, the size at which components were once
    # handed to a sparse-graph library
    K = build_grid_complex(2, [64, 32])
    assert K.n_simplices(2) == 4096
    row = separating_row(K).faces
    # corners, points beside the row's gap and the middle of the far edges
    picks = [((0, 0), (64, 32)), ((0, 0), (64, 0)), ((0, 15), (1, 17)),
             ((32, 0), (32, 32)), ((1, 15), (0, 17))]
    cons = [ConstraintCycle(kind="point-pair", points=pq) for pq in picks]
    for faces, want in [((), 1), (row, 2), (row[1:], 1)]:
        F = FaceSet(K, 1, faces)
        good, oracle = subdivision_oracle(K, F)
        ids = np.flatnonzero(good).tolist()
        assert len({oracle[u] for u in ids}) == want
        model = ComplementModel(K, F, max_dim=1)
        assert model.homology(0).rank == want
        for (p, q), st in zip(picks, model.check(cons)):
            u, v = K.grid.vertex_at(p), K.grid.vertex_at(q)
            assert st.passed == (oracle[u] != oracle[v])
    assert homology_group(K, 0).rank == 1
    z = Chain(K, 0, {K.n_simplices(0) - 1: 3, 0: -3})
    null, witness = is_null_homologous(z)
    assert null and boundary(witness) == z


def test_point_pair_check_builds_no_subdivision():
    K = build_grid_complex(2, [4, 4])
    F = generate_faceset("separating-row", K, 1)
    cons = [ConstraintCycle(kind="point-pair", points=((2, 0), (2, 4))),
            ConstraintCycle(kind="point-pair", points=((0, 0), (4, 1)))]
    assert [s.passed for s in spanning_check(K, F, cons)] == [True, False]
    assert is_spanning(K, F, cons[:1])
    assert "dual" in K.cache and "sd" not in K.cache
    # loop checks and homology in every degree go through cochains near
    # the loop and on cl F, with no dual graph of the whole box
    K = build_grid_complex(2, [3, 3])
    F = FaceSet(K, 1, lattice_faces(K, [((1, 1), (2, 1))]))
    loop = rectangle_loop((0, 1), (0, 0), (3, 3), (0, 0))
    [status] = spanning_check(K, F, [loop])
    assert status.passed
    model = complement_subcomplex(K, F)
    assert [model.homology(k).rank for k in range(3)] == [1, 1, 0]
    assert "dual" not in K.cache and "sd" not in K.cache
    K4 = build_grid_complex(4, [2, 2, 2, 2])
    F4 = generate_faceset("two-planes-orthogonal", K4, 2)
    assert is_spanning(K4, F4, linking_loops(K4.grid.box))
    model = complement_subcomplex(K4, F4, max_dim=2)
    assert [model.homology(k).rank for k in range(5)] == [1, 2, 1, 0, 0]
    # two planes do not separate the box: a pair off them is joined
    pair = ConstraintCycle(kind="point-pair", points=((0,) * 4, (2,) * 4))
    assert model.check([pair])[0].reason == "null-homologous"
    assert "dual" not in K4.cache and "sd" not in K4.cache


def random_constraints(K, F, rng):
    """Point pairs (two with an off-grid point, two with a vertex of
    cl F), their 0-cycles, a 0-cycle whose coefficients sum to 1, the
    outline of the box's (x0, x1) face and a random lattice rectangle as
    loops and the latter as explicit hops, the boundary of a random
    triangle and, in 3D, of a random tetrahedron (4D models of degree-2
    cycles take seconds each)."""
    n, points = K.dim, K.grid.points
    on_f = sorted(F.vertex_ids())
    picks = [tuple(rng.choice(len(points), size=2).tolist()) for _ in range(6)]
    pairs = [(points[u], points[v]) for u, v in picks]
    pairs.append((points[picks[0][0]], (-1,) + points[0][1:]))
    pairs.append(((K.grid.box[0] + 1,) + points[0][1:], points[picks[1][1]]))
    for v in on_f[:2]:
        pairs.append((points[v], points[picks[2][0]]))
    cons = [ConstraintCycle(kind="point-pair", points=pq) for pq in pairs]
    cons += [ConstraintCycle(kind="cycle", degree=0,
                             items=(((q,), 1), ((p,), -1)))
             for p, q in pairs]
    cons.append(ConstraintCycle(kind="cycle", degree=0, items=(
        ((points[picks[3][0]],), 2), ((points[picks[3][1]],), -1))))
    hi = [int(rng.integers(1, b + 1)) for b in K.grid.box[:2]]
    loop = rectangle_loop((0, 1), (0, 0), hi, (0,) * n)
    hops = loop.points[1:] + loop.points[:1]
    cons += [rectangle_loop((0, 1), (0, 0), K.grid.box[:2], (0,) * n), loop,
             ConstraintCycle(kind="cycle", degree=1, items=tuple(
                 ((p, q), 1) for p, q in zip(loop.points, hops)))]
    for k in ((2, 3) if n == 3 else (2,)):
        s = K.simplex(k, int(rng.integers(K.n_simplices(k))))
        cons.append(ConstraintCycle(kind="cycle", degree=k - 1,
                                    items=boundary_items(K, s)))
    return len(pairs), cons


ENTRY_CASES = [((3, 3), 1), ((3, 3), 0), ((2, 2, 2), 2), ((2, 2, 2), 1),
               ((2, 2, 1, 1), 3), ((2, 2, 1, 1), 2)]


@pytest.mark.parametrize("box,d", ENTRY_CASES)
def test_entry_points_agree(box, d):
    # `spanning_check`, `is_spanning` and `spanning_predicate` give one
    # answer on mixed lists, and a point pair has its 0-cycle's status;
    # every other face set holds the d-plane x_0 = ... = x_{n-d-1} = 1:
    # for d = n-1 a wall across the box, in codimension 2 a plane that
    # the outline loop links
    n = len(box)
    rng = np.random.default_rng(sum(box) * 7 + d)
    K = build_grid_complex(n, list(box))
    points = K.grid.points
    flat = tuple(i for i, s in enumerate(K.simplices(d))
                 if all(points[v][a] == 1 for v in s for a in range(n - d)))
    # the predicate decides F as one state of a pool with more faces
    every_third = range(0, K.n_simplices(d), 3)
    reasons, answers = set(), set()
    for trial in range(6):
        extra = rng.choice(K.n_simplices(d), size=int(rng.integers(0, n)),
                           replace=False).tolist()
        F = FaceSet(K, d, tuple(set(extra) | set(flat if trial % 2 else ())))
        n_pairs, cons = random_constraints(K, F, rng)
        statuses = spanning_check(K, F, cons)
        for pair, cycle in zip(statuses[:n_pairs], statuses[n_pairs:]):
            assert (pair.passed, pair.reason) == (cycle.passed, cycle.reason)
        reasons |= {s.reason for s in statuses}
        # the whole list, its degree-0 part, the rest, the passing
        # degree-0 constraints, and two of them with one loop
        passing0 = [c for c, s in zip(cons, statuses)
                    if s.passed and c.degree == 0]
        deg0 = [c for c in cons if c.degree == 0]
        rest = cons[len(deg0):]
        lists = [cons, deg0, rest, passing0] + [
            passing0[-2:] + [c] for c in rest[:2]]
        lists += [[cons[i] for i in rng.choice(len(cons), size=3,
                                               replace=False)]
                  for _ in range(2)]
        for sub in lists:
            want = all(s.passed for s in spanning_check(K, F, sub))
            assert pool_spans(K, sub, F, every_third) == want
            assert is_spanning(K, F, sub) == want
            answers.add(want)
    assert {"contact", "null-homologous", "nontrivial"} <= reasons
    assert answers == {True, False}


@pytest.mark.parametrize("box,d", [((3, 3), 1), ((3, 3), 0), ((2, 2, 2), 2),
                                   ((2, 1, 2, 2), 2), ((2, 1, 2, 2), 3)])
def test_touching_matches_the_scan_of_every_face(box, d):
    K = build_grid_complex(len(box), list(box))
    n = len(box)
    corner, far = (0,) * n, tuple(box)
    cons = [ConstraintCycle(kind="point-pair", points=(corner, far)),
            rectangle_loop((0, n - 1), (0, 0), (box[0], box[-1]), corner),
            # one point off the box: the chain is None, the corner touches
            ConstraintCycle(kind="point-pair",
                            points=(corner, tuple(b + 1 for b in box)))]
    for spec in cons:
        rec = _resolve(K, spec, d)
        assert rec.touching == touching_by_scan(
            K, d, _support_vertices(K, spec))


@pytest.mark.parametrize("box", [(6,), (4, 4), (3, 1), (3, 2, 4), (1, 1, 1),
                                 (2, 2, 1, 3), (3, 3, 3, 3)])
def test_dual_graph_and_vertex_tops_match_the_cofacet_walk(box):
    K = build_grid_complex(len(box), list(box))
    assert per_top(_dual_graph(K)) == dual_graph_by_cofacets(K)
    # every vertex as one end of a point pair: its top is the walk's
    n, far = len(box), tuple(box)
    for v, p in enumerate(K.grid.points):
        if p == far:
            continue
        spec = ConstraintCycle(kind="point-pair", points=(p, far))
        rec = _resolve(K, spec, n - 1)
        # the chain of the pair p, q is q - p, q first
        assert rec.tops == ((top_by_walk(K, (len(K.coords) - 1,)), 1),
                            (top_by_walk(K, (v,)), -1))


def test_dual_graph_matches_the_cofacets_off_the_grid():
    # a facet of three tops joins the lowest to each of the others, and a
    # triangle that shares no edge has an empty list
    K = Complex.from_maximal([(0, 1, 2), (0, 1, 3), (0, 1, 4), (1, 2, 5),
                              (6, 7, 8), (2, 9)], np.zeros((10, 2)))
    adj = per_top(_dual_graph(K))
    assert adj == dual_graph_by_cofacets(K)
    assert adj[0] == [(0, 1), (0, 2), (4, 3)] and adj[4] == []


# -- the pool predicate against one search per pair ---------------------------

def link_faces(K, p):
    """The (n-1)-faces opposite the vertex at p in the tops holding it: a
    set of them all separates p from the rest of the box."""
    v = K.grid.vertex_at(p)
    return sorted(K.index(tuple(w for w in top if w != v))
                  for top in K.simplices(K.dim) if v in top)


def face_at(K, d, pts):
    return K.index(tuple(sorted(K.grid.vertex_at(p) for p in pts)))


def sampled_states(n, count, rng, avoid):
    """None, all, all but one per position, and `count` seeded masks of
    random density, every other one without the positions in `avoid`."""
    full = (1 << n) - 1
    states = [0, full] + [full & ~(1 << p) for p in range(n)]
    for k in range(count):
        q = rng.random()
        states.append(sum(1 << p for p in range(n)
                          if rng.random() < q and not (k % 2 and p in avoid)))
    return states


def pool_cases():
    rng = random.Random(19)
    cases = []
    # 4x4: the criterion-4 pair with the middle row, a contact edge at
    # (2, 0), a boundary edge and random band edges; up to three pairs on
    # the edges cutting off (2, 2), (0, 0) and (0, 4), two of the middle
    # row and random interior edges, in shuffled order
    K = build_grid_complex(2, [4, 4])
    pts = K.grid.points
    row = [i for i, s in enumerate(K.simplices(1))
           if all(pts[v][1] == 2 for v in s)]
    band = [i for i in Region((0, 1), (4, 3)).faces(K, 1) if i not in row]
    pair = pp((2, 0), (2, 4))
    pool = row + [face_at(K, 1, [(2, 0), (3, 0)]),
                  face_at(K, 1, [(0, 3), (0, 4)])] + rng.sample(band, 6)
    cases.append(("4x4-row", K, 1, [pair], [], pool))
    hexagon = link_faces(K, (2, 2))
    assert len(hexagon) == 6
    inner = [i for i in Region((1, 1), (3, 3)).faces(K, 1)
             if i not in hexagon]
    corners = link_faces(K, (0, 0)) + link_faces(K, (0, 4))
    assert len(corners) == 3
    pairs = [pp((2, 2), (4, 4)), pp((0, 0), (4, 0)), pp((0, 4), (2, 2))]
    for k in (1, 2, 3):
        pool = hexagon + corners + row[:1] + rng.sample(inner, 2)
        rng.shuffle(pool)
        cases.append((f"4x4-{k}-pairs", K, 1, pairs[:k], [], pool))
    # a degenerate pair fails every state
    cases.append(("4x4-degenerate", K, 1, [pairs[0], pp((1, 1), (1, 1))],
                  [], hexagon + row[:4]))
    # a loop alongside: the outline of the box links every nonempty set
    # of interior edges and touches an edge at (0, 2); a face set must
    # also cut (2, 2) off
    outline = rectangle_loop((0, 1), (0, 0), (4, 4), (0, 0))
    cases.append(("4x4-loop", K, 1, [pairs[0]], [outline],
                  hexagon + [face_at(K, 1, [(0, 2), (1, 2)])]
                  + rng.sample(inner, 3)))
    # 3^3, d = 2: the six triangles cutting the corner off, a contact
    # triangle at the far corner, a boundary triangle and random ones
    K = build_grid_complex(3, [3, 3, 3])
    corner = link_faces(K, (0, 0, 0))
    far = face_at(K, 2, [(3, 3, 3), (2, 3, 3), (2, 2, 3)])
    wall = face_at(K, 2, [(3, 0, 0), (3, 1, 0), (3, 1, 1)])
    rest = [i for i in range(K.n_simplices(2))
            if i not in corner + [far, wall]]
    pool = corner + [far, wall] + rng.sample(rest, 4)
    cases.append(("3^3-corner", K, 2, [pp((0, 0, 0), (3, 3, 3))], [], pool))
    cases.append(("3^3-two-pairs", K, 2, [pp((0, 0, 0), (3, 3, 3)),
                                          pp((0, 0, 0), (3, 0, 0))], [], pool))
    # loops in 3D, d = n-1: the tube's two walls y = 1 and y = 2, twelve
    # triangles from face x = 0 to face x = 3, under the tube's meridians
    walls = [c for c in tube_corners() if len({p[1] for p in c}) == 1]
    cases.append(("3d-tube-walls", K, 2, [], meridians((3, 3, 3), (0, 2)),
                  list(lattice_faces(K, walls))))
    # loops in 3D, d = n-2: the wire through the cube's middle meridian
    # and ten edges that miss that meridian or meet it
    K = build_grid_complex(3, [2, 2, 2])
    wire = lattice_faces(K, [((0, 1, 1), (1, 1, 1)), ((1, 1, 1), (2, 1, 1))])
    others = [f for f in range(K.n_simplices(1)) if f not in wire]
    cases.append(("3d-wire", K, 1, [], meridians((2, 2, 2), (1,)),
                  list(wire) + rng.sample(others, 10)))
    # every edge of a 3x3 box, on sampled states
    K = build_grid_complex(2, [3, 3])
    cases.append(("3x3-every-edge", K, 1, [pp((1, 0), (2, 3)),
                                           pp((0, 0), (3, 3))], [],
                  list(range(K.n_simplices(1)))))
    return [pytest.param(*case, id=case[0]) for case in cases]


def pp(p, q):
    return ConstraintCycle(kind="point-pair", points=(p, q))


def test_pool_predicate_rejects_a_bad_pool():
    # positions are the caller's bits: a repeated face would hold two
    # bits, and clearing one would leave the face in the state; an id past
    # the d-faces would be a face that cuts nothing
    K = build_grid_complex(2, [4, 4])
    pair = [pp((2, 0), (2, 4))]
    row = (7, 20, 33, 46)
    spans = spanning_predicate(K, pair, 1, row)
    assert spans(0b1111) and not spans(0b1110)
    for pool in (row + (7,), row + (10**6,), row + (-1,)):
        with pytest.raises(InvalidInputError, match="pool"):
            spanning_predicate(K, pair, 1, pool)


@pytest.mark.parametrize("name,K,d,pairs,loops,pool", pool_cases())
def test_pool_predicate_matches_the_search_oracle(name, K, d, pairs, loops,
                                                  pool):
    # every state of a pool of at most 12 faces (sampled above that): the
    # predicate's flood of the contracted graph against one search per
    # pair on the whole dual graph, and `check` for the loops
    spans = spanning_predicate(K, pairs + loops, d, pool)
    by_search = pairs_span_by_search(K, pairs)
    points = {K.grid.vertex_at(p) for c in pairs for p in c.points}
    contact = touching_by_scan(K, d, points)
    states = (range(1 << len(pool)) if len(pool) <= 12 else sampled_states(
        len(pool), 1500, random.Random(len(pool)),
        {p for p, f in enumerate(pool) if f in contact}))
    seen = set()
    for state in states:
        faces = tuple(f for p, f in enumerate(pool) if state >> p & 1)
        want = by_search(faces)
        if want and loops:
            model = ComplementModel(K, FaceSet(K, d, faces), max_dim=2)
            want = all(s.passed for s in model.check(loops))
        assert spans(state) == want, (name, faces)
        seen.add(want)
    assert seen == ({False} if "degenerate" in name else {True, False})
