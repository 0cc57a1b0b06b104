"""Exchange-move generation and local-search determinism.

`reference_exchange_moves` is the list-based generator, kept as the oracle
for the per-solve move table in `spanmin.solver`: same moves, same order,
bit-identical deltas.  `reference_minimize_local` is the local search on
face-tuple states with that generator and a verdict cache keyed by face
tuples, which stops at the optimum that `min_cut_by_flow` finds for one
point pair; `minimize_local`, on bitmask states over the table and stopping
at its cut bound, must follow the same trajectory.
"""

import itertools
import random
from fractions import Fraction

import pytest

from spanmin import (ConstraintCycle, FaceSet, Region, WeightField,
                     build_grid_complex, is_spanning, minimize_local)
from spanmin.solver import _exchange_moves, _face_volumes, _move_table

from loop_oracles import min_cut_by_flow


def reference_exchange_moves(current, pool, costs):
    """All measure-non-increasing exchanges with at most two faces each way,
    sorted by (delta, removed, added)."""
    cur = set(current)
    outside = [f for f in pool if f not in cur]
    moves = []
    for r in range(1, 3):
        for rem in itertools.combinations(sorted(cur), r):
            dec = sum(costs[f] for f in rem)
            moves.append((-dec, rem, ()))
            for a in range(1, 3):
                for add in itertools.combinations(outside, a):
                    delta = sum(costs[f] for f in add) - dec
                    if delta <= 1e-12:
                        moves.append((delta, rem, add))
    moves.sort()
    return moves


def improving(moves):
    return [m for m in moves if m[0] < -1e-12]


def decode(table, code):
    """A move code of `_exchange_moves` as [removed first, removed second,
    added first, added second] pool positions."""
    r, a = divmod(code, len(table.first))
    return [int(table.first[r]), int(table.second[r]),
            int(table.first[a]), int(table.second[a])]


def table_moves(current, pool, costs):
    """`_exchange_moves` on the table of a sorted pool, decoded and read
    back as (delta, removed, added) with face tuples; a row's cost sum is
    c_a for a single and c_a + c_b for a pair, as the descent adds them."""
    pool = sorted(pool)
    c = [costs[f] for f in pool]
    table = _move_table(c, [True] * len(pool))
    state = sum(1 << pool.index(f) for f in current)
    sums = c + [0.0]

    def subset(f, g):
        return (() if f == len(pool) else (pool[f],) if f == g
                else (pool[f], pool[g]))

    def total(f, g):
        return sums[f] if f == g else sums[f] + sums[g]

    codes = _exchange_moves(table, state)
    assert all(type(code) is int for code in codes)
    return [(total(af, ag) - total(rf, rs), subset(rf, rs), subset(af, ag))
            for rf, rs, af, ag in (decode(table, c) for c in codes)]


def grid_costs(K, weight):
    vols = _face_volumes(K, 1)
    return {f: float(weight.at(f) * vols[f]) for f in range(K.n_simplices(1))}


def test_exchange_moves_match_reference_on_random_states():
    K = build_grid_complex(2, [4, 4])
    ne = K.n_simplices(1)
    rng = random.Random(11)
    sizes = set()
    for trial in range(60):
        # few distinct weights and two edge lengths: many tied deltas
        weight = WeightField(table={f: rng.choice([1.0, 1.25, 1.5, 2.0])
                                    for f in rng.sample(range(ne), 30)},
                             default=rng.choice([1.0, 1.5]))
        costs = grid_costs(K, weight)
        pool = rng.sample(range(ne), rng.randint(0, 24))
        if trial % 2:
            pool.sort()
        current = tuple(sorted(rng.sample(pool, rng.randint(0, len(pool)))))
        # the search's pool is sorted; the table is built on that order
        want = improving(reference_exchange_moves(current, sorted(pool),
                                                  costs))
        got = table_moves(current, pool, costs)
        assert got == want
        # bit-identical deltas, face tuples of plain ints
        assert [m[0].hex() for m in got] == [m[0].hex() for m in want]
        assert all(type(f) is int for m in got for f in m[1] + m[2])
        sizes.add(len(got))
    assert 0 in sizes and max(sizes) > 1000


def test_exchange_moves_above_the_sampling_threshold():
    # more than 4000 improving moves: the descent samples a tail of them
    K = build_grid_complex(2, [4, 4])
    rng = random.Random(3)
    weight = WeightField(table={f: rng.choice([1.0, 1.25, 2.0])
                                for f in range(K.n_simplices(1))})
    costs = grid_costs(K, weight)
    pool = list(range(K.n_simplices(1)))
    current = tuple(sorted(rng.sample(pool, 20)))
    want = improving(reference_exchange_moves(current, pool, costs))
    got = table_moves(current, pool, costs)
    assert len(got) == len(want) > 4000
    assert got == want
    assert [m[0].hex() for m in got] == [m[0].hex() for m in want]


def test_move_table_rows_and_region_mask():
    # (), (0,), (0, 1), (0, 2), (1,), (1, 2), (2,): lexicographic order
    table = _move_table([1.0, 2.0, 4.0], [True, False, True])
    assert table.first.tolist() == [3, 0, 0, 0, 1, 1, 2]
    assert table.second.tolist() == [3, 0, 1, 2, 1, 2, 2]
    assert table.sums.tolist() == [0.0, 1.0, 3.0, 5.0, 2.0, 6.0, 4.0]
    assert table.removable.tolist() == [False, True, False, True, False,
                                        False, True]
    # all three faces in: position 1 is never taken out; a code is the
    # removal row times the 7 rows plus the addition row (here the empty
    # set, row 0)
    moves = _exchange_moves(table, 0b111)
    assert moves == [3 * 7, 6 * 7, 1 * 7]
    assert [decode(table, m) for m in moves] == [
        [0, 2, 3, 3], [2, 2, 3, 3], [0, 0, 3, 3]]


def reference_minimize_local(K, constraints, weight, init, budget, seed,
                             pool=None, region=None):
    """`minimize_local` on face-tuple states: moves from
    `reference_exchange_moves`, verdicts from `is_spanning` cached by face
    tuple, and the same draws from the seeded stream (a sampled tail above
    4000 moves, the k-th move of a shuffled descent drawn from the untried
    ones), and the same stop: for one point pair across d = n-1, the
    search ends once its state costs exactly the least cost of a
    separating state, found by `min_cut_by_flow`.  Returns (faces,
    objective, evaluations, accepted, history)."""
    d = init.dim
    faces = range(K.n_simplices(d)) if pool is None else pool.faces
    if region is not None:
        faces = [f for f in faces if region.contains_face(K, d, f)]
    faces = sorted(set(faces) | set(init.faces))
    fixed = {f for f in init.faces
             if region is not None and not region.contains_face(K, d, f)}
    vols = _face_volumes(K, d)
    costs = {f: float(weight.at(f) * vols[f]) for f in faces}
    rng = random.Random(seed)
    verdicts = {init.faces: True}
    evaluations = 0
    # one pair across d = n-1: the least cost of a separating state, at
    # which the search stops
    optimum = (min_cut_by_flow(K, constraints[0], faces, costs, fixed)
               if d == K.dim - 1 and len(constraints) == 1
               and constraints[0].kind == "point-pair" else None)

    def optimal(state):
        return optimum is not None and optimum == sum(
            (Fraction(costs[f]) for f in state), Fraction(0))

    def feasible(cand):
        if cand not in verdicts:
            verdicts[cand] = is_spanning(K, FaceSet(K, d, cand), constraints)
        return verdicts[cand]

    def descend(state, value, shuffled=False):
        nonlocal evaluations
        while evaluations < budget and not optimal(state):
            moves = [m for m in improving(reference_exchange_moves(
                state, faces, costs)) if fixed.isdisjoint(m[1])]
            if len(moves) > 4000:
                tail = rng.sample(range(2000, len(moves)), 2000)
                moves = moves[:2000] + [moves[i] for i in sorted(tail)]
            progressed = False
            for k in range(len(moves)):
                if shuffled:
                    j = rng.randrange(k, len(moves))
                    moves[k], moves[j] = moves[j], moves[k]
                delta, rem, add = moves[k]
                cand = tuple(sorted(set(state).difference(rem).union(add)))
                evaluations += 1
                if feasible(cand):
                    state, value = cand, value + delta
                    progressed = True
                    break
                if evaluations >= budget:
                    break
            if not progressed:
                return state, value
        return state, value

    best = init.faces
    best_obj = float(sum(costs[f] for f in best))
    history = [best_obj]
    accepted = 0
    state, value = descend(best, best_obj)
    if value < best_obj - 1e-12:
        best, best_obj = state, value
        history.append(value)
        accepted += 1
    stall = restart = 0
    while evaluations < budget - 1 and stall < 60 and not optimal(best):
        restart += 1
        if restart % 2 == 0:
            cand = tuple(faces)
        else:
            outside = [f for f in faces if f not in best]
            if not outside:
                break
            kick = rng.sample(outside, min(len(outside), rng.randint(1, 4)))
            cand = tuple(sorted(set(best) | set(kick)))
        evaluations += 1
        if not feasible(cand):
            stall += 1
            continue
        state, value = descend(cand, float(sum(costs[f] for f in cand)),
                               shuffled=True)
        if value < best_obj - 1e-12:
            best, best_obj = state, value
            history.append(value)
            accepted += 1
            stall = 0
        else:
            stall += 1
    return (best, float(sum(costs[f] for f in best)), evaluations, accepted,
            tuple(history))


def oracle_pool(K, seed, extra):
    """The middle row of a 4x4 grid plus seeded edges of the band
    y in [1, 3], as in the criterion-4 loop."""
    pts = K.grid.points
    row = tuple(i for i, s in enumerate(K.simplices(1))
                if all(pts[v][1] == 2 for v in s))
    band = Region(lo=(0, 1), hi=(4, 3))
    band_edges = [i for i in range(K.n_simplices(1))
                  if band.contains_face(K, 1, i) and i not in row]
    return FaceSet(K, 1, row + tuple(random.Random(seed).sample(band_edges,
                                                                extra)))


def band_weights(K):
    wrng = random.Random(5)
    return {"uniform": WeightField.uniform(1.0),
            "table": WeightField(table={
                i: wrng.choice([1.0, 1.25, 1.5, 2.0])
                for i in range(K.n_simplices(1))})}


def trajectory(r):
    return (r.faces.faces, r.objective, r.evaluations, r.accepted, r.history)


# (pool seed, weight, search seed, faces, objective, evaluations, accepted,
#  history), with the moves of a shuffled descent drawn lazily
PINNED_LOCAL = [
    (1, "uniform", 0, (7, 20, 33, 46), 4.0, 14, 1,
     (14.071067811865476, 4.000000000000001)),
    (1, "uniform", 1, (7, 20, 33, 46), 4.0, 14, 1,
     (14.071067811865476, 4.000000000000001)),
    (1, "uniform", 2, (7, 20, 33, 46), 4.0, 14, 1,
     (14.071067811865476, 4.000000000000001)),
    (1, "table", 0, (7, 20, 33, 46), 4.75, 7, 1,
     (18.338834764831844, 4.750000000000001)),
    (1, "table", 1, (7, 20, 33, 46), 4.75, 7, 1,
     (18.338834764831844, 4.750000000000001)),
    (1, "table", 2, (7, 20, 33, 46), 4.75, 7, 1,
     (18.338834764831844, 4.750000000000001)),
    (7919, "uniform", 0, (7, 20, 33, 46), 4.0, 936, 2,
     (12.828427124746192, 5.000000000000002, 4.0)),
    (7919, "uniform", 1, (7, 20, 33, 46), 4.0, 378, 2,
     (12.828427124746192, 5.000000000000002, 4.0)),
    (7919, "uniform", 2, (7, 20, 33, 46), 4.0, 363, 2,
     (12.828427124746192, 5.000000000000002, 4.000000000000001)),
    (7919, "table", 0, (7, 20, 33, 46), 4.75, 10, 1,
     (17.535533905932738, 4.75)),
    (7919, "table", 1, (7, 20, 33, 46), 4.75, 10, 1,
     (17.535533905932738, 4.75)),
    (7919, "table", 2, (7, 20, 33, 46), 4.75, 10, 1,
     (17.535533905932738, 4.75)),
]


@pytest.mark.parametrize("pool_seed", [1, 7919])
def test_minimize_local_pinned_results(pool_seed):
    K = build_grid_complex(2, [4, 4])
    cons = [ConstraintCycle(kind="point-pair", points=((2, 0), (2, 4)))]
    weights = band_weights(K)
    pool = oracle_pool(K, pool_seed, 8)
    for ps, name, seed, faces, obj, evals, accepted, history in PINNED_LOCAL:
        if ps != pool_seed:
            continue
        r = minimize_local(K, cons, weights[name], init=pool, budget=10_000,
                           seed=seed, pool=pool)
        assert trajectory(r) == (faces, obj, evals, accepted, history)


def sampled_instance():
    """A 3x3 grid whose first descent, from the band y in [1, 2], sees
    more than 4000 moves."""
    K = build_grid_complex(2, [3, 3])
    cons = [ConstraintCycle(kind="point-pair", points=((1, 0), (2, 3)))]
    pts = K.grid.points
    init = FaceSet(K, 1, tuple(i for i, s in enumerate(K.simplices(1))
                               if all(1 <= pts[v][1] <= 2 for v in s)))
    return K, cons, init


# two pairs that each corner cuts off at cost 2, and that a row, of cost 3,
# separates together: the cut bound (2) stays below the optimum, so the
# search goes on past it
CORNER_PAIRS = [ConstraintCycle(kind="point-pair", points=((0, 0), (3, 3))),
                ConstraintCycle(kind="point-pair", points=((3, 0), (0, 3)))]


def test_minimize_local_pinned_through_sampled_descent():
    # one pair: the first descent reaches the optimum and the search stops;
    # two pairs: the restarts run on the random stream left after
    # rng.sample
    K, cons, init = sampled_instance()
    costs = grid_costs(K, WeightField.uniform(1.0))
    assert len(improving(reference_exchange_moves(
        init.faces, range(K.n_simplices(1)), costs))) > 4000
    got = [trajectory(minimize_local(K, c, WeightField.uniform(1.0),
                                     init=init, budget=3000, seed=seed))
           for c in (cons, CORNER_PAIRS) for seed in (0, 1)]
    assert got == [((7, 17, 27), 3.0, 21, 1, (14.242640687119286, 3.0)),
                   ((7, 17, 27), 3.0, 21, 1, (14.242640687119286, 3.0)),
                   ((7, 17, 27), 3.0, 3000, 1, (14.242640687119286, 3.0)),
                   ((7, 17, 27), 3.0, 2434, 1, (14.242640687119286, 3.0))]


def band_region_instance():
    """The criterion-4 band pool plus three init edges above y = 3, searched
    over every edge of the band region y in [1, 3]."""
    K = build_grid_complex(2, [4, 4])
    cons = [ConstraintCycle(kind="point-pair", points=((2, 0), (2, 4)))]
    pts = K.grid.points
    above = [i for i, s in enumerate(K.simplices(1))
             if all(pts[v][1] >= 3 for v in s)
             and any(pts[v][1] == 4 for v in s)]
    init = oracle_pool(K, 1, 8).union(random.Random(2).sample(above, 3))
    return K, cons, init, Region(lo=(0, 1), hi=(4, 3))


def slab_instance(seed):
    """A 2x2x2 box cut by its plane z = 1: the plane plus seeded triangles
    as init, and more seeded triangles in the pool, none touching the
    constraint's points."""
    K = build_grid_complex(3, [2, 2, 2])
    cons = [ConstraintCycle(kind="point-pair",
                            points=((1, 1, 0), (1, 1, 2)))]
    pts = K.grid.points
    plane = [i for i, s in enumerate(K.simplices(2))
             if all(pts[v][2] == 1 for v in s)]
    touched = {K.grid.vertex_at(p) for p in cons[0].points}
    rest = [i for i, s in enumerate(K.simplices(2))
            if i not in plane and touched.isdisjoint(s)]
    picked = random.Random(seed).sample(rest, 14)
    init = FaceSet(K, 2, tuple(plane) + tuple(picked[:6]))
    return K, cons, init, init.union(picked[6:])


def oracle_cases():
    cases = []
    K = build_grid_complex(2, [4, 4])
    cons = [ConstraintCycle(kind="point-pair", points=((2, 0), (2, 4)))]
    weights = band_weights(K)
    for pool_seed, name, seed in [(1, "uniform", 0), (1, "table", 1),
                                  (7919, "uniform", 1), (7919, "table", 0)]:
        pool = oracle_pool(K, pool_seed, 8)
        cases.append(pytest.param(
            K, cons, weights[name], pool, pool, None, seed, 10_000,
            id=f"band{pool_seed}-{name}-seed{seed}"))
    K, cons, init, region = band_region_instance()
    weights = band_weights(K)
    for name, seed in [("uniform", 0), ("table", 3)]:
        cases.append(pytest.param(K, cons, weights[name], init, None,
                                  region, seed, 1500,
                                  id=f"band-region-{name}-seed{seed}"))
    for seed in (0, 1):
        K, cons, init, pool = slab_instance(seed)
        table = WeightField(table={i: random.Random(seed).choice([1.0, 1.5])
                                   for i in range(K.n_simplices(2))})
        cases.append(pytest.param(K, cons, table, init, pool, None, seed,
                                  2000, id=f"slab{seed}-table"))
        cases.append(pytest.param(K, cons, WeightField.uniform(1.0), init,
                                  pool, Region(lo=(0, 0, 1), hi=(2, 2, 2)),
                                  seed, 2000, id=f"slab{seed}-region"))
    K, cons, init = sampled_instance()
    cases.append(pytest.param(K, cons, WeightField.uniform(1.0), init, None,
                              None, 1, 1200, id="sampled"))
    cases.append(pytest.param(K, CORNER_PAIRS, WeightField.uniform(1.0),
                              init, None, None, 1, 1200,
                              id="sampled-two-pairs"))
    return cases


@pytest.mark.parametrize("K,cons,weight,init,pool,region,seed,budget",
                         oracle_cases())
def test_minimize_local_matches_face_tuple_reference(K, cons, weight, init,
                                                     pool, region, seed,
                                                     budget):
    got = minimize_local(K, cons, weight, init=init, budget=budget,
                         seed=seed, pool=pool, region=region)
    want = reference_minimize_local(K, cons, weight, init, budget, seed,
                                    pool=pool, region=region)
    assert trajectory(got) == want


def test_minimize_local_region():
    K, cons, init, region = band_region_instance()
    w = WeightField.uniform(1.0)
    kept = {f for f in init.faces if not region.contains_face(K, 1, f)}
    assert len(kept) == 3
    runs = [minimize_local(K, cons, w, init=init, budget=2000, seed=seed,
                           region=region) for seed in (0, 0, 1)]
    for r in runs:
        faces = set(r.faces.faces)
        assert is_spanning(K, r.faces, cons)
        assert kept <= faces
        assert all(region.contains_face(K, 1, f)
                   for f in faces - set(init.faces))
        assert r.objective < sum(_face_volumes(K, 1)[f] for f in init.faces)
    assert trajectory(runs[0]) == trajectory(runs[1])
