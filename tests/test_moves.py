"""Exchange-move generation and local-search determinism.

`reference_exchange_moves` is the earlier list-based generator, kept as the
oracle for the index-based one in `spanmin.solver`: same moves, same order,
bit-identical deltas.  The pinned `minimize_local` results were produced by
that earlier generator; the random stream and the order of tried moves must
not change them.
"""

import itertools
import random

import pytest

from spanmin import (ConstraintCycle, FaceSet, Region, WeightField,
                     build_grid_complex, minimize_local)
from spanmin.solver import _exchange_moves, _face_volumes


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
        want = improving(reference_exchange_moves(current, pool, costs))
        moves = _exchange_moves(current, pool, costs)
        got = [moves[i] for i in range(len(moves))]
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
    moves = _exchange_moves(current, pool, costs)
    assert len(moves) == len(want) > 4000
    assert [moves[i] for i in range(len(moves))] == want


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


# (pool seed, weight, search seed, faces, objective, evaluations, accepted,
#  history), computed with the list-based generator
PINNED_LOCAL = [
    (1, "uniform", 0, (7, 20, 33, 46), 4.0, 7841, 1,
     (14.071067811865476, 4.000000000000001)),
    (1, "uniform", 1, (7, 20, 33, 46), 4.0, 7942, 1,
     (14.071067811865476, 4.000000000000001)),
    (1, "uniform", 2, (7, 20, 33, 46), 4.0, 7949, 1,
     (14.071067811865476, 4.000000000000001)),
    (1, "table", 0, (7, 20, 33, 46), 4.75, 7980, 1,
     (18.338834764831844, 4.750000000000001)),
    (1, "table", 1, (7, 20, 33, 46), 4.75, 8262, 1,
     (18.338834764831844, 4.750000000000001)),
    (1, "table", 2, (7, 20, 33, 46), 4.75, 7557, 1,
     (18.338834764831844, 4.750000000000001)),
    (7919, "uniform", 0, (7, 20, 33, 46), 4.0, 7824, 2,
     (12.828427124746192, 5.000000000000002, 4.000000000000001)),
    (7919, "uniform", 1, (7, 20, 33, 46), 4.0, 8089, 2,
     (12.828427124746192, 5.000000000000002, 4.0)),
    (7919, "uniform", 2, (7, 20, 33, 46), 4.0, 8244, 2,
     (12.828427124746192, 5.000000000000002, 4.0)),
    (7919, "table", 0, (7, 20, 33, 46), 4.75, 8655, 1,
     (17.535533905932738, 4.75)),
    (7919, "table", 1, (7, 20, 33, 46), 4.75, 7987, 1,
     (17.535533905932738, 4.75)),
    (7919, "table", 2, (7, 20, 33, 46), 4.75, 8078, 1,
     (17.535533905932738, 4.75)),
]


@pytest.mark.parametrize("pool_seed", [1, 7919])
def test_minimize_local_pinned_results(pool_seed):
    K = build_grid_complex(2, [4, 4])
    cons = [ConstraintCycle(kind="point-pair", points=((2, 0), (2, 4)))]
    wrng = random.Random(5)
    weights = {"uniform": WeightField.uniform(1.0),
               "table": WeightField(table={
                   i: wrng.choice([1.0, 1.25, 1.5, 2.0])
                   for i in range(K.n_simplices(1))})}
    pool = oracle_pool(K, pool_seed, 8)
    for ps, name, seed, faces, obj, evals, accepted, history in PINNED_LOCAL:
        if ps != pool_seed:
            continue
        r = minimize_local(K, cons, weights[name], init=pool, budget=10_000,
                           seed=seed, pool=pool)
        assert (r.faces.faces, r.objective, r.evaluations, r.accepted,
                r.history) == (faces, obj, evals, accepted, history)


def test_minimize_local_pinned_through_sampled_descent():
    # the first descent from this init sees more than 4000 moves, so the
    # restarts run on the random stream left after rng.sample
    K = build_grid_complex(2, [3, 3])
    cons = [ConstraintCycle(kind="point-pair", points=((1, 0), (2, 3)))]
    pts = K.grid.points
    init = FaceSet(K, 1, tuple(i for i, s in enumerate(K.simplices(1))
                               if all(1 <= pts[v][1] <= 2 for v in s)))
    got = []
    for seed in (0, 1):
        r = minimize_local(K, cons, WeightField.uniform(1.0), init=init,
                           budget=3000, seed=seed)
        got.append((r.faces.faces, r.objective, r.evaluations, r.accepted,
                    r.history))
    assert got == [((7, 17, 27), 3.0, 2611, 1, (14.242640687119286, 3.0)),
                   ((7, 17, 27), 3.0, 2622, 1, (14.242640687119286, 3.0))]
