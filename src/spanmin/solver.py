"""Discrete minimization of weighted d-area under spanning constraints.

Three routes: an exhaustive oracle over small candidate pools (subsets are
enumerated lazily in cost order, so the first feasible one is optimal), a
deformation-based local search built from strictly improving exchange
moves, and a projection-based certified lower bound for two-dimensional sets
in R^4.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .complexes import Complex, FaceSet
from .complement import (ConstraintCycle, Region, _resolve, is_spanning,
                         spanning_predicate)
from .errors import (InfeasibleError, InvalidInputError, PoolTooLargeError,
                     PreconditionError)
from . import grassmann

EXHAUSTIVE_POOL_CAP = 30
EXHAUSTIVE_EVALUATION_CAP = 100_000


class WeightField:
    """Weight h on faces: a table of values per face index, with a default
    for the faces it does not list (a uniform weight is an empty table).

    Values are validated against the bounds 1 <= h <= upper; upper
    defaults to the largest value.
    """

    def __init__(self, table: Optional[Dict[int, float]] = None,
                 default: float = 1.0, upper: Optional[float] = None):
        self.table = {int(k): float(v) for k, v in (table or {}).items()}
        self.default = float(default)
        values = [self.default, *self.table.values()]
        self.upper = float(upper) if upper is not None else max(values)
        for v in values:
            if not (1.0 <= v <= self.upper):
                raise InvalidInputError(
                    f"weight value {v} outside the bound 1 <= h <= {self.upper}")

    @classmethod
    def uniform(cls, value: float = 1.0, upper: Optional[float] = None):
        return cls(default=value, upper=upper)

    def at(self, face: int) -> float:
        return self.table.get(face, self.default)


def _face_volumes(K: Complex, d: int) -> np.ndarray:
    """Euclidean d-volumes of all d-faces (Gram determinant), cached.

    Faces with bit-identical edge vectors share one determinant: on a grid
    there are only a few step patterns, and since each pattern's edges are
    the very floats a per-face evaluation would read, the volumes agree
    with it bit for bit."""
    key = ("face_volumes", d)
    if key not in K.cache:
        rows = K.rows(d)
        vols = np.ones(len(rows))
        if d > 0 and len(rows):
            coords = K.coords
            edges = (coords[rows[:, 1:]] - coords[rows[:, :1]]).reshape(
                len(rows), -1)
            bits = edges.view(np.int64)
            order = np.lexsort(bits.T[::-1])
            bits = bits[order]
            first = np.concatenate(
                ([True], (bits[1:] != bits[:-1]).any(axis=1)))
            fact = math.factorial(d)
            shared = np.array([
                math.sqrt(max(float(np.linalg.det(e @ e.T)), 0.0)) / fact
                for e in edges[order[first]].reshape(-1, d, coords.shape[1])])
            vols[order] = shared[np.cumsum(first) - 1]
        K.cache[key] = vols
    return K.cache[key]


def weighted_measure(F: FaceSet, weight: WeightField) -> float:
    """Sum over faces of the face's weight h times its d-volume."""
    vols = _face_volumes(F.complex, F.dim)
    return float(sum(weight.at(f) * vols[f] for f in F.faces))


@dataclass
class SolveResult:
    """Outcome of a minimization run."""

    faces: FaceSet
    objective: float
    certificate: Dict[str, object]
    evaluations: int
    accepted: int
    seed: Optional[int]
    history: Tuple[float, ...] = ()


def minimize_exhaustive(K: Complex, constraints: Sequence[ConstraintCycle],
                        weight: WeightField, candidate_pool: FaceSet) -> SolveResult:
    """Global minimizer over subsets of the pool satisfying every constraint.

    Subsets are popped from a heap in (cost, lexicographic face tuple) order;
    the first feasible subset is the global optimum with deterministic ties.
    The search runs over P0, the pool faces outside the constraints'
    `touching` sets (`_resolve`): any other face puts a cycle in contact,
    so it is in no feasible set.  A heap entry carries its subset's
    bitmask over P0 after the face tuple (tuples are distinct, so the mask
    never decides the order), and one `spanning_predicate` over P0, built
    for the solve, decides the mask.  Adding faces only shrinks the
    complement, so when P0 itself does not span, no subset does: the
    predicate's call on the full mask (not counted in `evaluations`) then
    raises InfeasibleError.  A pool from another complex raises
    PreconditionError; a pool of more than EXHAUSTIVE_POOL_CAP faces, or
    popping more than EXHAUSTIVE_EVALUATION_CAP subsets, raises
    PoolTooLargeError.
    """
    if candidate_pool.complex is not K:
        raise PreconditionError("candidate pool belongs to a different complex")
    if len(candidate_pool.faces) > EXHAUSTIVE_POOL_CAP:
        raise PoolTooLargeError(
            f"pool of {len(candidate_pool.faces)} faces exceeds the cap of "
            f"{EXHAUSTIVE_POOL_CAP}; use minimize_local")
    d = candidate_pool.dim
    touched = set().union(*(_resolve(K, c, d).touching for c in constraints))
    pool = [f for f in candidate_pool.faces if f not in touched]
    spans = spanning_predicate(K, constraints, d, pool)
    if not spans((1 << len(pool)) - 1):
        raise InfeasibleError(
            "no subset of the candidate pool satisfies the constraints")
    vols = _face_volumes(K, d)
    costs = [float(weight.at(f) * vols[f]) for f in pool]

    heap: List[Tuple[float, Tuple[int, ...], int, int]] = [(0.0, (), 0, -1)]
    evaluations = 0
    while heap:
        cost, faces, mask, last = heapq.heappop(heap)
        evaluations += 1
        if evaluations > EXHAUSTIVE_EVALUATION_CAP:
            raise PoolTooLargeError(
                f"exhaustive search passed {EXHAUSTIVE_EVALUATION_CAP} "
                f"evaluations; use minimize_local")
        if spans(mask):
            return SolveResult(faces=FaceSet(K, d, faces), objective=cost,
                               certificate={"method": "exhaustive",
                                            "lower_bound": cost},
                               evaluations=evaluations, accepted=0, seed=None)
        for j in range(last + 1, len(pool)):
            heapq.heappush(heap, (cost + costs[j], faces + (pool[j],),
                                  mask | 1 << j, j))
    raise InfeasibleError("no subset of the candidate pool satisfies the constraints")


class _MoveTable(NamedTuple):
    """Every subset of at most two of the n pool positions, in lexicographic
    tuple order: (), (0,), (0, 1), ..., (0, n-1), (1,), (1, 2), ...

    A row is its two members (a single's second member is its first, the
    empty set's are the sentinel position n) and its cost sum, c_a for a
    single and c_a + c_b for a pair.  `removable` marks the rows an exchange
    may take out of a state.
    """

    first: np.ndarray
    second: np.ndarray
    sums: np.ndarray
    removable: np.ndarray


def _move_table(costs: Sequence[float], movable: Sequence[bool]) -> _MoveTable:
    n = len(costs)
    # pairs a <= b in row-major order, (a, a) standing for (a,)
    first, second = np.triu_indices(n)
    first = np.concatenate(([n], first))
    second = np.concatenate(([n], second))
    c = np.append(np.asarray(costs, dtype=float), 0.0)
    sums = np.where(first == second, c[first], c[first] + c[second])
    mov = np.append(np.asarray(movable, dtype=bool), False)
    return _MoveTable(first, second, sums, mov[first] & mov[second])


def _exchange_moves(table: _MoveTable, state: int) -> List[int]:
    """All strictly improving exchanges with at most two faces each way.

    `state` is a bitmask over pool positions.  Removal rows are removable
    rows inside the state, addition rows the empty set and the rows outside
    it.  Returns one int code per move, removal row * len(table.first) +
    addition row, ordered by (delta, removed, added) so the descent is
    deterministic; a caller decodes only the moves it tries.
    """
    first, second, sums, removable = table
    size = int(first[0]) + 1  # pool positions and the sentinel
    inside = np.unpackbits(
        np.frombuffer(state.to_bytes((size + 7) // 8, "little"), np.uint8),
        count=size, bitorder="little").view(bool)
    a, b = inside[first], inside[second]
    rem = np.flatnonzero(a & b & removable)
    add = np.flatnonzero(~(a | b))
    delta = sums[add] - sums[rem][:, None]
    # flat indices into delta run row-major, (removed, added) in table
    # order, so a stable sort on delta alone gives (delta, removed, added)
    flat = np.flatnonzero(delta < -1e-12)
    flat = flat[np.argsort(delta.ravel()[flat], kind="stable")]
    return (rem[flat // len(add)] * len(first)
            + add[flat % len(add)]).tolist()


def minimize_local(K: Complex, constraints: Sequence[ConstraintCycle],
                   weight: WeightField, init: FaceSet, budget: int, seed: int,
                   pool: Optional[FaceSet] = None,
                   region: Optional[Region] = None) -> SolveResult:
    """Budgeted local search: steepest descent with seeded restarts.

    Descent moves are exchanges of at most two faces out for at most two
    in; the removal-only exchanges are the collapses.  A move is applied
    only if it strictly decreases the objective and the result still
    passes the spanning check.  When descent converges and budget remains,
    the search restarts from the incumbent enlarged by a few random pool
    faces, or from the whole pool, and descends in a seeded random order
    (the k-th move tried is drawn from the untried ones).  The incumbent is
    replaced only by strictly better feasible sets, so the
    accepted-objective history is non-increasing.  The budget bounds the
    number of spanning evaluations; runs are deterministic for a fixed
    seed.  With a region, pool faces outside it are dropped and init faces
    outside it are never removed.

    One move table over the sorted pool and one `spanning_predicate` over
    it are built per solve.  States are bitmasks over pool positions; the
    predicate keeps its verdicts, and decides a state with no face tuple
    for degree-0 constraints; a face tuple is built for the result.  Every
    candidate tried counts as an evaluation, answered from that memo or
    not.  A step's moves are flat codes (`_exchange_moves`), decoded
    into table rows only when tried.
    """
    if not is_spanning(K, init, constraints):
        raise PreconditionError("initial face set violates the constraints")
    d = init.dim
    if pool is None:
        pool_faces: Sequence[int] = range(K.n_simplices(d))
    else:
        if pool.dim != d or pool.complex is not K:
            raise PreconditionError("pool is incompatible with the initial set")
        pool_faces = pool.faces
    if region is not None:
        inside = set(region.faces(K, d))
        pool_faces = inside.intersection(pool_faces)
    pool_faces = sorted(set(pool_faces) | set(init.faces))
    # init faces outside the region stay in every state
    movable = [region is None or f in inside for f in pool_faces]

    vols = _face_volumes(K, d)
    costs = [float(weight.at(f) * vols[f]) for f in pool_faces]
    table = _move_table(costs, movable)
    # the table as Python lists, to decode the moves tried; a value moves
    # by the table's sums, so it matches the moves' order bit for bit
    first, second, sums = (table.first.tolist(), table.second.tolist(),
                           table.sums.tolist())
    # states are bitmasks over pool positions; position len(pool) is the
    # table's sentinel, with no bit and no cost
    bits = [1 << p for p in range(len(pool_faces))] + [0]
    rng = random.Random(seed)

    def cost_of(state: int) -> float:
        return float(sum(c for c, bit in zip(costs, bits) if state & bit))

    init_faces = set(init.faces)
    current = sum(bit for f, bit in zip(pool_faces, bits) if f in init_faces)
    obj = cost_of(current)
    best, best_obj = current, obj
    history = [obj]
    evaluations = 0
    accepted = 0
    max_candidates = 4000
    spans = spanning_predicate(K, constraints, d, pool_faces)

    def descend(state, value, shuffled=False):
        """Descent to a local optimum: steepest, or first-improvement in a
        seeded random order (used by restarts to reach different basins)."""
        nonlocal evaluations
        while evaluations < budget:
            moves = _exchange_moves(table, state)
            if len(moves) > max_candidates:
                # the first half and a sample of the rest, in order; the
                # indices are drawn from a range as from a list of them
                half = max_candidates // 2
                tail = rng.sample(range(half, len(moves)),
                                  max_candidates - half)
                moves = moves[:half] + [moves[i] for i in sorted(tail)]
            progressed = False
            for k in range(len(moves)):
                if shuffled:
                    # partial Fisher-Yates: draw only the moves tried
                    j = rng.randrange(k, len(moves))
                    moves[k], moves[j] = moves[j], moves[k]
                r, a = divmod(moves[k], len(first))
                rf, rs, af, ag = first[r], second[r], first[a], second[a]
                cand = state & ~(bits[rf] | bits[rs]) | bits[af] | bits[ag]
                evaluations += 1
                if spans(cand):
                    state = cand
                    value += sums[a] - sums[r]
                    progressed = True
                    break
                if evaluations >= budget:
                    break
            if not progressed:
                break
        return state, value

    current, obj = descend(current, obj)
    if obj < best_obj - 1e-12:
        best, best_obj = current, obj
        history.append(obj)
        accepted += 1

    # restart phase: jump to the incumbent plus a few random faces (always a
    # feasible superset unless the additions collide with a constraint, which
    # the spanning re-check catches) and descend again
    stall = 0
    max_stall = 60
    restart = 0
    full_pool = (1 << len(pool_faces)) - 1
    while evaluations < budget - 1 and stall < max_stall:
        restart += 1
        if restart % 2 == 0:
            # independent restart: shuffled descent from the whole pool
            cand = full_pool
        else:
            outside = [bit for bit in bits[:-1] if not best & bit]
            if not outside:
                break
            kick = rng.sample(outside, min(len(outside), rng.randint(1, 4)))
            cand = best | sum(kick)
        evaluations += 1
        if not spans(cand):
            stall += 1
            continue
        state, value = descend(cand, cost_of(cand), shuffled=True)
        if value < best_obj - 1e-12:
            best, best_obj = state, value
            history.append(value)
            accepted += 1
            stall = 0
        else:
            stall += 1

    faces = tuple(f for f, bit in zip(pool_faces, bits) if best & bit)
    return SolveResult(faces=FaceSet(K, d, faces),
                       objective=cost_of(best),
                       certificate={"method": "local", "lower_bound": None},
                       evaluations=evaluations, accepted=accepted, seed=seed,
                       history=tuple(history))


# -- projection certificate ---------------------------------------------------

@dataclass(frozen=True)
class PlaneRegion:
    """Target region in a projection plane: a rectangle or a round disk."""

    kind: str  # 'box' | 'disk'
    params: Tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("box", "disk"):
            raise InvalidInputError(f"unknown region kind {self.kind!r}")
        if self.kind == "box" and len(self.params) != 4:
            raise InvalidInputError("box region needs (xmin, ymin, xmax, ymax)")
        if self.kind == "disk" and len(self.params) != 3:
            raise InvalidInputError("disk region needs (cx, cy, r)")
        if not all(math.isfinite(p) for p in self.params):
            raise InvalidInputError(
                f"region parameters must be finite, got {self.params}")
        if self.kind == "disk" and self.params[2] < 0:
            raise InvalidInputError(
                f"disk radius must be non-negative, got {self.params[2]}")

    def bbox(self) -> Tuple[float, float, float, float]:
        if self.kind == "box":
            x0, y0, x1, y1 = self.params
            return x0, y0, x1, y1
        cx, cy, r = self.params
        return cx - r, cy - r, cx + r, cy + r

    def mask(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        if self.kind == "box":
            x0, y0, x1, y1 = self.params
            return (X >= x0) & (X <= x1) & (Y >= y0) & (Y <= y1)
        cx, cy, r = self.params
        return (X - cx) ** 2 + (Y - cy) ** 2 <= r * r


def _rasterize_area(triangles: np.ndarray, region: PlaneRegion,
                    resolution: int) -> float:
    """Area of (union of projected triangles) intersected with the region.

    Cell centers are tested with an inclusive point-in-triangle test, so
    overlapping faces are counted once; degenerate projections contribute 0.
    """
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
            continue  # measure-zero projection
        tx0, tx1 = min(a[0], b[0], c[0]), max(a[0], b[0], c[0])
        ty0, ty1 = min(a[1], b[1], c[1]), max(a[1], b[1], c[1])
        i0 = max(0, int(np.floor((tx0 - x0) / hx - 0.5)))
        i1 = min(res, int(np.ceil((tx1 - x0) / hx + 0.5)))
        j0 = max(0, int(np.floor((ty0 - y0) / hy - 0.5)))
        j1 = min(res, int(np.ceil((ty1 - y0) / hy + 0.5)))
        if i0 >= i1 or j0 >= j1:
            continue
        X, Y = xs[i0:i1, None], ys[None, j0:j1]
        eps = 1e-12
        s0 = (b[0] - a[0]) * (Y - a[1]) - (b[1] - a[1]) * (X - a[0])
        s1 = (c[0] - b[0]) * (Y - b[1]) - (c[1] - b[1]) * (X - b[0])
        s2 = (a[0] - c[0]) * (Y - c[1]) - (a[1] - c[1]) * (X - c[0])
        if area2 < 0:
            s0, s1, s2 = -s0, -s1, -s2
        covered[i0:i1, j0:j1] |= (s0 >= -eps) & (s1 >= -eps) & (s2 >= -eps)

    inside = region.mask(xs[:, None], ys[None, :])
    return float(np.count_nonzero(covered & inside)) * hx * hy


def projection_lower_bound(F: FaceSet, frame1: np.ndarray, frame2: np.ndarray,
                           disks: Tuple[PlaneRegion, PlaneRegion],
                           resolution: int = 1024) -> float:
    """Certified lower bound on the 2-area of any set projecting like F.

    Projects the faces onto the two planes, measures the covered target
    regions by rasterization, and divides by the projection constant of the
    plane pair (`PlanePair.projection_bound`).  A resolution below 1
    raises `InvalidInputError`.
    """
    if resolution < 1:
        raise InvalidInputError(
            f"resolution must be at least 1, got {resolution}")
    if F.dim != 2:
        raise PreconditionError("projection certificate needs 2-dimensional faces")
    K = F.complex
    coords = K.coords
    if coords.shape[1] != 4:
        raise PreconditionError("projection certificate needs an ambient R^4")
    pair = grassmann.PlanePair(frame1, frame2)

    tris = np.array([[coords[v] for v in K.simplex(2, f)] for f in F.faces],
                    dtype=float) if F.faces else np.zeros((0, 3, 4))
    areas = []
    for frame, region in zip((pair.frame1, pair.frame2), disks):
        projected = tris @ frame.T if len(tris) else tris.reshape(0, 3, 2)
        areas.append(_rasterize_area(projected, region, resolution))
    return (areas[0] + areas[1]) / pair.projection_bound()
