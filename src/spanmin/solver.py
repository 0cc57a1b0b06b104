"""Discrete minimization of weighted d-area under spanning constraints.

Three routes: an exhaustive oracle over small candidate pools (subsets are
enumerated lazily in cost order, so the first feasible one is optimal), a
deformation-based local search built from measure-non-increasing exchange
moves, and a projection-based certified lower bound for two-dimensional sets
in R^4.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .complexes import Complex, FaceSet
from .complement import (ConstraintCycle, Region, is_spanning,
                         spanning_predicate, support_vertices)
from .errors import (InfeasibleError, InvalidInputError, PoolTooLargeError,
                     PreconditionError)
from . import grassmann

EXHAUSTIVE_POOL_CAP = 30
EXHAUSTIVE_EVALUATION_CAP = 100_000


class WeightField:
    """Weight h on faces, either constant or sampled at face barycenters.

    Values are validated against the bounds 1 <= h <= upper.
    """

    def __init__(self, constant: Optional[float] = None,
                 table: Optional[Dict[int, float]] = None,
                 default: float = 1.0, upper: Optional[float] = None):
        self.constant = None if constant is None else float(constant)
        self.table = None if table is None else {int(k): float(v)
                                                 for k, v in table.items()}
        self.default = float(default)
        values = []
        if self.constant is not None:
            values.append(self.constant)
        if self.table is not None:
            values.extend(self.table.values())
            values.append(self.default)
        if not values:
            self.constant = 1.0
            values = [1.0]
        self.upper = float(upper) if upper is not None else max(values)
        for v in values:
            if not (1.0 <= v <= self.upper):
                raise InvalidInputError(
                    f"weight value {v} outside the bound 1 <= h <= {self.upper}")

    @classmethod
    def uniform(cls, value: float = 1.0, upper: Optional[float] = None):
        return cls(constant=value, upper=upper)

    def at(self, face: int) -> float:
        if self.table is not None:
            return self.table.get(face, self.default)
        return self.constant


def _face_volumes(K: Complex, d: int) -> np.ndarray:
    """Euclidean d-volumes of all d-faces (Gram determinant), cached."""
    key = ("face_volumes", d)
    if key not in K.cache:
        coords = K.coords_float()
        vols = np.zeros(K.n_simplices(d))
        fact = math.factorial(d)
        for i, s in enumerate(K.simplices(d)):
            edges = coords[list(s[1:])] - coords[s[0]]
            gram = edges @ edges.T
            det = float(np.linalg.det(gram)) if d > 0 else 1.0
            vols[i] = math.sqrt(max(det, 0.0)) / fact
        K.cache[key] = vols
    return K.cache[key]


def weighted_measure(F: FaceSet, weight: WeightField) -> float:
    """Sum over faces of h(barycenter) times the face's d-volume."""
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
    The search runs over P0, the pool faces that share no vertex with a
    constraint's cycle: any other face puts that cycle in contact, so it is
    in no feasible set.  Adding faces only shrinks the complement, so when
    P0 itself does not span, no subset does; that one check (not counted
    in `evaluations`) then raises InfeasibleError.  Candidates are decided
    on face tuples by one `spanning_predicate` built for the solve; a
    search that pops more than EXHAUSTIVE_EVALUATION_CAP subsets raises
    PoolTooLargeError.
    """
    if len(candidate_pool.faces) > EXHAUSTIVE_POOL_CAP:
        raise PoolTooLargeError(
            f"pool of {len(candidate_pool.faces)} faces exceeds the cap of "
            f"{EXHAUSTIVE_POOL_CAP}; use minimize_local")
    d = candidate_pool.dim
    touched = support_vertices(K, constraints)
    pool = [f for f in candidate_pool.faces
            if touched.isdisjoint(K.simplex(d, f))]
    if not is_spanning(K, FaceSet(K, d, tuple(pool)), constraints):
        raise InfeasibleError(
            "no subset of the candidate pool satisfies the constraints")
    spans = spanning_predicate(K, constraints, d)
    vols = _face_volumes(K, d)
    costs = [float(weight.at(f) * vols[f]) for f in pool]

    heap: List[Tuple[float, Tuple[int, ...], int]] = [(0.0, (), -1)]
    evaluations = 0
    while heap:
        cost, faces, last = heapq.heappop(heap)
        evaluations += 1
        if evaluations > EXHAUSTIVE_EVALUATION_CAP:
            raise PoolTooLargeError(
                f"exhaustive search passed {EXHAUSTIVE_EVALUATION_CAP} "
                f"evaluations; use minimize_local")
        if spans(faces):
            return SolveResult(faces=FaceSet(K, d, faces), objective=cost,
                               certificate={"method": "exhaustive",
                                            "lower_bound": cost},
                               evaluations=evaluations, accepted=0, seed=None)
        for j in range(last + 1, len(pool)):
            heapq.heappush(heap, (cost + costs[j], faces + (pool[j],), j))
    raise InfeasibleError("no subset of the candidate pool satisfies the constraints")


class _Moves:
    """Improving exchanges in (delta, removed, added) order.

    Held as index arrays into the removal and addition combinations; a
    move's face tuples are built only when it is read.
    """

    def __init__(self, delta: np.ndarray, rem: np.ndarray, add: np.ndarray):
        self.delta, self.rem, self.add = delta, rem, add

    def __len__(self) -> int:
        return len(self.delta)

    def __getitem__(self, i: int
                    ) -> Tuple[float, Tuple[int, ...], Tuple[int, ...]]:
        return (float(self.delta[i]), _unpad(self.rem[i]),
                _unpad(self.add[i]))


def _unpad(row: np.ndarray) -> Tuple[int, ...]:
    return tuple(f for f in row.tolist() if f >= 0)


@functools.lru_cache(maxsize=128)
def _pairs(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j in itertools.combinations order (read-only)."""
    i, j = np.triu_indices(n, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _combos(faces: Sequence[int], costs: Dict[int, float],
            empty: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Subsets of one or two faces in combination order, after the empty
    one if asked: rows (f, -1) / (f, g) and their cost sums c1 + c2."""
    f = np.array(faces, dtype=np.int64)
    c = np.array([costs[x] for x in faces], dtype=float)
    i, j = _pairs(len(f))
    head = np.full(int(empty), -1, dtype=np.int64)
    first = np.concatenate((head, f, f[i]))
    second = np.concatenate((head, np.full(len(f), -1), f[j]))
    sums = np.concatenate((np.zeros(int(empty)), c, c[i] + c[j]))
    return np.stack((first, second), axis=1), sums


def _exchange_moves(current: Tuple[int, ...], pool: Sequence[int],
                    costs: Dict[int, float]) -> _Moves:
    """All strictly improving exchanges with at most two faces each way.

    Ordered by (delta, removed, added) so the descent is deterministic;
    rows are padded with -1, which keeps tuple order since (a,) < (a, b).
    """
    cur = set(current)
    rem, rem_sum = _combos(sorted(cur), costs, empty=False)
    add, add_sum = _combos([f for f in pool if f not in cur], costs,
                           empty=True)
    delta = add_sum[None, :] - rem_sum[:, None]
    ri, ai = np.nonzero(delta < -1e-12)
    delta = delta[ri, ai]
    order = np.lexsort((add[ai, 1], add[ai, 0], rem[ri, 1], rem[ri, 0],
                        delta))
    return _Moves(delta[order], rem[ri[order]], add[ai[order]])


def minimize_local(K: Complex, constraints: Sequence[ConstraintCycle],
                   weight: WeightField, init: FaceSet, budget: int, seed: int,
                   pool: Optional[FaceSet] = None,
                   region: Optional[Region] = None) -> SolveResult:
    """Budgeted local search: steepest descent with seeded restarts.

    Descent moves are free-face collapses and small add/remove exchanges; a
    move is applied only if it strictly decreases the objective and the
    result still passes the spanning check.  When descent converges and
    budget remains, the search restarts from the incumbent enlarged by a few
    random pool faces and descends again.  The incumbent is replaced only by
    strictly better feasible sets, so the accepted-objective history is
    non-increasing.  The budget bounds the number of spanning evaluations;
    runs are deterministic for a fixed seed.  Candidates are decided on face
    tuples by one `spanning_predicate` built for the solve, and a FaceSet is
    built only for the result.
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
        pool_faces = [f for f in pool_faces if region.contains_face(K, d, f)]
    pool_faces = sorted(set(pool_faces) | set(init.faces))

    vols = _face_volumes(K, d)
    costs = {f: float(weight.at(f) * vols[f]) for f in pool_faces}
    rng = random.Random(seed)

    current = init.faces
    obj = float(sum(costs[f] for f in current))
    best_faces, best_obj = current, obj
    history = [obj]
    evaluations = 0
    accepted = 0
    max_candidates = 4000
    verdicts: Dict[Tuple[int, ...], bool] = {init.faces: True}
    spans = spanning_predicate(K, constraints, d)

    def feasible(faces: Tuple[int, ...]) -> bool:
        hit = verdicts.get(faces)
        if hit is None:
            hit = verdicts[faces] = spans(faces)
        return hit

    def descend(state, value, shuffled=False):
        """Descent to a local optimum: steepest, or first-improvement in a
        seeded random order (used by restarts to reach different basins)."""
        nonlocal evaluations
        while evaluations < budget:
            moves = _exchange_moves(state, pool_faces, costs)
            # index lists: sample and shuffle draw by length alone
            order = list(range(len(moves)))
            if len(order) > max_candidates:
                head = order[:max_candidates // 2]
                tail = rng.sample(order[max_candidates // 2:],
                                  max_candidates - len(head))
                order = sorted(head + tail)
            if shuffled:
                rng.shuffle(order)
            progressed = False
            for i in order:
                delta, rem, add = moves[i]
                if region is not None and not all(
                        region.contains_face(K, d, f) for f in rem + add):
                    continue
                cand = tuple(sorted((set(state) - set(rem)) | set(add)))
                evaluations += 1
                if feasible(cand):
                    state, value = cand, value + delta
                    progressed = True
                    break
                if evaluations >= budget:
                    break
            if not progressed:
                break
        return state, value

    current, obj = descend(current, obj)
    if obj < best_obj - 1e-12:
        best_faces, best_obj = current, obj
        history.append(obj)
        accepted += 1

    # restart phase: jump to the incumbent plus a few random faces (always a
    # feasible superset unless the additions collide with a constraint, which
    # the spanning re-check catches) and descend again
    stall = 0
    max_stall = 60
    restart = 0
    full_pool = tuple(pool_faces)
    while evaluations < budget - 1 and stall < max_stall:
        restart += 1
        if restart % 2 == 0:
            # independent restart: shuffled descent from the whole pool
            cand = full_pool
        else:
            outside = [f for f in pool_faces if f not in best_faces]
            if not outside:
                break
            kick = rng.sample(outside, min(len(outside), rng.randint(1, 4)))
            cand = tuple(sorted(set(best_faces) | set(kick)))
        evaluations += 1
        if not feasible(cand):
            stall += 1
            continue
        value = float(sum(costs[f] for f in cand))
        state, value = descend(cand, value, shuffled=True)
        if value < best_obj - 1e-12:
            best_faces, best_obj = state, value
            history.append(value)
            accepted += 1
            stall = 0
        else:
            stall += 1

    best = FaceSet(K, d, best_faces)
    obj = float(sum(costs[f] for f in best_faces))
    return SolveResult(faces=best, objective=obj,
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
    plane pair (1 when orthogonal, else 1 + 2 cos of the smaller angle).
    """
    if F.dim != 2:
        raise PreconditionError("projection certificate needs 2-dimensional faces")
    K = F.complex
    coords = K.coords_float()
    if coords.shape[1] != 4:
        raise PreconditionError("projection certificate needs an ambient R^4")
    frame1 = np.asarray(frame1, dtype=float)
    frame2 = np.asarray(frame2, dtype=float)
    a1, _a2 = grassmann.characteristic_angles(frame1, frame2)
    lam = 1.0 if a1 >= math.pi / 2 - 1e-9 else 1.0 + 2.0 * math.cos(a1)

    tris = np.array([[coords[v] for v in K.simplex(2, f)] for f in F.faces],
                    dtype=float) if F.faces else np.zeros((0, 3, 4))
    areas = []
    for frame, region in zip((frame1, frame2), disks):
        projected = tris @ frame.T if len(tris) else tris.reshape(0, 3, 2)
        areas.append(_rasterize_area(projected, region, resolution))
    return (areas[0] + areas[1]) / lam
