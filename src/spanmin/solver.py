"""Discrete minimization of weighted d-area under spanning constraints.

Three routes: an exhaustive oracle over small candidate pools (subsets are
enumerated lazily in cost order, so the first feasible one is optimal, and
a subset grows by a face only when it, that face and the pool faces after
it still span, since no subset of a non-spanning set spans), a
deformation-based local search built from strictly improving exchange
moves, which stops once a minimum-cut bound proves its set optimal, and a
projection-based certified lower bound for two-dimensional sets in R^4.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .complexes import Complex, FaceSet
from .complement import (ConstraintCycle, Region, _integer_costs, _resolve,
                         is_spanning, separation_bound, spanning_predicate)
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
    complement, so a superset of a spanning set spans: when P0 itself does
    not span, no subset does, and the predicate's call on the full mask
    raises InfeasibleError.

    The same monotonicity prunes the heap.  An entry S whose last face is
    at position i has as descendants the subsets of S ∪ P0[i+1:], so the
    child S + P0[j] is pushed only when S ∪ P0[j:] spans (the tail test);
    otherwise none of its descendants span.  The tails shrink as j grows,
    so the first failing test ends the children.  The first, at j = i+1,
    is not made: S ∪ P0[i+1:] is the tail that pushed S (the full mask for
    the root), so that child is pushed untested.  Every prefix of the
    optimum, taken with its tail, holds the optimum, so all its ancestors
    are pushed; only entries with no spanning descendant are dropped, and
    the survivors pop in the same (cost, tuple) order, so the optimum and
    its face tuple are those of the unpruned search.

    `evaluations` counts the predicate calls of the search: one per popped
    subset and one per tail test made, memo hits included; the call on the
    full mask is not counted.  A pool from another complex raises
    PreconditionError; a pool of more than EXHAUSTIVE_POOL_CAP faces, or
    more than EXHAUSTIVE_EVALUATION_CAP evaluations, raises
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
    full = (1 << len(pool)) - 1
    if not spans(full):
        raise InfeasibleError(
            "no subset of the candidate pool satisfies the constraints")
    vols = _face_volumes(K, d)
    costs = [float(weight.at(f) * vols[f]) for f in pool]
    # tail[j]: the positions j and above
    tail = [full >> j << j for j in range(len(pool))]

    heap: List[Tuple[float, Tuple[int, ...], int, int]] = [(0.0, (), 0, -1)]
    evaluations = 0

    def test(state: int) -> bool:
        nonlocal evaluations
        evaluations += 1
        if evaluations > EXHAUSTIVE_EVALUATION_CAP:
            raise PoolTooLargeError(
                f"exhaustive search passed {EXHAUSTIVE_EVALUATION_CAP} "
                f"evaluations; use minimize_local")
        return spans(state)

    while heap:
        cost, faces, mask, last = heapq.heappop(heap)
        if test(mask):
            return SolveResult(faces=FaceSet(K, d, faces), objective=cost,
                               certificate={"method": "exhaustive",
                                            "lower_bound": cost},
                               evaluations=evaluations, accepted=0, seed=None)
        for j in range(last + 1, len(pool)):
            if j > last + 1 and not test(mask | tail[j]):
                break
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


def _round_down(num: int, den: int) -> float:
    """The largest float at most num / den."""
    f = num / den
    p, q = f.as_integer_ratio()
    return math.nextafter(f, -math.inf) if p * den > num * q else f


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
    number of spanning evaluations, and must be nonnegative
    (`InvalidInputError`); runs are deterministic for a fixed seed.  With
    a region, pool faces outside it are dropped and init faces outside it
    are never removed.

    The search stops early at a proven optimum.  `separation_bound` gives,
    for point pairs across d = n-1, a lower bound on the cost of every
    state: the fixed faces' cost plus a maximum flow on the contracted
    dual graph, exact for one pair.  Before the first descent and after
    every step a descent takes, the state's exact cost (the costs as
    integers over one power-of-two denominator, never the drifting float
    value) is compared with it; at equality no later move could be
    accepted, so the search ends with the faces, objective, `accepted` and
    history that it returns without the stop, in fewer evaluations.  The
    bound, rounded down to a float, is `certificate["lower_bound"]`, or
    None when there is none.

    One move table over the sorted pool and one `spanning_predicate` over
    it are built per solve.  States are bitmasks over pool positions; the
    predicate keeps its verdicts, and decides a state with no face tuple
    for degree-0 constraints; a face tuple is built for the result.  Every
    candidate tried counts as an evaluation, answered from that memo or
    not.  A step's moves are flat codes (`_exchange_moves`), decoded
    into table rows only when tried.
    """
    if budget < 0:
        raise InvalidInputError(f"budget must be nonnegative, got {budget}")
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

    # the costs exactly, as integers over one denominator, and the cut
    # bound in those units; a state at the bound is optimal
    caps, den = _integer_costs(costs)
    fixed = sum(bit for bit, m in zip(bits, movable) if not m)
    bound = separation_bound(K, constraints, d, pool_faces, caps, fixed)

    def optimal(state: int) -> bool:
        return bound is not None and bound == sum(
            c for c, bit in zip(caps, bits) if state & bit)

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
        while evaluations < budget and not optimal(state):
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
    while (evaluations < budget - 1 and stall < max_stall
           and not optimal(best)):
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
    lower = None if bound is None else _round_down(bound, den)
    return SolveResult(faces=FaceSet(K, d, faces),
                       objective=cost_of(best),
                       certificate={"method": "local", "lower_bound": lower},
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
        if self.kind == "box" and (self.params[2] < self.params[0]
                                   or self.params[3] < self.params[1]):
            raise InvalidInputError(
                f"box corners must satisfy xmin <= xmax and ymin <= ymax, "
                f"got {self.params}")
        if self.kind == "disk" and self.params[2] < 0:
            raise InvalidInputError(
                f"disk radius must be non-negative, got {self.params[2]}")

    def bbox(self) -> Tuple[float, float, float, float]:
        if self.kind == "box":
            x0, y0, x1, y1 = self.params
            return x0, y0, x1, y1
        cx, cy, r = self.params
        return cx - r, cy - r, cx + r, cy + r

    def polygon(self, resolution: int) -> np.ndarray:
        """The convex polygon measured for the region, as (m, 2) vertices
        in counterclockwise order: the box itself, or the regular
        4 * resolution-gon inscribed in the disk."""
        if self.kind == "box":
            x0, y0, x1, y1 = self.params
            return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]],
                            dtype=float)
        cx, cy, r = self.params
        t = np.arange(4 * resolution) * (math.pi / (2 * resolution))
        return np.column_stack((cx + r * np.cos(t), cy + r * np.sin(t)))


AREA_CHUNK = 1 << 16  # array cells per chunk of edge pairs or slabs


def _edges(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Segments pq as stacked (x_left, y_left, x_right, slope) arrays.  A
    vertical segment gets slope 0; no open x-range holds it (`_section`)."""
    swap = (p[..., 0] > q[..., 0])[..., None]
    a, b = np.where(swap, q, p), np.where(swap, p, q)
    dx = b[..., 0] - a[..., 0]
    slope = np.divide(b[..., 1] - a[..., 1], dx, out=np.zeros(dx.shape),
                      where=dx > 0)
    return np.stack((a[..., 0], a[..., 1], b[..., 0], slope))


def _section(edges: np.ndarray, x: np.ndarray):
    """Lowest and highest height at x, over the last axis, of the edges
    whose open x-range holds x; +inf and -inf where none does."""
    ax, ay, bx, slope = edges
    y = ay + (x - ax) * slope
    on = (ax < x) & (x < bx)
    return (np.where(on, y, np.inf).min(-1, initial=np.inf),
            np.where(on, y, -np.inf).max(-1, initial=-np.inf))


def _union_area(triangles: np.ndarray, polygon: np.ndarray) -> float:
    """Area of (union of the closed triangles) ∩ (convex polygon), rounded
    down.

    Each vertical line meets a triangle, and the polygon, in an interval
    between two edge heights.  Cut the plane into slabs at every vertex
    abscissa and at every crossing of a triangle edge with another edge
    (their height gap changes sign across their common x-range).  In a
    slab the interval ends are linear and keep their order, so the length
    f(x) of the union of the triangles' intervals, each cut to the
    polygon's, is linear, and the slab's area is its width times f at the
    midpoint.  f sums, over the intervals sorted by lower end, the part of
    each above the highest upper end before it.  Triangles of no width or
    off the polygon's box are dropped, which loses no area; edge pairs and
    slabs go AREA_CHUNK array cells at a time.

    Rounding.  Let u = 2^-53 and S the largest |coordinate| of the kept
    triangles and the polygon.  A height y_a + (x - x_a) * slope is
    within 12uS (|y| <= S, |x - x_a| * |slope| <= 2S), a gap of two
    within eta = 32uS.  Per kept triangle: its interval ends are within
    12uS and f is 1-Lipschitz in each, over slabs of total width at most
    2S, so 48uS^2; midpoints (within uS, against |f'| summing over the
    slabs to at most the edges' total rise 6S) and the sums add 10uS^2.
    Once: 16uS^2 more, and a disk's polygon, with vertices within 5uS of
    the circle, leaves it by at most 8S * 5uS.  Per pair: a true crossing
    c left inside a slab, at distance d from its nearest cut, bends f by
    at most twice the slope difference D and costs at most D d^2.  If c
    was found at c', D|c' - c| <= eta + 11uSD, so D d^2 <= S eta +
    22uS^2 (d <= S, Dd <= 2S).  If not, the computed gap is at most eta
    at an end of the common x-range, a cut, so D d^2 <= eta d.  The
    polygon's own edges meet only at its vertices.  With n kept triangles
    and N pairs whose gap changes sign or comes within eta of 0 at an end,
    the error is below E = 2^-46 S^2 (n + N + 1) (2^-46 = 128u), and
    max(0, area - E) is at most the area in the polygon and in the disk.
    """
    box_lo, box_hi = polygon.min(axis=0), polygon.max(axis=0)
    t_lo, t_hi = triangles.min(axis=1), triangles.max(axis=1)
    keep = ((t_lo < box_hi).all(axis=1) & (t_hi > box_lo).all(axis=1)
            & (t_lo[:, 0] < t_hi[:, 0]))
    tris, x_lo, x_hi = triangles[keep], t_lo[keep, 0], t_hi[keep, 0]
    if not len(tris):
        return 0.0
    sides = _edges(tris, np.roll(tris, -1, axis=1))
    rim = _edges(polygon, np.roll(polygon, -1, axis=0))
    own = sides.reshape(4, -1)
    own = np.unique(own[:, own[0] < own[2]], axis=1)
    ax, ay, bx, slope = np.concatenate((own, rim[:, rim[0] < rim[2]]), axis=1)
    scale = float(max(np.abs(tris).max(), np.abs(polygon).max()))
    eta = 2.0 ** -48 * scale

    cuts = [tris[..., 0].ravel(), polygon[:, 0]]
    pairs = 0
    step = max(1, AREA_CHUNK // len(ax))
    for i0 in range(0, own.shape[1], step):
        rows = np.arange(i0, min(i0 + step, own.shape[1]))
        lo = np.maximum(ax[rows, None], ax)
        hi = np.minimum(bx[rows, None], bx)
        i, j = np.nonzero((lo < hi) & (rows[:, None] < np.arange(len(ax))))
        lo, hi, i = lo[i, j], hi[i, j], rows[i]
        g_lo, g_hi = (ay[i] + (x - ax[i]) * slope[i]
                      - (ay[j] + (x - ax[j]) * slope[j]) for x in (lo, hi))
        c = np.sign(g_lo) * np.sign(g_hi) < 0
        pairs += int(np.count_nonzero(
            c | (np.minimum(abs(g_lo), abs(g_hi)) <= eta)))
        cuts.append(lo[c] + (hi[c] - lo[c]) * (g_lo[c] / (g_lo[c] - g_hi[c])))

    xs = np.unique(np.clip(np.concatenate(cuts), box_lo[0], box_hi[0]))
    mids, widths = (xs[:-1] + xs[1:]) / 2, np.diff(xs)
    slabs = []
    step = max(1, AREA_CHUNK // (sides[0].size + len(polygon)))
    for s0 in range(0, len(mids), step):
        x = mids[s0:s0 + step, None]
        # only what overlaps the chunk's x-span can meet its midlines
        met = (x_lo < x[-1]) & (x_hi > x[0])
        if not met.any():
            continue
        low, high = _section(sides[:, met], x[..., None])
        r_low, r_high = _section(rim[:, (rim[0] < x[-1]) & (rim[2] > x[0])],
                                 x)
        low = np.maximum(low, r_low[:, None])
        high = np.minimum(high, r_high[:, None])
        order = np.argsort(low, axis=1)
        low = np.take_along_axis(low, order, axis=1)
        high = np.take_along_axis(high, order, axis=1)
        top = np.maximum.accumulate(high, axis=1)[:, :-1]
        length = (np.maximum(high[:, 0] - low[:, 0], 0.0)
                  + np.maximum(high[:, 1:] - np.maximum(low[:, 1:], top),
                               0.0).sum(axis=1))
        slabs.append(widths[s0:s0 + step] * length)
    area = math.fsum(np.concatenate(slabs).tolist()) if slabs else 0.0
    return max(0.0, area - 2.0 ** -46 * scale ** 2 * (len(tris) + pairs + 1))


def projection_lower_bound(F: FaceSet, frame1: np.ndarray, frame2: np.ndarray,
                           disks: Tuple[PlaneRegion, PlaneRegion],
                           resolution: int = 1024) -> float:
    """Certified lower bound on the 2-area of any set whose projections
    cover the target regions as F's do.

    Projects the faces onto the two planes, measures the exact area of
    (union of projected faces) ∩ region in each, rounded down
    (`_union_area`), and divides the sum by the projection constant of the
    plane pair (`PlanePair.projection_bound`).  The bound holds for every
    competitor whose projection onto each plane covers what F's covers of
    that plane's region; it says nothing about one that leaves part of a
    region uncovered.  A box region is measured exactly, whatever the
    resolution; a disk is replaced by its inscribed regular polygon with
    4 * resolution vertices, which lies inside it, so the bound stays
    sound.  A resolution below 1 raises `InvalidInputError`.
    """
    if resolution < 1:
        raise InvalidInputError(
            f"resolution must be at least 1, got {resolution}")
    if F.dim != 2:
        raise PreconditionError("projection certificate needs 2-dimensional faces")
    K = F.complex
    if K.coords.shape[1] != 4:
        raise PreconditionError("projection certificate needs an ambient R^4")
    pair = grassmann.PlanePair(frame1, frame2)

    tris = K.coords[K.rows(2)[np.asarray(F.faces, dtype=np.int64)]]
    areas = [_union_area(tris @ frame.T, region.polygon(int(resolution)))
             for frame, region in zip((pair.frame1, pair.frame2), disks)]
    return (areas[0] + areas[1]) / pair.projection_bound()
