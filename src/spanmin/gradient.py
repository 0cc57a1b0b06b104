"""A discrete gradient on the Kuhn cells of a lattice sub-box, and a loop's
cochain read off it.

A loop's check needs an (n-2)-cochain y of its sub-box K' relative to the
walls with delta(y) = z, the loop's crossing cocycle (`complement`).
`_gradient` pairs the off-wall cells of K' by a rule on (base, flag), the
encoding of `complexes._kuhn_faces`, and `_descend` reads y off the pairs
by one back-substitution pass, with no elimination over K'.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .complexes import Complex, _flags, _simplex_ids
from .errors import PreconditionError
from . import homology as _hom


class _Moves(NamedTuple):
    """Flag tables of R^n for `_gradient`: every flag S1 < ... < Sk of
    `_flags`, k = 0..n, numbered size by size from start[k], with its
    size, last set and first set (0 for k = 0), and `key`, its sets packed
    into one integer, increasing within a size; per stage (a, mode) the
    flag each flag's toggle raises it to (-1 where the toggle lowers it)
    and the shift of the base along a (`toggle`); and per flag of size n-1
    the flags of its n facets (`facet`), facet 0 based at b + e(S1)."""

    start: List[int]
    size: np.ndarray
    last: np.ndarray
    first: np.ndarray
    key: np.ndarray
    toggle: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]]
    facet: np.ndarray


@functools.lru_cache(maxsize=None)
def _kuhn_moves(n: int) -> _Moves:
    """`_Moves` of R^n, built once per n from the flags; read-only, as
    every caller shares it."""
    flags = [tuple(map(tuple, t.tolist())) for t in _flags(n)]
    start = np.cumsum([0] + [len(t) for t in flags]).tolist()
    every = [f for t in flags for f in t]
    at = {f: g for g, f in enumerate(every)}
    toggle = {}
    for a, mode in itertools.product(range(n), (0, 1)):
        bit = 1 << (n - 1 - a)
        to = np.full(len(every), -1, dtype=np.int64)
        shift = np.zeros(len(every), dtype=np.int64)
        for g, f in enumerate(every[:start[n]]):
            steps = (0,) + f
            i = next((j for j in range(1, len(steps)) if steps[j] & bit), 0)
            if i and steps[i] & ~steps[i - 1] == bit:
                continue  # a alone in its step: this toggle lowers f
            if not i and not mode:  # append the step {a}
                to[g] = at[f + (steps[-1] | bit,)]
            elif not i:  # prepend it, from the base b - e_a
                to[g], shift[g] = at[(bit,) + tuple(s | bit for s in f)], -1
            elif not mode:  # split a's step, a first
                to[g] = at[f[:i - 1] + (steps[i - 1] | bit,) + f[i - 1:]]
            else:  # split a's step, a last
                to[g] = at[f[:i - 1] + (steps[i] & ~bit,) + f[i - 1:]]
        toggle[a, mode] = (to, shift)
    facet = np.array([[at[tuple(s & ~f[0] for s in f[1:])]]
                      + [at[f[:i - 1] + f[i:]] for i in range(1, n)]
                      for f in flags[n - 1]], dtype=np.int64)
    size = np.repeat(np.arange(n + 1), np.diff(start))
    key = np.array([sum(s << n * (len(f) - 1 - j) for j, s in enumerate(f))
                    for f in every], dtype=np.int64)
    last = np.array([f[-1] if f else 0 for f in every], dtype=np.int64)
    first = np.array([f[0] if f else 0 for f in every], dtype=np.int64)
    for table in (size, key, last, first, facet, *itertools.chain(
            *toggle.values())):
        table.flags.writeable = False
    return _Moves(start, size, last, first, key, toggle, facet)


def _set_strides(strides: np.ndarray) -> np.ndarray:
    """Per axis set S as a bitmask (bit n-1-a for axis a), the id offset of
    e(S): the sum of its axes' strides, increasing with the mask."""
    n = len(strides)
    return ((np.arange(1 << n)[:, None] & 1 << np.arange(n - 1, -1, -1))
            > 0) @ strides


class _Gradient(NamedTuple):
    """The matching of `_gradient` on a sub-box, in the form y's
    back-substitution reads.  A cell is p * len(flags) + g: p the row-major
    rank of its base in the sub-box (`strides`), g its flag in
    `_kuhn_moves`; `zero`, one past the last cell, stands for every cell
    on a wall.  `sig` are the (n-2)-cells paired up, by the length of
    their longest V-path, a level per slice levels[j]:levels[j+1]; `own`
    is each one's sign in its partner, and `rest` the partner's facets
    with `zero` in its place.  `crit` are the critical (n-2)-cells.  `tau`
    lists every off-wall (n-1)-cell: the partners of `sig` in its order,
    then the critical ones up to `kappa`, then those paired up; `cofaces`
    holds their facets.  Facet i has the sign (-1)^i."""

    strides: np.ndarray
    zero: int
    sig: np.ndarray
    levels: List[int]
    own: np.ndarray
    rest: np.ndarray
    crit: np.ndarray
    tau: np.ndarray
    kappa: int
    cofaces: np.ndarray


def _gradient(ext: Tuple[int, ...]) -> _Gradient:
    """An acyclic matching on the off-wall Kuhn cells of the sub-box
    0..ext, the relative complex (K', dK') of a loop up to translation: a
    discrete gradient (Forman, "Morse theory for cell complexes", Adv.
    Math. 134 (1998)).

    The rule.  A cell is a base b and a flag S1 < ... < Sk: its vertices
    are v0 = b and vj = b + e(Sj), and step j raises the axes Sj - S(j-1).
    The axes a1, a2, ... go by decreasing extent, and stage s toggles one
    vertex w along a = as, in mode append for odd s and prepend for even
    s, with i the step raising a:
    - append: w = v(i-1) + e_a, or vk + e_a if no step raises a;
    - prepend: w = vi - e_a, or v0 - e_a if no step raises a.
    w is a vertex of the cell exactly when a is alone in its step, so the
    toggle swaps "a alone in its step" with "a shares the step after it"
    (append) or "before it" (prepend), a missing step counting as the one
    after the last or before the first: an involution.  A stage pairs a
    cell with its toggle when both are off the walls and no earlier stage
    paired either.

    Critical cells.  Stage 1 pairs every off-wall cell but those whose
    last step is {a1} with b at lo on a1: a partner that leaves a1 in a
    step or drops a step before the last keeps every wall condition, and
    only dropping the last step {a1} can put a cell on the wall x_a1 = lo.
    A prepend toggle never moves the last vertex, so stage 2 acts on those
    cells as stage 1 acts on the face x_a1 = lo, mirrored: it leaves the
    ones whose first step is also {a2} with b at hi - 1 on a2.  On a thin
    sub-box, every other axis of extent 1, such a cell raises every other
    axis, or it lies on a wall: for n = 4 it is {a2}, {a3 a4}, {a1} or one
    of its two splits.  Stage 3 pairs the first with {a2}, {a3}, {a4},
    {a1}, and stage 4 leaves {a2}, {a4}, {a3}, {a1}, whose toggles were
    paired in stages 1 and 2: one critical cell, a top; likewise for n = 2
    and 3.  A thicker sub-box keeps more (2^4: one (n-2)-cell, four
    (n-1)-cells and four tops), which `_descend` solves for.

    Acyclicity.  On a V-path step s -> t = s + w -> s' = t - v (s' != s,
    s' paired up) the key (sum of x_a1, minus the sum of x_a2) over the
    vertices rises on a thin sub-box.  A stage-1 pair has x_a1 one lower
    before w than from w on: v before w raises the first sum; v after w
    leaves a1 alone in its step, so s' is paired up only in stage 1's
    critical form, reached by dropping t's last step R, and R = {a2} on a
    thin sub-box (any other axis dropped puts s' on a wall), so the second
    term rises.  A stage-2 pair keeps the first sum (its last vertex
    cannot go: that face is walled); v after w lowers the x_a2 sum, and v
    before w leaves s' with a2 alone in its step, so s' is paired down in
    stage 2 or is in stage 2's critical form, which has no (n-2)-cell off
    the walls.  Later stages pair no (n-2)-cell.  On a thick sub-box this
    is measured, not proved: the longest V-paths are found as a fixed
    point within |sig| + 1 sweeps or this raises, and `_descend` checks
    delta(y) = z.
    """
    n, r = len(ext), len(ext) - 2
    moves = _kuhn_moves(n)
    width = moves.start[-1]
    shape = np.add(ext, 1)
    strides = np.array([math.prod(shape[a + 1:]) for a in range(n)])
    points = np.indices(shape).reshape(n, -1).T
    bit = 1 << np.arange(n - 1, -1, -1)
    free = (points < ext) @ bit  # the axes a base may step along
    inner = ((points > 0) & (points < ext)) @ bit
    # off the walls: every axis outside the last set strictly inside
    off = (((moves.last & ~free[:, None]) == 0)
           & ((~moves.last & ~inner[:, None] & (1 << n) - 1) == 0)).ravel()
    zero = len(off)
    off = np.append(off, False)
    cells = np.flatnonzero(off)
    p, g = np.divmod(cells, width)
    alive, up = off.copy(), np.full(zero + 1, -1)
    for s, a in enumerate(sorted(range(n), key=lambda a: -ext[a])):
        to, shift = moves.toggle[a, s % 2]
        h, d = to[g], shift[g]
        q = np.where((h >= 0) & (points[p, a] + d >= 0),
                     (p + d * strides[a]) * width + h, zero)
        pair = alive[cells] & alive[q]
        up[cells[pair]] = q[pair]
        alive[cells[pair]] = alive[q[pair]] = False
    size = moves.size[g]
    low = cells[(size == r) & (up[cells] >= 0)]
    tau = cells[size == r + 1]
    p, g = np.divmod(tau, width)
    at = np.repeat(p[:, None], n, axis=1)
    at[:, 0] += _set_strides(strides)[moves.first[g]]
    cofaces = at * width + moves.facet[g - moves.start[r + 1]]
    cofaces[~off[cofaces]] = zero
    paired = np.searchsorted(tau, up[low])
    rest = cofaces[paired]
    mine = rest == low[:, None]
    own = np.where(mine.argmax(axis=1) % 2, -1, 1)
    rest[mine] = zero
    # the longest V-path from each pair, by sweeps to a fixed point over
    # the V-path steps (src, dst), sorted by src
    node = np.full(zero + 1, -1)
    node[low] = np.arange(len(low))
    src, col = np.nonzero(node[rest] >= 0)
    dst = node[rest[src, col]]
    heads = np.flatnonzero(np.diff(src, prepend=-1))
    level = np.zeros(len(low), dtype=np.int64)
    for _ in range(len(low) + 1):
        new = np.zeros_like(level)
        if len(dst):
            new[src[heads]] = np.maximum.reduceat(level[dst] + 1, heads)
        if np.array_equal(new, level):
            break
        level = new
    else:
        raise RuntimeError("the sub-box matching has a cycle")
    by = np.argsort(level, kind="stable")
    levels = np.searchsorted(level[by], np.arange(level.max(initial=-1) + 2))
    crit = alive[tau]  # paired cells are not alive
    later = ~crit
    later[paired] = False
    order = np.concatenate([paired[by], np.flatnonzero(crit),
                            np.flatnonzero(later)])
    return _Gradient(strides, zero, low[by], levels.tolist(), own[by],
                     rest[by], cells[(size == r) & alive[cells]], tau[order],
                     len(by) + int(crit.sum()), cofaces[order])


def _descend(K: Complex, z: Dict[int, int], lo: Sequence[int],
             hi: Sequence[int]) -> Dict[int, int]:
    """y with delta(y) = z on the relative cochains of the sub-box lo..hi,
    z an (n-1)-cocycle there on K's ids, by back-substitution along
    `_gradient`: y(s) = [t : s](z(t) - sum of [t : s'] y(s')) for each
    pair s < t, s' the other facets of t, and y = 0 on the other
    (n-2)-cells.  The pairs go level by level, each level one array step
    that reads only the levels below it.

    For each critical (n-2)-cell c a response, the same rule with z = 0
    and y(c) = 1, rides in a column of its own.  delta(y) then equals z on
    every (n-1)-cell paired down, and one integer solve over the critical
    (n-1)-cells, with the responses as columns, gives their coefficients:
    H^{n-1}(K', dK') = 0, so it has a solution.  A sub-box with no
    critical (n-2)-cell, such as every thin one, solves nothing.
    delta(y) = z is then checked on every off-wall (n-1)-cell, which
    settles those paired up as well: y is exact, or this raises."""
    n, r = K.dim, K.dim - 2
    ext = tuple(b - a for a, b in zip(lo, hi))
    G, moves = _gradient(ext), _kuhn_moves(n)
    width = moves.start[-1]
    shape = [b + 1 for b in K.grid.box]
    set_strides = _set_strides(np.array(K.grid._strides))
    # z's facets as sub-box cells: base and flag, read off their rows
    rows = K.rows(r + 1)[list(z)]
    base = (np.array(np.unravel_index(rows[:, 0], shape)).T - lo) @ G.strides
    key = (np.searchsorted(set_strides, rows[:, 1:] - rows[:, :1])
           @ (1 << n * np.arange(r, -1, -1)))
    first = moves.start[r + 1]
    Z = np.zeros(G.zero + 1, dtype=np.int64)
    Z[base * width + first + np.searchsorted(
        moves.key[first:moves.start[r + 2]], key)] = list(z.values())
    want = Z[G.tau]
    cols = 1 + len(G.crit)
    Y = np.zeros((G.zero + 1, cols), dtype=np.int64)
    Y[G.crit, np.arange(1, cols)] = 1
    sign = np.where(np.arange(n) % 2, -1, 1)[:, None]
    for a, b in zip(G.levels, G.levels[1:]):
        acc = (sign * Y[G.rest[a:b]]).sum(axis=1)
        acc[:, 0] -= want[a:b]
        Y[G.sig[a:b]] = -G.own[a:b, None] * acc
    if np.abs(Y).max() >= 1 << 50:
        raise OverflowError("the loop cochain outgrows int64")
    dY = (sign * Y[G.cofaces]).sum(axis=1)
    coeffs = [1] + [0] * len(G.crit)
    if len(G.crit):
        kappa = range(len(G.sig), G.kappa)
        sol = _hom._snf_diagonal_sparse(
            {c: {i: int(dY[i, c]) for i in kappa if dY[i, c]}
             for c in range(1, cols)},
            rhs={i: int(want[i] - dY[i, 0]) for i in kappa}, witness=True)
        for c, x in (sol.witness or {}).items():
            coeffs[c] = x
    # z must lie on the off-wall (n-1)-cells, where delta(y) must meet it
    if (np.abs(want).sum() != np.abs(Z).sum()
            or not np.array_equal(dY @ coeffs, want)):
        raise PreconditionError("the loop cochain misses its cocycle")
    y = Y[:-1] @ coeffs
    at = np.flatnonzero(y)
    return dict(zip(_cell_ids(K, lo, ext, at, r), y[at].tolist()))


def _cell_ids(K: Complex, lo: Sequence[int], ext: Sequence[int],
              cells: np.ndarray, r: int) -> List[int]:
    """The ids in K of r-cells of the sub-box lo..lo+ext, numbered as in
    `_Gradient`: vertex b plus the strides of the flag's sets."""
    n, moves = K.dim, _kuhn_moves(K.dim)
    p, g = np.divmod(cells, moves.start[-1])
    strides = np.array(K.grid._strides)
    sets = np.concatenate([np.zeros((len(g), 1), dtype=np.int64),
                           _flags(n)[r][g - moves.start[r]]], axis=1)
    base = (np.array(np.unravel_index(p, np.add(ext, 1))).T + lo) @ strides
    return _simplex_ids(K, r, base[:, None] + _set_strides(strides)[sets])
