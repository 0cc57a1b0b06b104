"""Byte-identical CLI reports on a seeded corpus of problem files.

`corpus()` writes 30 problem files from one seed: 2D boxes with random
edges, 2D walls with and without a gap, 3D random faces, 3D wires with
meridian loops, 4D plane pairs with linking loops and 4D random faces.
Point pairs include off-grid points and vertices of the face set.  Each
file runs `check`, `homology`, `export --csv-out` and, for a pool of at
most 10 faces, `solve`.  A digest of the exit codes, the reports without
their `time:` lines, stderr and the CSV bytes is pinned per file, so a
change that keeps every verdict, optimum and report keeps every digest.
"""

import functools
import hashlib
import random

import pytest

from spanmin import build_grid_complex
from spanmin.cli import main
from spanmin.problems import ProblemSpec, serialize_problem

SOLVE_POOL_CAP = 10


def lattice_point(rng, box, off_grid=False):
    p = [rng.randint(0, b) for b in box]
    if off_grid:
        p[rng.randrange(len(box))] = rng.choice([-1, box[0] + 1])
    return tuple(p)


def rectangle(axes, lo, hi, base):
    """Closed lattice loop around lo..hi in the plane of two axes through
    the point `base`, in unit steps."""
    a, b = axes

    def at(u, v):
        p = list(base)
        p[a], p[b] = u, v
        return tuple(p)

    return tuple([at(u, lo[1]) for u in range(lo[0], hi[0])]
                 + [at(hi[0], v) for v in range(lo[1], hi[1])]
                 + [at(u, hi[1]) for u in range(hi[0], lo[0], -1)]
                 + [at(lo[0], v) for v in range(hi[1], lo[1], -1)])


def random_problem(rng, box, d):
    """One seeded problem on the box: the d-plane x_0 = ... = x_{n-d-1} = 1
    (a wall for d = n-1, linked by a loop in codimension 2), sometimes
    with a gap, plus up to two random faces, as a ProblemSpec."""
    n = len(box)
    K = build_grid_complex(n, list(box))
    points = K.grid.points
    faces = [i for i, s in enumerate(K.simplices(d))
             if all(points[v][a] == 1 for v in s for a in range(n - d))]
    if rng.random() < 0.2:
        faces.remove(rng.choice(faces))
    faces += rng.sample(range(K.n_simplices(d)), rng.choice([0, 0, 1, 2]))
    pairs, loops = [], []
    if d == n - 1:  # across the wall
        pairs += [((0,) + lattice_point(rng, box[1:]),
                   (box[0],) + lattice_point(rng, box[1:]))
                  for _ in range(rng.randint(1, 2))]
    else:  # around the plane
        loops.append(rectangle((0, 1), (0, 0), (2, 2), (0,) * n))
    if rng.random() < 0.15:
        pairs.append((lattice_point(rng, box), lattice_point(rng, box)))
    if rng.random() < 0.3:
        hi = [rng.randint(1, b) for b in box[:2]]
        loops.append(rectangle((0, 1), (0, 0), hi, (0,) * n))
    if rng.random() < 0.1:
        pairs.append((lattice_point(rng, box),
                      lattice_point(rng, box, off_grid=True)))
    if rng.random() < 0.1:  # a vertex of the face set
        v = K.simplex(d, faces[0])[0]
        pairs.append((points[v], lattice_point(rng, box)))
    table = tuple((f, float(rng.randint(1, 3)))
                  for f in rng.sample(faces, min(len(faces), 2)))
    region = ((0,) * n, box) if n == 2 and rng.random() < 0.4 else None
    return ProblemSpec(
        n=n, d=d, box=box, weight_kind="table" if table else "constant",
        weight_table=table, init_faces=tuple(sorted(set(faces))),
        constraints=tuple(("point-pair", pq) for pq in pairs)
        + tuple(("loop", lp) for lp in loops),
        region=region, seed=rng.randrange(1 << 16), budget=200)


# (box, d): walls in 2D, 3D and 4D, planes of codimension 2 in 3D and 4D
CASES = [((3, 3), 1), ((4, 3), 1), ((2, 4), 1), ((2, 2, 2), 2),
         ((3, 2, 2), 2), ((2, 2, 2), 1), ((3, 2, 2), 1), ((2, 1, 1, 1), 3),
         ((2, 2, 1, 1), 2), ((2, 2, 2, 2), 2)]


@functools.lru_cache(maxsize=None)
def corpus(seed=2028):
    """30 problems, three per case, by file stem."""
    rng = random.Random(seed)
    return {f"{len(box)}d-{'x'.join(map(str, box))}-d{d}-{i}":
            random_problem(rng, box, d)
            for i in range(3) for box, d in CASES}


def digest(spec, tmp_path, capsys):
    """Exit codes, reports without `time:`, stderr and CSV bytes of every
    subcommand run on the problem, hashed."""
    path = tmp_path / "problem.txt"
    path.write_text(serialize_problem(spec))
    csv = tmp_path / "out.csv"
    runs = [["check"], ["homology"], ["export", "--csv-out", str(csv)]]
    if spec.region or len(spec.init_faces) <= SOLVE_POOL_CAP:
        runs.append(["solve"])
    h = hashlib.sha256()
    for argv in runs:
        code = main([argv[0], "--input", str(path)] + argv[1:])
        out, err = capsys.readouterr()
        out = "\n".join(l for l in out.splitlines()
                        if not l.startswith("time:"))
        out = out.replace(str(csv), "out.csv")
        h.update(f"{argv[0]} {code}\n{out}\n{err}\n".encode())
    h.update(csv.read_bytes())
    return h.hexdigest()[:16]


PINNED = {
    "2d-2x4-d1-0": "3ef787c12e1da5ce",
    "2d-2x4-d1-1": "ba4e2dfbcd4d575e",
    "2d-2x4-d1-2": "ff73426b27d03d3f",
    "2d-3x3-d1-0": "d57d6bee670a4df1",
    "2d-3x3-d1-1": "76eb9e1972d14f93",
    "2d-3x3-d1-2": "797436bb9f42e3d3",
    "2d-4x3-d1-0": "e7903ca624bcc109",
    "2d-4x3-d1-1": "0b312a8e081e70da",
    "2d-4x3-d1-2": "05523ba746a50177",
    "3d-2x2x2-d1-0": "6f57df350bf8356a",
    "3d-2x2x2-d1-1": "d463bac57bc0cbe6",
    "3d-2x2x2-d1-2": "653291c642dfc7e3",
    "3d-2x2x2-d2-0": "9eb8ef9f90479769",
    "3d-2x2x2-d2-1": "17c10b7990981e08",
    "3d-2x2x2-d2-2": "41a1d957d7c3f560",
    "3d-3x2x2-d1-0": "687f5de8bbe42fe5",
    "3d-3x2x2-d1-1": "5357647393c8ab7f",
    "3d-3x2x2-d1-2": "ceb1fed045be4287",
    "3d-3x2x2-d2-0": "432772785a1c1d45",
    "3d-3x2x2-d2-1": "fcd38892b0dee88a",
    "3d-3x2x2-d2-2": "deea91a5c78cfe9d",
    "4d-2x1x1x1-d3-0": "7e4f63adb8275f7f",
    "4d-2x1x1x1-d3-1": "1c0c66fdce21131d",
    "4d-2x1x1x1-d3-2": "40e9d71ab08ca9e7",
    "4d-2x2x1x1-d2-0": "094ead2812bd995c",
    "4d-2x2x1x1-d2-1": "3b38217a53844dd4",
    "4d-2x2x1x1-d2-2": "e0b9cb0b85413dd7",
    "4d-2x2x2x2-d2-0": "207f60af043f2f74",
    "4d-2x2x2x2-d2-1": "5a5faf18758bf56e",
    "4d-2x2x2x2-d2-2": "3d4d3173693b2e2d",
}


@pytest.mark.parametrize("stem", sorted(PINNED))
def test_cli_reports_match_pinned_digests(stem, tmp_path, capsys):
    assert digest(corpus()[stem], tmp_path, capsys) == PINNED[stem]
