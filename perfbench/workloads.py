"""The benchmark's workloads: seeded inputs, operations and their answers.

Each workload builds its inputs from the seed in `setup` and hands out a
round of operations on them; every round repeats the same operations.  An
operation is timed by the runner; its `check` compares the answer with the
known one and returns an error message, or None when the answer is right.
`spanmin` only ever sees generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import statistics
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

import spanmin.cli
import spanmin.complement
import spanmin.complexes
import spanmin.problems
import spanmin.solver
from spanmin import (ConstraintCycle, FaceSet, PlaneRegion, Region,
                     WeightField, linking_loops, weighted_measure)

TOL = 1e-9


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def coordinate_plane(K, fixed: Dict[int, int]) -> FaceSet:
    """2-faces of the 4D grid K whose vertices all satisfy x_axis = value."""
    points = K.grid.points
    return FaceSet(K, 2, tuple(
        i for i, s in enumerate(K.simplices(2))
        if all(points[v][ax] == val for v in s for ax, val in fixed.items())))


def run_cli(argv: List[str]):
    """In-process `spanmin ...`: (exit code, report lines without time:)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = spanmin.cli.main(argv)
    lines = [l for l in out.getvalue().splitlines()
             if not l.startswith("time:")]
    if err.getvalue():
        lines.append("stderr: " + err.getvalue().strip())
    return code, lines


class Oracle2D:
    """Criterion-4 loop: exhaustive optimum, then budgeted local search.

    Box: 2D 4x4 grid; constraint: the point pair (2,0)-(2,4).  An instance's
    pool is the middle row plus seeded edges of the band y in [1,3].  The
    band cannot reach either point, so every separating set is a
    left-to-right cut and the optimum is 4.0.  A round holds one instance
    for each extra-edge count 8..14, and every round repeats the same
    instances: the count sets most of an instance's cost, and with fresh
    instances per round a run's figure moved with how many rounds fitted
    in it.
    """

    name = "oracle2d"
    OPTIMUM = 4.0
    BUDGET = 10_000
    EXTRA_COUNTS = range(8, 15)

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.local_runs = 0
        self.local_optimal = 0

    def setup(self) -> None:
        K = spanmin.complexes.build_grid_complex(2, [4, 4])
        self.K = K
        self.cons = [ConstraintCycle(kind="point-pair",
                                     points=((2, 0), (2, 4)))]
        self.weight = WeightField.uniform(1.0)
        points = K.grid.points
        row = tuple(i for i, s in enumerate(K.simplices(1))
                    if all(points[v][1] == 2 for v in s))
        band = Region(lo=(0, 1), hi=(4, 3))
        band_edges = [i for i in range(K.n_simplices(1))
                      if band.contains_face(K, 1, i) and i not in row]
        rng = random.Random(self.seed)
        self.instances = [
            (FaceSet(K, 1, row + tuple(rng.sample(band_edges, count))),
             rng.randrange(1 << 30))
            for count in self.EXTRA_COUNTS]

    def round(self) -> List[Op]:
        return [op for pool, search_seed in self.instances
                for op in self.instance(pool, search_seed)]

    def instance(self, pool: FaceSet, search_seed: int) -> List[Op]:
        K, cons, weight = self.K, self.cons, self.weight

        def feasible(result) -> bool:
            return spanmin.complement.is_spanning(K, result.faces, cons)

        def check_exhaustive(result) -> Optional[str]:
            if abs(result.objective - self.OPTIMUM) > TOL:
                return f"exhaustive optimum {result.objective} != 4.0"
            if not feasible(result):
                return "exhaustive optimum is not spanning"
            return None

        def check_local(result) -> Optional[str]:
            if not feasible(result):
                return "local search returned an infeasible set"
            if result.objective < self.OPTIMUM - TOL:
                return f"local objective {result.objective} below 4.0"
            self.local_runs += 1
            self.local_optimal += result.objective <= self.OPTIMUM + TOL
            return None

        return [
            Op("exhaustive", lambda: spanmin.solver.minimize_exhaustive(
                K, cons, weight, pool), check_exhaustive),
            Op("local", lambda: spanmin.solver.minimize_local(
                K, cons, weight, init=pool, budget=self.BUDGET,
                seed=search_seed, pool=pool), check_local),
        ]

    def metrics(self, samples: Dict[str, List[float]]):
        return [
            ("exhaustive_s_p50", statistics.median(samples["exhaustive"]),
             "s", len(samples["exhaustive"])),
            ("local_s_p50", statistics.median(samples["local"]), "s",
             len(samples["local"])),
            ("local_optimal_ratio",
             self.local_optimal / max(self.local_runs, 1), "ratio",
             self.local_runs),
        ]


LINK_BOX = (2, 2, 2, 2)
# problem file -> (expected verdict of each linking loop, expected exit code)
LINK_EXPECT = {"two_planes_clutter": (("pass", "pass"), 0),
               "plane_x3x4": (("pass", "fail"), 2),
               "empty": (("fail", "fail"), 2)}
CLUTTER_FACES = 6
# 3x3x2x2 box: the plane x3=x4=1 sits in the middle of it.  Its H_1 costs
# about 4x the 2^4 one (elimination grows faster than the model), yet it is
# short enough for several rounds per run; the 3^4 one took 15-21 s, so a
# run held a single round and its time swung with the host's load.
H1_BOX = (3, 3, 2, 2)


class Link4D:
    """The 4D spanning path: `spanmin check` on three 2^4 problem files
    with the two linking loops, and H_1 of one plane's complement in the
    3x3x2x2 box.
    """

    name = "link4d"

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.dir = os.path.join(out_dir, f"link4d_seed{seed}")

    def setup(self) -> None:
        K = spanmin.complexes.build_grid_complex(4, list(LINK_BOX))
        loops = linking_loops(LINK_BOX)
        loop_vertices = {K.grid.vertex_at(p) for c in loops for p in c.points}
        two = spanmin.problems.generate_faceset(
            "two-planes-orthogonal", K, 2).faces
        candidates = [i for i, s in enumerate(K.simplices(2))
                      if i not in two and not loop_vertices & set(s)]
        clutter = random.Random(self.seed).sample(candidates, CLUTTER_FACES)
        faces = {
            "two_planes_clutter": tuple(sorted(two + tuple(clutter))),
            "plane_x3x4": coordinate_plane(K, {2: 1, 3: 1}).faces,
            "empty": (),
        }
        body = "".join(
            "constraint loop " + " ; ".join(" ".join(map(str, p))
                                            for p in c.points) + "\n"
            for c in loops)
        os.makedirs(self.dir, exist_ok=True)
        self.files = {}
        for stem in LINK_EXPECT:
            path = os.path.join(self.dir, stem + ".txt")
            with open(path, "w") as fh:
                fh.write("n 4\nd 2\nbox 2 2 2 2\ninit faces "
                         + " ".join(map(str, faces[stem])) + "\n" + body)
            self.files[stem] = path

    def round(self) -> List[Op]:
        ops = []
        for stem, (verdicts, code) in LINK_EXPECT.items():

            def check(result, stem=stem, verdicts=verdicts, code=code):
                got_code, lines = result
                got = tuple(l.split()[3] for l in lines
                            if l.startswith("constraint_"))
                if (got_code, got) != (code, verdicts):
                    return (f"check {stem}: exit {got_code} verdicts {got}, "
                            f"expected exit {code} verdicts {verdicts}")
                return None

            ops.append(Op(f"check_{stem}", lambda path=self.files[stem]:
                          run_cli(["check", "--input", path]), check))

        def h1():
            K = spanmin.complexes.build_grid_complex(4, list(H1_BOX))
            plane = coordinate_plane(K, {2: 1, 3: 1})
            return spanmin.complement.complement_subcomplex(
                K, plane, max_dim=2).homology(1)

        def check_h1(h) -> Optional[str]:
            if (h.rank, h.torsion) != (1, ()):
                return f"{H1_BOX} plane complement {h}, expected H_1 = Z"
            return None

        ops.append(Op("h1", h1, check_h1))
        return ops

    def metrics(self, samples: Dict[str, List[float]]):
        checks = [samples[f"check_{stem}"] for stem in LINK_EXPECT]
        return [
            ("check_s", sum(statistics.median(c) for c in checks), "s",
             min(len(c) for c in checks)),
            ("h1_s", statistics.median(samples["h1"]), "s",
             len(samples["h1"])),
        ]


CERT_BOXES = (2, 3)
GENERAL_FRAMES = 2
RESOLUTION = 1024
LEMMA_SAMPLES = 1_000_000
LEMMA_PAIRS = ("orthogonal", "0.35,1.05")


def random_frame(rng: np.random.Generator) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((4, 2)))[0].T


class Certify:
    """The certificate path: projection lower bounds of the two-planes set
    in 2^4 and 3^4 boxes, and in-process `spanmin lemmas`.
    """

    name = "certify"

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.lemma_lines: Dict[str, List[str]] = {}
        self.lemma_samples = 0

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        coord = (np.eye(4)[:2], np.eye(4)[2:])
        self.cases = []
        for b in CERT_BOXES:
            K = spanmin.complexes.build_grid_complex(4, [b] * 4)
            F = spanmin.problems.generate_faceset(
                "two-planes-orthogonal", K, 2)
            J = weighted_measure(F, WeightField.uniform(1.0))
            square = PlaneRegion("box", (0.0, 0.0, float(b), float(b)))
            self.cases.append((F, J, coord, (square, square), True))
            # an orthonormal frame maps the box into the disk of radius 2b
            wide = PlaneRegion("box", (-2.0 * b, -2.0 * b, 2.0 * b, 2.0 * b))
            for _ in range(GENERAL_FRAMES):
                frames = (random_frame(rng), random_frame(rng))
                self.cases.append((F, J, frames, (wide, wide), False))
        self.lemma_seed = int(rng.integers(1 << 30))

    def round(self) -> List[Op]:
        ops = []
        for F, J, (f1, f2), regions, exact in self.cases:
            def check(bound, J=J, exact=exact) -> Optional[str]:
                if exact and abs(bound - J) > TOL * max(J, 1.0):
                    return f"coordinate-frame bound {bound} != J {J}"
                if not exact and bound > J * (1 + TOL):
                    return f"general-frame bound {bound} > J {J}"
                return None

            ops.append(Op("bound", lambda F=F, f1=f1, f2=f2, r=regions:
                          spanmin.solver.projection_lower_bound(
                              F, f1, f2, r, resolution=RESOLUTION), check))
        for pair in LEMMA_PAIRS:
            def check_lemma(result, pair=pair) -> Optional[str]:
                code, lines = result
                if code != 0 or "holds: yes" not in lines:
                    return f"lemmas {pair}: exit {code}, {lines}"
                first = self.lemma_lines.setdefault(pair, lines)
                if lines != first:
                    return f"lemmas {pair}: report changed across repeats"
                self.lemma_samples += LEMMA_SAMPLES
                return None

            ops.append(Op("lemma", lambda pair=pair: run_cli(
                ["lemmas", "--pair", pair, "--samples", str(LEMMA_SAMPLES),
                 "--seed", str(self.lemma_seed)]), check_lemma))
        return ops

    def metrics(self, samples: Dict[str, List[float]]):
        lemma_time = sum(samples["lemma"])
        return [
            ("bound_s_p50", statistics.median(samples["bound"]), "s",
             len(samples["bound"])),
            ("lemma_samples_per_s",
             self.lemma_samples / lemma_time if lemma_time else 0.0, "1/s",
             len(samples["lemma"])),
        ]


WORKLOADS = {w.name: w for w in (Oracle2D, Link4D, Certify)}
