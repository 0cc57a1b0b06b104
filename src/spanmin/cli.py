"""Command-line interface: homology, check, solve, lemmas, export.

Reports are ``key: value`` lines.  Every line except ``time:`` is a pure
function of the problem file, the seed, and the flags, so runs with the same
inputs are byte-identical after dropping the timing line.

Exit codes: 0 success, 2 infeasible (no spanning set / constraint failed),
1 any other error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import List, Optional

from . import grassmann
from .complement import complement_subcomplex, is_spanning, spanning_check
from .complexes import FaceSet
from .errors import (InfeasibleError, PoolTooLargeError, PreconditionError,
                     ProblemFormatError)
from .problems import ProblemSpec, parse_problem
from .solver import minimize_exhaustive, minimize_local


class RunReport:
    """Ordered key/value report; rendered one ``key: value`` per line."""

    def __init__(self):
        self._items: List = []

    def add(self, key: str, value) -> None:
        self._items.append((key, value))

    def render(self) -> str:
        return "\n".join(f"{k}: {v}" for k, v in self._items) + "\n"


def _fmt_faces(faces) -> str:
    return " ".join(str(i) for i in faces) if faces else "-"


def _load_spec(args) -> ProblemSpec:
    if not args.input:
        raise ProblemFormatError(["--input FILE is required"])
    with open(args.input) as fh:
        spec = parse_problem(fh.read())
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    return spec


def _report_header(rep: RunReport, command: str, spec: ProblemSpec) -> None:
    rep.add("command", command)
    rep.add("n", spec.n)
    rep.add("d", spec.d)
    rep.add("box", " ".join(str(b) for b in spec.box))
    rep.add("seed", spec.seed)


def cmd_homology(args) -> int:
    spec = _load_spec(args)
    rep = RunReport()
    _report_header(rep, "homology", spec)
    t0 = time.perf_counter()
    K = spec.build_complex()
    F = spec.initial_faceset(K)
    degrees = sorted({c.degree for c in spec.constraint_cycles()}
                     | {0, spec.n - spec.d - 1})
    model = complement_subcomplex(K, F)
    rep.add("faces", _fmt_faces(F.faces))
    for k in degrees:
        h = model.homology(k)
        rep.add(f"h{k}_rank", h.rank)
        rep.add(f"h{k}_torsion",
                " ".join(str(t) for t in h.torsion) if h.torsion else "-")
    rep.add("time", f"{time.perf_counter() - t0:.3f}s")
    sys.stdout.write(rep.render())
    return 0


def _constraint_rows(spec: ProblemSpec, K, F):
    constraints = spec.constraint_cycles()
    degrees = {c.degree for c in constraints}
    model = complement_subcomplex(K, F)
    statuses = model.check(constraints)
    ranks = {k: model.homology(k).rank for k in degrees}
    rows = []
    for c, s in zip(constraints, statuses):
        k = c.degree
        rows.append((s.index, c.kind, k, s.passed, s.reason, ranks[k]))
    return rows


def cmd_check(args) -> int:
    spec = _load_spec(args)
    rep = RunReport()
    _report_header(rep, "check", spec)
    t0 = time.perf_counter()
    K = spec.build_complex()
    F = spec.initial_faceset(K)
    rep.add("faces", _fmt_faces(F.faces))
    constraints = spec.constraint_cycles()
    statuses = spanning_check(K, F, constraints)
    for c, s in zip(constraints, statuses):
        verdict = "pass" if s.passed else "fail"
        rep.add(f"constraint_{s.index}",
                f"{c.kind} degree={c.degree} {verdict} ({s.reason})")
    spanning = all(s.passed for s in statuses)
    rep.add("spanning", "yes" if spanning else "no")
    rep.add("time", f"{time.perf_counter() - t0:.3f}s")
    sys.stdout.write(rep.render())
    return 0 if spanning else 2


def cmd_solve(args) -> int:
    spec = _load_spec(args)
    if args.budget is not None:
        if args.budget < 0:  # the problem file's own rule
            raise ProblemFormatError(["budget must be nonnegative"])
        spec = replace(spec, budget=args.budget)
    rep = RunReport()
    _report_header(rep, "solve", spec)
    t0 = time.perf_counter()
    K = spec.build_complex()
    weight = spec.weight_field()
    constraints = spec.constraint_cycles()
    init = spec.initial_faceset(K)
    FaceSet(K, spec.d, [f for f, _ in spec.weight_table])  # w faces must exist
    region = spec.region_box()
    # the faces `minimize_local` searches: the region's and the initial set
    if region is not None:
        pool = region.faces(K, spec.d) + init.faces
    elif init.faces:
        pool = init.faces
    else:
        pool = tuple(range(K.n_simplices(spec.d)))
    pool_set = FaceSet(K, spec.d, pool)
    try:
        try:
            result = minimize_exhaustive(K, constraints, weight,
                                         candidate_pool=pool_set)
        except PoolTooLargeError:
            # too large a pool, or too many subsets before the optimum:
            # search locally unless the exhaustive search was asked for
            if args.exhaustive:
                raise
            # the local search needs a spanning start: the pool, when the
            # initial set does not span and the pool does
            if not is_spanning(K, init, constraints) and is_spanning(
                    K, pool_set, constraints):
                init = pool_set
            result = minimize_local(K, constraints, weight, init=init,
                                    budget=spec.budget, seed=spec.seed,
                                    pool=pool_set)
    except (InfeasibleError, PreconditionError) as exc:
        rep.add("status", "infeasible")
        rep.add("detail", str(exc))
        rep.add("time", f"{time.perf_counter() - t0:.3f}s")
        sys.stdout.write(rep.render())
        return 2
    rep.add("status", "ok")
    rep.add("objective", f"{result.objective:.12g}")
    rep.add("faces", _fmt_faces(result.faces.faces))
    for k in sorted(result.certificate):
        rep.add(f"certificate_{k}", result.certificate[k])
    rep.add("evaluations", result.evaluations)
    rep.add("time", f"{time.perf_counter() - t0:.3f}s")
    sys.stdout.write(rep.render())
    if args.mesh_out or args.csv_out:
        _write_artifacts(args, spec, K, result.faces)
    return 0


def cmd_lemmas(args) -> int:
    rep = RunReport()
    rep.add("command", "lemmas")
    t0 = time.perf_counter()
    if args.pair == "orthogonal":
        pair = grassmann.PlanePair.orthogonal()
    else:
        try:
            theta, phi = (float(x) for x in args.pair.split(","))
        except ValueError:
            sys.stderr.write("error: --pair must be 'orthogonal' or "
                             "'theta,phi' in radians\n")
            return 1
        pair = grassmann.PlanePair.from_angles(theta, phi)
    bound = pair.projection_bound()
    xi = grassmann.projection_maximizer(pair)
    attained = float(grassmann.projection_sums(pair, xi[None])[0])
    margin = bound - attained
    holds = (grassmann.is_simple(xi)
             and abs(float(grassmann.two_vector_norm(xi)) - 1.0) <= 1e-12
             and 0.0 <= margin <= 1e-9)
    rep.add("pair", args.pair)
    rep.add("alpha1", f"{pair.alpha1:.12g}")
    rep.add("alpha2", f"{pair.alpha2:.12g}")
    rep.add("bound", f"{bound:.12g}")
    rep.add("attained", f"{attained:.12g}")
    rep.add("margin", f"{margin:.3g}")
    rep.add("holds", "yes" if holds else "no")
    rep.add("time", f"{time.perf_counter() - t0:.3f}s")
    sys.stdout.write(rep.render())
    return 0 if holds else 2


def cmd_export(args) -> int:
    spec = _load_spec(args)
    rep = RunReport()
    _report_header(rep, "export", spec)
    t0 = time.perf_counter()
    K = spec.build_complex()
    F = spec.initial_faceset(K)
    rep.add("faces", _fmt_faces(F.faces))
    _write_artifacts(args, spec, K, F)
    if args.mesh_out:
        rep.add("mesh", args.mesh_out)
    if args.csv_out:
        rep.add("csv", args.csv_out)
    rep.add("time", f"{time.perf_counter() - t0:.3f}s")
    sys.stdout.write(rep.render())
    return 0


def _write_artifacts(args, spec: ProblemSpec, K, F) -> None:
    if args.mesh_out:
        used = sorted({v for i in F.faces for v in K.simplex(F.dim, i)})
        remap = {v: j for j, v in enumerate(used)}
        lines = [f"{spec.n} {spec.d}"]
        for v in used:
            coords = " ".join(f"{x:.12g}" for x in K.coords[v])
            lines.append(f"{remap[v]} {coords}")
        for i in F.faces:
            lines.append(" ".join(str(remap[v]) for v in K.simplex(F.dim, i)))
        with open(args.mesh_out, "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    if args.csv_out:
        rows = _constraint_rows(spec, K, F)
        with open(args.csv_out, "w") as fh:
            fh.write("index,kind,degree,verdict,reason,homology_rank\n")
            for idx, kind, k, passed, reason, rank in rows:
                verdict = "pass" if passed else "fail"
                fh.write(f"{idx},{kind},{k},{verdict},{reason},{rank}\n")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spanmin",
        description="Homological spanning checks and weighted-measure "
                    "minimization on grid complexes.")
    sub = p.add_subparsers(dest="command", required=True)
    # each subcommand takes only the flags it reads
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None)
    problem = argparse.ArgumentParser(add_help=False, parents=[seed])
    problem.add_argument("--input", help="problem file")
    artifacts = argparse.ArgumentParser(add_help=False)
    artifacts.add_argument("--mesh-out", default=None)
    artifacts.add_argument("--csv-out", default=None)

    sub.add_parser("homology", parents=[problem]).set_defaults(fn=cmd_homology)
    sub.add_parser("check", parents=[problem]).set_defaults(fn=cmd_check)
    solve = sub.add_parser("solve", parents=[problem, artifacts])
    solve.add_argument("--budget", type=int, default=None)
    solve.add_argument("--exhaustive", action="store_true",
                       help="force the exhaustive solver")
    solve.set_defaults(fn=cmd_solve)
    lem = sub.add_parser("lemmas")
    lem.add_argument("--pair", default="orthogonal",
                     help="'orthogonal' or 'theta,phi' (radians)")
    # the one exception to the rule above: the benchmark still passes these
    for flag in ("--samples", "--seed"):
        lem.add_argument(flag, type=int, default=None,
                         help="ignored: the projection constant is exact")
    lem.set_defaults(fn=cmd_lemmas)
    sub.add_parser("export", parents=[problem, artifacts]).set_defaults(
        fn=cmd_export)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ProblemFormatError as exc:
        for v in exc.violations:
            sys.stderr.write(f"error: {v}\n")
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
