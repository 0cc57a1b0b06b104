"""Span tracing for the benchmark, installed from outside the package.

Every boundary is a name looked up by a caller at call time (a module
attribute or a class attribute).  `Tracer.install` replaces each such name
with a wrapper that records a span and reads counts from the call's
arguments and return value; `Tracer.remove` puts the originals back, so an
untraced run executes unmodified code.  Spans live in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import spanmin.cli
import spanmin.complement
import spanmin.complexes
import spanmin.grassmann
import spanmin.homology
import spanmin.problems
import spanmin.solver

SPAN_FIELDS = ("name", "start", "end", "parent", "op")

Counter = Callable[[Callable[[str, int], None], tuple, dict, object], None]


def _snf_counts(add, args, kwargs, result):
    cols = args[0] if args else kwargs["cols"]
    add("cols", sum(1 for col in cols.values() if col))
    add("nnz", sum(len(col) for col in cols.values()))
    add("rank", len(result))
    add("nonunit", sum(1 for d in result if d > 1))


def _model_counts(add, args, kwargs, result):
    model = args[0]
    add("sd_cells", sum(len(model.sd.chains.get(m, ()))
                        for m in range(model.max_dim + 1)))
    add("kept_edges", len(model.edges_a))


def _solve_counts(add, args, kwargs, result):
    add("evaluations", result.evaluations)
    add("accepted", result.accepted)


def _feasible_counts(add, args, kwargs, result):
    add("feasible", int(bool(result)))


def _move_counts(add, args, kwargs, result):
    add("moves", len(result))


def _raster_counts(add, args, kwargs, result):
    resolution = kwargs.get("resolution", args[4] if len(args) > 4 else 1024)
    add("raster_cells", 2 * int(resolution) ** 2)


def _sample_counts(add, args, kwargs, result):
    add("samples", result.samples)


def boundaries() -> List[Tuple[object, str, str, Optional[Counter]]]:
    """(owner, attribute, span name, counter) for every traced call.

    A function imported by name into another module is patched in each
    module that calls it, under one span name.
    """
    cm = spanmin.complement.ComplementModel
    return [
        (spanmin.homology, "_snf_diagonal_sparse",
         "homology._snf_diagonal_sparse", _snf_counts),
        (spanmin.complement, "spanning_check", "complement.spanning_check",
         None),
        (spanmin.cli, "spanning_check", "complement.spanning_check", None),
        (cm, "__init__", "complement.ComplementModel", _model_counts),
        (cm, "homology", "complement.ComplementModel.homology", None),
        (spanmin.solver, "minimize_exhaustive", "solver.minimize_exhaustive",
         _solve_counts),
        (spanmin.solver, "minimize_local", "solver.minimize_local",
         _solve_counts),
        (spanmin.solver, "is_spanning", "solver.is_spanning",
         _feasible_counts),
        (spanmin.solver, "_exchange_moves", "solver._exchange_moves",
         _move_counts),
        (spanmin.solver, "projection_lower_bound",
         "solver.projection_lower_bound", _raster_counts),
        (spanmin.grassmann, "verify_projection_bounds",
         "grassmann.verify_projection_bounds", _sample_counts),
        (spanmin.cli, "main", "cli.main", None),
        (spanmin.cli, "parse_problem", "problems.parse_problem", None),
        (spanmin.problems, "generate_faceset", "problems.generate_faceset",
         None),
        (spanmin.problems, "build_grid_complex",
         "complexes.build_grid_complex", None),
        (spanmin.complexes, "build_grid_complex",
         "complexes.build_grid_complex", None),
    ]


class Tracer:
    """Records one span per wrapped call, plus counts per span name."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, op]
        self.counts: Dict[Tuple[str, str], int] = defaultdict(int)
        self.op: Optional[int] = None
        self.paused = False
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, counter in boundaries():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, counter: Optional[Counter]):
        tracer = self

        def add(key: str, value: int) -> None:
            tracer.counts[(name, key)] += value

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None,
                    tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counter(add, args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, s, self_s and the recorded counts.

        Self time is a span's duration minus the time its child spans
        cover; the benchmark is single-threaded, so children never overlap
        and that cover is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        for (name, key), value in self.counts.items():
            out[name][key] = value
        # spanning checks the local search made itself, as opposed to
        # verdicts it answered from its cache
        out["solver.local"]["is_spanning_calls"] = sum(
            1 for name, _, _, parent, _ in self.spans
            if name == "solver.is_spanning" and parent >= 0
            and self.spans[parent][0] == "solver.minimize_local")
        return out

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": SPAN_FIELDS,
                       "spans": self.spans}, fh, separators=(",", ":"))
