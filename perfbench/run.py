"""spanmin benchmark: seeded closed-loop workloads with answer checks.

    python3 perfbench/run.py --workload oracle2d --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One client runs one operation at a time, each starting after the
previous one returned.  `--trace 0` cycles through the operations of a
round for `--seconds` and prints the end-to-end metrics; `--trace 1` runs
one round twice with spans at every module boundary and once untraced in
between, checks that the two traced rounds give identical counts, and prints
the per-layer metrics.  The last line of standard output is one JSON object.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

# One BLAS thread: with the other core busy, `spanmin lemmas` ran about a
# fifth slower with a second BLAS thread, so runs on a shared 2-core box
# spread more.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import spanmin, spanmin.cli\n"
    "print(time.perf_counter() - t)\n")


def declared(section: str) -> list:
    """The metrics BENCHMARK.json declares in one section."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[section]


def import_spanmin():
    if not os.path.isfile(os.path.join(SRC, "spanmin", "__init__.py")):
        sys.exit(f"error: no spanmin sources under {SRC}")
    sys.path.insert(0, SRC)
    import spanmin
    package = os.path.dirname(os.path.abspath(spanmin.__file__))
    if os.path.dirname(package) != SRC:
        sys.exit(f"error: imported spanmin from {package}")


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    return float(out.split()[-1])


def timed_setup(workload) -> float:
    """Median import time plus median input-building time."""
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        builds.append(time.perf_counter() - t0)
    return statistics.median(imports) + statistics.median(builds)


class Runner:
    """Runs operations one at a time, timing each and checking its answer."""

    def __init__(self, workload):
        self.workload = workload
        self.tracer = None  # set for traced rounds
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0

    def run_op(self, op) -> float:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        error = None
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # noqa: BLE001 - a raising op fails
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self.samples[op.kind].append(elapsed)
        if error is None:
            if self.tracer is not None:
                self.tracer.paused = True
            try:
                error = op.check(result)
            except Exception as exc:  # noqa: BLE001 - so does a check
                error = f"{type(exc).__name__}: {exc}"
            finally:
                if self.tracer is not None:
                    self.tracer.paused = False
        if error is not None:
            self.failed += 1
            print(f"FAILED {self.workload.name} {op.kind}: {error}",
                  file=sys.stderr)
        return elapsed

    def run_round(self) -> float:
        t_round = time.perf_counter()
        for op in self.workload.round():
            self.run_op(op)
        return time.perf_counter() - t_round


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def measure(workload, seconds: int):
    """Untraced closed loop over the operations of one round, cycled until
    `seconds` have passed and at least one round is complete.

    `wall_s` is the time of one round assembled from the mean time of each
    of its operations over the run.  A link4d run holds only two or three
    whole rounds, so a median of rounds would use no more samples than a
    mean; cycling by operation uses the whole run instead of stopping early
    when the next whole round would not fit.
    """
    setup_s = timed_setup(workload)
    runner = Runner(workload)
    ops = workload.round()
    times = [[] for _ in ops]
    start = time.perf_counter()
    done = 0
    while done < len(ops) or time.perf_counter() - start < seconds:
        slot = done % len(ops)
        times[slot].append(runner.run_op(ops[slot]))
        done += 1
    measured_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed_ratio = runner.failed / runner.attempted
    rows = [("setup_s", setup_s, "s", SETUP_REPEATS),
            ("wall_s", sum(statistics.fmean(t) for t in times), "s",
             min(len(t) for t in times)),
            ("peak_rss_mb", peak_rss_mb, "MB", 1),
            ("failed_ratio", failed_ratio, "ratio", runner.attempted)]
    rows += workload.metrics(runner.samples)
    print(f"# {workload.name} seed={workload.seed} ops={done} "
          f"rounds={done / len(ops):.2f} measured_s={measured_s:.3f}")
    for name, value, unit, n in rows:
        print(f"{name:<22} {fmt(value):>14} {unit:<6} n={n}")
    values = {name: value for name, value, _, _ in rows}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared("end_to_end")}
    return runner.attempted, runner.failed, metrics, True


def layer_metrics(summary) -> dict:
    """Per-layer metrics named in BENCHMARK.json, from a tracer summary."""
    out = {}
    for name, row in summary.items():
        for key, value in row.items():
            out[f"{name}.{key}"] = value
    spans = summary["solver.is_spanning"]
    out["solver.is_spanning.feasible_ratio"] = (
        spans.get("feasible", 0) / spans["calls"] if spans["calls"] else 0.0)
    local = summary["solver.minimize_local"]
    evaluations = local.get("evaluations", 0)
    misses = summary["solver.local"]["is_spanning_calls"] - local["calls"]
    out["solver.local.cache_hit_ratio"] = (
        (evaluations - misses) / evaluations if evaluations else 0.0)
    return out


def trace(workload, seed: int):
    """Two traced rounds that must agree on counts, with an untraced round
    between them.  Each traced round first repeats the set-up under the
    tracer.  The first traced round also warms caches; times and the
    tracing overhead come from the second."""
    from tracing import Tracer

    runner = Runner(workload)
    tracers = []

    def traced_round():
        runner.tracer = tracer = Tracer()
        tracer.install()
        try:
            tracer.op = 0  # set-up, outside the timed round
            workload.setup()
            wall = runner.run_round()
        finally:
            tracer.remove()
            runner.tracer = None
        tracers.append(tracer)
        return wall, layer_metrics(tracer.summary())

    first_wall, first = traced_round()
    untraced = runner.run_round()
    second_wall, second = traced_round()
    os.makedirs(OUT, exist_ok=True)
    for i, tracer in enumerate(tracers):
        tracer.dump(os.path.join(OUT, f"spans_{workload.name}_seed{seed}"
                                      f"_round{i}.json"),
                    {"workload": workload.name, "seed": seed, "round": i})
    mismatched = sorted(
        key for key in set(first) | set(second)
        if not key.endswith((".s", ".self_s"))
        and first.get(key) != second.get(key))
    for key in mismatched:
        print(f"COUNT MISMATCH {key}: {first.get(key)} vs {second.get(key)}",
              file=sys.stderr)

    metrics = {}
    for m in declared("per_layer"):
        name = m["name"]
        if name == "trace.overhead_ratio":
            value = second_wall / untraced
        else:
            value = second.get(name, 0)
        metrics[name] = {"value": value, "unit": m["unit"]}
    print(f"# {workload.name} seed={seed} round: traced {first_wall:.3f} s, "
          f"untraced {untraced:.3f} s, traced {second_wall:.3f} s")
    for name, m in metrics.items():
        print(f"{name:<48} {fmt(m['value']):>14} {m['unit']}")
    return runner.attempted, runner.failed, metrics, not mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_spanmin()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload](args.seed, OUT)
    if args.trace:
        attempted, failed, metrics, consistent = trace(workload, args.seed)
    else:
        attempted, failed, metrics, consistent = measure(workload,
                                                         args.seconds)
    print(json.dumps({"correct": failed == 0 and consistent,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
