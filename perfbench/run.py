"""Run one treemix benchmark workload and print its metrics.

    python3 perfbench/run.py --workload enum-exact --seed 1 --seconds 30 --trace 0

Run from the root of a treemix checkout; the package is imported from
``src/``.  The load is a closed loop: one client, one op at a time.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Human-readable lines come first; the last line
of standard output is one JSON object.  Generated models, CSV outputs and
the span file go to ``.perfbench_out/<workload>/``, emptied at start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# BLAS threads are pinned before numpy loads: one thread (<= nproc) keeps
# the closed loop single-threaded and the timings steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 15
MIN_OPS = 100

# Host-speed calibration.  Where cores are shared with other machines'
# work, the same computation runs up to 30% slower or faster from one
# second to the next, in CPU time as much as in wall time.  Three fixed
# kernels that do not touch treemix (an interpreter loop, a memory-bound
# numpy reduction over 8 MB, small numpy calls) are timed before and after
# every op; their mean time over CAL_REF_S is the host's slowness at that
# moment.  Each op's latency is divided by the mean slowness just before
# and just after it, so timings read as seconds on the host at its typical
# speed, the speed at which the kernels take CAL_REF_S.
CAL_REF_S = (1.2e-3, 2.6e-3, 0.85e-3)
_cal_array = None


def host_slowness() -> float:
    """Mean of the calibration kernels' times over their reference times."""
    import numpy as np

    global _cal_array
    if _cal_array is None:
        _cal_array = np.random.default_rng(0).random(1 << 20)
    times = []
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    for _ in range(4):
        _cal_array.sum()
    times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    x = np.arange(16.0)
    for _ in range(300):
        x = np.exp(-x * 0.5) + 1.0
    times.append(time.perf_counter() - t0)
    return statistics.fmean(t / ref for t, ref in zip(times, CAL_REF_S))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: a value that was measured."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_cycle(ops, models, tracer=None):
    """One pass over the op list; returns (results, wall latencies, latencies
    scaled to the host's typical speed)."""
    import workloads

    results, latencies, slowness = [], [], [host_slowness()]
    for op in ops:
        if tracer is not None:
            tracer.set_op(op.id)
            span = tracer.enter("bench.op")
        t0 = time.perf_counter()
        res = workloads.execute(op, models)
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.exit(span)
        workloads.read_csv(op, res)
        results.append(res)
        slowness.append(host_slowness())
    scaled = [2 * lat / (a + b) for lat, a, b in zip(latencies, slowness, slowness[1:])]
    return results, latencies, scaled


def output_bytes(results) -> int:
    return sum(len(r.stdout.encode()) + len(r.stderr.encode()) + len(r.csv) for r in results)


class Checker:
    """Full checks on the first pass; in later passes an op fails again if
    it failed in the first pass or its output differs from the first pass."""

    def __init__(self, ops, references):
        self.ops = ops
        self.references = references
        self.digests = None
        self.failed_first: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, results) -> None:
        import checks

        self.attempted += len(results)
        if self.digests is None:
            found = checks.check_cycle(self.ops, results, self.references)
            self.digests = [r.digest() for r in results]
            self.failed_first = {op_id for op_id, p in found.items() if p}
            self.failed += len(self.failed_first)
            self.problems += [f"{op_id}: {p[0]}" for op_id, p in found.items() if p]
            return
        for op, res, want in zip(self.ops, results, self.digests):
            if res.digest() != want:
                self.failed += 1
                self.problems.append(f"{op.id}: output differs from the first pass")
            elif op.id in self.failed_first:
                self.failed += 1


def setup(workload, seed: int, model_dir: str):
    """Import treemix in a fresh interpreter, write the model files and run
    one warm-up op; repeated, and the median time, scaled to the host's
    typical speed as op latencies are, is ``setup_s``."""
    import workloads

    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        before = host_slowness()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import treemix"], env=env, check=True)
        models = workloads.generate_models(workload, seed, model_dir)
        first = workload.models[0].name
        warm = workloads.Op("warmup", "cli", "inspect", first, ["inspect", "-v", models[first]])
        res = workloads.execute(warm, models)
        elapsed = time.perf_counter() - t0
        times.append(2 * elapsed / (before + host_slowness()))
        if res.rc != 0:
            raise RuntimeError(f"warm-up op failed: {res.stderr}")
    return statistics.median(times), models


def measure(ops, models, checker, seconds: float):
    """Closed loop of whole passes until ``seconds`` and MIN_OPS are reached.

    Every figure is taken from latencies scaled to the host's typical
    speed, pooled over all passes; the wall-clock ops/s is returned
    alongside for the printed report.
    """
    scaled, bound, n_passes, wall = [], [], 0, 0.0
    start = time.perf_counter()
    while not scaled or time.perf_counter() - start < seconds or len(scaled) < MIN_OPS:
        results, lat, lat_scaled = run_cycle(ops, models)
        checker.check(results)
        scaled += lat_scaled
        bound += [t for op, t in zip(ops, lat_scaled) if op.group == "bound"]
        n_passes += 1
        wall += sum(lat)
    return {
        "ops_per_s": (len(scaled) / sum(scaled), "ops/s"),
        "op_p50_s": (percentile(scaled, 50), "s"),
        "op_p90_s": (percentile(scaled, 90), "s"),
        "bound_p50_s": (percentile(bound, 50), "s"),
    }, len(scaled), len(bound), n_passes, len(scaled) / wall


def measure_traced(ops, models, checker, seconds: float, workload, seed, model_dir):
    """Alternate untraced and traced passes; per-layer metrics per pass."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.set_op("setup")
        workloads.generate_models(workload, seed, model_dir)
    finally:
        tracer.uninstall()
    setup_part = tracer.snapshot()
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        # Alternate which pass goes first so neither side always runs cold.
        for use_tracer in (False, True) if len(per_pass) % 2 == 0 else (True, False):
            if not use_tracer:
                results, _, scaled = run_cycle(ops, models)
                plain += scaled
                checker.check(results)
                continue
            before = tracer.snapshot()
            tracer.install()
            try:
                results, _, scaled = run_cycle(ops, models, tracer)
            finally:
                tracer.uninstall()
            tracer.counters["cli.output_bytes"] += output_bytes(results)
            traced += scaled
            checker.check(results)
            after = tracer.snapshot()
            per_pass.append({k: after[k] - before[k] for k in after})
    times = set(tracing.SELF_TIMES)
    counts_repeat = all(p[k] == per_pass[0][k] for p in per_pass for k in p if k not in times)
    layer = {
        k: setup_part[k] + (statistics.fmean(p[k] for p in per_pass) if k in times else per_pass[0][k])
        for k in per_pass[0]
    }
    layer["model.paths_per_s"] = (
        layer["model.sampled_paths"] / layer["model.sample_s"] if layer["model.sample_s"] else 0.0
    )
    layer["trace.overhead_ratio"] = (len(plain) / sum(plain)) / (len(traced) / sum(traced))
    return tracer, layer, counts_repeat, len(per_pass)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "treemix", "__init__.py")):
        print(f"perfbench: no treemix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy

    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    out_dir = os.path.join(ROOT, ".perfbench_out", workload.name)
    shutil.rmtree(out_dir, ignore_errors=True)
    model_dir = os.path.join(out_dir, "models")
    os.makedirs(model_dir)

    setup_s, models = setup(workload, args.seed, model_dir)
    ops = workloads.build_ops(workload, args.seed, models, out_dir)
    references = checks.load_references(workload.name, args.seed)
    checker = Checker(ops, references)
    print(f"workload {workload.name}  seed {args.seed}  {len(ops)} ops per pass  "
          f"references {'on' if references is not None else 'off (invariants only)'}")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} blas_threads={BLAS_THREADS}")

    if args.trace == 0:
        e2e, n_ops, n_bound, n_passes, wall_rate = measure(ops, models, checker, args.seconds)
        e2e["setup_s"] = (setup_s, "s")
        e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        error_rate = checker.failed / checker.attempted
        per = f"over {n_passes} passes"
        notes = {"ops_per_s": f"n={n_ops}", "op_p50_s": f"n={n_ops} {per}",
                 "op_p90_s": f"n={n_ops} {per}", "bound_p50_s": f"n={n_bound} {per}",
                 "setup_s": f"median of {SETUP_REPEATS}"}
        for name, (value, unit) in [*e2e.items(), ("error_rate", (error_rate, "ratio"))]:
            print(f"{name:<14s} {value:>14.6g} {unit:<6s} {notes.get(name, '')}")
        print(f"times above are scaled to the host's typical speed; wall-clock ops_per_s "
              f"{wall_rate:.6g}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
        correct = checker.failed == 0
    else:
        tracer, layer, counts_repeat, passes = measure_traced(
            ops, models, checker, args.seconds, workload, args.seed, model_dir)
        tracer.save(os.path.join(out_dir, "spans.npz"))
        with open(os.path.join(out_dir, "layers.json"), "w", encoding="utf-8") as fh:
            json.dump(layer, fh, indent=1, sort_keys=True)
        print(f"per pass over the op list ({passes} traced passes; self times in s)")
        for name in sorted(layer):
            print(f"  {name:<36s} {layer[name]:.6g}")
        if not counts_repeat:
            print("counts differ between traced passes", file=sys.stderr)
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            reported = json.load(fh)["per_layer"]
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in reported}
        correct = checker.failed == 0 and counts_repeat
    for problem in checker.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
