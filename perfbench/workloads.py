"""Workload definitions: the generated model population and the op list.

A workload is a fixed list of models, each generated by
``treemix.random_model`` from a seed derived from the workload seed, and
a fixed list of ops over those models.  Every op starts from a model file
path, so it pays for parsing (and, where used, the joint table) as a
command-line user does.

The seed moves kernels and root laws, not tree shapes.  A model's tree is
that of ``random_model`` at the default seed, and its kernels and root law
are those of ``random_model`` at the workload seed, placed on the tree's
edges in order; at the default seed the two are one model.  The tree sets
the cost of the builders (the exact eta tables follow the subtrees): with
trees drawn per seed, the same enum-exact op differed by up to 30% in cost
between seeds, more than the run-to-run spread the bounds allow.  Shapes
satisfy ``n = 1 + width * depth``: every level below the root holds
exactly ``width`` nodes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass, field

import numpy as np

# Deviation threshold and sample count of the Monte Carlo ops; the
# certified Hamming bound is requested at the same threshold.
MC_T = 0.3
MC_SAMPLES = 4000
SAMPLE_COUNT = 20_000
BATCH_SIZE = 256
# Small batches on the two large models only: they make up most of a
# pass, so op_p50_s and op_p90_s both land inside the plateau of batch
# latencies rather than on the edge between two kinds of op.
BATCHES = {"M1": 48, "M2": 48}
VERIFY_MAX_CELLS = 10**6


@dataclass(frozen=True)
class ModelSpec:
    name: str
    n: int
    s: int
    width: int
    depth: int

    @property
    def cells(self) -> int:
        return self.s**self.n


@dataclass
class Op:
    """One closed-loop request.

    ``kind`` is "cli" (``treemix.cli.main(argv)`` in-process) or one of
    the library ops "batch" (one ``sample_paths`` batch) and "mc"
    (``monte_carlo_deviation`` over ``lipschitz_test_corpus``).
    ``group`` names the command for per-group latency (``bound`` feeds
    ``bound_p50_s``).
    """

    id: str
    kind: str
    group: str
    model: str
    argv: list[str] = field(default_factory=list)
    csv: str | None = None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple[ModelSpec, ...]


# Each workload's one-line rationale is in BENCHMARK.json.
WORKLOADS = {
    "enum-exact": Workload(
        "enum-exact",
        (
            ModelSpec("E1", n=17, s=2, width=4, depth=4),
            ModelSpec("E2", n=11, s=3, width=2, depth=5),
            ModelSpec("E3", n=9, s=4, width=2, depth=4),
            ModelSpec("E4", n=21, s=2, width=5, depth=4),
        ),
    ),
    "level-large": Workload(
        "level-large",
        (
            ModelSpec("L1", n=97, s=3, width=4, depth=24),
            ModelSpec("L2", n=145, s=3, width=16, depth=9),
        ),
    ),
    "mc-sampling": Workload(
        "mc-sampling",
        (
            ModelSpec("M1", n=64, s=2, width=1, depth=63),
            ModelSpec("M2", n=61, s=4, width=15, depth=4),
            ModelSpec("M3", n=10, s=3, width=1, depth=9),
            ModelSpec("M4", n=9, s=4, width=4, depth=2),
        ),
    ),
}


DEFAULT_SEED = 1


def model_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def generate_models(workload: Workload, seed: int, model_dir: str) -> dict[str, str]:
    """Write one model file per spec; returns model name -> path."""
    from treemix import model as tm
    from treemix import modelfile

    paths = {}
    for k, spec in enumerate(workload.models):
        shape, law = (
            modelfile.random_model(
                seed=model_seed(base, k), n=spec.n, alphabet_size=spec.s,
                width=spec.width, depth=spec.depth,
            )
            for base in (DEFAULT_SEED, seed)
        )
        kernels = {
            edge: tm.Kernel(edge, law.kernels[law_edge].matrix)
            for edge, law_edge in zip(shape.tree.edges(), law.tree.edges())
        }
        m = tm.MarkovTreeModel(shape.tree, spec.s, law.root_dist, kernels)
        path = os.path.join(model_dir, f"{spec.name}.json")
        modelfile.save_model(m, path)
        paths[spec.name] = path
    return paths


def _pairs(spec: ModelSpec, count: int) -> list[tuple[int, int]]:
    """Pairs for ``eta --pair``: near, mid-range and far from shallow nodes."""
    n = spec.n
    return [(2, max(3, n // 2)), (1, n), (1, 2), (2, n), (n // 3, n), (n // 2, n)][:count]


def build_ops(workload: Workload, seed: int, models: dict[str, str], out_dir: str) -> list[Op]:
    ops: list[Op] = []

    def cli(spec, group, tag, args, csv=False):
        op_id = f"{spec.name}.{tag}"
        argv = [group, models[spec.name], *args]
        path = None
        if csv:
            path = os.path.join(out_dir, f"{op_id}.csv")
            argv += ["--csv", path]
        ops.append(Op(op_id, "cli", group, spec.name, argv, path))

    for k, spec in enumerate(workload.models):
        op_seed = str(model_seed(seed, k) + 500)
        if workload.name == "enum-exact":
            cli(spec, "norms", "norms", [], csv=True)
            cli(spec, "bound", "bound-exact-hamming", ["--source", "exact"], csv=True)
            cli(spec, "bound", "bound-exact-euclidean",
                ["--source", "exact", "--metric", "euclidean"], csv=True)
            for src in ("exact", "level", "uniform"):
                cli(spec, "eta", f"eta-{src}", ["--source", src], csv=True)
            for i, j in _pairs(spec, 1):
                cli(spec, "eta", f"pair-{i}-{j}", ["--pair", str(i), str(j)])
            # verify on the largest table alone would take most of a pass
            if spec.cells <= VERIFY_MAX_CELLS:
                cli(spec, "verify", "verify", ["--seed", op_seed])
        elif workload.name == "level-large":
            cli(spec, "norms", "norms", [], csv=True)
            cli(spec, "bound", "bound-level-hamming", ["--source", "level"], csv=True)
            cli(spec, "bound", "bound-level-euclidean",
                ["--source", "level", "--metric", "euclidean"], csv=True)
            # One uniform-bound op per pass keeps bound_p50_s among the
            # level-bound ops.
            if spec.name == "L2":
                cli(spec, "bound", "bound-uniform-euclidean",
                    ["--source", "uniform", "--metric", "euclidean"], csv=True)
            for src in ("level", "uniform"):
                cli(spec, "eta", f"eta-{src}", ["--source", src], csv=True)
            for i, j in _pairs(spec, 6):
                cli(spec, "eta", f"pair-{i}-{j}", ["--pair", str(i), str(j)])
            cli(spec, "coeffs", "coeffs", [], csv=True)
            cli(spec, "inspect", "inspect", ["-v"])
        else:
            cli(spec, "sample", "sample",
                ["--count", str(SAMPLE_COUNT), "--seed", op_seed], csv=True)
            for b in range(BATCHES.get(spec.name, 0)):
                ops.append(Op(
                    f"{spec.name}.batch-{b}", "batch", "batch", spec.name,
                    params={"seed": int(op_seed), "count": BATCH_SIZE,
                            "offset": b * BATCH_SIZE},
                ))
            if spec.n <= 10:
                cli(spec, "bound", "bound-exact-hamming",
                    ["--source", "exact", "--t", str(MC_T)], csv=True)
                # A third bound op keeps bound_p50_s off the edge between
                # the two models' bound latencies.
                if spec.name == "M4":
                    cli(spec, "bound", "bound-exact-euclidean",
                        ["--source", "exact", "--metric", "euclidean", "--t", str(MC_T)],
                        csv=True)
                ops.append(Op(
                    f"{spec.name}.mc", "mc", "mc", spec.name,
                    params={"seed": int(op_seed), "t": MC_T, "samples": MC_SAMPLES},
                ))
    return ops


@dataclass
class Result:
    """What one op produced: exit code, captured text, CSV bytes, values."""

    rc: int
    stdout: str = ""
    stderr: str = ""
    csv: bytes = b""
    value: object = None
    error: str = ""

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.rc).encode())
        for part in (self.stdout.encode(), self.stderr.encode(), self.csv):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
        if isinstance(self.value, np.ndarray):
            h.update(np.ascontiguousarray(self.value, dtype="<i8").tobytes())
        elif self.value is not None:
            h.update(repr(self.value).encode())
        h.update(self.error.encode())
        return h.hexdigest()


def execute(op: Op, models: dict[str, str]) -> Result:
    """Run one op.  Module attributes are looked up at call time, so a
    tracer that patched them sees every call.  An op that raises is a
    failed op, not the end of the run."""
    from treemix import cli, concentration, model, modelfile

    try:
        if op.kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(op.argv))
            return Result(rc, out.getvalue(), err.getvalue())
        m, _ = modelfile.parse_model_file(models[op.model])
        p = op.params
        if op.kind == "batch":
            paths = model.sample_paths(m, p["seed"], p["count"], stream_offset=p["offset"])
            return Result(0, value=paths)
        corpus = concentration.lipschitz_test_corpus(
            m.n, m.alphabet_size, np.random.default_rng(p["seed"])
        )
        estimates = [
            (name, concentration.monte_carlo_deviation(m, f, p["t"], p["samples"], p["seed"]))
            for name, f in corpus
        ]
        return Result(0, value=estimates)
    except Exception as exc:
        return Result(-1, error=f"{type(exc).__name__}: {exc}")


def read_csv(op: Op, result: Result) -> None:
    """Attach the bytes of the op's CSV output, if it wrote one."""
    if op.csv is not None and result.rc == 0:
        with open(op.csv, "rb") as fh:
            result.csv = fh.read()
