"""Spans around treemix's public functions, installed from outside.

``Tracer.install`` replaces each target function by a wrapper at every
binding site in the ``treemix`` package (``cli`` and ``mixing`` import
several functions by name, so patching only the defining module would
miss those calls), plus the ``MarkovTreeModel.joint_table`` method.
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Each span records its name, start, end, parent span and op id.  Spans
stay in memory and are written out by ``save``.  A span's self time is
its duration minus the durations of its direct child spans; calls are
nested and single-threaded, so the children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

TARGETS = (
    ("modelfile", ("parse_model_file", "random_model", "save_model")),
    ("treegraph", ("subtree", "first_descendant_at_or_after", "cut_sets")),
    ("model", ("contraction_coefficient", "sample_paths")),
    ("tvalgebra", ("alpha", "apply_operator", "stochastic_tensor_product",
                   "expand_operator_inputs", "operator_tv_norm", "tv_distance",
                   "tensor_product")),
    ("mixing", ("eta_exact", "eta_bar_exact", "eta_bar_bound_levels",
                "eta_factorization", "eta_report")),
    ("concentration", ("build_mixing_matrices", "delta_inf_norm", "gamma_l2_norm",
                       "linf_operator_norm", "monte_carlo_deviation",
                       "lipschitz_test_corpus", "hamming_lipschitz_constant")),
    ("verification", ("run_verification",)),
    ("cli", ("main",)),
)

# Per-layer self-time metrics: metric name -> span names summed.
SELF_TIMES = {
    "modelfile.parse_s": ("modelfile.parse_model_file",),
    "modelfile.generate_s": ("modelfile.random_model", "modelfile.save_model"),
    "treegraph.query_s": ("treegraph.subtree", "treegraph.first_descendant_at_or_after",
                          "treegraph.cut_sets"),
    "model.joint_table_s": ("model.joint_table",),
    "model.contraction_s": ("model.contraction_coefficient",),
    "model.sample_s": ("model.sample_paths",),
    "tvalgebra.s": tuple(f"tvalgebra.{f}" for f in dict(TARGETS)["tvalgebra"]),
    "mixing.exact_s": ("mixing.eta_exact", "mixing.eta_bar_exact"),
    "mixing.level_s": ("mixing.eta_bar_bound_levels",),
    "mixing.factorization_s": ("mixing.eta_factorization",),
    "mixing.report_s": ("mixing.eta_report",),
    "concentration.build_exact_s": ("concentration.build_mixing_matrices[exact]",),
    "concentration.build_level_s": ("concentration.build_mixing_matrices[level-bound]",),
    "concentration.build_uniform_s": ("concentration.build_mixing_matrices[uniform-bound]",),
    "concentration.norm_s": ("concentration.delta_inf_norm", "concentration.gamma_l2_norm",
                             "concentration.linf_operator_norm"),
    "concentration.mc_s": ("concentration.monte_carlo_deviation",),
    "concentration.lipschitz_s": ("concentration.lipschitz_test_corpus",
                                  "concentration.hamming_lipschitz_constant"),
    "verification.run_s": ("verification.run_verification",),
    "cli.self_s": ("cli.main",),
}

# Per-layer call counts: metric name -> span names counted.
CALLS = {
    "modelfile.parse_calls": ("modelfile.parse_model_file",),
    "treegraph.subtree_calls": ("treegraph.subtree",),
    "treegraph.first_descendant_calls": ("treegraph.first_descendant_at_or_after",),
    "model.contraction_calls": ("model.contraction_coefficient",),
    "model.sample_calls": ("model.sample_paths",),
    "tvalgebra.alpha_calls": ("tvalgebra.alpha",),
    "tvalgebra.operator_apply_calls": ("tvalgebra.apply_operator",),
    "mixing.exact_calls": ("mixing.eta_exact", "mixing.eta_bar_exact"),
    "mixing.level_calls": ("mixing.eta_bar_bound_levels",),
    "mixing.factorization_calls": ("mixing.eta_factorization",),
    "verification.run_calls": ("verification.run_verification",),
}

# Counters fed by wrappers (and ``cli.output_bytes`` by the op loop).
COUNTERS = ("model.joint_table_builds", "model.joint_table_cells",
            "model.sampled_paths", "cli.output_bytes")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op_ids: list[str] = [""]
        self.op = 0
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.calls: dict[int, int] = {}
        self.self_time: dict[int, float] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._undo: list = []

    # ------------------------------------------------------------ spans

    def set_op(self, op_id: str) -> None:
        self.op_ids.append(op_id)
        self.op = len(self.op_ids) - 1

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[nid] = 0
            self.self_time[nid] = 0.0
        return nid

    def enter(self, name: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.span_start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        end = time.perf_counter()
        self.span_end[idx] = end
        self._stack.pop()
        duration = end - self.span_start[idx]
        nid = self.span_name[idx]
        self.calls[nid] += 1
        self.self_time[nid] += duration - self._child.pop()
        if self._child:
            self._child[-1] += duration

    def span(self, name: str, fn, *args, **kwargs):
        idx = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(idx)

    # ------------------------------------------------------ installation

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "concentration.build_mixing_matrices":
            @functools.wraps(fn)
            def wrapper(m, source, *args, **kwargs):
                return tracer.span(f"{name}[{source}]", fn, m, source, *args, **kwargs)
        elif name == "model.sample_paths":
            @functools.wraps(fn)
            def wrapper(m, seed, count, *args, **kwargs):
                out = tracer.span(name, fn, m, seed, count, *args, **kwargs)
                tracer.counters["model.sampled_paths"] += int(count)
                return out
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        return wrapper

    def _wrap_joint_table(self, fn):
        tracer = self

        @functools.wraps(fn)
        def joint_table(model, *args, **kwargs):
            build = "_joint_table" not in model.__dict__
            out = tracer.span("model.joint_table", fn, model, *args, **kwargs)
            if build:
                tracer.counters["model.joint_table_builds"] += 1
                tracer.counters["model.joint_table_cells"] += model.table_cells()
            return out

        return joint_table

    def install(self) -> None:
        import treemix  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sys.modules.items() if k == "treemix" or k.startswith("treemix.")]
        for modname, attrs in TARGETS:
            home = sys.modules[f"treemix.{modname}"]
            for attr in attrs:
                orig = getattr(home, attr)
                wrapper = self._wrap(f"{modname}.{attr}", orig)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)
                            self._undo.append((mod, key, orig))
        cls = sys.modules["treemix.model"].MarkovTreeModel
        orig = cls.joint_table
        cls.joint_table = self._wrap_joint_table(orig)
        self._undo.append((cls, "joint_table", orig))

    def uninstall(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    # ----------------------------------------------------------- metrics

    def snapshot(self) -> dict:
        """Cumulative per-metric totals so far (subtract two for a phase)."""
        by_name = {name: (self.calls[k], self.self_time[k]) for k, name in enumerate(self.names)}
        out: dict[str, float] = {}
        for metric, names in SELF_TIMES.items():
            out[metric] = sum(by_name.get(n, (0, 0.0))[1] for n in names)
        for metric, names in CALLS.items():
            out[metric] = sum(by_name.get(n, (0, 0.0))[0] for n in names)
        out.update(self.counters)
        return out

    def save(self, path: str) -> None:
        """Write every span: name, start, end, parent span index, op id."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            op_ids=np.array(self.op_ids),
            name=np.frombuffer(self.span_name, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

