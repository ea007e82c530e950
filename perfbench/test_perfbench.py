"""Tests of the benchmark itself, on small models of each workload's kind.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import os
import shutil
import subprocess
import sys

import pytest

import run  # pins BLAS threads and locates the checkout

sys.path.insert(0, run.SRC)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import ModelSpec, Workload  # noqa: E402

SMALL = {
    "enum-exact": (ModelSpec("E1", n=7, s=2, width=2, depth=3),
                   ModelSpec("E2", n=5, s=3, width=1, depth=4)),
    "level-large": (ModelSpec("L1", n=13, s=3, width=3, depth=4),),
    "mc-sampling": (ModelSpec("M1", n=9, s=2, width=1, depth=8),
                    ModelSpec("M2", n=13, s=4, width=4, depth=3)),
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def small(request, tmp_path_factory):
    out = str(tmp_path_factory.mktemp(request.param))
    model_dir = os.path.join(out, "models")
    os.makedirs(model_dir)
    wl = Workload(request.param, SMALL[request.param])
    models = workloads.generate_models(wl, 7, model_dir)
    return workloads.build_ops(wl, 7, models, out), models


def traced_pass(ops, models):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results, _, _ = run.run_cycle(ops, models, tracer)
    finally:
        tracer.uninstall()
    return tracer, results


def test_tracer_leaves_outputs_byte_identical(small):
    ops, models = small
    plain, _, _ = run.run_cycle(ops, models)
    _, traced = traced_pass(ops, models)
    assert [r.digest() for r in plain] == [r.digest() for r in traced]
    assert all(r.rc == 0 for r in plain)


def test_tracer_restores_every_binding(small):
    import treemix.cli
    import treemix.mixing
    import treemix.model

    before = (treemix.cli.build_mixing_matrices, treemix.mixing.subtree,
              treemix.model.MarkovTreeModel.joint_table)
    ops, models = small
    traced_pass(ops[:1], models)
    after = (treemix.cli.build_mixing_matrices, treemix.mixing.subtree,
             treemix.model.MarkovTreeModel.joint_table)
    assert before == after


def test_counts_repeat_exactly(small):
    ops, models = small
    first, _ = traced_pass(ops, models)
    second, _ = traced_pass(ops, models)
    a, b = first.snapshot(), second.snapshot()
    counts = [k for k in a if k not in tracing.SELF_TIMES]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["modelfile.parse_calls"] == len(ops)


def test_spans_nest_and_cover_by_name_binding(small):
    ops, models = small
    tracer, _ = traced_pass(ops, models)
    names = set(tracer.names)
    assert "cli.main" in names
    parents = list(tracer.span_parent)
    assert all(p < k for k, p in enumerate(parents))
    # ``cli`` binds build_mixing_matrices by name; its spans must appear.
    if any(op.group in ("norms", "bound") for op in ops):
        assert any(n.startswith("concentration.build_mixing_matrices[") for n in names)


def test_clean_pass_has_no_problems(small):
    ops, models = small
    results, _, _ = run.run_cycle(ops, models)
    refs = {op.id: checks.facts(op, r) for op, r in zip(ops, results)}
    assert not any(checks.check_cycle(ops, results, refs).values())


def _perturbations(refs):
    """Yield (op id, perturbed references) for each kind of reference value."""
    for op_id, fact in refs.items():
        bad = copy.deepcopy(refs)
        if "eta" in fact and fact["eta"]:
            bad[op_id]["eta"][0] += 1e-9
        elif "norms" in fact:
            key = sorted(fact["norms"])[0]
            bad[op_id]["norms"][key][0] *= 1 + 1e-9
        elif "csv_sha256" in fact:
            bad[op_id]["csv_sha256"] = "0" * 64
        elif "statuses" in fact:
            suite = sorted(fact["statuses"])[0]
            bad[op_id]["statuses"][suite] = "FAIL"
        elif "mc" in fact:
            name = sorted(fact["mc"])[0]
            bad[op_id]["mc"][name]["exceed"] += 1
        else:
            bad[op_id]["rc"] = 3
        yield op_id, bad


def test_perturbed_reference_fails_its_op(small):
    ops, models = small
    results, _, _ = run.run_cycle(ops, models)
    refs = {op.id: checks.facts(op, r) for op, r in zip(ops, results)}
    for op_id, bad in _perturbations(refs):
        problems = checks.check_cycle(ops, results, bad)
        assert [k for k, p in problems.items() if p] == [op_id]


def test_reference_within_tolerance_passes(small):
    ops, models = small
    results, _, _ = run.run_cycle(ops, models)
    refs = {op.id: checks.facts(op, r) for op, r in zip(ops, results)}
    for fact in refs.values():
        if fact.get("eta"):
            fact["eta"][0] += 1e-13
    assert not any(checks.check_cycle(ops, results, refs).values())


def test_invariants_catch_broken_outputs(small):
    ops, models = small
    results, _, _ = run.run_cycle(ops, models)
    broken = copy.deepcopy(results)
    for op, res in zip(ops, broken):
        if op.kind == "batch":
            res.value = res.value.copy()
            res.value[0, 0] = 1 - res.value[0, 0]
            break
        if op.group == "eta" and op.csv and "--source" in op.argv and "uniform" in op.argv:
            lines = res.csv.decode().splitlines()
            cells = lines[1].split(",")
            cells[2] = "-1"
            lines[1] = ",".join(cells)
            res.csv = ("\n".join(lines) + "\n").encode()
            break
    else:
        pytest.skip("no op kind with a cross-op invariant")
    problems = checks.check_cycle(ops, broken, None)
    assert sum(1 for p in problems.values() if p) == 1


def test_failed_op_counts_in_every_pass(small):
    ops, models = small
    results, _, _ = run.run_cycle(ops, models)
    refs = {op.id: checks.facts(op, r) for op, r in zip(ops, results)}
    refs[ops[0].id]["rc"] = 3
    checker = run.Checker(ops, refs)
    for _ in range(3):
        checker.check(results)
    assert (checker.attempted, checker.failed) == (3 * len(ops), 3)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
