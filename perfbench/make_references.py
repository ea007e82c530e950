"""Write the per-op reference values of every workload for the default seed.

    python3 perfbench/make_references.py

Run from the root of a treemix checkout.  The files land in
``perfbench/references/``; ``run.py`` compares against them whenever it is
given the seed they were made with.  Regenerate only when the workloads
change, never to absorb a change in the library's output.
"""

from __future__ import annotations

import json
import os
import sys

import run  # pins BLAS threads before numpy loads


def main() -> int:
    sys.path.insert(0, run.SRC)
    import checks
    import workloads

    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        out_dir = os.path.join(run.ROOT, ".perfbench_out", f"references-{name}")
        model_dir = os.path.join(out_dir, "models")
        os.makedirs(model_dir, exist_ok=True)
        models = workloads.generate_models(workload, workloads.DEFAULT_SEED, model_dir)
        ops = workloads.build_ops(workload, workloads.DEFAULT_SEED, models, out_dir)
        results, _, _ = run.run_cycle(ops, models)
        problems = checks.check_cycle(ops, results, None)
        bad = [f"{op_id}: {p[0]}" for op_id, p in problems.items() if p]
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
        refs = {op.id: checks.facts(op, res) for op, res in zip(ops, results)}
        path = os.path.join(checks.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"seed": workloads.DEFAULT_SEED, "ops": refs}, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path} ({len(refs)} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
