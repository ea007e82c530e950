"""Check that two checkouts compute byte-identical mixing outputs.

    python3 tools/compare_outputs.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout is hashed in its own interpreter, importing ``treemix``
from its ``src/`` and the model population from its ``perfbench/``.  The
models are every benchmark model at seeds 1 and 777, 20 ``random_model``
draws (chains, stars, full-width and width-3 trees), and the same 20
rewritten with permuted node labels, shuffled edges and rows drifted off
a sum of 1 (so that loading relabels and renormalizes them).  Per model
it hashes the parsed model (the kernels stacked in child order, the root
law and the relabel map), the stdout of ``treemix inspect -v``,
``entries.tobytes()`` of the Delta and Gamma matrices for each source
(exact only up to 3e6 table cells), the bytes of ``treemix coeffs
--csv``, and the repr of ``eta_report``, ``eta_bar_bound_levels`` and
``eta_bar_bound_linear_growth`` on a spread of pairs.  Prints the
differing entries, with the largest entrywise gap of each differing
Delta/Gamma, and exits 1 if there are any.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

EXACT_MAX_CELLS = 3 * 10**6


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _model_files(out_dir: str) -> dict[str, str]:
    import workloads
    from treemix import modelfile

    paths = {}
    for seed in (1, 777):
        for wname, wl in workloads.WORKLOADS.items():
            d = os.path.join(out_dir, f"{wname}-{seed}")
            os.makedirs(d)
            for name, path in workloads.generate_models(wl, seed, d).items():
                paths[f"{wname}/{seed}/{name}"] = path
    shapes = [{"width": 1}, {"depth": 1}, {}, {"width": 3}]
    for k in range(20):
        m = modelfile.random_model(
            seed=5000 + k, n=6 + 3 * k, alphabet_size=2 + k % 3, **shapes[k % 4]
        )
        paths[f"random/{k}"] = os.path.join(out_dir, f"random{k}.json")
        modelfile.save_model(m, paths[f"random/{k}"])
        paths[f"scrambled/{k}"] = os.path.join(out_dir, f"scrambled{k}.json")
        with open(paths[f"scrambled/{k}"], "w", encoding="utf-8") as fh:
            json.dump(_scrambled(modelfile.serialize_model(m), k), fh)
    return paths


# Relative drifts of a row's first entry: none, inside the 1e-13 band that
# loading leaves alone, and between it and the 1e-9 tolerance.
_DRIFTS = (0.0, 3e-14, 2e-13, 5e-10)


def _scrambled(doc: dict, seed: int) -> dict:
    """``doc`` with permuted labels, shuffled edges and drifted rows."""
    rng = np.random.default_rng(seed)
    label = [0] + (rng.permutation(doc["nodes"]) + 1).tolist()
    edges = []
    for pos in rng.permutation(len(doc["edges"])):
        edge = doc["edges"][pos]
        rows = [list(row) for row in edge["kernel"]]
        for row in rows:
            row[0] *= 1.0 + _DRIFTS[rng.integers(len(_DRIFTS))]
        edges.append(
            {"parent": label[edge["parent"]], "child": label[edge["child"]], "kernel": rows}
        )
    return {**doc, "edges": edges}


def _hash_model(path: str, csv_path: str, matrices: dict) -> dict[str, str]:
    """Hashes of one model's outputs; its Delta/Gamma entries go into ``matrices``."""
    from treemix import cli, concentration, mixing, modelfile

    m, relabel = modelfile.parse_model_file(path)
    # Through ``kernels``, which every version has, not ``kernel_stack``.
    stack = np.array([m.kernels[edge].matrix for edge in m.tree.edges()])
    rec = {
        "parsed_stack": _digest(stack.tobytes()),
        "parsed_root": _digest(m.root_dist.tobytes()),
        "parsed_relabel": _digest(repr(sorted(relabel.items())).encode()),
    }
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if cli.main(["inspect", path, "-v"]) != 0:
            raise RuntimeError(f"inspect failed on {path}")
    rec["inspect_v"] = _digest(out.getvalue().encode())
    sources = ["level-bound", "uniform-bound"]
    if m.table_cells() <= EXACT_MAX_CELLS:
        sources.insert(0, "exact")
    for source in sources:
        delta, gamma = concentration.build_mixing_matrices(m, source)
        rec[source] = _digest(delta.entries.tobytes() + gamma.entries.tobytes())
        matrices[source] = [delta.entries.tolist(), gamma.entries.tolist()]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["coeffs", path, "--csv", csv_path]) != 0:
            raise RuntimeError(f"coeffs failed on {path}")
    with open(csv_path, "rb") as fh:
        rec["coeffs_csv"] = _digest(fh.read())
    n = m.n
    c = float(max(len(level) for level in m.tree.levels))
    values = []
    for i in range(1, n, max(1, n // 7)):
        for j in range(i + 1, n + 1, max(1, n // 9)):
            values.append(mixing.eta_report(m, i, j, include_exact=False))
            values.append(mixing.eta_bar_bound_levels(m, i, j))
            values.append(mixing.eta_bar_bound_linear_growth(m, i, j, c))
    rec["pairs"] = _digest(repr(values).encode())
    return rec


def _hash_checkout(checkout: str) -> dict[str, dict]:
    """``{"hashes": {model: {field: hash}}, "matrices": {model: {source: [delta, gamma]}}}``."""
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    out: dict[str, dict] = {"hashes": {}, "matrices": {}}
    with tempfile.TemporaryDirectory() as tmp:
        paths = _model_files(tmp)
        csv_path = os.path.join(tmp, "coeffs.csv")
        for key, path in sorted(paths.items()):
            matrices = out["matrices"][key] = {}
            out["hashes"][key] = _hash_model(path, csv_path, matrices)
    return out


def _gap(old: dict, new: dict, key: str, field: str) -> str:
    """Largest entrywise Delta and Gamma gaps of one differing source."""
    pair = old["matrices"].get(key, {}).get(field), new["matrices"].get(key, {}).get(field)
    if None in pair:
        return ""
    (d_old, g_old), (d_new, g_new) = (
        (np.array(d), np.array(g)) for d, g in pair
    )
    if d_old.shape != d_new.shape:
        return f" (shape {d_old.shape} -> {d_new.shape})"
    return (
        f" (max |delta gap| {np.abs(d_old - d_new).max():.3e},"
        f" max |gamma gap| {np.abs(g_old - g_new).max():.3e})"
    )


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--hash":
        json.dump(_hash_checkout(os.path.abspath(argv[1])), sys.stdout)
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (
        json.loads(
            subprocess.run(
                [sys.executable, __file__, "--hash", checkout],
                check=True, capture_output=True, text=True,
            ).stdout
        )
        for checkout in argv
    )
    old_h, new_h = old["hashes"], new["hashes"]
    differing = [
        f"{key} {field}" + _gap(old, new, key, field)
        for key in sorted(set(old_h) | set(new_h))
        for field in sorted(set(old_h.get(key, {})) | set(new_h.get(key, {})))
        if old_h.get(key, {}).get(field) != new_h.get(key, {}).get(field)
    ]
    total = sum(len(rec) for rec in old_h.values())
    print(f"{len(old_h)} models, {total} hashes compared, {len(differing)} differ")
    for line in differing:
        print("  differs:", line)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
