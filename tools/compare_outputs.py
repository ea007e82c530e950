"""Check that two checkouts compute byte-identical mixing outputs.

    python3 tools/compare_outputs.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout is hashed in its own interpreter, importing ``treemix``
from its ``src/`` and the model population from its ``perfbench/``.  The
models are every benchmark model at seeds 1 and 777, 20 ``random_model``
draws (chains, stars, full-width and width-3 trees), the same 20
rewritten with permuted node labels, shuffled edges and rows drifted off
a sum of 1 (so that loading relabels and renormalizes them), two
``random_model`` draws over 11 and 12 states (labels of two characters),
five tiny chains of one to three nodes, two of them over the lowered
cap of the last pass, so that single-node models and the order of
``verify``'s skip notes are covered, and, far over the cap, a 200-node
chain and a 150-leaf star, the deepest and the widest level sweep.
Per model it hashes the parsed model (the kernels stacked in child
order, the root law and the relabel map), the ``serialize_model`` text
and the ``save_model`` bytes of the parsed model, the stdout of ``treemix
inspect -v``, ``entries.tobytes()`` of the Delta and Gamma matrices for
each source (exact only up to 3e6 table cells), the bytes of ``treemix
coeffs --csv``, and the repr of ``eta_report``, ``eta_bar_bound_levels``
and ``eta_bar_bound_linear_growth`` on a spread of pairs.  On every model
it hashes the CLI run (exit code, stdout, stderr and the bytes of the
``--csv`` file, with and without ``--csv``) of ``eta --source
level|uniform``, of ``sample`` at three seeds and counts (5,000 paths
span three sampling blocks), and of ``eta`` fed the model's level-bound
Delta with ``-0.0`` written into two cells.  On models of at most 1e6
cells it also hashes the same of ``eta --source exact``, ``eta --pair``,
``norms``, ``bound`` for both metrics and ``verify`` with ``--csv``, at 40
trials and at the default of 500, and the repr of ``eta_exact`` (or its
error text) on the spread of pairs, at a prefix of zeros and the state
pairs (0, 1) and (0, s - 1).  On models of at most 1e5 cells it
hashes the Monte Carlo layer: the names and bytes of the
``lipschitz_test_corpus`` tables, their ``hamming_lipschitz_constant`` and
the repr of each table's ``monte_carlo_deviation`` estimate at 1,000 and
at 5,000 samples (three sampling blocks).  The output path in the
``wrote ...`` line is replaced by ``<csv>``.  Under the key ``gen`` it
hashes ``treemix gen`` for a few shapes and seeds, to stdout and with
``-o`` (the message and the file's bytes).
A last pass lowers ``TREEMIX_MAX_ENUM`` so that most models exceed it
and hashes the same for the commands that ask for exact values, and
the 5,000-sample Monte Carlo estimates again, now with a sampled mean
on every model over the lowered cap.  Prints
the differing entries, with the largest entrywise gap of each differing
Delta/Gamma, and exits 1 if there are any.

    python3 tools/compare_outputs.py . .

runs the checkout against itself, each side in a fresh interpreter with
its own hash seed: it must report ``0 differ``.
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
from types import SimpleNamespace
from unittest import mock

import numpy as np

EXACT_MAX_CELLS = 3 * 10**6
CLI_MAX_CELLS = 10**6
MC_MAX_CELLS = 10**5
LOWERED_CAP = "1000"


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
    for k, (n, s, shape) in enumerate([(5, 11, {}), (14, 12, {"width": 3})]):
        m = modelfile.random_model(seed=6000 + k, n=n, alphabet_size=s, **shape)
        paths[f"wide-alphabet/{k}"] = os.path.join(out_dir, f"wide{k}.json")
        modelfile.save_model(m, paths[f"wide-alphabet/{k}"])
    for k, (n, s) in enumerate([(1, 2), (1, 1001), (2, 2), (2, 40), (3, 2)]):
        m = modelfile.random_model(seed=7000 + k, n=n, alphabet_size=s, width=1)
        paths[f"tiny/{k}"] = os.path.join(out_dir, f"tiny{k}.json")
        modelfile.save_model(m, paths[f"tiny/{k}"])
    for name, shape in [("chain", {"n": 200, "width": 1}), ("star", {"n": 151, "depth": 1})]:
        m = modelfile.random_model(seed=8000, alphabet_size=3, **shape)
        paths[f"over-cap/{name}"] = os.path.join(out_dir, f"{name}.json")
        modelfile.save_model(m, paths[f"over-cap/{name}"])
    return paths


# Relative drifts of a row's first entry: none, 2 ulp (inside the few-ulp
# band that loading leaves alone), and three sizes between that band and
# the 1e-9 tolerance, which loading normalizes.
_DRIFTS = (0.0, 2 * 2.0**-52, 3e-14, 2e-13, 5e-10)


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


def _run_cli(argv: list[str], csv_path: str | None = None, option: str = "--csv") -> str:
    """Hash of one in-process ``treemix`` run: its exit code, stdout (with
    ``csv_path`` as ``<csv>``), stderr and, given ``csv_path``, the file
    the run writes there when passed ``option csv_path``."""
    from treemix import cli

    if csv_path:
        argv = [*argv, option, csv_path]
        with contextlib.suppress(FileNotFoundError):
            os.remove(csv_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stdout = out.getvalue()
    parts = [str(code).encode(), err.getvalue().encode()]
    if csv_path:
        stdout = stdout.replace(csv_path, "<csv>")
        with contextlib.suppress(FileNotFoundError), open(csv_path, "rb") as fh:
            parts.append(fh.read())
    return _digest(b"\0".join([stdout.encode(), *parts]))


def _pairs(n: int) -> list[tuple[int, int]]:
    """A spread of node pairs (i, j), i < j."""
    return [
        (i, j)
        for i in range(1, n, max(1, n // 7))
        for j in range(i + 1, n + 1, max(1, n // 9))
    ]


def _hash_writers(path: str, csv_path: str, m) -> dict[str, str]:
    """Hashes of the ``eta`` matrix and ``sample`` tables, with and without ``--csv``."""
    from treemix import cli, concentration

    rec = {}
    for source in ("level", "uniform"):
        argv = ["eta", path, "--source", source]
        rec[f"cli_eta_{source}"] = _run_cli(argv, csv_path)
        rec[f"cli_eta_{source}_stdout"] = _run_cli(argv)
    for seed, count in ((1, 7), (777, 2000), (5, 5000)):
        argv = ["sample", path, "--seed", str(seed), "--count", str(count)]
        rec[f"cli_sample_{seed}"] = _run_cli(argv, csv_path)
        rec[f"cli_sample_{seed}_stdout"] = _run_cli(argv)
    delta, gamma = concentration.build_mixing_matrices(m, "level-bound")
    entries = np.array(delta.entries)
    entries[0, -1] = entries[-1, 0] = -0.0
    signed = (SimpleNamespace(entries=entries), gamma)
    with mock.patch.object(cli, "build_mixing_matrices", return_value=signed):
        rec["cli_eta_signed_zero"] = _run_cli(["eta", path], csv_path)
    return rec


def _hash_cli(path: str, csv_path: str, m) -> dict[str, str]:
    """Hashes of every other CSV-writing mixing command and a few pair reports."""
    rec = {"cli_eta_exact": _run_cli(["eta", path, "--source", "exact"], csv_path)}
    rec["cli_norms"] = _run_cli(["norms", path], csv_path)
    for metric in ("hamming", "euclidean"):
        rec[f"cli_bound_{metric}"] = _run_cli(["bound", path, "--metric", metric], csv_path)
    rec["cli_verify"] = _run_cli(["verify", path, "--trials", "40"], csv_path)
    rec["cli_verify_default"] = _run_cli(["verify", path], csv_path)
    rec["cli_pairs"] = _digest(
        "".join(_run_cli(["eta", path, "--pair", str(i), str(j)]) for i, j in _pairs(m.n)[::5])
        .encode()
    )
    return rec


def _hash_eta_exact(m) -> str:
    """Hash of ``eta_exact`` on the pair spread at a prefix of zeros, for
    the state pairs (0, 1) and (0, s - 1); a raising call gives its text."""
    from treemix import mixing

    texts = []
    for i, j in _pairs(m.n):
        for w_prime in (1, m.alphabet_size - 1):
            try:
                texts.append(repr(mixing.eta_exact(m, i, j, (0,) * (i - 1), 0, w_prime)))
            except ValueError as exc:
                texts.append(f"ValueError: {exc}")
    return _digest("\n".join(texts).encode())


def _corpus(m) -> list:
    from treemix import concentration

    return concentration.lipschitz_test_corpus(m.n, m.alphabet_size, np.random.default_rng(1801))


def _mc_estimates(m, corpus: list, samples: int) -> str:
    """Hash of the Monte Carlo estimates over ``corpus`` at ``samples`` paths."""
    from treemix import concentration

    return _digest(repr([
        concentration.monte_carlo_deviation(m, f, 0.3, samples, seed=1801) for _, f in corpus
    ]).encode())


def _hash_monte_carlo(m) -> dict[str, str]:
    """Hashes of the test corpus, its Lipschitz constants and the Monte
    Carlo estimates over it."""
    from treemix import concentration

    corpus = _corpus(m)
    constants = [concentration.hamming_lipschitz_constant(f, m.n) for _, f in corpus]
    tables = b"".join(name.encode() + f.dtype.str.encode() + f.tobytes() for name, f in corpus)
    return {
        "mc_corpus": _digest(tables),
        "mc_constants": _digest(repr(constants).encode()),
        "mc_estimates": _mc_estimates(m, corpus, 1000),
        "mc_estimates_5000": _mc_estimates(m, corpus, 5000),
    }


# (nodes, alphabet size, width or None, seed) of the hashed ``gen`` runs.
_GEN_RUNS = ((1, 2, None, 0), (2, 3, None, 1), (7, 2, None, 3), (40, 3, 4, 5), (145, 3, 16, 0))


def _hash_gen(out_path: str) -> dict[str, str]:
    """Hashes of ``treemix gen`` to stdout and with ``-o out_path``."""
    rec = {}
    for nodes, s, width, seed in _GEN_RUNS:
        argv = ["gen", "--nodes", str(nodes), "--alphabet-size", str(s), "--seed", str(seed)]
        if width is not None:
            argv += ["--width", str(width)]
        key = f"{nodes}_{s}_{width}_{seed}"
        rec[f"stdout_{key}"] = _run_cli(argv)
        rec[f"file_{key}"] = _run_cli(argv, out_path, option="-o")
    return rec


def _hash_lowered_cap(path: str) -> dict[str, str]:
    """Hashes of the exact-asking commands and of the Monte Carlo
    estimates, run under ``LOWERED_CAP``."""
    from treemix import modelfile

    m = modelfile.parse_model_file(path)[0]
    n = m.n
    runs = [
        _run_cli(argv)
        for argv in (
            ["eta", path, "--source", "exact"],
            ["norms", path],
            ["norms", path, "--source", "exact"],
            ["bound", path, "--source", "exact"],
            ["verify", path, "--trials", "20"],
        )
    ]
    # Node n - 1 is a leaf in most trees, so (n - 1, n) needs no sweep: only
    # admission can refuse it.
    runs += [
        _run_cli(["eta", path, "--pair", str(i), str(j)])
        for i, j in [*_pairs(n)[::5], (max(n - 1, 1), n)]
        if i < j
    ]
    rec = {"lowered_cap": _digest("".join(runs).encode())}
    if m.table_cells() <= MC_MAX_CELLS:
        rec["lowered_cap_mc"] = _mc_estimates(m, _corpus(m), 5000)
    return rec


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
        "serialized": _digest(json.dumps(modelfile.serialize_model(m)).encode()),
    }
    saved = os.path.join(os.path.dirname(csv_path), "saved.json")
    modelfile.save_model(m, saved)
    with open(saved, "rb") as fh:
        rec["saved"] = _digest(fh.read())
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
    for i, j in _pairs(n):
        values.append(mixing.eta_report(m, i, j))
        values.append(mixing.eta_bar_bound_levels(m, i, j))
        values.append(mixing.eta_bar_bound_linear_growth(m, i, j, c))
    rec["pairs"] = _digest(repr(values).encode())
    rec.update(_hash_writers(path, csv_path, m))
    if m.table_cells() <= CLI_MAX_CELLS:
        rec.update(_hash_cli(path, csv_path, m))
        rec["eta_exact"] = _hash_eta_exact(m)
    if m.table_cells() <= MC_MAX_CELLS:
        rec.update(_hash_monte_carlo(m))
    return rec


def _hash_checkout(checkout: str) -> dict[str, dict]:
    """``{"hashes": {model: {field: hash}}, "matrices": {model: {source: [delta, gamma]}}}``."""
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    out: dict[str, dict] = {"hashes": {}, "matrices": {}}
    with tempfile.TemporaryDirectory() as tmp:
        paths = _model_files(tmp)
        csv_path = os.path.join(tmp, "out.csv")
        for key, path in sorted(paths.items()):
            matrices = out["matrices"][key] = {}
            out["hashes"][key] = _hash_model(path, csv_path, matrices)
        out["hashes"]["gen"] = _hash_gen(os.path.join(tmp, "gen.json"))
        os.environ["TREEMIX_MAX_ENUM"] = LOWERED_CAP
        for key, path in sorted(paths.items()):
            out["hashes"][key].update(_hash_lowered_cap(path))
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
    # Each side runs in a fresh interpreter with a hash seed of its own.
    old, new = (
        json.loads(
            subprocess.run(
                [sys.executable, __file__, "--hash", checkout],
                check=True, stdout=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONHASHSEED=str(side)),
            ).stdout
        )
        for side, checkout in enumerate(argv, start=1)
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
