"""Output checks: committed references and seed-independent invariants.

References hold, per op, the facts the library promises to keep fixed:
exit codes, eta_bar and other certified values (within ``FLOAT_TOL``),
the bytes of sample CSVs and the shown text of ``inspect`` (as SHA-256),
and ``verify`` statuses.  They exist only for the seed they were made
with.  The invariants hold on every seed:

* exact <= level <= uniform entrywise between ``eta --csv`` outputs of one
  model, and per pair in ``eta --pair`` reports, within ``FLOAT_TOL`` (the
  exact value meets the level bound up to rounding where the bound is
  tight, as ``verify``'s bound-dominance suite also allows);
* concatenated ``stream_offset`` batches equal the matching rows of the
  single large ``sample`` batch drawn with the same seed;
* each Monte Carlo tail frequency is at most the certified Hamming bound
  at the same threshold plus its 3-sigma radius.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

FLOAT_TOL = 1e-12
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")


def _csv_rows(data: bytes) -> list[list[str]]:
    lines = data.decode("utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pair_values(stdout: str) -> dict:
    """Parse the ``eta --pair`` report into {field: float or None}."""
    out: dict = {}
    for line in stdout.splitlines()[1:]:
        key, _, raw = line.strip().partition(":")
        raw = raw.strip()
        out[key] = None if raw.startswith("not computed") else float(raw)
    return out


def facts(op, result) -> dict:
    """The reference-comparable content of one op's output."""
    f: dict = {"rc": result.rc}
    if result.rc != 0:
        return f
    kind = op.kind if op.kind != "cli" else op.group
    if kind == "eta" and op.csv:
        rows = _csv_rows(result.csv)
        f["eta"] = [float(r[2]) for r in rows]
        f["provenance"] = sorted({r[3] for r in rows})
    elif kind == "eta":
        f["pair"] = _pair_values(result.stdout)
    elif kind == "norms":
        f["norms"] = {r[0]: [float(r[1]), float(r[2])] for r in _csv_rows(result.csv)}
    elif kind == "bound":
        f["bound"] = [[float(r[2]), float(r[3]), float(r[4])] for r in _csv_rows(result.csv)]
    elif kind == "coeffs":
        f["theta"] = [float(r[2]) for r in _csv_rows(result.csv)]
    elif kind == "inspect":
        f["stdout_sha256"] = _sha(result.stdout.encode())
    elif kind == "sample":
        f["csv_sha256"] = _sha(result.csv)
    elif kind == "verify":
        f["statuses"] = {
            line.split()[1]: line.split()[0] for line in result.stdout.splitlines()
        }
    elif kind == "batch":
        f["paths_sha256"] = _sha(np.ascontiguousarray(result.value, dtype="<i8").tobytes())
    elif kind == "mc":
        f["mc"] = {
            name: {"exceed": est.exceed_count, "mean": est.mean}
            for name, est in result.value
        }
    return f


def _compare(ref, got, where: str) -> list[str]:
    if isinstance(ref, float) and isinstance(got, float):
        if abs(got - ref) <= FLOAT_TOL * max(1.0, abs(ref)):
            return []
        return [f"{where}: {got!r} differs from reference {ref!r} by more than {FLOAT_TOL}"]
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{where}: keys {sorted(got)} != reference {sorted(ref)}"]
        return [p for k in ref for p in _compare(ref[k], got[k], f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: {len(got)} values, reference has {len(ref)}"]
        for k, (r, g) in enumerate(zip(ref, got)):
            problems = _compare(r, g, f"{where}[{k}]")
            if problems:
                return problems
        return []
    return [] if ref == got else [f"{where}: {got!r} != reference {ref!r}"]


def load_references(workload: str, seed: int) -> dict | None:
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["ops"] if doc["seed"] == seed else None


def check_cycle(ops, results, references: dict | None) -> dict[str, list[str]]:
    """Problems per op id for one full pass over the op list."""
    problems: dict[str, list[str]] = {op.id: [] for op in ops}
    got = {op.id: facts(op, res) for op, res in zip(ops, results)}
    for op, res in zip(ops, results):
        if res.rc != 0:
            problems[op.id].append(f"exit code {res.rc}: {res.stderr or res.error}".strip())
    if references is not None:
        for op in ops:
            if op.id not in references:
                problems[op.id].append("no reference value for this op")
            else:
                problems[op.id] += _compare(references[op.id], got[op.id], op.id)
    _check_ordering(ops, got, problems)
    _check_batches(ops, results, problems)
    _check_monte_carlo(ops, results, got, problems)
    return problems


def _check_ordering(ops, got, problems) -> None:
    """exact <= level <= uniform, matrix-wise and pair-wise."""
    by_model: dict[str, dict[str, str]] = {}
    for op in ops:
        if op.group == "eta" and op.csv and "eta" in got[op.id]:
            source = op.argv[op.argv.index("--source") + 1]
            by_model.setdefault(op.model, {})[source] = op.id
    for ids in by_model.values():
        chain = [ids[s] for s in ("exact", "level", "uniform") if s in ids]
        for lo, hi in zip(chain, chain[1:]):
            a, b = np.array(got[lo]["eta"]), np.array(got[hi]["eta"])
            if a.shape != b.shape or np.any(a > b + FLOAT_TOL):
                problems[lo].append(f"eta_bar of {lo} exceeds {hi} entrywise")
    for op in ops:
        pair = got[op.id].get("pair")
        if pair is None:
            continue
        chain = [pair[k] for k in ("exact", "level", "uniform") if pair.get(k) is not None]
        if any(lo > hi + FLOAT_TOL for lo, hi in zip(chain, chain[1:])):
            problems[op.id].append(f"pair report breaks exact <= level <= uniform: {pair}")


def _check_batches(ops, results, problems) -> None:
    """Concatenated stream_offset batches equal the large batch's rows."""
    samples = {op.model: (op, res) for op, res in zip(ops, results) if op.group == "sample"}
    rows_of: dict[str, list[list[str]]] = {}
    for op, res in zip(ops, results):
        if op.kind != "batch" or res.rc != 0:
            continue
        sample_op, big = samples.get(op.model, (None, None))
        if big is None or big.rc != 0:
            problems[op.id].append("no successful sample op to compare against")
            continue
        p = op.params
        if str(p["seed"]) != sample_op.argv[sample_op.argv.index("--seed") + 1]:
            problems[op.id].append("batch seed differs from the sample op's seed")
            continue
        if op.model not in rows_of:
            rows_of[op.model] = _csv_rows(big.csv)
        rows = rows_of[op.model][p["offset"] : p["offset"] + p["count"]]
        want = np.array([[int(x) for x in r[1:]] for r in rows], dtype=np.int64)
        if not np.array_equal(res.value, want):
            problems[op.id].append(
                f"batch at offset {p['offset']} differs from rows of the single batch"
            )


def _check_monte_carlo(ops, results, got, problems) -> None:
    """Empirical frequency <= certified Hamming bound + 3-sigma radius."""
    bounds: dict[str, dict[float, float]] = {}
    for op in ops:
        if op.group == "bound" and "bound" in got[op.id] and "hamming" in op.id:
            bounds[op.model] = {t: b for t, _, b in got[op.id]["bound"]}
    for op, res in zip(ops, results):
        if op.kind != "mc" or res.rc != 0:
            continue
        t = op.params["t"]
        bound = bounds.get(op.model, {}).get(t)
        if bound is None:
            problems[op.id].append(f"no certified Hamming bound at t={t} for {op.model}")
            continue
        for name, est in res.value:
            if not est.empirical <= bound + est.radius:
                problems[op.id].append(
                    f"{name}: empirical {est.empirical} > bound {bound} + radius {est.radius}"
                )
