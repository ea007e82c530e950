"""Shared fixtures and independent oracles.

The oracles deliberately avoid the library's vectorized joint-table
path: they enumerate configurations one by one with the plain product
formula and python dict arithmetic, so agreement with the library is a
genuine cross-check rather than the same code run twice.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_right
from collections import defaultdict
from typing import Any

import numpy as np
import pytest

from treemix import Kernel, MarkovTreeModel, build_tree
from treemix.modelfile import ModelFileError
from treemix.treegraph import TreeStructureError


# --------------------------------------------------------------- builders


def make_model(n, edges, alphabet_size, root_dist, kernel_map):
    """Build a model from plain lists; kernel_map maps edge -> rows.

    Kernel rows are parent-major (row per parent state), as in the file
    format; they are transposed into column-stochastic matrices here.
    """
    topo, relabel = build_tree(n, edges)
    kernels = {}
    for (u, v), rows in kernel_map.items():
        edge = (relabel[u], relabel[v])
        kernels[edge] = Kernel(edge, np.array(rows, dtype=float).T)
    return MarkovTreeModel(topo, alphabet_size, np.array(root_dist, float), kernels)


def chain_model(kernel_rows_list, root_dist=None):
    """Chain 1 -> 2 -> ... with one parent-major kernel per edge."""
    n = len(kernel_rows_list) + 1
    s = len(kernel_rows_list[0])
    if root_dist is None:
        root_dist = [1.0 / s] * s
    edges = [(k, k + 1) for k in range(1, n)]
    kernel_map = {(k, k + 1): rows for k, rows in enumerate(kernel_rows_list, 1)}
    return make_model(n, edges, s, root_dist, kernel_map)


def sparsified(m, seed, deterministic_root):
    """``m`` with about a third of its kernel entries zeroed, so some
    prefixes have zero probability; optionally with a one-point root."""
    rng = np.random.default_rng(seed)
    s = m.alphabet_size
    kernels = {}
    for edge, k in m.kernels.items():
        keep = rng.random((s, s)) < 0.65
        keep[rng.integers(s, size=s), np.arange(s)] = True  # no empty column
        mat = np.where(keep, k.matrix, 0.0)
        kernels[edge] = Kernel(edge, mat / mat.sum(axis=0))
    root = np.eye(s)[0] if deterministic_root else m.root_dist
    return MarkovTreeModel(m.tree, s, root, kernels)


# A 2-state kernel with contraction coefficient exactly 0.7.
ROWS_07 = [[0.9, 0.1], [0.2, 0.8]]
# Contraction coefficient exactly 0.5.
ROWS_05 = [[0.75, 0.25], [0.25, 0.75]]


@pytest.fixture
def chain3_07():
    """Chain of 3 binary nodes, both kernels with theta = 0.7."""
    return chain_model([ROWS_07, ROWS_07])


@pytest.fixture
def binary7_05():
    """Full binary tree on 7 nodes, every kernel with theta = 0.5."""
    edges = [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)]
    kernel_map = {e: ROWS_05 for e in edges}
    return make_model(7, edges, 2, [0.5, 0.5], kernel_map)


# ---------------------------------------------------------------- oracles


def oracle_joint(m) -> dict[tuple[int, ...], float]:
    """Configuration -> probability by the plain product formula.

    Cached on the model, which is immutable, as its joint table is.
    """
    cached = m.__dict__.get("_oracle_joint")
    if cached is not None:
        return cached
    s, n = m.alphabet_size, m.n
    out = {}
    for cfg in itertools.product(range(s), repeat=n):
        p = float(m.root_dist[cfg[0]])
        for (u, v), k in m.kernels.items():
            p *= float(k.matrix[cfg[v - 1], cfg[u - 1]])
        out[cfg] = p
    m.__dict__["_oracle_joint"] = out
    return out


def oracle_conditional(m, prefix, targets) -> dict[tuple[int, ...], float]:
    """Bayes-rule conditional law of the target nodes given a prefix."""
    prefix = tuple(prefix)
    targets = tuple(sorted(targets))
    num: dict[tuple[int, ...], float] = defaultdict(float)
    den = 0.0
    for cfg, p in oracle_joint(m).items():
        if cfg[: len(prefix)] != prefix:
            continue
        den += p
        num[tuple(cfg[t - 1] for t in targets)] += p
    if den <= 0:
        raise ZeroDivisionError("zero-probability prefix")
    return {key: val / den for key, val in num.items()}


def oracle_eta(m, i, j, prefix, w, w_prime) -> float:
    """TV distance between the two conditional tail laws."""
    targets = range(j, m.n + 1)
    law_w = oracle_conditional(m, tuple(prefix) + (w,), targets)
    law_wp = oracle_conditional(m, tuple(prefix) + (w_prime,), targets)
    keys = set(law_w) | set(law_wp)
    return 0.5 * sum(abs(law_w.get(k, 0.0) - law_wp.get(k, 0.0)) for k in keys)


def oracle_eta_bar(m, i, j) -> float:
    """Sup of eta(i, j; y, w, w') over positive-probability prefixes and pairs.

    One pass over the joint groups the mass of each tail ``x_j..x_n`` by
    the extended prefix ``x_1..x_i``; the conditional laws and their TV
    distances then follow the definition.
    """
    tails: dict = defaultdict(lambda: defaultdict(float))
    for cfg, p in oracle_joint(m).items():
        tails[cfg[:i]][cfg[j - 1 :]] += p
    laws = {}
    for key, tail in tails.items():
        total = sum(tail.values())
        if total > 0:
            laws[key] = {t: q / total for t, q in tail.items()}
    best = 0.0
    s = m.alphabet_size
    for prefix in itertools.product(range(s), repeat=i - 1):
        feasible = [laws[key] for key in (prefix + (w,) for w in range(s)) if key in laws]
        for law_w, law_wp in itertools.combinations(feasible, 2):
            best = max(best, 0.5 * sum(abs(law_w[t] - law_wp[t]) for t in law_w))
    return best


def oracle_theta(mat) -> float:
    """Largest TV between two columns of ``mat``, one column pair at a
    time in plain Python."""
    rows, cols = mat.shape
    return max(
        0.5 * sum(abs(float(mat[r, a]) - float(mat[r, b])) for r in range(rows))
        for a in range(cols)
        for b in range(cols)
    )


def oracle_level_bound(m, i, j) -> float:
    """Level product bound on eta_bar(i, j), straight from its definition.

    The subtree comes from walking parent pointers up from each node, the
    levels from counting those steps, theta from pairwise kernel columns
    (:func:`oracle_theta`) and alpha from ``1 - prod(1 - theta)``; no
    library helper is used.
    """
    def steps_below_i(v):
        steps = 0
        while v != i:
            if v == 1:
                return None
            v = m.tree.parent[v]
            steps += 1
        return steps

    def theta(v):
        return oracle_theta(m.kernels[(m.tree.parent[v], v)].matrix)

    below = {v: steps_below_i(v) for v in range(1, m.n + 1)}
    tail = [v for v in range(j, m.n + 1) if below[v] is not None]
    if not tail:
        return 0.0
    bound = 1.0
    for depth in range(1, below[min(tail)] + 1):
        keep = 1.0
        for v in range(1, m.n + 1):
            if below[v] == depth:
                keep *= 1.0 - theta(v)
        bound *= 1.0 - keep
    return bound


def oracle_subtree_depths(tree, i) -> dict[int, int]:
    """Subtree node -> steps below ``i``, by walking parent pointers up."""
    out = {}
    for v in range(1, tree.n + 1):
        u, steps = v, 0
        while u != i and u != 1:
            u, steps = tree.parent[u], steps + 1
        if u == i:
            out[v] = steps
    return out


def oracle_subtree_runs(tree, i) -> list[list[int]]:
    """Subtree of ``i`` grouped by depth, each group in node order."""
    below = oracle_subtree_depths(tree, i)
    groups: list[list[int]] = [[] for _ in range(max(below.values()) + 1)]
    for v in sorted(below):
        groups[below[v]].append(v)
    return groups


def oracle_sample_paths(m, seed, count, stream_offset=0) -> np.ndarray:
    """Paths drawn one at a time, each from its own numpy Philox generator
    keyed ``seed + ((stream_offset + p) << 64)``, by bisecting per-state
    cumulative laws; the library's vectorised sampler must equal it."""
    s, n = m.alphabet_size, m.n
    root_cdf = np.cumsum(m.root_dist).tolist()
    # Per node v >= 2: parent position and one cdf per parent state.
    parent_pos = [0] * (n + 1)
    cdfs: list[list[list[float]]] = [[] for _ in range(n + 1)]
    for v in range(2, n + 1):
        u = m.tree.parent[v]
        parent_pos[v] = u - 1
        mat = m.kernels[(u, v)].matrix
        cdfs[v] = [np.cumsum(mat[:, x]).tolist() for x in range(s)]
    top = s - 1
    out = np.empty((count, n), dtype=np.int64)
    row = [0] * n
    for p in range(count):
        gen = np.random.Generator(
            np.random.Philox(key=seed + ((stream_offset + p) << 64))
        )
        u = gen.random(n)
        row[0] = min(bisect_right(root_cdf, u[0]), top)
        for v in range(2, n + 1):
            cdf = cdfs[v][row[parent_pos[v]]]
            row[v - 1] = min(bisect_right(cdf, u[v - 1]), top)
        out[p] = row
    return out



def oracle_random_tree(rng, n, width, depth) -> list[tuple[int, int]]:
    """``modelfile._random_tree`` as it was: the allowed parents rebuilt
    from every earlier node for each new node.  The library keeps the same
    list incrementally, so it must draw the same edges."""
    if n > 1 + width * depth:
        raise ValueError(
            f"cannot place {n} nodes with width {width} and depth {depth} "
            f"(capacity {1 + width * depth})"
        )
    depth_of = {1: 0}
    level_count = {0: 1}
    edges: list[tuple[int, int]] = []
    for v in range(2, n + 1):
        allowed = [
            u
            for u in range(1, v)
            if depth_of[u] < depth and level_count.get(depth_of[u] + 1, 0) < width
        ]
        u = int(allowed[rng.integers(len(allowed))])
        edges.append((u, v))
        depth_of[v] = depth_of[u] + 1
        level_count[depth_of[v]] = level_count.get(depth_of[v], 0) + 1
    return edges


# ------------------------------------------------- per-row model parser
#
# The model-file parser as it was before kernels were parsed as one
# stack: one row at a time, each with its own numpy checks and its own
# exact sum.  The library parser must load the same documents into the
# same bits and reject the same documents.

_ORACLE_FORMAT_VERSION = 1
_ORACLE_RENORM_SKIP = 1e-13
_ORACLE_RENORM_MAX = 1e-9


def _oracle_normalize(vec: np.ndarray, what: str) -> np.ndarray:
    total = math.fsum(vec.tolist())
    if abs(total - 1.0) > _ORACLE_RENORM_MAX:
        raise ModelFileError(
            f"{what} sums to {total!r}, expected 1 within {_ORACLE_RENORM_MAX}"
        )
    if abs(total - 1.0) <= _ORACLE_RENORM_SKIP:
        return vec
    return vec / total


def _oracle_probability_row(raw: Any, length: int, what: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != length:
        raise ModelFileError(f"{what} must be a list of {length} probabilities")
    try:
        vec = np.array([float(x) for x in raw])
    except (TypeError, ValueError):
        raise ModelFileError(f"{what} contains non-numeric entries") from None
    # NaN fails this test: min and max propagate it and it compares false.
    if not (vec.min() >= 0.0 and vec.max() <= 1.0 + _ORACLE_RENORM_MAX):
        raise ModelFileError(f"{what} has entries outside [0, 1]")
    return _oracle_normalize(vec, what)


def _oracle_require(doc: dict, key: str, kind: type, what: str = "model file") -> Any:
    if key not in doc:
        raise ModelFileError(f"{what} is missing required field {key!r}")
    val = doc[key]
    if kind is int and (isinstance(val, bool) or not isinstance(val, int)):
        raise ModelFileError(f"field {key!r} must be an integer, got {val!r}")
    if kind is not int and not isinstance(val, kind):
        raise ModelFileError(
            f"field {key!r} must be of type {kind.__name__}, got {type(val).__name__}"
        )
    return val


def oracle_parse_model(path: str) -> tuple[MarkovTreeModel, dict[int, int]]:
    """Load, validate, renormalize, and canonicalize a model file, row by row."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelFileError(f"{path}: {exc.strerror or exc}") from None

    def reject_constant(name: str):
        raise ModelFileError(f"{path}: non-finite number {name} is not allowed")

    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ModelFileError(
            f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ModelFileError(f"{path}: top level must be an object")

    version = _oracle_require(doc, "format_version", int)
    if version != _ORACLE_FORMAT_VERSION:
        raise ModelFileError(
            f"{path}: unsupported format_version {version}, expected {_ORACLE_FORMAT_VERSION}"
        )
    s = _oracle_require(doc, "alphabet_size", int)
    if s < 2:
        raise ModelFileError(f"{path}: alphabet_size must be >= 2, got {s}")
    n = _oracle_require(doc, "nodes", int)
    if n < 1:
        raise ModelFileError(f"{path}: nodes must be >= 1, got {n}")
    raw_edges = _oracle_require(doc, "edges", list)
    root_dist = _oracle_probability_row(
        _oracle_require(doc, "root_dist", list), s, "root_dist"
    )

    edge_list: list[tuple[int, int]] = []
    raw_kernels: list[np.ndarray] = []
    for pos, rec in enumerate(raw_edges):
        if not isinstance(rec, dict):
            raise ModelFileError(f"{path}: edges[{pos}] must be an object")
        u = _oracle_require(rec, "parent", int, f"edges[{pos}]")
        v = _oracle_require(rec, "child", int, f"edges[{pos}]")
        rows = _oracle_require(rec, "kernel", list, f"edges[{pos}]")
        if len(rows) != s:
            raise ModelFileError(
                f"{path}: kernel for edge ({u}, {v}) must have {s} rows "
                f"(one per parent state), got {len(rows)}"
            )
        mat = np.empty((s, s))
        for r, row in enumerate(rows):
            try:
                mat[r] = _oracle_probability_row(
                    row, s, f"kernel for edge ({u}, {v}), row {r}"
                )
            except ModelFileError as exc:
                raise ModelFileError(f"{path}: {exc}") from None
        edge_list.append((u, v))
        raw_kernels.append(mat)

    try:
        topo, relabel = build_tree(n, edge_list)
    except TreeStructureError as exc:
        raise ModelFileError(f"{path}: {exc}") from None

    kernels: dict[tuple[int, int], Kernel] = {}
    for (u, v), rows in zip(edge_list, raw_kernels):
        edge = (relabel[u], relabel[v])
        # parent-major rows transpose into a column-stochastic matrix
        kernels[edge] = Kernel(edge, rows.T)
    try:
        model = MarkovTreeModel(topo, s, root_dist, kernels)
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from None
    return model, relabel


# ------------------------------------------------------ per-node pivot oracle
#
# The j0-reduction suite tabulating each node's tables on its own, from
# the enumeration oracle as it was before it divided in one pass.  The
# library must return the same result, bit for bit.


def oracle_tv_tables(tail):
    """``verification._tv_tables`` with the masked divide into ``zeros_like``."""
    s = tail.shape[1]
    mass = tail.sum(axis=2)  # (prefix, w)
    feasible = mass > 0.0
    laws = np.zeros_like(tail)
    np.divide(tail, mass[:, :, None], out=laws, where=feasible[:, :, None])
    tv = np.zeros((tail.shape[0], s, s))
    for w in range(s):
        for wp in range(w + 1, s):
            d = 0.5 * np.abs(laws[:, w, :] - laws[:, wp, :]).sum(axis=1)
            both = feasible[:, w] & feasible[:, wp]
            d = np.where(both, np.minimum(d, 1.0), 0.0)
            tv[:, w, wp] = d
            tv[:, wp, w] = d
    return tv, feasible


def oracle_eta_tables(m, i, j):
    """eta(i, j; y, w, w') for every prefix y, as :func:`oracle_tv_tables`
    of the law of (x_{1..i-1}, x_i, x_{j..n}), the nodes between summed
    out of the joint table in one step."""
    s = m.alphabet_size
    joint = m.joint_table().reshape(s ** (i - 1), s, s ** (j - i - 1), -1)
    return oracle_tv_tables(joint.sum(axis=2))


def oracle_j0_reduction_suite(m):
    """The j0-reduction suite, tabulating each node's tables on its own."""
    from treemix.treegraph import first_descendant_at_or_after
    from treemix.verification import _result, _tail_laws

    worst = 0.0
    for i in range(1, m.n):
        tables = [oracle_tv_tables(tail)[0] for tail in _tail_laws(m, i)]
        for j, tv in enumerate(tables, start=i + 1):
            j0 = first_descendant_at_or_after(m.tree, i, j)
            pivot = 0.0 if j0 is None else tables[j0 - i - 1]
            worst = max(worst, float(np.abs(tv - pivot).max()))
    return _result("j0-reduction", worst, m.n * (m.n - 1) // 2)


# ------------------------------------------------------ per-trial algebra suites
#
# The tv-contraction and tensor-two-factor suites as they were before they
# checked their trials stacked by shape: one numpy round per trial.  The
# library suites must draw the same stream and return the same result,
# bit for bit.


def oracle_tv_contraction_suite(m, trials, rng):
    from treemix.tvalgebra import column_tv_norm
    from treemix.verification import _result

    worst = 0.0
    for _ in range(trials):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(2, 6))
        mat = rng.random((rows, cols)) + 1e-9
        mat /= mat.sum(axis=0)
        p = rng.random(cols)
        p /= p.sum()
        q = rng.random(cols)
        q /= q.sum()
        norm = column_tv_norm(mat)
        lhs = 0.5 * float(np.abs(mat @ p - mat @ q).sum())
        rhs = norm * 0.5 * float(np.abs(p - q).sum())
        worst = max(worst, lhs - rhs)
    return _result("tv-contraction", worst, trials)


def oracle_tensor_two_factor_suite(m, trials, rng):
    from treemix.tvalgebra import alpha
    from treemix.verification import _result

    worst = 0.0
    for _ in range(trials):
        sp = int(rng.integers(1, 6))
        sq = int(rng.integers(1, 6))
        p, pp = rng.random(sp), rng.random(sp)
        q, qq = rng.random(sq), rng.random(sq)
        for vec in (p, pp):
            vec /= vec.sum()
        for vec in (q, qq):
            vec /= vec.sum()
        lhs = 0.5 * float(np.abs(np.outer(p, q) - np.outer(pp, qq)).sum())
        dp = 0.5 * float(np.abs(p - pp).sum())
        dq = 0.5 * float(np.abs(q - qq).sum())
        rhs = alpha([dp, dq])
        worst = max(worst, lhs - rhs)
    return _result("tensor-two-factor", worst, trials)


# ------------------------------------------------- per-cell table writers
#
# The `eta` matrix and `sample` writers as they were before they formatted
# whole arrays: one format call per cell.  The CLI must write the same
# bytes, on the screen and in the CSV.


def oracle_eta_text(entries, source):
    """(stdout, CSV text) of ``eta --source`` for the matrix ``entries``."""
    n = len(entries)
    entries = entries.tolist()
    lines = [f"eta_bar matrix, source={source} (unit diagonal)"]
    head = "     " + "".join(f"{j:>10d}" for j in range(1, n + 1))
    lines.append(head)
    for i, row in enumerate(entries, start=1):
        cells = "".join(f"{x:>10.4g}" for x in row)
        lines.append(f"{i:4d} {cells}")
    rows = (
        [str(i), str(j), format(float(x), ".17g"), source]
        for i, row in enumerate(entries, start=1)
        for j, x in enumerate(row[i:], start=i + 1)
    )
    header = ["i", "j", "eta_bar", "provenance"]
    csv_lines = [",".join(row) for row in rows]
    return (
        "".join(line + "\n" for line in lines),
        "\n".join([",".join(header), *csv_lines]) + "\n",
    )


def oracle_sample_text(batch, alphabet_size):
    """The text ``sample`` prints for ``batch``, which is also its CSV."""
    n = batch.shape[1]
    header = ["path"] + [f"x{v}" for v in range(1, n + 1)]
    label = [str(x) for x in range(alphabet_size)]
    rows = [
        [str(p), *map(label.__getitem__, row)]
        for p, row in enumerate(batch.tolist())
    ]
    return "".join(",".join(row) + "\n" for row in [header, *rows])


# ---------------------------------------------------- Monte Carlo oracles
#
# The Lipschitz constant and the test corpus as they were before they
# built their tables axis by axis: the corpus from an ``np.indices`` grid
# of n * s**n entries, the constant from a ``moveaxis`` copy of the table
# per axis.  The library must return the same tables and constants, bit
# for bit, and leave the caller's rng in the same state.  The deviation
# estimate (last) must equal the library's, repr for repr.


def oracle_hamming_lipschitz_constant(f, n) -> float:
    vals = np.asarray(f, dtype=float).reshape(-1)
    if not np.isfinite(vals).all():
        raise ValueError("function table has non-finite entries")
    s = round(vals.size ** (1.0 / n))
    s = next(c for c in (s - 1, s, s + 1) if c >= 1 and c**n == vals.size)
    nd = vals.reshape((s,) * n)
    worst = 0.0
    for axis in range(n):
        moved = np.moveaxis(nd, axis, 0).reshape(s, -1)
        for a in range(s - 1):
            d = np.abs(moved[a + 1 :] - moved[a]).max()
            worst = max(worst, float(d))
    return n * worst


def oracle_lipschitz_test_corpus(n, alphabet_size, rng) -> list[tuple[str, np.ndarray]]:
    s = int(alphabet_size)
    shape = (s,) * n
    grids = np.indices(shape)
    freq = (grids == 0).sum(axis=0) / n
    out = [("symbol-frequency", freq.reshape(-1))]
    k = int(rng.integers(1, n + 1))
    coords = rng.choice(n, size=k, replace=False)
    states = rng.integers(0, s, size=k)
    cube = np.ones(shape, dtype=bool)
    for c, st in zip(coords, states):
        cube &= grids[c] == st
    out.append(("subcube-indicator", cube.reshape(-1) / n))
    raw = rng.random(s**n)
    out.append(("random-table-0", raw / oracle_hamming_lipschitz_constant(raw, n)))
    return out


def oracle_monte_carlo_deviation(m, f, t, samples, seed):
    """``monte_carlo_deviation`` as it was before it drew its paths in
    blocks: each batch in one ``sample_paths`` call."""
    from treemix.concentration import DeviationEstimate, _flat_indices
    from treemix.model import EnumerationLimitError, sample_paths

    vals = np.asarray(f, dtype=float).reshape(-1)
    try:
        mean = float(m.joint_table().reshape(-1) @ vals)
        mean_source = "exact"
    except EnumerationLimitError:
        pre = sample_paths(m, seed, samples, stream_offset=samples)
        mean = float(vals[_flat_indices(pre, m.alphabet_size)].mean())
        mean_source = "sampled"
    batch = sample_paths(m, seed, samples)
    fx = vals[_flat_indices(batch, m.alphabet_size)]
    exceed = int((np.abs(fx - mean) > t).sum())
    p_hat = exceed / samples
    radius = 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return DeviationEstimate(
        t=float(t), samples=samples, exceed_count=exceed, empirical=p_hat,
        radius=radius, mean=mean, mean_source=mean_source,
    )
