"""JSON model files and random model generation.

Schema (format_version 1)::

    {
      "format_version": 1,
      "alphabet_size": 2,
      "nodes": 3,
      "root_dist": [0.5, 0.5],
      "edges": [
        {"parent": 1, "child": 2, "kernel": [[0.9, 0.1], [0.2, 0.8]]},
        ...
      ]
    }

Kernel rows are parent-major: ``kernel[x_parent][x_child]`` is the
transition probability, i.e. each row is the child distribution for one
parent state.  Rows (and ``root_dist``) must sum to 1 within 1e-9 by
the rule every model obeys (:func:`~treemix.tvalgebra.column_sums`: the
exact sum wherever the verdict could turn on rounding).  The model
normalizes them once, and leaves a normalized row as it is, so save/parse
round trips are bit-exact.  Node labels may be any permutation of
``1..n``; the loaded model is always relabeled to the canonical
breadth-first numbering, and the relabeling map is returned alongside it.

Loading checks each edge record (an object with integer ``parent`` and
``child`` and ``s`` rows of ``s`` entries), then converts every kernel
entry in one ``float()`` pass and range-checks and sums all rows at once.
The kernels reach the model, unnormalized, as one ``(n - 1, s, s)`` stack
in canonical child order (:class:`~treemix.model.MarkovTreeModel`), which
checks and normalizes it once.  A bad file raises :class:`ModelFileError`
for its first fault in file order; a kernel fault names the edge, in the
file's labels, and the row.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable

import numpy as np

from .model import MarkovTreeModel
from .treegraph import TreeStructureError, build_tree
from .tvalgebra import STOCHASTIC_ATOL, column_sums, column_tv_norm

FORMAT_VERSION = 1


class ModelFileError(ValueError):
    """A model file is malformed or inconsistent."""


def _as_float(x: Any) -> float:
    try:
        return float(x)
    except OverflowError:  # an integer beyond the float range
        return math.inf


def _probability_rows(raw_rows: list, s: int, name: Callable[[int], str]) -> np.ndarray:
    """Check rows of ``s`` probabilities, as one ``(len(raw_rows), s)`` array.

    A fault raises :class:`ModelFileError` for the first faulty row
    ``k``, named ``name(k)``; within a row the checks run in the order
    shape, non-numeric entry, range, sum.  All rows are converted in one
    ``float()`` pass and range-checked together, and the rows before the
    first one out of range are summed by the model's rule
    (:func:`~treemix.tvalgebra.column_sums`).  The model normalizes them.
    """
    shaped = next(
        (k for k, row in enumerate(raw_rows) if not isinstance(row, list) or len(row) != s),
        len(raw_rows),
    )
    try:
        flat = [float(x) for row in raw_rows[:shaped] for x in row]
        numeric = shaped
    except (TypeError, ValueError, OverflowError):
        flat = []
        for numeric, row in enumerate(raw_rows[:shaped]):
            try:
                flat += [_as_float(x) for x in row]
            except (TypeError, ValueError):
                break
        else:
            numeric = shaped
    rows = np.array(flat).reshape(numeric, s)
    # NaN fails both comparisons.
    inside = ((rows >= 0.0) & (rows <= 1.0 + STOCHASTIC_ATOL)).all(axis=1)
    ranged = numeric if inside.all() else int(inside.argmin())
    sums = column_sums(rows[:ranged].T)
    off = np.flatnonzero(np.abs(sums - 1.0) > STOCHASTIC_ATOL).tolist()
    if off:
        raise ModelFileError(
            f"{name(off[0])} sums to {float(sums[off[0]])!r}, expected 1 within {STOCHASTIC_ATOL}"
        )
    if ranged < numeric:
        raise ModelFileError(f"{name(ranged)} has entries outside [0, 1]")
    if numeric < shaped:
        raise ModelFileError(f"{name(numeric)} contains non-numeric entries")
    if shaped < len(raw_rows):
        raise ModelFileError(f"{name(shaped)} must be a list of {s} probabilities")
    return rows


def _require(doc: dict, key: str, kind: type, what: str = "model file") -> Any:
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


def _edge_record(rec: Any, pos: int, s: int, path: str) -> tuple[int, int, list]:
    """Parent, child and raw kernel rows of ``edges[pos]``."""
    if not isinstance(rec, dict):
        raise ModelFileError(f"{path}: edges[{pos}] must be an object")
    u = _require(rec, "parent", int, f"edges[{pos}]")
    v = _require(rec, "child", int, f"edges[{pos}]")
    rows = _require(rec, "kernel", list, f"edges[{pos}]")
    if len(rows) != s:
        fault = "missing" if len(rows) < s else "extra"
        raise ModelFileError(
            f"{path}: kernel for edge ({u}, {v}), row {min(len(rows), s)} is "
            f"{fault}: it must have {s} rows (one per parent state), got {len(rows)}"
        )
    return u, v, rows


def parse_model_file(path: str) -> tuple[MarkovTreeModel, dict[int, int]]:
    """Load, validate and canonicalize a model file; the model normalizes it.

    Returns ``(model, relabel)`` where ``relabel`` maps the file's node
    labels to the canonical breadth-first numbers used by the model.
    The first fault in file order is reported.
    """
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

    version = _require(doc, "format_version", int)
    if version != FORMAT_VERSION:
        raise ModelFileError(
            f"{path}: unsupported format_version {version}, expected {FORMAT_VERSION}"
        )
    s = _require(doc, "alphabet_size", int)
    if s < 2:
        raise ModelFileError(f"{path}: alphabet_size must be >= 2, got {s}")
    n = _require(doc, "nodes", int)
    if n < 1:
        raise ModelFileError(f"{path}: nodes must be >= 1, got {n}")
    raw_edges = _require(doc, "edges", list)
    root_dist = _probability_rows(
        [_require(doc, "root_dist", list)], s, lambda k: "root_dist"
    )[0]

    edges: list[tuple[int, int]] = []
    raw_rows: list = []
    fault = None
    for pos, rec in enumerate(raw_edges):
        try:
            u, v, rows = _edge_record(rec, pos, s, path)
        except ModelFileError as exc:
            fault = exc
            break
        edges.append((u, v))
        raw_rows += rows
    # The rows before a faulty edge are checked first: they precede it.
    rows = _probability_rows(
        raw_rows, s, lambda k: f"{path}: kernel for edge {edges[k // s]}, row {k % s}"
    )
    if fault is not None:
        raise fault

    try:
        topo, relabel = build_tree(n, edges)
    except TreeStructureError as exc:
        raise ModelFileError(f"{path}: {exc}") from None

    # File rows are parent-major, [edge, parent state, child state] in file
    # order; the model's stack is [edge, child state, parent state] in
    # child order.
    order = np.empty(len(edges), dtype=np.intp)
    order[[relabel[v] - 2 for _, v in edges]] = np.arange(len(edges))
    stack = rows.reshape(-1, s, s)[order].transpose(0, 2, 1)
    try:
        model = MarkovTreeModel(topo, s, root_dist, stack)
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from None
    return model, relabel


def serialize_model(model: MarkovTreeModel) -> dict:
    """Canonical JSON-ready dict (nodes in canonical numbering)."""
    # Stack rows are [child, parent] in tree.edges() order; file rows are parent-major.
    rows = model.kernel_stack.transpose(0, 2, 1).tolist()
    return {
        "format_version": FORMAT_VERSION,
        "alphabet_size": model.alphabet_size,
        "nodes": model.n,
        "root_dist": model.root_dist.tolist(),
        "edges": [
            {"parent": u, "child": v, "kernel": kernel}
            for (u, v), kernel in zip(model.tree.edges(), rows)
        ],
    }


def model_text(model: MarkovTreeModel) -> str:
    """The model file text: :func:`serialize_model` as indented JSON, newline-ended."""
    return json.dumps(serialize_model(model), indent=2) + "\n"


def save_model(model: MarkovTreeModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_text(model))


def _random_tree(
    rng: np.random.Generator, n: int, width: int, depth: int
) -> list[tuple[int, int]]:
    """Random edge list on 1..n respecting width and depth caps."""
    if n > 1 + width * depth:
        raise ValueError(
            f"cannot place {n} nodes with width {width} and depth {depth} "
            f"(capacity {1 + width * depth})"
        )
    # Allowed parents in increasing order; levels only fill, so none returns.
    depth_of = [0, 0]
    level_count = [1] + [0] * depth
    allowed = [1] if depth > 0 and width > 0 else []
    edges: list[tuple[int, int]] = []
    for v in range(2, n + 1):
        u = allowed[rng.integers(len(allowed))]
        d = depth_of[u] + 1
        edges.append((u, v))
        depth_of.append(d)
        level_count[d] += 1
        if level_count[d] == width:
            allowed = [a for a in allowed if depth_of[a] != d - 1]
        if d < depth and level_count[d + 1] < width:
            allowed.append(v)
    return edges


def _random_kernel(rng: np.random.Generator, s: int, theta_max: float) -> np.ndarray:
    """Column-stochastic kernel with contraction coefficient <= theta_max.

    Blending a raw random kernel toward its column average scales the
    contraction coefficient exactly linearly, so a uniform target in
    (0, theta_max] can be hit (or undershot when the raw kernel is
    already tamer).
    """
    raw = rng.random((s, s)) + 1e-3
    raw /= raw.sum(axis=0)
    worst = column_tv_norm(raw)
    target = float(rng.uniform(0.0, theta_max))
    lam = 1.0 if worst <= target else target / worst
    mean_col = raw.mean(axis=1, keepdims=True)
    mat = lam * raw + (1.0 - lam) * mean_col
    return mat / mat.sum(axis=0)


def random_model(
    seed: int,
    n: int,
    alphabet_size: int = 2,
    width: int | None = None,
    depth: int | None = None,
    theta_max: float = 0.9,
) -> MarkovTreeModel:
    """Generate a random model with full-support kernels.

    Every kernel's contraction coefficient is at most ``theta_max``
    (which must lie in (0, 1)); ``width`` and ``depth`` cap the tree
    shape and default to ``n - 1`` (unconstrained).  Deterministic in
    ``seed``.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    s = int(alphabet_size)
    if s < 2:
        raise ValueError(f"alphabet size must be >= 2, got {s}")
    if not 0.0 < theta_max < 1.0:
        raise ValueError(f"theta_max must lie in (0, 1), got {theta_max}")
    width = n - 1 if width is None else int(width)
    depth = n - 1 if depth is None else int(depth)
    if n > 1 and (width < 1 or depth < 1):
        raise ValueError(f"width and depth must be >= 1, got {width}, {depth}")
    rng = np.random.default_rng(seed)
    topo, _ = build_tree(n, _random_tree(rng, n, width, depth))
    root = rng.random(s) + 1e-3
    root /= root.sum()
    # One kernel per edge, drawn in child order: the model's stack order.
    stack = np.array([_random_kernel(rng, s, theta_max) for _ in range(n - 1)])
    return MarkovTreeModel(topo, s, root, stack.reshape(n - 1, s, s))
