"""Mixing coefficients of Markov tree processes and bounds on them.

For ``1 <= i < j <= n`` the coefficient

    eta(i, j; y, w, w') = tv( law of x_{j..n} | x_{1..i-1} = y, x_i = w,
                              law of x_{j..n} | x_{1..i-1} = y, x_i = w' )

measures how much the tail of the numbering can still feel a swap at
node ``i``; ``eta_bar(i, j)`` is its supremum over positive-probability
prefixes and state pairs.  These suprema assemble into the mixing
matrices that drive the concentration bounds in
:mod:`treemix.concentration`.

All of them read the model's one normalized measure, so they describe
one process.  Three computations are provided, cheapest last:

* exact values (``exact_row``), admitted by
  ``MarkovTreeModel.check_table_cap``: above the cell cap it raises
  :class:`~treemix.model.EnumerationLimitError` before any work.  Given
  the prefix, the tail ``x_{j..n}`` feels ``x_i`` only through the
  frontier ``F_j`` of subtree nodes ``v >= j`` whose parent precedes
  ``j``, and not through the prefix itself.  One sweep per node
  ``i`` carries the law of the frontier given ``x_i`` down the subtree,
  one node at a time, and takes its largest TV over the state pairs a
  positive-probability prefix admits; no joint table is built.  The
  per-pair ``eta_bar_exact`` reads its entry of the row, as
  ``eta_bar_bound_levels`` reads ``level_bound_row``.
  ``eta_exact`` (one given prefix) reads the joint table;
* the level product bound (``eta_bar_bound_levels``): only the subtree
  of ``i`` matters, only down to the depth of the first subtree node
  ``j0`` numbered at or after ``j``, and each level contributes the
  ``alpha``-combination of its edge contraction coefficients.  One
  level sweep per node ``i`` (``level_bound_row``) serves every ``j``
  of a pair; a matrix takes every row from one vectorized sweep
  (``level_bound_rows``), equal to those rows bit for bit;
* closed forms from a uniform contraction bound theta and a width cap L
  (``eta_bar_bound_uniform``, ``geometric_rate``) or from linear level
  growth (``eta_bar_bound_linear_growth``).

``SOURCES`` is the bound ladder as one table, tightest first: each
source (``"exact"``, ``"level-bound"``, ``"uniform-bound"``) is a
:class:`Source`, which gives one row of a model, given its node and the
node's subtree runs (``row``), or every row at once (``upper``),
admitting the model or refusing it first.  The mixing matrices of
:mod:`treemix.concentration` ask ``upper``; ``eta_report`` walks the
subtree once and asks each ``row``.  The command line reads every
source through it, so a new rung is one entry.

``eta_factorization`` rebuilds eta(i, j; y, w, w') for one state pair
as ``tv(B A^(d_k) ... A^(d_2) h)``: the column-difference tensor ``h``
at the first level below ``i``, one dense stochastic operator per level
of the subtree, and a frontier operator ``B`` that keeps the nodes the
tail actually depends on.  Its operators have ``s ** width`` rows and
columns, so it is a library cross-check for small trees on no command
path; the ``verify`` factorization suite checks the frontier sweep of
``exact_row`` instead, level by level against the ``alpha`` rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple

import numpy as np

from .model import EnumerationLimitError, MarkovTreeModel, max_contraction
from .treegraph import cut_sets, first_descendant_at_or_after, subtree_runs
from .treegraph import subtree  # unused here; perfbench/test_perfbench.py patches this binding
from .tvalgebra import (
    IndexedTensor,
    StochasticOperator,
    alpha,
    _RANGE_ATOL,
    apply_operator,
    expand_operator_inputs,
    operator_tv_norm,
    stochastic_tensor_product,
)


def _check_pair(m: MarkovTreeModel, i: int, j: int) -> tuple[int, int]:
    i = m.tree.check_node(i)
    j = m.tree.check_node(j)
    if not i < j:
        raise ValueError(f"need i < j, got i={i}, j={j}")
    return i, j


def eta_exact(
    m: MarkovTreeModel,
    i: int,
    j: int,
    prefix: tuple[int, ...] = (),
    w: int = 0,
    w_prime: int = 0,
) -> float:
    """eta(i, j; prefix, w, w') by enumeration.

    ``prefix`` fixes nodes ``1..i-1`` (empty when ``i == 1``); both
    extended prefixes must have positive probability.
    """
    i, j = _check_pair(m, i, j)
    if len(prefix) != i - 1:
        raise ValueError(
            f"prefix must fix nodes 1..{i - 1} ({i - 1} states), got {len(prefix)}"
        )
    s = m.alphabet_size
    between = tuple(range(j - i - 1))
    laws = []
    for state in (w, w_prime):
        px = [int(x) for x in (*prefix, state)]
        if any(not 0 <= x < s for x in px):
            raise ValueError(f"prefix states must lie in 0..{s - 1}, got {px}")
        block = m.joint_table()[tuple(px)]
        total = float(block.sum())
        if total <= 0.0:
            raise ValueError(f"conditioning event x[1..{i}] = {px} has zero probability")
        law = block.sum(axis=between) if between else block
        laws.append(law.reshape(-1) / total)
    return min(1.0, 0.5 * float(np.abs(laws[0] - laws[1]).sum()))


def _feasible_pairs(m: MarkovTreeModel, i: int) -> tuple[np.ndarray, np.ndarray]:
    """State pairs ``w < w'`` at node ``i`` that one positive-probability
    prefix admits together, as the arrays ``(w, w')``.

    For ``i == 1`` both root entries must be positive; otherwise some
    state ``a`` of ``parent(i)`` with positive marginal must reach both,
    ``K(w|a) K(w'|a) > 0``.
    """
    if i == 1:
        reach = (m.root_dist > 0.0)[:, None]
    else:
        u = m.tree.parent[i]
        seen = m.node_marginals[u] > 0.0
        reach = m.kernel_stack[i - 2][:, seen] > 0.0  # [w, a]
    shared = reach.astype(int) @ reach.T.astype(int)  # states reaching both
    return np.nonzero(np.triu(shared, k=1))


def _frontier_laws(m: MarkovTreeModel, i: int) -> Iterator[tuple[range, np.ndarray]]:
    """Laws of the frontier given ``x_i = w``, one per subtree node but the last.

    The frontier ``F_j`` holds the subtree nodes ``v >= j`` with
    ``parent(v) < j``; the tail ``x_{j..n}`` feels ``x_i`` only through
    it.  Starting from the identity on ``x_i``, each subtree node ``v`` in
    turn is replaced by its children: multiply in the law of the children
    given ``x_v``, the product of their kernels, and sum out ``x_v``.  The
    model's kernel columns sum to 1 within a few ulp, so each ``laws[w]``
    is the conditional law that enumeration divides out.  Yields ``(js,
    laws)`` where ``laws[w]`` is the law of ``F_j``, flat over its nodes in
    increasing order, for every ``j`` in ``js``: from ``v + 1`` to the next
    subtree node.  Past the last subtree node the frontier is empty.  Its
    callers admit the model.
    """
    s, tree = m.alphabet_size, m.tree
    nodes = [v for run in subtree_runs(tree, i) for v in run]
    laws = np.eye(s)
    for v, nxt in zip(nodes, nodes[1:]):
        # v is the frontier's first node and its children follow the rest.
        block = np.ones((s, 1))  # [x_v, children of v]
        for c in tree.children[v]:
            k = m.kernel_stack[c - 2].T  # [x_v, x_c]
            block = (block[:, :, None] * k[:, None, :]).reshape(s, -1)
        laws = np.tensordot(laws.reshape(s, s, -1), block, axes=([1], [0]))
        laws = laws.reshape(s, -1)
        yield range(v + 1, nxt + 1), laws


def _pair_tvs(laws: np.ndarray, pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """TV between rows ``w`` and ``w'`` of ``laws`` for each pair of the
    arrays ``pairs = (w, w')``."""
    w, wp = pairs
    # Laws with disjoint supports can sum to just over 1 in rounding.
    return np.minimum(0.5 * np.abs(laws[w] - laws[wp]).sum(axis=1), 1.0)


def exact_row(m: MarkovTreeModel, i: int) -> np.ndarray:
    """Exact eta_bar(i, j) for ``j = i+1..n`` from one frontier sweep.

    Each frontier law of :func:`_frontier_laws` fills the ``j`` it
    serves with its largest TV over the feasible pairs (0 for no pair);
    each ``j`` past the subtree of ``i`` reads 0.  Raises
    :class:`~treemix.model.EnumerationLimitError` above the cell cap.
    """
    m.check_table_cap()
    row = np.zeros(m.n - i)
    pairs = _feasible_pairs(m, i)
    for js, laws in _frontier_laws(m, i):
        tvs = _pair_tvs(laws, pairs)
        row[js.start - i - 1 : js.stop - i - 1] = tvs.max(initial=0.0)
    return row


def eta_bar_exact(m: MarkovTreeModel, i: int, j: int) -> float:
    """Supremum of eta(i, j; y, w, w') over feasible prefixes and states.

    The entry ``j`` of :func:`exact_row`: one implementation serves the
    pair and the row.  Zero when the subtree of ``i`` ends before ``j``,
    and when no positive-probability prefix admits two states at node
    ``i``.  Raises :class:`~treemix.model.EnumerationLimitError` above
    the cell cap.
    """
    i, j = _check_pair(m, i, j)
    return float(exact_row(m, i)[j - i - 1])


def _subtree_levels(
    m: MarkovTreeModel, runs: tuple[range, ...]
) -> list[list[float]]:
    """``levels[k]`` holds the contraction coefficients of the edges of
    the subtree with runs ``runs`` ending at its depth ``k + 1``, in node
    order."""
    theta = m.edge_thetas
    return [[theta[v] for v in run] for run in runs[1:]]


def _level_row(m: MarkovTreeModel, runs: tuple[range, ...]) -> np.ndarray:
    """Level bounds on eta_bar(i, j) for ``j = i+1..n`` from one sweep of
    the subtree runs ``runs`` of ``i``.

    The running product over depths starts from 1.0, so it multiplies in
    a per-pair product's order; each ``j`` reads it at the depth of its
    pivot ``j0``.
    """
    products = [1.0]
    for thetas in _subtree_levels(m, runs):
        products.append(products[-1] * alpha(thetas))
    # j in (runs[k-1][-1], runs[k][-1]] pivots at depth(i) + k; past the
    # last run the subtree has ended and the bound is 0.
    ends = [run[-1] for run in runs] + [m.n]
    return np.repeat(products[1:] + [0.0], np.diff(ends))


def level_bound_row(m: MarkovTreeModel, i: int) -> np.ndarray:
    """Level bounds on eta_bar(i, j) for ``j = i+1..n``: one walk of the
    subtree of ``i`` and one ``alpha`` per depth."""
    return _level_row(m, subtree_runs(m.tree, i))


def _alpha_arguments(x: np.ndarray) -> np.ndarray:
    """``x``, in place, range-checked and clamped as ``alpha`` does its
    arguments: the input :func:`_alphas` expects."""
    bad = (x < -_RANGE_ATOL) | (x > 1.0 + _RANGE_ATOL)
    if bad.any():
        raise ValueError(f"alpha argument {float(x[bad][0])} outside [0, 1]")
    return np.clip(x, 0.0, 1.0, out=x)


def _alphas(theta: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``alpha`` of ``theta[lo[r]:hi[r]]`` for every run ``r``, where
    ``theta`` is already range-checked and clamped as ``alpha`` does
    (:func:`_alpha_arguments`).

    Runs go in length classes (lengths within a factor 2).  In each class
    every run is gathered right-aligned into a row padded on the left with
    0.0, sorted, and folded column by column with ``acc = x + (1 - x) *
    acc``: the float operations of ``alpha`` in its order, since the clamp
    keeps the order and a zero leaves ``acc`` as it is.
    """
    alphas = np.empty(len(lo))
    length_class = np.frexp(hi - lo)[1]
    for c in np.unique(length_class):
        runs = np.flatnonzero(length_class == c)
        lo_c, hi_c = lo[runs], hi[runs]
        nodes = hi_c[:, None] - np.arange(int((hi_c - lo_c).max()), 0, -1)
        x = np.where(nodes >= lo_c[:, None], theta[np.maximum(nodes, 0)], 0.0)
        x.sort(axis=1)
        acc = np.zeros(len(runs))
        for col in x.T:
            acc = col + (1.0 - col) * acc
        alphas[runs] = acc
    return alphas


def _level_block(
    parent: np.ndarray, theta: np.ndarray, starts: np.ndarray, n: int
) -> np.ndarray:
    """The rows of :func:`level_bound_rows` for the nodes ``starts`` (a
    range of the numbering), in turn."""
    bounds, row = np.stack([starts, starts + 1]), starts - starts[0]
    runs, rows, keeps = [], [], []
    while True:
        bounds = np.searchsorted(parent, bounds)
        keep = bounds[0] < bounds[1]
        bounds, row = bounds[:, keep], row[keep]
        if not len(row):
            break
        runs.append(bounds)
        rows.append(row)
        keeps.append(keep)
    if not runs:  # only leaves: every row is 0.0
        return np.zeros(int((n - starts).sum()))
    lo, hi = np.concatenate(runs, axis=1)
    alphas = _alphas(theta, lo, hi)
    products, product, at = [], np.ones(len(starts)), 0
    for keep in keeps:
        product = product[keep]
        product = product * alphas[at : at + len(product)]
        at += len(product)
        products.append(product)
    # Row r has one segment per depth of its subtree, then the trailing
    # 0.0; ``ends`` holds the last node each segment covers.
    row_all = np.concatenate(rows)
    depths = np.bincount(row_all, minlength=len(starts))
    first = np.cumsum(depths + 1) - (depths + 1)
    at = first[row_all] + np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    values = np.zeros(first[-1] + depths[-1] + 1)
    values[at] = np.concatenate(products)
    ends = np.empty(len(values), dtype=np.int64)
    ends[at] = hi - 1
    ends[first + depths] = n
    before = np.empty_like(ends)
    before[1:] = ends[:-1]
    before[first] = starts
    return np.repeat(values, ends - before)


# Subtree runs the level sweep lists at once, about 100 bytes each: a
# block of starting nodes holds at most this many, some 25 MiB.
_RUNS_PER_BLOCK = 1 << 18


def level_bound_rows(m: MarkovTreeModel) -> np.ndarray:
    """Every row of :func:`level_bound_row`, ``i = 1..n-1`` in turn, from
    one vectorized sweep: the strict upper triangle of the level Delta,
    row by row, bit for bit equal to the rows one at a time.

    (1) The subtree runs of every node, one depth at a time: parents are
    non-decreasing along the numbering, so the children of a run
    ``[lo, hi)`` are the nodes ``[lo', hi')`` whose parent lies in it,
    found by one ``searchsorted``.  (2) The ``alpha`` of every run, by
    :func:`_alphas`.  (3) The running product over depths, one multiply
    per depth from 1.0, and each row's segments laid out with one
    ``np.repeat``, 0.0 past the subtree.  A node at depth ``d`` has at
    most ``depth - d`` runs, and depths never fall along the numbering,
    so the starting nodes go in consecutive blocks of at most
    ``_RUNS_PER_BLOCK`` runs: a chain lists ``n (n - 1) / 2`` in all.
    """
    n, tree = m.n, m.tree
    parent = np.array([0, 0] + [tree.parent[v] for v in range(2, n + 1)])
    theta = np.zeros(n + 1)
    theta[2:] = [m.edge_thetas[v] for v in range(2, n + 1)]
    # Every edge lies in the subtree of node 1, so row 1 alone would meet
    # any theta that alpha refuses.
    _alpha_arguments(theta)
    upper = np.empty(n * (n - 1) // 2)
    a, at = 1, 0
    while a < n:
        per_node = max(1, tree.depth - tree.depth_of[a])
        b = min(n, a + max(1, _RUNS_PER_BLOCK // per_node))
        block = _level_block(parent, theta, np.arange(a, b), n)
        upper[at : at + len(block)] = block
        a, at = b, at + len(block)
    return upper


def eta_bar_bound_levels(m: MarkovTreeModel, i: int, j: int) -> float:
    """Level product bound on eta_bar(i, j).

    Product over depths ``depth(i)+1 .. depth(j0)`` of the alpha
    combination of the contraction coefficients of the subtree edges
    ending at that depth; zero when ``j0`` is absent.
    """
    i, j = _check_pair(m, i, j)
    return float(level_bound_row(m, i)[j - i - 1])


def _uniform_step(theta: float, L: int) -> float:
    """The uniform bound's factor per ``L`` steps: ``1 - (1 - theta)**L``,
    computed as ``theta`` on a chain (``L == 1``)."""
    return theta if L == 1 else 1.0 - (1.0 - theta) ** L


def _uniform_args(theta: float, width_cap: int, zero_ok: bool) -> tuple[float, int]:
    """``theta`` in [0, 1) (or (0, 1) unless ``zero_ok``) and ``L >= 1``."""
    theta = float(theta)
    if not (0.0 <= theta < 1.0 and (zero_ok or theta > 0.0)):
        raise ValueError(f"theta must lie in {'[' if zero_ok else '('}0, 1), got {theta}")
    L = int(width_cap)
    if L < 1:
        raise ValueError(f"width cap must be >= 1, got {width_cap}")
    return theta, L


def eta_bar_bound_uniform(theta: float, width_cap: int, i: int, j: int) -> float:
    """Closed-form bound from a uniform contraction coefficient.

    ``(1 - (1 - theta)**L) ** floor((j - i) / L)`` with ``L`` a width
    cap for the tree (``L >= wid``); requires ``0 <= theta < 1``.
    The ``L == 1`` chain case is computed as ``theta ** (j - i)``.
    """
    theta, L = _uniform_args(theta, width_cap, zero_ok=True)
    i, j = int(i), int(j)
    if not i < j:
        raise ValueError(f"need i < j, got i={i}, j={j}")
    return _uniform_step(theta, L) ** ((j - i) // L)


def geometric_rate(theta: float, width_cap: int) -> float:
    """Geometric decay rate implied by the uniform bound.

    ``(1 - (1 - theta)**L) ** (1 / (2L - 1))``: for ``j - i >= L`` the
    uniform bound is at most this rate to the power ``j - i`` (via
    ``floor(k / L) >= k / (2L - 1)`` for ``k >= L``).  Requires
    ``0 < theta < 1``.  The step is the uniform bound's, so on a chain
    (``L == 1``) the rate is ``theta`` and the two bounds agree bit for bit.
    """
    theta, L = _uniform_args(theta, width_cap, zero_ok=False)
    return _uniform_step(theta, L) ** (1.0 / (2 * L - 1))


class LevelGrowthError(ValueError):
    """The tree violates the assumed linear bound on level sizes."""


@dataclass(frozen=True)
class LinearGrowthBound:
    """Bound on eta_bar(i, j) for trees whose levels grow linearly.

    ``product_bound`` multiplies, over the levels separating ``i`` from
    the pivot ``j0``, the plain sums of edge contraction coefficients
    (clamped to 1); it is always valid under the growth premise.
    ``closed_form`` is ``beta ** (sqrt(2 (j - i) / c) - depth(i) - 1)``
    (clamped to 1), where ``beta = max_k c * k * theta_k`` over the
    separating levels; it is only emitted when ``beta < 1``
    (``beta_premise_holds``), and ``vacuous`` marks a non-positive
    exponent, where the closed form degenerates to 1.
    """

    i: int
    j: int
    j0: int | None
    c: float
    product_bound: float
    beta: float | None
    exponent: float | None
    closed_form: float | None
    beta_premise_holds: bool
    vacuous: bool


def eta_bar_bound_linear_growth(
    m: MarkovTreeModel, i: int, j: int, c: float
) -> LinearGrowthBound:
    """Bounds on eta_bar(i, j) assuming level ``d`` has at most ``c*d`` nodes.

    Raises :class:`LevelGrowthError` when the tree itself violates the
    premise.
    """
    i, j = _check_pair(m, i, j)
    c = float(c)
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"growth constant must be positive, got {c}")
    tree = m.tree
    for d in range(1, tree.depth + 1):
        if len(tree.levels[d]) > c * d:
            raise LevelGrowthError(
                f"level {d} has {len(tree.levels[d])} nodes, exceeding c*d = {c * d}"
            )
    runs = subtree_runs(tree, i)
    j0 = first_descendant_at_or_after(tree, i, j, runs)
    if j0 is None:
        return LinearGrowthBound(
            i=i, j=j, j0=None, c=c, product_bound=0.0, beta=None,
            exponent=None, closed_form=None, beta_premise_holds=True,
            vacuous=False,
        )
    d_i = tree.depth_of[i]
    levels = _subtree_levels(m, runs)
    product = 1.0
    beta = 0.0
    for k, thetas in enumerate(levels[: tree.depth_of[j0] - d_i], start=1):
        product *= sum(thetas)
        beta = max(beta, c * k * max(thetas))
    product = min(product, 1.0)
    exponent = math.sqrt(2.0 * (j - i) / c) - d_i - 1.0
    holds = beta < 1.0
    vacuous = holds and exponent <= 0.0
    closed = None if not holds else (1.0 if vacuous else min(beta**exponent, 1.0))
    return LinearGrowthBound(
        i=i, j=j, j0=j0, c=c, product_bound=product, beta=beta,
        exponent=exponent, closed_form=closed, beta_premise_holds=holds,
        vacuous=vacuous,
    )


@dataclass(frozen=True)
class FactorizationTrace:
    """eta(i, j; ., w, w') rebuilt as one explicit operator pipeline.

    ``value = tv(B f)`` with ``f = A^(d_k) ... A^(d_2) h``; the fields
    record every intermediate quantity so the inequality chain

        value <= tv(h) * prod(operator_norms) <= prod(alpha_bounds)

    can be checked term by term.  ``operator_norms[k]`` and
    ``alpha_bounds[k]`` describe the operator one level below
    ``depth(i) + 1 + k``; ``alpha_bounds`` additionally covers the first
    level (bounding ``tv(h)``), so it has one more entry.
    """

    i: int
    j: int
    j0: int
    w: int
    w_prime: int
    value: float
    h_norm: float
    operator_norms: tuple[float, ...]
    alpha_bounds: tuple[float, ...]
    b_norm: float

    @property
    def norm_chain_bound(self) -> float:
        return self.h_norm * math.prod(self.operator_norms)

    @property
    def alpha_product(self) -> float:
        return math.prod(self.alpha_bounds)


def _edge_operator(m: MarkovTreeModel, u: int, v: int) -> StochasticOperator:
    return StochasticOperator((u,), (v,), m.alphabet_size, m.kernel_stack[v - 2])


def eta_factorization(
    m: MarkovTreeModel, i: int, j: int, w: int, w_prime: int
) -> FactorizationTrace:
    """Compute eta(i, j; y, w, w') without enumerating the joint law.

    Builds the per-level stochastic operators of the subtree of ``i``
    down to the pivot depth, the column-difference tensor between the
    conditionings ``x_i = w`` and ``x_i = w'``, and the frontier
    operator that marginalizes pre-pivot nodes while carrying the rest;
    the TV norm of the final tensor is the coefficient (for every
    feasible prefix ``y``).  Raises when the pivot is absent, since the
    coefficient is then identically zero and there is no pipeline.
    """
    i, j = _check_pair(m, i, j)
    s, tree = m.alphabet_size, m.tree
    if not (0 <= w < s and 0 <= w_prime < s):
        raise ValueError(f"states ({w}, {w_prime}) outside 0..{s - 1}")
    cs = cut_sets(tree, i, j)
    if cs.j0 is None:
        raise ValueError(
            f"subtree of {i} ends before {j}; the coefficient is identically zero"
        )
    runs = subtree_runs(tree, i)
    levels = _subtree_levels(m, runs)
    k0 = tree.depth_of[cs.j0] - tree.depth_of[i]
    operators: list[StochasticOperator] = []
    for k in range(1, k0 + 1):
        op = stochastic_tensor_product(
            [_edge_operator(m, tree.parent[v], v) for v in runs[k]]
        )
        operators.append(expand_operator_inputs(op, tuple(runs[k - 1])))

    first = operators[0]  # input index is (i,)
    h = IndexedTensor(first.out_index, s, first.entries[:, w] - first.entries[:, w_prime])
    f = h
    for op in operators[1:]:
        f = apply_operator(op, f)

    frontier = [StochasticOperator.identity((v,), s) for v in sorted(cs.c0)]
    frontier += [_edge_operator(m, tree.parent[v], v) for v in sorted(cs.c1)]
    b = expand_operator_inputs(stochastic_tensor_product(frontier), tuple(runs[k0]))
    return FactorizationTrace(
        i=i,
        j=j,
        j0=cs.j0,
        w=w,
        w_prime=w_prime,
        value=apply_operator(b, f).tv_norm,
        h_norm=h.tv_norm,
        operator_norms=tuple(operator_tv_norm(op) for op in operators[1:]),
        alpha_bounds=tuple(alpha(thetas) for thetas in levels[:k0]),
        b_norm=operator_tv_norm(b),
    )


def _row_by_row(m: MarkovTreeModel, row: Callable[[int], np.ndarray]) -> np.ndarray:
    """``row(i)`` for ``i = 1..n-1`` in turn, as one array: the strict
    upper triangle of Delta, row by row, for a source without a sweep of
    its own."""
    return np.concatenate([np.zeros(0)] + [row(i) for i in range(1, m.n)])


def _exact_upper(m: MarkovTreeModel) -> np.ndarray:
    """Every row of :func:`exact_row`, once the model is admitted.  The
    check runs here, before any row is asked, so it also refuses a
    single-node model over the cap, which has no row."""
    m.check_table_cap()
    return _row_by_row(m, functools.partial(exact_row, m))


def _uniform_by_offset(m: MarkovTreeModel) -> np.ndarray:
    """The uniform bound at every offset ``j - i = 1..n-1``, with the
    model's largest contraction coefficient theta and its width ``L``.

    The bound is ``step ** ((j - i) // L)``: the step is computed once per
    model and raised to each exponent once, ``(n - 1) // L + 1`` powers
    in all, not one per cell.  Row ``i`` is the first ``n - i`` offsets.
    Once theta reaches 1 the closed form does not apply, and the trivial
    bound 1.0 fills every offset.
    """
    theta, wid, n = max_contraction(m), m.tree.width, m.n
    if theta < 1.0:
        step = _uniform_step(theta, wid)
        return np.repeat([step ** e for e in range((n - 1) // wid + 1)], wid)[1:n]
    return np.ones(n - 1)


def _uniform_upper(m: MarkovTreeModel) -> np.ndarray:
    by_offset = _uniform_by_offset(m)
    return _row_by_row(m, lambda i: by_offset[: m.n - i])


class Source(NamedTuple):
    """One rung of the eta_bar ladder.

    ``row(m, i, runs)`` is eta_bar(i, j) for ``j = i+1..n``, where
    ``runs`` is ``subtree_runs(m.tree, i)``: the caller walks the subtree
    once and a rung that needs the subtree reads that walk.  ``upper(m)``
    is every row ``i = 1..n-1`` in turn, the strict upper triangle of
    Delta row by row.  Both admit the model first, or raise
    EnumerationLimitError if the rung refuses it.
    """

    row: Callable[[MarkovTreeModel, int, tuple[range, ...]], np.ndarray]
    upper: Callable[[MarkovTreeModel], np.ndarray]


# The eta_bar sources, tightest first: each bounds the one before it.  A
# single pair asks one row; a matrix asks every row at once.
SOURCES: Mapping[str, Source] = MappingProxyType({
    "exact": Source(lambda m, i, runs: exact_row(m, i), _exact_upper),
    "level-bound": Source(lambda m, i, runs: _level_row(m, runs), level_bound_rows),
    "uniform-bound": Source(
        lambda m, i, runs: _uniform_by_offset(m)[: m.n - i], _uniform_upper
    ),
})


@dataclass(frozen=True)
class EtaReport:
    """Every source's eta_bar(i, j) for one pair, and the geometric bound.

    ``values`` pairs each source of :data:`SOURCES`, in ladder order,
    with its value, or with None where the source refuses the model
    (exact above the cell cap).  ``geometric_bound`` is present only when
    the largest contraction coefficient is in (0, 1) and ``j - i`` is at
    least the width; it is the uniform step raised to ``(j - i) / (2L - 1)``
    in one rounding, so it never reads below the uniform bound.
    """

    i: int
    j: int
    j0: int | None
    values: tuple[tuple[str, float | None], ...]
    geometric_bound: float | None


def _entry(row, m: MarkovTreeModel, i: int, runs: tuple[range, ...], j: int) -> float | None:
    try:
        return float(row(m, i, runs)[j - i - 1])
    except EnumerationLimitError:
        return None


def eta_report(m: MarkovTreeModel, i: int, j: int) -> EtaReport:
    """Every source's eta_bar(i, j), read off its row ``i``, and the
    geometric bound.  The subtree of ``i`` is walked once: every row and
    the pivot ``j0`` read the same runs."""
    i, j = _check_pair(m, i, j)
    runs = subtree_runs(m.tree, i)
    values = tuple(
        (name, _entry(source.row, m, i, runs, j)) for name, source in SOURCES.items()
    )
    theta, wid = max_contraction(m), m.tree.width
    geometric: float | None = None
    if 0.0 < theta < 1.0 and j - i >= wid:
        geometric = _uniform_step(theta, wid) ** ((j - i) / (2 * wid - 1))
    return EtaReport(
        i=i, j=j, j0=first_descendant_at_or_after(m.tree, i, j, runs), values=values,
        geometric_bound=geometric,
    )
