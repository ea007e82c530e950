"""Total-variation algebra on tensors indexed by node sets.

A tensor here is a real-valued function of the states of a finite node
set, stored flat in lexicographic order with the smallest node most
significant.  The total-variation norm is half the entrywise l1 norm;
for two probability tensors p, q the distance ``tv_distance(p, q)``
equals ``max_A |p(A) - q(A)|`` over events A.

Stochastic operators map tensors on their input node set to tensors on
their output node set; columns (one per input configuration) are
probability vectors.  ``stochastic_fault`` checks every stochastic
array of the package by that one rule: operators, edge kernels, the
model's kernel stack and its root law.  Their TV operator norm

    ``|||A||| = max_{x, x'} tv(A[:, x], A[:, x'])``

is the contraction coefficient: ``tv(Au, Av) <= |||A||| tv(u, v)`` for
probability inputs, ``|||A||| <= 1`` always, and the norm is
submultiplicative under composition.

``alpha`` is the k-argument combination rule governing how contraction
coefficients of independent factors combine under tensor products:
``alpha([x]) = x`` and ``alpha(xs + [y]) = y + (1 - y) * alpha(xs)``.
It is symmetric, monotone, maps [0,1]^k into [0,1], and never exceeds
the plain sum of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Tolerance for "columns sum to one" checks on stochastic data.
STOCHASTIC_ATOL = 1e-9
# Tolerance for range checks on alpha arguments (absorbs float dust from
# upstream TV computations).
_RANGE_ATOL = 1e-12
_EPS = float(np.finfo(float).eps)
_NORM_BAND = 4 * _EPS  # columns whose exact sum is this close to 1 stay as given


def column_sums(mat: np.ndarray) -> np.ndarray:
    """Sums of the columns of ``mat`` along axis -2, exact (``math.fsum``)
    wherever a verdict could turn on rounding: a float sum of ``s`` entries
    of a probability vector errs by at most (s - 1) eps / 2, so only a
    column whose float sum is clearly within ``_NORM_BAND`` of 1, or is not
    finite, keeps it.  Entries must be finite and at least -1e-12, as the
    callers check first, so that no exact sum overflows."""
    sums = np.einsum("...ij->...j", mat)  # the bound holds in any order
    screen = _NORM_BAND - (mat.shape[-2] - 1) * _EPS / 2
    off = (np.abs(sums - 1.0) > screen) & np.isfinite(sums)
    if off.any():
        sums[off] = [math.fsum(col.tolist()) for col in np.moveaxis(mat, -2, -1)[off]]
    return sums


def _stochastic_sums(mat: np.ndarray, min_entry: float = 0.0) -> np.ndarray:
    """The :func:`column_sums` of ``mat`` once its columns along axis -2
    pass as probability vectors (entries finite and at least ``min_entry``,
    sums within ``STOCHASTIC_ATOL`` of 1); otherwise a ValueError says why."""
    if not np.isfinite(mat).all():
        raise ValueError("non-finite entries")
    low = mat.min(initial=np.inf)
    if low < min_entry:
        raise ValueError(f"negative entry {low}")
    sums = column_sums(mat)
    worst = float(np.abs(sums - 1.0).max(initial=0.0))
    if worst > STOCHASTIC_ATOL:
        raise ValueError(
            f"columns must sum to 1 within {STOCHASTIC_ATOL}, worst deviation {worst:.3e}"
        )
    return sums


def stochastic_fault(mat: np.ndarray, min_entry: float = 0.0) -> str | None:
    """Why the columns of ``mat`` along axis -2 are not probability
    vectors (entries finite and at least ``min_entry``, exact sums within
    ``STOCHASTIC_ATOL`` of 1), or None.  Axis -2 lets one call check a
    ``(k, rows, cols)`` stack; an empty stack passes."""
    try:
        _stochastic_sums(mat, min_entry)
    except ValueError as exc:
        return str(exc)
    return None


def _normalize_columns(mat: np.ndarray) -> None:
    """Check ``mat`` by :func:`stochastic_fault`'s rule (a ValueError with
    its message if it fails), then divide in place each column (axis -2)
    whose exact sum misses 1 by more than ``_NORM_BAND`` by that sum; one
    :func:`column_sums` pass serves both.  The band is safe: a divided
    column sums to within 1 eps, so a second pass or a save/parse round
    trip changes no bit; ``random_model`` laws sum to within 1 eps and stay
    as drawn; and D levels of drift within it move eta_bar by about D
    bands, far below 1e-12 at the exact engine's depth (at most 22)."""
    sums = _stochastic_sums(mat)
    for *lead, col in zip(*np.nonzero(np.abs(sums - 1.0) > _NORM_BAND)):
        mat[(*lead, slice(None), col)] /= sums[(*lead, col)]


def _check_index(index_set: Sequence[int], what: str) -> tuple[int, ...]:
    nodes = tuple(int(v) for v in index_set)
    if len(nodes) == 0:
        raise ValueError(f"{what} must be nonempty")
    if any(v < 1 for v in nodes):
        raise ValueError(f"{what} contains a non-positive node id: {nodes}")
    if nodes != tuple(sorted(set(nodes))):
        raise ValueError(f"{what} must be strictly increasing, got {nodes}")
    return nodes


@dataclass(frozen=True)
class IndexedTensor:
    """A real tensor over the configurations of a fixed node set.

    ``values`` has length ``alphabet_size ** len(index_set)`` and is laid
    out in C order: the first (smallest) node of ``index_set`` is the
    most significant digit of the flat position.
    """

    index_set: tuple[int, ...]
    alphabet_size: int
    values: np.ndarray

    def __post_init__(self):
        nodes = _check_index(self.index_set, "index set")
        s = int(self.alphabet_size)
        if s < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.alphabet_size}")
        vals = np.array(self.values, dtype=float).reshape(-1)
        if vals.size != s ** len(nodes):
            raise ValueError(
                f"expected {s ** len(nodes)} values for {len(nodes)} nodes over "
                f"an alphabet of {s}, got {vals.size}"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "index_set", nodes)
        object.__setattr__(self, "alphabet_size", s)
        object.__setattr__(self, "values", vals)

    @property
    def tv_norm(self) -> float:
        return 0.5 * float(np.abs(self.values).sum())

    def as_nd(self) -> np.ndarray:
        """View shaped with one axis per node, in index_set order."""
        k = len(self.index_set)
        return self.values.reshape((self.alphabet_size,) * k)


def tv_distance(p: IndexedTensor, q: IndexedTensor) -> float:
    """Total-variation distance ``0.5 * sum |p - q|`` on a common index set.

    Clamped at 1.0: laws with disjoint supports can round to 1 + 2e-16.
    """
    if p.index_set != q.index_set:
        raise ValueError(
            f"index sets differ: {p.index_set} vs {q.index_set}"
        )
    if p.alphabet_size != q.alphabet_size:
        raise ValueError(
            f"alphabet sizes differ: {p.alphabet_size} vs {q.alphabet_size}"
        )
    return min(1.0, 0.5 * float(np.abs(p.values - q.values).sum()))


def tensor_product(factors: Sequence[IndexedTensor]) -> IndexedTensor:
    """Outer product of tensors on pairwise disjoint node sets.

    The result is indexed by the sorted union of the factors' nodes; a
    product of probability tensors is again a probability tensor.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("tensor product of an empty factor list")
    s = factors[0].alphabet_size
    if any(f.alphabet_size != s for f in factors):
        raise ValueError("factors must share one alphabet size")
    seen: set[int] = set()
    for f in factors:
        overlap = seen & set(f.index_set)
        if overlap:
            raise ValueError(f"factors overlap on nodes {sorted(overlap)}")
        seen |= set(f.index_set)
    nodes = tuple(sorted(seen))
    axis = {v: k for k, v in enumerate(nodes)}
    operands: list = []
    for f in factors:
        operands.append(f.as_nd())
        operands.append([axis[v] for v in f.index_set])
    out = np.einsum(*operands, list(range(len(nodes))))
    return IndexedTensor(nodes, s, out.reshape(-1))


@dataclass(frozen=True)
class StochasticOperator:
    """A column-stochastic linear map between node-set tensor spaces.

    ``entries`` has shape ``(s**len(out_index), s**len(in_index))``;
    column ``x`` is the probability tensor produced from the input
    configuration ``x`` (flat, same lexicographic layout as
    :class:`IndexedTensor`).  ``in_index`` and ``out_index`` may share
    nodes (e.g. an identity block); each must be strictly increasing.
    """

    in_index: tuple[int, ...]
    out_index: tuple[int, ...]
    alphabet_size: int
    entries: np.ndarray

    def __post_init__(self):
        in_nodes = _check_index(self.in_index, "input index set")
        out_nodes = _check_index(self.out_index, "output index set")
        s = int(self.alphabet_size)
        if s < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.alphabet_size}")
        mat = np.array(self.entries, dtype=float)
        want = (s ** len(out_nodes), s ** len(in_nodes))
        if mat.shape != want:
            raise ValueError(f"expected entries of shape {want}, got {mat.shape}")
        fault = stochastic_fault(mat, min_entry=-_RANGE_ATOL)
        if fault is not None:
            raise ValueError(f"stochastic operator: {fault}")
        mat.flags.writeable = False
        object.__setattr__(self, "in_index", in_nodes)
        object.__setattr__(self, "out_index", out_nodes)
        object.__setattr__(self, "alphabet_size", s)
        object.__setattr__(self, "entries", mat)

    @classmethod
    def identity(cls, nodes: Sequence[int], alphabet_size: int) -> "StochasticOperator":
        nodes = tuple(nodes)
        dim = alphabet_size ** len(nodes)
        return cls(nodes, nodes, alphabet_size, np.eye(dim))


def column_tv_norm(mat: np.ndarray) -> float:
    """Largest TV distance between two columns of a matrix.

    Zero for a single column; in [0, 1] for a column-stochastic matrix.
    The one-matrix stack of :func:`column_tv_norms`.
    """
    return float(column_tv_norms(mat[None])[0])


def column_tv_norms(stack: np.ndarray) -> np.ndarray:
    """:func:`column_tv_norm` of every matrix of a ``(k, rows, cols)`` stack.

    The one column-TV loop: for each column ``x``, the TV from ``x`` to
    every later column, over all matrices at once, so ``k`` matrices
    take one pass instead of ``k`` calls.  Each value equals
    ``column_tv_norm`` of its slice bit for bit when the matrix is laid
    out in memory as the stack's slices are: numpy's summation order
    follows the memory layout.
    """
    worst = np.zeros(stack.shape[0])
    for x in range(stack.shape[2] - 1):
        d = 0.5 * np.abs(stack[:, :, x + 1 :] - stack[:, :, x : x + 1]).sum(axis=1)
        np.maximum(worst, d.max(axis=1), out=worst)
    return worst


def operator_tv_norm(a: StochasticOperator) -> float:
    """Contraction coefficient of ``a``: the column TV norm of its entries."""
    return column_tv_norm(a.entries)


def apply_operator(a: StochasticOperator, u: IndexedTensor) -> IndexedTensor:
    """Matrix-vector product; the input must live on ``a.in_index``."""
    if u.index_set != a.in_index:
        raise ValueError(
            f"operator expects input on {a.in_index}, got {u.index_set}"
        )
    if u.alphabet_size != a.alphabet_size:
        raise ValueError(
            f"alphabet sizes differ: {a.alphabet_size} vs {u.alphabet_size}"
        )
    return IndexedTensor(a.out_index, a.alphabet_size, a.entries @ u.values)


def stochastic_tensor_product(
    factors: Sequence[StochasticOperator],
) -> StochasticOperator:
    """Combine operators acting on disjoint outputs into one operator.

    Entry at (y, x) is the product of the factors' entries; output node
    sets must be pairwise disjoint, while input node sets may share
    nodes (a shared input is read by every factor that lists it).  The
    result's input index is the sorted union of the factors' inputs.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("tensor product of an empty factor list")
    s = factors[0].alphabet_size
    if any(f.alphabet_size != s for f in factors):
        raise ValueError("factors must share one alphabet size")
    out_seen: set[int] = set()
    in_seen: set[int] = set()
    for f in factors:
        overlap = out_seen & set(f.out_index)
        if overlap:
            raise ValueError(f"output node sets overlap on {sorted(overlap)}")
        out_seen |= set(f.out_index)
        in_seen |= set(f.in_index)
    out_nodes = tuple(sorted(out_seen))
    in_nodes = tuple(sorted(in_seen))
    # einsum with integer axis labels: outputs first, inputs after.
    label = {("out", v): k for k, v in enumerate(out_nodes)}
    label.update({("in", v): len(out_nodes) + k for k, v in enumerate(in_nodes)})
    operands: list = []
    for f in factors:
        nd = f.entries.reshape((s,) * (len(f.out_index) + len(f.in_index)))
        subs = [label[("out", v)] for v in f.out_index]
        subs += [label[("in", v)] for v in f.in_index]
        operands.append(nd)
        operands.append(subs)
    out_subs = list(range(len(out_nodes) + len(in_nodes)))
    nd = np.einsum(*operands, out_subs)
    mat = nd.reshape(s ** len(out_nodes), s ** len(in_nodes))
    return StochasticOperator(in_nodes, out_nodes, s, mat)


def expand_operator_inputs(
    a: StochasticOperator, in_index: Sequence[int]
) -> StochasticOperator:
    """Re-index ``a`` over a larger input node set, ignoring the new nodes.

    Columns are replicated across the states of nodes in ``in_index``
    that ``a`` does not read; the operator computes the same map.
    """
    new_in = _check_index(in_index, "input index set")
    if not set(a.in_index) <= set(new_in):
        missing = sorted(set(a.in_index) - set(new_in))
        raise ValueError(f"new input index drops nodes {missing}")
    if new_in == a.in_index:
        return a
    s = a.alphabet_size
    nrows = a.entries.shape[0]
    nd = a.entries.reshape((nrows,) + (s,) * len(a.in_index))
    # Both node lists are sorted, so inserting broadcast axes left to
    # right keeps surviving axes aligned with their nodes.
    for k, v in enumerate(new_in):
        if v not in a.in_index:
            nd = np.expand_dims(nd, axis=1 + k)
    nd = np.broadcast_to(nd, (nrows,) + (s,) * len(new_in))
    mat = np.ascontiguousarray(nd).reshape(nrows, s ** len(new_in))
    return StochasticOperator(new_in, a.out_index, s, mat)


def alpha(values: Iterable[float]) -> float:
    """Combination rule for contraction coefficients of product factors.

    Folds ``acc <- x + (1 - x) * acc`` over the arguments in ascending
    order (the rule is symmetric; the fixed order makes the float result
    permutation-invariant too).  Arguments must lie in [0, 1] up to a
    1e-12 tolerance; an empty collection is rejected.

    Equals ``1 - prod(1 - x)``; in particular ``alpha([x] * k)`` is
    ``1 - (1 - x) ** k``, and the result never exceeds ``sum(values)``.
    """
    xs = sorted(float(x) for x in values)
    if not xs:
        raise ValueError("alpha of an empty collection is undefined")
    acc = 0.0
    for x in xs:
        if x < -_RANGE_ATOL or x > 1.0 + _RANGE_ATOL:
            raise ValueError(f"alpha argument {x} outside [0, 1]")
        x = min(max(x, 0.0), 1.0)
        acc = x + (1.0 - x) * acc
    return acc
