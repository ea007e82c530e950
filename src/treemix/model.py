"""Markov processes indexed by a rooted tree over a finite alphabet.

A model is a root distribution plus one column-stochastic transition
kernel per tree edge; the joint law of the node variables is

    P(x) = root_dist[x_1] * prod over edges (u, v) of K_uv[x_v, x_u].

The kernels are held as one read-only stack, ``kernel_stack``, of shape
``(n - 1, s, s)`` in child order: ``kernel_stack[v - 2][x_v, x_u]`` is the
kernel of the edge into ``v``; the model stores, and the package builds
and reads, no other.  A model given the stack (as the file loader and
``random_model`` give it) validates it once, as a whole.  ``kernels`` and
``kernel(edge)`` give callers outside the package :class:`Kernel` views
into it, all made on the first read of ``kernels``.  Its copies of the
stack and root law are normalized once, so θ, the frontier sweep, the
joint table and the sampler read one measure.
The model's derived tables are ``functools.cached_property`` attributes,
each computed from the stack on first read and then kept on the model:
the edge contraction coefficients (``edge_thetas``), the node marginals
of one forward pass (``node_marginals``) and the joint table behind
``joint_table()``.

``eta_exact`` (one given prefix) and the verification oracles enumerate
the joint table.  Exact mixing coefficients do not build it: they sweep
small frontier laws down the tree (:mod:`treemix.mixing`), reading the
node marginals.  Every exact computation is still admitted by one
rule, ``check_table_cap``: ``alphabet_size ** n`` must not exceed
``enumeration_cap()``, which is 1e7 unless the ``TREEMIX_MAX_ENUM``
environment variable sets it.  Each exact entry point asks it before any
work, and every read of the joint table asks it again, cached or not, so
a lowered cap refuses a model admitted before.  A refusal raises
:class:`EnumerationLimitError`; callers that can go without an exact
value catch it instead of comparing cells to the cap.
So admission does not depend on which computation asks first, on
whether the answer needs any work, or on what was computed before.

Sampling uses one counter-based RNG stream per path, keyed by
``(seed, path_index)``, so batches are reproducible, order-independent,
and disjoint batches can be drawn from one seed via ``stream_offset``.
The streams are computed together, as uint64 array arithmetic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

from .treegraph import TreeTopology
from .tvalgebra import _normalize_columns, column_tv_norms, stochastic_fault

DEFAULT_ENUM_CAP = 10_000_000
ENUM_CAP_ENV = "TREEMIX_MAX_ENUM"


class EnumerationLimitError(RuntimeError):
    """Joint-table enumeration would exceed the configured cell cap."""


def enumeration_cap() -> int:
    """Effective cap on joint-table cells: ``TREEMIX_MAX_ENUM``, else 1e7."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"enumeration cap must be positive, got {cap}")
    return cap


def _cells_text(m: "MarkovTreeModel") -> str:
    """``s ** n`` in decimal, or as ``s**n`` past Python's int-to-str limit."""
    try:
        return str(m.table_cells())
    except ValueError:
        return f"{m.alphabet_size}**{m.n}"


def _tree_edge(tree: TreeTopology, edge: tuple[int, int]) -> tuple[int, int]:
    """``edge`` as a pair of ints; a ValueError unless it is an edge of ``tree``."""
    key = (int(edge[0]), int(edge[1]))
    if tree.parent.get(key[1]) != key[0]:
        raise ValueError(f"no kernel for edge {key}; edges are {tree.edges()}")
    return key


def _stack_kernels(
    kernels: dict[tuple[int, int], "Kernel"], edges: Sequence[tuple[int, int]], s: int
) -> np.ndarray:
    """Stack a mapping of already validated kernels in child order."""
    want, have = set(edges), set(kernels)
    if want != have:
        raise ValueError(
            f"kernels must cover exactly the tree edges; missing "
            f"{sorted(want - have)}, extra {sorted(have - want)}"
        )
    for edge, k in kernels.items():
        if k.edge != edge:
            raise ValueError(f"kernel keyed {edge} carries edge {k.edge}")
        if k.alphabet_size != s:
            raise ValueError(
                f"kernel for edge {edge} has alphabet {k.alphabet_size}, "
                f"expected {s}"
            )
    mats = [kernels[edge].matrix for edge in edges]
    # Keep the kernels' memory layout: numpy's summation order, and so
    # the last bits of what is computed from them, follows it.
    if mats and all(mat.flags.f_contiguous for mat in mats):
        return np.array([mat.T for mat in mats]).transpose(0, 2, 1)
    return np.array(mats).reshape(len(edges), s, s)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Transition kernel attached to one edge (parent, child).

    ``matrix[x_child, x_parent]`` is the transition probability; columns
    are probability vectors (one per parent state).  Kernels compare by
    identity.
    """

    edge: tuple[int, int]
    matrix: np.ndarray

    def __post_init__(self):
        u, v = self.edge
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError(f"kernel for edge ({u}, {v}) must be square, got {mat.shape}")
        fault = stochastic_fault(mat)
        if fault is not None:
            raise ValueError(f"kernel for edge ({u}, {v}): {fault}")
        mat.flags.writeable = False
        object.__setattr__(self, "edge", (int(u), int(v)))
        object.__setattr__(self, "matrix", mat)

    @property
    def alphabet_size(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def _view(cls, edge: tuple[int, int], matrix: np.ndarray) -> "Kernel":
        """A kernel over a slice of an already validated stack, uncopied."""
        k = object.__new__(cls)
        object.__setattr__(k, "edge", edge)
        object.__setattr__(k, "matrix", matrix)
        return k


@dataclass(frozen=True, eq=False)
class MarkovTreeModel:
    """A tree topology with a root distribution and per-edge kernels.

    ``kernel_stack`` is given as an array of shape ``(n - 1, s, s)`` whose
    entry ``v - 2`` is the kernel of the edge into ``v``, or, from callers
    outside the package, as a mapping edge -> :class:`Kernel` covering the
    tree's edges, which is then stacked.  Either way the copied stack and
    root law are checked and normalized once, as wholes (an invalid stack
    raises the error of its first invalid edge), and ``kernel_stack``
    holds the read-only stack.  ``kernels`` is a read-only mapping of
    every edge to a :class:`Kernel` view into it, made on first read; the
    repr shows the stack and makes no view.  Models compare by identity.
    """

    tree: TreeTopology
    alphabet_size: int
    root_dist: np.ndarray
    kernel_stack: np.ndarray | Mapping[tuple[int, int], Kernel]

    def __post_init__(self):
        s = int(self.alphabet_size)
        if s < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.alphabet_size}")
        dist = np.array(self.root_dist, dtype=float).reshape(-1)
        if dist.size != s:
            raise ValueError(
                f"root distribution has {dist.size} entries, expected {s}"
            )
        try:
            _normalize_columns(dist[:, None])
        except ValueError as exc:
            raise ValueError(f"root distribution is not a probability vector: {exc}") from None
        dist.flags.writeable = False
        edges = self.tree.edges()
        if isinstance(self.kernel_stack, np.ndarray):
            stack = np.array(self.kernel_stack, dtype=float)
            if stack.shape != (len(edges), s, s):
                raise ValueError(
                    f"kernel stack has shape {stack.shape}, expected "
                    f"{(len(edges), s, s)}"
                )
        else:
            stack = _stack_kernels(dict(self.kernel_stack), edges, s)
        try:
            _normalize_columns(stack)
        except ValueError:
            for u, v in edges:  # raises the first failing edge's error
                Kernel((u, v), stack[v - 2])
            raise
        stack.flags.writeable = False  # before the views, which inherit it
        object.__setattr__(self, "alphabet_size", s)
        object.__setattr__(self, "root_dist", dist)
        object.__setattr__(self, "kernel_stack", stack)

    @cached_property
    def kernels(self) -> Mapping[tuple[int, int], Kernel]:
        """Every edge -> its :class:`Kernel` view into ``kernel_stack``, in
        child order; built on first read and cached."""
        return MappingProxyType(
            {(u, v): Kernel._view((u, v), self.kernel_stack[v - 2]) for u, v in self.tree.edges()}
        )

    @property
    def n(self) -> int:
        return self.tree.n

    def kernel(self, edge: tuple[int, int]) -> Kernel:
        return self.kernels[_tree_edge(self.tree, edge)]

    def table_cells(self) -> int:
        return self.alphabet_size ** self.n

    def check_table_cap(self) -> None:
        """Raise :class:`EnumerationLimitError` when the joint table's
        ``alphabet_size ** n`` cells exceed ``enumeration_cap()``.

        Every exact computation is admitted by this rule, whether or not
        it builds the table.
        """
        cap = enumeration_cap()
        if self.table_cells() > cap:
            raise EnumerationLimitError(
                f"joint table needs {_cells_text(self)} cells, cap is {cap} "
                f"(raise {ENUM_CAP_ENV} to override)"
            )

    def joint_table(self) -> np.ndarray:
        """Full joint law as an ndarray with one axis per node.

        Built on the first call and cached.  Raises
        :class:`EnumerationLimitError` above the cell cap on every call,
        the cached table included.
        """
        self.check_table_cap()
        return self._joint_table

    @cached_property
    def _joint_table(self) -> np.ndarray:
        """The table of nodes ``1..v`` is that of ``1..v-1`` times node
        ``v``'s kernel along its parent's axis, for ``v = 2..n`` in turn:
        each cell is the product of its factors in node order.  Every
        table is C-contiguous, which sets numpy's summation order."""
        s = self.alphabet_size
        table = self.root_dist.copy()
        for u, v in self.tree.edges():
            shape = [1] * v
            shape[u - 1] = s
            shape[v - 1] = s
            # matrix is [child, parent]; axis u-1 (parent) must index columns
            kernel = self.kernel_stack[v - 2].T.reshape(shape)
            table = np.multiply(table[..., None], kernel, order="C")
        return table

    @cached_property
    def edge_thetas(self) -> Mapping[int, float]:
        """Contraction coefficient of every edge, keyed by the edge's child.

        One :func:`~treemix.tvalgebra.column_tv_norms` pass over the kernel
        stack.  ``column_tv_norm`` runs the same loop on a one-matrix stack,
        so each value equals it on the edge's kernel bit for bit; computed
        once per model and cached, like the joint table.
        """
        thetas = column_tv_norms(self.kernel_stack).tolist()
        return MappingProxyType(dict(zip(range(2, self.n + 1), thetas)))

    @cached_property
    def node_marginals(self) -> np.ndarray:
        """Law of every node, shape ``(n + 1, s)``; row ``v`` is node ``v``.

        One forward pass down the numbering, ``P(x_v) = K_v P(x_parent)``;
        computed once per model and cached.  Row 0 is unused.
        """
        marginals = np.zeros((self.n + 1, self.alphabet_size))
        marginals[1] = self.root_dist
        for u, v in self.tree.edges():
            marginals[v] = self.kernel_stack[v - 2] @ marginals[u]
        marginals.flags.writeable = False
        return marginals


def joint_probability(m: MarkovTreeModel, x: Sequence[int]) -> float:
    """Probability of one full configuration (product formula, no table)."""
    x = [int(xv) for xv in x]
    if len(x) != m.n:
        raise ValueError(f"configuration has {len(x)} entries, expected {m.n}")
    s = m.alphabet_size
    for v, xv in enumerate(x, start=1):
        if not 0 <= xv < s:
            raise ValueError(f"state {xv} at node {v} outside 0..{s - 1}")
    p = float(m.root_dist[x[0]])
    for u, v in m.tree.edges():
        p *= float(m.kernel_stack[v - 2, x[v - 1], x[u - 1]])
    return p


def contraction_coefficient(m: MarkovTreeModel, edge: tuple[int, int]) -> float:
    """Largest TV distance between two columns of the edge's kernel.

    Read from ``m.edge_thetas``; a non-edge raises ``kernel()``'s error.
    """
    return m.edge_thetas[_tree_edge(m.tree, edge)[1]]


def max_contraction(m: MarkovTreeModel) -> float:
    """Largest contraction coefficient over all edges (0 for n = 1)."""
    return max(m.edge_thetas.values(), default=0.0)


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as
# 1, 2, 3", SC 2011): the multipliers and the key increments (Weyl
# constants) of one round, as in Random123 and numpy's Philox.
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_U64 = 2**64
# Paths drawn per sweep; temporaries are O(_SAMPLE_BLOCK * n).
_SAMPLE_BLOCK = 2048


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``a * b``, from 32-bit
    halves so that no partial product overflows uint64."""
    a_lo, a_hi = a & _LO32, a >> np.uint64(32)
    b_lo, b_hi = b & _LO32, b >> np.uint64(32)
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    # at most (2**32 - 1)**2 + 2 * (2**32 - 1) = 2**64 - 1: no carry lost
    mid = (lo_lo >> np.uint64(32)) + (hi_lo & _LO32) + a_lo * b_hi
    hi = a_hi * b_hi + (hi_lo >> np.uint64(32)) + (mid >> np.uint64(32))
    return hi, a * b


def _philox_uniforms(seed: int, first: int, count: int, n: int) -> np.ndarray:
    """The first ``n`` doubles of ``count`` Philox streams, shape ``(n, count)``.

    Column ``p`` equals ``np.random.Generator(np.random.Philox(key=seed +
    ((first + p) << 64))).random(n)``: key words ``(seed, first + p)``,
    output block ``b`` at counter ``(b + 1, 0, 0, 0)`` (numpy increments
    the counter before it fills its four-word buffer), and each word
    ``w`` mapped to ``(w >> 11) * 2**-53``.
    """
    blocks = -(-n // 4)
    zero = np.zeros((1, 1), dtype=np.uint64)
    ctr = [np.arange(1, blocks + 1, dtype=np.uint64)[:, None], zero, zero, zero]
    path_key = np.uint64(first) + np.arange(count, dtype=np.uint64)[None, :]
    for r in range(_PHILOX_ROUNDS):
        k0 = np.uint64((seed + r * _PHILOX_W[0]) % _U64)
        k1 = path_key + np.uint64(r * _PHILOX_W[1] % _U64)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], ctr[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], ctr[2])
        ctr = [hi1 ^ ctr[1] ^ k0, lo1, hi0 ^ ctr[3] ^ k1, lo0]
    words = np.stack(np.broadcast_arrays(*ctr), axis=1).reshape(4 * blocks, count)
    return (words[:n] >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _int_arg(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def sample_paths(
    m: MarkovTreeModel, seed: int, count: int, stream_offset: int = 0
) -> np.ndarray:
    """Draw ``count`` configurations, shape ``(count, n)``, dtype int64.

    Path ``p`` is generated from its own Philox4x64-10 stream, the one
    ``np.random.Philox(key=seed + ((stream_offset + p) << 64))`` gives:
    results do not depend on batch splitting, and distinct offsets give
    non-overlapping randomness.  Node ``v`` takes uniform ``v`` of the
    stream and inverts the cumulative law of its kernel column for the
    parent's state.  One vectorised sweep draws all paths, in blocks of
    ``_SAMPLE_BLOCK`` paths.  ``seed``, ``count`` and ``stream_offset``
    must be integers (not bool).
    """
    seed = _int_arg("seed", seed)
    count = _int_arg("sample count", count)
    stream_offset = _int_arg("stream offset", stream_offset)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    if stream_offset < 0 or stream_offset + count > 2**64:
        raise ValueError("stream offset out of range")
    n, parent = m.n, m.tree.parent
    # x_v = #{k < s - 1 : cdf[x_parent][k] <= u_v}, which is bisect_right
    # over the whole cdf clamped at s - 1, since the cdf is non-decreasing.
    # cdf_rows[v - 2][k] holds cdf[y][k] for every parent state y.
    root_cdf = np.cumsum(m.root_dist)[:-1]
    cdf_rows = np.cumsum(m.kernel_stack, axis=1)[:, :-1]
    out = np.empty((count, n), dtype=np.int64)
    for start in range(0, count, _SAMPLE_BLOCK):
        size = min(_SAMPLE_BLOCK, count - start)
        u = _philox_uniforms(seed, stream_offset + start, size, n)
        x = np.zeros((n, size), dtype=np.int64)
        for c in root_cdf:
            x[0] += c <= u[0]
        for v in range(2, n + 1):
            x_parent = x[parent[v] - 1]
            for c in cdf_rows[v - 2]:
                x[v - 1] += c[x_parent] <= u[v - 1]
        out[start : start + size] = x.T
    return out


def sample_blocks(
    m: MarkovTreeModel, seed: int, count: int, stream_offset: int = 0
) -> Iterator[tuple[int, np.ndarray]]:
    """``sample_paths(m, seed, count, stream_offset)`` as ``(start, paths)``
    blocks of at most ``_SAMPLE_BLOCK`` paths, each one ``sample_paths``
    call; path ``p`` is stream ``stream_offset + p`` in both."""
    for start in range(0, count, _SAMPLE_BLOCK):
        size = min(_SAMPLE_BLOCK, count - start)
        yield start, sample_paths(m, seed, size, stream_offset=stream_offset + start)
