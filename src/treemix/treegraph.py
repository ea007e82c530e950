"""Rooted trees with a canonical breadth-first numbering.

Nodes are labeled ``1..n`` with the root fixed at ``1``.  The canonical
numbering is chosen so that

* every node's number is strictly larger than its parent's, and
* shallower nodes always precede deeper ones,

which makes the prefix ``{1..i}`` of the numbering a "past" that is always
closed under taking ancestors.  Ties inside a level are broken by the
parent's canonical number first and the original input label second, so
rebuilding an already-canonical tree is the identity.

Ordering each level by parent number makes parents non-decreasing along
the numbering, so the children of a run of consecutive nodes are again
consecutive.  By induction from ``{i}``, the subtree of ``i`` is one
run of consecutive numbers per depth (``subtree_runs``); every subtree
and pivot query below reads those runs instead of walking the tree.

The cut-set machinery at the bottom of the module answers the question:
given a conditioning node ``i`` and a horizon ``j > i``, which part of the
subtree of ``i`` actually carries information about the nodes ``j..n``?
The answer is organized around ``j0``, the first subtree node numbered at
or after ``j``; everything strictly between ``i`` and ``j0`` inside the
subtree can be marginalized away, and the conditional law factors through
a small frontier of nodes at (or one level below) the depth of ``j0``.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable


class TreeStructureError(ValueError):
    """The given edge list does not describe a rooted tree on 1..n."""


@dataclass(frozen=True)
class TreeTopology:
    """A rooted tree in canonical breadth-first numbering.

    Attributes
    ----------
    n : total number of nodes; nodes are exactly ``1..n``.
    root : always ``1`` after canonicalization.
    parent : child -> parent map covering every non-root node.
    children : node -> sorted tuple of children (present for all nodes).
    levels : ``levels[d]`` is the frozenset of nodes at depth ``d``;
        ``levels[0] == {root}``.
    depth_of : node -> depth map.
    width : largest level size over depths ``d >= 1``; defined as ``1``
        for the single-node tree.
    """

    n: int
    root: int
    parent: dict[int, int]
    children: dict[int, tuple[int, ...]]
    levels: tuple[frozenset[int], ...]
    depth_of: dict[int, int]
    width: int

    @property
    def depth(self) -> int:
        """Depth of the deepest node (0 for the single-node tree)."""
        return len(self.levels) - 1

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All (parent, child) pairs, sorted by child number."""
        return tuple((self.parent[v], v) for v in range(2, self.n + 1))

    def check_node(self, v: int) -> int:
        try:
            vi = operator.index(v)
        except TypeError:
            raise TreeStructureError(f"node {v!r} is not an integer") from None
        if not 1 <= vi <= self.n:
            raise TreeStructureError(f"node {vi} is not in 1..{self.n}")
        return vi


def build_tree(
    n: int, edges: Iterable[tuple[int, int]]
) -> tuple[TreeTopology, dict[int, int]]:
    """Validate an edge list and return the canonicalized tree.

    Parameters
    ----------
    n : number of nodes; input labels must be a permutation-free subset
        of ``1..n`` (every label in range, used consistently).
    edges : iterable of (parent, child) pairs in input labels.

    Returns
    -------
    (topology, relabel) where ``relabel`` maps input labels to canonical
    numbers.  Raises :class:`TreeStructureError` for cycles, nodes with
    two parents, disconnected inputs, or out-of-range labels.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise TreeStructureError(f"node count must be an integer, got {n!r}") from None
    if n < 1:
        raise TreeStructureError(f"node count must be positive, got {n}")

    parent_in: dict[int, int] = {}
    children_in: dict[int, list[int]] = defaultdict(list)
    for edge in edges:
        u, v = edge
        try:
            u, v = operator.index(u), operator.index(v)
        except TypeError:
            raise TreeStructureError(f"edge {edge!r} has non-integer labels") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise TreeStructureError(f"edge ({u}, {v}) has labels outside 1..{n}")
        if u == v:
            raise TreeStructureError(f"cycle detected: self-loop at node {u}")
        if v in parent_in:
            raise TreeStructureError(
                f"node {v} has two parents ({parent_in[v]} and {u})"
            )
        parent_in[v] = u
        children_in[u].append(v)

    roots = [v for v in range(1, n + 1) if v not in parent_in]
    if not roots:
        raise TreeStructureError("cycle detected: every node has a parent")
    if len(roots) > 1:
        raise TreeStructureError(
            f"disconnected: {len(roots)} parentless nodes {roots}, expected one root"
        )
    root = roots[0]

    # Breadth-first sweep assigning canonical numbers level by level.
    # Within a level, order by (canonical parent number, input label).
    canon: dict[int, int] = {root: 1}
    levels_in: list[list[int]] = [[root]]
    next_id = 2
    frontier = [root]
    while True:
        nxt = sorted(
            (c for u in frontier for c in children_in[u]),
            key=lambda c: (canon[parent_in[c]], c),
        )
        if not nxt:
            break
        for c in nxt:
            canon[c] = next_id
            next_id += 1
        levels_in.append(nxt)
        frontier = nxt

    if len(canon) != n:
        missing = sorted(set(range(1, n + 1)) - set(canon))
        raise TreeStructureError(
            f"cycle detected: nodes {missing} are not reachable from root {root}"
        )

    parent_c = {canon[v]: canon[u] for v, u in parent_in.items()}
    children_c: dict[int, tuple[int, ...]] = {v: () for v in range(1, n + 1)}
    for v in range(2, n + 1):  # increasing, so each tuple comes out sorted
        children_c[parent_c[v]] += (v,)

    levels = tuple(frozenset(canon[v] for v in lev) for lev in levels_in)
    depth_of = {v: d for d, lev in enumerate(levels) for v in lev}
    width = max((len(lev) for lev in levels[1:]), default=1)

    topo = TreeTopology(
        n=n,
        root=1,
        parent=parent_c,
        children=children_c,
        levels=levels,
        depth_of=depth_of,
        width=width,
    )
    return topo, dict(canon)


def subtree_runs(t: TreeTopology, i: int) -> tuple[range, ...]:
    """The subtree of ``i`` as one run of consecutive nodes per depth.

    ``runs[k]`` holds the subtree nodes at depth ``depth(i) + k``;
    ``runs[0]`` is ``range(i, i + 1)``.
    """
    i = t.check_node(i)
    runs = [range(i, i + 1)]
    while kids := [c for v in runs[-1] for c in t.children[v]]:
        runs.append(range(kids[0], kids[-1] + 1))
    return tuple(runs)


def subtree(t: TreeTopology, u: int) -> frozenset[int]:
    """All descendants of ``u`` including ``u`` itself."""
    return frozenset(v for run in subtree_runs(t, u) for v in run)


def first_descendant_at_or_after(t: TreeTopology, i: int, j: int) -> int | None:
    """Smallest node of the subtree of ``i`` numbered ``>= j``, or None.

    Requires ``1 <= i < j <= n``.  A None return means the subtree of
    ``i`` lies entirely before ``j``, so nodes ``j..n`` are conditionally
    independent of anything observed at ``i`` (given the past).
    """
    i = t.check_node(i)
    j = t.check_node(j)
    if not i < j:
        raise ValueError(f"need i < j, got i={i}, j={j}")
    for run in subtree_runs(t, i):
        if run[-1] >= j:
            return max(run.start, j)
    return None


@dataclass(frozen=True)
class CutSets:
    """Node sets through which the conditional law of ``j..n`` given
    node ``i`` factors.

    Attributes
    ----------
    j0 : first subtree node numbered at or after ``j`` (None if absent;
        all other sets are then empty).
    z : subtree nodes strictly between ``i`` and ``j0`` in numbering;
        these are summed out of the conditional law.
    c : frontier of the subtree, ``{v : parent(v) < j0, v >= j0}``; the
        law of the subtree tail given node ``i`` factors through ``x_c``.
    c0 : frontier nodes at the depth of ``j0`` (always contains ``j0``).
    c1 : frontier nodes one level deeper (children of ``z0`` nodes).
    z0 : subtree nodes at the depth of ``j0`` numbered before ``j0``.
    """

    j0: int | None
    z: frozenset[int]
    c: frozenset[int]
    c0: frozenset[int]
    c1: frozenset[int]
    z0: frozenset[int]


def cut_sets(t: TreeTopology, i: int, j: int) -> CutSets:
    """Compute the marginalized / frontier node sets for the pair (i, j)."""
    j0 = first_descendant_at_or_after(t, i, j)
    empty = frozenset()
    if j0 is None:
        return CutSets(j0=None, z=empty, c=empty, c0=empty, c1=empty, z0=empty)
    runs = subtree_runs(t, i)
    k = t.depth_of[j0] - t.depth_of[i]
    z0 = frozenset(range(runs[k].start, j0))
    c0 = frozenset(range(j0, runs[k].stop))
    c1 = frozenset(c for v in z0 for c in t.children[v])
    z = frozenset(v for run in runs[1:k] for v in run) | z0
    return CutSets(j0=j0, z=z, c=c0 | c1, c0=c0, c1=c1, z0=z0)
