import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemix.modelfile import random_model
from treemix.treegraph import (
    TreeStructureError,
    build_tree,
    cut_sets,
    first_descendant_at_or_after,
    subtree,
    subtree_runs,
)

from conftest import oracle_subtree_depths, oracle_subtree_runs


class TestBuildTree:
    def test_single_node(self):
        topo, relabel = build_tree(1, [])
        assert topo.n == 1
        assert topo.root == 1
        assert topo.depth == 0
        assert topo.width == 1
        assert topo.levels == (frozenset({1}),)
        assert relabel == {1: 1}

    def test_chain(self):
        topo, relabel = build_tree(3, [(1, 2), (2, 3)])
        assert topo.parent == {2: 1, 3: 2}
        assert topo.depth == 2
        assert topo.width == 1
        assert relabel == {1: 1, 2: 2, 3: 3}

    def test_relabeling_is_breadth_first(self):
        # root has label 3 in the input; depth-1 nodes get 2 and 3 by
        # (parent number, original label) order
        topo, relabel = build_tree(4, [(3, 1), (3, 4), (1, 2)])
        assert relabel[3] == 1
        assert relabel[1] == 2  # label 1 sorts before label 4
        assert relabel[4] == 3
        assert relabel[2] == 4
        assert topo.parent == {2: 1, 3: 1, 4: 2}

    def test_within_level_tiebreak_uses_parent_first(self):
        # two depth-2 nodes; the one under the smaller-numbered parent
        # comes first even though its original label is larger
        topo, relabel = build_tree(5, [(1, 2), (1, 3), (3, 4), (2, 5)])
        assert relabel == {1: 1, 2: 2, 3: 3, 5: 4, 4: 5}

    def test_binary_tree_shape(self):
        topo, _ = build_tree(7, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)])
        assert topo.depth == 2
        assert topo.width == 4
        assert topo.levels[1] == frozenset({2, 3})
        assert topo.levels[2] == frozenset({4, 5, 6, 7})

    def test_canonicalization_idempotent(self):
        topo, _ = build_tree(6, [(2, 1), (2, 4), (1, 3), (4, 5), (4, 6)])
        again, relabel = build_tree(topo.n, list(topo.edges()))
        assert relabel == {v: v for v in range(1, 7)}
        assert again == topo

    def test_two_parents_rejected(self):
        with pytest.raises(TreeStructureError, match="two parents"):
            build_tree(3, [(1, 3), (2, 3)])

    def test_cycle_rejected(self):
        with pytest.raises(TreeStructureError, match="cycle"):
            build_tree(3, [(1, 2), (2, 3), (3, 1)])

    def test_disjoint_cycle_rejected(self):
        with pytest.raises(TreeStructureError, match="cycle"):
            build_tree(4, [(1, 2), (3, 4), (4, 3)])

    def test_disconnected_rejected(self):
        with pytest.raises(TreeStructureError, match="disconnected"):
            build_tree(4, [(1, 2), (3, 4)])

    def test_disconnected_names_the_first_five_roots(self):
        with pytest.raises(
            TreeStructureError,
            match=r"^disconnected: 7 parentless nodes \(first \[1, 3, 4, 5, 6\]\), "
            r"expected one root$",
        ):
            build_tree(8, [(1, 2)])

    def test_huge_node_count_gets_a_short_refusal(self):
        # The edge count is checked before anything scans all n labels.
        with pytest.raises(TreeStructureError, match="disconnected") as info:
            build_tree(10**6, [(1, 2)])
        assert len(str(info.value)) < 200

    def test_self_loop_rejected(self):
        with pytest.raises(TreeStructureError, match="cycle"):
            build_tree(2, [(1, 1)])

    def test_out_of_range_label_rejected(self):
        with pytest.raises(TreeStructureError, match="outside"):
            build_tree(2, [(1, 7)])

    def test_empty_rejected(self):
        with pytest.raises(TreeStructureError):
            build_tree(0, [])


def _random_edges(draw, n):
    """Random parent assignment: node v attaches to a draw from 1..v-1."""
    edges = []
    for v in range(2, n + 1):
        u = draw(st.integers(min_value=1, max_value=v - 1))
        edges.append((u, v))
    return edges


@st.composite
def random_trees(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return n, _random_edges(draw, n)


@given(random_trees())
@settings(max_examples=200, deadline=None)
def test_canonical_numbering_invariants(tree_spec):
    n, edges = tree_spec
    topo, relabel = build_tree(n, edges)
    assert sorted(relabel.values()) == list(range(1, n + 1))
    # parents precede children; depth is monotone along the numbering
    for v, u in topo.parent.items():
        assert u < v
        assert topo.depth_of[v] == topo.depth_of[u] + 1
    depths = [topo.depth_of[v] for v in range(1, n + 1)]
    assert depths == sorted(depths)
    # levels partition 1..n
    assert sorted(v for lev in topo.levels for v in lev) == list(range(1, n + 1))
    assert topo.width == max((len(l) for l in topo.levels[1:]), default=1)


@given(random_trees())
@settings(max_examples=200, deadline=None)
def test_subtree_and_pivot_invariants(tree_spec):
    n, edges = tree_spec
    topo, _ = build_tree(n, edges)
    for i in range(1, n + 1):
        ti = subtree(topo, i)
        assert i in ti
        # closed under children
        for v in ti:
            assert set(topo.children[v]) <= ti
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            j0 = first_descendant_at_or_after(topo, i, j)
            ti = subtree(topo, i)
            tail = {v for v in ti if v >= j}
            if j0 is None:
                assert not tail
            else:
                assert j0 == min(tail)
                assert topo.depth_of[j0] > topo.depth_of[i]


class TestCutSets:
    def test_binary_tree_pair_1_5(self):
        topo, _ = build_tree(7, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)])
        cs = cut_sets(topo, 1, 5)
        assert cs.j0 == 5
        assert cs.z == frozenset({2, 3, 4})
        assert cs.c == frozenset({5, 6, 7})
        assert cs.c0 == frozenset({5, 6, 7})
        assert cs.c1 == frozenset()
        assert cs.z0 == frozenset({4})

    def test_chain_pair_1_3(self):
        topo, _ = build_tree(3, [(1, 2), (2, 3)])
        cs = cut_sets(topo, 1, 3)
        assert cs.j0 == 3
        assert cs.z == frozenset({2})
        assert cs.c == cs.c0 == frozenset({3})
        assert cs.c1 == cs.z0 == frozenset()

    def test_absent_pivot(self):
        topo, _ = build_tree(5, [(1, 2), (1, 3), (2, 4), (3, 5)])
        assert first_descendant_at_or_after(topo, 2, 5) is None
        cs = cut_sets(topo, 2, 5)
        assert cs.j0 is None
        assert cs.c == frozenset()

    def test_pivot_example(self):
        topo, _ = build_tree(5, [(1, 2), (1, 3), (2, 4), (3, 5)])
        assert first_descendant_at_or_after(topo, 2, 3) == 4

    def test_requires_i_less_than_j(self):
        topo, _ = build_tree(3, [(1, 2), (2, 3)])
        with pytest.raises(ValueError, match="i < j"):
            first_descendant_at_or_after(topo, 2, 2)


@given(random_trees(max_n=10))
@settings(max_examples=150, deadline=None)
def test_cut_set_invariants(tree_spec):
    n, edges = tree_spec
    topo, _ = build_tree(n, edges)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            cs = cut_sets(topo, i, j)
            if cs.j0 is None:
                continue
            ti = subtree(topo, i)
            d0 = topo.depth_of[cs.j0]
            assert cs.j0 in cs.c0
            assert cs.c == cs.c0 | cs.c1
            assert not (cs.c0 & cs.c1)
            assert cs.c0 == {v for v in ti if topo.depth_of[v] == d0 and v >= cs.j0}
            assert cs.z0 == {v for v in ti if topo.depth_of[v] == d0 and v < cs.j0}
            for v in cs.c1:
                assert topo.depth_of[v] == d0 + 1
                assert topo.parent[v] in cs.z0
            for v in cs.z:
                assert i < v < cs.j0 and v in ti
            # no ancestor of j0 inside the subtree is numbered >= j
            anc = topo.parent.get(cs.j0)
            while anc is not None and anc in ti and anc != i:
                assert anc < j
                anc = topo.parent.get(anc)


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=1, max_value=40),
    shape=st.sampled_from(["chain", "star", "full", "width-3"]),
)
@settings(max_examples=100, deadline=None)
def test_runs_match_parent_walk_oracle(seed, n, shape):
    caps = {"chain": {"width": 1}, "star": {"depth": 1}, "full": {},
            "width-3": {"width": 3}}[shape]
    topo = random_model(seed, n=n, **caps).tree
    for i in range(1, n + 1):
        runs = subtree_runs(topo, i)
        assert all(isinstance(run, range) for run in runs)
        assert [list(run) for run in runs] == oracle_subtree_runs(topo, i)
        below = oracle_subtree_depths(topo, i)
        for j in range(i + 1, n + 1):
            tail = [v for v in below if v >= j]
            j0 = min(tail) if tail else None
            assert first_descendant_at_or_after(topo, i, j) == j0
            cs = cut_sets(topo, i, j)
            if j0 is None:
                assert cs.z == cs.c == cs.c0 == cs.c1 == cs.z0 == frozenset()
                continue
            c = {v for v in below if v >= j0 and topo.parent[v] < j0}
            assert cs.j0 == j0
            assert cs.z == {v for v in below if i < v < j0}
            assert cs.c == c
            assert cs.c0 == {v for v in c if below[v] == below[j0]}
            assert cs.c1 == {v for v in c if below[v] == below[j0] + 1}
            assert cs.z0 == {v for v in below if below[v] == below[j0] and v < j0}


def test_floor_ratio_inequality_exhaustive():
    # floor(k / L) >= k / (2L - 1) for all 1 <= L <= k <= 200
    for L in range(1, 201):
        for k in range(L, 201):
            assert (k // L) >= k / (2 * L - 1)
