import functools
import math
import re
from types import MappingProxyType
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemix import mixing
from treemix.mixing import (
    SOURCES,
    LevelGrowthError,
    eta_bar_bound_levels,
    eta_bar_bound_linear_growth,
    eta_bar_bound_uniform,
    eta_bar_exact,
    eta_exact,
    eta_factorization,
    eta_report,
    exact_row,
    geometric_rate,
    level_bound_row,
    level_bound_rows,
)
from treemix.concentration import build_mixing_matrices
from treemix.model import EnumerationLimitError, Kernel, MarkovTreeModel, max_contraction
from treemix.modelfile import random_model
from treemix.treegraph import build_tree, first_descendant_at_or_after
from treemix.tvalgebra import alpha

from conftest import (
    ROWS_05,
    ROWS_07,
    chain_model,
    make_model,
    oracle_eta,
    oracle_eta_bar,
    oracle_eta_tables,
    oracle_level_bound,
    sparsified,
)


class TestEtaExact:
    def test_same_state_is_zero(self, chain3_07):
        assert eta_exact(chain3_07, 1, 3, (), 0, 0) == 0.0

    def test_independent_nodes_are_zero(self):
        # rank-one kernel: child law ignores the parent state
        m = chain_model([[[0.3, 0.7], [0.3, 0.7]], ROWS_07])
        assert eta_exact(m, 1, 2, (), 0, 1) == pytest.approx(0.0, abs=1e-15)

    def test_chain_two_steps(self, chain3_07):
        # theta = 0.7 per step, so the pair (1, 3) mixes at 0.49
        got = eta_exact(chain3_07, 1, 3, (), 0, 1)
        assert got == pytest.approx(0.49, abs=1e-12)
        assert got == pytest.approx(oracle_eta(chain3_07, 1, 3, (), 0, 1), abs=1e-13)

    def test_matches_oracle_with_prefix(self, binary7_05):
        for prefix in [(0,), (1,)]:
            got = eta_exact(binary7_05, 2, 4, prefix, 0, 1)
            want = oracle_eta(binary7_05, 2, 4, prefix, 0, 1)
            assert got == pytest.approx(want, abs=1e-13)

    def test_prefix_length_enforced(self, chain3_07):
        with pytest.raises(ValueError, match="prefix"):
            eta_exact(chain3_07, 2, 3, (), 0, 1)

    def test_pair_order_enforced(self, chain3_07):
        with pytest.raises(ValueError, match="i < j"):
            eta_exact(chain3_07, 3, 1, (), 0, 1)


class TestEtaBarExact:
    def test_chain_value(self, chain3_07):
        assert eta_bar_exact(chain3_07, 1, 3) == pytest.approx(0.49, abs=1e-12)

    def test_matches_sup_oracle_on_random_models(self):
        for seed in range(6):
            m = random_model(seed, n=5, alphabet_size=2)
            for i, j in [(1, 3), (2, 4), (1, 5), (3, 5)]:
                got = eta_bar_exact(m, i, j)
                want = oracle_eta_bar(m, i, j)
                assert got == pytest.approx(want, abs=1e-12), (seed, i, j)

    def test_zero_when_subtree_ends_early(self):
        # node 2 is a leaf: its subtree never reaches node 3
        m = make_model(
            3, [(1, 2), (1, 3)], 2, [0.5, 0.5],
            {(1, 2): ROWS_07, (1, 3): ROWS_05},
        )
        assert eta_bar_exact(m, 2, 3) == 0.0
        assert first_descendant_at_or_after(m.tree, 2, 3) is None

    def test_disjoint_tail_laws_give_one(self):
        # x_1 = 0 puts x_2 in {0, 1} and x_1 = 1 puts it at 2: the tail laws
        # are disjoint, and the rounded laws once summed to 1 + 2.2e-16
        rows = [[0.73, 0.27, 0.0], [0.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3]]
        m = chain_model([rows, rows])
        assert eta_bar_exact(m, 1, 2) == 1.0
        assert eta_exact(m, 1, 2, (), 0, 1) == 1.0
        delta = build_mixing_matrices(m, "exact")
        assert delta.entries.max() == 1.0

    def test_infeasible_pairs_ignored(self):
        # deterministic root: only state 0 is ever seen at node 1, so
        # the sup over feasible pairs at node 1 is empty and equals 0
        m = chain_model([ROWS_07], root_dist=[1.0, 0.0])
        tv, feasible = oracle_eta_tables(m, 1, 2)
        assert not feasible[0, 1]
        assert eta_bar_exact(m, 1, 2) == 0.0


class TestJ0Reduction:
    def test_pivot_identity_pointwise(self):
        # eta(i, j; y, w, w') must equal eta(i, j0; y, w, w') exactly
        for seed in (3, 11):
            m = random_model(seed, n=6, alphabet_size=2)
            for i in range(1, m.n):
                for j in range(i + 1, m.n + 1):
                    j0 = first_descendant_at_or_after(m.tree, i, j)
                    if j0 is None or j0 == j:
                        continue
                    tv_j, feas = oracle_eta_tables(m, i, j)
                    tv_j0, _ = oracle_eta_tables(m, i, j0)
                    np.testing.assert_allclose(tv_j, tv_j0, atol=1e-12)

    def test_chain_pivot_is_j(self, chain3_07):
        assert first_descendant_at_or_after(chain3_07.tree, 1, 3) == 3


class TestLevelBound:
    def test_chain_is_theta_product(self):
        m = chain_model([ROWS_07, ROWS_05, ROWS_07])
        assert eta_bar_bound_levels(m, 1, 4) == pytest.approx(
            0.7 * 0.5 * 0.7, abs=1e-15
        )

    def test_binary_example(self, binary7_05):
        # alpha(0.5, 0.5) * alpha(0.5, 0.5, 0.5, 0.5) = 0.75 * 0.9375
        assert eta_bar_bound_levels(binary7_05, 1, 4) == pytest.approx(
            0.703125, abs=1e-15
        )

    def test_zero_without_pivot(self):
        m = make_model(
            3, [(1, 2), (1, 3)], 2, [0.5, 0.5],
            {(1, 2): ROWS_07, (1, 3): ROWS_05},
        )
        assert eta_bar_bound_levels(m, 2, 3) == 0.0

    def test_dominates_exact(self):
        for seed in range(8):
            m = random_model(seed, n=6, alphabet_size=2)
            for i, j in [(1, 4), (2, 5), (1, 6), (3, 6)]:
                assert eta_bar_exact(m, i, j) <= eta_bar_bound_levels(m, i, j) + 1e-12


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=1, max_value=14),
    s=st.integers(min_value=2, max_value=4),
    shape=st.sampled_from(["chain", "star", "full"]),
)
@settings(max_examples=120, deadline=None)
def test_level_sweep_matches_oracle(seed, n, s, shape):
    caps = {"chain": {"width": 1}, "star": {"depth": 1}, "full": {}}[shape]
    m = random_model(seed, n=n, alphabet_size=s, **caps)
    delta = build_mixing_matrices(m, "level-bound")
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            entry = delta.entries[i - 1, j - 1]
            assert abs(entry - oracle_level_bound(m, i, j)) <= 1e-12
            assert entry == eta_bar_bound_levels(m, i, j)


def _one_row_at_a_time(m):
    return mixing._row_by_row(m, functools.partial(level_bound_row, m))


def _degenerate_edges(m, seed):
    """``m`` with about a third of its kernels made rank one (theta = 0) and
    a third made permutations (theta = 1)."""
    rng = np.random.default_rng(seed)
    s = m.alphabet_size
    stack = m.kernel_stack.copy()
    for k, kind in enumerate(rng.integers(3, size=m.n - 1)):
        if kind == 1:
            stack[k] = np.repeat(stack[k][:, :1], s, axis=1)
        elif kind == 2:
            stack[k] = np.eye(s)[:, rng.permutation(s)]
    return MarkovTreeModel(m.tree, s, m.root_dist, stack)


def _broom(seed, handle, bristles):
    """A chain of ``handle`` nodes whose last node has ``bristles`` leaves."""
    n = handle + bristles
    edges = [(v - 1, v) for v in range(2, handle + 1)]
    edges += [(handle, v) for v in range(handle + 1, n + 1)]
    tree, _ = build_tree(n, edges)
    m = random_model(seed, n=n, alphabet_size=3)
    return MarkovTreeModel(tree, 3, m.root_dist, m.kernel_stack)


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    shape=st.sampled_from(
        ["chain", "star", "width 16", "sparse", "degenerate", "broom", "n = 1 or 2"]
    ),
    size=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=80, deadline=None)
def test_all_rows_sweep_equals_one_row_sweeps(seed, shape, size):
    """The matrix path (one vectorized sweep) and the pair path (one row
    at a time) agree bit for bit, on shapes far past the oracle's n <= 14:
    the deepest and widest trees, runs of very different lengths, and
    edges with theta = 0 and theta = 1."""
    if shape == "chain":
        m = random_model(seed, n=60 + size % 141, alphabet_size=3, width=1)
    elif shape == "star":
        m = random_model(seed, n=21 + size % 131, alphabet_size=3, depth=1)
    elif shape == "width 16":
        m = random_model(seed, n=17 + size % 184, alphabet_size=3, width=16)
    elif shape == "sparse":
        m = random_model(seed, n=2 + size % 60, alphabet_size=3, width=4)
        m = sparsified(m, seed, deterministic_root=size % 2 == 1)
    elif shape == "degenerate":
        m = _degenerate_edges(random_model(seed, n=2 + size % 80, alphabet_size=3), seed)
    elif shape == "broom":
        m = _broom(seed, 2 + size % 40, 1 + size // 40 % 60)
    else:
        m = random_model(seed, n=1 + size % 2, alphabet_size=3)
    rows = level_bound_rows(m)
    assert rows.shape == (m.n * (m.n - 1) // 2,)
    assert np.array_equal(rows, _one_row_at_a_time(m))
    with mock.patch.object(mixing, "_RUNS_PER_BLOCK", 1 + size % 7):  # many blocks
        assert np.array_equal(level_bound_rows(m), rows)
    delta = build_mixing_matrices(m, "level-bound")
    assert np.array_equal(delta.entries[np.triu_indices(m.n, k=1)], rows)


_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@given(_UNIT, _UNIT)
@settings(max_examples=300, deadline=None)
def test_pairwise_alpha_fold_is_alpha(x, y):
    """``_alphas`` over two-element runs is ``alpha`` of the pair, bit for
    bit, in both orders: the rule the tensor-two-factor suite checks."""
    theta = mixing._alpha_arguments(np.array([x, y, y, x]))
    lo = np.array([0, 2])
    folded = mixing._alphas(theta, lo, lo + 2)
    assert folded.tobytes() == np.array([alpha([x, y]), alpha([y, x])]).tobytes()


def test_sweep_lists_at_most_a_block_of_runs(monkeypatch):
    """A chain has n (n - 1) / 2 subtree runs; the sweep lists them in
    blocks of starting nodes, none holding more than ``_RUNS_PER_BLOCK``."""
    m = random_model(5, n=120, alphabet_size=3, width=1)
    listed, alphas = [], mixing._alphas

    def spy(theta, lo, hi):
        listed.append(len(lo))
        return alphas(theta, lo, hi)

    monkeypatch.setattr(mixing, "_RUNS_PER_BLOCK", 500)
    monkeypatch.setattr(mixing, "_alphas", spy)
    rows = level_bound_rows(m)
    assert max(listed) <= 500
    assert sum(listed) == m.n * (m.n - 1) // 2
    assert np.array_equal(rows, _one_row_at_a_time(m))


@pytest.mark.parametrize("theta", [-1e-9, 1.0 + 1e-9, -5e-13, 1.0 + 5e-13])
def test_planted_theta_meets_alpha_range_check_on_both_paths(theta):
    """A theta planted in the cached ``edge_thetas`` more than 1e-12 outside
    [0, 1] raises ``alpha``'s ValueError on both paths; one within that
    tolerance is clamped by both alike."""
    m = random_model(3, n=40, alphabet_size=3, width=4)
    thetas = dict(m.edge_thetas)
    thetas[23] = theta
    m.__dict__["edge_thetas"] = MappingProxyType(thetas)
    if abs(theta - 0.5) > 0.5 + 1e-12:
        for path in (level_bound_rows, _one_row_at_a_time):
            with pytest.raises(ValueError, match=r"alpha argument .* outside \[0, 1\]"):
                path(m)
    else:
        assert np.array_equal(level_bound_rows(m), _one_row_at_a_time(m))


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=2, max_value=9),
    s=st.integers(min_value=2, max_value=3),
    shape=st.sampled_from(["chain", "star", "full"]),
    support=st.sampled_from(
        ["full", "sparse", "sparse, deterministic root", "drifted columns"]
    ),
)
@settings(max_examples=80, deadline=None)
def test_exact_sweep_matches_oracle(seed, n, s, shape, support):
    caps = {"chain": {"width": 1}, "star": {"depth": 1}, "full": {}}[shape]
    m = random_model(seed, n=n, alphabet_size=s, **caps)
    if support == "drifted columns":
        # Kernel columns may miss 1 by up to STOCHASTIC_ATOL; the oracle
        # normalises the conditional laws, and so must the sweep.
        rng = np.random.default_rng(seed)
        kernels = {}
        for edge, k in m.kernels.items():
            mat = k.matrix.copy()
            mat[0] += 4e-10 * rng.random(s)
            kernels[edge] = Kernel(edge, mat)
        m = MarkovTreeModel(m.tree, s, m.root_dist, kernels)
    elif support != "full":
        m = sparsified(m, seed, support.endswith("root"))
    delta = build_mixing_matrices(m, "exact")
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            assert abs(delta.entries[i - 1, j - 1] - oracle_eta_bar(m, i, j)) <= 1e-12
        # eta_bar_exact reads its entry of the row, and each call sweeps
        # the whole row: one pair per row suffices.
        j = i + 1 + (seed + i) % (n - i)
        assert exact_row(m, i)[j - i - 1] == eta_bar_exact(m, i, j)


def test_exact_rows_vanish_on_one_state_alphabet():
    # s = 1: node i has no two states to tell apart, so every row is 0
    edges = [(1, 2), (1, 3), (2, 4), (3, 5)]
    m = make_model(5, edges, 1, [1.0], {e: [[1.0]] for e in edges})
    delta = build_mixing_matrices(m, "exact")
    np.testing.assert_array_equal(delta.entries, np.eye(5))
    for i in range(1, 5):
        assert not exact_row(m, i).any()
        assert all(eta_bar_exact(m, i, j) == 0.0 for j in range(i + 1, 6))


class TestUniformBound:
    def test_frozen_value(self):
        # (1 - 0.5**2) ** floor(4 / 2) = 0.75**2
        assert eta_bar_bound_uniform(0.5, 2, 1, 5) == pytest.approx(
            0.5625, abs=1e-15
        )

    def test_chain_case_is_exact_power(self):
        # for width 1 the bound must be theta**(j - i) bitwise, not
        # (1 - (1 - theta))**(j - i)
        theta = 0.7
        assert eta_bar_bound_uniform(theta, 1, 1, 4) == theta**3

    def test_zero_theta(self):
        assert eta_bar_bound_uniform(0.0, 3, 1, 4) == 0.0

    def test_monotone_in_theta(self):
        values = [eta_bar_bound_uniform(t, 2, 1, 5) for t in np.linspace(0, 0.99, 20)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="theta"):
            eta_bar_bound_uniform(1.0, 2, 1, 3)
        with pytest.raises(ValueError, match="theta"):
            eta_bar_bound_uniform(-0.1, 2, 1, 3)
        with pytest.raises(ValueError, match="width"):
            eta_bar_bound_uniform(0.5, 0, 1, 3)
        with pytest.raises(ValueError, match="i < j"):
            eta_bar_bound_uniform(0.5, 2, 3, 3)

    def test_dominates_level_bound(self, binary7_05):
        theta = max_contraction(binary7_05)
        wid = binary7_05.tree.width
        for i, j in [(1, 4), (1, 7), (2, 5)]:
            assert eta_bar_bound_levels(binary7_05, i, j) <= eta_bar_bound_uniform(
                theta, wid, i, j
            ) + 1e-12


class TestGeometricRate:
    def test_frozen_value(self):
        # (1 - 0.25) ** (1 / 3)
        assert geometric_rate(0.5, 2) == pytest.approx(0.75 ** (1 / 3), abs=1e-15)

    def test_width_one_is_theta(self):
        assert geometric_rate(0.3, 1) == pytest.approx(0.3, abs=1e-15)

    def test_dominates_uniform_bound_past_width(self):
        for theta in (0.2, 0.5, 0.8):
            for L in (1, 2, 3, 5):
                rate = geometric_rate(theta, L)
                for k in range(L, 40):
                    uni = eta_bar_bound_uniform(theta, L, 1, 1 + k)
                    assert uni <= rate**k + 1e-12

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="theta"):
                geometric_rate(bad, 2)

    @pytest.mark.parametrize("L", [1, 2, 3, 5, 8])
    def test_never_below_uniform_on_grid(self, L):
        # theta near 0.01..0.99, k = j - i = L..39, on a 40-node tree of
        # width L, levels of L nodes below the root.  On a chain the two
        # bounds are one number; for L >= 2 the geometric bound is larger
        # but at k = 2L - 1, where floor(k / L) = k / (2L - 1) and the two
        # are equal.
        edges = [(1, v) for v in range(2, L + 2)] + [(v - L, v) for v in range(L + 2, 41)]
        topo, _ = build_tree(40, edges)
        assert topo.width == L
        for t in range(1, 100):
            kernel = np.array([[1.0, 1.0 - t / 100], [0.0, t / 100]])
            m = MarkovTreeModel(topo, 2, [0.5, 0.5], np.broadcast_to(kernel, (39, 2, 2)))
            for k in range(L, 40):
                report = eta_report(m, 1, 1 + k)
                uni = dict(report.values)["uniform-bound"]
                if L == 1 or k == 2 * L - 1:
                    assert report.geometric_bound == uni
                else:
                    assert report.geometric_bound >= uni

    def test_shares_the_uniform_argument_check(self):
        for theta, L in [(float("nan"), 2), (-0.5, 2), (1.0, 1), (0.5, 0)]:
            for call in (lambda: geometric_rate(theta, L),
                         lambda: eta_bar_bound_uniform(theta, L, 1, 2)):
                with pytest.raises(ValueError, match="theta|width cap"):
                    call()
        assert eta_bar_bound_uniform(0.0, 2, 1, 3) == 0.0
        with pytest.raises(ValueError, match=re.escape("theta must lie in (0, 1), got 0.0")):
            geometric_rate(0.0, 2)


class TestLinearGrowthBound:
    def test_premise_violation_raises(self, binary7_05):
        # level 2 has 4 nodes > c*2 for c = 1
        with pytest.raises(LevelGrowthError, match="level"):
            eta_bar_bound_linear_growth(binary7_05, 1, 4, c=1.0)

    def test_beta_definition(self):
        m = chain_model([ROWS_05, ROWS_07])
        b = eta_bar_bound_linear_growth(m, 1, 3, c=1.0)
        # beta = max_k c * k * theta_k = max(1*0.5, 2*0.7)
        assert b.beta == pytest.approx(1.4, abs=1e-15)
        assert not b.beta_premise_holds
        assert b.closed_form is None

    def test_closed_form_when_beta_small(self):
        m = chain_model([[[0.525, 0.475], [0.475, 0.525]]] * 11)  # theta = 0.05
        b = eta_bar_bound_linear_growth(m, 1, 12, c=1.0)
        assert b.beta_premise_holds
        assert b.beta == pytest.approx(11 * 0.05, abs=1e-12)
        assert not b.vacuous
        want = b.beta ** (math.sqrt(2.0 * 11) - 1.0)
        assert b.closed_form == pytest.approx(min(want, 1.0), abs=1e-12)

    def test_vacuous_exponent(self):
        m = chain_model([[[0.6, 0.4], [0.4, 0.6]]])  # theta = 0.2
        b = eta_bar_bound_linear_growth(m, 1, 2, c=4.0)
        # beta = 4 * 1 * 0.2 < 1, but sqrt(2 * 1 / 4) - 0 - 1 < 0
        assert b.beta_premise_holds
        assert b.vacuous
        assert b.closed_form == 1.0

    def test_no_pivot(self):
        m = make_model(
            3, [(1, 2), (1, 3)], 2, [0.5, 0.5],
            {(1, 2): ROWS_07, (1, 3): ROWS_05},
        )
        b = eta_bar_bound_linear_growth(m, 2, 3, c=2.0)
        assert b.j0 is None
        assert b.product_bound == 0.0
        assert b.closed_form is None

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_growth_constant_not_finite_and_positive(self, c):
        # A NaN c would pass a bare ``c <= 0`` and print closed_form=nan.
        m = random_model(1, n=6, width=2)
        with pytest.raises(ValueError, match="growth constant must be positive"):
            eta_bar_bound_linear_growth(m, 1, 6, c)

    def test_product_dominates_exact(self):
        for seed in range(6):
            m = random_model(seed, n=6, alphabet_size=2, width=2)
            b = eta_bar_bound_linear_growth(m, 1, 5, c=2.0)
            assert eta_bar_exact(m, 1, 5) <= b.product_bound + 1e-12


class TestFactorization:
    def test_equals_enumeration(self):
        for seed in (0, 5, 9):
            m = random_model(seed, n=6, alphabet_size=2)
            for i in range(1, m.n):
                for j in range(i + 1, m.n + 1):
                    if first_descendant_at_or_after(m.tree, i, j) is None:
                        continue
                    trace = eta_factorization(m, i, j, 0, 1)
                    tv, feasible = oracle_eta_tables(m, i, j)
                    got = tv[:, 0, 1][feasible[:, 0] & feasible[:, 1]]
                    if got.size:
                        # y-independence: every feasible prefix agrees
                        np.testing.assert_allclose(
                            got, trace.value, atol=1e-12
                        )

    def test_inequality_chain(self):
        for seed in (1, 4):
            m = random_model(seed, n=6, alphabet_size=3)
            for i, j in [(1, 4), (2, 5), (1, 6)]:
                if first_descendant_at_or_after(m.tree, i, j) is None:
                    continue
                t = eta_factorization(m, i, j, 0, 2)
                assert t.value <= t.norm_chain_bound + 1e-12
                assert t.norm_chain_bound <= t.alpha_product + 1e-12
                assert t.alpha_product <= eta_bar_bound_levels(m, i, j) + 1e-12

    def test_b_norm_at_most_one(self):
        m = random_model(2, n=7, alphabet_size=2)
        for i, j in [(1, 5), (2, 6)]:
            if first_descendant_at_or_after(m.tree, i, j) is None:
                continue
            assert eta_factorization(m, i, j, 0, 1).b_norm <= 1.0 + 1e-12

    def test_absent_pivot_raises(self):
        m = make_model(
            3, [(1, 2), (1, 3)], 2, [0.5, 0.5],
            {(1, 2): ROWS_07, (1, 3): ROWS_05},
        )
        with pytest.raises(ValueError, match="identically zero"):
            eta_factorization(m, 2, 3, 0, 1)

    def test_state_range_checked(self, chain3_07):
        with pytest.raises(ValueError, match="states"):
            eta_factorization(chain3_07, 1, 3, 0, 2)


class TestEtaReport:
    @pytest.mark.parametrize("cap", [None, "4"])
    def test_values_follow_the_rung_table(self, monkeypatch, binary7_05, cap):
        if cap is not None:
            monkeypatch.setenv("TREEMIX_MAX_ENUM", cap)
        r = eta_report(binary7_05, 2, 6)
        assert tuple(source for source, _ in r.values) == tuple(SOURCES)
        assert (r.values[0][1] is None) == (cap is not None)

    def test_ladder_ordering(self):
        for seed in range(5):
            m = random_model(seed, n=6, alphabet_size=2)
            for i, j in [(1, 4), (2, 6), (1, 6)]:
                exact, level, uniform = (v for _, v in eta_report(m, i, j).values)
                assert exact is not None
                assert exact <= level + 1e-12
                assert level <= uniform + 1e-12

    def test_geometric_presence_rule(self, binary7_05):
        # width 4: pairs closer than 4 get no geometric bound
        assert eta_report(binary7_05, 1, 4).geometric_bound is None
        r = eta_report(binary7_05, 1, 5)
        assert r.geometric_bound is not None
        assert dict(r.values)["uniform-bound"] <= r.geometric_bound + 1e-12

    def test_exact_omitted_over_cap(self, monkeypatch, binary7_05):
        monkeypatch.setenv("TREEMIX_MAX_ENUM", "4")
        r = eta_report(binary7_05, 1, 4)
        assert dict(r.values)["exact"] is None
        with pytest.raises(EnumerationLimitError):
            eta_bar_exact(binary7_05, 1, 4)

    def test_degenerate_kernel_reports_trivial_uniform(self):
        m = chain_model([[[1.0, 0.0], [0.0, 1.0]], ROWS_07])
        r = eta_report(m, 1, 3)
        assert dict(r.values)["uniform-bound"] == 1.0
        assert r.geometric_bound is None
