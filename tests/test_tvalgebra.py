import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from treemix.tvalgebra import (
    IndexedTensor,
    StochasticOperator,
    alpha,
    apply_operator,
    column_tv_norm,
    expand_operator_inputs,
    operator_tv_norm,
    stochastic_tensor_product,
    tensor_product,
    tv_distance,
)

from conftest import oracle_theta


def dist(index_set, s, values):
    return IndexedTensor(tuple(index_set), s, np.array(values, float))


class TestIndexedTensor:
    def test_layout_first_node_most_significant(self):
        t = dist([2, 5], 2, [0.1, 0.2, 0.3, 0.4])
        nd = t.as_nd()
        assert nd[1, 0] == 0.3  # node 2 in state 1, node 5 in state 0

    def test_tv_norm_is_half_l1(self):
        t = dist([1], 2, [0.25, -0.75])
        assert t.tv_norm == 0.5

    def test_predicates(self):
        assert dist([1], 3, [0.2, 0.3, 0.5]).is_distribution()
        assert dist([1], 2, [0.5, -0.5]).is_balanced()
        assert not dist([1], 2, [0.5, -0.4]).is_balanced()

    def test_rejects_unsorted_index(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            dist([5, 2], 2, [0.25] * 4)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 8 values"):
            dist([1, 2, 3], 2, [0.1] * 4)

    def test_rejects_empty_index(self):
        with pytest.raises(ValueError, match="nonempty"):
            dist([], 2, [])

    def test_values_read_only(self):
        t = dist([1], 2, [0.5, 0.5])
        with pytest.raises(ValueError):
            t.values[0] = 1.0


class TestTvDistance:
    def test_example(self):
        p = dist([1], 2, [1.0, 0.0])
        q = dist([1], 2, [0.0, 1.0])
        assert tv_distance(p, q) == 1.0

    def test_event_characterization(self):
        # TV equals the maximum probability gap over all events
        rng = np.random.default_rng(5)
        vals = rng.random((2, 8))
        vals /= vals.sum(axis=1, keepdims=True)
        p = dist([1, 2, 3], 2, vals[0])
        q = dist([1, 2, 3], 2, vals[1])
        diff = vals[0] - vals[1]
        best = max(
            abs(diff[list(event)].sum()) if event else 0.0
            for event in _powerset(range(8))
        )
        assert tv_distance(p, q) == pytest.approx(best, abs=1e-12)

    def test_index_mismatch(self):
        with pytest.raises(ValueError, match="index sets differ"):
            tv_distance(dist([1], 2, [1, 0]), dist([2], 2, [1, 0]))


def _powerset(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield [x for k, x in enumerate(items) if mask >> k & 1]


class TestTensorProduct:
    def test_two_factors(self):
        p = dist([1], 2, [0.3, 0.7])
        q = dist([3], 2, [0.6, 0.4])
        pq = tensor_product([p, q])
        assert pq.index_set == (1, 3)
        np.testing.assert_allclose(
            pq.values, [0.18, 0.12, 0.42, 0.28], atol=1e-15
        )

    def test_axis_ordering_follows_node_numbers(self):
        # factor order must not matter; node numbers fix the layout
        p = dist([4], 2, [0.3, 0.7])
        q = dist([2], 2, [0.6, 0.4])
        a = tensor_product([p, q])
        b = tensor_product([q, p])
        assert a.index_set == b.index_set == (2, 4)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.as_nd()[1, 0] == pytest.approx(0.4 * 0.3)

    def test_overlap_rejected(self):
        p = dist([1], 2, [1, 0])
        with pytest.raises(ValueError, match="overlap"):
            tensor_product([p, p])

    def test_distribution_preserved(self):
        p = dist([1], 3, [0.2, 0.5, 0.3])
        q = dist([2], 3, [0.1, 0.1, 0.8])
        r = dist([5], 3, [1.0, 0.0, 0.0])
        assert tensor_product([p, q, r]).is_distribution(atol=1e-12)


class TestStochasticOperator:
    def test_norm_identity_is_one(self):
        a = StochasticOperator.identity((3,), 4)
        assert operator_tv_norm(a) == 1.0

    def test_norm_rank_one_is_zero(self):
        # identical columns: the output ignores the input entirely
        mat = np.tile([[0.2], [0.3], [0.5]], (1, 3))
        a = StochasticOperator((1,), (2,), 3, mat)
        assert operator_tv_norm(a) == 0.0

    def test_norm_single_column(self):
        a = StochasticOperator((1,), (1,), 1, np.array([[1.0]]))
        assert operator_tv_norm(a) == 0.0

    def test_example_07(self):
        mat = np.array([[0.9, 0.2], [0.1, 0.8]])
        a = StochasticOperator((1,), (2,), 2, mat)
        assert operator_tv_norm(a) == pytest.approx(0.7, abs=1e-15)

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            StochasticOperator((1,), (2,), 2, np.array([[0.9, 0.2], [0.1, 0.7]]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            StochasticOperator((1,), (2,), 2, np.array([[1.1, 0.2], [-0.1, 0.8]]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            StochasticOperator((1,), (2,), 2, np.array([[np.nan, 0.2], [np.nan, 0.8]]))

    def test_apply_requires_matching_index(self):
        a = StochasticOperator((1,), (2,), 2, np.eye(2))
        with pytest.raises(ValueError, match="expects input"):
            apply_operator(a, dist([2], 2, [1, 0]))


class TestStochasticTensorProduct:
    def test_shared_input_node(self):
        # one parent feeding two children: columns indexed by the parent
        k1 = np.array([[0.9, 0.2], [0.1, 0.8]])
        k2 = np.array([[0.6, 0.3], [0.4, 0.7]])
        a = stochastic_tensor_product(
            [
                StochasticOperator((1,), (2,), 2, k1),
                StochasticOperator((1,), (3,), 2, k2),
            ]
        )
        assert a.in_index == (1,)
        assert a.out_index == (2, 3)
        for x in range(2):
            np.testing.assert_allclose(
                a.entries[:, x], np.outer(k1[:, x], k2[:, x]).reshape(-1)
            )

    def test_disjoint_inputs(self):
        k1 = np.array([[0.9, 0.2], [0.1, 0.8]])
        k2 = np.array([[0.5, 0.0], [0.5, 1.0]])
        a = stochastic_tensor_product(
            [
                StochasticOperator((1,), (3,), 2, k1),
                StochasticOperator((2,), (4,), 2, k2),
            ]
        )
        assert a.in_index == (1, 2)
        assert a.out_index == (3, 4)
        # column for (x1, x2) = (1, 0): most significant digit is node 1
        np.testing.assert_allclose(
            a.entries[:, 2], np.outer(k1[:, 1], k2[:, 0]).reshape(-1)
        )

    def test_output_overlap_rejected(self):
        a = StochasticOperator.identity((2,), 2)
        with pytest.raises(ValueError, match="overlap"):
            stochastic_tensor_product([a, a])

    def test_norm_bounded_by_alpha(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            mats = []
            for _ in range(rng.integers(1, 4)):
                m = rng.random((3, 3)) + 1e-6
                m /= m.sum(axis=0)
                mats.append(m)
            ops = [
                StochasticOperator((k + 1,), (10 + k,), 3, m)
                for k, m in enumerate(mats)
            ]
            prod = stochastic_tensor_product(ops)
            norms = [operator_tv_norm(op) for op in ops]
            assert operator_tv_norm(prod) <= alpha(norms) + 1e-12


class TestExpandOperatorInputs:
    def test_added_nodes_are_ignored(self):
        k = np.array([[0.9, 0.2], [0.1, 0.8]])
        a = StochasticOperator((2,), (4,), 2, k)
        b = expand_operator_inputs(a, (1, 2, 3))
        assert b.in_index == (1, 2, 3)
        u = dist([1, 2, 3], 2, np.arange(8) / 28.0)
        got = apply_operator(b, u)
        # summing the ignored axes first and applying a must agree
        marg = u.as_nd().sum(axis=(0, 2))
        np.testing.assert_allclose(got.values, k @ marg, atol=1e-15)

    def test_dropping_nodes_rejected(self):
        a = StochasticOperator.identity((2,), 2)
        with pytest.raises(ValueError, match="drops"):
            expand_operator_inputs(a, (1, 3))


class TestAlpha:
    def test_single_argument_identity(self):
        for x in [0.0, 0.3, 1.0]:
            assert alpha([x]) == x

    def test_two_arguments(self):
        assert alpha([0.5, 0.5]) == 0.75
        assert alpha([0.3, 0.4]) == pytest.approx(0.58, abs=1e-15)

    def test_equal_arguments_closed_form(self):
        for k in range(1, 5):
            for x in np.linspace(0, 1, 11):
                assert alpha([x] * k) == pytest.approx(
                    1 - (1 - x) ** k, abs=1e-12
                )

    def test_contains_one(self):
        assert alpha([0.2, 1.0, 0.7]) == 1.0

    def test_permutation_invariant_bitwise(self):
        vals = [0.12, 0.5, 0.33, 0.9]
        base = alpha(vals)
        assert alpha(list(reversed(vals))) == base
        assert alpha([0.5, 0.9, 0.12, 0.33]) == base

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            alpha([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            alpha([0.5, 1.5])


# ------------------------------------------------------------ properties


def _prob_vector(draw, k):
    vec = draw(
        arrays(
            float,
            k,
            elements=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
        )
    )
    return vec / vec.sum()


def _stochastic(draw, rows, cols):
    mat = draw(
        arrays(
            float,
            (rows, cols),
            elements=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
        )
    )
    return mat / mat.sum(axis=0)


@st.composite
def two_factor_quadruples(draw):
    kp = draw(st.integers(min_value=1, max_value=5))
    kq = draw(st.integers(min_value=1, max_value=5))
    return (
        _prob_vector(draw, kp),
        _prob_vector(draw, kp),
        _prob_vector(draw, kq),
        _prob_vector(draw, kq),
    )


@given(two_factor_quadruples())
@settings(max_examples=300, deadline=None)
def test_two_factor_tv_inequality(quad):
    """tv(p x q, p' x q') <= tv(p,p') + tv(q,q') - tv(p,p') tv(q,q')."""
    p, pp, q, qq = quad
    lhs = 0.5 * np.abs(np.outer(p, q) - np.outer(pp, qq)).sum()
    dp = 0.5 * np.abs(p - pp).sum()
    dq = 0.5 * np.abs(q - qq).sum()
    assert lhs <= dp + dq - dp * dq + 1e-12


@st.composite
def contraction_cases(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    mat = _stochastic(draw, rows, cols)
    return mat, _prob_vector(draw, cols), _prob_vector(draw, cols)


@st.composite
def laid_out_matrices(draw):
    """A stochastic matrix in C order, in F order, as a strided view, or
    as a view with its rows reversed."""
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    mat = _stochastic(draw, rows, cols)
    layout = draw(st.sampled_from(["C", "F", "strided", "reversed"]))
    if layout == "F":
        return np.asfortranarray(mat)
    if layout == "strided":
        big = np.zeros((2 * rows, 3 * cols))
        big[::2, ::3] = mat
        return big[::2, ::3]
    if layout == "reversed":
        return mat[::-1]
    return mat


@given(laid_out_matrices())
@settings(max_examples=300, deadline=None)
def test_column_tv_norm_matches_pairwise_oracle(mat):
    assert abs(column_tv_norm(mat) - oracle_theta(mat)) <= 1e-15


@given(contraction_cases())
@settings(max_examples=300, deadline=None)
def test_contraction_inequality(case):
    """tv(Ap, Aq) <= |||A||| tv(p, q), and |||A||| <= 1."""
    mat, p, q = case
    norm = column_tv_norm(mat)
    assert norm <= 1.0 + 1e-12
    lhs = 0.5 * np.abs(mat @ (p - q)).sum()
    assert lhs <= norm * 0.5 * np.abs(p - q).sum() + 1e-12


@st.composite
def composable_pairs(draw):
    a_rows = draw(st.integers(min_value=1, max_value=5))
    mid = draw(st.integers(min_value=1, max_value=5))
    b_cols = draw(st.integers(min_value=1, max_value=5))
    return _stochastic(draw, a_rows, mid), _stochastic(draw, mid, b_cols)


@given(composable_pairs())
@settings(max_examples=300, deadline=None)
def test_norm_submultiplicative(pair):
    a, b = pair
    assert column_tv_norm(a @ b) <= column_tv_norm(a) * column_tv_norm(b) + 1e-12


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=300, deadline=None)
def test_alpha_range_monotonicity_and_sum_bound(xs):
    a = alpha(xs)
    assert -1e-15 <= a <= 1.0 + 1e-15
    assert a <= sum(xs) + 1e-12
    # adding an argument can only increase the value
    assert a <= alpha(xs + [0.25]) + 1e-12
    # increasing an argument can only increase the value
    bumped = list(xs)
    bumped[0] = min(1.0, bumped[0] + 0.1)
    assert a <= alpha(bumped) + 1e-12
