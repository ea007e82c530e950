import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treemix
from treemix.concentration import MixingMatrix
from treemix.model import (
    _SAMPLE_BLOCK,
    EnumerationLimitError,
    Kernel,
    MarkovTreeModel,
    _philox_uniforms,
    _root_states,
    contraction_coefficient,
    enumeration_cap,
    joint_probability,
    max_contraction,
    sample_paths,
)
from treemix.mixing import eta_exact, eta_factorization
from treemix.modelfile import (
    _random_kernel,
    parse_model_file,
    random_model,
    save_model,
    serialize_model,
)
from treemix.treegraph import build_tree
from treemix.tvalgebra import (
    _NORM_BAND,
    IndexedTensor,
    StochasticOperator,
    _normalize_columns,
    column_tv_norm,
)
from treemix.verification import _independence_violation

from conftest import (
    ROWS_05,
    ROWS_07,
    chain_model,
    make_model,
    oracle_eta,
    oracle_joint,
    oracle_joint_table,
    oracle_sample_paths,
    run_suite,
    sparsified,
)


class TestKernel:
    def test_row_sum_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Kernel((1, 2), np.array([[0.9, 0.2], [0.1, 0.7]]))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="square"):
            Kernel((1, 2), np.array([[0.5, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Kernel((1, 2), np.array([[bad, 0.2], [bad, 0.8]]))

    def test_tiny_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Kernel((1, 2), np.array([[-1e-13, 0.2], [1.0 + 1e-13, 0.8]]))


class TestModelConstruction:
    def test_kernel_coverage_enforced(self):
        topo, _ = build_tree(3, [(1, 2), (2, 3)])
        kernels = {(1, 2): Kernel((1, 2), np.array(ROWS_07).T)}
        with pytest.raises(ValueError, match="missing"):
            MarkovTreeModel(topo, 2, np.array([0.5, 0.5]), kernels)

    def test_root_dist_validated(self):
        topo, _ = build_tree(1, [])
        with pytest.raises(ValueError, match="probability"):
            MarkovTreeModel(topo, 2, np.array([0.5, 0.6]), {})
        with pytest.raises(ValueError, match="non-finite"):
            MarkovTreeModel(topo, 2, np.array([np.nan, np.nan]), {})

    def test_tiny_negative_root_entry_rejected(self):
        topo, _ = build_tree(1, [])
        with pytest.raises(ValueError, match="probability"):
            MarkovTreeModel(topo, 2, np.array([-1e-13, 1.0 + 1e-13]), {})

    def test_single_node_model(self):
        topo, _ = build_tree(1, [])
        m = MarkovTreeModel(topo, 3, np.array([0.2, 0.3, 0.5]), {})
        np.testing.assert_allclose(m.joint_table(), [0.2, 0.3, 0.5])
        assert max_contraction(m) == 0.0
        assert m.kernel_stack.shape == (0, 3, 3)


def _column_sums(mat):
    cols = np.moveaxis(mat, -2, -1).reshape(-1, mat.shape[-2])
    return np.array([math.fsum(col) for col in cols.tolist()])


@given(
    s=st.integers(2, 40),
    cols=st.integers(1, 6),
    drift=st.sampled_from([0.0, 2.0**-52, 4 * 2.0**-52, 5 * 2.0**-52, 1e-13, 9e-10]),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_normalize_columns_twice_changes_no_bit(s, cols, drift, zeros, seed):
    rng = np.random.default_rng(seed)
    mat = rng.random((2, s, cols)) ** 3
    if zeros:
        mat[rng.random(mat.shape) < 0.4] = 0.0
        mat[0, 0] = mat[1, -1] = 1.0  # no empty column
    mat /= mat.sum(axis=-2, keepdims=True)
    mat *= 1.0 + drift * rng.uniform(-1.0, 1.0, (2, 1, cols))
    before = mat.copy()
    _normalize_columns(mat)
    inside = np.abs(_column_sums(before) - 1.0) <= _NORM_BAND
    unchanged = np.moveaxis(mat == before, -2, -1).reshape(-1, s).all(axis=1)
    assert unchanged[inside].all()
    assert (np.abs(_column_sums(mat) - 1.0) <= _NORM_BAND).all()
    once = mat.copy()
    _normalize_columns(mat)
    assert mat.tobytes() == once.tobytes()


class TestNormalization:
    def test_model_normalizes_its_own_copy(self):
        m = random_model(3, n=6, alphabet_size=3)
        stack = m.kernel_stack * (1 + np.linspace(-9e-10, 9e-10, 15).reshape(5, 1, 3))
        root = m.root_dist * (1 - 7e-10)
        given_stack, given_root = stack.copy(), root.copy()
        for kernels in (stack, {(u, v): Kernel((u, v), stack[v - 2]) for u, v in m.tree.edges()}):
            drifted = MarkovTreeModel(m.tree, 3, root, kernels)
            assert (np.abs(_column_sums(drifted.kernel_stack) - 1.0) <= _NORM_BAND).all()
            assert abs(math.fsum(drifted.root_dist.tolist()) - 1.0) <= _NORM_BAND
            assert stack.tobytes() == given_stack.tobytes()
            assert root.tobytes() == given_root.tobytes()

    def test_generated_laws_are_left_as_drawn(self):
        rng = np.random.default_rng(0)
        for s in range(2, 12):
            for _ in range(20):
                root = rng.random(s) + 1e-3
                root /= root.sum()  # as random_model draws it
                laws = np.column_stack([_random_kernel(rng, s, 0.9), root])
                drawn = laws.tobytes()
                _normalize_columns(laws)
                assert laws.tobytes() == drawn


class TestKernelStack:
    def _star(self):
        return make_model(
            4, [(1, 2), (1, 3), (3, 4)], 2, [0.3, 0.7],
            {(1, 2): ROWS_07, (1, 3): ROWS_05, (3, 4): [[0.4, 0.6], [0.5, 0.5]]},
        )

    def test_child_order(self):
        m = self._star()
        assert m.kernel_stack.shape == (3, 2, 2)
        for u, v in m.tree.edges():
            np.testing.assert_array_equal(m.kernel((u, v)).matrix, m.kernel_stack[v - 2])
        np.testing.assert_array_equal(m.kernel_stack[0], np.array(ROWS_07).T)
        assert not m.kernel_stack.flags.writeable

    def test_stack_input_gives_views(self):
        m = self._star()
        stack = np.array(m.kernel_stack)
        from_stack = MarkovTreeModel(m.tree, 2, m.root_dist, stack)
        assert from_stack.kernel_stack.tobytes() == m.kernel_stack.tobytes()
        stack[0, 0, 0] = 0.0  # the model holds its own copy
        assert from_stack.kernel_stack[0, 0, 0] == 0.9
        assert set(from_stack.kernels) == set(m.tree.edges())
        for u, v in m.tree.edges():
            assert np.shares_memory(from_stack.kernel((u, v)).matrix, from_stack.kernel_stack)
        with pytest.raises(ValueError):
            from_stack.kernel((1, 2)).matrix[0, 0] = 0.5

    @pytest.mark.parametrize(
        "entry, match",
        [(np.nan, "non-finite"), (-0.25, "negative"), (0.95, "sum to 1")],
    )
    def test_bad_stack_names_first_bad_edge(self, entry, match):
        m = self._star()
        stack = np.array(m.kernel_stack)
        stack[1:, 0, 1] = entry  # edges into 3 and 4
        with pytest.raises(ValueError, match=rf"edge \(1, 3\).*{match}"):
            MarkovTreeModel(m.tree, 2, m.root_dist, stack)

    def test_stack_shape_checked(self):
        m = self._star()
        with pytest.raises(ValueError, match="shape"):
            MarkovTreeModel(m.tree, 2, m.root_dist, m.kernel_stack[:2])

    @pytest.mark.parametrize("from_stack", [False, True])
    def test_kernels_are_lazy_read_only_views(self, from_stack):
        m = self._star()
        if from_stack:
            m = MarkovTreeModel(m.tree, 2, m.root_dist, np.array(m.kernel_stack))
        assert "kernels" not in m.__dict__
        assert list(m.kernels) == list(m.tree.edges()) == list(dict(m.kernels))
        assert len(m.kernels) == 3 and (1, 3) in m.kernels and (2, 3) not in m.kernels
        k = m.kernels[(np.int64(1), np.int64(3))]
        assert k.edge == (1, 3) and type(k.edge[0]) is int
        assert m.kernel((1, 3)) is k and m.kernels.get((1, 3)) is k
        assert np.shares_memory(k.matrix, m.kernel_stack)
        with pytest.raises(KeyError):
            m.kernels[(2, 3)]
        with pytest.raises(ValueError, match="no kernel"):
            m.kernel((2, 3))
        with pytest.raises(TypeError):
            m.kernels[(1, 3)] = k
        assert repr(m.kernels) == f"mappingproxy({dict(m.kernels)!r})"

    def test_model_repr_makes_no_view(self):
        m = random_model(0, 6)
        text = repr(m)
        assert "kernels" not in m.__dict__
        assert "kernel_stack=array(" in text and "kernels=" not in text

    def test_mapping_keeps_kernel_layout(self):
        # Parent-major rows transposed give column-major kernels; the stack
        # keeps that layout, which sets numpy's summation order.
        m = self._star()
        assert all(k.matrix.flags.f_contiguous for k in m.kernels.values())
        c = random_model(3, n=5, alphabet_size=3)
        assert all(k.matrix.flags.c_contiguous for k in c.kernels.values())


class TestJointTable:
    def test_matches_product_formula_oracle(self, chain3_07):
        table = chain3_07.joint_table()
        for cfg, p in oracle_joint(chain3_07).items():
            assert table[cfg] == pytest.approx(p, abs=1e-15)
            assert joint_probability(chain3_07, cfg) == pytest.approx(p, abs=1e-15)

    @given(
        st.integers(1, 9),
        st.sampled_from([2, 3, 4]),
        st.sampled_from([{"width": 1}, {"depth": 1}, {}, {"width": 2}]),
        st.integers(0, 10**6),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_node_by_node_matches_broadcast_product(self, n, s, shape, seed, sparse):
        """The node-by-node build gives the broadcast product's table, cell
        for cell bit for bit, in the same C layout."""
        m = random_model(seed, n=n, alphabet_size=s, **(shape if n > 1 else {}))
        if sparse:
            m = sparsified(m, seed, deterministic_root=True)
        table, oracle = m.joint_table(), oracle_joint_table(m)
        assert table.shape == oracle.shape and table.flags.c_contiguous
        assert table.tobytes() == oracle.tobytes()

    def test_sums_to_one(self, binary7_05):
        assert float(binary7_05.joint_table().sum()) == pytest.approx(1.0, abs=1e-10)

    def test_branching_model_oracle(self):
        m = make_model(
            4,
            [(1, 2), (1, 3), (3, 4)],
            2,
            [0.3, 0.7],
            {(1, 2): ROWS_07, (1, 3): ROWS_05, (3, 4): [[0.4, 0.6], [0.5, 0.5]]},
        )
        table = m.joint_table()
        for cfg, p in oracle_joint(m).items():
            assert table[cfg] == pytest.approx(p, abs=1e-15)

    def test_enumeration_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("TREEMIX_MAX_ENUM", "16")
        m = chain_model([ROWS_07] * 4)  # 2**5 = 32 cells
        with pytest.raises(EnumerationLimitError, match="cap"):
            m.joint_table()

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("TREEMIX_MAX_ENUM", "16")
        assert enumeration_cap() == 16
        m = chain_model([ROWS_07] * 4)
        with pytest.raises(EnumerationLimitError):
            m.joint_table()
        monkeypatch.setenv("TREEMIX_MAX_ENUM", "not-a-number")
        with pytest.raises(ValueError, match="integer"):
            enumeration_cap()

    def test_bad_configuration_rejected(self, chain3_07):
        with pytest.raises(ValueError, match="outside"):
            joint_probability(chain3_07, (0, 2, 0))
        with pytest.raises(ValueError, match="entries"):
            joint_probability(chain3_07, (0, 1))


class TestContraction:
    def test_example(self, chain3_07):
        assert contraction_coefficient(chain3_07, (1, 2)) == pytest.approx(
            0.7, abs=1e-15
        )

    def test_identity_kernel_is_one(self):
        m = chain_model([[[1.0, 0.0], [0.0, 1.0]]])
        assert contraction_coefficient(m, (1, 2)) == 1.0
        assert max_contraction(m) == 1.0

    def test_rank_one_kernel_is_zero(self):
        m = chain_model([[[0.3, 0.7], [0.3, 0.7]]])
        assert contraction_coefficient(m, (1, 2)) == 0.0

    def test_unknown_edge(self, chain3_07):
        with pytest.raises(ValueError, match="no kernel"):
            contraction_coefficient(chain3_07, (1, 3))

    @pytest.mark.parametrize("edge", [(1, 3), (2, 1), (0, 1), (np.int64(1), 3.0)])
    def test_unknown_edge_error_text(self, chain3_07, edge):
        # contraction_coefficient checks the tree's parent map with kernel()'s text.
        u, v = int(edge[0]), int(edge[1])
        want = f"no kernel for edge ({u}, {v}); edges are ((1, 2), (2, 3))"
        for call in (chain3_07.kernel, lambda e: contraction_coefficient(chain3_07, e)):
            with pytest.raises(ValueError) as info:
                call(edge)
            assert str(info.value) == want

    def test_package_readers_make_no_kernel_view(self):
        m = random_model(5, n=9, alphabet_size=3, width=3)
        serialize_model(m)
        thetas = [contraction_coefficient(m, edge) for edge in m.tree.edges()]
        joint_probability(m, [1] * m.n)
        eta_factorization(m, 1, m.n, 0, 1)
        assert "kernels" not in m.__dict__
        assert thetas == [m.edge_thetas[v] for _, v in m.tree.edges()]

    def test_edge_thetas_are_column_tv_norms_of_the_kernels(self, tmp_path):
        # One parsed model (a C-order stack) and one built from a mapping
        # of parent-major rows (F-order kernels).
        path = str(tmp_path / "model.json")
        save_model(random_model(seed=4, n=9, alphabet_size=3), path)
        parsed, _ = parse_model_file(path)
        rows = {edge: k.matrix.T.tolist() for edge, k in parsed.kernels.items()}
        mapped = make_model(9, list(rows), 3, parsed.root_dist, rows)
        for m in (parsed, mapped):
            thetas = m.edge_thetas
            assert sorted(thetas) == list(range(2, 10))
            for (u, v), k in m.kernels.items():
                assert thetas[v] == column_tv_norm(k.matrix)


class TestConditionalFutureLaw:
    """``eta_exact``, read off the frontier sweep once every factor of each
    extended prefix is positive, against the Bayes-rule oracle, which
    enumerates configurations one by one."""

    @staticmethod
    def _check_against_oracle(model):
        """Compare every eta_exact entry of ``model`` with the oracle; return
        how many conditioning prefixes have zero probability."""
        zero = 0
        s, n = model.alphabet_size, model.n
        for i, j in itertools.combinations(range(1, n + 1), 2):
            for prefix in itertools.product(range(s), repeat=i - 1):
                for w, w_prime in itertools.product(range(s), repeat=2):
                    try:
                        want = oracle_eta(model, i, j, prefix, w, w_prime)
                    except ZeroDivisionError:
                        zero += 1
                        with pytest.raises(ValueError, match="zero probability"):
                            eta_exact(model, i, j, prefix, w, w_prime)
                        continue
                    got = eta_exact(model, i, j, prefix, w, w_prime)
                    assert got == pytest.approx(want, abs=1e-13), (i, j, prefix, w, w_prime)
        return zero

    def test_against_bayes_oracle(self, chain3_07):
        assert self._check_against_oracle(chain3_07) == 0

    def test_branching_oracle(self):
        m = make_model(
            5,
            [(1, 2), (1, 3), (2, 4), (3, 5)],
            2,
            [0.6, 0.4],
            {
                (1, 2): ROWS_07,
                (1, 3): ROWS_05,
                (2, 4): [[0.1, 0.9], [0.8, 0.2]],
                (3, 5): [[0.55, 0.45], [0.3, 0.7]],
            },
        )
        zero = sum(self._check_against_oracle(model) for model in (m, sparsified(m, 3, False)))
        assert zero > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_and_sparsified_oracle(self, seed):
        m = random_model(seed, n=5 - seed % 2, alphabet_size=2 + seed % 2)
        models = (m, sparsified(m, seed, False), sparsified(m, seed, True))
        assert sum(self._check_against_oracle(model) for model in models) > 0

    def test_zero_probability_prefix_rejected(self):
        m = chain_model([[[1.0, 0.0], [0.0, 1.0]]], root_dist=[1.0, 0.0])
        with pytest.raises(ValueError, match=r"x\[1\.\.1\] = \[1\] has zero probability"):
            eta_exact(m, 1, 2, (), 0, 1)


class TestSampling:
    def test_deterministic_and_split_invariant(self, chain3_07):
        a = sample_paths(chain3_07, 99, 64)
        b = sample_paths(chain3_07, 99, 64)
        np.testing.assert_array_equal(a, b)
        lo = sample_paths(chain3_07, 99, 40)
        hi = sample_paths(chain3_07, 99, 24, stream_offset=40)
        np.testing.assert_array_equal(a, np.vstack([lo, hi]))

    def test_different_seeds_differ(self, chain3_07):
        a = sample_paths(chain3_07, 1, 64)
        b = sample_paths(chain3_07, 2, 64)
        assert not np.array_equal(a, b)

    def test_empirical_frequencies(self):
        m = make_model(
            3,
            [(1, 2), (1, 3)],
            2,
            [0.3, 0.7],
            {(1, 2): ROWS_07, (1, 3): ROWS_05},
        )
        count = 40_000
        batch = sample_paths(m, 7, count)
        table = m.joint_table()
        for cfg, p in np.ndenumerate(table):
            emp = float((batch == np.array(cfg)).all(axis=1).mean())
            # six-sigma binomial slack; deterministic given the seed
            slack = 6.0 * np.sqrt(p * (1 - p) / count) + 1.0 / count
            assert abs(emp - p) <= slack

    def test_seed_range_validated(self, chain3_07):
        with pytest.raises(ValueError, match="seed"):
            sample_paths(chain3_07, -1, 4)
        with pytest.raises(ValueError, match="count"):
            sample_paths(chain3_07, 0, 0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"seed": 1.9},
            {"seed": True},
            {"seed": "1"},
            {"count": 8.0},
            {"count": True},
            {"stream_offset": 2.0},
            {"stream_offset": False},
        ],
    )
    def test_non_integer_arguments_rejected(self, chain3_07, bad):
        args = {"seed": 1, "count": 8, "stream_offset": 0, **bad}
        with pytest.raises(ValueError, match="integer"):
            sample_paths(chain3_07, **args)

    def test_numpy_integers_accepted(self, chain3_07):
        np.testing.assert_array_equal(
            sample_paths(chain3_07, np.uint64(5), np.int64(8), np.int32(3)),
            sample_paths(chain3_07, 5, 8, 3),
        )

    def test_no_generator_per_path(self, chain3_07, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sample_paths built a numpy generator")

        monkeypatch.setattr(np.random, "Philox", refuse)
        monkeypatch.setattr(np.random, "Generator", refuse)
        assert sample_paths(chain3_07, 3, 10).shape == (10, 3)


class TestPhiloxUniforms:
    # If numpy's Philox stream ever changes, this fails instead of every
    # sampled path shifting silently.
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("first", [0, 2**64 - 3])
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_matches_numpy_philox(self, seed, first, n):
        u = _philox_uniforms(seed, first, 3, n)
        assert u.shape == (n, 3)
        for p in range(3):
            gen = np.random.Generator(np.random.Philox(key=seed + ((first + p) << 64)))
            np.testing.assert_array_equal(u[:, p], gen.random(n))


@given(
    model_seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=1, max_value=12),
    s=st.integers(min_value=2, max_value=5),
    shape=st.sampled_from(["chain", "star", "full"]),
    support=st.sampled_from(["full", "sparse", "sparse, deterministic root"]),
    seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    count=st.one_of(
        st.integers(min_value=1, max_value=40),
        st.sampled_from(
            [_SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1, 2 * _SAMPLE_BLOCK + 3]
        ),
    ),
    offset=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
)
@settings(max_examples=100, deadline=None)
def test_sampler_matches_oracle(model_seed, n, s, shape, support, seed, count, offset):
    caps = {"chain": {"width": 1}, "star": {"depth": 1}, "full": {}}[shape]
    m = random_model(model_seed, n=n, alphabet_size=s, **caps)
    if support != "full":
        m = sparsified(m, model_seed, support.endswith("root"))
    offset = min(offset, 2**64 - count)
    np.testing.assert_array_equal(
        sample_paths(m, seed, count, offset), oracle_sample_paths(m, seed, count, offset)
    )


@given(
    model_seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=1, max_value=10),
    s=st.integers(min_value=1, max_value=5),
    shape=st.sampled_from(["chain", "star", "full"]),
    support=st.sampled_from(["full", "sparse", "sparse, deterministic root"]),
    seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    count=st.sampled_from(
        [1, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1, 20_000]
    ),
    offset=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
)
@example(model_seed=0, n=1, s=2, shape="chain", support="full", seed=0, count=20_000, offset=0)
@example(
    model_seed=1, n=6, s=1, shape="full", support="full",
    seed=2**64 - 1, count=_SAMPLE_BLOCK + 1, offset=2**64 - 1,
)
@example(
    model_seed=2, n=7, s=3, shape="star", support="sparse, deterministic root",
    seed=2**64 - 1, count=20_000, offset=0,
)
@settings(max_examples=60, deadline=None)
def test_root_draws_equal_first_column(model_seed, n, s, shape, support, seed, count, offset):
    """The roots alone, one Philox block per stream inverted by
    ``_root_states``, are column 0 of ``sample_paths`` bit for bit; verify's
    sampling-frequency suite draws them so."""
    caps = {"chain": {"width": 1}, "star": {"depth": 1}, "full": {}}[shape]
    m = random_model(model_seed, n=n, alphabet_size=max(s, 2), **caps)
    if support != "full":
        m = sparsified(m, model_seed, support.endswith("root"))
    if s == 1:
        m = MarkovTreeModel(m.tree, 1, np.ones(1), np.ones((n - 1, 1, 1)))
    offset = min(offset, 2**64 - count)
    roots = _root_states(m, _philox_uniforms(seed, offset, count, 1)[0])
    assert roots.dtype == np.int64
    np.testing.assert_array_equal(roots, sample_paths(m, seed, count, offset)[:, 0])


class TestMarkovProperty:
    def test_holds_on_tree_model(self, binary7_05):
        for u in (1, 2, 3):
            violation = _independence_violation(binary7_05.joint_table(), binary7_05.tree, u)
            assert violation <= 1e-14

    def test_requires_branching_node(self, chain3_07, monkeypatch):
        # A model without a branching node skips before the suite asks for
        # the joint table, so the note is the same over the cap.
        for cap in ("1000", "2"):
            monkeypatch.setenv("TREEMIX_MAX_ENUM", cap)
            result = run_suite(chain3_07, "markov-property")
            assert (result.status, result.note) == ("skip", "no node with two or more children")
            assert "_joint_table" not in chain3_07.__dict__

    def test_detects_injected_violation(self):
        # a correlated 3-variable table that does not factor over the
        # star tree: x2 and x3 are equal coin flips, independent of x1
        topo, _ = build_tree(3, [(1, 2), (1, 3)])
        table = np.zeros((2, 2, 2))
        table[:, 0, 0] = 0.25
        table[:, 1, 1] = 0.25
        violation = _independence_violation(table, topo, 1)
        assert violation == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_model(0, 4),
        lambda: Kernel((1, 2), np.array(ROWS_07).T),
        lambda: IndexedTensor((1,), 2, np.array([0.3, 0.7])),
        lambda: StochasticOperator((1,), (2,), 2, np.array(ROWS_05)),
        lambda: MixingMatrix("exact", np.eye(2)),
    ],
    ids=["MarkovTreeModel", "Kernel", "IndexedTensor", "StochasticOperator", "MixingMatrix"],
)
def test_array_holders_compare_by_identity(make):
    # A generated __eq__ would compare the held arrays and raise.
    a, b = make(), make()
    assert a == a and not a == b and a != b
    assert len({a, b, a}) == 2


def test_public_names_resolve():
    missing = [name for name in treemix.__all__ if not hasattr(treemix, name)]
    assert missing == []
    namespace = {}
    exec("from treemix import *", namespace)
    assert set(treemix.__all__) <= set(namespace)
