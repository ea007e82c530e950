import itertools
import math
import tracemalloc

import numpy as np
import pytest

from treemix import concentration, mixing
from treemix.concentration import (
    EUCLIDEAN,
    HAMMING,
    MixingMatrix,
    build_mixing_matrices,
    delta_inf_norm,
    gamma_l2_norm,
    hamming_lipschitz_constant,
    linf_operator_norm,
    lipschitz_test_corpus,
    monte_carlo_deviation,
    tail_bound,
)
from treemix.model import _SAMPLE_BLOCK, max_contraction
from treemix.modelfile import random_model

from conftest import (
    ROWS_05,
    chain_model,
    oracle_hamming_lipschitz_constant,
    oracle_lipschitz_test_corpus,
    oracle_monte_carlo_deviation,
)


def upper_unit(entries: np.ndarray) -> MixingMatrix:
    return MixingMatrix("delta", "level-bound", entries)


class TestMixingMatrix:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            MixingMatrix("beta", "exact", np.eye(2))
        with pytest.raises(ValueError, match="provenance"):
            MixingMatrix("delta", "guesswork", np.eye(2))
        with pytest.raises(ValueError, match="diagonal"):
            MixingMatrix("delta", "exact", np.array([[1.0, 0.5], [0.0, 0.9]]))
        with pytest.raises(ValueError, match="below"):
            MixingMatrix("delta", "exact", np.array([[1.0, 0.5], [0.1, 1.0]]))
        with pytest.raises(ValueError, match="0, 1"):
            MixingMatrix("delta", "exact", np.array([[1.0, 1.5], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            MixingMatrix("delta", "exact", np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_entries_read_only(self):
        d = upper_unit(np.eye(3))
        with pytest.raises(ValueError):
            d.entries[0, 1] = 0.5


class TestBuildMixingMatrices:
    def test_independent_model_is_identity(self):
        # rank-one kernels: every eta_bar vanishes
        m = chain_model([[[0.3, 0.7], [0.3, 0.7]]] * 3)
        delta, gamma = build_mixing_matrices(m, "exact")
        np.testing.assert_allclose(delta.entries, np.eye(4), atol=1e-14)
        np.testing.assert_allclose(gamma.entries, np.eye(4), atol=1e-7)

    def test_gamma_is_sqrt_of_delta(self):
        m = random_model(4, n=6, alphabet_size=2)
        for source in ("exact", "level-bound", "uniform-bound"):
            delta, gamma = build_mixing_matrices(m, source)
            iu = np.triu_indices(6, k=1)
            np.testing.assert_array_equal(
                gamma.entries[iu], np.sqrt(delta.entries[iu])
            )

    def test_provenance_dominance(self):
        for seed in range(6):
            m = random_model(seed, n=6, alphabet_size=2)
            exact, _ = build_mixing_matrices(m, "exact")
            level, _ = build_mixing_matrices(m, "level-bound")
            uniform, _ = build_mixing_matrices(m, "uniform-bound")
            assert (exact.entries <= level.entries + 1e-12).all()
            assert (level.entries <= uniform.entries + 1e-12).all()

    def test_degenerate_kernel_fills_ones(self):
        m = chain_model([[[1.0, 0.0], [0.0, 1.0]], ROWS_05])
        delta, _ = build_mixing_matrices(m, "uniform-bound")
        iu = np.triu_indices(3, k=1)
        assert (delta.entries[iu] == 1.0).all()

    def test_unknown_source(self):
        m = chain_model([ROWS_05])
        with pytest.raises(ValueError, match="source"):
            build_mixing_matrices(m, "approximate")

    @pytest.mark.parametrize("width", [1, 3])
    def test_uniform_step_once_per_matrix(self, monkeypatch, width):
        # The closed form is step ** ((j - i) // width): one step per matrix,
        # not one closed form per cell, and every cell equals the per-pair
        # closed form bit for bit.
        calls = []
        step = mixing._uniform_step
        monkeypatch.setattr(mixing, "_uniform_step", lambda *a: calls.append(a) or step(*a))
        m = random_model(6, n=9, alphabet_size=2, width=width)
        delta, _ = build_mixing_matrices(m, "uniform-bound")
        assert m.tree.width == width
        assert len(calls) == 1
        theta = max_contraction(m)
        for i, j in zip(*np.triu_indices(m.n, k=1)):
            want = mixing.eta_bar_bound_uniform(theta, width, i + 1, j + 1)
            assert delta.entries[i, j] == want


class TestDeltaInfNorm:
    def test_chain_level_bound_value(self):
        # theta = 0.5 chain: the top row sums the geometric series
        # 1 + 1/2 + ... + 1/32
        m = chain_model([ROWS_05] * 5)
        delta, _ = build_mixing_matrices(m, "level-bound")
        assert delta_inf_norm(delta) == pytest.approx(1.96875, abs=1e-15)

    def test_single_node(self):
        assert delta_inf_norm(upper_unit(np.eye(1))) == 1.0

    def test_kind_checked(self):
        _, gamma = build_mixing_matrices(chain_model([ROWS_05]), "level-bound")
        with pytest.raises(ValueError, match="delta"):
            delta_inf_norm(gamma)

    def test_matches_generic_norm_exactly(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 5, 8, 13):
            for _ in range(40):
                mat = np.eye(n)
                iu = np.triu_indices(n, k=1)
                mat[iu] = rng.random(iu[0].size)
                d = upper_unit(mat)
                assert delta_inf_norm(d) == linf_operator_norm(d.entries)

    def test_geometric_series_cap(self):
        # uniform-theta chain: ||Delta||_inf < 1 / (1 - theta)
        for theta, rows in ((0.5, ROWS_05),):
            m = chain_model([rows] * 7)
            delta, _ = build_mixing_matrices(m, "level-bound")
            assert delta_inf_norm(delta) < 1.0 / (1.0 - theta)


class TestGammaL2Norm:
    def test_golden_ratio(self):
        # char poly of G^T G for [[1,1],[0,1]] is x^2 - 3x + 1, so the
        # top singular value is the golden ratio
        g = MixingMatrix("gamma", "exact", np.array([[1.0, 1.0], [0.0, 1.0]]))
        want = (1.0 + math.sqrt(5.0)) / 2.0
        assert gamma_l2_norm(g) == pytest.approx(want, abs=1e-8)

    def test_identity(self):
        g = MixingMatrix("gamma", "exact", np.eye(5))
        assert gamma_l2_norm(g) == pytest.approx(1.0, abs=1e-10)

    def test_single_node(self):
        g = MixingMatrix("gamma", "exact", np.eye(1))
        assert gamma_l2_norm(g) == 1.0

    def test_block_diagonal_invariance(self):
        # padding with identity block leaves the norm unchanged
        block = np.eye(4)
        block[0, 1] = 1.0
        g = MixingMatrix("gamma", "exact", block)
        want = (1.0 + math.sqrt(5.0)) / 2.0
        assert gamma_l2_norm(g) == pytest.approx(want, abs=1e-8)

    def test_against_numpy_svd(self):
        rng = np.random.default_rng(23)
        for n in (2, 4, 7):
            for _ in range(20):
                mat = np.eye(n)
                iu = np.triu_indices(n, k=1)
                mat[iu] = rng.random(iu[0].size)
                g = MixingMatrix("gamma", "exact", mat)
                want = float(np.linalg.svd(mat, compute_uv=False)[0])
                assert gamma_l2_norm(g) == pytest.approx(want, abs=1e-8)

    def test_holder_bracket(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            mat = np.eye(n)
            iu = np.triu_indices(n, k=1)
            mat[iu] = rng.random(iu[0].size)
            g = MixingMatrix("gamma", "exact", mat)
            one = float(np.abs(mat).sum(axis=0).max())
            inf = linf_operator_norm(mat)
            assert gamma_l2_norm(g) <= math.sqrt(one * inf) + 1e-8

    def test_chain_closed_form_cap(self):
        # sqrt(theta)-geometric rows: ||Gamma||_2 < 1 / (1 - sqrt(theta))
        theta = 0.5
        m = chain_model([ROWS_05] * 7)
        _, gamma = build_mixing_matrices(m, "level-bound")
        assert gamma_l2_norm(gamma) < 1.0 / (1.0 - math.sqrt(theta))

    def test_kind_checked(self):
        with pytest.raises(ValueError, match="gamma"):
            gamma_l2_norm(upper_unit(np.eye(2)))

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(concentration, "POWER_ITERATION_CAP", 3)
        mat = np.eye(3)
        mat[0, 1] = mat[1, 2] = mat[0, 2] = 0.5
        g = MixingMatrix("gamma", "exact", mat)
        with pytest.raises(RuntimeError, match="converge"):
            gamma_l2_norm(g)


class TestTailBound:
    def test_frozen_hamming_value(self):
        r = tail_bound(100, 2.0, 0.5, HAMMING)
        assert r.tail_bound == pytest.approx(2.0 * math.exp(-25.0 / 8.0), abs=1e-15)
        assert not r.convexity_required

    def test_euclidean_flags_convexity(self):
        r = tail_bound(10, 1.5, 1.0, EUCLIDEAN)
        assert r.convexity_required
        assert r.tail_bound == pytest.approx(2.0 * math.exp(-1.0 / 4.5), abs=1e-15)

    def test_monotone_in_t_and_norm(self):
        ts = np.linspace(0.0, 2.0, 15)
        bounds = [tail_bound(20, 1.5, t, HAMMING).tail_bound for t in ts]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))
        norms = np.linspace(1.0, 4.0, 15)
        bounds = [tail_bound(20, v, 0.5, HAMMING).tail_bound for v in norms]
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))

    def test_t_zero_gives_two(self):
        assert tail_bound(5, 1.0, 0.0, HAMMING).tail_bound == 2.0

    def test_errors(self):
        with pytest.raises(ValueError, match="metric"):
            tail_bound(5, 1.0, 0.1, "manhattan")
        with pytest.raises(ValueError, match="t must"):
            tail_bound(5, 1.0, -0.1, HAMMING)
        with pytest.raises(ValueError, match="norm"):
            tail_bound(5, 0.9, 0.1, HAMMING)
        with pytest.raises(ValueError, match="n must"):
            tail_bound(0, 1.0, 0.1, HAMMING)


class TestHammingLipschitz:
    def test_symbol_frequency_is_one(self):
        for n, s in ((3, 2), (4, 2), (3, 3)):
            shape = (s,) * n
            freq = (np.indices(shape) == 0).sum(axis=0) / n
            assert hamming_lipschitz_constant(freq.reshape(-1), n) == pytest.approx(
                1.0, abs=1e-15
            )

    def test_constant_function_is_zero(self):
        assert hamming_lipschitz_constant(np.full(8, 0.4), 3) == 0.0

    def test_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(9)
        for n, s in ((3, 2), (2, 3), (4, 2)):
            vals = rng.random(s**n)
            nd = vals.reshape((s,) * n)
            worst = 0.0
            for x in itertools.product(range(s), repeat=n):
                for y in itertools.product(range(s), repeat=n):
                    dist = sum(a != b for a, b in zip(x, y)) / n
                    if dist > 0:
                        worst = max(worst, abs(nd[x] - nd[y]) / dist)
            assert hamming_lipschitz_constant(vals, n) == pytest.approx(
                worst, abs=1e-12
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_table_rejected(self, bad):
        table = np.zeros(8)
        table[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            hamming_lipschitz_constant(table, 3)

    def test_size_must_be_power(self):
        with pytest.raises(ValueError, match="power"):
            hamming_lipschitz_constant(np.zeros(6), 2)

    def test_corpus_is_normalized(self):
        for seed in (3, 4, 5):
            rng = np.random.default_rng(seed)
            for name, table in lipschitz_test_corpus(4, 2, rng):
                c = hamming_lipschitz_constant(table, 4)
                assert c <= 1.0 + 1e-12, (seed, name)

    def test_corpus_rejects_no_nodes_and_no_states(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="n must"):
            lipschitz_test_corpus(0, 2, rng)
        with pytest.raises(ValueError, match="n must"):
            lipschitz_test_corpus(-1, 2, rng)
        with pytest.raises(ValueError, match="alphabet size"):
            lipschitz_test_corpus(3, 0, rng)

    def test_corpus_over_one_state_is_finite(self):
        # One configuration: every table has constant 0, and the random
        # table is left as drawn instead of divided by 0.
        corpus = lipschitz_test_corpus(3, 1, np.random.default_rng(4))
        assert [name for name, _ in corpus] == [
            "symbol-frequency", "subcube-indicator", "random-table-0"
        ]
        for _, table in corpus:
            assert table.shape == (1,) and np.isfinite(table).all()
            assert hamming_lipschitz_constant(table, 3) == 0.0
        rng = np.random.default_rng(4)
        k = int(rng.integers(1, 4))
        rng.choice(3, size=k, replace=False)
        rng.integers(0, 1, size=k)
        assert corpus[2][1].tobytes() == rng.random(1).tobytes()
        assert corpus[0][1].tolist() == [1.0] and corpus[1][1].tolist() == [1 / 3]


# Shapes (n, s) with n up to 12 and s up to 5, at most 4e5 cells.
_ORACLE_SHAPES = [
    (n, s) for n in range(1, 13) for s in range(2, 6) if s**n <= 4 * 10**5
]


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestAgainstGridOracles:
    """The axis-by-axis builders equal the grid and ``moveaxis`` code they
    replaced, bit for bit."""

    @pytest.mark.parametrize("n, s", _ORACLE_SHAPES)
    def test_corpus_matches_oracle(self, n, s):
        for seed in (0, 1, 2, 1801):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = lipschitz_test_corpus(n, s, rng)
            want = oracle_lipschitz_test_corpus(n, s, oracle_rng)
            assert [name for name, _ in got] == [name for name, _ in want]
            for (name, table), (_, expected) in zip(got, want):
                assert table.dtype == expected.dtype, (seed, name)
                assert table.tobytes() == expected.tobytes(), (seed, name)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("n, s", _ORACLE_SHAPES)
    def test_constant_matches_oracle(self, n, s):
        # Tables drawn from small pools, so that ties, both zeros, the
        # smallest subnormal and +-1e300 meet along every axis.
        pools = [
            [0.0, -0.0],
            [0.0, -0.0, 1.0, 0.5, 5e-324],
            [1e300, -1e300, 0.0, -0.0, 1.0],
            [0.1, 0.2, 0.30000000000000004, 1 / 3, 2 / 3],
        ]
        rng = np.random.default_rng(n * 10 + s)
        for pool in pools:
            for _ in range(2):
                table = rng.choice(np.array(pool), size=s**n)
                got = hamming_lipschitz_constant(table, n)
                assert _bits(got) == _bits(oracle_hamming_lipschitz_constant(table, n))
        table = rng.standard_normal(s**n) * 1e300
        got = hamming_lipschitz_constant(table, n)
        assert _bits(got) == _bits(oracle_hamming_lipschitz_constant(table, n))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused_alike(self, bad):
        table = np.zeros(27)
        table[13] = bad
        for constant in (hamming_lipschitz_constant, oracle_hamming_lipschitz_constant):
            with pytest.raises(ValueError, match="^function table has non-finite entries$"):
                constant(table, 3)


class TestMonteCarloDeviation:
    @staticmethod
    def fair_bits(n):
        rows = [[0.5, 0.5], [0.5, 0.5]]
        return chain_model([rows] * (n - 1))

    def test_fair_bits_frozen_probability(self):
        # ten fair bits, f = fraction of zeros, t = 0.2:
        # P(|f - 1/2| > 0.2) = 2 * (1 + 10 + 45) / 1024 = 112 / 1024
        m = self.fair_bits(10)
        freq = (np.indices((2,) * 10) == 0).sum(axis=0) / 10
        est = monte_carlo_deviation(m, freq.reshape(-1), 0.2, 20_000, seed=11)
        exact = 112.0 / 1024.0
        assert est.mean_source == "exact"
        assert est.mean == pytest.approx(0.5, abs=1e-12)
        assert abs(est.empirical - exact) <= est.radius

    def test_deterministic(self):
        m = self.fair_bits(4)
        freq = (np.indices((2,) * 4) == 0).sum(axis=0) / 4
        a = monte_carlo_deviation(m, freq.reshape(-1), 0.3, 5000, seed=2)
        b = monte_carlo_deviation(m, freq.reshape(-1), 0.3, 5000, seed=2)
        assert a == b

    def test_sampled_mean_over_cap(self, monkeypatch):
        m = self.fair_bits(4)
        freq = (np.indices((2,) * 4) == 0).sum(axis=0) / 4
        monkeypatch.setenv("TREEMIX_MAX_ENUM", "8")
        est = monte_carlo_deviation(m, freq.reshape(-1), 0.3, 4000, seed=2)
        assert est.mean_source == "sampled"
        assert est.mean == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize("mean_source", ["exact", "sampled"])
    def test_blocks_equal_one_draw(self, monkeypatch, mean_source):
        # Samples spanning three blocks, the last one partial, give the
        # estimate of one sample_paths call per batch, bit for bit.
        m = random_model(2, n=7, alphabet_size=3)
        corpus = lipschitz_test_corpus(m.n, 3, np.random.default_rng(5))
        if mean_source == "sampled":
            monkeypatch.setenv("TREEMIX_MAX_ENUM", "1000")
        samples = 2 * _SAMPLE_BLOCK + 7
        for _, f in corpus:
            est = monte_carlo_deviation(m, f, 0.1, samples, seed=9)
            assert est.mean_source == mean_source
            assert repr(est) == repr(oracle_monte_carlo_deviation(m, f, 0.1, samples, 9))

    def test_memory_does_not_grow_with_samples(self):
        # A 10-node, 3-state chain under the cap: the exact mean, and each
        # block's paths held one block at a time.
        m = random_model(5, n=10, alphabet_size=3, width=1)
        _, f = lipschitz_test_corpus(m.n, 3, np.random.default_rng(0))[0]
        m.joint_table()  # built once, outside both measurements
        peaks = []
        for samples in (100_000, 400_000):
            tracemalloc.start()
            try:
                monte_carlo_deviation(m, f, 0.2, samples, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0], peaks

    def test_rejects_unnormalized_function(self):
        m = self.fair_bits(3)
        freq = (np.indices((2,) * 3) == 0).sum(axis=0) / 3
        with pytest.raises(ValueError, match="Lipschitz"):
            monte_carlo_deviation(m, 2.0 * freq.reshape(-1), 0.1, 100, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_function(self, bad):
        m = random_model(seed=3, n=5)
        f = np.zeros(m.table_cells())
        f[7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            monte_carlo_deviation(m, f, 0.1, 1000, 1)

    def test_rejects_wrong_table_size(self):
        m = self.fair_bits(3)
        with pytest.raises(ValueError, match="entries"):
            monte_carlo_deviation(m, np.zeros(4), 0.1, 100, seed=0)

    def test_argument_validation(self):
        m = self.fair_bits(3)
        freq = (np.indices((2,) * 3) == 0).sum(axis=0) / 3
        with pytest.raises(ValueError, match="t must"):
            monte_carlo_deviation(m, freq.reshape(-1), 0.0, 100, seed=0)
        with pytest.raises(ValueError, match="sample count"):
            monte_carlo_deviation(m, freq.reshape(-1), 0.1, 0, seed=0)

    def test_empirical_within_hamming_bound(self):
        # the certified bound must dominate the simulation
        for seed in (0, 1):
            m = random_model(seed, n=5, alphabet_size=2)
            delta, _ = build_mixing_matrices(m, "exact")
            norm = delta_inf_norm(delta)
            freq = (np.indices((2,) * 5) == 0).sum(axis=0) / 5
            for t in (0.2, 0.4):
                est = monte_carlo_deviation(m, freq.reshape(-1), t, 20_000, seed=33)
                cert = tail_bound(5, norm, t, HAMMING).tail_bound
                assert est.empirical - est.radius <= cert
