import itertools
import math

import numpy as np
import pytest

from treemix import concentration
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
from treemix.modelfile import random_model

from conftest import ROWS_05, chain_model


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
