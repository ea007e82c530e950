import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemix import mixing
from treemix.mixing import eta_factorization, eta_report, factorization_pipelines
from treemix.modelfile import random_model
from treemix.treegraph import subtree_runs
from treemix.verification import (
    _SUITES,
    _suite_bound_dominance,
    _suite_factorization,
    _suite_j0_reduction,
    run_verification,
)

from conftest import (
    make_model,
    oracle_eta_factorization,
    oracle_factorization_suite,
    oracle_j0_reduction_suite,
    sparsified,
)

SUITE_NAMES = [name for name, _ in _SUITES]


class TestRunVerification:
    def test_all_suites_pass_on_random_models(self):
        for seed in (0, 7):
            m = random_model(seed, n=6, alphabet_size=2)
            results = run_verification(m, trials=120, seed=1)
            assert [r.name for r in results] == SUITE_NAMES
            bad = [r for r in results if r.status == "fail"]
            assert not bad, bad

    def test_chain_skips_markov_suite(self, chain3_07):
        results = run_verification(chain3_07, trials=50, seed=1)
        by_name = {r.name: r for r in results}
        assert by_name["markov-property"].status == "skip"
        assert all(r.status != "fail" for r in results)

    def test_table_suites_skip_over_cap(self, monkeypatch, binary7_05):
        monkeypatch.setenv("TREEMIX_MAX_ENUM", "16")
        results = run_verification(binary7_05, trials=20, seed=1)
        by_name = {r.name: r for r in results}
        assert by_name["measure-normalization"].status == "skip"
        assert "cap" in by_name["j0-reduction"].note
        # algebra suites do not need the table and still run
        assert by_name["alpha-rules"].status == "pass"
        assert by_name["sampling-determinism"].status == "pass"

    def test_deterministic(self, binary7_05):
        a = run_verification(binary7_05, trials=60, seed=9)
        b = run_verification(binary7_05, trials=60, seed=9)
        assert a == b

    def test_trials_validated(self, chain3_07):
        with pytest.raises(ValueError, match="trials"):
            run_verification(chain3_07, trials=0)

    def test_three_state_model(self):
        m = random_model(11, n=5, alphabet_size=3)
        results = run_verification(m, trials=80, seed=2)
        assert all(r.status != "fail" for r in results)


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_bound_dominance_matches_per_pair_reports(seed):
    m = random_model(seed, n=7, alphabet_size=2 + seed % 2, width=2 + seed % 3)
    if seed == 8:
        m = sparsified(m, seed, deterministic_root=True)
    worst = 0.0
    pairs = 0
    for i in range(1, m.n):
        for j in range(i + 1, m.n + 1):
            report = eta_report(m, i, j)
            worst = max(worst, report.exact - report.level_bound)
            worst = max(worst, report.level_bound - report.uniform_bound)
            pairs += 1
    result = _suite_bound_dominance(m, 1, np.random.default_rng(0))
    assert (result.max_violation, result.trials) == (worst, pairs)


def _bits(value):
    """``value`` with every float replaced by its hex form, so that equal
    results compare equal bit for bit (0.0 and -0.0 differ)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if dataclasses.is_dataclass(value):
        return _bits(dataclasses.astuple(value))
    return value


# Shapes of random_model: chain, star, unconstrained, width 2.  Each node
# count keeps a star's level under 250 states, where the per-pair oracle
# builds and measures its frontier operator quickly.
_SHAPES = [{"width": 1}, {"depth": 1}, {}, {"width": 2}]


@st.composite
def pivot_models(draw):
    s = draw(st.integers(2, 3))
    n = draw(st.integers(2, 7 if s == 2 else 6))
    seed = draw(st.integers(0, 10**6))
    m = random_model(seed, n=n, alphabet_size=s, **draw(st.sampled_from(_SHAPES)))
    if draw(st.booleans()):
        m = sparsified(m, seed, deterministic_root=draw(st.booleans()))
    return m


@given(pivot_models())
@settings(max_examples=60, deadline=None)
def test_pivot_suites_match_per_pair_oracle(m):
    assert _bits(_suite_j0_reduction(m, 1, None)) == _bits(oracle_j0_reduction_suite(m))
    assert _bits(_suite_factorization(m, 1, None)) == _bits(oracle_factorization_suite(m))
    s = m.alphabet_size
    for i in range(1, m.n):
        last = subtree_runs(m.tree, i)[-1][-1]
        for pipe in factorization_pipelines(m, i, range(i + 1, last + 1)):
            for w in range(s):
                for wp in range(s):
                    want = _bits(oracle_eta_factorization(m, i, pipe.j, w, wp))
                    assert _bits(eta_factorization(m, i, pipe.j, w, wp)) == want
                    assert _bits(pipe.trace(w, wp)) == want


def test_one_state_model_checks_no_pair():
    m = make_model(3, [(1, 2), (2, 3)], 1, [1.0], {(1, 2): [[1.0]], (2, 3): [[1.0]]})
    assert _suite_j0_reduction(m, 1, None) == oracle_j0_reduction_suite(m)
    assert _suite_factorization(m, 1, None) == oracle_factorization_suite(m)
    assert _suite_factorization(m, 1, None).status == "skip"


@pytest.mark.parametrize(
    "n, shape", [(9, {"width": 4, "depth": 2}), (8, {"width": 1}), (7, {"depth": 1}), (10, {})]
)
def test_factorization_builds_each_level_once_per_node(monkeypatch, n, shape):
    """The suite builds each node's level operators once and one frontier
    operator per pair (i, j), whatever the number of state pairs."""
    calls = []
    build = mixing.stochastic_tensor_product
    monkeypatch.setattr(
        mixing, "stochastic_tensor_product", lambda ops: calls.append(1) or build(ops)
    )
    counts = []
    for s in (2, 3):
        # random_model draws the tree first, so every s has the same tree.
        m = random_model(11, n=n, alphabet_size=s, **shape)
        calls.clear()
        assert _suite_factorization(m, 1, None).status == "pass"
        counts.append(len(calls))
    runs = [subtree_runs(m.tree, i) for i in range(1, m.n)]
    allowed = sum(len(r) + r[-1][-1] - i for i, r in enumerate(runs, start=1))
    assert counts[0] == counts[1] <= allowed
