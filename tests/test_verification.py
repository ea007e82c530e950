import numpy as np
import pytest

from treemix.mixing import eta_report
from treemix.modelfile import random_model
from treemix.verification import _SUITES, _suite_bound_dominance, run_verification

from conftest import sparsified

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
