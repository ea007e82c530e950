import collections
import dataclasses
import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemix import MarkovTreeModel, mixing, treegraph, tvalgebra, verification
from treemix.concentration import SOURCES, build_mixing_matrices
from treemix.mixing import eta_bar_bound_levels, eta_factorization, eta_report
from treemix.modelfile import parse_model_file, random_model, serialize_model
from treemix.treegraph import build_tree, subtree_runs
from treemix.tvalgebra import alpha
from treemix.verification import _SUITES, SuiteResult, run_verification

from conftest import (
    make_model,
    oracle_eta_tables,
    oracle_j0_reduction_suite,
    oracle_tensor_two_factor_suite,
    oracle_tv_contraction_suite,
    oracle_tv_tables,
    run_suite,
    sparsified,
)

SUITE_NAMES = [name for name, _, _ in _SUITES]


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
        # Both dominance suites need the exact Delta; norm-identity reads
        # only the level source's and still runs.
        for name in ("bound-dominance", "provenance-dominance"):
            assert by_name[name].status == "skip"
            assert "cap" in by_name[name].note
        assert by_name["norm-identity"].status == "pass"
        # algebra suites do not need the table and still run
        assert by_name["alpha-rules"].status == "pass"
        assert by_name["sampling-determinism"].status == "pass"

    def test_each_product_is_computed_once(self, monkeypatch):
        """One run builds each source's Delta once, reads the exact rows
        from it (each row is swept once, by that build) and each pivot
        from the frontier sweep.  A second run on the same model builds
        them all again: no run reads another's products."""
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name if name != "build" else args[1]] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(verification, "build_mixing_matrices",
                            counted("build", verification.build_mixing_matrices))
        monkeypatch.setattr(mixing, "exact_row", counted("exact_row", mixing.exact_row))
        walk = counted("walk", treegraph.first_descendant_at_or_after)
        for module in (treegraph, mixing, verification):
            monkeypatch.setattr(module, "first_descendant_at_or_after", walk, raising=False)
        m = random_model(4, n=9, width=3)
        results = run_verification(m, trials=20, seed=1)
        assert all(r.status == "pass" for r in results), results
        assert calls == {"exact": 1, "level-bound": 1, "uniform-bound": 1, "exact_row": m.n - 1}
        assert run_verification(m, trials=20, seed=1) == results
        assert calls == {"exact": 2, "level-bound": 2, "uniform-bound": 2, "exact_row": 2 * (m.n - 1)}

    def test_leaves_no_state_on_the_model(self):
        """A run adds to the model only its own cached properties."""
        m = random_model(4, n=9, width=3)
        before = set(vars(m))
        run_verification(m, trials=20, seed=1)
        assert set(vars(m)) - before == {"_joint_table", "edge_thetas", "node_marginals"}

    def test_reused_model_rechecks_the_cap(self, monkeypatch):
        """A model verified once, then again under a lower cap, reports
        what a freshly built model reports: its cached joint table is not
        read past the cap."""
        m = random_model(4, n=9, width=3)
        assert all(r.status == "pass" for r in run_verification(m, trials=20, seed=1))
        monkeypatch.setenv("TREEMIX_MAX_ENUM", "16")
        reused = run_verification(m, trials=20, seed=1)
        fresh = run_verification(random_model(4, n=9, width=3), trials=20, seed=1)
        assert [(r.name, r.status) for r in reused] == [(r.name, r.status) for r in fresh]
        assert sum(r.status == "skip" for r in reused) == 7

    def test_deterministic(self, binary7_05):
        a = run_verification(binary7_05, trials=60, seed=9)
        b = run_verification(binary7_05, trials=60, seed=9)
        assert a == b

    def test_trials_validated(self, chain3_07):
        with pytest.raises(ValueError, match="trials"):
            run_verification(chain3_07, trials=0)

    def test_drifted_library_chain_verifies(self):
        # Column 0 of each kernel is [1 - 9e-10, 0]: accepted, and every
        # suite reads it normalized to [1, 0].
        topo, _ = build_tree(3, [(1, 2), (2, 3)])
        kernel = [[1 - 9e-10, 0.0], [0.0, 1.0]]
        m = MarkovTreeModel(topo, 2, np.array([0.5, 0.5]), np.array([kernel, kernel]))
        results = run_verification(m, trials=50, seed=1)
        assert [r for r in results if r.status == "fail"] == []

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
            exact, level, uniform = (v for _, v in eta_report(m, i, j).values)
            worst = max(worst, exact - level)
            worst = max(worst, level - uniform)
            pairs += 1
    result = run_suite(m, "bound-dominance")
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


# Shapes of random_model: chain, star, unconstrained, width 2.
_SHAPES = [{"width": 1}, {"depth": 1}, {}, {"width": 2}]


@st.composite
def pivot_models(draw, max_n=(12, 9)):
    """Models over 2 or 3 states with at most ``max_n[s - 2]`` nodes."""
    s = draw(st.integers(2, 3))
    n = draw(st.integers(2, max_n[s - 2]))
    seed = draw(st.integers(0, 10**6))
    m = random_model(seed, n=n, alphabet_size=s, **draw(st.sampled_from(_SHAPES)))
    if draw(st.booleans()):
        m = sparsified(m, seed, deterministic_root=draw(st.booleans()))
    return m


@st.composite
def drifted_models(draw):
    """A :func:`pivot_models` model whose root law and kernel columns drift
    off a sum of 1: by up to 0.9e-9 through the library, or by up to 1e-13
    in the rows of a model file."""
    m = draw(pivot_models(max_n=(9, 6)))
    s, rng = m.alphabet_size, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        drift = 1.0 + 0.9e-9 * rng.uniform(-1.0, 1.0, (m.n, 1, s))
        return MarkovTreeModel(m.tree, s, m.root_dist * drift[0, 0], m.kernel_stack * drift[1:])
    doc = serialize_model(m)
    for row in [doc["root_dist"]] + [row for e in doc["edges"] for row in e["kernel"]]:
        row[:] = (np.array(row) * (1.0 + rng.uniform(-1e-13, 1e-13))).tolist()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drifted.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return parse_model_file(path)[0]


@given(drifted_models())
@settings(max_examples=40, deadline=None)
def test_drifted_models_keep_the_ladder(m):
    upper = np.triu_indices(m.n, k=1)
    exact, level, uniform = (
        build_mixing_matrices(m, source).entries[upper] for source in SOURCES
    )
    assert (exact <= level + 1e-12).all() and (level <= uniform + 1e-12).all()
    results = run_verification(m, trials=20, seed=1)
    assert [r for r in results if r.status == "fail"] == []


def _sweep_trials(m):
    """Number of (i, j, w, w') with ``w < w'`` and j up to the last
    subtree node of i."""
    s = m.alphabet_size
    pairs_ij = sum(subtree_runs(m.tree, i)[-1][-1] - i for i in range(1, m.n))
    return pairs_ij * s * (s - 1) // 2


@given(pivot_models())
@settings(max_examples=60, deadline=None)
def test_pivot_suites_match_per_pair_oracle(m):
    assert _bits(run_suite(m, "j0-reduction")) == _bits(oracle_j0_reduction_suite(m))
    result = run_suite(m, "factorization")
    assert (result.status, result.trials) == ("pass", _sweep_trials(m))


# A star's frontier operator has s ** (n - 1) rows and columns; these node
# counts keep it under 250.
@given(pivot_models(max_n=(7, 6)))
@settings(max_examples=60, deadline=None)
def test_eta_factorization_matches_enumeration(m):
    """The operator pipeline gives the enumerated eta at every feasible
    prefix, and its inequality chain holds up to the level bound."""
    s = m.alphabet_size
    for i in range(1, m.n):
        for j in range(i + 1, subtree_runs(m.tree, i)[-1][-1] + 1):
            tv, feasible = oracle_eta_tables(m, i, j)
            level = eta_bar_bound_levels(m, i, j)
            for w in range(s):
                for wp in range(s):
                    trace = eta_factorization(m, i, j, w, wp)
                    both = feasible[:, w] & feasible[:, wp]
                    gap = np.abs(tv[both, w, wp] - trace.value)
                    assert gap.max(initial=0.0) <= 1e-12
                    assert trace.value <= trace.norm_chain_bound + 1e-12
                    assert trace.norm_chain_bound <= trace.alpha_product + 1e-12
                    assert trace.alpha_product <= level + 1e-12


def test_one_state_model_checks_no_pair():
    m = make_model(3, [(1, 2), (2, 3)], 1, [1.0], {(1, 2): [[1.0]], (2, 3): [[1.0]]})
    assert run_suite(m, "j0-reduction") == oracle_j0_reduction_suite(m)
    assert run_suite(m, "factorization") == SuiteResult(
        "factorization", "skip", None, 0, "no pair (i, j) with a pivot"
    )


_MUTANT_MODELS = [
    dict(seed=3, n=7, alphabet_size=2, width=1),
    dict(seed=4, n=7, alphabet_size=3, depth=1),
    dict(seed=5, n=9, alphabet_size=2, width=3),
    dict(seed=6, n=8, alphabet_size=3),
]


def _assert_tables_match_oracle(m):
    """Every (i, j) table of the pivot pass, tail sums by slab, equals the
    one of :func:`oracle_tv_tables`, which sums with ``ndarray.sum``, bit
    for bit: TV, feasibility and prefix mass.  Returns whether some prefix
    has zero mass."""
    infeasible = False
    for i in range(1, m.n):
        tables = [verification._tv_tables(tail) for tail in verification._tail_laws(m, i)]
        oracle = oracle_tv_tables(m, i)
        assert len(tables) == len(oracle) == m.n - i
        for (tv, feasible, mass), (o_tv, o_feasible, o_mass) in zip(tables, oracle):
            assert tv.tobytes() == o_tv.tobytes()
            assert mass.tobytes() == o_mass.tobytes()
            assert np.array_equal(feasible, o_feasible)
            infeasible |= not feasible.all()
    return infeasible


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("params", _MUTANT_MODELS)
def test_tv_tables_match_oracle(params, sparse):
    """The one-pass divide and the slab sums give the oracle's tables,
    bit for bit, also where a prefix has zero mass."""
    m = random_model(**params)
    if sparse:
        m = sparsified(m, params["seed"], deterministic_root=True)
    assert _assert_tables_match_oracle(m) == sparse


# Largest node count per alphabet size that keeps the joint table small.
_TABLE_NODES = {2: 10, 3: 7, 4: 6, 8: 4, 10: 4, 12: 4}


@st.composite
def table_models(draw):
    """Models over 2-12 states, some sparsified, some read from a file
    whose kernel holds a -0.0 entry."""
    s = draw(st.sampled_from(sorted(_TABLE_NODES)))
    n = draw(st.integers(2, _TABLE_NODES[s]))
    seed = draw(st.integers(0, 10**6))
    m = random_model(seed, n=n, alphabet_size=s, **draw(st.sampled_from(_SHAPES)))
    kind = draw(st.sampled_from(["plain", "sparse", "signed-zero"]))
    if kind == "sparse":
        return sparsified(m, seed, deterministic_root=draw(st.booleans()))
    if kind == "plain":
        return m
    # The parser keeps -0.0, and numpy sums a line of -0.0 cells to +0.0.
    doc = serialize_model(m)
    row = draw(st.sampled_from(doc["edges"]))["kernel"][draw(st.integers(0, s - 1))]
    k = draw(st.integers(0, s - 1))
    row[k], row[k - 1] = -0.0, row[k - 1] + row[k]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "signed-zero.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        m = parse_model_file(path)[0]
    assert np.signbit(m.kernel_stack).any()
    return m


@given(table_models())
@settings(max_examples=80, deadline=None)
def test_enumeration_tables_match_oracle(m):
    _assert_tables_match_oracle(m)


def test_single_node_model_has_no_pairs():
    m = make_model(1, [], 2, [0.3, 0.7], {})
    by_name = {r.name: r for r in run_verification(m, trials=20, seed=1)}
    for name in ("j0-reduction", "bound-dominance", "provenance-dominance"):
        assert by_name[name] == SuiteResult(
            name, "skip", None, 0, "single-node model has no pairs"
        )
    assert by_name["factorization"].status == "skip"
    assert all(r.status != "fail" for r in by_name.values())


_CAP = "joint table exceeds the enumeration cap"
_NO_BRANCH = "no node with two or more children"
_NO_PAIRS = "single-node model has no pairs"
_NO_PIVOT = "no pair (i, j) with a pivot"
_PAIR_SUITES = ("j0-reduction", "bound-dominance", "provenance-dominance")
_TABLE_SUITES = ("measure-normalization", "factorization", "sampling-frequency")

# (n, alphabet size, TREEMIX_MAX_ENUM) of random_model(7, n, width=1), a
# chain: the note of each suite that skips.  Every other suite passes.
_TINY_SKIPS = {
    (1, 2, None): {
        "markov-property": _NO_BRANCH, "factorization": _NO_PIVOT,
        **dict.fromkeys(_PAIR_SUITES, _NO_PAIRS),
    },
    # Over the cap, a single-node model still has no pairs first.
    (1, 1001, "1000"): {
        "markov-property": _NO_BRANCH, **dict.fromkeys(_TABLE_SUITES, _CAP),
        **dict.fromkeys(_PAIR_SUITES, _NO_PAIRS),
    },
    (2, 2, None): {"markov-property": _NO_BRANCH},
    (2, 40, "1000"): {
        "markov-property": _NO_BRANCH,
        **dict.fromkeys(_TABLE_SUITES + _PAIR_SUITES, _CAP),
    },
    (3, 2, None): {"markov-property": _NO_BRANCH},
}


@pytest.mark.parametrize("n, s, cap", list(_TINY_SKIPS))
def test_tiny_model_suite_notes(monkeypatch, n, s, cap):
    """Each suite's status and note on the smallest models, under and
    over the cap: which skip note wins where two apply."""
    if cap is None:
        monkeypatch.delenv("TREEMIX_MAX_ENUM", raising=False)
    else:
        monkeypatch.setenv("TREEMIX_MAX_ENUM", cap)
    m = random_model(7, n, alphabet_size=s, width=1)
    skips = _TINY_SKIPS[n, s, cap]
    assert [(r.name, r.status, r.note) for r in run_verification(m, trials=20, seed=1)] == [
        (name, "skip", skips[name]) if name in skips else (name, "pass", "")
        for name in SUITE_NAMES
    ]


def _perturbed(sweep):
    def mutant(m, i):
        for js, laws in sweep(m, i):
            laws = laws.copy()
            laws[0, 0] += 1e-9
            yield js, laws
    return mutant


def _late(sweep):
    def mutant(m, i):
        for js, laws in sweep(m, i):
            yield range(js.start + 1, min(js.stop + 1, m.n + 1)), laws
    return mutant




@pytest.mark.parametrize("mutate", [_perturbed, _late])
@pytest.mark.parametrize("params", _MUTANT_MODELS)
def test_factorization_suite_catches_mutated_sweep(monkeypatch, mutate, params):
    assert run_suite(random_model(**params), "factorization").status == "pass"
    monkeypatch.setattr(mixing, "_frontier_laws", mutate(mixing._frontier_laws))
    assert run_suite(random_model(**params), "factorization").status == "fail"


def test_factorization_suite_catches_loose_alpha(monkeypatch):
    """On a 2-state chain each level's TV is exactly theta times the last,
    so a contraction 1% short of the alpha rule fails the suite."""
    params = dict(seed=9, n=8, alphabet_size=2, width=1)
    assert run_suite(random_model(**params), "factorization").status == "pass"
    monkeypatch.setattr(verification, "alpha", lambda thetas: 0.99 * alpha(thetas))
    assert run_suite(random_model(**params), "factorization").status == "fail"


def test_verify_builds_no_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify built a dense operator")

    for name in ("stochastic_tensor_product", "apply_operator"):
        monkeypatch.setattr(tvalgebra, name, refuse)
        monkeypatch.setattr(mixing, name, refuse)
    monkeypatch.setattr(tvalgebra.StochasticOperator, "__post_init__", refuse)
    for params in _MUTANT_MODELS:
        m = random_model(**params)
        assert run_suite(m, "factorization").status == "pass"
        assert all(r.status != "fail" for r in run_verification(m, trials=20, seed=1))


def test_factorization_suite_memory_on_star():
    """The suite holds one frontier law at a time, not a dense operator
    over the whole level of a 9-node star with 3 states."""
    m = random_model(5001, n=9, alphabet_size=3, depth=1)
    m.joint_table()
    tracemalloc.start()
    try:
        result = run_suite(m, "factorization")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status == "pass"
    assert peak < 64 * 2**20


def test_verify_passes_on_twelve_node_star():
    m = random_model(5001, n=12, alphabet_size=3, depth=1)
    results = run_verification(m, trials=50, seed=1)
    assert [r.name for r in results] == SUITE_NAMES
    assert all(r.status == "pass" for r in results), results


@pytest.mark.parametrize(
    "module, name, suite",
    [(verification, "column_tv_norms", "tv-contraction"), (mixing, "_alphas", "tensor-two-factor")],
    ids=["column_tv_norm-tv-contraction", "alpha-tensor-two-factor"],
)
def test_algebra_suites_check_the_library(monkeypatch, module, name, suite):
    """The algebra suites take the norm and the alpha bound from the
    library (the alpha fold of the level rung, pinned to ``alpha`` by
    ``test_mixing.py``), so a library function 10% short makes its suite
    fail."""
    m = random_model(3, n=6)

    def status():
        results = run_verification(m, trials=500, seed=42)
        return {r.name: r.status for r in results}[suite]

    assert status() == "pass"
    honest = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: 0.9 * honest(*args))
    assert status() == "fail"


@pytest.mark.parametrize("seed", [0, 42, 977])
@pytest.mark.parametrize("trials", [1, 2, 7, 40, 500, verification._TRIAL_CHUNK + 1])
@pytest.mark.parametrize(
    "suite, oracle",
    [
        ("tv-contraction", oracle_tv_contraction_suite),
        ("tensor-two-factor", oracle_tensor_two_factor_suite),
    ],
    ids=["tv-contraction", "tensor-two-factor"],
)
def test_trial_suites_match_per_trial_oracle(suite, oracle, trials, seed):
    """The stacked suites read the per-trial loop's stream and return its
    result, bit for bit, so every later suite draws the same seed."""
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _bits(run_suite(None, suite, trials, rng)) == _bits(oracle(None, trials, oracle_rng))
    assert rng.integers(0, 2**63) == oracle_rng.integers(0, 2**63)


def test_trial_suites_hold_one_chunk():
    """The stacked suites hold one chunk of trials at a time, so four
    chunks peak about where one does."""
    def peak(trials):
        tracemalloc.start()
        try:
            for suite in ("tv-contraction", "tensor-two-factor"):
                run_suite(None, suite, trials, np.random.default_rng(0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # numpy's one-time allocations land here
    one = peak(verification._TRIAL_CHUNK)
    assert peak(4 * verification._TRIAL_CHUNK) < 1.5 * one
