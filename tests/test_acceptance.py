"""Acceptance checks: one test per release criterion, one line each.

Run with ``pytest tests/test_acceptance.py -v`` to get the per-criterion
pass/fail lines.  Every check is deterministic (fixed seeds throughout)
and enforces its stated tolerance; the two long-running checks also
enforce their wall-clock budgets.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np

from treemix.cli import main as cli_main
from treemix.concentration import (
    HAMMING,
    MixingMatrix,
    build_mixing_matrices,
    delta_inf_norm,
    gamma_l2_norm,
    linf_operator_norm,
    lipschitz_test_corpus,
    tail_bound,
)
from treemix.mixing import (
    eta_bar_bound_levels,
    eta_bar_bound_uniform,
    eta_bar_exact,
    geometric_rate,
)
from treemix.model import (
    contraction_coefficient,
    max_contraction,
    sample_paths,
)
from treemix.modelfile import random_model
from treemix.treegraph import first_descendant_at_or_after
from treemix.tvalgebra import (
    IndexedTensor,
    StochasticOperator,
    alpha,
    apply_operator,
    operator_tv_norm,
    tensor_product,
    tv_distance,
)

from conftest import oracle_eta_tables


def report(num: int, ok: bool, what: str, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status}  {what} ({detail})")
    assert ok, f"criterion {num} failed: {what} ({detail})"


def test_criterion_1_bound_dominance():
    # >= 500 random models, n <= 8, |S| <= 3: exact <= level bound <=
    # uniform closed form, slack >= -1e-12, under 5 minutes
    started = time.monotonic()
    worst = math.inf
    models = 0
    for seed in range(500):
        n = 4 + seed % 5
        s = 2 + seed % 2
        m = random_model(seed, n=n, alphabet_size=s)
        theta, wid = max_contraction(m), m.tree.width
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                exact = eta_bar_exact(m, i, j)
                level = eta_bar_bound_levels(m, i, j)
                uniform = eta_bar_bound_uniform(theta, wid, i, j)
                worst = min(worst, level - exact, uniform - level)
        models += 1
    elapsed = time.monotonic() - started
    ok = worst >= -1e-12 and elapsed < 300.0
    report(
        1, ok, "bound dominance exact <= level <= uniform",
        f"{models} models, worst slack {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_chain_reduction():
    # on random chains the level bound is the plain product of edge
    # coefficients (1e-15) and the width-1 closed form is theta**(j-i)
    # bit for bit
    worst = 0.0
    exact_power = True
    for seed in range(50):
        n = 3 + seed % 6
        m = random_model(seed, n=n, width=1)
        thetas = {
            v: contraction_coefficient(m, (v - 1, v)) for v in range(2, n + 1)
        }
        theta_max = max_contraction(m)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                level = eta_bar_bound_levels(m, i, j)
                product = math.prod(thetas[v] for v in range(i + 1, j + 1))
                worst = max(worst, abs(level - product))
                uniform = eta_bar_bound_uniform(theta_max, 1, i, j)
                exact_power = exact_power and uniform == theta_max ** (j - i)
    ok = worst <= 1e-15 and exact_power
    report(
        2, ok, "chain reduction to coefficient products",
        f"50 chains, worst product gap {worst:.3e}, "
        f"width-1 power exact: {exact_power}",
    )


def test_criterion_3_pivot_equality():
    # >= 100 random models: the coefficient table for (i, j) equals the
    # table for (i, j0) pointwise over feasible prefixes and state
    # pairs (1e-12), and the enumerated table vanishes (1e-12) whenever
    # the pivot is absent
    worst = 0.0
    worst_zero = 0.0
    reduced_pairs = 0
    zero_pairs = 0
    for seed in range(100):
        n = 4 + seed % 4
        m = random_model(seed, n=n, alphabet_size=2)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                j0 = first_descendant_at_or_after(m.tree, i, j)
                if j0 is None:
                    tv, _ = oracle_eta_tables(m, i, j)
                    worst_zero = max(worst_zero, float(tv.max()))
                    zero_pairs += 1
                    continue
                if j0 == j:
                    continue
                tv_j, feas = oracle_eta_tables(m, i, j)
                tv_p, _ = oracle_eta_tables(m, i, j0)
                both = feas[:, :, None] & feas[:, None, :]
                gap = np.abs(tv_j - tv_p)[both]
                if gap.size:
                    worst = max(worst, float(gap.max()))
                reduced_pairs += 1
    ok = (
        worst <= 1e-12 and worst_zero <= 1e-12
        and zero_pairs > 0 and reduced_pairs > 0
    )
    report(
        3, ok, "pivot reduction is pointwise exact",
        f"100 models, {reduced_pairs} reduced pairs (max gap {worst:.3e}), "
        f"{zero_pairs} empty-subtree pairs (max coefficient {worst_zero:.3e})",
    )


def _random_distribution(rng, size):
    raw = rng.random(size)
    if rng.random() < 0.3:
        raw[rng.random(size) < 0.4] = 0.0
        if raw.sum() == 0.0:
            raw[int(rng.integers(size))] = 1.0
    return raw / raw.sum()


def test_criterion_4_algebra_suites():
    rng = np.random.default_rng(2024)
    tol = 1e-12

    # two-factor inequality on 1e4 random distribution quadruples
    worst_pair = 0.0
    for _ in range(10_000):
        sx = int(rng.integers(1, 6))
        sy = int(rng.integers(1, 6))
        size = max(sx, sy)
        p = IndexedTensor((1,), size, np.pad(_random_distribution(rng, sx), (0, size - sx)))
        pp = IndexedTensor((1,), size, np.pad(_random_distribution(rng, sx), (0, size - sx)))
        q = IndexedTensor((2,), size, np.pad(_random_distribution(rng, sy), (0, size - sy)))
        qp = IndexedTensor((2,), size, np.pad(_random_distribution(rng, sy), (0, size - sy)))
        lhs = tv_distance(tensor_product([p, q]), tensor_product([pp, qp]))
        a, b = tv_distance(p, pp), tv_distance(q, qp)
        worst_pair = max(worst_pair, lhs - alpha([a, b]))

    # contraction inequality on 1e4 random operator/tensor pairs
    worst_contr = 0.0
    for _ in range(10_000):
        s = int(rng.integers(2, 6))
        mat = rng.random((s, s))
        mat /= mat.sum(axis=0)
        op = StochasticOperator((2,), (1,), s, mat)
        u = IndexedTensor(
            (2,), s, _random_distribution(rng, s) - _random_distribution(rng, s)
        )
        worst_contr = max(
            worst_contr,
            apply_operator(op, u).tv_norm - operator_tv_norm(op) * u.tv_norm,
        )

    # combination-rule properties on exhaustive step-0.1 grids, k <= 4
    grid = [i / 10.0 for i in range(11)]
    worst_alpha = 0.0
    contains_one_exact = True
    for k in range(1, 5):
        for xs in itertools.product(grid, repeat=k):
            val = alpha(xs)
            # (a) symmetric in its arguments
            for perm in itertools.permutations(xs):
                worst_alpha = max(worst_alpha, abs(alpha(perm) - val))
            # (b) stays in [0, 1], monotone coordinatewise
            worst_alpha = max(worst_alpha, val - 1.0, -val)
            for pos in range(k):
                if xs[pos] < 1.0:
                    bumped = list(xs)
                    bumped[pos] = min(1.0, xs[pos] + 0.1)
                    worst_alpha = max(worst_alpha, val - alpha(bumped))
            # (c) monotone under adding arguments
            if k > 1:
                for keep in range(1, 2**k - 1):
                    sub = [x for b, x in enumerate(xs) if keep >> b & 1]
                    worst_alpha = max(worst_alpha, alpha(sub) - val)
            # (d) equal arguments collapse to 1 - (1 - x)^k
            if len(set(xs)) == 1:
                worst_alpha = max(
                    worst_alpha, abs(val - (1.0 - (1.0 - xs[0]) ** k))
                )
            # (e) any argument equal to 1 forces the value 1, exactly
            if 1.0 in xs:
                contains_one_exact = contains_one_exact and val == 1.0
            # (f) never exceeds the plain sum
            worst_alpha = max(worst_alpha, val - sum(xs))

    ok = (
        worst_pair <= tol
        and worst_contr <= tol
        and worst_alpha <= tol
        and contains_one_exact
    )
    report(
        4, ok, "tensor, contraction, and combination-rule algebra",
        f"two-factor {worst_pair:.3e}, contraction {worst_contr:.3e}, "
        f"combination {worst_alpha:.3e}, absorbing-one exact: "
        f"{contains_one_exact}",
    )


def test_criterion_5_closed_form_values():
    checks = []
    checks.append(abs(eta_bar_bound_uniform(0.5, 2, 1, 5) - 0.5625) <= 1e-12)
    checks.append(abs(geometric_rate(0.5, 2) - 0.75 ** (1.0 / 3.0)) <= 1e-12)

    floor_ok = all(
        k // L >= k / (2 * L - 1)
        for L in range(1, 201)
        for k in range(L, 201)
    )
    checks.append(floor_ok)

    # top singular value of [[1, 1], [0, 1]] against the root of the
    # characteristic polynomial x^2 - 3x + 1 of the Gram matrix
    g = MixingMatrix("exact", np.array([[1.0, 1.0], [0.0, 1.0]]) ** 2)
    oracle = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    power = gamma_l2_norm(g)
    checks.append(abs(power - oracle) <= 1e-8 and abs(oracle - golden) <= 1e-15)

    ok = all(checks)
    report(
        5, ok, "closed-form values and floor inequality",
        f"uniform 0.5625, rate 0.75^(1/3), floor grid 200, "
        f"power iteration {power:.10f} vs {oracle:.10f}",
    )


def test_criterion_6_tail_bound_validity():
    # 50 models (n <= 8, binary), three corpus functions each, t-grid
    # {0.05, 0.1, 0.2, 0.3, 0.5}, 1e5 samples: empirical frequency
    # minus the 3-sigma radius never exceeds the certified bound
    started = time.monotonic()
    t_grid = (0.05, 0.1, 0.2, 0.3, 0.5)
    samples = 100_000
    worst_margin = -math.inf
    checks = 0
    for seed in range(50):
        n = 4 + seed % 5
        m = random_model(seed, n=n, alphabet_size=2)
        delta = build_mixing_matrices(m, "exact")
        norm = delta_inf_norm(delta)
        batch = sample_paths(m, 777, samples)
        weights = 2 ** np.arange(n - 1, -1, -1, dtype=np.int64)
        idx = batch @ weights
        table = m.joint_table().reshape(-1)
        corpus = lipschitz_test_corpus(n, 2, np.random.default_rng(4000 + seed))
        for _, f in corpus:
            mean = float(table @ f)
            dev = np.abs(f[idx] - mean)
            for t in t_grid:
                p_hat = float((dev > t).mean())
                radius = 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / samples)
                cert = tail_bound(n, norm, t, HAMMING).tail_bound
                worst_margin = max(worst_margin, p_hat - radius - cert)
                checks += 1
    elapsed = time.monotonic() - started
    ok = worst_margin <= 0.0 and elapsed < 600.0
    report(
        6, ok, "certified tail bounds dominate simulation",
        f"{checks} checks, worst margin {worst_margin:.3e}, {elapsed:.1f}s",
    )


def test_criterion_7_norm_identity():
    # row-sum formula equals the generic operator norm with zero
    # tolerance on 1e3 random upper-triangular unit-diagonal matrices
    rng = np.random.default_rng(99)
    exact = True
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        mat = np.eye(n)
        iu = np.triu_indices(n, k=1)
        mat[iu] = rng.random(iu[0].size)
        d = MixingMatrix("level-bound", mat)
        exact = exact and delta_inf_norm(d) == linf_operator_norm(d.entries)
    report(7, exact, "triangular row-sum norm identity", "1000 matrices, exact equality")


def test_criterion_8_csv_determinism(tmp_path):
    model = str(tmp_path / "model.json")
    assert cli_main(["gen", "--nodes", "6", "--seed", "5", "-o", model]) == 0

    pairs = []
    for name, argv in (
        ("sample", ["sample", model, "--count", "200", "--seed", "11"]),
        ("verify", ["verify", model, "--trials", "80", "--seed", "11"]),
    ):
        a = str(tmp_path / f"{name}_a.csv")
        b = str(tmp_path / f"{name}_b.csv")
        assert cli_main(argv + ["--csv", a]) == 0
        assert cli_main(argv + ["--csv", b]) == 0
        pairs.append(Path(a).read_bytes() == Path(b).read_bytes())

    ok = all(pairs)
    report(
        8, ok, "sample and verify CSV output is byte-identical",
        f"sample: {pairs[0]}, verify: {pairs[1]}",
    )
