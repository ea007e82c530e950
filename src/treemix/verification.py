"""Self-check suites run by the ``verify`` CLI command.

Each suite exercises one identity or inequality the implementation is
supposed to satisfy on the given model, reports its worst violation,
and passes or fails against a fixed tolerance.  Suites that need the
joint table are skipped (not failed) when building it would exceed the
enumeration cap.  Everything is deterministic given the seed.

Each product is computed once per model.  The j0-reduction and
factorization suites read one frontier sweep per node, the sweep every
exact command runs, against the node's enumeration tables, so no suite
builds an object larger than the joint table.  Each source's Delta is
built once and cached on the model: both dominance suites read one
ladder check of them, and norm-identity reads the level source's.

The tv-contraction and tensor-two-factor suites draw each trial on its
own, in order, from one stream, so every later suite's seed does not
depend on how the trials are checked.  They check them in array passes:
the draws of each chunk of at most ``_TRIAL_CHUNK`` trials are stacked
by shape and normalized and checked together, so memory stays bounded
for any trial count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import mixing
from .concentration import (
    SOURCES,
    MixingMatrix,
    build_mixing_matrices,
    delta_inf_norm,
    linf_operator_norm,
)
from .model import (
    EnumerationLimitError,
    MarkovTreeModel,
    sample_paths,
    verify_markov_property,
)
from .tvalgebra import alpha, column_tv_norms

_TOL = 1e-12
# Trials per array pass of the random-trial suites: one chunk's draws are
# held at a time, so memory stays bounded for any trial count.
_TRIAL_CHUNK = 1024
_NO_PAIRS = "single-node model has no pairs"


@dataclass(frozen=True)
class SuiteResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    max_violation: float | None
    trials: int
    note: str = ""


def _result(name: str, violation: float, trials: int, tol: float = _TOL) -> SuiteResult:
    status = "pass" if violation <= tol else "fail"
    return SuiteResult(name, status, violation, trials)


def _skip(name: str, note: str) -> SuiteResult:
    return SuiteResult(name, "skip", None, 0, note)


def _delta(m: MarkovTreeModel, source: str) -> MixingMatrix:
    """The Delta that ``build_mixing_matrices(m, source)`` returns, built
    once per model and source and cached on the model, like the joint
    table.  Every source admits the model through its ``SOURCES`` entry
    on every call: a refused source caches nothing and blocks no other,
    and the cached exact Delta is read only while the model is under the
    cap."""
    SOURCES[source](m)
    deltas = m.__dict__.setdefault("_deltas", {})
    if source not in deltas:
        deltas[source] = build_mixing_matrices(m, source)[0]
    return deltas[source]


def _suite_measure_normalization(m, trials, rng) -> SuiteResult:
    total = float(m.joint_table().sum())
    return _result("measure-normalization", abs(total - 1.0), 1, tol=1e-10)


def _suite_markov_property(m, trials, rng) -> SuiteResult:
    branchers = [u for u in range(1, m.n + 1) if len(m.tree.children[u]) >= 2]
    if not branchers:
        return _skip("markov-property", "no node with two or more children")
    worst = 0.0
    for u in branchers:
        _, violation = verify_markov_property(m, u)
        worst = max(worst, violation)
    return _result("markov-property", worst, len(branchers))


# The enumeration oracle: eta(i, j; y, w, w') for every prefix y, read
# off the joint table.  The exact engine (mixing.exact_row) never builds
# the table; the j0-reduction and factorization suites check the pivot
# identity and the engine's frontier sweep against these tables.  They
# tabulate each pair (i, j) once per run and hold one node's tables at a
# time.


def _tail_laws(m: MarkovTreeModel, i: int) -> Iterator[np.ndarray]:
    """Unnormalised laws of (x_{1..i-1}, x_i, x_{j..n}) for j = i+1, i+2, ...

    Each is shaped ``(prefix, w, tail configurations)``.  The first is a
    view of the joint table; each next one sums out one more node.
    """
    s = m.alphabet_size
    tail = m.joint_table().reshape(s ** (i - 1), s, -1)
    yield tail
    for _ in range(i + 1, m.n):
        tail = tail.reshape(tail.shape[0], s, s, -1).sum(axis=2)
        yield tail


def _tv_tables(tail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eta(i, j; y, w, w') from one tail law of :func:`_tail_laws`.

    Returns ``(tv, feasible)`` where ``tv[y, w, w']`` is the coefficient
    for prefix ``y`` (flat over nodes ``1..i-1``) and ``feasible[y, w]``
    marks prefixes with positive probability.  Infeasible entries of
    ``tv`` are zero.
    """
    s = tail.shape[1]
    mass = tail.sum(axis=2)  # (prefix, w)
    feasible = mass > 0.0
    # An infeasible row is all zeros, so dividing it by 1 leaves it zero.
    laws = tail / np.where(feasible, mass, 1.0)[:, :, None]
    tv = np.zeros((tail.shape[0], s, s))
    for w in range(s):
        for wp in range(w + 1, s):
            d = 0.5 * np.abs(laws[:, w, :] - laws[:, wp, :]).sum(axis=1)
            both = feasible[:, w] & feasible[:, wp]
            # Laws with disjoint supports can sum to just over 1 in rounding.
            d = np.where(both, np.minimum(d, 1.0), 0.0)
            tv[:, w, wp] = d
            tv[:, wp, w] = d
    return tv, feasible


def _pivot_suites(m: MarkovTreeModel) -> tuple[SuiteResult, SuiteResult]:
    """The j0-reduction and factorization suites from one frontier sweep per node.

    Each node's enumeration tables are tabulated once and read by both
    suites; only one node's tables are held at a time.  Each law of
    :func:`mixing._frontier_laws` serves every ``j`` in its ``js``, and
    all of them pivot at ``j0 = js.stop - 1``: their tables must equal
    the pivot's, and each table past the last subtree node must be 0.
    Each swept TV must equal the enumerated one at every feasible prefix,
    and each exact row of the Delta the commands print the enumerated
    supremum.  The law yielded after the last node of a subtree run is
    the law of the next level, whose TV the alpha rule contracts:
    ``TV_k <= alpha_k TV_(k-1)``, with ``TV_0 = 1``.  Every frontier in
    between is a function of the level above it, so its TV is at most
    that level's.  Neither suite draws from the rng, so the pair is
    computed once per model and cached on it, like the joint table it
    reads, and read again only while the model is under the cap.
    """
    m.check_table_cap()
    cached = m.__dict__.get("_pivot_suites")
    if cached is not None:
        return cached
    pairs = w, wp = np.triu_indices(m.alphabet_size, k=1)
    reduction = worst = 0.0
    checked = 0
    for i in range(1, m.n):
        tables = [_tv_tables(tail) for tail in _tail_laws(m, i)]
        runs, levels = mixing._subtree_levels(m, i)
        level_alpha = {run[-1]: alpha(thetas) for run, thetas in zip(runs, levels)}
        sup = [tv.max() for tv, _ in tables]
        exact = _delta(m, "exact").entries[i - 1, i:]
        worst = max(worst, float(np.abs(exact - sup).max()))
        level_tv = np.ones(len(w))
        end = 0
        for js, laws in mixing._frontier_laws(m, i):
            swept = mixing._pair_tvs(laws, pairs)
            end = js.stop - i - 1
            pivot = tables[end - 1][0]
            for tv, feasible in tables[js.start - i - 1 : end]:
                reduction = max(reduction, float(np.abs(tv - pivot).max()))
                both = feasible[:, w] & feasible[:, wp]
                gap = np.abs(tv[:, w, wp] - swept)[both]
                worst = max(worst, float(gap.max(initial=0.0)))
                checked += len(w)
            a = level_alpha.get(js.start - 1)
            if a is None:
                worst = max(worst, float((swept - level_tv).max(initial=0.0)))
            else:
                worst = max(worst, float((swept - a * level_tv).max(initial=0.0)))
                level_tv = swept
        for tv, _ in tables[end:]:
            reduction = max(reduction, float(np.abs(tv).max()))
        del tables
    cached = (
        _result("j0-reduction", reduction, m.n * (m.n - 1) // 2),
        _result("factorization", worst, checked) if checked
        else _skip("factorization", "no pair (i, j) with a pivot"),
    )
    m.__dict__["_pivot_suites"] = cached
    return cached


def _suite_j0_reduction(m, trials, rng) -> SuiteResult:
    if m.n == 1:
        return _skip("j0-reduction", _NO_PAIRS)
    return _pivot_suites(m)[0]


def _suite_factorization(m, trials, rng) -> SuiteResult:
    return _pivot_suites(m)[1]


def _ladder_violation(m: MarkovTreeModel) -> float:
    """Largest amount, or 0.0, by which a source's Delta exceeds the next,
    looser one's on the strictly-upper entries, the rows every command
    prints.  Gamma entries are sqrt(delta) and IEEE sqrt is monotone, so
    gamma dominance follows entrywise.
    """
    upper = np.triu_indices(m.n, k=1)
    rungs = [_delta(m, source).entries[upper] for source in SOURCES]
    return max(0.0, *(float((a - b).max(initial=0.0)) for a, b in zip(rungs, rungs[1:])))


def _suite_bound_dominance(m, trials, rng) -> SuiteResult:
    if m.n == 1:
        return _skip("bound-dominance", _NO_PAIRS)
    return _result("bound-dominance", _ladder_violation(m), m.n * (m.n - 1) // 2)


def _stacked_trials(
    trials: int, draw: Callable[[], tuple[np.ndarray, ...]]
) -> Iterator[tuple[np.ndarray, ...]]:
    """The ``trials`` draws of a random-trial suite, stacked by shape.

    ``draw`` makes one trial's rng calls and returns its arrays; it is
    called once per trial, in order, so the stream, and the seed of every
    later suite, is what a loop over trials reads.  The draws of each
    chunk of at most ``_TRIAL_CHUNK`` trials are grouped by shape, and
    each group is yielded as its arrays stacked along a new first axis.
    """
    for start in range(0, trials, _TRIAL_CHUNK):
        groups: dict[tuple, list[tuple[np.ndarray, ...]]] = {}
        for _ in range(min(_TRIAL_CHUNK, trials - start)):
            arrays = draw()
            groups.setdefault(tuple(a.shape for a in arrays), []).append(arrays)
        for group in groups.values():
            yield tuple(np.stack(parts) for parts in zip(*group))


def _suite_tv_contraction(m, trials, rng) -> SuiteResult:
    def draw():
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(2, 6))
        return rng.random((rows, cols)), rng.random(cols), rng.random(cols)

    worst = 0.0
    for mat, p, q in _stacked_trials(trials, draw):
        mat += 1e-9
        for stack in (mat, p, q):
            stack /= stack.sum(axis=1, keepdims=True)
        lhs = 0.5 * np.abs(mat @ p[:, :, None] - mat @ q[:, :, None])[:, :, 0].sum(axis=1)
        rhs = column_tv_norms(mat) * 0.5 * np.abs(p - q).sum(axis=1)
        worst = max(worst, float((lhs - rhs).max()))
    return _result("tv-contraction", worst, trials)


def _suite_tensor_two_factor(m, trials, rng) -> SuiteResult:
    def draw():
        sp = int(rng.integers(1, 6))
        sq = int(rng.integers(1, 6))
        return rng.random(sp), rng.random(sp), rng.random(sq), rng.random(sq)

    worst = 0.0
    for p, pp, q, qq in _stacked_trials(trials, draw):
        for stack in (p, pp, q, qq):
            stack /= stack.sum(axis=1, keepdims=True)
        outer = p[:, :, None] * q[:, None, :] - pp[:, :, None] * qq[:, None, :]
        lhs = 0.5 * np.abs(outer).reshape(len(p), -1).sum(axis=1)
        dp = 0.5 * np.abs(p - pp).sum(axis=1)
        dq = 0.5 * np.abs(q - qq).sum(axis=1)
        rhs = np.array([alpha(pair) for pair in zip(dp.tolist(), dq.tolist())])
        worst = max(worst, float((lhs - rhs).max()))
    return _result("tensor-two-factor", worst, trials)


def _suite_alpha_rules(m, trials, rng) -> SuiteResult:
    grid = [k / 10.0 for k in range(11)]
    worst = 0.0
    count = 0
    for x in grid:
        worst = max(worst, abs(alpha([x]) - x))
        count += 1
        for y in grid:
            a_xy = alpha([x, y])
            worst = max(worst, abs(a_xy - alpha([y, x])))
            worst = max(worst, abs(a_xy - (x + y - x * y)))
            worst = max(worst, a_xy - min(1.0, x + y))
            worst = max(worst, -a_xy)
            if y <= 0.9:
                worst = max(worst, a_xy - alpha([x, y + 0.1]))
            count += 1
    for k in (2, 3, 4):
        for x in grid:
            worst = max(worst, abs(alpha([x] * k) - (1.0 - (1.0 - x) ** k)))
            count += 1
        worst = max(worst, abs(alpha([1.0] + [0.3] * (k - 1)) - 1.0))
        count += 1
    return _result("alpha-rules", worst, count)


def _suite_norm_identity(m, trials, rng) -> SuiteResult:
    delta = _delta(m, "level-bound")
    row_formula = delta_inf_norm(delta)
    generic = linf_operator_norm(delta.entries)
    return _result("norm-identity", abs(row_formula - generic), 1, tol=0.0)


def _suite_provenance_dominance(m, trials, rng) -> SuiteResult:
    if m.n == 1:
        return _skip("provenance-dominance", _NO_PAIRS)
    return _result("provenance-dominance", _ladder_violation(m), len(SOURCES))


def _suite_sampling_determinism(m, trials, rng) -> SuiteResult:
    seed = int(rng.integers(0, 2**63))
    count = min(max(trials, 2), 1000)
    a = sample_paths(m, seed, count)
    b = sample_paths(m, seed, count)
    half = count // 2
    split = np.vstack(
        [
            sample_paths(m, seed, half),
            sample_paths(m, seed, count - half, stream_offset=half),
        ]
    )
    equal = np.array_equal(a, b) and np.array_equal(a, split)
    return _result("sampling-determinism", 0.0 if equal else 1.0, count)


def _suite_sampling_frequency(m, trials, rng) -> SuiteResult:
    # The table comes first so that a model over the cap skips the sampling.
    table = m.joint_table()
    exact_root = table.sum(axis=tuple(range(1, m.n))) if m.n > 1 else table
    seed = int(rng.integers(0, 2**63))
    count = 20_000
    batch = sample_paths(m, seed, count)
    worst = 0.0
    for state in range(m.alphabet_size):
        p = float(exact_root[state])
        emp = float((batch[:, 0] == state).mean())
        slack = 6.0 * np.sqrt(max(p * (1 - p), 1e-12) / count) + 1.0 / count
        worst = max(worst, abs(emp - p) - slack)
    return _result("sampling-frequency", max(worst, 0.0), count, tol=0.0)


_SUITES = [
    ("measure-normalization", _suite_measure_normalization),
    ("markov-property", _suite_markov_property),
    ("j0-reduction", _suite_j0_reduction),
    ("factorization", _suite_factorization),
    ("bound-dominance", _suite_bound_dominance),
    ("tv-contraction", _suite_tv_contraction),
    ("tensor-two-factor", _suite_tensor_two_factor),
    ("alpha-rules", _suite_alpha_rules),
    ("norm-identity", _suite_norm_identity),
    ("provenance-dominance", _suite_provenance_dominance),
    ("sampling-determinism", _suite_sampling_determinism),
    ("sampling-frequency", _suite_sampling_frequency),
]


def run_verification(
    m: MarkovTreeModel, trials: int = 500, seed: int = 42
) -> list[SuiteResult]:
    """Run every suite; a suite that needs the table is skipped above the cap."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    results = []
    rng = np.random.default_rng(seed)
    for name, fn in _SUITES:
        try:
            results.append(fn(m, trials, rng))
        except EnumerationLimitError:
            results.append(_skip(name, "joint table exceeds the enumeration cap"))
    return results
