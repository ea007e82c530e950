"""Self-check suites run by the ``verify`` CLI command.

Each suite exercises one identity or inequality the implementation is
supposed to satisfy on the given model, reports its worst violation,
and passes or fails against a fixed tolerance.  Suites that need the
joint table are skipped (not failed) when building it would exceed the
enumeration cap.  Everything is deterministic given the seed.

Each suite is one ``_SUITES`` row of its name, check and tolerance.  A
check returns its worst violation and trial count, or raises
:class:`_Skip` with its note; :func:`run_verification` alone turns that,
or a refusal by the cap, into a :class:`SuiteResult`.

Each shared product is built once per run, on first use, and kept by
the run, not the model.  The j0-reduction and factorization suites read
one pivot pass: a frontier sweep per node, the sweep every exact command
runs, against the node's enumeration tables, so no suite builds an
object larger than the joint table.  Both dominance suites read one
ladder check of the sources' Delta, and norm-identity the level one.

The tv-contraction and tensor-two-factor suites draw each trial on its
own, in order, from one stream, so every later suite's seed does not
depend on how the trials are checked.  They check them in array passes:
the draws of each chunk of at most ``_TRIAL_CHUNK`` trials are stacked
by shape and normalized and checked together, so memory stays bounded
for any trial count.

The sampling-frequency suite checks the root law on the roots alone: it
draws one Philox block per stream, the first uniform of each stream
``sample_paths`` would use, not whole paths.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import mixing
from .concentration import (
    SOURCES,
    build_mixing_matrices,
    delta_inf_norm,
    linf_operator_norm,
)
from .model import (
    EnumerationLimitError,
    MarkovTreeModel,
    _philox_uniforms,
    _root_states,
    sample_paths,
)
from .treegraph import TreeTopology, subtree, subtree_runs
from .tvalgebra import alpha, column_tv_norms

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


class _Skip(Exception):
    """Raised by a check that does not apply to the model; the message is its note."""


# The enumeration oracle: eta(i, j; y, w, w') for every prefix y, read
# off the joint table.  The exact engine (mixing.exact_row) never builds
# the table; the pivot pass checks the pivot identity and the engine's
# frontier sweep against these tables.  It tabulates each pair (i, j)
# once per run and holds one node's tables at a time.

# numpy sums fewer than this many cells left to right from +0.0, and
# more pairwise, in its own order.
_PAIRWISE_FROM = 8


def _sum_axis2(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=2)``, bit for bit, by whole-slab adds where that axis
    is shorter than ``_PAIRWISE_FROM``: numpy would sum each line of so
    few cells on its own, left to right, starting from +0.0."""
    cells = a.shape[2]
    if cells >= _PAIRWISE_FROM:
        return a.sum(axis=2)
    total = a[:, :, 0] + 0.0  # as from +0.0: a line of -0.0 sums to +0.0
    for k in range(1, cells):
        total += a[:, :, k]
    return total


def _tail_laws(m: MarkovTreeModel, i: int) -> Iterator[np.ndarray]:
    """Unnormalised laws of (x_{1..i-1}, x_i, x_{j..n}) for j = i+1, i+2, ...

    Each is shaped ``(prefix, w, tail configurations)``.  The first is a
    view of the joint table; each next one sums out one more node.
    """
    s = m.alphabet_size
    tail = m.joint_table().reshape(s ** (i - 1), s, -1)
    yield tail
    for _ in range(i + 1, m.n):
        tail = _sum_axis2(tail.reshape(tail.shape[0], s, s, -1))
        yield tail


def _tv_tables(tail: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All eta(i, j; y, w, w') from one tail law of :func:`_tail_laws`.

    Returns ``(tv, feasible, mass)`` where ``tv[y, w, w']`` is the
    coefficient for prefix ``y`` (flat over nodes ``1..i-1``),
    ``mass[y, w]`` the probability of ``(y, w)`` and ``feasible[y, w]``
    marks prefixes with positive probability.  Infeasible entries of
    ``tv`` are zero.

    Each TV sum is ``ndarray.sum``'s, bit for bit.  Over fewer than
    ``_PAIRWISE_FROM`` tail cells, every pair ``(w, w')`` of one ``w`` is
    summed at once, cell by cell from +0.0.  Longer laws are summed one
    pair at a time, so no temporary holds more than one pair's gaps.
    """
    s, cells = tail.shape[1], tail.shape[2]
    mass = _sum_axis2(tail)  # (prefix, w)
    feasible = mass > 0.0
    # An infeasible row is all zeros, so dividing it by 1 leaves it zero.
    laws = tail / np.where(feasible, mass, 1.0)[:, :, None]
    tv = np.zeros((tail.shape[0], s, s))
    for w in range(s - 1):
        d = np.zeros((tail.shape[0], s - w - 1))
        if cells < _PAIRWISE_FROM:
            for c in range(cells):
                gap = laws[:, w, c, None] - laws[:, w + 1 :, c]
                d += np.abs(gap, out=gap)
        else:
            for wp in range(w + 1, s):
                gap = laws[:, w, :] - laws[:, wp, :]
                d[:, wp - w - 1] = np.abs(gap, out=gap).sum(axis=1)
        d *= 0.5
        # Laws with disjoint supports can sum to just over 1 in rounding.
        np.minimum(d, 1.0, out=d)
        d[~(feasible[:, w, None] & feasible[:, w + 1 :])] = 0.0
        tv[:, w, w + 1 :] = d
        tv[:, w + 1 :, w] = d
    return tv, feasible, mass


class _Run:
    """One ``verify`` run: the model, the trial count and the one stream
    the suites draw from in order.  Each shared product is built on first
    use and kept for this run only; one refused by the cap is asked for
    again by the next suite that reads it, and refused again."""

    def __init__(self, m: MarkovTreeModel, trials: int, rng: np.random.Generator) -> None:
        self.m, self.trials, self.rng = m, trials, rng
        self.delta = functools.cache(lambda source: build_mixing_matrices(m, source))

    def result(
        self, name: str, check: Callable[[_Run], tuple[float, int]], tol: float
    ) -> SuiteResult:
        """The result of one ``_SUITES`` row."""
        try:
            violation, trials = check(self)
        except _Skip as skip:
            return SuiteResult(name, "skip", None, 0, str(skip))
        except EnumerationLimitError:
            return SuiteResult(name, "skip", None, 0, "joint table exceeds the enumeration cap")
        return SuiteResult(name, "pass" if violation <= tol else "fail", violation, trials)

    @functools.cached_property
    def pivots(self) -> tuple[float, float, int]:
        """``(reduction, worst, checked)`` of the j0-reduction and
        factorization suites, from one frontier sweep per node.

        Each node's enumeration tables are tabulated once and read by
        both suites; only one node's tables are held at a time.  Each law
        of :func:`mixing._frontier_laws` serves every ``j`` in its ``js``,
        and all of them pivot at ``j0 = js.stop - 1``: their tables must
        equal the pivot's, and each table past the last subtree node must
        be 0.  Each swept TV must equal the enumerated one at every
        feasible prefix, and each exact row of the Delta the commands
        print the enumerated supremum.  The law yielded after the last
        node of a subtree run is the law of the next level, whose TV the
        alpha rule contracts: ``TV_k <= alpha_k TV_(k-1)``, with
        ``TV_0 = 1``.  Every frontier in between is a function of the
        level above it, so its TV is at most that level's.
        """
        m = self.m
        m.check_table_cap()
        pairs = w, wp = np.triu_indices(m.alphabet_size, k=1)
        reduction = worst = 0.0
        checked = 0
        for i in range(1, m.n):
            tables = [_tv_tables(tail)[:2] for tail in _tail_laws(m, i)]
            runs = subtree_runs(m.tree, i)
            levels = mixing._subtree_levels(m, runs)
            level_alpha = {run[-1]: alpha(thetas) for run, thetas in zip(runs, levels)}
            sup = [tv.max() for tv, _ in tables]
            exact = self.delta("exact").entries[i - 1, i:]
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
        return reduction, worst, checked

    @functools.cached_property
    def ladder(self) -> float:
        """Largest amount, or 0.0, by which a source's Delta exceeds the
        next, looser one's.  Every Delta has the same unit diagonal and
        zeros below it, so only the strictly-upper entries, the rows every
        command prints, can differ.  Gamma entries are sqrt(delta) and
        IEEE sqrt is monotone, so gamma dominance follows entrywise.  A
        single-node model has no pair and skips.
        """
        if self.m.n == 1:
            raise _Skip(_NO_PAIRS)
        rungs = [self.delta(source).entries for source in SOURCES]
        return max(0.0, *(float((a - b).max(initial=0.0)) for a, b in zip(rungs, rungs[1:])))


def _suite_measure_normalization(run: _Run) -> tuple[float, int]:
    total = float(run.m.joint_table().sum())
    return abs(total - 1.0), 1


def _independence_violation(table: np.ndarray, tree: TreeTopology, u: int) -> float:
    """Worst deviation from conditional independence of child subtrees.

    For every pair of distinct children of ``u`` and every positive-
    probability state ``y`` of ``u``, compares the conditional joint law
    of the two child subtrees with the product of their conditional
    marginals, in sup norm.  Operates on a raw joint table so that
    degenerate (non-tree-factored) tables can be checked too.
    """
    n, s = tree.n, table.shape[0]
    kids = tree.children[u]
    worst = 0.0
    u_marginal = table.sum(axis=tuple(k for k in range(n) if k != u - 1))
    for a_pos, v1 in enumerate(kids):
        for v2 in kids[a_pos + 1 :]:
            t1 = sorted(subtree(tree, v1))
            t2 = sorted(subtree(tree, v2))
            keep = sorted([u] + t1 + t2)
            drop = tuple(k for k in range(n) if k + 1 not in set(keep))
            marg = table.sum(axis=drop) if drop else table
            # Reorder axes to (u, subtree of v1, subtree of v2).
            marg = np.transpose(marg, [keep.index(v) for v in [u, *t1, *t2]])
            marg = marg.reshape(s, s ** len(t1), s ** len(t2))
            for y in range(s):
                py = float(u_marginal[y])
                if py <= 0.0:
                    continue
                joint = marg[y] / py
                prod = np.outer(joint.sum(axis=1), joint.sum(axis=0))
                worst = max(worst, float(np.abs(joint - prod).max()))
    return worst


def _suite_markov_property(run: _Run) -> tuple[float, int]:
    m = run.m
    branchers = [u for u in range(1, m.n + 1) if len(m.tree.children[u]) >= 2]
    if not branchers:
        raise _Skip("no node with two or more children")
    table = m.joint_table()
    worst = (_independence_violation(table, m.tree, u) for u in branchers)
    return max(0.0, *worst), len(branchers)


def _suite_j0_reduction(run: _Run) -> tuple[float, int]:
    if run.m.n == 1:
        raise _Skip(_NO_PAIRS)
    return run.pivots[0], run.m.n * (run.m.n - 1) // 2


def _suite_factorization(run: _Run) -> tuple[float, int]:
    _, worst, checked = run.pivots
    if not checked:
        raise _Skip("no pair (i, j) with a pivot")
    return worst, checked


def _suite_bound_dominance(run: _Run) -> tuple[float, int]:
    return run.ladder, run.m.n * (run.m.n - 1) // 2


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
            yield tuple(np.array(parts) for parts in zip(*group))


def _suite_tv_contraction(run: _Run) -> tuple[float, int]:
    rng = run.rng

    def draw():
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(2, 6))
        return rng.random((rows, cols)), rng.random(cols), rng.random(cols)

    worst = 0.0
    for mat, p, q in _stacked_trials(run.trials, draw):
        mat += 1e-9
        for stack in (mat, p, q):
            stack /= stack.sum(axis=1, keepdims=True)
        lhs = 0.5 * np.abs(mat @ p[:, :, None] - mat @ q[:, :, None])[:, :, 0].sum(axis=1)
        rhs = column_tv_norms(mat) * 0.5 * np.abs(p - q).sum(axis=1)
        worst = max(worst, float((lhs - rhs).max()))
    return worst, run.trials


def _suite_tensor_two_factor(run: _Run) -> tuple[float, int]:
    rng = run.rng

    def draw():
        sp = int(rng.integers(1, 6))
        sq = int(rng.integers(1, 6))
        return rng.random(sp), rng.random(sp), rng.random(sq), rng.random(sq)

    worst = 0.0
    for p, pp, q, qq in _stacked_trials(run.trials, draw):
        for stack in (p, pp, q, qq):
            stack /= stack.sum(axis=1, keepdims=True)
        outer = p[:, :, None] * q[:, None, :] - pp[:, :, None] * qq[:, None, :]
        lhs = 0.5 * np.abs(outer).reshape(len(p), -1).sum(axis=1)
        dp = 0.5 * np.abs(p - pp).sum(axis=1)
        dq = 0.5 * np.abs(q - qq).sum(axis=1)
        # alpha([dp, dq]) for every trial, in alpha's float operations.
        args = mixing._alpha_arguments(np.stack([dp, dq], axis=1).ravel())
        starts = np.arange(0, len(args), 2)
        rhs = mixing._alphas(args, starts, starts + 2)
        worst = max(worst, float((lhs - rhs).max()))
    return worst, run.trials


def _suite_alpha_rules(run: _Run) -> tuple[float, int]:
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
    return worst, count


def _suite_norm_identity(run: _Run) -> tuple[float, int]:
    delta = run.delta("level-bound")
    return abs(delta_inf_norm(delta) - linf_operator_norm(delta.entries)), 1


def _suite_provenance_dominance(run: _Run) -> tuple[float, int]:
    return run.ladder, len(SOURCES)


def _suite_sampling_determinism(run: _Run) -> tuple[float, int]:
    m = run.m
    seed = int(run.rng.integers(0, 2**63))
    count = min(max(run.trials, 2), 1000)
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
    return 0.0 if equal else 1.0, count


def _suite_sampling_frequency(run: _Run) -> tuple[float, int]:
    m = run.m
    # The table comes first so that a model over the cap skips the sampling.
    table = m.joint_table()
    exact_root = table.sum(axis=tuple(range(1, m.n))) if m.n > 1 else table
    seed = int(run.rng.integers(0, 2**63))
    count = 20_000
    # Only the roots are drawn: stream p's first uniform, inverted as
    # sample_paths inverts node 1, is root p of sample_paths(m, seed, count).
    roots = _root_states(m, _philox_uniforms(seed, 0, count, 1)[0])
    worst = 0.0
    for state in range(m.alphabet_size):
        p = float(exact_root[state])
        emp = float((roots == state).mean())
        slack = 6.0 * np.sqrt(max(p * (1 - p), 1e-12) / count) + 1.0 / count
        worst = max(worst, abs(emp - p) - slack)
    return max(worst, 0.0), count


# (name, check, tolerance), in the order ``verify`` prints them.
_SUITES = [
    ("measure-normalization", _suite_measure_normalization, 1e-10),
    ("markov-property", _suite_markov_property, 1e-12),
    ("j0-reduction", _suite_j0_reduction, 1e-12),
    ("factorization", _suite_factorization, 1e-12),
    ("bound-dominance", _suite_bound_dominance, 1e-12),
    ("tv-contraction", _suite_tv_contraction, 1e-12),
    ("tensor-two-factor", _suite_tensor_two_factor, 1e-12),
    ("alpha-rules", _suite_alpha_rules, 1e-12),
    ("norm-identity", _suite_norm_identity, 0.0),
    ("provenance-dominance", _suite_provenance_dominance, 1e-12),
    ("sampling-determinism", _suite_sampling_determinism, 1e-12),
    ("sampling-frequency", _suite_sampling_frequency, 0.0),
]


def run_verification(
    m: MarkovTreeModel, trials: int = 500, seed: int = 42
) -> list[SuiteResult]:
    """Run every suite; a suite that needs the table is skipped above the cap."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    run = _Run(m, trials, np.random.default_rng(seed))
    return [run.result(*row) for row in _SUITES]
