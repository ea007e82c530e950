"""Concentration of Lipschitz functions of a Markov tree process.

The mixing coefficients bound how a function of all node variables can
deviate from its mean.  Two matrices are built from any eta_bar source
of ``SOURCES`` (re-exported from :mod:`treemix.mixing`: exact, level
bound, or uniform closed form), each filled from its entry's rows:

* ``delta``: unit diagonal, ``eta_bar(i, j)`` above it;
* ``gamma``: unit diagonal, ``sqrt(eta_bar(i, j))`` above it.

For f with Lipschitz constant 1 in the normalized Hamming metric
(changing one coordinate moves f by at most 1/n),

    P(|f - E f| > t)  <=  2 exp(-n t^2 / (2 ||delta||_inf^2)),

where ``||delta||_inf`` is the max row sum, computed here by the
triangular row formula ``max_i (1 + sum_{j>i} delta_ij)``.  For f
1-Lipschitz in the Euclidean metric on a convex product domain,

    P(|f - E f| > t)  <=  2 exp(-t^2 / (2 ||gamma||_2^2)),

with the spectral norm obtained by power iteration on
``gamma.T @ gamma``.  Finite alphabets embedded in a real interval do
not form a convex domain, so the Euclidean bound is reported with a
``convexity_required`` flag: treat it as a heuristic there.

``monte_carlo_deviation`` estimates the left-hand sides by sampling to
let the bounds be confronted with data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixing import SOURCES
from .model import EnumerationLimitError, MarkovTreeModel, _cells_text, sample_blocks

HAMMING = "hamming"
EUCLIDEAN = "euclidean"

POWER_ITERATION_TOL = 1e-10
POWER_ITERATION_CAP = 100_000


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Upper-triangular mixing matrix with unit diagonal.

    ``kind`` is "delta" (raw eta_bar entries) or "gamma" (their square
    roots); ``provenance`` records which eta_bar source filled the
    strictly-upper entries.
    """

    kind: str
    provenance: str
    entries: np.ndarray

    def __post_init__(self):
        if self.kind not in ("delta", "gamma"):
            raise ValueError(f"kind must be 'delta' or 'gamma', got {self.kind!r}")
        if self.provenance not in SOURCES:
            raise ValueError(
                f"provenance must be one of {tuple(SOURCES)}, got {self.provenance!r}"
            )
        mat = np.array(self.entries, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError(f"entries must be square, got shape {mat.shape}")
        n = mat.shape[0]
        if not np.all(np.diag(mat) == 1.0):
            raise ValueError("diagonal entries must equal 1")
        if np.any(mat[np.tril_indices(n, k=-1)] != 0.0):
            raise ValueError("entries below the diagonal must be zero")
        if not np.isfinite(mat).all() or mat.min() < 0.0 or mat.max() > 1.0:
            raise ValueError("entries must be finite and lie in [0, 1]")
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def build_mixing_matrices(
    m: MarkovTreeModel, source: str
) -> tuple[MixingMatrix, MixingMatrix]:
    """Fill (delta, gamma) from the chosen eta_bar source.

    ``source`` is a key of ``SOURCES``; its entry admits the model, or
    raises :class:`~treemix.model.EnumerationLimitError` (the exact
    source above the table's cell cap, even when ``n == 1`` and there is
    no row to fill), and row ``i`` of delta above the diagonal is its
    row ``i``: ``eta_bar(i, j)`` for ``j = i+1..n``.
    """
    if source not in SOURCES:
        raise ValueError(f"source must be one of {tuple(SOURCES)}, got {source!r}")
    upper = SOURCES[source].upper(m)
    n = m.n
    delta = np.eye(n)
    delta[~np.tri(n, dtype=bool)] = upper
    # The diagonal's 1.0 and the zeros below it are their own square roots.
    gamma = np.sqrt(delta)
    return (
        MixingMatrix("delta", source, delta),
        MixingMatrix("gamma", source, gamma),
    )


def delta_inf_norm(d: MixingMatrix) -> float:
    """Max row sum of a delta matrix via the triangular row formula.

    ``max_i (1 + sum_{j > i} delta_ij)``; rows are summed with
    ``math.fsum`` so the result agrees bit-for-bit with the generic
    :func:`linf_operator_norm` on the same matrix.  Equals 1 for n = 1.
    """
    if d.kind != "delta":
        raise ValueError(f"expected a delta matrix, got kind {d.kind!r}")
    mat = d.entries
    return max(
        math.fsum([1.0] + mat[i, i + 1 :].tolist()) for i in range(d.n)
    )


def linf_operator_norm(matrix: np.ndarray) -> float:
    """Generic l_inf operator norm: largest absolute row sum."""
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim {mat.ndim}")
    return max(math.fsum(np.abs(mat[i]).tolist()) for i in range(mat.shape[0]))


def gamma_l2_norm(g: MixingMatrix) -> float:
    """Spectral norm of a gamma matrix by power iteration on G^T G.

    Starts from the normalized all-ones vector (never orthogonal to the
    top eigenvector: G^T G is entrywise nonnegative) and stops when the
    Rayleigh quotient is stable to ``POWER_ITERATION_TOL`` (relative);
    raises after ``POWER_ITERATION_CAP`` iterations without convergence.
    """
    if g.kind != "gamma":
        raise ValueError(f"expected a gamma matrix, got kind {g.kind!r}")
    mat = g.entries
    n = g.n
    if n == 1:
        return 1.0
    gram = mat.T @ mat
    v = np.full(n, 1.0 / math.sqrt(n))
    lam_prev = 0.0
    for _ in range(POWER_ITERATION_CAP):
        w = gram @ v
        lam = float(v @ w)
        norm_w = float(np.linalg.norm(w))
        v = w / norm_w
        if abs(lam - lam_prev) <= POWER_ITERATION_TOL * lam:
            return math.sqrt(lam)
        lam_prev = lam
    raise RuntimeError(
        f"power iteration did not converge within {POWER_ITERATION_CAP} iterations"
    )


@dataclass(frozen=True)
class BoundReport:
    """One evaluated tail bound."""

    metric: str
    n: int
    t: float
    norm_value: float
    tail_bound: float
    convexity_required: bool


def tail_bound(n: int, norm_value: float, t: float, metric: str) -> BoundReport:
    """Evaluate the deviation bound for a 1-Lipschitz function.

    ``metric`` is "hamming" (normalized Hamming; uses ``||delta||_inf``
    and the dimension ``n``) or "euclidean" (uses ``||gamma||_2``; exact
    only on convex domains, flagged accordingly).  Requires ``t >= 0``
    and ``norm_value >= 1``.
    """
    if metric not in (HAMMING, EUCLIDEAN):
        raise ValueError(f"metric must be '{HAMMING}' or '{EUCLIDEAN}', got {metric!r}")
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t = float(t)
    if not t >= 0.0:  # also rejects NaN
        raise ValueError(f"t must be nonnegative, got {t}")
    norm_value = float(norm_value)
    if not norm_value >= 1.0:
        raise ValueError(f"norm value must be >= 1, got {norm_value}")
    if metric == HAMMING:
        bound = 2.0 * math.exp(-n * t * t / (2.0 * norm_value * norm_value))
        convex = False
    else:
        bound = 2.0 * math.exp(-t * t / (2.0 * norm_value * norm_value))
        convex = True
    return BoundReport(
        metric=metric, n=n, t=t, norm_value=norm_value, tail_bound=bound,
        convexity_required=convex,
    )


def _infer_alphabet(size: int, n: int) -> int:
    s = round(size ** (1.0 / n))
    for cand in (s - 1, s, s + 1):
        if cand >= 1 and cand**n == size:
            return cand
    raise ValueError(f"table of {size} values is not a power with exponent {n}")


def hamming_lipschitz_constant(f: np.ndarray, n: int) -> float:
    """Lipschitz constant in the normalized Hamming metric, exactly.

    ``f`` is a flat table over all configurations (same layout as the
    joint table).  The constant is ``n`` times the largest change of f
    along a single-coordinate move, which equals the max over all
    configuration pairs of ``|f(x) - f(y)| / dist(x, y)``.  Along each
    axis the largest change is max - min over the fibres of the view
    ``reshape(s**axis, s, -1)``, folded slice by slice: no copy of the
    table is made, and since rounding is monotone the result is the
    largest ``|f(x) - f(y)|`` over the fibre's pairs bit for bit.  A
    table with a non-finite entry has no such constant and is rejected.
    """
    vals = np.asarray(f, dtype=float).reshape(-1)
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not np.isfinite(vals).all():
        raise ValueError("function table has non-finite entries")
    s = _infer_alphabet(vals.size, n)
    if s == 1:
        return 0.0
    worst = 0.0
    for axis in range(n):
        fibres = vals.reshape(s**axis, s, -1)
        hi = np.maximum(fibres[:, 0], fibres[:, 1])
        lo = np.minimum(fibres[:, 0], fibres[:, 1])
        for a in range(2, s):
            np.maximum(hi, fibres[:, a], out=hi)
            np.minimum(lo, fibres[:, a], out=lo)
        worst = max(worst, float(np.subtract(hi, lo, out=hi).max()))
    return n * worst


@dataclass(frozen=True)
class DeviationEstimate:
    """Empirical tail frequency with a binomial error radius."""

    t: float
    samples: int
    exceed_count: int
    empirical: float
    radius: float
    mean: float
    mean_source: str


def monte_carlo_deviation(
    m: MarkovTreeModel,
    f: np.ndarray,
    t: float,
    samples: int,
    seed: int,
) -> DeviationEstimate:
    """Estimate ``P(|f - E f| > t)`` by sampling.

    ``f`` must be finite and 1-Lipschitz in the normalized Hamming metric
    (within 1e-9); other tables are rejected.  The mean is exact (joint-table
    dot product) when the model admits the table, and otherwise
    estimated from an independent pre-batch drawn from a disjoint slice
    of the seed's sample streams.  The radius is the larger distance
    from ``empirical`` to an end of the Wilson score interval at z = 3
    (:func:`_wilson_interval`), so ``empirical ± radius`` contains that
    interval.  Unlike a Wald half-width it does not vanish when no sample,
    or every sample, exceeds ``t``: at ``empirical = 0`` and 100 samples
    it is 9/109.

    Paths are drawn a block at a time (:func:`~treemix.model.sample_blocks`),
    and their blocks equal one draw: the exceedances are counted block by
    block, and only the pre-batch's f values, one float per path, are held
    at once.
    """
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    vals = np.asarray(f, dtype=float).reshape(-1)
    if vals.size != m.table_cells():
        raise ValueError(
            f"function table has {vals.size} entries, expected {_cells_text(m)}"
        )
    constant = hamming_lipschitz_constant(vals, m.n)
    if constant > 1.0 + 1e-9:
        raise ValueError(
            f"function is {constant:.6g}-Lipschitz in the normalized Hamming "
            f"metric; normalize it to constant <= 1"
        )
    s = m.alphabet_size
    try:
        mean = float(m.joint_table().reshape(-1) @ vals)
        mean_source = "exact"
    except EnumerationLimitError:
        pre = [vals[_flat_indices(b, s)] for _, b in sample_blocks(m, seed, samples, samples)]
        mean = float(np.concatenate(pre).mean())
        mean_source = "sampled"
    exceed = sum(
        int((np.abs(vals[_flat_indices(b, s)] - mean) > t).sum())
        for _, b in sample_blocks(m, seed, samples)
    )
    p_hat = exceed / samples
    low, high = _wilson_interval(p_hat, samples)
    return DeviationEstimate(
        t=t, samples=samples, exceed_count=exceed, empirical=p_hat,
        radius=max(p_hat - low, high - p_hat), mean=mean, mean_source=mean_source,
    )


def _wilson_interval(p_hat: float, samples: int, z: float = 3.0) -> tuple[float, float]:
    """Wilson's score interval (JASA 22, 1927) of a frequency ``p_hat`` over
    ``samples`` draws: the p with ``(p_hat - p)**2 <= z**2 p (1 - p) / samples``."""
    z2 = z * z / samples
    center = (p_hat + z2 / 2) / (1 + z2)
    half = z / (1 + z2) * math.sqrt(p_hat * (1 - p_hat) / samples + z2 / (4 * samples))
    return center - half, center + half


def _flat_indices(configs: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Map configuration rows to positions in a flat C-order table."""
    n = configs.shape[1]
    weights = alphabet_size ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return configs @ weights


def lipschitz_test_corpus(
    n: int, alphabet_size: int, rng: np.random.Generator
) -> list[tuple[str, np.ndarray]]:
    """Standard 1-Lipschitz test functions over configurations.

    Returns named flat tables: the frequency of symbol 0, a scaled
    subcube indicator (1/n on a random fixed assignment of a random
    coordinate subset), and one normalized random table.  The first two
    are built axis by axis as outer products, so the only arrays of
    ``alphabet_size**n`` entries are the tables themselves.  A random
    table whose Lipschitz constant is 0 (one state) is left unscaled.
    """
    s = int(alphabet_size)
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if s < 1:
        raise ValueError(f"alphabet size must be >= 1, got {s}")
    is_zero = np.arange(s) == 0
    freq = np.zeros(1)
    for _ in range(n):
        freq = np.add.outer(freq, is_zero).reshape(-1)
    freq /= n
    out = [("symbol-frequency", freq)]

    k = int(rng.integers(1, n + 1))
    coords = rng.choice(n, size=k, replace=False)
    states = rng.integers(0, s, size=k)
    allowed = [np.ones(s, dtype=bool)] * n
    for c, st in zip(coords, states):
        allowed[c] = np.arange(s) == st
    cube = np.ones(1, dtype=bool)
    for axis_allowed in allowed:
        cube = np.logical_and.outer(cube, axis_allowed).reshape(-1)
    out.append(("subcube-indicator", cube / n))

    raw = rng.random(s**n)
    constant = hamming_lipschitz_constant(raw, n)
    if constant > 0.0:
        raw /= constant
    out.append(("random-table-0", raw))
    return out
