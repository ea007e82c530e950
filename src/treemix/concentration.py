"""Concentration of Lipschitz functions of a Markov tree process.

The mixing coefficients bound how a function of all node variables can
deviate from its mean.  Two matrices are built from any eta_bar source
(exact, level bound, or uniform closed form):

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

from .mixing import exact_row, level_bound_row, uniform_bound_or_one
from .model import (
    EnumerationLimitError,
    MarkovTreeModel,
    _cells_text,
    max_contraction,
    sample_paths,
)

# The eta_bar sources, tightest first: each bounds the one before it.
# The command line offers each by its name without "-bound".
SOURCES = ("exact", "level-bound", "uniform-bound")

HAMMING = "hamming"
EUCLIDEAN = "euclidean"

POWER_ITERATION_TOL = 1e-10
POWER_ITERATION_CAP = 100_000


@dataclass(frozen=True)
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
                f"provenance must be one of {SOURCES}, got {self.provenance!r}"
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

    ``source`` is one of ``SOURCES``; row ``i`` of delta above the
    diagonal is ``eta_bar(i, j)`` for ``j = i+1..n``.  The exact source
    runs one frontier sweep per row (:func:`treemix.mixing.exact_row`),
    without the joint table, and raises
    :class:`~treemix.model.EnumerationLimitError` above the table's cell
    cap, even when there is no row to fill (``n == 1``).  The level
    source reads :func:`treemix.mixing.level_bound_row`.  The uniform
    source uses the closed form with the model's own max contraction
    coefficient and width, computed once per offset ``j - i``; if the
    coefficient reaches 1 the closed form does not apply and the
    trivial bound 1.0 fills the strictly-upper entries.
    """
    if source not in SOURCES:
        raise ValueError(f"source must be one of {SOURCES}, got {source!r}")
    n = m.n
    if source == "exact":
        m.check_table_cap()
    delta = np.eye(n)
    if source == "uniform-bound":
        theta, wid = max_contraction(m), m.tree.width
        by_offset = [uniform_bound_or_one(theta, wid, 1, 1 + k) for k in range(1, n)]
        for i in range(1, n):
            delta[i - 1, i:] = by_offset[: n - i]
    else:
        row = exact_row if source == "exact" else level_bound_row
        for i in range(1, n):
            delta[i - 1, i:] = row(m, i)
    gamma = np.eye(n)
    iu = np.triu_indices(n, k=1)
    gamma[iu] = np.sqrt(delta[iu])
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
    configuration pairs of ``|f(x) - f(y)| / dist(x, y)``.  A table
    with a non-finite entry has no such constant and is rejected.
    """
    vals = np.asarray(f, dtype=float).reshape(-1)
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not np.isfinite(vals).all():
        raise ValueError("function table has non-finite entries")
    s = _infer_alphabet(vals.size, n)
    nd = vals.reshape((s,) * n)
    worst = 0.0
    for axis in range(n):
        moved = np.moveaxis(nd, axis, 0).reshape(s, -1)
        for a in range(s - 1):
            d = np.abs(moved[a + 1 :] - moved[a]).max()
            worst = max(worst, float(d))
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
    of the seed's sample streams.  The radius is the
    3-sigma binomial half-width ``3 sqrt(p (1 - p) / samples)``.
    """
    t = float(t)
    if t <= 0.0:
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
    try:
        mean = float(m.joint_table().reshape(-1) @ vals)
        mean_source = "exact"
    except EnumerationLimitError:
        pre = sample_paths(m, seed, samples, stream_offset=samples)
        mean = float(vals[_flat_indices(pre, m.alphabet_size)].mean())
        mean_source = "sampled"
    batch = sample_paths(m, seed, samples)
    fx = vals[_flat_indices(batch, m.alphabet_size)]
    exceed = int((np.abs(fx - mean) > t).sum())
    p_hat = exceed / samples
    radius = 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return DeviationEstimate(
        t=t, samples=samples, exceed_count=exceed, empirical=p_hat,
        radius=radius, mean=mean, mean_source=mean_source,
    )


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
    coordinate subset), and one normalized random table.
    """
    s = int(alphabet_size)
    n = int(n)
    shape = (s,) * n
    grids = np.indices(shape)
    freq = (grids == 0).sum(axis=0) / n
    out = [("symbol-frequency", freq.reshape(-1))]

    k = int(rng.integers(1, n + 1))
    coords = rng.choice(n, size=k, replace=False)
    states = rng.integers(0, s, size=k)
    cube = np.ones(shape, dtype=bool)
    for c, st in zip(coords, states):
        cube &= grids[c] == st
    out.append(("subcube-indicator", cube.reshape(-1) / n))

    raw = rng.random(s**n)
    constant = hamming_lipschitz_constant(raw, n)
    out.append(("random-table-0", raw / constant))
    return out
