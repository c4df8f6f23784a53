"""Bayesian online run-length inference over a 3D embedding timeseries.

The observation model is a multivariate Gaussian with unknown mean and
precision under a Normal-Wishart conjugate prior, so the one-step
posterior predictive is a multivariate Student-t in closed form. At each
step every run-length hypothesis either grows by one (probability 1 - p)
or resets to zero (probability p, a geometric changepoint prior); joint
weights are propagated recursively in log space and normalised into the
run-length posterior column by column.

A hypothesis with run length z predicts the next observation from
exactly the last z observations. The observation at a changepoint step
is scored under the segment it terminates, and the new segment starts
empty, so every segment is scored sequentially from the raw prior. The
tests enumerate every changepoint configuration from that definition,
scoring each segment through ``log_predictive``, as the exactness oracle
for the recursion.

Because a predictive never depends on the weights (Adams & MacKay 2007),
``infer_posterior`` runs the recursion in blocks of steps. The data half
(``HypothesisSet.score``) advances the statistics of the hypotheses live
at the block's start, and of those the block will give birth to,
through all of its observations into a (step, hypothesis) grid, and
scores every cell with one Student-t pass. Only the means take a loop
over the block's steps: the scatter increments are one product over the
grid, and one running sum along the steps adds them in the per-step
order. The weight half (``step``) is the only per-step loop: it gathers
its step's scores for the live hypotheses, normalises, writes the log
weights into its row of a (step, hypothesis) grid of the block's shape
and hands over to pruning; the block's run lengths and weights are read
from that grid once, at its end, with one mask of its nonzero weights,
into two output arrays that grow in place, so the posterior is never
held twice. A block holds at most ``_BLOCK_CELLS`` cells and at most
max(8, live) steps, so its length follows the live count. Every cell
gets the arithmetic the step-at-a-time recursion would give it, so the
block length changes no bit of the posterior, and a step raises exactly
the errors it would raise on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tables


def _logsumexp_1d(x: np.ndarray) -> float:
    """Lean log-sum-exp for a 1D array (hot path; scipy's wrapper is slow)."""
    m = np.maximum.reduce(x)
    if not math.isfinite(m):
        return float(m) if m == -np.inf else float("nan")
    return float(m + math.log(np.add.reduce(np.exp(x - m))))


@dataclass
class NormalWishartParams:
    """Quadruple (mu, kappa, nu, sigma) of the Normal-Wishart family.

    ``sigma`` follows the scatter-accumulating convention: posterior
    updates add the within-window scatter to it, and the predictive scale
    is sigma * (kappa + 1) / (kappa * (nu - d + 1)).
    """

    mu: np.ndarray
    kappa: float
    nu: float
    sigma: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float).ravel()
        self.sigma = np.asarray(self.sigma, dtype=float)
        self.kappa = float(self.kappa)
        self.nu = float(self.nu)
        d = self.mu.shape[0]
        if self.sigma.shape != (d, d):
            raise ValueError("sigma must be square and match the mean dimension")
        if not (np.isfinite(self.mu).all() and np.isfinite(self.sigma).all()):
            raise ValueError("mu and sigma must be finite")
        if not np.allclose(self.sigma, self.sigma.T, atol=1e-9):
            raise ValueError("sigma must be symmetric")
        if not 0.0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        # predictive degrees of freedom nu - d + 1 must exceed 1
        if not d < self.nu < math.inf:
            raise ValueError(f"nu must exceed the dimension ({d}) and be finite, got {self.nu}")

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


def informative_prior() -> NormalWishartParams:
    """Prior tuned for the constrained radial embedding shell."""
    return NormalWishartParams(mu=np.full(3, 1e-4), kappa=1.0 / 20.0, nu=4.0,
                               sigma=5.0 * np.eye(3))


def noninformative_prior(epsilon: float = 1e-8) -> NormalWishartParams:
    """Nearly flat prior for unconstrained (external) embedding spaces.

    The nominal prior has a singular scale matrix; ``epsilon`` regularises
    it to keep early predictives proper. Inference is exact for any
    positive epsilon, but the value shifts the reset-versus-growth odds
    of newborn hypotheses (their first predictions are scored against an
    epsilon-scaled matrix), so it is exposed as configuration.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    return NormalWishartParams(mu=np.full(3, 1e-4), kappa=1e-4, nu=4.0,
                               sigma=epsilon * np.eye(3))


@dataclass(frozen=True)
class HazardConfig:
    """Per-step changepoint probability of the geometric run-length prior."""

    p: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"hazard changepoint probability must be in (0, 1), got {self.p}")


def _log_student_t(scale: np.ndarray, diff: np.ndarray, df, half, const):
    """Multivariate Student-t log densities and which scales are not
    positive definite, one density per trailing index.

    ``scale`` holds each symmetric scale matrix S as its upper triangle in
    ``np.triu_indices`` order along the first axis, ``diff`` the observation
    x minus the location, and ``half, const`` come from
    ``_student_t_terms(df, d)``. Every dimension takes one route: S = U^T U
    is factored one packed entry at a time, each a numpy operation over all
    densities. Pivot j is S_jj - sum_k<j U_kj^2; U_ji = (S_ji - sum_k<j U_kj
    U_ki) / sqrt(pivot j) and y_j = (x_j - sum_k<j U_kj y_k) / sqrt(pivot
    j). Then log det S is the sum of the log pivots and the Mahalanobis
    form is |y|^2. No inverse, determinant expansion or LAPACK call: the
    factor stays accurate on the nearly singular scales the noninformative
    prior gives short or collinear windows. A scale with a pivot at or
    below 0 is not positive definite; the caller raises ``LinAlgError``
    for the densities it uses.
    """
    d = diff.shape[0]
    factor, pivots, white = {}, np.empty_like(diff), np.empty_like(diff)
    row = 0  # packed index of S_jj
    # non-finite observations yield nan, caught by the evidence check downstream
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(d):
            pivot, y = scale[row], diff[j]
            for k in range(j):
                pivot = pivot - factor[k, j] * factor[k, j]
                y = y - factor[k, j] * white[k]
            pivots[j] = pivot
            root = np.sqrt(pivot)
            np.divide(y, root, out=white[j])
            for i in range(j + 1, d):
                s = scale[row + i - j]
                for k in range(j):
                    s = s - factor[k, j] * factor[k, i]
                factor[j, i] = s / root
            row += d - j
        logdet = np.log(pivots).sum(axis=0)
        maha = (white * white).sum(axis=0)
    # fmin skips NaN, so NaN scales pass the check as they always did
    return const - 0.5 * logdet - half * np.log1p(maha / df), np.fmin.reduce(pivots) <= 0.0


def _not_positive_definite() -> np.linalg.LinAlgError:
    return np.linalg.LinAlgError("predictive scale matrix is not positive definite")


def _student_t_terms(df, d: int):
    """(0.5 (df + d), log normalising constant) of a d-dimensional Student-t
    with ``df`` degrees of freedom, elementwise."""
    half = 0.5 * (df + d)
    gammas = [math.lgamma(h) - math.lgamma(0.5 * v) for h, v in zip(half.tolist(), df.tolist())]
    return half, np.array(gammas) - 0.5 * d * np.log(df * np.pi)


def log_predictive(o, params: NormalWishartParams) -> float:
    """Log posterior predictive density of one observation.

    The predictive is a d-dimensional Student-t with nu - d + 1 degrees
    of freedom, location mu and scale sigma * (kappa + 1) / (kappa * df),
    every count-only term read from the zero-count row of ``_count_table``.
    """
    o = np.asarray(o, dtype=float).ravel()
    if o.shape[0] != params.dim:
        raise ValueError("observation dimension does not match the parameters")
    _, _, df, coef, _, _, _, half, const = _count_table(params, 1)
    upper = np.triu_indices(params.dim)
    log_density, not_pd = _log_student_t((params.sigma[upper] * coef)[:, None],
                                         (o - params.mu)[:, None], df, half, const)
    if not_pd[0]:
        raise _not_positive_definite()
    return float(log_density[0])


def _count_table(prior: NormalWishartParams, size: int) -> np.ndarray:
    """The predictive's count-only terms for counts n = 0..size-1.

    One row per quantity, in the order HypothesisSet reads them: n,
    kappa_n, df, the scale factor (kappa_n + 1) / (kappa_n df), the
    prior-mean shrinkage kappa n / kappa_n, n / (n + 1), n + 1, and the
    Student-t terms 0.5 (df + d) and log normalising constant.
    """
    d = prior.dim
    n = np.arange(size, dtype=float)
    kappa_n = prior.kappa + n
    df = prior.nu + n - d + 1.0
    np1 = n + 1.0
    half, const = _student_t_terms(df, d)
    return np.stack([n, kappa_n, df, (kappa_n + 1.0) / (kappa_n * df),
                     prior.kappa * n / kappa_n, n / np1, np1, half, const])


# Cells (steps x hypothesis columns) of one scored block. It keeps the
# block's grids and Student-t temporaries under a megabyte each however
# many hypotheses are live. A smaller budget leaves exact-path blocks too
# short to pay for their fixed cost once more than 64 hypotheses are live;
# below that, ``_block_steps`` holds a block to the live count instead.
_BLOCK_CELLS = 8192


def _block_steps(live: int) -> int:
    """Steps b of the next block: the most with b (live + b) cells within
    ``_BLOCK_CELLS`` and no more than max(8, live), and at least one. The
    cap keeps the cells of hypotheses unborn at the block's start or pruned
    before its end, which no step reads, under about half of those scored."""
    budget = int((math.sqrt(live * live + 4 * _BLOCK_CELLS) - live) / 2)
    return max(1, min(max(8, live), budget))


class HypothesisSet:
    """Run-length hypotheses, their sufficient statistics and their scored
    predictives.

    The hypothesis with run length z carries exactly the last z
    observations as running (mean, centred scatter) statistics, so its
    count is its run length: a hypothesis born at the current step is
    empty, and a grown hypothesis has absorbed the current observation.
    Centred accumulation keeps the scatter accurate even when the prior
    scale is tiny (the nearly flat prior), where a sum-of-outer-products
    representation would leak cancellation error into near-singular
    predictive matrices.

    Hypotheses are listed newest (shortest run) first: ``run_lengths``
    (h,) and ``log_weights`` (h,), the normalised log run-length
    posterior of the current step; each scatter matrix is stored as its
    upper triangle in ``np.triu_indices`` order. ``score(block)`` is the
    data half of the next steps: it advances the statistics of every
    hypothesis live now or born in the block through the block and scores
    every (step, hypothesis) cell with one Student-t pass. ``step`` is the
    weight half and reads one row of those scores per step; ``prune``
    drops hypotheses. Everything of a predictive but its data term depends
    only on the count and is read from a table (``_count_table``) that
    doubles when a longer run appears.
    """

    def __init__(self, prior: NormalWishartParams):
        """The time-zero state: run length zero with certainty, no data."""
        d = prior.dim
        self.prior = prior
        self._upper = np.triu_indices(d)
        self._prior_mu = prior.mu[:, None, None]
        self._prior_kappa_mu = (prior.kappa * prior.mu)[:, None, None]
        self._prior_sigma = prior.sigma[self._upper][:, None, None]
        self._table = _count_table(prior, 16)
        # The scored block. Columns are the b hypotheses born in it, newest
        # first, then the h live when it was scored; ``_counts`` (b+1, b+h),
        # ``_means`` (d, b+1, b+h) and ``_scatters`` (d(d+1)/2, b+1, b+h)
        # hold each column's count and statistics before each of the b steps
        # and after the last, ``_log_pred`` (b, b+h) the log predictives,
        # ``_record`` (b, b+h) each step's normalised log weights at its live
        # columns and -inf elsewhere, and ``_not_pd`` the cells whose scale is
        # not positive definite (None when there are none). ``_row`` is the
        # next step.
        self._counts = np.zeros((1, 1), dtype=int)
        self._means = np.zeros((d, 1, 1))
        self._scatters = np.zeros((len(self._upper[0]), 1, 1))
        self._log_pred, self._record = np.empty((0, 1)), np.empty((0, 1))
        self._not_pd, self._row = None, 0
        # per live hypothesis: block column and log weight
        self._state = (np.zeros(1, dtype=int), np.zeros(1))

    def __len__(self) -> int:
        return len(self._state[0])

    @property
    def run_lengths(self) -> np.ndarray:
        return self._counts[self._row, self._state[0]]

    @property
    def log_weights(self) -> np.ndarray:
        return self._state[1]

    def score(self, block) -> None:
        """Score the next ``len(block)`` observations (the data half).

        A predictive depends only on its hypothesis's window, never on the
        weights, so every live hypothesis and every one the block will
        give birth to is advanced through the whole block first. Each step
        does the centred mean update of the per-step recursion on the
        columns born by then (an unborn column stays empty, with count 0
        and a zero delta) and keeps its deltas; the scatter increments
        n / (n + 1) (delta delta^T) of all steps are then one product, and
        one running sum along the steps adds them in the per-step order.
        One Student-t pass then scores every cell. Cells of unborn, and
        later of pruned, hypotheses are scored but never read, so the pass
        runs with floating-point warnings off; ``step`` checks the scales
        of the cells it reads.
        """
        block = np.asarray(block, dtype=float)
        run_lengths, log_weights, b = self.run_lengths, self.log_weights, len(block)
        h = len(run_lengths)
        counts = np.concatenate((np.arange(-b, 0), run_lengths)) + np.arange(b + 1)[:, None]
        np.maximum(counts, 0, out=counts)
        longest = counts[-2, -1]
        if longest >= self._table.shape[1]:
            self._table = _count_table(self.prior, 2 * (longest + 1))
        terms = self._table.take(counts[:b], axis=1)
        ratio, np1 = terms[5:7]  # n / (n + 1) and n + 1
        d, columns, (i, j) = len(self._means), self._state[0], self._upper
        means, deltas = np.zeros((d, b + 1, b + h)), np.zeros((d, b, b + h))
        means[:, 0, b:] = self._means[:, self._row, columns]
        # row 0: the scatters before the block; rows 1..b: the increments
        scatters = np.zeros((len(i), b + 1, b + h))
        scatters[:, 0, b:] = self._scatters[:, self._row, columns]
        with np.errstate(all="ignore"):
            for r, o in enumerate(block):
                born = slice(b - r, None)
                mean, delta = means[:, r, born], deltas[:, r, born]
                np.subtract(o[:, None], mean, out=delta)
                np.add(mean, delta / np1[r, born], out=means[:, r + 1, born])
            np.multiply(ratio, deltas[i] * deltas[j], out=scatters[:, 1:])
            np.add.accumulate(scatters, axis=1, out=scatters)
            n, kappa_n, df, coef, coeff, _, _, half, const = terms
            mean = means[:, :b]
            diff = block.T[:, :, None] - (self._prior_kappa_mu + n * mean) / kappa_n
            dm = self._prior_mu - mean
            sigma_n = self._prior_sigma + scatters[:, :b] + coeff * (dm[i] * dm[j])
            log_pred, not_pd = _log_student_t(sigma_n * coef, diff, df, half, const)
        self._counts, self._means, self._scatters, self._log_pred = counts, means, scatters, log_pred
        self._not_pd = not_pd if not_pd.any() else None
        self._row = 0
        self._record = np.full((b, b + h), -np.inf)
        self._state = (np.arange(b, b + h), log_weights)

    def prune(self, threshold: float) -> None:
        """Drop hypotheses below ``threshold`` posterior mass and renormalise.

        The most probable hypothesis is kept even when it falls below.
        """
        columns, log_w = self._state
        log_threshold = math.log(threshold)
        if not np.minimum.reduce(log_w) >= log_threshold:
            keep = log_w >= log_threshold
            if not np.logical_or.reduce(keep):
                keep[np.argmax(log_w)] = True
            columns, log_w = columns[keep], log_w[keep]
        self._state = (columns, log_w - _logsumexp_1d(log_w))


def step(hypotheses: HypothesisSet, hazard: HazardConfig) -> HypothesisSet:
    """One inference step: k hypotheses in, k + 1 out, weights normalised.

    Every incoming hypothesis grows with factor (1 - p) times its
    predictive for the step's observation; a single new zero-run
    hypothesis aggregates p times the predictive over all predecessors.
    All bookkeeping is in log space with log-sum-exp normalisation. This
    is the weight half of the recursion: it reads the next row of the
    block the set has scored (``HypothesisSet.score``), which must have a
    row left. The step's log weights go to its row of the block's grid
    at its hypotheses' columns, and the set is updated in place and
    returned before any pruning; a step that raises leaves its
    hypotheses unchanged.
    ``infer_posterior`` looks ``step`` up on this module once per
    observation, so a wrapper put in its place (``perfbench/tracing.py``)
    sees every step and each step's live count.
    """
    row, (columns, log_weights) = hypotheses._row, hypotheses._state
    if hypotheses._not_pd is not None and hypotheses._not_pd[row, columns].any():
        raise _not_positive_definite()
    scored = np.empty(len(columns) + 1)
    grown = scored[1:]
    np.add(log_weights, hypotheses._log_pred[row].take(columns), out=grown)
    # growth and reset masses both scale the same predictive mixture, so
    # the evidence equals log-sum-exp of the scored weights: one reduction
    # normalises the whole step (and the zero-run posterior is exactly p)
    evidence = _logsumexp_1d(grown)
    if not math.isfinite(evidence):
        raise FloatingPointError("all run-length hypotheses underflowed")
    grown += math.log1p(-hazard.p)
    grown -= evidence
    scored[0] = evidence + math.log(hazard.p) - evidence
    new_columns = np.empty(len(scored), dtype=int)
    new_columns[0] = len(hypotheses._log_pred) - 1 - row
    new_columns[1:] = columns
    hypotheses._record[row].put(new_columns, scored)
    hypotheses._state, hypotheses._row = (new_columns, scored), row + 1
    return hypotheses


@dataclass(frozen=True, eq=False)
class RunLengthPosterior:
    """The (T+1) x (T+1) run-length posterior, stored column by column.

    Column k holds the nonzero posterior weights after k observations:
    ``weights[indptr[k]:indptr[k + 1]]`` at rows
    ``run_lengths[indptr[k]:indptr[k + 1]]``. Every other cell is exactly
    zero, so memory scales with the live hypotheses, not with T²: 8 bytes
    a stored cell for the weight and 1 to 4 for the run length, in the
    narrowest unsigned type that holds T (10 on a night of 8,640 steps).
    Hypotheses are listed newest first, so run lengths ascend within a
    column, and the dense writers read the rows by merging the columns
    (``tables.matrix_rows``).
    """

    indptr: np.ndarray
    run_lengths: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:  # T + 1, the matrix's rows and columns
        return len(self.indptr) - 1


def infer_posterior(values, prior: NormalWishartParams, hazard: HazardConfig,
                    prune_threshold: float | None = None) -> RunLengthPosterior:
    """Run-length posterior of an embedding array, one column per step.

    Column k is P(run length | first k observations); column 0 is the
    point mass at zero. A run length can never exceed the elapsed steps,
    so the matrix is upper triangular. With ``prune_threshold`` set,
    hypotheses whose posterior falls below it are dropped after each step
    (column k still holds every weight computed at step k); with it unset
    the hypothesis set at column k has exactly k + 1 members. Weights that
    underflow to zero are not stored.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    hyps = HypothesisSet(prior)
    # the outputs grow in place (a realloc), so no copy of them is ever made;
    # run lengths take the narrowest unsigned type that holds the longest run
    run_lengths = np.zeros(1, dtype=np.min_scalar_type(len(values)))
    weights, filled = np.ones(1), 1
    stored = [0, 1]  # 0, then the number of weights stored in each column
    start = 0
    while start < len(values):
        block = values[start:start + _block_steps(len(hyps))]
        start += len(block)
        hyps.score(block)
        for _ in range(len(block)):
            hyps = step(hyps, hazard)
            if prune_threshold is not None:
                hyps.prune(prune_threshold)
        # A newborn takes the lowest column and ``prune`` keeps the order, so
        # every step's live columns ascend: read row by row, the grid gives
        # each step's hypotheses newest first, as the posterior stores them.
        w = np.exp(hyps._record)
        nonzero = w > 0.0
        kept = np.count_nonzero(nonzero)
        if filled + kept > len(weights):
            for out in (run_lengths, weights):
                out.resize((filled + kept) * 5 // 4, refcheck=False)
        np.compress(nonzero.ravel(), hyps._counts[1:], out=run_lengths[filled:filled + kept])
        np.compress(nonzero.ravel(), w, out=weights[filled:filled + kept])
        filled += kept
        stored.extend(np.count_nonzero(nonzero, axis=1).tolist())
    for out in (run_lengths, weights):
        out.resize(filled, refcheck=False)
    return RunLengthPosterior(np.cumsum(stored), run_lengths, weights)


def posterior_to_csv(posterior: RunLengthPosterior, path) -> None:
    """Dense CSV export of the posterior matrix (rows = run length, columns =
    time), each cell as ``%.9g``."""
    rows = tables.matrix_rows(posterior.indptr, posterior.run_lengths, posterior.weights)
    tables.write_matrix_text(path, posterior.size, rows, "%.9g", ",")


def posterior_to_pgm(posterior: RunLengthPosterior, path) -> None:
    """Grayscale map of the posterior as a plain (P2) portable graymap.

    Each row (run length) is normalised by its own maximum so long runs
    remain visible next to the dominant short ones; white is high
    probability. A row's gray levels, rint(255 (weight / row max)), are
    computed from its cells as the walk yields them.
    """
    n = posterior.size
    rows = tables.matrix_rows(posterior.indptr, posterior.run_lengths, posterior.weights)
    gray = ((r, cols, np.rint(w / w.max() * 255.0).astype(np.uint8)) for r, cols, w in rows)
    tables.write_matrix_text(path, n, gray, "%d", " ", f"P2\n{n} {n}\n255\n")
