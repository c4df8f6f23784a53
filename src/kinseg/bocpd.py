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
empty, so every segment is scored sequentially from the raw prior.
``brute_force_posterior`` enumerates all changepoint configurations
directly from that definition and serves as the exactness oracle for
the recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tables


def _logsumexp_1d(x: np.ndarray) -> float:
    """Lean log-sum-exp for a 1D array (hot path; scipy's wrapper is slow)."""
    m = x.max()
    if not math.isfinite(m):
        return float(m) if m == -np.inf else float("nan")
    return float(m + math.log(np.exp(x - m).sum()))


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
        if not np.allclose(self.sigma, self.sigma.T, atol=1e-9):
            raise ValueError("sigma must be symmetric")
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        # predictive degrees of freedom nu - d + 1 must exceed 1
        if self.nu <= d:
            raise ValueError(f"nu must exceed the dimension ({d}), got {self.nu}")

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


def informative_prior(dim: int = 3) -> NormalWishartParams:
    """Prior tuned for the constrained radial embedding shell."""
    return NormalWishartParams(
        mu=np.full(dim, 1e-4),
        kappa=1.0 / 20.0,
        nu=float(dim + 1),
        sigma=5.0 * np.eye(dim),
    )


def noninformative_prior(dim: int = 3, epsilon: float = 1e-8) -> NormalWishartParams:
    """Nearly flat prior for unconstrained (external) embedding spaces.

    The nominal prior has a singular scale matrix; ``epsilon`` regularises
    it to keep early predictives proper. Inference is exact for any
    positive epsilon, but the value shifts the reset-versus-growth odds
    of newborn hypotheses (their first predictions are scored against an
    epsilon-scaled matrix), so it is exposed as configuration.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    return NormalWishartParams(
        mu=np.full(dim, 1e-4),
        kappa=1e-4,
        nu=float(dim + 1),
        sigma=epsilon * np.eye(dim),
    )


@dataclass(frozen=True)
class HazardConfig:
    """Per-step changepoint probability of the geometric run-length prior."""

    p: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"changepoint probability must be in (0, 1), got {self.p}")


def nw_posterior_params(prior: NormalWishartParams, window) -> NormalWishartParams:
    """Posterior Normal-Wishart parameters after observing ``window``.

    mu is the precision-weighted mean, kappa and nu grow by the window
    size, and sigma accumulates the within-window scatter plus the
    prior-mean shrinkage term. An empty window returns the prior.

    The window mean and scatter are accumulated with centred (one pass,
    oldest first) updates, the same arithmetic the online hypothesis set
    uses, so batch and incremental evaluations of one window agree to the
    last bit even when the prior scale is nearly singular.
    """
    obs = np.atleast_2d(np.asarray(window, dtype=float))
    if obs.size == 0:
        return prior
    n = obs.shape[0]
    d = obs.shape[1]
    mean = np.zeros(d)
    scatter = np.zeros((d, d))
    for i, o in enumerate(obs):
        delta = o - mean
        mean = mean + delta / (i + 1.0)
        scatter = scatter + (i / (i + 1.0)) * np.einsum("i,j->ij", delta, delta)
    kappa_n = prior.kappa + float(n)
    mu_n = (prior.kappa * prior.mu + n * mean) / kappa_n
    dm = prior.mu - mean
    coeff = prior.kappa * n / kappa_n
    sigma_n = prior.sigma + scatter + coeff * np.einsum("i,j->ij", dm, dm)
    return NormalWishartParams(mu_n, kappa_n, prior.nu + n, sigma_n)


def _log_student_t(scale: np.ndarray, diff: np.ndarray, df, half, const) -> np.ndarray:
    """Multivariate Student-t log density, one column per density.

    ``scale`` holds each symmetric scale matrix S as its upper triangle in
    ``np.triu_indices`` order, ``diff`` the observation x minus the
    location, and ``half, const`` come from ``_student_t_terms(df, d)``.
    Every dimension takes one route: S = U^T U is factored one packed
    entry at a time, each a numpy operation over all columns. Pivot j is
    S_jj - sum_k<j U_kj^2 and must be positive, or the scale is not
    positive definite and ``LinAlgError`` is raised; U_ji = (S_ji - sum_k<j
    U_kj U_ki) / sqrt(pivot j) and y_j = (x_j - sum_k<j U_kj y_k) /
    sqrt(pivot j). Then log det S is the sum of the log pivots and the
    Mahalanobis form is |y|^2. No inverse, determinant expansion or LAPACK
    call: the factor stays accurate on the nearly singular scales the
    noninformative prior gives short or collinear windows.
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
        # fmin skips NaN, so NaN scales pass the check as they always did
        if np.fmin.reduce(pivots, axis=None) <= 0.0:
            raise np.linalg.LinAlgError("predictive scale matrix is not positive definite")
        logdet = np.log(pivots).sum(axis=0)
        maha = (white * white).sum(axis=0)
    return const - 0.5 * logdet - half * np.log1p(maha / df)


def _student_t_terms(df, d: int):
    """(0.5 (df + d), log normalising constant) of a d-dimensional Student-t
    with ``df`` degrees of freedom, elementwise."""
    half = 0.5 * (df + d)
    gammas = [math.lgamma(h) - math.lgamma(0.5 * v) for h, v in zip(half.tolist(), df.tolist())]
    return half, np.array(gammas) - 0.5 * d * np.log(df * np.pi)


def predictive_scale(params: NormalWishartParams):
    """(scale matrix, degrees of freedom) of the Student-t posterior predictive."""
    df = params.nu - params.dim + 1.0
    scale = params.sigma * ((params.kappa + 1.0) / (params.kappa * df))
    return scale, df


def log_predictive(o, params: NormalWishartParams) -> float:
    """Log posterior predictive density of one observation.

    The predictive is a d-dimensional Student-t with nu - d + 1 degrees
    of freedom, location mu and scale sigma * (kappa + 1) / (kappa * df).
    """
    o = np.asarray(o, dtype=float).ravel()
    if o.shape[0] != params.dim:
        raise ValueError("observation dimension does not match the parameters")
    scale, df = predictive_scale(params)
    df = np.array([df])
    half, const = _student_t_terms(df, params.dim)
    upper = np.triu_indices(params.dim)
    return float(_log_student_t(scale[upper][:, None], (o - params.mu)[:, None],
                                df, half, const)[0])


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


class HypothesisSet:
    """Run-length hypotheses with per-hypothesis sufficient statistics.

    The hypothesis with run length z carries exactly the last z
    observations as running (mean, centred scatter) statistics, so its
    count is its run length: a hypothesis born at the current step is
    empty, and a grown hypothesis has absorbed the current observation.
    Centred accumulation keeps the scatter accurate even when the prior
    scale is tiny (the nearly flat prior), where a sum-of-outer-products
    representation would leak cancellation error into near-singular
    predictive matrices.

    Hypotheses are columns, newest (shortest run) first: ``run_lengths``
    (h,), ``means`` (d, h), ``scatters`` (d(d+1)/2, h), each scatter
    matrix as its upper triangle in ``np.triu_indices`` order, and
    ``log_weights`` (h,), the normalised log run-length posterior of the
    current step. They are views of the tail of preallocated buffers: a
    step updates them in place and prepends the newborn hypothesis, a full
    buffer doubles its capacity, and pruning moves the kept hypotheses to
    the tail. Everything of a predictive but its data term depends only on
    the count and is read from a table (``_count_table``) that doubles
    when a longer run appears.
    """

    _INITIAL_CAPACITY = 16

    def __init__(self, prior: NormalWishartParams):
        """The time-zero state: run length zero with certainty, no data."""
        d = prior.dim
        self.prior = prior
        self._upper = np.triu_indices(d)
        self._prior_mu = prior.mu[:, None]
        self._prior_kappa_mu = (prior.kappa * prior.mu)[:, None]
        self._prior_sigma = prior.sigma[self._upper][:, None]
        cap = self._INITIAL_CAPACITY
        self._table = _count_table(prior, cap)
        self._state = (np.zeros(cap, dtype=int), np.zeros((d, cap)),
                       np.zeros((len(self._upper[0]), cap)), np.zeros(cap))
        self._start = cap - 1

    def __len__(self) -> int:
        return len(self._state[0]) - self._start

    @property
    def run_lengths(self) -> np.ndarray:
        return self._state[0][self._start:]

    @property
    def means(self) -> np.ndarray:
        return self._state[1][:, self._start:]

    @property
    def scatters(self) -> np.ndarray:
        return self._state[2][:, self._start:]

    @property
    def log_weights(self) -> np.ndarray:
        return self._state[3][self._start:]

    def _count_terms(self) -> np.ndarray:
        """The count table's columns for the live hypotheses; the table
        doubles when the longest run outgrows it."""
        run_lengths = self.run_lengths
        longest = int(run_lengths[-1])
        if longest >= self._table.shape[1]:
            self._table = _count_table(self.prior, 2 * (longest + 1))
        return self._table[:, run_lengths]

    def _log_predictives(self, o: np.ndarray, counts: np.ndarray) -> np.ndarray:
        n, kappa_n, df, coef, coeff, _, _, half, const = counts
        means = self.means
        diff = o - (self._prior_kappa_mu + n * means) / kappa_n
        dm = self._prior_mu - means
        i, j = self._upper
        sigma_n = self._prior_sigma + self.scatters + coeff * (dm[i] * dm[j])
        return _log_student_t(sigma_n * coef, diff, df, half, const)

    def log_predictives(self, o) -> np.ndarray:
        """Log predictive density of ``o`` under every hypothesis."""
        o = np.asarray(o, dtype=float).reshape(-1, 1)
        return self._log_predictives(o, self._count_terms())

    def _grow(self, o: np.ndarray, counts: np.ndarray, log_weights: np.ndarray,
              newborn_log_weight: float) -> None:
        """Every hypothesis absorbs ``o`` (centred updates) and takes its new
        log weight; then an empty newborn hypothesis goes in front."""
        run_lengths, means, scatters, weights = self._state
        s = self._start
        delta = o - means[:, s:]
        ratio, np1 = counts[5:7]  # n / (n + 1) and n + 1
        means[:, s:] += delta / np1
        i, j = self._upper
        scatters[:, s:] += ratio * (delta[i] * delta[j])
        run_lengths[s:] += 1
        weights[s:] = log_weights
        if s == 0:
            self._regrow()
            run_lengths, means, scatters, weights = self._state
            s = self._start
        s = self._start = s - 1
        run_lengths[s] = 0
        means[:, s] = 0.0
        scatters[:, s] = 0.0
        weights[s] = newborn_log_weight

    def _regrow(self) -> None:
        """Double the capacity; the live hypotheses move to the new tail."""
        h, cap = len(self), 2 * len(self._state[0])
        grown = []
        for buf in self._state:
            new = np.zeros(buf.shape[:-1] + (cap,), dtype=buf.dtype)
            new[..., cap - h:] = buf[..., self._start:]
            grown.append(new)
        self._state = tuple(grown)
        self._start = cap - h

    def prune(self, threshold: float) -> None:
        """Drop hypotheses below ``threshold`` posterior mass and renormalise.

        The most probable hypothesis is kept even when it falls below.
        """
        log_w = self.log_weights
        keep = log_w >= math.log(threshold)
        if not keep.any():
            keep[np.argmax(log_w)] = True
        kept = np.flatnonzero(keep) + self._start
        self._start = len(self._state[0]) - len(kept)
        for buf in self._state:
            buf[..., self._start:] = buf[..., kept]
        log_w = self.log_weights
        log_w -= _logsumexp_1d(log_w)


def step(hypotheses: HypothesisSet, o, hazard: HazardConfig) -> HypothesisSet:
    """One inference step: k hypotheses in, k + 1 out, weights normalised.

    Every incoming hypothesis grows with factor (1 - p) times its
    predictive for ``o``; a single new zero-run hypothesis aggregates
    p times the predictive over all predecessors. All bookkeeping is in
    log space with log-sum-exp normalisation. The set is updated in place
    and returned; a step that raises leaves it unchanged.
    """
    o = np.asarray(o, dtype=float).reshape(-1, 1)
    counts = hypotheses._count_terms()
    scored = hypotheses.log_weights + hypotheses._log_predictives(o, counts)
    # growth and reset masses both scale the same predictive mixture, so
    # the evidence equals log-sum-exp of the scored weights: one reduction
    # normalises the whole step (and the zero-run posterior is exactly p)
    evidence = _logsumexp_1d(scored)
    if not math.isfinite(evidence):
        raise FloatingPointError("all run-length hypotheses underflowed")
    scored += math.log1p(-hazard.p)
    scored -= evidence
    hypotheses._grow(o, counts, scored, evidence + math.log(hazard.p) - evidence)
    return hypotheses


@dataclass(frozen=True, eq=False)
class RunLengthPosterior:
    """The (T+1) x (T+1) run-length posterior, stored column by column.

    Column k holds the nonzero posterior weights after k observations:
    ``weights[indptr[k]:indptr[k + 1]]`` at rows
    ``run_lengths[indptr[k]:indptr[k + 1]]``. Every other cell is exactly
    zero, so memory scales with the live hypotheses, not with T².
    """

    size: int
    indptr: np.ndarray
    run_lengths: np.ndarray
    weights: np.ndarray

    def steps(self) -> np.ndarray:
        """Column (time step) of each stored entry."""
        return np.repeat(np.arange(self.size), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        """The dense (T+1) x (T+1) matrix, rows indexed by run length and
        columns by time step."""
        dense = np.zeros((self.size, self.size))
        dense[self.run_lengths, self.steps()] = self.weights
        return dense


def infer_posterior(series, prior: NormalWishartParams, hazard: HazardConfig,
                    prune_threshold: float | None = None) -> RunLengthPosterior:
    """Run-length posterior of an embedding series, one column per step.

    Column k is P(run length | first k observations); column 0 is the
    point mass at zero. A run length can never exceed the elapsed steps,
    so the matrix is upper triangular. With ``prune_threshold`` set,
    hypotheses whose posterior falls below it are dropped after each step
    (column k still holds every weight computed at step k); with it unset
    the hypothesis set at column k has exactly k + 1 members. Weights that
    underflow to zero are not stored.
    """
    values = getattr(series, "values", series)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    hyps = HypothesisSet(prior)
    run_lengths, weights = [hyps.run_lengths.copy()], [np.exp(hyps.log_weights)]
    for o in values:
        hyps = step(hyps, o, hazard)
        w = np.exp(hyps.log_weights)
        nonzero = w > 0.0
        run_lengths.append(hyps.run_lengths[nonzero])
        weights.append(w[nonzero])
        if prune_threshold is not None:
            hyps.prune(prune_threshold)
    indptr = np.concatenate(([0], np.cumsum([len(w) for w in weights])))
    return RunLengthPosterior(len(weights), indptr, np.concatenate(run_lengths),
                              np.concatenate(weights))


def brute_force_posterior(series, prior: NormalWishartParams, hazard: HazardConfig,
                          max_steps: int = 12) -> np.ndarray:
    """Run-length posterior by exhaustive changepoint enumeration.

    Every binary configuration of changepoints over steps 1..k is scored
    as p^(changepoints) * (1-p)^(growths) times the product over its
    segments of sequential posterior predictives, each segment scored
    from the raw prior on explicitly materialised windows. A changepoint
    at step c ends its segment after the observation at c, so segments
    span (previous changepoint, changepoint]. Only feasible for short
    series (2^T configurations); this is the test oracle for
    ``infer_posterior``.
    """
    values = getattr(series, "values", series)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    T = values.shape[0]
    if T > max_steps:
        raise ValueError(f"brute force enumeration limited to {max_steps} steps, got {T}")
    log_p = math.log(hazard.p)
    log_1mp = math.log1p(-hazard.p)

    # log predictive product of a segment covering observation indices
    # [a, b) (0-based), each observation scored on the window before it
    log_segment = {}
    for a in range(T):
        acc = 0.0
        for b in range(a + 1, T + 1):
            params = nw_posterior_params(prior, values[a:b - 1])
            acc += log_predictive(values[b - 1], params)
            log_segment[(a, b)] = acc

    posterior = np.zeros((T + 1, T + 1))
    posterior[0, 0] = 1.0
    for k in range(1, T + 1):
        buckets = [[] for _ in range(k + 1)]
        for bits in range(2 ** k):
            cps = [j + 1 for j in range(k) if (bits >> j) & 1]
            cuts = [0] + cps + ([k] if not cps or cps[-1] != k else [])
            loglik = sum(
                log_segment[(cuts[i], cuts[i + 1])]
                for i in range(len(cuts) - 1)
                if cuts[i + 1] > cuts[i]
            )
            weight = len(cps) * log_p + (k - len(cps)) * log_1mp
            run = k - (cps[-1] if cps else 0)
            buckets[run].append(loglik + weight)
        col = np.full(k + 1, -np.inf)
        for run, vals in enumerate(buckets):
            if vals:
                col[run] = _logsumexp_1d(np.array(vals))
        posterior[: k + 1, k] = np.exp(col - _logsumexp_1d(col))
    return posterior


def posterior_to_csv(posterior: RunLengthPosterior, path) -> None:
    """Dense CSV export of the posterior matrix (rows = run length, columns =
    time), each cell as ``%.9g``."""
    tables.write_matrix_text(path, posterior.size, posterior.run_lengths, posterior.steps(),
                             posterior.weights, "%.9g", ",")


def posterior_to_pgm(posterior: RunLengthPosterior, path) -> None:
    """Grayscale map of the posterior as a plain (P2) portable graymap.

    Each row (run length) is normalised by its own maximum so long runs
    remain visible next to the dominant short ones; white is high
    probability.
    """
    row_max = np.zeros(posterior.size)
    np.maximum.at(row_max, posterior.run_lengths, posterior.weights)
    gray = np.rint(255.0 * (posterior.weights / row_max[posterior.run_lengths])).astype(int)
    n = posterior.size
    tables.write_matrix_text(path, n, posterior.run_lengths, posterior.steps(), gray, "%d", " ",
                             f"P2\n{n} {n}\n255\n")
