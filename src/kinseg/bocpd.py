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
from scipy.special import gammaln, logsumexp


def _logsumexp_1d(x: np.ndarray) -> float:
    """Lean log-sum-exp for a 1D array (hot path; scipy's wrapper is slow)."""
    m = x.max()
    if not np.isfinite(m):
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


def _quadratic_form_3x3(scale: np.ndarray, diff: np.ndarray):
    """(log determinant, Mahalanobis form) for stacked symmetric 3x3 scales.

    Closed-form determinant and adjugate: a few elementwise operations per
    matrix instead of a LAPACK call each, which is what keeps the per-step
    cost flat across thousands of hypotheses. Positive definiteness is
    checked through the leading principal minors.
    """
    a = scale[..., 0, 0]
    b = scale[..., 0, 1]
    c = scale[..., 0, 2]
    d = scale[..., 1, 1]
    e = scale[..., 1, 2]
    f = scale[..., 2, 2]
    minor2 = a * d - b * b
    det = a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)
    if np.any(a <= 0.0) or np.any(minor2 <= 0.0) or np.any(det <= 0.0):
        raise np.linalg.LinAlgError("predictive scale matrix is not positive definite")
    x0, x1, x2 = diff[..., 0], diff[..., 1], diff[..., 2]
    with np.errstate(invalid="ignore"):  # non-finite observations yield nan,
        quad = (                         # caught by the evidence check downstream
            (d * f - e * e) * x0 * x0
            + (a * f - c * c) * x1 * x1
            + minor2 * x2 * x2
            + 2.0 * ((c * e - b * f) * x0 * x1 + (b * e - c * d) * x0 * x2 + (b * c - a * e) * x1 * x2)
        )
    return np.log(det), quad / det


def _mvt_logpdf_batch(x: np.ndarray, mu: np.ndarray, scale: np.ndarray, df: np.ndarray) -> np.ndarray:
    """Multivariate Student-t log density, batched over leading axis.

    Never forms an explicit inverse: the 3D case runs through closed-form
    determinants and adjugates, other dimensions through slogdet plus a
    batched solve; near-singular scale matrices fail loudly either way.
    """
    d = x.shape[-1]
    diff = x - mu
    if d == 3:
        logdet, maha = _quadratic_form_3x3(scale, diff)
    else:
        sign, logdet = np.linalg.slogdet(scale)
        if np.any(sign <= 0):
            raise np.linalg.LinAlgError("predictive scale matrix is not positive definite")
        sol = np.linalg.solve(scale, diff[..., None])[..., 0]
        maha = np.einsum("...i,...i->...", diff, sol)
    return (
        gammaln(0.5 * (df + d))
        - gammaln(0.5 * df)
        - 0.5 * d * np.log(df * np.pi)
        - 0.5 * logdet
        - 0.5 * (df + d) * np.log1p(maha / df)
    )


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
    return float(
        _mvt_logpdf_batch(o[None, :], params.mu[None, :], scale[None, :, :], np.array([df]))[0]
    )


class HypothesisSet:
    """Run-length hypotheses with per-hypothesis sufficient statistics.

    The hypothesis with run length z carries exactly the last z
    observations as running (count, mean, centred scatter) statistics: a
    hypothesis born at the current step is empty, and a grown hypothesis
    has absorbed the current observation. Centred accumulation keeps the
    scatter accurate even when the prior scale is tiny (the nearly flat
    prior), where a sum-of-outer-products representation would leak
    cancellation error into near-singular predictive matrices.
    ``log_weights`` is the normalised log run-length posterior of the
    current step.
    """

    def __init__(self, prior, run_lengths, counts, means, scatters, log_weights):
        self.prior = prior
        self.run_lengths = run_lengths
        self.counts = counts
        self.means = means
        self.scatters = scatters
        self.log_weights = log_weights

    @classmethod
    def initial(cls, prior: NormalWishartParams) -> "HypothesisSet":
        """The time-zero state: run length zero with certainty, no data."""
        d = prior.dim
        return cls(
            prior,
            run_lengths=np.array([0], dtype=int),
            counts=np.array([0.0]),
            means=np.zeros((1, d)),
            scatters=np.zeros((1, d, d)),
            log_weights=np.array([0.0]),
        )

    def __len__(self) -> int:
        return len(self.run_lengths)

    def _posterior_param_arrays(self):
        prior = self.prior
        n = self.counts
        kappa_n = prior.kappa + n
        nu_n = prior.nu + n
        mu_n = (prior.kappa * prior.mu + n[:, None] * self.means) / kappa_n[:, None]
        dm = prior.mu - self.means
        coeff = prior.kappa * n / kappa_n
        sigma_n = (
            prior.sigma
            + self.scatters
            + coeff[:, None, None] * np.einsum("hi,hj->hij", dm, dm)
        )
        return mu_n, kappa_n, nu_n, sigma_n

    def log_predictives(self, o) -> np.ndarray:
        """Log predictive density of ``o`` under every hypothesis."""
        o = np.asarray(o, dtype=float).ravel()
        mu_n, kappa_n, nu_n, sigma_n = self._posterior_param_arrays()
        d = self.prior.dim
        df = nu_n - d + 1.0
        coef = (kappa_n + 1.0) / (kappa_n * df)
        return _mvt_logpdf_batch(o[None, :], mu_n, sigma_n * coef[:, None, None], df)

    def pruned(self, threshold: float) -> "HypothesisSet":
        """Drop hypotheses below ``threshold`` posterior mass and renormalise."""
        keep = self.log_weights >= math.log(threshold)
        if not np.any(keep):
            keep[np.argmax(self.log_weights)] = True
        log_w = self.log_weights[keep]
        log_w = log_w - _logsumexp_1d(log_w)
        return HypothesisSet(
            self.prior,
            self.run_lengths[keep],
            self.counts[keep],
            self.means[keep],
            self.scatters[keep],
            log_w,
        )


def step(hypotheses: HypothesisSet, o, hazard: HazardConfig) -> HypothesisSet:
    """One inference step: k hypotheses in, k + 1 out, weights normalised.

    Every incoming hypothesis grows with factor (1 - p) times its
    predictive for ``o``; a single new zero-run hypothesis aggregates
    p times the predictive over all predecessors. All bookkeeping is in
    log space with log-sum-exp normalisation.
    """
    o = np.asarray(o, dtype=float).ravel()
    log_pred = hypotheses.log_predictives(o)
    scored = hypotheses.log_weights + log_pred
    # growth and reset masses both scale the same predictive mixture, so
    # the evidence equals log-sum-exp of the scored weights: one reduction
    # normalises the whole step (and the zero-run posterior is exactly p)
    evidence = _logsumexp_1d(scored)
    if not np.isfinite(evidence):
        raise FloatingPointError("all run-length hypotheses underflowed")
    log_joint = np.concatenate(
        ([evidence + math.log(hazard.p)], scored + math.log1p(-hazard.p))
    )
    d = o.shape[0]
    # grown hypotheses absorb the observation (centred updates); the
    # newborn one starts empty
    counts = hypotheses.counts + 1.0
    delta = o - hypotheses.means
    means = hypotheses.means + delta / counts[:, None]
    scatters = hypotheses.scatters + (
        (hypotheses.counts / counts)[:, None, None]
        * np.einsum("hi,hj->hij", delta, delta)
    )
    return HypothesisSet(
        hypotheses.prior,
        run_lengths=np.concatenate(([0], hypotheses.run_lengths + 1)),
        counts=np.concatenate(([0.0], counts)),
        means=np.vstack([np.zeros((1, d)), means]),
        scatters=np.vstack([np.zeros((1, d, d)), scatters]),
        log_weights=log_joint - evidence,
    )


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

    def steps(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Column (time step) of each entry stored for columns start..stop-1."""
        stop = self.size if stop is None else min(stop, self.size)
        return np.repeat(np.arange(start, stop), np.diff(self.indptr[start:stop + 1]))

    def toarray(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Columns start..stop-1 as a dense (T+1)-row matrix (all by default)."""
        stop = self.size if stop is None else min(stop, self.size)
        a, b = self.indptr[start], self.indptr[stop]
        dense = np.zeros((self.size, stop - start))
        dense[self.run_lengths[a:b], self.steps(start, stop) - start] = self.weights[a:b]
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
    hyps = HypothesisSet.initial(prior)
    run_lengths, weights = [hyps.run_lengths], [np.exp(hyps.log_weights)]
    for o in values:
        hyps = step(hyps, o, hazard)
        w = np.exp(hyps.log_weights)
        nonzero = w > 0.0
        run_lengths.append(hyps.run_lengths[nonzero])
        weights.append(w[nonzero])
        if prune_threshold is not None:
            hyps = hyps.pruned(prune_threshold)
    indptr = np.concatenate(([0], np.cumsum([len(w) for w in weights])))
    return RunLengthPosterior(len(weights), indptr, np.concatenate(run_lengths),
                              np.concatenate(weights))


def run_inference(series, prior: NormalWishartParams, hazard: HazardConfig,
                  prune_threshold: float | None = None) -> np.ndarray:
    """``infer_posterior`` as a dense (T+1) x (T+1) matrix, rows indexed by
    run length and columns by time step."""
    return infer_posterior(series, prior, hazard, prune_threshold).toarray()


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
    ``run_inference``.
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
                col[run] = logsumexp(vals)
        posterior[: k + 1, k] = np.exp(col - logsumexp(col))
    return posterior


def _write_matrix_text(path, posterior: RunLengthPosterior, cells, fmt: str, sep: str,
                       header: str = "") -> None:
    """Write the posterior matrix as text, one run-length row per line.

    Stored cells print as ``fmt % cell`` (``cells`` is aligned with the
    stored entries), every other cell as 0, separated by ``sep``. Each
    stretch of adjacent stored cells in a row is formatted in one go.
    """
    n = posterior.size
    order = np.argsort(posterior.run_lengths, kind="stable")  # by row, then column
    rows = posterior.run_lengths[order]
    cols = posterior.steps()[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1] + 1)
    starts = np.flatnonzero(new)
    row_stretches = np.searchsorted(rows[starts], np.arange(n + 1)).tolist()
    first_cols = cols[starts].tolist()
    bounds = np.append(starts, len(rows)).tolist()
    cells = np.asarray(cells)[order].tolist()
    zero, item = "0" + sep, fmt + sep
    with open(path, "w") as fh:
        fh.write(header)
        for r in range(n):
            pieces, filled = [], 0
            for s in range(row_stretches[r], row_stretches[r + 1]):
                a, b = bounds[s], bounds[s + 1]
                pieces.append(zero * (first_cols[s] - filled))
                pieces.append(item * (b - a) % tuple(cells[a:b]))
                filled = first_cols[s] + b - a
            pieces.append(zero * (n - filled))
            fh.write("".join(pieces)[:-len(sep)] + "\n")


def posterior_to_csv(posterior: RunLengthPosterior, path) -> None:
    """Dense CSV export of the posterior matrix (rows = run length, columns =
    time), each cell as ``%.9g``."""
    _write_matrix_text(path, posterior, posterior.weights, "%.9g", ",")


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
    _write_matrix_text(path, posterior, gray, "%d", " ", f"P2\n{n} {n}\n255\n")
