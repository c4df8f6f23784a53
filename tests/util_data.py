"""Shared test data helpers."""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
from scipy.special import gammaln

from kinseg.bocpd import NormalWishartParams, RunLengthPosterior, log_predictive
from kinseg.kinematics import quaternion_series_to_axis_angle


def axis_angle_of(q):
    """One quaternion through the series converter: (axis, angle)."""
    axes, angles = quaternion_series_to_axis_angle([q])
    return axes[0], float(angles[0])


def axis_angle_to_quaternion(axis, angle) -> np.ndarray:
    """Inverse conversion, (w, i, j, k) with w = cos(angle / 2)."""
    axis = np.asarray(axis, dtype=float)
    half = 0.5 * float(angle)
    return np.concatenate(([np.cos(half)], np.sin(half) * axis))


def random_surface_points(rng, n):
    """Random points on the cube surface: random face, random in-plane coords."""
    face = rng.integers(0, 6, size=n)
    axis = face // 2
    sign = 1.0 - 2.0 * (face % 2)
    inplane = rng.uniform(-1.0, 1.0, size=(n, 2))
    pts = np.empty((n, 3))
    for a in range(3):
        rows = axis == a
        others = [i for i in range(3) if i != a]
        pts[rows, a] = sign[rows]
        pts[rows, others[0]] = inplane[rows, 0]
        pts[rows, others[1]] = inplane[rows, 1]
    return pts


def monte_carlo_predictive_densities(points, params, n_samples, seed, chunk=200_000):
    """Monte Carlo estimate of the posterior predictive density at ``points``.

    Marginalises the Gaussian likelihood over (mean, precision) drawn from
    the Normal-Wishart with the given parameters: the precision is sampled
    by the Bartlett construction from the Wishart with scale
    inverse(sigma) and nu degrees of freedom, the mean conditionally from
    a Gaussian with covariance inverse(kappa * precision). Returns the
    averaged Gaussian density at each point; independent of the closed
    form under test. All points share the same parameter samples.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = points.shape[1]
    rng = np.random.default_rng(seed)
    wishart_scale = np.linalg.inv(params.sigma)
    L = np.linalg.cholesky(wishart_scale)
    totals = np.zeros(len(points))
    remaining = n_samples
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        # Bartlett: lambda = (L A)(L A)^T with A lower triangular,
        # A_ii^2 ~ chi2(nu - i), A_ij ~ N(0, 1) below the diagonal
        A = np.zeros((m, d, d))
        for i in range(d):
            A[:, i, i] = np.sqrt(rng.chisquare(params.nu - i, size=m))
            for j in range(i):
                A[:, i, j] = rng.standard_normal(m)
        M = L @ A  # lambda = M M^T
        # mean | lambda ~ N(mu, (kappa * lambda)^-1): mu + M^-T z / sqrt(kappa)
        z = rng.standard_normal((m, d))
        # M^T is upper triangular: back substitution, M^T[i, j] = M[j, i]
        shift = np.empty((m, d))
        for i in reversed(range(d)):
            rest = (M[:, i + 1:, i] * shift[:, i + 1:]).sum(axis=1)
            shift[:, i] = (z[:, i] - rest) / M[:, i, i]
        mean = params.mu + shift / np.sqrt(params.kappa)
        logdet = 2.0 * np.sum(np.log(np.abs(M[:, range(d), range(d)])), axis=1)
        # maha = |M^T (point - mean)|^2, one (P, m) matrix product per entry
        # of M^T point, less M^T mean
        centre = (mean[:, None, :] @ M)[:, 0]
        maha = 0.0
        for i in range(d):
            w = points @ M[:, :, i].T - centre[:, i]
            maha = maha + w * w
        dens = np.exp(-0.5 * d * np.log(2.0 * np.pi) + 0.5 * logdet[None, :] - 0.5 * maha)
        totals += dens.sum(axis=1)
    return totals / n_samples


def monte_carlo_predictive_density(o, params, n_samples, seed, chunk=200_000):
    """Single-point convenience wrapper around the batched estimator."""
    return float(monte_carlo_predictive_densities([o], params, n_samples, seed, chunk)[0])


def two_segment_series(rng, length_a, length_b, mean_a, mean_b, sigma):
    a = np.asarray(mean_a, float) + sigma * rng.standard_normal((length_a, 3))
    b = np.asarray(mean_b, float) + sigma * rng.standard_normal((length_b, 3))
    return np.vstack([a, b])


def unpack_symmetric(packed):
    """(h, d, d) symmetric matrices from their upper triangles, one per
    column of ``packed`` in ``np.triu_indices`` order."""
    m = packed.shape[0]
    d = int(round((math.sqrt(8 * m + 1) - 1) / 2))
    i, j = np.triu_indices(d)
    full = np.empty((packed.shape[1], d, d))
    full[:, i, j] = packed.T
    full[:, j, i] = packed.T
    return full


def hypothesis_statistics(hyps):
    """(means (d, h), scatters (d(d+1)/2, h)) of the live hypotheses of a
    kinseg HypothesisSet, newest first, each scatter matrix as its upper
    triangle in ``np.triu_indices`` order."""
    return (hyps._means[:, hyps._row, hyps._state[0]],
            hyps._scatters[:, hyps._row, hyps._state[0]])


def reference_state(hyps):
    """A kinseg HypothesisSet as the reference kernel's state (counts are
    run lengths, hypotheses along the first axis)."""
    means, scatters = hypothesis_statistics(hyps)
    return ReferenceHypothesisSet(
        hyps.prior, hyps.run_lengths.copy(), hyps.run_lengths.astype(float),
        means.T.copy(), unpack_symmetric(scatters), hyps.log_weights.copy())


def hypothesis_params(hyps, i):
    """Posterior Normal-Wishart parameters of hypothesis i of a HypothesisSet,
    evaluated by the reference kernel."""
    mu_n, kappa_n, nu_n, sigma_n = reference_state(hyps)._posterior_param_arrays()
    return NormalWishartParams(mu_n[i], kappa_n[i], nu_n[i], sigma_n[i])


def min_pairwise_angle(axes):
    """Smallest angular distance (radians) between any two axes."""
    pts = np.asarray(axes, dtype=float)
    if len(pts) < 2:
        raise ValueError("need at least two axes")
    cos = pts @ pts.T
    np.fill_diagonal(cos, -1.0)
    return float(np.arccos(np.clip(cos.max(), -1.0, 1.0)))


# The reference kernel: the straightforward BOCPD step over an (h, d, d)
# scatter tensor with explicit counts, rebuilding every array each step.
# kinseg.bocpd must reproduce its hypothesis state bit for bit, and its
# weights to the tolerances TestKernelPin states: the two factor the
# predictive scales in different orders (and this one uses scipy's gammaln
# where kinseg uses math.lgamma), so the weights differ in the last bits.

def _logsumexp_1d(x):
    m = x.max()
    if not np.isfinite(m):
        return float(m) if m == -np.inf else float("nan")
    return float(m + math.log(np.exp(x - m).sum()))


def _mvt_logpdf_batch(x, mu, scale, df):
    """Student-t log densities through a LAPACK Cholesky factor L of each
    scale and forward substitution L y = x - mu, in every dimension."""
    d = x.shape[-1]
    diff = x - mu
    factor = np.linalg.cholesky(scale)  # raises LinAlgError unless positive definite
    logdet = 2.0 * np.log(np.diagonal(factor, axis1=-2, axis2=-1)).sum(axis=-1)
    white = np.empty(factor.shape[:-1])
    with np.errstate(invalid="ignore"):
        for i in range(d):
            partial = np.einsum("...k,...k->...", factor[..., i, :i], white[..., :i])
            white[..., i] = (diff[..., i] - partial) / factor[..., i, i]
        maha = np.einsum("...i,...i->...", white, white)
    return (
        gammaln(0.5 * (df + d))
        - gammaln(0.5 * df)
        - 0.5 * d * np.log(df * np.pi)
        - 0.5 * logdet
        - 0.5 * (df + d) * np.log1p(maha / df)
    )


class ReferenceHypothesisSet:
    """Run-length hypotheses as (count, mean, centred scatter) arrays,
    newest first; ``log_weights`` is the normalised log posterior."""

    def __init__(self, prior, run_lengths, counts, means, scatters, log_weights):
        self.prior = prior
        self.run_lengths = run_lengths
        self.counts = counts
        self.means = means
        self.scatters = scatters
        self.log_weights = log_weights

    @classmethod
    def time_zero(cls, prior):
        d = prior.dim
        return cls(prior, np.array([0], dtype=int), np.array([0.0]), np.zeros((1, d)),
                   np.zeros((1, d, d)), np.array([0.0]))

    def __len__(self):
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

    def log_predictives(self, o):
        o = np.asarray(o, dtype=float).ravel()
        mu_n, kappa_n, nu_n, sigma_n = self._posterior_param_arrays()
        d = self.prior.dim
        df = nu_n - d + 1.0
        coef = (kappa_n + 1.0) / (kappa_n * df)
        return _mvt_logpdf_batch(o[None, :], mu_n, sigma_n * coef[:, None, None], df)

    def pruned(self, threshold):
        keep = self.log_weights >= math.log(threshold)
        if not np.any(keep):
            keep[np.argmax(self.log_weights)] = True
        log_w = self.log_weights[keep]
        log_w = log_w - _logsumexp_1d(log_w)
        return ReferenceHypothesisSet(self.prior, self.run_lengths[keep], self.counts[keep],
                                      self.means[keep], self.scatters[keep], log_w)


def reference_step(hypotheses, o, hazard):
    """One step of the reference kernel: a new ReferenceHypothesisSet."""
    o = np.asarray(o, dtype=float).ravel()
    log_pred = hypotheses.log_predictives(o)
    scored = hypotheses.log_weights + log_pred
    evidence = _logsumexp_1d(scored)
    if not np.isfinite(evidence):
        raise FloatingPointError("all run-length hypotheses underflowed")
    log_joint = np.concatenate(
        ([evidence + math.log(hazard.p)], scored + math.log1p(-hazard.p))
    )
    d = o.shape[0]
    counts = hypotheses.counts + 1.0
    delta = o - hypotheses.means
    means = hypotheses.means + delta / counts[:, None]
    scatters = hypotheses.scatters + (
        (hypotheses.counts / counts)[:, None, None]
        * np.einsum("hi,hj->hij", delta, delta)
    )
    return ReferenceHypothesisSet(
        hypotheses.prior,
        run_lengths=np.concatenate(([0], hypotheses.run_lengths + 1)),
        counts=np.concatenate(([0.0], counts)),
        means=np.vstack([np.zeros((1, d)), means]),
        scatters=np.vstack([np.zeros((1, d, d)), scatters]),
        log_weights=log_joint - evidence,
    )


# The exactness oracle: the posterior straight from the definition of the
# model, every changepoint configuration enumerated and every segment
# scored from the raw prior on its materialised window through kinseg's
# ``log_predictive``. The recursion must match it to 1e-9.

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


def brute_force_posterior(series, prior, hazard, max_steps=12):
    """Run-length posterior by exhaustive changepoint enumeration.

    Every binary configuration of changepoints over steps 1..k is scored
    as p^(changepoints) * (1-p)^(growths) times the product over its
    segments of sequential posterior predictives, each segment scored
    from the raw prior on explicitly materialised windows. A changepoint
    at step c ends its segment after the observation at c, so segments
    span (previous changepoint, changepoint]. Only feasible for short
    series (2^T configurations); returns the dense (T+1) x (T+1) matrix.
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


def reference_columns(values, prior, hazard, prune_threshold=None):
    """The reference recursion: the run lengths and weights of the
    hypotheses live after each step (before pruning), starting with the
    time-zero column."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    hyps = ReferenceHypothesisSet.time_zero(prior)
    yield hyps.run_lengths, np.exp(hyps.log_weights)
    for o in values:
        hyps = reference_step(hyps, o, hazard)
        yield hyps.run_lengths, np.exp(hyps.log_weights)
        if prune_threshold is not None:
            hyps = hyps.pruned(prune_threshold)


def column_posterior(columns):
    """A ``RunLengthPosterior`` from one (run lengths, weights) pair per column."""
    run_lengths = [np.asarray(r, dtype=int) for r, _ in columns]
    weights = [np.asarray(w, dtype=float) for _, w in columns]
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in run_lengths])))
    return RunLengthPosterior(len(columns), indptr, np.concatenate(run_lengths),
                              np.concatenate(weights))


def dense_matrix(posterior):
    """The dense (T+1) x (T+1) matrix of a ``RunLengthPosterior``, rows
    indexed by run length and columns by time step."""
    dense = np.zeros((posterior.size, posterior.size))
    steps = np.repeat(np.arange(posterior.size), np.diff(posterior.indptr))
    dense[posterior.run_lengths, steps] = posterior.weights
    return dense


def banded_posterior(size, band, seed=0):
    """A ``RunLengthPosterior`` whose column k stores run lengths 0 to
    min(k, band - 1), as a pruned posterior does, with random weights and
    uint16 run lengths."""
    counts = np.minimum(np.arange(size) + 1, band)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    run_lengths = (np.arange(indptr[-1]) - np.repeat(indptr[:-1], counts)).astype(np.uint16)
    weights = np.random.default_rng(seed).random(indptr[-1])
    return RunLengthPosterior(size, indptr, run_lengths, weights)


def traced_peak(fn):
    """Call ``fn`` and return the most bytes its allocations held at once,
    as tracemalloc counts them."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_reference_posterior(values, prior, hazard, prune_threshold=None):
    """Reference recursion: fill every column of a dense (T+1)^2 matrix
    with the weights of the hypotheses live after each step."""
    T = len(np.atleast_2d(np.asarray(values, dtype=float)))
    posterior = np.zeros((T + 1, T + 1))
    for k, (run_lengths, weights) in enumerate(
            reference_columns(values, prior, hazard, prune_threshold)):
        posterior[run_lengths, k] = weights
    return posterior


def dense_posterior_csv(P, path):
    """Reference posterior.csv writer: every cell of the dense matrix."""
    np.savetxt(path, P, delimiter=",", fmt="%.9g")


def dense_posterior_pgm(P, path):
    """Reference posterior.pgm writer: every cell of the dense matrix, each
    row scaled by its own maximum."""
    m = np.asarray(P, dtype=float)
    row_max = m.max(axis=1, keepdims=True)
    scale = np.divide(m, row_max, out=np.zeros_like(m), where=row_max > 0.0)
    gray = np.rint(255.0 * scale).astype(int)
    lines = ["P2", f"{m.shape[1]} {m.shape[0]}", "255"]
    lines += [" ".join(str(v) for v in row) for row in gray]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# Runs the CLI on argv[2:], if any, then writes the process's own peak
# resident set (VmHWM, in KiB) to the file argv[1].
_PEAK_CHILD = """
import sys
from kinseg.cli import main
code = main(sys.argv[2:]) if sys.argv[2:] else 0
with open("/proc/self/status") as status, open(sys.argv[1], "w") as out:
    out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
sys.exit(code)
"""


def cli_peak_mb(args, env, peak_path):
    """Run ``kinseg.cli`` on ``args`` in a fresh interpreter and return its
    exit code and its own peak resident set in MB (10^6 bytes). With no
    ``args`` the child only imports ``kinseg.cli``, the baseline a command
    adds to.

    The child reads its high-water mark from /proc/self/status as it ends.
    ``ru_maxrss`` from ``wait4`` would not do: the child is spawned with
    vfork, so that figure includes this process's own high-water mark.
    """
    proc = subprocess.run([sys.executable, "-c", _PEAK_CHILD, str(peak_path), *args],
                          env=env, stdout=subprocess.DEVNULL)
    with open(peak_path) as fh:
        return proc.returncode, int(fh.read()) * 1024 / 1e6
