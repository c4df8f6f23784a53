"""Shared test data helpers."""

import numpy as np

from kinseg.bocpd import NormalWishartParams


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
        M = np.einsum("ij,njk->nik", L, A)  # lambda = M M^T
        # mean | lambda ~ N(mu, (kappa * lambda)^-1): mu + M^-T z / sqrt(kappa)
        z = rng.standard_normal((m, d))
        shift = np.linalg.solve(np.swapaxes(M, 1, 2), z[..., None])[..., 0]
        mean = params.mu + shift / np.sqrt(params.kappa)
        logdet = 2.0 * np.sum(np.log(np.abs(M[:, range(d), range(d)])), axis=1)
        diff = points[:, None, :] - mean[None, :, :]  # (P, m, d)
        w = np.einsum("nji,pnj->pni", M, diff)  # M^T diff per point
        maha = np.einsum("pni,pni->pn", w, w)
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


def hypothesis_params(hyps, i):
    """Posterior Normal-Wishart parameters of hypothesis i of a HypothesisSet."""
    mu_n, kappa_n, nu_n, sigma_n = hyps._posterior_param_arrays()
    return NormalWishartParams(mu_n[i], kappa_n[i], nu_n[i], sigma_n[i])


def min_pairwise_angle(axes):
    """Smallest angular distance (radians) between any two axes."""
    pts = np.asarray(axes, dtype=float)
    if len(pts) < 2:
        raise ValueError("need at least two axes")
    cos = pts @ pts.T
    np.fill_diagonal(cos, -1.0)
    return float(np.arccos(np.clip(cos.max(), -1.0, 1.0)))
