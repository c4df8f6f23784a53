import numpy as np
import pytest
from scipy.stats import multivariate_t

from kinseg import bocpd
from kinseg.bocpd import (
    HazardConfig,
    HypothesisSet,
    NormalWishartParams,
    brute_force_posterior,
    informative_prior,
    log_predictive,
    noninformative_prior,
    nw_posterior_params,
    predictive_scale,
    run_inference,
    step,
)
from util_data import hypothesis_params, monte_carlo_predictive_density


def random_series(seed, n=10, d=3):
    rng = np.random.default_rng(seed)
    return rng.normal(scale=1.0, size=(n, d))


class TestParams:
    def test_informative_values(self):
        p = informative_prior()
        assert np.allclose(p.mu, 1e-4)
        assert p.kappa == pytest.approx(0.05)
        assert p.nu == 4.0
        assert np.allclose(p.sigma, 5.0 * np.eye(3))

    def test_noninformative_values(self):
        p = noninformative_prior()
        assert np.allclose(p.mu, 1e-4)
        assert p.kappa == pytest.approx(1e-4)
        assert p.nu == 4.0
        assert np.allclose(p.sigma, 1e-8 * np.eye(3))

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            NormalWishartParams(np.zeros(3), 0.0, 4.0, np.eye(3))

    def test_rejects_low_degrees_of_freedom(self):
        with pytest.raises(ValueError):
            NormalWishartParams(np.zeros(3), 1.0, 3.0, np.eye(3))

    def test_rejects_asymmetric_sigma(self):
        sigma = np.eye(3)
        sigma[0, 1] = 0.5
        with pytest.raises(ValueError):
            NormalWishartParams(np.zeros(3), 1.0, 4.0, sigma)

    def test_hazard_range(self):
        with pytest.raises(ValueError):
            HazardConfig(0.0)
        with pytest.raises(ValueError):
            HazardConfig(1.0)


class TestPosteriorParams:
    def test_empty_window_returns_prior(self):
        prior = informative_prior()
        assert nw_posterior_params(prior, np.empty((0, 3))) is prior

    def test_single_observation_hand_example(self):
        # prior mean 0, kappa 1: posterior mean x/2, kappa 2, nu + 1,
        # sigma + (1*1/2) x x^T (no within-window scatter for one sample)
        prior = NormalWishartParams(np.zeros(3), 1.0, 4.0, np.eye(3))
        x = np.array([0.4, -1.2, 2.0])
        post = nw_posterior_params(prior, x[None, :])
        assert np.allclose(post.mu, x / 2.0)
        assert post.kappa == pytest.approx(2.0)
        assert post.nu == pytest.approx(5.0)
        assert np.allclose(post.sigma, np.eye(3) + 0.5 * np.outer(x, x))

    def test_counts_grow_with_window(self):
        prior = informative_prior()
        win = random_series(1, n=7)
        post = nw_posterior_params(prior, win)
        assert post.kappa == pytest.approx(prior.kappa + 7)
        assert post.nu == pytest.approx(prior.nu + 7)

    def test_incremental_matches_batch(self):
        # drive the hypothesis set over random series; every hypothesis's
        # cached parameters must equal the batch computation on its window
        rng = np.random.default_rng(9)
        for _ in range(20):
            prior = informative_prior()
            vals = rng.normal(size=(12, 3))
            hyps = HypothesisSet.initial(prior)
            hz = HazardConfig(0.05)
            for k in range(1, len(vals) + 1):
                hyps = step(hyps, vals[k - 1], hz)
                for i in range(len(hyps)):
                    count = int(hyps.counts[i])
                    window = vals[k - count:k]
                    batch = nw_posterior_params(prior, window)
                    cached = hypothesis_params(hyps, i)
                    assert np.allclose(cached.mu, batch.mu, atol=1e-9)
                    assert cached.kappa == pytest.approx(batch.kappa, abs=1e-9)
                    assert cached.nu == pytest.approx(batch.nu, abs=1e-9)
                    assert np.allclose(cached.sigma, batch.sigma, atol=1e-9)


class TestLogPredictive:
    def test_mode_value_closed_form(self):
        from scipy.special import gammaln
        params = nw_posterior_params(informative_prior(), random_series(2, n=6))
        scale, df = predictive_scale(params)
        d = 3
        expected = (
            gammaln(0.5 * (df + d)) - gammaln(0.5 * df)
            - 0.5 * d * np.log(df * np.pi)
            - 0.5 * np.linalg.slogdet(scale)[1]
        )
        assert log_predictive(params.mu, params) == pytest.approx(expected, rel=1e-12)

    def test_matches_scipy_multivariate_t(self):
        rng = np.random.default_rng(12)
        params = nw_posterior_params(informative_prior(), rng.normal(size=(9, 3)))
        scale, df = predictive_scale(params)
        ref = multivariate_t(loc=params.mu, shape=scale, df=df)
        for _ in range(10):
            o = rng.normal(scale=2.0, size=3)
            assert log_predictive(o, params) == pytest.approx(ref.logpdf(o), rel=1e-10)

    def test_monotone_decay_along_ray(self):
        params = nw_posterior_params(informative_prior(), random_series(3, n=5))
        direction = np.array([1.0, 0.7, -0.3])
        dens = [log_predictive(params.mu + t * direction, params) for t in np.linspace(0, 4, 12)]
        assert np.all(np.diff(dens) < 0)

    def test_monte_carlo_oracle(self):
        # marginalising the Gaussian likelihood over Normal-Wishart samples
        # must reproduce the closed-form Student-t density
        rng = np.random.default_rng(21)
        params = nw_posterior_params(informative_prior(), rng.normal([1.1, 0.2, -0.5], 0.3, (15, 3)))
        for k in range(3):
            o = params.mu + rng.normal(0, 0.6, 3)
            exact = np.exp(log_predictive(o, params))
            mc = monte_carlo_predictive_density(o, params, 200_000, seed=50 + k)
            assert abs(mc - exact) / exact < 0.05

    def test_signals_non_positive_definite_scale(self):
        params = NormalWishartParams(np.zeros(3), 1.0, 4.0, np.zeros((3, 3)))
        with pytest.raises(np.linalg.LinAlgError):
            log_predictive(np.ones(3), params)


class TestStep:
    def test_first_step_two_hypotheses(self):
        # from the certain zero-run start, both targets share one predictive,
        # so the posterior is exactly (p, 1 - p)
        for p in (0.01, 0.2):
            hyps = HypothesisSet.initial(informative_prior())
            out = step(hyps, [1.2, 0.3, -0.4], HazardConfig(p))
            col = np.zeros(2)
            col[out.run_lengths] = np.exp(out.log_weights)
            assert col == pytest.approx([p, 1.0 - p], abs=1e-15)
            assert len(out) == 2

    def test_hypothesis_count_grows_by_one(self):
        hyps = HypothesisSet.initial(informative_prior())
        hz = HazardConfig(0.01)
        vals = random_series(4, n=6)
        for k in range(1, 7):
            hyps = step(hyps, vals[k - 1], hz)
            assert len(hyps) == k + 1
            assert np.array_equal(hyps.run_lengths, np.arange(k + 1))

    def test_columns_normalised(self):
        hyps = HypothesisSet.initial(noninformative_prior())
        hz = HazardConfig(0.1)
        for o in random_series(5, n=8):
            hyps = step(hyps, o, hz)
            assert np.exp(hyps.log_weights).sum() == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_hazard_concentrates_on_full_run(self):
        rng = np.random.default_rng(8)
        vals = np.array([0.9, -0.2, 0.4]) + 0.1 * rng.standard_normal((30, 3))
        P = run_inference(vals, informative_prior(), HazardConfig(1e-12))
        assert P[:, 30].argmax() == 30
        assert P[30, 30] > 0.999

    def test_all_hypotheses_underflow_signalled(self):
        hyps = HypothesisSet.initial(informative_prior())
        with pytest.raises(FloatingPointError):
            step(hyps, [np.inf, 0.0, 0.0], HazardConfig(0.01))


class TestRunInference:
    def test_t1_matrix(self):
        p = 0.07
        P = run_inference(random_series(1, n=1), informative_prior(), HazardConfig(p))
        assert np.allclose(P, [[1.0, p], [0.0, 1.0 - p]], atol=1e-15)

    def test_t2_column_hand_evaluated(self):
        # hand evaluation of the joint recursion at the second step:
        # with pred0 = density of o2 under the raw prior (the step-1 reset
        # hypothesis holds no data) and pred1 = density of o2 given {o1},
        # the unnormalised joints are
        #   run 0: p * (p * pred0 + (1 - p) * pred1)
        #   run 1: (1 - p) * p * pred0
        #   run 2: (1 - p)^2 * pred1
        p = 0.2
        prior = informative_prior()
        o1, o2 = random_series(30, n=2)
        pred0 = np.exp(log_predictive(o2, prior))
        pred1 = np.exp(log_predictive(o2, nw_posterior_params(prior, o1[None, :])))
        joints = np.array([
            p * (p * pred0 + (1.0 - p) * pred1),
            (1.0 - p) * p * pred0,
            (1.0 - p) ** 2 * pred1,
        ])
        expected = joints / joints.sum()
        P = run_inference(np.vstack([o1, o2]), prior, HazardConfig(p))
        assert np.allclose(P[:3, 2], expected, atol=1e-14)

    def test_empty_series(self):
        P = run_inference(np.empty((0, 3)), informative_prior(), HazardConfig(0.01))
        assert np.array_equal(P, [[1.0]])

    def test_column_sums_and_impossible_run_lengths(self):
        P = run_inference(random_series(6, n=20), informative_prior(), HazardConfig(0.05))
        assert np.allclose(P.sum(axis=0), 1.0, atol=1e-12)
        # a run length cannot exceed the number of observations: with rows
        # indexed by run length and columns by time, everything strictly
        # below the diagonal is exactly zero
        assert np.all(P[np.tril_indices_from(P, k=-1)] == 0.0)

    def test_constant_series_grows_run_length(self):
        vals = np.tile([1.2, -0.3, 0.8], (50, 1))
        P = run_inference(vals, informative_prior(), HazardConfig(0.01))
        assert P[:, 50].argmax() == 50

    def test_mean_shift_resets_run_length(self):
        # two clearly separated segments: the posterior mode collapses to a
        # short run within two steps of the shift
        rng = np.random.default_rng(13)
        sigma = 0.1
        a = np.array([1.4, 0.2, 0.1]) + sigma * rng.standard_normal((25, 3))
        b = np.array([-1.2, -0.6, 0.4]) + sigma * rng.standard_normal((10, 3))
        P = run_inference(np.vstack([a, b]), informative_prior(), HazardConfig(0.01))
        assert min(P[:, 26].argmax(), P[:, 27].argmax()) <= 2

    def test_windowing_property(self):
        # a hypothesis's predictive depends only on the observations in its
        # window: prepending arbitrary history leaves it unchanged
        prior = informative_prior()
        hz = HazardConfig(0.02)
        tail = random_series(14, n=5)
        junk = 3.0 + random_series(15, n=4)
        short = HypothesisSet.initial(prior)
        for o in tail:
            short = step(short, o, hz)
        long = HypothesisSet.initial(prior)
        for o in np.vstack([junk, tail]):
            long = step(long, o, hz)
        probe = np.array([0.3, -0.2, 0.9])
        pred_short = short.log_predictives(probe)
        pred_long = long.log_predictives(probe)
        for i, count in enumerate(short.counts.astype(int)):
            j = np.flatnonzero(long.counts.astype(int) == count)[0]
            assert pred_long[j] == pytest.approx(pred_short[i], rel=1e-12)

    def test_monotone_hazard_effect(self):
        vals = random_series(16, n=15)
        prior = informative_prior()
        reset_rows = []
        for p in (0.001, 0.01, 0.1, 0.5):
            P = run_inference(vals, prior, HazardConfig(p))
            reset_rows.append(P[0, 1:])
        for lo, hi in zip(reset_rows, reset_rows[1:]):
            assert np.all(hi >= lo - 1e-12)

    def test_pruning_matches_unpruned(self):
        vals = random_series(17, n=60)
        prior = informative_prior()
        hz = HazardConfig(0.02)
        full = run_inference(vals, prior, hz)
        pruned = run_inference(vals, prior, hz, prune_threshold=1e-12)
        assert np.abs(full - pruned).max() < 1e-9

    def test_epsilon_regularisation_stays_exact(self):
        # the regulariser keeps the nearly flat prior proper; inference must
        # remain exact (oracle agreement, normalised columns) at every
        # epsilon in the supported range. The epsilon VALUE shifts the
        # reset-versus-growth odds (each newborn hypothesis scores its first
        # predictions against an epsilon-scaled matrix), which is why it is
        # a documented configuration choice rather than a free constant.
        vals = random_series(18, n=8)
        hz = HazardConfig(0.01)
        for eps in (1e-10, 1e-8, 1e-6):
            prior = noninformative_prior(epsilon=eps)
            P = run_inference(vals, prior, hz)
            B = brute_force_posterior(vals, prior, hz)
            assert np.abs(P - B).max() < 1e-9
            assert np.allclose(P.sum(axis=0), 1.0, atol=1e-12)

    def test_noninformative_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            noninformative_prior(epsilon=0.0)

    def test_accepts_embedding_series(self):
        from kinseg.kinematics import EmbeddingSeries
        values = 1.5 * np.eye(3)[np.zeros(5, dtype=int)]
        series = EmbeddingSeries(values, np.arange(5.0))
        P = run_inference(series, informative_prior(), HazardConfig(0.01))
        assert P.shape == (6, 6)

    def test_other_dimensions_supported(self):
        # the 3D fast path is an optimisation; other dimensions run the
        # general route and must satisfy the same oracle
        rng = np.random.default_rng(23)
        vals = rng.normal(size=(7, 2))
        prior = NormalWishartParams(np.zeros(2), 0.5, 3.0, 2.0 * np.eye(2))
        hz = HazardConfig(0.05)
        P = run_inference(vals, prior, hz)
        B = brute_force_posterior(vals, prior, hz)
        assert np.abs(P - B).max() < 1e-9
        assert np.allclose(P.sum(axis=0), 1.0, atol=1e-12)


class TestBruteForceOracle:
    def test_t0(self):
        P = brute_force_posterior(np.empty((0, 3)), informative_prior(), HazardConfig(0.01))
        assert np.array_equal(P, [[1.0]])

    def test_rejects_long_series(self):
        with pytest.raises(ValueError):
            brute_force_posterior(np.zeros((13, 3)), informative_prior(), HazardConfig(0.01))

    def test_matches_recursion(self):
        for seed in range(5):
            vals = random_series(seed, n=8)
            for prior in (informative_prior(), noninformative_prior()):
                for p in (0.01, 0.1):
                    hz = HazardConfig(p)
                    P = run_inference(vals, prior, hz)
                    B = brute_force_posterior(vals, prior, hz)
                    assert np.abs(P - B).max() < 1e-9
                    # enumerated configuration probabilities are exhaustive
                    assert np.allclose(B.sum(axis=0), 1.0, atol=1e-12)


class TestExports:
    def test_posterior_csv(self, tmp_path):
        P = run_inference(random_series(20, n=4), informative_prior(), HazardConfig(0.01))
        path = tmp_path / "posterior.csv"
        bocpd.posterior_to_csv(P, path)
        back = np.loadtxt(path, delimiter=",")
        assert back.shape == P.shape
        assert np.allclose(back, P, atol=1e-8)

    def test_posterior_pgm(self, tmp_path):
        P = run_inference(random_series(20, n=4), informative_prior(), HazardConfig(0.01))
        path = tmp_path / "posterior.pgm"
        bocpd.posterior_to_pgm(P, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "5 5"
        assert lines[2] == "255"
        pixels = [int(v) for row in lines[3:] for v in row.split()]
        assert len(pixels) == 25
        assert max(pixels) == 255
        assert min(pixels) >= 0

    def test_deterministic_bytes(self, tmp_path):
        P = run_inference(random_series(21, n=5), informative_prior(), HazardConfig(0.01))
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        bocpd.posterior_to_pgm(P, a)
        bocpd.posterior_to_pgm(P, b)
        assert a.read_bytes() == b.read_bytes()
