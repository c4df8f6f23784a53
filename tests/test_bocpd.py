import itertools
import warnings

import numpy as np
import pytest
from scipy.stats import multivariate_t

from kinseg import bocpd, segmentation, simulate, tables
from kinseg.bocpd import (
    HazardConfig,
    HypothesisSet,
    NormalWishartParams,
    infer_posterior,
    informative_prior,
    log_predictive,
    noninformative_prior,
    predictive_scale,
    step,
)
from util_data import (
    ReferenceHypothesisSet,
    banded_posterior,
    brute_force_posterior,
    dense_matrix,
    dense_posterior_csv,
    dense_posterior_pgm,
    dense_reference_posterior,
    hypothesis_params,
    hypothesis_statistics,
    monte_carlo_predictive_density,
    nw_posterior_params,
    reference_columns,
    reference_step,
    traced_peak,
    two_segment_series,
)


def random_series(seed, n=10, d=3):
    rng = np.random.default_rng(seed)
    return rng.normal(scale=1.0, size=(n, d))


def scored_step(hyps, o, hazard):
    """One step on observation ``o``: score it as a block of one, then
    ``step``."""
    hyps.score(np.reshape(o, (1, -1)))
    return step(hyps, hazard)


# Largest absolute weight difference allowed against the reference kernel,
# which factors each scale by LAPACK in another order. Measured maxima over
# the TestKernelPin cases at one BLAS thread: 8.2e-15 under the informative
# prior and 4.4e-9 under the noninformative one, whose short windows give
# nearly singular scales (a cofactor expansion of them is off by 2.8e-5).
WEIGHT_ATOL = {informative_prior: 1e-13, noninformative_prior: 1e-8}


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
            hyps = HypothesisSet(prior)
            hz = HazardConfig(0.05)
            for k in range(1, len(vals) + 1):
                hyps = scored_step(hyps, vals[k - 1], hz)
                for i in range(len(hyps)):
                    count = int(hyps.run_lengths[i])
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

    def test_scale_lost_by_closed_form_matches_scipy(self):
        # collinear windows under the noninformative prior give nearly
        # singular positive definite scales, which a cofactor expansion
        # loses to cancellation (it scored the two-row [0,0,0], [1,2,2]
        # window 14.75 against 15.54). The elementwise factor must agree with
        # scipy, whose eigendecomposition is good to a few parts in 1e9 at
        # the scales' condition number of about 1e9.
        cases = [(window, o)
                 for window in ([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]],
                                [[0.0, 0.0, 0.0]] * 2 + [[1.0, 2.0, 2.0]],
                                [[0.0, 0.0, 0.0]] * 4 + [[1.0, 2.0, 2.0]])
                 for o in ([0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [0.5, 1.0, 1.0])]
        cases.append(([[2.0, 2.0, -2.0], [0.0, 0.0, 0.0]], [2.0, 2.0, -2.0]))
        for window, o in cases:
            params = nw_posterior_params(noninformative_prior(), np.array(window))
            scale, df = predictive_scale(params)
            ref = multivariate_t(loc=params.mu, shape=scale, df=df)
            assert log_predictive(o, params) == pytest.approx(ref.logpdf(o), rel=1e-7)

    def test_repeated_and_collinear_windows_match_scipy(self):
        # 100 seeded windows of 2 to 6 small-integer points on a line
        # (repeated points when the direction is zero) under the
        # noninformative prior, scored at a point of the line. Measured
        # worst relative difference from scipy: 9.9e-9; from a 50-digit
        # evaluation of the same scales, 1.9e-9 here and 9.9e-9 for scipy.
        # A cofactor expansion of the 3x3 scale is off by up to 15%.
        rng = np.random.default_rng(1)
        for _ in range(100):
            base, direction = rng.integers(-2, 3, 3), rng.integers(-1, 2, 3)
            steps = rng.integers(0, 3, rng.integers(2, 7))
            window = (base + steps[:, None] * direction).astype(float)
            o = (base + rng.integers(0, 3) * direction).astype(float)
            params = nw_posterior_params(noninformative_prior(), window)
            scale, df = predictive_scale(params)
            ref = multivariate_t(loc=params.mu, shape=scale, df=df)
            assert log_predictive(o, params) == pytest.approx(ref.logpdf(o), rel=1e-7)

    def test_signals_non_positive_definite_scale(self):
        params = NormalWishartParams(np.zeros(3), 1.0, 4.0, np.zeros((3, 3)))
        with pytest.raises(np.linalg.LinAlgError):
            log_predictive(np.ones(3), params)


class TestStep:
    def test_first_step_two_hypotheses(self):
        # from the certain zero-run start, both targets share one predictive,
        # so the posterior is exactly (p, 1 - p)
        for p in (0.01, 0.2):
            hyps = HypothesisSet(informative_prior())
            out = scored_step(hyps, [1.2, 0.3, -0.4], HazardConfig(p))
            col = np.zeros(2)
            col[out.run_lengths] = np.exp(out.log_weights)
            assert col == pytest.approx([p, 1.0 - p], abs=1e-15)
            assert len(out) == 2

    def test_hypothesis_count_grows_by_one(self):
        hyps = HypothesisSet(informative_prior())
        hz = HazardConfig(0.01)
        vals = random_series(4, n=6)
        for k in range(1, 7):
            hyps = scored_step(hyps, vals[k - 1], hz)
            assert len(hyps) == k + 1
            assert np.array_equal(hyps.run_lengths, np.arange(k + 1))

    def test_columns_normalised(self):
        hyps = HypothesisSet(noninformative_prior())
        hz = HazardConfig(0.1)
        for o in random_series(5, n=8):
            hyps = scored_step(hyps, o, hz)
            assert np.exp(hyps.log_weights).sum() == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_hazard_concentrates_on_full_run(self):
        rng = np.random.default_rng(8)
        vals = np.array([0.9, -0.2, 0.4]) + 0.1 * rng.standard_normal((30, 3))
        P = dense_matrix(infer_posterior(vals, informative_prior(), HazardConfig(1e-12)))
        assert P[:, 30].argmax() == 30
        assert P[30, 30] > 0.999

    def test_all_hypotheses_underflow_signalled(self):
        hyps = HypothesisSet(informative_prior())
        with pytest.raises(FloatingPointError):
            scored_step(hyps, [np.inf, 0.0, 0.0], HazardConfig(0.01))


class TestRunInference:
    def test_t1_matrix(self):
        p = 0.07
        P = dense_matrix(infer_posterior(random_series(1, n=1), informative_prior(),
                                         HazardConfig(p)))
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
        P = dense_matrix(infer_posterior(np.vstack([o1, o2]), prior, HazardConfig(p)))
        assert np.allclose(P[:3, 2], expected, atol=1e-14)

    def test_empty_series(self):
        P = dense_matrix(infer_posterior(np.empty((0, 3)), informative_prior(),
                                         HazardConfig(0.01)))
        assert np.array_equal(P, [[1.0]])

    def test_column_sums_and_impossible_run_lengths(self):
        P = dense_matrix(infer_posterior(random_series(6, n=20), informative_prior(),
                                         HazardConfig(0.05)))
        assert np.allclose(P.sum(axis=0), 1.0, atol=1e-12)
        # a run length cannot exceed the number of observations: with rows
        # indexed by run length and columns by time, everything strictly
        # below the diagonal is exactly zero
        assert np.all(P[np.tril_indices_from(P, k=-1)] == 0.0)

    def test_constant_series_grows_run_length(self):
        vals = np.tile([1.2, -0.3, 0.8], (50, 1))
        P = dense_matrix(infer_posterior(vals, informative_prior(), HazardConfig(0.01)))
        assert P[:, 50].argmax() == 50

    def test_mean_shift_resets_run_length(self):
        # two clearly separated segments: the posterior mode collapses to a
        # short run within two steps of the shift
        rng = np.random.default_rng(13)
        sigma = 0.1
        a = np.array([1.4, 0.2, 0.1]) + sigma * rng.standard_normal((25, 3))
        b = np.array([-1.2, -0.6, 0.4]) + sigma * rng.standard_normal((10, 3))
        P = dense_matrix(infer_posterior(np.vstack([a, b]), informative_prior(),
                                         HazardConfig(0.01)))
        assert min(P[:, 26].argmax(), P[:, 27].argmax()) <= 2

    def test_windowing_property(self):
        # a hypothesis's predictive depends only on the observations in its
        # window: prepending arbitrary history leaves it unchanged
        prior = informative_prior()
        hz = HazardConfig(0.02)
        tail = random_series(14, n=5)
        junk = 3.0 + random_series(15, n=4)
        short = HypothesisSet(prior)
        for o in tail:
            short = scored_step(short, o, hz)
        long = HypothesisSet(prior)
        for o in np.vstack([junk, tail]):
            long = scored_step(long, o, hz)
        probe = np.array([0.3, -0.2, 0.9])
        for i, count in enumerate(short.run_lengths):
            j = np.flatnonzero(long.run_lengths == count)[0]
            pred_short = log_predictive(probe, hypothesis_params(short, i))
            pred_long = log_predictive(probe, hypothesis_params(long, j))
            assert pred_long == pytest.approx(pred_short, rel=1e-12)

    def test_monotone_hazard_effect(self):
        vals = random_series(16, n=15)
        prior = informative_prior()
        reset_rows = []
        for p in (0.001, 0.01, 0.1, 0.5):
            P = dense_matrix(infer_posterior(vals, prior, HazardConfig(p)))
            reset_rows.append(P[0, 1:])
        for lo, hi in zip(reset_rows, reset_rows[1:]):
            assert np.all(hi >= lo - 1e-12)

    def test_pruning_matches_unpruned(self):
        vals = random_series(17, n=60)
        prior = informative_prior()
        hz = HazardConfig(0.02)
        full = dense_matrix(infer_posterior(vals, prior, hz))
        pruned = dense_matrix(infer_posterior(vals, prior, hz, prune_threshold=1e-12))
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
            P = dense_matrix(infer_posterior(vals, prior, hz))
            B = brute_force_posterior(vals, prior, hz)
            assert np.abs(P - B).max() < 1e-9
            assert np.allclose(P.sum(axis=0), 1.0, atol=1e-12)

    @pytest.mark.parametrize("vals", [
        [[0.0, 0.0, 0.0]] * 4 + [[1.0, 2.0, 2.0], [0.0, 0.0, 0.0]],  # cofactor minors fail
        [[2.0, 2.0, -2.0], [0.0, 0.0, 0.0], [2.0, 2.0, -2.0]],  # cofactor form < -df
    ], ids=["minors", "negative_form"])
    def test_collinear_series_stays_exact(self, vals):
        # windows of repeated and collinear points give nearly singular
        # scales under the noninformative prior; the recursion must still
        # agree with the oracle instead of failing
        prior, hz = noninformative_prior(), HazardConfig(0.5)
        P = dense_matrix(infer_posterior(np.array(vals), prior, hz))
        B = brute_force_posterior(np.array(vals), prior, hz)
        assert np.abs(P - B).max() < 1e-9
        assert np.allclose(P.sum(axis=0), 1.0, atol=1e-12)

    def test_noninformative_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            noninformative_prior(epsilon=0.0)

    def test_accepts_embedding_series(self):
        from kinseg.kinematics import EmbeddingSeries
        values = 1.5 * np.eye(3)[np.zeros(5, dtype=int)]
        series = EmbeddingSeries(values, np.arange(5.0))
        P = dense_matrix(infer_posterior(series, informative_prior(), HazardConfig(0.01)))
        assert P.shape == (6, 6)

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_other_dimensions_supported(self, d):
        rng = np.random.default_rng(23)
        vals = rng.normal(size=(7, d))
        prior = NormalWishartParams(np.zeros(d), 0.5, d + 1.0, 2.0 * np.eye(d))
        hz = HazardConfig(0.05)
        P = dense_matrix(infer_posterior(vals, prior, hz))
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
                    P = dense_matrix(infer_posterior(vals, prior, hz))
                    B = brute_force_posterior(vals, prior, hz)
                    assert np.abs(P - B).max() < 1e-9
                    # enumerated configuration probabilities are exhaustive
                    assert np.allclose(B.sum(axis=0), 1.0, atol=1e-12)


class TestExports:
    def test_posterior_csv(self, tmp_path):
        P = infer_posterior(random_series(20, n=4), informative_prior(), HazardConfig(0.01))
        path = tmp_path / "posterior.csv"
        bocpd.posterior_to_csv(P, path)
        back = np.loadtxt(path, delimiter=",")
        assert back.shape == (5, 5)
        assert np.allclose(back, dense_matrix(P), atol=1e-8)

    def test_posterior_pgm(self, tmp_path):
        P = infer_posterior(random_series(20, n=4), informative_prior(), HazardConfig(0.01))
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
        P = infer_posterior(random_series(21, n=5), informative_prior(), HazardConfig(0.01))
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        bocpd.posterior_to_pgm(P, a)
        bocpd.posterior_to_pgm(P, b)
        assert a.read_bytes() == b.read_bytes()

    def test_pgm_gray_levels_per_stored_cell(self, tmp_path, monkeypatch):
        P = banded_posterior(2000, 300)  # 555,150 cells
        P.layout  # built outside the measurement
        grays = []

        def record(path, layout, cells, *args):  # stands in for the writer
            grays.append(cells)

        monkeypatch.setattr(tables, "write_matrix_text", record)
        peak = traced_peak(lambda: bocpd.posterior_to_pgm(P, tmp_path / "p.pgm"))
        assert grays[0].dtype == np.uint8 and len(grays[0]) == len(P.weights)
        # one byte a cell and chunk-sized float temporaries, 1.6 bytes a cell
        # measured; float gray levels of every cell at once cost 9
        assert peak < 2 * len(P.weights), f"{peak / len(P.weights):.1f} bytes per stored cell"


class TestPosteriorPathMemory:
    def test_after_inference_per_stored_cell(self, tmp_path):
        """What a run holds after inference beyond the posterior itself:
        the estimate, the shared layout and both writers."""
        session = simulate.generate_session(simulate.SessionConfig(seed=7, replications=3))
        P = infer_posterior(session.series.values[:1000], informative_prior(),
                            HazardConfig(0.01))
        assert len(P.weights) > 300_000

        def after_inference():
            segmentation.lms_estimate(P)
            P.layout
            bocpd.posterior_to_csv(P, tmp_path / "posterior.csv")
            bocpd.posterior_to_pgm(P, tmp_path / "posterior.pgm")

        peak = traced_peak(after_inference)
        # the layout's key and argsort, then that argsort and its int32
        # narrowing, and the writers' Python rows: 12.3 bytes a cell
        # measured; full-size temporaries in the estimate, the layout and
        # the gray levels cost over 18
        assert peak < 14 * len(P.weights), f"{peak / len(P.weights):.1f} bytes per stored cell"


def _two_posture_series():
    rng = np.random.default_rng(8)
    return two_segment_series(rng, 40, 60, [0.2, 0.1, 0.3], [2.5, -2.0, 2.2], 0.02)


class TestColumnStore:
    """The column-stored posterior and its writers reproduce the dense
    matrix and the bytes of the dense reference writers."""

    @pytest.mark.parametrize("prune", [None, 1e-12], ids=["exact", "pruned"])
    def test_stored_cells_match_dense_recursion(self, prune):
        vals = _two_posture_series()
        P = infer_posterior(vals, informative_prior(), HazardConfig(0.01), prune)
        dense = dense_reference_posterior(vals, informative_prior(), HazardConfig(0.01), prune)
        assert P.size == len(vals) + 1
        assert np.allclose(dense_matrix(P), dense, rtol=0.0, atol=WEIGHT_ATOL[informative_prior])
        assert np.all(P.weights > 0.0)
        assert np.array_equal(np.diff(P.indptr), np.count_nonzero(dense, axis=0))

    @staticmethod
    def _assert_same_bytes(P, tmp_path):
        dense = dense_matrix(P)
        for write, reference, name in ((bocpd.posterior_to_csv, dense_posterior_csv, "csv"),
                                       (bocpd.posterior_to_pgm, dense_posterior_pgm, "pgm")):
            ours, theirs = tmp_path / f"ours.{name}", tmp_path / f"reference.{name}"
            write(P, ours)
            reference(dense, theirs)
            assert ours.read_bytes() == theirs.read_bytes(), name

    def test_exact_path_bytes(self, tmp_path):
        vals = simulate.generate_session(simulate.SessionConfig(seed=7)).series.values[:600]
        P = infer_posterior(vals, informative_prior(), HazardConfig(0.01))
        # long hypotheses spanning many postures underflow to 0 and are not stored
        assert len(P.weights) < P.size * (P.size + 1) // 2
        self._assert_same_bytes(P, tmp_path)

    def test_pruned_path_bytes(self, tmp_path):
        P = infer_posterior(_two_posture_series(), informative_prior(), HazardConfig(0.01),
                            prune_threshold=1e-12)
        # rows past the longest live run length are entirely zero
        assert P.run_lengths.max() < P.size - 10
        # some stored weights round to gray 0 against their row maximum
        row_max = dense_matrix(P).max(axis=1)
        assert np.any(np.rint(255.0 * P.weights / row_max[P.run_lengths]) == 0)
        self._assert_same_bytes(P, tmp_path)

    def test_random_series_bytes(self, tmp_path):
        P = infer_posterior(random_series(22, n=30), noninformative_prior(), HazardConfig(0.1))
        self._assert_same_bytes(P, tmp_path)

    def test_empty_series_bytes(self, tmp_path):
        P = infer_posterior(np.empty((0, 3)), informative_prior(), HazardConfig(0.01))
        assert P.size == 1
        self._assert_same_bytes(P, tmp_path)
        assert (tmp_path / "ours.csv").read_text() == "1\n"
        assert (tmp_path / "ours.pgm").read_text() == "P2\n1 1\n255\n255\n"


def _reference_store(values, prior, hazard, prune):
    """The reference recursion's posterior as (indptr, run_lengths, weights)."""
    columns = [(r[w > 0.0], w[w > 0.0])
               for r, w in reference_columns(values, prior, hazard, prune)]
    indptr = np.concatenate(([0], np.cumsum([len(r) for r, _ in columns])))
    return (indptr, np.concatenate([r for r, _ in columns]),
            np.concatenate([w for _, w in columns]))


def _assert_same_state(hyps, ref, atol):
    i, j = np.triu_indices(hyps.prior.dim)
    means, scatters = hypothesis_statistics(hyps)
    assert np.array_equal(hyps.run_lengths, ref.run_lengths)
    assert np.array_equal(means, ref.means.T)
    assert np.array_equal(scatters, ref.scatters[:, i, j].T)
    assert np.allclose(np.exp(hyps.log_weights), np.exp(ref.log_weights), rtol=0.0, atol=atol)


class TestKernelPin:
    """The step kernel reproduces the reference kernel of tests/util_data.py:
    the stored cells and the hypothesis statistics bit for bit, the weights
    to ``WEIGHT_ATOL``."""

    @staticmethod
    def _assert_pinned(values, prior, hz, prune, atol):
        P = infer_posterior(values, prior, hz, prune)
        indptr, run_lengths, weights = _reference_store(values, prior, hz, prune)
        assert np.array_equal(P.indptr, indptr)
        assert np.array_equal(P.run_lengths, run_lengths)
        assert np.allclose(P.weights, weights, rtol=0.0, atol=atol)

    @pytest.mark.parametrize("prune", [None, 1e-12], ids=["exact", "pruned"])
    @pytest.mark.parametrize("prior", [informative_prior, noninformative_prior],
                             ids=["informative", "noninformative"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_series(self, seed, prior, prune):
        self._assert_pinned(random_series(40 + seed, n=120), prior(), HazardConfig(0.05), prune,
                            WEIGHT_ATOL[prior])

    @pytest.mark.parametrize("prune", [None, 1e-12], ids=["exact", "pruned"])
    @pytest.mark.parametrize("prior", [informative_prior, noninformative_prior],
                             ids=["informative", "noninformative"])
    def test_simulated_session(self, prior, prune):
        # posture segments: weights underflow and pruning drops hypotheses
        vals = simulate.generate_session(simulate.SessionConfig(seed=3)).series.values[:400]
        self._assert_pinned(vals, prior(), HazardConfig(0.01), prune, WEIGHT_ATOL[prior])

    @pytest.mark.parametrize("prune", [None, 1e-12], ids=["exact", "pruned"])
    def test_two_dimensional_prior(self, prune):
        prior = NormalWishartParams(np.zeros(2), 0.5, 3.0, 2.0 * np.eye(2))
        vals = np.random.default_rng(24).normal(size=(60, 2))
        self._assert_pinned(vals, prior, HazardConfig(0.05), prune,
                            WEIGHT_ATOL[informative_prior])

    @pytest.mark.parametrize("n", [0, 1])
    def test_shortest_series(self, n):
        self._assert_pinned(random_series(25, n=n), informative_prior(), HazardConfig(0.07),
                            None, WEIGHT_ATOL[informative_prior])

    def test_state_through_prune_and_regrow(self):
        # blocks of several steps scored ahead, pruned after every step: the
        # live columns thin out inside a scored grid and the next block
        # starts from the survivors
        vals = simulate.generate_session(simulate.SessionConfig(seed=3)).series.values[:100]
        prior, hz = informative_prior(), HazardConfig(0.01)
        atol = WEIGHT_ATOL[informative_prior]
        hyps, ref = HypothesisSet(prior), ReferenceHypothesisSet.time_zero(prior)
        lengths, start, pruned_mid_block = itertools.cycle((5, 12, 1, 30)), 0, False
        while start < len(vals):
            block = vals[start:start + next(lengths)]
            start += len(block)
            hyps.score(block)
            _assert_same_state(hyps, ref, atol)
            for i, o in enumerate(block):
                hyps, ref = step(hyps, hz), reference_step(ref, o, hz)
                _assert_same_state(hyps, ref, atol)
                live = len(hyps)
                hyps.prune(1e-12)
                ref = ref.pruned(1e-12)
                pruned_mid_block |= len(hyps) < live and i < len(block) - 1
                _assert_same_state(hyps, ref, atol)
        assert pruned_mid_block

    def test_prune_keeps_most_probable(self):
        hyps = HypothesisSet(informative_prior())
        for o in random_series(26, n=5):
            hyps = scored_step(hyps, o, HazardConfig(0.2))
        best = hyps.run_lengths[np.argmax(hyps.log_weights)]
        hyps.prune(0.999)
        assert np.array_equal(hyps.run_lengths, [best])
        assert np.array_equal(hyps.log_weights, [0.0])

    def test_table_grows_on_demand(self):
        # runs outgrow the initial count table, which doubles on demand
        prior, hz = noninformative_prior(), HazardConfig(0.01)
        hyps, ref = HypothesisSet(prior), ReferenceHypothesisSet.time_zero(prior)
        for o in random_series(27, n=70):
            hyps, ref = scored_step(hyps, o, hz), reference_step(ref, o, hz)
        _assert_same_state(hyps, ref, WEIGHT_ATOL[noninformative_prior])

    @pytest.mark.parametrize("diagonal", [(-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0),
                                          (0.0, 0.0, 0.0)],
                             ids=["minor1", "minor2", "det", "zero"])
    def test_indefinite_scale_raises(self, diagonal):
        prior = NormalWishartParams(np.zeros(3), 1.0, 4.0, np.diag(diagonal))
        with pytest.raises(np.linalg.LinAlgError):
            reference_step(ReferenceHypothesisSet.time_zero(prior), np.ones(3),
                           HazardConfig(0.01))
        with pytest.raises(np.linalg.LinAlgError):
            infer_posterior(np.ones((2, 3)), prior, HazardConfig(0.01))

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_indefinite_scale_raises_other_dimensions(self, d):
        prior = NormalWishartParams(np.zeros(d), 1.0, d + 1.0, np.diag([1.0] * (d - 1) + [-1.0]))
        with pytest.raises(np.linalg.LinAlgError):
            infer_posterior(np.ones((2, d)), prior, HazardConfig(0.01))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_observation_raises_and_keeps_state(self, bad):
        hyps = HypothesisSet(informative_prior())
        for o in random_series(28, n=20):
            hyps = scored_step(hyps, o, HazardConfig(0.05))
        before = [a.copy() for a in (hyps.run_lengths, *hypothesis_statistics(hyps),
                                     hyps.log_weights)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the quadratic form's nan is silent
            with pytest.raises(FloatingPointError):
                scored_step(hyps, [0.3, bad, -0.1], HazardConfig(0.05))
        after = (hyps.run_lengths, *hypothesis_statistics(hyps), hyps.log_weights)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))


def _infer_in_blocks(monkeypatch, block_steps, values, prior, hz, prune):
    """``infer_posterior`` with the block length rule replaced by
    ``block_steps`` (None keeps the cell budget), and the block lengths it
    scored."""
    if block_steps is not None:
        monkeypatch.setattr(bocpd, "_block_steps", block_steps)
    lengths, score = [], HypothesisSet.score
    monkeypatch.setattr(HypothesisSet, "score",
                        lambda self, block: (lengths.append(len(block)), score(self, block))[1])
    try:
        return infer_posterior(values, prior, hz, prune), lengths
    finally:
        monkeypatch.undo()


def _blocks_and_live(monkeypatch, values, prune):
    """Default block lengths of ``infer_posterior`` on ``values``, the live
    count each block starts from, and the live count each step reads."""
    live, real_step = [], bocpd.step
    monkeypatch.setattr(bocpd, "step",
                        lambda hyps, *args: (live.append(len(hyps)), real_step(hyps, *args))[1])
    _, lengths = _infer_in_blocks(monkeypatch, None, values, informative_prior(),
                                  HazardConfig(0.01), prune)
    return lengths, np.take(live, np.cumsum([0] + lengths[:-1])).tolist(), live


class TestBlocks:
    """Scoring a block of steps at once keeps every bit of the step-at-a-time
    recursion, and every error at the step where it arises."""

    @pytest.mark.parametrize("prune", [None, 1e-12], ids=["exact", "pruned"])
    @pytest.mark.parametrize("prior", [informative_prior, noninformative_prior],
                             ids=["informative", "noninformative"])
    def test_block_length_keeps_every_bit(self, monkeypatch, prior, prune):
        # 293 = 41 * 7 + 6 steps, so no block rule divides the series evenly
        vals = simulate.generate_session(simulate.SessionConfig(seed=3)).series.values[:293]
        hz = HazardConfig(0.01)
        single, lengths = _infer_in_blocks(monkeypatch, lambda live: 1, vals, prior(), hz, prune)
        assert lengths == [1] * 293
        for rule in (lambda live: 7, None, lambda live: 10 ** 6):
            P, lengths = _infer_in_blocks(monkeypatch, rule, vals, prior(), hz, prune)
            assert sum(lengths) == 293 and max(lengths) > 1
            assert np.array_equal(P.indptr, single.indptr)
            assert np.array_equal(P.run_lengths, single.run_lengths)
            assert P.weights.tobytes() == single.weights.tobytes()

    def test_default_blocks_follow_the_cell_budget(self, monkeypatch):
        vals = simulate.generate_session(simulate.SessionConfig(seed=3)).series.values[:300]
        for prune in (None, 1e-12):
            lengths, starts, _ = _blocks_and_live(monkeypatch, vals, prune)
            assert all(b * (h + b) <= bocpd._BLOCK_CELLS and b <= max(8, h)
                       for b, h in zip(lengths, starts))
            if prune is None:
                # exact: the live count sets the length until the budget does
                assert lengths[:4] == [8, 9, 18, 36] and lengths[-2] < max(lengths)
            else:
                assert max(lengths) < 40 and len(lengths) > 10

    def test_scored_cells_stay_near_read_cells(self, monkeypatch):
        # a block of b steps from h live hypotheses scores b (b + h) cells,
        # of which each step reads its live ones; the rest belong to
        # hypotheses not yet born or already pruned. 1.92 here, 4.75 when
        # pruned-path blocks filled the cell budget.
        vals = simulate.generate_session(simulate.SessionConfig(seed=3)).series.values[:300]
        lengths, starts, live = _blocks_and_live(monkeypatch, vals, 1e-12)
        scored = sum(b * (b + h) for b, h in zip(lengths, starts))
        assert scored < 2.0 * sum(live)

    @pytest.mark.parametrize("prune", [None, 1e-12], ids=["exact", "pruned"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_observation_mid_block(self, monkeypatch, bad, prune):
        vals = random_series(30, n=40)
        vals[20, 1] = bad
        steps, real_step = [], bocpd.step
        monkeypatch.setattr(bocpd, "step", lambda *args: (steps.append(1), real_step(*args))[1])
        lengths, score = [], HypothesisSet.score
        monkeypatch.setattr(HypothesisSet, "score",
                            lambda self, block: (lengths.append(len(block)), score(self, block))[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the data half's nan and inf are silent
            with pytest.raises(FloatingPointError):
                infer_posterior(vals, informative_prior(), HazardConfig(0.05), prune)
        assert len(steps) == 21  # raised by the step that scored row 20
        start = sum(lengths[:-1])
        assert start < 20 < start + lengths[-1] - 1  # inside a block, with rows scored after it

    def test_indefinite_scale_in_a_block(self, monkeypatch):
        prior = NormalWishartParams(np.zeros(3), 1.0, 4.0, np.diag([1.0, -1.0, 1.0]))
        steps, real_step = [], bocpd.step
        monkeypatch.setattr(bocpd, "step", lambda *args: (steps.append(1), real_step(*args))[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                infer_posterior(random_series(31, n=30), prior, HazardConfig(0.05))
        assert len(steps) == 1


class TestTracerContract:
    """``perfbench/tracing.py`` counts steps and live hypotheses by putting a
    wrapper in place of ``bocpd.step``: ``infer_posterior`` must call it
    through the module once per observation, and each call must return the
    set before pruning, so its length is the step's pre-prune live count."""

    def test_step_called_per_observation_with_pre_prune_count(self, monkeypatch):
        vals = simulate.generate_session(simulate.SessionConfig(seed=3)).series.values[:400]
        prior, hz, prune = informative_prior(), HazardConfig(0.01), 1e-12
        returned, real_step = [], bocpd.step

        def counted_step(*args):
            out = real_step(*args)
            returned.append(len(out))
            return out

        monkeypatch.setattr(bocpd, "step", counted_step)
        infer_posterior(vals, prior, hz, prune)
        expected = [len(run_lengths) for run_lengths, _ in
                    reference_columns(vals, prior, hz, prune)][1:]
        assert returned == expected
        # pruning dropped hypotheses, so a post-prune count would differ
        assert any(after < before + 1 for before, after in zip(returned, returned[1:]))
