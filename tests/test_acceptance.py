"""Acceptance suite: every shipped guarantee, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion alongside the measured values.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from kinseg import bocpd, cli, metrics, pipeline, segmentation, simulate, synthgen
from util_data import (
    brute_force_posterior,
    dense_matrix,
    monte_carlo_predictive_densities,
    nw_posterior_params,
    random_surface_points,
    student_t_predictive,
)


def _passed(text):
    print(f"\n[PASS] {text}")


def _check_posterior_structure(P, atol=1e-9):
    assert np.allclose(P.sum(axis=0), 1.0, atol=atol)
    assert np.all(P[np.tril_indices_from(P, k=-1)] == 0.0)


@pytest.fixture(scope="module")
def session_batch():
    """The 20 seeded sessions shared by criteria 7 and 8, scored under all
    four pipeline variants as the sweep scores them: inference once per
    prior, then each variant segments its prior's raw trace. The best
    variant's generation, inference, decision and scoring are timed."""
    base = pipeline.PipelineConfig(input_path="<simulated>", output_dir="<memory>", decimation=1)
    priors = dict.fromkeys(prior for _, prior, _ in pipeline.VARIANTS.values())
    best_prior = pipeline.variant_settings("adr_post")["prior_kind"]
    rows = {variant: [] for variant in pipeline.VARIANTS}
    posteriors_checked = 0
    best_variant_seconds = 0.0  # generation + inference + decision + scoring of the best variant
    for seed in range(1, 21):
        started = time.perf_counter()
        session = simulate.generate_session(simulate.SessionConfig(seed=seed))
        best_variant_seconds += time.perf_counter() - started
        raw_traces = {}
        for prior_kind in priors:
            config = replace(base, prior_kind=prior_kind)
            started = time.perf_counter()
            posterior, raw_traces[prior_kind] = pipeline.infer_trace(session.series.values, config)
            if prior_kind == best_prior:
                best_variant_seconds += time.perf_counter() - started
                _check_posterior_structure(dense_matrix(posterior))
                posteriors_checked += 1
        for variant in pipeline.VARIANTS:
            config = replace(base, **pipeline.variant_settings(variant))
            started = time.perf_counter()
            *_, segments = pipeline.segment_trace(raw_traces[config.prior_kind], config)
            report = metrics.evaluate_segmentation(segments, session.segments, config.tolerance)
            elapsed = time.perf_counter() - started
            if variant == "adr_post":
                best_variant_seconds += elapsed
            rows[variant].append(report)
    assert posteriors_checked == 20
    means = {
        variant: {
            "f1": float(np.mean([r.f1 for r in rs])),
            "pearson": float(np.mean([r.pearson for r in rs if r.pearson is not None])),
        }
        for variant, rs in rows.items()
    }
    return {"means": means, "best_seconds": best_variant_seconds}


class TestCriterion1SyntheticGeometryCounts:
    def test_counts_and_runtime(self, tmp_path, capsys):
        started = time.perf_counter()
        rc = cli.main([
            "synthgen", "--resolution", "15", "--angles", "36",
            "--out", str(tmp_path / "orientations.csv"),
            "--axes-out", str(tmp_path / "axes.csv"),
        ])
        elapsed = time.perf_counter() - started
        assert rc == 0
        out = capsys.readouterr().out
        assert "axes=1350 orientations=48600" in out
        assert len((tmp_path / "axes.csv").read_text().splitlines()) == 1351
        assert len((tmp_path / "orientations.csv").read_text().splitlines()) == 48601
        assert elapsed < 1.0
        _passed(f"criterion 1: 1350 axes, 48600 orientations in {elapsed:.2f} s")


class TestCriterion2EllipsoidalProjection:
    def test_unit_norm_everywhere(self):
        mesh = synthgen.build_cube_mesh(15)
        err_mesh = np.abs(np.linalg.norm(synthgen.project_ellipsoidal(mesh), axis=1) - 1.0).max()
        pts = random_surface_points(np.random.default_rng(2024), 100_000)
        err_rand = np.abs(np.linalg.norm(synthgen.project_ellipsoidal(pts), axis=1) - 1.0).max()
        assert err_mesh < 1e-12
        assert err_rand < 1e-12

        for center in [(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0)]:
            assert np.abs(synthgen.project_ellipsoidal(center) - np.asarray(center)).max() < 1e-12
        corner = synthgen.project_ellipsoidal((1.0, 1.0, 1.0))
        assert np.abs(corner - np.full(3, np.sqrt(1.0 / 3.0))).max() < 1e-12
        edge = synthgen.project_ellipsoidal((1.0, 1.0, 0.0))
        assert np.abs(edge - np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0])).max() < 1e-12
        _passed(
            "criterion 2: ellipsoidal projection unit norm "
            f"(mesh err {err_mesh:.1e}, random err {err_rand:.1e}), anchors exact"
        )


class TestCriterion3OracleEquivalence:
    def test_recursion_matches_enumeration(self):
        started = time.perf_counter()
        worst = 0.0
        for seed in range(20):
            values = np.random.default_rng(seed).normal(size=(10, 3))
            for prior in (bocpd.informative_prior(), bocpd.noninformative_prior()):
                for p in (0.01, 0.1):
                    hazard = bocpd.HazardConfig(p)
                    P = dense_matrix(bocpd.infer_posterior(values, prior, hazard))
                    B = brute_force_posterior(values, prior, hazard)
                    worst = max(worst, float(np.abs(P - B).max()))
                    _check_posterior_structure(P)
        elapsed = time.perf_counter() - started
        assert worst < 1e-9
        assert elapsed < 30.0
        _passed(
            f"criterion 3: recursion equals brute force on 80 runs "
            f"(max abs diff {worst:.2e}) in {elapsed:.1f} s"
        )


class TestCriterion4PosteriorStructure:
    def test_structure_on_fresh_runs(self):
        for seed in (0, 1):
            values = np.random.default_rng(100 + seed).normal(size=(40, 3))
            P = dense_matrix(bocpd.infer_posterior(values, bocpd.informative_prior(),
                                                   bocpd.HazardConfig(0.02)))
            _check_posterior_structure(P)
        _passed("criterion 4: columns sum to 1 within 1e-9, impossible run lengths exactly zero")


class TestCriterion5PredictiveDensityOracle:
    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(77)
        param_sets = []
        for n in (5, 12, 30, 50):
            window = rng.normal([1.2, 0.1, -0.6], 0.3, size=(n, 3))
            param_sets.append(nw_posterior_params(bocpd.informative_prior(), window))
        param_sets.append(
            nw_posterior_params(
                bocpd.noninformative_prior(), rng.normal([0.4, 0.9, 0.2], 0.5, size=(25, 3))
            )
        )
        worst = 0.0
        for idx, params in enumerate(param_sets):
            scale, _ = student_t_predictive(params)
            spread = np.sqrt(np.diag(scale))
            points = params.mu + rng.uniform(-1.5, 1.5, size=(10, 3)) * spread
            exact = np.array([np.exp(bocpd.log_predictive(o, params)) for o in points])
            mc = monte_carlo_predictive_densities(points, params, 1_000_000, seed=900 + idx)
            rel = np.abs(mc - exact) / exact
            worst = max(worst, float(rel.max()))
        assert worst < 0.02
        _passed(
            "criterion 5: closed-form predictive within "
            f"{worst:.3%} of 1e6-sample Monte Carlo at 50 points"
        )


class TestCriterion6PostprocessWorkedExample:
    def test_two_step_fall_merges(self):
        trace = np.array([10.0, 20.0, 30.0, 23.0, 0.0, 1.0, 2.0])
        out = segmentation.postprocess_runlength(trace)
        assert np.array_equal(out, [10.0, 20.0, 30.0, 30.0, 0.0, 1.0, 2.0])
        _passed("criterion 6: 30, 23, 0 postprocesses to 30, 30, 0 exactly")


class TestCriterion7BestVariantPerformance:
    def test_f1_and_pearson(self, session_batch):
        best = session_batch["means"]["adr_post"]
        seconds = session_batch["best_seconds"]
        assert best["f1"] >= 0.95
        assert best["pearson"] >= 0.90
        assert seconds < 120.0
        _passed(
            "criterion 7: best variant mean F1 "
            f"{best['f1']:.4f} (>= 0.95), mean Pearson {best['pearson']:.4f} (>= 0.90), "
            f"20 sessions generated, inferred and scored in {seconds:.1f} s"
        )


class TestCriterion8VariantOrdering:
    def test_ordering(self, session_batch):
        means = session_batch["means"]
        assert means["adr_post"]["f1"] >= means["external_nopost"]["f1"]
        assert means["adr_post"]["pearson"] >= means["adr_nopost"]["pearson"] - 1e-12
        _passed(
            "criterion 8: F1 ordering "
            f"{means['adr_post']['f1']:.4f} >= {means['external_nopost']['f1']:.4f}; "
            "postprocessing does not reduce Pearson for the informative variant "
            f"({means['adr_post']['pearson']:.4f} vs {means['adr_nopost']['pearson']:.4f})"
        )


class TestCriterion9ScaleInvariance:
    def test_reset_indices_unchanged(self):
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(100):
            # run-length-like sawtooth traces; the floor of 2 keeps every
            # scaled value at or above the log clamp
            trace = 2.0 + np.abs(rng.normal(0.0, 50.0, 80)).cumsum() % 113
            base = [e.index for e in segmentation.detect_resets(trace)]
            for c in (0.5, 2.0, 10.0):
                scaled = [e.index for e in segmentation.detect_resets(c * trace)]
                assert scaled == base
            checked += 1
        assert checked == 100
        _passed("criterion 9: reset indices invariant to trace scaling on 100 traces")


class TestCriterion10Determinism:
    def test_byte_identical_reruns(self, tmp_path):
        sim_dir = tmp_path / "sim"
        args = ["simulate", "--seed", "17", "--out", str(sim_dir),
                "--postures", "6", "--replications", "1"]
        assert cli.main(args) == 0
        sim_bytes = {
            name: (sim_dir / name).read_bytes() for name in ("session.csv", "labels.csv")
        }
        assert cli.main(args) == 0
        for name, blob in sim_bytes.items():
            assert (sim_dir / name).read_bytes() == blob

        gen = tmp_path / "orient.csv"
        args = ["synthgen", "--resolution", "5", "--angles", "6", "--out", str(gen)]
        assert cli.main(args) == 0
        blob = gen.read_bytes()
        assert cli.main(args) == 0
        assert gen.read_bytes() == blob

        run_dir = tmp_path / "run"
        args = ["run", "--input", str(sim_dir / "session.csv"),
                "--labels", str(sim_dir / "labels.csv"),
                "--embedding", "adr", "--decimation", "1", "--out", str(run_dir)]
        assert cli.main(args) == 0
        names = ("segments.csv", "runlength.csv", "posterior.csv", "posterior.pgm", "report.json")
        run_bytes = {name: (run_dir / name).read_bytes() for name in names}
        assert cli.main(args) == 0
        for name, blob in run_bytes.items():
            assert (run_dir / name).read_bytes() == blob
        _passed("criterion 10: simulate, synthgen and run reruns are byte-identical")


class TestCriterion11Performance:
    def test_two_thousand_step_session(self):
        config = simulate.SessionConfig(postures=12, replications=4, seed=5)
        session = simulate.generate_session(config)
        values = session.series.values[:2000]
        assert len(values) == 2000
        prior = bocpd.informative_prior()
        hazard = bocpd.HazardConfig(0.01)

        # the dense matrices are built inside the timed regions
        started = time.perf_counter()
        full = bocpd.infer_posterior(values, prior, hazard)
        full_dense = dense_matrix(full)
        full_seconds = time.perf_counter() - started

        started = time.perf_counter()
        pruned = bocpd.infer_posterior(values, prior, hazard, prune_threshold=1e-12)
        pruned_dense = dense_matrix(pruned)
        pruned_seconds = time.perf_counter() - started

        assert full_seconds < 10.0
        assert pruned_seconds < 1.0
        # pruning is approximate by design (a dropped hypothesis cannot
        # revive), so the contract here is runtime plus a well-formed
        # posterior and unchanged decisions, not elementwise agreement
        _check_posterior_structure(full_dense)
        _check_posterior_structure(pruned_dense)
        full_trace = segmentation.postprocess_runlength(segmentation.lms_estimate(full))
        pruned_trace = segmentation.postprocess_runlength(segmentation.lms_estimate(pruned))
        full_events = [e.index for e in segmentation.filter_repetitive_resets(
            segmentation.detect_resets(full_trace))]
        pruned_events = [e.index for e in segmentation.filter_repetitive_resets(
            segmentation.detect_resets(pruned_trace))]
        assert pruned_events == full_events
        _passed(
            f"criterion 11: 2000-step inference {full_seconds:.2f} s full, "
            f"{pruned_seconds:.2f} s pruned, identical detections"
        )
