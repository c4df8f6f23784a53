import numpy as np
import pytest

from kinseg import bocpd, segmentation, tables
from kinseg.segmentation import (
    ChangepointEvent,
    Segment,
    build_segments,
    detect_resets,
    filter_repetitive_resets,
    lms_estimate,
    postprocess_runlength,
)
from util_data import banded_posterior, column_posterior, dense_matrix, traced_peak


def _random_columns(rng, n):
    """A posterior over n time steps whose column k spreads random
    normalised weight over run lengths 0..k."""
    columns = [([0], [1.0])]
    for k in range(1, n):
        w = rng.random(k + 1)
        columns.append((np.arange(k + 1), w / w.sum()))
    return column_posterior(columns)


class TestLmsEstimate:
    def test_point_mass(self):
        col = column_posterior([([3], [1.0])])
        assert lms_estimate(col)[0] == pytest.approx(3.0)

    def test_two_point_mixture(self):
        col = column_posterior([([0, 4], [0.5, 0.5])])
        assert lms_estimate(col)[0] == pytest.approx(2.0)

    def test_initial_column_is_zero(self):
        P = column_posterior([([k], [1.0]) for k in range(4)])
        trace = lms_estimate(P)
        assert trace[0] == 0.0
        assert np.allclose(trace, [0.0, 1.0, 2.0, 3.0])

    def test_bounded_by_column_index(self):
        trace = lms_estimate(_random_columns(np.random.default_rng(2), 21))
        assert np.all(trace >= 0.0)
        assert np.all(trace <= np.arange(21))

    @pytest.mark.parametrize("chunk", [1, 7, 64, tables.CHUNK_CELLS])
    def test_same_bits_as_one_pass(self, monkeypatch, chunk):
        # chunks of whole columns, and columns longer than a chunk, sum each
        # column in the order one bincount over every cell does
        monkeypatch.setattr(tables, "CHUNK_CELLS", chunk)
        P = _random_columns(np.random.default_rng(3), 60)
        steps = np.repeat(np.arange(P.size), np.diff(P.indptr))
        one_pass = np.bincount(steps, weights=P.run_lengths * P.weights, minlength=P.size)
        assert lms_estimate(P).tobytes() == one_pass.tobytes()

    def test_peak_memory_per_stored_cell(self):
        P = banded_posterior(2000, 300)  # 555,150 cells
        peak = traced_peak(lambda: lms_estimate(P))
        # chunk-sized temporaries and the estimate, about 0.6 bytes a cell;
        # one pass over every cell copies the steps and the products, 16
        assert peak < 2 * len(P.weights), f"{peak / len(P.weights):.1f} bytes per stored cell"


#: Largest difference allowed between ``lms_estimate``, which sums each
#: column's stored entries in order, and the dense product
#: ``arange(T+1) @ P``, which BLAS sums in its own order. Measured at
#: most 1.8e-15 relative (6.4e-14 absolute, on estimates up to 125) on
#: the cases below.
LMS_RTOL = 1e-13


class TestLmsTrace:
    """The estimate of a column-stored posterior equals the dense product
    to rounding, exact and pruned, over short and long series."""

    @pytest.mark.parametrize("size", [200, 256, 257, 2001])
    @pytest.mark.parametrize("prune", [None, 1e-12], ids=["exact", "pruned"])
    def test_matches_dense_product(self, size, prune):
        rng = np.random.default_rng(size)
        means = rng.uniform(-1.0, 1.0, size=(size // 40 + 1, 3))
        values = means[np.arange(size - 1) // 40] + 0.05 * rng.standard_normal((size - 1, 3))
        P = bocpd.infer_posterior(values, bocpd.informative_prior(), bocpd.HazardConfig(0.01),
                                  prune)
        dense = np.arange(P.size) @ dense_matrix(P)
        assert np.allclose(lms_estimate(P), dense, rtol=LMS_RTOL, atol=0.0)


class TestPostprocess:
    def test_worked_example(self):
        # a double descent 30, 23, 0 becomes 30, 30, 0: the gradual fall is
        # merged into one sharp drop a step later
        trace = [10.0, 20.0, 30.0, 23.0, 0.0, 1.0, 2.0]
        out = postprocess_runlength(trace)
        assert np.allclose(out, [10.0, 20.0, 30.0, 30.0, 0.0, 1.0, 2.0])

    def test_monotone_increasing_unchanged(self):
        trace = np.arange(10.0)
        assert np.array_equal(postprocess_runlength(trace), trace)

    def test_requires_strict_double_descent(self):
        trace = [40.0, 30.0, 23.0, 25.0, 26.0]
        out = postprocess_runlength(trace)
        assert out[2] == 23.0  # 23 rebounds to 25, so the filter must not fire

    def test_reads_original_not_cascaded(self):
        # 40, 30, 20, 10: positions 1 and 2 both qualify against the
        # original trace; a cascading filter would propagate 40 rightward
        out = postprocess_runlength([40.0, 30.0, 20.0, 10.0, 11.0])
        assert np.allclose(out, [40.0, 40.0, 30.0, 10.0, 11.0])

    def test_boundaries_pass_through(self):
        out = postprocess_runlength([5.0, 1.0])
        assert np.allclose(out, [5.0, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            postprocess_runlength([])


class TestDetectResets:
    def test_large_drop_fires(self):
        events = detect_resets([10.0, 20.0, 30.0, 1.0])
        assert len(events) == 1
        assert events[0].index == 3
        assert events[0].pre_reset == pytest.approx(30.0)
        assert events[0].log_drop == pytest.approx(np.log10(30.0))

    def test_small_drop_does_not_fire(self):
        # 20 -> 15 is a factor 4/3, log10 about 0.125
        assert detect_resets([10.0, 20.0, 15.0, 16.0]) == []

    def test_halving_is_the_boundary(self):
        # 2 -> 1 is exactly a halving: log10(2) = 0.30103 > 0.3 fires
        events = detect_resets([1.0, 2.0, 1.0])
        assert [e.index for e in events] == [2]

    def test_clamp_floor(self):
        # values below one sample are clamped before the log, so 1 -> 0.1
        # is not a detectable drop
        assert detect_resets([1.5, 1.0, 0.1]) == []

    def test_single_event_per_gradual_decline(self):
        # consecutive qualifying drops without intervening growth collapse
        # into one event; growth re-arms the detector
        trace = [1.0, 40.0, 8.0, 1.5, 0.5, 1.5, 2.5, 40.0, 4.0]
        events = detect_resets(trace)
        assert [e.index for e in events] == [2, 8]

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            # run-length-like sawtooth traces, values at or above 2 so that
            # halving the trace keeps everything at or above the clamp floor
            trace = 2.0 + np.abs(rng.normal(0, 40, 60)).cumsum() % 97
            base = [e.index for e in detect_resets(trace)]
            for c in (0.5, 2.0, 10.0):
                assert [e.index for e in detect_resets(c * trace)] == base

    def test_custom_threshold(self):
        trace = [10.0, 20.0, 15.0]
        assert detect_resets(trace, log_threshold=0.1) != []


class TestFilterRepetitiveResets:
    def test_short_run_eliminated(self):
        events = [ChangepointEvent(5, 19.0, 1.0)]
        assert filter_repetitive_resets(events) == []

    def test_boundary_retained(self):
        events = [ChangepointEvent(5, 20.0, 1.0)]
        assert filter_repetitive_resets(events) == events

    def test_empty(self):
        assert filter_repetitive_resets([]) == []

    def test_unrounded_comparison(self):
        events = [ChangepointEvent(5, 19.9, 1.0)]
        assert filter_repetitive_resets(events) == []


class TestBuildSegments:
    def test_single_event(self):
        events = [ChangepointEvent(40, 38.0, 1.0)]
        segs = build_segments(events)
        assert segs == [Segment(changepoint=40, duration=38.0)]
        assert segs[0].start == pytest.approx(2.0)

    def test_elapsed_time_cap(self):
        events = [ChangepointEvent(10, 25.0, 1.0), ChangepointEvent(30, 45.0, 1.0)]
        segs = build_segments(events)
        assert segs[0].duration == pytest.approx(10.0)  # capped by session start
        assert segs[1].duration == pytest.approx(20.0)  # capped by previous event

    def test_no_events(self):
        assert build_segments([]) == []

    def test_disjoint_segments(self):
        rng = np.random.default_rng(11)
        idx = np.sort(rng.choice(np.arange(10, 500), size=12, replace=False))
        events = [ChangepointEvent(int(k), float(rng.uniform(5, 200)), 1.0) for k in idx]
        segs = build_segments(events)
        previous = 0
        for seg in segs:
            assert seg.start >= previous - 1e-12
            previous = seg.changepoint


class TestDeterminismAndIo:
    def test_full_chain_is_pure(self):
        P = _random_columns(np.random.default_rng(3), 30)

        def chain():
            trace = postprocess_runlength(lms_estimate(P))
            events = filter_repetitive_resets(detect_resets(trace), min_run=2.0)
            return build_segments(events)

        assert chain() == chain()

    def test_postprocess_never_creates_resets_on_nondecreasing(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            trace = np.sort(np.abs(rng.normal(0, 30, 40)))
            assert detect_resets(postprocess_runlength(trace)) == []

    def test_segments_csv_roundtrip(self, tmp_path):
        segs = [Segment(40, 38.0), Segment(90, 45.5)]
        path = tmp_path / "segments.csv"
        assert segmentation.segments_to_csv(segs, path) == 2
        assert segmentation.read_segments_csv(path) == segs
        header = path.read_text().splitlines()[0]
        assert header == "changepoint_idx,duration,start_idx"

    def test_runlength_csv(self, tmp_path):
        path = tmp_path / "runlength.csv"
        segmentation.write_runlength_csv(path, [0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        lines = path.read_text().splitlines()
        assert lines[0] == "k,runlength,runlength_postprocessed"
        assert len(lines) == 4

    def test_report_round_trip(self, tmp_path):
        import json
        report = segmentation.segmentation_report(
            [Segment(40, 38.0)], [0.0, 1.0], [0.0, 1.0], {"hazard_p": 0.01}
        )
        path = tmp_path / "report.json"
        segmentation.report_to_json(report, path)
        back = json.loads(path.read_text())
        assert back["config"] == {"hazard_p": 0.01}
        assert back["segments"][0]["changepoint"] == 40
