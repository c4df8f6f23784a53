import numpy as np
import pytest

from kinseg import metrics
from kinseg.metrics import (
    GroundTruthSegment,
    detection_metrics,
    evaluate_segmentation,
    match_changepoints,
    pearson_r,
)
from kinseg.segmentation import Segment


def seg(start, end):
    return GroundTruthSegment(start, end)


def pair_scan_match(predicted, ground_truth, tolerance):
    """Reference matcher: every (prediction, ground-truth end) pair is
    scanned for candidates, nearest first, earlier prediction on ties."""
    preds = sorted(int(p) for p in predicted)
    gt = sorted(ground_truth, key=lambda s: s.end)
    candidates = sorted((abs(p - s.end), i, j) for i, p in enumerate(preds)
                        for j, s in enumerate(gt) if abs(p - s.end) <= tolerance)
    used_pred, used_gt, matches = set(), set(), []
    for _, i, j in candidates:
        if i not in used_pred and j not in used_gt:
            used_pred.add(i)
            used_gt.add(j)
            matches.append((preds[i], gt[j]))
    matches.sort(key=lambda pair: pair[0])
    return metrics.MatchResult(
        matches, [p for i, p in enumerate(preds) if i not in used_pred],
        [s for j, s in enumerate(gt) if j not in used_gt])


class TestGroundTruthSegment:
    def test_duration(self):
        assert seg(10, 35).duration == 25

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            seg(10, 10)


class TestMatching:
    def test_within_tolerance(self):
        m = match_changepoints([50], [seg(40, 52)], tolerance=3)
        assert (m.tp, m.fp, m.fn) == (1, 0, 0)

    def test_outside_tolerance(self):
        m = match_changepoints([50], [seg(40, 54)], tolerance=3)
        assert (m.tp, m.fp, m.fn) == (0, 1, 1)

    def test_all_missed(self):
        m = match_changepoints([], [seg(0, 10), seg(12, 20), seg(22, 30), seg(32, 40), seg(42, 50)])
        assert (m.tp, m.fp, m.fn) == (0, 0, 5)

    def test_one_to_one(self):
        # two predictions near one ground-truth end: only one matches
        m = match_changepoints([50, 51], [seg(40, 51)], tolerance=3)
        assert (m.tp, m.fp, m.fn) == (1, 1, 0)
        assert m.matches[0][0] == 51  # the nearer prediction wins

    def test_tie_earlier_prediction_wins(self):
        m = match_changepoints([49, 53], [seg(40, 51)], tolerance=3)
        assert m.tp == 1
        assert m.matches[0][0] == 49

    def test_order_independent_outcome(self):
        gt = [seg(0, 20), seg(22, 40), seg(45, 70)]
        a = match_changepoints([19, 41, 69], gt)
        b = match_changepoints([69, 41, 19], gt)
        assert (a.tp, a.fp, a.fn) == (b.tp, b.fp, b.fn)

    def test_nearest_first_greedy(self):
        # one prediction between two ground-truth ends: pairs with the nearer
        m = match_changepoints([52], [seg(40, 50), seg(51, 53)], tolerance=3)
        assert m.tp == 1
        assert m.matches[0][1].end == 53

    def test_windowed_candidates_match_pair_scan(self):
        # repeated ends, repeated predictions, tolerance 0 and wide windows
        rng = np.random.default_rng(5)
        for _ in range(3000):
            ends = rng.integers(1, 40, rng.integers(0, 12))
            gt = [seg(int(e) - int(rng.integers(1, 5)), int(e)) for e in ends]
            preds = rng.integers(-5, 45, rng.integers(0, 12)).tolist()
            tolerance = int(rng.integers(0, 6))
            assert match_changepoints(preds, gt, tolerance) == pair_scan_match(preds, gt, tolerance)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance must be nonnegative, got -1"):
            match_changepoints([10], [seg(0, 10)], tolerance=-1)

    def test_windowed_candidates_match_pair_scan_on_a_long_session(self):
        rng = np.random.default_rng(6)
        ends = np.cumsum(rng.integers(20, 60, 300))
        gt = [seg(int(e) - 10, int(e)) for e in ends]
        preds = (ends + rng.integers(-4, 5, len(ends)))[rng.random(len(ends)) < 0.9].tolist()
        preds += rng.integers(0, int(ends[-1]), 30).tolist()
        assert match_changepoints(preds, gt, 3) == pair_scan_match(preds, gt, 3)


class TestDetectionMetrics:
    def test_balanced_example(self):
        m = metrics.MatchResult([(1, None)] * 9, [2], [3])
        ppv, se, f1 = detection_metrics(m)
        assert (ppv, se, f1) == (pytest.approx(0.9), pytest.approx(0.9), pytest.approx(0.9))

    def test_perfect_detection(self):
        m = metrics.MatchResult([(1, None)] * 7, [], [])
        assert detection_metrics(m) == (1.0, 1.0, 1.0)

    def test_no_true_positives(self):
        m = metrics.MatchResult([], [5, 9], [seg(0, 2)])
        assert detection_metrics(m) == (0.0, 0.0, 0.0)

    def test_empty_evaluation_raises(self):
        with pytest.raises(ValueError):
            detection_metrics(metrics.MatchResult([], [], []))

    def test_f1_harmonic_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            tp, fp, fn = rng.integers(0, 20, 3)
            if tp + fp + fn == 0:
                continue
            m = metrics.MatchResult([(1, None)] * int(tp), list(range(int(fp))), list(range(int(fn))))
            ppv, se, f1 = detection_metrics(m)
            assert 0.0 <= f1 <= 2.0 * min(ppv, se) + 1e-12


class TestPearson:
    def test_identity(self):
        assert pearson_r([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == pytest.approx(1.0)

    def test_negation(self):
        assert pearson_r([1.0, 2.0, 5.0], [-1.0, -2.0, -5.0]) == pytest.approx(-1.0)

    def test_hand_computed_value(self):
        # x = (1,2,3), y = (2,4,7): covariance 5/2, stddevs 1 and
        # sqrt(19/3), so r = 2.5 / sqrt(19/3) = 15 / sqrt(228)
        expected = 15.0 / np.sqrt(228.0)
        assert pearson_r([1, 2, 3], [2, 4, 7]) == pytest.approx(expected, rel=1e-12)
        assert pearson_r([1, 2, 3], [2, 4, 7]) == pytest.approx(0.99339927, abs=1e-8)

    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=8)
            y = rng.normal(size=8)
            assert pearson_r(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], rel=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        base = pearson_r(x, y)
        assert pearson_r(3.0 * x + 7.0, y) == pytest.approx(base, rel=1e-12)
        assert pearson_r(x, 0.2 * y - 4.0) == pytest.approx(base, rel=1e-12)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            pearson_r([1.0], [2.0])

    def test_rejects_zero_variance(self):
        with pytest.raises(ValueError):
            pearson_r([1.0, 1.0, 1.0], [2.0, 4.0, 7.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson_r([1.0, 2.0], [1.0, 2.0, 3.0])


class TestEvaluateSegmentation:
    @pytest.mark.parametrize("tolerance", [0, -1])
    def test_rejects_nonpositive_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            evaluate_segmentation([Segment(10, 10.0)], [seg(0, 10)], tolerance)

    def test_matched_durations_feed_correlation(self):
        gt = [seg(0, 30), seg(33, 80), seg(85, 110)]
        predicted = [Segment(30, 29.5), Segment(80, 46.0), Segment(110, 24.0)]
        report = evaluate_segmentation(predicted, gt)
        assert report.tp == 3
        assert report.f1 == 1.0
        assert report.pearson == pytest.approx(
            pearson_r([29.5, 46.0, 24.0], [30, 47, 25]), rel=1e-12
        )

    def test_pearson_none_when_underdetermined(self):
        gt = [seg(0, 30)]
        predicted = [Segment(30, 29.5)]
        report = evaluate_segmentation(predicted, gt)
        assert report.tp == 1
        assert report.pearson is None

    def test_as_dict_is_json_friendly(self):
        import json
        gt = [seg(0, 30), seg(33, 80)]
        predicted = [Segment(30, 29.5), Segment(80, 46.0)]
        payload = evaluate_segmentation(predicted, gt).as_dict()
        json.dumps(payload)
        assert payload["tp"] == 2


class TestLabelsCsv:
    def test_roundtrip(self, tmp_path):
        from kinseg.simulate import write_labels_csv
        segs = [seg(0, 30), seg(33, 80)]
        path = tmp_path / "labels.csv"
        assert write_labels_csv(path, segs) == 2
        assert metrics.read_labels_csv(path) == segs

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            metrics.read_labels_csv(path)
