"""Detection and segmentation quality metrics against ground truth.

Changepoint detection is scored by matching predicted event indices to
ground-truth segment end times within a sample tolerance (one-to-one,
nearest first), yielding PPV, sensitivity and their harmonic mean F1.
Segmentation quality is the Pearson correlation between matched
predicted and ground-truth inactivity durations.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from . import tables

LABELS_HEADER = ("segment_start", "segment_end")


@dataclass(frozen=True)
class GroundTruthSegment:
    """A labelled inactivity interval [start, end) in downsampled samples."""

    start: int
    end: int

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError(f"segment end must exceed start, got [{self.start}, {self.end})")

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class MatchResult:
    """Outcome of matching predicted changepoints to ground-truth ends."""

    matches: list  # (predicted index, GroundTruthSegment) pairs
    false_positives: list  # unmatched predicted indices
    false_negatives: list  # unmatched GroundTruthSegments

    @property
    def tp(self) -> int:
        return len(self.matches)

    @property
    def fp(self) -> int:
        return len(self.false_positives)

    @property
    def fn(self) -> int:
        return len(self.false_negatives)


def match_changepoints(predicted, ground_truth, tolerance: int = 3) -> MatchResult:
    """One-to-one nearest-first matching of events to segment end times.

    Every candidate (prediction, ground-truth end) pair within
    ``tolerance`` samples is considered, nearest pairs first; ties are
    broken in favour of the earlier predicted index. Each prediction and
    each ground-truth end is used at most once. A prediction's candidates
    are the ends within its window, found by bisection on the sorted ends.
    """
    preds = sorted(int(p) for p in predicted)
    gt = sorted(ground_truth, key=lambda s: s.end)
    ends = [seg.end for seg in gt]
    candidates = []
    for i, p in enumerate(preds):
        for j in range(bisect.bisect_left(ends, p - tolerance),
                       bisect.bisect_right(ends, p + tolerance)):
            candidates.append((abs(p - ends[j]), i, j))
    candidates.sort()
    used_pred: set[int] = set()
    used_gt: set[int] = set()
    matches = []
    for dist, i, j in candidates:
        if i in used_pred or j in used_gt:
            continue
        used_pred.add(i)
        used_gt.add(j)
        matches.append((preds[i], gt[j]))
    matches.sort(key=lambda pair: pair[0])
    fps = [preds[i] for i in range(len(preds)) if i not in used_pred]
    fns = [gt[j] for j in range(len(gt)) if j not in used_gt]
    return MatchResult(matches, fps, fns)


def detection_metrics(match: MatchResult) -> tuple[float, float, float]:
    """(PPV, sensitivity, F1) from a match result.

    PPV = TP / (TP + FP), Se = TP / (TP + FN), and F1 is their harmonic
    mean, defined as 0 when PPV + Se = 0. An evaluation with no
    predictions and no ground truth is meaningless and raises.
    """
    tp, fp, fn = match.tp, match.fp, match.fn
    if tp + fp + fn == 0:
        raise ValueError("empty evaluation: no predictions and no ground truth")
    ppv = tp / (tp + fp) if tp + fp else 0.0
    se = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * ppv * se / (ppv + se) if ppv + se else 0.0
    return ppv, se, f1


def pearson_r(x, y) -> float:
    """Pearson correlation: covariance over the product of standard deviations.

    Sample (n-1) convention on both the covariance and the standard
    deviations, so the normalisations cancel. Requires two equal-length
    sequences of at least two values, each with nonzero variance.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError("sequences must have equal length")
    if x.size < 2:
        raise ValueError("need at least two paired values")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("correlation undefined for zero-variance input")
    return float(dx @ dy / np.sqrt(sxx * syy))


@dataclass
class EvaluationReport:
    """Aggregate detection and segmentation metrics for one session."""

    tp: int
    fp: int
    fn: int
    ppv: float
    se: float
    f1: float
    pearson: float | None
    matched_durations: list = field(default_factory=list)  # (predicted, ground truth)

    def as_dict(self) -> dict:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "ppv": self.ppv,
            "se": self.se,
            "f1": self.f1,
            "pearson_r": self.pearson,
            "matched_durations": [[float(a), float(b)] for a, b in self.matched_durations],
        }


def evaluate_segmentation(segments, ground_truth, tolerance: int = 3) -> EvaluationReport:
    """Score detected segments against ground truth.

    Changepoints are the segment ends; durations of matched pairs feed
    the Pearson correlation (None when fewer than two pairs or when a
    side has zero variance). ``tolerance`` must be positive.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    by_changepoint = {seg.changepoint: seg for seg in segments}
    match = match_changepoints(sorted(by_changepoint), ground_truth, tolerance)
    ppv, se, f1 = detection_metrics(match)
    pairs = [
        (by_changepoint[pred].duration, gt_seg.duration) for pred, gt_seg in match.matches
    ]
    pearson: float | None
    try:
        pearson = pearson_r([p for p, _ in pairs], [g for _, g in pairs])
    except ValueError:
        pearson = None
    return EvaluationReport(match.tp, match.fp, match.fn, ppv, se, f1, pearson, pairs)


def read_labels_csv(path) -> list[GroundTruthSegment]:
    """Read ground-truth labels written as segment_start,segment_end rows.

    Every row must be a segment with 0 <= start < end; the first that is
    not is named with its data row.
    """
    _, rows = tables.read_csv(path, [LABELS_HEADER], dtype=int)
    bad = np.flatnonzero((rows[:, 0] < 0) | (rows[:, 1] <= rows[:, 0]))
    if bad.size:
        start, end = rows[bad[0]].tolist()
        raise ValueError(f"{path}: data row {bad[0] + 1} is not a segment with "
                         f"0 <= start < end: start {start}, end {end}")
    return [GroundTruthSegment(start, end) for start, end in rows.tolist()]
