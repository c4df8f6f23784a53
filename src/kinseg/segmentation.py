"""Run-length point estimation, reset detection and inactivity segments.

The run-length posterior is reduced to a least-mean-square point
estimate per time step, optionally smoothed by a three-sample filter
that merges short gradual declines, then thresholded on the log10 scale
(a drop beyond log10 2 means the estimate at least halved) to detect
reset events. Events with short pre-reset runs are treated as activity
and dropped; every surviving event yields one inactivity segment whose
duration reads from the estimate just before the reset, capped by the
elapsed time since the previous event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tables

DEFAULT_LOG_DROP = 0.3
DEFAULT_MIN_RUN = 20.0


def lms_estimate(posterior) -> np.ndarray:
    """Posterior-mean run length per time step (minimum mean squared error).

    Column k of the ``bocpd.RunLengthPosterior`` is a distribution over
    run lengths 0..k; the estimate is its expectation, summed over the
    stored (nonzero) weights of each column in one pass. No BLAS call is
    made, so the bits do not depend on the BLAS thread count.
    """
    return np.bincount(posterior.steps, weights=posterior.run_lengths * posterior.weights,
                       minlength=posterior.size)


def postprocess_runlength(trace) -> np.ndarray:
    """Three-sample filter merging strict double descents.

    Wherever trace[k-1] > trace[k] > trace[k+1], the middle value is
    replaced by its predecessor so that a gradual two-step fall becomes a
    single sharp drop one step later. Comparisons read the original
    trace (no cascading), and the boundary samples pass through.
    """
    x = np.asarray(trace, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("trace must not be empty")
    out = x.copy()
    if x.size >= 3:
        mid = (x[:-2] > x[1:-1]) & (x[1:-1] > x[2:])
        idx = np.flatnonzero(mid) + 1
        out[idx] = x[idx - 1]
    return out


@dataclass(frozen=True)
class ChangepointEvent:
    """A detected reset: the step index, the estimate just before it and
    the size of the drop on the log10 scale."""

    index: int
    pre_reset: float
    log_drop: float


def detect_resets(trace, log_threshold: float = DEFAULT_LOG_DROP) -> list[ChangepointEvent]:
    """Scale-invariant reset detection on a run-length trace.

    An event fires at k when log10 of the (clamped) estimate drops by
    more than ``log_threshold`` from k-1 to k. Estimates are clamped to a
    floor of 1 before taking logs: sub-sample run lengths carry no scale
    information. Consecutive qualifying drops within one decline produce
    a single event; detection re-arms once the trace grows again.
    """
    x = np.asarray(trace, dtype=float).ravel()
    logs = np.log10(np.maximum(x, 1.0))
    events: list[ChangepointEvent] = []
    armed = True
    for k in range(1, x.size):
        drop = logs[k - 1] - logs[k]
        if drop > log_threshold:
            if armed:
                events.append(ChangepointEvent(k, float(x[k - 1]), float(drop)))
                armed = False
        elif x[k] > x[k - 1]:
            armed = True
    return events


def filter_repetitive_resets(events, min_run: float = DEFAULT_MIN_RUN) -> list[ChangepointEvent]:
    """Drop events whose pre-reset run length is below ``min_run``.

    Short runs between resets indicate ongoing activity rather than a
    settled posture; the boundary is inclusive (pre-reset == min_run
    survives), and values are compared unrounded.
    """
    return [e for e in events if e.pre_reset >= min_run]


@dataclass(frozen=True)
class Segment:
    """One detected inactivity interval, in downsampled sample units."""

    changepoint: int
    duration: float

    @property
    def start(self) -> float:
        return self.changepoint - self.duration


def build_segments(events) -> list[Segment]:
    """Inactivity segments from filtered reset events.

    Each event at index k yields a segment ending at k whose duration is
    the run-length estimate just before the reset (stored on the event
    when it was detected), capped by the elapsed samples since the
    previous retained event (0 for the first): a partial reset at the
    previous transition must not inflate the next duration.
    """
    segments: list[Segment] = []
    previous = 0
    for event in events:
        k = event.index
        duration = min(float(event.pre_reset), float(k - previous))
        segments.append(Segment(changepoint=k, duration=duration))
        previous = k
    return segments


SEGMENTS_HEADER = ("changepoint_idx", "duration", "start_idx")


def segments_to_csv(segments, path) -> int:
    """Write segments as changepoint_idx,duration,start_idx rows."""
    tables.write_csv(path, SEGMENTS_HEADER, (
        [seg.changepoint, float(seg.duration), float(seg.start)] for seg in segments
    ))
    return len(segments)


def read_segments_csv(path) -> list[Segment]:
    """Read segments written by ``segments_to_csv``."""
    _, rows = tables.read_csv(path, [SEGMENTS_HEADER])
    changepoints = rows[:, 0].astype(int)
    if np.any(changepoints != rows[:, 0]):
        raise ValueError(f"{path}: non-integral changepoint index")
    return [Segment(k, d) for k, d in zip(changepoints.tolist(), rows[:, 1].tolist())]


def write_runlength_csv(path, raw, postprocessed) -> None:
    """Write raw and postprocessed run-length traces side by side."""
    raw = np.asarray(raw, dtype=float).ravel()
    post = np.asarray(postprocessed, dtype=float).ravel()
    if raw.shape != post.shape:
        raise ValueError("raw and postprocessed traces must have equal length")
    tables.write_csv(path, ("k", "runlength", "runlength_postprocessed"),
                     zip(range(raw.size), raw.tolist(), post.tolist()))


def segmentation_report(segments, raw_trace, post_trace, config: dict) -> dict:
    """JSON-serialisable report echoing the configuration and trace stats."""
    raw = np.asarray(raw_trace, dtype=float)
    post = np.asarray(post_trace, dtype=float)
    return {
        "config": dict(config),
        "trace": {
            "length": int(raw.size),
            "max_raw": float(raw.max()) if raw.size else 0.0,
            "max_postprocessed": float(post.max()) if post.size else 0.0,
            "final_postprocessed": float(post[-1]) if post.size else 0.0,
        },
        "segments": [
            {"changepoint": s.changepoint, "duration": s.duration, "start": s.start}
            for s in segments
        ],
    }


def report_to_json(report: dict, path) -> None:
    tables.write_json(path, report)
