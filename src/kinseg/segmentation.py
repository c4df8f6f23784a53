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
    stored (nonzero) weights of each column in storage order. The sums
    run over ``tables.column_chunks``, chunks of whole columns, so no
    full-size temporary is made; a column's sum is the same whichever
    chunk holds it. No BLAS call is made, so the bits do not
    depend on the BLAS thread count.
    """
    indptr, out = posterior.indptr, np.zeros(posterior.size)
    for start, end in tables.column_chunks(indptr):
        a, b = indptr[start], indptr[end]
        steps = np.repeat(np.arange(end - start), np.diff(indptr[start:end + 1]))
        out[start:end] = np.bincount(
            steps, weights=posterior.run_lengths[a:b] * posterior.weights[a:b],
            minlength=end - start)
    return out


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
    """Read segments written by ``segments_to_csv``. A changepoint index
    must lie in [0, 2**53), be integral and appear on one row only; the
    first row that breaks a rule is named, and a repeat also names the row
    it repeats."""
    _, rows = tables.read_csv(path, [SEGMENTS_HEADER])
    # checked before the cast, which a float outside int64 would not survive
    outside = ~((rows[:, 0] >= 0.0) & (rows[:, 0] < 2.0 ** 53))
    if np.any(outside):
        raise ValueError(f"{path}: changepoint index out of range at data row "
                         f"{np.argmax(outside) + 1}")
    changepoints = rows[:, 0].astype(int)
    bad = changepoints != rows[:, 0]
    if np.any(bad):
        raise ValueError(f"{path}: non-integral changepoint index at data row {np.argmax(bad) + 1}")
    first_row = {}
    for row, k in enumerate(changepoints.tolist(), 1):
        if k in first_row:
            raise ValueError(f"{path}: data row {row} repeats changepoint {k} "
                             f"of data row {first_row[k]}")
        first_row[k] = row
    return [Segment(k, d) for k, d in zip(changepoints.tolist(), rows[:, 1].tolist())]


def write_runlength_csv(path, raw, postprocessed) -> None:
    """Write raw and postprocessed run-length traces side by side."""
    raw = np.asarray(raw, dtype=float).ravel()
    post = np.asarray(postprocessed, dtype=float).ravel()
    if raw.shape != post.shape:
        raise ValueError("raw and postprocessed traces must have equal length")
    tables.write_csv(path, ("k", "runlength", "runlength_postprocessed"),
                     zip(range(raw.size), raw.tolist(), post.tolist()))


def report_to_json(report: dict, path) -> None:
    tables.write_json(path, report)
