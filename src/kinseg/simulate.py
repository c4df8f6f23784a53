"""Seeded synthetic sleep sessions with exact ground truth.

Sessions alternate quasistatic posture segments (isotropic noise around
a fixed mean on the radial embedding shell) with short activity bursts
whose samples swing across the shell. Ground truth records every posture
segment and its end index, which doubles as the true changepoint
location. The same session can be emitted at the downsampled embedding
level or as a full-rate axis-angle series that exercises the whole
conversion, embedding and decimation path.

All randomness comes from numpy's PCG64 generator seeded from the
config, so identical configs produce byte-identical sessions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tables
from .kinematics import (
    EmbeddingSeries,
    INNER_RADIUS,
    OUTER_RADIUS,
    adr_invert,
)
from .metrics import LABELS_HEADER, GroundTruthSegment

# Posture means keep a margin inside the shell so noise rarely clips.
_MEAN_RADIUS_RANGE = (1.15, 1.85)
_PLACEMENT_ATTEMPTS = 20_000
# Transition samples land at least this far from the posture being left:
# a posture change is an actual movement, not a wiggle in place. Samples
# within one burst also keep a minimum mutual spread (a swing, not a
# pause somewhere else), which is what lets the inference tell "moving"
# apart from "settled at a new place" within a sample or two.
_BURST_MIN_TRAVEL = 2.7
_BURST_MIN_SPREAD = 1.7
#: Sample rate of the full-rate axis-angle series, in Hz.
RATE_HZ = 30.0


@dataclass(frozen=True)
class SessionConfig:
    """Knobs of the synthetic session generator.

    ``mean_separation`` is the minimum distance between posture means in
    units of ``noise_scale``. Durations and transition lengths are in
    downsampled samples. The noise scale default is a calibration choice
    for plausible within-posture micro-movement, not a measured value.
    """

    postures: int = 12
    replications: int = 2
    duration_range: tuple[int, int] = (20, 60)
    transition_range: tuple[int, int] = (2, 3)
    noise_scale: float = 0.12
    mean_separation: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.postures < 1 or self.replications < 1:
            raise ValueError("postures and replications must be at least 1")
        lo, hi = self.duration_range
        if lo < 1 or hi < lo:
            raise ValueError(f"invalid duration range {self.duration_range}")
        tlo, thi = self.transition_range
        if tlo < 1 or thi < tlo:
            raise ValueError(f"invalid transition range {self.transition_range}")
        if self.noise_scale <= 0.0:
            raise ValueError("noise scale must be positive")
        if self.mean_separation < 0.0:
            raise ValueError("mean separation must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class LabeledSession:
    """A generated session plus its exact ground truth."""

    series: EmbeddingSeries
    segments: list[GroundTruthSegment]
    axis_angle: tuple | None = None  # (timestamps, axes, angles) at full rate


def _clamp_to_shell(points: np.ndarray) -> np.ndarray:
    """Rescale radius into [inner, outer] while keeping the direction.

    Points at (numerically) zero radius have no direction; they are
    pinned to the inner shell on the +x axis.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float)).copy()
    norms = np.linalg.norm(pts, axis=-1)
    degenerate = norms < 1e-9
    pts[degenerate] = (INNER_RADIUS, 0.0, 0.0)
    norms = np.where(degenerate, INNER_RADIUS, norms)
    clamped = np.clip(norms, INNER_RADIUS, OUTER_RADIUS)
    return pts * (clamped / norms)[..., None]


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1D vector: the value ``np.linalg.norm`` gives
    (the square root of ``v.dot(v)``) without its per-call overhead."""
    return math.sqrt(v.dot(v))


def _place_means(rng: np.random.Generator, count: int, min_dist: float) -> np.ndarray:
    means: list[np.ndarray] = []
    for _ in range(_PLACEMENT_ATTEMPTS):
        direction = rng.standard_normal(3)
        direction /= _norm(direction)
        radius = rng.uniform(*_MEAN_RADIUS_RANGE)
        candidate = radius * direction
        if all(_norm(candidate - m) >= min_dist for m in means):
            means.append(candidate)
            if len(means) == count:
                return np.asarray(means)
    raise ValueError(
        f"could not place {count} posture means at separation {min_dist:.3g} on the shell"
    )


def _posture_order(rng: np.random.Generator, postures: int, replications: int) -> list[int]:
    order = np.repeat(np.arange(postures), replications)
    for _ in range(1000):
        rng.shuffle(order)
        if postures == 1 or not np.any(order[1:] == order[:-1]):
            break
    return list(order)


def generate_session(config: SessionConfig) -> LabeledSession:
    """Generate a labelled session at the downsampled embedding level.

    Each posture visit contributes i.i.d. samples around its mean,
    rescaled into the shell. Between postures (and after the last one, so
    the trailing changepoint is observable too) a short activity burst of
    1 to 3 samples models the limb swinging through large arcs: burst
    samples scatter across the whole shell with doubled noise on top,
    which is what makes a transition detectable even when the adjacent
    posture means happen to lie close together.
    """
    rng = np.random.default_rng(config.seed)
    sigma = config.noise_scale
    means = _place_means(rng, config.postures, config.mean_separation * sigma)
    order = _posture_order(rng, config.postures, config.replications)

    chunks: list[np.ndarray] = []
    segments: list[GroundTruthSegment] = []
    cursor = 0
    for posture in order:
        mean = means[posture]
        duration = int(rng.integers(config.duration_range[0], config.duration_range[1] + 1))
        samples = mean + sigma * rng.standard_normal((duration, 3))
        chunks.append(_clamp_to_shell(samples))
        segments.append(GroundTruthSegment(cursor, cursor + duration))
        cursor += duration

        length = int(rng.integers(config.transition_range[0], config.transition_range[1] + 1))
        burst = np.empty((length, 3))
        # the distance checks run on plain floats: numpy's per-call cost on
        # 3-vectors dominated session generation
        mean_xyz, placed = mean.tolist(), []
        for j in range(length):
            candidate = -mean / _norm(mean) * _MEAN_RADIUS_RANGE[0]
            for _ in range(_PLACEMENT_ATTEMPTS):
                direction = rng.standard_normal(3)
                direction /= _norm(direction)
                candidate = rng.uniform(*_MEAN_RADIUS_RANGE) * direction
                xyz = candidate.tolist()
                if math.dist(xyz, mean_xyz) >= _BURST_MIN_TRAVEL and all(
                        math.dist(xyz, q) >= _BURST_MIN_SPREAD for q in placed):
                    break
            placed.append(xyz)
            burst[j] = candidate + 2.0 * sigma * rng.standard_normal(3)
        chunks.append(_clamp_to_shell(burst))
        cursor += length

    values = np.vstack(chunks)
    timestamps = np.arange(len(values), dtype=float)
    return LabeledSession(EmbeddingSeries(values, timestamps, source="adr"), segments)


def generate_session_axis_angle(config: SessionConfig, factor: int = 100) -> LabeledSession:
    """Emit the same session as a full-rate axis-angle series at ``RATE_HZ``.

    Sample ``i * factor`` of the raw series inverts exactly to the i-th
    downsampled embedding; intermediate samples interpolate linearly
    between neighbouring embeddings (clamped into the shell) so that
    decimation by ``factor`` recovers the embedding session. Ground-truth
    indices stay in downsampled units.
    """
    if int(factor) != factor or factor < 1:
        raise ValueError(f"expansion factor must be an integer >= 1, got {factor}")
    factor = int(factor)
    session = generate_session(config)
    emb = session.series.values
    stop = np.vstack([emb[1:], emb[-1:]])  # the last sample holds still
    frac = (np.arange(factor) / factor)[:, None]
    raw = (emb[:, None] + frac * (stop - emb)[:, None]).reshape(-1, 3)
    raw = _clamp_to_shell(raw)
    raw[::factor] = emb  # keep the kept samples bit-exact
    axes, angles = adr_invert(raw)
    timestamps = np.arange(len(raw), dtype=float) / RATE_HZ
    session.axis_angle = (timestamps, axes, angles)
    return session


def write_labels_csv(path, segments) -> int:
    """Write ground truth as segment_start,segment_end rows."""
    tables.write_csv(path, LABELS_HEADER, ([seg.start, seg.end] for seg in segments))
    return len(segments)
