"""Orientation conversion, radial 3D embedding and series handling.

Measured joint orientations arrive as unit quaternions or axis-angle
tuples. They are embedded into a constrained 3D space: the rotation axis
gives the direction and the rotation angle is mapped linearly onto the
radius, inner radius 1 at angle 0 and outer radius 2 at angle pi, so
every embedded point lives in the thick spherical shell 1 <= |o| <= 2.
Externally computed embeddings can be ingested as-is (unconstrained).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tables

ZERO_ANGLE_EPS = 1e-8
DEFAULT_AXIS = (0.0, 0.0, 1.0)

INNER_RADIUS = 1.0
OUTER_RADIUS = 2.0

SHELL_TOL = 1e-9

# Recognised CSV layouts, keyed by exact header.
_CSV_LAYOUTS = {
    ("t", "qw", "qx", "qy", "qz"): "quaternion",
    ("t", "x1", "x2", "x3", "x4"): "axisangle",
    ("t", "o1", "o2", "o3"): "embedding",
}


def _canonicalize(q: np.ndarray) -> np.ndarray:
    """Flip sign so w >= 0; at w == 0 the first nonzero vector part is positive."""
    w = q[..., 0]
    sign = np.sign(w)
    if np.any(sign == 0.0):
        vec_sign = np.sign(q[..., 1:])
        first = np.argmax(vec_sign != 0.0, axis=-1)
        fallback = np.take_along_axis(vec_sign, first[..., None], axis=-1)[..., 0]
        sign = np.where(sign == 0.0, np.where(fallback == 0.0, 1.0, fallback), sign)
    return q * sign[..., None]


def quaternion_series_to_axis_angle(quats):
    """Convert a quaternion timeseries, carrying the axis over degenerate samples.

    At near-zero rotation angles the axis direction is meaningless but the
    embedding still needs one; the previous sample's axis is carried
    forward to keep the embedded trajectory continuous (DEFAULT_AXIS for a
    degenerate first sample).

    Returns:
        (axes, angles) with shapes (N, 3) and (N,).
    """
    q = np.atleast_2d(np.asarray(quats, dtype=float))
    if q.shape[-1] != 4:
        raise ValueError("quaternion series must have four columns")
    norms = np.linalg.norm(q, axis=-1)
    zero = np.flatnonzero(norms < 1e-12)
    if zero.size:
        raise ValueError(f"quaternion series contains a zero quaternion at data row {zero[0] + 1}")
    q = _canonicalize(q / norms[:, None])
    angles = 2.0 * np.arccos(np.clip(q[:, 0], -1.0, 1.0))
    vec = q[:, 1:]
    vec_norms = np.linalg.norm(vec, axis=-1)
    degenerate = angles <= ZERO_ANGLE_EPS
    safe = np.where(vec_norms > 0.0, vec_norms, 1.0)
    axes = vec / safe[:, None]
    if degenerate.any():
        # each row's last non-degenerate row at or before it, -1 for none
        last = np.maximum.accumulate(np.where(degenerate, -1, np.arange(len(q))))
        carried = last[degenerate]
        axes[degenerate] = np.where((carried < 0)[:, None], DEFAULT_AXIS, axes[carried])
    return axes, angles


def adr_embed(axes, angles) -> np.ndarray:
    """Embed axis-angle orientations into the radial shell.

    The radius interpolates linearly from the inner radius (angle 0) to the
    outer radius (angle pi): r = 1 + angle / pi, and the embedded point is
    r times the rotation axis.
    """
    axes = np.asarray(axes, dtype=float)
    angles = np.asarray(angles, dtype=float)
    norms = np.linalg.norm(axes, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("rotation axes must be unit vectors")
    if np.any((angles < -1e-12) | (angles > np.pi + 1e-12)):
        raise ValueError("rotation angles must lie in [0, pi]")
    radius = INNER_RADIUS + np.clip(angles, 0.0, np.pi) / np.pi
    return radius[..., None] * axes


def adr_invert(points):
    """Recover (axes, angles) from embedded points; inverse of adr_embed."""
    pts = np.asarray(points, dtype=float)
    norms = np.linalg.norm(pts, axis=-1)
    if np.any((norms < INNER_RADIUS - SHELL_TOL) | (norms > OUTER_RADIUS + SHELL_TOL)):
        raise ValueError("embedded point norm outside the [1, 2] shell")
    radius = np.clip(norms, INNER_RADIUS, OUTER_RADIUS)
    angles = (radius - INNER_RADIUS) * np.pi
    axes = pts / norms[..., None]
    return axes, angles


@dataclass
class EmbeddingSeries:
    """An ordered 3D embedding timeseries with timestamps and provenance.

    ``source`` records how the embedding was produced: "adr" series must
    lie in the [1, 2] shell, "external" embeddings are unconstrained.
    """

    values: np.ndarray
    timestamps: np.ndarray
    source: str = "adr"

    def __post_init__(self):
        if self.source not in ("adr", "external"):
            raise ValueError(f"unknown embedding source {self.source!r}")
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        self.timestamps = np.asarray(self.timestamps, dtype=float).ravel()
        if self.values.shape[0] != self.timestamps.shape[0]:
            raise ValueError("values and timestamps must have equal length")
        repeated = np.flatnonzero(np.diff(self.timestamps) <= 0.0)
        if repeated.size:
            raise ValueError("timestamps must be strictly increasing, but data row "
                             f"{repeated[0] + 2} is not after data row {repeated[0] + 1}")
        if self.source == "adr" and len(self.values):
            norms = np.linalg.norm(self.values, axis=-1)
            if np.any((norms < INNER_RADIUS - SHELL_TOL) | (norms > OUTER_RADIUS + SHELL_TOL)):
                raise ValueError("constrained embedding outside the [1, 2] shell")

    def __len__(self) -> int:
        return len(self.values)


def decimate(series, factor: int):
    """Keep every factor-th sample starting at index 0.

    Plain sample picking with no anti-alias filter; output length is
    ceil(N / factor). Accepts an EmbeddingSeries (timestamps are decimated
    alongside) or a bare array. The kept samples are copied, not views, so
    the full-rate input can be freed.
    """
    if int(factor) != factor or factor < 1:
        raise ValueError(f"decimation factor must be an integer >= 1, got {factor}")
    factor = int(factor)
    if isinstance(series, EmbeddingSeries):
        return replace(series, values=series.values[::factor].copy(),
                       timestamps=series.timestamps[::factor].copy())
    return np.asarray(series)[::factor].copy()


def read_orientation_csv(path):
    """Read a timeseries CSV, dispatching on the header.

    Recognised layouts: ``t,qw,qx,qy,qz`` (quaternions),
    ``t,x1,x2,x3,x4`` (axis-angle) and ``t,o1,o2,o3`` (embeddings).

    Returns:
        (kind, timestamps, values) where kind is one of "quaternion",
        "axisangle", "embedding".
    """
    header, data = tables.read_csv(path, _CSV_LAYOUTS)
    if not len(data):
        raise ValueError(f"{path}: no data rows")
    return _CSV_LAYOUTS[header], data[:, 0], data[:, 1:]


def write_embedding_csv(path, series: EmbeddingSeries) -> int:
    """Write an embedding series as t,o1,o2,o3 rows."""
    tables.write_csv(path, ("t", "o1", "o2", "o3"),
                     np.column_stack([series.timestamps, series.values]))
    return len(series)


def write_axis_angle_csv(path, timestamps, axes, angles) -> int:
    """Write an axis-angle series as t,x1,x2,x3,x4 rows."""
    rows = np.column_stack([timestamps, axes, angles])
    tables.write_csv(path, ("t", "x1", "x2", "x3", "x4"), rows)
    return len(rows)
