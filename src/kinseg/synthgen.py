"""Synthetic rotation-axis and orientation dataset generation.

Procedurally builds the vertex grid of a unit cube, projects the vertices
onto the unit sphere (plain Euclidean normalisation or the ellipsoidal
face projection), and crosses the projected axes with an equidistant
ladder of rotation angles to produce a dense synthetic orientation
dataset covering the axis-angle space.
"""

from __future__ import annotations

import numpy as np

from . import tables

# Right-handed in-plane bases: u cross v equals the face normal. The first
# grid coordinate runs along u, the second along v, both spanning [-1, 1].
# The key order is the face order: +x, -x, +y, -y, +z, -z.
_FACE_TANGENTS = {
    (1, 0, 0): ((0, 1, 0), (0, 0, 1)),
    (-1, 0, 0): ((0, 0, 1), (0, 1, 0)),
    (0, 1, 0): ((0, 0, 1), (1, 0, 0)),
    (0, -1, 0): ((1, 0, 0), (0, 0, 1)),
    (0, 0, 1): ((1, 0, 0), (0, 1, 0)),
    (0, 0, -1): ((0, 1, 0), (1, 0, 0)),
}
FACE_NORMALS = tuple(_FACE_TANGENTS)

SURFACE_TOL = 1e-9


def _normal_key(normal) -> tuple[int, int, int]:
    n = np.asarray(normal, dtype=float)
    if n.shape != (3,):
        raise ValueError("face normal must be a 3-vector")
    key = tuple(int(round(c)) for c in n)
    if key not in _FACE_TANGENTS or not np.allclose(n, key, atol=1e-12):
        raise ValueError(f"face normal must be one of the six signed unit axes, got {normal!r}")
    return key


def build_face_grid(normal, resolution: int) -> np.ndarray:
    """Vertex grid of one cube face.

    Vertex (i, j) sits at ``normal + s_i * u + s_j * v`` with
    ``s_i = -1 + 2 i / (resolution - 1)``; rows are emitted row-major in
    (i, j), so the row index is the vertex identifier within the face.

    Args:
        normal: one of the six signed unit axes.
        resolution: number of vertices along each side, at least 2.

    Returns:
        Array of shape (resolution**2, 3).
    """
    if int(resolution) != resolution or resolution < 2:
        raise ValueError(f"resolution must be an integer >= 2, got {resolution}")
    resolution = int(resolution)
    key = _normal_key(normal)
    u, v = (np.asarray(t, dtype=float) for t in _FACE_TANGENTS[key])
    steps = -1.0 + 2.0 * np.arange(resolution) / (resolution - 1)
    si, sj = np.meshgrid(steps, steps, indexing="ij")
    grid = (
        np.asarray(key, dtype=float)
        + si.reshape(-1, 1) * u
        + sj.reshape(-1, 1) * v
    )
    return grid


def build_cube_mesh(resolution: int) -> np.ndarray:
    """All six face grids concatenated, 6 * resolution**2 vertices.

    Shared edge and corner vertices are retained on every face that owns
    them, so the count is exactly 6 * resolution**2. Vertex i belongs to
    face ``i // resolution**2`` (faces ordered as FACE_NORMALS) with
    per-face identifier ``i % resolution**2``.
    """
    return np.vstack([build_face_grid(n, resolution) for n in FACE_NORMALS])


def project_euclidean(vertices) -> np.ndarray:
    """Project points onto the unit sphere by dividing by the Euclidean norm."""
    v = np.atleast_2d(np.asarray(vertices, dtype=float))
    norms = np.linalg.norm(v, axis=-1)
    if np.any(norms == 0.0):
        raise ValueError("cannot project the zero vector onto the sphere")
    out = v / norms[..., None]
    return out[0] if np.asarray(vertices).ndim == 1 else out


def project_ellipsoidal(vertices) -> np.ndarray:
    """Ellipsoidal projection of cube-surface points onto the unit sphere.

    Each face is mapped onto an ellipsoid chosen so that the face centre is
    a fixed point and vertices are increasingly contracted toward the
    corners; the six stitched projections tile the unit sphere exactly:

        x_out = x * sqrt(1 - y^2/2 - z^2/2 + y^2 z^2 / 3)

    and symmetrically for the other two components. Inputs must lie on the
    cube surface (some coordinate equal to +-1 within ``SURFACE_TOL``).
    """
    v = np.atleast_2d(np.asarray(vertices, dtype=float))
    absmax = np.abs(v).max(axis=-1)
    if np.any(np.abs(absmax - 1.0) > SURFACE_TOL):
        raise ValueError("point is not on the cube surface (no coordinate at +-1)")
    if np.any(np.abs(v) > 1.0 + SURFACE_TOL):
        raise ValueError("cube-surface coordinates must lie within [-1, 1]")
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    x2, y2, z2 = x * x, y * y, z * z
    out = np.stack(
        [
            x * np.sqrt(1.0 - y2 / 2.0 - z2 / 2.0 + y2 * z2 / 3.0),
            y * np.sqrt(1.0 - x2 / 2.0 - z2 / 2.0 + x2 * z2 / 3.0),
            z * np.sqrt(1.0 - x2 / 2.0 - y2 / 2.0 + x2 * y2 / 3.0),
        ],
        axis=-1,
    )
    return out[0] if np.asarray(vertices).ndim == 1 else out


def dedupe_axes(axes) -> np.ndarray:
    """Drop axes that agree with an earlier one on a 1e-9 grid (analysis
    aid; the dataset keeps duplicates)."""
    pts = np.asarray(axes, dtype=float)
    rounded = np.round(pts / 1e-9) * 1e-9
    _, idx = np.unique(rounded, axis=0, return_index=True)
    return pts[np.sort(idx)]


def generate_angle_set(n: int) -> np.ndarray:
    """Descending angle ladder {k*pi/n for k = n .. 1}."""
    if int(n) != n or n < 1:
        raise ValueError(f"angle count must be an integer >= 1, got {n}")
    n = int(n)
    return np.arange(n, 0, -1) * (np.pi / n)


def _product_factors(axes, angles):
    """Axes as an (n, 3) array and angles as an (m, 1) column, both nonempty."""
    axes = np.atleast_2d(np.asarray(axes, dtype=float))
    angles = np.asarray(angles, dtype=float).reshape(-1, 1)
    if axes.size == 0 or angles.size == 0:
        raise ValueError("axes and angles must both be nonempty")
    if axes.ndim != 2 or axes.shape[1] != 3:
        raise ValueError("axes must have three columns")
    return axes, angles


def generate_synthetic_dataset(axes, angles) -> np.ndarray:
    """Cartesian product of axes and angles as rows (a1, a2, a3, angle).

    Axis-major: every angle of the first axis, then the next axis, and so
    on; row count is ``len(axes) * len(angles)``. The CLI writes the
    product through ``export_dataset_csv`` without building it; this stays
    public because the README documents it, because it returns the
    paper's dataset as an array for manifold learning, and because it is
    the oracle that writer is tested against.
    """
    axes, angles = _product_factors(axes, angles)
    rows = np.empty((len(axes) * len(angles), 4))
    rows[:, :3] = np.repeat(axes, len(angles), axis=0)
    rows[:, 3] = np.tile(angles[:, 0], len(axes))
    return rows


def export_dataset_csv(axes, angles, destination) -> int:
    """Write ``generate_synthetic_dataset(axes, angles)`` as CSV with
    header a1,a2,a3,angle_rad, without building it.

    Each axis and each angle is formatted once, in shortest round-trip
    form, so the file is byte-identical across runs and loses no
    precision. Returns the number of data rows written.
    """
    axes, angles = _product_factors(axes, angles)
    tables.write_product_csv(destination, ("a1", "a2", "a3", "angle_rad"), axes, angles)
    return len(axes) * len(angles)


def export_axes_csv(axes, destination) -> int:
    """Write projected axes as CSV with header a1,a2,a3."""
    pts = np.atleast_2d(np.asarray(axes, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("axes must have three columns")
    tables.write_csv(destination, ("a1", "a2", "a3"), pts)
    return len(pts)
