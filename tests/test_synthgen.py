import numpy as np
import pytest

from kinseg import synthgen
from util_data import min_pairwise_angle, random_surface_points


class TestFaceGrid:
    def test_corner_only_grid(self):
        grid = synthgen.build_face_grid((1, 0, 0), 2)
        expected = {(1.0, s, t) for s in (-1.0, 1.0) for t in (-1.0, 1.0)}
        assert {tuple(v) for v in grid} == expected

    def test_resolution_15_has_225_vertices(self):
        assert len(synthgen.build_face_grid((0, -1, 0), 15)) == 225

    def test_center_vertex_present(self):
        grid = synthgen.build_face_grid((0, 0, 1), 3)
        assert any(np.allclose(v, (0.0, 0.0, 1.0)) for v in grid)

    def test_uniform_spacing(self):
        res = 7
        grid = synthgen.build_face_grid((0, 0, 1), res)
        xs = np.unique(np.round(grid[:, 0], 12))
        assert np.allclose(np.diff(xs), 2.0 / (res - 1))

    def test_row_major_identifier_order(self):
        # vertex (i, j) is row i * resolution + j, at u-coord s_i, v-coord s_j
        res = 4
        grid = synthgen.build_face_grid((0, 0, 1), res)
        steps = -1.0 + 2.0 * np.arange(res) / (res - 1)
        assert np.allclose(grid[1 * res + 2], (steps[1], steps[2], 1.0))

    @pytest.mark.parametrize("bad", [1, 0, -3, 2.5])
    def test_rejects_bad_resolution(self, bad):
        with pytest.raises(ValueError):
            synthgen.build_face_grid((1, 0, 0), bad)

    def test_rejects_bad_normal(self):
        with pytest.raises(ValueError):
            synthgen.build_face_grid((1, 1, 0), 3)
        with pytest.raises(ValueError, match="face normal must be a 3-vector"):
            synthgen.build_face_grid((1, 0), 3)


class TestCubeMesh:
    @pytest.mark.parametrize("res,count", [(15, 1350), (2, 24), (3, 54)])
    def test_vertex_counts(self, res, count):
        assert len(synthgen.build_cube_mesh(res)) == count

    def test_every_vertex_on_surface(self):
        mesh = synthgen.build_cube_mesh(5)
        assert np.allclose(np.abs(mesh).max(axis=1), 1.0)

    def test_corner_multiplicity(self):
        # each of the 8 geometric corners appears on three faces
        mesh = synthgen.build_cube_mesh(2)
        corner = np.array([1.0, 1.0, 1.0])
        assert sum(np.allclose(v, corner) for v in mesh) == 3


class TestEuclideanProjection:
    def test_unit_input_is_fixed(self):
        assert np.allclose(synthgen.project_euclidean((1.0, 0.0, 0.0)), (1.0, 0.0, 0.0))

    def test_symmetric_corner(self):
        v = synthgen.project_euclidean((1.0, 1.0, 1.0))
        assert np.allclose(v, np.full(3, 1.0 / np.sqrt(3.0)), atol=1e-15)

    def test_edge_point(self):
        # hand evaluation: norm of (1, 0.5, 0) is sqrt(1.25), components 2/sqrt(5), 1/sqrt(5)
        v = synthgen.project_euclidean((1.0, 0.5, 0.0))
        assert np.allclose(v, (2.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0), 0.0), atol=1e-15)
        assert np.allclose(v, (0.894427, 0.447214, 0.0), atol=1e-6)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            synthgen.project_euclidean((0.0, 0.0, 0.0))


class TestEllipsoidalProjection:
    def test_face_center_fixed_point(self):
        assert np.allclose(synthgen.project_ellipsoidal((1.0, 0.0, 0.0)), (1.0, 0.0, 0.0))

    def test_cube_corner(self):
        # each component: 1 * sqrt(1 - 1/2 - 1/2 + 1/3) = sqrt(1/3)
        v = synthgen.project_ellipsoidal((1.0, 1.0, 1.0))
        assert np.allclose(v, np.full(3, np.sqrt(1.0 / 3.0)), atol=1e-15)

    def test_edge_midpoint(self):
        # (1, 1, 0): x and y components sqrt(1 - 1/2), z stays 0
        v = synthgen.project_ellipsoidal((1.0, 1.0, 0.0))
        assert np.allclose(v, (np.sqrt(0.5), np.sqrt(0.5), 0.0), atol=1e-15)

    def test_rejects_interior_point(self):
        with pytest.raises(ValueError):
            synthgen.project_ellipsoidal((0.5, 0.5, 0.5))

    def test_unit_norm_on_mesh(self):
        mesh = synthgen.build_cube_mesh(15)
        norms = np.linalg.norm(synthgen.project_ellipsoidal(mesh), axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_unit_norm_on_random_surface_points(self):
        pts = random_surface_points(np.random.default_rng(42), 2000)
        norms = np.linalg.norm(synthgen.project_ellipsoidal(pts), axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_agrees_with_euclidean_at_centers_and_corners(self):
        for point in [(0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0), (-1.0, 1.0, -1.0)]:
            a = synthgen.project_ellipsoidal(point)
            b = synthgen.project_euclidean(point)
            assert np.allclose(a, b, atol=1e-15)

    def test_signed_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        pts = random_surface_points(rng, 50)
        perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)]
        signs = [(1, 1, 1), (-1, 1, 1), (1, -1, -1), (-1, -1, -1)]
        for perm in perms:
            for sign in signs:
                transformed = pts[:, perm] * np.asarray(sign, dtype=float)
                lhs = synthgen.project_ellipsoidal(transformed)
                rhs = synthgen.project_ellipsoidal(pts)[:, perm] * np.asarray(sign, dtype=float)
                assert np.allclose(lhs, rhs, atol=1e-14)

    def test_more_uniform_than_euclidean(self):
        mesh = synthgen.build_cube_mesh(15)
        ell = synthgen.dedupe_axes(synthgen.project_ellipsoidal(mesh))
        euc = synthgen.dedupe_axes(synthgen.project_euclidean(mesh))
        assert min_pairwise_angle(ell) > min_pairwise_angle(euc)


class TestAngleSet:
    def test_full_ladder(self):
        angles = synthgen.generate_angle_set(36)
        assert len(angles) == 36
        assert angles[0] == pytest.approx(np.pi)
        assert angles[-1] == pytest.approx(np.pi / 36.0)
        assert np.all(np.diff(angles) < 0)

    def test_single(self):
        assert np.allclose(synthgen.generate_angle_set(1), [np.pi])

    def test_two(self):
        assert np.allclose(synthgen.generate_angle_set(2), [np.pi, np.pi / 2.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            synthgen.generate_angle_set(0)


class TestDataset:
    def test_full_size(self):
        axes = synthgen.project_ellipsoidal(synthgen.build_cube_mesh(15))
        rows = synthgen.generate_synthetic_dataset(axes, synthgen.generate_angle_set(36))
        assert rows.shape == (48600, 4)

    def test_single_row(self):
        rows = synthgen.generate_synthetic_dataset([[0.0, 0.0, 1.0]], [np.pi])
        assert rows.shape == (1, 4)

    def test_cartesian_product(self):
        axes = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        rows = synthgen.generate_synthetic_dataset(axes, [3.0, 2.0, 1.0])
        assert rows.shape == (6, 4)
        assert np.allclose(rows[:3, 3], [3.0, 2.0, 1.0])  # axis-major ordering

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            synthgen.generate_synthetic_dataset([], [1.0])
        with pytest.raises(ValueError):
            synthgen.generate_synthetic_dataset([[1.0, 0.0, 0.0]], [])


class TestCsvExport:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        written = synthgen.export_dataset_csv([[0.0, 0.0, 1.0]], [np.pi, np.pi / 2], path)
        lines = path.read_text().splitlines()
        assert written == 2
        assert lines[0] == "a1,a2,a3,angle_rad"
        assert len(lines) == 3

    def test_roundtrip_precision(self, tmp_path):
        axes = synthgen.project_ellipsoidal(synthgen.build_cube_mesh(3))
        angles = synthgen.generate_angle_set(4)
        rows = synthgen.generate_synthetic_dataset(axes, angles)
        path = tmp_path / "data.csv"
        synthgen.export_dataset_csv(axes, angles, path)
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back, rows)

    def test_deterministic_bytes(self, tmp_path):
        axes, angles = [[0.5, 0.5, np.sqrt(0.5)]], [1.234567890123]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        synthgen.export_dataset_csv(axes, angles, a)
        synthgen.export_dataset_csv(axes, angles, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_destination(self, tmp_path):
        with pytest.raises(OSError):
            synthgen.export_dataset_csv([[0.0, 0.0, 1.0]], [np.pi],
                                        tmp_path / "missing" / "data.csv")

    def test_rejects_empty_or_wrong_width(self, tmp_path):
        for axes, angles in (([], [1.0]), ([[1.0, 0.0, 0.0]], []),
                             ([[1.0, 0.0, 0.0, 1.0]], [1.0])):
            with pytest.raises(ValueError):
                synthgen.export_dataset_csv(axes, angles, tmp_path / "data.csv")
        with pytest.raises(ValueError, match="axes must have three columns"):
            synthgen.export_axes_csv([[1.0, 0.0, 0.0, 1.0]], tmp_path / "data.csv")
        assert not (tmp_path / "data.csv").exists()
