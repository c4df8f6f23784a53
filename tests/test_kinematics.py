import numpy as np
import pytest

from kinseg import kinematics
from kinseg.kinematics import (
    EmbeddingSeries,
    adr_embed,
    adr_invert,
    decimate,
    quaternion_series_to_axis_angle,
    shell_norms,
)
from util_data import axis_angle_of, axis_angle_to_quaternion


class TestQuaternionConversion:
    def test_identity_rotation(self):
        axis, angle = axis_angle_of((1.0, 0.0, 0.0, 0.0))
        assert angle == 0.0
        assert np.allclose(axis, (0.0, 0.0, 1.0))

    def test_quarter_turn_about_z(self):
        s = np.sqrt(0.5)
        axis, angle = axis_angle_of((s, 0.0, 0.0, s))
        assert np.allclose(axis, (0.0, 0.0, 1.0))
        assert angle == pytest.approx(np.pi / 2.0)

    def test_negated_identity(self):
        _, angle = axis_angle_of((-1.0, 0.0, 0.0, 0.0))
        assert angle == pytest.approx(0.0, abs=1e-7)

    def test_sign_canonicalisation(self):
        s = np.sqrt(0.5)
        a1 = axis_angle_of((s, 0.0, s, 0.0))
        a2 = axis_angle_of((-s, 0.0, -s, 0.0))
        assert np.allclose(a1[0], a2[0])
        assert a1[1] == pytest.approx(a2[1])

    def test_rejects_zero_quaternion(self):
        with pytest.raises(ValueError):
            axis_angle_of((0.0, 0.0, 0.0, 0.0))

    def test_normalises_on_load(self):
        axis, angle = axis_angle_of((2.0, 0.0, 0.0, 2.0))
        assert np.allclose(axis, (0.0, 0.0, 1.0))
        assert angle == pytest.approx(np.pi / 2.0)

    def test_huge_quaternion_normalised(self):
        # its squares overflow float64; the row is scaled before its norm is taken
        axis, angle = axis_angle_of((1e300, 1e300, 0.0, 0.0))
        unit_axis, unit_angle = axis_angle_of((1.0, 1.0, 0.0, 0.0))
        assert np.allclose(axis, unit_axis, rtol=0.0, atol=1e-15)
        assert angle == pytest.approx(unit_angle, rel=0.0, abs=1e-15)

    def test_tiny_quaternion_normalised(self):
        # its squares underflow to 0; the row is scaled before its norm is taken
        axis, angle = axis_angle_of((1e-300, 1e-300, 0.0, 0.0))
        unit_axis, unit_angle = axis_angle_of((1.0, 1.0, 0.0, 0.0))
        assert np.allclose(axis, unit_axis, rtol=0.0, atol=1e-15)
        assert angle == pytest.approx(unit_angle, rel=0.0, abs=1e-15)

    def test_rejects_three_columns(self):
        with pytest.raises(ValueError, match="quaternion series must have four columns"):
            quaternion_series_to_axis_angle([(1.0, 0.0, 0.0)])

    def test_zero_row_named_among_rescaled_rows(self):
        quats = [(1.0, 0.0, 0.0, 0.0), (1e-300, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)]
        with pytest.raises(ValueError, match="zero quaternion at data row 3"):
            quaternion_series_to_axis_angle(quats)

    def test_roundtrip_up_to_sign(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            axis, angle = axis_angle_of(q)
            back = axis_angle_to_quaternion(axis, angle)
            assert min(np.abs(back - q).max(), np.abs(back + q).max()) < 1e-9

    def test_angles_land_in_0_pi(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((500, 4))
        _, angles = quaternion_series_to_axis_angle(q)
        assert np.all(angles >= 0.0)
        assert np.all(angles <= np.pi)


class TestSeriesConversion:
    def test_carry_forward_through_degenerate_samples(self):
        s = np.sqrt(0.5)
        quats = [
            (s, s, 0.0, 0.0),      # rotation about x
            (1.0, 0.0, 0.0, 0.0),  # identity: axis undefined
            (1.0, 0.0, 0.0, 0.0),  # still undefined
            (s, 0.0, s, 0.0),      # rotation about y
        ]
        axes, angles = quaternion_series_to_axis_angle(quats)
        assert np.allclose(axes[1], (1.0, 0.0, 0.0))
        assert np.allclose(axes[2], (1.0, 0.0, 0.0))
        assert angles[1] == pytest.approx(0.0, abs=1e-7)
        assert np.allclose(axes[3], (0.0, 1.0, 0.0))

    def test_degenerate_first_sample_uses_default(self):
        axes, _ = quaternion_series_to_axis_angle([(1.0, 0.0, 0.0, 0.0)])
        assert np.allclose(axes[0], kinematics.DEFAULT_AXIS)

    @pytest.mark.parametrize("runs", [
        [(0, 3)], [(5, 9)], [(17, 20)], [(0, 2), (6, 7), (11, 15), (18, 20)], [(0, 20)], [],
    ], ids=["start", "middle", "end", "mixed", "all", "none"])
    def test_carry_forward_matches_row_loop(self, runs):
        rng = np.random.default_rng(len(runs))
        quats = rng.standard_normal((20, 4))
        degenerate = np.zeros(20, dtype=bool)
        for a, b in runs:
            degenerate[a:b] = True
        # identities and rotations by 2e-10 rad about a random axis, below
        # ZERO_ANGLE_EPS but with an axis of their own that must not survive
        tiny = np.column_stack([np.ones(20), 1e-10 * rng.standard_normal((20, 3))])
        quats[degenerate] = np.where((np.arange(20) % 2 == 0)[:, None], tiny,
                                     [1.0, 0.0, 0.0, 0.0])[degenerate]
        axes, angles = quaternion_series_to_axis_angle(quats)
        assert np.array_equal(angles <= kinematics.ZERO_ANGLE_EPS, degenerate)
        # the reference: the axes of the other rows alone, which carry
        # nothing, then the per-row loop the conversion replaced
        expected = np.empty((20, 3))
        if not degenerate.all():
            expected[~degenerate] = quaternion_series_to_axis_angle(quats[~degenerate])[0]
        for i in np.flatnonzero(degenerate):
            expected[i] = kinematics.DEFAULT_AXIS if i == 0 else expected[i - 1]
        assert np.array_equal(axes, expected)


class TestAdrEmbedding:
    def test_zero_angle_inner_shell(self):
        assert np.allclose(adr_embed((1.0, 0.0, 0.0), 0.0), (1.0, 0.0, 0.0))

    def test_pi_outer_shell(self):
        assert np.allclose(adr_embed((0.0, 0.0, 1.0), np.pi), (0.0, 0.0, 2.0))

    def test_half_turn_midshell(self):
        # radius interpolates to 1 + (pi/2)/pi = 1.5
        assert np.allclose(adr_embed((0.0, 1.0, 0.0), np.pi / 2.0), (0.0, 1.5, 0.0))

    def test_norm_is_one_plus_angle_over_pi(self):
        rng = np.random.default_rng(5)
        axes = rng.standard_normal((100, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = rng.uniform(0.0, np.pi, 100)
        norms = np.linalg.norm(adr_embed(axes, angles), axis=1)
        assert np.allclose(norms, 1.0 + angles / np.pi, atol=1e-12)
        order = np.argsort(angles)
        assert np.all(np.diff(norms[order]) >= 0.0)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError, match="axis at data row 2 is not a unit vector"):
            adr_embed([(1.0, 0.0, 0.0), (1.0, 1.0, 0.0)], [0.5, 0.5])

    def test_rejects_out_of_range_angle(self):
        with pytest.raises(ValueError, match=r"angle at data row 1 lies outside \[0, pi\]"):
            adr_embed((1.0, 0.0, 0.0), 3.5)


class TestShellNorms:
    def test_returns_norms_inside_the_tolerance(self):
        points = [[1.0 - 0.5e-9, 0.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.0, 2.0 + 0.5e-9]]
        assert np.array_equal(shell_norms(points), np.linalg.norm(points, axis=-1))

    @pytest.mark.parametrize("point", [[0.5, 0.0, 0.0], [5.0, 0.0, 0.0],
                                       [1.0 - 2e-9, 0.0, 0.0]],
                             ids=["inside", "outside", "inside_tolerance"])
    def test_names_the_first_row_off_the_shell(self, point):
        points = [[1.5, 0.0, 0.0], point, [9.0, 0.0, 0.0]]
        with pytest.raises(ValueError, match=r"outside the \[1, 2\] shell at data row 2"):
            shell_norms(points)


class TestAdrInversion:
    def test_outer_shell_point(self):
        axes, angles = adr_invert((0.0, 0.0, 2.0))
        assert np.allclose(axes, (0.0, 0.0, 1.0))
        assert angles == pytest.approx(np.pi)

    def test_midshell_point(self):
        axes, angles = adr_invert((1.5, 0.0, 0.0))
        assert np.allclose(axes, (1.0, 0.0, 0.0))
        assert angles == pytest.approx(np.pi / 2.0)

    def test_rejects_inside_inner_shell(self):
        with pytest.raises(ValueError):
            adr_invert((0.5, 0.0, 0.0))

    def test_rejects_outside_outer_shell(self):
        with pytest.raises(ValueError):
            adr_invert((0.0, 2.5, 0.0))

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(6)
        axes = rng.standard_normal((200, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = rng.uniform(1e-6, np.pi, 200)
        pts = adr_embed(axes, angles)
        back_axes, back_angles = adr_invert(pts)
        assert np.allclose(adr_embed(back_axes, back_angles), pts, atol=1e-12)
        assert np.allclose(back_angles, angles, atol=1e-12)


class TestDecimate:
    def test_factor_100(self):
        assert len(decimate(np.zeros((1000, 3)), 100)) == 10

    def test_identity(self):
        x = np.arange(12).reshape(4, 3).astype(float)
        assert np.array_equal(decimate(x, 1), x)

    def test_ceil_length_and_indices(self):
        x = np.arange(205, dtype=float)
        out = decimate(x, 100)
        assert np.array_equal(out, [0.0, 100.0, 200.0])

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            decimate(np.zeros(5), 0)

    def test_composition_for_exact_divisors(self):
        x = np.arange(600, dtype=float)
        assert np.array_equal(decimate(decimate(x, 5), 4), decimate(x, 20))

    def test_series_decimation_keeps_timestamps(self):
        values = 1.5 * np.eye(3)[np.zeros(10, dtype=int)]
        series = EmbeddingSeries(values, np.arange(10.0))
        out = decimate(series, 3)
        assert np.array_equal(out.timestamps, [0.0, 3.0, 6.0, 9.0])


class TestEmbeddingSeries:
    def test_rejects_nonincreasing_timestamps(self):
        values = np.tile([1.5, 0.0, 0.0], (3, 1))
        with pytest.raises(ValueError):
            EmbeddingSeries(values, [0.0, 2.0, 2.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            EmbeddingSeries([[1.5, 0.0, 0.0]], [0.0, 1.0])


class TestCsvInterfaces:
    def test_embedding_roundtrip(self, tmp_path):
        values = np.array([[1.5, 0.0, 0.0], [0.0, 1.25, 0.0]])
        series = EmbeddingSeries(values, [0.0, 1.0])
        path = tmp_path / "emb.csv"
        kinematics.write_embedding_csv(path, series)
        kind, ts, vals = kinematics.read_orientation_csv(path)
        assert kind == "embedding"
        assert np.array_equal(ts, [0.0, 1.0])
        assert np.array_equal(vals, values)

    def test_axis_angle_roundtrip(self, tmp_path):
        axes = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        angles = np.array([0.5, 1.5])
        path = tmp_path / "aa.csv"
        kinematics.write_axis_angle_csv(path, [0.0, 1.0], axes, angles)
        kind, ts, vals = kinematics.read_orientation_csv(path)
        assert kind == "axisangle"
        assert np.array_equal(vals[:, :3], axes)
        assert np.array_equal(vals[:, 3], angles)

    def test_quaternion_header_detected(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("t,qw,qx,qy,qz\n0.0,1.0,0.0,0.0,0.0\n")
        kind, _, vals = kinematics.read_orientation_csv(path)
        assert kind == "quaternion"
        assert vals.shape == (1, 4)

