import numpy as np
import pytest

from kinseg import cli, kinematics, metrics, simulate
from kinseg.simulate import SessionConfig, generate_session, generate_session_axis_angle


class TestSessionConfig:
    def test_defaults_valid(self):
        SessionConfig()

    def test_rejects_zero_noise(self):
        with pytest.raises(ValueError):
            SessionConfig(noise_scale=0.0)

    def test_rejects_bad_duration_range(self):
        with pytest.raises(ValueError):
            SessionConfig(duration_range=(30, 20))

    def test_rejects_negative_separation(self):
        with pytest.raises(ValueError):
            SessionConfig(mean_separation=-1.0)


class TestGenerateSession:
    def test_segment_count(self):
        session = generate_session(SessionConfig(seed=3))
        assert len(session.segments) == 24  # 12 postures, 2 replications

    def test_smaller_configs(self):
        session = generate_session(SessionConfig(postures=3, replications=1, seed=3))
        assert len(session.segments) == 3

    def test_durations_within_range(self):
        session = generate_session(SessionConfig(seed=4))
        for seg in session.segments:
            assert 20 <= seg.duration <= 60

    def test_segments_tile_inactive_portions(self):
        # segments are disjoint, ordered and separated by 2 or 3 burst samples
        session = generate_session(SessionConfig(seed=6))
        previous_end = None
        for seg in session.segments:
            if previous_end is not None:
                assert 2 <= seg.start - previous_end <= 3
            previous_end = seg.end
        assert len(session.series) == session.segments[-1].end + (
            len(session.series) - session.segments[-1].end
        )

    def test_all_embeddings_on_shell(self):
        session = generate_session(SessionConfig(seed=7))
        norms = np.linalg.norm(session.series.values, axis=1)
        assert np.all(norms >= 1.0 - 1e-9)
        assert np.all(norms <= 2.0 + 1e-9)

    def test_deterministic_given_seed(self):
        a = generate_session(SessionConfig(seed=11))
        b = generate_session(SessionConfig(seed=11))
        assert np.array_equal(a.series.values, b.series.values)
        assert a.segments == b.segments

    def test_different_seeds_differ(self):
        a = generate_session(SessionConfig(seed=1))
        b = generate_session(SessionConfig(seed=2))
        assert not np.array_equal(a.series.values, b.series.values)

    def test_unachievable_separation_rejected(self):
        with pytest.raises(ValueError):
            generate_session(SessionConfig(noise_scale=1.0, mean_separation=50.0, seed=0))

    def test_no_consecutive_posture_repeats(self):
        # the shuffled visit order never repeats a posture back to back, so
        # every ground-truth changepoint is a genuine distribution change
        for seed in range(5):
            session = generate_session(SessionConfig(seed=seed))
            means = []
            for seg in session.segments:
                means.append(session.series.values[seg.start:seg.end].mean(axis=0))
            for a, b in zip(means, means[1:]):
                assert np.linalg.norm(a - b) > 1e-3


class TestAxisAngleSession:
    def test_expansion_factor(self):
        session = generate_session_axis_angle(SessionConfig(seed=8), factor=50)
        timestamps, axes, angles = session.axis_angle
        assert len(angles) == 50 * len(session.series)
        assert len(axes) == len(angles) == len(timestamps)

    def test_decimated_roundtrip_matches_embedding(self):
        session = generate_session_axis_angle(SessionConfig(seed=9), factor=100)
        _, axes, angles = session.axis_angle
        embedded = kinematics.adr_embed(axes, angles)
        decimated = kinematics.decimate(embedded, 100)
        assert np.abs(decimated - session.series.values).max() < 1e-9

    def test_full_rate_timestamps(self):
        session = generate_session_axis_angle(SessionConfig(seed=10), factor=10)
        timestamps, _, _ = session.axis_angle
        assert timestamps[1] - timestamps[0] == pytest.approx(1.0 / 30.0)

    def test_deterministic(self):
        a = generate_session_axis_angle(SessionConfig(seed=12), factor=20)
        b = generate_session_axis_angle(SessionConfig(seed=12), factor=20)
        assert np.array_equal(a.axis_angle[1], b.axis_angle[1])
        assert np.array_equal(a.axis_angle[2], b.axis_angle[2])

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            generate_session_axis_angle(SessionConfig(seed=0), factor=0)

    @pytest.mark.parametrize("seed,factor", [(1, 100), (4, 7), (5, 1)])
    def test_bytes_match_per_step_loop(self, tmp_path, seed, factor):
        """The interpolation, one sample step at a time as it was first
        written, gives the bytes ``simulate --level axis-angle`` writes."""
        config = SessionConfig(postures=4, seed=seed)
        emb = generate_session(config).series.values
        raw = np.empty((len(emb) * factor, 3))
        for i in range(len(emb)):
            start = emb[i]
            stop = emb[i + 1] if i + 1 < len(emb) else emb[i]
            frac = (np.arange(factor) / factor)[:, None]
            raw[i * factor : (i + 1) * factor] = start + frac * (stop - start)
        raw = simulate._clamp_to_shell(raw)
        raw[::factor] = emb
        axes, angles = kinematics.adr_invert(raw)
        expected = tmp_path / "expected.csv"
        kinematics.write_axis_angle_csv(expected, np.arange(len(raw)) / 30.0, axes, angles)

        assert cli.main(["simulate", "--seed", str(seed), "--postures", "4",
                         "--level", "axis-angle", "--decimation", str(factor),
                         "--out", str(tmp_path / "sim")]) == 0
        assert (tmp_path / "sim" / "session.csv").read_bytes() == expected.read_bytes()


class TestShellClamp:
    def test_radius_clamped_direction_kept(self):
        from kinseg.simulate import _clamp_to_shell
        out = _clamp_to_shell(np.array([[3.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.0, 1.5, 0.0]]))
        assert np.allclose(out, [[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.5, 0.0]])

    def test_origin_is_pinned(self):
        # interpolating between near-antipodal shell points can pass through
        # the origin, which has no direction to rescale
        from kinseg.simulate import _clamp_to_shell
        out = _clamp_to_shell(np.zeros((1, 3)))
        assert np.allclose(out, [[1.0, 0.0, 0.0]])
        assert np.isfinite(out).all()


class TestLabelsFile:
    def test_ground_truth_recoverable(self, tmp_path):
        session = generate_session(SessionConfig(seed=13))
        path = tmp_path / "labels.csv"
        simulate.write_labels_csv(path, session.segments)
        back = metrics.read_labels_csv(path)
        assert back == session.segments
        assert [s.duration for s in back] == [s.duration for s in session.segments]
