import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kinseg import bocpd, cli, kinematics, metrics, pipeline, simulate
from kinseg.pipeline import PipelineConfig
from util_data import axis_angle_to_quaternion, cli_peak_mb


def run_cli(*args):
    return cli.main(list(args))


# Labels files with one row that is not a segment, and the data row named.
BAD_LABELS = pytest.mark.parametrize("rows, bad_row", [
    ("0,30\n50,45\n60,90\n", 2),
    ("-5,45\n50,60\n", 1),
], ids=["end_before_start", "negative_start"])


def write_bad_labels(tmp_path, rows):
    labels = tmp_path / "labels.csv"
    labels.write_text("segment_start,segment_end\n" + rows)
    return labels


@pytest.fixture(scope="module")
def session_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("session7")
    assert run_cli("simulate", "--seed", "7", "--out", str(out)) == 0
    return out


class TestSimulateCommand:
    def test_writes_session_and_labels(self, session_dir):
        assert (session_dir / "session.csv").exists()
        assert (session_dir / "labels.csv").exists()
        labels = metrics.read_labels_csv(session_dir / "labels.csv")
        assert len(labels) == 24

    def test_axis_angle_level(self, tmp_path, capsys):
        assert run_cli(
            "simulate", "--seed", "3", "--out", str(tmp_path),
            "--level", "axis-angle", "--decimation", "20",
            "--postures", "3", "--replications", "1",
        ) == 0
        lines = (tmp_path / "session.csv").read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3,x4"
        # samples in the labels' units, rows as written: 20 rows a sample
        rows = len(lines) - 1
        assert f"samples={rows // 20} rows={rows} " in capsys.readouterr().out

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("simulate", "--seed", "5", "--out", str(out)) == 0
        assert (a / "session.csv").read_bytes() == (b / "session.csv").read_bytes()
        assert (a / "labels.csv").read_bytes() == (b / "labels.csv").read_bytes()

    def test_negative_seed_exit_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("simulate", "--seed", "-1", "--out", str(out)) == 1
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_noise_and_separation_flags(self, tmp_path):
        assert run_cli("simulate", "--seed", "3", "--postures", "3", "--replications", "1",
                       "--noise", "0.05", "--separation", "4", "--out", str(tmp_path)) == 0
        session = simulate.generate_session(simulate.SessionConfig(
            postures=3, replications=1, noise_scale=0.05, mean_separation=4.0, seed=3))
        expected = tmp_path / "expected.csv"
        kinematics.write_embedding_csv(expected, session.series)
        assert (tmp_path / "session.csv").read_bytes() == expected.read_bytes()


class TestRunCommand:
    def test_seed7_regression(self, session_dir, tmp_path):
        # fixed-seed regression: pinned from the first correct build
        out = tmp_path / "run"
        rc = run_cli(
            "run", "--input", str(session_dir / "session.csv"),
            "--labels", str(session_dir / "labels.csv"),
            "--embedding", "adr", "--decimation", "1", "--out", str(out),
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["prior_kind"] == "informative"
        assert report["config"]["postprocess"] is True
        assert report["metrics"]["f1"] == pytest.approx(46.0 / 47.0, rel=1e-12)
        assert report["metrics"]["pearson_r"] == pytest.approx(0.99453920796549, abs=1e-9)

    def test_expected_artifacts(self, session_dir, tmp_path):
        out = tmp_path / "artifacts"
        run_cli("run", "--input", str(session_dir / "session.csv"),
                "--embedding", "adr", "--decimation", "1", "--out", str(out))
        for name in ("segments.csv", "runlength.csv", "posterior.csv", "posterior.pgm", "report.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"] is None  # no labels supplied

    def test_report_layout(self, tmp_path):
        # report.json restates runlength.csv, segments.csv and the resolved source
        sim, out = tmp_path / "sim", tmp_path / "run"
        assert run_cli("simulate", "--seed", "3", "--postures", "3", "--replications", "1",
                       "--out", str(sim)) == 0
        assert run_cli("run", "--input", str(sim / "session.csv"), "--decimation", "1",
                       "--min-run", "5", "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"config", "series", "trace", "segments", "metrics"}
        trace = np.loadtxt(out / "runlength.csv", delimiter=",", skiprows=1, ndmin=2)
        assert report["trace"] == {
            "length": len(trace),
            "max_raw": trace[:, 1].max(),
            "max_postprocessed": trace[:, 2].max(),
            "final_postprocessed": trace[-1, 2],
        }
        segments = np.loadtxt(out / "segments.csv", delimiter=",", skiprows=1, ndmin=2)
        assert len(segments) > 0
        assert [[s["changepoint"], s["duration"], s["start"]] for s in report["segments"]] == (
            segments.tolist())
        assert report["series"]["source"] == report["config"]["embedding_source"] == "external"

    def test_config_echoed(self, session_dir, tmp_path):
        out = tmp_path / "echo"
        run_cli("run", "--input", str(session_dir / "session.csv"),
                "--embedding", "adr", "--decimation", "1",
                "--hazard", "0.02", "--min-run", "15", "--out", str(out))
        cfg = json.loads((out / "report.json").read_text())["config"]
        assert cfg["hazard_p"] == 0.02
        assert cfg["min_run"] == 15.0
        assert cfg["decimation"] == 1
        assert cfg["tolerance"] == 3
        assert cfg["log_threshold"] == 0.3

    @pytest.mark.parametrize("flags,key,value", [
        (["--prior", "noninformative"], "prior_kind", "noninformative"),
        (["--no-postprocess"], "postprocess", False),
        (["--sigma-epsilon", "1e-6"], "sigma_epsilon", 1e-6),
        (["--log-threshold", "0.5"], "log_threshold", 0.5),
    ], ids=["prior", "no_postprocess", "sigma_epsilon", "log_threshold"])
    def test_flag_echoed(self, session_dir, tmp_path, flags, key, value):
        out = tmp_path / "flag"
        assert run_cli("run", "--input", str(session_dir / "session.csv"),
                       "--embedding", "adr", "--decimation", "1", "--prune", "1e-12",
                       *flags, "--out", str(out)) == 0
        cfg = json.loads((out / "report.json").read_text())["config"]
        assert cfg[key] == value and cfg[key] != getattr(PipelineConfig, key)

    def test_hazard_checked_with_the_config(self):
        with pytest.raises(ValueError, match="hazard changepoint probability"):
            PipelineConfig(input_path="x", output_dir="y", hazard_p=1.5)

    def test_nonpositive_sigma_epsilon_exit_1(self, session_dir, tmp_path, capsys):
        with pytest.raises(ValueError, match="sigma_epsilon must be positive"):
            PipelineConfig(input_path="x", output_dir="y", sigma_epsilon=0)
        out = tmp_path / "o"
        assert run_cli("run", "--input", str(session_dir / "session.csv"),
                       "--embedding", "adr", "--decimation", "1", "--sigma-epsilon", "-1",
                       "--out", str(out)) == 1
        assert "sigma_epsilon must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_short_series_warns(self, session_dir, tmp_path, capsys):
        # seed 7's embedding-level session (922 samples) keeps 10 steps at the
        # default --decimation 100: no estimate before a reset can reach the
        # minimum run of 20, so the run warns, and still exits 0
        args = ("run", "--input", str(session_dir / "session.csv"),
                "--labels", str(session_dir / "labels.csv"), "--embedding", "adr")
        assert run_cli(*args, "--out", str(tmp_path / "short")) == 0
        out, err = capsys.readouterr()
        assert out.startswith("segments=0 ")
        assert err == ("warning: decimation 100 leaves 10 steps, no more than --min-run 20, "
                       "so no segment can be found\n")
        assert run_cli(*args, "--decimation", "1", "--out", str(tmp_path / "full")) == 0
        assert capsys.readouterr().err == ""

    def test_determinism_byte_identical(self, session_dir, tmp_path):
        # identical input, config and output location: rerunning must
        # reproduce every artifact byte for byte (the config echo contains
        # the resolved paths, so the output directory is part of the config)
        out = tmp_path / "rerun"
        names = ("segments.csv", "runlength.csv", "posterior.csv", "posterior.pgm", "report.json")
        args = ("run", "--input", str(session_dir / "session.csv"),
                "--labels", str(session_dir / "labels.csv"),
                "--embedding", "adr", "--decimation", "1", "--out", str(out))
        run_cli(*args)
        snapshot = {name: (out / name).read_bytes() for name in names}
        run_cli(*args)
        for name in names:
            assert (out / name).read_bytes() == snapshot[name], name

    def test_full_orientation_path(self, tmp_path):
        # axis-angle input at the raw rate goes through conversion,
        # embedding and decimation, and recovers the same ground truth
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--seed", "21", "--out", str(sim_out),
                "--level", "axis-angle", "--decimation", "25",
                "--postures", "4", "--replications", "2")
        out = tmp_path / "run"
        rc = run_cli("run", "--input", str(sim_out / "session.csv"),
                     "--labels", str(sim_out / "labels.csv"),
                     "--decimation", "25", "--out", str(out))
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["embedding_source"] == "adr"
        assert report["metrics"]["f1"] >= 0.8

    def test_quaternion_ingestion_equivalent(self, tmp_path):
        # the same session fed as quaternions detects identical changepoints
        # (durations may differ in float dust from the representation change)
        from kinseg import kinematics
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--seed", "6", "--out", str(sim_out),
                "--level", "axis-angle", "--decimation", "10",
                "--postures", "4", "--replications", "2")
        _, ts, vals = kinematics.read_orientation_csv(sim_out / "session.csv")
        qcsv = tmp_path / "session_q.csv"
        with open(qcsv, "w") as fh:
            fh.write("t,qw,qx,qy,qz\n")
            for t, row in zip(ts, vals):
                q = axis_angle_to_quaternion(row[:3], row[3])
                fh.write(",".join(repr(float(x)) for x in (t, *q)) + "\n")
        reports = []
        for name, source in (("aa", str(sim_out / "session.csv")), ("q", str(qcsv))):
            out = tmp_path / name
            rc = run_cli("run", "--input", source, "--labels", str(sim_out / "labels.csv"),
                         "--decimation", "10", "--out", str(out))
            assert rc == 0
            reports.append(json.loads((out / "report.json").read_text()))
        cps = [[s["changepoint"] for s in r["segments"]] for r in reports]
        assert cps[0] == cps[1]
        for a, b in zip(*[r["segments"] for r in reports]):
            assert a["duration"] == pytest.approx(b["duration"], abs=1e-2)

    def test_missing_input_exit_3_no_partial_outputs(self, tmp_path):
        out = tmp_path / "missing"
        rc = run_cli("run", "--input", str(tmp_path / "nope.csv"), "--out", str(out))
        assert rc == 3
        assert not out.exists()

    def test_malformed_input_exit_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        rc = run_cli("run", "--input", str(bad), "--out", str(tmp_path / "o"))
        assert rc == 1

    @pytest.mark.parametrize("row", ["1.0,nan,0.0,0.0", "1.0,1.5,inf,0.0", "nan,1.5,0.0,0.0"],
                             ids=["nan_value", "inf_value", "nan_timestamp"])
    def test_non_finite_input_exit_1_at_ingest(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"t,o1,o2,o3\n0.0,1.5,0.0,0.0\n{row}\n2.0,1.5,0.0,0.0\n")
        out = tmp_path / "o"
        rc = run_cli("run", "--input", str(bad), "--decimation", "1", "--out", str(out))
        assert rc == 1
        assert "data row 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, source, message", [
        ("t,qw,qx,qy,qz\n0.0,1.0,0.0,0.0,0.0\n1.0,0.0,0.0,0.0,0.0\n2.0,1.0,0.0,0.0,0.0\n",
         "adr", "zero quaternion at data row 2"),
        ("t,o1,o2,o3\n0.0,1.5,0.0,0.0\n1.0,1.5,0.0,0.0\n1.0,1.5,0.0,0.0\n",
         "external", "data row 3 is not after data row 2"),
        ("t,x1,x2,x3,x4\n0.0,1.0,0.0,0.0,0.5\n1.0,1.0,0.0,0.0,0.5\n2.0,1.0,1.0,0.0,0.5\n",
         "adr", "rotation axis at data row 3 is not a unit vector"),
        ("t,x1,x2,x3,x4\n0.0,1.0,0.0,0.0,0.5\n1.0,1.0,0.0,0.0,3.5\n2.0,1.0,0.0,0.0,0.5\n",
         "adr", "rotation angle at data row 2 lies outside [0, pi]"),
        ("t,o1,o2,o3\n0.0,1.5,0.0,0.0\n1.0,1.5,0.0,0.0\n2.0,0.5,0.0,0.0\n",
         "adr", "outside the [1, 2] shell at data row 3"),
        # the timestamps are checked before the shell
        ("t,o1,o2,o3\n0.0,1.5,0.0,0.0\n1.0,5.0,0.0,0.0\n1.0,1.5,0.0,0.0\n",
         "adr", "data row 3 is not after data row 2"),
        # squares that overflow fail the check without a RuntimeWarning
        ("t,x1,x2,x3,x4\n0.0,1.0,0.0,0.0,0.5\n1.0,1e300,0.0,0.0,0.5\n",
         "adr", "rotation axis at data row 2 is not a unit vector"),
        ("t,o1,o2,o3\n0.0,1.5,0.0,0.0\n1.0,1e300,0.0,1e300\n",
         "adr", "outside the [1, 2] shell at data row 2"),
    ], ids=["zero_quaternion", "repeated_timestamp", "non_unit_axis", "angle_out_of_range",
            "outside_shell", "timestamp_before_shell", "huge_axis", "huge_embedding"])
    def test_invalid_row_exit_1_names_the_row(self, tmp_path, capsys, text, source, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        out = tmp_path / "o"
        rc = run_cli("run", "--input", str(bad), "--embedding", source, "--decimation", "1",
                     "--out", str(out))
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        # an axis within the unit check's 1e-9 embeds 1.8e-9 past the outer radius
        "t,x1,x2,x3,x4\n0.0,1.0,0.0,0.0,0.5\n1.0,1.0000000009,0.0,0.0,3.141592653589793\n",
        # squares that underflow: normalised like 1,1,0,0
        "t,qw,qx,qy,qz\n0.0,1.0,0.0,0.0,0.0\n1.0,1e-300,1e-300,0.0,0.0\n",
        # an external coordinate within pipeline.MAX_COORDINATE
        "t,o1,o2,o3\n0.0,1.5,0.0,0.0\n1.0,1e100,0.0,0.0\n",
    ], ids=["axis_near_tolerance", "tiny_quaternion", "large_external_coordinate"])
    def test_valid_edge_row_exit_0(self, tmp_path, text):
        data = tmp_path / "edge.csv"
        data.write_text(text)
        out = tmp_path / "o"
        assert run_cli("run", "--input", str(data), "--decimation", "1", "--out", str(out)) == 0
        assert json.loads((out / "report.json").read_text())["series"]["length"] == 2

    # at 1e153 the recursion underflowed every hypothesis under the default
    # (noninformative) prior and exited 2, naming no row
    @pytest.mark.parametrize("value", ["1e153", "1e300"])
    def test_huge_external_coordinate_exit_1_at_ingest(self, tmp_path, capsys, value):
        bad = tmp_path / "huge.csv"
        bad.write_text(f"t,o1,o2,o3\n0.0,1.5,0.0,0.0\n1.0,{value},0.0,0.0\n2.0,1.5,0.0,0.0\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = run_cli("run", "--input", str(bad), "--decimation", "1", "--out", str(out))
        assert rc == 1
        assert "above 1e+150 in magnitude at data row 2" in capsys.readouterr().err
        assert not out.exists()

    def test_decimation_checked_with_the_config(self):
        with pytest.raises(ValueError, match="decimation factor must be an integer >= 1"):
            PipelineConfig(input_path="x", output_dir="y", decimation=2.5)

    @pytest.mark.parametrize("field, message", [("embedding_source", "unknown embedding source"),
                                                ("prior_kind", "unknown prior kind")])
    def test_unknown_source_or_prior_rejected(self, field, message):
        with pytest.raises(ValueError, match=f"{message} 'bogus'"):
            PipelineConfig(input_path="x", output_dir="y", **{field: "bogus"})

    @BAD_LABELS
    def test_bad_labels_row_exit_1_names_the_row(self, session_dir, tmp_path, capsys, rows,
                                                 bad_row):
        labels = write_bad_labels(tmp_path, rows)
        out = tmp_path / "o"
        rc = run_cli("run", "--input", str(session_dir / "session.csv"), "--labels", str(labels),
                     "--out", str(out))
        assert rc == 1
        assert f"{labels}: data row {bad_row} is not a segment" in capsys.readouterr().err
        assert not out.exists()

    def test_input_read_once(self, session_dir, tmp_path, monkeypatch):
        calls = []
        read = kinematics.read_orientation_csv
        monkeypatch.setattr(kinematics, "read_orientation_csv",
                            lambda path: calls.append(path) or read(path))
        assert run_cli("run", "--input", str(session_dir / "session.csv"),
                       "--out", str(tmp_path / "o")) == 0
        assert len(calls) == 1

    def test_bad_flag_exit_1(self, tmp_path):
        assert run_cli("run", "--input", "x", "--out", "y", "--embedding", "zzz") == 1

    def test_external_source_rejects_orientation_input(self, tmp_path):
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--seed", "2", "--out", str(sim_out), "--level", "axis-angle",
                "--decimation", "5", "--postures", "2", "--replications", "1")
        rc = run_cli("run", "--input", str(sim_out / "session.csv"),
                     "--embedding", "external", "--out", str(tmp_path / "o"))
        assert rc == 1

    def test_output_dir_env_override(self, session_dir, tmp_path, monkeypatch):
        override = tmp_path / "override"
        monkeypatch.setenv(pipeline.OUTPUT_DIR_ENV, str(override))
        run_cli("run", "--input", str(session_dir / "session.csv"),
                "--embedding", "adr", "--decimation", "1",
                "--out", str(tmp_path / "ignored"))
        assert override.exists()
        assert not (tmp_path / "ignored").exists()


@pytest.fixture(scope="module")
def night_dir(tmp_path_factory):
    """A simulated night, longer than 8,640 samples."""
    out = tmp_path_factory.mktemp("night")
    assert run_cli("simulate", "--seed", "1", "--postures", "30", "--replications", "8",
                   "--out", str(out)) == 0
    return out


def _cli_env(**extra):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)), **extra)
    env.pop(pipeline.OUTPUT_DIR_ENV, None)
    return env


class TestFullNight:
    STEPS = 8640  # a night of 1 Hz decimated samples

    def test_bounded_memory(self, night_dir, tmp_path):
        lines = (night_dir / "session.csv").read_text().splitlines(keepends=True)
        assert len(lines) > self.STEPS + 1
        session, labels = tmp_path / "night.csv", tmp_path / "labels.csv"
        session.write_text("".join(lines[:self.STEPS + 1]))
        label_lines = (night_dir / "labels.csv").read_text().splitlines(keepends=True)
        labels.write_text("".join(label_lines[:1] + [
            line for line in label_lines[1:] if int(line.split(",")[1]) < self.STEPS]))
        out = tmp_path / "out"
        code, peak_mb = cli_peak_mb(
            ["run", "--input", str(session), "--labels", str(labels), "--embedding", "adr",
             "--decimation", "1", "--prune", "1e-12", "--out", str(out)],
            _cli_env(), tmp_path / "peak")
        assert code == 0
        # the run's own memory, over what importing the CLI takes (the
        # interpreter and numpy, no scipy: 30.4 MB on Python 3.11, numpy 2.4):
        # measured 6.6 MB at one BLAS thread, 8.2 MB with a row index of the
        # stored cells, 13.6 MB with full-size temporaries after inference;
        # a dense (T+1)^2 posterior took 1.8 GB
        _, baseline_mb = cli_peak_mb([], _cli_env(), tmp_path / "baseline")
        assert peak_mb - baseline_mb < 12, f"peak RSS {peak_mb:.1f} MB over {baseline_mb:.1f} MB"
        report = json.loads((out / "report.json").read_text())
        assert report["series"]["length"] == self.STEPS
        assert report["metrics"]["f1"] >= 0.95

    def test_exact_path_memory(self, night_dir, tmp_path):
        # the night's first 3,000 steps on the exact path: 1,063,628 stored cells
        lines = (night_dir / "session.csv").read_text().splitlines(keepends=True)
        session, out = tmp_path / "night.csv", tmp_path / "out"
        session.write_text("".join(lines[:3001]))
        code, peak_mb = cli_peak_mb(["run", "--input", str(session), "--embedding", "adr",
                                     "--decimation", "1", "--out", str(out)],
                                    _cli_env(), tmp_path / "peak")
        assert code == 0
        # the run's own memory over what importing the CLI takes: measured
        # 19.6 MB at one BLAS thread (the 10-byte posterior; the writers add
        # one row at a time); 26.5 MB with a row index of the stored cells
        # (an 8-byte bincount, then a 4-byte order and 2-byte columns)
        _, baseline_mb = cli_peak_mb([], _cli_env(), tmp_path / "baseline")
        assert peak_mb - baseline_mb < 24, f"peak RSS {peak_mb:.1f} MB over {baseline_mb:.1f} MB"


class TestBlasThreads:
    # The first 1,792 samples of the night: the shortest prefix found on
    # which a product of the dense posterior with arange(T+1) wrote another
    # last digit in runlength.csv with two BLAS threads than with one.
    STEPS = 1792

    def test_outputs_independent_of_thread_count(self, night_dir, tmp_path):
        lines = (night_dir / "session.csv").read_text().splitlines(keepends=True)
        session = tmp_path / "session.csv"
        session.write_text("".join(lines[:self.STEPS + 1]))
        out, outputs = tmp_path / "out", []
        for threads in ("1", "2"):
            env = _cli_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                           MKL_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "kinseg.cli", "run", "--input", str(session),
                            "--embedding", "adr", "--decimation", "1", "--prune", "1e-12",
                            "--out", str(out)], env=env, stdout=subprocess.DEVNULL, check=True)
            outputs.append({name: (out / name).read_bytes()
                            for name in ("runlength.csv", "report.json")})
        assert outputs[0] == outputs[1]


class TestNumericalFailure:
    def test_linalg_error_exit_2(self, session_dir, tmp_path, monkeypatch, capsys):
        # LinAlgError is a ValueError, which otherwise maps to exit 1
        def indefinite(*args, **kwargs):
            raise np.linalg.LinAlgError("scale is not positive definite")

        monkeypatch.setattr(bocpd, "infer_posterior", indefinite)
        rc = run_cli("run", "--input", str(session_dir / "session.csv"), "--out",
                     str(tmp_path / "o"))
        assert rc == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["indefinite_scale", "non_finite_value"])
    def test_kernel_failure_mid_block_exit_2(self, session_dir, tmp_path, monkeypatch, capsys,
                                             fault):
        # the real block kernel raises; ingest rejects non-finite input, so
        # the fault is put into the embedding series after it
        if fault == "indefinite_scale":
            prior = bocpd.NormalWishartParams(np.zeros(3), 1.0, 4.0, np.diag([1.0, -1.0, 1.0]))
            monkeypatch.setattr(pipeline, "_make_prior", lambda kind, epsilon: prior)
        else:
            infer = bocpd.infer_posterior

            def poisoned(values, *args):
                values = np.array(values, dtype=float)
                values[20, 1] = np.inf
                return infer(values, *args)

            monkeypatch.setattr(bocpd, "infer_posterior", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli("run", "--input", str(session_dir / "session.csv"), "--embedding", "adr",
                         "--decimation", "1", "--out", str(tmp_path / "o"))
        assert rc == 2
        assert "numerical failure" in capsys.readouterr().err


class TestEvalCommand:
    def test_eval_matches_run_metrics(self, session_dir, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli("run", "--input", str(session_dir / "session.csv"),
                "--labels", str(session_dir / "labels.csv"),
                "--embedding", "adr", "--decimation", "1", "--out", str(out))
        report = json.loads((out / "report.json").read_text())
        capsys.readouterr()
        rc = run_cli("eval", "--predicted", str(out / "segments.csv"),
                     "--labels", str(session_dir / "labels.csv"), "--out", str(tmp_path / "e.json"))
        assert rc == 0
        stdout = capsys.readouterr().out
        assert (tmp_path / "e.json").read_text() == stdout
        payload = json.loads(stdout)
        assert payload["f1"] == pytest.approx(report["metrics"]["f1"], rel=1e-12)
        assert payload["tp"] == report["metrics"]["tp"]

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_tolerance_exit_1(self, session_dir, tmp_path, capsys, value):
        segments = tmp_path / "segments.csv"
        segments.write_text("changepoint_idx,duration,start_idx\n10,10,0\n")
        out = tmp_path / "eval.json"
        rc = run_cli("eval", "--predicted", str(segments), "--labels",
                     str(session_dir / "labels.csv"), "--tolerance", value, "--out", str(out))
        assert rc == 1
        assert "tolerance must be positive" in capsys.readouterr().err
        assert not out.exists()

    @BAD_LABELS
    def test_bad_labels_row_exit_1_names_the_row(self, tmp_path, capsys, rows, bad_row):
        segments = tmp_path / "segments.csv"
        segments.write_text("changepoint_idx,duration,start_idx\n30,30,0\n")
        labels, out = write_bad_labels(tmp_path, rows), tmp_path / "eval.json"
        rc = run_cli("eval", "--predicted", str(segments), "--labels", str(labels),
                     "--out", str(out))
        assert rc == 1
        assert f"{labels}: data row {bad_row} is not a segment" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integral_changepoint_exit_1_names_the_row(self, session_dir, tmp_path,
                                                           capsys):
        segments = tmp_path / "segments.csv"
        segments.write_text("changepoint_idx,duration,start_idx\n10,10,0\n30.5,20,10.5\n")
        out = tmp_path / "eval.json"
        rc = run_cli("eval", "--predicted", str(segments), "--labels",
                     str(session_dir / "labels.csv"), "--out", str(out))
        assert rc == 1
        assert (f"{segments}: non-integral changepoint index at data row 2"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("changepoint", ["1e20", "-5"])
    def test_out_of_range_changepoint_exit_1_names_the_row(self, session_dir, tmp_path,
                                                           capsys, changepoint):
        segments = tmp_path / "segments.csv"
        segments.write_text(f"changepoint_idx,duration,start_idx\n10,10,0\n{changepoint},20,10\n")
        out = tmp_path / "eval.json"
        rc = run_cli("eval", "--predicted", str(segments), "--labels",
                     str(session_dir / "labels.csv"), "--out", str(out))
        assert rc == 1
        assert (f"{segments}: changepoint index out of range at data row 2"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_repeated_changepoint_exit_1_names_the_row(self, session_dir, tmp_path, capsys):
        segments = tmp_path / "segments.csv"
        segments.write_text("changepoint_idx,duration,start_idx\n"
                            "10,10,0\n30,20,10\n10,5,5\n")
        out = tmp_path / "eval.json"
        rc = run_cli("eval", "--predicted", str(segments), "--labels",
                     str(session_dir / "labels.csv"), "--out", str(out))
        assert rc == 1
        assert (f"{segments}: data row 3 repeats changepoint 10 of data row 1"
                in capsys.readouterr().err)
        assert not out.exists()


class TestSweep:
    @pytest.mark.parametrize("variant", list(pipeline.VARIANTS))
    def test_degenerate_sweep_matches_run_pipeline(self, tmp_path, variant):
        config = simulate.SessionConfig(seed=31)
        base = PipelineConfig(input_path="<simulated>", output_dir=str(tmp_path), decimation=1)
        sweep = pipeline.run_variant_sweep(config, [31], base, variants=(variant,))
        session = simulate.generate_session(config)
        *_, segments = pipeline.analyse_series(
            session.series.values, replace(base, **pipeline.variant_settings(variant)))
        report = metrics.evaluate_segmentation(segments, session.segments, 3)
        row = sweep["aggregate"][0]
        assert row["sessions"] == 1
        assert (row["mean_ppv"], row["mean_se"]) == (report.ppv, report.se)
        assert row["mean_f1"] == report.f1
        assert row["mean_pearson_r"] == report.pearson

    def test_inference_runs_once_per_prior(self, tmp_path, monkeypatch):
        calls = []
        infer_posterior = bocpd.infer_posterior

        def counted(*args, **kwargs):
            calls.append(args)
            return infer_posterior(*args, **kwargs)

        monkeypatch.setattr(bocpd, "infer_posterior", counted)
        config = simulate.SessionConfig(postures=4, replications=1, seed=0)
        base = PipelineConfig(input_path="<simulated>", output_dir=str(tmp_path), decimation=1)
        sweep = pipeline.run_variant_sweep(config, [1, 2], base)
        # four variants, two priors: the _post and _nopost variants share a trace
        assert len(sweep["sessions"]) == 8
        assert len(calls) == 4

    def test_variant_order_deterministic(self, tmp_path):
        rc = run_cli("sweep", "--out", str(tmp_path), "--sessions", "2",
                     "--base-seed", "41", "--postures", "4", "--replications", "1",
                     "--min-duration", "20", "--max-duration", "30")
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        variants = [line.split(",")[0] for line in lines[1:]]
        assert variants == list(pipeline.VARIANTS)
        # per-session rows: 4 variants x 2 sessions, seeds echoed
        rows = (tmp_path / "sessions.csv").read_text().splitlines()
        assert rows[0] == "variant,seed,ppv,se,f1,pearson_r"
        assert len(rows) == 1 + 8
        assert json.loads((tmp_path / "sweep.json").read_text())["aggregate"]

    def test_variants_flag(self, tmp_path):
        rc = run_cli("sweep", "--out", str(tmp_path), "--sessions", "1",
                     "--base-seed", "41", "--postures", "4", "--replications", "1",
                     "--variants", "external_nopost,adr_post")
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["external_nopost", "1"],
                                                                ["adr_post", "1"]]

    def test_parallel_equals_serial(self, tmp_path):
        config = simulate.SessionConfig(postures=4, replications=1, seed=0)
        base = PipelineConfig(input_path="<simulated>", output_dir=str(tmp_path), decimation=1)
        serial = pipeline.run_variant_sweep(config, [1, 2, 3], base, workers=1)
        parallel = pipeline.run_variant_sweep(config, [1, 2, 3], base, workers=2)
        assert serial == parallel

    def test_at_most_one_worker_per_session(self, tmp_path, monkeypatch):
        import concurrent.futures

        pools = []

        class SerialPool:  # records its size and maps in this process
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        config = simulate.SessionConfig(postures=4, replications=1, seed=0)
        base = PipelineConfig(input_path="<simulated>", output_dir=str(tmp_path), decimation=1)
        pipeline.run_variant_sweep(config, [1, 2], base, workers=64)
        assert pools == [2]
        pipeline.run_variant_sweep(config, [1], base, workers=64)
        assert pools == [2]  # one session runs serially, with no pool

    @pytest.mark.parametrize("flag,value", [("--sessions", "0"), ("--workers", "0")])
    def test_nonpositive_count_exit_1(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        rc = run_cli("sweep", "--out", str(out), "--sessions", "1", flag, value)
        assert rc == 1
        assert f"{flag[2:]} must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_base_seed_exit_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = run_cli("sweep", "--out", str(out), "--sessions", "1", "--base-seed", "-1")
        assert rc == 1
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds,workers,message", [
        ([], 1, "sessions must be at least 1"),
        ([1], 0, "workers must be at least 1"),
    ], ids=["no_seeds", "no_workers"])
    def test_sweep_arguments_checked_before_any_session(self, tmp_path, monkeypatch, seeds,
                                                        workers, message):
        monkeypatch.setattr(simulate, "generate_session", None)  # no session may run
        config = simulate.SessionConfig(seed=0)
        base = PipelineConfig(input_path="<simulated>", output_dir=str(tmp_path), decimation=1)
        with pytest.raises(ValueError, match=message):
            pipeline.run_variant_sweep(config, seeds, base, workers=workers)

    def test_unknown_variant_rejected(self, tmp_path):
        config = simulate.SessionConfig(seed=0)
        base = PipelineConfig(input_path="<simulated>", output_dir=str(tmp_path), decimation=1)
        with pytest.raises(ValueError):
            pipeline.run_variant_sweep(config, [1], base, variants=("bogus",))


# Invalid settings of the commands that make an output directory, and
# the text that names the setting on stderr. A run reads the seed-7 session.
INVALID_SETTINGS = {
    "run_sigma_epsilon_nan": (["run", "--sigma-epsilon", "nan"],
                              "sigma_epsilon must be positive and finite, got nan"),
    "run_noninformative_sigma_epsilon_nan": (
        ["run", "--prior", "noninformative", "--sigma-epsilon", "nan"],
        "sigma_epsilon must be positive and finite, got nan"),
    "run_noninformative_sigma_epsilon_inf": (
        ["run", "--prior", "noninformative", "--sigma-epsilon", "inf"],
        "sigma_epsilon must be positive and finite, got inf"),
    "run_log_threshold_nan": (["run", "--log-threshold", "nan"],
                              "log_threshold must be positive and finite, got nan"),
    "run_log_threshold_inf": (["run", "--log-threshold", "inf"],
                              "log_threshold must be positive and finite, got inf"),
    "run_min_run_nan": (["run", "--min-run", "nan"],
                        "min_run must be positive and finite, got nan"),
    "run_min_run_inf": (["run", "--min-run", "inf"],
                        "min_run must be positive and finite, got inf"),
    "run_prune_0": (["run", "--prune", "0"], "prune_threshold must lie in (0, 1)"),
    "run_prune_1": (["run", "--prune", "1"], "prune_threshold must lie in (0, 1)"),
    "sweep_variants": (["sweep", "--sessions", "1", "--variants", "bogus"],
                       "unknown variant 'bogus'"),
    "sweep_repeated_variant": (["sweep", "--sessions", "1", "--variants", "adr_post,adr_post"],
                               "variant 'adr_post' is listed twice"),
    "sweep_hazard": (["sweep", "--sessions", "1", "--hazard", "1.5"],
                     "hazard changepoint probability"),
    "sweep_sessions": (["sweep", "--sessions", "0"], "sessions must be at least 1"),
    "sweep_negative_sessions": (["sweep", "--sessions", "-2"], "sessions must be at least 1"),
    "sweep_workers": (["sweep", "--sessions", "1", "--workers", "0"],
                      "workers must be at least 1"),
    "sweep_negative_workers": (["sweep", "--sessions", "1", "--workers", "-3"],
                               "workers must be at least 1"),
    "sweep_base_seed": (["sweep", "--sessions", "1", "--base-seed", "-1"],
                        "seed must be non-negative"),
    "sweep_sigma_epsilon": (["sweep", "--sessions", "1", "--sigma-epsilon", "0"],
                            "sigma_epsilon must be positive"),
    "sweep_sigma_epsilon_nan": (["sweep", "--sessions", "1", "--sigma-epsilon", "nan"],
                                "sigma_epsilon must be positive and finite, got nan"),
    "sweep_min_run_inf": (["sweep", "--sessions", "1", "--min-run", "inf"],
                          "min_run must be positive and finite, got inf"),
    "sweep_noise_nan": (["sweep", "--sessions", "1", "--noise", "nan"],
                        "noise scale must be positive and finite, got nan"),
    "simulate_postures": (["simulate", "--postures", "0"],
                          "postures and replications must be at least 1"),
    "simulate_decimation": (["simulate", "--level", "axis-angle", "--decimation", "0"],
                            "expansion factor"),
    "simulate_decimation_embedding_level": (
        ["simulate", "--decimation", "0"], "expansion factor must be an integer >= 1, got 0"),
    "simulate_separation": (["simulate", "--postures", "200", "--separation", "50"],
                            "could not place 200 posture"),
    "simulate_seed": (["simulate", "--seed", "-1"], "seed must be non-negative"),
    "simulate_noise": (["simulate", "--noise", "0"], "noise scale must be positive"),
    "simulate_noise_nan": (["simulate", "--noise", "nan"],
                           "noise scale must be positive and finite, got nan"),
    "simulate_noise_inf": (["simulate", "--noise", "inf"],
                           "noise scale must be positive and finite, got inf"),
    "simulate_negative_separation": (["simulate", "--separation", "-1"],
                                     "mean separation must be nonnegative"),
    "simulate_separation_nan": (["simulate", "--separation", "nan"],
                                "mean separation must be nonnegative and finite, got nan"),
    "simulate_separation_inf": (["simulate", "--separation", "inf"],
                                "mean separation must be nonnegative and finite, got inf"),
    "simulate_transition_range": (["simulate", "--min-transition", "3", "--max-transition", "2"],
                                  "invalid transition range (3, 2)"),
}


@pytest.mark.parametrize("case", INVALID_SETTINGS)
def test_invalid_setting_exit_1_leaves_no_output(session_dir, tmp_path, capsys, case):
    argv, message = INVALID_SETTINGS[case]
    if argv[0] == "run":
        argv = [*argv, "--input", str(session_dir / "session.csv"), "--embedding", "adr",
                "--decimation", "1"]
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(*argv, "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


class TestSynthgenCommand:
    def test_small_generation(self, tmp_path, capsys):
        out = tmp_path / "orient.csv"
        axes_out = tmp_path / "axes.csv"
        rc = run_cli("synthgen", "--resolution", "3", "--angles", "2",
                     "--out", str(out), "--axes-out", str(axes_out))
        assert rc == 0
        assert "axes=54 orientations=108" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 109
        assert len(axes_out.read_text().splitlines()) == 55

    def test_euclidean_and_dedupe(self, tmp_path, capsys):
        out = tmp_path / "orient.csv"
        rc = run_cli("synthgen", "--resolution", "3", "--angles", "2",
                     "--projection", "euclidean", "--dedupe", "--out", str(out))
        assert rc == 0
        # resolution 3: 26 unique vertices (6 centers + 12 edges + 8 corners)
        assert "axes=26 orientations=52" in capsys.readouterr().out

    def test_bad_resolution_exit_1(self, tmp_path):
        assert run_cli("synthgen", "--resolution", "1", "--out", str(tmp_path / "x.csv")) == 1


class TestImportHygiene:
    """kinseg never loads scipy: it is a test dependency only. Importing the
    CLI loads no process pool either: only ``sweep --workers`` uses one."""

    SCRIPT = """
import json, sys
loaded = {}
import kinseg.cli as cli
loaded["import"] = "scipy" in sys.modules
out = sys.argv[1]
assert cli.main(["synthgen", "--resolution", "3", "--angles", "2",
                 "--out", out + "/synth.csv"]) == 0
loaded["synthgen"] = "scipy" in sys.modules
assert cli.main(["simulate", "--seed", "2", "--postures", "3", "--replications", "1",
                 "--out", out + "/sim"]) == 0
loaded["simulate"] = "scipy" in sys.modules
loaded["run_exit"] = cli.main(["run", "--input", out + "/sim/session.csv",
                               "--out", out + "/run"])
loaded["run"] = "scipy" in sys.modules
print(json.dumps(loaded))
"""

    def test_scipy_never_loaded(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        env.pop(pipeline.OUTPUT_DIR_ENV, None)
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, str(tmp_path)], env=env,
                              capture_output=True, text=True, check=True)
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded == {"import": False, "synthgen": False, "simulate": False,
                          "run_exit": 0, "run": False}

    def test_cli_import_loads_no_process_pool(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, kinseg.cli; print('concurrent.futures.process' in sys.modules)"],
            env=_cli_env(), capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"
