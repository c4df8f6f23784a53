import json

import pytest

from kinseg import cli, kinematics, metrics, pipeline, simulate
from kinseg.pipeline import PipelineConfig


def run_cli(*args):
    return cli.main(list(args))


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

    def test_axis_angle_level(self, tmp_path):
        assert run_cli(
            "simulate", "--seed", "3", "--out", str(tmp_path),
            "--level", "axis-angle", "--decimation", "20",
            "--postures", "3", "--replications", "1",
        ) == 0
        header = (tmp_path / "session.csv").read_text().splitlines()[0]
        assert header == "t,x1,x2,x3,x4"

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("simulate", "--seed", "5", "--out", str(out)) == 0
        assert (a / "session.csv").read_bytes() == (b / "session.csv").read_bytes()
        assert (a / "labels.csv").read_bytes() == (b / "labels.csv").read_bytes()


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
                q = kinematics.axis_angle_to_quaternion(row[:3], row[3])
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


class TestEvalCommand:
    def test_eval_matches_run_metrics(self, session_dir, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli("run", "--input", str(session_dir / "session.csv"),
                "--labels", str(session_dir / "labels.csv"),
                "--embedding", "adr", "--decimation", "1", "--out", str(out))
        report = json.loads((out / "report.json").read_text())
        capsys.readouterr()
        rc = run_cli("eval", "--predicted", str(out / "segments.csv"),
                     "--labels", str(session_dir / "labels.csv"))
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f1"] == pytest.approx(report["metrics"]["f1"], rel=1e-12)
        assert payload["tp"] == report["metrics"]["tp"]


class TestSweep:
    def test_degenerate_sweep_matches_run_pipeline(self, tmp_path):
        config = simulate.SessionConfig(seed=31)
        base = PipelineConfig(input_path="<simulated>", output_dir=str(tmp_path), decimation=1)
        sweep = pipeline.run_variant_sweep(config, [31], base, variants=("adr_post",))
        session = simulate.generate_session(config)
        *_, segments = pipeline.analyse_series(session.series.values, base)
        report = metrics.evaluate_segmentation(segments, session.segments, 3)
        row = sweep["aggregate"][0]
        assert row["sessions"] == 1
        assert row["mean_f1"] == pytest.approx(report.f1, rel=1e-12)
        assert row["mean_pearson_r"] == pytest.approx(report.pearson, rel=1e-12)

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

    def test_parallel_equals_serial(self, tmp_path):
        config = simulate.SessionConfig(postures=4, replications=1, seed=0)
        base = PipelineConfig(input_path="<simulated>", output_dir=str(tmp_path), decimation=1)
        serial = pipeline.run_variant_sweep(config, [1, 2, 3], base, workers=1)
        parallel = pipeline.run_variant_sweep(config, [1, 2, 3], base, workers=2)
        assert serial == parallel

    def test_unknown_variant_rejected(self, tmp_path):
        config = simulate.SessionConfig(seed=0)
        base = PipelineConfig(input_path="<simulated>", output_dir=str(tmp_path), decimation=1)
        with pytest.raises(ValueError):
            pipeline.run_variant_sweep(config, [1], base, variants=("bogus",))


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
