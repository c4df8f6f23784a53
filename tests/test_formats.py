"""Exact bytes of every file kinseg writes, and what its readers reject.

Each writer gets a tiny fixed input, so the expected bytes pin the
format (header, float formatting, CRLF or LF line ends) without
depending on any numerical result.
"""

import os

import numpy as np
import pytest

from kinseg import kinematics, metrics, pipeline, segmentation, simulate, synthgen
from kinseg.kinematics import EmbeddingSeries
from kinseg.metrics import GroundTruthSegment
from kinseg.segmentation import Segment

SWEEP = {
    "aggregate": [{"variant": "adr_post", "sessions": 2, "mean_ppv": 1.0, "mean_se": 0.5,
                   "mean_f1": 2.0 / 3.0, "mean_pearson_r": None}],
    "sessions": [{"variant": "adr_post", "seed": 1, "ppv": 1.0, "se": 0.5,
                  "f1": 2.0 / 3.0, "pearson_r": 0.1},
                 {"variant": "adr_post", "seed": 2, "ppv": 1.0, "se": 0.5,
                  "f1": 2.0 / 3.0, "pearson_r": None}],
}


def _sweep_file(name):
    """A writer of one of the files ``pipeline.write_sweep`` writes for SWEEP."""
    def write(path):
        pipeline.write_sweep(SWEEP, path.parent / "sweep")
        os.replace(path.parent / "sweep" / name, path)
    return write


WRITERS = {
    "embedding": (
        lambda p: kinematics.write_embedding_csv(
            p, EmbeddingSeries([[1.5, 0.0, 0.0], [0.0, 1.25, -0.1]], [0.0, 1.0 / 30.0])),
        b"t,o1,o2,o3\r\n0.0,1.5,0.0,0.0\r\n0.03333333333333333,0.0,1.25,-0.1\r\n",
    ),
    "axis_angle": (
        lambda p: kinematics.write_axis_angle_csv(
            p, [0.0, 2.0], [[0.0, 0.0, 1.0], [0.6, 0.8, 0.0]], [np.pi, 1e-20]),
        b"t,x1,x2,x3,x4\r\n0.0,0.0,0.0,1.0,3.141592653589793\r\n"
        b"2.0,0.6,0.8,0.0,1e-20\r\n",
    ),
    "dataset": (
        lambda p: synthgen.export_dataset_csv([[0.0, -1.0, 0.0]], [np.pi / 2], p),
        b"a1,a2,a3,angle_rad\r\n0.0,-1.0,0.0,1.5707963267948966\r\n",
    ),
    "axes": (
        lambda p: synthgen.export_axes_csv([[1.0, 0.0, 0.0], [0.1, 0.2, 0.3]], p),
        b"a1,a2,a3\r\n1.0,0.0,0.0\r\n0.1,0.2,0.3\r\n",
    ),
    "segments": (
        lambda p: segmentation.segments_to_csv([Segment(5, 2.5), Segment(9, 4.0)], p),
        b"changepoint_idx,duration,start_idx\r\n5,2.5,2.5\r\n9,4.0,5.0\r\n",
    ),
    "runlength": (
        lambda p: segmentation.write_runlength_csv(p, [0.0, 1.5, 0.1], [0.0, 1.5, 1.5]),
        b"k,runlength,runlength_postprocessed\r\n0,0.0,0.0\r\n1,1.5,1.5\r\n2,0.1,1.5\r\n",
    ),
    "labels": (
        lambda p: simulate.write_labels_csv(
            p, [GroundTruthSegment(0, 3), GroundTruthSegment(5, 12)]),
        b"segment_start,segment_end\r\n0,3\r\n5,12\r\n",
    ),
    "sweep": (
        _sweep_file("sweep.csv"),
        b"variant,sessions,mean_ppv,mean_se,mean_f1,mean_pearson_r\n"
        b"adr_post,2,1.0,0.5,0.6666666666666666,\n",
    ),
    "sessions": (
        _sweep_file("sessions.csv"),
        b"variant,seed,ppv,se,f1,pearson_r\n"
        b"adr_post,1,1.0,0.5,0.6666666666666666,0.1\n"
        b"adr_post,2,1.0,0.5,0.6666666666666666,\n",
    ),
    "report": (
        lambda p: segmentation.report_to_json({"b": 1, "a": [0.1, None, True]}, p),
        b'{\n  "a": [\n    0.1,\n    null,\n    true\n  ],\n  "b": 1\n}\n',
    ),
    "sweep_json": (
        _sweep_file("sweep.json"),
        b'{\n  "aggregate": [\n    {\n      "mean_f1": 0.6666666666666666,\n'
        b'      "mean_pearson_r": null,\n      "mean_ppv": 1.0,\n      "mean_se": 0.5,\n'
        b'      "sessions": 2,\n      "variant": "adr_post"\n    }\n  ],\n  "sessions": [\n'
        b'    {\n      "f1": 0.6666666666666666,\n      "pearson_r": 0.1,\n      "ppv": 1.0,\n'
        b'      "se": 0.5,\n      "seed": 1,\n      "variant": "adr_post"\n    },\n'
        b'    {\n      "f1": 0.6666666666666666,\n      "pearson_r": null,\n      "ppv": 1.0,\n'
        b'      "se": 0.5,\n      "seed": 2,\n      "variant": "adr_post"\n    }\n  ]\n}\n',
    ),
}


@pytest.mark.parametrize("name", WRITERS)
def test_writer_bytes(name, tmp_path):
    write, expected = WRITERS[name]
    path = tmp_path / "out"
    rows = write(path)
    assert path.read_bytes() == expected
    assert rows in (None, expected.count(b"\n") - 1)  # a returned count is of the data rows


def test_write_sweep_makes_its_directory(tmp_path):
    out = tmp_path / "sweep"
    pipeline.write_sweep(SWEEP, out)
    assert sorted(p.name for p in out.iterdir()) == ["sessions.csv", "sweep.csv", "sweep.json"]


class TestRoundTrip:
    def test_embedding(self, tmp_path):
        values = np.array([[1.5, 0.0, 0.0], [0.1, 1.25, -0.3]])
        path = tmp_path / "e.csv"
        kinematics.write_embedding_csv(path, EmbeddingSeries(values, [0.0, 0.1]))
        kind, ts, vals = kinematics.read_orientation_csv(path)
        assert kind == "embedding"
        assert ts.tolist() == [0.0, 0.1]
        assert np.array_equal(vals, values)

    def test_segments(self, tmp_path):
        segments = [Segment(5, 2.5), Segment(9, 1.0 / 3.0)]
        path = tmp_path / "s.csv"
        segmentation.segments_to_csv(segments, path)
        assert segmentation.read_segments_csv(path) == segments

    def test_labels(self, tmp_path):
        labels = [GroundTruthSegment(0, 3), GroundTruthSegment(5, 12)]
        path = tmp_path / "l.csv"
        simulate.write_labels_csv(path, labels)
        assert metrics.read_labels_csv(path) == labels

    def test_header_only_segments_and_labels_are_empty(self, tmp_path):
        for read, header in ((segmentation.read_segments_csv, "changepoint_idx,duration,start_idx"),
                             (metrics.read_labels_csv, "segment_start,segment_end")):
            path = tmp_path / "h.csv"
            path.write_text(header + "\r\n")
            assert read(path) == []


# reader -> (header, a valid data row)
READERS = {
    "orientation": (kinematics.read_orientation_csv, "t,o1,o2,o3", "0.0,1.5,0.0,0.0"),
    "segments": (segmentation.read_segments_csv, "changepoint_idx,duration,start_idx",
                 "5,2.5,2.5"),
    "labels": (metrics.read_labels_csv, "segment_start,segment_end", "0,3"),
}


def _with_first_cell(row, cell):
    return ",".join([cell] + row.split(",")[1:])


REJECTED = {
    "unknown_header": lambda h, r: f"a,b\n{r}\n",
    "malformed_cell": lambda h, r: f"{h}\n{_with_first_cell(r, 'zz')}\n",
    "width_mismatch": lambda h, r: f"{h}\n{r}\n{r.rsplit(',', 1)[0]}\n",
    "wide_rows": lambda h, r: f"{h}\n{r},1\n",
    "empty_file": lambda h, r: "",
    "hash_row": lambda h, r: f"{h}\n{r}\n# note\n",
    "nan_first": lambda h, r: f"{h}\n{r}\n{_with_first_cell(r, 'nan')}\n",
    "inf_last": lambda h, r: f"{h}\n{r}\n{r.rsplit(',', 1)[0]},inf\n",
}


@pytest.mark.parametrize("case", REJECTED)
@pytest.mark.parametrize("reader", READERS)
def test_reader_rejects(reader, case, tmp_path):
    read, header, row = READERS[reader]
    path = tmp_path / "bad.csv"
    path.write_text(REJECTED[case](header, row))
    with pytest.raises(ValueError):
        read(path)


@pytest.mark.parametrize("read, text", [
    (kinematics.read_orientation_csv, "t,o1,o2,o3\n"),
    (metrics.read_labels_csv, "segment_start,segment_end\n0,3.5\n"),
    (segmentation.read_segments_csv, "changepoint_idx,duration,start_idx\n3.5,2.0,1.5\n"),
], ids=["header_only_orientation", "non_integral_label", "non_integral_changepoint"])
def test_reader_rejects_specific(read, text, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        read(path)


def test_non_finite_reports_data_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,o1,o2,o3\n0.0,1.5,0.0,0.0\n\n1.0,1.5,nan,0.0\n")
    with pytest.raises(ValueError, match="data row 2"):
        kinematics.read_orientation_csv(path)
