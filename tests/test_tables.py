"""The array writers of ``tables`` against a ``csv.writer`` reference, and
atomic replacement of every file they write.

``write_csv`` formats a float array a block of rows at a time and
``write_product_csv`` formats each row of its two factors once; both
must give the bytes ``csv.writer`` gives for the same rows.
``write_matrix_text`` must give the bytes ``np.savetxt`` gives for the
dense matrix, however its lines are gathered into writes.
"""

import csv
import errno
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kinseg import bocpd, cli, kinematics, simulate, synthgen, tables

SPECIAL = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-05, 0.0001, 1e16,
           9999999999999998.0, 1.0]
# the edges of the fixed-notation range that the array writer formats
# itself, integers at and past 2^53, a power-of-two significand and values
# with no short exact form
BOUNDARY = [np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), np.nextafter(1e16, 0.0),
            2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** -13, 0.15, 4.35, 1 / 3]


def reference_csv(header, rows, lineterminator="\r\n") -> bytes:
    """The bytes of ``csv.writer`` over the rows as Python lists."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=lineterminator)
    writer.writerow(header)
    writer.writerows(np.asarray(rows).tolist())
    return buf.getvalue().encode()


def special_table(n_rows, width, seed=0):
    """Every special value in every column, then every boundary value the
    same way, then random normals and subnormals."""
    rng = np.random.default_rng(seed)
    cells = rng.standard_normal(n_rows * width) * 10.0 ** rng.integers(-320, 300, n_rows * width)
    start = 0
    for values in (SPECIAL, BOUNDARY):
        head = min(len(values) * width, cells.size - start)
        cells[start:start + head] = np.resize(values, head)
        start += head
    return cells.reshape(n_rows, width)


def written(tmp_path, write):
    path = tmp_path / "t.csv"
    write(path)
    return path.read_bytes()


class TestBlockWriter:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n_rows", [0, 1, 4096, 4097, 8193])
    def test_matches_csv_writer(self, tmp_path, n_rows, width):
        header = [f"c{i}" for i in range(width)]
        special = special_table(n_rows, width, seed=n_rows + width)
        timestamps = special.copy()
        timestamps[:, 0] = np.arange(n_rows) / 30  # a 30 Hz session's t column
        # every sign, exponent and NaN payload
        bit_patterns = np.random.default_rng(n_rows + width).integers(
            np.iinfo(np.int64).min, np.iinfo(np.int64).max, special.shape,
            endpoint=True).view(np.float64)
        for rows in (special, timestamps, bit_patterns):
            got = written(tmp_path, lambda p: tables.write_csv(p, header, rows))
            assert got == reference_csv(header, rows)
            assert got.count(b"\r\n") == n_rows + 1

    def test_special_values(self, tmp_path):
        rows = np.array(SPECIAL).reshape(-1, 1)
        got = written(tmp_path, lambda p: tables.write_csv(p, ["x"], rows))
        assert got == reference_csv(["x"], rows)
        assert got.decode().split("\r\n")[1:-1] == [
            "-0.0", "inf", "-inf", "nan", "5e-324", "1e-05", "0.0001", "1e+16",
            "9999999999999998.0", "1.0"]

    def test_lf_and_non_contiguous_rows(self, tmp_path):
        rows = special_table(9000, 6)[::2, 1:4]  # a strided view
        got = written(tmp_path, lambda p: tables.write_csv(p, "abc", rows, lineterminator="\n"))
        assert got == reference_csv("abc", rows, lineterminator="\n")

    def test_fast_path_reach(self, tmp_path, monkeypatch):
        """Almost every cell of a 30 Hz session is formatted without
        ``repr``: a writer that sent every cell there would keep the bytes
        and lose the speed."""
        config = simulate.SessionConfig(postures=6, replications=1, seed=1)
        timestamps, axes, angles = simulate.generate_session_axis_angle(config, 100).axis_angle
        fallback = []
        repr_cells = tables._repr_cells
        monkeypatch.setattr(tables, "_repr_cells",
                            lambda cells: fallback.append(cells.size) or repr_cells(cells))
        path = tmp_path / "session.csv"
        rows = kinematics.write_axis_angle_csv(path, timestamps, axes, angles)
        assert path.read_bytes() == reference_csv(
            ("t", "x1", "x2", "x3", "x4"), np.column_stack([timestamps, axes, angles]))
        # powers of two (t = 0.5, 1.0, 2.0, ...), magnitudes under 1e-4 and
        # near-ties go to repr: 44 of 102,000 cells
        assert 0 < sum(fallback) <= 0.001 * rows * 5


@settings(max_examples=100, deadline=None)
@given(rows=st.tuples(st.integers(0, 30), st.integers(1, 5)).flatmap(
           lambda shape: arrays(np.float64, shape)),
       block=st.integers(1, 8))
def test_block_writer_property(tmp_path_factory, rows, block):
    """Any float64 table, non-finite values included, at any block size."""
    header = [f"c{i}" for i in range(rows.shape[1])]
    path = tmp_path_factory.mktemp("block") / "t.csv"
    with mock.patch.object(tables, "BLOCK_ROWS", block):
        tables.write_csv(path, header, rows)
    assert path.read_bytes() == reference_csv(header, rows)


def _axes(projection, resolution, dedupe):
    axes = projection(synthgen.build_cube_mesh(resolution))
    return synthgen.dedupe_axes(axes) if dedupe else axes


class TestProductWriter:
    @pytest.mark.parametrize("projection", [synthgen.project_ellipsoidal,
                                            synthgen.project_euclidean],
                             ids=["ellipsoidal", "euclidean"])
    @pytest.mark.parametrize("dedupe", [False, True], ids=["keep", "dedupe"])
    @pytest.mark.parametrize("resolution,n_angles", [(15, 36), (2, 1), (2, 36), (15, 1)])
    def test_dataset_matches_block_writer(self, tmp_path, projection, dedupe, resolution,
                                          n_angles):
        axes = _axes(projection, resolution, dedupe)
        angles = synthgen.generate_angle_set(n_angles)
        header = ("a1", "a2", "a3", "angle_rad")
        expected = reference_csv(header, synthgen.generate_synthetic_dataset(axes, angles))
        path = tmp_path / "product.csv"
        assert synthgen.export_dataset_csv(axes, angles, path) == len(axes) * len(angles)
        assert path.read_bytes() == expected

    def test_special_values_both_sides(self, tmp_path):
        left = special_table(7, 2)
        right = special_table(5, 3, seed=1)
        stacked = np.hstack([np.repeat(left, len(right), axis=0), np.tile(right, (len(left), 1))])
        got = written(tmp_path, lambda p: tables.write_product_csv(p, "abcde", left, right))
        assert got == reference_csv("abcde", stacked)

    @pytest.mark.parametrize("left_rows,right_rows", [(0, 3), (3, 0)])
    def test_empty_factor_writes_header_only(self, tmp_path, left_rows, right_rows):
        got = written(tmp_path, lambda p: tables.write_product_csv(
            p, "abc", np.zeros((left_rows, 2)), np.zeros((right_rows, 1))))
        assert got == b"a,b,c\r\n"


def dense_text(dense, fmt, sep, header="") -> bytes:
    """The bytes of ``np.savetxt`` over every cell of ``dense``, after ``header``."""
    buf = io.BytesIO()
    np.savetxt(buf, dense, fmt=fmt, delimiter=sep)
    return header.encode() + buf.getvalue()


def _mask(n, cells):
    mask = np.zeros((n, n), dtype=bool)
    for r, c in cells:
        mask[r, c] = True
    return mask


MASKS = {
    # empty rows at the top, middle and bottom; a stretch from column 0,
    # one ending at column n - 1 and a row of three stretches
    "mixed": _mask(7, [(1, 0), (1, 1), (3, 5), (3, 6), (4, 0), (4, 2), (4, 3), (4, 6),
                       (5, 6)]),
    "full": np.ones((4, 4), dtype=bool),
    "empty": np.zeros((5, 5), dtype=bool),
    "n1_stored": np.ones((1, 1), dtype=bool),
    "n1_empty": np.zeros((1, 1), dtype=bool),
    "upper": np.triu(np.ones((6, 6), dtype=bool)),
    "random": np.random.default_rng(4).random((17, 17)) < 0.3,
}


class TestMatrixWriter:
    """``write_matrix_text`` against every cell of the dense matrix."""

    # each size seeds the stored cells of a mask differently
    @pytest.mark.parametrize("size", [1, 3, 64, tables.WRITE_BYTES])
    @pytest.mark.parametrize("name", list(MASKS))
    def test_matches_dense_reference(self, tmp_path, name, size):
        mask = MASKS[name]
        n = len(mask)
        cols, rows = np.nonzero(mask.T)  # stored cells ordered by column
        indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=0))))
        rng = np.random.default_rng(n if size == 1 else (n, size))
        floats = rng.standard_normal(len(rows)) * 10.0 ** rng.integers(-320, 300, len(rows))
        grays = rng.integers(0, 256, len(rows))  # a stored cell may print as 0
        header = f"P2\n{n} {n}\n255\n"
        for cells, fmt, sep, head in ((floats, "%.9g", ",", ""), (grays, "%d", " ", header)):
            dense = np.zeros((n, n), dtype=cells.dtype)
            dense[rows, cols] = cells
            got = written(tmp_path, lambda p: tables.write_matrix_text(
                p, n, tables.matrix_rows(indptr, rows, cells), fmt, sep, head))
            assert got == dense_text(dense, fmt, sep, head), fmt

    def test_gathered_writes(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        means = rng.uniform(-2.0, 2.0, (20, 3))
        vals = np.repeat(means, 40, axis=0) + 0.02 * rng.standard_normal((800, 3))
        P = bocpd.infer_posterior(vals, bocpd.informative_prior(), bocpd.HazardConfig(0.01),
                                  prune_threshold=1e-12)
        assert np.mean(np.bincount(P.run_lengths, minlength=P.size) == 0) > 0.8  # mostly empty rows
        for write in (bocpd.posterior_to_csv, bocpd.posterior_to_pgm):
            sizes = []
            monkeypatch.setattr(tables, "open", _spying_open(sizes), raising=False)
            path = tmp_path / "posterior"
            write(P, path)
            file_bytes = path.stat().st_size
            assert sum(sizes) == file_bytes
            # not one system write per line
            assert len(sizes) <= file_bytes // tables.WRITE_BYTES + 2 < P.size

    def test_peak_memory_per_stored_cell(self, tmp_path):
        # column k stores run lengths 0..min(k, 99), as a pruned posterior
        # does: 195,050 cells in 100 rows of up to 1,901 cells
        n = 2000
        counts = np.minimum(np.arange(n) + 1, 100)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        rows = np.arange(indptr[-1]) - np.repeat(indptr[:-1], counts)
        cells = np.random.default_rng(0).random(len(rows))
        tracemalloc.start()
        try:
            tables.write_matrix_text(tmp_path / "m.csv", n, tables.matrix_rows(indptr, rows, cells),
                                     "%.9g", ",")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the writer's 256 KiB buffer, the walk's three arrays of one
        # entry per column and one row as Python floats: 2.8 bytes a cell
        # measured (10.4 with a row index of int32 order and 2-byte columns,
        # 12.0 with a full-size int64 argsort beside the order); converting
        # every cell at once costs over 32 bytes a cell
        assert peak < 4 * len(cells), f"{peak / len(cells):.1f} bytes per stored cell"


class TestMatrixLayout:
    """``matrix_rows`` of a matrix too large to write, against the
    row-major cells ``np.nonzero`` gives for the dense block of the rows and
    columns that hold them."""

    # n (n + 1) passes 2^31 at n = 46,341, and a column no longer fits in
    # 2 bytes at n = 65,537; each chunk seeds the rows, columns and cells
    @pytest.mark.parametrize("chunk", [7, 1 << 14])
    @pytest.mark.parametrize("n", [50_000, 70_000])
    def test_large_sparse_matrix(self, n, chunk):
        rng = np.random.default_rng(n if chunk == 7 else (n, chunk))
        # the first and last rows and columns, runs of adjacent ones and
        # some scattered ones, filled at random: about 300 cells
        ends = [0, 1, 2, 46_339, 46_340, 46_341, n - 2, n - 1]
        used_rows = np.unique([*ends, *rng.integers(0, n, 16)])
        used_cols = np.unique([*ends, 3, 4, 30_000, 30_001, *rng.integers(0, n, 12)])
        block = rng.random((len(used_rows), len(used_cols))) < 0.6
        # the cells column by column, as a posterior stores them
        local_cols, local_rows = np.nonzero(block.T)
        rows = used_rows[local_rows].astype(np.min_scalar_type(n))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(used_cols[local_cols],
                                                            minlength=n))))
        # each cell's place in that storage, read in row-major order
        storage = np.zeros(block.shape, dtype=int)
        storage.T[block.T] = np.arange(len(rows))
        block_rows, block_cols = np.nonzero(block)  # row-major
        r, c = used_rows[block_rows], used_cols[block_cols]
        # each cell's value is its place in the storage
        walked = list(tables.matrix_rows(indptr, rows, np.arange(len(rows))))
        # one entry per row that holds a cell, in ascending row order
        assert [row for row, _, _ in walked] == np.unique(r).tolist()
        assert np.array_equal(np.concatenate([np.full(len(cols), row)
                                              for row, cols, _ in walked]), r)
        assert np.array_equal(np.concatenate([cols for _, cols, _ in walked]), c)
        assert np.array_equal(np.concatenate([at for _, _, at in walked]), storage[block])
        # a stretch that runs over adjacent columns, and rows of several stretches
        same_row, step = np.diff(r) == 0, np.diff(c)
        assert (same_row & (step == 1)).any() and (same_row & (step > 1)).any()


def _spying_open(sizes):
    """Binary ``open`` whose files append the length of every write that
    leaves the buffer for the operating system to ``sizes``."""
    def fake_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        real_write = fh.raw.write

        def write(data):
            sizes.append(len(data))
            return real_write(data)

        fh.raw.write = write
        return fh

    return fake_open


def _failing_open(fail_after):
    """``open`` whose files raise ENOSPC on the write after ``fail_after``."""
    def fake_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        real_write, calls = fh.write, []

        def write(text):
            calls.append(1)
            if len(calls) > fail_after:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(text)

        fh.write = write
        return fh

    return fake_open


class TestAtomicWrites:
    @pytest.mark.parametrize("argv,name", [
        (["synthgen", "--resolution", "3", "--angles", "4", "--out", "{out}/orientations.csv"],
         "orientations.csv"),
        (["simulate", "--seed", "1", "--postures", "2", "--replications", "1",
          "--out", "{out}"], "session.csv"),
        (["simulate", "--seed", "1", "--postures", "2", "--replications", "1",
          "--level", "axis-angle", "--decimation", "5", "--out", "{out}"], "session.csv"),
    ], ids=["synthgen", "simulate_embedding", "simulate_axis_angle"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, argv, name):
        (tmp_path / name).write_bytes(b"old\r\n")
        # the header goes through, the first data write fails
        monkeypatch.setattr(tables, "open", _failing_open(1), raising=False)
        assert cli.main([arg.format(out=tmp_path) for arg in argv]) == cli.EXIT_IO
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]
        assert (tmp_path / name).read_bytes() == b"old\r\n"

    def test_failed_posterior_write_leaves_old_file(self, tmp_path, monkeypatch):
        P = bocpd.infer_posterior(np.zeros((3, 3)), bocpd.informative_prior(),
                                  bocpd.HazardConfig(0.01))
        (tmp_path / "posterior.csv").write_bytes(b"old\n")
        # the header goes through, the first line's write fails
        monkeypatch.setattr(tables, "open", _failing_open(1), raising=False)
        with pytest.raises(OSError):
            bocpd.posterior_to_csv(P, tmp_path / "posterior.csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["posterior.csv"]
        assert (tmp_path / "posterior.csv").read_bytes() == b"old\n"

    def test_failed_json_write_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tables, "open", _failing_open(0), raising=False)
        with pytest.raises(OSError):
            tables.write_json(tmp_path / "r.json", {"a": 1})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_json_leaves_no_file(self, tmp_path, value):
        # NaN and Infinity are not JSON tokens (RFC 8259)
        with pytest.raises(ValueError, match="not JSON compliant"):
            tables.write_json(tmp_path / "r.json", {"a": [1.0, value]})
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory(self, tmp_path):
        path = tmp_path / "missing" / "t.csv"
        with pytest.raises(FileNotFoundError) as raised:
            tables.write_csv(path, ["a"], np.zeros((1, 1)))
        assert raised.value.filename == str(path)  # not the temporary name
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory_cli(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["synthgen", "--resolution", "3", "--angles", "4",
                "--out", "sensor/orientations.csv"]
        assert cli.main(argv) == cli.EXIT_IO
        assert "No such file or directory: 'sensor/orientations.csv'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
