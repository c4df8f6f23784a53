"""Check that a change keeps the bytes of every kinseg output.

    python tools/bytecheck.py [--quick] [--base REV] [--work DIR]

Runs one command set twice: with the ``src`` tree of the base revision
(``--base``, default HEAD, taken with ``git archive``) and with the
working tree's. Each run starts in a fresh directory and uses the same
relative paths, so paths echoed into ``report.json`` compare equal as
they are. BLAS is held to one thread. Every file either run wrote, and
each command's stdout and stderr, is then compared, so a new warning or
a reworded message shows as a differing file. A file prints "identical", or
the count and the largest absolute difference of the numeric cells that
differ, or why it cannot be compared cell by cell. The exit code is 0
when every file is identical and 1 otherwise.

``--quick`` is the criterion-10 commands, the ``simulate --seed 7``
session with its exact, pruned and external ``run`` and ``eval``, the
seed-1 night (8,640 steps) with ``--prune 1e-12``, and
``sweep --sessions 2`` with one and two workers. The full set adds the
exact night, an axis-angle session and its ``run``, the benchmark's
30 Hz side (``synthgen``, a fixed-length axis-angle ``simulate``, and
``run`` on 100,000 quaternion rows under both priors) and
``sweep --sessions 20`` with one and two workers.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import itertools
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NIGHT_STEPS = 8640
QUATERNION_ROWS = 100_000


def cut_night(run_dir) -> None:
    """The seed-1 night cut to ``NIGHT_STEPS`` steps, with the labels of
    the segments whose changepoint lies inside them."""
    with open(os.path.join(run_dir, "night/sim/session.csv")) as src:
        lines = src.readlines()[:NIGHT_STEPS + 1]
    with open(os.path.join(run_dir, "night/session.csv"), "w") as dst:
        dst.writelines(lines)
    cut_labels(run_dir, "night/sim/labels.csv", "night/labels.csv", NIGHT_STEPS)


def cut_labels(run_dir, src, dst, steps) -> None:
    with open(os.path.join(run_dir, src), newline="") as fh:
        rows = list(csv.reader(fh))
    with open(os.path.join(run_dir, dst), "w", newline="") as fh:
        csv.writer(fh).writerows([rows[0]] + [r for r in rows[1:] if int(r[1]) < steps])


def quaternion_session(run_dir) -> None:
    """The first ``QUATERNION_ROWS`` rows of an axis-angle session as
    t,qw,qx,qy,qz rows, as the benchmark's 30 Hz workload writes them."""
    data = np.loadtxt(os.path.join(run_dir, "q/sim/session.csv"), delimiter=",", skiprows=1,
                      max_rows=QUATERNION_ROWS, ndmin=2)
    half = 0.5 * data[:, 4]
    quats = np.column_stack([data[:, 0], np.cos(half), np.sin(half)[:, None] * data[:, 1:4]])
    np.savetxt(os.path.join(run_dir, "q/session.csv"), quats, fmt="%.17g", delimiter=",",
               header="t,qw,qx,qy,qz", comments="")
    cut_labels(run_dir, "q/sim/labels.csv", "q/labels.csv", QUATERNION_ROWS // 100)


def run(session_dir):
    """``kinseg run``'s input options for the session in ``session_dir``."""
    return ["run", "--input", f"{session_dir}/session.csv",
            "--labels", f"{session_dir}/labels.csv"]


QUICK = [
    ["simulate", "--seed", "17", "--postures", "6", "--replications", "1", "--out", "c10/sim"],
    ["synthgen", "--resolution", "5", "--angles", "6", "--out", "c10/orient.csv"],
    [*run("c10/sim"), "--embedding", "adr", "--decimation", "1", "--out", "c10/run"],
    ["simulate", "--seed", "7", "--out", "s7/sim"],
    [*run("s7/sim"), "--embedding", "adr", "--decimation", "1", "--out", "s7/exact"],
    [*run("s7/sim"), "--embedding", "adr", "--decimation", "1", "--prune", "1e-12",
     "--out", "s7/pruned"],
    [*run("s7/sim"), "--embedding", "external", "--decimation", "1", "--out", "s7/external"],
    ["eval", "--predicted", "s7/exact/segments.csv", "--labels", "s7/sim/labels.csv",
     "--out", "s7/eval.json"],
    ["simulate", "--seed", "1", "--postures", "30", "--replications", "8", "--out", "night/sim"],
    cut_night,
    [*run("night"), "--embedding", "adr", "--decimation", "1", "--prune", "1e-12",
     "--out", "night/pruned"],
    ["sweep", "--sessions", "2", "--workers", "1", "--out", "sweep-quick1"],
    ["sweep", "--sessions", "2", "--workers", "2", "--out", "sweep-quick2"],
]
FULL = QUICK + [
    [*run("night"), "--embedding", "adr", "--decimation", "1", "--out", "night/exact"],
    ["simulate", "--seed", "7", "--level", "axis-angle", "--decimation", "10", "--postures", "3",
     "--replications", "1", "--out", "aa/sim"],
    [*run("aa/sim"), "--decimation", "10", "--out", "aa/run"],
    ["simulate", "--seed", "1", "--level", "axis-angle", "--postures", "12", "--replications", "3",
     "--decimation", "100", "--out", "q/sim"],
    ["synthgen", "--resolution", "15", "--angles", "36", "--out", "q/orientations.csv",
     "--axes-out", "q/axes.csv"],
    ["simulate", "--seed", "1", "--level", "axis-angle", "--postures", "12", "--replications", "3",
     "--min-duration", "40", "--max-duration", "40", "--min-transition", "2",
     "--max-transition", "2", "--out", "q/fixed"],
    quaternion_session,
    [*run("q"), "--decimation", "100", "--out", "q/informative"],
    [*run("q"), "--decimation", "100", "--prior", "noninformative", "--out", "q/noninformative"],
    ["sweep", "--sessions", "20", "--workers", "1", "--out", "sweep1"],
    ["sweep", "--sessions", "20", "--workers", "2", "--out", "sweep2"],
]


def run_set(commands, src, run_dir) -> None:
    """Run ``commands`` in ``run_dir`` with kinseg from ``src``; each CLI
    command's stdout goes to ``stdout/<its index>.txt`` and its stderr to
    ``stderr/<its index>.txt``."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("KINSEG_OUT_DIR", None)  # it would redirect every output directory
    for stream in ("stdout", "stderr"):
        os.makedirs(os.path.join(run_dir, stream))
    for i, command in enumerate(commands):
        if callable(command):
            command(run_dir)
            continue
        stderr = os.path.join(run_dir, "stderr", f"{i:02d}.txt")
        with open(os.path.join(run_dir, "stdout", f"{i:02d}.txt"), "wb") as out, \
                open(stderr, "wb") as err:
            done = subprocess.run([sys.executable, "-m", "kinseg.cli", *command], cwd=run_dir,
                                  env=env, stdout=out, stderr=err)
        if done.returncode:  # show why before the run directory is removed
            with open(stderr) as err:
                sys.stderr.write(err.read())
            done.check_returncode()


_SEPARATORS = re.compile(rb"[\s,:\[\]{}]+")


def compare(path_a, path_b) -> str:
    """"identical", or how two files differ, cell by cell where they can.
    The files are read a line at a time, so a large one costs no memory."""
    if filecmp.cmp(path_a, path_b, shallow=False):
        return "identical"
    numeric, largest = 0, 0.0
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        for line_a, line_b in itertools.zip_longest(fa, fb, fillvalue=b""):
            if line_a == line_b:
                continue
            cells_a, cells_b = _SEPARATORS.split(line_a), _SEPARATORS.split(line_b)
            if len(cells_a) != len(cells_b):
                return f"differs in shape: {line_a[:40]!r} against {line_b[:40]!r}"
            for x, y in zip(cells_a, cells_b):
                if x == y:
                    continue
                try:
                    diff = abs(float(x) - float(y))
                except ValueError:
                    return f"differs in text: {x[:40]!r} against {y[:40]!r}"
                numeric, largest = numeric + 1, max(largest, diff)
    if not numeric:  # the same cells with other separators
        return "differs in separators only"
    return f"{numeric} numeric cells differ, largest difference {largest:.3g}"


def files(top) -> set:
    return {os.path.relpath(os.path.join(d, f), top) for d, _, fs in os.walk(top) for f in fs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="the short command set")
    parser.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    parser.add_argument("--work", help="keep both runs here (default: a temporary directory)")
    args = parser.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="bytecheck-")
    base_tree, base_run, work_run = (os.path.join(work, d) for d in ("base-tree", "base", "work"))
    try:
        os.makedirs(base_tree)
        archive = subprocess.run(["git", "archive", args.base, "src"], cwd=ROOT,
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", base_tree], input=archive, check=True)
        commands = QUICK if args.quick else FULL
        run_set(commands, os.path.join(base_tree, "src"), base_run)
        run_set(commands, os.path.join(ROOT, "src"), work_run)
        names, identical = sorted(files(base_run) | files(work_run)), True
        for name in names:
            paths = [os.path.join(run_dir, name) for run_dir in (base_run, work_run)]
            if not all(map(os.path.exists, paths)):
                verdict = "only in the " + ("base" if os.path.exists(paths[0]) else "working tree")
            else:
                verdict = compare(*paths)
            identical &= verdict == "identical"
            print(f"{name}: {verdict}")
        print(f"{len(names)} files, {'all identical' if identical else 'NOT all identical'} "
              f"({args.base} against the working tree)")
        return 0 if identical else 1
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
