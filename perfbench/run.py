"""Benchmark of the kinseg command line interface.

Run from the root of a kinseg checkout:

    python3 perfbench/run.py --workload night-pruned --seed 1 --seconds 50 --trace 0

Set-up makes the workload's input files from the seed (by calling the
CLI), then the run repeats one operation at a time, each a set of fresh
``python3 -m kinseg.cli`` processes measured with ``os.wait4``, for
about ``--seconds`` (at least one operation). Every operation's
outputs are checked. ``--trace 1`` adds one operation run under
``tracing.py`` and reports the per-layer metrics of that operation in
place of the end-to-end ones. The last line of standard output is the
JSON result; see README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

import tracing

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracing.py")

SETUP_REPEATS = 5
F1_GATE = 0.95
PEARSON_GATE = 0.90
# simulate draws each segment's length; fixing it fixes a session's size, so
# the seed changes what a generated session holds but not how much work it is
FIXED_LENGTHS = ["--min-duration", "40", "--max-duration", "40",
                 "--min-transition", "2", "--max-transition", "2"]


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("KINSEG_OUT_DIR", None)  # it would redirect every output directory
    # one client, one core: keep BLAS from adding threads of its own
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Child:
    """One finished CLI process: wall and CPU seconds, peak RSS, exit code, output."""

    def __init__(self, cli_argv, log_path, spans_path=None):
        if spans_path is None:
            cmd = [sys.executable, "-m", "kinseg.cli", *cli_argv]
        else:
            cmd = [sys.executable, TRACER, spans_path, *cli_argv]
        with open(log_path, "w+b") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.wall = time.perf_counter() - start
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            log.seek(0)
            self.output = log.read().decode(errors="replace")
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def cli(argv, work) -> None:
    """Run a set-up CLI call; raise if it fails."""
    child = Child(argv, os.path.join(work, "setup.log"))
    if child.code != 0:
        raise RuntimeError(f"set-up call kinseg {' '.join(argv)} failed: {child.output}")


def dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def truncate_labels(src, dst, steps) -> None:
    """Keep the segments whose changepoint (the first sample after the
    segment) lies inside the first ``steps`` samples."""
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows([rows[0]] + [r for r in rows[1:] if int(r[1]) < steps])


def check_run(out, gated) -> tuple[list, dict | None, bytes]:
    """Problems, quality and the bytes that must repeat, of a ``kinseg run``."""
    try:
        with open(os.path.join(out, "report.json")) as fh:
            m = json.load(fh)["metrics"]
        with open(os.path.join(out, "segments.csv"), "rb") as fh:
            segments = fh.read()
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable run output: {exc}"], None, b""
    problems = gate(m["f1"], m["pearson_r"]) if gated else []
    return problems, {"f1": m["f1"], "pearson_r": m["pearson_r"]}, segments


def gate(f1, pearson) -> list:
    """The acceptance gates on detection quality. They hold for a score over
    a few hundred segments (a full night); a single
    session of ~25 segments can fall below them with three detection errors,
    so those runs report their quality without gating it."""
    problems = []
    if not f1 >= F1_GATE:
        problems.append(f"f1 {f1} below {F1_GATE}")
    if pearson is None or not pearson >= PEARSON_GATE:
        problems.append(f"pearson_r {pearson} below {PEARSON_GATE}")
    return problems


class NightPruned:
    """A full night of embedding-level samples, pruned recursion, dense writers."""

    def __init__(self, steps=8640, postures=30, replications=8):
        self.params = (steps, postures, replications)

    def prepare(self, work, seed):
        steps, postures, replications = self.params
        sim = os.path.join(work, "sim")
        cli(["simulate", "--seed", str(seed), "--postures", str(postures),
             "--replications", str(replications), "--out", sim], work)
        # simulate draws every segment length, so cut to a fixed size: the
        # seed then varies the content of the night, not its length
        self.session = os.path.join(work, "session.csv")
        with open(os.path.join(sim, "session.csv")) as src, open(self.session, "w") as dst:
            lines = src.readlines()
            if len(lines) <= steps:
                raise RuntimeError(f"simulated night has only {len(lines) - 1} samples")
            dst.writelines(lines[:steps + 1])
        self.labels = os.path.join(work, "labels.csv")
        truncate_labels(os.path.join(sim, "labels.csv"), self.labels, steps)
        self.input_rows = steps

    def commands(self, out):
        return [["run", "--input", self.session, "--labels", self.labels,
                 "--embedding", "adr", "--decimation", "1", "--prune", "1e-12",
                 "--out", out]]

    def check(self, out, outputs):
        return check_run(out, gated=True)


class SensorIO:
    """The 30 Hz side of the program: the generators write the synthetic
    orientation dataset and a 30 Hz session, then ``kinseg run`` ingests a
    session in the sensor's t,qw,qx,qy,qz format on the exact path."""

    def __init__(self, steps=1000, postures=12, replications=3, factor=100,
                 resolution=15, angles=36):
        self.params = (steps, postures, replications, factor, resolution, angles)

    def prepare(self, work, seed):
        steps, postures, replications, factor = self.params[:4]
        self.seed = seed
        self.size = ["--postures", str(postures), "--replications", str(replications)]
        sim = os.path.join(work, "sim")
        cli(["simulate", "--seed", str(seed), "--level", "axis-angle", *self.size,
             "--decimation", str(factor), "--out", sim], work)
        rows = steps * factor
        data = np.loadtxt(os.path.join(sim, "session.csv"), delimiter=",",
                          skiprows=1, max_rows=rows, ndmin=2)
        if len(data) < rows:
            raise RuntimeError(f"simulated session has only {len(data)} rows")
        half = 0.5 * data[:, 4]
        quats = np.column_stack([data[:, 0], np.cos(half), np.sin(half)[:, None] * data[:, 1:4]])
        self.session = os.path.join(work, "session.csv")
        np.savetxt(self.session, quats, fmt="%.17g", delimiter=",",
                   header="t,qw,qx,qy,qz", comments="")
        self.labels = os.path.join(work, "labels.csv")
        truncate_labels(os.path.join(sim, "labels.csv"), self.labels, steps)
        self.input_rows = rows

    def commands(self, out):
        factor, resolution, angles = self.params[3:]
        return [["synthgen", "--resolution", str(resolution), "--angles", str(angles),
                 "--out", os.path.join(out, "orientations.csv"),
                 "--axes-out", os.path.join(out, "axes.csv")],
                ["simulate", "--seed", str(self.seed), "--level", "axis-angle",
                 *self.size, *FIXED_LENGTHS, "--out", os.path.join(out, "session")],
                ["run", "--input", self.session, "--labels", self.labels,
                 "--decimation", str(factor), "--out", os.path.join(out, "run")]]

    def check(self, out, outputs):
        resolution, angles = self.params[4:]
        axes = 6 * resolution ** 2
        expected = f"axes={axes} orientations={axes * angles} "
        problems, quality, segments = check_run(os.path.join(out, "run"), gated=False)
        if expected not in outputs[0]:
            problems.append(f"synthgen did not print {expected!r}")
        digest = hashlib.sha256(segments)
        for d, _, files in sorted(os.walk(out)):
            if os.path.basename(d) == "run":  # its segments are in the digest already
                continue
            for f in sorted(files):
                with open(os.path.join(d, f), "rb") as fh:
                    digest.update(f.encode() + b"\0" + fh.read())
        return problems, quality, digest.digest()


WORKLOADS = {
    "night-pruned": NightPruned,
    "sensor-io": SensorIO,
}


class Op:
    """One operation: its CLI processes, summed or maxed, and its checks."""

    def __init__(self, workload, out, work, traced):
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        commands = workload.commands(out)
        self.spans = []
        children = []
        for i, argv in enumerate(commands):
            spans_path = os.path.join(work, f"spans-{i}.json") if traced else None
            children.append(Child(argv, os.path.join(work, f"op-{i}.log"), spans_path))
            if traced and os.path.exists(spans_path):
                self.spans.append(tracing.load(spans_path))
        self.wall = sum(c.wall for c in children)
        self.cpu = sum(c.cpu for c in children)
        self.rss_mb = max(c.rss_mb for c in children)
        self.output_bytes = dir_bytes(out)
        self.problems = [f"kinseg {argv[0]} exited {c.code}: {c.output[-500:]}"
                         for argv, c in zip(commands, children) if c.code]
        if len(self.spans) != (len(commands) if traced else 0):
            self.problems.append("a traced process wrote no spans")
        self.quality, self.repeat = None, b""
        if not self.problems:
            problems, self.quality, self.repeat = workload.check(out, [c.output for c in children])
            self.problems += problems


def setup_seconds() -> list[float]:
    """Seconds a fresh interpreter spends in ``import kinseg.cli``."""
    code = ("import time; t = time.perf_counter(); import kinseg.cli; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first may compile bytecode: not kept
        done = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"import kinseg.cli failed: {done.stderr}")
        if i:
            times.append(float(done.stdout))
    return times


def source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "kinseg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def check_counts_repeat(name, workload, seed, layer) -> list:
    """Compare the exact counts with those of an earlier traced run of the
    same sources, workload and seed in this checkout; record them if new."""
    counts = {k: layer[k] for k in tracing.EXACT_COUNTS}
    key = hashlib.sha256(repr((name, workload.params, seed, source_digest())).encode())
    path = os.path.join(WORK, "counts", key.hexdigest()[:24] + ".json")
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        return [f"{k} is {counts[k]}, an earlier run counted {earlier.get(k)}"
                for k in counts if earlier.get(k) != counts[k]]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(counts, fh, sort_keys=True)
    return []


def per_layer(name, workload, seed, traced, untraced_wall) -> dict:
    """Per-layer metrics of the traced operation; adds its check failures."""
    for spans in traced.spans:
        traced.problems += tracing.check_nesting(spans)
    layer = tracing.layer_metrics(traced.spans)
    layer["trace.overhead_s"] = traced.wall - untraced_wall
    reads, rows = layer["kinematics.read_calls"], layer["kinematics.rows_read"]
    if rows != reads * workload.input_rows:
        traced.problems.append(f"read {rows} rows in {reads} reads of a "
                               f"{workload.input_rows}-row input")
    traced.problems += check_counts_repeat(name, workload, seed, layer)
    return layer


def fingerprint() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "machine": platform.machine()}


def median(values) -> float:
    """Median of the values that are not None; 0 when there are none."""
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def measure(name, workload, seed, seconds, trace):
    """Set up, run the closed loop, check; return (result, samples)."""
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup = setup_seconds()
        workload.prepare(work, seed)
        out = os.path.join(work, "out")
        timed = []
        start = time.perf_counter()
        # start another operation only if it should end by the deadline, so a
        # run measures about ``seconds`` however long one operation takes
        while not timed or time.perf_counter() - start + timed[-1].wall <= seconds:
            timed.append(Op(workload, out, work, traced=False))
        ops = timed + ([Op(workload, out, work, traced=True)] if trace else [])
        qualities = [op.quality for op in ops]
        for op in ops[1:]:
            if op.repeat != ops[0].repeat:
                op.problems.append("checked outputs differ from the first operation's")
            if op.output_bytes != ops[0].output_bytes:
                op.problems.append(f"wrote {op.output_bytes} bytes, the first operation "
                                   f"wrote {ops[0].output_bytes}")
        if trace:
            values = per_layer(name, workload, seed, ops[-1],
                               median(op.wall for op in timed))
        else:
            values = {
                "setup_s": median(setup),
                "wall_s": median(op.wall for op in timed),
                "cpu_s": median(op.cpu for op in timed),
                "peak_rss_mb": median(op.rss_mb for op in timed),
                "output_mb": median(op.output_bytes / 1e6 for op in timed),
                "f1": median(q and q["f1"] for q in qualities),
                "pearson_r": median(q and q["pearson_r"] for q in qualities),
                "success_rate": sum(not op.problems for op in ops) / len(ops),
            }
        failed = [op for op in ops if op.problems]
        for i, op in enumerate(ops):
            for problem in op.problems:
                print(f"operation {i}: {problem}", file=sys.stderr)
        samples = {
            "operations": len(timed),
            "setup_s": setup,
            "wall_s": [op.wall for op in timed],
            "cpu_s": [op.cpu for op in timed],
            "peak_rss_mb": [op.rss_mb for op in timed],
        }
        result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
                  "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}}
        return result, samples
    finally:
        shutil.rmtree(work, ignore_errors=True)


UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
         "output_mb": "MB", "f1": "ratio", "pearson_r": "ratio", "success_rate": "ratio",
         "bocpd.step_us": "us"}


def unit_of(metric) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "s" if metric.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kinseg", "cli.py")):
        print(f"error: no kinseg sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    seed = args.seed % 2 ** 31  # simulate takes a non-negative seed
    result, samples = measure(args.workload, WORKLOADS[args.workload](), seed,
                              args.seconds, args.trace)
    print(json.dumps({"workload": args.workload, "seed": seed, "fingerprint": fingerprint(),
                      "samples": samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
