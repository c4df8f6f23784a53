"""Span tracing of the kinseg CLI from outside the program.

As a script, this runs one CLI call with every public function of the
kinseg modules wrapped in a timing span, and writes the spans to a JSON
file:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json run --input ...

Callers inside kinseg look functions up on their module at call time, so
replacing the module attribute is enough to see every call. Methods and
private helpers are not wrapped: their time is self time of the caller.

Imported, it turns span files into the per-layer metrics and checks that
the spans nest.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

LAYERS = ("cli", "pipeline", "kinematics", "bocpd", "segmentation",
          "metrics", "simulate", "synthgen")

# The count recorded on a span, from the wrapped function's result.
COUNTS = {
    "kinematics.read_orientation_csv": lambda r: len(r[1]),  # rows read
    "bocpd.step": len,  # live hypotheses after the step, before pruning
    "bocpd.run_inference": lambda r: r.size,  # posterior cells computed
    "segmentation.detect_resets": len,  # reset events detected
    "synthgen.export_dataset_csv": int,  # rows written
    "synthgen.export_axes_csv": int,
}

# Metric -> span names whose time it sums. A span nested in another span
# of the same metric is not counted twice.
TIMES = {
    "kinematics.read_s": ("kinematics.read_orientation_csv",),
    "kinematics.convert_s": ("kinematics.quaternion_series_to_axis_angle",
                             "kinematics.adr_embed"),
    "kinematics.write_s": ("kinematics.write_embedding_csv",
                           "kinematics.write_axis_angle_csv"),
    "synthgen.export_s": ("synthgen.export_dataset_csv", "synthgen.export_axes_csv"),
    "synthgen.geometry_s": ("synthgen.build_cube_mesh", "synthgen.build_face_grid",
                            "synthgen.project_ellipsoidal", "synthgen.project_euclidean",
                            "synthgen.dedupe_axes", "synthgen.generate_angle_set",
                            "synthgen.generate_synthetic_dataset"),
    "bocpd.step_s": ("bocpd.step",),
    "bocpd.posterior_csv_s": ("bocpd.posterior_to_csv",),
    "bocpd.posterior_pgm_s": ("bocpd.posterior_to_pgm",),
    "segmentation.lms_s": ("segmentation.lms_estimate",),
    "segmentation.detect_s": ("segmentation.postprocess_runlength",
                              "segmentation.detect_resets",
                              "segmentation.filter_repetitive_resets",
                              "segmentation.build_segments"),
    "segmentation.write_s": ("segmentation.segments_to_csv",
                             "segmentation.write_runlength_csv",
                             "segmentation.report_to_json"),
    "simulate.generate_s": ("simulate.generate_session",
                            "simulate.generate_session_axis_angle"),
    "metrics.evaluate_s": ("metrics.evaluate_segmentation",),
    "pipeline.analyse_s": ("pipeline.analyse_series",),
}

# Metric -> prefix of the span names whose self time it sums.
SELF_TIMES = {
    "bocpd.inference_s": "bocpd.run_inference",
    "pipeline.self_s": "pipeline.",
    "cli.self_s": "cli.",
}

# Counts that depend only on the inputs and the code, never on timing.
EXACT_COUNTS = (
    "kinematics.read_calls", "kinematics.rows_read", "bocpd.steps", "bocpd.live_max",
    "bocpd.live_mean", "bocpd.posterior_cells", "segmentation.events",
    "metrics.evaluations", "synthgen.rows", "simulate.sessions",
)


def _install(spans: list) -> None:
    """Wrap the public functions of every layer so each call records a span.

    A span is [name, parent index or -1, start, end, count].
    """
    stack = [-1]

    def wrap(name, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1], 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(result)
            return result

        return traced

    for layer in LAYERS:
        module = importlib.import_module(f"kinseg.{layer}")
        for attr, fn in list(vars(module).items()):
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not attr.startswith("_")):
                setattr(module, attr, wrap(f"{layer}.{attr}", fn))


def _child_main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    spans: list = []
    _install(spans)
    from kinseg import cli  # the wrapped module attribute, so main is the root span

    try:
        return cli.main(cli_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(spans, fh)


def load(path) -> list:
    with open(path) as fh:
        return json.load(fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_nesting(spans) -> list[str]:
    """Problems with the span tree: one root, children inside their parent
    and not overlapping each other, self times summing to the root."""
    problems = []
    roots = [i for i, s in enumerate(spans) if s[1] < 0]
    if len(roots) != 1 or spans[roots[0]][0] != "cli.main":
        problems.append(f"expected one cli.main root span, got {len(roots)} roots")
    last_child_end = {}
    for i, (name, parent, start, end, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if parent >= i or start < p[2] or end > p[3]:
                problems.append(f"span {i} {name} is not inside its parent {p[0]}")
            if start < last_child_end.get(parent, start):
                problems.append(f"span {i} {name} overlaps a sibling")
            last_child_end[parent] = end
    if roots:
        root = spans[roots[0]]
        total = sum(self_times(spans))
        if abs(total - (root[3] - root[2])) > 1e-6:
            problems.append(f"self times sum to {total}, root span is {root[3] - root[2]}")
    return problems


def layer_metrics(span_lists) -> dict:
    """Per-layer metrics over the span files of one operation (one file per
    CLI process): every per-layer metric but ``trace.overhead_s``."""
    names, durations, counts, own = [], [], [], []
    outer = []  # per span: the set of TIMES metrics an ancestor already counts
    for spans in span_lists:
        offset = len(names)
        own += self_times(spans)
        for name, parent, start, end, count in spans:
            covered = set()
            if parent >= 0:
                p = offset + parent
                covered = outer[p] | {m for m, group in TIMES.items() if names[p] in group}
            names.append(name)
            durations.append(end - start)
            counts.append(count)
            outer.append(covered)

    def spans_named(name):
        return [i for i, n in enumerate(names) if n == name]

    out = {}
    for metric, group in TIMES.items():
        out[metric] = sum(d for n, d, c in zip(names, durations, outer)
                          if n in group and metric not in c)
    for metric, prefix in SELF_TIMES.items():
        out[metric] = sum(t for n, t in zip(names, own) if n.startswith(prefix))

    reads = spans_named("kinematics.read_orientation_csv")
    steps = spans_named("bocpd.step")
    live = [counts[i] for i in steps if counts[i] is not None]
    out["kinematics.read_calls"] = len(reads)
    out["kinematics.rows_read"] = sum(counts[i] or 0 for i in reads)
    out["bocpd.steps"] = len(steps)
    out["bocpd.step_us"] = (statistics.median(durations[i] for i in steps) * 1e6
                            if steps else 0.0)
    out["bocpd.live_max"] = max(live, default=0)
    out["bocpd.live_mean"] = round(sum(live) / len(live), 6) if live else 0.0
    out["bocpd.posterior_cells"] = sum(counts[i] or 0 for i in spans_named("bocpd.run_inference"))
    out["segmentation.events"] = sum(counts[i] or 0 for i in spans_named("segmentation.detect_resets"))
    out["simulate.sessions"] = len(spans_named("simulate.generate_session"))
    out["metrics.evaluations"] = len(spans_named("metrics.evaluate_segmentation"))
    out["synthgen.rows"] = sum(counts[i] or 0 for i, n in enumerate(names)
                               if n in TIMES["synthgen.export_s"])
    out["trace.in_process_s"] = sum(durations[i] for i in spans_named("cli.main"))
    return out


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
