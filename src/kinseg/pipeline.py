"""End-to-end pipeline: ingest, embed, infer, segment, evaluate.

``load_embedding_series`` embeds and decimates an input file
(quaternions, axis-angle tuples or precomputed embeddings) read by
``kinematics.read_orientation_csv``; ``run_pipeline`` drives that series
through run-length inference, reset detection and segment construction,
writing all artifacts to an output directory; ``analyse_series`` is
inference (``infer_trace``) then decision (``segment_trace``).
``run_variant_sweep`` replays seeded simulated sessions under the
pipeline variants (a prior crossed with postprocessing on or off),
infers once per prior, segments once per variant and aggregates the
evaluation metrics, and ``write_sweep`` writes its three files.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import bocpd, kinematics, metrics, segmentation, simulate, tables

OUTPUT_DIR_ENV = "KINSEG_OUT_DIR"

#: The four pipeline variants: embedding source (with its paired prior)
#: crossed with postprocessing on/off. Order is fixed for deterministic
#: sweep output.
VARIANTS = {
    "adr_post": ("adr", "informative", True),
    "adr_nopost": ("adr", "informative", False),
    "external_post": ("external", "noninformative", True),
    "external_nopost": ("external", "noninformative", False),
}

#: The prior each embedding source pairs with by default.
PAIRED_PRIOR = {source: prior for source, prior, _ in VARIANTS.values()}

#: The largest embedding coordinate accepted, in magnitude: its square leaves
#: a window's scatter room below float64's 1.8e308. A coordinate of 1e153
#: (1e155 under the informative prior) underflows every run-length hypothesis.
MAX_COORDINATE = 1e150


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved configuration of one pipeline run; echoed into reports."""

    input_path: str
    output_dir: str
    embedding_source: str = "adr"  # "adr" | "external"
    prior_kind: str = "informative"  # "informative" | "noninformative"
    decimation: int = 100
    hazard_p: float = bocpd.HazardConfig.p
    postprocess: bool = True
    log_threshold: float = segmentation.DEFAULT_LOG_DROP
    min_run: float = segmentation.DEFAULT_MIN_RUN
    tolerance: int = 3
    sigma_epsilon: float = 1e-8
    prune_threshold: float | None = None
    labels_path: str | None = None

    def __post_init__(self):
        if self.embedding_source not in ("adr", "external"):
            raise ValueError(f"unknown embedding source {self.embedding_source!r}")
        if self.prior_kind not in ("informative", "noninformative"):
            raise ValueError(f"unknown prior kind {self.prior_kind!r}")
        for name in ("log_threshold", "min_run", "tolerance", "sigma_epsilon"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        kinematics.integer_factor("decimation factor", self.decimation)
        bocpd.HazardConfig(self.hazard_p)
        if self.prune_threshold is not None and not 0.0 < self.prune_threshold < 1.0:
            raise ValueError("prune_threshold must lie in (0, 1)")


def _make_prior(kind: str, sigma_epsilon: float) -> bocpd.NormalWishartParams:
    if kind == "informative":
        return bocpd.informative_prior()
    return bocpd.noninformative_prior(epsilon=sigma_epsilon)


def load_embedding_series(config: PipelineConfig, data) -> kinematics.EmbeddingSeries:
    """The decimated embedding series of an input file read by
    ``kinematics.read_orientation_csv`` into (kind, timestamps, values).
    The series holds arrays of its own, none of them views of ``data``.
    A coordinate past ``MAX_COORDINATE`` is a ValueError naming its row."""
    kind, timestamps, values = data
    adr = config.embedding_source == "adr"
    if not adr and kind != "embedding":
        raise ValueError("the external embedding source needs a t,o1,o2,o3 input file")
    if adr and kind == "quaternion":
        values = kinematics.adr_embed(*kinematics.quaternion_series_to_axis_angle(values))
    elif adr and kind == "axisangle":
        values = kinematics.adr_embed(values[:, :3], values[:, 3])
    series = kinematics.EmbeddingSeries(values, timestamps)
    if adr and kind == "embedding":  # adr_embed's own output is in the shell by construction
        kinematics.shell_norms(series.values)
    huge = np.flatnonzero((np.abs(series.values) > MAX_COORDINATE).any(axis=1))
    if huge.size:
        raise ValueError(f"embedding coordinate above {MAX_COORDINATE:g} in magnitude at data "
                         f"row {huge[0] + 1}")
    return kinematics.decimate(series, config.decimation)


def infer_trace(values, config: PipelineConfig):
    """(posterior, raw LMS run-length trace) of an embedding array; only
    the prior, ``sigma_epsilon``, the hazard and the pruning act here."""
    prior = _make_prior(config.prior_kind, config.sigma_epsilon)
    hazard = bocpd.HazardConfig(config.hazard_p)
    posterior = bocpd.infer_posterior(values, prior, hazard, config.prune_threshold)
    return posterior, segmentation.lms_estimate(posterior)


def segment_trace(raw_trace, config: PipelineConfig):
    """(postprocessed trace, segments) of a raw trace;
    only the postprocess, ``log_threshold`` and ``min_run`` settings act.

    Detection reads the postprocessed trace when postprocessing is
    enabled, otherwise the raw one. Trace step k reflects the first k
    observations, so events are shifted to the observation that triggered
    them (step k observes sample k - 1): emitted indices are 0-based
    sample indices comparable with ground-truth labels.
    """
    post_trace = segmentation.postprocess_runlength(raw_trace)
    detection_trace = post_trace if config.postprocess else raw_trace
    events = segmentation.detect_resets(detection_trace, config.log_threshold)
    retained = segmentation.filter_repetitive_resets(events, config.min_run)
    shifted = [replace(e, index=e.index - 1) for e in retained]
    return post_trace, segmentation.build_segments(shifted)


def analyse_series(values, config: PipelineConfig):
    """``infer_trace`` then ``segment_trace``: (posterior, raw trace,
    postprocessed trace, segments)."""
    posterior, raw_trace = infer_trace(values, config)
    return (posterior, raw_trace, *segment_trace(raw_trace, config))


def run_pipeline(config: PipelineConfig, series: kinematics.EmbeddingSeries) -> dict:
    """Run one full session and write artifacts into the output directory.

    ``series`` is the input file's ``load_embedding_series``. Writes
    segments.csv, runlength.csv, posterior.csv, posterior.pgm and
    report.json (all atomically, after the computation has succeeded).
    When a labels file is configured the report carries detection and
    segmentation metrics against it.
    """
    ground_truth = (
        metrics.read_labels_csv(config.labels_path) if config.labels_path else None
    )
    posterior, raw_trace, post_trace, segments = analyse_series(series.values, config)

    report = {
        "config": asdict(config),
        "series": {"length": len(series), "source": config.embedding_source,
                   "decimation": config.decimation},
        "trace": {
            "length": int(raw_trace.size),
            "max_raw": float(raw_trace.max()),
            "max_postprocessed": float(post_trace.max()),
            "final_postprocessed": float(post_trace[-1]),
        },
        "segments": [{"changepoint": s.changepoint, "duration": s.duration, "start": s.start}
                     for s in segments],
        "metrics": None if ground_truth is None else metrics.evaluate_segmentation(
            segments, ground_truth, config.tolerance).as_dict(),
    }

    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    segmentation.segments_to_csv(segments, os.path.join(out, "segments.csv"))
    segmentation.write_runlength_csv(os.path.join(out, "runlength.csv"), raw_trace, post_trace)
    bocpd.posterior_to_csv(posterior, os.path.join(out, "posterior.csv"))
    bocpd.posterior_to_pgm(posterior, os.path.join(out, "posterior.pgm"))
    segmentation.report_to_json(report, os.path.join(out, "report.json"))
    return report


def variant_settings(variant: str) -> dict:
    """Embedding source, paired prior and postprocessing flag of a variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return dict(zip(("embedding_source", "prior_kind", "postprocess"), VARIANTS[variant]))


def _sweep_one_seed(args):
    session_config, variants, base = args
    session = simulate.generate_session(session_config)
    raw_traces, rows = {}, []  # the prior is the one inference setting a variant sets
    for variant in variants:
        config = replace(base, **variant_settings(variant))
        if config.prior_kind not in raw_traces:
            raw_traces[config.prior_kind] = infer_trace(session.series.values, config)[1]
        _, segments = segment_trace(raw_traces[config.prior_kind], config)
        scores = metrics.evaluate_segmentation(segments, session.segments, config.tolerance)
        rows.append({"variant": variant, "ppv": scores.ppv, "se": scores.se, "f1": scores.f1,
                     "pearson_r": scores.pearson, "seed": session_config.seed})
    return rows


def run_variant_sweep(
    session_config: simulate.SessionConfig,
    seeds,
    base: PipelineConfig,
    variants=VARIANTS,
    workers: int = 1,
) -> dict:
    """Run the selected variants over seeded sessions and aggregate.

    Every variant sees the identical session per seed (the external
    variants reuse the same embedding values with the noninformative
    prior), and variants with the same prior share its raw trace. Returns
    per-session rows and per-variant means; row order is deterministic
    regardless of worker scheduling. Every argument is checked before
    the first session runs.
    """
    variants = tuple(variants)
    for i, v in enumerate(variants):
        variant_settings(v)
        if v in variants[:i]:
            raise ValueError(f"variant {v!r} is listed twice")
    jobs = [
        (replace(session_config, seed=int(seed)), variants, base) for seed in seeds
    ]
    if not jobs:
        raise ValueError("sessions must be at least 1: no seeds given")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, len(jobs))  # a pool starts all its workers at once
    if workers > 1:
        # imported here: the pool machinery costs every CLI process ~20 ms to import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(_sweep_one_seed, jobs))
    else:
        per_seed = [_sweep_one_seed(job) for job in jobs]

    rows = [row for batch in per_seed for row in batch]
    aggregate = []
    for variant in variants:
        vrows = [r for r in rows if r["variant"] == variant]
        pearsons = [r["pearson_r"] for r in vrows if r["pearson_r"] is not None]
        aggregate.append(
            {
                "variant": variant,
                "sessions": len(vrows),
                "mean_ppv": float(np.mean([r["ppv"] for r in vrows])),
                "mean_se": float(np.mean([r["se"] for r in vrows])),
                "mean_f1": float(np.mean([r["f1"] for r in vrows])),
                "mean_pearson_r": float(np.mean(pearsons)) if pearsons else None,
            }
        )
    return {"sessions": rows, "aggregate": aggregate}


def write_sweep(sweep: dict, out) -> None:
    """Write a ``run_variant_sweep`` result into ``out``, made right before
    the first write: ``sweep.csv`` (a row per variant) and ``sessions.csv``
    (a row per variant and session), both LF, then all of it as ``sweep.json``."""
    os.makedirs(out, exist_ok=True)
    for name, key, columns in (
        ("sweep.csv", "aggregate",
         ("variant", "sessions", "mean_ppv", "mean_se", "mean_f1", "mean_pearson_r")),
        ("sessions.csv", "sessions", ("variant", "seed", "ppv", "se", "f1", "pearson_r")),
    ):
        tables.write_csv(os.path.join(out, name), columns,
                         ([row[c] for c in columns] for row in sweep[key]), lineterminator="\n")
    tables.write_json(os.path.join(out, "sweep.json"), sweep)
