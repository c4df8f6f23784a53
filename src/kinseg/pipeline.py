"""End-to-end pipeline: ingest, embed, infer, segment, evaluate.

``run_pipeline`` drives one session from an input file (quaternions,
axis-angle tuples or precomputed embeddings) through decimation,
run-length inference, reset detection and segment construction, writing
all artifacts to an output directory. ``run_variant_sweep`` replays
seeded simulated sessions under the pipeline variants (embedding source
paired with its prior, postprocessing on or off) and aggregates the
evaluation metrics.
"""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import bocpd, kinematics, metrics, segmentation, simulate, tables

OUTPUT_DIR_ENV = "KINSEG_OUT_DIR"

#: The prior each embedding source pairs with by default.
PAIRED_PRIOR = {"adr": "informative", "external": "noninformative"}

#: The four pipeline variants: embedding source (with its paired prior)
#: crossed with postprocessing on/off. Order is fixed for deterministic
#: sweep output.
VARIANTS = {
    "adr_post": ("adr", "informative", True),
    "adr_nopost": ("adr", "informative", False),
    "external_post": ("external", "noninformative", True),
    "external_nopost": ("external", "noninformative", False),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved configuration of one pipeline run; echoed into reports."""

    input_path: str
    output_dir: str
    embedding_source: str = "adr"  # "adr" | "external"
    prior_kind: str = "informative"  # "informative" | "noninformative"
    decimation: int = 100
    hazard_p: float = 0.01
    postprocess: bool = True
    log_threshold: float = 0.3
    min_run: float = 20.0
    tolerance: int = 3
    sigma_epsilon: float = 1e-8
    prune_threshold: float | None = None
    labels_path: str | None = None

    def __post_init__(self):
        if self.embedding_source not in ("adr", "external"):
            raise ValueError(f"unknown embedding source {self.embedding_source!r}")
        if self.prior_kind not in ("informative", "noninformative"):
            raise ValueError(f"unknown prior kind {self.prior_kind!r}")
        for name in ("decimation", "hazard_p", "log_threshold", "min_run", "tolerance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.prune_threshold is not None and not 0.0 < self.prune_threshold < 1.0:
            raise ValueError("prune_threshold must lie in (0, 1)")


def _make_prior(kind: str, sigma_epsilon: float) -> bocpd.NormalWishartParams:
    if kind == "informative":
        return bocpd.informative_prior()
    return bocpd.noninformative_prior(epsilon=sigma_epsilon)


def _atomic_write(path: str, write_fn) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_embedding_series(config: PipelineConfig, data) -> kinematics.EmbeddingSeries:
    """The decimated embedding series of an input file read by
    ``kinematics.read_orientation_csv`` into (kind, timestamps, values)."""
    kind, timestamps, values = data
    if config.embedding_source == "adr":
        if kind == "quaternion":
            axes, angles = kinematics.quaternion_series_to_axis_angle(values)
            values = kinematics.adr_embed(axes, angles)
        elif kind == "axisangle":
            values = kinematics.adr_embed(values[:, :3], values[:, 3])
        # embedding input passes through; the shell-norm invariant check
        # below rejects files that are not actually in the radial space
        series = kinematics.EmbeddingSeries(values, timestamps, source="adr")
    else:
        if kind != "embedding":
            raise ValueError(
                "the external embedding source needs a t,o1,o2,o3 input file"
            )
        series = kinematics.EmbeddingSeries(
            values, timestamps, source="external", unconstrained=True
        )
    return series.decimated(config.decimation)


def analyse_series(values, config: PipelineConfig):
    """Inference and segmentation on an embedding array.

    Returns (posterior, raw trace, postprocessed trace, retained events,
    segments). The detection trace is the postprocessed one when
    postprocessing is enabled, otherwise the raw trace. Trace step k
    reflects the first k observations, so detected events are shifted to
    the index of the observation that triggered them (step k observes
    sample k - 1); all emitted indices are 0-based sample indices
    comparable with ground-truth labels.
    """
    prior = _make_prior(config.prior_kind, config.sigma_epsilon)
    hazard = bocpd.HazardConfig(config.hazard_p)
    posterior = bocpd.run_inference(values, prior, hazard, config.prune_threshold)
    raw_trace = segmentation.lms_estimate(posterior)
    post_trace = segmentation.postprocess_runlength(raw_trace)
    detection_trace = post_trace if config.postprocess else raw_trace
    events = segmentation.detect_resets(detection_trace, config.log_threshold)
    retained = segmentation.filter_repetitive_resets(events, config.min_run)
    shifted = [replace(e, index=e.index - 1) for e in retained]
    segments = segmentation.build_segments(shifted)
    return posterior, raw_trace, post_trace, shifted, segments


def run_pipeline(config: PipelineConfig, data=None) -> dict:
    """Run one full session and write artifacts into the output directory.

    Writes segments.csv, runlength.csv, posterior.csv, posterior.pgm and
    report.json (all atomically, after the computation has succeeded).
    When a labels file is configured the report carries detection and
    segmentation metrics against it. ``data`` is the input file as
    ``kinematics.read_orientation_csv`` returns it, for a caller that
    has already read it; otherwise the file is read here.
    """
    if data is None:
        data = kinematics.read_orientation_csv(config.input_path)
    series = load_embedding_series(config, data)
    ground_truth = (
        metrics.read_labels_csv(config.labels_path) if config.labels_path else None
    )
    posterior, raw_trace, post_trace, retained, segments = analyse_series(
        series.values, config
    )

    report = segmentation.segmentation_report(segments, raw_trace, post_trace, asdict(config))
    report["series"] = {
        "length": len(series),
        "source": series.source,
        "decimation": config.decimation,
    }
    if ground_truth is not None:
        evaluation = metrics.evaluate_segmentation(segments, ground_truth, config.tolerance)
        report["metrics"] = evaluation.as_dict()
    else:
        report["metrics"] = None

    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    _atomic_write(os.path.join(out, "segments.csv"),
                  lambda p: segmentation.segments_to_csv(segments, p))
    _atomic_write(os.path.join(out, "runlength.csv"),
                  lambda p: segmentation.write_runlength_csv(p, raw_trace, post_trace))
    _atomic_write(os.path.join(out, "posterior.csv"),
                  lambda p: bocpd.posterior_to_csv(posterior, p))
    _atomic_write(os.path.join(out, "posterior.pgm"),
                  lambda p: bocpd.posterior_to_pgm(posterior, p))
    _atomic_write(os.path.join(out, "report.json"),
                  lambda p: segmentation.report_to_json(report, p))
    return report


def variant_settings(variant: str) -> dict:
    """Embedding source, paired prior and postprocessing flag of a variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return dict(zip(("embedding_source", "prior_kind", "postprocess"), VARIANTS[variant]))


def _evaluate_variant_on_session(session, variant: str, base: PipelineConfig) -> dict:
    config = replace(base, **variant_settings(variant))
    *_, segments = analyse_series(session.series.values, config)
    evaluation = metrics.evaluate_segmentation(segments, session.segments, config.tolerance)
    return {
        "variant": variant,
        "ppv": evaluation.ppv,
        "se": evaluation.se,
        "f1": evaluation.f1,
        "pearson_r": evaluation.pearson,
    }


def _sweep_one_seed(args):
    session_config, variants, base = args
    session = simulate.generate_session(session_config)
    return [
        dict(_evaluate_variant_on_session(session, v, base), seed=session_config.seed)
        for v in variants
    ]


def run_variant_sweep(
    session_config: simulate.SessionConfig,
    seeds,
    base: PipelineConfig,
    variants=VARIANTS,
    workers: int = 1,
) -> dict:
    """Run the selected variants over seeded sessions and aggregate.

    Every variant sees the identical session per seed (the external
    variants reuse the same embedding values, flagged unconstrained, with
    the noninformative prior). Returns per-session rows and per-variant
    means; row order is deterministic regardless of worker scheduling.
    """
    variants = tuple(variants)
    for v in variants:
        variant_settings(v)
    jobs = [
        (replace(session_config, seed=int(seed)), variants, base) for seed in seeds
    ]
    if workers > 1:
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


def _write_sweep_table(path, columns, rows) -> None:
    _atomic_write(str(path), lambda p: tables.write_csv(
        p, columns, ([row[c] for c in columns] for row in rows), lineterminator="\n"
    ))


def write_sweep_csv(sweep: dict, path) -> None:
    """Aggregate table as CSV, one row per variant."""
    _write_sweep_table(path, ("variant", "sessions", "mean_ppv", "mean_se", "mean_f1",
                              "mean_pearson_r"), sweep["aggregate"])


def write_session_rows_csv(sweep: dict, path) -> None:
    """One flat CSV row per (variant, session) for downstream aggregation."""
    _write_sweep_table(path, ("variant", "seed", "ppv", "se", "f1", "pearson_r"),
                       sweep["sessions"])


def write_sweep_json(sweep: dict, path) -> None:
    _atomic_write(str(path), lambda p: tables.write_json(p, sweep))
