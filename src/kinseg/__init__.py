"""Bayesian inactivity detection and segmentation for joint-orientation timeseries."""

from .bocpd import (
    HazardConfig,
    NormalWishartParams,
    RunLengthPosterior,
    brute_force_posterior,
    infer_posterior,
    informative_prior,
    log_predictive,
    noninformative_prior,
    nw_posterior_params,
    step,
)
from .kinematics import (
    EmbeddingSeries,
    adr_embed,
    adr_invert,
    decimate,
    quaternion_series_to_axis_angle,
)
from .metrics import (
    EvaluationReport,
    GroundTruthSegment,
    detection_metrics,
    evaluate_segmentation,
    match_changepoints,
    pearson_r,
)
from .pipeline import PipelineConfig, run_pipeline, run_variant_sweep
from .segmentation import (
    ChangepointEvent,
    Segment,
    build_segments,
    detect_resets,
    filter_repetitive_resets,
    lms_estimate,
    postprocess_runlength,
)
from .simulate import LabeledSession, SessionConfig, generate_session, generate_session_axis_angle
from .synthgen import (
    build_cube_mesh,
    build_face_grid,
    generate_angle_set,
    generate_synthetic_dataset,
    project_ellipsoidal,
    project_euclidean,
)

__version__ = "0.1.0"
