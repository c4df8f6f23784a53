"""Command line interface.

Subcommands:
    synthgen   generate the synthetic axis/orientation dataset
    simulate   generate a seeded labelled session
    run        run the full pipeline on an input file
    sweep      evaluate pipeline variants over seeded sessions
    eval       score a segments file against ground-truth labels

Exit codes: 0 success, 1 configuration or parse error, 2 numerical
failure, 3 I/O error. The KINSEG_OUT_DIR environment variable overrides
the output directory (and nothing else).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import kinematics, metrics, pipeline, segmentation, simulate, synthgen, tables

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class CliError(Exception):
    """Configuration or argument error; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise CliError(message)


def _output_dir(requested: str) -> str:
    return os.environ.get(pipeline.OUTPUT_DIR_ENV, requested)


def _add_session_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--postures", type=int, default=simulate.SessionConfig.postures)
    p.add_argument("--replications", type=int, default=simulate.SessionConfig.replications)
    p.add_argument("--min-duration", type=int, default=simulate.SessionConfig.duration_range[0])
    p.add_argument("--max-duration", type=int, default=simulate.SessionConfig.duration_range[1])
    p.add_argument("--min-transition", type=int, default=simulate.SessionConfig.transition_range[0])
    p.add_argument("--max-transition", type=int, default=simulate.SessionConfig.transition_range[1])
    p.add_argument("--noise", type=float, default=simulate.SessionConfig.noise_scale,
                   help="within-posture noise scale sigma")
    p.add_argument("--separation", type=float, default=simulate.SessionConfig.mean_separation,
                   help="minimum posture mean separation in sigma units")


def _add_inference_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hazard", type=float, default=pipeline.PipelineConfig.hazard_p)
    p.add_argument("--log-threshold", type=float, default=pipeline.PipelineConfig.log_threshold)
    p.add_argument("--min-run", type=float, default=pipeline.PipelineConfig.min_run)
    p.add_argument("--tolerance", type=int, default=pipeline.PipelineConfig.tolerance)
    p.add_argument("--sigma-epsilon", type=float, default=pipeline.PipelineConfig.sigma_epsilon)
    p.add_argument("--prune", type=float, default=None,
                   help="hypothesis pruning threshold (default: off)")


def _inference_settings(args) -> dict:
    """The PipelineConfig fields set by the flags of _add_inference_flags."""
    return dict(
        hazard_p=args.hazard,
        log_threshold=args.log_threshold,
        min_run=args.min_run,
        tolerance=args.tolerance,
        sigma_epsilon=args.sigma_epsilon,
        prune_threshold=args.prune,
    )


def _session_config(args, seed: int) -> simulate.SessionConfig:
    return simulate.SessionConfig(
        postures=args.postures,
        replications=args.replications,
        duration_range=(args.min_duration, args.max_duration),
        transition_range=(args.min_transition, args.max_transition),
        noise_scale=args.noise,
        mean_separation=args.separation,
        seed=seed,
    )


def _cmd_synthgen(args) -> int:
    mesh = synthgen.build_cube_mesh(args.resolution)
    project = (
        synthgen.project_ellipsoidal
        if args.projection == "ellipsoidal"
        else synthgen.project_euclidean
    )
    axes = project(mesh)
    if args.dedupe:
        axes = synthgen.dedupe_axes(axes)
    angles = synthgen.generate_angle_set(args.angles)
    rows = synthgen.export_dataset_csv(axes, angles, args.out)
    if args.axes_out:
        synthgen.export_axes_csv(axes, args.axes_out)
    print(f"axes={len(axes)} orientations={rows} wrote {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = _session_config(args, args.seed)
    factor = kinematics.integer_factor("expansion factor", args.decimation)
    if args.level == "embedding":
        session = simulate.generate_session(config)
    else:
        session = simulate.generate_session_axis_angle(config, factor=factor)
    out = _output_dir(args.out)
    os.makedirs(out, exist_ok=True)  # once the session exists
    data_path = os.path.join(out, "session.csv")
    if session.axis_angle is None:
        rows = kinematics.write_embedding_csv(data_path, session.series)
    else:
        rows = kinematics.write_axis_angle_csv(data_path, *session.axis_angle)
    labels_path = os.path.join(out, "labels.csv")
    simulate.write_labels_csv(labels_path, session.segments)
    # samples are in the labels' units, rows are what session.csv holds
    print(
        f"seed={config.seed} segments={len(session.segments)} "
        f"samples={len(session.series)} rows={rows} wrote {data_path} {labels_path}"
    )
    return EXIT_OK


def _cmd_run(args) -> int:
    data = kinematics.read_orientation_csv(args.input)
    # defaults follow the input header: embeddings are taken as external
    source = args.embedding or ("external" if data[0] == "embedding" else "adr")
    config = pipeline.PipelineConfig(
        input_path=args.input,
        output_dir=_output_dir(args.out),
        embedding_source=source,
        prior_kind=args.prior or pipeline.PAIRED_PRIOR[source],
        decimation=args.decimation,
        postprocess=not args.no_postprocess,
        labels_path=args.labels,
        **_inference_settings(args),
    )
    series = pipeline.load_embedding_series(config, data)
    del data  # the full-rate rows; the run keeps only the decimated series
    if len(series) <= config.min_run:  # the estimate before step k's reset is at most k - 1
        print(f"warning: decimation {config.decimation} leaves {len(series)} steps, no more "
              f"than --min-run {config.min_run:g}, so no segment can be found", file=sys.stderr)
    report = pipeline.run_pipeline(config, series)
    n_segments = len(report["segments"])
    line = f"segments={n_segments} out={config.output_dir}"
    if report["metrics"] is not None:
        m = report["metrics"]
        line += f" f1={m['f1']:.4f} ppv={m['ppv']:.4f} se={m['se']:.4f}"
        if m["pearson_r"] is not None:
            line += f" r={m['pearson_r']:.4f}"
    print(line)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    out = _output_dir(args.out)
    session_config = _session_config(args, args.base_seed)
    seeds = range(args.base_seed, args.base_seed + args.sessions)
    base = pipeline.PipelineConfig(
        input_path="<simulated>",
        output_dir=out,
        decimation=1,
        **_inference_settings(args),
    )
    variants = pipeline.VARIANTS if args.variants == "all" else tuple(args.variants.split(","))
    sweep = pipeline.run_variant_sweep(
        session_config, seeds, base, variants=variants, workers=args.workers
    )
    pipeline.write_sweep(sweep, out)
    for row in sweep["aggregate"]:
        pearson = row["mean_pearson_r"]
        print(
            f"{row['variant']}: f1={row['mean_f1']:.4f} ppv={row['mean_ppv']:.4f} "
            f"se={row['mean_se']:.4f} r={'n/a' if pearson is None else f'{pearson:.4f}'}"
        )
    return EXIT_OK


def _cmd_eval(args) -> int:
    segments = segmentation.read_segments_csv(args.predicted)
    ground_truth = metrics.read_labels_csv(args.labels)
    evaluation = metrics.evaluate_segmentation(segments, ground_truth, args.tolerance)
    if args.out:
        tables.write_json(args.out, evaluation.as_dict())
    print(tables.json_text(evaluation.as_dict()), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kinseg", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthgen", help="generate synthetic axes and orientations")
    p.add_argument("--resolution", type=int, default=15, help="vertices per cube face side")
    p.add_argument("--angles", type=int, default=36, help="number of rotation angles")
    p.add_argument("--out", required=True, help="orientation dataset CSV path")
    p.add_argument("--axes-out", default=None, help="optional axes CSV path")
    p.add_argument("--projection", choices=("ellipsoidal", "euclidean"),
                   default="ellipsoidal")
    p.add_argument("--dedupe", action="store_true",
                   help="drop duplicated edge/corner axes before crossing with angles")
    p.set_defaults(func=_cmd_synthgen)

    p = sub.add_parser("simulate", help="generate a seeded labelled session")
    p.add_argument("--seed", type=int, default=simulate.SessionConfig.seed)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--level", choices=("embedding", "axis-angle"), default="embedding")
    p.add_argument("--decimation", type=int, default=pipeline.PipelineConfig.decimation,
                   help="expansion factor for axis-angle level output")
    _add_session_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("run", help="run the pipeline on an input CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--embedding", choices=("adr", "external"), default=None,
                   help="embedding source (default: inferred from the input header)")
    p.add_argument("--prior", choices=("informative", "noninformative"), default=None,
                   help="prior kind (default: paired with the embedding source)")
    p.add_argument("--decimation", type=int, default=pipeline.PipelineConfig.decimation)
    p.add_argument("--no-postprocess", action="store_true")
    p.add_argument("--labels", default=None, help="ground-truth labels CSV")
    _add_inference_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="evaluate variants over seeded sessions")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sessions", type=int, default=20)
    p.add_argument("--base-seed", type=int, default=1)
    p.add_argument("--variants", default="all",
                   help="comma list, each once, from: " + ",".join(pipeline.VARIANTS))
    p.add_argument("--workers", type=int, default=1)
    _add_inference_flags(p)
    _add_session_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("eval", help="score a segments CSV against labels")
    p.add_argument("--predicted", required=True, help="segments CSV from a run")
    p.add_argument("--labels", required=True, help="ground-truth labels CSV")
    p.add_argument("--tolerance", type=int, default=pipeline.PipelineConfig.tolerance)
    p.add_argument("--out", default=None, help="optional JSON output path")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
