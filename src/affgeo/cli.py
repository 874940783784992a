"""Command-line surface: residuals, estimate, eval-mma, eval-pose, synth,
gt-affine.

Every command is a single process and its stdout plus written files are a
pure function of the flags and the seed; wall-clock timing goes to stderr.
Exit codes (EXIT_CODES): 0 ok, 2 input error, 3 data error (and an input too
large for the memory available, MemoryError), 4 estimation failure, 5
insufficient data. Angle-valued flags are in degrees.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .core import AffineCorrespondence
from .errors import (
    AffgeoError,
    CheiralityAmbiguity,
    FileFormatError,
    InvalidArgument,
    NoModelFound,
    PointAtInfinity,
    TooFewCorrespondences,
)
from .fileio import (
    RESIDUAL_COLUMNS,  # kept importable as cli.RESIDUAL_COLUMNS
    RunReport,
    _MMA_TABLE,
    _POSE_ERROR_TABLE,
    _RESIDUAL_TABLE,
    _write_table,
    fmt,
    read_acs,
    read_intrinsics,
    read_mat3,
    read_matches,
    read_points,
    read_pose,
    render_report,
    write_acs,
    write_intrinsics,
    write_labels,
    write_mat3,
    write_pose,
)
from .metrics import (
    MMA_THRESHOLDS,
    evaluate_matches,
    median,
    mma_curve,
    mma_score,
    pose_auc,
    pose_error,
    rmse,
)
from .residuals import (
    FundamentalMatrix,
    affine_terms,
    epipolar_terms,
    sampson_affine_batch,
    sampson_point_batch,
)
from .robust import RansacConfig, ransac_fundamental, ransac_homography
from .solvers import (
    Homography,
    apply_homography,
    decompose_essential,
    essential_from_fundamental,
    gt_affine_from_homography,
)
from .synthdata import CameraSpec, NoiseSpec, generate_scene, sample_acs

# Exit code per error class, looked up along the error's MRO; other AffgeoErrors exit 3.
EXIT_CODES = {
    InvalidArgument: 2, FileFormatError: 2, OSError: 2,
    NoModelFound: 4, CheiralityAmbiguity: 4,
    TooFewCorrespondences: 5,
    AffgeoError: 3, MemoryError: 3,
}


# --- commands -------------------------------------------------------------------

def cmd_residuals(args) -> int:
    acs = read_acs(args.ac_file)
    if len(acs) == 0:
        raise FileFormatError(f"no AC rows in {args.ac_file}")
    F = FundamentalMatrix(read_mat3(args.f_file))
    x1, y1, x2, y2, a11, a12, a21, a22 = acs.T
    e_pc = epipolar_terms(x1, y1, x2, y2, F)[0]
    sd_p = sampson_point_batch(x1, y1, x2, y2, F)
    (m_terms, n_terms) = affine_terms(x1, y1, x2, y2, a11, a12, a21, a22, F)
    m0, n0 = m_terms[0], n_terms[0]
    sd_a1, sd_a2 = sampson_affine_batch(x1, y1, x2, y2, a11, a12, a21, a22, F)

    table = np.column_stack([np.arange(len(acs)), e_pc, sd_p, m0, n0, sd_a1, sd_a2])
    _write_table(sys.stdout, table, *_RESIDUAL_TABLE)
    if args.csv:
        _write_table(args.csv, table, *_RESIDUAL_TABLE)

    report = RunReport(
        command="residuals",
        config={"ac_file": args.ac_file, "f_file": args.f_file},
        metrics={
            "n": len(acs),
            "e_pc_max_abs": float(np.max(np.abs(e_pc))),
            "sd_p_mean": float(np.mean(sd_p)),
            "sd_p_max": float(np.max(sd_p)),
            "m0_max_abs": float(np.max(np.abs(m0))),
            "n0_max_abs": float(np.max(np.abs(n0))),
            "sd_a1_mean": float(np.mean(sd_a1)),
            "sd_a2_mean": float(np.mean(sd_a2)),
        },
    )
    sys.stdout.write(render_report(report))
    return 0


def cmd_estimate(args) -> int:
    cfg = RansacConfig(
        threshold=args.threshold,
        confidence=args.confidence,
        max_iterations=args.max_iterations,
        affine_weight=args.affine_weight,
        seed=args.seed,
        lo_enabled=not args.no_lo,
    )
    acs = read_acs(args.ac_file)
    prefix = args.out
    if args.model == "fundamental":
        estimate = ransac_fundamental(acs, cfg)
    elif args.model == "homography":
        estimate = ransac_homography(acs, [], cfg)
    else:  # essential
        if not args.intrinsics:
            raise FileFormatError("--intrinsics is required for --model essential")
        K1 = read_intrinsics(args.intrinsics)
        K2 = read_intrinsics(args.intrinsics2) if args.intrinsics2 else K1
        estimate = ransac_fundamental(acs, cfg)
        E = essential_from_fundamental(estimate.model, K1, K2)
        pose = decompose_essential(E, acs[estimate.inlier_mask, 0:4], K1, K2)
        write_mat3(f"{prefix}_model.txt", E.matrix)
        write_pose(f"{prefix}_pose.txt", pose)
    if args.model != "essential":
        write_mat3(f"{prefix}_model.txt", estimate.model.matrix)
    write_labels(f"{prefix}_inliers.txt", estimate.inlier_mask)

    report = RunReport(
        command="estimate",
        seed=args.seed,
        config={
            "ac_file": args.ac_file,
            "model": args.model,
            "threshold": args.threshold,
            "confidence": args.confidence,
            "max_iterations": args.max_iterations,
            "affine_weight": args.affine_weight,
            "lo_enabled": not args.no_lo,
        },
        metrics={
            "n": len(acs),
            "inliers": int(np.sum(estimate.inlier_mask)),
            "iterations": estimate.iterations_run,
            "score": estimate.score,
        },
    )
    sys.stdout.write(render_report(report))
    return 0


def _stem_index(directory: str) -> dict[str, Path]:
    root = Path(directory)
    if not root.is_dir():
        raise FileFormatError(f"{directory} is not a directory")
    index: dict[str, Path] = {}
    for path in sorted(p for p in root.iterdir() if p.is_file()):
        if path.stem in index:
            raise FileFormatError(f"{index[path.stem]} and {path} share the stem {path.stem!r}")
        index[path.stem] = path
    return index


def cmd_eval_mma(args) -> int:
    matches_index = _stem_index(args.matches_dir)
    gt_index = _stem_index(args.gt_dir)
    if not matches_index:
        raise FileFormatError(f"no match files found in {args.matches_dir}")
    pairs = {}
    for stem, match_path in matches_index.items():
        if stem not in gt_index:
            raise FileFormatError(f"no ground-truth homography for pair {stem!r}")
        pairs[stem] = (read_matches(match_path), Homography(read_mat3(gt_index[stem])))
    report_data = evaluate_matches(pairs.values())

    if args.csv:
        curve = np.column_stack([MMA_THRESHOLDS, report_data.curve.values])
        _write_table(args.csv, curve, *_MMA_TABLE)

    metrics = {"n_pairs": report_data.n_pairs, "n_matches": report_data.n_matches}
    for stem, (matches, H) in pairs.items():
        metrics[f"pair.{stem}.mma_score"] = mma_score(mma_curve(matches, H))
    for thr, v in zip(MMA_THRESHOLDS, report_data.curve.values):
        metrics[f"mma@{thr}"] = float(v)
    metrics["mma_score"] = report_data.mma_score
    report = RunReport(
        command="eval-mma",
        config={"matches_dir": args.matches_dir, "gt_dir": args.gt_dir},
        metrics=metrics,
    )
    sys.stdout.write(render_report(report))
    return 0


def cmd_eval_pose(args) -> int:
    try:
        thresholds = [float(tok) for tok in args.thresholds.split(",") if tok]
    except ValueError:
        raise InvalidArgument(f"--thresholds must be numbers, got {args.thresholds!r}") from None
    if not thresholds:
        raise InvalidArgument(f"--thresholds lists no threshold, got {args.thresholds!r}")
    est_index = _stem_index(args.est_dir)
    gt_index = _stem_index(args.gt_dir)
    if len(est_index) != len(gt_index):
        raise FileFormatError(
            f"pose file counts differ: {len(est_index)} estimated vs {len(gt_index)} ground truth"
        )
    if not est_index:
        raise FileFormatError(f"no pose files found in {args.est_dir}")
    if sorted(est_index) != sorted(gt_index):
        raise FileFormatError("pose file stems do not align between the two directories")
    stems = sorted(est_index)
    errors = [pose_error(read_pose(est_index[s]), read_pose(gt_index[s])) for s in stems]
    rot_errors = [e.rotation_error for e in errors]
    trans_errors = [e.translation_error for e in errors]
    metrics: dict = {"n_pairs": len(stems)}
    for stem, rot, trans in zip(stems, rot_errors, trans_errors):
        metrics[f"pair.{stem}.rotation_error_deg"] = rot
        metrics[f"pair.{stem}.translation_error_deg"] = trans
    combined = list(map(max, rot_errors, trans_errors))
    for tau, auc in zip(thresholds, pose_auc(combined, thresholds)):
        metrics[f"auc@{fmt(tau)}"] = auc
    if args.csv:
        table = np.array([stems, rot_errors, trans_errors], dtype=object).T
        _write_table(args.csv, table, *_POSE_ERROR_TABLE)
    metrics["rotation_rmse_deg"] = rmse(rot_errors)
    metrics["rotation_median_deg"] = median(rot_errors)
    metrics["translation_rmse_deg"] = rmse(trans_errors)
    metrics["translation_median_deg"] = median(trans_errors)
    report = RunReport(
        command="eval-pose",
        config={"est_dir": args.est_dir, "gt_dir": args.gt_dir, "thresholds_deg": args.thresholds},
        metrics=metrics,
    )
    sys.stdout.write(render_report(report))
    return 0


def cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = out_dir / ".write-probe"  # an unwritable directory fails before any work
    probe.write_text("", encoding="ascii")
    probe.unlink()
    scene = generate_scene(seed=args.seed, n_planes=args.planes, camera_spec=CameraSpec())
    noise = NoiseSpec(point_sigma=args.point_sigma, affine_rel_sigma=args.affine_sigma,
                      outlier_fraction=args.outliers)
    acs, labels = sample_acs(scene, args.n, noise, seed=args.seed + 1)
    write_acs(out_dir / "acs.csv", acs)
    write_labels(out_dir / "labels.txt", labels)
    write_mat3(out_dir / "F.txt", scene.F_gt.matrix)
    write_pose(out_dir / "pose.txt", scene.pose)
    write_intrinsics(out_dir / "K1.txt", scene.K1)
    write_intrinsics(out_dir / "K2.txt", scene.K2)
    for i, H in enumerate(scene.homographies):
        write_mat3(out_dir / f"H_plane{i}.txt", H.matrix)
    report = RunReport(
        command="synth",
        seed=args.seed,
        config={
            "n": args.n,
            "planes": args.planes,
            "point_sigma": args.point_sigma,
            "affine_sigma": args.affine_sigma,
            "outliers": args.outliers,
            "out_dir": args.out_dir,
        },
        metrics={
            "n_acs": len(acs),
            "n_outliers": int(np.sum(~labels)),
            "n_files": 6 + len(scene.homographies),
        },
    )
    sys.stdout.write(render_report(report))
    return 0


def cmd_gt_affine(args) -> int:
    H = Homography(read_mat3(args.h_file))
    points = read_points(args.points_file)
    rows = []
    skipped = 0
    for p in points:
        try:
            A = gt_affine_from_homography(H, p)
            q = apply_homography(H, p)
        except PointAtInfinity:
            skipped += 1
            continue
        rows.append(AffineCorrespondence(p1=p, p2=q, A=A))
    if args.out:
        write_acs(args.out, rows)
        report = RunReport(
            command="gt-affine",
            config={"h_file": args.h_file, "points_file": args.points_file, "out": args.out},
            metrics={"n_points": len(points), "n_written": len(rows), "n_skipped": skipped},
        )
        sys.stdout.write(render_report(report))
    else:
        write_acs(sys.stdout, rows)
    if skipped:
        sys.stderr.write(f"warning: skipped {skipped} point(s) at infinity\n")
        return 3
    return 0


# --- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affgeo",
        description="Affine-correspondence two-view geometry toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("residuals", help="per-AC epipolar/affine residuals and Sampson distances")
    p.add_argument("ac_file")
    p.add_argument("f_file", help="fundamental matrix file (9 reals)")
    p.add_argument("--csv", help="also write the residual table to this file")
    p.set_defaults(func=cmd_residuals)

    p = sub.add_parser("estimate", help="robust model estimation from an AC file")
    p.add_argument("ac_file")
    p.add_argument("--model", required=True, choices=["fundamental", "essential", "homography"])
    p.add_argument("--intrinsics", help="intrinsics file (fx fy cx cy [skew]); required for essential")
    p.add_argument("--intrinsics2", help="second-camera intrinsics; defaults to --intrinsics")
    p.add_argument("--threshold", type=float, default=0.5, help="inlier threshold in pixels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--affine-weight", type=float, default=0.1, dest="affine_weight")
    p.add_argument("--confidence", type=float, default=0.99)
    p.add_argument("--max-iterations", type=int, default=10000, dest="max_iterations")
    p.add_argument("--no-lo", action="store_true", help="disable the local-optimisation refit")
    p.add_argument("--out", required=True, help="output prefix for model/pose/inlier files")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("eval-mma", help="mean matching accuracy against GT homographies")
    p.add_argument("matches_dir")
    p.add_argument("gt_dir")
    p.add_argument("--csv", help="write the aggregate MMA curve to this file")
    p.set_defaults(func=cmd_eval_mma)

    p = sub.add_parser("eval-pose", help="pose-error AUC / RMSE / median over pose file pairs")
    p.add_argument("est_dir")
    p.add_argument("gt_dir")
    p.add_argument("--thresholds", default="5,10,20", help="AUC thresholds in degrees")
    p.add_argument("--csv", help="write the per-pair error table to this file")
    p.set_defaults(func=cmd_eval_pose)

    p = sub.add_parser("synth", help="generate a synthetic AC dataset with ground truth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--planes", type=int, default=1)
    p.add_argument("--point-sigma", type=float, default=0.0, dest="point_sigma")
    p.add_argument("--affine-sigma", type=float, default=0.0, dest="affine_sigma")
    p.add_argument("--outliers", type=float, default=0.0, help="outlier fraction in [0, 1)")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gt-affine", help="ground-truth affinities from a homography")
    p.add_argument("h_file")
    p.add_argument("points_file")
    p.add_argument("--out", help="AC output file (default: table on stdout)")
    p.set_defaults(func=cmd_gt_affine)

    return parser


# Built once: parse_args keeps no state between calls, and building the
# parser costs over ten times what parsing with it does.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    start = time.perf_counter()
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        # numpy's MemoryError names the allocation; the line stays the same
        message = "out of memory" if isinstance(exc, MemoryError) else str(exc)
        sys.stderr.write(f"error: {message}\n")
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)
    finally:
        elapsed_ms = (time.perf_counter() - start) * 1e3
        sys.stderr.write(f"# timing_ms = {elapsed_ms:.3f}\n")


if __name__ == "__main__":
    sys.exit(main())
