"""The benchmark's workloads: seeded input pools, one operation per pair, and
the checks of each output against the scene's ground truth.

Every workload is a closed loop with one caller in one process: the caller
cycles through a fixed pool of seeded pairs and starts a pair when the
previous one returns. All pools use point sigma 0.5 px and 40% outliers.

The package is reached only through its public names, looked up on their
modules at call time (``affgeo.robust.ransac_pose``, ``affgeo.cli.main``, ...)
so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass

import numpy as np

import affgeo.cli
import affgeo.fileio
import affgeo.robust
import affgeo.synthdata
from affgeo.metrics import pose_error

NOISE = affgeo.synthdata.NoiseSpec(point_sigma=0.5, outlier_fraction=0.4)

# A pair whose output misses these tolerances against ground truth counts as
# failed. They flag a gross failure (a model that does not explain the true
# inliers, a wrong decomposition candidate), not a loss of accuracy, which
# the median error and inlier F1 report. The translation bound is loose
# because some scenes barely constrain the baseline direction: in 2 560
# pose-small pairs, rotation errors stayed below 1 degree while translation
# errors reached 26 degrees with an inlier F1 above 0.8.
MAX_ROTATION_ERR_DEG = 5.0
MAX_TRANSLATION_ERR_DEG = 45.0
MAX_TRANSFER_ERR_PX = 2.0
MIN_INLIER_F1 = 0.5

# Median over the pool of each pair's error against ground truth: the pose
# error max(rotation, translation) in degrees, or the homography's transfer
# error in pixels.
ERROR_METRIC = {"pose": ("pose_err_median_deg", "deg"), "cli": ("transfer_err_median_px", "px")}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pose": ransac_pose in-process; "cli": affgeo.cli.main estimate
    n_acs: int
    planes: int
    pool: int
    affgeo_threads: str | None  # AFFGEO_THREADS for the run; None leaves it unset


# Why each workload exists is recorded next to its name in BENCHMARK.json.
# A pool trades two spreads. Per-pair latency varies up to 5x within a pool
# with the number of LO refits, so more distinct pairs steady the figures
# across seeds; but the median and the rate take each pair's best run, so
# a run should pass over the pool at least twice in its measuring time.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("pose-small", "pose", 200, 3, 128, None),
        Workload("cli-homography", "cli", 600, 1, 32, "2"),
    )
}

# The self-check shrinks each workload to this many ACs and pairs; the CLI
# workload keeps n >= 512 so that its thread pool still runs.
TINY_ACS = {"pose-small": 50, "cli-homography": 520}
TINY_POOL = 3


@dataclass
class Pair:
    index: int
    scene: object
    acs: list
    labels: np.ndarray
    ransac_seed: int
    path: str = ""  # AC file of a cli pair


def work_dir(workload: Workload, tiny: bool) -> str:
    return os.path.join(".bench_out", workload.name + ("-tiny" if tiny else ""))


def build_pool(workload: Workload, seed: int, tiny: bool) -> list[Pair]:
    """The workload's input pool, a pure function of the seed. This is the
    benchmark's set-up: scene generation, AC sampling and, for the CLI
    workload, writing the AC files."""
    n_acs = TINY_ACS[workload.name] if tiny else workload.n_acs
    size = TINY_POOL if tiny else workload.pool
    seeds = np.random.default_rng(seed).integers(0, 2**31, size=(size, 3))
    out_dir = work_dir(workload, tiny)
    os.makedirs(out_dir, exist_ok=True)
    pool = []
    for i, (scene_seed, ac_seed, ransac_seed) in enumerate(seeds.tolist()):
        scene = affgeo.synthdata.generate_scene(seed=scene_seed, n_planes=workload.planes)
        acs, labels = affgeo.synthdata.sample_acs(scene, n_acs, NOISE, seed=ac_seed)
        pair = Pair(i, scene, acs, labels, ransac_seed)
        if workload.kind == "cli":
            pair.path = os.path.join(out_dir, f"pair{i:03d}.csv")
            affgeo.fileio.write_acs(pair.path, acs)
        pool.append(pair)
    return pool


def run_pair(workload: Workload, pair: Pair):
    """One operation of the closed loop; returns its raw output."""
    if workload.kind == "pose":
        cfg = affgeo.robust.RansacConfig(
            threshold=0.5, seed=pair.ransac_seed, affine_weight=0.1, lo_enabled=True
        )
        return affgeo.robust.ransac_pose(pair.acs, pair.scene.K1, pair.scene.K2, cfg)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = affgeo.cli.main([
            "estimate", pair.path, "--model", "homography", "--threshold", "2.0",
            "--seed", str(pair.ransac_seed), "--out", _out_prefix(pair),
        ])
    if code != 0:
        raise RuntimeError(f"affgeo estimate exited {code}: {stderr.getvalue().strip()}")
    return stdout.getvalue()


def _out_prefix(pair: Pair) -> str:
    return pair.path[: -len(".csv")] + "_est"


def _fmt(values) -> str:
    return " ".join(f"{float(v):.17g}" for v in np.ravel(values))


def _mask_text(mask) -> str:
    return "".join("1" if m else "0" for m in np.asarray(mask, dtype=bool))


def output_text(workload: Workload, pair: Pair, output) -> str:
    """Canonical text of one pair's output, the unit of the output digest:
    17-digit model, inlier mask and pose for the pose workloads; the stdout
    report plus the written files for the CLI workload."""
    if workload.kind == "pose":
        pose, est = output
        return "\n".join(
            [_fmt(est.model.matrix), _mask_text(est.inlier_mask), _fmt(pose.R), _fmt(pose.t)]
        )
    prefix = _out_prefix(pair)
    parts = [output]
    for suffix in ("_model.txt", "_inliers.txt"):
        with open(prefix + suffix, encoding="ascii") as fh:
            parts.append(fh.read())
    return "".join(parts)


def digest(texts: list[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("ascii"))
        h.update(b"\0")
    return h.hexdigest()


def quality(workload: Workload, pair: Pair, output) -> dict:
    """Accuracy of one output against ground truth, and whether it passes."""
    if workload.kind == "pose":
        pose, est = output
        err = pose_error(pose, pair.scene.pose)
        q = {"err": max(err.rotation_error, err.translation_error)}
        mask = est.inlier_mask
        ok = (err.rotation_error <= MAX_ROTATION_ERR_DEG
              and err.translation_error <= MAX_TRANSLATION_ERR_DEG)
    else:
        prefix = _out_prefix(pair)
        H = affgeo.fileio.read_mat3(prefix + "_model.txt")
        mask = affgeo.fileio.read_labels(prefix + "_inliers.txt")
        q = {"err": _transfer_error(H, pair)}
        ok = q["err"] <= MAX_TRANSFER_ERR_PX
    tp = int(np.sum(mask & pair.labels))
    q["inlier_f1"] = 2.0 * tp / (int(np.sum(mask)) + int(np.sum(pair.labels)))
    q["ok"] = ok and q["inlier_f1"] >= MIN_INLIER_F1
    return q


def _transfer_error(H, pair: Pair) -> float:
    """Median distance, over the true inliers' first-image points, between
    the estimated and the true homography's warps."""
    p1 = np.array([ac.p1 for ac, inlier in zip(pair.acs, pair.labels) if inlier])
    ph = np.hstack([p1, np.ones((len(p1), 1))])

    def warp(M):
        q = ph @ np.asarray(M).T
        return q[:, :2] / q[:, 2:3]

    gt = pair.scene.homographies[0].matrix
    return float(np.median(np.linalg.norm(warp(H) - warp(gt), axis=1)))
