"""Affine-aware robust estimation: seeded LO-RANSAC over AC minimal samples.

Hypotheses are scored with the point Sampson distance plus a weighted sum of
both affine Sampson components; the inlier test itself stays point-only so the
pixel threshold keeps its meaning. Models are ranked by (inlier count desc,
truncated score asc, hypothesis index asc), which makes the outcome a pure
function of the inputs and the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import parallel
from .core import AffineCorrespondence, CameraIntrinsics
from .errors import (
    DegenerateConfiguration,
    NoModelFound,
    TooFewConstraints,
    TooFewCorrespondences,
)
from .residuals import (
    FundamentalMatrix,
    sampson_affine_batch,
    sampson_point_batch,
)
from .solvers import (
    EssentialMatrix,
    Homography,
    RelativePose,
    decompose_essential,
    essential_from_fundamental,
    fundamental_from_acs,
    homography_from_acs,
)


@dataclass(frozen=True)
class RansacConfig:
    """Knobs of the robust loop. threshold is in pixels and applies to
    sqrt(sampson_point) (or the symmetric transfer error for homographies).

    affine_weight scales the affine Sampson terms in a hypothesis' truncated
    total, which only breaks ties between hypotheses with equal inlier
    counts. It never enters the inlier mask or the count, which use the
    point Sampson distance alone, and homographies ignore it."""

    threshold: float = 0.5
    confidence: float = 0.99
    max_iterations: int = 10000
    affine_weight: float = 0.1
    seed: int = 0
    lo_enabled: bool = True

    def __post_init__(self):
        if not self.threshold > 0.0:
            raise ValueError(f"threshold must be > 0, got {self.threshold}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.affine_weight < 0.0:
            raise ValueError("affine_weight must be >= 0")


@dataclass(frozen=True)
class RobustEstimate:
    """Best model with its inlier mask, iteration count and truncated score."""

    model: FundamentalMatrix | EssentialMatrix | Homography
    inlier_mask: np.ndarray
    iterations_run: int
    score: float


def adaptive_iteration_bound(
    inlier_ratio: float, confidence: float, sample_size: int, max_iterations: int
) -> int:
    """Samples needed to hit an all-inlier draw with the given confidence."""
    if inlier_ratio <= 0.0:
        return max_iterations
    if inlier_ratio >= 1.0:
        return 1
    denom = math.log1p(-(inlier_ratio ** sample_size))
    if denom == 0.0:
        return max_iterations
    return min(max_iterations, int(math.ceil(math.log(1.0 - confidence) / denom)))


class _AcArrays:
    """Column-major views of an AC list for vectorised scoring."""

    def __init__(self, acs: Sequence[AffineCorrespondence]):
        self.x1 = np.array([ac.p1[0] for ac in acs])
        self.y1 = np.array([ac.p1[1] for ac in acs])
        self.x2 = np.array([ac.p2[0] for ac in acs])
        self.y2 = np.array([ac.p2[1] for ac in acs])
        A = np.array([ac.A for ac in acs])
        self.a11, self.a12 = A[:, 0, 0], A[:, 0, 1]
        self.a21, self.a22 = A[:, 1, 0], A[:, 1, 1]
        self.n = len(acs)


def _fundamental_scores(cols: _AcArrays, F, affine_weight: float):
    """(point Sampson, combined score) per AC; combined adds the weighted
    affine components and is +inf-safe."""
    n = cols.n
    sp = np.empty(n)
    combined = np.empty(n)

    def chunk(lo, hi):
        s = slice(lo, hi)
        sp[s] = sampson_point_batch(cols.x1[s], cols.y1[s], cols.x2[s], cols.y2[s], F)
        if affine_weight > 0.0:
            sa1, sa2 = sampson_affine_batch(
                cols.x1[s], cols.y1[s], cols.x2[s], cols.y2[s],
                cols.a11[s], cols.a12[s], cols.a21[s], cols.a22[s], F,
            )
            combined[s] = sp[s] + affine_weight * (sa1 + sa2)
        else:
            combined[s] = sp[s]

    parallel.run_chunks(chunk, n)
    return sp, combined


def _truncated_total(combined: np.ndarray, thr2: float) -> float:
    return float(np.sum(np.minimum(combined, thr2)))


def ransac_fundamental(
    acs: Sequence[AffineCorrespondence], cfg: RansacConfig
) -> RobustEstimate:
    """Robust fundamental matrix from ACs (minimal sample: 3)."""
    n = len(acs)
    if n < 3:
        raise TooFewCorrespondences(f"need >= 3 ACs, got {n}")
    cols = _AcArrays(acs)
    rng = np.random.default_rng(cfg.seed)
    thr2 = cfg.threshold * cfg.threshold

    best_key = None
    best: tuple | None = None
    bound = cfg.max_iterations
    i = 0
    while i < bound:
        idx = rng.choice(n, size=3, replace=False)
        i += 1
        try:
            model = fundamental_from_acs([acs[j] for j in idx])
        except DegenerateConfiguration:
            continue
        sp, combined = _fundamental_scores(cols, model.matrix, cfg.affine_weight)
        mask = sp <= thr2
        count = int(np.sum(mask))
        if count < 3:
            continue
        total = _truncated_total(combined, thr2)
        key = (-count, total, i)
        if best_key is not None and key >= best_key:
            continue
        if cfg.lo_enabled:
            model, mask, count, total = _lo_refit_fundamental(
                acs, cols, cfg, model, mask, count, total
            )
            key = (-count, total, i)
        if best_key is None or key < best_key:
            best_key = key
            best = (model, mask, total)
            bound = min(
                bound,
                adaptive_iteration_bound(
                    count / n, cfg.confidence, 3, cfg.max_iterations
                ),
            )
    if best is None:
        raise NoModelFound(f"no hypothesis reached 3 inliers in {i} iterations")
    model, mask, total = best
    return RobustEstimate(model=model, inlier_mask=mask, iterations_run=i, score=total)


def _lo_refit_fundamental(acs, cols, cfg, model, mask, count, total):
    """Least-squares refit over all inlier rows, repeated while it improves."""
    thr2 = cfg.threshold * cfg.threshold
    for _ in range(16):
        if count < 3:
            break
        try:
            refit = fundamental_from_acs([ac for ac, m in zip(acs, mask) if m])
        except (DegenerateConfiguration, TooFewCorrespondences):
            break
        sp, combined = _fundamental_scores(cols, refit.matrix, cfg.affine_weight)
        new_mask = sp <= thr2
        new_count = int(np.sum(new_mask))
        new_total = _truncated_total(combined, thr2)
        if (-new_count, new_total) < (-count, total):
            model, mask, count, total = refit, new_mask, new_count, new_total
        else:
            break
    return model, mask, count, total


def ransac_pose(
    acs: Sequence[AffineCorrespondence],
    K1: CameraIntrinsics,
    K2: CameraIntrinsics,
    cfg: RansacConfig,
) -> tuple[RelativePose, RobustEstimate]:
    """Robust relative pose: F by RANSAC, projected to E, decomposed with a
    cheirality vote over the inlier set."""
    estimate = ransac_fundamental(acs, cfg)
    E = essential_from_fundamental(estimate.model, K1, K2)
    inliers = [
        (ac.p1, ac.p2) for ac, m in zip(acs, estimate.inlier_mask) if m
    ]
    pose = decompose_essential(E, inliers, K1, K2)
    return pose, estimate


def _homography_residuals(H: Homography, pts1h: np.ndarray, pts2h: np.ndarray) -> np.ndarray:
    """Squared symmetric transfer error per correspondence; +inf at infinity."""
    n = pts1h.shape[0]
    out = np.empty(n)
    Hm = H.matrix
    Hinv = np.linalg.inv(Hm)

    def chunk(lo, hi):
        s = slice(lo, hi)
        fwd = pts1h[s] @ Hm.T
        bwd = pts2h[s] @ Hinv.T
        ok = (np.abs(fwd[:, 2]) > 1e-12) & (np.abs(bwd[:, 2]) > 1e-12)
        d = np.full(hi - lo, np.inf)
        if np.any(ok):
            df = fwd[ok, :2] / fwd[ok, 2:3] - pts2h[s][ok, :2]
            db = bwd[ok, :2] / bwd[ok, 2:3] - pts1h[s][ok, :2]
            d[ok] = np.sum(df * df, axis=1) + np.sum(db * db, axis=1)
        out[s] = d

    parallel.run_chunks(chunk, n)
    return out


def ransac_homography(
    acs: Sequence[AffineCorrespondence],
    extra_points: Sequence[tuple],
    cfg: RansacConfig,
) -> RobustEstimate:
    """Robust homography (minimal sample: 2 ACs). The mask covers the ACs
    first, then the extra point pairs; inliers satisfy a symmetric transfer
    error of at most the threshold."""
    n_acs = len(acs)
    if n_acs < 2:
        raise TooFewCorrespondences(f"need >= 2 ACs, got {n_acs}")
    pts1 = np.array([ac.p1 for ac in acs] + [np.asarray(p, float) for p, _ in extra_points])
    pts2 = np.array([ac.p2 for ac in acs] + [np.asarray(q, float) for _, q in extra_points])
    n = pts1.shape[0]
    ones = np.ones((n, 1))
    pts1h = np.hstack([pts1, ones])
    pts2h = np.hstack([pts2, ones])
    rng = np.random.default_rng(cfg.seed)
    thr2 = cfg.threshold * cfg.threshold

    def support(H: Homography):
        ste2 = _homography_residuals(H, pts1h, pts2h)
        mask = ste2 <= thr2
        return mask, int(np.sum(mask)), _truncated_total(ste2, thr2)

    def refit(mask):
        inl_acs = [ac for ac, m in zip(acs, mask[:n_acs]) if m]
        inl_pts = [pq for pq, m in zip(extra_points, mask[n_acs:]) if m]
        return homography_from_acs(inl_acs, inl_pts)

    best_key = None
    best = None
    bound = cfg.max_iterations
    i = 0
    while i < bound:
        idx = rng.choice(n_acs, size=2, replace=False)
        i += 1
        try:
            model = homography_from_acs([acs[j] for j in idx])
        except (DegenerateConfiguration, TooFewConstraints):
            continue
        mask, count, total = support(model)
        if count < 2:
            continue
        key = (-count, total, i)
        if best_key is not None and key >= best_key:
            continue
        if cfg.lo_enabled:
            for _ in range(16):
                try:
                    candidate = refit(mask)
                except (DegenerateConfiguration, TooFewConstraints):
                    break
                new_mask, new_count, new_total = support(candidate)
                if (-new_count, new_total) < (-count, total):
                    model, mask, count, total = candidate, new_mask, new_count, new_total
                else:
                    break
            key = (-count, total, i)
        if best_key is None or key < best_key:
            best_key = key
            best = (model, mask, total)
            bound = min(
                bound,
                adaptive_iteration_bound(
                    count / n, cfg.confidence, 2, cfg.max_iterations
                ),
            )
    if best is None:
        raise NoModelFound(f"no hypothesis reached 2 inliers in {i} iterations")
    model, mask, total = best
    return RobustEstimate(model=model, inlier_mask=mask, iterations_run=i, score=total)
