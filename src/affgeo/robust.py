"""Affine-aware robust estimation: seeded LO-RANSAC over AC minimal samples.

Hypotheses are scored with the point Sampson distance plus a weighted sum of
both affine Sampson components; the inlier test itself stays point-only so the
pixel threshold keeps its meaning. Models are ranked by (inlier count desc,
truncated score asc, hypothesis index asc), which makes the outcome a pure
function of the inputs and the seed. The affine terms only break ties
between equal counts, so they are computed only for hypotheses whose count can
tie or beat the best one, and for LO refits. Both estimators run the same loop
(_LoRansac), which draws minimal samples in blocks; each supplies only its
minimal solve (ransac_fundamental's solves a block in one stacked pass),
residuals and LO refit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .core import AffineCorrespondence, CameraIntrinsics, ac_array
from .errors import (
    DegenerateConfiguration,
    InvalidArgument,
    NoModelFound,
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
    fundamental_batch,
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
    point Sampson distance alone, and homographies ignore it. The affine
    terms are computed only for hypotheses that can tie or beat the best
    count, and for LO refits."""

    threshold: float = 0.5
    confidence: float = 0.99
    max_iterations: int = 10000
    affine_weight: float = 0.1
    seed: int = 0
    lo_enabled: bool = True

    def __post_init__(self):
        if not self.threshold > 0.0:
            raise InvalidArgument(f"threshold must be > 0, got {self.threshold}")
        if not 0.0 < self.confidence < 1.0:
            raise InvalidArgument(f"confidence must lie in (0, 1), got {self.confidence}")
        if self.max_iterations < 1:
            raise InvalidArgument("max_iterations must be >= 1")
        if not self.affine_weight >= 0.0:
            raise InvalidArgument(f"affine_weight must be >= 0, got {self.affine_weight}")
        if self.seed < 0:
            raise InvalidArgument(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RobustEstimate:
    """Best model with its inlier mask, iteration count and truncated score."""

    model: FundamentalMatrix | EssentialMatrix | Homography
    inlier_mask: np.ndarray
    iterations_run: int
    score: float


# Degenerate draws in a row after which a loop with no model yet stops: the
# set is then most likely degenerate as a whole (one plane, one point repeated).
DEGENERATE_DRAW_LIMIT = 500

# What a minimal solve or an LO refit raises on a degenerate draw.
DEGENERATE = (DegenerateConfiguration, TooFewCorrespondences)

# Minimal samples drawn per block: BLOCK_START, then twice the last up to BLOCK_CAP.
BLOCK_START, BLOCK_CAP = 16, 64


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


class _LoRansac:
    """The seeded LO-RANSAC loop that both estimators share.

    The estimator iterates over samples(), which draws the minimal samples in
    blocks and yields each sample, or what the estimator's solve(block) made
    of it, and passes every model it gets to offer(). offer() scores the model
    against all correspondences, ranks it by (inlier count desc, truncated
    total asc, iteration asc), runs up to 16 local-optimisation refits over
    the inlier set while they improve, and tightens the adaptive bound that
    ends samples(). distance(model) returns the squared distance the
    threshold applies to; scores(model, distance) returns the
    per-correspondence scores whose truncated sum is the total, and is called
    only when that total can matter. refit(mask) solves from the inliers and
    may raise one of the DEGENERATE exceptions; the estimator calls skip()
    for a minimal sample whose solve was degenerate.

    The benchmark's tracer (bench/tracing.py) tells a minimal solve from an
    LO refit by the solver's calling code object, so ransac_homography's own
    body solves its minimal samples; minimal F samples go through the module
    global fundamental_batch, and fundamental_from_acs only refits.
    TestTracerSeam in tests/test_robust.py pins both.
    """

    def __init__(self, cfg: RansacConfig, sample_size: int, population: int,
                 distance, scores, refit):
        if population < sample_size:
            raise TooFewCorrespondences(f"need >= {sample_size} ACs, got {population}")
        self.cfg = cfg
        self.sample_size = sample_size
        self.population = population
        self.distance = distance
        self.scores = scores
        self.refit = refit
        self.thr2 = cfg.threshold * cfg.threshold
        self.bound = cfg.max_iterations
        self.iterations = 0
        self.degenerate_run = 0  # draws in a row whose minimal solve raised, with no model
        self.best = None  # (key, model, mask)

    def samples(self, solve=lambda block: block):
        """One item per minimal sample, in draw order, until the adaptive bound
        or until DEGENERATE_DRAW_LIMIT draws in a row were degenerate. solve
        maps each block of samples, a (B, sample_size) index array no longer
        than the bound leaves, to B items (by default the index arrays); the
        items of a block past the stop are dropped."""
        rng = np.random.default_rng(self.cfg.seed)
        size, left = BLOCK_START, 0
        while self.iterations < self.bound and self.degenerate_run < DEGENERATE_DRAW_LIMIT:
            if not left:
                left = min(size, self.bound - self.iterations)
                block = [rng.choice(self.population, size=self.sample_size, replace=False)
                         for _ in range(left)]
                items = iter(solve(np.array(block)))
                size = min(2 * size, BLOCK_CAP)
            left -= 1
            self.iterations += 1
            yield next(items)

    def skip(self) -> None:
        """Record that the current draw's minimal solve was degenerate."""
        if self.best is None:
            self.degenerate_run += 1

    def _support(self, model, floor: int = 0):
        """Inlier mask, count and truncated total; a count below floor cannot
        rank, so its scores are not computed and its total is +inf."""
        d2 = self.distance(model)
        mask = d2 <= self.thr2
        count = int(np.sum(mask))
        if count < floor:
            return mask, count, math.inf
        return mask, count, float(np.sum(np.fmin(self.scores(model, d2), self.thr2)))

    def offer(self, model) -> None:
        self.degenerate_run = 0
        floor = max(self.sample_size, -self.best[0][0]) if self.best else self.sample_size
        mask, count, total = self._support(model, floor)
        if count < floor:
            return
        if self.best is not None and (-count, total, self.iterations) >= self.best[0]:
            return
        if self.cfg.lo_enabled:
            for _ in range(16):
                try:
                    candidate = self.refit(mask)
                except DEGENERATE:
                    break
                new_mask, new_count, new_total = self._support(candidate)
                if (-new_count, new_total) >= (-count, total):
                    break
                model, mask, count, total = candidate, new_mask, new_count, new_total
        self.best = ((-count, total, self.iterations), model, mask)
        self.bound = min(
            self.bound,
            adaptive_iteration_bound(
                count / mask.size, self.cfg.confidence, self.sample_size, self.cfg.max_iterations
            ),
        )

    def result(self) -> RobustEstimate:
        if self.best is None:
            cause = (f"the sampler stopped on {self.degenerate_run} consecutive degenerate draws"
                     if self.degenerate_run >= DEGENERATE_DRAW_LIMIT
                     else f"no hypothesis reached {self.sample_size} inliers")
            raise NoModelFound(f"{cause} in {self.iterations} iterations")
        (_, total, _), model, mask = self.best
        return RobustEstimate(
            model=model, inlier_mask=mask, iterations_run=self.iterations, score=total
        )


def _fundamental_scores(columns: np.ndarray, F, sp: np.ndarray, affine_weight: float):
    """Combined score per AC: the point Sampson distance sp plus the weighted
    affine components, +inf-safe; columns is the (8, N) transpose of an
    ac_array."""
    if affine_weight > 0.0:
        sa1, sa2 = sampson_affine_batch(*columns, F)
        return sp + affine_weight * (sa1 + sa2)
    return sp


def ransac_fundamental(
    acs: Sequence[AffineCorrespondence] | np.ndarray, cfg: RansacConfig
) -> RobustEstimate:
    """Robust fundamental matrix from ACs or ac_array rows (minimal sample: 3)."""
    X = ac_array(acs)
    columns = np.ascontiguousarray(X.T)  # strided column views score slower
    loop = _LoRansac(
        cfg, 3, len(X),
        distance=lambda F: sampson_point_batch(*columns[:4], F.matrix),
        scores=lambda F, sp: _fundamental_scores(columns, F.matrix, sp, cfg.affine_weight),
        refit=lambda mask: fundamental_from_acs(X[mask]),
    )

    def solve(block):  # models only for the samples the loop takes, each its own copy
        F, faults = fundamental_batch(X[block])  # so that a kept model does not pin the block
        return (None if fault else FundamentalMatrix(f.copy()) for f, fault in zip(F, faults))

    for model in loop.samples(solve):
        if model is None:
            loop.skip()
        else:
            loop.offer(model)
    return loop.result()


def ransac_pose(
    acs: Sequence[AffineCorrespondence] | np.ndarray,
    K1: CameraIntrinsics,
    K2: CameraIntrinsics,
    cfg: RansacConfig,
) -> tuple[RelativePose, RobustEstimate]:
    """Robust relative pose: F by RANSAC, projected to E, decomposed with a
    cheirality vote over the inlier set."""
    X = ac_array(acs)
    estimate = ransac_fundamental(X, cfg)
    E = essential_from_fundamental(estimate.model, K1, K2)
    inliers = X[estimate.inlier_mask]
    pose = decompose_essential(E, list(zip(inliers[:, 0:2], inliers[:, 2:4])), K1, K2)
    return pose, estimate


def _homography_residuals(H: Homography, pts1h: np.ndarray, pts2h: np.ndarray) -> np.ndarray:
    """Squared symmetric transfer error per correspondence; +inf at infinity."""
    fwd = pts1h @ H.matrix.T
    bwd = pts2h @ np.linalg.inv(H.matrix).T
    ok = (np.abs(fwd[:, 2]) > 1e-12) & (np.abs(bwd[:, 2]) > 1e-12)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # rows at infinity
        df = fwd[:, :2] / fwd[:, 2:3] - pts2h[:, :2]
        db = bwd[:, :2] / bwd[:, 2:3] - pts1h[:, :2]
        d = np.sum(df * df, axis=1) + np.sum(db * db, axis=1)
    return np.where(ok, d, np.inf)


def ransac_homography(
    acs: Sequence[AffineCorrespondence] | np.ndarray,
    extra_points: Sequence[tuple],
    cfg: RansacConfig,
) -> RobustEstimate:
    """Robust homography (minimal sample: 2 ACs). The mask covers the ACs
    first, then the extra point pairs; inliers satisfy a symmetric transfer
    error of at most the threshold."""
    X = ac_array(acs)
    n_acs = len(X)
    extra = np.asarray(extra_points, dtype=np.float64).reshape(-1, 4)  # x1, y1, x2, y2
    ones = np.ones((n_acs + len(extra), 1))
    pts1h = np.hstack([np.concatenate([X[:, 0:2], extra[:, 0:2]]), ones])
    pts2h = np.hstack([np.concatenate([X[:, 2:4], extra[:, 2:4]]), ones])

    loop = _LoRansac(
        cfg, 2, n_acs,
        distance=lambda H: _homography_residuals(H, pts1h, pts2h),
        scores=lambda H, ste2: ste2,
        refit=lambda mask: homography_from_acs(
            X[mask[:n_acs]], list(compress(extra_points, mask[n_acs:]))
        ),
    )
    for idx in loop.samples():
        try:
            model = homography_from_acs(X[idx])
        except DEGENERATE:
            loop.skip()
            continue
        loop.offer(model)
    return loop.result()
