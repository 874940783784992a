"""Affine-aware robust estimation: seeded LO-RANSAC over AC minimal samples.

Hypotheses are scored with the point Sampson distance plus a weighted sum of
both affine Sampson components; the inlier test itself stays point-only so the
pixel threshold keeps its meaning. Models are ranked by (inlier count desc,
truncated score asc, hypothesis index asc), which makes the outcome a pure
function of the inputs and the seed. The affine terms only break ties
between equal counts, so they are computed only when two equal counts are
compared, and once for the result. Both estimators run the same loop
(_LoRansac), which draws minimal samples in blocks, solves and counts each block
in one stacked pass and refits a new best on its inliers while the refits
improve and the mask still changes; each estimator supplies only its block
solve (fundamental_batch, homography_batch), its residuals and its LO refit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import AffineCorrespondence, CameraIntrinsics, ac_array, match_array
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
    homography_batch,
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
    terms are computed only when two equal counts are compared, and once for
    the result."""

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

# Minimal samples drawn per block: BLOCK_START, then twice the last up to BLOCK_CAP,
# and no more than keeps a block's (B, N) distances within SCORED_PER_BLOCK entries.
BLOCK_START, BLOCK_CAP, SCORED_PER_BLOCK = 16, 64, 1 << 21


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

    run() draws the minimal samples in blocks and takes each block through
    one stacked pass: solve(block) maps a (B, sample_size) index array to B
    matrices and per sample None or the message of its degenerate solve, and
    distance(stack) maps a (G, 3, 3) stack to the (G, points) squared
    distances that the threshold applies to. Every unflagged sample's inlier count comes
    from that one pass. The block is then walked in draw order: a flagged
    sample only counts as degenerate, and a hypothesis whose count cannot tie
    or beat the best one only takes up its iteration. The others become
    model(matrix) and are ranked by (inlier count desc, truncated total asc,
    iteration asc); scores(model, d2) returns the per-correspondence scores
    whose truncated sum is the total. A total is computed once, when it is
    first read: the incumbent's before the challenger's, when their counts are
    equal, and the best's for the result. A new best runs up to 16 local
    optimisation refits, refit(mask), over its inlier set while they improve
    and the mask still changes (refit is a pure function of the mask; it may
    raise one of the DEGENERATE exceptions), and tightens the
    adaptive bound. Whatever a block holds past the stop is dropped.

    The benchmark's tracer (bench/tracing.py) tells a minimal solve from an
    LO refit by the solver's calling code object: minimal samples go through
    the module globals fundamental_batch and homography_batch, so
    fundamental_from_acs and homography_from_acs only refit, from offer().
    TestTracerSeam in tests/test_robust.py pins both.
    """

    def __init__(self, cfg: RansacConfig, sample_size: int, population: int, points: int,
                 solve, distance, model, scores, refit):
        if population < sample_size:
            raise TooFewCorrespondences(f"need >= {sample_size} ACs, got {population}")
        self.cfg = cfg
        self.sample_size = sample_size
        self.population = population
        self.block_cap = max(1, min(BLOCK_CAP, SCORED_PER_BLOCK // points))
        self.solve = solve
        self.distance = distance
        self.model = model
        self.scores = scores
        self.refit = refit
        self.thr2 = cfg.threshold * cfg.threshold
        self.bound = cfg.max_iterations
        self.iterations = 0
        self.degenerate_run = 0  # draws in a row whose minimal solve raised, with no model
        self.best = None  # (key, model, mask)

    def _going(self) -> bool:
        return self.iterations < self.bound and self.degenerate_run < DEGENERATE_DRAW_LIMIT

    def run(self) -> RobustEstimate:
        """Draw, solve and count block by block until the adaptive bound or
        until DEGENERATE_DRAW_LIMIT draws in a row were degenerate. A block
        holds BLOCK_START samples, then twice the last up to the block cap, and
        never more than the bound leaves."""
        rng = np.random.default_rng(self.cfg.seed)
        size = min(BLOCK_START, self.block_cap)
        while self._going():
            block = [rng.choice(self.population, size=self.sample_size, replace=False)
                     for _ in range(min(size, self.bound - self.iterations))]
            size = min(2 * size, self.block_cap)
            matrices, faults = self.solve(np.array(block))
            stack = matrices[[fault is None for fault in faults]]
            d2 = self.distance(stack)
            hypotheses = zip(stack, d2, np.count_nonzero(d2 <= self.thr2, axis=1).tolist())
            for fault in faults:
                if not self._going():
                    break
                self.iterations += 1
                if fault is None:
                    self.offer(*next(hypotheses))
                elif self.best is None:
                    self.degenerate_run += 1
        return self.result()

    def _support(self, model):
        """An LO refit's inlier mask, count and truncated total (a thunk)."""
        d2 = self.distance(model.matrix[None])[0]
        mask = d2 <= self.thr2
        return mask, int(np.count_nonzero(mask)), self._total(model, d2)

    def _total(self, model, d2):
        """The truncated total, as a memoised thunk: it is read only to rank
        equal counts. It holds no reference to the loop, whose best holds it."""
        scores, thr2 = self.scores, self.thr2
        return functools.cache(lambda: float(np.sum(np.fmin(scores(model, d2), thr2))))

    def offer(self, matrix, d2, count: int) -> None:
        """Rank a minimal sample's hypothesis from its squared distances d2
        and its inlier count."""
        self.degenerate_run = 0
        floor = max(self.sample_size, -self.best[0][0]) if self.best else self.sample_size
        if count < floor:
            return
        model = self.model(matrix.copy())  # copies: a kept model or total does not pin its block
        mask, total = d2 <= self.thr2, self._total(model, d2.copy())
        if self.best is not None and count == -self.best[0][0] and self.best[0][1]() <= total():
            return  # an equal count whose total does not beat the best's, drawn later
        if self.cfg.lo_enabled:
            for _ in range(16):
                try:
                    candidate = self.refit(mask)
                except DEGENERATE:
                    break
                new_mask, new_count, new_total = self._support(candidate)
                if new_count < count or new_count == count and total() <= new_total():
                    break
                model, mask, count, total, fit_on = candidate, new_mask, new_count, new_total, mask
                if np.array_equal(mask, fit_on):  # a fixed point: refit(mask) is candidate again
                    break
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
            model=model, inlier_mask=mask, iterations_run=self.iterations, score=total()
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
    return _LoRansac(
        cfg, 3, len(X), len(X),
        solve=lambda block: fundamental_batch(X[block]),
        distance=lambda F: sampson_point_batch(*columns[:4], F),
        model=FundamentalMatrix,
        scores=lambda F, sp: _fundamental_scores(columns, F.matrix, sp, cfg.affine_weight),
        refit=lambda mask: fundamental_from_acs(X[mask]),
    ).run()


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
    pose = decompose_essential(E, X[estimate.inlier_mask, 0:4], K1, K2)
    return pose, estimate


def _homography_residuals(H: np.ndarray, pts1h: np.ndarray, pts2h: np.ndarray) -> np.ndarray:
    """Squared symmetric transfer error of each H in a (..., 3, 3) stack per
    correspondence, shape (..., N); +inf at infinity."""
    fwd = pts1h @ H.swapaxes(-1, -2)
    bwd = pts2h @ np.linalg.inv(H).swapaxes(-1, -2)
    # one (..., N) plane per coordinate: numpy loops over an axis of 2 or 3 slowly
    (fx, fy, fz), (bx, by, bz) = np.moveaxis(fwd, -1, 0), np.moveaxis(bwd, -1, 0)
    ok = (np.abs(fz) > 1e-12) & (np.abs(bz) > 1e-12)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # rows at infinity
        dfx, dfy = fx / fz - pts2h[:, 0], fy / fz - pts2h[:, 1]
        dbx, dby = bx / bz - pts1h[:, 0], by / bz - pts1h[:, 1]
        d = (dfx * dfx + dfy * dfy) + (dbx * dbx + dby * dby)
    return np.where(ok, d, np.inf)


def ransac_homography(
    acs: Sequence[AffineCorrespondence] | np.ndarray,
    extra_points: np.ndarray | Iterable[tuple],
    cfg: RansacConfig,
) -> RobustEstimate:
    """Robust homography (minimal sample: 2 ACs); extra_points in any form
    match_array takes. The mask covers the ACs first, then the extra point
    pairs; inliers satisfy a symmetric transfer error of at most the threshold."""
    X, extra = ac_array(acs), match_array(extra_points)
    n_acs = len(X)
    ones = np.ones((n_acs + len(extra), 1))
    pts1h = np.hstack([np.concatenate([X[:, 0:2], extra[:, 0:2]]), ones])
    pts2h = np.hstack([np.concatenate([X[:, 2:4], extra[:, 2:4]]), ones])

    return _LoRansac(
        cfg, 2, n_acs, len(pts1h),
        solve=lambda block: homography_batch(X[block]),
        distance=lambda H: _homography_residuals(H, pts1h, pts2h),
        model=Homography,
        scores=lambda H, ste2: ste2,
        refit=lambda mask: homography_from_acs(X[mask[:n_acs]], extra[mask[n_acs:]]),
    ).run()
