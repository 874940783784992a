"""Evaluation metrics: MMA curves and their weighted score, affine-shape
similarity, angular pose errors, pose-error AUC and RMSE aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FloatArray, as_mat2, match_array
from .errors import InvalidArgument, InvalidValue
from .solvers import Homography, RelativePose

MMA_THRESHOLDS = np.arange(1, 11)  # pixels

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class MmaCurve:
    """Mean matching accuracy at pixel thresholds 1..10."""

    values: FloatArray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(10)
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise InvalidValue("MMA values must lie in [0, 1]")
        if np.any(np.diff(v) < 0.0):
            raise InvalidValue("MMA curve must be nondecreasing in the threshold")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class PoseError:
    """Angular rotation and translation-direction errors in degrees."""

    rotation_error: float
    translation_error: float

    def __post_init__(self):
        if not 0.0 <= self.rotation_error <= 180.0:
            raise InvalidValue(f"rotation error {self.rotation_error} outside [0, 180]")
        if not 0.0 <= self.translation_error <= 90.0:
            raise InvalidValue(f"translation error {self.translation_error} outside [0, 90]")


@dataclass(frozen=True)
class MatchEvalReport:
    """Aggregate matching evaluation over one or more image pairs; curve is
    the mean of pair_curves, one per pair in input order."""

    curve: MmaCurve
    mma_score: float
    n_pairs: int
    n_matches: int
    pair_curves: tuple[MmaCurve, ...]


def _match_errors(m: FloatArray, H_gt) -> tuple[FloatArray, np.ndarray]:
    """Reprojection errors of a match_array's rows under H; the validity mask
    is False where the point maps to infinity (counted as incorrect)."""
    H = H_gt.matrix if isinstance(H_gt, Homography) else np.asarray(H_gt, dtype=float)
    ones = np.ones((m.shape[0], 1))
    q = np.hstack([m[:, :2], ones]) @ H.T
    valid = np.abs(q[:, 2]) > 1e-12
    proj = np.empty((m.shape[0], 2))
    proj[valid] = q[valid, :2] / q[valid, 2:3]
    proj[~valid] = np.inf
    return np.linalg.norm(proj - m[:, 2:4], axis=1), valid


def mma_at_threshold(matches, H_gt, thr: float) -> float:
    """Fraction of matches whose warp error is within thr pixels (0 if empty)."""
    if not thr > 0.0:  # NaN-safe
        raise InvalidArgument(f"threshold must be positive, got {thr}")
    m = match_array(matches)
    if m.shape[0] == 0:
        return 0.0
    err, valid = _match_errors(m, H_gt)
    return float(np.mean(valid & (err <= thr)))


def mma_curve(matches, H_gt) -> MmaCurve:
    """MMA at every integer threshold 1..10 px."""
    m = match_array(matches)
    if m.shape[0] == 0:
        return MmaCurve(np.zeros(10))
    err, valid = _match_errors(m, H_gt)
    return MmaCurve(
        np.array([np.mean(valid & (err <= thr)) for thr in MMA_THRESHOLDS])
    )


def mma_weights() -> FloatArray:
    """Per-threshold weights 2 - 0.1*thr for thr = 1..10."""
    return (20 - MMA_THRESHOLDS) / 10.0


def mma_weight_denominator() -> float:
    """Sum of the MMA weights; exactly 14.5."""
    return float(np.sum(20 - MMA_THRESHOLDS)) / 10.0


def mma_score(curve: MmaCurve) -> float:
    """Weighted mean of the curve, weights 2 - 0.1*thr (lower thresholds count more)."""
    iw = 20 - MMA_THRESHOLDS  # integer weights, x10
    return float(iw @ curve.values) / float(np.sum(iw))


def evaluate_matches(pairs) -> MatchEvalReport:
    """Per-pair-then-mean MMA aggregation over (matches, H_gt) pairs."""
    pairs = [(match_array(m), H) for m, H in pairs]
    if not pairs:
        raise InvalidArgument("no image pairs to evaluate")
    curves = tuple(mma_curve(m, H) for m, H in pairs)
    mean_curve = MmaCurve(np.mean([c.values for c in curves], axis=0))
    n_matches = sum(len(m) for m, _ in pairs)
    return MatchEvalReport(
        curve=mean_curve,
        mma_score=mma_score(mean_curve),
        n_pairs=len(pairs),
        n_matches=int(n_matches),
        pair_curves=curves,
    )


def affine_similarity(A_est, A_gt) -> tuple[float, float]:
    """(Euclidean distance, cosine similarity) of the flattened 2x2 matrices."""
    a = as_mat2(A_est).ravel()
    b = as_mat2(A_gt).ravel()
    dist = float(np.linalg.norm(a - b))
    if np.max(np.abs(a)) <= 1e-300 or np.max(np.abs(b)) <= 1e-300:
        raise InvalidValue("cosine similarity undefined for an all-zero matrix")
    # prescale by the largest entry so the squared norms cannot under/overflow,
    # then divide by sqrt(aa * bb): exact 1.0 for (scaled) identical matrices
    a = a / np.max(np.abs(a))
    b = b / np.max(np.abs(b))
    cos = float(a @ b) / math.sqrt(float(a @ a) * float(b @ b))
    return dist, cos


def pose_error(est: RelativePose, gt: RelativePose) -> PoseError:
    """Angular pose errors in degrees; translation compared up to sign."""
    cos_r = 0.5 * (np.trace(gt.R.T @ est.R) - 1.0)
    rot = math.degrees(math.acos(min(1.0, max(-1.0, cos_r))))
    cos_t = abs(float(gt.t @ est.t))
    trans = math.degrees(math.acos(min(1.0, cos_t)))
    return PoseError(rotation_error=rot, translation_error=trans)


def pose_auc(errors, thresholds=(5.0, 10.0, 20.0)) -> list[float]:
    """Normalised area under the cumulative recall curve of pose errors.

    Trapezoidal integration over the sorted errors; an error exactly at a
    threshold counts toward the recall there. Failures should be encoded as
    +inf so they count against every threshold.
    """
    errs = np.asarray(list(errors), dtype=float)
    if errs.size == 0:
        raise InvalidArgument("pose_auc needs at least one error value")
    if np.any(errs < 0.0) or np.any(np.isnan(errs)):
        raise InvalidValue("pose errors must be >= 0")
    order = np.sort(errs)
    recall = np.arange(1, errs.size + 1) / errs.size
    e = np.concatenate([[0.0], order])
    r = np.concatenate([[0.0], recall])
    out = []
    for tau in thresholds:
        if not 0.0 < tau < math.inf:  # NaN-safe
            raise InvalidArgument(f"AUC threshold must be positive and finite, got {tau}")
        last = int(np.searchsorted(e, tau, side="right"))
        e_cut = np.concatenate([e[:last], [tau]])
        r_cut = np.concatenate([r[:last], [r[last - 1]]])
        with np.errstate(over="ignore"):  # the trapezoid overflows near the largest double
            auc = float(_trapezoid(r_cut, x=e_cut) / tau)
        if not math.isfinite(auc):
            raise InvalidArgument(f"AUC threshold {tau} is too large: the area overflows")
        out.append(auc)
    return out


def rmse(values) -> float:
    """Root mean square of the values."""
    v = np.asarray(list(values), dtype=float)
    if v.size == 0:
        raise InvalidArgument("rmse of an empty list")
    return float(np.sqrt(np.mean(v * v)))


def median(values) -> float:
    """Median of the values (companion aggregator to rmse)."""
    v = np.asarray(list(values), dtype=float)
    if v.size == 0:
        raise InvalidArgument("median of an empty list")
    return float(np.median(v))
