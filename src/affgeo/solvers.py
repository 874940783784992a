"""Linear two-view model solvers from affine correspondences.

Each AC contributes three linear equations in the fundamental matrix (one
epipolar, two affine rows matching the expanded constraint algebra in the
residuals module) and six in a homography (two DLT point rows, four rows tying
the local affinity to the warp Jacobian). All solves Hartley-normalise the
points first and rescale the affine rows to unit norm so mixed-unit rows do
not dominate the least-squares solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    AffineCorrespondence,
    CameraIntrinsics,
    FloatArray,
    Mat2,
    Mat3,
    ac_array,
    as_mat3,
    as_vec2,
    homogenize,
)
from .errors import (
    CheiralityAmbiguity,
    DegenerateConfiguration,
    InvalidArgument,
    InvalidValue,
    PointAtInfinity,
    TooFewCorrespondences,
)
from .residuals import FundamentalMatrix, _largest_entry_sign_fix


@dataclass(frozen=True)
class EssentialMatrix:
    """3x3 essential matrix; valid instances have singular values (s, s, 0)."""

    matrix: Mat3

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_mat3(self.matrix))

    def singular_values(self) -> FloatArray:
        return np.linalg.svd(self.matrix, compute_uv=False)


@dataclass(frozen=True)
class Homography:
    """3x3 invertible plane-induced warp, stored h33-normalised when h33 != 0."""

    matrix: Mat3

    def __post_init__(self):
        M = as_mat3(self.matrix)
        if abs(M[2, 2]) > 1e-12:
            M = M / M[2, 2]
        if abs(np.linalg.det(M)) <= 1e-12:
            raise DegenerateConfiguration(f"homography is singular, det = {np.linalg.det(M):.3e}")
        object.__setattr__(self, "matrix", M)


@dataclass(frozen=True)
class RelativePose:
    """Rotation plus unit translation direction mapping camera-1 coordinates
    into camera 2: X2 = R @ X1 + t."""

    R: Mat3
    t: FloatArray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.t, dtype=np.float64).reshape(3)
        with np.errstate(over="ignore"):  # an overflowing |t| is refused below
            nt = np.linalg.norm(t)
        if not (np.isfinite(R).all() and math.isfinite(nt)):
            raise InvalidValue(f"R and t must be finite, with |t| finite; got |t| = {nt}")
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-6 or np.linalg.det(R) < 0.0:
            raise InvalidValue("R is not a proper rotation")
        if nt <= 1e-12:
            raise InvalidValue("translation direction must be nonzero")
        if abs(nt - 1.0) > 1e-12:  # keep already-unit vectors bit-stable
            t = t / nt
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)


# --- small 3d utilities ------------------------------------------------------

def skew3(v) -> Mat3:
    """Cross-product matrix [v]_x."""
    x, y, z = np.asarray(v, dtype=float).reshape(3)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def axis_angle_rotation(axis, angle: float) -> Mat3:
    """Rotation about a (not necessarily unit) axis by angle radians."""
    a = np.asarray(axis, dtype=float).reshape(3)
    n = np.linalg.norm(a)
    if n == 0.0:
        raise InvalidArgument("rotation axis must be nonzero")
    a = a / n
    K = skew3(a)
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def apply_homography(H, p) -> FloatArray:
    """Warp a point by H; raises PointAtInfinity when the denominator vanishes."""
    M = as_mat3(H)
    q = M @ homogenize(p)
    if abs(q[2]) <= 1e-12:
        raise PointAtInfinity(f"point {p} maps to infinity under H")
    return q[:2] / q[2]


# --- Hartley normalisation ---------------------------------------------------

def hartley_transform(points: FloatArray) -> Mat3:
    """Similarity moving the centroid to the origin and the RMS radius to sqrt(2)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    centroid = pts.mean(axis=0)
    return _hartley(centroid, np.sum((pts - centroid) ** 2, axis=1))


def _hartley(centroid: FloatArray, squared_radii: FloatArray) -> Mat3:
    """hartley_transform from the centroid and each point's squared distance to it."""
    rms = math.sqrt(np.mean(squared_radii))
    if not math.isfinite(rms):  # coordinates near the largest double
        raise DegenerateConfiguration(f"RMS radius of the points is {rms}")
    s = math.sqrt(2.0) / rms if rms > 1e-12 else 1.0
    return np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )


def _solve_nullspace(rows: FloatArray) -> FloatArray:
    """Smallest right singular vector of the stacked constraint rows.

    One SVD gives both the rank (with matrix_rank's tolerance) and the null
    vector. It is thin unless there are fewer rows than the 9 unknowns,
    where only the full Vt holds the null vector. Overflowed rows (the SVD can
    hang on them) and an SVD that does not converge are degenerate.
    """
    if not np.isfinite(rows).all():
        raise DegenerateConfiguration("constraint rows overflow")
    try:
        _, S, Vt = np.linalg.svd(rows, full_matrices=rows.shape[0] < 9)
    except np.linalg.LinAlgError as exc:
        raise DegenerateConfiguration(f"constraint matrix SVD: {exc}") from exc
    tol = S.max() * (max(rows.shape) * np.finfo(S.dtype).eps)
    rank = int(np.count_nonzero(S > tol))
    if rank < 8:
        raise DegenerateConfiguration(f"constraint matrix rank {rank} < 8")
    return Vt[-1].reshape(3, 3)


def _unit_rows(rows: FloatArray) -> FloatArray:
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    return rows / np.maximum(norms, 1e-300)


# --- fundamental matrix from ACs ----------------------------------------------

def fundamental_from_acs(acs: Sequence[AffineCorrespondence] | FloatArray) -> FundamentalMatrix:
    """Fundamental matrix from >= 3 ACs (3 linear equations each), given as
    AffineCorrespondence objects or as ac_array rows.

    Exact for 3 noise-free ACs, least squares beyond. The result is rank-2
    projected, unit Frobenius norm, largest-magnitude entry positive.

    Rows are assembled in pixel coordinates (one epipolar row, two rows
    matching the expanded affine-constraint terms) and the Hartley similarity
    is applied as an exact change of variables on the 9 unknowns, which
    conditions the solve without altering the row space.
    """
    X = ac_array(acs)
    n = len(X)
    if n < 3:
        raise TooFewCorrespondences(f"need >= 3 ACs, got {n}")
    # Both images' points centred in one pass, with hartley_transform's
    # reductions; the RMS overflow checks come before the collinearity SVDs.
    centroids = X[:, 0:4].mean(axis=0)
    centred = (X[:, 0:4] - centroids).reshape(n, 2, 2)
    T1 = _hartley(centroids[0:2], np.sum(centred[:, 0] ** 2, axis=1))
    T2 = _hartley(centroids[2:4], np.sum(centred[:, 1] ** 2, axis=1))
    sv = np.linalg.svd(centred.transpose(1, 0, 2), compute_uv=False)
    for (largest, smallest), which in zip(sv, ("first", "second")):
        if smallest <= 1e-9 * max(largest, 1.0):
            raise DegenerateConfiguration(f"points are (near-)collinear in the {which} image")
    # rows[r, i, j, k] multiplies F[j, k] in row r of AC i. With p1h = (x1, y1, 1),
    # the epipolar row is outer((x2, y2, 1), p1h); row m is outer((a11, a21, 0),
    # p1h) plus (x2, y2, 1) in column 0, and row n is outer((a12, a22, 0), p1h)
    # plus (x2, y2, 1) in column 1.
    rows = np.empty((3, n, 3, 3))
    p1 = X[:, 0:2]
    u = np.stack([X[:, 2:4], X[:, 4:8:2], X[:, 5:8:2]])  # (x2, y2), (a11, a21), (a12, a22)
    rows[:, :, 0:2, 0:2] = u[..., None] * p1[:, None, :]
    rows[:, :, 0:2, 2] = u
    rows[0, :, 2, 0:2] = p1
    rows[0, :, 2, 2] = 1.0
    rows[1:, :, 2] = [[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]]
    rows[1, :, 0:2, 0] += X[:, 2:4]
    rows[2, :, 0:2, 1] += X[:, 2:4]
    # Change of variables F = T2^T Fn T1: vec_rm(F) = (T2^T kron T1^T) vec_rm(Fn).
    K = (T2.T[:, None, :, None] * T1.T[None, :, None, :]).reshape(9, 9)
    rows = rows.reshape(3, n, 9) @ K
    rows[1:] = _unit_rows(rows[1:])
    Fn = _solve_nullspace(rows.reshape(3 * n, 9))
    # Rank-2 enforcement in the normalised frame, then undo the similarity.
    U, S, Vt = np.linalg.svd(Fn)
    Fn = U @ np.diag([S[0], S[1], 0.0]) @ Vt
    F = T2.T @ Fn @ T1
    return FundamentalMatrix(_largest_entry_sign_fix(F / np.linalg.norm(F)))


# --- homography from ACs -------------------------------------------------------

def _dlt_rows(pts1: FloatArray, pts2: FloatArray) -> FloatArray:
    """The two DLT rows of each point pair, shape (n, 2, 9)."""
    x1, y1 = pts1[:, 0], pts1[:, 1]
    x2, y2 = pts2[:, 0], pts2[:, 1]
    one = np.ones_like(x1)
    zero = np.zeros_like(x1)
    return np.stack(
        [
            np.stack([x1, y1, one, zero, zero, zero, -x2 * x1, -x2 * y1, -x2], axis=1),
            np.stack([zero, zero, zero, x1, y1, one, -y2 * x1, -y2 * y1, -y2], axis=1),
        ],
        axis=1,
    )


def _affine_rows(X: FloatArray) -> FloatArray:
    """The four rows tying each local affinity to the warp Jacobian, shape (n, 4, 9)."""
    x1, y1, x2, y2, a11, a12, a21, a22 = X.T
    one = np.ones_like(x1)
    zero = np.zeros_like(x1)
    return np.stack(
        [
            np.stack([one, zero, zero, zero, zero, zero, -x2 - a11 * x1, -a11 * y1, -a11], axis=1),
            np.stack([zero, one, zero, zero, zero, zero, -a12 * x1, -x2 - a12 * y1, -a12], axis=1),
            np.stack([zero, zero, zero, one, zero, zero, -y2 - a21 * x1, -a21 * y1, -a21], axis=1),
            np.stack([zero, zero, zero, zero, one, zero, -a22 * x1, -y2 - a22 * y1, -a22], axis=1),
        ],
        axis=1,
    )


def homography_from_acs(
    acs: Sequence[AffineCorrespondence] | FloatArray,
    extra_points: Sequence[tuple] = (),
) -> Homography:
    """Homography from ACs (6 equations each; objects or ac_array rows) plus
    optional bare point pairs (2 DLT equations each); needs >= 8 constraints
    in total.

    As in fundamental_from_acs, rows are built in pixel coordinates and the
    Hartley similarities enter as an exact change of variables. Each AC
    contributes its 2 DLT rows, then its 4 unit-normalised affine rows; the
    extra points' DLT rows come last.
    """
    X = ac_array(acs)
    n_acs = len(X)
    n_constraints = 6 * n_acs + 2 * len(extra_points)
    if n_constraints < 8:
        raise TooFewCorrespondences(f"{n_constraints} constraints < 8")
    pts1 = np.concatenate([X[:, 0:2], np.reshape([as_vec2(p) for p, _ in extra_points], (-1, 2))])
    pts2 = np.concatenate([X[:, 2:4], np.reshape([as_vec2(q) for _, q in extra_points], (-1, 2))])
    T1 = hartley_transform(pts1)
    T2 = hartley_transform(pts2)
    # H = T2^{-1} Hn T1: vec_rm(H) = (T2^{-1} kron T1^T) vec_rm(Hn).
    K = np.kron(np.linalg.inv(T2), T1.T)

    dlt = _dlt_rows(pts1, pts2)
    aff = _affine_rows(X)
    rows = np.concatenate(
        [np.concatenate([dlt[:n_acs], aff], axis=1).reshape(-1, 9), dlt[n_acs:].reshape(-1, 9)]
    ) @ K
    per_ac = rows[: 6 * n_acs].reshape(n_acs, 6, 9)  # a view: the writes reach rows
    per_ac[:, 2:] = _unit_rows(per_ac[:, 2:])
    Hn = _solve_nullspace(rows)
    H = np.linalg.inv(T2) @ Hn @ T1
    if abs(H[2, 2]) <= 1e-12:
        H = _largest_entry_sign_fix(H / np.linalg.norm(H))
    return Homography(H)


# --- essential matrix and pose -------------------------------------------------

def essential_from_fundamental(
    F, K1: CameraIntrinsics, K2: CameraIntrinsics
) -> EssentialMatrix:
    """E = K2^T F K1 projected onto the essential manifold.

    Singular values are replaced by their mean (sigma, sigma, 0) and the
    result is scaled to Frobenius norm sqrt(2), i.e. singular values (1, 1, 0).
    """
    E = as_mat3(K2.K.T @ as_mat3(F) @ K1.K)  # refuses an overflowed E before the SVD
    U, S, Vt = np.linalg.svd(E)
    s = 0.5 * (S[0] + S[1])
    E = U @ np.diag([s, s, 0.0]) @ Vt
    E = E * (math.sqrt(2.0) / np.linalg.norm(E))
    return EssentialMatrix(_largest_entry_sign_fix(E))


def triangulate_point(P1: FloatArray, P2: FloatArray, x1, x2) -> FloatArray:
    """Linear (DLT) triangulation; returns the homogeneous 4-vector."""
    x1 = np.asarray(x1, dtype=float).reshape(2)
    x2 = np.asarray(x2, dtype=float).reshape(2)
    A = np.stack(
        [
            x1[0] * P1[2] - P1[0],
            x1[1] * P1[2] - P1[1],
            x2[0] * P2[2] - P2[0],
            x2[1] * P2[2] - P2[1],
        ]
    )
    _, _, Vt = np.linalg.svd(A)
    return Vt[-1]


def _normalised_points(points, K: CameraIntrinsics) -> FloatArray:
    """Pixel points mapped through K^-1 and dehomogenised, shape (n, 2)."""
    pts = np.asarray(points, dtype=np.float64).reshape(len(points), 2)
    xh = np.hstack([pts, np.ones((len(pts), 1))]) @ np.linalg.inv(K.K).T
    if not np.all(np.isfinite(xh)):  # non-finite points, or K^-1 overflowed (fx near 0)
        raise InvalidValue("points are not finite after K^-1")
    return xh[:, :2] / xh[:, 2:3]


def _positive_depth_count(R: Mat3, t: FloatArray, x1: FloatArray, x2: FloatArray) -> int:
    """Points that triangulate in front of both cameras [I | 0] and [R | t].

    Each point is triangulated as in triangulate_point, all in one batched
    SVD; points at infinity (|w| <= 1e-14) do not count.
    """
    P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    P2 = np.hstack([R, t.reshape(3, 1)])
    A = np.stack(
        [
            x1[:, 0:1] * P1[2] - P1[0],
            x1[:, 1:2] * P1[2] - P1[1],
            x2[:, 0:1] * P2[2] - P2[0],
            x2[:, 1:2] * P2[2] - P2[1],
        ],
        axis=1,
    )
    X = np.linalg.svd(A)[2][:, -1]
    w = X[:, 3]
    z1 = X[:, 2] * w
    z2 = (X @ P2[2]) * w
    return int(np.count_nonzero((np.abs(w) > 1e-14) & (z1 > 0.0) & (z2 > 0.0)))


def decompose_essential(
    E,
    correspondences: Iterable[tuple],
    K1: CameraIntrinsics,
    K2: CameraIntrinsics,
) -> RelativePose:
    """Pick the (R, t) candidate in which a strict majority of triangulated
    points has positive depth in both cameras."""
    M = as_mat3(E)
    U, _, Vt = np.linalg.svd(M)
    if np.linalg.det(U) < 0.0:
        U = -U
    if np.linalg.det(Vt) < 0.0:
        Vt = -Vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    t = U[:, 2]
    candidates = [
        (U @ W @ Vt, t),
        (U @ W @ Vt, -t),
        (U @ W.T @ Vt, t),
        (U @ W.T @ Vt, -t),
    ]
    pairs = list(correspondences)
    n = len(pairs)
    x1 = _normalised_points([p1 for p1, _ in pairs], K1)
    x2 = _normalised_points([p2 for _, p2 in pairs], K2)
    counts = [_positive_depth_count(R, tt, x1, x2) for R, tt in candidates]
    best = int(np.argmax(counts))
    if counts[best] * 2 <= n or counts.count(counts[best]) > 1:
        raise CheiralityAmbiguity(f"positive-depth votes {counts} over {n} points")
    R, tt = candidates[best]
    # Contract: always hand back a proper rotation and unit direction.
    assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-10
    assert abs(np.linalg.det(R) - 1.0) <= 1e-10
    return RelativePose(R=R, t=tt)


# --- ground-truth affinity from a homography -----------------------------------

def gt_affine_from_homography(H, p1) -> Mat2:
    """Jacobian of the H-induced warp at p1: the ground-truth local affinity."""
    M = as_mat3(H)
    x, y = as_vec2(p1)
    s = M[2, 0] * x + M[2, 1] * y + M[2, 2]
    if abs(s) <= 1e-12:
        raise PointAtInfinity(f"denominator {s:.3e} at point ({x}, {y})")
    x2 = (M[0, 0] * x + M[0, 1] * y + M[0, 2]) / s
    y2 = (M[1, 0] * x + M[1, 1] * y + M[1, 2]) / s
    return np.array(
        [
            [(M[0, 0] - x2 * M[2, 0]) / s, (M[0, 1] - x2 * M[2, 1]) / s],
            [(M[1, 0] - y2 * M[2, 0]) / s, (M[1, 1] - y2 * M[2, 1]) / s],
        ]
    )
