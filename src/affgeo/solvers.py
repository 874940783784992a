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
    match_array,
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


# --- Hartley normalisation and the null vector, over a stack of B samples -----

def _flag(faults: list, bad: np.ndarray, message) -> None:
    """A check that the samples bad marks fail: record message(i) as the
    fault of each, where no earlier check failed."""
    for i in bad.nonzero()[0]:  # half the cost of np.flatnonzero, paid by every solve
        faults[i] = faults[i] or message(i)


def _similarities(P: FloatArray, faults: list):
    """Both images' Hartley similarities T1, T2 (centroid to the origin, RMS radius
    to sqrt(2)) from (B, m, 4) rows x1, y1, x2, y2, and the points centred."""
    centroids = P.mean(axis=1).reshape(-1, 2, 2)
    centred = P.reshape(len(P), -1, 2, 2) - centroids[:, None]
    # (B, 2, m) and contiguous, so each image's mean is numpy's pairwise sum
    rms = np.sqrt(np.mean(np.sum(centred ** 2, axis=-1).swapaxes(1, 2).copy(), axis=-1))
    for k, which in enumerate(("first", "second")):  # coordinates near the largest double
        _flag(faults, ~np.isfinite(rms[:, k]),
              lambda i: f"RMS radius of the points in the {which} image is {rms[i, k]}")
    s = np.divide(math.sqrt(2.0), rms, out=np.ones_like(rms), where=rms > 1e-12)
    T = s[..., None, None] * np.eye(3)
    T[..., 0:2, 2] = -s[..., None] * centroids
    T[..., 2, 2] = 1.0
    T[~np.isfinite(rms)] = np.eye(3)  # flagged above; keeps a stacked inverse regular
    return T[:, 0], T[:, 1], centred


def _kron3(A: FloatArray, B: FloatArray) -> FloatArray:
    """Kronecker products of 3x3 stacks: vec_rm(A M B^T) = _kron3(A, B) vec_rm(M)."""
    return (A[..., :, None, :, None] * B[..., None, :, None, :]).reshape(*A.shape[:-2], 9, 9)


def _solve_nullspace(rows: FloatArray, faults: list) -> FloatArray:
    """Smallest right singular vector of each sample's (m, 9) constraint rows.

    One SVD gives both the rank (with matrix_rank's tolerance) and the null
    vector; it is thin unless m < 9, where only the full Vt holds the null
    vector. Overflowed rows are degenerate. An SVD that does not converge
    raises LinAlgError, which _in_one_pass handles.
    """
    finite = np.isfinite(rows).all(axis=(1, 2))
    _flag(faults, ~finite, lambda i: "constraint rows overflow")
    if not finite.all():  # zero the non-finite entries: the SVD can hang on them
        rows = np.where(np.isfinite(rows), rows, 0.0)
    _, S, Vt = np.linalg.svd(rows, full_matrices=rows.shape[1] < 9)
    tol = S.max(axis=1) * (max(rows.shape[1:]) * np.finfo(S.dtype).eps)
    rank = np.sum(S > tol[:, None], axis=1)
    _flag(faults, rank < 8, lambda i: f"constraint matrix rank {rank[i]} < 8")
    return Vt[:, -1].reshape(-1, 3, 3)


def _unit_rows(rows: FloatArray) -> FloatArray:
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    return rows / np.maximum(norms, 1e-300)


# --- fundamental matrix from ACs ----------------------------------------------

def _fundamental(S: FloatArray, faults: list) -> FloatArray:
    """F of each sample in S, a (B, m, 8) stack of ac_array rows, m >= 3;
    faults as in _flag.

    Rows are assembled in pixel coordinates (one epipolar row, two rows
    matching the expanded affine-constraint terms) and the Hartley similarity
    is applied as an exact change of variables on the 9 unknowns, which
    conditions the solve without altering the row space.
    """
    B, n = S.shape[:2]
    T1, T2, centred = _similarities(S[:, :, 0:4], faults)
    centred = np.where(np.isfinite(centred), centred, 0.0).swapaxes(1, 2)  # as in _solve_nullspace
    sv = np.linalg.svd(centred, compute_uv=False)
    collinear = sv[..., 1] <= 1e-9 * np.maximum(sv[..., 0], 1.0)
    for k, which in enumerate(("first", "second")):
        _flag(faults, collinear[:, k],
              lambda i: f"points are (near-)collinear in the {which} image")
    # rows[b, r, i, j, k] multiplies F[j, k] in row r of AC i. With p1h = (x1, y1, 1),
    # the epipolar row is outer((x2, y2, 1), p1h); row m is outer((a11, a21, 0),
    # p1h) plus (x2, y2, 1) in column 0, and row n is outer((a12, a22, 0), p1h)
    # plus (x2, y2, 1) in column 1. u[:, r] holds (x2, y2), (a11, a21), (a12, a22).
    rows = np.empty((B, 3, n, 3, 3))
    p1, p2 = S[:, :, 0:2], S[:, :, 2:4]
    u = S[:, :, [2, 3, 4, 6, 5, 7]].reshape(B, n, 3, 2).swapaxes(1, 2)
    rows[..., 0:2, 0:2] = u[..., None] * p1[:, None, :, None, :]
    rows[..., 0:2, 2] = u
    rows[:, 0, :, 2, 0:2] = p1
    rows[:, 0, :, 2, 2] = 1.0
    rows[:, 1:, :, 2] = [[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]]
    rows[:, 1, :, 0:2, 0] += p2
    rows[:, 2, :, 0:2, 1] += p2
    # Change of variables F = T2^T Fn T1: vec_rm(F) = (T2^T kron T1^T) vec_rm(Fn).
    T2t = T2.swapaxes(1, 2)
    rows = rows.reshape(B, 3, n, 9) @ _kron3(T2t, T1.swapaxes(1, 2))[:, None]
    rows[:, 1:] = _unit_rows(rows[:, 1:])
    Fn = _solve_nullspace(rows.reshape(B, 3 * n, 9), faults)
    # Rank-2 enforcement in the normalised frame, then undo the similarity.
    U, sv, Vt = np.linalg.svd(Fn)
    F = T2t @ (U @ (sv[:, :, None] * np.diag([1.0, 1.0, 0.0])) @ Vt) @ T1
    f = F.reshape(B, 1, 9)  # f @ f^T is the dot product np.linalg.norm takes, bit for bit
    return _largest_entry_sign_fix(F / np.sqrt(f @ f.swapaxes(1, 2)))


def _in_one_pass(solve, S: FloatArray) -> tuple[FloatArray, list[str | None]]:
    """solve(S, faults) over a block of samples in one stacked pass: B matrices
    and per sample None or its first failed check (its matrix is meaningless).
    Only this handles an SVD that does not converge (LinAlgError): a block
    retries each sample as a block of one, where it is degenerate."""
    faults: list[str | None] = [None] * len(S)
    try:
        with np.errstate(all="ignore"):  # arithmetic on samples already flagged
            return solve(S, faults), faults
    except np.linalg.LinAlgError as exc:
        if len(S) == 1:
            return np.zeros((1, 3, 3)), [faults[0] or f"constraint matrix SVD: {exc}"]
    singles = [_in_one_pass(solve, S[i:i + 1]) for i in range(len(S))]
    return np.concatenate([M for M, _ in singles]), [fault for _, (fault,) in singles]


def fundamental_batch(S: FloatArray) -> tuple[FloatArray, list[str | None]]:
    """fundamental_from_acs over a (B, m, 8) block of samples, m >= 3, bit for
    bit, in one stacked pass (see _in_one_pass)."""
    return _in_one_pass(_fundamental, S)


def fundamental_from_acs(acs: Sequence[AffineCorrespondence] | FloatArray) -> FundamentalMatrix:
    """Fundamental matrix from >= 3 ACs (3 linear equations each), given as
    AffineCorrespondence objects or as ac_array rows.

    Exact for 3 noise-free ACs, least squares beyond. The result is rank-2
    projected, unit Frobenius norm, largest-magnitude entry positive.
    """
    X = ac_array(acs)
    if len(X) < 3:
        raise TooFewCorrespondences(f"need >= 3 ACs, got {len(X)}")
    (F,), (fault,) = _in_one_pass(_fundamental, X[None])
    if fault:
        raise DegenerateConfiguration(fault)
    return FundamentalMatrix(F)


# --- homography from ACs -------------------------------------------------------

def _homography(S: FloatArray, faults: list, extra=None) -> FloatArray:
    """H of each sample in S, a (B, n, 8) stack of ac_array rows, plus extra,
    (B, k, 4) bare point pairs x1, y1, x2, y2; faults as in _flag.

    As in _fundamental, rows are built in pixel coordinates and the Hartley
    similarities enter as an exact change of variables. Each AC contributes
    its 2 DLT rows, then its 4 unit-normalised affine rows; the extra points'
    DLT rows come last. H is h33-normalised and refused if singular, as
    Homography does.
    """
    P = S[..., 0:4] if extra is None else np.concatenate([S[..., 0:4], extra], axis=1)
    (B, m), n = P.shape[:2], S.shape[1]
    T1, T2, _ = _similarities(P, faults)
    # rows[b, i, r] is row r of point i. With p1h = (x1, y1, 1), the DLT rows are
    # (p1h, 0, -x2 p1h) and (0, p1h, -y2 p1h). Affine row r = 2..5 of an AC has
    # a 1 in column 0, 1, 3 or 4 and -a p1h in columns 6-8 for a = a11, a12,
    # a21, a22, less x2 (r = 2, 3) or y2 (r = 4, 5) in column 6 or 7.
    rows = np.zeros((B, m, 6, 9))
    p1h = np.concatenate([P[..., 0:2], np.ones((B, m, 1))], axis=-1)
    rows[..., 0, 0:3] = rows[..., 1, 3:6] = p1h
    rows[..., 0:2, 6:9] = -(P[..., 2:4, None] * p1h[..., None, :])
    rows[:, :n, 2:6, [0, 1, 3, 4]] = np.eye(4)
    rows[:, :n, 2:6, 6:9] = -(S[..., 4:8, None] * p1h[:, :n, None, :])
    rows[:, :n, [2, 3, 4, 5], [6, 7, 6, 7]] -= S[..., [2, 2, 3, 3]]
    stacked = np.concatenate([rows[:, :n].reshape(B, -1, 9), rows[:, n:, 0:2].reshape(B, -1, 9)],
                             axis=1)
    # H = T2^{-1} Hn T1: vec_rm(H) = (T2^{-1} kron T1^T) vec_rm(Hn).
    T2inv = np.linalg.inv(T2)
    stacked = stacked @ _kron3(T2inv, T1.swapaxes(1, 2))
    per_ac = stacked[:, : 6 * n].reshape(B, n, 6, 9)  # a view: the writes reach stacked
    per_ac[:, :, 2:] = _unit_rows(per_ac[:, :, 2:])
    H = T2inv @ _solve_nullspace(stacked, faults) @ T1
    far = np.abs(H[:, 2, 2]) <= 1e-12
    if far.any():  # h33 cannot scale these: unit norm, largest entry positive
        h = H[far].reshape(-1, 1, 9)
        H[far] = _largest_entry_sign_fix(H[far] / np.sqrt(h @ h.swapaxes(1, 2)))
    H = H / np.where(np.abs(H[:, 2, 2]) > 1e-12, H[:, 2, 2], 1.0)[:, None, None]
    det = np.linalg.det(H)
    _flag(faults, np.abs(det) <= 1e-12, lambda i: f"homography is singular, det = {det[i]:.3e}")
    return H


def homography_batch(S: FloatArray) -> tuple[FloatArray, list[str | None]]:
    """homography_from_acs over a (B, n, 8) block of samples, bit for bit, in
    one stacked pass (see _in_one_pass)."""
    return _in_one_pass(_homography, S)


def homography_from_acs(
    acs: Sequence[AffineCorrespondence] | FloatArray,
    extra_points: FloatArray | Iterable[tuple] = (),
) -> Homography:
    """Homography from ACs (6 equations each; objects or ac_array rows) plus
    optional point pairs in any form match_array takes (2 DLT equations each);
    needs >= 8 constraints in total. The rows and their solve are described in
    _homography."""
    X, E = ac_array(acs), match_array(extra_points)
    n_constraints = 6 * len(X) + 2 * len(E)
    if n_constraints < 8:
        raise TooFewCorrespondences(f"{n_constraints} constraints < 8")
    if not np.isfinite(E).all():  # as_vec2 names the first bad p, else the first bad q
        for p in (*E[:, 0:2], *E[:, 2:4]):
            as_vec2(p)
    (H,), (fault,) = _in_one_pass(lambda S, faults: _homography(S, faults, E[None]), X[None])
    if fault:
        raise DegenerateConfiguration(fault)
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


def _normalised_points(pts: FloatArray, K: CameraIntrinsics) -> FloatArray:
    """Pixel points, an (n, 2) array, mapped through K^-1 and dehomogenised."""
    xh = np.hstack([pts, np.ones((len(pts), 1))]) @ np.linalg.inv(K.K).T
    if not np.all(np.isfinite(xh)):  # non-finite points, or K^-1 overflowed (fx near 0)
        raise InvalidValue("points are not finite after K^-1")
    return xh[:, :2] / xh[:, 2:3]


def _positive_depth_counts(R: Mat3, t: FloatArray, x1: FloatArray,
                           x2: FloatArray) -> tuple[int, int]:
    """Points that triangulate in front of both cameras [I | 0] and [R | t],
    and those in front of both [I | 0] and [R | -t].

    Each point is triangulated as in triangulate_point, all in one batched
    SVD; points at infinity (|w| <= 1e-14) do not count. The DLT system of
    (R, -t) is this one times diag(1, 1, 1, -1), so its null vector is this
    one with w negated, and both depths change sign.
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
    finite = np.abs(w) > 1e-14
    return (int(np.count_nonzero(finite & (z1 > 0.0) & (z2 > 0.0))),
            int(np.count_nonzero(finite & (z1 < 0.0) & (z2 < 0.0))))


def decompose_essential(
    E,
    correspondences: FloatArray | Iterable[tuple],
    K1: CameraIntrinsics,
    K2: CameraIntrinsics,
) -> RelativePose:
    """Pick the (R, t) candidate in which a strict majority of triangulated
    point pairs (in any form match_array takes) has positive depth in both cameras."""
    M, P = as_mat3(E), match_array(correspondences)
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
    x1 = _normalised_points(P[:, 0:2], K1)
    x2 = _normalised_points(P[:, 2:4], K2)
    counts = [c for R, tt in candidates[::2] for c in _positive_depth_counts(R, tt, x1, x2)]
    best = int(np.argmax(counts))
    if counts[best] * 2 <= len(P) or counts.count(counts[best]) > 1:
        raise CheiralityAmbiguity(f"positive-depth votes {counts} over {len(P)} points")
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
    J = _warp_jacobian(M.tolist(), float(x), float(y))
    if J is None:
        s = M[2, 0] * x + M[2, 1] * y + M[2, 2]
        raise PointAtInfinity(f"denominator {s:.3e} at point ({x}, {y})")
    return np.array(J).reshape(2, 2)


def _warp_jacobian(entries, x: float, y: float) -> tuple[float, float, float, float] | None:
    """(a11, a12, a21, a22) of the warp by H, given as nested row lists of
    floats, at (x, y); None where (x, y) maps to infinity. Python floats round
    each operation as numpy float64 scalars do, so the bits are the same."""
    (h11, h12, h13), (h21, h22, h23), (h31, h32, h33) = entries
    s = h31 * x + h32 * y + h33
    if abs(s) <= 1e-12:
        return None
    x2 = (h11 * x + h12 * y + h13) / s
    y2 = (h21 * x + h22 * y + h23) / s
    return (h11 - x2 * h31) / s, (h12 - x2 * h32) / s, (h21 - y2 * h31) / s, (h22 - y2 * h32) / s
