"""Domain types for affine correspondences and the scale / orientation /
residual-shape decomposition of local 2x2 affine transformations.

Conventions used throughout the package:
  - points are length-2 float arrays (pixels), homogenised by consumers;
  - an AC set in memory is one (N, 8) float64 array (see ac_array) whose
    columns follow the AC file: x1, y1, x2, y2, a11, a12, a21, a22;
  - bare point pairs are one (n, 4) float64 array (see match_array) whose
    columns follow the match file: x1, y1, x2, y2;
  - A maps an infinitesimal neighbourhood of p1 (first image) onto the
    neighbourhood of p2 (second image);
  - angles are radians, counter-clockwise positive, reported in (-pi, pi].

Decomposition convention: A = s * R(alpha) * (I + A'') with s = sqrt(det A),
R a rotation and I + A'' the symmetric positive-definite polar factor of A/s
(unit determinant). The polar factorisation makes the split unique for
det(A) > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .errors import InvalidArgument, InvalidValue

FloatArray = npt.NDArray[np.float64]

# Primitive aliases: Vec2 is (2,), Mat2 is (2, 2), Mat3 is (3, 3), all float64.
Vec2 = FloatArray
Mat2 = FloatArray
Mat3 = FloatArray

TWO_PI = 2.0 * math.pi


def as_vec2(p) -> Vec2:
    """Coerce to a finite (2,) float64 array."""
    v = np.asarray(p, dtype=np.float64).reshape(2)
    if not np.all(np.isfinite(v)):
        raise InvalidValue(f"point has non-finite components: {v}")
    return v


def as_mat2(A) -> Mat2:
    """Coerce to a finite (2, 2) float64 array."""
    M = np.asarray(A, dtype=np.float64).reshape(2, 2)
    if not np.all(np.isfinite(M)):
        raise InvalidValue(f"2x2 matrix has non-finite entries: {M}")
    return M


def as_mat3(M) -> Mat3:
    """Coerce to a finite, not-all-zero (3, 3) float64 array.

    Accepts plain arrays or any wrapper exposing a .matrix attribute
    (FundamentalMatrix, EssentialMatrix, Homography).
    """
    if hasattr(M, "matrix"):
        M = M.matrix
    out = np.asarray(M, dtype=np.float64).reshape(3, 3)
    if not np.all(np.isfinite(out)):
        raise InvalidValue(f"3x3 matrix has non-finite entries: {out}")
    if not np.any(out):
        raise InvalidValue("3x3 matrix is identically zero")
    return out


def homogenize(p) -> FloatArray:
    """(x, y) -> (x, y, 1)."""
    v = as_vec2(p)
    return np.array([v[0], v[1], 1.0])


def wrap_angle(theta: float) -> float:
    """Wrap an angle in radians to (-pi, pi]. Total on finite input."""
    w = float(theta) % TWO_PI
    if w > math.pi:
        w -= TWO_PI
    return w


def rotation2(theta: float) -> Mat2:
    """2x2 counter-clockwise rotation matrix."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class AffineCorrespondence:
    """A point pair plus the 2x2 local affine transformation between their
    neighbourhoods (first image -> second image)."""

    p1: Vec2
    p2: Vec2
    A: Mat2

    def __post_init__(self):
        object.__setattr__(self, "p1", as_vec2(self.p1))
        object.__setattr__(self, "p2", as_vec2(self.p2))
        object.__setattr__(self, "A", as_mat2(self.A))


def ac_array(acs) -> FloatArray:
    """An AC set as one (N, 8) float64 array in the AC file's column order:
    x1, y1, x2, y2, a11, a12, a21, a22.

    Takes a sequence of AffineCorrespondence, or an array already in this
    layout, which must be (N, 8) and finite and is returned without a copy
    when it is float64.
    """
    if isinstance(acs, np.ndarray):
        X = np.asarray(acs, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != 8:
            raise InvalidValue(f"AC array must have shape (N, 8), got {X.shape}")
        if not np.all(np.isfinite(X)):
            raise InvalidValue("AC array has non-finite entries")
        return X
    X = np.empty((len(acs), 8))
    if len(X):  # an empty list does not broadcast into the (0, 2) columns
        X[:, 0:2] = [ac.p1 for ac in acs]
        X[:, 2:4] = [ac.p2 for ac in acs]
        X[:, 4:8] = [ac.A.ravel() for ac in acs]
    return X


def match_array(pairs) -> FloatArray:
    """Point pairs as one (n, 4) float64 array of the match file's columns x1, y1,
    x2, y2, from such an array, an (n, 2, 2) array or n pairs (p1, p2); any
    other shape raises InvalidArgument. Finiteness is not checked."""
    try:
        P = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.float64)
    except (TypeError, ValueError) as exc:  # not iterable, ragged or not numbers
        raise InvalidArgument(f"point pairs must be (n, 4) rows or pairs: {exc}") from exc
    if P.shape[1:] not in ((4,), (2, 2)) and P.shape != (0,):
        raise InvalidArgument(f"point pairs must be (n, 4) or (n, 2, 2), got {P.shape}")
    return P.reshape(len(P), 4)


@dataclass(frozen=True)
class AffineDecomposition:
    """Scale ratio s, orientation delta alpha and residual shape A'' such that
    the source affinity is s * R(alpha) * (I + A'')."""

    scale_ratio: float
    orientation_delta: float
    residual_shape: Mat2

    def __post_init__(self):
        object.__setattr__(self, "residual_shape", as_mat2(self.residual_shape))


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; skew defaults to zero."""

    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0

    def __post_init__(self):
        if not (self.fx > 0.0 and self.fy > 0.0 and np.all(np.isfinite(self.K))):
            raise InvalidValue(f"intrinsics must be finite with fx, fy > 0, got {self}")

    @property
    def K(self) -> Mat3:
        return np.array(
            [
                [self.fx, self.skew, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )


def decompose_affine(A) -> AffineDecomposition:
    """Split a 2x2 affinity into scale, rotation angle and residual shape.

    Returns (s, alpha, A'') with s = sqrt(det A) and I + A'' the symmetric
    positive-definite polar factor of A/s. Raises InvalidValue for
    orientation-reversing or singular input, and for input so ill-conditioned
    that det(I + A'') misses 1 by more than 1e-8, which synthesize_affine refuses.
    """
    M = as_mat2(A)
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if det <= 0.0:
        raise InvalidValue(f"det(A) = {det} must be > 0 for decomposition")
    s = math.sqrt(det)
    B = M / s  # det(B) = 1
    # Closed-form 2x2 polar factor: the rotation angle follows from the
    # trace/antisymmetric part; h > 0 is guaranteed by det(B) > 0.
    alpha = math.atan2(B[1, 0] - B[0, 1], B[0, 0] + B[1, 1])
    P = rotation2(alpha).T @ B
    P = 0.5 * (P + P.T)  # exact symmetrisation of round-off
    residual = P - np.eye(2)
    _unit_shape(residual)  # an A so ill-conditioned that synthesize_affine would refuse it
    return AffineDecomposition(s, wrap_angle(alpha), residual)


def _unit_shape(residual_shape: Mat2) -> Mat2:
    """I + A'', refused unless its determinant is 1 within 1e-8 (not NaN)."""
    shape = np.eye(2) + residual_shape
    with np.errstate(over="ignore", invalid="ignore"):
        det = shape[0, 0] * shape[1, 1] - shape[0, 1] * shape[1, 0]
    if not abs(det - 1.0) <= 1e-8:
        raise InvalidValue(f"det(I + A'') = {det} deviates from 1 beyond 1e-8")
    return shape


def synthesize_affine(d: AffineDecomposition) -> Mat2:
    """Rebuild the affinity s * R(alpha) * (I + A'') from its decomposition.

    Raises InvalidValue when the residual-shape factor does not have
    unit determinant (beyond 1e-8) or the scale is not positive.
    """
    if not d.scale_ratio > 0.0:
        raise InvalidValue(f"scale_ratio = {d.scale_ratio} must be > 0")
    return d.scale_ratio * rotation2(d.orientation_delta) @ _unit_shape(d.residual_shape)


def relative_frame(
    orient_a: float, scale_a: float, orient_b: float, scale_b: float
) -> tuple[float, float]:
    """Relative orientation and scale of a patch pair: (wrap(oB - oA), sB / sA)."""
    if not (scale_a > 0.0 and scale_b > 0.0):
        raise InvalidArgument(f"scales must be > 0, got {scale_a}, {scale_b}")
    return wrap_angle(orient_b - orient_a), scale_b / scale_a
