"""Seeded synthetic two-view scenes with exact ground truth.

Scenes are one or more front-facing planes observed by a calibrated camera
pair. Ground-truth local affinities come from the plane homography's warp
Jacobian, so every noise-free sample satisfies the epipolar and both affine
constraint rows to machine precision; that closure is what the whole test
suite leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import AffineCorrespondence, CameraIntrinsics, FloatArray, Mat3
from .errors import DegenerateConfiguration, InvalidArgument, InvalidValue, PointAtInfinity
from .residuals import FundamentalMatrix
from .solvers import (
    Homography,
    RelativePose,
    axis_angle_rotation,
    gt_affine_from_homography,
    skew3,
)


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement corruption: Gaussian pixel noise on p2, multiplicative
    Gaussian noise on the affinity entries, and a fraction of gross outliers."""

    point_sigma: float = 0.0
    affine_rel_sigma: float = 0.0
    outlier_fraction: float = 0.0

    def __post_init__(self):
        sigmas = (self.point_sigma, self.affine_rel_sigma)  # copysign: numpy refuses -0.0
        if not all(math.isfinite(s) and math.copysign(1.0, s) > 0.0 for s in sigmas):
            raise InvalidArgument(f"noise sigmas must be finite and >= +0.0, got {sigmas}")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise InvalidArgument("outlier_fraction must lie in [0, 1)")


def _default_intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0)


@dataclass(frozen=True)
class CameraSpec:
    """Camera-pair request. Leave rotation/translation as None for seeded
    random geometry; pass explicit values to pin them (translation is used as
    a direction, the scale ambiguity is absorbed into the plane depths)."""

    intrinsics1: CameraIntrinsics = field(default_factory=_default_intrinsics)
    intrinsics2: CameraIntrinsics = field(default_factory=_default_intrinsics)
    image_size: tuple[int, int] = (640, 480)
    rotation: Mat3 | None = None
    translation: FloatArray | None = None
    max_rotation_deg: float = 8.0
    depth_range: tuple[float, float] = (4.0, 8.0)
    plane_tilt: float = 0.35


@dataclass(frozen=True)
class SyntheticScene:
    """Calibrated two-view scene: pose, planes (unit normal, offset in the
    first camera frame), the induced F and one homography per plane."""

    K1: CameraIntrinsics
    K2: CameraIntrinsics
    pose: RelativePose
    planes: tuple[tuple[FloatArray, float], ...]
    F_gt: FundamentalMatrix
    homographies: tuple[Homography, ...]
    image_size: tuple[int, int]


def _project(K: Mat3, X: FloatArray) -> FloatArray:
    q = K @ X
    return q[:2] / q[2]


def generate_scene(seed: int, n_planes: int = 1, camera_spec: CameraSpec | None = None) -> SyntheticScene:
    """Seeded random scene; bit-identical for identical arguments."""
    spec = camera_spec if camera_spec is not None else CameraSpec()
    if n_planes < 1:
        raise InvalidArgument(f"n_planes must be >= 1, got {n_planes}")
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    lo, hi = spec.depth_range
    if lo <= 0.0 or hi <= 0.0 or hi < lo:
        raise InvalidArgument(f"plane depth range {spec.depth_range} must be positive")
    rng = np.random.default_rng(seed)

    if spec.rotation is None:
        axis = rng.normal(size=3)
        angle = math.radians(rng.uniform(-spec.max_rotation_deg, spec.max_rotation_deg))
        R = axis_angle_rotation(axis, angle)
    else:
        R = np.asarray(spec.rotation, dtype=float).reshape(3, 3)
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-8:
            raise InvalidArgument("camera_spec.rotation is not a rotation matrix")
    if spec.translation is None:
        t = rng.normal(size=3)
    else:
        t = np.asarray(spec.translation, dtype=float).reshape(3)
    norm_t = np.linalg.norm(t)
    if norm_t <= 1e-12:
        raise InvalidArgument("zero baseline requested")
    t = t / norm_t

    K1, K2 = spec.intrinsics1, spec.intrinsics2
    K1inv = np.linalg.inv(K1.K)
    E = skew3(t) @ R
    F = FundamentalMatrix(np.linalg.inv(K2.K).T @ E @ K1inv).normalized()
    pose = RelativePose(R=R, t=t)

    # Planes must keep both camera centres on the same side, otherwise the
    # second view would see the back face and the warp Jacobian would flip
    # orientation. Camera 1 sits at the origin (side sign -d), camera 2 at
    # -R^T t.
    c2 = -R.T @ t
    w, h = spec.image_size
    planes = []
    homographies = []
    for _ in range(n_planes):
        for _attempt in range(256):
            u = rng.uniform(0.3 * w, 0.7 * w)
            v = rng.uniform(0.3 * h, 0.7 * h)
            depth = rng.uniform(lo, hi)
            ray = K1inv @ np.array([u, v, 1.0])
            centre = depth * ray / ray[2]
            normal = np.array(
                [
                    rng.uniform(-spec.plane_tilt, spec.plane_tilt),
                    rng.uniform(-spec.plane_tilt, spec.plane_tilt),
                    1.0,
                ]
            )
            normal = normal / np.linalg.norm(normal)
            offset = float(normal @ centre)
            if offset <= 0.0 or (normal @ c2 - offset) >= -0.05 * offset:
                continue
            H = K2.K @ (R + np.outer(t, normal) / offset) @ K1inv
            planes.append((normal, offset))
            homographies.append(Homography(H))
            break
        else:
            raise DegenerateConfiguration("could not place a plane in front of both cameras")
    return SyntheticScene(
        K1=K1,
        K2=K2,
        pose=pose,
        planes=tuple(planes),
        F_gt=F,
        homographies=tuple(homographies),
        image_size=spec.image_size,
    )


def sample_acs(
    scene: SyntheticScene,
    n: int,
    noise: NoiseSpec | None = None,
    seed: int = 0,
) -> tuple[list[AffineCorrespondence], np.ndarray]:
    """Draw n ACs on the scene's planes plus boolean inlier labels.

    Points are uniform in the first image and rejected unless visible with
    positive depth in both views; the affinity is the plane homography's
    Jacobian at p1. Noise is then applied per the NoiseSpec; outliers replace
    p2 with a uniform point and A with a random matrix, keeping p1.
    """
    noise = noise if noise is not None else NoiseSpec()
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    w, h = scene.image_size
    K1inv = np.linalg.inv(scene.K1.K)
    R, t = scene.pose.R, scene.pose.t

    base = []
    attempts = 0
    while len(base) < n:
        attempts += 1
        if attempts > 1000 * n:
            raise DegenerateConfiguration("AC sampling stalled; scene has almost no covisible area")
        plane_idx = int(rng.integers(len(scene.planes)))
        p1 = rng.uniform((0.0, 0.0), (float(w), float(h)))
        normal, offset = scene.planes[plane_idx]
        ray = K1inv @ np.array([p1[0], p1[1], 1.0])
        along = float(normal @ ray)
        if along <= 1e-9:
            continue
        X = (offset / along) * ray
        X2 = R @ X + t
        if X2[2] <= 1e-6:
            continue
        p2 = _project(scene.K2.K, X2)
        if not (0.0 <= p2[0] <= w and 0.0 <= p2[1] <= h):
            continue
        try:
            A = gt_affine_from_homography(scene.homographies[plane_idx], p1)
        except PointAtInfinity:
            continue
        base.append((p1, p2, A))

    labels = np.ones(n, dtype=bool)
    n_out = int(round(noise.outlier_fraction * n))
    if n_out:
        labels[rng.choice(n, size=n_out, replace=False)] = False
    point_noise = rng.normal(0.0, noise.point_sigma, size=(n, 2))
    affine_noise = rng.normal(0.0, noise.affine_rel_sigma, size=(n, 2, 2))

    acs = []
    for i, (p1, p2, A) in enumerate(base):
        if labels[i]:
            try:  # sigmas near the largest double overflow
                ac = AffineCorrespondence(p1, p2 + point_noise[i], A * (1.0 + affine_noise[i]))
            except InvalidValue as exc:
                raise InvalidArgument(f"noise sigmas overflow the sample: {exc}") from exc
            acs.append(ac)
        else:
            acs.append(
                AffineCorrespondence(
                    p1=p1,
                    p2=rng.uniform((0.0, 0.0), (float(w), float(h))),
                    A=rng.normal(0.0, 1.0, size=(2, 2)),
                )
            )
    return acs, labels
