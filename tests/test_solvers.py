"""Tests for the linear AC solvers, essential projection, pose decomposition
and the homography warp Jacobian."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affgeo import (
    AffineCorrespondence,
    CameraIntrinsics,
    EssentialMatrix,
    Homography,
    NoiseSpec,
    ac_array,
    decompose_essential,
    essential_from_fundamental,
    fundamental_from_acs,
    gt_affine_from_homography,
    homography_from_acs,
    sample_acs,
    sampson_affine,
    sampson_point,
)
from affgeo.errors import (
    AffgeoError,
    CheiralityAmbiguity,
    DegenerateConfiguration,
    InvalidArgument,
    InvalidValue,
    PointAtInfinity,
    TooFewCorrespondences,
)
from affgeo import generate_scene, robust, solvers
from affgeo.core import as_vec2, homogenize
from affgeo.residuals import FundamentalMatrix, _largest_entry_sign_fix, sampson_point_batch
from affgeo.solvers import (
    RelativePose,
    _positive_depth_counts,
    _unit_rows,
    apply_homography,
    axis_angle_rotation,
    skew3,
    triangulate_point,
)

from conftest import ac_on_plane, general_position_acs, planar_scene

IDENTITY_K = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)


def _fd_jacobian(H, p, step=1e-4):
    """Central finite differences of the warp (the independent oracle)."""
    J = np.empty((2, 2))
    for i in range(2):
        dp = np.zeros(2)
        dp[i] = step
        J[:, i] = (apply_homography(H, p + dp) - apply_homography(H, p - dp)) / (2 * step)
    return J


def hartley_transform(points):
    """Reference: the similarity moving the centroid to the origin and the RMS
    radius to sqrt(2), from the points of one image."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    centroid = pts.mean(axis=0)
    rms = math.sqrt(np.mean(np.sum((pts - centroid) ** 2, axis=1)))
    if not math.isfinite(rms):
        raise DegenerateConfiguration(f"RMS radius of the points is {rms}")
    s = math.sqrt(2.0) / rms if rms > 1e-12 else 1.0
    return np.array([[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]])


def _reference_nullspace(rows):
    """Reference: the null vector of one (m, 9) row stack, with its checks."""
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


def _loop_homography_rows(acs, extra_points):
    """Reference: the homography constraint rows built one AC at a time."""
    pts1 = np.array([ac.p1 for ac in acs] + [np.asarray(p, float) for p, _ in extra_points])
    pts2 = np.array([ac.p2 for ac in acs] + [np.asarray(q, float) for _, q in extra_points])
    T1 = hartley_transform(pts1)
    T2 = hartley_transform(pts2)
    K = np.kron(np.linalg.inv(T2), T1.T)

    def dlt(x1, y1, x2, y2):
        return np.array(
            [
                [x1, y1, 1, 0, 0, 0, -x2 * x1, -x2 * y1, -x2],
                [0, 0, 0, x1, y1, 1, -y2 * x1, -y2 * y1, -y2],
            ],
            dtype=float,
        )

    blocks = []
    for ac in acs:
        x1, y1 = ac.p1
        x2, y2 = ac.p2
        (a11, a12), (a21, a22) = ac.A
        aff = np.array(
            [
                [1, 0, 0, 0, 0, 0, -x2 - a11 * x1, -a11 * y1, -a11],
                [0, 1, 0, 0, 0, 0, -a12 * x1, -x2 - a12 * y1, -a12],
                [0, 0, 0, 1, 0, 0, -y2 - a21 * x1, -a21 * y1, -a21],
                [0, 0, 0, 0, 1, 0, -a22 * x1, -y2 - a22 * y1, -a22],
            ],
            dtype=float,
        ) @ K
        blocks.append(dlt(x1, y1, x2, y2) @ K)
        blocks.append(aff / np.maximum(np.linalg.norm(aff, axis=1, keepdims=True), 1e-300))
    for p, q in extra_points:
        blocks.append(dlt(p[0], p[1], q[0], q[1]) @ K)
    return np.concatenate(blocks, axis=0)


def _reference_fundamental(X):
    """Reference: fundamental_from_acs as first written, with one Hartley
    transform and one collinearity SVD per image, np.kron and three stacks."""
    if len(X) < 3:
        raise TooFewCorrespondences(f"need >= 3 ACs, got {len(X)}")
    p1, p2 = X[:, 0:2], X[:, 2:4]
    T1 = hartley_transform(p1)
    T2 = hartley_transform(p2)
    for pts, which in ((p1, "the first image"), (p2, "the second image")):
        sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        if sv[-1] <= 1e-9 * max(sv[0], 1.0):
            raise DegenerateConfiguration(f"points are (near-)collinear in {which}")
    x1, y1, x2, y2, a11, a12, a21, a22 = X.T
    one = np.ones_like(x1)
    zero = np.zeros_like(x1)
    epi = np.stack([x1 * x2, y1 * x2, x2, x1 * y2, y1 * y2, y2, x1, y1, one], axis=1)
    row_m = np.stack(
        [a11 * x1 + x2, a11 * y1, a11, a21 * x1 + y2, a21 * y1, a21, one, zero, zero], axis=1
    )
    row_n = np.stack(
        [a12 * x1, a12 * y1 + x2, a12, a22 * x1, a22 * y1 + y2, a22, zero, one, zero], axis=1
    )
    K = np.kron(T2.T, T1.T)

    def unit(rows):
        return rows / np.maximum(np.linalg.norm(rows, axis=-1, keepdims=True), 1e-300)

    Fn = _reference_nullspace(np.concatenate([epi @ K, unit(row_m @ K), unit(row_n @ K)]))
    U, S, Vt = np.linalg.svd(Fn)
    Fn = U @ np.diag([S[0], S[1], 0.0]) @ Vt
    return FundamentalMatrix(T2.T @ Fn @ T1).normalized()


def _reference_homography(acs, extra_points=()):
    """Reference: homography_from_acs before the solvers shared their Hartley
    step, with one hartley_transform per image, np.kron and nine-column stacks."""

    def _dlt_rows(pts1, pts2):
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

    def _affine_rows(X):
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

    X = ac_array(acs)
    n_acs = len(X)
    n_constraints = 6 * n_acs + 2 * len(extra_points)
    if n_constraints < 8:
        raise TooFewCorrespondences(f"{n_constraints} constraints < 8")
    pts1 = np.concatenate([X[:, 0:2], np.reshape([as_vec2(p) for p, _ in extra_points], (-1, 2))])
    pts2 = np.concatenate([X[:, 2:4], np.reshape([as_vec2(q) for _, q in extra_points], (-1, 2))])
    T1 = hartley_transform(pts1)
    T2 = hartley_transform(pts2)
    K = np.kron(np.linalg.inv(T2), T1.T)
    dlt = _dlt_rows(pts1, pts2)
    aff = _affine_rows(X)
    rows = np.concatenate(
        [np.concatenate([dlt[:n_acs], aff], axis=1).reshape(-1, 9), dlt[n_acs:].reshape(-1, 9)]
    ) @ K
    per_ac = rows[: 6 * n_acs].reshape(n_acs, 6, 9)
    per_ac[:, 2:] = _unit_rows(per_ac[:, 2:])
    Hn = _reference_nullspace(rows)
    H = np.linalg.inv(T2) @ Hn @ T1
    if abs(H[2, 2]) <= 1e-12:
        H = _largest_entry_sign_fix(H / np.linalg.norm(H))
    return Homography(H)


def _solve_outcome(solve, X):
    """The model's bytes, or the class and message of what the solve raised."""
    try:
        return solve(X).matrix.tobytes()
    except Exception as exc:  # the class and message are the outcome
        return type(exc), str(exc)


def _fundamental_failure(case, scene, X):
    """X, six clean ac_array rows, made into a sample fundamental_from_acs
    refuses for the named reason."""
    if case == "too_few":
        X = X[:2]
    elif case == "collinear_first":
        X[:, 1] = 240.0
    elif case == "collinear_second":
        X[:, 2] = 3.0 * X[:, 3] - 7.0
    elif case == "shared_point":
        X[:, 0:2] = X[0, 0:2]
    elif case == "single_plane":
        X = ac_array([ac_on_plane(scene, 0, p) for p in [(150.0, 120.0), (480.0, 150.0),
                                                         (320.0, 360.0)]])
    elif case == "rms_overflow_first":
        X[:, 0] *= 1e305
    elif case == "rms_overflow_second":
        X[:, 3] *= 1e305
    elif case == "centroid_overflow":  # the sum of the x2 overflows: centred points are inf
        X[:, 2] = 1.5e308
    else:  # a finite RMS radius, but the epipolar products overflow
        X[:, 0:4] = 1e155 + 1e141 * X[:, 0:4]
    return X


def _batch_outcomes(S, batch=None, model=FundamentalMatrix):
    """The outcome per sample of a batch solve (by default fundamental_batch),
    in _solve_outcome's form."""
    M, faults = (batch or solvers.fundamental_batch)(S)
    assert M.shape == (len(S), 3, 3) and len(faults) == len(S)
    return [(DegenerateConfiguration, fault) if fault else model(m).matrix.tobytes()
            for m, fault in zip(M, faults)]


# What tells _fundamental's three SVDs apart: the collinearity SVD's input is
# 4-d, the null-space SVD's rows have 9 columns and the rank-2 SVD's 3.
_SVD_KINDS = {"collinearity": 4, "nullspace": 9, "rank2": 3}


def _svd_kind(a):
    return a.ndim if a.ndim == 4 else a.shape[-1]


def _homography_failure(case, X):
    """X, two clean ac_array rows, made into a sample homography_from_acs
    refuses for the named reason."""
    if case == "rms_overflow_first":
        X[:, 0] *= 1e305
    elif case == "rms_overflow_second":
        X[:, 3] *= 1e305
    elif case == "centroid_overflow":  # the sum of the x2 overflows: centred points are inf
        X[:, 2] = 1.5e308
    elif case == "rows_overflow":  # a finite RMS radius, but x2 * x1 overflows
        X[:, 0:4] = 1e155 + 1e141 * X[:, 0:4]
    elif case == "repeated_point":
        X = X[[0, 0]]
    else:  # singular: a warp that shrinks by 1e-7 has det 1e-14 once h33 = 1
        X[:, 2:4] = 1e-7 * X[:, 0:2]
        X[:, 4:8] = [1e-7, 0.0, 0.0, 1e-7]
    return X


def _named_image(case, outcome):
    """The reference's outcome, with the image named in an RMS overflow
    message as the solvers now name it."""
    if not case.startswith(("rms_overflow", "centroid_overflow")):
        return outcome
    which = "second" if case == "centroid_overflow" else case.rsplit("_", 1)[1]
    return outcome[0], outcome[1].replace("points is", f"points in the {which} image is")


def _loop_decompose(E, pairs, K1, K2):
    """Reference: the cheirality vote with one triangulate_point per point.
    Returns the candidates and their positive-depth counts."""
    U, _, Vt = np.linalg.svd(E.matrix)
    if np.linalg.det(U) < 0.0:
        U = -U
    if np.linalg.det(Vt) < 0.0:
        Vt = -Vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    t = U[:, 2]
    candidates = [(U @ W @ Vt, t), (U @ W @ Vt, -t), (U @ W.T @ Vt, t), (U @ W.T @ Vt, -t)]
    K1inv = np.linalg.inv(K1.K)
    K2inv = np.linalg.inv(K2.K)
    rays = [(K1inv @ homogenize(p1), K2inv @ homogenize(p2)) for p1, p2 in pairs]
    P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    counts = []
    for R, tt in candidates:
        P2 = np.hstack([R, tt.reshape(3, 1)])
        c = 0
        for x1h, x2h in rays:
            X = triangulate_point(P1, P2, x1h[:2] / x1h[2], x2h[:2] / x2h[2])
            w = X[3]
            if abs(w) > 1e-14 and X[2] * w > 0.0 and (P2 @ X)[2] * w > 0.0:
                c += 1
        counts.append(c)
    return candidates, counts


class TestFundamentalFromAcs:
    def test_minimal_three_acs(self, scene):
        acs = general_position_acs(scene, [(150.0, 120.0), (480.0, 150.0), (320.0, 360.0)])
        F = fundamental_from_acs(acs)
        assert np.max(np.abs(F.matrix - scene.F_gt.matrix)) <= 1e-8
        assert abs(np.linalg.det(F.matrix)) <= 1e-10

    def test_single_plane_triple_degenerate(self, scene):
        # all three ACs on one plane: F is defined only up to the family
        # [v]_x H, so the solver must refuse
        points = [(150.0, 120.0), (480.0, 150.0), (320.0, 360.0)]
        acs = [ac_on_plane(scene, 0, p) for p in points]
        with pytest.raises(DegenerateConfiguration):
            fundamental_from_acs(acs)

    def test_overdetermined_agrees_with_minimal(self, scene, clean_acs):
        acs, _ = clean_acs
        F3 = fundamental_from_acs(acs[:3])
        F50 = fundamental_from_acs(acs[:50])
        assert np.max(np.abs(F50.matrix - F3.matrix)) <= 1e-8

    def test_shared_first_point_degenerate(self, scene, rng):
        # geometrically consistent variant: one point per plane on the same ray
        p1 = np.array([320.0, 240.0])
        consistent = [
            AffineCorrespondence(
                p1=p1,
                p2=apply_homography(H, p1),
                A=gt_affine_from_homography(H, p1),
            )
            for H in scene.homographies
        ]
        with pytest.raises(DegenerateConfiguration):
            fundamental_from_acs(consistent)
        # arbitrary-data variant: caught by the collinearity precondition
        random_acs = [
            AffineCorrespondence(
                p1=(100.0, 120.0),
                p2=rng.uniform(0, 400, size=2),
                A=np.eye(2) + 0.1 * rng.normal(size=(2, 2)),
            )
            for _ in range(3)
        ]
        with pytest.raises(DegenerateConfiguration):
            fundamental_from_acs(random_acs)

    def test_collinear_points_degenerate(self, scene):
        # ACs whose first-image points sit on one line violate the solver's
        # precondition even when the data is otherwise consistent
        H = scene.homographies[0]
        acs = [
            AffineCorrespondence(
                p1=(x, 240.0),
                p2=apply_homography(H, (x, 240.0)),
                A=gt_affine_from_homography(H, (x, 240.0)),
            )
            for x in (100.0, 250.0, 400.0)
        ]
        with pytest.raises(DegenerateConfiguration):
            fundamental_from_acs(acs)

    def test_too_few(self, clean_acs):
        acs, _ = clean_acs
        with pytest.raises(TooFewCorrespondences):
            fundamental_from_acs(acs[:2])

    def test_unit_norm_and_sign(self, clean_acs):
        acs, _ = clean_acs
        F = fundamental_from_acs(acs[:10]).matrix
        assert np.linalg.norm(F) == pytest.approx(1.0, abs=1e-12)
        assert F.ravel()[np.argmax(np.abs(F))] > 0.0

    def test_rank2_even_with_noise(self, scene):
        acs, _ = sample_acs(scene, 30, NoiseSpec(point_sigma=1.0, affine_rel_sigma=0.05), seed=9)
        F = fundamental_from_acs(acs).matrix
        assert abs(np.linalg.det(F)) <= 1e-10

    @pytest.mark.parametrize("n", [3, 50, 600])
    def test_ac_array_input_bit_identical(self, scene, n):
        noise = NoiseSpec(point_sigma=0.5, affine_rel_sigma=0.05, outlier_fraction=0.3)
        for seed in range(5):
            acs, _ = sample_acs(scene, n, noise, seed=seed)
            try:
                F = fundamental_from_acs(acs)
            except DegenerateConfiguration:
                with pytest.raises(DegenerateConfiguration):
                    fundamental_from_acs(ac_array(acs))
                continue
            assert np.array_equal(fundamental_from_acs(ac_array(acs)).matrix, F.matrix)

    @pytest.mark.parametrize("n", [3, 4, 9, 60, 200])
    def test_matches_reference_bit_for_bit(self, scene, n):
        noise = NoiseSpec(point_sigma=0.5, affine_rel_sigma=0.05, outlier_fraction=0.4)
        X = ac_array(sample_acs(scene, 200, noise, seed=n)[0])
        rng = np.random.default_rng(n)
        models = 0
        for _ in range(25):
            sample = X[rng.choice(len(X), size=n, replace=False)]
            outcome = _solve_outcome(fundamental_from_acs, sample)
            assert outcome == _solve_outcome(_reference_fundamental, sample)
            models += isinstance(outcome, bytes)
        assert models >= 20

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in the huge inputs
    @pytest.mark.parametrize(
        "case",
        ["too_few", "collinear_first", "collinear_second", "shared_point", "single_plane",
         "rms_overflow_first", "rms_overflow_second", "centroid_overflow", "rows_overflow"],
    )
    def test_failures_match_reference(self, scene, clean_acs, case):
        X = _fundamental_failure(case, scene, ac_array(clean_acs[0][:6]))
        outcome = _solve_outcome(fundamental_from_acs, X)
        assert not isinstance(outcome, bytes)
        assert outcome == _named_image(case, _solve_outcome(_reference_fundamental, X))

    def test_returned_model_fits_clean_acs(self, clean_acs):
        acs, _ = clean_acs
        F = fundamental_from_acs(acs)
        for ac in acs:
            assert sampson_point(ac.p1, ac.p2, F) <= 1e-16
            sa1, sa2 = sampson_affine(ac, F)
            assert sa1 <= 1e-12 and sa2 <= 1e-12


class TestFundamentalBatch:
    """fundamental_batch solves a block of samples in one stacked pass; each
    sample's outcome must be that of fundamental_from_acs, bit for bit."""

    @pytest.mark.parametrize("m", [3, 9])
    def test_matches_single_solves_bit_for_bit(self, scene, m):
        noise = NoiseSpec(point_sigma=0.5, affine_rel_sigma=0.05, outlier_fraction=0.4)
        samples = models = 0
        for seed, B in enumerate([1, 2, 7, 16, 32, 64, 64, 64, 100, 64]):
            X = ac_array(sample_acs(generate_scene(seed=60 + seed, n_planes=3), 200, noise,
                                    seed=seed)[0])
            rng = np.random.default_rng(seed)
            S = X[np.array([rng.choice(len(X), size=m, replace=False) for _ in range(B)])]
            for sample, outcome in zip(S, _batch_outcomes(S)):
                assert outcome == _solve_outcome(fundamental_from_acs, sample)
                if isinstance(outcome, bytes):
                    assert outcome == _solve_outcome(_reference_fundamental, sample)
                samples += 1
                models += isinstance(outcome, bytes)
        assert samples >= 400 and models >= 0.9 * samples

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in the single solves
    @pytest.mark.parametrize(
        "case",
        ["collinear_first", "collinear_second", "shared_point", "single_plane",
         "rms_overflow_first", "rms_overflow_second", "centroid_overflow", "rows_overflow"],
    )
    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_failure_inside_a_block_of_good_samples(self, scene, clean_acs, monkeypatch, case,
                                                    position):
        # Every refusal of test_failures_match_reference but too_few: a block
        # holds samples of one size m >= 3, and the count check stays in
        # fundamental_from_acs.
        X = ac_array(clean_acs[0])
        bad = _fundamental_failure(case, scene, X[:6].copy())
        rng = np.random.default_rng(position)
        good = (X[rng.choice(len(X), size=len(bad), replace=False)] for _ in range(100))
        S = np.array([s for s in good if isinstance(_solve_outcome(fundamental_from_acs, s), bytes)][:7])
        S[position] = bad
        svd, unsafe = np.linalg.svd, []

        def checking_svd(a, *args, **kwargs):  # an SVD can hang on non-finite entries
            if not np.isfinite(a).all():
                unsafe.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", checking_svd)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the stacked pass warns of nothing
            outcomes = _batch_outcomes(S)
        assert not unsafe  # a flagged sample's non-finite entries are masked
        for i, (sample, outcome) in enumerate(zip(S, outcomes)):
            assert outcome == _solve_outcome(fundamental_from_acs, sample)
            assert isinstance(outcome, bytes) == (i != position)

    @pytest.mark.parametrize("failing", ["collinearity", "nullspace", "rank2"])
    def test_stacked_svd_failure_falls_back_to_single_solves(self, scene, monkeypatch, failing):
        noise = NoiseSpec(point_sigma=0.5, affine_rel_sigma=0.05, outlier_fraction=0.4)
        X = ac_array(sample_acs(scene, 200, noise, seed=3)[0])
        rng = np.random.default_rng(3)
        S = X[np.array([rng.choice(len(X), size=3, replace=False) for _ in range(32)])]
        S[5, :, 0:2] = S[5, 0, 0:2]  # a degenerate sample among good ones
        expected = _batch_outcomes(S)
        svd, shapes = np.linalg.svd, {"collinearity": 4, "nullspace": 9, "rank2": 3}
        raised = []

        def stacked_svd_fails(a, *args, **kwargs):
            kind = a.ndim if a.ndim == 4 else a.shape[-1]
            if len(a) > 1 and kind == shapes[failing]:
                raised.append(a.shape)
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", stacked_svd_fails)
        assert _batch_outcomes(S) == expected
        assert raised

    def test_sample_whose_svd_fails_is_flagged_like_the_single_solve(self, scene, monkeypatch):
        noise = NoiseSpec(point_sigma=0.5, affine_rel_sigma=0.05, outlier_fraction=0.4)
        X = ac_array(sample_acs(scene, 200, noise, seed=4)[0])
        rng = np.random.default_rng(4)
        S = X[np.array([rng.choice(len(X), size=3, replace=False) for _ in range(16)])]
        svd, rows = np.linalg.svd, []

        def capture(a, *args, **kwargs):
            if a.shape[-1] == 9:
                rows.append(a.copy())
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", capture)
        fundamental_from_acs(S[9])
        poisoned = rows[-1]

        def fails_on_sample_9(a, *args, **kwargs):
            if a.shape[-1] == 9 and (len(a) > 1 or np.array_equal(a, poisoned)):
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", fails_on_sample_9)
        outcomes = _batch_outcomes(S)
        single = _solve_outcome(fundamental_from_acs, S[9])
        assert single == (DegenerateConfiguration, "constraint matrix SVD: SVD did not converge")
        assert outcomes[9] == single
        monkeypatch.setattr(np.linalg, "svd", svd)
        for i, (sample, outcome) in enumerate(zip(S, outcomes)):
            if i != 9:
                assert outcome == _solve_outcome(fundamental_from_acs, sample)


    @pytest.mark.parametrize("failing", ["collinearity", "nullspace", "rank2"])
    def test_single_solve_whose_svd_fails_is_degenerate(self, scene, monkeypatch, failing):
        noise = NoiseSpec(point_sigma=0.5, affine_rel_sigma=0.05, outlier_fraction=0.4)
        X = ac_array(sample_acs(scene, 200, noise, seed=3)[0])[:3]
        assert isinstance(_solve_outcome(fundamental_from_acs, X), bytes)
        svd, raised = np.linalg.svd, []

        def svd_fails(a, *args, **kwargs):
            if _svd_kind(a) == _SVD_KINDS[failing]:
                raised.append(a.shape)
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd_fails)
        assert _solve_outcome(fundamental_from_acs, X) == (
            DegenerateConfiguration, "constraint matrix SVD: SVD did not converge")
        assert len(raised) == 1 and raised[0][0] == 1

    @pytest.mark.parametrize("failing", ["collinearity", "nullspace", "rank2"])
    def test_block_flags_only_the_sample_whose_own_svd_fails(self, scene, monkeypatch, failing):
        # As LAPACK fails a stacked SVD when one matrix in it does not converge.
        noise = NoiseSpec(point_sigma=0.5, affine_rel_sigma=0.05, outlier_fraction=0.4)
        X = ac_array(sample_acs(scene, 200, noise, seed=4)[0])
        rng = np.random.default_rng(4)
        S = X[np.array([rng.choice(len(X), size=3, replace=False) for _ in range(16)])]
        expected = _batch_outcomes(S)
        assert isinstance(expected[9], bytes)
        svd, inputs = np.linalg.svd, []

        def capture(a, *args, **kwargs):
            if _svd_kind(a) == _SVD_KINDS[failing]:
                inputs.append(a[0].copy())
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", capture)
        fundamental_from_acs(S[9])
        poisoned = inputs[-1]

        def fails_on_sample_9(a, *args, **kwargs):
            if _svd_kind(a) == _SVD_KINDS[failing] and any(np.array_equal(m, poisoned) for m in a):
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", fails_on_sample_9)
        outcomes = _batch_outcomes(S)
        assert outcomes[9] == (DegenerateConfiguration, "constraint matrix SVD: SVD did not converge")
        assert outcomes[:9] + outcomes[10:] == expected[:9] + expected[10:]


class TestHomographyFromAcs:
    def test_two_acs_recover_gt(self):
        scene = planar_scene(seed=3)
        acs, _ = sample_acs(scene, 2, seed=1)
        H = homography_from_acs(acs)
        assert np.max(np.abs(H.matrix - scene.homographies[0].matrix)) <= 1e-8

    def test_one_ac_plus_one_point_is_underdetermined(self):
        # One AC plus one bare point pair meets the 8-constraint count but
        # leaves a one-parameter family of homographies: perturbing H by
        # lam * p2_h (p1_h x pe_h)^T changes neither the point map at p1, nor
        # the warp Jacobian there, nor the extra point's image. The solver
        # must refuse instead of returning an arbitrary family member.
        scene = planar_scene(seed=4)
        acs, _ = sample_acs(scene, 2, seed=2)
        H_gt = scene.homographies[0].matrix
        ac, other = acs[0], acs[1]
        m = np.cross([*ac.p1, 1.0], [*other.p1, 1.0])
        m /= np.linalg.norm(m)
        H_alt = H_gt + 0.5 * np.outer([*ac.p2, 1.0], m)
        assert np.max(np.abs(H_alt - H_gt)) > 1e-3  # genuinely different matrix
        assert np.max(np.abs(apply_homography(H_alt, ac.p1) - ac.p2)) <= 1e-8
        assert np.max(np.abs(apply_homography(H_alt, other.p1) - other.p2)) <= 1e-8
        assert np.max(np.abs(gt_affine_from_homography(H_alt, ac.p1) - ac.A)) <= 1e-8
        with pytest.raises(DegenerateConfiguration):
            homography_from_acs([ac], [(other.p1, other.p2)])

    def test_one_ac_plus_two_point_pairs(self):
        # the true mixed minimal configuration: 6 + 2 + 2 constraints, rank 8
        scene = planar_scene(seed=4)
        acs, _ = sample_acs(scene, 3, seed=2)
        extra = [(acs[1].p1, acs[1].p2), (acs[2].p1, acs[2].p2)]
        H = homography_from_acs(acs[:1], extra)
        assert np.max(np.abs(H.matrix - scene.homographies[0].matrix)) <= 1e-8

    def test_identity_scene(self):
        acs = [
            AffineCorrespondence(p1=p, p2=p, A=np.eye(2))
            for p in [(0.0, 0.0), (100.0, 7.0), (13.0, 200.0)]
        ]
        H = homography_from_acs(acs)
        assert np.max(np.abs(H.matrix - np.eye(3))) <= 1e-10

    def test_too_few_constraints(self):
        scene = planar_scene(seed=5)
        acs, _ = sample_acs(scene, 1, seed=3)
        with pytest.raises(TooFewCorrespondences, match=r"6 constraints < 8"):
            homography_from_acs(acs)  # 6 < 8

    def test_identical_acs_degenerate(self):
        ac = AffineCorrespondence(p1=(10.0, 20.0), p2=(30.0, 40.0), A=np.eye(2))
        with pytest.raises(DegenerateConfiguration):
            homography_from_acs([ac, ac])


    @pytest.mark.parametrize("n_acs", [2, 7, 600])
    @pytest.mark.parametrize("n_extra", [0, 3])
    def test_rows_match_per_ac_loop(self, monkeypatch, n_acs, n_extra):
        captured = []
        solve = solvers._solve_nullspace

        def spy(rows, *rest):
            captured.append(rows[0])
            return solve(rows, *rest)

        monkeypatch.setattr(solvers, "_solve_nullspace", spy)
        for seed in range(5):
            scene = planar_scene(seed=seed)
            noise = NoiseSpec(point_sigma=0.5, affine_rel_sigma=0.05, outlier_fraction=0.3)
            acs, _ = sample_acs(scene, n_acs + n_extra, noise, seed=seed)
            extra = [(ac.p1, ac.p2) for ac in acs[n_acs:]]
            expected = _loop_homography_rows(acs[:n_acs], extra)
            H = homography_from_acs(acs[:n_acs], extra)
            assert captured[-1].shape == expected.shape
            assert np.array_equal(captured[-1], expected)
            # the same ACs as ac_array rows: the same rows, the same matrix
            H_rows = homography_from_acs(ac_array(acs[:n_acs]), extra)
            assert np.array_equal(captured[-1], expected)
            assert np.array_equal(H_rows.matrix, H.matrix)


    @pytest.mark.parametrize("n_acs", [2, 7, 600])
    @pytest.mark.parametrize("n_extra", [0, 1, 3])
    def test_matches_reference_bit_for_bit(self, n_acs, n_extra):
        noise = NoiseSpec(point_sigma=0.5, affine_rel_sigma=0.05, outlier_fraction=0.3)
        for seed in range(4):
            acs, _ = sample_acs(planar_scene(seed=seed), n_acs + n_extra, noise, seed=seed)
            X = ac_array(acs[:n_acs])
            extra = [(ac.p1, ac.p2) for ac in acs[n_acs:]]
            outcome = _solve_outcome(lambda X: homography_from_acs(X, extra), X)
            assert isinstance(outcome, bytes)
            assert outcome == _solve_outcome(lambda X: _reference_homography(X, extra), X)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in the huge inputs
    @pytest.mark.parametrize(
        "case",
        ["too_few", "rms_overflow_first", "rms_overflow_second", "rows_overflow",
         "repeated_point", "nonfinite_extra_p", "nonfinite_extra_q", "nonfinite_extra_both"],
    )
    def test_failures_match_reference(self, case):
        acs, _ = sample_acs(planar_scene(seed=6), 4, seed=6)
        X = ac_array(acs[:3])
        extra = [(acs[3].p1, acs[3].p2), ((5.0, 6.0), (7.0, 8.0))]
        if case == "too_few":
            X, extra = X[:1], extra[:0]
        elif case == "rms_overflow_first":
            X[:, 0] *= 1e305
        elif case == "rms_overflow_second":
            X[:, 3] *= 1e305
        elif case == "rows_overflow":  # a finite RMS radius, but x2 * x1 overflows
            X[:, 0:4] = 1e155 + 1e141 * X[:, 0:4]
            extra = []
        elif case == "repeated_point":
            X, extra = X[[0, 0]], []
        elif case == "nonfinite_extra_p":
            extra[1] = ((np.nan, 6.0), (7.0, 8.0))
        elif case == "nonfinite_extra_q":
            extra[0] = (extra[0][0], (np.inf, 1.0))
        else:  # every p is checked before any q
            extra = [((1.0, 2.0), (np.inf, 1.0)), ((np.nan, 6.0), (7.0, 8.0))]
        outcome = _solve_outcome(lambda X: homography_from_acs(X, extra), X)
        assert not isinstance(outcome, bytes)
        assert outcome == _named_image(case, _solve_outcome(lambda X: _reference_homography(X, extra), X))
        if case.startswith("nonfinite"):
            assert outcome[0] is InvalidValue


    @pytest.mark.parametrize("bad", [None, "p", "q"])
    def test_point_pair_forms_give_the_same_outcome(self, bad):
        noise = NoiseSpec(point_sigma=0.5, affine_rel_sigma=0.05, outlier_fraction=0.3)
        for seed in range(4):
            X = ac_array(sample_acs(planar_scene(seed=seed), 8, noise, seed=seed)[0])
            rows = X[3:, 0:4].copy()
            if bad:  # the first bad p is named before any q, whatever the form
                rows[3, 0 if bad == "p" else 2] = np.nan
                rows[1, 3] = np.inf
            pairs = [(tuple(r[0:2]), tuple(r[2:4])) for r in rows.tolist()]
            want = _solve_outcome(lambda X: homography_from_acs(X, pairs), X[:3])
            assert isinstance(want, bytes) == (bad is None)
            for given in (rows, rows.reshape(-1, 2, 2), np.asfortranarray(rows)):
                assert _solve_outcome(lambda X: homography_from_acs(X, given), X[:3]) == want


class TestHomographyBatch:
    """homography_batch solves a block of 2-AC samples in one stacked pass;
    each sample's outcome must be that of homography_from_acs, bit for bit."""

    def test_matches_single_solves_bit_for_bit(self):
        noise = NoiseSpec(point_sigma=0.5, affine_rel_sigma=0.05, outlier_fraction=0.4)
        samples = models = 0
        for seed, B in enumerate([1, 2, 7, 16, 32, 64, 64, 64, 100, 64]):
            X = ac_array(sample_acs(planar_scene(seed=70 + seed), 200, noise, seed=seed)[0])
            rng = np.random.default_rng(seed)
            S = X[np.array([rng.choice(len(X), size=2, replace=False) for _ in range(B)])]
            for sample, outcome in zip(S, _batch_outcomes(S, solvers.homography_batch, Homography)):
                assert outcome == _solve_outcome(homography_from_acs, sample)
                if isinstance(outcome, bytes):
                    assert outcome == _solve_outcome(_reference_homography, sample)
                samples += 1
                models += isinstance(outcome, bytes)
        assert samples >= 400 and models >= 0.9 * samples

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in the single solves
    @pytest.mark.parametrize(
        "case",
        ["rms_overflow_first", "rms_overflow_second", "centroid_overflow", "rows_overflow",
         "repeated_point", "singular"],
    )
    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_failure_inside_a_block_of_good_samples(self, monkeypatch, case, position):
        # The refusals of TestHomographyFromAcs::test_failures_match_reference
        # that a block of 2-AC samples can hold (not too_few, no extra points),
        # plus a singular H.
        X = ac_array(sample_acs(planar_scene(seed=6), 40, seed=6)[0])
        bad = _homography_failure(case, X[:2].copy())
        rng = np.random.default_rng(position)
        S = X[np.array([rng.choice(len(X), size=2, replace=False) for _ in range(7)])]
        S[position] = bad
        svd, solve, unsafe, passes = np.linalg.svd, solvers._homography, [], []

        def checking_svd(a, *args, **kwargs):  # an SVD can hang on non-finite entries
            if not np.isfinite(a).all():
                unsafe.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", checking_svd)
        monkeypatch.setattr(solvers, "_homography",
                            lambda S, *rest: passes.append(len(S)) or solve(S, *rest))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the stacked pass warns of nothing
            outcomes = _batch_outcomes(S, solvers.homography_batch, Homography)
        assert not unsafe  # a flagged sample's non-finite entries are masked
        assert passes == [len(S)]  # one stacked pass, no per-sample fallback
        monkeypatch.setattr(solvers, "_homography", solve)
        for i, (sample, outcome) in enumerate(zip(S, outcomes)):
            assert outcome == _solve_outcome(homography_from_acs, sample)
            assert isinstance(outcome, bytes) == (i != position)
        assert outcomes[position] == _named_image(case, _solve_outcome(_reference_homography, bad))
        if case == "singular":
            assert outcomes[position][1].startswith("homography is singular, det = ")

    def test_h33_near_zero_inside_a_block_of_good_samples(self):
        # a warp sending x1 = 0 to infinity: h33 cannot scale it, so it is
        # brought to unit norm with its largest entry positive instead
        H_far = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.01, 0.0, 0.0]])
        far = ac_array([AffineCorrespondence(p1=p, p2=apply_homography(H_far, p),
                                             A=gt_affine_from_homography(H_far, p))
                        for p in [(100.0, 50.0), (200.0, 300.0)]])
        X = ac_array(sample_acs(planar_scene(seed=7), 40, seed=7)[0])
        S = X[np.array([np.random.default_rng(7).choice(len(X), size=2, replace=False)
                        for _ in range(7)])]
        S[[1, 4]] = far
        H, faults = solvers.homography_batch(S)
        assert faults == [None] * 7
        assert abs(H[1, 2, 2]) <= 1e-12 and abs(H[0, 2, 2]) == 1.0
        for sample, outcome in zip(S, _batch_outcomes(S, solvers.homography_batch, Homography)):
            assert outcome == _solve_outcome(homography_from_acs, sample)
            assert outcome == _solve_outcome(_reference_homography, sample)

    def test_stacked_svd_failure_falls_back_to_single_solves(self, monkeypatch):
        noise = NoiseSpec(point_sigma=0.5, affine_rel_sigma=0.05, outlier_fraction=0.4)
        X = ac_array(sample_acs(planar_scene(seed=3), 200, noise, seed=3)[0])
        rng = np.random.default_rng(3)
        S = X[np.array([rng.choice(len(X), size=2, replace=False) for _ in range(32)])]
        S[5, 1] = S[5, 0]  # a degenerate sample among good ones
        expected = _batch_outcomes(S, solvers.homography_batch, Homography)
        assert not isinstance(expected[5], bytes)
        svd, raised = np.linalg.svd, []

        def stacked_svd_fails(a, *args, **kwargs):
            if len(a) > 1:
                raised.append(a.shape)
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", stacked_svd_fails)
        assert _batch_outcomes(S, solvers.homography_batch, Homography) == expected
        assert raised == [(32, 12, 9)]

    def test_stacked_distances_match_per_model_calls(self):
        noise = NoiseSpec(point_sigma=0.5, affine_rel_sigma=0.05, outlier_fraction=0.4)
        rng = np.random.default_rng(8)
        scene = generate_scene(seed=8, n_planes=3)
        X = ac_array(sample_acs(scene, 300, noise, seed=8)[0])
        F, faults = solvers.fundamental_batch(
            X[np.array([rng.choice(len(X), size=3, replace=False) for _ in range(40)])])
        F = F[[fault is None for fault in faults]]
        e1, e2 = (np.linalg.svd(M)[2][-1] for M in (F[0], F[0].T))
        X[0, 0:4] = [*(e1[:2] / e1[2]), *(e2[:2] / e2[2])]  # both epipoles of F[0]: +inf
        columns = np.ascontiguousarray(X.T)
        stacked = sampson_point_batch(*columns[:4], F)
        assert stacked.shape == (len(F), len(X)) and stacked[0, 0] == np.inf
        for f, row in zip(F, stacked):
            assert row.tobytes() == sampson_point_batch(*columns[:4], f).tobytes()

        X = ac_array(sample_acs(planar_scene(seed=8), 300, noise, seed=8)[0])
        X[0, 0:2] = (100.0, 50.0)
        H, faults = solvers.homography_batch(
            X[np.array([rng.choice(len(X), size=2, replace=False) for _ in range(40)])])
        # the last H sends the first point, (100, 50), to infinity
        H = np.concatenate([H[[fault is None for fault in faults]],
                            [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, -100.0]]]])
        pts1h = np.column_stack([X[:, 0:2], np.ones(len(X))])
        pts2h = np.column_stack([X[:, 2:4], np.ones(len(X))])
        stacked = robust._homography_residuals(H, pts1h, pts2h)
        assert stacked.shape == (len(H), len(X)) and stacked[-1, 0] == np.inf
        for h, row in zip(H, stacked):
            assert row.tobytes() == robust._homography_residuals(h, pts1h, pts2h).tobytes()


def _similarity(angle, scale, tx, ty):
    c, s = scale * math.cos(angle), scale * math.sin(angle)
    return np.array([[c, -s, tx], [s, c, ty], [0.0, 0.0, 1.0]])


def _transformed(X, S1, S2):
    """ac_array rows seen through image similarities: p' = S p, A' = L2 A L1^-1."""
    Y = np.empty_like(X)
    Y[:, 0:2] = X[:, 0:2] @ S1[:2, :2].T + S1[:2, 2]
    Y[:, 2:4] = X[:, 2:4] @ S2[:2, :2].T + S2[:2, 2]
    A = S2[:2, :2] @ X[:, 4:8].reshape(-1, 2, 2) @ np.linalg.inv(S1[:2, :2])
    Y[:, 4:8] = A.reshape(-1, 4)
    return Y


def _unit_signed(M):
    M = M / np.linalg.norm(M)
    return _largest_entry_sign_fix(M)


SIMILARITY = st.tuples(
    st.floats(-math.pi, math.pi),
    st.floats(0.1, 10.0),
    st.floats(-1000.0, 1000.0),
    st.floats(-1000.0, 1000.0),
).map(lambda args: _similarity(*args))


def _reference_solve_nullspace(rows, faults):
    """Reference: _solve_nullspace as one thin SVD of the (m, 9) rows at every m."""
    finite = np.isfinite(rows).all(axis=(1, 2))
    solvers._flag(faults, ~finite, lambda i: "constraint rows overflow")
    if not finite.all():
        rows = np.where(np.isfinite(rows), rows, 0.0)
    _, S, Vt = np.linalg.svd(rows, full_matrices=rows.shape[1] < 9)
    tol = S.max(axis=1) * (max(rows.shape[1:]) * np.finfo(S.dtype).eps)
    rank = np.sum(S > tol[:, None], axis=1)
    solvers._flag(faults, rank < 8, lambda i: f"constraint matrix rank {rank[i]} < 8")
    return Vt[:, -1].reshape(-1, 3, 3)


def _nullspace_outcome(solve, rows):
    faults = [None] * len(rows)
    return solve(rows, faults).tobytes(), faults


class TestSolveNullspace:
    """From 16 rows on, _solve_nullspace takes the SVD of the rows' R factor,
    which LAPACK's thin SVD (gesdd) computes itself past its 11n/6 crossover,
    so the null vector, the rank and the faults are the thin SVD's bit for
    bit on the numpy and OpenBLAS build that bench/reference.json was made
    with. Minimal samples (9 or 12 rows) keep the direct SVD."""

    @pytest.mark.parametrize("m", [*range(16, 40), 54, 360, 1398])
    def test_r_factor_gives_the_thin_svds_bits(self, m):
        rng = np.random.default_rng(m)
        stacks = [rng.normal(size=(1, m, 9)) * scale for scale in (1e-3, 1.0, 1e4)]
        for rank in (6, 7, 8):  # rank-deficient rows: the fault names the rank
            stacks.append(rng.normal(size=(1, m, rank)) @ rng.normal(size=(rank, 9)))
        overflowed = rng.normal(size=(1, m, 9))
        overflowed[0, m // 2, 3] = np.inf
        for rows in (*stacks, overflowed):
            outcome = _nullspace_outcome(solvers._solve_nullspace, rows)
            assert outcome == _nullspace_outcome(_reference_solve_nullspace, rows)
        faults = [_nullspace_outcome(solvers._solve_nullspace, rows)[1] for rows in stacks[3:]]
        assert faults == [["constraint matrix rank 6 < 8"], ["constraint matrix rank 7 < 8"],
                          [None]]

    def test_lo_refit_rows_give_the_thin_svds_bits(self, monkeypatch):
        captured = []
        solve = solvers._solve_nullspace
        monkeypatch.setattr(solvers, "_solve_nullspace", lambda rows, faults:
                            captured.append(rows.copy()) or solve(rows, faults))
        noise = NoiseSpec(point_sigma=0.5, outlier_fraction=0.4)
        refits = []
        for seed in range(3):
            cfg = robust.RansacConfig(seed=seed)
            F_acs, _ = sample_acs(generate_scene(seed=seed, n_planes=3), 200, noise, seed=seed)
            H_acs, _ = sample_acs(planar_scene(seed=seed), 300, noise, seed=seed)
            for estimate in (lambda: robust.ransac_fundamental(F_acs, cfg),
                             lambda: robust.ransac_homography(H_acs, [], cfg)):
                captured.clear()
                estimate()
                lo_rows = [rows for rows in captured if rows.shape[1] >= 16]
                assert lo_rows  # each estimate refits
                refits += lo_rows
        for rows in refits:
            outcome = _nullspace_outcome(solve, rows)
            assert outcome == _nullspace_outcome(_reference_solve_nullspace, rows)
            assert outcome[1] == [None]

    def test_minimal_blocks_take_the_direct_svd(self, monkeypatch):
        qr, factored = np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kwargs:
                            factored.append(a.shape) or qr(a, *args, **kwargs))
        noise = NoiseSpec(point_sigma=0.5, outlier_fraction=0.4)
        X = ac_array(sample_acs(generate_scene(seed=5, n_planes=3), 200, noise, seed=5)[0])
        rng = np.random.default_rng(5)
        for size in (3, 2):  # 9 F rows, 12 H rows per sample
            S = X[np.array([rng.choice(len(X), size=size, replace=False) for _ in range(64)])]
            solvers.fundamental_batch(S) if size == 3 else solvers.homography_batch(S)
        fundamental_from_acs(X[:3])
        homography_from_acs(X[:2])
        assert factored == []
        fundamental_from_acs(X[:6])  # 18 rows: an LO refit's path
        assert factored == [(1, 18, 9)]


class TestSimilarityEquivariance:
    """Hartley normalisation makes both solvers equivariant: mapping each
    image by a similarity maps the model by the matching change of frame."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.sampled_from([3, 4, 9, 40]),
           S1=SIMILARITY, S2=SIMILARITY)
    def test_fundamental(self, seed, n, S1, S2):
        X = ac_array(sample_acs(generate_scene(seed=seed, n_planes=3), n, seed=seed)[0])
        try:
            F = fundamental_from_acs(X).matrix
            F_mapped = fundamental_from_acs(_transformed(X, S1, S2)).matrix
        except AffgeoError:
            return
        expected = _unit_signed(np.linalg.inv(S2).T @ F @ np.linalg.inv(S1))
        assert np.max(np.abs(_unit_signed(F_mapped) - expected)) <= 1e-8

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.sampled_from([2, 3, 9, 40]),
           S1=SIMILARITY, S2=SIMILARITY)
    def test_homography(self, seed, n, S1, S2):
        X = ac_array(sample_acs(planar_scene(seed=seed), n, seed=seed)[0])
        try:
            H = homography_from_acs(X).matrix
            H_mapped = homography_from_acs(_transformed(X, S1, S2)).matrix
        except AffgeoError:
            return
        expected = _unit_signed(S2 @ H @ np.linalg.inv(S1))
        assert np.max(np.abs(_unit_signed(H_mapped) - expected)) <= 1e-8


class TestEssentialFromFundamental:
    def test_essential_fixed_point(self, rng):
        t = rng.normal(size=3)
        R = axis_angle_rotation(rng.normal(size=3), 0.3)
        E0 = skew3(t / np.linalg.norm(t)) @ R
        E0 = E0 * math.sqrt(2.0) / np.linalg.norm(E0)
        E = essential_from_fundamental(E0, IDENTITY_K, IDENTITY_K).matrix
        assert min(np.max(np.abs(E - E0)), np.max(np.abs(E + E0))) <= 1e-9

    def test_matches_forward_construction(self, rng):
        K = CameraIntrinsics(fx=700.0, fy=650.0, cx=320.0, cy=240.0)
        t = rng.normal(size=3)
        t /= np.linalg.norm(t)
        R = axis_angle_rotation(rng.normal(size=3), 0.2)
        E_gt = skew3(t) @ R
        F = np.linalg.inv(K.K).T @ E_gt @ np.linalg.inv(K.K)
        E = essential_from_fundamental(F, K, K).matrix
        E_gt = E_gt * math.sqrt(2.0) / np.linalg.norm(E_gt)
        assert min(np.max(np.abs(E - E_gt)), np.max(np.abs(E + E_gt))) <= 1e-8

    def test_projection_invariant(self, rng):
        M = rng.normal(size=(3, 3))  # generic rank-3 input
        E = essential_from_fundamental(M, IDENTITY_K, IDENTITY_K)
        sv = np.linalg.svd(E.matrix, compute_uv=False)
        assert abs(sv[0] - sv[1]) <= 1e-12
        assert sv[2] <= 1e-12
        assert np.linalg.norm(E.matrix) == pytest.approx(math.sqrt(2.0), abs=1e-12)


class TestDecomposeEssential:
    def test_synthetic_scene_recovery(self, scene, clean_acs):
        acs, _ = clean_acs
        E = essential_from_fundamental(scene.F_gt, scene.K1, scene.K2)
        pose = decompose_essential(E, [(ac.p1, ac.p2) for ac in acs], scene.K1, scene.K2)
        rot_angle = math.acos(
            min(1.0, max(-1.0, 0.5 * (np.trace(scene.pose.R.T @ pose.R) - 1.0)))
        )
        trans_angle = math.acos(min(1.0, max(-1.0, float(pose.t @ scene.pose.t))))
        assert rot_angle <= 1e-8
        assert trans_angle <= 1e-8

    def test_pure_x_translation(self):
        # X2 = X1 + (1, 0, 0): camera 2 sits at (-1, 0, 0), points in front.
        E = EssentialMatrix(skew3([1.0, 0.0, 0.0]))
        pts = np.array([[0.0, 0.0, 4.0], [1.0, 0.5, 5.0], [-0.5, 0.3, 6.0], [0.2, -0.4, 4.5]])
        pairs = [
            ((x / z, y / z), ((x + 1.0) / z, y / z))
            for x, y, z in pts
        ]
        pose = decompose_essential(E, pairs, IDENTITY_K, IDENTITY_K)
        assert np.max(np.abs(pose.R - np.eye(3))) <= 1e-10
        assert np.allclose(pose.t, [1.0, 0.0, 0.0], atol=1e-10)

    def test_proper_rotation_always(self, rng):
        for _ in range(20):
            t = rng.normal(size=3)
            R = axis_angle_rotation(rng.normal(size=3), rng.uniform(-0.5, 0.5))
            E = EssentialMatrix(skew3(t / np.linalg.norm(t)) @ R)
            X = rng.uniform(-1, 1, size=(6, 3)) + [0, 0, 5]
            pairs = []
            for Xi in X:
                X2 = R @ Xi + t / np.linalg.norm(t)
                pairs.append((Xi[:2] / Xi[2], X2[:2] / X2[2]))
            pose = decompose_essential(E, pairs, IDENTITY_K, IDENTITY_K)
            assert np.max(np.abs(pose.R.T @ pose.R - np.eye(3))) <= 1e-10
            assert np.linalg.det(pose.R) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.norm(pose.t) == pytest.approx(1.0, abs=1e-12)

    def test_vacuous_vote_raises(self):
        # zero-parallax pair triangulates at infinity: nobody can vote
        E = EssentialMatrix(skew3([1.0, 0.0, 0.0]))
        with pytest.raises(CheiralityAmbiguity):
            decompose_essential(E, [((0.0, 0.0), (0.0, 0.0))], IDENTITY_K, IDENTITY_K)

    def test_empty_inlier_list_raises(self):
        E = EssentialMatrix(skew3([1.0, 0.0, 0.0]))
        with pytest.raises(CheiralityAmbiguity, match=r"\[0, 0, 0, 0\] over 0 points"):
            decompose_essential(E, [], IDENTITY_K, IDENTITY_K)

    def test_batched_vote_matches_per_point_loop(self):
        # Noisy ACs with outliers, and E from the scene or from a wrong model,
        # so that the votes range from clear majorities to near ties.
        for seed in range(40):
            scene = generate_scene(seed=900 + seed, n_planes=3)
            noise = NoiseSpec(point_sigma=1.0, outlier_fraction=0.4)
            acs, _ = sample_acs(scene, 60, noise, seed=seed)
            pairs = [(ac.p1, ac.p2) for ac in acs]
            F = scene.F_gt if seed % 2 == 0 else fundamental_from_acs(acs[:3])
            E = essential_from_fundamental(F, scene.K1, scene.K2)
            candidates, counts = _loop_decompose(E, pairs, scene.K1, scene.K2)
            x1 = np.array([ac.p1 for ac in acs])
            x2 = np.array([ac.p2 for ac in acs])
            x1 = np.column_stack([x1, np.ones(len(acs))]) @ np.linalg.inv(scene.K1.K).T
            x2 = np.column_stack([x2, np.ones(len(acs))]) @ np.linalg.inv(scene.K2.K).T
            x1, x2 = x1[:, :2] / x1[:, 2:], x2[:, :2] / x2[:, 2:]
            assert [*_positive_depth_counts(*candidates[0], x1, x2),
                    *_positive_depth_counts(*candidates[2], x1, x2)] == counts
            best = int(np.argmax(counts))
            if counts[best] * 2 <= len(pairs) or counts.count(counts[best]) > 1:
                with pytest.raises(CheiralityAmbiguity, match=re.escape(str(counts))):
                    decompose_essential(E, pairs, scene.K1, scene.K2)
            else:
                pose = decompose_essential(E, pairs, scene.K1, scene.K2)
                R, t = candidates[best]
                assert np.array_equal(pose.R, R) and np.array_equal(pose.t, t)


    def test_each_candidate_wins_as_the_per_point_loop_picks_it(self):
        # 80 noisy ACs with 40% outliers; E from the scene or from a 3-AC
        # solve. Which candidate wins depends on the SVD's signs, so these
        # scenes cover all four of the (R, +-t) pairs.
        winners = set()
        for seed in range(16):
            scene = generate_scene(seed=1000 + seed, n_planes=3)
            noise = NoiseSpec(point_sigma=1.0, outlier_fraction=0.4)
            acs, _ = sample_acs(scene, 80, noise, seed=seed)
            F = scene.F_gt if seed % 2 == 0 else fundamental_from_acs(acs[:3])
            E = essential_from_fundamental(F, scene.K1, scene.K2)
            candidates, counts = _loop_decompose(E, [(ac.p1, ac.p2) for ac in acs],
                                                 scene.K1, scene.K2)
            best = int(np.argmax(counts))
            rows = ac_array(acs)[:, 0:4]
            if counts[best] * 2 <= len(acs) or counts.count(counts[best]) > 1:
                with pytest.raises(CheiralityAmbiguity, match=re.escape(str(counts))):
                    decompose_essential(E, rows, scene.K1, scene.K2)
                continue
            pose = decompose_essential(E, rows, scene.K1, scene.K2)
            R, t = candidates[best]
            assert pose.R.tobytes() == R.tobytes() and pose.t.tobytes() == t.tobytes()
            winners.add(best)
        assert winners == {0, 1, 2, 3}

    def test_rows_and_pairs_give_the_same_pose(self, scene):
        acs, _ = sample_acs(scene, 50, NoiseSpec(point_sigma=0.5, outlier_fraction=0.2), seed=3)
        E = essential_from_fundamental(scene.F_gt, scene.K1, scene.K2)
        pairs = [(tuple(map(float, ac.p1)), tuple(map(float, ac.p2))) for ac in acs]
        rows = np.array([[*p1, *p2] for p1, p2 in pairs])
        assert rows.shape == (50, 4)
        want = decompose_essential(E, pairs, scene.K1, scene.K2)
        for given in (rows, rows.reshape(50, 2, 2), np.asfortranarray(rows), iter(pairs)):
            pose = decompose_essential(E, given, scene.K1, scene.K2)
            assert pose.R.tobytes() == want.R.tobytes() and pose.t.tobytes() == want.t.tobytes()

    def test_points_at_infinity_vote_for_no_candidate(self, rng):
        # x1 == x2 under a pure translation: zero parallax, |w| <= 1e-14, and
        # the depths' signs are rounding noise, for t as for -t
        E = EssentialMatrix(skew3([1.0, 0.0, 0.0]))
        for _ in range(5):
            p = rng.uniform(-1.0, 1.0, size=(7, 2))
            _, counts = _loop_decompose(E, list(zip(p, p)), IDENTITY_K, IDENTITY_K)
            assert counts == [0, 0, 0, 0]
            with pytest.raises(CheiralityAmbiguity, match=re.escape("[0, 0, 0, 0] over 7")):
                decompose_essential(E, np.hstack([p, p]), IDENTITY_K, IDENTITY_K)

    def test_zero_rows_vote_like_zero_pairs(self):
        E = EssentialMatrix(skew3([1.0, 0.0, 0.0]))
        for given in (np.zeros((3, 4)), [((0.0, 0.0), (0.0, 0.0))] * 3, np.zeros((0, 4))):
            with pytest.raises(CheiralityAmbiguity, match=r"over (3|0) points"):
                decompose_essential(E, given, IDENTITY_K, IDENTITY_K)

    @pytest.mark.parametrize("given, shape", [
        ([((0.0, 0.0, 1.0), (0.0, 0.0, 1.0))], "(1, 2, 3)"),
        ([((0, 0),)], "(1, 1, 2)"),
        (np.zeros((4, 2, 3)), "(4, 2, 3)"),  # 24 values, not 6 rows
        (np.zeros((3, 8)), "(3, 8)"),
        (np.zeros(4), "(4,)"),
        (np.zeros((2, 2, 2, 2)), "(2, 2, 2, 2)"),
    ])
    def test_other_shapes_raise_invalid_argument(self, given, shape):
        E = EssentialMatrix(skew3([1.0, 0.0, 0.0]))
        with pytest.raises(InvalidArgument, match=re.escape(f"got {shape}")):
            decompose_essential(E, given, IDENTITY_K, IDENTITY_K)

    @pytest.mark.parametrize("given", [[((0.0, 0.0), (0.0, 0.0, 1.0))], [("a", "b")], 5.0])
    def test_ragged_or_non_numeric_pairs_raise_invalid_argument(self, given):
        E = EssentialMatrix(skew3([1.0, 0.0, 0.0]))
        with pytest.raises(InvalidArgument, match=re.escape("must be (n, 4) rows or pairs")):
            decompose_essential(E, given, IDENTITY_K, IDENTITY_K)


class TestGtAffineFromHomography:
    def test_identity(self):
        H = Homography(np.eye(3))
        for p in [(0.0, 0.0), (50.0, -20.0), (333.3, 444.4)]:
            assert np.allclose(gt_affine_from_homography(H, p), np.eye(2), atol=1e-14)

    def test_uniform_scaling(self):
        H = Homography(np.diag([2.0, 2.0, 1.0]))
        for p in [(0.0, 0.0), (10.0, 5.0)]:
            assert np.allclose(gt_affine_from_homography(H, p), 2.0 * np.eye(2), atol=1e-14)

    def test_projective_hand_case(self):
        H = Homography([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.1, 0.0, 1.0]])
        A = gt_affine_from_homography(H, (1.0, 0.0))
        oracle = _fd_jacobian(H, np.array([1.0, 0.0]))
        assert np.max(np.abs(A - oracle)) <= 1e-6
        assert A[0, 0] == pytest.approx(1.0 / 1.1**2, abs=1e-4)
        assert A[1, 1] == pytest.approx(1.0 / 1.1, abs=1e-4)

    def test_finite_difference_oracle_random(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            M = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
            M[2, :2] = 1e-3 * rng.normal(size=2)  # keep it well-conditioned
            if np.linalg.cond(M) > 1e4:
                continue
            H = Homography(M)
            p = rng.uniform(-100, 100, size=2)
            A = gt_affine_from_homography(H, p)
            assert np.max(np.abs(A - _fd_jacobian(H, p))) <= 1e-6

    def test_point_at_infinity(self):
        H = Homography([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        with pytest.raises(PointAtInfinity):
            gt_affine_from_homography(H, (-1.0, 3.0))

    def test_translation_equivariance(self, rng):
        for _ in range(50):
            M = np.eye(3) + 0.05 * rng.normal(size=(3, 3))
            M[2, :2] = 1e-3 * rng.normal(size=2)
            H = Homography(M)
            p = rng.uniform(-50, 50, size=2)
            delta = rng.uniform(-100, 100, size=2)
            T = np.eye(3)
            T[:2, 2] = delta
            Tinv = np.eye(3)
            Tinv[:2, 2] = -delta
            H_shifted = Homography(T @ H.matrix @ Tinv)
            A = gt_affine_from_homography(H, p)
            A_shifted = gt_affine_from_homography(H_shifted, p + delta)
            assert np.max(np.abs(A - A_shifted)) <= 1e-10


class TestModelTypes:
    def test_homography_requires_invertible(self):
        with pytest.raises(DegenerateConfiguration):
            Homography([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

    def test_homography_h33_normalised(self):
        H = Homography([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
        assert H.matrix[2, 2] == 1.0

    def test_relative_pose_validation(self):
        with pytest.raises(ValueError):
            RelativePose(R=np.eye(3) * 2.0, t=[1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            RelativePose(R=np.eye(3), t=[0.0, 0.0, 0.0])
        pose = RelativePose(R=np.eye(3), t=[0.0, 3.0, 0.0])
        assert np.linalg.norm(pose.t) == pytest.approx(1.0)
