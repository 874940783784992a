"""Tests for the evaluation metrics."""

import math
import re

import numpy as np
import pytest

from affgeo import (
    Homography,
    MmaCurve,
    RelativePose,
    affine_similarity,
    mma_at_threshold,
    mma_curve,
    mma_score,
    pose_auc,
    pose_error,
    rmse,
    rotation2,
)
from affgeo.errors import InvalidArgument, InvalidValue
from affgeo.metrics import (
    PoseError,
    evaluate_matches,
    median,
    mma_weight_denominator,
    mma_weights,
)
from affgeo.solvers import axis_angle_rotation

H_IDENTITY = Homography(np.eye(3))


def _matches_with_errors(errors):
    """One match per error, displaced along +x under the identity homography."""
    return np.array([[10.0, 20.0 + 3 * i, 10.0 + e, 20.0 + 3 * i] for i, e in enumerate(errors)])


class TestMma:
    def test_exact_matches_full_score(self):
        m = _matches_with_errors([0.0] * 7)
        for thr in range(1, 11):
            assert mma_at_threshold(m, H_IDENTITY, thr) == 1.0

    def test_single_match_step_function(self):
        m = _matches_with_errors([2.5])
        for thr in (1, 2):
            assert mma_at_threshold(m, H_IDENTITY, thr) == 0.0
        for thr in range(3, 11):
            assert mma_at_threshold(m, H_IDENTITY, thr) == 1.0

    def test_linear_error_construction(self):
        m = _matches_with_errors([0.5 + k for k in range(10)])
        for k in range(1, 11):
            assert mma_at_threshold(m, H_IDENTITY, k) == pytest.approx(k / 10.0, abs=1e-15)

    def test_empty_matches(self):
        assert mma_at_threshold(np.zeros((0, 4)), H_IDENTITY, 3.0) == 0.0

    def test_point_at_infinity_counts_as_incorrect(self):
        H = Homography([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.1, 0.0, 1.0]])
        m = np.array([[10.0, 0.0, 10.0, 0.0], [1.0, 1.0, 1.0, 1.0]])  # first maps to infinity
        assert mma_at_threshold(m, H, 10.0) <= 0.5

    def test_curve_monotone(self):
        rng = np.random.default_rng(8)
        m = _matches_with_errors(rng.uniform(0, 12, size=40))
        curve = mma_curve(m, H_IDENTITY)
        assert np.all(np.diff(curve.values) >= 0.0)

    def test_weights(self):
        w = mma_weights()
        assert w[0] == pytest.approx(1.9) and w[-1] == pytest.approx(1.0)
        assert mma_weight_denominator() == 14.5  # exact

    def test_score_goldens(self):
        ones = MmaCurve(np.ones(10))
        zeros = MmaCurve(np.zeros(10))
        linear = MmaCurve(np.arange(1, 11) / 10.0)
        assert mma_score(ones) == 1.0
        assert mma_score(zeros) == 0.0
        assert mma_score(linear) == pytest.approx(7.15 / 14.5, abs=1e-12)

    def test_score_bounded_by_curve(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            v = np.sort(rng.uniform(0, 1, size=10))
            s = mma_score(MmaCurve(v))
            assert v.min() - 1e-12 <= s <= v.max() + 1e-12

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            MmaCurve(np.array([0.5, 0.4] + [0.6] * 8))  # not monotone
        with pytest.raises(ValueError):
            MmaCurve(np.array([0.1] * 9 + [1.1]))  # out of range

    def test_evaluate_matches_per_pair_then_mean(self):
        perfect = _matches_with_errors([0.0] * 10)
        half = _matches_with_errors([0.5 + k for k in range(10)])
        report = evaluate_matches([(perfect, H_IDENTITY), (half, H_IDENTITY)])
        assert report.n_pairs == 2 and report.n_matches == 20
        expected = (np.ones(10) + np.arange(1, 11) / 10.0) / 2.0
        assert np.allclose(report.curve.values, expected, atol=1e-15)


class TestMatchShapes:
    @pytest.mark.parametrize("shape", [(50, 8), (2, 2)])
    def test_other_shapes_raise_invalid_argument(self, shape):
        m = np.zeros(shape)
        for call in (lambda: mma_curve(m, H_IDENTITY),
                     lambda: mma_at_threshold(m, H_IDENTITY, 3.0),
                     lambda: evaluate_matches([(m, H_IDENTITY)])):
            with pytest.raises(InvalidArgument, match=re.escape(f"got {shape}")):
                call()


class TestAffineSimilarity:
    def test_identical(self):
        assert affine_similarity(np.eye(2), np.eye(2)) == (0.0, 1.0)

    def test_double_scale(self):
        dist, cos = affine_similarity(2.0 * np.eye(2), np.eye(2))
        assert dist == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert cos == pytest.approx(1.0, abs=1e-15)

    def test_quarter_rotation(self):
        dist, cos = affine_similarity(rotation2(math.pi / 2), np.eye(2))
        assert dist == pytest.approx(2.0, abs=1e-12)
        assert cos == pytest.approx(0.0, abs=1e-12)

    def test_zero_matrix_raises(self):
        with pytest.raises(InvalidValue, match=r"cosine similarity undefined"):
            affine_similarity(np.zeros((2, 2)), np.eye(2))

    def test_cosine_bounds_distance_zero_iff_equal(self, rng):
        for _ in range(100):
            A = rng.normal(size=(2, 2))
            B = rng.normal(size=(2, 2))
            dist, cos = affine_similarity(A, B)
            assert -1.0 - 1e-12 <= cos <= 1.0 + 1e-12
            assert dist >= 0.0
            assert (dist == 0.0) == np.array_equal(A, B)


class TestPoseError:
    def test_identical(self):
        pose = RelativePose(R=np.eye(3), t=[0.0, 0.0, 1.0])
        err = pose_error(pose, pose)
        assert err.rotation_error == 0.0 and err.translation_error == 0.0

    def test_one_degree_rotation(self):
        gt = RelativePose(R=np.eye(3), t=[0.0, 0.0, 1.0])
        est = RelativePose(R=axis_angle_rotation([1.0, 0.0, 0.0], math.radians(1.0)), t=[0.0, 0.0, 1.0])
        assert pose_error(est, gt).rotation_error == pytest.approx(1.0, abs=1e-9)

    def test_translation_sign_ambiguity(self):
        gt = RelativePose(R=np.eye(3), t=[1.0, 0.0, 0.0])
        est = RelativePose(R=np.eye(3), t=[-1.0, 0.0, 0.0])
        assert pose_error(est, gt).translation_error == 0.0

    def test_symmetric(self, rng):
        for _ in range(20):
            a = RelativePose(R=axis_angle_rotation(rng.normal(size=3), rng.uniform(-1, 1)), t=rng.normal(size=3))
            b = RelativePose(R=axis_angle_rotation(rng.normal(size=3), rng.uniform(-1, 1)), t=rng.normal(size=3))
            ab, ba = pose_error(a, b), pose_error(b, a)
            assert ab.rotation_error == pytest.approx(ba.rotation_error, abs=1e-9)
            assert ab.translation_error == pytest.approx(ba.translation_error, abs=1e-9)

    def test_pose_error_type_ranges(self):
        with pytest.raises(ValueError):
            PoseError(rotation_error=-1.0, translation_error=0.0)
        with pytest.raises(ValueError):
            PoseError(rotation_error=0.0, translation_error=91.0)


class TestPoseAuc:
    def test_all_zero_errors(self):
        assert pose_auc([0.0, 0.0, 0.0]) == [1.0, 1.0, 1.0]

    def test_all_beyond_thresholds(self):
        assert pose_auc([21.0, 35.0, math.inf]) == [0.0, 0.0, 0.0]

    def test_two_pair_golden(self):
        auc = pose_auc([0.0, 10.0], thresholds=[10.0])
        assert auc[0] == pytest.approx(0.75, abs=1e-12)

    def test_error_at_threshold_counts(self):
        # recall is right-continuous: an error exactly at tau contributes
        assert pose_auc([10.0, 30.0], thresholds=[10.0])[0] == pytest.approx(0.25, abs=1e-12)

    def test_monotone_in_threshold_and_bounded(self, rng):
        errs = rng.uniform(0, 30, size=50)
        aucs = pose_auc(errs, thresholds=[5.0, 10.0, 20.0, 40.0])
        assert all(0.0 <= a <= 1.0 for a in aucs)
        assert aucs == sorted(aucs)

    def test_empty_raises(self):
        with pytest.raises(InvalidArgument, match=r"pose_auc needs at least one error value"):
            pose_auc([])

    def test_failures_as_inf(self):
        finite = pose_auc([1.0, 2.0], thresholds=[5.0])[0]
        with_failure = pose_auc([1.0, 2.0, math.inf], thresholds=[5.0])[0]
        assert with_failure < finite


class TestRmseMedian:
    def test_zeros(self):
        assert rmse([0.0, 0.0, 0.0]) == 0.0

    def test_three_four(self):
        assert rmse([3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-15)

    def test_constant(self):
        assert rmse([5.0] * 7) == 5.0

    def test_empty(self):
        with pytest.raises(InvalidArgument, match=r"rmse of an empty list"):
            rmse([])
        with pytest.raises(InvalidArgument, match=r"median of an empty list"):
            median([])

    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
