"""Tests for the affine decomposition / synthesis core."""

import math

import numpy as np
import pytest
import scipy.linalg

from affgeo import (
    AffineCorrespondence,
    AffineDecomposition,
    CameraIntrinsics,
    NoiseSpec,
    ac_array,
    decompose_affine,
    generate_scene,
    relative_frame,
    rotation2,
    sample_acs,
    synthesize_affine,
    wrap_angle,
)
from affgeo.fileio import AC_HEADER, read_acs, write_acs
from affgeo.errors import InvalidDecomposition, NonPositiveDeterminant, NonPositiveScale

from conftest import random_orientation_preserving


class TestDecompose:
    def test_pure_scaling(self):
        d = decompose_affine([[2.0, 0.0], [0.0, 2.0]])
        assert d.scale_ratio == pytest.approx(2.0, abs=1e-12)
        assert d.orientation_delta == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(d.residual_shape, 0.0, atol=1e-12)

    def test_rotation_times_scale_against_polar_oracle(self):
        A = np.array([[0.0, -2.0], [2.0, 0.0]])
        d = decompose_affine(A)
        assert d.scale_ratio == pytest.approx(2.0, abs=1e-12)
        assert d.orientation_delta == pytest.approx(math.pi / 2, abs=1e-12)
        assert np.allclose(d.residual_shape, 0.0, atol=1e-12)
        # independent oracle: scipy polar factorisation of A / sqrt(det A)
        R, P = scipy.linalg.polar(A / 2.0)
        assert np.allclose(rotation2(d.orientation_delta), R, atol=1e-12)
        assert np.allclose(np.eye(2) + d.residual_shape, P, atol=1e-12)

    def test_polar_oracle_random(self, rng):
        for _ in range(200):
            A = random_orientation_preserving(rng)
            d = decompose_affine(A)
            s = math.sqrt(np.linalg.det(A))
            R, P = scipy.linalg.polar(A / s)
            assert d.scale_ratio == pytest.approx(s, rel=1e-12)
            assert np.allclose(rotation2(d.orientation_delta), R, atol=1e-9)
            assert np.allclose(np.eye(2) + d.residual_shape, P, atol=1e-9)

    def test_reflection_rejected(self):
        with pytest.raises(NonPositiveDeterminant):
            decompose_affine([[1.0, 0.0], [0.0, -1.0]])

    def test_singular_rejected(self):
        with pytest.raises(NonPositiveDeterminant):
            decompose_affine([[1.0, 2.0], [2.0, 4.0]])

    def test_rotation_scale_family(self):
        # decompose(c * R(theta)) == (c, theta, 0)
        for c in (0.1, 1.0, 7.5):
            for theta in (-3.0, -1.0, 0.0, 1.5, math.pi):
                d = decompose_affine(c * rotation2(theta))
                assert d.scale_ratio == pytest.approx(c, rel=1e-12)
                assert d.orientation_delta == pytest.approx(wrap_angle(theta), abs=1e-10)
                assert np.allclose(d.residual_shape, 0.0, atol=1e-10)

    def test_residual_shape_invariants(self, rng):
        for _ in range(200):
            d = decompose_affine(random_orientation_preserving(rng))
            shape = np.eye(2) + d.residual_shape
            assert abs(np.linalg.det(shape) - 1.0) <= 1e-10
            assert np.max(np.abs(shape - shape.T)) <= 1e-10
            assert np.all(np.linalg.eigvalsh(shape) > 0.0)


class TestSynthesize:
    def test_identity(self):
        d = AffineDecomposition(scale_ratio=1.0, orientation_delta=0.0, residual_shape=np.zeros((2, 2)))
        assert np.allclose(synthesize_affine(d), np.eye(2), atol=1e-15)

    def test_rotation_scale(self):
        d = AffineDecomposition(scale_ratio=2.0, orientation_delta=math.pi / 2, residual_shape=np.zeros((2, 2)))
        assert np.allclose(synthesize_affine(d), [[0.0, -2.0], [2.0, 0.0]], atol=1e-12)

    def test_rejects_bad_shape_determinant(self):
        d = AffineDecomposition(scale_ratio=1.0, orientation_delta=0.0, residual_shape=0.1 * np.eye(2))
        with pytest.raises(InvalidDecomposition):
            synthesize_affine(d)

    def test_rejects_nonpositive_scale(self):
        d = AffineDecomposition(scale_ratio=-1.0, orientation_delta=0.0, residual_shape=np.zeros((2, 2)))
        with pytest.raises(InvalidDecomposition):
            synthesize_affine(d)

    def test_round_trip_1000_random(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            A = random_orientation_preserving(rng)
            back = synthesize_affine(decompose_affine(A))
            assert np.linalg.norm(back - A) <= 1e-10 * np.linalg.norm(A)

    def test_determinant_equals_scale_squared(self, rng):
        for _ in range(200):
            # random valid decomposition: SPD unit-determinant shape factor
            q = rotation2(rng.uniform(-math.pi, math.pi))
            lam = rng.uniform(0.5, 2.0)
            P = q @ np.diag([lam, 1.0 / lam]) @ q.T
            d = AffineDecomposition(
                scale_ratio=float(rng.uniform(0.2, 5.0)),
                orientation_delta=float(rng.uniform(-math.pi, math.pi)),
                residual_shape=P - np.eye(2),
            )
            A = synthesize_affine(d)
            assert np.linalg.det(A) == pytest.approx(d.scale_ratio**2, rel=1e-10)


class TestRelativeFrame:
    def test_identity(self):
        assert relative_frame(0.0, 1.0, 0.0, 1.0) == (0.0, 1.0)

    def test_wraps_angle(self):
        delta, ratio = relative_frame(3.0, 1.0, -3.0, 1.0)
        assert delta == pytest.approx(-6.0 + 2.0 * math.pi, abs=1e-12)
        assert ratio == 1.0

    def test_scale_ratio(self):
        assert relative_frame(0.0, 2.0, 0.0, 1.0) == (0.0, 0.5)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(NonPositiveScale):
            relative_frame(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(NonPositiveScale):
            relative_frame(0.0, 1.0, 0.0, -2.0)


class TestWrapAngle:
    def test_half_open_interval(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
        for theta in np.linspace(-20.0, 20.0, 401):
            w = wrap_angle(theta)
            assert -math.pi < w <= math.pi
            # same direction modulo 2*pi
            assert math.cos(w) == pytest.approx(math.cos(theta), abs=1e-9)
            assert math.sin(w) == pytest.approx(math.sin(theta), abs=1e-9)


class TestTypes:
    def test_affine_correspondence_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            AffineCorrespondence(p1=(np.nan, 0.0), p2=(0.0, 0.0), A=np.eye(2))
        with pytest.raises(ValueError):
            AffineCorrespondence(p1=(0.0, 0.0), p2=(0.0, 0.0), A=[[1.0, np.inf], [0.0, 1.0]])

    def test_intrinsics_require_positive_focals(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0)
        K = CameraIntrinsics(fx=600.0, fy=500.0, cx=320.0, cy=240.0, skew=0.5)
        assert K.K[0, 1] == 0.5 and K.K[2, 2] == 1.0


class TestAcArray:
    def test_columns_follow_the_ac_file(self, tmp_path):
        scene = generate_scene(seed=4, n_planes=2)
        acs, _ = sample_acs(scene, 30, NoiseSpec(point_sigma=0.5, outlier_fraction=0.3), seed=5)
        path = tmp_path / "acs.csv"
        write_acs(path, acs)
        X = read_acs(path)
        assert AC_HEADER == "x1,y1,x2,y2,a11,a12,a21,a22"
        assert X.shape == (30, 8) and X.dtype == np.float64 and X.flags.c_contiguous
        assert ac_array(X) is X
        assert np.array_equal(X, np.loadtxt(path, delimiter=",", skiprows=1))

    def test_empty_sequence(self, tmp_path):
        assert ac_array([]).shape == (0, 8)
        path = tmp_path / "header_only.csv"
        write_acs(path, [])
        assert path.read_text() == AC_HEADER + "\n"
        assert read_acs(path).shape == (0, 8)

    def test_float64_array_passes_through(self):
        X = np.arange(16, dtype=np.float64).reshape(2, 8)
        assert ac_array(X) is X

    @pytest.mark.parametrize(
        "bad",
        [np.zeros((3, 7)), np.zeros(8), np.array([[0.0, 0, 0, 0, 1, 0, 0, np.nan]]),
         np.array([[np.inf, 0, 0, 0, 1, 0, 0, 1]])],
        ids=["n-by-7", "1-d", "nan", "inf"],
    )
    def test_rejects_bad_arrays(self, bad):
        with pytest.raises(ValueError):
            ac_array(bad)
