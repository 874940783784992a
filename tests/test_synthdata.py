"""Tests for synthetic scene generation and AC sampling."""

import numpy as np
import pytest

from affgeo import (
    CameraSpec,
    NoiseSpec,
    decompose_affine,
    epipolar_residual,
    generate_scene,
    sample_acs,
    sampson_affine,
    sampson_point,
)
from affgeo.errors import InvalidArgument
from affgeo.residuals import FundamentalMatrix


class TestGenerateScene:
    def test_deterministic_per_seed(self):
        a = generate_scene(seed=5, n_planes=2)
        b = generate_scene(seed=5, n_planes=2)
        assert np.array_equal(a.F_gt.matrix, b.F_gt.matrix)
        assert np.array_equal(a.pose.R, b.pose.R)
        assert np.array_equal(a.pose.t, b.pose.t)
        for (na, da), (nb, db) in zip(a.planes, b.planes):
            assert np.array_equal(na, nb) and da == db
        for Ha, Hb in zip(a.homographies, b.homographies):
            assert np.array_equal(Ha.matrix, Hb.matrix)

    def test_different_seeds_differ(self):
        a = generate_scene(seed=1)
        b = generate_scene(seed=2)
        assert not np.allclose(a.F_gt.matrix, b.F_gt.matrix)

    def test_pure_x_translation_canonical_f(self):
        spec = CameraSpec(rotation=np.eye(3), translation=np.array([1.0, 0.0, 0.0]))
        scene = generate_scene(seed=3, camera_spec=spec)
        # with equal focal lengths, F is proportional to the canonical
        # x-translation form regardless of the principal point
        canon = FundamentalMatrix(
            [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]
        ).normalized()
        assert np.max(np.abs(scene.F_gt.matrix - canon.matrix)) <= 1e-12

    def test_zero_baseline_rejected(self):
        spec = CameraSpec(translation=np.zeros(3))
        with pytest.raises(InvalidArgument, match=r"zero baseline requested"):
            generate_scene(seed=0, camera_spec=spec)

    def test_planes_behind_camera_rejected(self):
        spec = CameraSpec(depth_range=(-8.0, -4.0))
        with pytest.raises(InvalidArgument, match=r"plane depth range .* must be positive"):
            generate_scene(seed=0, camera_spec=spec)

    def test_homography_compatible_with_f(self):
        scene = generate_scene(seed=11, n_planes=4)
        F = scene.F_gt.matrix
        for H in scene.homographies:
            G = H.matrix.T @ F + F.T @ H.matrix
            assert np.max(np.abs(G + G.T)) <= 1e-10  # skew-symmetric

    def test_plane_offsets_positive(self):
        scene = generate_scene(seed=13, n_planes=5)
        for normal, offset in scene.planes:
            assert offset > 0.0
            assert np.linalg.norm(normal) == pytest.approx(1.0, abs=1e-12)


class TestSampleAcs:
    def test_deterministic_per_seed(self, scene):
        a, la = sample_acs(scene, 25, NoiseSpec(point_sigma=0.3, outlier_fraction=0.2), seed=9)
        b, lb = sample_acs(scene, 25, NoiseSpec(point_sigma=0.3, outlier_fraction=0.2), seed=9)
        assert np.array_equal(la, lb)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.p1, cb.p1)
            assert np.array_equal(ca.p2, cb.p2)
            assert np.array_equal(ca.A, cb.A)

    def test_noise_free_closure(self, scene, clean_acs):
        acs, labels = clean_acs
        assert labels.all()
        for ac in acs:
            assert sampson_point(ac.p1, ac.p2, scene.F_gt) <= 1e-16
            sa1, sa2 = sampson_affine(ac, scene.F_gt)
            assert sa1 <= 1e-12 and sa2 <= 1e-12
            assert abs(epipolar_residual(ac.p1, ac.p2, scene.F_gt)) <= 1e-12

    def test_exact_outlier_count(self, scene):
        acs, labels = sample_acs(scene, 100, NoiseSpec(outlier_fraction=0.4), seed=3)
        assert len(acs) == 100
        assert int(np.sum(~labels)) == 40

    def test_points_inside_images(self, scene):
        acs, _ = sample_acs(scene, 50, seed=21)
        w, h = scene.image_size
        for ac in acs:
            assert 0.0 <= ac.p1[0] <= w and 0.0 <= ac.p1[1] <= h
            assert 0.0 <= ac.p2[0] <= w and 0.0 <= ac.p2[1] <= h

    def test_decomposition_succeeds_on_clean_affinities(self):
        for seed in (0, 1, 2):
            scene = generate_scene(seed=seed, n_planes=3)
            acs, _ = sample_acs(scene, 150, seed=seed + 50)
            for ac in acs:
                d = decompose_affine(ac.A)  # raises if det <= 0
                assert d.scale_ratio > 0.0

    def test_point_noise_moves_p2_only(self, scene):
        clean, _ = sample_acs(scene, 30, NoiseSpec(), seed=77)
        noisy, _ = sample_acs(scene, 30, NoiseSpec(point_sigma=1.0), seed=77)
        for c, n in zip(clean, noisy):
            assert np.array_equal(c.p1, n.p1)
            assert np.array_equal(c.A, n.A)
            assert not np.array_equal(c.p2, n.p2)

    def test_affine_noise_is_multiplicative(self, scene):
        clean, _ = sample_acs(scene, 30, NoiseSpec(), seed=78)
        noisy, _ = sample_acs(scene, 30, NoiseSpec(affine_rel_sigma=0.05), seed=78)
        rel = [np.abs(n.A / c.A - 1.0).max() for c, n in zip(clean, noisy)]
        assert 0.0 < max(rel) < 0.5  # a few sigma of 5% relative noise

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(point_sigma=-1.0)
        with pytest.raises(ValueError):
            NoiseSpec(outlier_fraction=1.0)
