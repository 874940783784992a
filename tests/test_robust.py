"""Tests for the affine-aware LO-RANSAC estimators."""

import math
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from affgeo import (
    NoiseSpec,
    robust,
    RansacConfig,
    adaptive_iteration_bound,
    generate_scene,
    ransac_fundamental,
    ransac_homography,
    ransac_pose,
    sample_acs,
    sampson_point,
)
from affgeo.errors import NoModelFound, TooFewCorrespondences
from affgeo.metrics import pose_error
from affgeo.residuals import sampson_point_batch

from conftest import cli_env, planar_scene


class TestRansacFundamental:
    def test_all_inliers_noise_free(self, scene):
        acs, _ = sample_acs(scene, 100, seed=1)
        est = ransac_fundamental(acs, RansacConfig(seed=0))
        assert est.inlier_mask.all()
        assert np.max(np.abs(est.model.matrix - scene.F_gt.matrix)) <= 1e-8

    def test_too_few(self, scene):
        acs, _ = sample_acs(scene, 2, seed=1)
        with pytest.raises(TooFewCorrespondences):
            ransac_fundamental(acs, RansacConfig(seed=0))

    def test_no_model_on_garbage(self):
        # identical ACs: every minimal sample is degenerate
        from affgeo import AffineCorrespondence

        ac = AffineCorrespondence(p1=(1.0, 2.0), p2=(3.0, 4.0), A=np.eye(2))
        with pytest.raises(NoModelFound):
            ransac_fundamental([ac] * 10, RansacConfig(seed=0, max_iterations=50))

    def test_deterministic_same_seed(self, scene):
        acs, _ = sample_acs(scene, 80, NoiseSpec(point_sigma=0.5, outlier_fraction=0.3), seed=2)
        a = ransac_fundamental(acs, RansacConfig(seed=11))
        b = ransac_fundamental(acs, RansacConfig(seed=11))
        assert np.array_equal(a.model.matrix, b.model.matrix)
        assert np.array_equal(a.inlier_mask, b.inlier_mask)
        assert a.iterations_run == b.iterations_run
        assert a.score == b.score

    def test_thread_count_invariance(self, scene, monkeypatch):
        acs, _ = sample_acs(scene, 600, NoiseSpec(point_sigma=0.5, outlier_fraction=0.3), seed=2)
        monkeypatch.setenv("AFFGEO_THREADS", "1")
        a = ransac_fundamental(acs, RansacConfig(seed=11))
        monkeypatch.setenv("AFFGEO_THREADS", "4")
        b = ransac_fundamental(acs, RansacConfig(seed=11))
        assert np.array_equal(a.model.matrix, b.model.matrix)
        assert np.array_equal(a.inlier_mask, b.inlier_mask)
        assert a.score == b.score

    @pytest.mark.parametrize("model", ["fundamental", "homography"])
    def test_scoring_starts_no_thread(self, scene, monkeypatch, model):
        acs, _ = sample_acs(scene, 600, NoiseSpec(point_sigma=0.5, outlier_fraction=0.3), seed=2)
        monkeypatch.setenv("AFFGEO_THREADS", "4")

        def refuse(thread):
            raise AssertionError(f"estimation started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        if model == "fundamental":
            ransac_fundamental(acs, RansacConfig(seed=11))
        else:
            ransac_homography(acs, [], RansacConfig(seed=11))

    def test_mask_respects_threshold(self, scene):
        acs, _ = sample_acs(scene, 120, NoiseSpec(point_sigma=0.7, outlier_fraction=0.3), seed=5)
        cfg = RansacConfig(threshold=0.8, seed=3)
        est = ransac_fundamental(acs, cfg)
        for ac, flagged in zip(acs, est.inlier_mask):
            inside = math.sqrt(sampson_point(ac.p1, ac.p2, est.model)) <= cfg.threshold
            assert inside == bool(flagged)

    def test_threshold_monotonicity(self, scene):
        acs, _ = sample_acs(scene, 120, NoiseSpec(point_sigma=0.7, outlier_fraction=0.3), seed=6)
        counts = []
        for thr in (0.25, 0.5, 1.0, 2.0):
            est = ransac_fundamental(acs, RansacConfig(threshold=thr, seed=9))
            counts.append(int(np.sum(est.inlier_mask)))
        assert counts == sorted(counts)

    def test_monte_carlo_recall_and_margin(self):
        # 60 noisy inliers + 40 uniform outliers, threshold = noise sigma.
        # The first-order Sampson correction shrinks the line distance by the
        # two-image gradient split (~0.7), so per-point acceptance at
        # threshold = sigma sits near 84%, bounding attainable recall; the
        # frozen floors below track the measured behaviour.
        recalls, stray = [], []
        for seed in range(100):
            scene = generate_scene(seed=200 + seed, n_planes=2)
            acs, labels = sample_acs(
                scene, 100, NoiseSpec(point_sigma=0.5, outlier_fraction=0.4), seed=seed
            )
            est = ransac_fundamental(acs, RansacConfig(threshold=0.5, seed=seed))
            recalls.append(np.sum(est.inlier_mask & labels) / np.sum(labels))
            x1 = np.array([c.p1[0] for c in acs])
            y1 = np.array([c.p1[1] for c in acs])
            x2 = np.array([c.p2[0] for c in acs])
            y2 = np.array([c.p2[1] for c in acs])
            sp = sampson_point_batch(x1, y1, x2, y2, est.model)
            stray.append(int(np.sum((np.sqrt(sp) <= 3 * 0.5) & ~labels)))
        assert np.median(recalls) >= 0.78
        assert np.median(stray) == 0  # no outliers accepted at 3x margin

    def test_smaller_sample_advantage(self):
        # 3-AC minimal samples need far fewer draws than 7-point samples
        assert adaptive_iteration_bound(0.5, 0.99, 3, 10**6) == 35
        assert adaptive_iteration_bound(0.5, 0.99, 7, 10**6) == 588
        assert adaptive_iteration_bound(0.5, 0.99, 3, 10**6) < adaptive_iteration_bound(
            0.5, 0.99, 7, 10**6
        )

    def test_adaptive_bound_edges(self):
        assert adaptive_iteration_bound(0.0, 0.99, 3, 500) == 500
        assert adaptive_iteration_bound(1.0, 0.99, 3, 500) == 1
        assert adaptive_iteration_bound(1e-9, 0.99, 3, 500) == 500


class TestLazyTieBreak:
    """The affine terms only rank hypotheses of equal inlier count, so the
    loop computes a hypothesis' per-AC scores only when its count can tie or
    beat the best one."""

    # (squared point distance, per-AC score) of 8 correspondences; the
    # threshold is 0.5 px, so d2 <= 0.25 is an inlier and each score is
    # truncated at 0.25 in the total.
    HYPOTHESES = [
        ([0.0] * 5 + [1.0] * 3, [0.125] * 5 + [1.0] * 3),  # 5 inliers, total 1.375
        ([0.0] * 5 + [1.0] * 3, [0.0625] * 5 + [1.0] * 3),  # 5 inliers, total 1.0625
        ([0.0] * 5 + [1.0] * 3, [0.0625] * 5 + [1.0] * 3),  # equal total, later: loses
        ([0.0] * 4 + [1.0] * 4, [0.0] * 8),  # 4 inliers: below the best count
        ([1.0] * 8, [0.0] * 8),  # no inliers: below the sample size
    ]

    def test_lower_total_wins_a_tie_and_an_equal_total_loses(self):
        scored = []

        def scores(i, d2):
            scored.append(i)
            return np.array(self.HYPOTHESES[i][1])

        loop = robust._LoRansac(
            RansacConfig(seed=0, lo_enabled=False, max_iterations=len(self.HYPOTHESES)),
            3, 8,
            distance=lambda i: np.array(self.HYPOTHESES[i][0]),
            scores=scores,
            refit=None,
        )
        for i, _ in enumerate(loop.samples()):
            loop.offer(i)
        est = loop.result()
        assert est.model == 1
        assert est.score == 1.0625
        assert est.inlier_mask.tolist() == [True] * 5 + [False] * 3
        assert est.iterations_run == len(self.HYPOTHESES)
        assert scored == [0, 1, 2]

    def test_same_estimate_as_the_eager_rule_with_fewer_affine_terms(self, monkeypatch):
        counts = {"sampson_point_batch": 0, "sampson_affine_batch": 0}

        def spy(name):
            fn = getattr(robust, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        noise = NoiseSpec(point_sigma=0.5, outlier_fraction=0.4)
        scene = generate_scene(seed=21, n_planes=3)
        acs, _ = sample_acs(scene, 200, noise, seed=22)
        for name in counts:
            monkeypatch.setattr(robust, name, spy(name))
        lazy = ransac_fundamental(acs, RansacConfig(seed=23))
        assert 0 < counts["sampson_affine_batch"] < counts["sampson_point_batch"]

        support = robust._LoRansac._support
        monkeypatch.setattr(robust._LoRansac, "_support",
                            lambda self, model, floor=0: support(self, model))
        eager = ransac_fundamental(acs, RansacConfig(seed=23))
        assert lazy.model.matrix.tobytes() == eager.model.matrix.tobytes()
        assert lazy.inlier_mask.tobytes() == eager.inlier_mask.tobytes()
        assert (lazy.iterations_run, lazy.score) == (eager.iterations_run, eager.score)


class TestRansacPose:
    def test_noise_free_scene(self, scene):
        acs, _ = sample_acs(scene, 60, seed=4)
        pose, est = ransac_pose(acs, scene.K1, scene.K2, RansacConfig(seed=0))
        err = pose_error(pose, scene.pose)
        assert math.radians(err.rotation_error) <= 1e-6
        assert math.radians(err.translation_error) <= 1e-6
        assert est.inlier_mask.all()

    def test_too_few(self, scene):
        acs, _ = sample_acs(scene, 2, seed=4)
        with pytest.raises(TooFewCorrespondences):
            ransac_pose(acs, scene.K1, scene.K2, RansacConfig(seed=0))

    def test_monte_carlo_one_px_noise(self):
        rots = []
        for seed in range(100):
            scene = generate_scene(seed=500 + seed, n_planes=3)
            acs, _ = sample_acs(
                scene, 200, NoiseSpec(point_sigma=1.0, outlier_fraction=0.4), seed=seed
            )
            pose, _ = ransac_pose(acs, scene.K1, scene.K2, RansacConfig(threshold=0.5, seed=seed))
            rots.append(pose_error(pose, scene.pose).rotation_error)
        assert np.median(rots) <= 0.5  # degrees

    def test_twenty_thousand_acs_within_address_space_cap(self):
        # A full SVD of an LO refit's stacked rows needs an m x m U: at
        # n = 20 000 that is gigabytes. The child caps its own address space,
        # so a regression raises MemoryError there instead of exhausting the
        # host; the thin solve runs in well under 100 MB.
        script = textwrap.dedent(
            """
            import resource
            cap = 768 << 20
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
            from affgeo import NoiseSpec, RansacConfig, generate_scene, ransac_pose, sample_acs
            scene = generate_scene(seed=11, n_planes=3)
            noise = NoiseSpec(point_sigma=0.5, outlier_fraction=0.4)
            acs, _ = sample_acs(scene, 20000, noise, seed=12)
            pose, est = ransac_pose(acs, scene.K1, scene.K2, RansacConfig(seed=13))
            print(int(est.inlier_mask.sum()))
            """
        )
        # One BLAS thread: every BLAS thread reserves its own buffers, which
        # count against the cap and grow with the host's core count.
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=cli_env(OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1, MKL_NUM_THREADS=1),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert int(proc.stdout) > 20000 // 3


class TestRansacHomography:
    def test_noise_free_planar(self):
        scene = planar_scene(seed=31)
        acs, _ = sample_acs(scene, 40, seed=8)
        est = ransac_homography(acs, [], RansacConfig(seed=1))
        assert np.max(np.abs(est.model.matrix - scene.homographies[0].matrix)) <= 1e-8
        assert est.inlier_mask.all()

    def test_half_outliers(self):
        recalls = []
        for seed in range(100):
            scene = planar_scene(seed=900 + seed)
            acs, labels = sample_acs(scene, 60, NoiseSpec(outlier_fraction=0.5), seed=seed)
            est = ransac_homography(acs, [], RansacConfig(threshold=0.5, seed=seed))
            recalls.append(np.sum(est.inlier_mask & labels) / np.sum(labels))
        assert np.median(recalls) >= 0.95

    def test_extra_points_scored(self):
        scene = planar_scene(seed=32)
        acs, _ = sample_acs(scene, 10, seed=9)
        extra = [(ac.p1, ac.p2) for ac in acs[8:]]
        est = ransac_homography(acs[:8], extra, RansacConfig(seed=2))
        assert est.inlier_mask.shape == (10,)
        assert est.inlier_mask.all()

    def test_identical_acs_no_model(self):
        from affgeo import AffineCorrespondence

        ac = AffineCorrespondence(p1=(5.0, 6.0), p2=(7.0, 8.0), A=np.eye(2))
        with pytest.raises(NoModelFound):
            ransac_homography([ac] * 8, [], RansacConfig(seed=0, max_iterations=40))

    def test_too_few(self):
        from affgeo import AffineCorrespondence

        ac = AffineCorrespondence(p1=(5.0, 6.0), p2=(7.0, 8.0), A=np.eye(2))
        with pytest.raises(TooFewCorrespondences):
            ransac_homography([ac], [], RansacConfig(seed=0))


class TestTracerSeam:
    """The benchmark's tracer tells a minimal solve from an LO refit by the
    code object of the solver's caller: minimal solves are called from the
    estimator's own body, LO refits from anywhere else."""

    @pytest.mark.parametrize("estimator", ["pose", "homography"])
    def test_minimal_solves_come_from_the_estimator_body(self, monkeypatch, estimator):
        callers = []

        def spy(solve):
            def wrapper(*args, **kwargs):
                callers.append(sys._getframe(1).f_code)
                return solve(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(robust, "fundamental_from_acs", spy(robust.fundamental_from_acs))
        monkeypatch.setattr(robust, "homography_from_acs", spy(robust.homography_from_acs))
        noise = NoiseSpec(point_sigma=0.5, outlier_fraction=0.4)
        if estimator == "pose":
            scene = generate_scene(seed=12, n_planes=3)
            acs, _ = sample_acs(scene, 200, noise, seed=13)
            _, est = ransac_pose(acs, scene.K1, scene.K2, RansacConfig(seed=14))
            loop = ransac_fundamental.__code__
        else:
            scene = planar_scene(seed=12)
            acs, _ = sample_acs(scene, 200, noise, seed=13)
            est = ransac_homography(acs, [], RansacConfig(threshold=2.0, seed=14))
            loop = ransac_homography.__code__
        minimal = [c for c in callers if c == loop]
        assert len(minimal) == est.iterations_run
        assert len(callers) > len(minimal)  # the LO refits


class TestRansacConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RansacConfig(threshold=0.0)
        with pytest.raises(ValueError):
            RansacConfig(confidence=1.0)
        with pytest.raises(ValueError):
            RansacConfig(affine_weight=-0.1)
        with pytest.raises(ValueError):
            RansacConfig(max_iterations=0)
        with pytest.raises(ValueError):
            RansacConfig(seed=-1)
