"""Tests for the affine-aware LO-RANSAC estimators."""

import math
import subprocess
import sys
import textwrap
import threading
from itertools import compress

import numpy as np
import pytest

from affgeo import (
    Homography,
    NoiseSpec,
    ac_array,
    fundamental_from_acs,
    homography_from_acs,
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
from affgeo.residuals import FundamentalMatrix, sampson_point_batch

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


class _ReferenceLoRansac:
    """Reference: the LO-RANSAC loop as it was before blocks of samples were
    solved and counted in one pass. It draws, solves and scores one sample at
    a time; solve(idx) may raise one of robust.DEGENERATE."""

    def __init__(self, cfg, sample_size, population, distance, scores, refit):
        if population < sample_size:
            raise TooFewCorrespondences(f"need >= {sample_size} ACs, got {population}")
        self.cfg, self.sample_size, self.population = cfg, sample_size, population
        self.distance, self.scores, self.refit = distance, scores, refit
        self.thr2 = cfg.threshold * cfg.threshold
        self.bound = cfg.max_iterations
        self.iterations = self.degenerate_run = 0
        self.best = None

    def _support(self, model, floor=0):
        d2 = self.distance(model)
        mask = d2 <= self.thr2
        count = int(np.sum(mask))
        if count < floor:
            return mask, count, math.inf
        return mask, count, float(np.sum(np.fmin(self.scores(model, d2), self.thr2)))

    def offer(self, model):
        self.degenerate_run = 0
        floor = max(self.sample_size, -self.best[0][0]) if self.best else self.sample_size
        mask, count, total = self._support(model, floor)
        if count < floor:
            return
        if self.best is not None and (-count, total, self.iterations) >= self.best[0]:
            return
        if self.cfg.lo_enabled:
            for _ in range(16):
                try:
                    candidate = self.refit(mask)
                except robust.DEGENERATE:
                    break
                new_mask, new_count, new_total = self._support(candidate)
                if (-new_count, new_total) >= (-count, total):
                    break
                model, mask, count, total = candidate, new_mask, new_count, new_total
        self.best = ((-count, total, self.iterations), model, mask)
        self.bound = min(self.bound, adaptive_iteration_bound(
            count / mask.size, self.cfg.confidence, self.sample_size, self.cfg.max_iterations))

    def run(self, solve):
        rng = np.random.default_rng(self.cfg.seed)
        while self.iterations < self.bound and self.degenerate_run < robust.DEGENERATE_DRAW_LIMIT:
            self.iterations += 1
            idx = rng.choice(self.population, size=self.sample_size, replace=False)
            try:
                model = solve(idx)
            except robust.DEGENERATE:
                self.degenerate_run += self.best is None
                continue
            self.offer(model)
        if self.best is None:
            cause = (f"the sampler stopped on {self.degenerate_run} consecutive degenerate draws"
                     if self.degenerate_run >= robust.DEGENERATE_DRAW_LIMIT
                     else f"no hypothesis reached {self.sample_size} inliers")
            raise NoModelFound(f"{cause} in {self.iterations} iterations")
        (_, total, _), model, mask = self.best
        return robust.RobustEstimate(model=model, inlier_mask=mask,
                                     iterations_run=self.iterations, score=total)


def _reference_ransac_fundamental(acs, cfg):
    """Reference: ransac_fundamental as it was before block sampling, calling
    fundamental_from_acs on each sample and scoring each model on its own."""
    X = ac_array(acs)
    columns = np.ascontiguousarray(X.T)
    return _ReferenceLoRansac(
        cfg, 3, len(X),
        distance=lambda F: sampson_point_batch(*columns[:4], F.matrix),
        scores=lambda F, sp: robust._fundamental_scores(columns, F.matrix, sp, cfg.affine_weight),
        refit=lambda mask: fundamental_from_acs(X[mask]),
    ).run(lambda idx: fundamental_from_acs(X[idx]))


def _reference_ransac_homography(acs, extra_points, cfg):
    """Reference: ransac_homography as it was before block sampling, calling
    homography_from_acs on each sample and scoring each model on its own."""
    X = ac_array(acs)
    n_acs = len(X)
    extra = np.asarray(extra_points, dtype=np.float64).reshape(-1, 4)
    ones = np.ones((n_acs + len(extra), 1))
    pts1h = np.hstack([np.concatenate([X[:, 0:2], extra[:, 0:2]]), ones])
    pts2h = np.hstack([np.concatenate([X[:, 2:4], extra[:, 2:4]]), ones])
    return _ReferenceLoRansac(
        cfg, 2, n_acs,
        distance=lambda H: _reference_homography_residuals(H, pts1h, pts2h),
        scores=lambda H, ste2: ste2,
        refit=lambda mask: homography_from_acs(
            X[mask[:n_acs]], list(compress(extra_points, mask[n_acs:]))),
    ).run(lambda idx: homography_from_acs(X[idx]))


def _estimate_outcome(estimate, *args):
    """The bytes of an estimate, or the class and message of what it raised."""
    try:
        est = estimate(*args)
    except Exception as exc:  # the class and message are the outcome
        return type(exc), str(exc)
    return (est.model.matrix.tobytes(), est.inlier_mask.tobytes(), est.iterations_run,
            est.score)


def _homography_cases():
    """(planar scene seed, ACs, outlier fraction, extra point pairs, config)
    for the homography block-sampling oracle."""
    cases = [(s, 300, 0.4, 0, RansacConfig(seed=s)) for s in range(8)]
    cases += [(8 + s, 100, 0.6, 0, RansacConfig(seed=s, threshold=1.0)) for s in range(3)]
    cases += [(11 + s, 300, 0.4, 0, RansacConfig(seed=s, lo_enabled=False)) for s in range(3)]
    cases += [(14 + i, 300, 0.5, 0, RansacConfig(seed=i, max_iterations=m))
              for i, m in enumerate([1, 5, 37])]
    cases += [(17 + s, 100, 0.4, 8, RansacConfig(seed=s, lo_enabled=s != 1)) for s in range(3)]
    return cases


def _block_sampling_cases():
    """(scene seed, ACs, outlier fraction, config) for the block-sampling oracle."""
    cases = [(s, 200, 0.4, RansacConfig(seed=s)) for s in range(8)]
    cases += [(8 + s, 100, 0.6, RansacConfig(seed=s, threshold=1.0)) for s in range(3)]
    cases += [(11 + s, 200, 0.4, RansacConfig(seed=s, lo_enabled=False)) for s in range(3)]
    cases += [(14 + i, 200, 0.5, RansacConfig(seed=i, max_iterations=m))
              for i, m in enumerate([1, 5, 37, 100])]
    cases += [(18, 60, 0.0, RansacConfig(seed=3, affine_weight=0.0)),
              (19, 200, 0.8, RansacConfig(seed=4, max_iterations=300))]
    return cases


class TestBlockSampling:
    """Samples drawn and solved in blocks give the estimate of the loop that
    drew and solved one sample at a time: same model, mask, iteration count
    and score bytes, or the same refusal."""

    @pytest.mark.parametrize("case", range(len(_block_sampling_cases())))
    def test_matches_per_sample_loop(self, monkeypatch, case):
        scene_seed, n, outliers, cfg = _block_sampling_cases()[case]
        scene = generate_scene(seed=scene_seed, n_planes=3)
        acs, _ = sample_acs(scene, n, NoiseSpec(point_sigma=0.5, outlier_fraction=outliers),
                            seed=scene_seed)
        blocks = []
        batch = robust.fundamental_batch
        monkeypatch.setattr(robust, "fundamental_batch", lambda S: blocks.append(len(S)) or batch(S))
        outcome = _estimate_outcome(ransac_fundamental, acs, cfg)
        assert isinstance(outcome[0], bytes) or cfg.max_iterations <= 5  # one bad draw refuses
        assert outcome == _estimate_outcome(_reference_ransac_fundamental, acs, cfg)
        assert blocks[0] == min(robust.BLOCK_START, cfg.max_iterations)
        assert max(blocks) <= robust.BLOCK_CAP and sum(blocks) <= cfg.max_iterations

    @pytest.mark.parametrize("case", range(len(_homography_cases())))
    def test_homography_matches_per_sample_loop(self, monkeypatch, case):
        scene_seed, n, outliers, n_extra, cfg = _homography_cases()[case]
        acs, _ = sample_acs(planar_scene(seed=scene_seed), n + n_extra,
                            NoiseSpec(point_sigma=0.5, outlier_fraction=outliers), seed=scene_seed)
        extra = [(ac.p1, ac.p2) for ac in acs[n:]]
        blocks = []
        batch = robust.homography_batch
        monkeypatch.setattr(robust, "homography_batch", lambda S: blocks.append(len(S)) or batch(S))
        outcome = _estimate_outcome(ransac_homography, acs[:n], extra, cfg)
        assert isinstance(outcome[0], bytes)
        assert outcome == _estimate_outcome(_reference_ransac_homography, acs[:n], extra, cfg)
        assert len(outcome[1]) == n + n_extra
        assert blocks[0] == min(robust.BLOCK_START, cfg.max_iterations)
        assert max(blocks) <= robust.BLOCK_CAP and sum(blocks) <= cfg.max_iterations

    def test_homography_repeated_acs_mix_degenerate_and_good_draws(self, monkeypatch):
        acs, _ = sample_acs(planar_scene(seed=40), 40,
                            NoiseSpec(point_sigma=0.5, outlier_fraction=0.3), seed=40)
        X = ac_array(acs)[np.random.default_rng(40).integers(0, 8, size=30)]
        flags = []
        batch = robust.homography_batch

        def spy(S):
            H, faults = batch(S)
            flags.append([f is not None for f in faults])
            return H, faults

        monkeypatch.setattr(robust, "homography_batch", spy)
        for seed in range(3):
            cfg = RansacConfig(seed=seed)
            outcome = _estimate_outcome(ransac_homography, X, [], cfg)
            assert isinstance(outcome[0], bytes)
            assert outcome == _estimate_outcome(_reference_ransac_homography, X, [], cfg)
        assert any(0 < sum(block) < len(block) for block in flags)

    def test_blocks_keep_their_distances_within_the_cap(self, monkeypatch):
        acs, _ = sample_acs(planar_scene(seed=41), 300,
                            NoiseSpec(point_sigma=0.5, outlier_fraction=0.4), seed=41)
        monkeypatch.setattr(robust, "SCORED_PER_BLOCK", 1000)  # 3 samples' (3, 300) distances
        blocks = []
        batch = robust.homography_batch
        monkeypatch.setattr(robust, "homography_batch", lambda S: blocks.append(len(S)) or batch(S))
        cfg = RansacConfig(seed=41)
        outcome = _estimate_outcome(ransac_homography, acs, [], cfg)
        assert outcome == _estimate_outcome(_reference_ransac_homography, acs, [], cfg)
        assert max(blocks) == 3 and len(blocks) > 1

    def test_hypothesis_below_the_floor_builds_no_model(self, monkeypatch):
        built, offers = [], []
        monkeypatch.setattr(robust, "FundamentalMatrix",
                            lambda M: built.append(M) or FundamentalMatrix(M))
        offer = robust._LoRansac.offer

        def spy(loop, matrix, d2, count):
            floor = max(loop.sample_size, -loop.best[0][0]) if loop.best else loop.sample_size
            before = len(built)
            offer(loop, matrix, d2, count)
            offers.append((count >= floor, len(built) - before))

        monkeypatch.setattr(robust._LoRansac, "offer", spy)
        scene = generate_scene(seed=21, n_planes=3)
        acs, _ = sample_acs(scene, 200, NoiseSpec(point_sigma=0.5, outlier_fraction=0.4), seed=22)
        est = ransac_fundamental(acs, RansacConfig(seed=23))
        assert offers == [(reaches, int(reaches)) for reaches, _ in offers]
        assert 0 < len(built) < sum(1 for reaches, _ in offers if not reaches)
        assert len(offers) <= est.iterations_run

    def test_kept_model_does_not_pin_its_block(self):
        # without LO the best model is a minimal sample's; a view into its
        # block's (B, 3, 3) array would keep the whole block alive
        scene = generate_scene(seed=20, n_planes=3)
        acs, _ = sample_acs(scene, 200, NoiseSpec(point_sigma=0.5, outlier_fraction=0.4), seed=20)
        M = ransac_fundamental(acs, RansacConfig(seed=20, lo_enabled=False)).model.matrix
        assert M.base is None or M.base.nbytes == M.nbytes

    def test_repeated_acs_mix_degenerate_and_good_draws(self, monkeypatch):
        scene = generate_scene(seed=30, n_planes=3)
        acs, _ = sample_acs(scene, 40, NoiseSpec(point_sigma=0.5, outlier_fraction=0.3), seed=30)
        X = ac_array(acs)[np.random.default_rng(30).integers(0, 12, size=60)]
        flags = []  # per block, which samples were degenerate
        batch = robust.fundamental_batch

        def spy(S):
            F, faults = batch(S)
            flags.append([f is not None for f in faults])
            return F, faults

        monkeypatch.setattr(robust, "fundamental_batch", spy)
        for seed in range(3):
            cfg = RansacConfig(seed=seed)
            outcome = _estimate_outcome(ransac_fundamental, X, cfg)
            assert isinstance(outcome[0], bytes)
            assert outcome == _estimate_outcome(_reference_ransac_fundamental, X, cfg)
        assert any(0 < sum(block) < len(block) for block in flags)

    def test_single_plane_stops_on_degenerate_draws(self):
        acs, _ = sample_acs(planar_scene(seed=31), 50, seed=31)  # noise-free: every draw degenerate
        cfg = RansacConfig(seed=5)
        outcome = _estimate_outcome(ransac_fundamental, acs, cfg)
        assert outcome == (NoModelFound, "the sampler stopped on 500 consecutive degenerate "
                                         "draws in 500 iterations")
        assert outcome == _estimate_outcome(_reference_ransac_fundamental, acs, cfg)


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
            3, 8, 8,
            solve=lambda block: (np.arange(len(block)), [None] * len(block)),
            distance=lambda stack: np.array([self.HYPOTHESES[i][0] for i in stack]),
            model=int,
            scores=scores,
            refit=None,
        )
        est = loop.run()
        assert est.model == 1
        assert est.score == 1.0625
        assert est.inlier_mask.tolist() == [True] * 5 + [False] * 3
        assert est.iterations_run == len(self.HYPOTHESES)
        assert scored == [0, 1, 2]

    def test_same_estimate_as_the_eager_rule_with_fewer_affine_terms(self, monkeypatch):
        calls = []
        affine = robust.sampson_affine_batch
        monkeypatch.setattr(robust, "sampson_affine_batch",
                            lambda *args: calls.append(1) or affine(*args))
        noise = NoiseSpec(point_sigma=0.5, outlier_fraction=0.4)
        scene = generate_scene(seed=21, n_planes=3)
        acs, _ = sample_acs(scene, 200, noise, seed=22)
        lazy = ransac_fundamental(acs, RansacConfig(seed=23))
        lazy_calls = len(calls)

        # the eager rule: the per-sample reference, totalling every hypothesis
        support = _ReferenceLoRansac._support
        monkeypatch.setattr(_ReferenceLoRansac, "_support",
                            lambda self, model, floor=0: support(self, model))
        calls.clear()
        eager = _reference_ransac_fundamental(acs, RansacConfig(seed=23))
        assert 0 < lazy_calls < len(calls)
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


def _reference_homography_residuals(H, pts1h, pts2h):
    """Reference: robust._homography_residuals as first written, dividing only
    the rows that do not map to infinity."""
    fwd = pts1h @ H.matrix.T
    bwd = pts2h @ np.linalg.inv(H.matrix).T
    ok = (np.abs(fwd[:, 2]) > 1e-12) & (np.abs(bwd[:, 2]) > 1e-12)
    d = np.full(len(pts1h), np.inf)
    if np.any(ok):
        df = fwd[ok, :2] / fwd[ok, 2:3] - pts2h[ok, :2]
        db = bwd[ok, :2] / bwd[ok, 2:3] - pts1h[ok, :2]
        d[ok] = np.sum(df * df, axis=1) + np.sum(db * db, axis=1)
    return d


class TestRansacHomography:
    def test_residuals_match_reference(self):
        noise = NoiseSpec(point_sigma=0.5, affine_rel_sigma=0.05, outlier_fraction=0.4)
        X = ac_array(sample_acs(planar_scene(seed=33), 600, noise, seed=10)[0])
        X[0, 0:2] = (100.0, 50.0)
        pts1h = np.column_stack([X[:, 0:2], np.ones(len(X))])
        pts2h = np.column_stack([X[:, 2:4], np.ones(len(X))])
        rng = np.random.default_rng(10)
        hypotheses = [homography_from_acs(X[rng.choice(len(X), 2, replace=False)])
                      for _ in range(60)]
        # sends the first data point, (100, 50), to infinity
        hypotheses.append(Homography([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, -100.0]]))
        for H in hypotheses:
            d = robust._homography_residuals(H.matrix, pts1h, pts2h)
            assert d.tobytes() == _reference_homography_residuals(H, pts1h, pts2h).tobytes()
        assert d[0] == np.inf and np.isfinite(d[1:]).any()

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
    code object of the solver's caller: a solver called from an estimator's
    own body is a minimal solve, one called from anywhere else an LO refit.
    Minimal samples are solved in blocks by fundamental_batch and
    homography_batch instead, so the single solves are called only by the LO
    refits that _LoRansac.offer runs, never from an estimator's body."""

    def test_pose_refits_are_its_only_single_solves(self, monkeypatch):
        callers, samples = [], []
        solve, batch = robust.fundamental_from_acs, robust.fundamental_batch

        def spy_solve(*args):
            callers.append((sys._getframe(1).f_code, sys._getframe(2).f_code))
            return solve(*args)

        def spy_batch(S):
            samples.append(len(S))
            return batch(S)

        monkeypatch.setattr(robust, "fundamental_from_acs", spy_solve)
        monkeypatch.setattr(robust, "fundamental_batch", spy_batch)
        scene = generate_scene(seed=12, n_planes=3)
        acs, _ = sample_acs(scene, 200, NoiseSpec(point_sigma=0.5, outlier_fraction=0.4), seed=13)
        _, est = ransac_pose(acs, scene.K1, scene.K2, RansacConfig(seed=14))
        assert callers  # the LO refits
        assert all(caller is not ransac_fundamental.__code__ for caller, _ in callers)
        assert {refit_caller for _, refit_caller in callers} == {robust._LoRansac.offer.__code__}
        assert sum(samples) >= est.iterations_run

    def test_homography_refits_are_its_only_single_solves(self, monkeypatch):
        callers, samples = [], []
        solve, batch = robust.homography_from_acs, robust.homography_batch

        def spy_solve(*args, **kwargs):
            callers.append((sys._getframe(1).f_code, sys._getframe(2).f_code))
            return solve(*args, **kwargs)

        def spy_batch(S):
            samples.append(len(S))
            return batch(S)

        monkeypatch.setattr(robust, "homography_from_acs", spy_solve)
        monkeypatch.setattr(robust, "homography_batch", spy_batch)
        acs, _ = sample_acs(planar_scene(seed=12), 200,
                            NoiseSpec(point_sigma=0.5, outlier_fraction=0.4), seed=13)
        est = ransac_homography(acs, [], RansacConfig(threshold=2.0, seed=14))
        assert callers  # the LO refits
        assert all(caller is not ransac_homography.__code__ for caller, _ in callers)
        assert {refit_caller for _, refit_caller in callers} == {robust._LoRansac.offer.__code__}
        assert sum(samples) >= est.iterations_run


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
