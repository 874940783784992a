"""Tests for synthetic scene generation and AC sampling."""

import numpy as np
import pytest

from affgeo import (
    AffineCorrespondence,
    CameraSpec,
    NoiseSpec,
    ac_array,
    decompose_affine,
    epipolar_residual,
    generate_scene,
    sample_acs,
    sampson_affine,
    sampson_point,
)
from affgeo import cli
from affgeo.errors import DegenerateConfiguration, InvalidArgument, InvalidValue, PointAtInfinity
from affgeo.fileio import write_acs, write_labels
from affgeo.residuals import FundamentalMatrix
from affgeo.solvers import gt_affine_from_homography
from affgeo.synthdata import _project


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


# --- the sampler against the per-AC loop it replaced --------------------------------

def _reference_sample_acs(scene, n, noise=None, seed=0):
    """Reference: sample_acs as first written, one checked AffineCorrespondence
    per row and numpy scalars throughout."""
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


def _same_sample(got, want):
    (acs, labels), (ref_acs, ref_labels) = got, want
    assert labels.dtype == ref_labels.dtype and labels.tobytes() == ref_labels.tobytes()
    assert ac_array(acs).tobytes() == ac_array(ref_acs).tobytes()
    assert len(acs) == len(ref_acs)
    for ac, ref in zip(acs, ref_acs):
        for name in ("p1", "p2", "A"):
            a, b = getattr(ac, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        AffineCorrespondence(ac.p1, ac.p2, ac.A)  # every AC passes the checks it skipped


@pytest.mark.parametrize("n", [1, 2, 50, 600])
@pytest.mark.parametrize("planes", [1, 2, 3, 4, 5])
def test_sample_acs_matches_the_reference_bit_for_bit(planes, n):
    scene = generate_scene(seed=10 * planes + n, n_planes=planes)
    for outliers in (0.0, 0.4, 0.9):
        for point_sigma, affine_sigma in ((0.0, 0.0), (0.5, 0.0), (1.0, 0.05)):
            noise = NoiseSpec(point_sigma, affine_sigma, outliers)
            seed = planes + n + int(10 * outliers)
            _same_sample(sample_acs(scene, n, noise, seed=seed),
                         _reference_sample_acs(scene, n, noise, seed=seed))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference overflows per row
@pytest.mark.parametrize("outliers", [0.0, 0.5])
@pytest.mark.parametrize("sigmas", [(1e308, 0.0), (0.0, 1e308)])
def test_overflowing_sigmas_raise_as_the_reference(sigmas, outliers):
    scene = generate_scene(seed=3, n_planes=2)
    noise = NoiseSpec(*sigmas, outlier_fraction=outliers)
    with pytest.raises(InvalidArgument, match="noise sigmas overflow the sample") as want:
        _reference_sample_acs(scene, 40, noise, seed=4)
    with pytest.raises(InvalidArgument) as got:
        sample_acs(scene, 40, noise, seed=4)
    assert str(got.value) == str(want.value)
    assert type(got.value.__cause__) is type(want.value.__cause__) is InvalidValue


@pytest.mark.parametrize("seed", [0, 7, 31])
def test_synth_writes_the_reference_bytes(seed, tmp_path, capsys, monkeypatch):
    args = ["synth", "--seed", str(seed), "--n", "120", "--planes", "3", "--point-sigma", "0.5",
            "--affine-sigma", "0.02", "--outliers", "0.3", "--out-dir", str(tmp_path / "out")]
    scene = generate_scene(seed=seed, n_planes=3)
    acs, labels = _reference_sample_acs(scene, 120, NoiseSpec(0.5, 0.02, 0.3), seed=seed + 1)
    write_acs(tmp_path / "acs.csv", acs)
    write_labels(tmp_path / "labels.txt", labels)
    with monkeypatch.context() as m:
        m.setattr(cli, "sample_acs", _reference_sample_acs)
        assert cli.main(args) == 0
    want_stdout = capsys.readouterr().out
    assert cli.main(args) == 0
    assert capsys.readouterr().out == want_stdout
    for name in ("acs.csv", "labels.txt"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / name).read_bytes()
