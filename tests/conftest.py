"""Shared fixtures: seeded scenes and AC batches used across test modules."""

import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from affgeo import AffineCorrespondence, CameraSpec, NoiseSpec, generate_scene, sample_acs
from affgeo.solvers import apply_homography, gt_affine_from_homography


SRC_DIR = Path(__file__).resolve().parents[1] / "src"

# Hypothesis writes a cache of source constants at collection even without a
# database; keep it out of the working directory.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "affgeo-hypothesis")


def cli_env(**overrides):
    """Environment for a CLI subprocess: this tree's `src` goes first on an
    absolute PYTHONPATH, so `python -m affgeo.cli` imports this package whatever
    the child's working directory and whether or not the package is installed."""
    env = dict(os.environ)
    env.update({k: str(v) for k, v in overrides.items()})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


def run_capped(script, headroom_mb, *args, timeout=120):
    """Run the Python script, with args as sys.argv[1:], in a child whose
    address space is capped at what it holds once affgeo is imported plus
    headroom_mb MB; one BLAS thread, since each reserves its own buffers.
    Returns the CompletedProcess, stdout and stderr as text."""
    cap = textwrap.dedent(
        f"""
        import resource, sys
        import affgeo.cli
        held = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
        resource.setrlimit(resource.RLIMIT_AS, (held + ({headroom_mb} << 20),) * 2)
        """
    )
    return subprocess.run(
        [sys.executable, "-c", cap + textwrap.dedent(script), *map(str, args)],
        env=cli_env(OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1, MKL_NUM_THREADS=1),
        capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="session")
def scene():
    """A generic three-plane scene used where any valid scene will do."""
    return generate_scene(seed=42, n_planes=3)


@pytest.fixture(scope="session")
def clean_acs(scene):
    """Noise-free ACs with labels on the shared scene."""
    acs, labels = sample_acs(scene, 80, NoiseSpec(), seed=7)
    return acs, labels


@pytest.fixture()
def rng():
    return np.random.default_rng(123)


def random_orientation_preserving(rng, scale=1.0):
    """Random 2x2 matrix with positive determinant."""
    while True:
        A = rng.normal(0.0, scale, size=(2, 2))
        if A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0] > 0.0:
            return A


def planar_scene(seed=0):
    """Single-plane scene, convenient for homography tests."""
    return generate_scene(seed=seed, n_planes=1, camera_spec=CameraSpec())


def ac_on_plane(scene, plane_idx, p1):
    """Exact AC at a chosen first-image point on a chosen scene plane."""
    H = scene.homographies[plane_idx]
    return AffineCorrespondence(
        p1=p1,
        p2=apply_homography(H, p1),
        A=gt_affine_from_homography(H, p1),
    )


def general_position_acs(scene, points):
    """One exact AC per scene plane; points on a single plane leave the
    fundamental matrix underdetermined (the classical plane degeneracy), so
    minimal-sample tests spread them across planes."""
    return [
        ac_on_plane(scene, i % len(scene.homographies), p) for i, p in enumerate(points)
    ]
