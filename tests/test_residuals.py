"""Tests for constraint residuals and Sampson distances.

The closed forms are validated against two independent oracles: matrix-form
residual functions fed to the numeric-Jacobian generic machinery, and (for the
point distance) an exact geometric distance found by grid search + refinement.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affgeo import (
    AffineCorrespondence,
    FundamentalMatrix,
    affine_constraint_residual,
    epipolar_residual,
    generic_sampson,
    sampson_affine,
    sampson_point,
)
from affgeo.errors import DegenerateConfiguration
from affgeo.residuals import (
    affine_terms,
    epipolar_terms,
    sampson_affine_batch,
    sampson_point_batch,
)
from affgeo.synthdata import NoiseSpec, sample_acs

F_XLATE = FundamentalMatrix([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


# --- independent matrix-form residuals (oracle side; no shared algebra) ---------

def _epi_residual_fn(F):
    def fn(x):
        p1 = np.array([x[0], x[1], 1.0])
        p2 = np.array([x[2], x[3], 1.0])
        return p2 @ F @ p1

    return fn


def _affine_row_fn(F, row):
    # variable vector: (x1, y1, x2, y2, a_first, a_second) where the a's are
    # the relevant column of A; residual = [A^T F p1]_row + [F^T p2]_row
    def fn(x):
        p1 = np.array([x[0], x[1], 1.0])
        p2 = np.array([x[2], x[3], 1.0])
        col = np.array([x[4], x[5]])
        return col @ (F @ p1)[:2] + (F.T @ p2)[row]

    return fn


def _random_f(rng):
    while True:
        F = rng.normal(size=(3, 3))
        if np.linalg.norm(F) > 0.1:
            return F / np.linalg.norm(F)


class TestEpipolarResidual:
    def test_x_translation_geometry(self):
        assert epipolar_residual((0.0, 0.0), (5.0, 0.0), F_XLATE) == 0.0

    def test_point_on_epipolar_line(self, rng):
        for _ in range(50):
            F = _random_f(rng)
            p1 = rng.uniform(-2, 2, size=2)
            line = F @ np.array([p1[0], p1[1], 1.0])
            if abs(line[1]) < 1e-3:
                continue
            x2 = rng.uniform(-2, 2)
            y2 = -(line[0] * x2 + line[2]) / line[1]
            assert abs(epipolar_residual(p1, (x2, y2), F)) <= 1e-10

    def test_hand_value(self):
        assert epipolar_residual((0.0, 0.2), (0.0, 0.0), F_XLATE) == pytest.approx(0.2, abs=1e-15)


class TestAffineConstraintResidual:
    def test_translation_identity(self):
        ac = AffineCorrespondence(p1=(0, 0), p2=(0, 0), A=np.eye(2))
        assert affine_constraint_residual(ac, F_XLATE) == (0.0, 0.0)

    def test_hand_value_shear(self):
        ac = AffineCorrespondence(p1=(0, 0), p2=(0, 0), A=[[1.0, 0.0], [0.1, 1.0]])
        m0, n0 = affine_constraint_residual(ac, F_XLATE)
        assert m0 == pytest.approx(-0.1, abs=1e-15)
        assert n0 == pytest.approx(0.0, abs=1e-15)

    def test_vanishes_on_synthetic_acs(self, scene, clean_acs):
        acs, _ = clean_acs
        for ac in acs:
            m0, n0 = affine_constraint_residual(ac, scene.F_gt)
            assert abs(m0) <= 1e-12 and abs(n0) <= 1e-12


class TestSampsonPoint:
    def test_zero_on_line(self, rng):
        for _ in range(20):
            F = _random_f(rng)
            p1 = rng.uniform(-2, 2, size=2)
            line = F @ np.array([p1[0], p1[1], 1.0])
            if abs(line[1]) < 1e-3:
                continue
            x2 = rng.uniform(-2, 2)
            y2 = -(line[0] * x2 + line[2]) / line[1]
            assert sampson_point(p1, (x2, y2), F) <= 1e-18

    def test_hand_value(self):
        assert sampson_point((0.0, 0.0), (1.0, 0.2), F_XLATE) == pytest.approx(0.02, rel=1e-12)

    def test_matches_generic_machinery(self, rng):
        for _ in range(1000):
            F = _random_f(rng)
            x = rng.uniform(-2, 2, size=4)
            closed = sampson_point(x[:2], x[2:], F)
            try:
                generic = generic_sampson(_epi_residual_fn(F), x)
            except DegenerateConfiguration:
                continue
            assert closed == pytest.approx(generic, rel=1e-8)

    def test_degenerate_denominator_is_inf(self):
        F = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        assert sampson_point((0.0, 0.0), (0.0, 0.0), F) == math.inf

    def test_nonnegative_zero_iff_numerator(self, rng):
        for _ in range(200):
            F = _random_f(rng)
            p1 = rng.uniform(-2, 2, size=2)
            p2 = rng.uniform(-2, 2, size=2)
            sd = sampson_point(p1, p2, F)
            assert sd >= 0.0
            if sd == 0.0:
                assert abs(epipolar_residual(p1, p2, F)) == 0.0


class TestSampsonAffine:
    def test_zero_on_synthetic(self, scene, clean_acs):
        acs, _ = clean_acs
        for ac in acs[:30]:
            sa1, sa2 = sampson_affine(ac, scene.F_gt)
            assert sa1 <= 1e-12 and sa2 <= 1e-12

    def test_hand_value_shear(self):
        ac = AffineCorrespondence(p1=(0, 0), p2=(0, 0), A=[[1.0, 0.0], [0.1, 1.0]])
        sa1, sa2 = sampson_affine(ac, F_XLATE)
        assert sa1 == pytest.approx(0.01, rel=1e-12)
        assert sa2 == 0.0

    def test_matches_generic_machinery(self, rng):
        for _ in range(1000):
            F = _random_f(rng)
            p = rng.uniform(-2, 2, size=4)
            A = rng.normal(size=(2, 2))
            ac = AffineCorrespondence(p1=p[:2], p2=p[2:], A=A)
            sa1, sa2 = sampson_affine(ac, F)
            x_m = np.concatenate([p, [A[0, 0], A[1, 0]]])
            x_n = np.concatenate([p, [A[0, 1], A[1, 1]]])
            try:
                gen1 = generic_sampson(_affine_row_fn(F, 0), x_m)
                gen2 = generic_sampson(_affine_row_fn(F, 1), x_n)
            except DegenerateConfiguration:
                continue
            assert sa1 == pytest.approx(gen1, rel=1e-8)
            assert sa2 == pytest.approx(gen2, rel=1e-8)


class TestScaleInvariance:
    @pytest.mark.parametrize("lam", [-3.0, 1e-6, 1e6])
    def test_point_and_affine(self, lam, rng):
        for _ in range(50):
            F = _random_f(rng)
            p = rng.uniform(-2, 2, size=4)
            A = rng.normal(size=(2, 2))
            ac = AffineCorrespondence(p1=p[:2], p2=p[2:], A=A)
            assert sampson_point(p[:2], p[2:], lam * F) == pytest.approx(
                sampson_point(p[:2], p[2:], F), rel=1e-12
            )
            a = sampson_affine(ac, F)
            b = sampson_affine(ac, lam * np.asarray(F))
            assert b[0] == pytest.approx(a[0], rel=1e-12)
            assert b[1] == pytest.approx(a[1], rel=1e-12)


def _well_conditioned(terms, abs_terms):
    """Where a Sampson ratio is well conditioned: neither its residual nor its
    squared gradient norm loses more than a factor 100 to cancellation.
    terms and abs_terms are (residual, *gradient) from the same formulas with
    F and the columns as given, and with all of them replaced by magnitudes."""
    num, *grad = terms
    abs_num, *abs_grad = abs_terms
    den = sum(g * g for g in grad)
    abs_den = sum(g * g for g in abs_grad)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (abs_num <= 100 * np.abs(num)) & (abs_den <= 100 * den)


class TestScaleInvarianceProperty:
    """sampson_point_batch and sampson_affine_batch see F only up to scale:
    rescaling F by any nonzero finite lambda, |lambda| in [1e-6, 1e6], leaves
    every distance unchanged to 1e-12 relative. A distance whose residual or
    gradient is a near-cancellation (see _well_conditioned) is rounding noise
    at that level and is left out; at least nine in ten are checked."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lam=st.floats(1e-6, 1e6), negative=st.booleans(),
           pixels=st.floats(1.0, 1e4))
    def test_sampson_batches_unchanged_when_f_is_rescaled(self, seed, lam, negative, pixels):
        rng = np.random.default_rng(seed)
        F = _random_f(rng)
        cols = np.vstack([rng.uniform(-pixels, pixels, size=(4, 50)), rng.normal(size=(4, 50))])
        scaled = (-lam if negative else lam) * F
        checked = total = 0
        for before, after, terms, abs_terms in [
            (sampson_point_batch(*cols[:4], F), sampson_point_batch(*cols[:4], scaled),
             epipolar_terms(*cols[:4], F), epipolar_terms(*np.abs(cols[:4]), np.abs(F))),
            *zip(sampson_affine_batch(*cols, F), sampson_affine_batch(*cols, scaled),
                 affine_terms(*cols, F), affine_terms(*np.abs(cols), np.abs(F))),
        ]:
            ok = _well_conditioned(terms, abs_terms)
            assert np.all(np.abs(after - before)[ok] <= 1e-12 * before[ok])
            checked, total = checked + ok.sum(), total + ok.size
        assert checked >= 0.9 * total


# --- exact geometric distance oracle ---------------------------------------------

def _geometric_point_distance(p1, p2, F, radius):
    """Exact first-image-point search: for each candidate q1 the optimal q2 is
    the projection of p2 onto the epipolar line of q1. Dense grid + shrinking
    refinement around the best cell."""

    p1 = np.asarray(p1, float)
    p2h = np.array([p2[0], p2[1], 1.0])

    def cost(q1):
        line = F @ np.array([q1[0], q1[1], 1.0])
        d_line = abs(line @ p2h) / math.hypot(line[0], line[1])
        return math.sqrt(np.sum((q1 - p1) ** 2) + d_line**2)

    centre = p1.copy()
    span = radius
    best = cost(centre)
    for _round in range(8):
        xs = np.linspace(centre[0] - span, centre[0] + span, 21)
        ys = np.linspace(centre[1] - span, centre[1] + span, 21)
        for x in xs:
            for y in ys:
                c = cost(np.array([x, y]))
                if c < best:
                    best = c
                    centre = np.array([x, y])
        span /= 4.0
    return best


class TestFirstOrderConsistency:
    def test_against_geometric_distance(self, scene, clean_acs):
        acs, _ = clean_acs
        rng = np.random.default_rng(5)
        F = scene.F_gt.matrix
        for delta in (0.05, 0.1, 0.3, 0.5):
            for ac in acs[:5]:
                direction = rng.normal(size=2)
                direction /= np.linalg.norm(direction)
                p2 = ac.p2 + delta * direction
                sd = math.sqrt(sampson_point(ac.p1, p2, F))
                assert 0.0 <= sd <= 2.0 * delta
                if delta <= 0.1:
                    geo = _geometric_point_distance(ac.p1, p2, F, radius=2.0 * delta)
                    assert sd == pytest.approx(geo, rel=0.1)


class TestGenericSampson:
    def test_linear_two_variable(self):
        assert generic_sampson(lambda x: x[0] - x[1], [0.2, 0.0]) == pytest.approx(0.02, rel=1e-9)

    def test_zero_residual(self):
        assert generic_sampson(lambda x: x[0] - x[1], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-18)

    def test_singular_normal_matrix(self):
        with pytest.raises(DegenerateConfiguration, match=r"cond\(J J\^T\) = .* exceeds 1e12"):
            generic_sampson(lambda x: 1.0, [0.0, 0.0])

    def test_vector_residual(self):
        # two orthogonal linear constraints: distance is the hypotenuse
        fn = lambda x: np.array([x[0] - 1.0, x[1] - 2.0])
        assert generic_sampson(fn, [0.0, 0.0]) == pytest.approx(5.0, rel=1e-9)


class TestFundamentalMatrixType:
    def test_normalized(self, rng):
        F = FundamentalMatrix(rng.normal(size=(3, 3))).normalized()
        assert np.linalg.norm(F.matrix) == pytest.approx(1.0, abs=1e-14)
        flat = F.matrix.ravel()
        assert flat[np.argmax(np.abs(flat))] > 0.0

    def test_rank2_projected(self, rng):
        F = FundamentalMatrix(rng.normal(size=(3, 3))).rank2_projected()
        assert abs(np.linalg.det(F.matrix)) <= 1e-12 * np.linalg.norm(F.matrix) ** 3

    def test_rejects_zero_matrix(self):
        with pytest.raises(ValueError):
            FundamentalMatrix(np.zeros((3, 3)))

    def test_noise_calibration_window(self):
        # Monte-Carlo: at point_sigma = 0.5 the mean first-order correction is
        # sigma * sqrt(2/pi) shrunk by the two-image gradient split (~0.7), so
        # it sits near 0.27 px; the window below was frozen from this oracle.
        from affgeo import generate_scene
        from affgeo.residuals import sampson_point_batch

        scn = generate_scene(seed=1, n_planes=3)
        acs, _ = sample_acs(scn, 10_000, NoiseSpec(point_sigma=0.5), seed=2)
        x1 = np.array([c.p1[0] for c in acs])
        y1 = np.array([c.p1[1] for c in acs])
        x2 = np.array([c.p2[0] for c in acs])
        y2 = np.array([c.p2[1] for c in acs])
        mean_sd = float(np.mean(np.sqrt(sampson_point_batch(x1, y1, x2, y2, scn.F_gt))))
        assert 0.2 <= mean_sd <= 0.4
