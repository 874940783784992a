"""Epipolar and affine constraint residuals with their Sampson distances.

The point residual is the epipolar scalar p2^T F p1. An affine correspondence
additionally satisfies two linear constraints coupling A and F; writing L1 for
the epipolar line F p1 in the second image and L2 for F^T p2 in the first,

    M0 = a11*L1_x + a21*L1_y + L2_x,    N0 = a12*L1_x + a22*L1_y + L2_y,

both of which vanish for a noise-free correspondence. Each Sampson distance is
the squared first-order correction: the squared residual divided by the squared
gradient norm with respect to the measured quantities (x1, y1, x2, y2 for the
point residual; those plus the relevant column of A for the affine rows).

All closed forms are cross-checked against generic_sampson, the numeric
Jacobian implementation of the same first-order construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import AffineCorrespondence, FloatArray, Mat3, ac_array, as_mat3
from .errors import DegenerateConfiguration

# Denominators at or below this are treated as degenerate and the Sampson
# value becomes +inf, so robust loops can discard the match without branching.
DEGENERATE_DENOMINATOR = 1e-18


def _largest_entry_sign_fix(M: FloatArray) -> FloatArray:
    """Flip each 3x3 matrix's sign so its largest-magnitude entry is positive."""
    flat = M.reshape(-1, 9)
    largest = flat[np.arange(len(flat)), np.argmax(np.abs(flat), axis=1)]
    return M * np.where(largest < 0, -1.0, 1.0).reshape(M.shape[:-2] + (1, 1))


@dataclass(frozen=True)
class FundamentalMatrix:
    """3x3 fundamental matrix wrapper; only normalized() fixes its scale and sign."""

    matrix: Mat3

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_mat3(self.matrix))

    def normalized(self) -> "FundamentalMatrix":
        """Unit Frobenius norm, largest-magnitude entry positive."""
        M = self.matrix / np.linalg.norm(self.matrix)
        return FundamentalMatrix(_largest_entry_sign_fix(M))


# --- vectorised constraint terms -------------------------------------------
#
# The batch helpers broadcast over trailing point axes; the scalar spec
# operations below call them with 0-d inputs. They are also what the robust
# estimator scores hypotheses with, so there is exactly one implementation of
# the constraint algebra. The epipolar terms also take a (B, 3, 3) stack of
# matrices and then give (B, N) terms for N points.

def epipolar_terms(x1, y1, x2, y2, F) -> tuple[FloatArray, ...]:
    """Z0..Z4: the epipolar residual and its four coordinate gradients."""
    f = getattr(F, "matrix", F)
    if np.ndim(f) == 3:  # each entry a (B, 1) column
        f11, f12, f13, f21, f22, f23, f31, f32, f33 = f.reshape(-1, 9, 1).swapaxes(0, 1)
    else:
        (f11, f12, f13), (f21, f22, f23), (f31, f32, f33) = as_mat3(f)
    z1 = f31 + f11 * x2 + f21 * y2
    z2 = f32 + f12 * x2 + f22 * y2
    z3 = f13 + f11 * x1 + f12 * y1
    z4 = f23 + f22 * y1 + f21 * x1
    z0 = x1 * z1 + y1 * z2 + f13 * x2 + f23 * y2 + f33
    return z0, z1, z2, z3, z4


def affine_terms(x1, y1, x2, y2, a11, a12, a21, a22, F):
    """(M0..M6, N0..N6): both affine constraint rows and their gradients."""
    f = as_mat3(F)
    (f11, f12, f13), (f21, f22, f23), (f31, f32, f33) = f
    m1 = f13 + f11 * x1 + f12 * y1
    m2 = a11 * f12 + a21 * f22
    m4 = f23 + f21 * x1 + f22 * y1
    m5 = a11 * f11 + a21 * f21
    m0 = x1 * m5 + y1 * m2 + a11 * f13 + a21 * f23 + f11 * x2 + f21 * y2 + f31
    m3 = np.broadcast_to(np.float64(f11), np.shape(m0))
    m6 = np.broadcast_to(np.float64(f21), np.shape(m0))
    n2 = a12 * f11 + a22 * f21
    n5 = a12 * f12 + a22 * f22
    n0 = x1 * n2 + y1 * n5 + a12 * f13 + a22 * f23 + f12 * x2 + f22 * y2 + f32
    n1 = m1
    n4 = m4
    n3 = np.broadcast_to(np.float64(f12), np.shape(n0))
    n6 = np.broadcast_to(np.float64(f22), np.shape(n0))
    return (m0, m1, m2, m3, m4, m5, m6), (n0, n1, n2, n3, n4, n5, n6)


def sampson_point_batch(x1, y1, x2, y2, F) -> FloatArray:
    """Vectorised point Sampson distance, per point or, for a (B, 3, 3) stack
    of F, per matrix and point; +inf where the gradient vanishes."""
    z0, z1, z2, z3, z4 = epipolar_terms(x1, y1, x2, y2, F)
    den = z1 * z1 + z2 * z2 + z3 * z3 + z4 * z4
    num = z0 * z0
    return np.where(den <= DEGENERATE_DENOMINATOR, np.inf, num / np.maximum(den, np.finfo(float).tiny))


def sampson_affine_batch(x1, y1, x2, y2, a11, a12, a21, a22, F):
    """Vectorised affine Sampson distances (both rows); +inf sentinels."""
    m, n = affine_terms(x1, y1, x2, y2, a11, a12, a21, a22, F)
    tiny = np.finfo(float).tiny

    def ratio(terms):
        num = terms[0] * terms[0]
        den = sum(t * t for t in terms[1:])
        return np.where(den <= DEGENERATE_DENOMINATOR, np.inf, num / np.maximum(den, tiny))

    return ratio(m), ratio(n)


# --- spec operations ---------------------------------------------------------

def epipolar_residual(p1, p2, F) -> float:
    """The epipolar scalar p2^T F p1 with both points homogenised."""
    x1, y1 = np.asarray(p1, dtype=float).reshape(2)
    x2, y2 = np.asarray(p2, dtype=float).reshape(2)
    z0, *_ = epipolar_terms(x1, y1, x2, y2, F)
    return float(z0)


def affine_constraint_residual(ac: AffineCorrespondence, F) -> tuple[float, float]:
    """Both affine constraint rows (M0, N0); zero for a noise-free AC."""
    (m, n) = affine_terms(*ac_array([ac])[0], F)
    return float(m[0]), float(n[0])


def sampson_point(p1, p2, F) -> float:
    """Point Sampson distance (squared pixels); +inf near both epipoles."""
    x1, y1 = np.asarray(p1, dtype=float).reshape(2)
    x2, y2 = np.asarray(p2, dtype=float).reshape(2)
    return float(sampson_point_batch(x1, y1, x2, y2, F))


def sampson_affine(ac: AffineCorrespondence, F) -> tuple[float, float]:
    """Affine Sampson distances of both constraint rows; +inf sentinels."""
    sa1, sa2 = sampson_affine_batch(*ac_array([ac])[0], F)
    return float(sa1), float(sa2)


def generic_sampson(
    residual_fn: Callable[[FloatArray], FloatArray],
    x,
    step: float = 1e-6,
) -> float:
    """First-order Sampson value eps^T (J J^T)^{-1} eps with a numeric Jacobian.

    residual_fn maps the measurement vector to a scalar or 1-d residual; J is
    built by central differences with the given step. This is the oracle the
    closed forms are validated against, so it never shares their algebra.
    """
    x = np.asarray(x, dtype=float).ravel()
    eps = np.atleast_1d(np.asarray(residual_fn(x), dtype=float)).ravel()
    m, n = eps.size, x.size
    J = np.empty((m, n))
    for i in range(n):
        hi = np.zeros(n)
        hi[i] = step
        fp = np.atleast_1d(np.asarray(residual_fn(x + hi), dtype=float)).ravel()
        fm = np.atleast_1d(np.asarray(residual_fn(x - hi), dtype=float)).ravel()
        J[:, i] = (fp - fm) / (2.0 * step)
    JJt = J @ J.T
    if np.linalg.cond(JJt) > 1e12:
        raise DegenerateConfiguration(f"cond(J J^T) = {np.linalg.cond(JJt):.3e} exceeds 1e12")
    return float(eps @ np.linalg.solve(JJt, eps))
