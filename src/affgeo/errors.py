"""Exception hierarchy for the affgeo package.

Every error the package raises derives from AffgeoError, so callers (the
CLI's exit-code table too) catch its failures with one except clause. Numerical
degeneracies that robust estimation should treat as data (near-zero Sampson denominators) are
encoded as +inf sentinels, not exceptions; see the residuals module.
"""


class AffgeoError(Exception):
    """Base class for all affgeo errors."""


class InvalidArgument(AffgeoError, ValueError):
    """A parameter lies outside its documented range (threshold <= 0, seed < 0)."""


class InvalidValue(AffgeoError, ValueError):
    """A value violates its type's invariant (zero 3x3 model, non-positive
    focal length, R not a rotation, non-finite entries)."""


# --- affine decomposition / synthesis ---

class NonPositiveDeterminant(AffgeoError):
    """Affine matrix has det <= 0; orientation-reversing or degenerate."""


class InvalidDecomposition(AffgeoError):
    """Decomposition violates its invariants (det(I + A'') far from 1, bad scale)."""


class NonPositiveScale(AffgeoError):
    """Patch scale must be strictly positive."""


# --- residuals ---

class SingularNormalMatrix(AffgeoError):
    """J J^T in the generic Sampson evaluation is numerically singular."""


# --- linear solvers ---

class TooFewCorrespondences(AffgeoError):
    """Fewer correspondences than the solver's minimal sample."""


class TooFewConstraints(AffgeoError):
    """Stacked linear system has fewer constraint rows than unknowns."""


class DegenerateConfiguration(AffgeoError):
    """Coefficient matrix is rank-deficient; the model is not determined."""


class PointAtInfinity(AffgeoError):
    """Projective mapping sends the point to infinity (zero denominator)."""


class CheiralityAmbiguity(AffgeoError):
    """No essential-decomposition candidate wins a strict positive-depth majority."""


# --- robust estimation ---

class NoModelFound(AffgeoError):
    """RANSAC exhausted its iterations without a model reaching minimal support."""


# --- synthetic scenes ---

class DegenerateCamera(AffgeoError):
    """Requested camera geometry is unusable (zero baseline, planes behind camera)."""


# --- metrics ---

class EmptyInput(AffgeoError):
    """Aggregate metric called on an empty collection."""


class ZeroVector(AffgeoError):
    """Cosine similarity undefined for an (almost) all-zero matrix."""


# --- file I/O ---

class FileFormatError(AffgeoError):
    """Input file violates its format; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DimensionMismatch(AffgeoError):
    """Parsed data has the wrong shape for the requested operation."""
