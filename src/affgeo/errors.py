"""Exception hierarchy for the affgeo package.

Every error the package raises derives from AffgeoError, so callers (the
CLI's exit-code table too) catch its failures with one except clause. There is
one class per way a caller handles an error: each class is named by the
exit-code table, by an except clause or by the robust loop's degenerate-draw
tuple. Numerical degeneracies that robust estimation should treat as data
(near-zero Sampson denominators) are encoded as +inf sentinels, not
exceptions; see the residuals module.
"""


class AffgeoError(Exception):
    """Base class for all affgeo errors."""


class InvalidArgument(AffgeoError, ValueError):
    """A parameter lies outside its documented range (threshold <= 0, seed < 0,
    a non-positive patch scale, an empty collection to aggregate, a camera
    spec with a non-positive depth range or a zero baseline)."""


class InvalidValue(AffgeoError, ValueError):
    """A value violates its type's invariant (zero 3x3 model, non-positive
    focal length, R not a rotation, non-finite entries, an affinity with
    det <= 0, a broken decomposition, an all-zero matrix for the cosine
    similarity, a file holding the wrong number of values)."""


class TooFewCorrespondences(AffgeoError):
    """Fewer correspondences or constraint rows than the solver needs."""


class DegenerateConfiguration(AffgeoError):
    """The data do not determine the result: a rank-deficient coefficient
    matrix, a singular normal matrix, or an unusable camera pair (no plane in
    front of both cameras, almost no covisible area)."""


class PointAtInfinity(AffgeoError):
    """Projective mapping sends the point to infinity (zero denominator)."""


class CheiralityAmbiguity(AffgeoError):
    """No essential-decomposition candidate wins a strict positive-depth majority."""


class NoModelFound(AffgeoError):
    """RANSAC exhausted its iterations without a model reaching minimal support."""


class FileFormatError(AffgeoError):
    """Input file violates its format; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
