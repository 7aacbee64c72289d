"""Exception types raised across the package.

Every error below derives from :class:`SpecAngleError`, which itself derives
from ``ValueError`` so that generic callers can catch invalid-input failures
without importing this module.
"""


class SpecAngleError(ValueError):
    """Base class for all errors raised by this package.

    A batched routine that fails for one item of its batch (a pixel of a
    chunk, a matrix of a stack) sets ``index`` to that item's position.
    """

    index = None


class NonFiniteError(SpecAngleError):
    """An operand contains NaN or Inf."""


class NotSquareError(SpecAngleError):
    """A square matrix was required."""


class SingularBError(SpecAngleError):
    """The (regularized) right-hand matrix of a pencil failed factorization."""


class DimensionMismatchError(SpecAngleError):
    """Operand shapes are incompatible."""


class NonPositiveSigmaError(SpecAngleError):
    """Heat-kernel bandwidth must be finite and strictly positive."""


class TooFewSamplesError(SpecAngleError):
    """An operation needs more samples than were supplied."""


class ReducedDimTooLargeError(SpecAngleError):
    """Requested subspace dimension exceeds the input dimension."""


class ReducedDimTooSmallError(SpecAngleError):
    """Requested operation needs a higher-dimensional projection."""


class EvenWindowError(SpecAngleError):
    """Spatial windows must have odd side length."""


class OutOfBoundsError(SpecAngleError):
    """A pixel coordinate lies outside the image."""


class SingleClassError(SpecAngleError):
    """Supervised fitting needs at least two classes."""


class EmptyClassError(SpecAngleError):
    """A declared class has no samples."""


class ZeroVectorError(SpecAngleError):
    """Cosine comparisons are undefined for zero vectors."""


class MalformedHeaderError(SpecAngleError):
    """A file header could not be parsed."""


class SizeMismatchError(SpecAngleError):
    """File payload size disagrees with its header."""


class UnsupportedDataTypeError(SpecAngleError):
    """File uses a data type outside the supported set."""


class InsufficientSamplesError(SpecAngleError):
    """A class has too few labeled pixels for the requested split."""


class BadSpecError(SpecAngleError):
    """Synthetic scene parameters are inconsistent."""


class BadRasterError(SpecAngleError):
    """A cube or ground-truth raster has an invalid shape, invalid class ids or
    a value its data type cannot hold."""


class InvalidConfigError(SpecAngleError):
    """An experiment configuration value is unknown or out of range."""
