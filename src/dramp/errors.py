"""Exception types shared across the package."""


class SamplerError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SamplerError, ValueError):
    """A vector or matrix has the wrong length or shape."""


class BadDimension(SamplerError, ValueError):
    """A target was requested with an unsupported dimension."""


class NotPositiveDefinite(SamplerError, ValueError):
    """A matrix required to be SPD failed its Cholesky factorization."""


class StageOutOfRange(SamplerError, ValueError):
    """A delayed-rejection stage index exceeds the configured stages."""


class NonFiniteTarget(SamplerError, ValueError):
    """The target reported a log-density of +inf at a proposed point."""


class NonFiniteStart(SamplerError, ValueError):
    """The starting point has non-finite log-density."""


class SeriesTooShort(SamplerError, ValueError):
    """A statistical estimate was requested on too few points."""


class EmptySample(SamplerError, ValueError):
    """An operation received an empty sample."""


class EmptyRange(SamplerError, ValueError):
    """A chain range selects no rows."""


class DegenerateTally(SamplerError, ValueError):
    """A contribution tally carries no usable rank information."""


class SpecMismatch(SamplerError, RuntimeError):
    """A restart was attempted with an incompatible simulation spec."""


class CorruptRestart(SamplerError, RuntimeError):
    """The restart snapshot failed its integrity check."""


class RefusedOverwrite(SamplerError, RuntimeError):
    """A completed run exists under the requested prefix."""


class IoFailure(SamplerError, OSError):
    """An output file could not be written or read back."""


class UnencodableValue(SamplerError, ValueError):
    """A chain value does not fit its field in the binary chain codec."""
