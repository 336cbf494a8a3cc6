"""Exception types shared across the package.

Each numerical contract violation gets its own class so callers and tests
can distinguish a malformed input from a solver failure.
"""

from __future__ import annotations


class ChannelLimitsError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(ChannelLimitsError, ValueError):
    """Operands have incompatible shapes or dimensions."""


class NonHermitianError(ChannelLimitsError, ValueError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class NoConvergenceError(ChannelLimitsError, RuntimeError):
    """Iterative eigensolver failed to converge."""


class InvalidDensityMatrixError(ChannelLimitsError, ValueError):
    """Matrix violates a density-matrix invariant (trace, positivity)."""


class NotUnitVectorError(ChannelLimitsError, ValueError):
    """Vector is not normalized to unit Euclidean length."""


class ZeroVectorError(ChannelLimitsError, ValueError):
    """All-zero coefficient vector where a nonzero one is required."""


class EmptySubsetError(ChannelLimitsError, ValueError):
    """Subset argument must be non-empty."""


class OutOfRangeError(ChannelLimitsError, ValueError):
    """Scalar parameter outside its admissible interval."""


class BadWeightsError(ChannelLimitsError, ValueError):
    """Weight vector is not a strictly positive probability vector."""


class NotUnitaryError(ChannelLimitsError, ValueError):
    """Matrix expected to be unitary is not, beyond tolerance."""


class InvalidPOVMError(ChannelLimitsError, ValueError):
    """Operators fail to form a positive partition of the identity."""


class EmptySampleError(ChannelLimitsError, ValueError):
    """Statistic of an empty collection requested."""


class HypothesisViolatedError(ChannelLimitsError, ValueError):
    """Input fails a structural hypothesis the construction relies on."""


class SingularPError(ChannelLimitsError, ValueError):
    """Mixing parameter makes the probe operator singular."""


class ConfigError(ChannelLimitsError, ValueError):
    """Malformed experiment configuration."""


class EmptyResultsError(ChannelLimitsError, ValueError):
    """No records to emit."""
