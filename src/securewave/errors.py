"""Exception hierarchy shared by all securewave modules."""


class SecureWaveError(Exception):
    """Base class for all errors raised by this package.  ``diagnostics``
    holds residuals, iteration counts, bounds and similar data at the
    failure point, or is empty."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ValidationError(SecureWaveError, ValueError):
    """Malformed or out-of-contract input (bad shapes, values, config keys)."""


class DimensionError(ValidationError):
    """Matrix or vector dimensions incompatible with the requested operation."""


class DefinitenessError(SecureWaveError):
    """A matrix required to be positive definite is singular or indefinite."""


class NoTransmitError(SecureWaveError):
    """The design problem is infeasible; the transmitter must stay silent."""


class NumericalError(SecureWaveError):
    """An iterative routine failed to converge."""


class SdpInfeasibleError(SecureWaveError):
    """The semidefinite program has no feasible point: the least energy that
    meets every constraint is at least ``energy_bound`` > ``trace_cap``."""
