"""Exception and warning types shared across the package."""


class ProjdimError(Exception):
    """Base class for all errors raised by this package."""


class SingularInput(ProjdimError):
    """A matrix with exact determinant zero was passed where invertibility is required."""


class DomainError(ProjdimError):
    """A numeric argument lies outside the documented domain."""


class DegenerateGap(ProjdimError):
    """The two smallest singular values coincide beyond the resolvable tolerance."""


class DegenerateSpectrum(ProjdimError):
    """Lyapunov exponents do not have the strict ordering the formula requires."""


class BudgetExceeded(ProjdimError):
    """An enumeration would exceed the configured node cap."""


class WorkerDied(ProjdimError):
    """A worker process of a pool ended before it returned its result."""


class NotContracting(ProjdimError):
    """The system does not exhibit the uniform contraction the operation needs."""


class NotPositive(ProjdimError):
    """The (conjugated) alphabet is not entrywise positive where positivity is required."""


class NotTraceless(ProjdimError):
    """A generator is a nonzero scalar matrix and carries no traceless content."""


class FloatRange(ProjdimError):
    """A result is too large or too small to be represented as a float."""


class BadDirection(ProjdimError):
    """A direction vector is zero, non-unit or has negative coordinates."""


class BadVector(ProjdimError):
    """A probability vector fails positivity or normalization."""


class TooFewScales(ProjdimError):
    """Not enough usable resolutions remain for a box-counting fit."""


class PrecisionLoss(UserWarning):
    """Singular values were computed for a matrix conditioned beyond 1e12."""
