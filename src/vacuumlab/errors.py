"""Exception hierarchy shared by all vacuumlab modules."""


class VacuumlabError(Exception):
    """Base class for all vacuumlab errors."""


class DomainError(VacuumlabError, ValueError):
    """Argument outside the mathematical domain of the function."""


class NonConvergence(VacuumlabError, RuntimeError):
    """A quadrature, series, or limit sweep failed its stability test."""


class IncompatibleClasses(VacuumlabError, ValueError):
    """Product of delta sequences drawn from different equivalence classes."""


class DegenerateMode(VacuumlabError, ValueError):
    """Scattering/inner-product evaluation hit a degenerate wavenumber channel."""


class NoSignChange(VacuumlabError, ValueError):
    """Bisection bracket has the same sign at both endpoints."""


class ConfigError(VacuumlabError, ValueError):
    """Invalid run configuration (unknown key, bad range, missing parameter)."""


class IoError(VacuumlabError, OSError):
    """Artifact file could not be written."""
