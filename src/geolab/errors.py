"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 2, numerical failures
(domain escapes, non-convergence, tears) -> 3, cross-check / oracle
failures -> 4.
"""


class GeolabError(Exception):
    """Base class for all package errors."""


class ConfigError(GeolabError):
    """Invalid run configuration (bad field, unknown chart, parse error)."""


class ChartDomainError(GeolabError):
    """A point lies outside the chart's guarded domain."""


class DomainEscapeError(GeolabError):
    """A trajectory left the chart domain; carries the exit time."""

    def __init__(self, message: str, exit_time: float):
        super().__init__(message)
        self.exit_time = exit_time


class RefineNeededError(GeolabError):
    """A loop segment exceeds the chart convexity cap; the loop needs more nodes."""


class FamilyTearError(GeolabError):
    """A sweepout family tore apart beyond the insertion budget."""


class SamplingStarvationError(GeolabError):
    """Could not draw enough admissible samples within the oversampling budget."""


class NotAGeodesicError(GeolabError):
    """A loop handed to geodesic-only analysis does not close up as a geodesic."""


class CrossCheckError(GeolabError):
    """Two independent computations of the same quantity disagree (hard failure)."""
