"""Exception hierarchy shared by all selfsim modules; check_positive."""

import math


class SelfsimError(Exception):
    """Base class for all library errors."""


class DomainError(SelfsimError):
    """Input outside the admissible domain of an operation."""


class RangeError(SelfsimError):
    """Requested value outside the attainable range of a function."""


class InternalError(SelfsimError):
    """Invariant violation that should be unreachable for admissible inputs."""


class ConfigError(SelfsimError):
    """Invalid configuration or parameter set."""


class FormatError(SelfsimError):
    """Malformed field file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DimensionMismatch(SelfsimError):
    """Field data does not match the declared grid dimensions."""


class SolverError(SelfsimError):
    """Generic solver failure; report is the failed solve's report when the
    raiser attaches one (picard_solve attaches its PicardReport)."""

    report = None


class NonSolenoidalInput(SolverError):
    """Vector field fails the divergence-free precondition."""


class IndefiniteSystem(SolverError):
    """Frozen-coefficient system lost nodewise ellipticity."""


class LinearStagnation(SolverError):
    """Linear solve did not reach the requested residual."""


class CapExceeded(SolverError):
    """Iterate exceeded the sup-norm safeguard."""


class NonConvergence(SolverError):
    """Outer iteration failed to converge; carries the best iterate."""

    def __init__(self, message, best=None, report=None):
        super().__init__(message)
        self.best = best
        self.report = report


class SonicEncroachment(SolverError):
    """Pseudo-Mach number approached 1 inside the computational rectangle."""


class UncoveredNodes(SolverError):
    """Backward characteristics failed to reach inflow data
    (transport_omega with strict=True)."""


def check_positive(**values) -> None:
    """Raise ConfigError unless each value is finite and > 0, each tested on
    its own (NaN fails every comparison: min(nan, x) depends on order)."""
    for name, v in values.items():
        if not (math.isfinite(v) and v > 0):
            raise ConfigError(f"{name} must be finite and positive, got {v!r}")
