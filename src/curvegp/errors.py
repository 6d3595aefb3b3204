"""Exception hierarchy shared across the package."""


class CurveError(ValueError):
    """Invalid curve data (too few points, bad shape, ...)."""


class DegenerateCurveError(CurveError):
    """Curve has zero total length; arc-length operations are undefined."""


class ValidationError(ValueError):
    """Invalid input: a curve, design, fit file or configuration value."""


class ConfigError(ValidationError):
    """A config file's malformed line, unknown key (removed keys included)
    or unparsable value, reported with the file and line."""


class NumericalError(RuntimeError):
    """A linear-algebra or optimization step failed beyond recovery."""
