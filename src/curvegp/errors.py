"""Exception hierarchy shared across the package, and the one count rule:
`whole_number` checks every count and integer config field."""

import numbers


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


def whole_number(name: str, value, minimum: int, error=ValidationError) -> int:
    """``int(value)`` for a whole number >= ``minimum``: an int, a numpy
    integer or a whole-number float such as 3.0. A fraction, NaN, inf, a
    string or None raises ``error`` (a ValidationError unless the caller's
    module reports another) naming ``name``."""
    if not ((isinstance(value, numbers.Integral)
             or isinstance(value, numbers.Real) and float(value).is_integer())
            and value >= minimum):
        raise error(f"{name} must be a whole number >= {minimum}, got {value!r}")
    return int(value)
