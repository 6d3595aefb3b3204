"""Exception hierarchy shared across the package, and its two input rules:
`require`, the range rule, raises every message of the form "<name> must
be <rule>, got <value>", and `whole_number`, the count rule, checks every
count and integer config field through it."""

import numbers


class ValidationError(ValueError):
    """Invalid input: a curve, design, fit file or configuration value."""


class DegenerateCurveError(ValidationError):
    """Curve has zero total length; arc-length operations are undefined."""


class ConfigError(ValidationError):
    """A config file's malformed line, unknown key (removed keys included)
    or unparsable value, reported with the file and line."""


class NumericalError(RuntimeError):
    """A linear-algebra or optimization step failed beyond recovery."""


def require(ok: bool, name: str, rule: str, value) -> None:
    """The range rule: unless ``ok``, a ValidationError saying that ``name``
    must be ``rule`` and giving the repr of ``value``."""
    if not ok:
        raise ValidationError(f"{name} must be {rule}, got {value!r}")


def whole_number(name: str, value, minimum: int) -> int:
    """``int(value)`` for a whole number >= ``minimum``: an int, a numpy
    integer or a whole-number float such as 3.0. A fraction, NaN, inf, a
    string or None is a ValidationError naming ``name``."""
    require((isinstance(value, numbers.Integral)
             or isinstance(value, numbers.Real) and float(value).is_integer())
            and value >= minimum, name, f"a whole number >= {minimum}", value)
    return int(value)
