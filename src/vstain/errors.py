"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError and
ShapeError -> 3, NumericError -> 4.
"""

import numbers


class VstainError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(VstainError):
    """Dimension or channel mismatch between arrays."""


class ConfigError(VstainError):
    """Invalid configuration values or combinations."""


class DataError(VstainError):
    """Malformed files, missing paths, inconsistent manifests."""


class NumericError(VstainError):
    """Non-finite values or degenerate numeric input."""


def require_types(section: str, obj, ints=(), reals=(), int_lists=()) -> None:
    """Raise ConfigError naming the first field of `obj` that is not of its
    kind: an integer, a real number, or a list/tuple of integers. Booleans
    count as none of these, so a JSON `true` is never taken for a count."""
    def is_int(v):
        return isinstance(v, numbers.Integral) and not isinstance(v, bool)

    kinds = (
        (ints, "an integer", is_int),
        (reals, "a number",
         lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
        (int_lists, "a list of integers",
         lambda v: isinstance(v, (list, tuple)) and all(map(is_int, v))),
    )
    for names, kind, ok in kinds:
        for name in names:
            value = getattr(obj, name)
            if not ok(value):
                raise ConfigError(f"{section}: {name} must be {kind}, got {value!r}")
