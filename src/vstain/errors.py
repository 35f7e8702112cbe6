"""Exception hierarchy shared across the package.

Each class carries the exit code the CLI returns for it as
`exit_code`: ConfigError 2, NumericError 4, and 3 for VstainError and
the classes that inherit it unchanged (DataError, ShapeError).
"""

import numbers


class VstainError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 3


class ShapeError(VstainError):
    """Dimension or channel mismatch between arrays."""


class ConfigError(VstainError):
    """Invalid configuration values or combinations."""
    exit_code = 2


class DataError(VstainError):
    """Malformed files, missing paths, inconsistent manifests."""


class NumericError(VstainError):
    """Non-finite values or degenerate numeric input."""
    exit_code = 4


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


def from_fields(cls, section: str, key: str, d):
    """cls(**d) for a JSON object `d` whose fields are all fields of the
    dataclass `cls`; otherwise a ConfigError naming `section` and, when
    `d` is not an object, the config file's `key` for it."""
    if not isinstance(d, dict):
        raise ConfigError(f"{section}: '{key}' must be a JSON object")
    extra = set(d) - set(cls.__dataclass_fields__)
    if extra:
        raise ConfigError(f"{section}: unknown fields {sorted(extra)}")
    return cls(**d)
