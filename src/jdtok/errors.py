"""Exception types shared across the package, and the integer check.

The CLI maps these onto distinct exit codes (see ``jdtok.cli``), so library
code should pick the subclass that matches the failure, not bare ValueError:
configuration problems, malformed containers, and semantically invalid data
are different failures to a caller scripting the tool.
"""

import operator


def as_integer(name: str, value, error: type[ValueError] = ValueError) -> int:
    """``value`` as a Python int: ints and numpy integers pass; 7.0 and 2.5 raise ``error``."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise error(f"{name} must be an integer, got {value}") from exc


class ConfigError(ValueError):
    """A configuration value or file is invalid."""


class FormatError(ValueError):
    """A binary container (feature or token file) is structurally malformed."""


class ValidationError(ValueError):
    """Structurally valid data violates a semantic constraint."""
