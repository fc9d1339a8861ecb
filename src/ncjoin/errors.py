"""Exception types shared across the package, and the JSON shape checks
of the file readers that raise them.

A class is kept only where an `except` names it. The command line maps
the hierarchy to its exit codes: every `InputFormatError`, a
`StructureError` included, exits 2, and every other `NcjoinError` exits 1.
"""


class NcjoinError(Exception):
    """Base class for all package errors: an internal invariant violation."""


class InputFormatError(NcjoinError):
    """Malformed input file or command-line element specification."""


class StructureError(InputFormatError):
    """Malformed block structure or matrix shape."""


def _expect(value, kind: type, what: str):
    """`value`, which must be a JSON object (dict) or array (list)."""
    if not isinstance(value, kind):
        raise InputFormatError(f"{what} must be a JSON {'object' if kind is dict else 'array'}, "
                               f"got {type(value).__name__}")
    return value


def _integer(value, what: str) -> int:
    """A JSON integer; a float, boolean or string is an error, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(f"{what} must be an integer, got {value!r}")
    return value
