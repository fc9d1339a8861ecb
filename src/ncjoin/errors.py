"""Exception types shared across the package, and the JSON shape checks
of the file readers that raise them."""


class NcjoinError(Exception):
    """Base class for all package errors."""


class StructureError(NcjoinError):
    """Malformed block structure or matrix shape."""


class DimensionMismatchError(NcjoinError):
    """Operands built over incompatible block structures."""


class InvalidSystemError(NcjoinError):
    """A dynamical system failed validation; carries the report."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class UnsupportedGroupError(NcjoinError):
    """Operation requires a group kind the input does not have."""


class NotInSpectrumError(NcjoinError):
    """Requested eigenvalue is not in the point spectrum."""


class AmbiguousEigenvalueError(NcjoinError):
    """Requested eigenvalue has multiplicity larger than one."""


class NonScalarError(NcjoinError):
    """u*u is not a scalar; the system cannot be ergodic."""


class NonUnitaryError(NcjoinError):
    """Element expected to be unitary is not, within tolerance."""


class NonProjectionError(NcjoinError):
    """Element expected to be a projection is not, within tolerance."""


class NonJoiningError(NcjoinError):
    """Matrix does not satisfy the joining constraints within tolerance."""


class InputFormatError(NcjoinError):
    """Malformed input file or command-line element specification."""


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
