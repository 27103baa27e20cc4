"""Exception types shared across the package."""


class QlociError(Exception):
    """Base class for all library errors."""


class InputError(QlociError):
    """Malformed user input (bad JSON, unknown labels, shape mismatches in files)."""


class FieldMismatchError(QlociError):
    """Arithmetic attempted between scalars or matrices over different fields."""


class ShapeError(QlociError):
    """Matrix dimensions incompatible with the requested operation."""


class SingularMatrixError(QlociError):
    """Inverse requested for a matrix that is not invertible."""


class NotARankArrayError(QlociError):
    """A candidate rank function produced a negative multiplicity."""


class NotInOpenLocusError(QlociError):
    """A lifted representation has a singular map over an inserted arrow."""


class GuardExceededError(QlociError):
    """An enumeration request exceeds the configured explosion guard."""


class InternalCheckError(QlociError):
    """A built-in cross-check failed; indicates a bug or an impossible input."""
