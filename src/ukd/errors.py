"""Exception types shared across the package, and the one rule for counts."""

import numbers


class UkdError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(UkdError, ValueError):
    """Operand shapes are incompatible."""


class ParameterError(UkdError, ValueError):
    """A hyperparameter or argument is outside its valid range."""


class SpecError(UkdError, ValueError):
    """A layer, dataset, or training specification is invalid."""


class DistributionError(UkdError, ValueError):
    """An array that must be a (log-)probability distribution is not one."""


class LabelError(UkdError, ValueError):
    """A class label lies outside [0, num_classes)."""


class DataError(UkdError, ValueError):
    """A dataset or split cannot be used (e.g. empty)."""


class ContractError(UkdError, RuntimeError):
    """An API precondition was violated (missing grads, non-scalar loss, ...)."""


class FormatError(UkdError, ValueError):
    """A binary file does not match its expected layout."""


class NumericError(UkdError, ArithmeticError):
    """A computation produced NaN or Inf."""


def _check_count(value, what: str, least: int) -> int:
    """value as an int, if it is an integer (numpy's included) >= least; else a SpecError.

    Every count, size and seed a spec holds is checked here, so a float or a
    string is refused where the spec is built, not deep inside numpy.
    """
    if not isinstance(value, numbers.Integral) or value < least:
        raise SpecError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)
