"""Exception types shared across the package, and the one rule each for counts and reals."""

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


def _check_count(value, what: str, least: int, error: type[UkdError] = SpecError) -> int:
    """value as an int, if it is an integer (numpy's included) >= least; else an error.

    Every count, size and seed a spec or batches holds is checked here, so a
    float or a string is refused where it is given, not deep inside numpy.
    """
    if not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def _check_real(value, what: str):
    """value, if it is a real number (numpy's included); else a SpecError naming what.

    Every real-valued field of a spec is checked here before its range, so a
    string or None is refused by name, not by a bare TypeError from a comparison.
    """
    if not isinstance(value, numbers.Real):
        raise SpecError(f"{what} must be a real number, got {value!r}")
    return value
