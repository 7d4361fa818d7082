"""Exception taxonomy shared across the package, and the one rule for each kind of
argument: scalar integers and reals, named choices, objects of a given class, lists,
integer label or id arrays, real arrays and square matrices."""

import math
import numbers
import operator
from contextlib import suppress

import numpy as np


class EvoKernelError(Exception):
    """Base class for all evokernel errors."""


class GraphConstructionError(EvoKernelError):
    """Invalid graph input: a node count, endpoint or label that is not an integer
    or out of range, an edge that is not a pair, a self-loop, a repeated edge, a
    label list or mask of the wrong length, a non-empty mask not of bool dtype, or
    a mask that is no array, such as ragged rows."""


class DatasetError(EvoKernelError):
    """Benchmark ingestion failure: missing file or malformed record (message carries the
    line number), or a caller's ``GraphDataset`` that is not a list of graphs with one label each."""


class NumericalError(EvoKernelError):
    """Numerical routine failed or violated its tolerance (message carries the residual)."""


class ConfigError(EvoKernelError, ValueError):
    """Invalid run configuration or scalar option (time grid, fold count, method, c).
    Also a ``ValueError``, the type a bad argument value raises in Python."""


class ContractError(EvoKernelError, ValueError):
    """Inputs violate an inter-module contract, e.g. episodes on different time grids
    or a kernel row of the wrong length. Also a ``ValueError``."""


class TrainingError(EvoKernelError):
    """SVM training is infeasible, e.g. a single-class training set."""


class StageError(EvoKernelError):
    """Failure wrapped with the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


def integer(name: str, value, minimum: int = 0) -> int:
    """``value`` as an int; ``ConfigError`` unless it is an integer, not a bool, and >= ``minimum``."""
    try:
        number = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return number


def real(name: str, value, minimum: float = -math.inf, *, above: bool = False) -> float:
    """``value`` as a float; ``ConfigError`` unless a finite real, not a bool, >= (``above``: >) ``minimum``."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with suppress(OverflowError, TypeError):  # TypeError: np.timedelta64, a Real float() refuses
            number = float(value)
    if not (math.isfinite(number) and (number > minimum if above else number >= minimum)):
        bound = "" if minimum == -math.inf else f" {'>' if above else '>='} {minimum}"
        raise ConfigError(f"{name} must be a finite real number{bound}, got {value!r}")
    return number


def choice(name: str, value, allowed: tuple) -> None:
    """``ConfigError`` unless ``value`` is one of the strings in ``allowed``."""
    if not (isinstance(value, str) and value in allowed):
        raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")


def instance(name: str, value, kind: type, error: type | None = None) -> None:
    """``error`` unless ``value`` is a ``kind``; by default ``ConfigError`` for a config
    class (one named ``...Config``) and ``ContractError`` for any other."""
    if not isinstance(value, kind):
        if error is None:
            error = ConfigError if kind.__name__.endswith("Config") else ContractError
        raise error(f"{name} must be a {kind.__name__}, got a {type(value).__name__}")


def sequence(name: str, values, error: type = ContractError) -> list:
    """``values`` as a list; ``error`` unless they are iterable."""
    try:
        return list(values)
    except TypeError as exc:
        raise error(f"{name} must be a sequence, got a {type(values).__name__}") from exc


def integers(name: str, values) -> np.ndarray:
    """``values`` as int64; ``ContractError`` unless 1-d and empty or of an integer (not bool) dtype."""
    a = _array(name, values, ContractError)
    if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
        raise ContractError(f"{name} must be a 1-d array of integers, got {a.dtype} of shape {a.shape}")
    return a.astype(np.int64, copy=False)


def reals(name: str, values, error: type = ContractError) -> np.ndarray:
    """``values`` as floats; ``error`` unless numpy reads them as finite real numbers, not
    complex numbers or text. The dtype is read before any cast, which would drop an imaginary part."""
    values = _array(name, values, error)
    try:
        if values.dtype.kind in "cSU":
            raise TypeError(f"{'complex' if values.dtype.kind == 'c' else 'text'} entries")
        a = values.astype(float, copy=False)
        if not np.isfinite(a).all():
            raise ValueError("non-finite entries")
        return a
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int beyond float range
        raise error(f"{name} must hold finite real numbers: {exc}") from exc


def _array(name: str, values, error: type) -> np.ndarray:
    """``values`` as an array; ``error`` where numpy reads none from them, as from ragged rows.
    numpy < 1.24 raises for those only under a given dtype, so they are read as complex first."""
    try:
        if not isinstance(values, np.ndarray):
            np.asarray(values, dtype=complex)
        return np.asarray(values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name} must be an array of numbers: {exc}") from exc


def square(name: str, m, *, nonnegative: bool = False, symmetric: bool = False) -> np.ndarray:
    """``m`` as floats; ``ContractError`` unless finite reals and square (and, if asked, >= 0 or symmetric)."""
    m = reals(name, m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractError(f"{name} must be square, got shape {m.shape}")
    if nonnegative and (m < 0).any():
        raise ContractError(f"{name} has negative entries")
    if symmetric and not np.array_equal(m, m.T):
        raise ContractError(f"{name} is not exactly symmetric")
    return m
