"""Exception taxonomy shared across the package, and the one rule for each kind of
argument: scalar integers and reals, integer label or id arrays, square matrices."""

import math
import numbers
import operator
from contextlib import suppress

import numpy as np


class EvoKernelError(Exception):
    """Base class for all evokernel errors."""


class GraphConstructionError(EvoKernelError):
    """Invalid graph input: a node count, endpoint or label that is not an integer
    or out of range, an edge that is not a pair, a self-loop, a repeated edge, or
    a label list or mask of the wrong length."""


class DatasetError(EvoKernelError):
    """Benchmark ingestion failure: missing file or malformed record (message carries the line number)."""


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
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return number


def real(name: str, value, minimum: float = -math.inf, *, above: bool = False) -> float:
    """``value`` as a float; ``ConfigError`` unless a finite real, not a bool, >= (``above``: >) ``minimum``."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with suppress(OverflowError):
            number = float(value)
    if not (math.isfinite(number) and (number > minimum if above else number >= minimum)):
        bound = "" if minimum == -math.inf else f" {'>' if above else '>='} {minimum}"
        raise ConfigError(f"{name} must be a finite real number{bound}, got {value!r}")
    return number


def integers(name: str, values) -> np.ndarray:
    """``values`` as int64; ``ContractError`` unless 1-d and empty or of an integer (not bool) dtype."""
    a = np.asarray(values)
    if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
        raise ContractError(f"{name} must be a 1-d array of integers, got {a.dtype} of shape {a.shape}")
    return a.astype(np.int64, copy=False)


def square(name: str, m, *, nonnegative: bool = False, symmetric: bool = False) -> np.ndarray:
    """``m`` as floats; ``ContractError`` unless finite and square (and, if asked, >= 0 or symmetric)."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all() or (nonnegative and (m < 0).any()):
        raise ContractError(f"{name} has non-finite{' or negative' if nonnegative else ''} entries")
    if symmetric and not np.array_equal(m, m.T):
        raise ContractError(f"{name} is not exactly symmetric")
    return m
