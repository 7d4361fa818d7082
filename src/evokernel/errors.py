"""Exception taxonomy shared across the package."""


class EvoKernelError(Exception):
    """Base class for all evokernel errors."""


class GraphConstructionError(EvoKernelError):
    """Invalid graph input: a negative node count, an edge that is not a pair, an
    out-of-range endpoint, a self-loop, a repeated edge, or a label list or mask
    of the wrong length."""


class DatasetError(EvoKernelError):
    """Benchmark ingestion failure: missing file or malformed record (message carries the line number)."""


class NumericalError(EvoKernelError):
    """Numerical routine failed or violated its tolerance (message carries the residual)."""


class ConfigError(EvoKernelError, ValueError):
    """Invalid run configuration or scalar option (time grid, fold count, method, c).

    Also a ``ValueError``, the type a bad argument value raises in Python.
    """


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
