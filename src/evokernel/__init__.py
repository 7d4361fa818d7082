"""Graph classification from heat-diffusion episodes and a time-warped episode kernel."""

from .augment import (
    BoltzmannConfig,
    HeatDistribution,
    TemporalEpisode,
    drop_node,
    generate_episode,
    heat_distribution,
)
from .embedding import MetricConfig, WlEmbedding, delta, wl_embed
from .errors import (
    ConfigError,
    ContractError,
    DatasetError,
    EvoKernelError,
    GraphConstructionError,
    NumericalError,
    StageError,
    TrainingError,
)
from .experiment import (
    CvReport,
    ExperimentConfig,
    run_experiment,
    stratified_folds,
    sweep_time_length,
    write_sweep_csv,
)
from .gdtw import (
    WarpingResult,
    build_warping_matrix,
    gdtw_distance,
)
from .graphs import (
    Graph,
    normalized_laplacian,
    subgraph,
)
from .heat import (
    HeatKernel,
    HeatState,
    SpectralDecomposition,
    compute_heat_kernel,
    perturbation_gap,
    propagate_heat,
    spectral_decompose,
)
from .kernel import (
    EvolutionKernelMatrix,
    clip_psd,
    distance_matrix,
    evolution_kernel,
)
from .svm import SvmModel, svm_predict, svm_train
from .tu_io import GraphDataset, load_tu_dataset

__version__ = "0.1.0"

__all__ = [
    "BoltzmannConfig",
    "ConfigError",
    "ContractError",
    "CvReport",
    "DatasetError",
    "EvoKernelError",
    "EvolutionKernelMatrix",
    "ExperimentConfig",
    "Graph",
    "GraphConstructionError",
    "GraphDataset",
    "HeatDistribution",
    "HeatKernel",
    "HeatState",
    "MetricConfig",
    "NumericalError",
    "SpectralDecomposition",
    "StageError",
    "SvmModel",
    "TemporalEpisode",
    "TrainingError",
    "WarpingResult",
    "WlEmbedding",
    "build_warping_matrix",
    "clip_psd",
    "compute_heat_kernel",
    "delta",
    "distance_matrix",
    "drop_node",
    "evolution_kernel",
    "gdtw_distance",
    "generate_episode",
    "heat_distribution",
    "load_tu_dataset",
    "normalized_laplacian",
    "perturbation_gap",
    "propagate_heat",
    "run_experiment",
    "spectral_decompose",
    "stratified_folds",
    "subgraph",
    "svm_predict",
    "svm_train",
    "sweep_time_length",
    "wl_embed",
    "write_sweep_csv",
]
