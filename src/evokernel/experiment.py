"""End-to-end experiment harness: episodes, kernel, stratified CV, reports.

A run generates one episode per graph on a shared time grid, builds the full
distance and kernel matrices once, then trains and evaluates a fold-restricted
SVM per cross-validation fold. A time-length sweep generates, embeds and
aligns the episodes of its longest length once, reads every length's
distances from those alignment tables, and builds the kernel and
cross-validates per length.
One seed drives both augmentation and fold shuffling through independent
substreams.
"""

from __future__ import annotations

import json
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .augment import BoltzmannConfig, _episode_masks
from .embedding import MetricConfig, _wl_counts
from .errors import ConfigError, EvoKernelError, StageError, choice, integer, integers, real
from .heat import HEAT_METHODS, METHOD_EXACT
from .kernel import PSD_REPAIRS, _prefix_distance_matrices, evolution_kernel
from .svm import svm_predict, svm_train
from .tu_io import GraphDataset, load_tu_dataset

# Substream tag separating fold shuffling from per-snapshot augmentation
# streams (which use 2-element spawn keys).
_FOLD_STREAM = 0xF01D

# Longest supported time grid. The alignment is quadratic in the step count:
# at this many steps one pair of one-node episodes already needs 800 MB for
# its snapshot distances and as much for its alignment table, and a far
# longer grid would exhaust memory while the grid itself is being built.
MAX_TIME_STEPS = 10_000


@dataclass
class ExperimentConfig:
    dataset_dir: str = ""
    dataset_name: str = ""
    time_length: float = 1.0
    time_interval: float = 0.1
    a: float = -2.0
    b: float = -2.0
    u0: float = 1.0
    wl_iterations: int = 3
    embedding_dim: int = 1024
    gamma_scale: float = 1.0
    psd_repair: str = "clip"
    c: float = 10.0
    folds: int = 10
    seed: int = 0
    cumulative: bool = False
    heat_method: str = METHOD_EXACT

    def validate(self) -> None:
        for name in ("dataset_dir", "dataset_name", "cumulative"):
            kind, what = ((bool, np.bool_), "a boolean") if name == "cumulative" else (str, "a string")
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name.replace('_', ' ')} must be {what}, got {getattr(self, name)!r}")
        length = real("time length", self.time_length, 0)
        steps = length / real("time interval", self.time_interval, 0, above=True)
        if not steps <= MAX_TIME_STEPS:
            raise ConfigError(
                f"time length over time interval gives {steps:.3g} steps; "
                f"at most {MAX_TIME_STEPS} are supported"
            )
        real("a", self.a)
        real("b", self.b)
        real("initial heat", self.u0, 0, above=True)
        real("gamma scale", self.gamma_scale, 0, above=True)
        real("regularization c", self.c, 0, above=True)
        integer("folds", self.folds, 2)
        integer("seed", self.seed)
        choice("psd repair", self.psd_repair, PSD_REPAIRS)
        choice("heat method", self.heat_method, HEAT_METHODS)
        self.metric_config().validate()

    def time_grid(self) -> np.ndarray:
        """Grid {0, dt, 2*dt, ...} up to time_length; always contains 0."""
        steps = int(np.floor(self.time_length / self.time_interval + 1e-9))
        return np.array([k * self.time_interval for k in range(steps + 1)])

    def metric_config(self) -> MetricConfig:
        return MetricConfig(wl_iterations=self.wl_iterations, dim=self.embedding_dim)

    def boltzmann_config(self) -> BoltzmannConfig:
        return BoltzmannConfig(a=self.a, b=self.b)

    def to_dict(self) -> dict:
        # numpy scalars pass validate(); echo them as numbers json can write.
        return {k: v.item() if isinstance(v, np.generic) else v for k, v in asdict(self).items()}


@dataclass
class CvReport:
    """Cross-validation outcome plus the resolved configuration echo.

    The standard deviation is the population std over the fold accuracies.
    ``confusion[i][j]`` counts test graphs of the i-th smallest label that
    were predicted as the j-th smallest, so any integer labels index it.
    ``canonical_json`` drops the (nondeterministic) timings block, so it is
    byte-identical across reruns of the same config and seed. In a sweep the
    ``load``, ``episodes`` and ``distances`` timings are measured once, for
    all lengths together, and echoed on every report.
    """

    fold_accuracies: list[float]
    mean_accuracy: float
    std_accuracy: float
    confusion: list[list[int]]
    timings: dict[str, float] = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "fold_accuracies": self.fold_accuracies,
            "mean_accuracy": self.mean_accuracy,
            "std_accuracy": self.std_accuracy,
            "std_definition": "population std over fold accuracies",
            "confusion": self.confusion,
            "config": self.config,
            "timings": self.timings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def canonical_json(self) -> str:
        return json.dumps({k: v for k, v in self.to_dict().items() if k != "timings"}, sort_keys=True, indent=2)


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except (EvoKernelError, ValueError, OSError) as exc:  # ValueError: numpy's LinAlgError
        raise StageError(name, exc) from exc


def stratified_folds(labels, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic stratified k-fold split.

    Each class is shuffled under a seed substream and dealt round-robin, with
    the starting fold rotating between classes so remainders spread evenly.
    Per-class counts across folds differ by at most one.
    """
    folds, seed = integer("folds", folds, 2), integer("seed", seed)
    labels = integers("labels", labels)
    n = len(labels)
    classes, counts = np.unique(labels, return_counts=True)
    for cls, count in zip(classes, counts):
        if count < folds:
            raise ConfigError(
                f"class {cls} has only {count} members; reduce folds to at most {count}"
            )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_FOLD_STREAM,)))
    fold_of = np.empty(n, dtype=np.int64)
    offset = 0
    for cls, count in zip(classes, counts):
        members = np.flatnonzero(labels == cls)
        fold_of[members[rng.permutation(count)]] = (offset + np.arange(count)) % folds
        offset = (offset + count) % folds
    everything = np.arange(n)
    return [(everything[fold_of != f], everything[fold_of == f]) for f in range(folds)]


def run_experiment(cfg: ExperimentConfig, dataset: GraphDataset | None = None) -> CvReport:
    """Full pipeline for one configuration; ``dataset`` overrides disk loading."""
    return _run_lengths([cfg], dataset)[0]


def sweep_time_length(
    cfg: ExperimentConfig, lengths, dataset: GraphDataset | None = None
) -> list[CvReport]:
    """One report per time length, equal to a separate run at each; lengths are ascending numbers.

    Episodes, snapshot embeddings and alignment tables are built once, at
    the longest length; kernel and cross-validation run per length.
    """
    with _stage("config"):
        try:
            lengths = [real("sweep length", t) for t in lengths]
        except TypeError as exc:  # not iterable
            raise ConfigError(f"sweep lengths must be a sequence of numbers: {exc}") from exc
        if not lengths:
            raise ConfigError("sweep needs at least one time length")
    return _run_lengths([replace(cfg, time_length=t) for t in lengths], dataset)


def _run_lengths(configs: list[ExperimentConfig], dataset: GraphDataset | None) -> list[CvReport]:
    """Reports of configurations that differ only in their ascending time lengths.

    Every grid is k * dt, and each snapshot draws from its own substream keyed
    by (seed, graph, k), so each shorter grid and its episodes are prefixes of
    the longest: episodes are generated once, on the longest grid. The load,
    episodes and distances timings are measured once and echoed on every
    report.
    """
    timings: dict[str, float] = {}

    with _stage("config"):
        if any(b.time_length <= a.time_length for a, b in zip(configs, configs[1:])):
            raise ConfigError("sweep lengths must be strictly ascending")
        grids = []
        for c in configs:
            c.validate()
            grids.append(c.time_grid())
    cfg, times = configs[-1], grids[-1]

    tic = time.perf_counter()
    with _stage("load"):
        if dataset is None:
            dataset = load_tu_dataset(cfg.dataset_dir, cfg.dataset_name)
    timings["load"] = time.perf_counter() - tic

    tic = time.perf_counter()
    with _stage("episodes"):
        a, u0, seed = float(cfg.a), float(cfg.u0), int(cfg.seed)
        masks = [
            _episode_masks(g, times, a, u0, seed, i, cfg.heat_method, cfg.cumulative)
            for i, g in enumerate(dataset.graphs)
        ]
    timings["episodes"] = time.perf_counter() - tic

    tic = time.perf_counter()
    with _stage("distances"):
        counts, sq = _wl_counts(dataset.graphs, cfg.metric_config(), masks)
        distances = _prefix_distance_matrices(counts, sq, len(times), {len(grid) for grid in grids})
    timings["distances"] = time.perf_counter() - tic

    return [
        _cross_validate(c, grid, distances[len(grid)], dataset, dict(timings))
        for c, grid in zip(configs, grids)
    ]


def _cross_validate(
    cfg: ExperimentConfig,
    times: np.ndarray,
    d: np.ndarray,
    dataset: GraphDataset,
    timings: dict[str, float],
) -> CvReport:
    """Kernel and stratified CV on one distance matrix; adds their timings.

    Issues one RuntimeWarning naming every fold and class whose SMO machine
    stopped at its update cap before convergence.
    """
    tic = time.perf_counter()
    with _stage("kernel"):
        ek = evolution_kernel(d, cfg.gamma_scale, cfg.psd_repair)
    timings["kernel"] = time.perf_counter() - tic

    tic = time.perf_counter()
    with _stage("cv"):
        labels = dataset.labels
        classes = np.unique(labels)
        confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
        fold_accuracies = []
        capped = []
        for fold, (train, test) in enumerate(stratified_folds(labels, cfg.folds, cfg.seed)):
            model = svm_train(ek, labels, train, cfg.c)
            capped += [
                f"fold {fold} class {m.positive_class} ({m.updates} updates)"
                for m in model.machines
                if m.cap_hit
            ]
            predicted = svm_predict(model, ek.k[np.ix_(test, train)])
            truth = labels[test]
            cells = np.searchsorted(classes, truth), np.searchsorted(classes, predicted)
            np.add.at(confusion, cells, 1)
            fold_accuracies.append(np.count_nonzero(predicted == truth) / len(test))
    timings["cv"] = time.perf_counter() - tic
    if capped:
        warnings.warn(
            f"time length {cfg.time_length}: SMO stopped at its update cap before "
            f"convergence in {', '.join(capped)}",
            RuntimeWarning,
        )

    config_echo = cfg.to_dict()
    config_echo.update(
        {
            "times": [float(t) for t in times],
            "sigma": ek.sigma,
            "dataset_graphs": len(dataset.graphs),
            "dataset_classes": int(dataset.class_count),
        }
    )
    return CvReport(
        fold_accuracies=[float(a) for a in fold_accuracies],
        mean_accuracy=float(np.mean(fold_accuracies)),
        std_accuracy=float(np.std(fold_accuracies)),
        confusion=confusion.tolist(),
        timings=timings,
        config=config_echo,
    )


def write_sweep_csv(reports: list[CvReport], path) -> None:
    """CSV of (time_length, mean, std), one row per report; fully deterministic."""
    lines = ["time_length,mean_accuracy,std_accuracy"]
    for report in reports:
        lines.append(
            f"{report.config['time_length']!r},{report.mean_accuracy!r},{report.std_accuracy!r}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
