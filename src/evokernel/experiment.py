"""End-to-end experiment harness: episodes, kernel, stratified CV, reports.

A run generates one episode per graph on a shared time grid, builds the full
distance and kernel matrices once, then trains and evaluates a fold-restricted
SVM per cross-validation fold. A time-length sweep generates, embeds and
aligns the episodes of its longest length once, reads every length's
distances from those alignment tables and builds one kernel per length.
Every SVM machine of every length, fold and class trains in one lockstep
solve; each length then predicts its folds and makes its report.
One seed drives both augmentation and fold shuffling through independent
substreams.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .augment import BoltzmannConfig, _episode_masks, _snapshot_draws
from .embedding import MetricConfig, _wl_counts
from .errors import (
    ConfigError, DatasetError, EvoKernelError, StageError, choice, instance, integer, integers, real, sequence,
)
from .graphs import Graph
from .heat import HEAT_METHODS, METHOD_EXACT
from .kernel import PSD_REPAIRS, _prefix_distance_matrices, evolution_kernel
from .svm import SvmModel, _train_folds, svm_predict
from .tu_io import GraphDataset, load_tu_dataset

# Substream tag separating fold shuffling from per-snapshot augmentation
# streams (which use 2-element spawn keys).
_FOLD_STREAM = 0xF01D

# Longest supported time grid. The alignment is quadratic in the step count:
# at this many steps one pair of one-node episodes holds its cost table, its
# snapshot-distance chunk and its scale buffer, each a float64 matrix of
# 10,000^2 entries (800 MB), and a far longer grid would exhaust memory while
# the grid itself is being built.
MAX_TIME_STEPS = 10_000


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_dir: str = ""
    dataset_name: str = ""
    time_length: float = 1.0
    time_interval: float = 0.1
    a: float = -2.0
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

    def validate(self) -> ExperimentConfig:
        """This config in plain Python values; ``ConfigError`` at the first field that breaks its rule."""
        for name in ("dataset_dir", "dataset_name", "cumulative"):
            kind, what = ((bool, np.bool_), "a boolean") if name == "cumulative" else (str, "a string")
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name.replace('_', ' ')} must be {what}, got {getattr(self, name)!r}")
        length = real("time length", self.time_length, 0)
        interval = real("time interval", self.time_interval, 0, above=True)
        if not length / interval <= MAX_TIME_STEPS:
            raise ConfigError(
                f"time length over time interval gives {length / interval:.3g} steps; "
                f"at most {MAX_TIME_STEPS} are supported"
            )
        a, u0 = real("a", self.a), real("initial heat", self.u0, 0, above=True)
        gamma_scale = real("gamma scale", self.gamma_scale, 0, above=True)
        c = real("regularization c", self.c, 0, above=True)
        folds, seed = integer("folds", self.folds, 2), integer("seed", self.seed)
        choice("psd repair", self.psd_repair, PSD_REPAIRS)
        choice("heat method", self.heat_method, HEAT_METHODS)
        metric = self.metric_config().validate()
        return replace(
            self, time_length=length, time_interval=interval, a=a, u0=u0, gamma_scale=gamma_scale, c=c, folds=folds,
            seed=seed, cumulative=bool(self.cumulative), wl_iterations=metric.wl_iterations, embedding_dim=metric.dim,
        )

    def time_grid(self) -> np.ndarray:
        """Grid {0, dt, 2*dt, ...} up to time_length, of the ``validate()``d fields; always contains 0."""
        cfg = self.validate()
        steps = int(np.floor(cfg.time_length / cfg.time_interval + 1e-9))
        return np.array([k * cfg.time_interval for k in range(steps + 1)])

    def metric_config(self) -> MetricConfig:
        return MetricConfig(wl_iterations=self.wl_iterations, dim=self.embedding_dim)

    def boltzmann_config(self) -> BoltzmannConfig:
        return BoltzmannConfig(a=self.a)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CvReport:
    """Cross-validation outcome plus the resolved configuration echo.

    The standard deviation is the population std over the fold accuracies.
    ``confusion[i][j]`` counts test graphs of the i-th smallest label that
    were predicted as the j-th smallest, so any integer labels index it.
    ``timings`` holds the seconds of the ``load``, ``episodes``, ``distances``,
    ``kernel`` and ``cv`` stages in that order, each measured by the stage
    context that tags the stage's errors. ``canonical_json`` drops this
    (nondeterministic) block and the echo's ``dataset_dir``, so it is
    byte-identical across reruns of the same config and seed on the same
    data, read from any path: the echo's ``dataset_sha256`` names the data.
    In a sweep every stage but ``kernel`` runs once,
    for all lengths together, and its time is echoed on every report; ``cv``
    is the one SVM solve plus every length's predictions.
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
        report = {k: v for k, v in self.to_dict().items() if k != "timings"}
        report["config"] = {k: v for k, v in self.config.items() if k != "dataset_dir"}
        return json.dumps(report, sort_keys=True, indent=2)


@contextmanager
def _stage(name: str, timings: dict[str, float] | None = None):
    """Run one stage of a run: a failure inside is raised as a ``StageError`` tagged with
    ``name``, and a stage that succeeds stores its seconds in ``timings[name]`` when
    ``timings`` is given."""
    tic = time.perf_counter()
    try:
        yield
    # ValueError: numpy's LinAlgError; MemoryError: an allocation too big for the machine;
    # Warning: a warning that a filter such as ``python -W error`` raises as an exception.
    except (EvoKernelError, ValueError, OSError, MemoryError, Warning) as exc:
        raise StageError(name, exc) from exc
    if timings is not None:
        timings[name] = time.perf_counter() - tic


def stratified_folds(labels, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic stratified k-fold split.

    Each class is shuffled under a seed substream and dealt round-robin, with
    the starting fold rotating between classes so remainders spread evenly.
    Per-class counts across folds differ by at most one.
    """
    folds, seed = integer("folds", folds, 2), integer("seed", seed)
    labels = integers("labels", labels)
    n = len(labels)
    if not n:
        raise ConfigError("no labels to split into folds")
    classes, counts = np.unique(labels, return_counts=True)
    for cls, count in zip(classes, counts):
        if count < folds:
            advice = f"reduce folds to at most {count}" if count > 1 else "a class needs at least 2 members"
            raise ConfigError(f"class {cls} has only {count} member{'s' if count > 1 else ''}; {advice}")
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
    """Full pipeline for one configuration; ``dataset`` overrides disk loading and is
    checked at the ``load`` stage, before any episode is drawn."""
    return _run_lengths([cfg], dataset)[0]


def sweep_time_length(
    cfg: ExperimentConfig, lengths, dataset: GraphDataset | None = None
) -> list[CvReport]:
    """One report per time length, equal to a separate run at each; lengths are ascending numbers.

    Episodes, snapshot embeddings and alignment tables are built once, at
    the longest length, and every length's SVM machines train in one solve;
    the kernel and the predictions are per length.
    """
    with _stage("config"):
        instance("cfg", cfg, ExperimentConfig)
        lengths = [real("sweep length", t) for t in sequence("sweep lengths", lengths, ConfigError)]
        if not lengths:
            raise ConfigError("sweep needs at least one time length")
    return _run_lengths([replace(cfg, time_length=t) for t in lengths], dataset)


def _run_lengths(configs: list[ExperimentConfig], dataset: GraphDataset | None) -> list[CvReport]:
    """Reports of configurations that differ only in their ascending time lengths.

    Every grid is k * dt, and each snapshot draws from its own substream keyed
    by (seed, graph, k), so each shorter grid and its episodes are prefixes of
    the longest: episodes are generated once, on the longest grid. Every
    length's kernel is built into one stack, and one solve trains every
    machine of every (kernel, fold) pair. The load, episodes, distances and
    cv timings are measured once and echoed on every report.
    """
    timings: dict[str, float] = {}

    with _stage("config"):
        for c in configs:
            instance("cfg", c, ExperimentConfig)
        if any(b.time_length <= a.time_length for a, b in zip(configs, configs[1:])):
            raise ConfigError("sweep lengths must be strictly ascending")
        configs = [c.validate() for c in configs]
        grids = [c.time_grid() for c in configs]
    cfg, times = configs[-1], grids[-1]

    with _stage("load", timings):
        if dataset is None:
            dataset = load_tu_dataset(cfg.dataset_dir, cfg.dataset_name)
        _check_dataset(dataset)
        digest = _dataset_sha256(dataset)

    with _stage("cv"):  # the split reads only the labels, fold count and seed
        folds = stratified_folds(dataset.labels, cfg.folds, cfg.seed)

    with _stage("episodes", timings):
        graphs = dataset.graphs
        draws = _snapshot_draws(cfg.seed, range(len(graphs)), [g.node_count for g in graphs], len(times))
        masks = _episode_masks(graphs, times, cfg.a, cfg.u0, list(draws), cfg.heat_method, cfg.cumulative)

    with _stage("distances", timings):
        counts, sq = _wl_counts(graphs, cfg.metric_config(), masks)
        distances = _prefix_distance_matrices(counts, sq, len(times), {len(grid) for grid in grids})
        del counts, sq, masks  # the kernel and cv stages read only the distances

    n = len(dataset.labels)
    kernels, sigmas, length_timings = np.empty((len(configs), n, n)), [], []
    for at, (c, grid) in enumerate(zip(configs, grids)):
        length_timings.append(dict(timings))
        with _stage("kernel", length_timings[at]):
            ek = evolution_kernel(distances[len(grid)], c.gamma_scale, c.psd_repair)
            kernels[at] = ek.k
        sigmas.append(ek.sigma)
        if at + 1 == len(grids) or len(grids[at + 1]) != len(grid):
            del distances[len(grid)]  # its last kernel is built

    with _stage("cv", timings):
        models = _train_folds(kernels, dataset.labels, [train for train, _ in folds], cfg.c)
        reports = [
            _cross_validate(c, grid, k, sigma, fold_models, dataset, folds)
            for c, grid, k, sigma, fold_models in zip(configs, grids, kernels, sigmas, models)
        ]
    for report, t in zip(reports, length_timings):
        report.timings = dict(t, cv=timings["cv"])
        report.config["dataset_sha256"] = digest
    return reports


def _check_dataset(dataset) -> None:
    """``DatasetError`` unless ``dataset`` is a ``GraphDataset`` whose graphs are a non-empty
    list or tuple of ``Graph`` and whose labels are a numpy array with one label per graph;
    ``ContractError`` unless the labels are integers."""
    instance("dataset", dataset, GraphDataset, DatasetError)
    graphs, labels = dataset.graphs, dataset.labels
    if not isinstance(graphs, (list, tuple)):
        raise DatasetError(f"dataset graphs must be a list of Graph, got a {type(graphs).__name__}")
    if not graphs:
        raise DatasetError("dataset has no graphs")
    for i, g in enumerate(graphs):
        instance(f"dataset graph {i}", g, Graph, DatasetError)
    if not isinstance(labels, np.ndarray):
        raise DatasetError(f"dataset labels must be a numpy array, got a {type(labels).__name__}")
    if len(integers("dataset labels", labels)) != len(graphs):
        raise DatasetError(f"dataset has {len(graphs)} graphs but {len(labels)} labels")


def _dataset_sha256(dataset: GraphDataset) -> str:
    """SHA-256 of a checked dataset's JSON content: each graph's node count, edges and node
    labels, then the graph labels."""
    content = [[g.node_count, g.edges, g.node_labels] for g in dataset.graphs], dataset.labels.tolist()
    return hashlib.sha256(json.dumps(content).encode()).hexdigest()


def _cross_validate(
    cfg: ExperimentConfig,
    times: np.ndarray,
    k: np.ndarray,
    sigma: float,
    models: list[SvmModel],
    dataset: GraphDataset,
    folds: list[tuple[np.ndarray, np.ndarray]],
) -> CvReport:
    """Report of one length from its kernel and its trained fold models.

    Predicts every fold's test graphs and issues one RuntimeWarning naming
    every fold and class whose SMO machine stopped at its update cap before
    convergence.
    """
    labels = dataset.labels
    classes = np.unique(labels)
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    fold_accuracies = []
    capped = []
    for fold, ((train, test), model) in enumerate(zip(folds, models)):
        capped += [
            f"fold {fold} class {m.positive_class} ({m.updates} updates)"
            for m in model.machines
            if m.cap_hit
        ]
        predicted = svm_predict(model, k[np.ix_(test, train)])
        truth = labels[test]
        cells = np.searchsorted(classes, truth), np.searchsorted(classes, predicted)
        np.add.at(confusion, cells, 1)
        fold_accuracies.append(np.count_nonzero(predicted == truth) / len(test))
    if capped:
        warnings.warn(
            f"time length {cfg.time_length}: SMO stopped at its update cap before "
            f"convergence in {', '.join(capped)}",
            RuntimeWarning,
        )

    config_echo = cfg.to_dict()
    config_echo.update(
        {
            "times": times.tolist(),
            "sigma": sigma,
            "dataset_graphs": len(dataset.graphs),
            "dataset_classes": dataset.class_count,
        }
    )
    return CvReport(
        fold_accuracies=[float(a) for a in fold_accuracies],
        mean_accuracy=float(np.mean(fold_accuracies)),
        std_accuracy=float(np.std(fold_accuracies)),
        confusion=confusion.tolist(),
        config=config_echo,
    )


def write_sweep_csv(reports: list[CvReport], path) -> None:
    """CSV of (time_length, mean, std), one row per report; fully deterministic."""
    lines = ["time_length,mean_accuracy,std_accuracy"]
    for report in sequence("reports", reports):
        instance("report", report, CvReport)
        lines.append(
            f"{report.config['time_length']!r},{report.mean_accuracy!r},{report.std_accuracy!r}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
