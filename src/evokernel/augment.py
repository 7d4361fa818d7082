"""Heat-driven node-drop augmentation: from heat states to temporal episodes.

Per-node heat is turned into a Boltzmann retention probability, rescaled so
the hottest node keeps probability exactly 1, and each node survives an
independent Bernoulli draw. Repeating this over a time grid yields a temporal
episode of snapshots of the source graph.

An episode is drawn as one ``(T, n)`` bool array of kept masks, with each
step's heat as vectors (``_episode_masks``); the pipeline works on those masks
alone, and ``generate_episode`` cuts its snapshot graphs from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, choice, integer, real
from .graphs import Graph, _cut, _edge_array, _normalized_laplacian, _subgraphs, subgraph
from .heat import HEAT_METHODS, METHOD_EXACT, HeatState, _heat_vectors, reads_spectrum, spectral_decompose


@dataclass(frozen=True)
class BoltzmannConfig:
    """Energy function E(x) = a*x + b applied to per-node heat.

    a = 0 degenerates to the uniform distribution; the bias b cancels in the
    normalization and never changes the probabilities.
    """

    a: float = -2.0
    b: float = -2.0


@dataclass(frozen=True)
class HeatDistribution:
    """Boltzmann probabilities over nodes and their divide-by-max rescaling."""

    t: float
    probs: np.ndarray
    normed: np.ndarray


@dataclass
class TemporalEpisode:
    """Snapshots of one source graph over an ascending time grid.

    ``kept_masks[k]`` flags, over source node ids, which nodes survived in
    snapshot k (``generate_episode`` gives the rows of one ``(T, n)``
    array); snapshots re-pack survivors to 0-based local ids.
    """

    source: Graph
    times: np.ndarray
    snapshots: list[Graph]
    seed: int
    kept_masks: list[np.ndarray] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.snapshots)


def heat_distribution(state: HeatState, cfg: BoltzmannConfig) -> HeatDistribution:
    """Boltzmann distribution of the heat vector under energy a*x + b.

    The bias cancels algebraically in the ratio, so it never enters the
    arithmetic and the probabilities are bit-identical for any b.
    Exponentiation happens after subtracting the maximum logit (log-sum-exp),
    which guards overflow and makes the hottest node's rescaled probability
    exactly 1.
    """
    a = real("energy weight a", cfg.a)
    real("energy bias b", cfg.b)
    weights = _rescaled(np.asarray(state.heat, dtype=float), a)
    probs = weights / weights.sum()
    return HeatDistribution(t=state.t, probs=probs, normed=weights)


@np.errstate(over="ignore")
def _rescaled(heat: np.ndarray, a: float, times=None, source: str = "") -> np.ndarray:
    """Boltzmann weights ``exp(logit - max logit)`` of each column of ``heat``, logit = -a * heat.

    Logits that overflow raise ``ConfigError``, without a numpy warning; it names the
    first such time of the columns' ``times`` when given, then ``source``."""
    if not np.isfinite(heat).all():
        raise ContractError("heat vector contains non-finite entries")
    logits = -a * heat
    finite = np.isfinite(logits).all(axis=0)
    if not finite.all():
        at = "" if times is None else f" at t={times[np.argmin(finite)]:g}"
        raise ConfigError(f"energy weight a={a} overflows the heat logits{at}{source}")
    return np.exp(logits - logits.max(axis=0, initial=-np.inf))


def drop_node(g: Graph, dist: HeatDistribution, rng: np.random.Generator):
    """One Bernoulli draw per node: keep node i with probability normed[i].

    Returns the surviving induced subgraph and the boolean keep mask over the
    source nodes. A node with normed probability 1 is always kept.
    """
    if len(dist.normed) != g.node_count:
        raise ContractError(
            f"distribution over {len(dist.normed)} nodes for a graph with {g.node_count}"
        )
    keep = rng.random(len(dist.normed)) < dist.normed
    return subgraph(g, keep), keep


def snapshot_rng(seed: int, graph_index: int, time_index: int) -> np.random.Generator:
    """Independent counter-keyed substream for one snapshot of one graph."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(graph_index, time_index))
    )


def generate_episode(
    g: Graph,
    times,
    cfg: BoltzmannConfig | None = None,
    u0: float = 1.0,
    seed: int = 0,
    *,
    graph_index: int = 0,
    method: str = METHOD_EXACT,
    cumulative: bool = False,
) -> TemporalEpisode:
    """Generate the temporal episode of ``g`` over the given time grid.

    Each snapshot is drawn with its own RNG substream keyed by
    (seed, graph_index, time index), so identical arguments reproduce the
    episode bit-exactly and episodes of different graphs are independent.

    By default every snapshot is drawn from the original graph with the heat
    at absolute time t_k. With ``cumulative`` each step drops from the
    previous snapshot using the time increment t_k - t_{k-1} on that
    snapshot's own Laplacian. Either way ``kept_masks`` are the rows of one
    ``(T, n)`` array, snapshot k is ``subgraph(g, kept_masks[k])``, and a step
    with nothing left to draw from keeps nothing. Every argument is checked
    before the first step.

    The method is chosen from the time before anything is decomposed, and
    the spectrum is computed only when the method reads it: ``exact`` and
    ``fiedler`` always, ``auto`` for a time of at least
    ``heat.SMALL_TIME_DEFAULT`` (0.1), ``taylor2`` never. Without
    ``cumulative`` that is at most one decomposition per graph; with it, one
    per non-empty step that reads it.

    With ``cumulative`` and ``auto`` the choice reads the computed increment
    t_k - t_{k-1}, not the nominal step: on the default grid ``k * 0.1``, 6
    of the 10 increments come out just below 0.1 and take ``taylor2``, the
    other 4 take ``exact`` (or ``fiedler``).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ConfigError("time grid must be a non-empty 1-d sequence")
    if not np.isfinite(times).all():
        raise ConfigError("time grid must be finite")
    if times[0] != 0.0:
        raise ConfigError(f"time grid must start at 0, got {times[0]}")
    if np.any(np.diff(times) <= 0):
        raise ConfigError("time grid must be strictly ascending")
    seed, graph_index = integer("seed", seed), integer("graph index", graph_index)
    cfg = BoltzmannConfig() if cfg is None else cfg
    if not isinstance(cfg, BoltzmannConfig):
        raise ConfigError(f"cfg must be a BoltzmannConfig or None, got {cfg!r}")
    real("energy bias b", cfg.b)
    a, u0 = real("energy weight a", cfg.a), real("initial heat", u0, 0, above=True)
    choice("heat method", method, HEAT_METHODS)
    if not isinstance(cumulative, (bool, np.bool_)):
        raise ConfigError(f"cumulative must be a boolean, got {cumulative!r}")

    masks = _episode_masks(g, times, a, u0, seed, graph_index, method, cumulative)
    return TemporalEpisode(
        source=g, times=times, snapshots=_subgraphs(g, masks), seed=seed, kept_masks=list(masks)
    )


def _episode_masks(g: Graph, times: np.ndarray, a, u0, seed, graph_index, method, cumulative) -> np.ndarray:
    """The ``(T, n)`` kept masks of ``generate_episode`` on checked arguments. One heat call
    on the source serves every step, or under ``cumulative`` one per step on the Laplacian
    of the nodes the previous step kept, cut from the source edge array."""
    edges, grid = _edge_array(g), times.tolist()
    masks = np.zeros((len(grid), g.node_count), dtype=bool)
    ids, local = np.arange(g.node_count), edges
    for k, t in enumerate(grid):
        if cumulative and k:
            ids, local, t = np.flatnonzero(masks[k - 1]), _cut(edges, masks[k - 1 : k])[1], t - grid[k - 1]
        if not ids.size:
            break
        if cumulative or not k:
            steps = [t] if cumulative else grid
            lap = _normalized_laplacian(ids.size, local)
            spec = spectral_decompose(lap) if any(reads_spectrum(method, s) for s in steps) else None
            heat = _heat_vectors(lap, spec, steps, method, u0)
            normed = _rescaled(heat, a, steps, f" from u0={u0:g} under the {method!r} heat method")
        keep = snapshot_rng(seed, graph_index, k).random(ids.size) < normed[:, 0 if cumulative else k]
        masks[k, ids[keep]] = True
    return masks
