"""Heat-driven node-drop augmentation: from heat states to temporal episodes.

Per-node heat is turned into a Boltzmann retention probability, rescaled so
the hottest node keeps probability exactly 1, and each node survives an
independent Bernoulli draw. Repeating this over a time grid yields a temporal
episode of snapshots of the source graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, choice, integer, real
from .graphs import Graph, normalized_laplacian, subgraph
from .heat import (
    HEAT_METHODS,
    METHOD_EXACT,
    HeatState,
    compute_heat_kernel,
    propagate_heat,
    reads_spectrum,
    spectral_decompose,
)


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
    snapshot k; snapshots re-pack survivors to 0-based local ids.
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
    heat = np.asarray(state.heat, dtype=float)
    if not np.isfinite(heat).all():
        raise ContractError("heat vector contains non-finite entries")
    logits = -a * heat
    if not np.isfinite(logits).all():
        raise ConfigError(f"energy weight a={a} overflows the heat logits")
    weights = np.exp(logits - logits.max(initial=-np.inf))
    probs = weights / weights.sum()
    return HeatDistribution(t=state.t, probs=probs, normed=weights)


def drop_node(g: Graph, dist: HeatDistribution, rng: np.random.Generator):
    """One Bernoulli draw per node: keep node i with probability normed[i].

    Returns the surviving induced subgraph and the boolean keep mask over the
    source nodes. A node with normed probability 1 is always kept.
    """
    if len(dist.normed) != g.node_count:
        raise ContractError(
            f"distribution over {len(dist.normed)} nodes for a graph with {g.node_count}"
        )
    keep = _bernoulli_keep(dist, rng)
    return subgraph(g, keep), keep


def _bernoulli_keep(dist: HeatDistribution, rng: np.random.Generator) -> np.ndarray:
    return rng.random(len(dist.normed)) < dist.normed


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
    kernel at absolute time t_k. With ``cumulative`` each step drops from the
    previous snapshot using the time increment t_k - t_{k-1} on that
    snapshot's own Laplacian. Either way snapshot k is ``subgraph(g,
    kept_masks[k])``, and a step with nothing left to draw from keeps
    nothing. Every argument is checked before the first step.

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
    real("energy weight a", cfg.a)
    real("energy bias b", cfg.b)
    real("initial heat", u0, 0, above=True)
    choice("heat method", method, HEAT_METHODS)
    if not isinstance(cumulative, (bool, np.bool_)):
        raise ConfigError(f"cumulative must be a boolean, got {cumulative!r}")

    lap, spec = normalized_laplacian(g), None
    ids = np.arange(g.node_count)
    grid = times.tolist()
    snapshots: list[Graph] = []
    masks: list[np.ndarray] = []
    for k, t in enumerate(grid):
        if cumulative and k:
            t -= grid[k - 1]
            ids = np.flatnonzero(masks[-1])
            lap, spec = normalized_laplacian(snapshots[-1]), None
        keep = np.zeros(g.node_count, dtype=bool)
        if ids.size:
            if spec is None and reads_spectrum(method, t):
                spec = spectral_decompose(lap)
            hk = compute_heat_kernel(lap, spec, t, method)
            dist = heat_distribution(propagate_heat(hk, u0), cfg)
            keep[ids[_bernoulli_keep(dist, snapshot_rng(seed, graph_index, k))]] = True
        snapshots.append(subgraph(g, keep))
        masks.append(keep)

    return TemporalEpisode(source=g, times=times, snapshots=snapshots, seed=seed, kept_masks=masks)


def write_episode_jsonl(episode: TemporalEpisode, path) -> None:
    """One JSON record per snapshot: time, kept source-node ids, edge list.

    Edges are written in source-node ids for inspectability.
    """
    if not len(episode.times) == len(episode.kept_masks) == len(episode.snapshots):
        raise ContractError(
            f"episode has {len(episode.times)} times and {len(episode.kept_masks)} masks "
            f"for {len(episode.snapshots)} snapshots"
        )
    lines = []
    for t, snap, mask in zip(episode.times, episode.snapshots, episode.kept_masks):
        kept = np.flatnonzero(mask)
        if len(mask) != episode.source.node_count or len(kept) != snap.node_count:
            raise ContractError(f"mask at t={t} does not match its snapshot")
        edges = [[int(kept[i]), int(kept[j])] for i, j in snap.edges]
        lines.append(
            json.dumps({"t": float(t), "kept": [int(i) for i in kept], "edges": edges})
        )
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_episode_jsonl(path, source: Graph, seed: int = 0) -> TemporalEpisode:
    """Rebuild an episode from its JSONL form and the source graph.

    The seed is not stored in the file; pass it when it matters for fixture
    bookkeeping. Node labels are restored from the source graph. A record
    that is not JSON, lacks a key, keeps an id twice or outside the source,
    lists edges the source does not induce, or whose time is not a finite
    number above the previous record's raises :class:`ConfigError` naming
    its line.
    """
    seed = integer("seed", seed)
    path = Path(path)
    times: list[float] = []
    snapshots = []
    masks = []
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path.name} line {line_no}"
        try:
            record = json.loads(line)
            t, kept, edges = record["t"], record["kept"], record["edges"]
            expected = {(min(i, j), max(i, j)) for i, j in edges}
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{where}: malformed episode record ({exc!r})") from None
        if type(t) not in (int, float) or not np.isfinite(t) or (times and t <= times[-1]):
            raise ConfigError(f"{where}: time {t!r} is not a finite number above the previous time")
        if not isinstance(kept, list) or not all(
            type(i) is int and 0 <= i < source.node_count for i in kept
        ):
            raise ConfigError(f"{where}: kept ids must be integers in [0, {source.node_count})")
        if len(set(kept)) != len(kept):
            raise ConfigError(f"{where}: kept ids repeat")
        mask = np.zeros(source.node_count, dtype=bool)
        mask[kept] = True
        snap = subgraph(source, mask)
        ids = np.flatnonzero(mask)
        if expected != {(int(ids[i]), int(ids[j])) for i, j in snap.edges}:
            raise ConfigError(f"{where}: edges at t={t} are not those the source graph induces")
        times.append(float(t))
        snapshots.append(snap)
        masks.append(mask)
    return TemporalEpisode(
        source=source,
        times=np.asarray(times),
        snapshots=snapshots,
        seed=seed,
        kept_masks=masks,
    )
