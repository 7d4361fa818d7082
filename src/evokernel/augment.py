"""Heat-driven node-drop augmentation: from heat states to temporal episodes.

Per-node heat is turned into a Boltzmann retention probability, rescaled so
the hottest node keeps probability exactly 1, and each node survives an
independent Bernoulli draw. Repeating this over a time grid yields a temporal
episode of snapshots of the source graph.

An episode is drawn as one ``(T, n)`` bool array of kept masks, with each
step's heat as vectors (``_episode_masks``); the pipeline works on those masks
alone, and ``generate_episode`` cuts its snapshot graphs from them. A run draws
all its episodes in one call, step by step, in stacks of equal-size graphs.
Snapshot k of graph i reads its uniforms from the substream
``snapshot_rng(seed, i, k)``; ``_snapshot_draws`` computes the same values, bit
for bit, for a run's graphs and steps: from the seed's numpy SeedSequence pool,
one array pass seeds every stream, then numpy's PCG64, set to each stream's
seeded state, draws it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, choice, instance, integer, real, reals
from .graphs import Graph, _cut, _edge_array, _normalized_laplacian, _subgraphs, subgraph
from .heat import HEAT_METHODS, METHOD_EXACT, HeatState, _decompose, _heat_vectors, reads_spectrum


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
    exactly 1. ``state`` may be any object with a ``HeatState``'s ``t`` and ``heat``.
    """
    if not (hasattr(state, "t") and hasattr(state, "heat")):
        instance("state", state, HeatState)
    instance("cfg", cfg, BoltzmannConfig)
    a = real("energy weight a", cfg.a)
    real("energy bias b", cfg.b)
    weights = _rescaled(reals("heat vector", state.heat)[:, None], a)[:, 0]
    probs = weights / weights.sum()
    return HeatDistribution(t=state.t, probs=probs, normed=weights)


@np.errstate(over="ignore")
def _rescaled(heat: np.ndarray, a: float, times=None, source: str = "") -> np.ndarray:
    """Boltzmann weights ``exp(logit - max logit)`` of each column of ``heat``, logit = -a * heat,
    with nodes on axis -2 of an ``(..., n, T)`` array.

    ``heat`` is finite, as ``reals`` and ``_heat_vectors`` leave it. Logits that overflow raise
    ``ConfigError``, without a numpy warning; it names the first such time of the columns'
    ``times`` when given, then ``source``."""
    logits = -a * heat
    finite = np.isfinite(logits).reshape(-1, logits.shape[-1]).all(axis=0)
    if not finite.all():
        at = "" if times is None else f" at t={times[np.argmin(finite)]:g}"
        raise ConfigError(f"energy weight a={a} overflows the heat logits{at}{source}")
    return np.exp(logits - logits.max(axis=-2, keepdims=True, initial=-np.inf))


def drop_node(g: Graph, dist: HeatDistribution, rng: np.random.Generator):
    """One Bernoulli draw per node: keep node i with probability normed[i].

    Returns the surviving induced subgraph and the boolean keep mask over the
    source nodes. A node with normed probability 1 is always kept.
    """
    instance("g", g, Graph)
    instance("dist", dist, HeatDistribution)
    instance("rng", rng, np.random.Generator)
    if len(dist.normed) != g.node_count:
        raise ContractError(
            f"distribution over {len(dist.normed)} nodes for a graph with {g.node_count}"
        )
    keep = rng.random(len(dist.normed)) < dist.normed
    return subgraph(g, keep), keep


def snapshot_rng(seed: int, graph_index: int, time_index: int) -> np.random.Generator:
    """Independent counter-keyed substream for one snapshot of one graph.

    This defines every snapshot's uniforms; the pipeline computes the same
    values for many snapshots at once with ``_snapshot_draws``."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(graph_index, time_index))
    )


# numpy's SeedSequence replayed on uint32 values held in Python ints or uint64 arrays, and the
# multiplier of PCG64's 128-bit LCG (O'Neill, HMC-CS-2014-0905), which its seeding steps twice.
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645


def _words(x: int) -> list[int]:
    return [x >> s & _MASK32 for s in range(0, max(x.bit_length(), 1), 32)]


def _hashmix(values: list, const: int, mult: int = _MULT_A):
    """SeedSequence's hashes of ``values`` in turn from ``const``, and the next constant."""
    hashes = []
    for value in values:
        nxt = const * mult & _MASK32
        value = (value ^ const) * nxt & _MASK32
        hashes.append(value ^ value >> 16)
        const = nxt
    return hashes, const


def _mix_in(pool: list, const: int, word) -> int:
    """Mix ``word`` into each word of a SeedSequence pool; the next constant."""
    for dst in range(4):
        (h,), const = _hashmix([word], const)
        x = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * h) & _MASK32
        pool[dst] = x ^ x >> 16
    return const


def _snapshot_draws(seed: int, graph_indices, node_counts, steps: int):
    """Yield, per graph, the ``(steps, n)`` array whose row k is ``snapshot_rng(seed, i,
    k).random(n)``, bit for bit. One array pass seeds every (graph, step) stream, a lane; then
    one ``PCG64`` set to each lane's seeded state draws its row in place.

    ``SeedSequence(seed).pool`` is the pool after the seed's words: numpy hashes a short seed
    with zeros, as a spawned child pads it. Each lane then mixes in its spawn key's words, the
    graph index's and then k, from the hash constant left by the 4 * max(4, words) hashes so far."""
    pool = np.random.SeedSequence(seed).pool.tolist()
    const = _INIT_A * pow(_MULT_A, 4 * max(4, len(_words(seed))), 2**32) & _MASK32
    # Lane steps * g + k mixes in graph g's index's words, then k.
    keys = [_words(i) for i in graph_indices]
    width, lengths = max(map(len, keys)), np.repeat([len(w) for w in keys], steps)
    spawn = np.repeat(np.array([w + [0] * (width + 1 - len(w)) for w in keys], dtype=np.uint64), steps, axis=0)
    spawn[np.arange(lengths.size), lengths] = np.tile(np.arange(steps, dtype=np.uint64), len(keys))
    pool = [np.full(lengths.size, w, dtype=np.uint64) for w in pool]
    for at, w in enumerate(spawn.T):
        mixed = list(pool)
        const = _mix_in(mixed, const, w)
        pool = [np.where(at <= lengths, new, old) for new, old in zip(mixed, pool)]
    # generate_state(4, uint64) gives PCG64's initstate and initseq as (high, low) words; a
    # stream starts where PCG64's srandom leaves it, with inc = 2 * initseq + 1.
    s = _hashmix([pool[at % 4] for at in range(8)], _INIT_B, _MULT_B)[0]
    seeds = iter((np.array(s[0::2]) | np.array(s[1::2]) << 32).T.tolist())
    bitgen = np.random.PCG64(0)
    state, random = bitgen.state, np.random.Generator(bitgen).random
    for n in node_counts:
        draws = np.empty((steps, n))
        for row, (s0, s1, s2, s3) in zip(draws, seeds):
            initstate, inc = s0 << 64 | s1, (s2 << 65 | s3 << 1 | 1) & _MASK128
            state["state"] = {"state": ((initstate + inc) * _PCG_MULT + inc) & _MASK128, "inc": inc}
            bitgen.state = state
            random(out=row)
        yield draws


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
    instance("g", g, Graph, ConfigError)
    times = reals("time grid", times, ConfigError)
    if times.ndim != 1 or times.size == 0:
        raise ConfigError("time grid must be a non-empty 1-d sequence")
    if times[0] != 0.0:
        raise ConfigError(f"time grid must start at 0, got {times[0]}")
    if np.any(np.diff(times) <= 0):
        raise ConfigError("time grid must be strictly ascending")
    seed, graph_index = integer("seed", seed), integer("graph index", graph_index)
    cfg = BoltzmannConfig() if cfg is None else cfg
    instance("cfg", cfg, BoltzmannConfig)
    real("energy bias b", cfg.b)
    a, u0 = real("energy weight a", cfg.a), real("initial heat", u0, 0, above=True)
    choice("heat method", method, HEAT_METHODS)
    if not isinstance(cumulative, (bool, np.bool_)):
        raise ConfigError(f"cumulative must be a boolean, got {cumulative!r}")

    draws = list(_snapshot_draws(seed, [graph_index], [g.node_count], times.size))
    (masks,) = _episode_masks([g], times, a, u0, draws, method, cumulative)
    return TemporalEpisode(
        source=g, times=times, snapshots=_subgraphs(g, masks), seed=seed, kept_masks=list(masks)
    )


# Most Laplacian or heat entries in one stack of equal-size graphs: 2 MiB of float64 per array.
_STACK_ENTRIES = 2**18


def _episode_masks(graphs: list, times: np.ndarray, a, u0, draws: list, method, cumulative) -> list:
    """The ``(T, n)`` kept masks of ``generate_episode`` for each of ``graphs``, on checked
    arguments and each graph's ``(T, n)`` uniforms in ``draws`` (``_snapshot_draws``).

    Step by step, the graphs that still have nodes go in stacks of equal node count, each of at
    most ``_STACK_ENTRIES`` Laplacian or heat entries and at least one graph; a stack takes one
    Laplacian build, decomposition, heat call and threshold. One step on the sources serves
    every time; under ``cumulative`` each step works on the Laplacians of the nodes the previous
    step kept, cut from the source edge arrays, and reads its row's first draws."""
    grid, edges = times.tolist(), [_edge_array(g) for g in graphs]
    masks = [np.zeros((len(grid), g.node_count), dtype=bool) for g in graphs]
    ids, local = [np.arange(g.node_count) for g in graphs], list(edges)
    source = f" from u0={u0:g} under the {method!r} heat method"
    for k, t in enumerate(grid if cumulative else grid[:1]):
        if k:
            ids = [np.flatnonzero(m[k - 1]) for m in masks]
            local = [_cut(e, m[k - 1 : k])[1] for e, m in zip(edges, masks)]
            t -= grid[k - 1]
        steps, rows = ([t], slice(k, k + 1)) if cumulative else (grid, slice(None))
        sizes = np.array([i.size for i in ids])
        for n in np.unique(sizes[sizes > 0]).tolist():
            group = np.flatnonzero(sizes == n).tolist()
            per = max(1, _STACK_ENTRIES // (n * max(n, len(steps))))
            for members in (group[at : at + per] for at in range(0, len(group), per)):
                stacked = np.concatenate([local[i] + b * n for b, i in enumerate(members)])
                lap = _normalized_laplacian(n, stacked, len(members))
                spec = _decompose(lap) if any(reads_spectrum(method, s) for s in steps) else None
                normed = _rescaled(_heat_vectors(lap, spec, steps, method, u0), a, steps, source)
                kept = np.array([draws[i][rows, :n] for i in members]) < normed.swapaxes(-1, -2)
                for i, keep in zip(members, kept):
                    masks[i][rows, ids[i]] = keep
    return masks
