"""Heat-driven node-drop augmentation: from heat states to temporal episodes.

Per-node heat is turned into a Boltzmann retention probability, rescaled so
the hottest node keeps probability exactly 1, and each node survives an
independent Bernoulli draw. Repeating this over a time grid yields a temporal
episode of snapshots of the source graph.

An episode is drawn as one ``(T, n)`` bool array of kept masks, with each
step's heat as vectors (``_episode_masks``); the pipeline works on those masks
alone, and ``generate_episode`` cuts its snapshot graphs from them. Snapshot k
of graph i reads its uniforms from the substream ``snapshot_rng(seed, i, k)``;
``_snapshot_draws`` computes the same values, bit for bit, for many graphs and
steps at once in numpy array passes.
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
    """Independent counter-keyed substream for one snapshot of one graph.

    This defines every snapshot's uniforms; the pipeline computes the same
    values for many snapshots at once with ``_snapshot_draws``."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(graph_index, time_index))
    )


# numpy's SeedSequence and PCG64 (O'Neill, HMC-CS-2014-0905) replayed on uint32 values held in
# Python ints or uint64 arrays; a 128-bit value is a list of four such limbs, lowest first.
_MASK32, _MASK128, _CHUNK_DRAWS = 2**32 - 1, 2**128 - 1, 4096
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645


def _words(x: int) -> list[int]:
    return [x >> s & _MASK32 for s in range(0, max(x.bit_length(), 1), 32)]


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's hash of ``value`` under ``const``, and the next constant."""
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix_in(pool: list, const: int, word, skip: int = -1) -> int:
    """Mix ``word`` into each word of a SeedSequence pool but ``skip``; the next constant."""
    for dst in range(4):
        if dst != skip:
            h, const = _hashmix(word, const)
            x = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * h) & _MASK32
            pool[dst] = x ^ x >> 16
    return const


def _snapshot_draws(seed: int, graph_indices, node_counts, steps: int):
    """Yield, per graph, the ``(steps, n)`` array whose row k is ``snapshot_rng(seed, i,
    k).random(n)``, bit for bit, in array passes over about ``_CHUNK_DRAWS`` draws each;
    a graph with more draws takes passes of its own, over as many of its rows as fit.

    As in ``SeedSequence``, the seed's words, padded to four, are hashed into the pool, the
    pool is mixed, then each further word, the seed's and then the spawn key's, is mixed in.
    Draw j of a stream reads the PCG64 state ``M^(j+2) initstate + (1 + M + ... + M^(j+2)) inc``."""
    words, pool, const = _words(seed) + [0, 0, 0], [], _INIT_A
    for w in words[:4]:
        w, const = _hashmix(w, const)
        pool.append(w)
    for src in range(4):
        const = _mix_in(pool, const, pool[src], src)
    for w in words[4 : len(words) - 3]:
        const = _mix_in(pool, const, w)
    counts, power, total, jumps = list(node_counts), _PCG_MULT, 1 + _PCG_MULT, []
    for _ in range(max(counts, default=0)):
        power, total = power * _PCG_MULT & _MASK128, total + power * _PCG_MULT & _MASK128
        jumps.append([v >> b & _MASK32 for v in (power, total) for b in (0, 32, 64, 96)])
    jumps, chunk, size = np.array(jumps, dtype=np.uint64).reshape(-1, 8).T.copy(), [], 0
    for i, n in zip(graph_indices, counts):
        if chunk and size + steps * max(n, 1) > _CHUNK_DRAWS:
            yield from _chunk_draws(pool, const, jumps, chunk)
            chunk, size = [], 0
        rows = max(1, _CHUNK_DRAWS // max(n, 1))
        if steps <= rows:
            chunk.append((_words(i), n, range(steps)))
            size += steps * max(n, 1)
        else:  # a larger graph: passes of its own, over as many of its rows as fit
            blocks = [[(_words(i), n, range(k, min(k + rows, steps)))] for k in range(0, steps, rows)]
            yield np.concatenate([_chunk_draws(pool, const, jumps, block)[0] for block in blocks])
    if chunk:
        yield from _chunk_draws(pool, const, jumps, chunk)


def _chunk_draws(pool: list, const: int, jumps: np.ndarray, chunk: list) -> list[np.ndarray]:
    """One pass of ``_snapshot_draws``: the draws of rows ``ks`` of the graphs in ``chunk``,
    given as (index words, node count, ks) triples."""
    width, counts = max(len(w) for w, _, _ in chunk), np.array([n for _, n, _ in chunk], dtype=np.int64)
    # One lane per (graph, step), whose spawn key's words are the graph index's, then the step.
    graph = np.repeat(np.arange(len(chunk)), [len(ks) for _, _, ks in chunk])
    lengths = np.array([len(w) for w, _, _ in chunk])[graph]
    spawn = np.array([w + [0] * (width + 1 - len(w)) for w, _, _ in chunk], dtype=np.uint64)[graph]
    spawn[np.arange(graph.size), lengths] = np.concatenate([np.array(ks, dtype=np.uint64) for _, _, ks in chunk])
    pool = [np.full(graph.size, w, dtype=np.uint64) for w in pool]
    for at, w in enumerate(spawn.T):
        mixed = list(pool)
        const = _mix_in(mixed, const, w)
        pool = [np.where(at <= lengths, new, old) for new, old in zip(mixed, pool)]
    # generate_state(4, uint64) gives PCG64's initstate and initseq; inc = 2 * initseq + 1.
    s, const = [], _INIT_B
    for at in range(8):
        w, const = _hashmix(pool[at % 4], const, _MULT_B)
        s.append(w)
    inc = [s[6] << 1 | 1, s[7] << 1 | s[6] >> 31, s[4] << 1 | s[7] >> 31, s[5] << 1 | s[4] >> 31]
    lanes, per_lane, cols = np.array([s[2], s[3], s[0], s[1]] + inc) & _MASK32, counts[graph], [0] * 4
    j = np.arange(per_lane.sum()) - np.repeat(np.cumsum(per_lane) - per_lane, per_lane)
    # Both 128-bit products summed by limb: each limb product's 32-bit halves go to their
    # columns, except that the top column, read mod 2**32, takes whole products.
    for at in (0, 4):
        a, b = [w[j] for w in jumps[at : at + 4]], [np.repeat(w, per_lane) for w in lanes[at : at + 4]]
        for i in range(4):
            for k in range(4 - i):
                p = a[i] * b[k]
                cols[i + k] += p if i + k == 3 else p & _MASK32
                if i + k < 3:
                    cols[i + k + 1] += p >> 32
    for at in range(3):
        cols[at + 1] += cols[at] >> 32
    x = [col & _MASK32 for col in cols]
    # XSL-RR output, then the double of its top 53 bits.
    out, rot = (x[0] ^ x[2]) | (x[1] ^ x[3]) << 32, x[3] >> 26
    out = (out >> rot | out << (64 - rot & 63)) >> 11
    parts = np.split(out * 2.0**-53, np.cumsum([len(ks) * n for _, n, ks in chunk])[:-1])
    return [part.reshape(len(ks), n) for part, (_, n, ks) in zip(parts, chunk)]


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

    draws = next(_snapshot_draws(seed, [graph_index], [g.node_count], times.size))
    masks = _episode_masks(g, times, a, u0, draws, method, cumulative)
    return TemporalEpisode(
        source=g, times=times, snapshots=_subgraphs(g, masks), seed=seed, kept_masks=list(masks)
    )


def _episode_masks(g: Graph, times: np.ndarray, a, u0, draws: np.ndarray, method, cumulative) -> np.ndarray:
    """The ``(T, n)`` kept masks of ``generate_episode`` on checked arguments and the graph's
    ``(T, n)`` uniforms ``draws`` (``_snapshot_draws``). One heat call on the source serves
    every step; under ``cumulative`` one per step on the Laplacian of the nodes the previous
    step kept, cut from the source edge array, and the step reads its row's first draws."""
    edges, grid = _edge_array(g), times.tolist()
    masks = np.zeros((len(grid), g.node_count), dtype=bool)
    ids, local = np.arange(g.node_count), edges
    for k, t in enumerate(grid if cumulative else grid[:1]):
        if k:
            ids, local, t = np.flatnonzero(masks[k - 1]), _cut(edges, masks[k - 1 : k])[1], t - grid[k - 1]
        if not ids.size:
            break
        steps = [t] if cumulative else grid
        lap = _normalized_laplacian(ids.size, local)
        spec = spectral_decompose(lap) if any(reads_spectrum(method, s) for s in steps) else None
        heat = _heat_vectors(lap, spec, steps, method, u0)
        normed = _rescaled(heat, a, steps, f" from u0={u0:g} under the {method!r} heat method")
        if not cumulative:
            return draws < normed.T
        masks[k, ids[draws[k, : ids.size] < normed[:, 0]]] = True
    return masks
