"""Independent reference implementations the tests check against.

Each oracle takes a route disjoint from the library code: the matrix
exponential comes from scipy's scaling-and-squaring Pade implementation, the
warping distance from exhaustive path enumeration, the warping table from a
scalar cell-by-cell recurrence, the embedding metric from
explicit label dictionaries instead of hashing, and the SVM from a primal
grid search. The hashed embedding reference keeps the original per-node
string loop: it builds and hashes every node's signature string each round
and hashes every (round, label) occurrence. The one-vs-rest SMO reference
keeps the solver's original update loop and trains every class's machine,
including the mirror-image second machine of a two-class problem that the
library skips. The episode reference keeps the original per-edge loops for
degrees, Laplacian and induced subgraph, decomposes every Laplacian whatever
the heat method, and in cumulative mode drops from the previous snapshot
graph instead of cutting from the source. The prefix-distance reference
keeps the per-length path: the per-node reference embeddings and one
cross-distance product per prefix length. The heat reference keeps the
original n x n matrix formula of each kernel and the original method pick, so
neither routes through the library's one formula per method. The TU loader
reference keeps the original per-line reader, which parses and checks every
line and every edge in Python and collects each graph's edges in a set.

The episode reference shares no heat or Boltzmann code with the library: it
decomposes each Laplacian with numpy's ``eigh`` as it comes, without the
library's eigenvalue clamp and residual check, and computes each node's
rescaled Boltzmann weight ``exp(-a h - max(-a h))`` in Python floats, one node
at a time. The oracles take only these names from ``evokernel``:

- ``Graph``, ``GraphDataset``, ``TemporalEpisode`` and ``BoltzmannConfig``,
  which are data: the inputs and results the oracles build and compare;
- ``snapshot_rng``, which defines each snapshot's draws, so the episode
  reference and the library read the same uniforms;
- ``DatasetError``, which the loader reference raises where the library must;
- the ``METHOD_*`` names, which name the heat methods.

``tests/test_heat.py`` parses this module and fails if it imports any other
name from ``evokernel.heat`` or ``evokernel.augment``.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.linalg

from evokernel.augment import BoltzmannConfig, TemporalEpisode, snapshot_rng
from evokernel.errors import DatasetError
from evokernel.graphs import Graph
from evokernel.heat import METHOD_AUTO, METHOD_EXACT, METHOD_FIEDLER, METHOD_TAYLOR2
from evokernel.tu_io import GraphDataset


def expm_oracle(matrix: np.ndarray) -> np.ndarray:
    """Dense matrix exponential via scipy (scaling-and-squaring Pade)."""
    return scipy.linalg.expm(np.asarray(matrix, dtype=float))


@lru_cache(maxsize=None)
def enumerate_warping_paths(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All admissible warping paths through an n x n grid, 0-based cells.

    Paths start at (0, 0), end at (n-1, n-1), and advance each coordinate by
    at most 1 per step without decreasing either.
    """
    paths: list[tuple[tuple[int, int], ...]] = []

    def walk(i: int, j: int, acc: list[tuple[int, int]]) -> None:
        if (i, j) == (n - 1, n - 1):
            paths.append(tuple(acc))
            return
        for di, dj in ((1, 1), (1, 0), (0, 1)):
            ni, nj = i + di, j + dj
            if ni < n and nj < n:
                acc.append((ni, nj))
                walk(ni, nj, acc)
                acc.pop()

    walk(0, 0, [(0, 0)])
    return tuple(paths)


def brute_force_gdtw(m: np.ndarray) -> float:
    """Minimum path cost by exhaustive enumeration."""
    m = np.asarray(m, dtype=float)
    best = math.inf
    for path in enumerate_warping_paths(m.shape[0]):
        cost = sum(m[i, j] for i, j in path)
        if cost < best:
            best = cost
    return best


def scalar_gdtw_table(m: np.ndarray) -> np.ndarray:
    """Cumulative-cost table with the infinity border, one scalar cell at a time.

    The minimum of diagonal, up and left is taken by strict comparisons in that
    order, so on ties the first candidate is kept.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    gamma = np.full((n + 1, n + 1), math.inf)
    gamma[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            best = gamma[i - 1, j - 1]
            if gamma[i - 1, j] < best:
                best = gamma[i - 1, j]
            if gamma[i, j - 1] < best:
                best = gamma[i, j - 1]
            gamma[i, j] = m[i - 1, j - 1] + best
    return gamma


def path_is_admissible(path, n: int) -> bool:
    """Boundary, monotonicity and continuity of a 0-based warping path."""
    if path[0] != (0, 0) or path[-1] != (n - 1, n - 1):
        return False
    if not (max(n, 1) <= len(path) <= 2 * n - 1 or n == 1):
        return False
    for (i, j), (ni, nj) in zip(path, path[1:]):
        if ni < i or nj < j:
            return False
        if ni > i + 1 or nj > j + 1:
            return False
        if (ni, nj) == (i, j):
            return False
    return True


def neighbour_lists(g: Graph) -> list[list[int]]:
    """Sorted adjacency list of every node, read straight from ``g.edges``."""
    lists: list[list[int]] = [[] for _ in range(g.node_count)]
    for i, j in g.edges:
        lists[i].append(j)
        lists[j].append(i)
    return [sorted(ns) for ns in lists]


def dict_wl_histograms(graphs: list[Graph], iterations: int) -> list[Counter]:
    """Subtree-feature histograms via a shared explicit label dictionary.

    All graphs are refined jointly so equal signatures get equal ids without
    any hashing. Keys are (round, label_id) pairs.
    """
    per_graph_labels = []
    lookup: dict[str, int] = {}
    for g in graphs:
        if g.node_labels is not None:
            raw = [str(lab) for lab in g.node_labels]
        else:
            raw = [str(len(ns)) for ns in neighbour_lists(g)]
        ids = []
        for r in raw:
            key = "raw:" + r
            if key not in lookup:
                lookup[key] = len(lookup)
            ids.append(lookup[key])
        per_graph_labels.append(ids)

    histograms = [Counter() for _ in graphs]
    for gi, ids in enumerate(per_graph_labels):
        for lab in ids:
            histograms[gi][(0, lab)] += 1

    for round_index in range(1, iterations + 1):
        lookup = {}
        next_labels = []
        for gi, g in enumerate(graphs):
            ids = per_graph_labels[gi]
            nbrs = neighbour_lists(g)
            refined = []
            for node in range(g.node_count):
                signature = (ids[node], tuple(sorted(ids[x] for x in nbrs[node])))
                if signature not in lookup:
                    lookup[signature] = len(lookup)
                refined.append(lookup[signature])
            next_labels.append(refined)
        per_graph_labels = next_labels
        for gi, ids in enumerate(per_graph_labels):
            for lab in ids:
                histograms[gi][(round_index, lab)] += 1
    return histograms


def reference_wl_labels(g: Graph, iterations: int) -> list[list[str]]:
    """Per-round node label strings: round 0 is the raw label (or degree), then
    ``iterations`` rounds of hashed neighbourhood refinement."""
    neighbors = neighbour_lists(g)
    if g.node_labels is not None:
        labels = [str(lab) for lab in g.node_labels]
    else:
        labels = [str(len(ns)) for ns in neighbors]
    rounds = [labels]
    for _ in range(iterations):
        refined = []
        for i, own in enumerate(labels):
            signature = own + "|" + ",".join(sorted(labels[j] for j in neighbors[i]))
            refined.append(hashlib.blake2b(signature.encode("utf-8"), digest_size=16).hexdigest())
        labels = refined
        rounds.append(labels)
    return rounds


def reference_wl_counts(g: Graph, iterations: int = 3, dim: int = 1024) -> list[int]:
    """Python-int count of every bucket over all (round, label) occurrences."""
    counts = [0] * dim
    for round_index, labels in enumerate(reference_wl_labels(g, iterations)):
        for label in labels:
            feature = f"{round_index}:{label}".encode("utf-8")
            digest = hashlib.blake2b(feature, digest_size=8).digest()
            counts[int.from_bytes(digest, "big") % dim] += 1
    return counts


def reference_wl_embed(g: Graph, iterations: int = 3, dim: int = 1024) -> np.ndarray:
    """Hash every (round, label) occurrence into a count vector, then L2-normalize."""
    vector = np.array(reference_wl_counts(g, iterations, dim), dtype=float)
    norm = np.linalg.norm(vector)
    if norm > 0:
        vector /= norm
    return vector


def reference_prefix_distances(episodes, cfg, step_counts) -> dict[int, np.ndarray]:
    """Alignment distance matrices of the episodes' s-snapshot prefixes, one product per s.

    The normalized embeddings of each prefix length get their own cross
    distances by the expansion |a|^2 + |b|^2 - 2 a.b, and every pair's table
    is filled cell by cell over all pairs at once.
    """
    n, steps = len(episodes), len(episodes[0].times)
    embeddings = np.stack(
        [reference_wl_embed(snap, cfg.wl_iterations, cfg.dim) for e in episodes for snap in e.snapshots]
    ).reshape(n, steps, -1)
    first, second = np.triu_indices(n, 1)
    out = {}
    for s in step_counts:
        emb = embeddings[:, :s].reshape(n * s, -1)
        sq = (emb ** 2).sum(axis=1)
        cross = np.sqrt(np.clip(sq[:, None] + sq[None, :] - 2.0 * (emb @ emb.T), 0.0, None))
        costs = cross.reshape(n, s, n, s)[first, :, second, :]
        gamma = np.full((s + 1, s + 1, len(first)), np.inf)
        gamma[0, 0] = 0.0
        for i in range(1, s + 1):
            for j in range(1, s + 1):
                best = np.minimum(np.minimum(gamma[i - 1, j - 1], gamma[i - 1, j]), gamma[i, j - 1])
                gamma[i, j] = costs[:, i - 1, j - 1] + best
        d = np.zeros((n, n))
        d[first, second] = d[second, first] = gamma[s, s]
        out[s] = d
    return out


def dict_wl_delta(g1: Graph, g2: Graph, iterations: int) -> float:
    """Euclidean distance between the L2-normalized dictionary histograms."""
    h1, h2 = dict_wl_histograms([g1, g2], iterations)
    keys = sorted(set(h1) | set(h2))
    v1 = np.array([h1.get(k, 0) for k in keys], dtype=float)
    v2 = np.array([h2.get(k, 0) for k in keys], dtype=float)
    for v in (v1, v2):
        norm = np.linalg.norm(v)
        if norm > 0:
            v /= norm
    return float(np.linalg.norm(v1 - v2))


def primal_margin_oracle(points: np.ndarray, labels: np.ndarray, angle_steps: int = 20000):
    """Max-margin separator of 2-d points by grid search over directions.

    Returns (w, b) with ||w|| = 1 maximizing the geometric margin; decision is
    sign(w . x + b). Only meant for a handful of separable points.
    """
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    best = (-math.inf, None, None)
    for step in range(angle_steps):
        theta = math.pi * step / angle_steps
        w = np.array([math.cos(theta), math.sin(theta)])
        proj = points @ w
        for sign in (1.0, -1.0):
            lo = np.min(sign * proj[labels > 0])
            hi = np.max(sign * proj[labels < 0])
            margin = (lo - hi) / 2.0
            if margin > best[0]:
                b = -(lo + hi) / 2.0
                best = (margin, sign * w, b)
    margin, w, b = best
    if margin <= 0:
        raise ValueError("points are not linearly separable")
    return w, b


def reference_ovr_smo(k: np.ndarray, y: np.ndarray, c: float, tol: float = 1e-3,
                      max_updates: int = 100_000) -> SimpleNamespace:
    """Max-violating-pair SMO on one +-1 problem, with index gathers per update.

    Returns alpha, bias, support, kkt_residual, updates and cap_hit.
    """
    box_eps = 1e-12
    n = len(y)
    alpha = np.zeros(n)
    grad = -np.ones(n)
    updates = 0
    converged = False

    while updates < max_updates:
        yg = -(y * grad)
        up = ((y > 0) & (alpha < c - box_eps)) | ((y < 0) & (alpha > box_eps))
        low = ((y < 0) & (alpha < c - box_eps)) | ((y > 0) & (alpha > box_eps))
        if not up.any() or not low.any():
            converged = True
            break
        up_idx = np.flatnonzero(up)
        low_idx = np.flatnonzero(low)
        i = int(up_idx[np.argmax(yg[up_idx])])
        j = int(low_idx[np.argmin(yg[low_idx])])
        violation = yg[i] - yg[j]
        if violation <= tol:
            converged = True
            break

        curvature = k[i, i] + k[j, j] - 2.0 * k[i, j]
        if curvature <= 0:
            curvature = 1e-12
        step = violation / curvature
        step = min(step, c - alpha[i] if y[i] > 0 else alpha[i])
        step = min(step, alpha[j] if y[j] > 0 else c - alpha[j])

        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        grad += step * y * (k[:, i] - k[:, j])
        updates += 1

    yg = -(y * grad)
    up = ((y > 0) & (alpha < c - box_eps)) | ((y < 0) & (alpha > box_eps))
    low = ((y < 0) & (alpha < c - box_eps)) | ((y > 0) & (alpha > box_eps))
    if up.any() and low.any():
        m_up = float(np.max(yg[up]))
        m_low = float(np.min(yg[low]))
        bias = (m_up + m_low) / 2.0
        residual = max(m_up - m_low, 0.0)
    else:
        bias = float(np.mean(yg))
        residual = 0.0
    return SimpleNamespace(
        y=y,
        alpha=alpha,
        bias=bias,
        support=np.flatnonzero(alpha > 1e-10),
        kkt_residual=residual,
        updates=updates,
        cap_hit=not converged,
    )


def reference_ovr_predict(classes, decision_values) -> np.ndarray:
    """Class of the largest one-vs-rest decision value per row; ties go to the first."""
    classes = np.asarray(classes)
    return np.array([int(classes[int(np.argmax(row))]) for row in np.asarray(decision_values)])


def random_graph(rng: np.random.Generator, n: int, p: float, labels: bool = False) -> Graph:
    """Erdos-Renyi style graph; optional random small-integer node labels."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    node_labels = rng.integers(0, 4, size=n).tolist() if labels else None
    return Graph(n, edges, node_labels)


def random_connected_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Random graph conditioned on connectivity (resamples until connected)."""
    for _ in range(1000):
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g
    raise RuntimeError("failed to sample a connected graph; raise p")


def is_connected(g: Graph) -> bool:
    if g.node_count == 0:
        return True
    seen = {0}
    frontier = [0]
    nbrs = neighbour_lists(g)
    while frontier:
        node = frontier.pop()
        for other in nbrs[node]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return len(seen) == g.node_count


def permute_graph(g: Graph, perm: np.ndarray) -> Graph:
    """Relabel nodes by permutation: new id of old node i is perm[i]."""
    edges = [(int(perm[i]), int(perm[j])) for i, j in g.edges]
    labels = None
    if g.node_labels is not None:
        labels = [0] * g.node_count
        for old, new in enumerate(perm):
            labels[int(new)] = g.node_labels[old]
    return Graph(g.node_count, edges, labels)


def reference_simple_edges(n: int, edges) -> tuple[tuple[int, int], ...] | None:
    """Canonical edge tuple of a simple graph on ``n`` nodes, through a set of
    frozensets; None if ``n`` is negative, an endpoint lies outside [0, n), an
    edge is a self-loop, or an undirected edge is listed twice."""
    seen: set[frozenset[int]] = set()
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            return None
        seen.add(frozenset((i, j)))
    if n < 0 or len(seen) != len(edges):
        return None
    return tuple(sorted((min(e), max(e)) for e in seen))


def reference_normalized_laplacian(g: Graph) -> np.ndarray:
    """I - D^{-1/2} A D^{-1/2} with scalar degree and per-edge loops."""
    n = g.node_count
    deg = np.zeros(n, dtype=np.int64)
    for i, j in g.edges:
        deg[i] += 1
        deg[j] += 1
    deg = deg.astype(float)
    lap = np.zeros((n, n))
    for i in range(n):
        if deg[i] > 0:
            lap[i, i] = 1.0
    for i, j in g.edges:
        w = -1.0 / np.sqrt(deg[i] * deg[j])
        lap[i, j] = w
        lap[j, i] = w
    return lap


def reference_subgraph(g: Graph, kept: np.ndarray) -> Graph:
    """Induced subgraph through a dict from kept source ids to new ids."""
    kept = np.asarray(kept, dtype=bool)
    old_ids = np.flatnonzero(kept)
    remap = {int(old): new for new, old in enumerate(old_ids)}
    edges = [
        (remap[i], remap[j]) for i, j in g.edges if kept[i] and kept[j]
    ]
    labels = None
    if g.node_labels is not None:
        labels = tuple(g.node_labels[int(i)] for i in old_ids)
    return Graph(len(old_ids), edges, labels)


# The library's auto regime bounds, restated: taylor2 below the small time,
# fiedler past FIEDLER_TIME_FACTOR / lambda_1 for a lambda_1 above the clamp.
SMALL_TIME_DEFAULT = 0.1
FIEDLER_TIME_FACTOR = 10.0
EIGENVALUE_CLAMP = 1e-9


def reference_heat_method(spec, t: float) -> str:
    """The auto pick: taylor2 at small t, fiedler at large t, exact between."""
    if t < SMALL_TIME_DEFAULT:
        return METHOD_TAYLOR2
    if spec.n >= 2:
        lam1 = spec.eigenvalues[1]
        if lam1 > EIGENVALUE_CLAMP and t > FIEDLER_TIME_FACTOR / lam1:
            return METHOD_FIEDLER
    return METHOD_EXACT


def reference_heat_kernel(lap: np.ndarray, spec, t: float, method: str = METHOD_EXACT) -> SimpleNamespace:
    """The n x n kernel (``t``, ``matrix``, ``method``) from each method's matrix formula:
    Phi e^{-t Lambda} Phi^T, I - tL + (tL)^2/2, and I - e^{-lambda_1 t} phi_1 phi_1^T
    (the identity at t = 0, the exact kernel below 2 nodes)."""
    if method == METHOD_AUTO:
        method = reference_heat_method(spec, t)
    if method == METHOD_EXACT or (method == METHOD_FIEDLER and spec.n < 2):
        decay = np.exp(-t * spec.eigenvalues)
        matrix = (spec.eigenvectors * decay) @ spec.eigenvectors.T
        return SimpleNamespace(t=t, matrix=matrix, method=METHOD_EXACT)
    if method == METHOD_TAYLOR2:
        n = lap.shape[0]
        tl = t * lap
        matrix = np.eye(n) - tl + 0.5 * (tl @ tl)
        return SimpleNamespace(t=t, matrix=matrix, method=METHOD_TAYLOR2)
    n = spec.n
    if t == 0:
        return SimpleNamespace(t=0.0, matrix=np.eye(n), method=METHOD_FIEDLER)
    lam1 = spec.eigenvalues[1]
    phi1 = spec.eigenvectors[:, 1]
    matrix = np.eye(n) - np.exp(-lam1 * t) * np.outer(phi1, phi1)
    return SimpleNamespace(t=t, matrix=matrix, method=METHOD_FIEDLER)


def reference_heat_state(hk: SimpleNamespace, u0: float) -> SimpleNamespace:
    """The kernel applied to u0 on every node: the ``t`` and ``heat`` of a heat state."""
    return SimpleNamespace(t=hk.t, heat=hk.matrix @ np.full(hk.matrix.shape[0], float(u0)))


def reference_spectrum(lap: np.ndarray) -> SimpleNamespace:
    """``n``, ``eigenvalues`` and ``eigenvectors`` of numpy's ``eigh`` as it comes: no clamp
    of small negative eigenvalues and no residual check."""
    w, v = np.linalg.eigh(lap)
    return SimpleNamespace(n=len(w), eigenvalues=w, eigenvectors=v)


def reference_boltzmann_weights(heat, a: float) -> list[float]:
    """Each node's Boltzmann weight under energy a*x + b, divided by the largest:
    ``exp(-a h - max(-a h))``, one Python float at a time. The bias cancels."""
    logits = [-float(a) * float(h) for h in heat]
    top = max(logits, default=0.0)
    return [math.exp(x - top) for x in logits]


def _reference_drop_node(g: Graph, weights: list[float], rng: np.random.Generator):
    draws = rng.random(g.node_count)
    keep = np.array([u < w for u, w in zip(draws, weights)], dtype=bool)
    return reference_subgraph(g, keep), keep


def reference_generate_episode(
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
    """Episode with one eigendecomposition per Laplacian, read or not."""
    times = np.asarray(times, dtype=float)
    a = (BoltzmannConfig() if cfg is None else cfg).a

    snapshots: list[Graph] = []
    masks: list[np.ndarray] = []

    def weights(lap: np.ndarray, spec: SimpleNamespace, t: float) -> list[float]:
        hk = reference_heat_kernel(lap, spec, t, method)
        return reference_boltzmann_weights(reference_heat_state(hk, u0).heat, a)

    if not cumulative:
        lap = reference_normalized_laplacian(g)
        spec = reference_spectrum(lap)
        for k, t in enumerate(times):
            snap, keep = _reference_drop_node(g, weights(lap, spec, float(t)), snapshot_rng(seed, graph_index, k))
            snapshots.append(snap)
            masks.append(keep)
    else:
        current = g
        src_ids = np.arange(g.node_count)
        for k, t in enumerate(times):
            dt = float(t if k == 0 else t - times[k - 1])
            if current.node_count == 0:
                snapshots.append(current)
                masks.append(np.zeros(g.node_count, dtype=bool))
                continue
            lap = reference_normalized_laplacian(current)
            step = weights(lap, reference_spectrum(lap), dt)
            snap, keep_local = _reference_drop_node(current, step, snapshot_rng(seed, graph_index, k))
            src_ids = src_ids[keep_local]
            mask = np.zeros(g.node_count, dtype=bool)
            mask[src_ids] = True
            snapshots.append(snap)
            masks.append(mask)
            current = snap

    return TemporalEpisode(source=g, times=times, snapshots=snapshots, seed=int(seed), kept_masks=masks)


def _reference_read_lines(path: Path) -> list[str]:
    if not path.is_file():
        raise DatasetError(f"missing file {path}")
    return path.read_text().splitlines()


def _reference_parse_int(text: str, path: Path, line_no: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise DatasetError(f"{path.name} line {line_no}: expected an integer, got {text!r}") from None


def _reference_read_ints(path: Path) -> list[tuple[int, int]]:
    """(line number, integer) of each non-blank line."""
    return [(ln, _reference_parse_int(text, path, ln)) for ln, text in enumerate(_reference_read_lines(path), start=1) if text.strip()]


def reference_load_tu_dataset(directory, name: str) -> GraphDataset:
    """Load dataset ``name`` from ``directory``.

    Node ids are reindexed to 0-based ids local to their graph, the doubled
    directed edges are collapsed to one undirected edge, self-loops are
    dropped, and graph labels are remapped to contiguous 0-based class ids.
    Graphs without a node-label file get their degree as label.
    """
    directory = Path(directory)

    # The number of graph labels bounds the graph ids, and so every per-graph array.
    labels_path = directory / f"{name}_graph_labels.txt"
    raw_labels = [label for _, label in _reference_read_ints(labels_path)]

    indicator_path = directory / f"{name}_graph_indicator.txt"
    graph_of_node: list[int] = []
    for ln, gid in _reference_read_ints(indicator_path):
        if gid < 1:
            raise DatasetError(f"{indicator_path.name} line {ln}: graph id {gid} is not 1-based")
        if gid > len(raw_labels):
            raise DatasetError(
                f"{indicator_path.name} line {ln}: graph id {gid} exceeds the "
                f"{len(raw_labels)} graph labels of {labels_path.name}"
            )
        graph_of_node.append(gid - 1)
    if not graph_of_node:
        raise DatasetError(f"{indicator_path.name}: no nodes listed")
    n_graphs = max(graph_of_node) + 1

    # Global 1-based node id -> (graph, local 0-based id).
    local_id = np.zeros(len(graph_of_node), dtype=np.int64)
    node_counts = np.zeros(n_graphs, dtype=np.int64)
    for node, gid in enumerate(graph_of_node):
        local_id[node] = node_counts[gid]
        node_counts[gid] += 1

    edges_path = directory / f"{name}_A.txt"
    edge_sets: list[set[tuple[int, int]]] = [set() for _ in range(n_graphs)]
    for ln, text in enumerate(_reference_read_lines(edges_path), start=1):
        if not text.strip():
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise DatasetError(f"{edges_path.name} line {ln}: expected 'row, col', got {text!r}")
        u = _reference_parse_int(parts[0], edges_path, ln)
        v = _reference_parse_int(parts[1], edges_path, ln)
        if not (1 <= u <= len(graph_of_node)) or not (1 <= v <= len(graph_of_node)):
            raise DatasetError(f"{edges_path.name} line {ln}: node id out of range in ({u}, {v})")
        gu, gv = graph_of_node[u - 1], graph_of_node[v - 1]
        if gu != gv:
            raise DatasetError(
                f"{edges_path.name} line {ln}: edge ({u}, {v}) joins graph {gu + 1} to graph {gv + 1}"
            )
        a, b = int(local_id[u - 1]), int(local_id[v - 1])
        if a != b:
            edge_sets[gu].add((min(a, b), max(a, b)))

    if len(raw_labels) != n_graphs:
        raise DatasetError(
            f"{labels_path.name}: {len(raw_labels)} labels for {n_graphs} graphs"
        )
    class_of = {lab: k for k, lab in enumerate(sorted(set(raw_labels)))}
    labels = np.array([class_of[lab] for lab in raw_labels], dtype=np.int64)

    node_labels_path = directory / f"{name}_node_labels.txt"
    node_labels: list[list[int]] | None = None
    if node_labels_path.is_file():
        node_labels = [[] for _ in range(n_graphs)]
        values = [label for _, label in _reference_read_ints(node_labels_path)]
        if len(values) != len(graph_of_node):
            raise DatasetError(
                f"{node_labels_path.name}: {len(values)} labels for {len(graph_of_node)} nodes"
            )
        for node, value in enumerate(values):
            node_labels[graph_of_node[node]].append(value)

    if node_labels is None:
        # Standard fallback: a node's degree stands in for its label.
        node_labels = [
            np.bincount([end for edge in edges for end in edge], minlength=n).tolist()
            for n, edges in zip(node_counts, edge_sets)
        ]
    graphs = [Graph(n, edges, labels) for n, edges, labels in zip(node_counts, edge_sets, node_labels)]
    return GraphDataset(graphs=graphs, labels=labels, name=name)
