"""Benchmark inputs, written as TU text files for the program to load.

Two kinds: a deterministic synthetic dataset, and a fixed subset of the
vendored MUTAG files. Every writer returns a record of what it wrote,
including the SHA-256 of each file, so a run's inputs can be identified from
its output.

Synthetic graph ``i`` belongs to class ``i % classes``. It is a ring of ``n``
nodes plus random chords: each non-ring pair becomes an edge with probability
``(2 + 0.5 * c) / n``, so the chord density rises with the class ``c``. Each
node label equals the class with probability ``label_bias`` and is otherwise
uniform over ``labels`` values. Both signals are noisy, so accuracy lands well
above chance but below one. The node counts are spread evenly over
``[min_nodes, max_nodes]`` and shuffled, so every seed gives the same total
amount of heat and embedding work, and run times differ little between seeds.

Everything is drawn from one ``numpy`` generator seeded with ``seed``; the
same arguments give byte-identical files.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class SynthSpec:
    graphs: int
    classes: int
    min_nodes: int
    max_nodes: int
    labels: int = 4
    label_bias: float = 0.3


def _graph(rng: np.random.Generator, n: int, cls: int, spec: SynthSpec):
    ring = [(j, (j + 1) % n) for j in range(n)]
    iu, ju = np.triu_indices(n, k=1)
    off_ring = (ju - iu != 1) & ~((iu == 0) & (ju == n - 1))
    iu, ju = iu[off_ring], ju[off_ring]
    chord = rng.random(iu.size) < (2.0 + 0.5 * cls) / n
    edges = ring + list(zip(iu[chord].tolist(), ju[chord].tolist()))
    biased = rng.random(n) < spec.label_bias
    labels = np.where(biased, cls % spec.labels, rng.integers(0, spec.labels, n))
    return edges, labels.tolist()


def generate(seed: int, spec: SynthSpec) -> dict[str, str]:
    """File suffix (``A``, ``graph_indicator``, ...) -> file text."""
    rng = np.random.default_rng(seed)
    a_lines, indicator, graph_labels, node_labels = [], [], [], []
    sizes = rng.permutation(np.linspace(spec.min_nodes, spec.max_nodes, spec.graphs).round())
    offset = 0
    for gid in range(spec.graphs):
        cls = gid % spec.classes
        n = int(sizes[gid])
        edges, labels = _graph(rng, n, cls, spec)
        for u, v in edges:
            a_lines.append(f"{offset + u + 1}, {offset + v + 1}")
            a_lines.append(f"{offset + v + 1}, {offset + u + 1}")
        indicator.extend([str(gid + 1)] * n)
        node_labels.extend(str(lab) for lab in labels)
        graph_labels.append(str(cls + 1))
        offset += n
    return {
        "A": "\n".join(a_lines) + "\n",
        "graph_indicator": "\n".join(indicator) + "\n",
        "graph_labels": "\n".join(graph_labels) + "\n",
        "node_labels": "\n".join(node_labels) + "\n",
    }


def _write(directory: Path, name: str, files: dict[str, str]) -> dict[str, str]:
    hashes = {}
    for suffix, text in files.items():
        path = directory / f"{name}_{suffix}.txt"
        path.write_text(text)
        hashes[path.name] = hashlib.sha256(text.encode()).hexdigest()
    return hashes


def write_synthetic(directory: Path, name: str, seed: int, spec: SynthSpec) -> dict:
    """Write the synthetic dataset of ``seed`` as ``<name>_<suffix>.txt``."""
    hashes = _write(directory, name, generate(seed, spec))
    return {"generator": "ring+chords", "seed": seed, **asdict(spec), "sha256": hashes}


def file_hashes(directory: Path, name: str) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob(f"{name}_*.txt"))
    }


def write_subset(source: Path, name: str, stride: int, directory: Path, new_name: str) -> dict:
    """Copy every ``stride``-th graph (the 1st, the ``stride + 1``-th, ...) of a
    TU dataset with node labels, renumbering nodes and graphs."""

    def lines(suffix):
        return [t for t in (source / f"{name}_{suffix}.txt").read_text().splitlines() if t.strip()]

    graph_of = [int(t) - 1 for t in lines("graph_indicator")]
    new_id, indicator, node_labels = {}, [], []
    for node, (gid, label) in enumerate(zip(graph_of, lines("node_labels")), start=1):
        if gid % stride == 0:
            new_id[node] = len(new_id) + 1
            indicator.append(str(gid // stride + 1))
            node_labels.append(label.strip())
    edges = []
    for text in lines("A"):
        u, v = (int(x) for x in text.split(","))
        if u in new_id:
            edges.append(f"{new_id[u]}, {new_id[v]}")
    graph_labels = lines("graph_labels")[::stride]
    files = {
        "A": edges,
        "graph_indicator": indicator,
        "graph_labels": [t.strip() for t in graph_labels],
        "node_labels": node_labels,
    }
    hashes = _write(directory, new_name, {k: "\n".join(v) + "\n" for k, v in files.items()})
    return {"source": name, "stride": stride, "graphs": len(graph_labels), "sha256": hashes}
