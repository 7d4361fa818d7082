"""Reader for benchmark graph collections in the TU-Dortmund text format.

A dataset named DS in directory ``dir`` consists of:

    DS_A.txt                one "row, col" pair per line, 1-based node ids;
                            undirected edges appear in both directions
    DS_graph_indicator.txt  one 1-based graph id per node line
    DS_graph_labels.txt     one integer class label per graph
    DS_node_labels.txt      optional, one integer label per node

Whitespace around commas is tolerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DatasetError
from .graphs import Graph


@dataclass
class GraphDataset:
    """Graphs plus aligned class ids remapped to a contiguous 0-based range."""

    graphs: list[Graph]
    labels: np.ndarray
    name: str

    @property
    def class_count(self) -> int:
        return len(set(self.labels.tolist()))

    @property
    def mean_nodes(self) -> float:
        return float(np.mean([g.node_count for g in self.graphs]))

    @property
    def mean_edges(self) -> float:
        return float(np.mean([g.edge_count for g in self.graphs]))


def _read_lines(path: Path) -> list[str]:
    if not path.is_file():
        raise DatasetError(f"missing file {path}")
    return path.read_text().splitlines()


def _parse_int(text: str, path: Path, line_no: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise DatasetError(f"{path.name} line {line_no}: expected an integer, got {text!r}") from None


def _read_ints(path: Path) -> list[tuple[int, int]]:
    """(line number, integer) of each non-blank line."""
    return [(ln, _parse_int(text, path, ln)) for ln, text in enumerate(_read_lines(path), start=1) if text.strip()]


def load_tu_dataset(directory, name: str) -> GraphDataset:
    """Load dataset ``name`` from ``directory``.

    Node ids are reindexed to 0-based ids local to their graph, the doubled
    directed edges are collapsed to one undirected edge, self-loops are
    dropped, and graph labels are remapped to contiguous 0-based class ids.
    Graphs without a node-label file get their degree as label.
    """
    directory = Path(directory)

    # The number of graph labels bounds the graph ids, and so every per-graph array.
    labels_path = directory / f"{name}_graph_labels.txt"
    raw_labels = [label for _, label in _read_ints(labels_path)]

    indicator_path = directory / f"{name}_graph_indicator.txt"
    graph_of_node: list[int] = []
    for ln, gid in _read_ints(indicator_path):
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
    for ln, text in enumerate(_read_lines(edges_path), start=1):
        if not text.strip():
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise DatasetError(f"{edges_path.name} line {ln}: expected 'row, col', got {text!r}")
        u = _parse_int(parts[0], edges_path, ln)
        v = _parse_int(parts[1], edges_path, ln)
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
        values = [label for _, label in _read_ints(node_labels_path)]
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
