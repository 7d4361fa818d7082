"""Reader for benchmark graph collections in the TU-Dortmund text format.

A dataset named DS in directory ``dir`` consists of:

    DS_A.txt                one "row, col" pair per line, 1-based node ids;
                            undirected edges appear in both directions
    DS_graph_indicator.txt  one 1-based graph id per node line
    DS_graph_labels.txt     one integer class label per graph
    DS_node_labels.txt      optional, one integer label per node

Files are UTF-8 text; blank lines are skipped, and whitespace may surround a
value or the comma. A file that is not UTF-8 or has a faulty line raises
``DatasetError`` naming the file and, for a line, the first faulty one.
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


def _parse_int(text: str, path: Path, line_no: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise DatasetError(f"{path.name} line {line_no}: expected an integer, got {text!r}") from None


def _read_table(path: Path, columns: int):
    """The integers of the non-blank lines of ``path``, one row per line, its lines, and a fault.

    numpy's C reader parses the file if it accepts every line; else ``_parse_int`` reads it line
    by line, and a value beyond int64 makes the rows an object array. Both see ``str.splitlines``.
    A faulty line raises in a one-column file. In a two-column file the rows stop above it and
    its ``DatasetError`` is the fault, else None, so that the caller can report an earlier row.
    """
    if not path.is_file():
        raise DatasetError(f"missing file {path}")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path.name}: not UTF-8 text, {exc.reason} at byte {exc.start}") from None
    if any(lines):  # numpy warns on a file without data
        try:
            table = np.loadtxt(lines, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
            if table.shape[1] == columns:
                return table, lines, None
        except ValueError:
            pass
    rows = []
    for ln, text in enumerate(lines, start=1):
        if not text.strip():
            continue
        parts = text.split(",") if columns == 2 else [text]
        try:
            if len(parts) != columns:
                raise DatasetError(f"{path.name} line {ln}: expected 'row, col', got {text!r}")
            rows.append([_parse_int(part, path, ln) for part in parts])
        except DatasetError as fault:
            if columns == 1:
                raise
            return np.array(rows, dtype=object).reshape(-1, columns), lines, fault
    return np.array(rows, dtype=object).reshape(-1, columns), lines, None


def _line_error(path: Path, lines: list[str], row: int, what: str) -> DatasetError:
    """The error ``what`` on the line of ``path`` that holds row ``row`` of ``_read_table``."""
    ln = [ln for ln, text in enumerate(lines, start=1) if text.strip()][row]
    return DatasetError(f"{path.name} line {ln}: {what}")


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
    raw_labels = _read_table(labels_path, 1)[0][:, 0].tolist()

    indicator_path = directory / f"{name}_graph_indicator.txt"
    table, lines, _ = _read_table(indicator_path, 1)
    gids = table[:, 0]
    bad = np.flatnonzero((gids < 1) | (gids > len(raw_labels)))
    if bad.size:
        gid = gids[bad[0]]
        what = "is not 1-based" if gid < 1 else f"exceeds the {len(raw_labels)} graph labels of {labels_path.name}"
        raise _line_error(indicator_path, lines, bad[0], f"graph id {gid} {what}")
    if not gids.size:
        raise DatasetError(f"{indicator_path.name}: no nodes listed")
    graph_of = gids.astype(np.int64) - 1
    n_nodes, n_graphs = graph_of.size, int(graph_of.max()) + 1

    # Global 0-based node id -> local 0-based id: its rank among its graph's nodes.
    by_graph = np.argsort(graph_of, kind="stable")
    node_counts = np.bincount(graph_of, minlength=n_graphs)
    local_id = np.argsort(by_graph) - (np.cumsum(node_counts) - node_counts)[graph_of]

    # The first faulty line wins: an id out of range, a cross-graph edge or a malformed line.
    edges_path = directory / f"{name}_A.txt"
    ends, lines, fault = _read_table(edges_path, 2)
    out_of_range = np.flatnonzero(((ends < 1) | (ends > n_nodes)).any(axis=1))
    pairs = ends[: out_of_range[0] if out_of_range.size else len(ends)].astype(np.int64) - 1
    crossing = np.flatnonzero(graph_of[pairs[:, 0]] != graph_of[pairs[:, 1]])
    if crossing.size:
        u, v = ends[crossing[0]]
        what = f"edge ({u}, {v}) joins graph {gids[u - 1]} to graph {gids[v - 1]}"
        raise _line_error(edges_path, lines, crossing[0], what)
    if out_of_range.size:
        u, v = ends[out_of_range[0]]
        raise _line_error(edges_path, lines, out_of_range[0], f"node id out of range in ({u}, {v})")
    if fault:
        raise fault

    if len(raw_labels) != n_graphs:
        raise DatasetError(f"{labels_path.name}: {len(raw_labels)} labels for {n_graphs} graphs")
    class_of = {lab: k for k, lab in enumerate(sorted(set(raw_labels)))}
    labels = np.array([class_of[lab] for lab in raw_labels], dtype=np.int64)

    # Each distinct key lo * n_nodes + hi of a pair that is no self-loop is one undirected edge.
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    keys = np.sort((lo * n_nodes + hi)[lo != hi])
    lo, hi = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n_nodes)
    edges = np.stack([local_id[lo], local_id[hi]], axis=1)[np.argsort(graph_of[lo], kind="stable")]
    edge_counts = np.bincount(graph_of[lo], minlength=n_graphs)

    node_labels_path = directory / f"{name}_node_labels.txt"
    if node_labels_path.is_file():
        values = _read_table(node_labels_path, 1)[0][:, 0]
        if len(values) != n_nodes:
            raise DatasetError(f"{node_labels_path.name}: {len(values)} labels for {n_nodes} nodes")
    else:  # the standard fallback: a node's degree stands in for its label
        values = np.bincount(np.concatenate([lo, hi]), minlength=n_nodes)
    runs = zip(np.split(edges, np.cumsum(edge_counts)[:-1]), np.split(values[by_graph], np.cumsum(node_counts)[:-1]))
    graphs = [Graph(n, e.tolist(), x.tolist()) for n, (e, x) in zip(node_counts.tolist(), runs)]
    return GraphDataset(graphs=graphs, labels=labels, name=name)
