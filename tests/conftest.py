from __future__ import annotations

from pathlib import Path

import pytest

from evokernel.graphs import Graph
from evokernel.tu_io import load_tu_dataset

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def k2() -> Graph:
    return Graph(2, [(0, 1)])


@pytest.fixture
def p3() -> Graph:
    return Graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def c4() -> Graph:
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def star(leaves: int) -> Graph:
    """Node 0 is the hub."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def triangle() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def star4() -> Graph:
    return star(3)


@pytest.fixture(scope="session")
def mutag_dir() -> Path:
    path = DATA_DIR / "MUTAG"
    if not (path / "MUTAG_A.txt").is_file():
        pytest.skip(f"MUTAG files not present under {path}")
    return path


@pytest.fixture(scope="session")
def mutag(mutag_dir):
    return load_tu_dataset(mutag_dir, "MUTAG")


def write_tu_fixture(directory: Path, name: str, graphs: list[Graph], labels, node_labels=True) -> Path:
    """Write graphs in the benchmark text format (doubled directed edges)."""
    directory.mkdir(parents=True, exist_ok=True)
    indicator = []
    edge_lines = []
    label_lines = []
    offset = 0
    for gid, g in enumerate(graphs, start=1):
        indicator.extend([str(gid)] * g.node_count)
        for i, j in g.edges:
            edge_lines.append(f"{offset + i + 1}, {offset + j + 1}")
            edge_lines.append(f"{offset + j + 1}, {offset + i + 1}")
        if node_labels:
            source = g.node_labels if g.node_labels is not None else g.degrees().tolist()
            label_lines.extend(str(int(x)) for x in source)
        offset += g.node_count
    (directory / f"{name}_A.txt").write_text("\n".join(edge_lines) + "\n")
    (directory / f"{name}_graph_indicator.txt").write_text("\n".join(indicator) + "\n")
    (directory / f"{name}_graph_labels.txt").write_text("\n".join(str(int(x)) for x in labels) + "\n")
    if node_labels:
        (directory / f"{name}_node_labels.txt").write_text("\n".join(label_lines) + "\n")
    return directory
