from __future__ import annotations

import pytest

from evokernel.errors import DatasetError
from evokernel.graphs import Graph
from evokernel.tu_io import load_tu_dataset

from .conftest import write_tu_fixture


def _two_graph_dir(tmp_path, node_labels=True):
    k2 = Graph(2, [(0, 1)], node_labels=[3, 3] if node_labels else None)
    p3 = Graph(3, [(0, 1), (1, 2)], node_labels=[1, 2, 1] if node_labels else None)
    return write_tu_fixture(tmp_path / "TINY", "TINY", [k2, p3], labels=[7, 9], node_labels=node_labels)


def test_two_graph_fixture_roundtrip(tmp_path):
    ds = load_tu_dataset(_two_graph_dir(tmp_path), "TINY")
    assert len(ds.graphs) == 2
    assert ds.labels.tolist() == [0, 1]
    assert ds.graphs[0].edges == ((0, 1),)
    assert ds.graphs[1].edges == ((0, 1), (1, 2))
    assert ds.graphs[0].node_labels == (3, 3)
    assert ds.graphs[1].node_labels == (1, 2, 1)
    assert ds.name == "TINY"


def test_degree_fallback_when_no_node_labels(tmp_path):
    ds = load_tu_dataset(_two_graph_dir(tmp_path, node_labels=False), "TINY")
    assert ds.graphs[0].node_labels == (1, 1)
    assert ds.graphs[1].node_labels == (1, 2, 1)


def test_doubled_directed_edges_collapse(tmp_path):
    ds = load_tu_dataset(_two_graph_dir(tmp_path), "TINY")
    assert ds.graphs[0].edge_count == 1
    assert ds.mean_edges == pytest.approx(1.5)


def test_self_loop_lines_are_dropped(tmp_path):
    directory = _two_graph_dir(tmp_path)
    edges_file = directory / "TINY_A.txt"
    edges_file.write_text("1, 1\n" + edges_file.read_text() + "4, 4\n")
    ds = load_tu_dataset(directory, "TINY")
    assert ds.graphs[0].edges == ((0, 1),)
    assert ds.graphs[1].edges == ((0, 1), (1, 2))


def test_missing_file_is_ingestion_error(tmp_path):
    directory = _two_graph_dir(tmp_path)
    (directory / "TINY_graph_labels.txt").unlink()
    with pytest.raises(DatasetError, match="missing file"):
        load_tu_dataset(directory, "TINY")


def test_cross_graph_edge_reports_line_number(tmp_path):
    directory = _two_graph_dir(tmp_path)
    edges_file = directory / "TINY_A.txt"
    edges_file.write_text(edges_file.read_text() + "1, 5\n")
    with pytest.raises(DatasetError, match=r"TINY_A\.txt line 7"):
        load_tu_dataset(directory, "TINY")


def test_node_id_out_of_range_reports_line_number(tmp_path):
    directory = _two_graph_dir(tmp_path)
    edges_file = directory / "TINY_A.txt"
    edges_file.write_text(edges_file.read_text() + "1, 99\n")
    with pytest.raises(DatasetError, match="line 7"):
        load_tu_dataset(directory, "TINY")


def test_graph_id_beyond_the_labels_is_refused_before_sizing(tmp_path):
    directory = _two_graph_dir(tmp_path)
    indicator = directory / "TINY_graph_indicator.txt"
    indicator.write_text(indicator.read_text() + "3000000000\n")
    with pytest.raises(DatasetError, match=r"indicator\.txt line 6: graph id 3000000000 exceeds the 2"):
        load_tu_dataset(directory, "TINY")


def test_malformed_integer_reports_line_number(tmp_path):
    directory = _two_graph_dir(tmp_path)
    (directory / "TINY_graph_labels.txt").write_text("7\nbanana\n")
    with pytest.raises(DatasetError, match="line 2"):
        load_tu_dataset(directory, "TINY")


def test_whitespace_around_commas_tolerated(tmp_path):
    directory = _two_graph_dir(tmp_path)
    edges_file = directory / "TINY_A.txt"
    edges_file.write_text(edges_file.read_text().replace(", ", " ,  "))
    ds = load_tu_dataset(directory, "TINY")
    assert ds.graphs[0].edges == ((0, 1),)


def test_mutag_statistics(mutag):
    assert len(mutag.graphs) == 188
    assert mutag.class_count == 2
    assert mutag.mean_nodes == pytest.approx(17.93, abs=0.01)
    assert mutag.mean_edges == pytest.approx(19.79, abs=0.01)
    assert sorted(set(mutag.labels.tolist())) == [0, 1]


def test_mutag_graphs_satisfy_invariants(mutag):
    import numpy as np

    from evokernel.graphs import normalized_laplacian

    for g in mutag.graphs:
        assert g.node_labels is not None
        lap = normalized_laplacian(g)
        assert np.max(np.abs(lap - lap.T)) <= 1e-12
        eigs = np.linalg.eigvalsh(lap)
        assert eigs[0] >= -1e-9 and eigs[-1] <= 2.0 + 1e-9


def test_proteins_statistics_when_available():
    from .conftest import DATA_DIR

    path = DATA_DIR / "PROTEINS"
    if not (path / "PROTEINS_A.txt").is_file():
        pytest.skip("PROTEINS files not vendored")
    ds = load_tu_dataset(path, "PROTEINS")
    assert len(ds.graphs) == 1113
    assert ds.mean_nodes == pytest.approx(39.06, abs=0.01)
