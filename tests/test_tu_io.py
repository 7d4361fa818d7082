from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evokernel.errors import DatasetError
from evokernel.graphs import Graph
from evokernel.tu_io import load_tu_dataset

from .conftest import write_tu_fixture
from .oracles import reference_load_tu_dataset


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


@pytest.mark.parametrize(
    "tail, message",
    [
        ("1, 5\n1, 99\n", "line 7: edge (1, 5) joins graph 1 to graph 2"),
        ("1, 99\n1, 5\n", "line 7: node id out of range in (1, 99)"),
        ("\n \n1, 5\nbanana\n", "line 9: edge (1, 5) joins"),
        ("1, 1_0\n1, 5\n", "line 7: node id out of range in (1, 10)"),
        ("1 2\n1, 99\n", "line 7: expected 'row, col', got '1 2'"),
    ],
)
def test_first_faulty_edge_line_wins(tmp_path, tail, message):
    directory = _two_graph_dir(tmp_path)
    edges_file = directory / "TINY_A.txt"
    edges_file.write_text(edges_file.read_text() + tail)
    with pytest.raises(DatasetError, match=re.escape(f"TINY_A.txt {message}")):
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


def test_non_utf8_byte_is_a_dataset_error_naming_the_file(tmp_path):
    directory = _two_graph_dir(tmp_path)
    node_labels = directory / "TINY_node_labels.txt"
    node_labels.write_bytes(b"\xff" + node_labels.read_bytes())
    with pytest.raises(DatasetError, match=r"TINY_node_labels\.txt: not UTF-8"):
        load_tu_dataset(directory, "TINY")


@pytest.mark.parametrize("text", ["", "\n", " \n\t\n\r\n"])
def test_empty_or_blank_edge_file_loads_edgeless_graphs_without_warning(tmp_path, text):
    directory = _two_graph_dir(tmp_path)
    (directory / "TINY_A.txt").write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = load_tu_dataset(directory, "TINY")
    assert [g.edges for g in ds.graphs] == [(), ()]
    assert [g.node_labels for g in ds.graphs] == [(3, 3), (1, 2, 1)]


def test_mutag_loads_as_the_reference(mutag_dir, mutag):
    expected = reference_load_tu_dataset(mutag_dir, "MUTAG")
    assert mutag.graphs == expected.graphs
    assert np.array_equal(mutag.labels, expected.labels)


_BIG = [2**63 - 1, 2**63, -(2**63) - 1, 2**70]


def _integer_text(draw, value: int) -> str:
    """``value`` as a line of a TU file may spell it."""
    text = str(value)
    spellings = [text, f" {text}\t"]
    if value >= 0:
        spellings.append(f"+{text}")
    if len(text) > 1 and text.isdigit():
        spellings.append(f"{text[0]}_{text[1:]}")
    return draw(st.sampled_from(spellings))


def _lines(draw, rows: list[str]) -> str:
    """Rows with blank lines among them, sometimes a faulty line or two, and either line end."""
    blanks = st.sampled_from(["", "  ", "\t", " \t "])
    faults = st.sampled_from(["banana", "1.5", "0x1", "1,", "1, 2, 3", "7 8", "-", "0", "99", "99, 1", "1, 99"])
    out = []
    for row in rows:
        out += draw(st.lists(blanks, max_size=1))
        out.append(row)
    out += draw(st.lists(blanks, max_size=2))
    if draw(st.integers(0, 5)) == 5:
        for at in draw(st.lists(st.integers(0, len(out)), min_size=1, max_size=2)):
            out.insert(at, draw(faults))
    return draw(st.sampled_from(["\n", "\r\n"])).join(out) + draw(st.sampled_from(["", "\n"]))


@st.composite
def tu_directories(draw):
    """File suffix -> text of a small TU dataset: unsorted graph ids with gaps, self-loops,
    one or both directions of an edge, labels beyond int64, sometimes no node labels,
    and sometimes faulty lines."""
    labels = st.integers(-3, 3) | st.sampled_from(_BIG)
    n_graphs = draw(st.integers(1, 4))
    gids = draw(st.lists(st.integers(1, n_graphs), min_size=1, max_size=10))
    if draw(st.integers(0, 9)):
        gids[draw(st.integers(0, len(gids) - 1))] = n_graphs
    n = len(gids)
    edges = []
    for u, v in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=14)):
        if gids[u - 1] == gids[v - 1] or not draw(st.integers(0, 8)):
            edges.append((u, v))
            if draw(st.booleans()):
                edges.append((v, u))
    gaps = st.sampled_from(["", " ", "  ", "\t"])
    files = {
        "graph_labels": [_integer_text(draw, x) for x in draw(st.lists(labels, min_size=n_graphs, max_size=n_graphs))],
        "graph_indicator": [_integer_text(draw, g) for g in gids],
        "A": [_integer_text(draw, u) + "," + draw(gaps) + _integer_text(draw, v) for u, v in edges],
    }
    if draw(st.booleans()):
        count = n + draw(st.sampled_from([0] * 20 + [-1, 1]))
        files["node_labels"] = [_integer_text(draw, x) for x in draw(st.lists(labels, min_size=count, max_size=count))]
    return {suffix: _lines(draw, rows) for suffix, rows in files.items()}


def _load(loader, directory):
    try:
        return loader(directory, "GEN")
    except DatasetError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(files=tu_directories())
def test_loader_equals_the_per_line_reference(tmp_path_factory, files):
    directory = tmp_path_factory.mktemp("GEN")
    for suffix, text in files.items():
        (directory / f"GEN_{suffix}.txt").write_bytes(text.encode())
    got, expected = _load(load_tu_dataset, directory), _load(reference_load_tu_dataset, directory)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got.graphs == expected.graphs
        assert got.labels.dtype == np.int64 and np.array_equal(got.labels, expected.labels)
