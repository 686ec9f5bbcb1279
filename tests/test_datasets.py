import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngn.datasets import (
    GraphDataset,
    degree_features,
    initial_features,
    load_graph6,
    load_tu,
    synth_suites,
    ten_fold_split,
    write_graph6,
    write_tu,
)
from ngn.errors import ContractError, ParseError, ValidationError
from ngn.graph_core import ConcreteGraph, canonical_form, from_undirected
from ngn.srg import builtin_srg_25, srg_parameters

from helpers import cycle_graph, path_graph

MUTAG_DIR = Path(os.environ.get("NGN_DATA_DIR", "tests/data")) / "MUTAG"


def two_graph_fixture(tmp_path: Path) -> Path:
    """Hand-written two-graph dataset: a triangle and a single edge."""
    d = tmp_path / "TINY"
    d.mkdir()
    (d / "TINY_A.txt").write_text("1, 2\n2, 1\n2, 3\n3, 2\n1, 3\n3, 1\n4, 5\n5, 4\n")
    (d / "TINY_graph_indicator.txt").write_text("1\n1\n1\n2\n2\n")
    (d / "TINY_graph_labels.txt").write_text("1\n-1\n")
    (d / "TINY_node_labels.txt").write_text("0\n1\n0\n2\n2\n")
    return d


class TestTuLoader:
    def test_hand_written_fixture(self, tmp_path):
        ds = load_tu(two_graph_fixture(tmp_path))
        assert ds.name == "TINY"
        assert len(ds.graphs) == 2 and ds.n_classes == 2
        assert ds.graphs[0] == cycle_graph(0, 1, 2)
        assert ds.graphs[1] == from_undirected([0, 1], [(0, 1)])
        # labels remap to 0..C-1 by sorted distinct raw value: -1 -> 0, 1 -> 1
        assert list(ds.labels) == [1, 0]
        assert ds.node_labels == [[0, 1, 0], [2, 2]]

    def test_round_trip_through_writer(self, tmp_path):
        ds = load_tu(two_graph_fixture(tmp_path))
        out_dir = tmp_path / "copy"
        write_tu(ds, out_dir)
        again = load_tu(out_dir)
        assert [g.edges for g in again.graphs] == [g.edges for g in ds.graphs]
        assert list(again.labels) == list(ds.labels)
        assert again.node_labels == ds.node_labels

    def test_missing_file_reported(self, tmp_path):
        d = two_graph_fixture(tmp_path)
        (d / "TINY_graph_labels.txt").unlink()
        with pytest.raises(ParseError):
            load_tu(d)

    def test_ragged_edge_line_has_line_number(self, tmp_path):
        d = two_graph_fixture(tmp_path)
        (d / "TINY_A.txt").write_text("1, 2\n2 1\n")
        with pytest.raises(ParseError) as exc:
            load_tu(d)
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "file, what",
        [("graph_indicator", "graph indicator"), ("graph_labels", "graph label"), ("node_labels", "node label")],
    )
    def test_non_integer_line_names_its_kind_and_line(self, tmp_path, file, what):
        d = two_graph_fixture(tmp_path)
        path = d / f"TINY_{file}.txt"
        lines = path.read_text().splitlines()
        lines[1:2] = ["", "x"]  # a blank line is skipped, but counted
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"bad {what} 'x'") as exc:
            load_tu(d)
        assert exc.value.line == 3

    def test_out_of_range_indicator(self, tmp_path):
        d = two_graph_fixture(tmp_path)
        (d / "TINY_A.txt").write_text("1, 9\n")
        with pytest.raises(ParseError):
            load_tu(d)

    def test_self_loop_has_line_number(self, tmp_path):
        d = two_graph_fixture(tmp_path)
        (d / "TINY_A.txt").write_text("1, 2\n2, 1\n3, 3\n")
        with pytest.raises(ParseError, match=r"self-loop \(3, 3\)") as exc:
            load_tu(d)
        assert exc.value.line == 3

    def test_cross_graph_edge_rejected(self, tmp_path):
        d = two_graph_fixture(tmp_path)
        (d / "TINY_A.txt").write_text("1, 4\n")
        with pytest.raises(ParseError):
            load_tu(d)

    def test_loaded_edges_are_symmetric(self, tmp_path):
        ds = load_tu(two_graph_fixture(tmp_path))
        for g in ds.graphs:
            for i, j in g.edges:
                assert (j, i) in g.edges

    @pytest.mark.skipif(not MUTAG_DIR.exists(), reason="MUTAG data not present")
    def test_mutag_shape(self):
        ds = load_tu(MUTAG_DIR)
        assert len(ds.graphs) == 188
        assert ds.n_classes == 2
        assert abs(np.mean([g.n for g in ds.graphs]) - 17.9) < 0.05
        width = len({l for labs in ds.node_labels for l in labs})
        assert initial_features(ds, "onehot-label")[0].shape[1] == width


class TestGraph6:
    def test_k2_single_edge(self, tmp_path):
        path = tmp_path / "k2.g6"
        # n=2 and one edge: 'A' is n=2, '_' carries the single upper bit
        write_graph6([from_undirected([0, 1], [(0, 1)])], path)
        graphs = load_graph6(path)
        assert len(graphs) == 1
        assert graphs[0] == from_undirected([0, 1], [(0, 1)])

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(0)
        from helpers import random_graph

        graphs = [random_graph(rng, int(rng.integers(2, 30)), 0.4) for _ in range(12)]
        path = tmp_path / "batch.g6"
        write_graph6(graphs, path)
        loaded = load_graph6(path)
        assert len(loaded) == len(graphs)
        for a, b in zip(graphs, loaded):
            assert a.edges == b.edges

    @pytest.mark.parametrize(
        "g",
        [
            ConcreteGraph.build([0, 1, 2], [(0, 1), (1, 2)]),  # a directed path
            ConcreteGraph.build([0, 1], [(0, 1), (1, 0), (1, 1)], allow_self_loops=True),
        ],
        ids=["directed", "self-loop"],
    )
    def test_writer_rejects_what_graph6_cannot_hold(self, tmp_path, g):
        path = tmp_path / "bad.g6"
        with pytest.raises(ContractError):
            write_graph6([cycle_graph(0, 1, 2), g], path)
        assert not path.exists()

    def test_header_prefix_accepted(self, tmp_path):
        path = tmp_path / "h.g6"
        write_graph6([cycle_graph(0, 1, 2)], path)
        raw = path.read_text()
        path.write_text(">>graph6<<" + raw)
        assert load_graph6(path)[0] == cycle_graph(0, 1, 2)

    def test_malformed_header_byte(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("~~~B\n")  # long-form order marker, unsupported
        with pytest.raises(ParseError):
            load_graph6(path)
        path.write_text("B\n")  # n=3 but missing adjacency characters
        with pytest.raises(ParseError):
            load_graph6(path)

    def test_builtin_srg_round_trip_and_regularity(self, tmp_path):
        srgs = builtin_srg_25()
        assert len(srgs) == 3
        path = tmp_path / "srg25.g6"
        write_graph6(srgs, path)
        loaded = load_graph6(path)
        for g in loaded:
            assert g.n == 25
            degs = {len(g.und_nbrs[v]) for v in g.nodes}
            assert degs == {12}
            assert srg_parameters(g) == (25, 12, 5, 6)
        keys = {canonical_form(g).encoding for g in loaded}
        assert len(keys) == len(loaded)


def _lines(values: list) -> bytes:
    return "".join(f"{v}\n" for v in values).encode()


# small integers, so that generated files often refer to each other's nodes and graphs
_ints = st.integers(-1, 6)
_line_files = {
    "A": st.lists(st.tuples(_ints, _ints).map(lambda e: f"{e[0]}, {e[1]}"), max_size=8).map(_lines),
    "graph_indicator": st.lists(_ints, max_size=8).map(_lines),
    "graph_labels": st.lists(_ints, max_size=4).map(_lines),
    "node_labels": st.lists(_ints, max_size=8).map(_lines),
}
_tu_files = st.fixed_dictionaries(
    {suffix: st.one_of(lines, st.binary(max_size=24)) for suffix, lines in _line_files.items()}
)
_graph6_text = st.text(st.sampled_from("?@ABCDEFw~_o\n> g"), max_size=24).map(str.encode)
READER_ERRORS = (ParseError, ContractError, ValidationError)


class TestReaderRobustness:
    """Malformed files raise the package's own errors; none loads in silence."""

    def test_non_utf8_bytes_raise_parse_error_at_their_line(self, tmp_path):
        d = two_graph_fixture(tmp_path)
        (d / "TINY_graph_indicator.txt").write_bytes(b"1\n1\n\xff\n2\n2\n")
        with pytest.raises(ParseError) as exc:
            load_tu(d)
        assert exc.value.line == 3
        path = tmp_path / "bad.g6"
        path.write_bytes(b"Bw\nB\xc3\n")
        with pytest.raises(ParseError) as exc:
            load_graph6(path)
        assert exc.value.line == 2

    def test_graph6_record_must_end_where_its_bits_end(self, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text("C~\n")  # order 4: six bits, the full graph
        assert len(load_graph6(path)[0].edges) == 12
        for record in ("C~~", "B~"):  # a character left over; a nonzero padding bit
            path.write_text(record + "\n")
            with pytest.raises(ParseError):
                load_graph6(path)

    def test_empty_files_raise(self, tmp_path):
        path = tmp_path / "empty.g6"
        for text in ("", "\n \n"):
            path.write_text(text)
            with pytest.raises(ParseError):
                load_graph6(path)
        d = two_graph_fixture(tmp_path)
        for f in d.iterdir():
            f.write_text("")
        with pytest.raises(ParseError):
            load_tu(d)

    @pytest.mark.parametrize("indicator", ["1\n3\n3\n", "1\n1000000000000\n"])
    def test_graph_without_nodes_raises(self, tmp_path, indicator):
        d = two_graph_fixture(tmp_path)
        (d / "TINY_A.txt").write_text("")
        (d / "TINY_node_labels.txt").unlink()
        (d / "TINY_graph_indicator.txt").write_text(indicator)
        with pytest.raises(ParseError):
            load_tu(d)

    @settings(max_examples=150, deadline=None)
    @given(files=_tu_files, with_node_labels=st.booleans())
    def test_fuzzed_tu_files_load_or_raise_package_errors(self, files, with_node_labels):
        with tempfile.TemporaryDirectory() as tmp:
            for suffix, data in files.items():
                if suffix != "node_labels" or with_node_labels:
                    (Path(tmp) / f"FUZZ_{suffix}.txt").write_bytes(data)
            try:
                ds = load_tu(tmp)
            except READER_ERRORS:
                return
        assert ds.graphs and len(ds.labels) == len(ds.graphs)

    @settings(max_examples=150, deadline=None)
    @given(data=st.one_of(_graph6_text, st.binary(max_size=24)))
    def test_fuzzed_graph6_files_load_or_raise_package_errors(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.g6"
            path.write_bytes(data)
            try:
                graphs = load_graph6(path)
            except READER_ERRORS:
                return
            # what loads is exactly what the file says: it writes back the same
            write_graph6(graphs, path)
            assert path.read_text().split() == [line.removeprefix(">>graph6<<") for line in data.decode().split()]


class TestFeatures:
    def test_degree_mode_on_k2(self):
        ds = GraphDataset(
            "K2", [from_undirected([0, 1], [(0, 1)])], np.array([0]), 1
        )
        feats = initial_features(ds, "degree")
        assert np.array_equal(feats[0], [[1.0], [1.0]])

    def test_degree_features_have_one_column_for_every_graph(self):
        graphs = [ConcreteGraph.build([], []), ConcreteGraph.build([4], []), path_graph(0, 1, 2)]
        assert [f.shape for f in degree_features(graphs)] == [(0, 1), (1, 1), (3, 1)]

    def test_onehot_width_and_rows(self):
        ds = GraphDataset(
            "X",
            [path_graph(0, 1, 2)],
            np.array([0]),
            1,
            node_labels=[[0, 2, 1]],
        )
        feats = initial_features(ds, "onehot-label")
        assert feats[0].shape == (3, 3)
        assert np.allclose(feats[0].sum(axis=1), 1.0)

    def test_onehot_requires_labels(self):
        ds = GraphDataset("X", [path_graph(0, 1, 2)], np.array([0]), 1)
        with pytest.raises(ContractError):
            initial_features(ds, "onehot-label")


@pytest.fixture(scope="module")
def suites():
    return synth_suites(seed=7)


class TestSynthSuites:

    def test_sizes(self, suites):
        assert len(suites["random"]) == 100
        assert len(suites["regular"]) == 100
        assert len(suites["isomorphic"]) == 100
        assert len(suites["strongly_regular"]) >= 2

    def test_regular_suite_all_degree_six(self, suites):
        for g in suites["regular"]:
            assert {len(g.und_nbrs[v]) for v in g.nodes} == {6}

    def test_random_suite_non_regular_distinct(self, suites):
        keys = set()
        for g in suites["random"]:
            degs = {len(g.und_nbrs[v]) for v in g.nodes}
            assert len(degs) > 1
            keys.add(canonical_form(g).encoding)
        assert len(keys) == 100

    def test_isomorphic_suite_single_class(self, suites):
        keys = {canonical_form(g).encoding for g in suites["isomorphic"]}
        assert len(keys) == 1

    def test_deterministic(self):
        a = synth_suites(seed=3)
        b = synth_suites(seed=3)
        assert [g.edges for g in a["regular"]] == [g.edges for g in b["regular"]]


class TestFolds:
    def make_ds(self, n=100):
        graphs = [cycle_graph(*range(3 + (i % 4))) for i in range(n)]
        labels = np.array([i % 2 for i in range(n)], dtype=np.intp)
        return GraphDataset("F", graphs, labels, 2)

    def test_balanced_folds(self):
        ds = self.make_ds(100)
        folds = ten_fold_split(ds, seed=0)
        assert len(folds) == 10
        for f in folds:
            assert len(f) == 10
            assert sum(int(ds.labels[i]) for i in f) == 5

    def test_union_and_disjoint(self):
        ds = self.make_ds(97)
        folds = ten_fold_split(ds, seed=1)
        all_idx = np.concatenate(folds)
        assert len(all_idx) == 97
        assert len(set(all_idx.tolist())) == 97

    def test_seed_changes_assignment_not_ratios(self):
        ds = self.make_ds(100)
        f0 = ten_fold_split(ds, seed=0)
        f1 = ten_fold_split(ds, seed=99)
        assert any(not np.array_equal(a, b) for a, b in zip(f0, f1))
        for f in f1:
            assert sum(int(ds.labels[i]) for i in f) == 5

    def test_small_class_warns(self):
        graphs = [cycle_graph(*range(3)) for _ in range(15)]
        labels = np.array([0] * 12 + [1] * 3, dtype=np.intp)
        ds = GraphDataset("W", graphs, labels, 2)
        with pytest.warns(UserWarning):
            ten_fold_split(ds, seed=0)

