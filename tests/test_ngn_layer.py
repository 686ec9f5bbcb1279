import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngn import graph_core, kernel_solver, neighbourhoods, ngn_layer, representations
from ngn.errors import ClassMissError, ContractError, ParseError, ShapeError, ValidationError
from ngn.graph_core import ConcreteGraph, GraphIso, from_undirected
from ngn.neighbourhoods import NeighbourhoodAssignment
from ngn.ngn_layer import NgnLayer, check_naturality
from ngn.representations import GlobalFeature, RepSpec, parse_rep_spec, random_feature

from helpers import (
    VERSION_1_LAYER,
    complete_graph,
    cycle_graph,
    dense_reference_forward,
    path_graph,
    random_capped_graph,
    random_graph,
    random_relabeling,
    saved_layer_text,
)

K1 = NeighbourhoodAssignment(1)


def make_layer(rho=RepSpec.standard(1), rho_prime=RepSpec.standard(1), **kw):
    return NgnLayer(rho=rho, rho_prime=rho_prime, assignment=K1, **kw)


class TestForward:
    def test_edgeless_graph_zero_output(self):
        g = ConcreteGraph.build([3, 8, 11], [])
        layer = make_layer()
        v = random_feature(np.random.default_rng(0), layer.rho, g, K1)
        out = layer.forward(g, v)
        assert all(np.all(out.blocks[p] == 0.0) for p in g.nodes)

    def test_single_directed_edge_trivial_reps_weight_one(self):
        g = ConcreteGraph.build([0, 1], [(0, 1)])
        layer = make_layer(RepSpec.trivial(1), RepSpec.trivial(1))
        v = GlobalFeature({0: np.array([2.5]), 1: np.array([-1.0])})
        out = layer.forward(g, v)  # lazy solve, then overwrite the weight
        for shared in layer.table.values():
            shared.weights[0][...] = 1.0
        out = layer.forward(g, v)
        assert np.allclose(out.blocks[1], v.blocks[0])
        assert np.all(out.blocks[0] == 0.0)

    def test_trivial_reps_shared_weight_reduces_to_invariant_mp(self):
        rng = np.random.default_rng(1)
        c_in, c_out = 3, 2
        w_mat = rng.standard_normal((c_out, c_in))
        layer = make_layer(RepSpec.trivial(c_in), RepSpec.trivial(c_out))
        for _ in range(5):
            g = random_graph(rng, 7, 0.4)
            v = random_feature(rng, layer.rho, g, K1)
            layer.forward(g, v)  # populate classes
            for shared in layer.table.values():
                shared.weights[0][0] = w_mat.T
            out = layer.forward(g, v)
            # direct invariant message passing: out_q = sum over in-edges W v_p
            for q in g.nodes:
                expect = np.zeros(c_out)
                for p, qq in g.edges:
                    if qq == q:
                        expect += w_mat @ v.blocks[p]
                assert np.allclose(out.blocks[q], expect, atol=1e-12)

    def test_mean_aggregation_divides_by_in_degree(self):
        g = from_undirected([0, 1, 2], [(0, 2), (1, 2)])
        lsum = make_layer(RepSpec.trivial(1), RepSpec.trivial(1), aggregation="sum", seed=3)
        lmean = make_layer(RepSpec.trivial(1), RepSpec.trivial(1), aggregation="mean", seed=3)
        v = GlobalFeature({p: np.array([1.0]) for p in g.nodes})
        s = lsum.forward(g, v)
        m = lmean.forward(g, v)
        assert np.allclose(m.blocks[2], s.blocks[2] / 2.0)

    def test_strict_mode_raises_on_unseen_class(self):
        layer = make_layer(strict=True)
        g = cycle_graph(0, 1, 2)
        v = random_feature(np.random.default_rng(0), layer.rho, g, K1)
        with pytest.raises(ClassMissError):
            layer.forward(g, v)

    def test_shape_error_on_bad_blocks(self):
        layer = make_layer()
        g = path_graph(0, 1, 2)
        v = GlobalFeature({0: np.zeros(99), 1: np.zeros(3), 2: np.zeros(2)})
        with pytest.raises(ShapeError):
            layer.forward(g, v)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        layer = make_layer(RepSpec.standard(2), RepSpec.standard(1))
        g = random_graph(rng, 8, 0.4)
        u = random_feature(rng, layer.rho, g, K1)
        v = random_feature(rng, layer.rho, g, K1)
        a, b = 0.7, -1.3
        lin = GlobalFeature({p: a * u.blocks[p] + b * v.blocks[p] for p in g.nodes})
        left = layer.forward(g, lin)
        fu, fv = layer.forward(g, u), layer.forward(g, v)
        right = GlobalFeature({p: a * fu.blocks[p] + b * fv.blocks[p] for p in g.nodes})
        assert left.max_abs_diff(right) < 1e-12


class TestIndexTransport:
    """The forward places kernels by index maps from the canonical
    relabeling; the oracle conjugates by dense matrices per edge."""

    @pytest.mark.parametrize("rep", ["standard*1", "standard*2+trivial*1", "trivial*2"])
    @pytest.mark.parametrize("aggregation", ["sum", "mean"])
    def test_forward_matches_dense_reference(self, rep, aggregation):
        rng = np.random.default_rng(12)
        spec = parse_rep_spec(rep)
        layer = make_layer(spec, spec, aggregation=aggregation, seed=5)
        edges = 0
        for _ in range(4):
            n = int(rng.integers(6, 13))
            g = random_capped_graph(rng, n, 4.0 / (n - 1), max_degree=6)
            v = random_feature(rng, spec, g, K1)
            out = layer.forward(g, v)
            assert out.max_abs_diff(dense_reference_forward(layer, g, v)) <= 1e-12
            edges += len(g.edges)
        assert edges >= 40

    def test_wrong_relabeling_raises(self, monkeypatch):
        rng = np.random.default_rng(14)
        layer = make_layer()
        g = random_capped_graph(rng, 9, 0.45, max_degree=6)
        v = random_feature(rng, layer.rho, g, K1)
        layer.forward(g, v)  # every class is in the table from here on
        locate = ngn_layer.locate_edge

        def shifted(nb):
            key, relab, aut = locate(nb)
            return key, {u: (pos + 1) % nb.graph.n for u, pos in relab.items()}, aut

        monkeypatch.setattr(ngn_layer, "locate_edge", shifted)
        with pytest.raises(ValidationError):
            layer.forward(g, v)

    def test_relabeling_off_the_edge_set_raises(self, monkeypatch):
        # nodes 3 and 4 are both common neighbours of the marked edge (0, 1),
        # but only 3 is adjacent to 2: swapping their positions keeps the
        # marks and both balls, and breaks the edge set
        g = from_undirected(range(5), [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)])
        layer = make_layer()
        v = random_feature(np.random.default_rng(15), layer.rho, g, K1)
        layer.forward(g, v)
        locate = ngn_layer.locate_edge

        def swapped(nb):
            key, relab, aut = locate(nb)
            if nb.marked == (0, 1):
                relab = {**relab, 3: relab[4], 4: relab[3]}
            return key, relab, aut

        monkeypatch.setattr(ngn_layer, "locate_edge", swapped)
        with pytest.raises(ValidationError, match="class representative"):
            layer.forward(g, v)

    def test_forward_builds_no_ball_subgraph(self, monkeypatch):
        # balls are id tuples, and a new class's generators act on them by
        # index maps: no restricted isomorphism or node-ball subgraph is built,
        # in the forward or in the solves it triggers
        calls = []
        for module in (neighbourhoods, kernel_solver, ngn_layer, representations):
            for name in ("restrict_edge_iso", "node_neighbourhood"):
                if hasattr(module, name):
                    original = getattr(module, name)

                    def spy(*args, _original=original, _name=name, **kwargs):
                        calls.append(_name)
                        return _original(*args, **kwargs)

                    monkeypatch.setattr(module, name, spy)
        rng = np.random.default_rng(16)
        spec = parse_rep_spec("trivial*2+standard*3")
        layer = make_layer(spec, spec)
        g = random_capped_graph(rng, 10, 0.4, max_degree=5)
        layer.forward(g, random_feature(rng, spec, g, K1))
        assert len(layer.table) >= 5 and calls == []
        next(iter(layer.table.values())).basis.edge_class.group_restrictions
        assert "restrict_edge_iso" in calls  # the oracle's restrictions pass the spies


def _count_searches(monkeypatch) -> list:
    calls = []
    search = graph_core._search

    def counting(*args):
        calls.append(1)
        return search(*args)

    monkeypatch.setattr(graph_core, "_search", counting)
    return calls


class TestOneSearch:
    """The search that keys an edge also gives its class's generators."""

    def _solved_layer(self):
        rng = np.random.default_rng(17)
        g = random_capped_graph(rng, 10, 0.4, max_degree=5)
        layer = make_layer()
        v = random_feature(rng, layer.rho, g, K1)
        return layer, g, v

    def test_fresh_forward_runs_one_search_per_edge(self, monkeypatch):
        layer, g, v = self._solved_layer()
        calls = _count_searches(monkeypatch)
        layer.forward(g, v)
        assert len(layer.table) >= 5
        assert len(calls) == len(g.edges)

    def test_load_runs_one_search_per_class(self, monkeypatch):
        layer, g, v = self._solved_layer()
        layer.forward(g, v)
        payload = layer.to_dict()
        calls = _count_searches(monkeypatch)
        loaded = NgnLayer.from_dict(payload)
        assert len(loaded.table) == len(layer.table) >= 5
        assert len(calls) == len(loaded.table)


class TestNaturality:
    def test_identity_relabeling_residual_zero(self):
        rng = np.random.default_rng(5)
        layer = make_layer()
        g = random_graph(rng, 7, 0.45)
        v = random_feature(rng, layer.rho, g, K1)
        assert check_naturality(layer, g, GraphIso.identity(g), v) == 0.0

    def test_random_relabelings_standard_reps(self):
        rng = np.random.default_rng(6)
        layer = make_layer(RepSpec.standard(1), RepSpec.standard(2))
        for _ in range(10):
            g = random_graph(rng, 12, 0.3)
            phi = random_relabeling(rng, g, fresh_ids=True)
            v = random_feature(rng, layer.rho, g, K1)
            assert check_naturality(layer, g, phi, v) < 1e-10

    def test_automorphism_equivariance_on_four_cycle(self):
        rng = np.random.default_rng(7)
        layer = make_layer()
        g = cycle_graph(0, 1, 2, 3)
        rot = GraphIso.build(g, g, {0: 1, 1: 2, 2: 3, 3: 0})
        v = random_feature(rng, layer.rho, g, K1)
        assert check_naturality(layer, g, rot, v) < 1e-10

    def test_mixed_spec_naturality(self):
        rng = np.random.default_rng(8)
        layer = make_layer(
            RepSpec.trivial(2) + RepSpec.standard(1),
            RepSpec.standard(1) + RepSpec.trivial(1),
        )
        for _ in range(5):
            g = random_graph(rng, 9, 0.35)
            phi = random_relabeling(rng, g, fresh_ids=True)
            v = random_feature(rng, layer.rho, g, K1)
            assert check_naturality(layer, g, phi, v) < 1e-10

    @pytest.mark.parametrize(
        "g",
        [
            from_undirected(range(13), [(0, i) for i in range(1, 13)]),
            complete_graph(*range(12)),
        ],
        ids=["star_12_leaves", "clique_12"],
    )
    def test_twelve_interchangeable_nodes(self, g):
        # every edge neighbourhood has at least 10! marked automorphisms
        rng = np.random.default_rng(10)
        layer = make_layer()
        phi = random_relabeling(rng, g, fresh_ids=True)
        v = random_feature(rng, layer.rho, g, K1)
        assert check_naturality(layer, g, phi, v) < 1e-10


class TestPersistence:
    def test_layer_round_trip(self, tmp_path):
        # through the file, orbit labels, representative kernels and the
        # forward come back bit for bit
        rng = np.random.default_rng(9)
        layer = make_layer(parse_rep_spec("trivial*1+standard*2"), RepSpec.standard(1), seed=11)
        g = random_graph(rng, 8, 0.4)
        v = random_feature(rng, layer.rho, g, K1)
        before = layer.forward(g, v)
        path = tmp_path / "layer.json"
        layer.save(path)
        text = path.read_text()
        assert text.count('"version"') == 1 and json.loads(text)["version"] == 2
        assert all(set(e) == {"key", "nodes", "edges", "marked", "weights"} for e in json.loads(text)["classes"])
        loaded = NgnLayer.load(path)
        assert list(loaded.table) == list(layer.table)
        for key, shared in layer.table.items():
            got = loaded.table[key]
            for a, b in zip(got.basis.pair_bases, shared.basis.pair_bases, strict=True):
                assert a.labels.dtype == b.labels.dtype and np.array_equal(a.labels, b.labels)
            assert got.representative_kernel().tobytes() == shared.representative_kernel().tobytes()
        after = loaded.forward(g, v)
        assert all(after.blocks[p].tobytes() == before.blocks[p].tobytes() for p in g.nodes)

    def test_loaded_layer_continues_where_the_saved_one_stopped(self):
        # a class first met after loading gets the weights the saved layer
        # gives it, and a fresh layer of the same seed gives it too: weights
        # depend on the seed and the class, not on the order classes arrive
        layer = make_layer(seed=5)
        line = path_graph(0, 1, 2)
        layer.forward(line, random_feature(np.random.default_rng(0), layer.rho, line, K1))
        loaded = NgnLayer.from_dict(json.loads(json.dumps(layer.to_dict())))
        assert len(loaded.table) == 2
        g = from_undirected(range(4), [(0, 1), (1, 2), (2, 0), (2, 3)])
        v = random_feature(np.random.default_rng(1), layer.rho, g, K1)
        outs = [loaded.forward(g, v), layer.forward(g, v), make_layer(seed=5).forward(g, v)]
        assert len(loaded.table) > 2  # the triangle brings classes the path did not
        for out in outs[1:]:
            assert all(out.blocks[p].tobytes() == outs[0].blocks[p].tobytes() for p in g.nodes)

    def test_lazy_solving_is_deterministic(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, 9, 0.35)
        outs = []
        for _ in range(2):
            layer = make_layer(seed=21)
            v = GlobalFeature(
                {
                    p: np.linspace(0.0, 1.0, layer_dim)
                    for p, layer_dim in _dims(g, layer).items()
                }
            )
            outs.append(layer.forward(g, v))
        assert outs[0].max_abs_diff(outs[1]) == 0.0

    def test_text_that_is_not_json_raises_parse_error(self, tmp_path):
        path = tmp_path / "layer.json"
        for data in (b'{"version": 2,\n "rho": ', b"\xff\xfe{}"):
            path.write_bytes(data)
            with pytest.raises(ParseError):
                NgnLayer.load(path)

    def test_layer_nesting_a_version_1_class_cache_raises_validation_error(self):
        # version 1 nested a class cache that stored each class's generators
        # and dense bases
        payload = json.loads(VERSION_1_LAYER)
        assert payload["version"] == 1 and "pair_bases" in payload["classes"]["entries"][0]
        with pytest.raises(ValidationError, match="version 1"):
            NgnLayer.from_dict(payload)

    def test_swapped_class_keys_raise_at_load(self, tmp_path):
        # a triangle with a pendant edge has five edge classes under standard*1;
        # two of them with their keys exchanged are refused when the file is
        # read, not at the next forward
        layer = make_layer()
        g = from_undirected(range(4), [(0, 1), (1, 2), (2, 0), (2, 3)])
        layer.forward(g, random_feature(np.random.default_rng(0), layer.rho, g, K1))
        payload = layer.to_dict()
        entries = payload["classes"]
        assert len(entries) == 5
        entries[1]["key"], entries[3]["key"] = entries[3]["key"], entries[1]["key"]
        path = tmp_path / "layer.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="class 1"):
            NgnLayer.load(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d.pop("rho"),
            lambda d: d.update(rho=5),
            lambda d: d.update(k=2),  # the classes were solved for k = 1
            lambda d: d.update(rho="standard*2"),  # the classes were solved for another rho
            lambda d: d.update(classes={}),
            lambda d: d.update(seed="x"),
            lambda d: d.update(version=99),
            lambda d: d.update(k=1.5, classes=[]),
            lambda d: d.update(strict="no"),
        ],
        ids=[
            "no rho",
            "rho not text",
            "other k",
            "class of another rep",
            "classes not a list",
            "bad seed",
            "other version",
            "k not an integer",
            "strict not a bool",
        ],
    )
    def test_malformed_layer_raises_validation_error(self, corrupt):
        payload = json.loads(saved_layer_text())
        corrupt(payload)
        with pytest.raises(ValidationError):
            NgnLayer.from_dict(payload)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_fuzzed_layer_files_load_or_raise_package_errors(self, data, tmp_path_factory):
        payload = json.loads(saved_layer_text())
        path = data.draw(st.none() | st.sampled_from(list(_json_paths(payload))))
        if path == ():
            payload = data.draw(_json_values)
        elif path is not None:  # one field replaced or removed
            parent = payload
            for step in path[:-1]:
                parent = parent[step]
            if isinstance(parent, dict) and data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(_json_values)
        raw = json.dumps(payload).encode()
        raw = raw[: data.draw(st.integers(0, len(raw)))] if data.draw(st.booleans()) else raw
        file = tmp_path_factory.mktemp("fuzz") / "layer.json"
        file.write_bytes(raw)
        try:
            layer = NgnLayer.load(file)
        except (ParseError, ContractError, ValidationError):
            return
        for shared in layer.table.values():
            assert shared.representative_kernel().shape == shared.basis.dims
            assert kernel_solver.eq4_residual(shared) < 1e-10


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-1e3, 1e3) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def _json_paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _dims(g, layer):
    from ngn.neighbourhoods import node_neighbourhood

    return {p: layer.rho.dim(node_neighbourhood(g, p, layer.assignment).graph.n) for p in g.nodes}
