import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag

from ngn import autodiff as ad
from ngn import batched
from ngn.batched import (
    compile_gcn_plan,
    compile_plan,
    gcn2_layer_numpy,
    gcn2_layer_tensor,
    gcn_forward_numpy,
    build_plain_gcn,
    init_message_net_params,
    message_net_from_params,
    node_attrs_to_buffer,
)
from ngn.datasets import degree_features, synth_suites
from ngn.errors import ShapeError
from ngn.graph_core import ConcreteGraph, from_undirected
from ngn.lattices import square_torus
from ngn.message_net import build_gcn_net, neighbour_mean_matrix, ngn_gcn2_forward
from ngn.models import (
    EmbeddingConfig,
    Gcn2Config,
    _mean_pool as pool,
    classifier_logits,
    classifier_logits_numpy,
    dissimilar_pair_rate,
    gcn2_embeddings,
    init_classifier_params,
    train_classifier,
)
from ngn.neighbourhoods import NeighbourhoodAssignment, node_neighbourhood
from ngn.representations import GlobalFeature

from helpers import (
    buffer_to_features,
    cycle_graph,
    features_to_buffer,
    finite_difference_grads,
    float64_operator,
    random_graph,
    unfused_gcn2_layer,
)

K1 = NeighbourhoodAssignment(1)
OPERATORS = ("mix", "embed", "project", "project_mix")


def standard_blocks(rng, g, c):
    return GlobalFeature(
        {
            p: rng.standard_normal((node_neighbourhood(g, p, K1).graph.n, c)).reshape(-1)
            for p in g.nodes
        }
    )


class TestInitializers:
    """The three message-net initializers draw Glorot-uniform weights in one
    order: w_self, then w_neigh, layer by layer, in float64, then cast."""

    @staticmethod
    def draws(seed, widths, dtype):
        rng = np.random.default_rng(seed)
        out = []
        for a, b in zip(widths, widths[1:]):
            bound = np.sqrt(6.0 / (a + b))
            w_self = rng.uniform(-bound, bound, (a, b)).astype(dtype)
            out.append((w_self, rng.uniform(-bound, bound, (a, b)).astype(dtype)))
        return out

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_weights_are_the_draws_in_order(self, dtype):
        nets = {
            (5, 2 + 2, 4): build_gcn_net(np.random.default_rng(5), 3, 7, data_in=2, c_out=4, dtype=dtype),
            (6, 3, 4): build_plain_gcn(np.random.default_rng(6), 3, 7, c_in=3, c_out=4, dtype=dtype),
            (7, 1 + 2, 5): message_net_from_params(
                init_message_net_params(np.random.default_rng(7), 3, 7, data_in=1, c_out=5, dtype=dtype)
            ),
        }
        for (seed, c_in, c_out), net in nets.items():
            expected = self.draws(seed, [c_in, 7, 7, c_out], dtype)
            assert len(net.layers) == len(expected)
            for i, (layer, (w_self, w_neigh)) in enumerate(zip(net.layers, expected)):
                assert layer.w_self.dtype == dtype and np.array_equal(layer.w_self, w_self)
                assert layer.w_neigh.dtype == dtype and np.array_equal(layer.w_neigh, w_neigh)
                assert layer.bias.dtype == dtype and not layer.bias.any()
                assert layer.final == (i == len(expected) - 1)

    def test_classifier_head_is_the_draw_after_the_message_nets(self):
        cfg = Gcn2Config(ngn_layers=2, msg_layers=2, hidden=7, classes=3)
        params = init_classifier_params(np.random.default_rng(8), 2, cfg)
        rng = np.random.default_rng(8)
        for widths in ([2 + 2, 7, 7], [7 + 2, 7, 7]):
            for a, b in zip(widths, widths[1:]):
                bound = np.sqrt(6.0 / (a + b))
                rng.uniform(-bound, bound, (2, a, b))  # w_self, then w_neigh
        bound = np.sqrt(6.0 / (7 + 3))
        assert np.array_equal(params["head/w"].data, rng.uniform(-bound, bound, (7, 3)))
        assert not params["head/b"].data.any()


class TestPlanLayout:
    def test_buffer_round_trip(self):
        rng = np.random.default_rng(0)
        graphs = [random_graph(rng, 6, 0.5), cycle_graph(0, 1, 2)]
        plan = compile_plan(graphs, K1)
        feats = [standard_blocks(rng, g, 3) for g in graphs]
        buf = features_to_buffer(plan, feats, 3)
        back = buffer_to_features(plan, buf)
        for orig, round_tripped in zip(feats, back):
            assert orig.max_abs_diff(round_tripped) == 0.0

    def test_gcn_plan_is_the_block_diagonal_of_neighbour_means(self):
        # non-contiguous ids, a digraph whose node 7 has no in-edges, and an edgeless graph
        digraph = ConcreteGraph.build([3, 7, 10, 12], [(7, 3), (3, 10), (10, 3), (12, 10), (7, 12)])
        graphs = [random_graph(np.random.default_rng(3), 6, 0.5, id_offset=20), digraph, cycle_graph(4, 9, 5),
                  ConcreteGraph.build([8], [])]
        plan = compile_gcn_plan(graphs)
        mix = plan.block("mix", np.float64, 0, plan.n_nodes_total)
        assert mix.has_canonical_format and plan.n_nodes_total == 14
        assert np.array_equal(mix.toarray(), block_diag(*(neighbour_mean_matrix(g) for g in graphs)))
        assert plan.graph_of_node.tolist() == [0] * 6 + [1] * 4 + [2] * 3 + [3]

    def test_node_attr_gathering(self):
        g = cycle_graph(0, 1, 2)
        plan = compile_plan([g], K1)
        attrs = [np.array([[10.0], [20.0], [30.0]])]
        buf = node_attrs_to_buffer(plan, attrs)
        # every ball is the whole triangle, so every block lists all three
        assert buf.shape == (9, 1)
        assert np.array_equal(buf[:3, 0], [10.0, 20.0, 30.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_node_attrs_gather_equals_a_per_node_loop(self, dtype):
        rng = np.random.default_rng(13)
        graphs = [
            random_graph(rng, 7, 0.4, id_offset=2),
            ConcreteGraph.build([3], []),
            from_undirected([1, 4, 6, 9], [(1, 4), (4, 6), (6, 9)]),
            random_graph(rng, 6, 0.5),
        ]
        attrs = [rng.standard_normal((g.n, 3)) for g in graphs]
        for k in (1, 2):
            a = NeighbourhoodAssignment(k)
            plan = compile_plan(graphs, a)
            # every ball's rows, node by node, each cast on assignment
            expected = np.zeros((plan.node_rows, 3), dtype=dtype)
            row = 0
            for g, raw in zip(graphs, attrs):
                order = {u: i for i, u in enumerate(g.nodes)}
                for p in g.nodes:
                    ball = node_neighbourhood(g, p, a).graph.nodes
                    expected[row : row + len(ball)] = raw[[order[u] for u in ball]]
                    row += len(ball)
            got = node_attrs_to_buffer(plan, attrs, dtype=dtype)
            assert got.dtype == dtype and np.array_equal(got, expected), k
        with pytest.raises(ShapeError):
            node_attrs_to_buffer(plan, attrs[:2] + [attrs[2][:-1]] + attrs[3:])
        with pytest.raises(ShapeError):
            node_attrs_to_buffer(plan, attrs[:-1])
        with pytest.raises(ShapeError):  # an empty batch gives no channel count
            node_attrs_to_buffer(compile_plan([], K1), [])


    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_operators_match_a_per_edge_loop(self, k):
        rng = np.random.default_rng(10)
        graphs = [
            random_graph(rng, 7, 0.4, id_offset=2),
            ConcreteGraph.build([1, 4, 6, 9], [(1, 4), (4, 6), (6, 1), (9, 4), (6, 6)], allow_self_loops=True),
            ConcreteGraph.build([3], []),
            random_graph(rng, 6, 0.5),
        ]
        a = NeighbourhoodAssignment(k)
        plan = compile_plan(graphs, a)
        # the layout and the operators, edge by edge, from their definitions
        n = plan.node_rows
        sizes, embed, mix, project = [], [], [], []
        serial = 0
        for g in graphs:
            starts = dict(zip(g.nodes, plan.node_ptr[serial:]))
            serial += g.n
            balls = {p: node_neighbourhood(g, p, a).graph.nodes for p in g.nodes}
            for p, q in sorted(g.edges, key=lambda e: (e[1], e[0])):
                nb = sorted(set(balls[p]) | set(balls[q]))
                e_block = np.zeros((len(nb), n + 2))
                for rank, u in enumerate(balls[p]):
                    e_block[nb.index(u), starts[p] + rank] = 1.0
                e_block[nb.index(p), n] = e_block[nb.index(q), n + 1] = 1.0
                m_block = np.zeros((len(nb), len(nb)))
                for i, w in enumerate(nb):
                    inside = [j for j, u in enumerate(nb) if (u, w) in g.edges]
                    m_block[i, inside] = 1.0 / max(len(inside), 1)
                p_block = np.zeros((n, len(nb)))
                for rank, u in enumerate(balls[q]):
                    p_block[starts[q] + rank, nb.index(u)] = 1.0
                sizes.append(len(nb))
                embed.append(e_block)
                mix.append(m_block)
                project.append(p_block)
        embed, mix, project = np.vstack(embed), block_diag(*mix), np.hstack(project)
        # [E | C] and M [E | C] interleaved, then the bias column of ones
        embed_op = np.ones((len(embed), 2 * (n + 2) + 1))
        embed_op[:, 0:-1:2] = embed
        embed_op[:, 1:-1:2] = mix @ embed

        assert np.array_equal(plan.edge_row_ptr, np.cumsum([0] + sizes))
        ops = {name: float64_operator(plan, name) for name in OPERATORS}
        assert np.array_equal(ops["mix"].toarray(), mix)
        assert np.array_equal(ops["embed"].toarray(), embed_op)
        assert np.array_equal(ops["project"].toarray(), project)
        assert np.array_equal(ops["project_mix"].toarray(), project @ mix)
        for op in ops.values():
            assert op.has_canonical_format


# sha256 over every operator's data, indices and indptr and the layout arrays
# (see plan_digest). Plan compilation must reproduce them bit for bit.
PINNED_PLAN_SHA256 = {
    "random": "7b57df0364c6e7dd0ffa098493b4b065eda43a2eddb2449bdcd25abbee70be2c",
    "regular": "f1a2e1e286939704c8c48a9522b997d42a5c7cb46fdca7ec1727985b2d8ee719",
    "strongly_regular": "b5642e51e8f1190c8a1056508f8de08a78e0ee4c55ed1abfea9c87fd17faefa1",
    "isomorphic": "8a3a880728199edbf00813a18960af5beebb029bd690c7ecec609c8b79aca541",
    "torus32": "14e99c3a39785128c229ec0d61b2e0f545e7ae0cd8f40383d8545c0dd2f74fc1",
    "random[:10], k=2": "32b58fd4dd550cd99022b041784e86bebed640f326298e23bd3ce9512cee0fbf",
}


def plan_digest(plan) -> str:
    digest = hashlib.sha256()
    for name in OPERATORS:
        op = float64_operator(plan, name)
        for a in (op.data, op.indices, op.indptr):
            digest.update(np.ascontiguousarray(a).tobytes())
    for a in (plan.edge_row_ptr, plan.edge_head_end, plan.node_ptr, plan.node_member):
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


class TestPlanCompilation:
    def test_plan_digests_pinned(self):
        suites = synth_suites(0)
        batches = {name: (graphs, K1) for name, graphs in suites.items()}
        batches["torus32"] = ([square_torus(32)], K1)
        batches["random[:10], k=2"] = (suites["random"][:10], NeighbourhoodAssignment(2))
        assert {name: plan_digest(compile_plan(*b)) for name, b in batches.items()} == PINNED_PLAN_SHA256

    def test_empty_batch(self):
        plan = compile_plan([], K1)
        assert (plan.n_nodes_total, plan.node_rows, plan.edge_count, plan.edge_rows) == (0, 0, 0, 0)
        assert plan.edge_row_ptr.tolist() == [0] and plan.embed.shape == (0, 5)

    def test_peak_memory_is_bounded_by_what_the_plan_keeps(self):
        # what is kept is the plan alone: its operators' patterns and
        # counts, its layout arrays, and the graph's edge array
        # (compile_plan builds no neighbour set). The ratio reads 1.96
        # (8.1 MB kept); it read 1.82 (16.3 MB kept) when the operators
        # kept float64 values, and 2.20 when they came from coordinates,
        # with the neighbour sets built on the graph counted as kept
        g = square_torus(64)
        tracemalloc.start()
        try:
            plan = compile_plan([g], K1)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan.edge_rows == 8 * plan.edge_count  # two 5-node balls share 2 nodes
        assert peak <= 2.3 * kept, (peak, kept)

    def test_operators_keep_counts_and_blocks_only_their_dtype(self):
        # every operator keeps integer arrays alone; a float32 forward
        # builds its values in float32 and keeps no float64 block
        rng = np.random.default_rng(17)
        graphs = [random_graph(rng, 8, 0.4), cycle_graph(0, 1, 2)]
        plan, gcn_plan = compile_plan(graphs, K1), compile_gcn_plan(graphs)
        for p, names in ((plan, OPERATORS), (gcn_plan, ("mix",))):
            for name in names:
                op = getattr(p, name)
                assert all(a.dtype.kind in "iu" for a in (op.den, op.indices, op.indptr)), name
        net = build_gcn_net(rng, 3, 4, data_in=1, c_out=3, dtype=np.float32)
        gcn2_layer_numpy(plan, net, node_attrs_to_buffer(plan, degree_features(graphs), dtype=np.float32))
        gcn = build_plain_gcn(rng, 2, 4, c_in=1, c_out=3, dtype=np.float32)
        gcn_forward_numpy(gcn_plan, gcn, np.concatenate(degree_features(graphs)).astype(np.float32))
        for p in (plan, gcn_plan):
            kept = [v for v in p._kept.values() if sp.issparse(v)]
            assert kept and {v.dtype for v in kept} == {np.dtype(np.float32)}

    def test_counts_widen_past_uint8_and_values_are_their_reciprocals(self):
        # the centre of a star K_{1,300} has 300 in-neighbours inside every
        # edge neighbourhood, and in the whole graph
        star = from_undirected(range(301), [(0, i) for i in range(1, 301)])
        plan, gcn_plan = compile_plan([star], K1), compile_gcn_plan([star])
        assert plan.mix.den.dtype == gcn_plan.mix.den.dtype == np.uint16
        assert plan.mix.den.max() == gcn_plan.mix.den.max() == 300
        ops = {name: float64_operator(plan, name) for name in OPERATORS}
        for name, op in ops.items():
            assert np.array_equal(op.data, 1.0 / getattr(plan, name).den), name
            f32 = plan.block(name, np.float32, 0, op.shape[0])
            assert np.array_equal(f32.data, op.data.astype(np.float32)), name
        # each row of M spreads one over its entries, and the rest follow from M
        row_count = np.diff(ops["mix"].indptr)
        assert np.array_equal(ops["mix"].data, 1.0 / np.repeat(row_count, row_count))
        assert np.array_equal(ops["project"].data, np.ones(ops["project"].nnz))
        assert (ops["project_mix"] != ops["project"] @ ops["mix"]).nnz == 0
        embed = ops["embed"]
        odd = embed.indices % 2 == 1
        embed_rows = np.repeat(np.arange(embed.shape[0]), np.diff(embed.indptr))
        assert np.array_equal(embed.data[odd], 1.0 / row_count[embed_rows[odd]])
        assert np.array_equal(embed.data[~odd], np.ones((~odd).sum()))
        gcn_mix = gcn_plan.block("mix", np.float64, 0, 301)
        assert np.array_equal(gcn_mix.toarray(), neighbour_mean_matrix(star))


    def test_builds_no_neighbour_sets_on_the_graphs(self):
        # the balls come from the edge array, as the pattern of (I + A)^k
        graphs = [square_torus(6), random_graph(np.random.default_rng(4), 7, 0.5, id_offset=3)]
        compile_plan(graphs, NeighbourhoodAssignment(2))
        compile_gcn_plan(graphs)
        for g in graphs:
            assert not {"out_nbrs", "in_nbrs", "und_nbrs"} & set(vars(g)), sorted(vars(g))


class TestBatchedMatchesReference:
    def test_matches_per_edge_reference(self):
        rng = np.random.default_rng(1)
        graphs = [random_graph(rng, int(rng.integers(4, 10)), 0.4, id_offset=3) for _ in range(4)]
        # one directed graph with a node of in-degree 0 and one of out-degree 0
        graphs.append(ConcreteGraph.build(range(5), [(0, 1), (1, 2), (2, 0), (3, 1), (2, 4), (1, 4)]))
        plan = compile_plan(graphs, K1)
        feats = [standard_blocks(rng, g, 2) for g in graphs]
        buf = features_to_buffer(plan, feats, 2)
        for depth in (1, 2, 3):
            params = init_message_net_params(rng, depth, 6, data_in=2, c_out=3)
            net = message_net_from_params(params)
            for aggregation in ("sum", "mean"):
                out_np = gcn2_layer_numpy(plan, net, buf, aggregation=aggregation)
                out_tensor = gcn2_layer_tensor(plan, params, ad.constant(buf), aggregation=aggregation)
                assert np.max(np.abs(out_np - out_tensor.data)) <= 1e-12, (depth, aggregation)

                back = buffer_to_features(plan, out_np)
                for g, v, got in zip(graphs, feats, back):
                    ref = ngn_gcn2_forward(net, g, v, K1, aggregation=aggregation)
                    assert got.max_abs_diff(ref) <= 1e-12, (depth, aggregation)

    def test_chunked_matches_unchunked(self):
        rng = np.random.default_rng(2)
        # node 4 of the second graph is isolated: it has a block but no edge
        lonely = from_undirected(range(5), [(0, 1), (1, 2), (2, 0), (2, 3)])
        graphs = [random_graph(rng, 8, 0.4), lonely, random_graph(rng, 8, 0.6), random_graph(rng, 8, 0.4)]
        plan = compile_plan(graphs, K1)
        feats = [standard_blocks(rng, g, 2) for g in graphs]
        buf = features_to_buffer(plan, feats, 2)
        for depth in (1, 2, 3):
            net = message_net_from_params(init_message_net_params(rng, depth, 5, data_in=2, c_out=3))
            full = gcn2_layer_numpy(plan, net, buf)
            for chunk_edges in (1, 2, 5, plan.edge_count):
                chunked = gcn2_layer_numpy(plan, net, buf, chunk_edges=chunk_edges)
                assert np.array_equal(full, chunked), (depth, chunk_edges)

    def test_tensor_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        graphs = [random_graph(rng, 6, 0.5) for _ in range(2)]
        plan = compile_plan(graphs, K1)
        feats = [standard_blocks(rng, g, 1) for g in graphs]
        buf = features_to_buffer(plan, feats, 1)
        labels = np.array([0, 1])
        for depth in (1, 2, 3):
            params = init_message_net_params(rng, depth, 4, data_in=1, c_out=2)
            # nonzero biases, so that their gradients are checked away from zero
            for name, p in params.items():
                if name.endswith("bias"):
                    p.data = rng.standard_normal(p.data.shape) * 0.1
            x = ad.param(buf)

            def loss_tensor():
                out = gcn2_layer_tensor(plan, params, x)
                return ad.softmax_cross_entropy(pool(plan, out), labels)

            every = {**params, "x": x}
            analytic = ad.grads_of(loss_tensor(), every)
            numeric = finite_difference_grads(lambda: loss_tensor().data, every)
            for name in every:
                scale = max(1e-8, float(np.max(np.abs(numeric[name]))))
                assert np.max(np.abs(analytic[name] - numeric[name])) / scale < 1e-5, (depth, name)

    def test_plan_without_edges(self):
        graphs = [ConcreteGraph.build([2, 7], []), ConcreteGraph.build([0], [])]
        plan = compile_plan(graphs, K1)
        assert plan.edge_count == 0 and plan.edge_rows == 0
        params = init_message_net_params(np.random.default_rng(0), 2, 4, data_in=1, c_out=3)
        buf = np.ones((plan.node_rows, 1))
        for chunk_edges in (None, 1):
            out = gcn2_layer_numpy(plan, message_net_from_params(params), buf, chunk_edges=chunk_edges)
            assert out.shape == (plan.node_rows, 3) and not out.any()
        assert not gcn2_layer_tensor(plan, params, ad.constant(buf)).data.any()


class TestFusedEdgeLevel:
    """The edge level is one sparse product (the bias rides in ``plan.embed``)
    and, off the tape, rectifies and adds in place."""

    @staticmethod
    def spy_on_add_and_relu(monkeypatch) -> list:
        calls = []
        for name in ("add", "relu"):
            original = getattr(ad, name)

            def spy(*args, _original=original, _name=name):
                calls.append((_name, args[0].shape[0]))
                return _original(*args)

            monkeypatch.setattr(ad, name, spy)
        return calls

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_unfused_passes_bit_for_bit(self, dtype, monkeypatch):
        rng = np.random.default_rng(11)
        lonely = from_undirected(range(5), [(0, 1), (1, 2), (2, 0), (2, 3)])
        graphs = [random_graph(rng, 8, 0.4), lonely, random_graph(rng, 7, 0.6)]
        plan = compile_plan(graphs, K1)
        def arrays(op):
            return op.den, op.indices, op.indptr

        saved_ops = {k: [a.copy() for a in arrays(getattr(plan, k))] for k in OPERATORS}
        buf = features_to_buffer(plan, [standard_blocks(rng, g, 2) for g in graphs], 2).astype(dtype)
        x = buf.copy()
        calls = self.spy_on_add_and_relu(monkeypatch)
        for depth in (1, 2, 3):
            params = init_message_net_params(rng, depth, 6, data_in=2, c_out=3, dtype=dtype)
            for name, p in params.items():  # nonzero biases, so that a lost add shows
                if name.endswith("bias"):
                    p.data = rng.standard_normal(p.data.shape).astype(dtype)
            net = message_net_from_params(params)
            saved = {k: p.data.copy() for k, p in params.items()}
            for aggregation in ("sum", "mean"):
                expected = unfused_gcn2_layer(plan, net, buf, aggregation)
                for chunk_edges in (1, 5, None):
                    got = gcn2_layer_numpy(plan, net, x, chunk_edges=chunk_edges, aggregation=aggregation)
                    assert got.dtype == dtype, (depth, aggregation, chunk_edges)
                    assert np.array_equal(got, expected), (depth, aggregation, chunk_edges)
            assert all(np.array_equal(p.data, saved[k]) for k, p in params.items())
        assert np.array_equal(x, buf)
        for k, saved_arrays in saved_ops.items():
            assert all(np.array_equal(a, b) for a, b in zip(arrays(getattr(plan, k)), saved_arrays)), k
        # off the tape no add or rectifier runs through the taped primitives
        assert calls == []

        # the spies see the taped path's edge-row rectifier and middle-layer adds
        taped = init_message_net_params(rng, 3, 6, data_in=2, c_out=3, dtype=dtype)
        gcn2_layer_tensor(plan, taped, ad.constant(buf))
        assert ("relu", plan.edge_rows) in calls and ("add", plan.edge_rows) in calls


class TestTiledEdgeLevel:
    """Off the tape the edge level is walked in tiles of at most
    ``TILE_BYTES`` of edge rows, cut where the head changes, and each tile
    finishes its own node rows into the layer's one output buffer."""

    @staticmethod
    def spy_on_edge_level(monkeypatch) -> list:
        seen = []
        edge_level = batched._edge_level

        def spy(plan, pre, layers, dtype, r0, r1):
            y = edge_level(plan, pre, layers, dtype, r0, r1)
            seen.append((r0, r1, y.data.nbytes))
            return y

        monkeypatch.setattr(batched, "_edge_level", spy)
        return seen

    @staticmethod
    def one_head(plan, r0, r1) -> bool:
        e0, e1 = np.searchsorted(plan.edge_row_ptr, [r0, r1])
        return len(set(plan.edge_head_end[e0:e1].tolist())) == 1

    def test_edge_level_stays_within_the_tile(self, monkeypatch):
        torus = square_torus(32)
        plan = compile_plan([torus], K1)
        x = node_attrs_to_buffer(plan, degree_features([torus]), dtype=np.float32)
        net = build_gcn_net(np.random.default_rng(0), 3, 32, data_in=1, c_out=32, dtype=np.float32)
        expected = unfused_gcn2_layer(plan, net, x)
        seen = self.spy_on_edge_level(monkeypatch)

        def no_concat(parts):
            raise AssertionError("concat_rows called off the tape")

        monkeypatch.setattr(ad, "concat_rows", no_concat)
        got = gcn2_layer_numpy(plan, net, x)
        assert np.array_equal(got, expected)
        assert len(seen) > 1
        assert [r0 for r0, _, _ in seen] == [0] + [r1 for _, r1, _ in seen[:-1]]
        assert seen[-1][1] == plan.edge_rows
        for r0, r1, nbytes in seen:
            assert nbytes <= batched.TILE_BYTES or self.one_head(plan, r0, r1), (r0, r1, nbytes)

    @pytest.mark.parametrize("tile_bytes", [1, 100, 1000, 10**9])
    def test_every_tile_budget_gives_the_same_bits(self, tile_bytes, monkeypatch):
        rng = np.random.default_rng(12)
        lonely = from_undirected(range(5), [(0, 1), (1, 2), (2, 0), (2, 3)])  # node 4 has no edge
        star = from_undirected(range(7), [(0, i) for i in range(1, 7)])  # node 0 has six in-edges
        graphs = [random_graph(rng, 8, 0.4), lonely, star, random_graph(rng, 7, 0.6)]
        plan = compile_plan(graphs, K1)
        x = features_to_buffer(plan, [standard_blocks(rng, g, 2) for g in graphs], 2).astype(np.float32)
        monkeypatch.setattr(batched, "TILE_BYTES", tile_bytes)
        seen = self.spy_on_edge_level(monkeypatch)
        for depth in (1, 2, 3):
            params = init_message_net_params(rng, depth, 5, data_in=2, c_out=3, dtype=np.float32)
            for name, p in params.items():  # nonzero biases, so that a lost add shows
                if name.endswith("bias"):
                    p.data = rng.standard_normal(p.data.shape).astype(np.float32)
            net = message_net_from_params(params)
            for aggregation in ("sum", "mean"):
                expected = unfused_gcn2_layer(plan, net, x, aggregation)
                for chunk_edges in (None, 3):
                    got = gcn2_layer_numpy(plan, net, x, chunk_edges=chunk_edges, aggregation=aggregation)
                    assert np.array_equal(got, expected), (depth, aggregation, chunk_edges)
        for r0, r1, nbytes in seen:
            assert nbytes <= tile_bytes or self.one_head(plan, r0, r1), (r0, r1, nbytes)
        if tile_bytes == 1:  # then every tile is one head's edges
            heads = len(set(plan.edge_head_end.tolist()))
            assert len(seen) == 2 * 2 * 3 * heads

    @pytest.mark.parametrize("aggregation", ["sum", "mean"])
    def test_row_blocks_at_the_embedding_width_give_the_same_bits(self, aggregation, monkeypatch):
        # each tile takes the last layer's dense products on its own node
        # rows; the bits then rest on BLAS giving a row block of ``A @ W``
        # the bits of those rows of the whole product, here at the width
        # and dtype that the expressiveness embeddings run in
        cfg = EmbeddingConfig()
        graphs = synth_suites(0)["random"][:10]
        plan = compile_plan(graphs, K1)
        rng = np.random.default_rng(18)
        net = build_gcn_net(rng, cfg.layers, cfg.hidden, data_in=cfg.hidden, c_out=cfg.out, dtype=cfg.dtype)
        for layer in net.layers:  # nonzero biases, so that a lost add shows
            layer.bias = rng.standard_normal(layer.bias.shape).astype(cfg.dtype)
        x = rng.standard_normal((plan.node_rows, cfg.hidden)).astype(cfg.dtype)
        outs = {}
        for tile_bytes in (1, batched.TILE_BYTES, 10**9):
            monkeypatch.setattr(batched, "TILE_BYTES", tile_bytes)
            outs[tile_bytes] = gcn2_layer_numpy(plan, net, x, aggregation=aggregation)
        whole = outs.pop(10**9)
        for tile_bytes, out in outs.items():
            assert np.array_equal(out, whole), (
                f"at TILE_BYTES={tile_bytes}, this BLAS gives a row block of A @ W (width {cfg.hidden}, "
                f"{np.dtype(cfg.dtype)}) other bits than those rows of the whole product"
            )

    def test_the_tape_takes_the_whole_edge_level_at_once(self, monkeypatch):
        torus = square_torus(32)  # many tiles off the tape
        plan = compile_plan([torus], K1)
        x = ad.constant(node_attrs_to_buffer(plan, degree_features([torus]), dtype=np.float32))
        params = init_message_net_params(np.random.default_rng(17), 3, 32, data_in=1, c_out=32, dtype=np.float32)
        seen = self.spy_on_edge_level(monkeypatch)

        def no_tiles(*args):
            raise AssertionError("the tape walked tiles")

        monkeypatch.setattr(batched, "_tiles", no_tiles)
        out = gcn2_layer_tensor(plan, params, x)
        assert out._on_tape()
        assert [(r0, r1) for r0, r1, _ in seen] == [(0, plan.edge_rows)]

    def test_a_taped_middle_layer_keeps_the_edge_level_on_the_tape(self):
        rng = np.random.default_rng(15)
        graphs = [random_graph(rng, 7, 0.5), random_graph(rng, 6, 0.5)]
        plan = compile_plan(graphs, K1)
        x = ad.constant(features_to_buffer(plan, [standard_blocks(rng, g, 2) for g in graphs], 2))
        weights = {k: p.data for k, p in init_message_net_params(rng, 3, 4, data_in=2, c_out=3).items()}

        def middle_grads(taped):
            params = {k: ad.param(w) if taped(k) else ad.constant(w) for k, w in weights.items()}
            out = gcn2_layer_tensor(plan, params, x)
            loss = ad.softmax_cross_entropy(pool(plan, out), np.array([0, 1]))
            return ad.grads_of(loss, {k: p for k, p in params.items() if "/l1/" in k})

        every = middle_grads(lambda k: True)
        # the other layers' weights constants: the first products leave the tape
        only_middle = middle_grads(lambda k: "/l1/" in k)
        assert every.keys() == only_middle.keys() and len(every) == 3
        for name, g in every.items():
            assert g.any() and np.array_equal(g, only_middle[name]), name

    def test_one_layer_takes_few_node_buffers(self):
        # off the tape each tile finishes its own node rows into the one
        # output buffer, and no node-level product follows the walk. On the
        # 64x64 torus at width 32 the peak reads 3.74 outputs; it read 4.53
        # with two projection buffers and three node-level products, and
        # 6.07 with the first products kept through those
        rng = np.random.default_rng(16)
        plan = compile_plan([square_torus(64)], K1)
        net = build_gcn_net(rng, 2, 32, data_in=32, c_out=32, dtype=np.float32)
        x = rng.standard_normal((plan.node_rows, 32)).astype(np.float32)
        expected = gcn2_layer_numpy(plan, net, x)  # builds the kept blocks
        tracemalloc.start()
        try:
            out = gcn2_layer_numpy(plan, net, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, expected)
        assert peak <= 4.2 * out.nbytes, peak / out.nbytes

    def test_bounds_and_counts_are_kept_by_the_plan(self, monkeypatch):
        rng = np.random.default_rng(14)
        graphs = [random_graph(rng, 8, 0.5) for _ in range(2)]
        plan = compile_plan(graphs, K1)
        net = message_net_from_params(init_message_net_params(rng, 2, 4, data_in=1, c_out=3, dtype=np.float32))
        x = node_attrs_to_buffer(plan, degree_features(graphs), dtype=np.float32)
        walks = []
        tiles = batched._tiles

        def counting(*args):
            walks.append(args[1:])
            return tiles(*args)

        monkeypatch.setattr(batched, "_tiles", counting)
        first = [gcn2_layer_numpy(plan, net, x, chunk_edges=c) for c in (None, 3)]
        messages = plan.messages(np.float32)
        again = [gcn2_layer_numpy(plan, net, x, chunk_edges=c) for c in (None, 3)]
        assert len(walks) == 2 and all(np.array_equal(a, b) for a, b in zip(first, again))
        assert plan.messages(np.float32) is messages
        assert messages.dtype == np.float32 and messages[:, 0].tolist() == np.diff(plan.project.indptr).tolist()


class TestFloat32Inference:
    def test_message_net_products_stay_float32(self, monkeypatch):
        rng = np.random.default_rng(8)
        graphs = [random_graph(rng, 8, 0.4) for _ in range(3)]
        plan = compile_plan(graphs, K1)
        params = init_message_net_params(rng, 3, 6, data_in=2, c_out=3, dtype=np.float32)
        net = message_net_from_params(params)
        buf = features_to_buffer(plan, [standard_blocks(rng, g, 2) for g in graphs], 2)

        # the operand dtypes of every dense and every sparse product, the
        # sparse operator as handed over: sparse_mix would cast a float64
        # operator itself, once per chunk, and hide a missing cast
        seen = {"dense": [], "sparse": []}
        matmul, sparse_mix = ad.matmul, ad.sparse_mix

        def dense_spy(a, b, **out):
            seen["dense"].append((a.dtype, b.dtype))
            return matmul(a, b, **out)

        def sparse_spy(a, mat, *transposed):
            seen["sparse"].append((a.dtype, mat.dtype))
            return sparse_mix(a, mat, *transposed)

        monkeypatch.setattr(ad, "matmul", dense_spy)
        monkeypatch.setattr(ad, "sparse_mix", sparse_spy)
        out32 = gcn2_layer_numpy(plan, net, buf.astype(np.float32), chunk_edges=4)
        monkeypatch.undo()
        assert out32.dtype == np.float32
        # A chunk takes 4 edges and runs on to the end of its last head's
        # edges; edges are ordered by (graph, head, tail).
        heads = [(gi, q) for gi, g in enumerate(plan.graphs) for q in sorted(q for _, q in g.edges)]
        n_chunks = e = 0
        while e < len(heads):
            e = min(e + 4, len(heads))
            while e < len(heads) and heads[e] == heads[e - 1]:
                e += 1
            n_chunks += 1
        # on node rows, the first layer's weights; per chunk, the middle
        # layer's two weights, then the last layer's two weights and its
        # bias on the chunk's own node rows
        assert len(seen["dense"]) == 1 + 5 * n_chunks
        # per chunk: embed, the middle layer's mix, project and project-mix
        assert len(seen["sparse"]) == 4 * n_chunks
        assert {t for pair in seen["dense"] + seen["sparse"] for t in pair} == {np.dtype(np.float32)}

        params64 = {k: ad.constant(v.data.astype(np.float64)) for k, v in params.items()}
        out64 = gcn2_layer_numpy(plan, message_net_from_params(params64), buf)
        assert out64.dtype == np.float64
        assert np.max(np.abs(out32 - out64)) <= 1e-5 * np.max(np.abs(out64))


class TestFloat32Training:
    @pytest.mark.parametrize("aggregation", ["sum", "mean"])
    def test_classifier_tape_and_gradients_stay_float32(self, aggregation):
        rng = np.random.default_rng(9)
        graphs = [random_graph(rng, 7, 0.4) for _ in range(4)]
        plan = compile_plan(graphs, K1)
        cfg = Gcn2Config(
            ngn_layers=2, msg_layers=2, hidden=5, classes=3, aggregation=aggregation, dtype=np.float32
        )
        params = init_classifier_params(rng, 2, cfg)
        x0 = node_attrs_to_buffer(
            plan, [rng.standard_normal((g.n, 2)) for g in graphs], dtype=np.float32
        )
        loss = ad.softmax_cross_entropy(classifier_logits(plan, params, x0, cfg), np.array([0, 1, 2, 0]))
        tape, stack, seen = [], [loss], set()
        while stack:
            t = stack.pop()
            if id(t) not in seen:
                seen.add(id(t))
                tape.append(t)
                stack.extend(t._parents)
        ad.backward(loss)
        assert all(p.grad is not None for p in params.values())
        for t in tape:
            assert t.dtype == np.float32, t
            assert t.grad is None or t.grad.dtype == np.float32, t


class TestClassifier:
    def test_tensor_and_numpy_paths_agree(self):
        rng = np.random.default_rng(4)
        graphs = [random_graph(rng, 7, 0.4) for _ in range(5)]
        plan = compile_plan(graphs, K1)
        cfg = Gcn2Config(ngn_layers=2, msg_layers=2, hidden=5, classes=3)
        params = init_classifier_params(rng, 2, cfg)
        x0 = node_attrs_to_buffer(plan, [rng.standard_normal((g.n, 2)) for g in graphs])
        logits_t = classifier_logits(plan, params, x0, cfg)
        logits_n = classifier_logits_numpy(plan, params, x0, cfg)
        assert np.allclose(logits_t.data, logits_n, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_numpy_logits_equal_the_per_layer_numpy_stack_bit_for_bit(self, dtype):
        """``classifier_logits_numpy`` runs ``classifier_logits`` on
        constants; its logits, and so ``train_classifier``'s accuracy, are
        those of the NGN layers run one by one through ``gcn2_layer_numpy``."""

        def stacked_logits(plan, params, x0, cfg):
            x = x0.astype(cfg.dtype)
            for layer in range(cfg.ngn_layers):
                net = message_net_from_params(params, prefix=f"ngn{layer}")
                x = gcn2_layer_numpy(plan, net, x, aggregation=cfg.aggregation)
                if layer < cfg.ngn_layers - 1:
                    x = np.maximum(x, 0.0)
            return pool(plan, ad.constant(x)).data @ params["head/w"].data + params["head/b"].data

        rng = np.random.default_rng(12)
        graphs = [random_graph(rng, int(rng.integers(5, 9)), 0.5) for _ in range(8)]
        labels = np.arange(8) % 2
        plan = compile_plan(graphs, K1)
        x0 = node_attrs_to_buffer(plan, [rng.standard_normal((g.n, 2)) for g in graphs])
        for aggregation in ("sum", "mean"):
            cfg = Gcn2Config(ngn_layers=3, msg_layers=3, hidden=5, aggregation=aggregation, dtype=dtype)
            params = init_classifier_params(np.random.default_rng(3), 2, cfg)
            saved = {k: p.data.copy() for k, p in params.items()}
            logits = classifier_logits_numpy(plan, params, x0, cfg)
            assert logits.dtype == dtype
            assert np.array_equal(logits, stacked_logits(plan, params, x0, cfg)), aggregation
            assert all(np.array_equal(p.data, saved[k]) for k, p in params.items())

            result = train_classifier([plan], [x0], [labels], params, cfg, epochs=3, rate=1e-2, seed=0)
            pred = stacked_logits(plan, params, x0, cfg).argmax(axis=1)
            assert result.train_accuracy == float((pred == labels).mean()), aggregation

    def test_training_reduces_loss_and_is_deterministic(self):
        rng = np.random.default_rng(5)
        graphs, labels = [], []
        # two planted families: dense blobs vs sparse rings
        for i in range(12):
            if i % 2 == 0:
                graphs.append(random_graph(rng, 8, 0.8, id_offset=0))
                labels.append(0)
            else:
                graphs.append(cycle_graph(*range(8)))
                labels.append(1)
        plan = compile_plan(graphs, K1)
        degattr = [np.array([[len(g.und_nbrs[u])] for u in g.nodes], dtype=float) for g in graphs]
        x0 = node_attrs_to_buffer(plan, degattr)
        cfg = Gcn2Config(ngn_layers=2, msg_layers=2, hidden=8, classes=2)

        def run():
            params = init_classifier_params(np.random.default_rng(7), 1, cfg)
            return train_classifier(
                [plan], [x0], [np.array(labels)], params, cfg, epochs=30, rate=3e-3, seed=0
            )

        r1, r2 = run(), run()
        assert r1.losses == r2.losses
        assert r1.losses[-1] < r1.losses[0]
        assert r1.train_accuracy == 1.0


# sha256 of train_classifier's epoch losses and final parameters (see
# training_digest) on a fixed corpus of two batches, 3 epochs. Training must
# reproduce them bit for bit: the operators a plan keeps and the tape's
# gradient rules may be reorganised, not the floats they compute.
PINNED_TRAINING_SHA256 = {
    ("float32", 2, "sum"): "ba0d94493d5ad60d113b3661fe7d6b5315b77d0549f36ee408b5ca00cd094378",
    ("float32", 3, "mean"): "2cd962aa7e66019295db9df16b895424d0a97b2ac286c0ef42bf30c3b2c2cf5b",
    ("float64", 2, "sum"): "1a7aa32bca2d8443f17f6080e3a1eae6a1dcdf472afe2dea1cb11492da2283ab",
    ("float64", 3, "mean"): "3a2ccac52932c8c25dc65b3ea4bbf92e34538a39cd0606f23af1e1658024d763",
}


def training_batches(dtype):
    """Plans, inputs and labels of two batches of small graphs."""
    rng = np.random.default_rng(21)
    graphs = [random_graph(rng, int(rng.integers(5, 9)), 0.45) for _ in range(10)]
    lonely = from_undirected(range(5), [(0, 1), (1, 2), (2, 0), (2, 3)])  # node 4 has no edge
    plans, inputs, labels = [], [], []
    for batch in (graphs[:5] + [lonely], graphs[5:]):
        plan = compile_plan(batch, K1)
        plans.append(plan)
        inputs.append(node_attrs_to_buffer(plan, [rng.standard_normal((g.n, 2)) for g in batch], dtype=dtype))
        labels.append(np.arange(len(batch)) % 2)
    return plans, inputs, labels


def training_digest(dtype, msg_layers: int, aggregation: str) -> str:
    plans, inputs, labels = training_batches(dtype)
    cfg = Gcn2Config(ngn_layers=2, msg_layers=msg_layers, hidden=6, aggregation=aggregation, dtype=dtype)
    params = init_classifier_params(np.random.default_rng(4), 2, cfg)
    result = train_classifier(plans, inputs, labels, params, cfg, epochs=3, rate=1e-2, seed=1)
    digest = hashlib.sha256(np.array(result.losses, dtype=np.float64).tobytes())
    for name in sorted(params):
        assert params[name].data.dtype == dtype, name
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(params[name].data).tobytes())
    return digest.hexdigest()


class TestTrainingIsPinned:
    @pytest.mark.parametrize("key", sorted(PINNED_TRAINING_SHA256))
    def test_losses_and_final_params_pinned(self, key):
        dtype, msg_layers, aggregation = key
        assert training_digest(np.dtype(dtype).type, msg_layers, aggregation) == PINNED_TRAINING_SHA256[key]


class TestOperatorsBuiltOnce:
    """A plan keeps every operator it takes of its own: row blocks per
    dtype, their transposes and its scatters."""

    def test_no_sparse_matrix_is_built_after_the_first_epoch(self, monkeypatch):
        plans, inputs, labels = training_batches(np.float32)
        cfg = Gcn2Config(ngn_layers=2, msg_layers=3, hidden=6, dtype=np.float32)
        params = init_classifier_params(np.random.default_rng(4), 2, cfg)
        built = [0]

        def counting(cls):
            init = cls.__init__

            def counting_init(self, *args, **kwargs):
                built[0] += 1
                init(self, *args, **kwargs)

            return counting_init

        # the count of matrices built before each step's update
        before_update = []
        adam_step = ad.adam_step

        def spy_step(*args):
            before_update.append(built[0])
            return adam_step(*args)

        # blocks, scatters and transposes are CSR; a transpose taken per
        # call (``csr.T``) is a CSC
        for cls in (sp.csr_matrix, sp.csc_matrix):
            monkeypatch.setattr(cls, "__init__", counting(cls))
        monkeypatch.setattr(ad, "adam_step", spy_step)
        train_classifier(plans, inputs, labels, params, cfg, epochs=4, rate=1e-2, seed=1)
        first_epoch = before_update[len(plans) - 1]
        assert len(before_update) == 4 * len(plans) and first_epoch > 0
        # later epochs, and the accuracy pass after them, build none
        assert built[0] == first_epoch, before_update

    def test_kept_blocks_serve_only_their_dtype(self):
        rng = np.random.default_rng(13)
        lonely = from_undirected(range(5), [(0, 1), (1, 2), (2, 0), (2, 3)])
        graphs = [random_graph(rng, 8, 0.4), lonely, random_graph(rng, 7, 0.6)]
        attrs = [rng.standard_normal((g.n, 2)) for g in graphs]
        labels = np.array([0, 1, 0])
        plan, gcn_plan = compile_plan(graphs, K1), compile_gcn_plan(graphs)

        def outputs(plan, gcn_plan, dtype):
            net = message_net_from_params(
                init_message_net_params(np.random.default_rng(5), 3, 5, data_in=2, c_out=3, dtype=dtype)
            )
            x = node_attrs_to_buffer(plan, attrs, dtype=dtype)
            out = [gcn2_layer_numpy(plan, net, x, chunk_edges=c) for c in (None, 1, 5)]
            cfg = Gcn2Config(ngn_layers=2, msg_layers=3, hidden=5, dtype=dtype)
            params = init_classifier_params(np.random.default_rng(6), 2, cfg)
            loss = ad.softmax_cross_entropy(classifier_logits(plan, params, x, cfg), labels)
            out.append(loss.data)
            out += ad.grads_of(loss, params).values()
            gcn = build_plain_gcn(np.random.default_rng(7), 2, 4, c_in=2, c_out=3, dtype=dtype)
            out.append(gcn_forward_numpy(gcn_plan, gcn, np.concatenate(attrs).astype(dtype)))
            return out

        for dtype in (np.float32, np.float64, np.float32):
            kept = outputs(plan, gcn_plan, dtype)
            fresh = outputs(compile_plan(graphs, K1), compile_gcn_plan(graphs), dtype)
            assert len(kept) == len(fresh)
            for a, b in zip(kept, fresh):
                assert a.dtype == b.dtype == dtype and np.array_equal(a, b), dtype


def compiled_path_digest() -> str:
    """sha256 over ``gcn2_embeddings`` of the four suites of ``synth_suites(0)``
    (weight seeds 0-1 outer, suites inner, the default float32 config) and
    then over a 3-layer float32 forward of the 32x32 torus, its nets drawn as
    ``ngn bench`` draws them."""
    digest = hashlib.sha256()
    suites = synth_suites(0)
    plans = {name: compile_plan(graphs, K1) for name, graphs in suites.items()}
    for seed in (0, 1):
        for name, graphs in suites.items():
            digest.update(gcn2_embeddings(plans[name], degree_features(graphs), seed, EmbeddingConfig()).tobytes())
    rng = np.random.default_rng(0)
    nets = [build_gcn_net(rng, 2, 32, data_in=(1 if l == 0 else 32), c_out=32, dtype=np.float32) for l in range(3)]
    torus = square_torus(32)
    plan = compile_plan([torus], K1)
    x = node_attrs_to_buffer(plan, degree_features([torus]), dtype=np.float32)
    for l, net in enumerate(nets):
        x = gcn2_layer_numpy(plan, net, x)
        if l < len(nets) - 1:
            np.maximum(x, 0, out=x)
    digest.update(x.tobytes())
    return digest.hexdigest()


class TestCompiledPathIsPinned:
    def test_embeddings_and_torus_forward_pinned(self):
        # tiles and chunks may change how the edge level is walked, never
        # the floats it computes
        assert compiled_path_digest() == "3db627de27f5f7c0f582c2a7d9bc86a18db82a42539c6bc4c3a43802ae110778"


class TestEmbeddings:
    def test_isomorphic_graphs_embed_identically(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 10, 0.4)
        relabs = []
        for _ in range(6):
            perm = dict(zip(g.nodes, [int(x) for x in rng.permutation(list(g.nodes))]))
            relabs.append(g.relabel(perm))
        plan = compile_plan(relabs, K1)
        degrees = [np.array([[len(h.und_nbrs[u])] for u in h.nodes], dtype=float) for h in relabs]
        emb = gcn2_embeddings(plan, degrees, seed=0, cfg=EmbeddingConfig(hidden=16, out=8))
        rate = dissimilar_pair_rate(emb)
        assert rate == 0.0

    def test_distinct_random_graphs_embed_differently(self):
        rng = np.random.default_rng(7)
        graphs = [random_graph(rng, 10, 0.4, id_offset=0) for _ in range(6)]
        plan = compile_plan(graphs, K1)
        degrees = [np.array([[len(h.und_nbrs[u])] for u in h.nodes], dtype=float) for h in graphs]
        emb = gcn2_embeddings(plan, degrees, seed=1, cfg=EmbeddingConfig(hidden=16, out=8))
        assert dissimilar_pair_rate(emb) == 1.0

    def test_gcn_baseline_blind_to_regular_graphs(self):
        # two non-isomorphic 3-regular graphs: the triangular prism and K_{3,3};
        # with constant degree inputs an invariant message passer cannot tell
        # them apart, so the pair must land below the dissimilarity threshold
        from ngn.graph_core import ConcreteGraph, from_undirected
        from ngn.models import gcn_embeddings

        k33 = from_undirected(range(6), [(i, j + 3) for i in range(3) for j in range(3)])
        prism = from_undirected(
            range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
        )
        plan = compile_gcn_plan([prism, k33])
        degrees = [np.full((6, 1), 3.0), np.full((6, 1), 3.0)]
        emb = gcn_embeddings(plan, degrees, seed=2, cfg=EmbeddingConfig(hidden=16, out=8))
        assert dissimilar_pair_rate(emb) == 0.0
