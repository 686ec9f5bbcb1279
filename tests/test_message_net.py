import numpy as np
import pytest

from ngn.errors import ShapeError, ValidationError
from ngn.graph_core import ConcreteGraph, GraphIso, from_undirected
from ngn.message_net import (
    GcnLayerParams,
    GcnMessageNet,
    build_gcn_net,
    embed_alpha,
    gcn2_message,
    gcn_forward,
    neighbour_mean_matrix,
    ngn_gcn2_forward,
    parse_net_config,
)
from ngn.neighbourhoods import NeighbourhoodAssignment, edge_neighbourhood, node_neighbourhood
from ngn.representations import GlobalFeature, RepSpec, lift_global, rep_matrix

from helpers import cycle_graph, path_graph, random_graph, random_relabeling, tau_row_permutation

K1 = NeighbourhoodAssignment(1)


def standard_blocks(rng, g, c):
    return GlobalFeature(
        {
            p: rng.standard_normal((node_neighbourhood(g, p, K1).graph.n, c)).reshape(-1)
            for p in g.nodes
        }
    )


from helpers import edge_iso_with_restrictions


class TestConfigText:
    def test_parse(self):
        assert parse_net_config("gcn2(layers=2, hidden=64)") == {"layers": 2, "hidden": 64}

    def test_rejects(self):
        for bad in [
            "gcn2()",
            "mlp(layers=2, hidden=3)",
            "gcn2(hidden=2, layers=3)",
            "gcn2(layers=0, hidden=16)",
            "gcn2(layers=2, hidden=0)",
        ]:
            with pytest.raises(ValidationError):
                parse_net_config(bad)


class TestEmbed:
    def test_ball_equals_neighbourhood_is_plain_copy(self):
        g = cycle_graph(0, 1, 2)
        nb = edge_neighbourhood(g, 0, 1, K1)
        v_p = np.arange(6.0).reshape(3, 2)
        f = embed_alpha(v_p, nb, K1)
        assert np.array_equal(f[:, :2], v_p)
        assert np.array_equal(f[:, 2], [1.0, 0.0, 0.0])  # marker at p=0
        assert np.array_equal(f[:, 3], [0.0, 1.0, 0.0])  # marker at q=1

    def test_zero_feature_keeps_markers(self):
        g = path_graph(0, 1, 2)
        nb = edge_neighbourhood(g, 1, 2, K1)
        f = embed_alpha(np.zeros((3, 4)), nb, K1)
        assert np.all(f[:, :4] == 0.0)
        assert f[:, 4].sum() == 1.0 and f[:, 5].sum() == 1.0

    def test_out_of_ball_nodes_zero_padded(self):
        g = path_graph(0, 1, 2, 3)
        nb = edge_neighbourhood(g, 1, 2, K1)  # whole path
        tail_nodes = node_neighbourhood(nb.graph, 1, K1).graph.nodes
        assert tail_nodes == (0, 1, 2)
        v_p = np.ones((3, 1))
        f = embed_alpha(v_p, nb, K1)
        index = {v: i for i, v in enumerate(nb.graph.nodes)}
        assert f[index[3], 0] == 0.0

    def test_embed_commutes_with_relabeling(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 8, 0.4)
        p, q = sorted(g.edges)[0]
        nb, target_nb, psi, psi_tail, psi_head = edge_iso_with_restrictions(rng, g, p, q)
        c = 3
        v_p = rng.standard_normal((psi_tail.source.n, c))
        v_p_moved = rep_matrix(RepSpec.standard(1), psi_tail) @ v_p
        lhs = embed_alpha(v_p_moved, target_nb, K1)
        rhs = tau_row_permutation(psi) @ embed_alpha(v_p, nb, K1)
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_shape_error(self):
        g = cycle_graph(0, 1, 2)
        nb = edge_neighbourhood(g, 0, 1, K1)
        with pytest.raises(ShapeError):
            embed_alpha(np.zeros((7, 2)), nb, K1)


class TestGcnLayer:
    def test_zero_weights_zero_output(self):
        g = cycle_graph(0, 1, 2)
        nb = edge_neighbourhood(g, 0, 1, K1)
        f = embed_alpha(np.ones((3, 1)), nb, K1)
        layer = GcnLayerParams(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(2))
        out = gcn_forward(GcnMessageNet([layer]), neighbour_mean_matrix(nb.graph), f)
        assert np.all(out == 0.0)

    def test_single_edge_identity_neighbour_weight_copies_source(self):
        g = ConcreteGraph.build([0, 1], [(0, 1)])
        nb = edge_neighbourhood(g, 0, 1, K1)
        vals = np.array([[5.0, -2.0, 1.0, 0.0], [3.0, 8.0, 0.0, 1.0]])
        layer = GcnLayerParams(np.zeros((4, 4)), np.eye(4), np.zeros(4), final=True)
        out = gcn_forward(GcnMessageNet([layer]), neighbour_mean_matrix(nb.graph), vals)
        # node 1 has one in-neighbour (node 0); node 0 has none
        assert np.array_equal(out[1], vals[0])
        assert np.all(out[0] == 0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 7, 0.5)
        p, q = sorted(g.edges)[0]
        nb, target_nb, psi, _, _ = edge_iso_with_restrictions(rng, g, p, q)
        perm = tau_row_permutation(psi)
        vals = rng.standard_normal((nb.graph.n, 4))
        net = GcnMessageNet([GcnLayerParams(
            rng.standard_normal((4, 5)), rng.standard_normal((4, 5)), rng.standard_normal(5)
        )])
        out_src = gcn_forward(net, neighbour_mean_matrix(nb.graph), vals)
        out_tgt = gcn_forward(net, neighbour_mean_matrix(target_nb.graph), perm @ vals)
        assert np.allclose(perm @ out_src, out_tgt, atol=1e-12)


class TestMessage:
    def test_zero_input_zero_biases_zero_message(self):
        rng = np.random.default_rng(2)
        g = cycle_graph(0, 1, 2, 3)
        nb = edge_neighbourhood(g, 0, 1, K1)
        net = build_gcn_net(rng, 2, 8, data_in=2, c_out=3)
        v_p = np.zeros((node_neighbourhood(g, 0, K1).graph.n, 2))
        # markers still feed the net, so zero the first-layer marker rows too
        net.layers[0].w_self[-2:] = 0.0
        net.layers[0].w_neigh[-2:] = 0.0
        msg = gcn2_message(net, v_p, nb, K1)
        assert np.all(msg == 0.0)

    def test_single_edge_identity_layer_closed_form(self):
        g = from_undirected([0, 1], [(0, 1)])
        nb = edge_neighbourhood(g, 0, 1, K1)
        layer = GcnLayerParams(np.eye(3), np.zeros((3, 3)), np.zeros(3), final=True)
        net = GcnMessageNet([layer])
        v_p = np.array([[4.0], [7.0]])
        msg = gcn2_message(net, v_p, nb, K1)
        # data column passes through; marker columns pass through unchanged
        assert np.array_equal(msg, np.array([[4.0, 1.0, 0.0], [7.0, 0.0, 1.0]]))

    def test_message_naturality_under_edge_relabeling(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_graph(rng, 9, 0.35)
            edges = sorted(g.edges)
            p, q = edges[int(rng.integers(len(edges)))]
            nb, target_nb, psi, psi_tail, psi_head = edge_iso_with_restrictions(rng, g, p, q)
            c = 2
            net = build_gcn_net(rng, 2, 6, data_in=c, c_out=3)
            v_p = rng.standard_normal((psi_tail.source.n, c))
            p_mat = rep_matrix(RepSpec.standard(1), psi_tail)
            q_mat = rep_matrix(RepSpec.standard(1), psi_head)
            lhs = q_mat @ gcn2_message(net, v_p, nb, K1)
            rhs = gcn2_message(net, p_mat @ v_p, target_nb, K1)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_marker_swap_changes_message(self):
        rng = np.random.default_rng(4)
        g = cycle_graph(0, 1, 2, 3, 4)
        nb = edge_neighbourhood(g, 0, 1, K1)
        net = build_gcn_net(rng, 2, 8, data_in=1, c_out=4)
        v_p = rng.standard_normal((node_neighbourhood(g, 0, K1).graph.n, 1))
        f = embed_alpha(v_p, nb, K1)
        swapped = f.copy()
        swapped[:, [-2, -1]] = swapped[:, [-1, -2]]
        mix = neighbour_mean_matrix(nb.graph)
        assert np.linalg.norm(gcn_forward(net, mix, f) - gcn_forward(net, mix, swapped)) > 1e-6

    def test_zeroed_marker_rows_reduce_to_plain_gcn_on_neighbourhood(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 8, 0.4)
        p, q = sorted(g.edges)[0]
        nb = edge_neighbourhood(g, p, q, K1)
        net = build_gcn_net(rng, 1, 8, data_in=1, c_out=2)
        net.layers[0].w_self[-2:] = 0.0
        net.layers[0].w_neigh[-2:] = 0.0
        v_p = rng.standard_normal((node_neighbourhood(g, p, K1).graph.n, 1))
        msg = gcn2_message(net, v_p, nb, K1)
        # ablation oracle: plain GCN on the neighbourhood, data channel only
        f_data = embed_alpha(v_p, nb, K1)[:, :1]
        mix = neighbour_mean_matrix(nb.graph) @ f_data
        plain = f_data @ net.layers[0].w_self[:1] + mix @ net.layers[0].w_neigh[:1]
        head_nodes = node_neighbourhood(nb.graph, q, K1).graph.nodes
        index = {v: i for i, v in enumerate(nb.graph.nodes)}
        assert np.allclose(msg, plain[[index[u] for u in head_nodes]], atol=1e-12)


class TestGlobalForward:
    def test_edgeless_zero(self):
        rng = np.random.default_rng(6)
        g = ConcreteGraph.build([2, 5], [])
        net = build_gcn_net(rng, 2, 4, data_in=3, c_out=2)
        v = standard_blocks(rng, g, 3)
        out = ngn_gcn2_forward(net, g, v, K1)
        assert all(np.all(b == 0.0) for b in out.blocks.values())

    def test_global_naturality(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            g = random_graph(rng, 10, 0.3)
            net = build_gcn_net(rng, 2, 6, data_in=2, c_out=3)
            v = standard_blocks(rng, g, 2)
            phi = random_relabeling(rng, g, fresh_ids=True)
            lhs = lift_global(phi, ngn_gcn2_forward(net, g, v, K1), RepSpec.standard(3), K1)
            rhs = ngn_gcn2_forward(net, phi.target, lift_global(phi, v, RepSpec.standard(2), K1), K1)
            assert lhs.max_abs_diff(rhs) < 1e-12

    @pytest.mark.parametrize("change", ["missing", "extra", "mis-sized"])
    def test_blocks_that_do_not_fit_the_net_raise_shape_error(self, change):
        rng = np.random.default_rng(8)
        g = path_graph(0, 1, 2)
        net = build_gcn_net(rng, 2, 4, data_in=2, c_out=3)
        blocks = standard_blocks(rng, g, 2).blocks
        if change == "missing":
            del blocks[2]
        elif change == "extra":
            blocks[9] = np.zeros(2)
        else:
            blocks[0] = np.zeros(blocks[0].size - 1)  # node 0's tail block is read by edge (0, 1)
        with pytest.raises(ShapeError):
            ngn_gcn2_forward(net, g, GlobalFeature(blocks), K1)
