import numpy as np
import pytest

from ngn.errors import CapacityError, ValidationError
from ngn.graph_core import ConcreteGraph, GraphIso, from_undirected
from ngn.neighbourhoods import NeighbourhoodAssignment, node_neighbourhood
from ngn.representations import (
    MULTIPLICITY_CAP,
    GlobalFeature,
    RepSpec,
    aggregate,
    ball_map,
    lift_global,
    parse_rep_spec,
    random_feature,
    rep_matrix,
)

from helpers import inverse, path_graph, random_capped_graph, random_graph, random_relabeling, restrict_global_iso

K1 = NeighbourhoodAssignment(1)


class TestSpecText:
    def test_round_trip(self):
        for text in ["standard*16", "trivial*8+standard*4", "trivial", "standard"]:
            spec = parse_rep_spec(text)
            assert parse_rep_spec(str(spec)) == spec

    def test_rejects_garbage(self):
        for bad in ["", "regular*3", "standard*0", "standard**2"]:
            with pytest.raises(ValidationError):
                parse_rep_spec(bad)

    def test_rejects_a_multiplicity_above_the_cap(self):
        # parsed only, so nothing is allocated at that size
        for bad in ["trivial*99999999999", f"standard*{MULTIPLICITY_CAP + 1}", f"trivial+standard*{10**6}"]:
            with pytest.raises(CapacityError):
                parse_rep_spec(bad)
        assert parse_rep_spec(f"trivial*{MULTIPLICITY_CAP}") == RepSpec.trivial(MULTIPLICITY_CAP)


class TestRepDim:
    def test_trivial_is_channel_count(self):
        nb = node_neighbourhood(path_graph(0, 1, 2), 1, K1)
        assert RepSpec.trivial(8).dim(nb.graph.n) == 8

    def test_standard_counts_neighbourhood_nodes(self):
        g = from_undirected(range(5), [(0, 1), (0, 2), (0, 3), (0, 4)])
        nb = node_neighbourhood(g, 0, K1)
        assert nb.graph.n == 5
        assert RepSpec.standard(1).dim(nb.graph.n) == 5

    def test_sum(self):
        nb = node_neighbourhood(path_graph(0, 1, 2), 1, K1)
        assert nb.graph.n == 3
        assert (RepSpec.standard(1) + RepSpec.trivial(1)).dim(nb.graph.n) == 4

    def test_offsets_are_each_parts_first_coordinate(self):
        spec = parse_rep_spec("trivial*2+standard*3+trivial*1")
        assert spec.offsets(4) == [0, 2, 14] and spec.dim(4) == 15


class TestBallMap:
    def test_ranks_of_the_images_in_the_target_ball(self):
        mapping = {3: 20, 5: 10, 8: 30, 9: 99}
        assert ball_map(mapping, (3, 5, 8), (10, 20, 30)).tolist() == [1, 0, 2]
        assert ball_map(mapping, (), ()).tolist() == []

    @pytest.mark.parametrize(
        "mapping, target",
        [
            ({3: 20, 5: 10, 8: 31}, (10, 20, 30)),  # an image outside the target ball
            ({3: 20, 5: 10, 8: 20}, (10, 20, 30)),  # two nodes onto one
            ({3: 20, 5: 10, 8: 30}, (10, 20, 30, 40)),  # the target ball is larger
            ({3: 20, 5: 10}, (10, 20, 30)),  # a ball node without an image
        ],
    )
    def test_raises_unless_the_image_is_the_target_ball(self, mapping, target):
        with pytest.raises(ValidationError):
            ball_map(mapping, (3, 5, 8), target)


class TestRepMatrix:
    def test_identity(self):
        g = path_graph(0, 1, 2)
        mat = rep_matrix(RepSpec.standard(2), GraphIso.identity(g))
        assert np.array_equal(mat, np.eye(6))

    def test_swap_rows_on_standard(self):
        # a neighbourhood iso exchanging the 3rd and 5th smallest ids acts on
        # the standard rep by swapping the corresponding rows
        g = from_undirected(range(5), [(0, 1), (0, 2), (0, 3), (0, 4)])
        mapping = {0: 0, 1: 1, 2: 4, 3: 3, 4: 2}
        psi = GraphIso.build(g, g, mapping)
        mat = rep_matrix(RepSpec.standard(1), psi)
        expected = np.eye(5)[[0, 1, 4, 3, 2]]
        assert np.array_equal(mat, expected)

    def test_trivial_rep_is_identity(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 6, 0.5)
        phi = random_relabeling(rng, g)
        mat = rep_matrix(RepSpec.trivial(3), phi)
        assert np.array_equal(mat, np.eye(3))

    def test_invalid_iso_rejected(self):
        g = path_graph(0, 1, 2)
        bad = GraphIso.build(g, g, {0: 1, 1: 0, 2: 2})
        with pytest.raises(ValidationError):
            rep_matrix(RepSpec.standard(1), bad)

    def test_functorial_and_orthogonal(self):
        rng = np.random.default_rng(1)
        spec = RepSpec.standard(2) + RepSpec.trivial(1)
        for _ in range(15):
            g = random_graph(rng, 6, 0.5)
            f = random_relabeling(rng, g, fresh_ids=True)
            h = random_relabeling(rng, f.target, fresh_ids=True)
            lhs = rep_matrix(spec, h.compose(f))
            rhs = rep_matrix(spec, h) @ rep_matrix(spec, f)
            assert np.array_equal(lhs, rhs)
            m = rep_matrix(spec, f)
            assert np.array_equal(m @ m.T, np.eye(m.shape[0]))
            inv = rep_matrix(spec, inverse(f))
            assert np.array_equal(inv, m.T)


class TestLiftGlobal:
    def test_identity_leaves_feature(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 5, 0.6)
        v = random_feature(rng, RepSpec.standard(2), g, K1)
        lifted = lift_global(GraphIso.identity(g), v, RepSpec.standard(2), K1)
        assert lifted.max_abs_diff(v) == 0.0

    def test_trivial_rep_permutes_blocks(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 6, 0.5)
        phi = random_relabeling(rng, g, fresh_ids=True)
        v = random_feature(rng, RepSpec.trivial(4), g, K1)
        lifted = lift_global(phi, v, RepSpec.trivial(4), K1)
        for p in g.nodes:
            assert np.array_equal(lifted.blocks[phi.apply(p)], v.blocks[p])

    def test_standard_rep_on_path_matches_hand_construction(self):
        g = path_graph(0, 1, 2)
        mapping = {0: 2, 1: 1, 2: 0}
        phi = GraphIso.build(g, g, mapping)
        v = GlobalFeature(
            {
                0: np.array([1.0, 2.0]),        # ball {0,1}
                1: np.array([3.0, 4.0, 5.0]),   # ball {0,1,2}
                2: np.array([6.0, 7.0]),        # ball {1,2}
            }
        )
        lifted = lift_global(phi, v, RepSpec.standard(1), K1)
        # node 0 (ball {0,1}, slots [0,1]) maps to node 2 (ball {1,2}, slots [1,2]):
        # 0 -> 2, 1 -> 1, so slot order reverses
        assert np.array_equal(lifted.blocks[2], np.array([2.0, 1.0]))
        # center block permutes by full reversal
        assert np.array_equal(lifted.blocks[1], np.array([5.0, 4.0, 3.0]))
        assert np.array_equal(lifted.blocks[0], np.array([7.0, 6.0]))

    def test_lift_respects_composition(self):
        rng = np.random.default_rng(4)
        spec = RepSpec.standard(1) + RepSpec.trivial(2)
        for _ in range(10):
            g = random_graph(rng, 7, 0.4)
            f = random_relabeling(rng, g, fresh_ids=True)
            h = random_relabeling(rng, f.target, fresh_ids=True)
            v = random_feature(rng, spec, g, K1)
            once = lift_global(h.compose(f), v, spec, K1)
            twice = lift_global(h, lift_global(f, v, spec, K1), spec, K1)
            assert once.max_abs_diff(twice) == 0.0

    def test_lift_matches_restricted_rep_matrices(self):
        # the index scatter equals the permutation-matrix product bit for bit
        rng = np.random.default_rng(5)
        graphs = [random_graph(rng, 6, 0.5)] + [
            random_capped_graph(rng, n, 0.4, max_degree=6) for n in (8, 10, 12)
        ]
        for spec in map(parse_rep_spec, ("standard*2", "standard*2+trivial*1", "trivial*2")):
            for g in graphs:
                phi = random_relabeling(rng, g, fresh_ids=True)
                v = random_feature(rng, spec, g, K1)
                lifted = lift_global(phi, v, spec, K1)
                for p in g.nodes:
                    local = restrict_global_iso(phi, node_neighbourhood(g, p, K1), K1)
                    expected = rep_matrix(spec, local) @ v.blocks[p]
                    assert np.array_equal(lifted.blocks[phi.apply(p)], expected)


class TestAggregate:
    # node 2 has three incoming edges, node 1 one, nodes 0 and 3 none
    G = ConcreteGraph.build(range(4), [(0, 2), (1, 2), (3, 2), (2, 1)])

    def test_messages_are_added_in_head_tail_order(self):
        values = {0: 1.0, 1: 1e16, 2: 6.0, 3: -1e16}
        calls = []

        def message(p, q):
            calls.append((p, q))
            return np.array([values[p]])

        out = aggregate(self.G, {p: np.zeros(1) for p in self.G.nodes}, message, "sum")
        assert calls == [(2, 1), (0, 2), (1, 2), (3, 2)]
        # 1 + 1e16 rounds to 1e16, so only this order of sums leaves 0 at node 2
        assert [out.blocks[p][0] for p in self.G.nodes] == [0.0, 6.0, 0.0, 0.0]

    @pytest.mark.parametrize("aggregation, expected", [("sum", [0.0, 6.0, 7.0, 0.0]), ("mean", [0.0, 6.0, 7 / 3, 0.0])])
    def test_mean_divides_only_in_degrees_above_one(self, aggregation, expected):
        values = {0: 1.0, 1: 2.0, 2: 6.0, 3: 4.0}
        blocks = {p: np.zeros(1) for p in self.G.nodes}
        out = aggregate(self.G, blocks, lambda p, q: np.array([values[p]]), aggregation)
        assert [out.blocks[p][0] for p in self.G.nodes] == expected
        assert out.blocks[0] is blocks[0] and out.blocks[3] is blocks[3]  # no in-edge: the zero block is kept

    def test_unknown_aggregation_is_rejected(self):
        with pytest.raises(ValidationError):
            aggregate(self.G, {p: np.zeros(1) for p in self.G.nodes}, lambda p, q: np.zeros(1), "max")
