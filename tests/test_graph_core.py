import hashlib
from itertools import count, islice

import numpy as np
import pytest

from ngn import datasets, graph_core, srg
from ngn.datasets import synth_suites
from ngn.errors import CapacityError, ValidationError
from ngn.graph_core import (
    AutGenerators,
    ConcreteGraph,
    GraphIso,
    automorphism_generators,
    canonical_form,
    enumerate_group,
    from_undirected,
    unique_up_to_isomorphism,
    validate_iso,
)
from ngn.kernel_solver import locate_edge
from ngn.lattices import king_torus, triangular_torus
from ngn.neighbourhoods import NeighbourhoodAssignment, edge_neighbourhood
from ngn.srg import builtin_srg_25, paley_25

from helpers import (
    brute_automorphisms,
    brute_isos,
    complete_graph,
    cycle_graph,
    find_iso,
    inverse,
    is_identity,
    path_graph,
    random_digraph,
    random_graph,
    random_relabeling,
    unique_by_canonical_form,
)

# sha256 over the concatenated canonical encodings that test_encodings_pinned
# lists. Class caches and saved layers are keyed by these encodings, so a
# change to this digest invalidates every one of them.
PINNED_ENCODINGS_SHA256 = "cf2e413ca4f0db719af6fe32c3ee751f4708392c7d5b56d149a5fc6516b34374"


def triangle(ids=(0, 1, 2)):
    return cycle_graph(*ids)


class TestConcreteGraph:
    def test_build_rejects_dangling_edge(self):
        with pytest.raises(ValidationError):
            ConcreteGraph.build([0, 1], [(0, 2)])

    def test_build_rejects_self_loop_by_default(self):
        with pytest.raises(ValidationError):
            ConcreteGraph.build([0, 1], [(0, 0)])
        g = ConcreteGraph.build([0, 1], [(0, 0)], allow_self_loops=True)
        assert (0, 0) in g.edges

    def test_noncontiguous_ids(self):
        g = from_undirected([5, 9, 30], [(5, 9), (9, 30)])
        assert g.nodes == (5, 9, 30)
        assert g.und_nbrs[9] == frozenset({5, 30})

    def test_undirected_neighbours_join_both_directions(self):
        # a one-way edge, a two-way edge, a self-loop and an isolated node
        g = ConcreteGraph.build([2, 5, 7, 11], [(2, 5), (7, 2), (2, 7), (5, 5)], allow_self_loops=True)
        assert {v: g.und_nbrs[v] for v in g.nodes} == {v: g.out_nbrs[v] | g.in_nbrs[v] for v in g.nodes}
        assert g.und_nbrs[5] == frozenset({2, 5}) and g.und_nbrs[11] == frozenset()

    def test_edge_array_lists_positions(self):
        g = ConcreteGraph.build([2, 5, 7, 11], [(2, 5), (7, 2), (2, 7), (5, 5), (11, 2)], allow_self_loops=True)
        assert sorted(g.edge_array.tolist()) == [[0, 1], [0, 2], [1, 1], [2, 0], [3, 0]]
        assert not g.edge_array.flags.writeable
        assert ConcreteGraph.build([4], []).edge_array.shape == (0, 2)

    def test_induced_subgraph(self):
        g = triangle()
        sub = g.subgraph([0, 1])
        assert sub.nodes == (0, 1)
        assert sub.edges == frozenset({(0, 1), (1, 0)})


class TestValidateIso:
    def test_identity_on_triangle(self):
        assert validate_iso(GraphIso.identity(triangle())) is True

    def test_end_swap_on_path_is_not_iso(self):
        g = path_graph(0, 1, 2)
        cand = GraphIso.build(g, g, {0: 1, 1: 0, 2: 2})
        assert validate_iso(cand) is False

    def test_path_reversal_is_iso(self):
        g = path_graph(0, 1, 2)
        cand = GraphIso.build(g, g, {0: 2, 1: 1, 2: 0})
        assert validate_iso(cand) is True
        # brute force over all 6 bijections agrees: exactly the identity and
        # the reversal preserve edges
        assert sorted(m[0] for m in brute_automorphisms(g)) == [0, 2]

    def test_malformed_maps_raise(self):
        g = triangle()
        with pytest.raises(ValidationError):
            validate_iso(GraphIso.build(g, g, {0: 0, 1: 0, 2: 2}))
        with pytest.raises(ValidationError):
            validate_iso(GraphIso.build(g, g, {0: 0, 1: 1}))
        with pytest.raises(ValidationError):
            validate_iso(GraphIso.build(g, g, {0: 0, 1: 1, 2: 7}))

    def test_composition_of_isos_validates(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_graph(rng, 6, 0.4)
            f = random_relabeling(rng, g)
            h = random_relabeling(rng, f.target)
            composed = h.compose(f)
            assert validate_iso(composed) is True
            # associativity on the node maps
            k = random_relabeling(rng, h.target)
            left = k.compose(h).compose(f)
            right = k.compose(h.compose(f))
            assert left.mapping == right.mapping


class TestCanonicalForm:
    def test_relabeled_triangles_match(self):
        assert canonical_form(triangle((5, 7, 9))).encoding == canonical_form(triangle()).encoding

    def test_path4_vs_star3_differ(self):
        p4 = path_graph(0, 1, 2, 3)
        s3 = from_undirected([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
        # brute-force search over all 4! maps finds no isomorphism
        assert brute_isos(p4, s3) == []
        assert canonical_form(p4).encoding != canonical_form(s3).encoding

    def test_empty_graph(self):
        g = ConcreteGraph.build([], [])
        form = canonical_form(g)
        assert form.relabeling == ()

    def test_relabeling_yields_encoding(self):
        g = path_graph(3, 11, 4)
        form = canonical_form(g)
        relabeled = g.relabel(form.relabel_map)
        assert canonical_form(relabeled).encoding == form.encoding

    def test_invariance_under_random_relabeling(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(2, 9)), rng.uniform(0.1, 0.9))
            phi = random_relabeling(rng, g, fresh_ids=True)
            assert canonical_form(g).encoding == canonical_form(phi.target).encoding

    def test_distinguishes_nonisomorphic_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = random_graph(rng, 7, 0.4)
            b = random_graph(rng, 7, 0.4)
            same = canonical_form(a).encoding == canonical_form(b).encoding
            assert same == (len(brute_isos(a, b)) > 0)

    def test_colored_form_separates_markings(self):
        g = path_graph(0, 1, 2)
        end = automorphism_generators(g, [0]).form
        mid = automorphism_generators(g, [1]).form
        assert end.encoding != mid.encoding
        other_end = automorphism_generators(g, [2]).form
        assert end.encoding == other_end.encoding

    def test_size_cap(self):
        g = ConcreteGraph.build(range(70), [])
        with pytest.raises(CapacityError):
            canonical_form(g)

    def test_encodings_pinned(self):
        digest = hashlib.sha256()
        srg = builtin_srg_25()
        suites = synth_suites(0, srg_graphs=srg)
        for g in list(srg) + [g for graphs in suites.values() for g in graphs]:
            digest.update(canonical_form(g).encoding)
        k1 = NeighbourhoodAssignment(1)
        for g in (triangular_torus(5), king_torus(5)):
            for p, q in sorted(g.edges):
                digest.update(locate_edge(edge_neighbourhood(g, p, q, k1))[0])
        assert digest.hexdigest() == PINNED_ENCODINGS_SHA256

    def test_automorphisms_prune_the_leaves(self, monkeypatch):
        # Aut(Paley 25) has order 600; a search without automorphism pruning
        # encodes one leaf per automorphism
        leaves = []
        encode = graph_core._encode

        def counting(*args):
            leaves.append(1)
            return encode(*args)

        monkeypatch.setattr(graph_core, "_encode", counting)
        canonical_form(paley_25())
        assert 0 < len(leaves) < 60


def assert_same_as_reference(graphs):
    got = list(unique_up_to_isomorphism(graphs))
    expected = list(unique_by_canonical_form(graphs))
    assert [id(g) for g in got] == [id(g) for g in expected]
    return got


class TestUniqueUpToIsomorphism:
    """Bucketing by the degree/triangle invariant keeps exactly the graphs
    that canonical forms alone keep, in the same order."""

    def test_srg_candidates_share_one_invariant(self):
        # the classical candidates: the quadratic-residue graph, one square of
        # each main class of order 5, and all three complements
        cyclic = [[(r + c) % 5 for c in range(5)] for r in range(5)]
        graphs = [paley_25(), srg.latin_square_graph(cyclic), srg.latin_square_graph(srg._SQUARE)]
        candidates = graphs + [srg.complement(g) for g in graphs]
        assert len({graph_core._degree_triangle_invariant(g) for g in candidates}) == 1
        got = assert_same_as_reference(candidates)
        assert len(got) < len(candidates)
        assert [(g.nodes, g.edges) for g in got] == [(g.nodes, g.edges) for g in builtin_srg_25()]

    def test_builtin_srg_runs_no_canonical_search(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("builtin_srg_25 ran a canonical search")

        monkeypatch.setattr(graph_core, "automorphism_generators", forbidden)
        assert len(builtin_srg_25()) == 3

    def test_relabeled_copies_in_a_random_stream(self):
        rng = np.random.default_rng(4)
        originals = [random_graph(rng, int(rng.integers(4, 9)), 0.4) for _ in range(30)]
        # 2-regular and triangle-free on 8 nodes: equal invariants, not isomorphic
        two_squares = ConcreteGraph.build(range(8), cycle_graph(0, 1, 2, 3).edges | cycle_graph(4, 5, 6, 7).edges)
        originals += [cycle_graph(*range(8)), two_squares]
        stream = list(originals)
        for _ in range(40):
            g = originals[int(rng.integers(len(originals)))]
            stream.insert(int(rng.integers(len(stream) + 1)), random_relabeling(rng, g, fresh_ids=True).target)
        assert len(assert_same_as_reference(stream)) < len(stream)

    def test_directed_graphs_with_self_loops_and_isolated_nodes(self):
        rng = np.random.default_rng(9)
        stream = []
        for _ in range(40):
            g = random_digraph(rng, int(rng.integers(1, 6)), 0.35)
            loops = [(v, v) for v in g.nodes if rng.random() < 0.3]
            isolated = range(g.n, g.n + int(rng.integers(0, 3)))
            g = ConcreteGraph.build(list(g.nodes) + list(isolated), list(g.edges) + loops, allow_self_loops=True)
            stream.append(g)
            if rng.random() < 0.5:
                stream.append(random_relabeling(rng, g, fresh_ids=True).target)
        # a loop moved to another node, an edge reversed, one more isolated node
        path = ConcreteGraph.build(range(3), [(0, 1), (1, 2)])
        stream += [
            ConcreteGraph.build(range(3), [(0, 1), (1, 2), (0, 0)], allow_self_loops=True),
            ConcreteGraph.build(range(3), [(0, 1), (1, 2), (2, 2)], allow_self_loops=True),
            path,
            ConcreteGraph.build(range(3), [(1, 0), (1, 2)]),
            ConcreteGraph.build(range(4), path.edges),
        ]
        assert_same_as_reference(stream)

    def test_distinct_invariants_need_no_canonical_form(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("canonical form computed without an invariant collision")

        monkeypatch.setattr(graph_core, "canonical_form", forbidden)
        paths = [path_graph(*range(n)) for n in range(1, 8)]
        assert list(unique_up_to_isomorphism(paths)) == paths

    def test_draws_only_what_its_consumer_takes(self):
        drawn = []

        def paths_each_twice():
            for n in count(1):
                for g in (path_graph(*range(n)), path_graph(*range(n - 1, -1, -1))):
                    drawn.append(g)
                    yield g

        k = 6
        kept = list(islice(unique_up_to_isomorphism(paths_each_twice()), k))
        assert [g.n for g in kept] == list(range(1, k + 1))
        # every path but the last one taken was followed by its skipped copy
        assert len(drawn) == k + (k - 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_synth_suites_equal_canonical_only_dedup(self, seed, monkeypatch):
        got = synth_suites(seed)
        monkeypatch.setattr(datasets, "unique_up_to_isomorphism", unique_by_canonical_form)
        expected = synth_suites(seed)
        assert list(got) == list(expected)
        for name in got:
            assert [(g.nodes, g.edges) for g in got[name]] == [(g.nodes, g.edges) for g in expected[name]], name


class TestFindIso:
    def test_relabeled_copy_found(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 5, 0.5)
        phi = random_relabeling(rng, g, fresh_ids=True)
        found = find_iso(g, phi.target)
        assert found is not None
        assert validate_iso(found) is True

    def test_pin_across_four_cycle(self):
        a = cycle_graph(0, 1, 2, 3)
        b = cycle_graph(10, 11, 12, 13)
        # 12 sits opposite 10; an isomorphism sending 0 there exists
        found = find_iso(a, b, pins=[(0, 12)])
        assert found is not None
        assert found.apply(0) == 12
        assert validate_iso(found) is True
        assert any(m[0] == 12 for m in brute_isos(a, b))

    def test_impossible_pin(self):
        a = path_graph(0, 1, 2)
        b = path_graph(10, 11, 12)
        # 0 is an end node, 11 is the middle: no iso can pair them
        assert find_iso(a, b, pins=[(0, 11)]) is None
        assert all(m[0] != 11 for m in brute_isos(a, b))

    def test_none_for_nonisomorphic(self):
        p4 = path_graph(0, 1, 2, 3)
        s3 = from_undirected([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
        assert find_iso(p4, s3) is None

    def test_agrees_with_canonical_form(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            a = random_graph(rng, 6, 0.45)
            b = random_graph(rng, 6, 0.45)
            some = find_iso(a, b) is not None
            assert some == (canonical_form(a).encoding == canonical_form(b).encoding)


class TestAutomorphisms:
    def test_triangle_group_order_six(self):
        gens = automorphism_generators(triangle())
        group = enumerate_group(gens)
        assert len(group) == 6
        assert len(brute_automorphisms(triangle())) == 6

    def test_four_cycle_group_order_eight(self):
        gens = automorphism_generators(cycle_graph(0, 1, 2, 3))
        assert len(enumerate_group(gens)) == 8
        assert len(brute_automorphisms(cycle_graph(0, 1, 2, 3))) == 8

    def test_both_nodes_marked_only_identity(self):
        g = ConcreteGraph.build([0, 1], [(0, 1)])
        gens = automorphism_generators(g, marked=[0, 1])
        group = enumerate_group(gens)
        assert len(group) == 1
        assert is_identity(group[0])

    def test_matches_brute_force_on_random_graphs(self):
        # equal element sets give equal orders and orbits. First case: a
        # 4-cycle and two isolated nodes, whose automorphisms turn up at two
        # depths of the search; the group needs both
        rng = np.random.default_rng(5)
        cases = [(from_undirected(range(6), [(0, 3), (0, 5), (1, 3), (1, 5)]), [])]
        for _ in range(15):
            n = int(rng.integers(2, 8))
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            cases.append((g, [int(g.nodes[0])] if rng.random() < 0.5 else []))
        for _ in range(15):  # one or two marks anywhere
            g = random_graph(rng, int(rng.integers(3, 8)), rng.uniform(0.2, 0.8))
            marks = rng.choice(g.nodes, size=int(rng.integers(1, 3)), replace=False)
            cases.append((g, [int(m) for m in marks]))
        for _ in range(15):  # directed, with and without a mark
            g = random_digraph(rng, int(rng.integers(2, 8)), rng.uniform(0.1, 0.6))
            cases.append((g, [int(g.nodes[-1])] if rng.random() < 0.5 else []))
        for g, marked in cases:
            group = enumerate_group(automorphism_generators(g, marked))
            ours = sorted(iso.mapping for iso in group)
            brute = sorted(tuple(sorted(m.items())) for m in brute_automorphisms(g, marked))
            assert ours == brute

    def test_generators_fix_marked_nodes(self):
        g = complete_graph(0, 1, 2, 3)
        gens = automorphism_generators(g, marked=[2])
        for gen in gens.generators:
            assert gen.apply(2) == 2
        assert len(enumerate_group(gens)) == 6  # S3 on the other three

    def test_symmetric_group_from_few_generators(self):
        # 9! automorphisms: generated without enumerating the group
        gens = automorphism_generators(ConcreteGraph.build(range(9), []))
        assert 0 < len(gens.generators) < 9
        with pytest.raises(CapacityError):
            enumerate_group(gens)


class TestEnumerateGroup:
    def test_identity_only(self):
        g = triangle()
        gens = AutGenerators(g, (), (), canonical_form(g))
        group = enumerate_group(gens)
        assert len(group) == 1 and is_identity(group[0])

    def test_single_order_two_generator(self):
        g = path_graph(0, 1, 2)
        flip = {0: 2, 1: 1, 2: 0}
        group = enumerate_group(AutGenerators(g, (), (flip,), canonical_form(g)))
        assert len(group) == 2

    def test_cap_enforced(self, monkeypatch):
        gens = automorphism_generators(triangle())
        monkeypatch.setattr(graph_core, "GROUP_ORDER_CAP", 3)
        with pytest.raises(CapacityError):
            enumerate_group(gens)

    def test_closure_contains_inverses(self):
        gens = automorphism_generators(cycle_graph(0, 1, 2, 3, 4))
        group = enumerate_group(gens)
        keys = {iso.mapping for iso in group}
        for iso in group:
            assert inverse(iso).mapping in keys
