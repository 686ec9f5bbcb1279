from dataclasses import dataclass

import numpy as np
import pytest

from ngn.errors import NodeLookupError, ValidationError
from ngn.graph_core import ConcreteGraph, GraphIso, enumerate_group, automorphism_generators, from_undirected
from ngn.neighbourhoods import (
    EdgeNeighbourhood,
    NeighbourhoodAssignment,
    ball,
    edge_neighbourhood,
    node_neighbourhood,
    restrict_edge_iso,
)

from helpers import cycle_graph, is_identity, path_graph, random_graph, random_relabeling, restrict_global_iso

K1 = NeighbourhoodAssignment(1)


def triangle():
    return cycle_graph(0, 1, 2)


class TestExtraction:
    def test_triangle_ball_is_whole_triangle(self):
        nb = node_neighbourhood(triangle(), 0, K1)
        assert nb.graph == triangle()
        assert nb.marked == 0

    def test_path_end_ball(self):
        nb = node_neighbourhood(path_graph(0, 1, 2), 0, K1)
        assert nb.graph.nodes == (0, 1)
        assert nb.graph.edges == frozenset({(0, 1), (1, 0)})

    def test_zero_hop_ball_is_single_node(self):
        nb = node_neighbourhood(path_graph(0, 1, 2), 1, NeighbourhoodAssignment(0))
        assert nb.graph.nodes == (1,)
        assert nb.graph.edges == frozenset()

    def test_unknown_node(self):
        with pytest.raises(NodeLookupError):
            node_neighbourhood(triangle(), 9, K1)

    def test_ball_ignores_direction_and_ascends(self):
        g = ConcreteGraph.build([2, 5, 7, 9, 11], [(9, 5), (5, 2), (11, 9), (7, 11)])
        assert [ball(g, 5, k) for k in range(4)] == [(5,), (2, 5, 9), (2, 5, 9, 11), (2, 5, 7, 9, 11)]
        assert ball(g, 5, 1) == node_neighbourhood(g, 5, K1).graph.nodes

    def test_edge_neighbourhood_of_path(self):
        nb = edge_neighbourhood(path_graph(0, 1, 2), 0, 1, K1)
        assert nb.graph == path_graph(0, 1, 2)
        assert nb.marked == (0, 1)

    def test_isolated_edge(self):
        g = from_undirected([4, 9], [(4, 9)])
        nb = edge_neighbourhood(g, 9, 4, K1)
        assert nb.graph == g
        assert nb.marked == (9, 4)

    def test_four_cycle_edge_ball_is_whole_cycle(self):
        g = cycle_graph(0, 1, 2, 3)
        # direct enumeration: ball(0) = {3,0,1}, ball(1) = {0,1,2}; union is everything
        nb = edge_neighbourhood(g, 0, 1, K1)
        assert set(nb.graph.nodes) == {0, 1, 2, 3}

    def test_zero_hop_edge_neighbourhood_keeps_both_ends(self):
        g = path_graph(0, 1, 2)
        nb = edge_neighbourhood(g, 0, 1, NeighbourhoodAssignment(0))
        assert set(nb.graph.nodes) == {0, 1}
        assert (0, 1) in nb.graph.edges

    def test_missing_edge(self):
        with pytest.raises(NodeLookupError):
            edge_neighbourhood(path_graph(0, 1, 2), 0, 2, K1)


class TestRestriction:
    def test_identity_restricts_to_identity(self):
        g = triangle()
        phi = GraphIso.identity(g)
        local = restrict_global_iso(phi, node_neighbourhood(g, 1, K1), K1)
        assert is_identity(local)

    def test_end_node_restriction_of_relabeled_path(self):
        g = path_graph(0, 1, 2)
        mapping = {0: 10, 1: 11, 2: 12}
        phi = GraphIso.build(g, g.relabel(mapping), mapping)
        local = restrict_global_iso(phi, node_neighbourhood(g, 0, K1), K1)
        assert local.map == {0: 10, 1: 11}

    def test_restriction_preserves_mark(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_graph(rng, 7, 0.4)
            phi = random_relabeling(rng, g, fresh_ids=True)
            p = int(rng.choice(g.nodes))
            local = restrict_global_iso(phi, node_neighbourhood(g, p, K1), K1)
            assert local.apply(p) == phi.apply(p)

    def test_restriction_functorial_under_composition(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            g = random_graph(rng, 7, 0.5)
            phi = random_relabeling(rng, g)
            psi = random_relabeling(rng, phi.target)
            p = int(rng.choice(g.nodes))
            nb = node_neighbourhood(g, p, K1)
            via_composition = restrict_global_iso(psi.compose(phi), nb, K1)
            stepwise = restrict_global_iso(
                psi, node_neighbourhood(phi.target, phi.apply(p), K1), K1
            ).compose(restrict_global_iso(phi, nb, K1))
            assert via_composition.mapping == stepwise.mapping

    def test_edge_restriction_agrees_with_node_restriction(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            g = random_graph(rng, 8, 0.35)
            if not g.edges:
                continue
            phi = random_relabeling(rng, g, fresh_ids=True)
            p, q = sorted(g.edges)[int(rng.integers(len(g.edges)))]
            e_nb = edge_neighbourhood(g, p, q, K1)
            psi = restrict_global_iso(phi, e_nb, K1)
            target_nb = edge_neighbourhood(phi.target, phi.apply(p), phi.apply(q), K1)
            tail = restrict_edge_iso(psi, e_nb, target_nb, "tail", K1)
            direct = restrict_global_iso(phi, node_neighbourhood(g, p, K1), K1)
            assert tail.mapping == direct.mapping

    def test_mark_violation_raises(self):
        g = cycle_graph(0, 1, 2, 3)
        nb = edge_neighbourhood(g, 0, 1, K1)
        other = edge_neighbourhood(g, 1, 2, K1)
        psi = GraphIso.build(nb.graph, other.graph, {v: v for v in nb.graph.nodes})
        with pytest.raises(ValidationError):
            restrict_edge_iso(psi, nb, other, "tail", K1)

    def test_mirror_of_triangular_lattice_edge_swaps_off_axis_pair(self):
        # the edge neighbourhood of a triangular-lattice edge has a single
        # nontrivial marked automorphism; its tail restriction exchanges the
        # two common neighbours of p and q
        from ngn.lattices import triangular_torus

        g = triangular_torus(5)
        p, q = sorted(g.edges)[0]
        nb = edge_neighbourhood(g, p, q, K1)
        gens = automorphism_generators(nb.graph, marked=[])
        group = [
            iso
            for iso in enumerate_group(gens)
            if iso.apply(p) == p and iso.apply(q) == q
        ]
        assert len(group) == 2
        mirror = next(iso for iso in group if not is_identity(iso))
        tail_nb = node_neighbourhood(nb.graph, p, K1)
        tail = restrict_edge_iso(mirror, nb, nb, "tail", K1)
        common = set(g.und_nbrs[p]) & set(g.und_nbrs[q])
        assert len(common) == 2
        u, v = sorted(common)
        assert tail.apply(u) == v and tail.apply(v) == u
        # the restriction is an involution fixing only the three axis nodes
        # of the 7-node ball; the four off-axis nodes swap in mirror pairs
        moved = [w for w in tail_nb.graph.nodes if tail.apply(w) != w]
        assert len(moved) == 4 and common <= set(moved)
        assert all(tail.apply(tail.apply(w)) == w for w in tail_nb.graph.nodes)


# ---------------------------------------------------------------------------
# The neighbourhood-assignment criteria, checked over a corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssignmentReport:
    header: str
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_edge_containment(
    g: ConcreteGraph, nb: EdgeNeighbourhood, a: NeighbourhoodAssignment
) -> str | None:
    """Criterion: the edge neighbourhood contains both endpoint node balls
    as induced subgraphs. Returns a description of the first violation."""
    for end in nb.marked:
        end_ball = node_neighbourhood(g, end, a).graph
        if not set(end_ball.nodes) <= set(nb.graph.nodes):
            return f"node ball of {end} not contained in edge neighbourhood {nb.marked}"
        induced = nb.graph.subgraph(end_ball.nodes)
        if induced.edges != end_ball.edges:
            return f"node ball of {end} is not an induced subgraph of {nb.marked}"
    if nb.marked not in nb.graph.edges:
        return f"marked edge {nb.marked} missing from its own neighbourhood"
    return None


def validate_assignment(
    a: NeighbourhoodAssignment,
    corpus: list[ConcreteGraph],
    seed: int = 0,
    samples: int = 5,
) -> AssignmentReport:
    """Check the neighbourhood-assignment criteria over a corpus.

    Containment is checked exhaustively; restriction of global and edge
    isomorphisms is checked on sampled random relabelings.
    """
    rng = np.random.default_rng(seed)
    header = f"k={a.k} hop assignment, symmetric balls (direction ignored)"
    violations: list[str] = []

    def fail(msg: str) -> AssignmentReport:
        return AssignmentReport(header, (msg,))

    for gi, g in enumerate(corpus):
        for p, q in sorted(g.edges):
            msg = check_edge_containment(g, edge_neighbourhood(g, p, q, a), a)
            if msg:
                return fail(f"graph {gi}: {msg}")

    for gi, g in enumerate(corpus):
        if g.n == 0:
            continue
        for _ in range(samples):
            new_ids = [int(x) for x in rng.permutation(list(g.nodes))]
            phi = GraphIso.build(g, g.relabel(dict(zip(g.nodes, new_ids))), dict(zip(g.nodes, new_ids)))
            for p in g.nodes:
                nb = node_neighbourhood(g, p, a)
                try:
                    local = restrict_global_iso(phi, nb, a)
                except ValidationError as exc:
                    return fail(f"graph {gi}: node restriction at {p} failed: {exc}")
                if local.apply(p) != phi.apply(p):
                    return fail(f"graph {gi}: restriction at {p} does not preserve the mark")
            for p, q in sorted(g.edges):
                nb = edge_neighbourhood(g, p, q, a)
                try:
                    psi = restrict_global_iso(phi, nb, a)
                except ValidationError as exc:
                    return fail(f"graph {gi}: edge restriction at ({p},{q}) failed: {exc}")
                target_nb = edge_neighbourhood(phi.target, phi.apply(p), phi.apply(q), a)
                for end in ("tail", "head"):
                    try:
                        restrict_edge_iso(psi, nb, target_nb, end, a)
                    except ValidationError as exc:
                        return fail(
                            f"graph {gi}: edge iso at ({p},{q}) does not restrict to {end}: {exc}"
                        )

    return AssignmentReport(header, tuple(violations))


class TestValidateAssignment:
    def test_k1_passes_on_random_corpus(self):
        rng = np.random.default_rng(14)
        corpus = [random_graph(rng, int(rng.integers(3, 9)), 0.4) for _ in range(6)]
        report = validate_assignment(K1, corpus, seed=0, samples=3)
        assert report.passed, report.violations

    def test_k0_passes(self):
        rng = np.random.default_rng(15)
        corpus = [random_graph(rng, 6, 0.5) for _ in range(4)]
        report = validate_assignment(NeighbourhoodAssignment(0), corpus, seed=0, samples=3)
        assert report.passed, report.violations

    def test_truncated_edge_neighbourhood_reported(self):
        g = path_graph(0, 1, 2)
        full = edge_neighbourhood(g, 0, 1, K1)
        truncated = EdgeNeighbourhood(full.graph.subgraph([0, 1]), (0, 1))
        msg = check_edge_containment(g, truncated, K1)
        assert msg is not None and "node ball" in msg

    def test_report_header_names_convention(self):
        report = validate_assignment(K1, [triangle()], samples=1)
        assert "symmetric" in report.header
