"""k-hop node and edge neighbourhoods, and restriction of isomorphisms.

Hop distance ignores edge direction; neighbourhoods are induced subgraphs
inheriting the parent's node ids. These choices make every global
isomorphism restrict to a local one, every edge neighbourhood contain the
node neighbourhoods of its endpoints, and every edge isomorphism restrict
to node isomorphisms at both ends.

:func:`ball` is the one definition of a node's ball: its nodes in ascending
id order, which is also the coordinate order of the node's standard
feature block. Code that needs only the nodes calls it; the induced
subgraphs serve the oracles that need the ball's edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NodeLookupError, ValidationError
from .graph_core import ConcreteGraph, GraphIso, validate_iso


@dataclass(frozen=True)
class NeighbourhoodAssignment:
    """Rule producing neighbourhoods: induced subgraphs on k-hop balls."""

    k: int = 1

    def __post_init__(self):
        if self.k < 0:
            raise ValidationError("hop count must be non-negative")


@dataclass(frozen=True)
class NodeNeighbourhood:
    graph: ConcreteGraph
    marked: int


@dataclass(frozen=True)
class EdgeNeighbourhood:
    graph: ConcreteGraph
    marked: tuple[int, int]

    @property
    def tail(self) -> int:
        return self.marked[0]

    @property
    def head(self) -> int:
        return self.marked[1]


def _ball(g: ConcreteGraph, seeds: list[int], k: int) -> set[int]:
    reached = set(seeds)
    frontier = set(seeds)
    for _ in range(k):
        nxt = set()
        for v in frontier:
            nxt |= g.und_nbrs[v]
        nxt -= reached
        if not nxt:
            break
        reached |= nxt
        frontier = nxt
    return reached


def ball(g: ConcreteGraph, p: int, k: int) -> tuple[int, ...]:
    """The nodes at most k hops from p, in ascending id order."""
    return tuple(sorted(_ball(g, [p], k)))


def node_neighbourhood(g: ConcreteGraph, p: int, a: NeighbourhoodAssignment) -> NodeNeighbourhood:
    """Induced subgraph on all nodes at most k hops from p, marked p."""
    if p not in g.node_set:
        raise NodeLookupError(f"node {p} not in graph")
    return NodeNeighbourhood(g.subgraph(ball(g, p, a.k)), p)


def edge_neighbourhood(g: ConcreteGraph, p: int, q: int, a: NeighbourhoodAssignment) -> EdgeNeighbourhood:
    """Induced subgraph on the union of the k-balls of p and q, marked (p, q)."""
    if (p, q) not in g.edges:
        raise NodeLookupError(f"edge ({p}, {q}) not in graph")
    keep = _ball(g, [p], a.k) | _ball(g, [q], a.k)
    return EdgeNeighbourhood(g.subgraph(keep), (p, q))


def restrict_global_iso(
    phi: GraphIso,
    nb: NodeNeighbourhood | EdgeNeighbourhood,
    a: NeighbourhoodAssignment,
) -> GraphIso:
    """Restrict a global isomorphism to a neighbourhood of its source.

    Returns the local isomorphism onto the corresponding neighbourhood in
    phi.target; the result maps marked node(s) to marked node(s).
    """
    if not validate_iso(phi):
        raise ValidationError("phi is not a graph isomorphism")
    if isinstance(nb, NodeNeighbourhood):
        target_nb = node_neighbourhood(phi.target, phi.apply(nb.marked), a)
    else:
        p, q = nb.marked
        target_nb = edge_neighbourhood(phi.target, phi.apply(p), phi.apply(q), a)
    local = GraphIso.build(
        nb.graph, target_nb.graph, {v: phi.apply(v) for v in nb.graph.nodes}
    )
    if not validate_iso(local):
        raise ValidationError("restriction failed; was nb extracted with this assignment?")
    return local


def restrict_edge_iso(
    psi: GraphIso,
    source: EdgeNeighbourhood,
    target: EdgeNeighbourhood,
    end: str,
    a: NeighbourhoodAssignment,
) -> GraphIso:
    """Restrict an edge-neighbourhood isomorphism to one endpoint's node ball.

    ``end`` is "tail" for the message source p, "head" for the target q.
    Within a k-hop edge neighbourhood, the k-ball of an endpoint equals its
    node neighbourhood in the parent graph, so the restriction is computed
    on the neighbourhood graphs alone.
    """
    if end not in ("tail", "head"):
        raise ValidationError(f"end must be 'tail' or 'head', got {end!r}")
    if psi.source != source.graph or psi.target != target.graph:
        raise ValidationError("psi does not run between the given neighbourhoods")
    if not validate_iso(psi):
        raise ValidationError("psi is not a graph isomorphism")
    idx = 0 if end == "tail" else 1
    s_marked, t_marked = source.marked[idx], target.marked[idx]
    if psi.apply(source.marked[0]) != target.marked[0] or psi.apply(source.marked[1]) != target.marked[1]:
        raise ValidationError("psi does not map the marked edge to the marked edge")
    s_nb = node_neighbourhood(source.graph, s_marked, a)
    t_nb = node_neighbourhood(target.graph, t_marked, a)
    local = GraphIso.build(s_nb.graph, t_nb.graph, {v: psi.apply(v) for v in s_nb.graph.nodes})
    if not validate_iso(local):
        raise ValidationError("edge isomorphism does not restrict cleanly")
    return local


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
