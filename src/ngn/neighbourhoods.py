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

from .errors import NodeLookupError, ValidationError
from .graph_core import ConcreteGraph, GraphIso, validate_iso


@dataclass(frozen=True)
class NeighbourhoodAssignment:
    """Rule producing neighbourhoods: induced subgraphs on k-hop balls."""

    k: int = 1

    def __post_init__(self):
        if type(self.k) is not int or self.k < 0:
            raise ValidationError(f"hop count must be a natural number, not {self.k!r}")


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
