"""Concrete graphs, isomorphisms, canonical forms, and automorphism groups.

Everything here is exact. One individualization-refinement search, entered
only through :func:`automorphism_generators`, gives both the canonical
labeling and the automorphism generators of a graph with some nodes marked:
equitable refinement (degree / neighbour-degree partitioning), backtracking
over the first smallest non-singleton cell, and pruning by the automorphisms
that leaves with equal encodings reveal. Those automorphisms generate the
group, which only :func:`enumerate_group`, the oracle path, lists.
:func:`canonical_form` is the search with nothing marked. This is feasible
because the graphs this package canonicalizes are small: k-hop
neighbourhoods and desk-scale benchmark graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CapacityError, NodeLookupError, ValidationError

SIZE_CAP = 64
GROUP_ORDER_CAP = 10080


@dataclass(frozen=True)
class ConcreteGraph:
    """A finite node set (natural-number ids, possibly non-contiguous) plus
    a set of directed edges between them.

    Undirected graphs are stored with both orientations of every edge
    present; see :func:`from_undirected`.
    """

    nodes: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def build(
        nodes: Iterable[int],
        edges: Iterable[tuple[int, int]],
        allow_self_loops: bool = False,
    ) -> "ConcreteGraph":
        node_tuple = tuple(sorted(set(int(v) for v in nodes)))
        if any(v < 0 for v in node_tuple):
            raise ValidationError("node ids must be natural numbers")
        node_set = set(node_tuple)
        edge_set = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if i not in node_set or j not in node_set:
                raise ValidationError(f"edge ({i}, {j}) has an endpoint outside the node set")
            if i == j and not allow_self_loops:
                raise ValidationError(f"self-loop ({i}, {i}) rejected")
            edge_set.add((i, j))
        return ConcreteGraph(node_tuple, frozenset(edge_set))

    @property
    def n(self) -> int:
        return len(self.nodes)

    @cached_property
    def node_set(self) -> frozenset[int]:
        return frozenset(self.nodes)

    @cached_property
    def out_nbrs(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.nodes}
        for i, j in self.edges:
            adj[i].add(j)
        return {v: frozenset(s) for v, s in adj.items()}

    @cached_property
    def in_nbrs(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.nodes}
        for i, j in self.edges:
            adj[j].add(i)
        return {v: frozenset(s) for v, s in adj.items()}

    @cached_property
    def und_nbrs(self) -> dict[int, frozenset[int]]:
        """Neighbours ignoring edge direction."""
        adj: dict[int, set[int]] = {v: set() for v in self.nodes}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return {v: frozenset(s) for v, s in adj.items()}

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (m, 2) array of (tail, head) positions in
        ``nodes``, in the iteration order of ``edges``."""
        ids = np.array(self.nodes, dtype=np.intp)
        ends = np.fromiter(chain.from_iterable(self.edges), dtype=np.intp, count=2 * len(self.edges))
        pos = np.searchsorted(ids, ends).reshape(-1, 2)
        pos.flags.writeable = False
        return pos

    def subgraph(self, keep: Iterable[int]) -> "ConcreteGraph":
        """Induced subgraph on ``keep``, inheriting parent ids."""
        keep_set = set(keep)
        missing = keep_set - self.node_set
        if missing:
            raise NodeLookupError(f"nodes {sorted(missing)} not in graph")
        edges = frozenset((i, j) for i in keep_set for j in self.out_nbrs[i] if j in keep_set)
        return ConcreteGraph(tuple(sorted(keep_set)), edges)

    def relabel(self, mapping: Mapping[int, int]) -> "ConcreteGraph":
        """Apply a node bijection, producing the image graph."""
        if set(mapping) != set(self.nodes) or len(set(mapping.values())) != self.n:
            raise ValidationError("relabeling must be a bijection defined on all nodes")
        nodes = tuple(sorted(mapping[v] for v in self.nodes))
        edges = frozenset((mapping[i], mapping[j]) for (i, j) in self.edges)
        return ConcreteGraph(nodes, edges)


def from_undirected(nodes: Iterable[int], pairs: Iterable[tuple[int, int]]) -> ConcreteGraph:
    """Build a symmetrized graph: both orientations of every pair."""
    sym = []
    for i, j in pairs:
        sym.append((i, j))
        sym.append((j, i))
    return ConcreteGraph.build(nodes, sym)


@dataclass(frozen=True)
class GraphIso:
    """A node bijection between two concrete graphs.

    The structure itself does not guarantee edge preservation; use
    :func:`validate_iso` to check it.
    """

    source: ConcreteGraph
    target: ConcreteGraph
    mapping: tuple[tuple[int, int], ...]

    @staticmethod
    def build(source: ConcreteGraph, target: ConcreteGraph, mapping: Mapping[int, int]) -> "GraphIso":
        return GraphIso(source, target, tuple(sorted(mapping.items())))

    @staticmethod
    def identity(g: ConcreteGraph) -> "GraphIso":
        return GraphIso(g, g, tuple((v, v) for v in g.nodes))

    @cached_property
    def map(self) -> dict[int, int]:
        return dict(self.mapping)

    def apply(self, v: int) -> int:
        try:
            return self.map[v]
        except KeyError:
            raise NodeLookupError(f"node {v} not in isomorphism domain") from None

    def compose(self, other: "GraphIso") -> "GraphIso":
        """Return self after other (``self ∘ other``)."""
        if other.target.nodes != self.source.nodes or other.target.edges != self.source.edges:
            raise ValidationError("composition requires other.target == self.source")
        return GraphIso(
            other.source,
            self.target,
            tuple(sorted((v, self.map[w]) for v, w in other.mapping)),
        )


def validate_iso(candidate: GraphIso) -> bool:
    """True iff the bijection preserves edges in both directions.

    Raises ValidationError for structurally malformed maps (wrong domain,
    non-bijective, unknown ids); that is distinct from returning False.
    """
    src, tgt = candidate.source, candidate.target
    m = candidate.map
    if set(m) != set(src.nodes):
        raise ValidationError("map domain does not equal source node set")
    values = set(m.values())
    if len(values) != len(m):
        raise ValidationError("map is not injective")
    if values != set(tgt.nodes):
        raise ValidationError("map image does not equal target node set")
    for i, j in src.edges:
        if (m[i], m[j]) not in tgt.edges:
            return False
    if len(src.edges) != len(tgt.edges):
        return False
    return True


# ---------------------------------------------------------------------------
# Equitable refinement and canonical labeling
# ---------------------------------------------------------------------------


def _signature(g: ConcreteGraph, v: int, cell_index: dict[int, int]) -> tuple:
    counts: dict[int, list[int]] = {}
    for w in g.out_nbrs[v]:
        c = counts.setdefault(cell_index[w], [0, 0])
        c[0] += 1
    for w in g.in_nbrs[v]:
        c = counts.setdefault(cell_index[w], [0, 0])
        c[1] += 1
    return tuple(sorted((ci, c[0], c[1]) for ci, c in counts.items()))


def _refine(g: ConcreteGraph, cells: list[list[int]]) -> list[list[int]]:
    """Refine an ordered partition to equitability.

    Split cells are replaced, in place in the cell order, by their
    sub-cells sorted by signature; this keeps the cell order an
    isomorphism invariant.
    """
    while True:
        cell_index = {v: i for i, cell in enumerate(cells) for v in cell}
        out: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[tuple, list[int]] = {}
            for v in cell:
                groups.setdefault(_signature(g, v, cell_index), []).append(v)
            if len(groups) == 1:
                out.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    out.append(sorted(groups[sig]))
        cells = out
        if not changed:
            return cells


def _encode(g: ConcreteGraph, order: list[int], initial_cell: dict[int, int]) -> bytes:
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}
    bits = bytearray((n * n + 7) // 8)
    for i, j in g.edges:
        k = pos[i] * n + pos[j]
        bits[k >> 3] |= 1 << (k & 7)
    head = bytearray()
    head += n.to_bytes(2, "big")
    for v in order:
        head += initial_cell[v].to_bytes(2, "big")
    return bytes(head) + bytes(bits)


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical adjacency encoding plus the relabeling that produced it.

    Two graphs with equally many marks have equal encodings iff some
    isomorphism maps the i-th mark of one onto the i-th mark of the other,
    for every i.
    """

    encoding: bytes
    relabeling: tuple[tuple[int, int], ...]  # original id -> canonical position

    @cached_property
    def relabel_map(self) -> dict[int, int]:
        return dict(self.relabeling)


def _orbits(cell: list[int], gens: Sequence[Mapping[int, int] | Sequence[int]]) -> dict[int, int]:
    """The smallest vertex of each vertex's orbit under ``gens``, all of
    which map ``cell`` onto itself (each indexed by vertex)."""
    root = {v: v for v in cell}

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    for gamma in gens:
        for v in cell:
            a, b = find(v), find(gamma[v])
            root[max(a, b)] = min(a, b)
    return {v: find(v) for v in cell}


def _search(g: ConcreteGraph, cells: list[list[int]]) -> tuple[bytes, list[int], list[dict[int, int]]]:
    """Individualization-refinement search from an ordered partition.

    Each tree node refines its partition and branches on the vertices of its
    first smallest non-singleton cell; a leaf is a discrete partition, read
    as a node order and encoded with each node's initial cell index. Returns
    the smallest leaf encoding, the first leaf order in depth-first order
    that gives it, and generators of the automorphisms that preserve the
    initial partition. Raises CapacityError above ``SIZE_CAP`` nodes.

    A leaf whose encoding equals the first leaf's or the best leaf's is that
    leaf's image under the automorphism mapping one order onto the other.
    The automorphism fixes the two leaves' deepest common ancestor and maps
    the earlier leaf's branch there onto the new leaf's, so it is recorded
    and the search resumes at that ancestor. While the search is below a
    node of the first path, every generator met so far fixes that node, so
    there a child that the generators map onto an explored child is skipped.
    Skipped subtrees hold only images of leaves already met, which leaves
    the result unchanged, and the automorphisms met generate the whole group
    (McKay and Piperno, Practical graph isomorphism II, 2014).
    """
    if g.n > SIZE_CAP:
        raise CapacityError(f"graph has {g.n} nodes, cap is {SIZE_CAP}")
    initial_cell = {v: i for i, cell in enumerate(cells) for v in cell}
    first = best = None  # (encoding, order, path) of the first and best leaves
    gens: list[dict[int, int]] = []

    def descend(cells: list[list[int]], path: list[int], on_first_path: bool) -> int | None:
        """Search below one node; returns the depth to resume at, if above it."""
        nonlocal first, best
        cells = _refine(g, cells)
        branching = [i for i, c in enumerate(cells) if len(c) > 1]
        if not branching:
            order = [c[0] for c in cells]
            leaf = (_encode(g, order, initial_cell), order, path)
            if first is None:
                first = best = leaf
                return None
            for enc, seen_order, seen_path in (first, best):
                if leaf[0] == enc:
                    gens.append(dict(zip(seen_order, order)))
                    return next(d for d, (u, v) in enumerate(zip(seen_path, path)) if u != v)
            if leaf[0] < best[0]:
                best = leaf
            return None
        target_at = min(branching, key=lambda i: len(cells[i]))
        target = cells[target_at]
        explored: list[int] = []
        orbit_gens = -1  # how many generators ``orbit`` was computed from
        for v in target:
            if on_first_path and explored:
                if orbit_gens != len(gens):
                    orbit, orbit_gens = _orbits(target, gens), len(gens)
                if orbit[v] in {orbit[u] for u in explored}:
                    continue
            child = cells[:target_at] + [[v], [w for w in target if w != v]] + cells[target_at + 1 :]
            back = descend(child, path + [v], on_first_path and not explored)
            explored.append(v)
            if back is not None and back < len(path):
                return back
        return None

    descend(cells, [], True)
    return best[0], best[1], gens


def canonical_form(g: ConcreteGraph) -> CanonicalForm:
    """Canonicalize ``g``: the form that :func:`automorphism_generators`
    finds with nothing marked. The encoding is the smallest over the leaves
    of the search tree, which makes the result relabeling-invariant."""
    return automorphism_generators(g).form


def unique_up_to_isomorphism(graphs: Iterable[ConcreteGraph]) -> Iterator[ConcreteGraph]:
    """Each graph not isomorphic to one yielded before, in order; lazy, so it
    draws no graph past the last one its consumer takes.

    Graphs are bucketed by an exact isomorphism invariant first. A graph
    alone in its bucket is new without a canonical form; canonical forms are
    computed only for the members of a bucket that a second graph reaches.
    """
    lone: dict[tuple, ConcreteGraph] = {}  # invariant -> its only graph so far
    forms: dict[tuple, set[bytes]] = {}  # invariant -> encodings, once it collided
    for g in graphs:
        key = _degree_triangle_invariant(g)
        if key not in lone and key not in forms:
            lone[key] = g
            yield g
            continue
        seen = forms.setdefault(key, set())
        if key in lone:
            seen.add(canonical_form(lone.pop(key)).encoding)
        encoding = canonical_form(g).encoding
        if encoding not in seen:
            seen.add(encoding)
            yield g


def _degree_triangle_invariant(g: ConcreteGraph) -> tuple[tuple[int, int, int], ...]:
    """Sorted (out-degree, in-degree, triangles through the node) over the
    nodes; triangles ignore edge direction and self-loops. Isomorphic graphs
    have equal invariants."""
    nbrs = {v: s - {v} for v, s in g.und_nbrs.items()}
    return tuple(
        sorted(
            (len(g.out_nbrs[v]), len(g.in_nbrs[v]), sum(len(nbrs[u] & nb) for u in nb) // 2)
            for v, nb in nbrs.items()
        )
    )


# ---------------------------------------------------------------------------
# Automorphism groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AutGenerators:
    """What one search of ``graph`` with ``marked`` pinned gives: generators
    of the automorphisms fixing every marked node, and the canonical form."""

    graph: ConcreteGraph
    marked: tuple[int, ...]
    maps: tuple[dict[int, int], ...]  # the generators as node maps
    form: CanonicalForm

    @cached_property
    def generators(self) -> tuple[GraphIso, ...]:
        return tuple(GraphIso.build(self.graph, self.graph, m) for m in self.maps)


def automorphism_generators(g: ConcreteGraph, marked: Sequence[int] = ()) -> AutGenerators:
    """Generating set for the group of automorphisms fixing ``marked``, and
    the canonical form of ``g`` with those marks, from one search.

    The search starts from the unmarked nodes as one cell, followed by each
    marked node as its own singleton cell in mark order; a leaf encodes each
    node's cell index. The automorphisms the search meets generate the whole
    group, which is never enumerated.
    """
    for m in marked:
        if m not in g.node_set:
            raise NodeLookupError(f"marked node {m} not in graph")
    pinned = list(dict.fromkeys(marked))
    rest = sorted(g.node_set - set(pinned))
    cells = ([rest] if rest else []) + [[m] for m in pinned]
    enc, order, gens = _search(g, cells)
    form = CanonicalForm(enc, tuple(sorted((v, i) for i, v in enumerate(order))))
    return AutGenerators(g, tuple(marked), tuple(gens), form)


def enumerate_group(gens: AutGenerators) -> list[GraphIso]:
    """Closure of the generators under composition (identity included)."""
    identity = GraphIso.identity(gens.graph)
    seen: dict[tuple, GraphIso] = {identity.mapping: identity}
    frontier = [identity]
    while frontier:
        nxt: list[GraphIso] = []
        for h in frontier:
            for gen in gens.generators:
                prod = gen.compose(h)
                if prod.mapping not in seen:
                    if len(seen) >= GROUP_ORDER_CAP:
                        raise CapacityError(f"group order exceeds cap {GROUP_ORDER_CAP}")
                    seen[prod.mapping] = prod
                    nxt.append(prod)
        frontier = nxt
    return [seen[k] for k in sorted(seen)]
