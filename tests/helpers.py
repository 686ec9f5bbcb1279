"""Shared brute-force oracles and random-graph helpers for the test suite.

The oracles are deliberately independent of the library's own search and
solver code paths: they enumerate permutations or average over the whole
group directly. ``find_iso`` is not an oracle; it is built on the
library's canonical search.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import permutations

import numpy as np

from ngn.graph_core import ConcreteGraph, GraphIso, automorphism_generators, canonical_form, from_undirected


def brute_isos(a: ConcreteGraph, b: ConcreteGraph, pins=()) -> list[dict[int, int]]:
    """All edge-preserving bijections a -> b honoring pins, by full enumeration."""
    if a.n != b.n or len(a.edges) != len(b.edges):
        return []
    out = []
    for perm in permutations(b.nodes):
        m = dict(zip(a.nodes, perm))
        if any(m[u] != v for u, v in pins):
            continue
        if all((m[i], m[j]) in b.edges for i, j in a.edges):
            out.append(m)
    return out


def brute_automorphisms(g: ConcreteGraph, marked=()) -> list[dict[int, int]]:
    return brute_isos(g, g, pins=[(m, m) for m in marked])


def find_iso(a: ConcreteGraph, b: ConcreteGraph, pins=()) -> GraphIso | None:
    """Some isomorphism a -> b mapping each pinned pair, or None.

    Both graphs are canonicalized with the pinned nodes marked in pin order,
    so each pinned pair is one matching singleton cell; equal encodings mean
    the canonical relabeling of ``a`` followed by the inverse of ``b``'s is
    such an isomorphism.
    """
    form_a = automorphism_generators(a, [u for u, _ in pins]).form
    form_b = automorphism_generators(b, [v for _, v in pins]).form
    if form_a.encoding != form_b.encoding:
        return None
    node_at = {pos: v for v, pos in form_b.relabeling}
    return GraphIso.build(a, b, {u: node_at[pos] for u, pos in form_a.relabeling})


def unique_by_canonical_form(graphs):
    """Reference dedup: each graph whose canonical form was not seen before, in order."""
    seen: set[bytes] = set()
    for g in graphs:
        encoding = canonical_form(g).encoding
        if encoding not in seen:
            seen.add(encoding)
            yield g


def random_graph(rng: np.random.Generator, n: int, p: float, id_offset: int = 0) -> ConcreteGraph:
    """Symmetrized G(n, p) on ids offset..offset+n-1."""
    nodes = [id_offset + i for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                pairs.append((nodes[i], nodes[j]))
    return from_undirected(nodes, pairs)


def random_digraph(rng: np.random.Generator, n: int, p: float) -> ConcreteGraph:
    """Directed G(n, p) on ids 0..n-1: each ordered pair is an edge with probability p."""
    edges = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p]
    return ConcreteGraph.build(range(n), edges)


def random_capped_graph(rng: np.random.Generator, n: int, p: float, max_degree: int) -> ConcreteGraph:
    """Symmetrized G(n, p) on ids 0..n-1, thinned to degree at most
    ``max_degree``: pairs are kept in a random order while both ends have room."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    degree = [0] * n
    kept = []
    for k in rng.permutation(len(pairs)):
        i, j = pairs[k]
        if degree[i] < max_degree and degree[j] < max_degree:
            kept.append((i, j))
            degree[i] += 1
            degree[j] += 1
    return from_undirected(range(n), kept)


def random_relabeling(rng: np.random.Generator, g: ConcreteGraph, fresh_ids: bool = False) -> GraphIso:
    """A random bijection from g onto a relabeled copy of itself."""
    if fresh_ids:
        new_ids = [int(x) for x in rng.choice(1000, size=g.n, replace=False)]
    else:
        new_ids = [int(x) for x in rng.permutation(list(g.nodes))]
    mapping = dict(zip(g.nodes, new_ids))
    return GraphIso.build(g, g.relabel(mapping), mapping)


def inverse(iso: GraphIso) -> GraphIso:
    return GraphIso.build(iso.target, iso.source, {j: i for i, j in iso.mapping})


def is_identity(iso: GraphIso) -> bool:
    return all(i == j for i, j in iso.mapping)


def restrict_global_iso(phi: GraphIso, nb, a) -> GraphIso:
    """Restrict a global isomorphism to a node or edge neighbourhood of its
    source: the local isomorphism onto the corresponding neighbourhood in
    phi.target, which maps marked node(s) to marked node(s)."""
    from ngn.errors import ValidationError
    from ngn.graph_core import validate_iso
    from ngn.neighbourhoods import NodeNeighbourhood, edge_neighbourhood, node_neighbourhood

    if not validate_iso(phi):
        raise ValidationError("phi is not a graph isomorphism")
    if isinstance(nb, NodeNeighbourhood):
        target_nb = node_neighbourhood(phi.target, phi.apply(nb.marked), a)
    else:
        p, q = nb.marked
        target_nb = edge_neighbourhood(phi.target, phi.apply(p), phi.apply(q), a)
    local = GraphIso.build(nb.graph, target_nb.graph, {v: phi.apply(v) for v in nb.graph.nodes})
    if not validate_iso(local):
        raise ValidationError("restriction failed; was nb extracted with this assignment?")
    return local


def group_average_projector(ec, rho, rho_prime) -> np.ndarray:
    """Brute-force projector onto constraint solutions: average over the whole
    group of the action k -> Q k P^{-1}, i.e. (1/|A|) sum kron(Q, P) acting
    on ``k.reshape(-1)``. Independent of the orbit basis, which the solver
    builds from the generators alone."""
    from ngn.representations import rep_matrix

    mats = []
    for chi_tail, chi_head in ec.group_restrictions:
        p_mat = rep_matrix(rho, chi_tail)
        q_mat = rep_matrix(rho_prime, chi_head)
        mats.append(np.kron(q_mat, p_mat))
    return sum(mats) / len(mats)


def projector_rank(proj: np.ndarray) -> int:
    # a projector's rank equals its trace; rounding guards float dust
    return int(round(float(np.trace(proj))))


def edge_iso_with_restrictions(rng: np.random.Generator, g: ConcreteGraph, p: int, q: int):
    """A random relabeling of an edge neighbourhood plus its ball restrictions."""
    from ngn.neighbourhoods import (
        EdgeNeighbourhood,
        NeighbourhoodAssignment,
        edge_neighbourhood,
        restrict_edge_iso,
    )

    k1 = NeighbourhoodAssignment(1)
    nb = edge_neighbourhood(g, p, q, k1)
    new_ids = [int(x) for x in rng.choice(500, size=nb.graph.n, replace=False)]
    mapping = dict(zip(nb.graph.nodes, new_ids))
    target_graph = nb.graph.relabel(mapping)
    psi = GraphIso.build(nb.graph, target_graph, mapping)
    target_nb = EdgeNeighbourhood(target_graph, (mapping[p], mapping[q]))
    psi_tail = restrict_edge_iso(psi, nb, target_nb, "tail", k1)
    psi_head = restrict_edge_iso(psi, nb, target_nb, "head", k1)
    return nb, target_nb, psi, psi_tail, psi_head


def tau_row_permutation(psi: GraphIso) -> np.ndarray:
    """Row action of an edge-neighbourhood isomorphism on per-node features."""
    tgt_index = {v: i for i, v in enumerate(psi.target.nodes)}
    n = psi.source.n
    perm = np.zeros((n, n))
    for s_i, u in enumerate(psi.source.nodes):
        perm[tgt_index[psi.map[u]], s_i] = 1.0
    return perm


def edge_transport(ec, nb) -> GraphIso:
    """The transport from class ``ec``'s representative onto the marked
    neighbourhood ``nb``: the inverse of the canonical relabeling that
    ``locate_edge`` gives, which must land in ``ec``."""
    from ngn.kernel_solver import locate_edge

    key, relab, _ = locate_edge(nb)
    assert key == ec.key, "the neighbourhood is not in this class"
    return GraphIso.build(ec.representative.graph, nb.graph, {pos: v for v, pos in relab.items()})


def class_members(ec, g: ConcreteGraph) -> list[tuple[tuple[int, int], GraphIso]]:
    """(edge, transport) for every directed edge of ``g`` in class ``ec``, in
    sorted edge order; see ``edge_transport``."""
    from ngn.kernel_solver import locate_edge
    from ngn.neighbourhoods import edge_neighbourhood

    out = []
    for p, q in sorted(g.edges):
        nb = edge_neighbourhood(g, p, q, ec.assignment)
        if locate_edge(nb)[0] == ec.key:
            out.append(((p, q), edge_transport(ec, nb)))
    return out


@cache
def saved_layer_text() -> str:
    """A saved layer with a few classes of both a trivial and a standard part."""
    from ngn.neighbourhoods import NeighbourhoodAssignment
    from ngn.ngn_layer import NgnLayer
    from ngn.representations import parse_rep_spec, random_feature

    spec = parse_rep_spec("trivial*1+standard*1")
    layer = NgnLayer(rho=spec, rho_prime=spec, assignment=NeighbourhoodAssignment(1))
    g = from_undirected(range(4), [(0, 1), (1, 2), (2, 0), (2, 3)])
    layer.forward(g, random_feature(np.random.default_rng(0), spec, g, layer.assignment))
    return json.dumps(layer.to_dict())


# A layer saved in version 1 of the class cache's format, which stored each
# class's generators and dense orbit bases next to its weights.
VERSION_1_LAYER = (
    '{"version": 1, "rho": "trivial*1", "rho_prime": "trivial*1", "k": 1, "aggregation": "sum",'
    ' "strict": false, "init_scale": 1.0, "seed": 0, "classes": {"version": 1, "entries": ['
    '{"key": "0003000000010002e400", "rho": "trivial*1", "rho_prime": "trivial*1", "k": 1,'
    ' "nodes": [0, 1, 2], "edges": [[0, 2], [1, 2], [2, 0], [2, 1]], "marked": [1, 2], "generators": [],'
    ' "pair_bases": [{"out_part": 0, "in_part": 0, "kind_out": "trivial", "kind_in": "trivial", "c_out": 1,'
    ' "c_in": 1, "elements": [[[1.0]]], "shape": [1, 1, 1]}], "weights": [[[[0.126]]]]},'
    ' {"key": "0003000000010002aa00", "rho": "trivial*1", "rho_prime": "trivial*1", "k": 1,'
    ' "nodes": [0, 1, 2], "edges": [[0, 1], [1, 0], [1, 2], [2, 1]], "marked": [1, 2], "generators": [],'
    ' "pair_bases": [{"out_part": 0, "in_part": 0, "kind_out": "trivial", "kind_in": "trivial", "c_out": 1,'
    ' "c_in": 1, "elements": [[[1.0]]], "shape": [1, 1, 1]}], "weights": [[[[-0.132]]]]}]}}'
)


def dense_reference_forward(layer, g: ConcreteGraph, v):
    """The solver layer's forward, one dense conjugation per edge.

    Every edge's class must already be in ``layer.table``. The member kernel
    is Q K Pᵀ, where K is the class's representative kernel and Q, P are the
    representation matrices of the class isomorphism restricted to the head
    and tail balls by ``restrict_edge_iso``. Only the class lookup is shared
    with the layer; the transport is built independently of its index maps.
    """
    from ngn.kernel_solver import locate_edge
    from ngn.neighbourhoods import edge_neighbourhood, node_neighbourhood, restrict_edge_iso
    from ngn.representations import GlobalFeature, rep_matrix

    a = layer.assignment
    out = {p: np.zeros(layer.rho_prime.dim(node_neighbourhood(g, p, a).graph.n)) for p in g.nodes}
    in_degree = dict.fromkeys(g.nodes, 0)
    for p, q in sorted(g.edges, key=lambda e: (e[1], e[0])):
        nb = edge_neighbourhood(g, p, q, a)
        shared = layer.table[locate_edge(nb)[0]]
        ec = shared.basis.edge_class
        transport = edge_transport(ec, nb)
        q_mat = rep_matrix(layer.rho_prime, restrict_edge_iso(transport, ec.representative, nb, "head", a))
        p_mat = rep_matrix(layer.rho, restrict_edge_iso(transport, ec.representative, nb, "tail", a))
        out[q] += (q_mat @ shared.representative_kernel() @ p_mat.T) @ v.blocks[p]
        in_degree[q] += 1
    if layer.aggregation == "mean":
        for q in g.nodes:
            if in_degree[q] > 1:
                out[q] /= in_degree[q]
    return GlobalFeature(out)


def orbit_labels_from_restrictions(ec, rho, rho_prime) -> list[np.ndarray]:
    """``solve_basis``'s part-pair orbit labels, in its order, with each
    generator's action read through subgraphs: the generator restricted to
    the representative's tail and head balls by ``restrict_edge_iso`` (which
    validates both restrictions), and each restriction's coordinate map
    taken by ``rep_index``. Only the orbit computation is shared."""
    from ngn.kernel_solver import _orbit_basis
    from ngn.neighbourhoods import node_neighbourhood, restrict_edge_iso
    from ngn.representations import RepSpec, rep_index, structural_dim

    rep, a = ec.representative, ec.assignment
    restrictions = [
        (restrict_edge_iso(chi, rep, rep, "tail", a), restrict_edge_iso(chi, rep, rep, "head", a))
        for chi in ec.aut.generators
    ]
    n_in = node_neighbourhood(rep.graph, rep.tail, a).graph.n
    n_out = node_neighbourhood(rep.graph, rep.head, a).graph.n
    out = []
    for kind_out, _ in rho_prime.parts:
        for kind_in, _ in rho.parts:
            actions = [
                (rep_index(RepSpec(((kind_out, 1),)), head), rep_index(RepSpec(((kind_in, 1),)), tail))
                for tail, head in restrictions
            ]
            out.append(_orbit_basis(actions, structural_dim(kind_out, n_out), structural_dim(kind_in, n_in)))
    return out


def features_to_buffer(plan, feats, channels: int, dtype=np.float64) -> np.ndarray:
    """Node rows of standard-rep features, one list entry per graph of the
    plan: the block of the plan's s-th node, reshaped to (ball size,
    channels), fills rows ``plan.node_ptr[s]:plan.node_ptr[s + 1]``."""
    blocks = [v.blocks[p] for g, v in zip(plan.graphs, feats) for p in g.nodes]
    assert [b.size for b in blocks] == (np.diff(plan.node_ptr) * channels).tolist()
    return np.concatenate([b.reshape(-1, channels) for b in blocks]).astype(dtype)


def buffer_to_features(plan, buf: np.ndarray) -> list:
    """The inverse of ``features_to_buffer``: one GlobalFeature per graph."""
    from ngn.representations import GlobalFeature

    out, s = [], 0
    for g in plan.graphs:
        ptr = plan.node_ptr[s : s + g.n + 1]
        out.append(GlobalFeature({p: buf[ptr[i] : ptr[i + 1]].reshape(-1) for i, p in enumerate(g.nodes)}))
        s += g.n
    return out


def float64_operator(plan, name: str):
    """The plan's operator ``name`` in float64, as the block of all its rows."""
    return plan.block(name, np.float64, 0, getattr(plan, name).shape[0])


def unfused_gcn2_layer(plan, net, x: np.ndarray, aggregation: str = "sum") -> np.ndarray:
    """The compiled NGN layer with every edge-level pass written out on its
    own, in ``x``'s dtype and without chunks: the sparse product with
    ``plan.embed`` less its bias column, then ``+ bias``, then
    ``np.maximum``; middle layers as three fresh sums and a rectifier.
    Each operator is its float64 block, cast to ``x``'s dtype.
    The first products use ``x'`` built whole, with its two zero columns;
    the compiled layer leaves out their zero terms."""
    dtype = x.dtype

    def op(name):
        return float64_operator(plan, name).astype(dtype)

    first, last = net.layers[0], net.layers[-1]
    n, c = x.shape
    x_ext = np.vstack([np.hstack([x, np.zeros((n, 2), dtype)]), np.eye(2, c + 2, c, dtype=dtype)])
    pre = (x_ext @ np.hstack([first.w_self, first.w_neigh])).reshape(2 * (n + 2), -1)
    y = op("embed")[:, :-1] @ pre + first.bias
    if len(net.layers) > 1:
        y = np.maximum(y, 0)
        for layer in net.layers[1:-1]:
            y = np.maximum(y @ layer.w_self + (op("mix") @ y) @ layer.w_neigh + layer.bias, 0)
    out = op("project") @ y
    counts = np.diff(plan.project.indptr)
    if len(net.layers) > 1:
        out = (
            out @ last.w_self
            + (op("project_mix") @ y) @ last.w_neigh
            + counts.astype(dtype)[:, None] @ last.bias.reshape(1, -1)
        )
    if aggregation == "mean":
        out = out * np.asarray(1.0 / np.maximum(counts, 1), dtype=dtype)[:, None]
    return out


def make_synthetic_tu(tmp_dir, n_graphs: int = 120, seed: int = 0):
    """Write a deterministic two-class dataset in the benchmark text format.

    Class 0 graphs are sparse rings with pendants; class 1 graphs carry
    chords (triangles). Node labels mark high-degree nodes, exercising the
    one-hot feature path. Returns the dataset directory.
    """
    from pathlib import Path

    from ngn.datasets import GraphDataset, write_tu
    from ngn.graph_core import from_undirected

    rng = np.random.default_rng(seed)
    graphs, labels, node_labels = [], [], []
    for i in range(n_graphs):
        n_ring = int(rng.integers(10, 16))
        pairs = [(j, (j + 1) % n_ring) for j in range(n_ring)]
        n = n_ring
        for _ in range(int(rng.integers(2, 5))):  # pendants
            anchor = int(rng.integers(n_ring))
            pairs.append((anchor, n))
            n += 1
        label = i % 2
        if label == 1:  # chords create triangles
            for _ in range(int(rng.integers(2, 4))):
                a = int(rng.integers(n_ring))
                pairs.append((a, (a + 2) % n_ring))
        g = from_undirected(range(n), set(map(lambda e: tuple(sorted(e)), pairs)))
        graphs.append(g)
        labels.append(label)
        node_labels.append([1 if len(g.und_nbrs[u]) >= 3 else 0 for u in g.nodes])
    ds = GraphDataset(
        "SYNTH", graphs, np.array(labels, dtype=np.intp), 2, node_labels=node_labels
    )
    out = Path(tmp_dir) / "SYNTH"
    write_tu(ds, out)
    return out


def finite_difference_grads(loss_fn, params: dict, rel_h: float = 1e-6) -> dict:
    """Central-difference gradients of a scalar loss over named Tensors.

    ``loss_fn`` must rebuild the forward pass from the current param values
    on every call. Step size is rel_h scaled by each entry's magnitude.
    """
    out = {}
    for name, p in params.items():
        grad = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            h = rel_h * max(1.0, abs(orig))
            flat[i] = orig + h
            up = float(loss_fn())
            flat[i] = orig - h
            down = float(loss_fn())
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        out[name] = grad
    return out


def path_graph(*ids: int) -> ConcreteGraph:
    return from_undirected(ids, list(zip(ids, ids[1:])))


def cycle_graph(*ids: int) -> ConcreteGraph:
    pairs = list(zip(ids, ids[1:])) + [(ids[-1], ids[0])]
    return from_undirected(ids, pairs)


def complete_graph(*ids: int) -> ConcreteGraph:
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    return from_undirected(ids, pairs)
