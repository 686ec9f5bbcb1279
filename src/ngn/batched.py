"""Compiled, vectorized GCN² forward over batches of graphs.

The per-edge reference in ``message_net`` is quadratic in Python overhead;
here every edge neighbourhood of every graph is laid out as a row range of
one big buffer, so a whole forward pass is a handful of numpy/scipy calls:
gather (embed), sparse matmul (neighbour mean), dense matmuls (weights),
gather (project), and the aggregate, a product with the 0/1 CSR matrix of
``autodiff.sum_into_rows`` that adds each edge's messages into its head's
block. The same plan drives the differentiable path (autodiff Tensors) and
a pure-numpy inference path with optional edge chunking to bound memory on
large lattices.

Row layouts are fixed and deterministic: node blocks ordered by (graph,
node id, ball node id); edge copies ordered by (graph, head, tail). Chunks
end only where the head changes, so each output row takes all its messages
from one chunk, summed in edge order; chunking never changes a result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .errors import ShapeError
from .graph_core import ConcreteGraph
from .message_net import GcnLayerParams, GcnMessageNet
from .neighbourhoods import NeighbourhoodAssignment, _ball
from .representations import GlobalFeature


@dataclass
class EdgePlan:
    graphs: list[ConcreteGraph]
    k: int
    n_nodes_total: int
    node_rows: int
    node_row_start: list[dict[int, int]]
    node_ball: list[dict[int, tuple[int, ...]]]
    node_seg: np.ndarray      # X row -> node serial
    graph_of_node: np.ndarray  # node serial -> graph index
    edge_count: int
    edge_rows: int
    edge_row_ptr: np.ndarray  # edge -> first Y row
    emb_ptr: np.ndarray       # edge -> first index in emb_x/emb_y
    emb_x: np.ndarray
    emb_y: np.ndarray
    markers: np.ndarray       # (edge_rows, 2)
    mix: sp.csr_matrix        # (edge_rows, edge_rows), block diagonal per edge
    proj_ptr: np.ndarray      # edge -> first index in proj_y/out_x
    proj_y: np.ndarray
    out_x: np.ndarray
    node_in_inv: np.ndarray   # X row -> 1 / max(in-degree of its node, 1)


def compile_plan(graphs: list[ConcreteGraph], a: NeighbourhoodAssignment) -> EdgePlan:
    node_row_start: list[dict[int, int]] = []
    node_ball: list[dict[int, tuple[int, ...]]] = []
    node_seg_parts: list[np.ndarray] = []
    graph_of_node: list[int] = []
    rows = 0
    serial = 0
    for gi, g in enumerate(graphs):
        starts: dict[int, int] = {}
        balls: dict[int, tuple[int, ...]] = {}
        for p in g.nodes:
            ball = tuple(sorted(_ball(g, [p], a.k)))
            starts[p] = rows
            balls[p] = ball
            node_seg_parts.append(np.full(len(ball), serial, dtype=np.intp))
            graph_of_node.append(gi)
            rows += len(ball)
            serial += 1
        node_row_start.append(starts)
        node_ball.append(balls)

    edge_row_ptr = [0]
    emb_ptr = [0]
    proj_ptr = [0]
    emb_x: list[int] = []
    emb_y: list[int] = []
    proj_y: list[int] = []
    out_x: list[int] = []
    marker_rows_p: list[int] = []
    marker_rows_q: list[int] = []
    mix_rows: list[int] = []
    mix_cols: list[int] = []
    mix_vals: list[float] = []
    y_rows = 0
    edge_count = 0
    for gi, g in enumerate(graphs):
        starts, balls = node_row_start[gi], node_ball[gi]
        for p, q in sorted(g.edges, key=lambda e: (e[1], e[0])):
            nb_nodes = sorted(set(balls[p]) | set(balls[q]))
            local = {u: y_rows + i for i, u in enumerate(nb_nodes)}
            nb_set = set(nb_nodes)
            # embed: tail-ball rows of X copied into the edge copy
            for rank, u in enumerate(balls[p]):
                emb_x.append(starts[p] + rank)
                emb_y.append(local[u])
            emb_ptr.append(len(emb_x))
            marker_rows_p.append(local[p])
            marker_rows_q.append(local[q])
            # neighbour mean inside the induced neighbourhood
            in_deg = {u: 0 for u in nb_nodes}
            internal = []
            for u in nb_nodes:
                for w in g.out_nbrs[u]:
                    if w in nb_set:
                        internal.append((u, w))
                        in_deg[w] += 1
            for u, w in internal:
                mix_rows.append(local[w])
                mix_cols.append(local[u])
                mix_vals.append(1.0 / in_deg[w])
            # project: head-ball rows of the edge copy added into output X
            for rank, u in enumerate(balls[q]):
                proj_y.append(local[u])
                out_x.append(starts[q] + rank)
            proj_ptr.append(len(proj_y))
            y_rows += len(nb_nodes)
            edge_row_ptr.append(y_rows)
            edge_count += 1

    node_in_inv = np.ones(rows)
    for gi, g in enumerate(graphs):
        in_deg = {u: 0 for u in g.nodes}
        for _, w in g.edges:
            in_deg[w] += 1
        for p in g.nodes:
            start = node_row_start[gi][p]
            node_in_inv[start : start + len(node_ball[gi][p])] = 1.0 / max(in_deg[p], 1)

    markers = np.zeros((y_rows, 2))
    markers[marker_rows_p, 0] = 1.0
    markers[marker_rows_q, 1] = 1.0
    mix = sp.csr_matrix(
        (np.array(mix_vals), (np.array(mix_rows, dtype=np.intp), np.array(mix_cols, dtype=np.intp))),
        shape=(y_rows, y_rows),
    )
    return EdgePlan(
        graphs=list(graphs),
        k=a.k,
        n_nodes_total=serial,
        node_rows=rows,
        node_row_start=node_row_start,
        node_ball=node_ball,
        node_seg=np.concatenate(node_seg_parts) if node_seg_parts else np.zeros(0, dtype=np.intp),
        graph_of_node=np.array(graph_of_node, dtype=np.intp),
        edge_count=edge_count,
        edge_rows=y_rows,
        edge_row_ptr=np.array(edge_row_ptr, dtype=np.intp),
        emb_ptr=np.array(emb_ptr, dtype=np.intp),
        emb_x=np.array(emb_x, dtype=np.intp),
        emb_y=np.array(emb_y, dtype=np.intp),
        markers=markers,
        mix=mix,
        proj_ptr=np.array(proj_ptr, dtype=np.intp),
        proj_y=np.array(proj_y, dtype=np.intp),
        out_x=np.array(out_x, dtype=np.intp),
        node_in_inv=node_in_inv,
    )


# ---------------------------------------------------------------------------
# Buffer <-> GlobalFeature conversion
# ---------------------------------------------------------------------------


def features_to_buffer(plan: EdgePlan, feats: list[GlobalFeature], channels: int, dtype=np.float64) -> np.ndarray:
    buf = np.zeros((plan.node_rows, channels), dtype=dtype)
    for gi, (g, v) in enumerate(zip(plan.graphs, feats)):
        for p in g.nodes:
            start = plan.node_row_start[gi][p]
            n = len(plan.node_ball[gi][p])
            block = v.blocks[p]
            if block.size != n * channels:
                raise ShapeError(f"block at graph {gi} node {p} is not ({n}, {channels})")
            buf[start : start + n] = block.reshape(n, channels)
    return buf


def buffer_to_features(plan: EdgePlan, buf: np.ndarray) -> list[GlobalFeature]:
    out = []
    for gi, g in enumerate(plan.graphs):
        blocks = {}
        for p in g.nodes:
            start = plan.node_row_start[gi][p]
            n = len(plan.node_ball[gi][p])
            blocks[p] = buf[start : start + n].reshape(-1)
        out.append(GlobalFeature(blocks))
    return out


def node_attrs_to_buffer(plan: EdgePlan, attrs: list[np.ndarray], dtype=np.float64) -> np.ndarray:
    """Standard-rep input blocks gathered from raw per-node attributes.

    ``attrs[gi]`` has one row per node of graph gi (in ascending node order).
    The block at p collects the rows of every node in p's ball, which is the
    canonical embedding of per-node data into the standard feature space.
    """
    channels = attrs[0].shape[1]
    buf = np.zeros((plan.node_rows, channels), dtype=dtype)
    for gi, g in enumerate(plan.graphs):
        order = {u: i for i, u in enumerate(g.nodes)}
        raw = attrs[gi]
        if raw.shape != (g.n, channels):
            raise ShapeError(f"attrs for graph {gi} must be ({g.n}, {channels})")
        for p in g.nodes:
            start = plan.node_row_start[gi][p]
            ball = plan.node_ball[gi][p]
            buf[start : start + len(ball)] = raw[[order[u] for u in ball]]
    return buf


# ---------------------------------------------------------------------------
# Differentiable and inference forwards
# ---------------------------------------------------------------------------


def init_message_net_params(
    rng: np.random.Generator,
    n_layers: int,
    hidden: int,
    data_in: int,
    c_out: int,
    dtype=np.float64,
    prefix: str = "msg",
) -> dict[str, ad.Tensor]:
    widths = [data_in + 2] + [hidden] * (n_layers - 1) + [c_out]
    params: dict[str, ad.Tensor] = {}
    for i, (a, b) in enumerate(zip(widths, widths[1:])):
        bound = np.sqrt(6.0 / (a + b))
        params[f"{prefix}/l{i}/w_self"] = ad.param(rng.uniform(-bound, bound, (a, b)), dtype=dtype)
        params[f"{prefix}/l{i}/w_neigh"] = ad.param(rng.uniform(-bound, bound, (a, b)), dtype=dtype)
        params[f"{prefix}/l{i}/bias"] = ad.param(np.zeros(b), dtype=dtype)
    return params


def message_net_from_params(params: dict[str, ad.Tensor], prefix: str = "msg") -> GcnMessageNet:
    """Ndarray view of tensor params, for the per-edge reference path."""
    layers = []
    i = 0
    while f"{prefix}/l{i}/w_self" in params:
        layers.append(
            GcnLayerParams(
                w_self=params[f"{prefix}/l{i}/w_self"].data,
                w_neigh=params[f"{prefix}/l{i}/w_neigh"].data,
                bias=params[f"{prefix}/l{i}/bias"].data,
                final=f"{prefix}/l{i + 1}/w_self" not in params,
            )
        )
        i += 1
    return GcnMessageNet(layers)


def gcn2_layer_tensor(
    plan: EdgePlan,
    params: dict[str, ad.Tensor],
    x: ad.Tensor,
    prefix: str = "msg",
    aggregation: str = "sum",
) -> ad.Tensor:
    """One NGN layer (differentiable): embed, propagate, project, aggregate."""
    emb = ad.gather_rows(x, plan.emb_x)
    y = ad.scatter_add_rows(emb, plan.emb_y, plan.edge_rows)
    y = ad.concat_cols(y, ad.constant(plan.markers.astype(x.dtype)))
    i = 0
    while f"{prefix}/l{i}/w_self" in params:
        final = f"{prefix}/l{i + 1}/w_self" not in params
        mixed = ad.sparse_mix(y, plan.mix)
        y = ad.add(
            ad.add(
                ad.matmul(y, params[f"{prefix}/l{i}/w_self"]),
                ad.matmul(mixed, params[f"{prefix}/l{i}/w_neigh"]),
            ),
            params[f"{prefix}/l{i}/bias"],
        )
        if not final:
            y = ad.relu(y)
        i += 1
    msg = ad.gather_rows(y, plan.proj_y)
    out = ad.scatter_add_rows(msg, plan.out_x, plan.node_rows)
    if aggregation == "mean":
        out = ad.row_scale(out, plan.node_in_inv)
    return out


def gcn2_layer_numpy(
    plan: EdgePlan,
    net: GcnMessageNet,
    x: np.ndarray,
    chunk_edges: int | None = None,
    aggregation: str = "sum",
) -> np.ndarray:
    """Inference-only NGN layer; optionally processed in edge chunks.

    A chunk takes ``chunk_edges`` edges and then runs on to the end of its
    last head node's edges, so it can hold up to (largest in-degree - 1)
    more. Every output row then takes all its messages from one chunk, in
    one CSR sum over that chunk, and the result is bit-identical for every
    ``chunk_edges``.
    """
    out = np.zeros((plan.node_rows, net.out_channels), dtype=x.dtype)
    n_edges = plan.edge_count
    # edges are sorted by (graph, head, tail), and an edge's first projection
    # target is the first row of its head's block: runs of equal targets are
    # the heads' runs of edges
    head_row = plan.out_x[plan.proj_ptr[:-1]]
    run_starts = np.append(np.flatnonzero(np.diff(head_row)) + 1, n_edges)
    step = n_edges if chunk_edges is None else max(1, chunk_edges)
    e0 = 0
    while e0 < n_edges:
        e1 = int(run_starts[np.searchsorted(run_starts, e0 + step)]) if e0 + step < n_edges else n_edges
        r0, r1 = plan.edge_row_ptr[e0], plan.edge_row_ptr[e1]
        a0, a1 = plan.emb_ptr[e0], plan.emb_ptr[e1]
        p0, p1 = plan.proj_ptr[e0], plan.proj_ptr[e1]
        y = np.zeros((r1 - r0, net.in_channels), dtype=x.dtype)
        y[plan.emb_y[a0:a1] - r0, : net.in_channels - 2] = x[plan.emb_x[a0:a1]]
        y[:, -2:] = plan.markers[r0:r1].astype(x.dtype)
        mix = plan.mix[r0:r1, r0:r1].astype(x.dtype)
        for layer in net.layers:
            y = y @ layer.w_self + (mix @ y) @ layer.w_neigh + layer.bias
            if not layer.final:
                y = np.maximum(y, 0.0)
        # aggregate into the chunk's window of output rows
        targets = plan.out_x[p0:p1]
        x0, x1 = targets.min(), targets.max() + 1
        out[x0:x1] += ad.sum_into_rows(targets - x0, x1 - x0, x.dtype) @ y[plan.proj_y[p0:p1] - r0]
        e0 = e1
    if aggregation == "mean":
        out = out * plan.node_in_inv[:, None].astype(x.dtype)
    return out


# ---------------------------------------------------------------------------
# Plain GCN baseline over whole graphs
# ---------------------------------------------------------------------------


@dataclass
class GcnPlan:
    graphs: list[ConcreteGraph]
    n_nodes_total: int
    mix: sp.csr_matrix
    graph_of_node: np.ndarray


def compile_gcn_plan(graphs: list[ConcreteGraph]) -> GcnPlan:
    offsets = []
    total = 0
    for g in graphs:
        offsets.append(total)
        total += g.n
    rows, cols, vals = [], [], []
    graph_of_node = np.zeros(total, dtype=np.intp)
    for gi, g in enumerate(graphs):
        order = {u: offsets[gi] + i for i, u in enumerate(g.nodes)}
        graph_of_node[offsets[gi] : offsets[gi] + g.n] = gi
        in_deg = {u: 0 for u in g.nodes}
        for u, w in g.edges:
            in_deg[w] += 1
        for u, w in sorted(g.edges):
            rows.append(order[w])
            cols.append(order[u])
            vals.append(1.0 / in_deg[w])
    mix = sp.csr_matrix(
        (np.array(vals), (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp))),
        shape=(total, total),
    )
    return GcnPlan(list(graphs), total, mix, graph_of_node)


def build_plain_gcn(
    rng: np.random.Generator, n_layers: int, hidden: int, c_in: int, c_out: int, dtype=np.float64
) -> GcnMessageNet:
    """Baseline net: same layer semantics, no marker channels."""
    widths = [c_in] + [hidden] * (n_layers - 1) + [c_out]
    layers = []
    for i, (a, b) in enumerate(zip(widths, widths[1:])):
        bound = np.sqrt(6.0 / (a + b))
        layers.append(
            GcnLayerParams(
                w_self=rng.uniform(-bound, bound, (a, b)).astype(dtype),
                w_neigh=rng.uniform(-bound, bound, (a, b)).astype(dtype),
                bias=np.zeros(b, dtype=dtype),
                final=(i == n_layers - 1),
            )
        )
    return GcnMessageNet(layers)


def gcn_forward_numpy(plan: GcnPlan, net: GcnMessageNet, x: np.ndarray) -> np.ndarray:
    y = x
    mix = plan.mix.astype(x.dtype)
    for layer in net.layers:
        y = y @ layer.w_self + (mix @ y) @ layer.w_neigh + layer.bias
        if not layer.final:
            y = np.maximum(y, 0.0)
    return y
