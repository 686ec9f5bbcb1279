"""GCN-on-edge-neighbourhood message parameterization (reference semantics).

The message from p to q is produced by embedding the standard-rep feature at
p into a per-node feature on the edge neighbourhood (zeros outside p's ball,
two marker columns for p and q), running an invariant message-passing
network on that small graph, and restricting the output rows to q's ball.
Because embedding, propagation, and restriction all commute with node
relabelings, the resulting kernel satisfies local naturality without any
constraint solving.

This module is the slow, per-edge float64 path used as the semantic
definition and by the law checks; ``batched`` compiles the same computation
for training and benchmarks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .graph_core import ConcreteGraph
from .neighbourhoods import EdgeNeighbourhood, NeighbourhoodAssignment, ball, edge_neighbourhood
from .representations import GlobalFeature


@dataclass(frozen=True)
class EdgeGraphFeature:
    """Per-node rows over an edge neighbourhood: data plus two marker columns."""

    nb: EdgeNeighbourhood
    values: np.ndarray  # (|V(G_pq)|, data channels + 2)

    def __post_init__(self):
        n = self.nb.graph.n
        if self.values.shape[0] != n or self.values.shape[1] < 2:
            raise ShapeError("edge feature rows must cover the neighbourhood and carry markers")


@dataclass
class GcnLayerParams:
    w_self: np.ndarray   # (c_in, c_out)
    w_neigh: np.ndarray  # (c_in, c_out)
    bias: np.ndarray     # (c_out,)
    final: bool = False  # final layer skips the rectifier


@dataclass
class GcnMessageNet:
    layers: list[GcnLayerParams]

    def __post_init__(self):
        widths = [l.w_self.shape for l in self.layers]
        for (_, c_out), (c_in, _) in zip(widths, widths[1:]):
            if c_out != c_in:
                raise ShapeError("layer widths do not chain")
        for l in self.layers:
            if l.w_self.shape != l.w_neigh.shape or l.bias.shape != (l.w_self.shape[1],):
                raise ShapeError("inconsistent layer parameter shapes")
            if not (np.all(np.isfinite(l.w_self)) and np.all(np.isfinite(l.w_neigh))):
                raise ValidationError("non-finite weights")

    @property
    def in_channels(self) -> int:
        return self.layers[0].w_self.shape[0]

    @property
    def out_channels(self) -> int:
        return self.layers[-1].w_self.shape[1]


def build_gcn_net(
    rng: np.random.Generator,
    n_layers: int,
    hidden: int,
    data_in: int,
    c_out: int,
    dtype=np.float64,
) -> GcnMessageNet:
    """Random message network; input width is data channels plus markers."""
    return _glorot_net(rng, [data_in + 2] + [hidden] * (n_layers - 1) + [c_out], dtype)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """A Glorot-uniform (fan_in, fan_out) float64 draw."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, (fan_in, fan_out))


def _glorot_net(rng: np.random.Generator, widths: list[int], dtype) -> GcnMessageNet:
    """Glorot-uniform weights (w_self, then w_neigh, layer by layer) in
    float64 draws cast to ``dtype``, zero biases; only the last layer is final."""
    layers = []
    for i, (a, b) in enumerate(zip(widths, widths[1:])):
        layers.append(
            GcnLayerParams(
                w_self=_glorot(rng, a, b).astype(dtype),
                w_neigh=_glorot(rng, a, b).astype(dtype),
                bias=np.zeros(b, dtype=dtype),
                final=(i == len(widths) - 2),
            )
        )
    return GcnMessageNet(layers)


_NET_RE = re.compile(r"^gcn2\(\s*layers\s*=\s*(\d+)\s*,\s*hidden\s*=\s*(\d+)\s*\)$")


def parse_net_config(text: str) -> dict[str, int]:
    """Parse the CLI text form, e.g. ``gcn2(layers=2, hidden=64)``."""
    m = _NET_RE.match(text.strip())
    if not m:
        raise ValidationError(f"cannot parse net config {text!r}")
    config = {"layers": int(m.group(1)), "hidden": int(m.group(2))}
    if min(config.values()) < 1:
        raise ValidationError(f"net config {text!r} needs at least one layer and one hidden unit")
    return config


# ---------------------------------------------------------------------------
# Forward semantics
# ---------------------------------------------------------------------------


def embed_alpha(
    v_p: np.ndarray, nb: EdgeNeighbourhood, a: NeighbourhoodAssignment
) -> EdgeGraphFeature:
    """Embed a standard-rep feature at the tail into the edge neighbourhood.

    Rows of ``v_p`` follow ascending ids of the tail's ball; nodes outside
    that ball get zero data. Marker columns are appended, one-hot at p and q.
    """
    p, q = nb.marked
    tail_nodes = ball(nb.graph, p, a.k)
    if v_p.ndim != 2 or v_p.shape[0] != len(tail_nodes):
        raise ShapeError(
            f"tail feature must have one row per ball node ({len(tail_nodes)}), got {v_p.shape}"
        )
    nodes = nb.graph.nodes
    index = {v: i for i, v in enumerate(nodes)}
    values = np.zeros((len(nodes), v_p.shape[1] + 2), dtype=v_p.dtype)
    for row, u in enumerate(tail_nodes):
        values[index[u], : v_p.shape[1]] = v_p[row]
    values[index[p], -2] = 1.0
    values[index[q], -1] = 1.0
    return EdgeGraphFeature(nb, values)


def neighbour_mean_matrix(g: ConcreteGraph, dtype=np.float64) -> np.ndarray:
    """Row u holds 1/in_degree(u) at each in-neighbour (zero row if none)."""
    n = g.n
    index = {v: i for i, v in enumerate(g.nodes)}
    mat = np.zeros((n, n), dtype=dtype)
    for i, j in g.edges:
        mat[index[j], index[i]] = 1.0
    degs = mat.sum(axis=1, keepdims=True)
    np.divide(mat, degs, out=mat, where=degs > 0)
    return mat


def gcn_layer_forward(layer: GcnLayerParams, f: EdgeGraphFeature) -> EdgeGraphFeature:
    """One invariant propagation step: self map plus in-neighbour mean."""
    if f.values.shape[1] != layer.w_self.shape[0]:
        raise ShapeError("feature width does not match layer input width")
    mixed = neighbour_mean_matrix(f.nb.graph, dtype=f.values.dtype) @ f.values
    out = f.values @ layer.w_self + mixed @ layer.w_neigh + layer.bias
    if not layer.final:
        out = np.maximum(out, 0.0)
    return EdgeGraphFeature(f.nb, out)


def gcn2_message(
    net: GcnMessageNet,
    v_p: np.ndarray,
    nb: EdgeNeighbourhood,
    a: NeighbourhoodAssignment,
) -> np.ndarray:
    """The message at q: embed, propagate, restrict to q's ball (ascending ids)."""
    f = embed_alpha(v_p, nb, a)
    if f.values.shape[1] != net.in_channels:
        raise ShapeError("embedded width does not match the network input width")
    for layer in net.layers:
        f = gcn_layer_forward(layer, f)
    head_nodes = ball(nb.graph, nb.marked[1], a.k)
    index = {v: i for i, v in enumerate(nb.graph.nodes)}
    return f.values[[index[u] for u in head_nodes], :]


def ngn_gcn2_forward(
    net: GcnMessageNet,
    g: ConcreteGraph,
    v: GlobalFeature,
    a: NeighbourhoodAssignment,
    aggregation: str = "sum",
) -> GlobalFeature:
    """Aggregate per-edge messages into per-node standard-rep output blocks.

    Input blocks are (ball, c_in) matrices flattened node-major; output
    blocks likewise with the net's output width. Aggregation is the sum
    over in-edges, or their mean behind the flag.
    """
    if aggregation not in ("sum", "mean"):
        raise ValidationError(f"unknown aggregation {aggregation!r}")
    c_in = net.in_channels - 2
    c_out = net.out_channels
    balls = {p: ball(g, p, a.k) for p in g.nodes}
    out = {p: np.zeros((len(balls[p]), c_out)) for p in g.nodes}
    in_deg = {p: 0 for p in g.nodes}
    for p, q in sorted(g.edges, key=lambda e: (e[1], e[0])):
        nb = edge_neighbourhood(g, p, q, a)
        block = v.blocks[p]
        if block.size != len(balls[p]) * c_in:
            raise ShapeError(f"block at {p} has {block.size} entries, expected {len(balls[p])}x{c_in}")
        msg = gcn2_message(net, block.reshape(len(balls[p]), c_in), nb, a)
        out[q] += msg
        in_deg[q] += 1
    if aggregation == "mean":
        for q in g.nodes:
            if in_deg[q] > 1:
                out[q] /= in_deg[q]
    return GlobalFeature({p: out[p].reshape(-1) for p in g.nodes})

