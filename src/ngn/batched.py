"""Compiled, vectorized GCN² forward over batches of graphs.

The per-edge reference in ``message_net`` is quadratic in Python overhead;
here every edge neighbourhood of every graph is laid out as a row range of
one big buffer (its *edge rows*), and every node ball as a row range of the
node buffer (its *node rows*). One NGN layer embeds each tail block into
its edge rows, with two marker columns, runs the message net there, and
projects each edge's head-ball rows back, summed into the head's block.

Embed and project/aggregate are linear, and so are the first and the last
message-net products, so the first and last weights act on node rows:

- first layer: ``z = [E | C] (x' W_self) + M [E | C] (x' W_neigh) + 1 b``,
  where ``x'`` is the node buffer with two extra rows that carry the
  marker columns, ``[E | C]`` embeds those rows into edge rows, ``M`` is
  the neighbour mean inside each edge neighbourhood and ``1`` is a column
  of ones. The dense product ``x' [W_self | W_neigh]`` runs once on node
  rows; at edge level one sparse product with the precomposed
  ``plan.embed``, whose last column is the ones, adds each row's terms and
  then its bias, and the rectifier follows in place.
- middle layers (message nets of three or more layers) run at edge level,
  accumulating into their first product's buffer.
- last layer (no rectifier): ``out = (S P y) W_self + (S P M y) W_neigh +
  count ⊗ b``, where ``S P`` projects and aggregates and ``count`` is the
  number of messages into each node row. The edge level keeps only the
  sparse products with ``plan.project`` and ``plan.project_mix``; the dense
  products run once on node rows.

A message net of one layer aggregates its first-layer rows with ``S P``.
The same code computes the differentiable path (autodiff Tensors) and the
inference path (constants, which record no tape). Off the tape the bias
adds and rectifiers run in place on the buffers the products return
(``ad.add_``, ``ad.relu_``); on it they are the taped primitives.

Off the tape the edge level is walked in tiles of at most ``TILE_BYTES`` of
edge rows: the tile bounds the cache footprint, and each tile's rows are
embedded, rectified and projected while they are in cache. The optional
``chunk_edges`` bounds a tile's edges, and so memory. Each tile's
projections are copied into one node-row buffer per output, and the first
products are written into one buffer. On the tape the edge level is one
chunk, or ``chunk_edges`` chunks joined by ``ad.concat_rows``.

A plan's operators are constants, and so is every operator taken from one.
The plan builds each on first use and keeps it: a row block once per
operator, dtype and tile (``plan.block``), its transpose once per block,
for a backward, and the scatter of a segment-id array or of a weight's row
range once per dtype (``plan.scatter``). It keeps the tile bounds per pair
of bounds (``plan.tiles``) and the message counts per dtype
(``plan.messages``) too. After its first step, training on a plan builds
no sparse matrix.

Row layouts are fixed and deterministic: node blocks ordered by (graph,
node id, ball node id); edge copies ordered by (graph, head, tail). Tiles
end only where the head changes, so each output row takes all its messages
from one tile, summed in edge order; neither the tile nor ``chunk_edges``
changes a result, at any size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .errors import ContractError, ShapeError, ValidationError
from .graph_core import ConcreteGraph
from .message_net import GcnLayerParams, GcnMessageNet, _glorot_net, build_gcn_net
from .neighbourhoods import NeighbourhoodAssignment, ball

# Bytes of edge rows that one tile of the inference edge level holds, so
# that a tile is embedded, rectified and projected while it is in cache:
# half of a 2 MiB per-core L2. On a Xeon with that L2, per-call time on the
# expressiveness suites and on a 128x128 torus was within about 15% of its
# best from 256 KiB to 2 MiB, and 1.3-1.8 times its best with no budget.
TILE_BYTES = 1 << 20


@dataclass
class _KeepsOperators:
    """A plan's sparse operators are constants, and so is every operator
    taken from one: a row block in one dtype, that block's transpose, the
    scatter of an index array. Each is built on first use and kept in one
    memo, which lives as long as the plan."""

    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _keep(self, key, build):
        found = self._kept.get(key)
        if found is None:
            found = self._kept[key] = build()
        return found

    def block(
        self, name: str, dtype, r0: int, r1: int, c0: int = 0, c1: int | None = None, transposed: bool = False
    ) -> sp.csr_matrix:
        """``_row_block`` of the operator ``name``. With ``transposed``, that
        block's transpose as a canonical CSR: its row i lists column i of the
        block by increasing row, the order in which ``block.T @ g`` adds
        them, so the product is the same float, bit for bit."""
        key = (name, np.dtype(dtype), r0, r1, c0, c1)
        if transposed:
            return self._keep(key + ("T",), lambda: self.block(name, dtype, r0, r1, c0, c1).T.tocsr())
        return self._keep(key, lambda: _row_block(getattr(self, name), dtype, r0, r1, c0, c1))

    def scatter(self, rows: str | range, n_rows: int, dtype) -> sp.csr_matrix:
        """``ad.sum_into_rows`` of the plan's index array named ``rows``, or
        of a range of rows."""
        def build():
            idx = getattr(self, rows) if isinstance(rows, str) else np.asarray(rows)
            return ad.sum_into_rows(idx, n_rows, dtype)

        return self._keep(("scatter", rows, n_rows, np.dtype(dtype)), build)


@dataclass
class EdgePlan(_KeepsOperators):
    graphs: list[ConcreteGraph]
    n_nodes_total: int
    node_rows: int
    node_ptr: np.ndarray      # node serial -> first X row of its block
    node_member: np.ndarray   # X row -> node serial of its ball node
    node_seg: np.ndarray      # X row -> node serial of the block's owner
    graph_of_node: np.ndarray  # node serial -> graph index
    edge_count: int
    edge_rows: int
    edge_row_ptr: np.ndarray  # edge -> first Y row
    edge_head_end: np.ndarray  # edge -> X row just past its head's block
    mix: sp.csr_matrix        # M: (edge_rows, edge_rows), block diagonal per edge
    embed: sp.csr_matrix      # (edge_rows, 2 (node_rows + 2) + 1): [E | C] and M [E | C], columns interleaved, then ones
    project: sp.csr_matrix    # S P: (node_rows, edge_rows)
    project_mix: sp.csr_matrix  # S P M: (node_rows, edge_rows)

    def tiles(self, chunk_edges: int | None, tile_rows: int | None) -> list[tuple[int, int, int, int]]:
        """``_tiles`` of this plan, kept per pair of bounds."""
        return self._keep(("tiles", chunk_edges, tile_rows), lambda: list(_tiles(self, chunk_edges, tile_rows)))

    def messages(self, dtype) -> np.ndarray:
        """The number of messages into each node row, as a column in ``dtype``."""
        return self._keep(("messages", np.dtype(dtype)), lambda: np.diff(self.project.indptr).astype(dtype)[:, None])


def compile_plan(graphs: list[ConcreteGraph], a: NeighbourhoodAssignment) -> EdgePlan:
    """Row layouts and operators of a batch of graphs.

    Balls are found node by node; everything per edge is whole-array numpy
    work on global node serials (graph by graph, node ids ascending).
    """
    ball_sizes: list[int] = []
    members: list[np.ndarray] = []  # X row -> serial of its ball node
    serial = 0
    for g in graphs:
        balls = [ball(g, p, a.k) for p in g.nodes]
        ball_sizes += map(len, balls)
        members.append(serial + np.searchsorted(np.array(g.nodes, dtype=np.intp), [u for b in balls for u in b]))
        serial += g.n

    n_serial = max(serial, 1)
    ball_size = np.array(ball_sizes, dtype=np.intp)
    ball_ptr = np.zeros(serial + 1, dtype=np.intp)
    np.cumsum(ball_size, out=ball_ptr[1:])
    rows = int(ball_ptr[-1])
    member = _cat(members)
    tail, head = _edge_serials(graphs)
    order = np.lexsort((tail, head))  # edges by (graph, head, tail)
    tail, head = tail[order], head[order]
    edge_count = tail.size
    edge_ids = np.arange(edge_count, dtype=np.intp)

    # X rows of each edge's tail and head balls, and their keys (edge, node),
    # each strictly increasing
    tail_rows = _ranges(ball_ptr[tail], ball_size[tail])
    tail_keys = np.repeat(edge_ids, ball_size[tail]) * n_serial + member[tail_rows]
    head_rows = _ranges(ball_ptr[head], ball_size[head])
    head_keys = np.repeat(edge_ids, ball_size[head]) * n_serial + member[head_rows]
    # edge rows: the union of both balls, by (edge, node), and the edge row
    # of every tail-ball and head-ball key
    keys, tail_pos, head_pos = _merge_sorted(tail_keys, head_keys)
    del tail_keys, head_keys
    y_rows = keys.size
    row_edge, row_node = np.divmod(keys, n_serial)
    edge_row_ptr = np.searchsorted(row_edge, np.arange(edge_count + 1))

    # M: in-neighbours of each edge row's node that lie in the same edge
    # neighbourhood, each weighted 1 / (their number)
    in_count = np.bincount(head, minlength=serial)
    in_ptr = np.zeros(serial + 1, dtype=np.intp)
    np.cumsum(in_count, out=in_ptr[1:])  # `tail` is sorted by head
    cand_row = np.repeat(np.arange(y_rows, dtype=np.intp), in_count[row_node])
    cand_keys = row_edge[cand_row] * n_serial + tail[_ranges(in_ptr[row_node], in_count[row_node])]
    cand_col = np.minimum(np.searchsorted(keys, cand_keys), y_rows - 1)
    inside = keys[cand_col] == cand_keys
    cand_row, cand_col = cand_row[inside], cand_col[inside]
    mix = _csr(1.0 / np.bincount(cand_row, minlength=y_rows)[cand_row], cand_row, cand_col, (y_rows, y_rows))
    del cand_row, cand_col, cand_keys, inside

    # [E | C]: each tail-ball row into its edge row; the two marker columns
    # are the extra input rows node_rows (tail) and node_rows + 1 (head)
    ec = _csr(
        np.ones(tail_rows.size + 2 * edge_count),
        np.concatenate([tail_pos, np.searchsorted(keys, edge_ids * n_serial + tail),
                        np.searchsorted(keys, edge_ids * n_serial + head)]),
        np.concatenate([tail_rows, np.full(edge_count, rows), np.full(edge_count, rows + 1)]),
        (y_rows, rows + 2),
    )
    del tail_rows, tail_pos, keys, row_edge, row_node
    embed = _embed_operator(ec, mix @ ec)
    del ec
    # S P: each head-ball edge row added into its row of the head's block
    project = _csr(np.ones(head_rows.size), head_rows, head_pos, (rows, y_rows))
    del head_rows, head_pos
    project_mix = project @ mix
    project_mix.sort_indices()
    return EdgePlan(
        graphs=list(graphs),
        n_nodes_total=serial,
        node_rows=rows,
        node_ptr=ball_ptr,
        node_member=member,
        node_seg=np.repeat(np.arange(serial, dtype=np.intp), ball_size),
        graph_of_node=_graph_of_node(graphs),
        edge_count=edge_count,
        edge_rows=y_rows,
        edge_row_ptr=edge_row_ptr,
        edge_head_end=ball_ptr[head + 1],
        mix=mix,
        embed=embed,
        project=project,
        project_mix=project_mix,
    )


def _edge_serials(graphs: list[ConcreteGraph]) -> tuple[np.ndarray, np.ndarray]:
    """Tail and head serials of every edge. Node serials number the nodes
    graph by graph, ids ascending."""
    tails, heads, serial = [], [], 0
    for g in graphs:
        ids = np.array(g.nodes, dtype=np.intp)
        edges = np.array(list(g.edges), dtype=np.intp).reshape(-1, 2)
        tails.append(serial + np.searchsorted(ids, edges[:, 0]))
        heads.append(serial + np.searchsorted(ids, edges[:, 1]))
        serial += g.n
    return _cat(tails), _cat(heads)


def _graph_of_node(graphs: list[ConcreteGraph]) -> np.ndarray:
    return np.repeat(np.arange(len(graphs), dtype=np.intp), [g.n for g in graphs])


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)


def _merge_sorted(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.union1d(a, b)`` of two strictly increasing arrays, and the
    position in it of every element of ``a`` and of ``b``. A stable sort of
    the concatenation merges the two runs; the running count of an
    adjacent-distinct mask, scattered back through the sort order, gives
    the positions."""
    both = np.concatenate([a, b])
    order = np.argsort(both, kind="stable")
    both = both[order]
    new = np.ones(both.size, dtype=bool)
    np.not_equal(both[1:], both[:-1], out=new[1:])
    keys = both[new]
    del both
    pos = np.empty_like(order)
    pos[order] = np.cumsum(new) - 1
    return keys, pos[: a.size], pos[a.size :]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + n)`` for each (s, n)."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0, dtype=np.intp) + np.repeat(starts - ends + lengths, lengths)


def _csr(vals, rows, cols, shape) -> sp.csr_matrix:
    """Canonical CSR (each row's columns in increasing order) from coordinates."""
    return sp.csr_matrix(
        (np.asarray(vals, dtype=np.float64), (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp))),
        shape=shape,
    )


def _embed_operator(a: sp.csr_matrix, b: sp.csr_matrix) -> sp.csr_matrix:
    """``[a | b | 1]`` with column j of ``a`` at 2j, column j of ``b`` at
    2j + 1 and a last column of ones, which picks up the bias row of the
    operand. Being each row's last column, the bias is added last."""
    a, b = a.tocoo(), b.tocoo()
    n, cols = a.shape
    return _csr(
        np.concatenate([a.data, b.data, np.ones(n)]),
        np.concatenate([a.row, b.row, np.arange(n)]),
        np.concatenate([2 * a.col, 2 * b.col + 1, np.full(n, 2 * cols)]),
        (n, 2 * cols + 1),
    )


# ---------------------------------------------------------------------------
# Node-row input
# ---------------------------------------------------------------------------


def node_attrs_to_buffer(plan: EdgePlan, attrs: list[np.ndarray], dtype=np.float64) -> np.ndarray:
    """Standard-rep input blocks gathered from raw per-node attributes.

    ``attrs[gi]`` has one row per node of graph gi (in ascending node order).
    The block at p collects the rows of every node in p's ball, which is the
    canonical embedding of per-node data into the standard feature space.
    """
    if len(attrs) != len(plan.graphs):
        raise ShapeError(f"{len(attrs)} attribute arrays for {len(plan.graphs)} graphs")
    channels = attrs[0].shape[1]
    for gi, (g, raw) in enumerate(zip(plan.graphs, attrs)):
        if raw.shape != (g.n, channels):
            raise ShapeError(f"attrs for graph {gi} must be ({g.n}, {channels})")
    return np.concatenate(attrs, dtype=dtype)[plan.node_member]


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
    """``build_gcn_net``'s weights as tensors named ``{prefix}/l{i}/...``."""
    net = build_gcn_net(rng, n_layers, hidden, data_in, c_out, dtype)
    params: dict[str, ad.Tensor] = {}
    for i, layer in enumerate(net.layers):
        params[f"{prefix}/l{i}/w_self"] = ad.param(layer.w_self, dtype=dtype)
        params[f"{prefix}/l{i}/w_neigh"] = ad.param(layer.w_neigh, dtype=dtype)
        params[f"{prefix}/l{i}/bias"] = ad.param(layer.bias, dtype=dtype)
    return params


def _layer_params(params: dict[str, ad.Tensor], prefix: str) -> list[tuple[ad.Tensor, ad.Tensor, ad.Tensor]]:
    """(w_self, w_neigh, bias) of the layers named ``{prefix}/l{i}/...``, in order."""
    layers = []
    while f"{prefix}/l{len(layers)}/w_self" in params:
        i = len(layers)
        layers.append(tuple(params[f"{prefix}/l{i}/{name}"] for name in ("w_self", "w_neigh", "bias")))
    return layers


def message_net_from_params(params: dict[str, ad.Tensor], prefix: str = "msg") -> GcnMessageNet:
    """Ndarray view of tensor params, for the per-edge reference path."""
    layers = _layer_params(params, prefix)
    return GcnMessageNet(
        [GcnLayerParams(w.data, n.data, b.data, final=i == len(layers) - 1) for i, (w, n, b) in enumerate(layers)]
    )


def gcn2_layer_tensor(
    plan: EdgePlan,
    params: dict[str, ad.Tensor],
    x: ad.Tensor,
    prefix: str = "msg",
    aggregation: str = "sum",
) -> ad.Tensor:
    """One NGN layer (differentiable), with the first and last message-net
    products on node rows (see the module docstring)."""
    return _gcn2_layer(plan, _layer_params(params, prefix), x, None, aggregation)


def gcn2_layer_numpy(
    plan: EdgePlan,
    net: GcnMessageNet,
    x: np.ndarray,
    chunk_edges: int | None = None,
    aggregation: str = "sum",
) -> np.ndarray:
    """Inference NGN layer: ``gcn2_layer_tensor``'s algebra on constants,
    its edge level walked in tiles.

    Only the edge level is tiled: the products with the first and the last
    message-net weights run once on node rows. A tile holds at most
    ``TILE_BYTES`` of edge rows, or one head's edges when those alone hold
    more, and at most ``chunk_edges`` edges, run on to the end of its last
    head's edges, so up to (largest in-degree - 1) more. Every output row
    then takes all its messages from one tile, in one CSR sum over that
    tile, and the result is bit-identical for every ``chunk_edges``.
    """
    if any(layer.final for layer in net.layers[:-1]) or not net.layers[-1].final:
        raise ContractError("the compiled layer needs a message net whose last layer alone is final")
    layers = [tuple(ad.constant(w) for w in (l.w_self, l.w_neigh, l.bias)) for l in net.layers]
    return _gcn2_layer(plan, layers, ad.constant(x), chunk_edges, aggregation).data


def _gcn2_layer(
    plan: EdgePlan,
    layers: list[tuple[ad.Tensor, ad.Tensor, ad.Tensor]],
    x: ad.Tensor,
    chunk_edges: int | None,
    aggregation: str,
) -> ad.Tensor:
    """One NGN layer from its message net's (w_self, w_neigh, bias) per layer.

    Off the tape the edge level is walked in tiles of at most ``TILE_BYTES``
    of edge rows, and each tile's projections are copied into one node-row
    buffer per output; on the tape its chunks are joined by ``concat_rows``.
    """
    if aggregation not in ("sum", "mean"):
        raise ValidationError(f"unknown aggregation {aggregation!r}")
    dtype = x.dtype
    depth = len(layers)
    pre = _first_products(plan, x, *layers[0])
    taped = x._on_tape() or any(t._on_tape() for layer in layers for t in layer)
    width = pre.shape[1]
    tile_rows = None if taped else max(1, TILE_BYTES // (width * pre.dtype.itemsize))
    names = ("project", "project_mix") if depth > 1 else ("project",)
    outs = [[] if taped else np.empty((plan.node_rows, width), pre.dtype) for _ in names]
    for r0, r1, x0, x1 in plan.tiles(chunk_edges, tile_rows):
        y = _edge_level(plan, pre, layers, dtype, r0, r1)
        for name, rows in zip(names, outs):
            part = _mix(plan, y, name, dtype, x0, x1, r0, r1)
            if taped:
                rows.append(part)
            else:
                rows[x0:x1] = part.data
        del y  # free the tile's edge rows before the next tile's are built
    out, *mixed = [ad.concat_rows(rows) if taped else ad.constant(rows) for rows in outs]
    if depth > 1:
        w_self, w_neigh, bias = layers[-1]
        out = ad.add_(
            ad.add_(ad.matmul(out, w_self), ad.matmul(mixed[0], w_neigh)),
            ad.matmul(ad.constant(plan.messages(dtype)), ad.reshape(bias, (1, -1))),
        )
    if aggregation == "mean":
        out = ad.row_scale(out, 1.0 / np.maximum(plan.messages(np.float64)[:, 0], 1))
    return out


def _first_products(
    plan: EdgePlan, x: ad.Tensor, w_self: ad.Tensor, w_neigh: ad.Tensor, bias: ad.Tensor
) -> ad.Tensor:
    """The operand of ``plan.embed``: ``x' [W_self | W_neigh]`` with each
    row split in two, so that row 2u is ``x'[u] W_self`` and row 2u + 1 is
    ``x'[u] W_neigh``, and then the bias. ``x'`` is the node rows with two
    zero columns, then two rows that carry the marker columns, so its
    products are ``x`` times the weights' data rows, then the weights' two
    marker rows; they are taken that way, without building ``x'``. A
    backward adds the gradients of those rows back into the weights by
    the plan's kept scatters. Off the tape all its rows are written into
    one buffer."""
    n, c = x.shape
    w = ad.concat_cols(w_self, w_neigh)

    def gather(rows: range) -> ad.Tensor:
        return ad.gather_rows(w, np.asarray(rows), functools.partial(plan.scatter, rows, w.shape[0], w.dtype))

    if any(t._on_tape() for t in (x, w, bias)):
        node_rows = ad.reshape(ad.matmul(x, gather(range(c))), (2 * n, -1))
        marker_rows = ad.reshape(gather(range(c, c + 2)), (4, -1))
        return ad.concat_rows([node_rows, marker_rows, ad.reshape(bias, (1, -1))])
    # off the tape the same rows are written into one buffer
    h = w_self.shape[1]
    pre = np.empty((2 * n + 5, h), np.result_type(x.data, w.data, bias.data))
    ad.matmul(x, gather(range(c)), out=pre[: 2 * n].reshape(n, 2 * h))
    pre[2 * n : -1] = w.data[c:].reshape(4, -1)
    pre[-1] = bias.data
    return ad.constant(pre)


def _edge_level(plan, pre, layers, dtype, r0, r1) -> ad.Tensor:
    """Edge rows r0:r1 after every message-net layer but the last. Every
    buffer rectified or added into here is one that a product just
    returned, so off the tape it is overwritten in place."""
    y = _mix(plan, pre, "embed", dtype, r0, r1)
    if len(layers) == 1:
        return y
    y = ad.relu_(y)
    for w_self, w_neigh, bias in layers[1:-1]:
        neigh = _mix(plan, y, "mix", dtype, r0, r1, r0, r1)
        y = ad.relu_(ad.add_(ad.add_(ad.matmul(y, w_self), ad.matmul(neigh, w_neigh)), bias))
    return y


def _mix(plan: EdgePlan, y: ad.Tensor, name: str, dtype, *rows: int) -> ad.Tensor:
    """``ad.sparse_mix`` of ``y`` by the plan's kept block of the operator
    ``name``; a backward multiplies by the block's kept transpose."""
    block = functools.partial(plan.block, name, dtype, *rows)
    return ad.sparse_mix(y, block(), functools.partial(block, transposed=True))


def _tiles(plan: EdgePlan, chunk_edges: int | None, tile_rows: int | None):
    """Yield ``(r0, r1, x0, x1)``: each tile's edge rows and output rows.

    Tiles end only where the head changes. Their output rows tile the node
    rows, and the rows of a tile hold the blocks of its heads. A tile takes
    ``chunk_edges`` edges and runs on to the end of its last head's edges;
    with ``tile_rows`` it ends sooner, after the last head that keeps it
    within ``tile_rows`` edge rows, or after its first head's edges when
    those alone hold more.
    """
    n_edges = plan.edge_count
    ends, row_ptr = plan.edge_head_end, plan.edge_row_ptr
    run_starts = np.append(np.flatnonzero(np.diff(ends)) + 1, n_edges)
    run_rows = row_ptr[run_starts]
    step = n_edges if chunk_edges is None else max(1, chunk_edges)
    e0 = x0 = 0
    while True:
        e1 = int(run_starts[np.searchsorted(run_starts, e0 + step)]) if e0 + step < n_edges else n_edges
        if tile_rows is not None and row_ptr[e1] - row_ptr[e0] > tile_rows:
            fits = np.searchsorted(run_rows, row_ptr[e0] + tile_rows, side="right")
            first = run_starts[np.searchsorted(run_starts, e0, side="right")]
            e1 = int(max(run_starts[fits - 1] if fits else 0, first))
        x1 = int(ends[e1 - 1]) if e1 < n_edges else plan.node_rows
        yield int(row_ptr[e0]), int(row_ptr[e1]), x0, x1
        if e1 == n_edges:
            return
        e0, x0 = e1, x1


def _row_block(op: sp.csr_matrix, dtype, r0: int, r1: int, c0: int = 0, c1: int | None = None) -> sp.csr_matrix:
    """Rows r0:r1 of a CSR operator, its values in ``dtype``: a cast copies
    them, and in the operator's own dtype they are a view.

    With ``c0, c1``, the rows' entries all lie in columns c0:c1 (their own
    edge rows), and the block is those columns, renumbered from 0: for
    c0 > 0 that takes one shifted copy of the rows' column indices.
    """
    a, b = op.indptr[r0], op.indptr[r1]
    indices = op.indices[a:b] - c0 if c0 else op.indices[a:b]
    return sp.csr_matrix(
        (op.data[a:b].astype(dtype, copy=False), indices, op.indptr[r0 : r1 + 1] - a),
        shape=(r1 - r0, (op.shape[1] if c1 is None else c1) - c0),
    )


# ---------------------------------------------------------------------------
# Plain GCN baseline over whole graphs
# ---------------------------------------------------------------------------


@dataclass
class GcnPlan(_KeepsOperators):
    graphs: list[ConcreteGraph]
    n_nodes_total: int
    mix: sp.csr_matrix
    graph_of_node: np.ndarray


def compile_gcn_plan(graphs: list[ConcreteGraph]) -> GcnPlan:
    """The in-neighbour mean of every graph, block-diagonal on node serials:
    row u holds 1 / in_degree(u) at each in-neighbour of u."""
    total = sum(g.n for g in graphs)
    tail, head = _edge_serials(graphs)
    mix = _csr(1.0 / np.bincount(head, minlength=total)[head], head, tail, (total, total))
    return GcnPlan(list(graphs), total, mix, _graph_of_node(graphs))


def build_plain_gcn(
    rng: np.random.Generator, n_layers: int, hidden: int, c_in: int, c_out: int, dtype=np.float64
) -> GcnMessageNet:
    """Baseline net: same layer semantics, no marker channels."""
    return _glorot_net(rng, [c_in] + [hidden] * (n_layers - 1) + [c_out], dtype)


def gcn_forward_numpy(plan: GcnPlan, net: GcnMessageNet, x: np.ndarray) -> np.ndarray:
    y = x
    mix = plan.block("mix", x.dtype, 0, plan.n_nodes_total)
    for layer in net.layers:
        y = y @ layer.w_self + (mix @ y) @ layer.w_neigh + layer.bias
        if not layer.final:
            y = np.maximum(y, 0.0)
    return y
