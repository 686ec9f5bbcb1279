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
  number of messages into each node row. Its dense products run on node
  rows, after the sparse products with ``plan.project`` and ``project_mix``.

A message net of one layer aggregates its first-layer rows with ``S P``.
The same code computes the differentiable path (autodiff Tensors) and the
inference path (constants, which record no tape). Off the tape the bias
adds and rectifiers run in place on the buffers the products return
(``ad.add_``, ``ad.relu_``); on it they are the taped primitives.

Off the tape the edge level is walked in tiles of at most ``TILE_BYTES`` of
edge rows: the tile bounds the cache footprint, and each tile's rows are
embedded, rectified and projected while they are in cache. The optional
``chunk_edges`` bounds a tile's edges, and so memory. Each tile then
finishes its own node rows, last layer included, in the layer's one output
buffer: no node-level product follows the walk. The tape takes the edge
level and the node rows whole, with one product per operator.

Every value of a plan's operators is 1 / c for a small integer c, so a
plan keeps each operator as its CSR pattern and each entry's c
(``Operator``), and builds values only in the dtype that a product takes.
A plan's operators are constants, and so is every operator taken from
one. The plan builds each on first use and keeps it: a row block once per
operator, dtype and tile (``plan.block``), its transpose once per block,
for a backward, and the scatter of a segment-id array or of a weight's row
range once per dtype (``plan.scatter``). It keeps the tile bounds per pair
of bounds (``plan.tiles``) and the message counts per dtype
(``plan.messages``) too. The autodiff primitives take every operator from
the plan and build none, so after its first step, training on a plan
builds no sparse matrix.

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
from .neighbourhoods import NeighbourhoodAssignment

# Bytes of edge rows that one tile of the inference edge level holds, so
# that a tile is embedded, rectified and projected while it is in cache:
# half of a 2 MiB per-core L2. On a Xeon with that L2, per-call time on the
# expressiveness suites and on a 128x128 torus was within about 15% of its
# best from 256 KiB to 2 MiB, and 1.3-1.8 times its best with no budget.
TILE_BYTES = 1 << 20

# Candidates that one slice of ``compile_plan``'s in-neighbour lookup takes,
# so that its index arrays stay small beside the plan.
LOOKUP_SLICE = 1 << 16


@dataclass(frozen=True, eq=False)
class Operator:
    """A sparse operator each of whose values is 1 / c for a small integer
    c: its CSR pattern, with ``indptr`` and ``indices`` in int32 wherever
    they fit (as scipy keeps them), and each entry's c as ``den``, in the
    smallest unsigned dtype that holds the largest. ``_row_block`` builds
    its values in the dtype that a product takes."""

    indptr: np.ndarray
    indices: np.ndarray
    den: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return self.indices.size


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
    mix: Operator             # M: (edge_rows, edge_rows), block diagonal per edge
    embed: Operator           # (edge_rows, 2 (node_rows + 2) + 1): [E | C] and M [E | C], columns interleaved, then ones
    project: Operator         # S P: (node_rows, edge_rows)
    project_mix: Operator     # S P M: (node_rows, edge_rows)

    def tiles(self, chunk_edges: int | None, tile_rows: int) -> list[tuple[int, int, int, int]]:
        """``_tiles`` of this plan, kept per pair of bounds."""
        return self._keep(("tiles", chunk_edges, tile_rows), lambda: list(_tiles(self, chunk_edges, tile_rows)))

    def messages(self, dtype) -> np.ndarray:
        """The number of messages into each node row, as a column in ``dtype``."""
        return self._keep(("messages", np.dtype(dtype)), lambda: np.diff(self.project.indptr).astype(dtype)[:, None])


def compile_plan(graphs: list[ConcreteGraph], a: NeighbourhoodAssignment) -> EdgePlan:
    """Row layouts and operators of a batch of graphs.

    Everything is whole-array numpy work on global node serials (graph by
    graph, node ids ascending). The balls are the rows of the pattern of
    (I + A)^k (``_balls``), and every operator is built in CSR order, with
    no round trip through coordinates: its entries are placed by
    arithmetic, or come from scipy's row-wise products and merges. Each
    keeps its entries' counts, never a float value.
    """
    tail, head = _edge_serials(graphs)  # edges by (graph, head, tail)
    balls = _balls(sum(g.n for g in graphs), tail, head, a.k)
    serial = balls.shape[0]
    n_serial = max(serial, 1)
    ball_ptr = balls.indptr.astype(np.intp)
    member = balls.indices.astype(np.intp)  # X row -> serial of its ball node
    del balls
    ball_size = np.diff(ball_ptr)
    rows = int(ball_ptr[-1])
    edge_count = tail.size
    edge_ids = np.arange(edge_count, dtype=np.intp)

    # X rows of each edge's tail and head balls, and their keys (edge, node),
    # each strictly increasing
    tail_rows = _ranges(ball_ptr[tail], ball_size[tail])
    tail_keys = np.repeat(edge_ids, ball_size[tail]) * n_serial + member[tail_rows]
    head_rows = _ranges(ball_ptr[head], ball_size[head])
    head_keys = np.repeat(edge_ids, ball_size[head]) * n_serial + member[head_rows]
    del head_rows
    # edge rows: the union of both balls, by (edge, node), and the edge row
    # of every tail-ball and head-ball key
    keys, tail_pos, head_pos = _merge_sorted(tail_keys, head_keys)
    del tail_keys, head_keys
    y_rows = keys.size
    row_edge, row_node = np.divmod(keys, n_serial)
    del keys
    edge_row_ptr = _ptr(np.bincount(row_edge, minlength=edge_count))
    is_tail, is_head = row_node == tail[row_edge], row_node == head[row_edge]

    # M: in-neighbours of each edge row's node that lie in the same edge
    # neighbourhood, each weighted 1 / (their number)
    in_count = np.bincount(head, minlength=serial)
    mix_count, found = _inside_in_neighbours(tail, in_count, row_edge, row_node, edge_row_ptr, n_serial)
    del row_edge, row_node
    mix = _operator(np.repeat(mix_count, mix_count), found, _ptr(mix_count), (y_rows, y_rows))
    del found

    embed = _embed(rows, tail_rows, tail_pos, is_tail, is_head, mix)
    del tail_rows, tail_pos, is_tail, is_head
    # S P: the row of each head-ball node in each edge into the head. The
    # keys list an edge's head ball in ball order, so head_pos holds each
    # head's block of project entries edge-major, and project takes them
    # ball-node-major
    node_seg = np.repeat(np.arange(serial, dtype=np.intp), ball_size)
    proj_count = in_count[node_seg]
    proj_ptr = _ptr(proj_count)
    proj_row = np.repeat(np.arange(rows, dtype=np.intp), proj_count)
    owner = node_seg[proj_row]
    proj_col = head_pos[
        proj_ptr[ball_ptr[owner]]
        + (np.arange(proj_ptr[-1], dtype=np.intp) - proj_ptr[proj_row]) * ball_size[owner]
        + proj_row - ball_ptr[owner]
    ]
    del head_pos, proj_row, owner
    project = _operator(np.ones(proj_col.size, dtype=np.uint8), proj_col, proj_ptr, (rows, y_rows))
    # S P M: the rows of M that S P picks, each once, in its order
    picked = mix_count[proj_col]
    taken = _ranges(mix.indptr[proj_col], picked)
    project_mix = _operator(mix.den[taken], mix.indices[taken], _ptr(picked)[proj_ptr], (rows, y_rows))
    return EdgePlan(
        graphs=list(graphs),
        n_nodes_total=serial,
        node_rows=rows,
        node_ptr=ball_ptr,
        node_member=member,
        node_seg=node_seg,
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
    """Tail and head serials of every edge, by (graph, head, tail), the CSR
    order of the in-neighbour matrix. Node serials number the nodes graph
    by graph, ids ascending."""
    parts, serial = [], 0
    for g in graphs:
        parts.append(g.edge_array + serial)
        serial += g.n
    edges = np.concatenate(parts) if parts else np.zeros((0, 2), dtype=np.intp)
    order = np.lexsort((edges[:, 0], edges[:, 1]))
    return edges[order, 0], edges[order, 1]


def _inside_in_neighbours(tail, in_count, row_edge, row_node, edge_row_ptr, n_serial):
    """Entries per row and edge-row columns of M's pattern. The candidates of
    an edge row are its node's in-neighbours, by increasing serial, so
    those that are found are in CSR order already. Each is looked up in
    its edge's row of a matrix of edge rows by (edge, node): a binary
    search inside that edge's edge rows. The lookups run in slices of
    edge rows of about ``LOOKUP_SLICE`` candidates each."""
    y_rows = row_node.size
    cand_count = in_count[row_node]
    cand_ptr = _ptr(cand_count)
    in_ptr = _ptr(in_count)
    key_dtype = np.int32 if y_rows < np.iinfo(np.int32).max else np.int64
    key_rows = sp.csr_array(
        (np.arange(1, y_rows + 1, dtype=key_dtype), row_node, edge_row_ptr), shape=(edge_row_ptr.size - 1, n_serial)
    )
    mix_count = np.zeros(y_rows, dtype=np.intp)
    found = []
    cuts = np.searchsorted(cand_ptr, np.arange(LOOKUP_SLICE, cand_ptr[-1], LOOKUP_SLICE))
    for r0, r1 in zip([0, *cuts], [*cuts, y_rows]):
        c0, c1 = cand_ptr[r0], cand_ptr[r1]
        if c0 == c1:
            continue  # scipy picks none as sparse
        count = cand_count[r0:r1]
        keys = key_rows[np.repeat(row_edge[r0:r1], count), tail[_ranges(in_ptr[row_node[r0:r1]], count)]]
        inside = keys > 0
        mix_count[r0:r1] = np.diff(_ptr(inside)[cand_ptr[r0 : r1 + 1] - c0])
        found.append(keys[inside] - 1)
    return mix_count, np.concatenate(found) if found else np.zeros(0, dtype=key_dtype)


def _balls(n: int, tail: np.ndarray, head: np.ndarray, k: int) -> sp.csr_matrix:
    """Every node's k-ball (``neighbourhoods.ball``) at once: row p of the
    pattern of (I + A)^k lists p's ball by increasing serial, where A is the
    adjacency on node serials with edge direction ignored. Each product is
    taken on a pattern of ones, so an entry counts at most the ball nodes
    next to one node, in int64, and no count wraps to zero."""
    loops = np.arange(n, dtype=np.intp)
    step = sp.csr_matrix(
        (np.ones(2 * tail.size + n, dtype=np.int64),
         (np.concatenate([tail, head, loops]), np.concatenate([head, tail, loops]))),
        shape=(n, n),
    )
    step.data[:] = 1  # both orientations of an edge were summed
    balls = sp.identity(n, dtype=np.int64, format="csr")
    for _ in range(k):
        grown = balls @ step
        if grown.nnz == balls.nnz:
            break
        grown.data[:] = 1
        balls = grown
    balls.sort_indices()
    return balls


def _embed(rows, tail_rows, tail_pos, is_tail, is_head, mix: Operator) -> Operator:
    """``[E | C]`` and ``M [E | C]`` with column j of each at 2j and 2j + 1,
    and a last column of ones, which picks up the bias row of the operand:
    being each row's last column, the bias is added last.

    ``[E | C]`` is built row by row: the row's tail-ball column
    (``tail_rows``, at edge rows ``tail_pos``), then the marker columns
    ``rows`` at the tail's edge row and ``rows + 1`` at the head's. Every
    entry of ``M [E | C]`` sums one term, an entry of M times 1, so the
    product of M's counts and ``[E | C]``'s ones, in the counts' dtype,
    gives each entry its row's count in M; scipy's product leaves its rows
    unsorted, and they are sorted in place. scipy's sum of two canonical
    CSR matrices merges their rows, and with no column in common it adds
    nothing to any count.
    """
    y_rows = is_tail.size
    ball_col = np.full(y_rows, -1, dtype=np.intp)
    ball_col[tail_pos] = tail_rows
    own = ball_col >= 0
    ptr = _ptr(own.astype(np.intp) + is_tail + is_head)
    cols = np.empty(ptr[-1], dtype=np.intp)
    cols[ptr[:-1][own]] = ball_col[own]
    at = ptr[:-1] + own
    cols[at[is_tail]] = rows
    cols[(at + is_tail)[is_head]] = rows + 1
    del ball_col, own, at
    count = mix.den.dtype
    e_c = sp.csr_matrix((np.ones(cols.size, count), cols, ptr), shape=(y_rows, rows + 2))
    mixed = sp.csr_matrix((mix.den, mix.indices, mix.indptr), shape=mix.shape) @ e_c
    del e_c
    mixed.sort_indices()
    shape = (y_rows, 2 * rows + 5)
    placed = sp.csr_matrix(
        (np.ones(cols.size + y_rows, count), np.insert(2 * cols, ptr[1:], shape[1] - 1), ptr + np.arange(y_rows + 1)),
        shape=shape,
    )
    del cols, ptr
    both = placed + sp.csr_matrix((mixed.data, 2 * mixed.indices.astype(np.intp) + 1, mixed.indptr), shape=shape)
    return _operator(both.data, both.indices, both.indptr, shape)


def _graph_of_node(graphs: list[ConcreteGraph]) -> np.ndarray:
    return np.repeat(np.arange(len(graphs), dtype=np.intp), [g.n for g in graphs])


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


def _ptr(counts: np.ndarray) -> np.ndarray:
    """Row pointers of rows of ``counts`` entries: 0, then the running sums."""
    ptr = np.zeros(counts.size + 1, dtype=np.intp)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _operator(den, indices, indptr, shape) -> Operator:
    """An ``Operator`` from arrays already in CSR order, each row's columns
    increasing. Its index arrays are int32 where they fit, as scipy keeps
    them, and ``den`` takes the smallest unsigned dtype that holds its
    largest count."""
    index = np.int32 if max(*shape, len(indices)) <= np.iinfo(np.int32).max else np.int64
    den = np.asarray(den)
    small = np.min_scalar_type(int(den.max())) if den.size else np.uint8
    return Operator(np.asarray(indptr, index), np.asarray(indices, index), den.astype(small, copy=False), shape)


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
    if not attrs:
        raise ShapeError("no attribute arrays, so no channel count")
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
    its edge level walked in tiles, each of which finishes its node rows.

    A tile holds at most ``TILE_BYTES`` of edge rows, or one head's edges
    when those alone hold more, and at most ``chunk_edges`` edges, run on to
    the end of its last head's edges, so up to (largest in-degree - 1)
    more. Each output row takes all its messages from one tile, and its
    last-layer products from that tile's row block (BLAS gives a row block
    the bits of the whole product), so no bound changes a bit.
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

    On the tape the edge level and the node rows are taken whole; off it each
    tile of the edge level finishes its own node rows into one output buffer.
    """
    if aggregation not in ("sum", "mean"):
        raise ValidationError(f"unknown aggregation {aggregation!r}")
    dtype = x.dtype
    pre = _first_products(plan, x, *layers[0])
    if x._on_tape() or any(t._on_tape() for layer in layers for t in layer):
        y = _edge_level(plan, pre, layers, dtype, 0, plan.edge_rows)
        return _node_rows(plan, y, layers, dtype, aggregation, 0, plan.node_rows, 0, plan.edge_rows)
    out = None
    for r0, r1, x0, x1 in plan.tiles(chunk_edges, max(1, TILE_BYTES // (pre.shape[1] * pre.dtype.itemsize))):
        y = _edge_level(plan, pre, layers, dtype, r0, r1)
        rows = _node_rows(plan, y, layers, dtype, aggregation, x0, x1, r0, r1).data
        del y  # free the tile's edge rows before the next tile's are built
        if out is None:
            out = np.empty((plan.node_rows, rows.shape[1]), rows.dtype)
        out[x0:x1] = rows
    return ad.constant(out)


def _node_rows(plan, y, layers, dtype, aggregation, x0, x1, r0, r1) -> ad.Tensor:
    """Output rows x0:x1 from edge rows r0:r1, which hold all their
    messages: ``S P y``, or the last layer on ``S P y`` and ``S P M y``,
    and then under ``"mean"`` each row over its message count."""
    out = _mix(plan, y, "project", dtype, x0, x1, r0, r1)
    if len(layers) > 1:
        mixed = _mix(plan, y, "project_mix", dtype, x0, x1, r0, r1)
        w_self, w_neigh, bias = layers[-1]
        out = ad.add_(
            ad.add_(ad.matmul(out, w_self), ad.matmul(mixed, w_neigh)),
            ad.matmul(ad.constant(plan.messages(dtype)[x0:x1]), ad.reshape(bias, (1, -1))),
        )
    if aggregation == "mean":
        out = ad.row_scale(out, 1.0 / np.maximum(plan.messages(np.float64)[x0:x1, 0], 1))
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


def _tiles(plan: EdgePlan, chunk_edges: int | None, tile_rows: int):
    """Yield ``(r0, r1, x0, x1)``: each tile's edge rows and output rows.

    Tiles end only where the head changes. Their output rows tile the node
    rows, and the rows of a tile hold the blocks of its heads. A tile takes
    ``chunk_edges`` edges and runs on to the end of its last head's edges,
    or ends sooner, after the last head that keeps it within ``tile_rows``
    edge rows, or after its first head's edges when those alone hold more.
    """
    n_edges = plan.edge_count
    ends, row_ptr = plan.edge_head_end, plan.edge_row_ptr
    run_starts = np.append(np.flatnonzero(np.diff(ends)) + 1, n_edges)
    run_rows = row_ptr[run_starts]
    step = n_edges if chunk_edges is None else max(1, chunk_edges)
    e0 = x0 = 0
    while True:
        e1 = int(run_starts[np.searchsorted(run_starts, e0 + step)]) if e0 + step < n_edges else n_edges
        if row_ptr[e1] - row_ptr[e0] > tile_rows:
            fits = np.searchsorted(run_rows, row_ptr[e0] + tile_rows, side="right")
            first = run_starts[np.searchsorted(run_starts, e0, side="right")]
            e1 = int(max(run_starts[fits - 1] if fits else 0, first))
        x1 = int(ends[e1 - 1]) if e1 < n_edges else plan.node_rows
        yield int(row_ptr[e0]), int(row_ptr[e1]), x0, x1
        if e1 == n_edges:
            return
        e0, x0 = e1, x1


def _row_block(op: Operator, dtype, r0: int, r1: int, c0: int = 0, c1: int | None = None) -> sp.csr_matrix:
    """Rows r0:r1 of an operator as a CSR matrix, each value 1 / den taken
    in float64 and cast to ``dtype``, as a cast of the float64 operator
    would give.

    With ``c0, c1``, the rows' entries all lie in columns c0:c1 (their own
    edge rows), and the block is those columns, renumbered from 0: for
    c0 > 0 that takes one shifted copy of the rows' column indices.
    """
    a, b = op.indptr[r0], op.indptr[r1]
    indices = op.indices[a:b] - c0 if c0 else op.indices[a:b]
    return sp.csr_matrix(
        ((1.0 / op.den[a:b]).astype(dtype, copy=False), indices, op.indptr[r0 : r1 + 1] - a),
        shape=(r1 - r0, (op.shape[1] if c1 is None else c1) - c0),
    )


# ---------------------------------------------------------------------------
# Plain GCN baseline over whole graphs
# ---------------------------------------------------------------------------


@dataclass
class GcnPlan(_KeepsOperators):
    graphs: list[ConcreteGraph]
    n_nodes_total: int
    mix: Operator
    graph_of_node: np.ndarray


def compile_gcn_plan(graphs: list[ConcreteGraph]) -> GcnPlan:
    """The in-neighbour mean of every graph, block-diagonal on node serials:
    row u holds 1 / in_degree(u) at each in-neighbour of u, kept as the
    count in_degree(u). The edges come by (head, tail), so they are that
    matrix's entries in CSR order."""
    total = sum(g.n for g in graphs)
    tail, head = _edge_serials(graphs)
    in_count = np.bincount(head, minlength=total)
    mix = _operator(in_count[head], tail, _ptr(in_count), (total, total))
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
