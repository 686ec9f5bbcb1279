"""The four workloads: inputs, set-up, one unit of steady-state work, checks.

Each workload calls the ``ngn`` package the way the ``ngn`` commands do,
through module attributes so that the tracer can see the calls. A unit
returns the seconds of its timed calls, the items it moved (graphs, nodes
or edges), an output that is compared bit for bit between traced and
untraced runs, and one check result per operation. ``final_checks`` runs
once after the measured phase, with the last unit, and is never timed.
A workload keeps what its final checks need from earlier units itself, so
that no unit's output outlives the next unit.

Every check compares against a property of the output or against a
separate computation (the per-edge float64 reference, or code of this
file), never against a stored copy of an earlier output.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ngn import autodiff as ad
from ngn import batched, datasets, lattices, message_net, models, ngn_layer, representations
from ngn.graph_core import GraphIso, from_undirected
from ngn.neighbourhoods import NeighbourhoodAssignment

K1 = NeighbourhoodAssignment(1)


@dataclass
class Unit:
    seconds: float   # time inside the timed calls
    items: int       # graphs, nodes or edges moved by those calls
    output: object   # compared bit for bit between traced and untraced units
    checks: list[tuple[str, bool]] = field(default_factory=list)  # one per operation
    own_items: int | None = None  # items of the workload's own throughput, when they differ


def _ball(g, p) -> list[int]:
    """Closed 1-hop ball of p in ascending id order (the feature layout)."""
    return sorted({p} | set(g.und_nbrs[p]))


def _degree_attrs(graphs) -> list[np.ndarray]:
    return [np.array([[float(len(g.und_nbrs[u]))] for u in g.nodes]) for g in graphs]


def _degree_blocks(g) -> representations.GlobalFeature:
    """Standard-rep input blocks (ball node degrees), built without the plan."""
    return representations.GlobalFeature(
        {p: np.array([float(len(g.und_nbrs[u])) for u in _ball(g, p)]) for p in g.nodes}
    )


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _net64(net):
    return message_net.GcnMessageNet(
        [
            message_net.GcnLayerParams(
                l.w_self.astype(np.float64), l.w_neigh.astype(np.float64),
                l.bias.astype(np.float64), l.final,
            )
            for l in net.layers
        ]
    )


def _stack_forward(plan, x, nets, chunk_edges=None) -> np.ndarray:
    """Compiled NGN layers with a rectifier between them."""
    for i, net in enumerate(nets):
        x = batched.gcn2_layer_numpy(plan, net, x, chunk_edges=chunk_edges)
        if i < len(nets) - 1:
            x = np.maximum(x, 0.0)
    return x


def _reference_rows(g, nets) -> np.ndarray:
    """The same stack through the per-edge float64 reference
    ``message_net.ngn_gcn2_forward``, as rows in the compiled layout
    (node ids ascending, then ball node ids ascending)."""
    v = _degree_blocks(g)
    for i, net in enumerate(nets):
        v = message_net.ngn_gcn2_forward(_net64(net), g, v, K1)
        if i < len(nets) - 1:
            v = representations.GlobalFeature({p: np.maximum(b, 0.0) for p, b in v.blocks.items()})
    return np.vstack([v.blocks[p].reshape(len(_ball(g, p)), -1) for p in g.nodes])


def _compiled_vs_reference(g, nets) -> float:
    """Relative difference between the compiled float64 stack and the
    per-edge float64 reference on one graph."""
    plan = batched.compile_plan([g], K1)
    x = batched.node_attrs_to_buffer(plan, _degree_attrs([g]), dtype=np.float64)
    return _rel_diff(_stack_forward(plan, x, [_net64(n) for n in nets]), _reference_rows(g, nets))


class Workload:
    name = ""
    item = ""            # what items_per_s counts
    own_item = ""        # what the workload's own throughput counts, when not ``item``
    own_metric = ""    # the workload's own name for its throughput

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self):
        raise NotImplementedError

    def unit(self, state, index: int) -> Unit:
        raise NotImplementedError

    def final_checks(self, state, last: Unit) -> list[tuple[str, bool]]:
        return []

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# expressiveness: random-weight GCN² and GCN embeddings of the four suites
# ---------------------------------------------------------------------------


class Expressiveness(Workload):
    """``ngn expressiveness`` without its ungated solver step. One unit is
    one weight seed (0, 1, 2, ... as the command uses them) over all four
    suites and both models."""

    name = "expressiveness"
    item = "edges"
    own_item = "graphs"
    own_metric = "embed_graphs_per_s"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.cfg = models.EmbeddingConfig()
        self.gcn2_rates: dict[str, list[float]] = {"regular": [], "strongly_regular": []}

    def setup(self):
        suites = datasets.synth_suites(self.seed)
        plans = {k: batched.compile_plan(g, K1) for k, g in suites.items()}
        gcn_plans = {k: batched.compile_gcn_plan(g) for k, g in suites.items()}
        attrs = {k: _degree_attrs(g) for k, g in suites.items()}
        return suites, plans, gcn_plans, attrs

    def unit(self, state, index):
        suites, plans, gcn_plans, attrs = state
        seconds = 0.0
        out = {}
        for k in suites:
            t0 = time.perf_counter()
            e2 = models.gcn2_embeddings(plans[k], attrs[k], index, self.cfg)
            e1 = models.gcn_embeddings(gcn_plans[k], attrs[k], index, self.cfg)
            seconds += time.perf_counter() - t0
            out[k] = (e2, e1)
        checks = []
        for k, (e2, e1) in out.items():
            for model, e in (("gcn2", e2), ("gcn", e1)):
                ok = e.shape == (len(suites[k]), self.cfg.out) and bool(np.all(np.isfinite(e)))
                rate = models.dissimilar_pair_rate(e) if ok else float("nan")
                if model == "gcn2" and k in self.gcn2_rates:
                    self.gcn2_rates[k].append(rate)
                if k == "isomorphic":
                    # embeddings are invariant under relabeling
                    ok = ok and rate == 0.0
                elif model == "gcn" and k in ("regular", "strongly_regular"):
                    # on a regular graph mean aggregation gives every node the same feature
                    ok = ok and rate == 0.0
                checks.append((f"{k}/{model}/seed{index}", ok))
        edges = sum(len(g.edges) for graphs in suites.values() for g in graphs)
        return Unit(seconds, edges, out, checks, own_items=sum(len(g) for g in suites.values()))

    def final_checks(self, state, last):
        suites = state[0]
        checks = []
        # criterion 4's bounds on GCN², as a mean over the weight seeds run
        for k, rates in self.gcn2_rates.items():
            checks.append((f"{k}/gcn2 mean rate >= 0.99", float(np.mean(rates)) >= 0.99))
        # compiled layers against the per-edge float64 reference, one graph per suite
        rng = np.random.default_rng(self.seed)
        cfg = self.cfg
        for k, graphs in suites.items():
            nets, width = [], 1
            for layer in range(cfg.ngn_layers):
                c_out = cfg.out if layer == cfg.ngn_layers - 1 else cfg.hidden
                params = batched.init_message_net_params(rng, cfg.layers, cfg.hidden, width, c_out)
                nets.append(batched.message_net_from_params(params))
                width = c_out
            err = _compiled_vs_reference(graphs[0], nets)
            checks.append((f"{k}/compiled vs per-edge reference ({err:.1e})", err <= 1e-9))
        return checks


# ---------------------------------------------------------------------------
# lattice: chunked 3-layer GCN² forward over one large square torus
# ---------------------------------------------------------------------------

TORUS_SIDE = 128      # 16,384 nodes, 65,536 directed edges: three 30,000-edge chunks
SMALL_SIDE = 8        # torus for the size-independence and reference checks
LATTICE_WIDTH = 32
LATTICE_DEPTH = 3
CHUNK_EDGES = 30000


class Lattice(Workload):
    """The chunked forward of ``ngn bench`` at one size. The seed draws the
    weights; the input is the node degree, as in the command."""

    name = "lattice"
    item = "nodes"
    own_metric = "forward_nodes_per_s"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = np.random.default_rng(seed)
        self.nets = [
            batched.message_net_from_params(
                batched.init_message_net_params(
                    rng, 2, LATTICE_WIDTH, data_in=(1 if l == 0 else LATTICE_WIDTH),
                    c_out=LATTICE_WIDTH, dtype=np.float32, prefix=f"b{l}",
                ),
                prefix=f"b{l}",
            )
            for l in range(LATTICE_DEPTH)
        ]
        self.gcn_net = batched.build_plain_gcn(
            rng, LATTICE_DEPTH, LATTICE_WIDTH, c_in=1, c_out=LATTICE_WIDTH, dtype=np.float32
        )

    def _prepare(self, side):
        g = lattices.square_torus(side)
        plan = batched.compile_plan([g], K1)
        attrs = _degree_attrs([g])
        return g, plan, attrs, batched.node_attrs_to_buffer(plan, attrs, dtype=np.float32)

    @staticmethod
    def _node_features(plan, x) -> np.ndarray:
        """Per-node mean over ball rows (rows are grouped by node)."""
        starts = np.flatnonzero(np.r_[True, np.diff(plan.node_seg) != 0])
        counts = np.diff(np.r_[starts, len(plan.node_seg)])
        return np.add.reduceat(x.astype(np.float64), starts, axis=0) / counts[:, None]

    def setup(self):
        g, plan, attrs, x0 = self._prepare(TORUS_SIDE)
        gcn_plan = batched.compile_gcn_plan([g])
        return g, plan, gcn_plan, x0, attrs[0].astype(np.float32)

    def unit(self, state, index):
        g, plan, gcn_plan, x0, x0_gcn = state
        t0 = time.perf_counter()
        x = _stack_forward(plan, x0, self.nets, CHUNK_EDGES)
        seconds = time.perf_counter() - t0
        y = batched.gcn_forward_numpy(gcn_plan, self.gcn_net, x0_gcn)
        node = self._node_features(plan, x)
        # the torus is vertex-transitive: every node's pooled feature is equal
        spread = float(np.max(np.abs(node - node[0]))) / max(float(np.max(np.abs(node))), 1e-30)
        gcn_spread = float(np.max(np.abs(y - y[0]))) / max(float(np.max(np.abs(y))), 1e-30)
        checks = [
            ("gcn2 node features equal", bool(np.all(np.isfinite(x))) and spread <= 1e-4),
            ("gcn node features equal", bool(np.all(np.isfinite(y))) and gcn_spread <= 1e-4),
        ]
        return Unit(seconds, g.n, (x, y), checks)

    def final_checks(self, state, last):
        plan = state[1]
        big = self._node_features(plan, last.output[0]).mean(axis=0)
        g8, plan8, _, x8 = self._prepare(SMALL_SIDE)
        small = self._node_features(plan8, _stack_forward(plan8, x8, self.nets)).mean(axis=0)
        ref_err = _compiled_vs_reference(g8, self.nets)
        ref = self._node_features(plan8, _reference_rows(g8, self.nets)).mean(axis=0)
        size_err = _rel_diff(big, small)
        f64_err = _rel_diff(big, ref)
        return [
            (f"embedding independent of torus size ({size_err:.1e})", size_err <= 1e-3),
            (f"compiled float64 vs per-edge reference ({ref_err:.1e})", ref_err <= 1e-9),
            (f"float32 at {TORUS_SIDE}^2 vs per-edge float64 at {SMALL_SIDE}^2 ({f64_err:.1e})", f64_err <= 1e-3),
        ]


# ---------------------------------------------------------------------------
# train: ``ngn train`` with criterion 8's settings on a synthetic corpus
# ---------------------------------------------------------------------------

TRAIN_GRAPHS = 120
TRAIN_EPOCHS = 20
TRAIN_RATE = 5e-4
TRAIN_DECAY = 0.9
TRAIN_BATCH = 16
GRAD_SAMPLES = 3   # sampled entries per parameter tensor in the gradient check
# Relative steps of the central differences. An entry passes when one step
# agrees: now and then a ReLU kink lies within the widest step (about one
# run in thirty at 1e-6), while a wrong gradient disagrees at every step.
GRAD_STEPS = (1e-6, 1e-7, 1e-8)


def two_class_corpus(rng: np.random.Generator, n_graphs: int) -> datasets.GraphDataset:
    """Class 0: rings with pendants. Class 1: the same with chords, which
    close triangles. Node labels mark nodes of degree three or more."""
    graphs, labels, node_labels = [], [], []
    for i in range(n_graphs):
        n_ring = int(rng.integers(10, 16))
        pairs = {tuple(sorted((j, (j + 1) % n_ring))) for j in range(n_ring)}
        n = n_ring
        for _ in range(int(rng.integers(2, 5))):
            pairs.add((int(rng.integers(n_ring)), n))
            n += 1
        label = i % 2
        if label:
            for _ in range(int(rng.integers(2, 4))):
                a = int(rng.integers(n_ring))
                pairs.add(tuple(sorted((a, (a + 2) % n_ring))))
        g = from_undirected(range(n), pairs)
        graphs.append(g)
        labels.append(label)
        node_labels.append([1 if len(g.und_nbrs[u]) >= 3 else 0 for u in g.nodes])
    return datasets.GraphDataset("SYNTH", graphs, np.array(labels, dtype=np.intp), 2, node_labels=node_labels)


def _central_difference(loss, flat, i, step) -> float:
    orig = flat[i]
    h = step * max(1.0, abs(orig))
    flat[i] = orig + h
    up = float(loss().data)
    flat[i] = orig - h
    down = float(loss().data)
    flat[i] = orig
    return (up - down) / (2 * h)


def _copy_params(params, dtype=None):
    return {k: ad.param(v.data.copy(), dtype=dtype or v.data.dtype) for k, v in params.items()}


class Train(Workload):
    """``ngn train``'s path: ``load_tu``, one-hot features, fold 0 held out,
    batch plans, Adam. One unit is a whole ``train_classifier`` call from
    the same initial parameters."""

    name = "train"
    item = "graphs"
    own_metric = "train_graphs_per_s"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.losses: list[np.ndarray] = []  # of every unit, for the determinism check
        self.data_dir = Path(tempfile.mkdtemp(prefix="train-", dir=work_dir))
        datasets.write_tu(two_class_corpus(np.random.default_rng(seed), TRAIN_GRAPHS), self.data_dir)

    def close(self):
        shutil.rmtree(self.data_dir, ignore_errors=True)

    def setup(self):
        ds = datasets.load_tu(self.data_dir)
        feats = datasets.initial_features(ds, "onehot-label")
        folds = datasets.ten_fold_split(ds, self.seed)
        held_out = set(int(i) for i in folds[0])
        train_idx = [i for i in range(len(ds.graphs)) if i not in held_out]
        cfg = models.Gcn2Config(ngn_layers=3, msg_layers=2, hidden=16, classes=ds.n_classes, dtype=np.float32)
        rng = np.random.default_rng(self.seed)
        plans, inputs, labels = [], [], []
        for batch in models.make_batches(len(train_idx), TRAIN_BATCH, rng):
            idx = [train_idx[i] for i in batch]
            plan = batched.compile_plan([ds.graphs[i] for i in idx], K1)
            plans.append(plan)
            inputs.append(batched.node_attrs_to_buffer(plan, [feats[i] for i in idx], dtype=cfg.dtype))
            labels.append(np.array([ds.labels[i] for i in idx], dtype=np.intp))
        params = models.init_classifier_params(np.random.default_rng(self.seed), feats[0].shape[1], cfg)
        return cfg, plans, inputs, labels, params

    def unit(self, state, index):
        cfg, plans, inputs, labels, params0 = state
        params = _copy_params(params0)
        t0 = time.perf_counter()
        result = models.train_classifier(
            plans, inputs, labels, params, cfg, TRAIN_EPOCHS, TRAIN_RATE, self.seed, decay=TRAIN_DECAY
        )
        seconds = time.perf_counter() - t0
        n_train = sum(len(l) for l in labels)
        losses = result.losses
        ok = not result.diverged and len(losses) == TRAIN_EPOCHS and bool(np.all(np.isfinite(losses)))
        checks = [("training ran all epochs with finite losses", ok)]
        self.losses.append(np.array(losses))
        output = (np.array(losses), {k: v.data for k, v in params.items()}, result.train_accuracy)
        return Unit(seconds, TRAIN_EPOCHS * n_train, output, checks)

    def final_checks(self, state, last):
        cfg, plans, inputs, labels, params0 = state
        losses = self.losses
        checks = [
            ("same seed gives identical losses", all(np.array_equal(l, losses[0]) for l in losses)),
            ("epoch loss falls", float(np.min(losses[0][1:])) < float(losses[0][0])),
        ]
        # analytic gradients against central differences, float64 copy of the model
        cfg64 = models.Gcn2Config(
            ngn_layers=cfg.ngn_layers, msg_layers=cfg.msg_layers, hidden=cfg.hidden,
            classes=cfg.classes, dtype=np.float64,
        )
        params = _copy_params(params0, dtype=np.float64)

        def loss():
            logits = models.classifier_logits(plans[0], params, inputs[0], cfg64)
            return ad.softmax_cross_entropy(logits, labels[0])

        analytic = ad.grads_of(loss(), params)
        rng = np.random.default_rng(self.seed)
        worst = 0.0
        for name, p in params.items():
            flat = p.data.reshape(-1)
            scale = max(float(np.max(np.abs(analytic[name]))), 1e-8)
            for i in rng.choice(flat.size, size=min(GRAD_SAMPLES, flat.size), replace=False):
                worst = max(worst, min(
                    abs(_central_difference(loss, flat, i, step) - analytic[name].reshape(-1)[i]) / scale
                    for step in GRAD_STEPS
                ))
        checks.append((f"gradients match central differences ({worst:.1e})", worst < 1e-5))
        return checks


# ---------------------------------------------------------------------------
# solver: the solver-based NgnLayer on both sides of the naturality law
# ---------------------------------------------------------------------------

SOLVER_SIZES = range(6, 21)   # node counts of ``ngn check-naturality``'s graphs
SOLVER_PER_SIZE = 6           # graphs of each size in a round
MAX_DEGREE = 4
SAMPLED_CLASSES = 8
LIFT_CHECKS = 4


def _random_test_graph(rng: np.random.Generator, n: int):
    """As ``ngn check-naturality`` draws them (edge probability
    3.5 / (n - 1)), then thinned to degree at most 4: edges are kept in a
    random order while both ends have room. Without the cap, a node of
    degree 7 gives edge classes with 720 automorphisms, whose solve takes
    tens of seconds and gigabytes, so a round's cost would depend on the
    seed by orders of magnitude."""
    p = 3.5 / (n - 1)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    degree = [0] * n
    kept = []
    for k in rng.permutation(len(pairs)):
        i, j = pairs[k]
        if degree[i] < MAX_DEGREE and degree[j] < MAX_DEGREE:
            kept.append((i, j))
            degree[i] += 1
            degree[j] += 1
    return from_undirected(range(n), kept)


def _lift_standard(phi: GraphIso, v: representations.GlobalFeature) -> representations.GlobalFeature:
    """Transport a standard*1 feature along phi by index permutation."""
    out = {}
    for p in phi.source.nodes:
        src = _ball(phi.source, p)
        tgt = {u: i for i, u in enumerate(_ball(phi.target, phi.map[p]))}
        block = np.zeros(len(src))
        block[[tgt[phi.map[u]] for u in src]] = v.blocks[p]
        out[phi.map[p]] = block
    return representations.GlobalFeature(out)


def _perm_matrix(psi: GraphIso) -> np.ndarray:
    src = psi.source.nodes
    index = {u: i for i, u in enumerate(psi.target.nodes)}
    mat = np.zeros((len(index), len(src)))
    mat[[index[psi.map[u]] for u in src], np.arange(len(src))] = 1.0
    return mat


class Solver(Workload):
    """``ngn check-naturality``'s solver half. One unit is a round over the
    same graphs through a fresh ``NgnLayer(standard*1)``, so every round
    starts from an empty class table and does the same work."""

    name = "solver"
    item = "edges"
    own_metric = "solver_edges_per_s"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = np.random.default_rng(seed)
        # every size equally often, so that rounds of different seeds weigh alike
        sizes = rng.permutation(np.repeat(SOLVER_SIZES, SOLVER_PER_SIZE))
        self.graphs = [_random_test_graph(rng, int(n)) for n in sizes]
        self.perms = [[int(x) for x in rng.permutation(g.n)] for g in self.graphs]
        self.rho = representations.parse_rep_spec("standard*1")
        self.layer = None  # the last round's layer, for the class checks

    def setup(self):
        rng = np.random.default_rng(self.seed + 1)
        triples = []
        for g, perm in zip(self.graphs, self.perms):
            mapping = dict(zip(g.nodes, perm))
            phi = GraphIso.build(g, g.relabel(mapping), mapping)
            triples.append((g, phi, representations.random_feature(rng, self.rho, g, K1)))
        return triples

    def unit(self, state, index):
        self.layer = None  # free the previous round's class table first
        t0 = time.perf_counter()
        layer = ngn_layer.NgnLayer(rho=self.rho, rho_prime=self.rho, assignment=K1, seed=self.seed)
        residuals = [ngn_layer.check_naturality(layer, g, phi, v) for g, phi, v in state]
        seconds = time.perf_counter() - t0
        self.layer = layer
        edges = sum(2 * len(g.edges) for g, _, _ in state)
        checks = [(f"graph {i} naturality residual {r:.1e}", r < 1e-10) for i, r in enumerate(residuals)]
        return Unit(seconds, edges, (np.array(residuals), len(layer.table)), checks)

    def final_checks(self, state, last):
        checks = []
        rng = np.random.default_rng(self.seed)
        # naturality again with a transport written here, on a few graphs
        for i in rng.choice(len(state), size=min(LIFT_CHECKS, len(state)), replace=False):
            g, phi, v = state[i]
            lhs = _lift_standard(phi, self.layer.forward(g, v))
            rhs = self.layer.forward(phi.target, _lift_standard(phi, v))
            checks.append((f"graph {i} residual with independent transport", lhs.max_abs_diff(rhs) < 1e-10))
        # sampled classes: rank against the projector trace, and the constraint itself
        kernels = list(self.layer.table.values())
        for i in rng.choice(len(kernels), size=min(SAMPLED_CLASSES, len(kernels)), replace=False):
            shared = kernels[i]
            ec = shared.basis.edge_class
            group = [(_perm_matrix(t), _perm_matrix(h)) for t, h in ec.group_restrictions]
            # trace of mean(kron(Q, P)) is the mean of trace(Q) * trace(P)
            trace = float(np.mean([np.trace(q) * np.trace(p) for p, q in group]))
            k = shared.representative_kernel()
            residual = max(float(np.linalg.norm(q @ k - k @ p)) for p, q in group)
            ok = shared.basis.rank == int(round(trace)) and residual < 1e-10
            checks.append((f"class {i}: rank {shared.basis.rank}, trace {trace:.3f}, residual {residual:.1e}", ok))
        return checks


WORKLOADS = {w.name: w for w in (Expressiveness, Lattice, Train, Solver)}
