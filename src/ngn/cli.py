"""Command-line harness: law checks, experiments, benchmark, training.

Every command is deterministic (given ``--seed``, where it takes one). One
writer, ``_emit``, puts each command's JSON report and its CSV table in
``--out`` and prints the same table to stdout (``train``'s is its loss per
epoch). Each command declares only the flags it reads. Exit status is
nonzero when a gated check fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .batched import (
    build_plain_gcn,
    compile_gcn_plan,
    compile_plan,
    gcn_forward_numpy,
    node_attrs_to_buffer,
)
from .datasets import (
    _gnp,
    degree_features,
    initial_features,
    load_graph6,
    load_tu,
    synth_suites,
    ten_fold_split,
)
from .errors import NgnError, ValidationError
from .graph_core import GraphIso, automorphism_generators, enumerate_group
from .kernel_solver import edge_class, locate_edge, solve_basis
from .lattices import king_torus, square_torus, triangular_torus
from .message_net import build_gcn_net, ngn_gcn2_forward, parse_net_config
from .models import (
    DISSIMILAR_EPS,
    EmbeddingConfig,
    Gcn2Config,
    accuracy,
    dissimilar_pair_rate,
    gcn2_embeddings,
    gcn_embeddings,
    init_classifier_params,
    make_batches,
    pair_rate_and_margins,
    stacked_gcn2_numpy,
    train_classifier,
)
from .neighbourhoods import NeighbourhoodAssignment, ball, edge_neighbourhood, node_neighbourhood
from .ngn_layer import NgnLayer, check_naturality
from .representations import GlobalFeature, RepSpec, lift_global, parse_rep_spec, random_feature, rep_matrix
from .srg import builtin_srg_25

K1 = NeighbourhoodAssignment(1)

NATURALITY_TOL_SOLVER = 1e-10
NATURALITY_TOL_GCN2 = 1e-12


@dataclass
class RunConfig:
    command: str
    data: str | None = None
    rep: str = "standard*1"
    net: str = "gcn2(layers=2, hidden=16)"
    seed: int = 0
    epochs: int = 100
    rate: float = 1e-3
    fold: int = 0
    out: str | None = None
    trials: int = 200
    seeds: int = 100
    layers: int = 3
    decay: float = 0.97
    batch: int = 32
    corrupt: bool = False
    sizes: list[int] = field(default_factory=lambda: [32, 64, 128, 256])

    def __post_init__(self):
        """Reject a count, fold, rate or size list that no command can run on."""
        for flag, least in (("seed", 0), ("trials", 1), ("seeds", 1), ("epochs", 1), ("layers", 1), ("batch", 1)):
            if getattr(self, flag) < least:
                raise ValidationError(f"--{flag} must be at least {least}, got {getattr(self, flag)}")
        if not 0 <= self.fold < 10:
            raise ValidationError(f"--fold must be one of the ten folds 0-9, got {self.fold}")
        for flag in ("rate", "decay"):
            if not (np.isfinite(getattr(self, flag)) and getattr(self, flag) > 0):
                raise ValidationError(f"--{flag} must be a positive finite number, got {getattr(self, flag)}")
        if len(set(self.sizes)) < 2:
            raise ValidationError(f"--sizes needs at least two distinct sizes to fit a slope, got {self.sizes}")


def _emit(cfg: RunConfig, report: dict, rows: list[dict]) -> dict:
    """Write ``report.json`` and, when there are rows, ``report.csv`` into
    ``--out`` if it is given; print the rows as a table; return the report."""
    if cfg.out:
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(report, indent=2))
        if rows:
            with open(out / "report.csv", "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
    if rows:
        cols = list(rows[0])
        widths = [max(len(str(c)), *(len(str(r[c])) for r in rows)) for c in cols]
        for line in [cols, *([r[c] for c in cols] for r in rows)]:
            print("  ".join(str(v).ljust(w) for v, w in zip(line, widths)))
    return report


def _random_test_graph(rng: np.random.Generator, n_max: int = 20):
    n = int(rng.integers(6, n_max + 1))
    return _gnp(rng, n, 3.5 / (n - 1))


def _random_relabel(rng: np.random.Generator, g) -> GraphIso:
    new_ids = [int(x) for x in rng.permutation(g.n)]
    mapping = dict(zip(g.nodes, new_ids))
    return GraphIso.build(g, g.relabel(mapping), mapping)


# ---------------------------------------------------------------------------
# check-naturality
# ---------------------------------------------------------------------------


def cmd_check_naturality(cfg: RunConfig) -> dict:
    """Commutation residuals for the solver layer and the GCN² layer."""
    rng = np.random.default_rng(cfg.seed)
    rho = parse_rep_spec(cfg.rep)
    layer = NgnLayer(rho=rho, rho_prime=rho, assignment=K1, seed=cfg.seed)
    net_cfg = parse_net_config(cfg.net)

    worst_solver = 0.0
    worst_gcn2 = 0.0
    t0 = time.time()
    for trial in range(cfg.trials):
        g = _random_test_graph(rng)
        phi = _random_relabel(rng, g)
        v = random_feature(rng, rho, g, K1)
        if cfg.corrupt:
            # negative control: perturb every class's weights between the two
            # sides of the law, so the check must fail
            lhs = lift_global(phi, layer.forward(g, v), rho, K1)
            for shared in layer.table.values():
                for w in shared.weights:
                    w += 0.5
            rhs = layer.forward(phi.target, lift_global(phi, v, rho, K1))
            worst_solver = max(worst_solver, lhs.max_abs_diff(rhs))
        else:
            worst_solver = max(worst_solver, check_naturality(layer, g, phi, v))

        c_in, c_out = 2, 3
        net = build_gcn_net(rng, net_cfg["layers"], net_cfg["hidden"], data_in=c_in, c_out=c_out)
        blocks = random_feature(rng, RepSpec.standard(c_in), g, K1)
        lhs = lift_global(phi, ngn_gcn2_forward(net, g, blocks, K1), RepSpec.standard(c_out), K1)
        rhs = ngn_gcn2_forward(net, phi.target, lift_global(phi, blocks, RepSpec.standard(c_in), K1), K1)
        worst_gcn2 = max(worst_gcn2, lhs.max_abs_diff(rhs))

    passed = worst_solver < NATURALITY_TOL_SOLVER and worst_gcn2 < NATURALITY_TOL_GCN2
    report = {
        "command": "check-naturality",
        "trials": cfg.trials,
        "max_residual_solver": worst_solver,
        "max_residual_gcn2": worst_gcn2,
        "tolerance_solver": NATURALITY_TOL_SOLVER,
        "tolerance_gcn2": NATURALITY_TOL_GCN2,
        "classes_solved": len(layer.table),
        "seconds": time.time() - t0,
        "passed": bool(passed),
    }
    rows = [
        {"layer": "solver", "max_residual": worst_solver, "tolerance": NATURALITY_TOL_SOLVER},
        {"layer": "gcn2", "max_residual": worst_gcn2, "tolerance": NATURALITY_TOL_GCN2},
    ]
    return _emit(cfg, report, rows)


# ---------------------------------------------------------------------------
# expressiveness
# ---------------------------------------------------------------------------


def _solver_embeddings(graphs, rho_text: str, seed: int) -> np.ndarray:
    """Graph embeddings from the solver-based layer with random weights."""
    rho = parse_rep_spec(rho_text)
    layer = NgnLayer(rho=rho, rho_prime=rho, assignment=K1, seed=seed)
    embs = []
    for g in graphs:
        blocks = {p: np.array([float(len(g.und_nbrs[u])) for u in ball(g, p, K1.k)]) for p in g.nodes}
        out = layer.forward(g, GlobalFeature(blocks))
        embs.append(np.array([b.mean() for b in out.blocks.values()]).mean(keepdims=True))
    return np.array(embs)


def cmd_expressiveness(cfg: RunConfig) -> dict:
    """Dissimilar-pair rates of GCN and GCN² on the four suites."""
    start = time.perf_counter()
    srg = load_graph6(cfg.data) if cfg.data else builtin_srg_25()
    suites = synth_suites(cfg.seed, srg_graphs=srg)
    emb_cfg = EmbeddingConfig()
    suites_done = time.perf_counter()

    plans = {name: compile_plan(graphs, K1) for name, graphs in suites.items()}
    gcn_plans = {name: compile_gcn_plan(graphs) for name, graphs in suites.items()}
    attrs = {name: degree_features(graphs) for name, graphs in suites.items()}
    setup_seconds = {"suites": suites_done - start, "plans": time.perf_counter() - suites_done}

    embedders = {
        "gcn": lambda name, s: gcn_embeddings(gcn_plans[name], attrs[name], s, emb_cfg),
        "gcn2": lambda name, s: gcn2_embeddings(plans[name], attrs[name], s, emb_cfg),
    }
    rates: dict[str, dict[str, float]] = {model: {} for model in embedders}
    margins: dict[str, dict[str, dict]] = {model: {} for model in embedders}
    t0 = time.time()
    for name in suites:
        for model, embed in embedders.items():
            seed_rates, seed_margins = [], []
            for s in range(cfg.seeds):
                rate, margin = pair_rate_and_margins(embed(name, s))
                seed_rates.append(rate)
                seed_margins.append(margin)
            rates[model][name] = float(np.mean(seed_rates))
            lows = [float(m.min()) for m in seed_margins]
            highs = [float(m.max()) for m in seed_margins]
            margins[model][name] = {
                "min": min(lows),
                "median": float(np.median(np.concatenate(seed_margins))),
                "worst_seed": int(np.argmin(lows)),
                "max": max(highs),
                "max_seed": int(np.argmax(highs)),
            }

    solver_iso_rates = [
        dissimilar_pair_rate(_solver_embeddings(suites["isomorphic"][:25], cfg.rep, s))
        for s in range(min(3, cfg.seeds))
    ]

    report = {
        "command": "expressiveness",
        "seeds": cfg.seeds,
        "epsilon": DISSIMILAR_EPS,
        "averaging": "per-seed pair rate, averaged over seeds",
        "suite_sizes": {k: len(v) for k, v in suites.items()},
        "rates": rates,
        "pair_margins": margins,
        "margin": "pair distance / (epsilon * mean embedding norm); a pair is dissimilar "
        "above 1. min, max and their seeds are over all seeds (worst_seed holds the min: "
        "the near miss of a suite that must separate), median is over every pair of every seed",
        "solver_isomorphic_rate": float(np.mean(solver_iso_rates)),
        "ppgn": None,  # not implemented; column intentionally absent
        "setup_seconds": setup_seconds,
        "seconds": time.time() - t0,
    }
    rows = [
        {
            "model": model,
            **{name: round(rates[model][name], 8) for name in suites},
        }
        for model in ("gcn", "gcn2")
    ]
    return _emit(cfg, report, rows)


# ---------------------------------------------------------------------------
# lattice reduction
# ---------------------------------------------------------------------------


def _projector_rank(ec, rho, rho_prime) -> int:
    """Trace of the group-average projector, the mean of trace(Q ⊗ P) =
    trace(Q) · trace(P) over the group's dense representation matrices."""
    traces = [
        np.trace(rep_matrix(rho_prime, chi_head)) * np.trace(rep_matrix(rho, chi_tail))
        for chi_tail, chi_head in ec.group_restrictions
    ]
    return int(round(float(np.mean(traces))))


def cmd_lattice_reduction(cfg: RunConfig) -> dict:
    """Automorphism orders and kernel ranks on periodic lattice patches."""
    rho = parse_rep_spec(cfg.rep)
    rows = []
    ok = True
    for name, g in (("triangular", triangular_torus(5)), ("square+diagonals", king_torus(5))):
        center = g.nodes[2 * 5 + 2]
        nb = node_neighbourhood(g, center, K1)
        node_order = len(enumerate_group(automorphism_generators(nb.graph, marked=[center])))

        p, q = center, sorted(g.und_nbrs[center])[0]
        enb = edge_neighbourhood(g, p, q, K1)
        ec = edge_class(locate_edge(enb)[2], K1)
        edge_order = len(ec.group)
        basis = solve_basis(ec, rho, rho)
        oracle = _projector_rank(ec, rho, rho)
        rows.append(
            {
                "lattice": name,
                "node_aut_order": node_order,
                "edge_aut_order": edge_order,
                "mirror_detected": edge_order >= 2,
                "basis_rank": basis.rank,
                "projector_rank": oracle,
            }
        )
        ok = ok and basis.rank == oracle

    tri, sqd = rows[0], rows[1]
    ok = ok and tri["node_aut_order"] == 12 and sqd["node_aut_order"] == 8 and tri["mirror_detected"]
    report = {
        "command": "lattice",
        "rows": rows,
        "expected": {"triangular_node_order": 12, "square_diag_node_order": 8},
        "passed": bool(ok),
    }
    return _emit(cfg, report, rows)


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


def _warm_up(fn, seconds: float = 1.0) -> None:
    """Untimed calls until ``seconds`` of them have run, as ``timeit``'s
    autorange sizes its loop: a BLAS thread can run slow for about a second
    after the machine idles."""
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        fn()


def _time_rounds(fns, rounds: int = 3) -> list[list[float]]:
    """Seconds of ``rounds`` timed calls of each of ``fns``, one call of each
    per round, after one untimed call of each so that a fresh process's
    first-call costs stay out of the timings. A slow spell of the machine
    then falls on every function of a round, not on all calls of one."""
    for fn in fns:
        fn()
    seconds = [[] for _ in fns]
    for _ in range(rounds):
        for fn, out in zip(fns, seconds):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
    return seconds


def cmd_benchmark(cfg: RunConfig) -> dict:
    """Forward wall time of GCN and GCN² on square lattices, with slope fit."""
    rng = np.random.default_rng(cfg.seed)
    width = 32
    depth = 3
    gcn2_nets = [
        build_gcn_net(rng, 2, width, data_in=(1 if l == 0 else width), c_out=width, dtype=np.float32)
        for l in range(depth)
    ]
    gcn_net = build_plain_gcn(rng, depth, width, c_in=1, c_out=width, dtype=np.float32)

    nodes, compile_seconds, gcn2_runs, gcn_runs = [], [], [], []
    for m in cfg.sizes:
        g = square_torus(m)
        t0 = time.perf_counter()
        plan = compile_plan([g], K1)
        gcn_plan = compile_gcn_plan([g])
        compile_seconds.append(time.perf_counter() - t0)
        nodes.append(g.n)
        attrs = degree_features([g])
        x0 = node_attrs_to_buffer(plan, attrs, dtype=np.float32)
        x0_gcn = attrs[0].astype(np.float32)

        gcn2_runs.append(lambda plan=plan, x0=x0: stacked_gcn2_numpy(plan, gcn2_nets, x0))
        gcn_runs.append(lambda gcn_plan=gcn_plan, x0_gcn=x0_gcn: gcn_forward_numpy(gcn_plan, gcn_net, x0_gcn))

    _warm_up(gcn2_runs[0])
    gcn2_calls, gcn_calls = _time_rounds(gcn2_runs), _time_rounds(gcn_runs)
    rows = [
        {
            "nodes": n,
            "compile_seconds": c,
            "gcn2_seconds": min(t2),
            "gcn_seconds": min(t1),
            "ratio": min(t2) / min(t1),
            "gcn2_calls_seconds": t2,
        }
        for n, c, t2, t1 in zip(nodes, compile_seconds, gcn2_calls, gcn_calls)
    ]

    log_n = np.log([r["nodes"] for r in rows])
    log_t = np.log([r["gcn2_seconds"] for r in rows])
    slope = float(np.polyfit(log_n, log_t, 1)[0])
    report = {
        "command": "bench",
        "rows": rows,
        "loglog_slope_gcn2": slope,
        "ratio_at_largest": rows[-1]["ratio"],
    }
    _emit(cfg, report, rows)
    if cfg.out:
        _write_svg_plot(rows, Path(cfg.out) / "bench.svg")
    print(f"log-log slope (gcn2): {slope:.3f}")
    return report


_SVG_SERIES = (("gcn2_seconds", "gcn2", "#1f77b4"), ("gcn_seconds", "gcn", "#d62728"))


def _write_svg_plot(rows: list[dict], path: Path) -> None:
    """Log-log plot of forward seconds against nodes, one polyline per model.

    Plain SVG text, so it needs no plotting library. Axis ends are labelled
    with the smallest and largest node count and time.
    """
    w, h, x0, x1, y0, y1 = 480, 360, 70, 460, 310, 20  # canvas; plot box in pixels
    nodes = np.array([r["nodes"] for r in rows], dtype=float)
    secs = {key: np.array([r[key] for r in rows]) for key, _, _ in _SVG_SERIES}
    t_lo = min(t.min() for t in secs.values())
    t_hi = max(t.max() for t in secs.values())

    def scale(v, lo, hi, a, b):
        return a + np.log(v / lo) / max(np.log(hi / lo), 1e-9) * (b - a)

    ym = (y0 + y1) / 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        'font-family="sans-serif" font-size="12">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<path d="M{x0},{y1} V{y0} H{x1}" fill="none" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2}" y="{h - 10}" text-anchor="middle">nodes (log)</text>',
        f'<text x="15" y="{ym}" text-anchor="middle" transform="rotate(-90 15 {ym})">'
        "forward seconds (log)</text>",
        f'<text x="{x0}" y="{y0 + 15}">{nodes.min():g}</text>',
        f'<text x="{x1}" y="{y0 + 15}" text-anchor="end">{nodes.max():g}</text>',
        f'<text x="{x0 - 4}" y="{y0}" text-anchor="end">{t_lo:.3g}</text>',
        f'<text x="{x0 - 4}" y="{y1 + 10}" text-anchor="end">{t_hi:.3g}</text>',
    ]
    xs = scale(nodes, nodes.min(), nodes.max(), x0, x1)
    for i, (key, label, colour) in enumerate(_SVG_SERIES):
        ys = scale(secs[key], t_lo, t_hi, y0, y1)
        points = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
        style = f'fill="none" stroke="{colour}" stroke-width="2"'
        ly = y1 + 10 + 16 * i
        parts += [
            f'<polyline class="{label}" points="{points}" {style}/>',
            f'<line x1="{x0 + 10}" y1="{ly}" x2="{x0 + 30}" y2="{ly}" {style}/>',
            f'<text x="{x0 + 35}" y="{ly + 4}">{label}</text>',
        ]
    path.write_text("\n".join(parts + ["</svg>"]) + "\n")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(cfg: RunConfig) -> dict:
    """Desk-scale classifier training with ten-fold splits."""
    if not cfg.data:
        raise NgnError("--data pointing at a dataset directory is required")
    ds = load_tu(cfg.data)
    feats = initial_features(ds, "onehot-label" if ds.node_labels is not None else "degree")
    folds = ten_fold_split(ds, cfg.seed)
    if not 0 < len(folds[cfg.fold]) < len(ds.graphs):
        sizes = [len(f) for f in folds]
        raise ValidationError(f"--fold {cfg.fold} of {ds.name} leaves nothing to test or to train on (sizes {sizes})")
    test_idx = sorted(int(i) for i in folds[cfg.fold])
    train_idx = sorted(set(range(len(ds.graphs))) - set(test_idx))

    net_cfg = parse_net_config(cfg.net)
    mcfg = Gcn2Config(
        ngn_layers=cfg.layers,
        msg_layers=net_cfg["layers"],
        hidden=net_cfg["hidden"],
        classes=ds.n_classes,
        dtype=np.float32,
    )

    def batch(idx: list[int]) -> tuple:
        """The plan, input buffer and labels of the graphs ``idx``."""
        plan = compile_plan([ds.graphs[i] for i in idx], K1)
        x = node_attrs_to_buffer(plan, [feats[i] for i in idx], dtype=mcfg.dtype)
        return plan, x, np.array([ds.labels[i] for i in idx], dtype=np.intp)

    batches = make_batches(len(train_idx), cfg.batch, np.random.default_rng(cfg.seed))
    plans, inputs, labels = map(list, zip(*(batch([train_idx[i] for i in b]) for b in batches)))
    params = init_classifier_params(np.random.default_rng(cfg.seed), feats[0].shape[1], mcfg)
    result = train_classifier(
        plans, inputs, labels, params, mcfg, cfg.epochs, cfg.rate, cfg.seed, decay=cfg.decay
    )
    if result.diverged:
        report = {
            "command": "train",
            "diverged": True,
            "epochs_run": result.epochs_run,
            "last_losses": result.losses[-5:],
        }
        print("training diverged (non-finite loss); see report")
        return _emit(cfg, report, [])

    test_plan, test_x, test_y = batch(test_idx)
    test_acc = accuracy([test_plan], [test_x], [test_y], params, mcfg)

    report = {
        "command": "train",
        "dataset": ds.name,
        "fold": cfg.fold,
        "epochs": cfg.epochs,
        "rate": cfg.rate,
        "decay": cfg.decay,
        "train_accuracy": result.train_accuracy,
        "test_accuracy_ungated": test_acc,
        "losses": result.losses,
        "diverged": False,
        "reference_paper_scale": {
            "note": "full-protocol test accuracies are reference only, not gated",
            "MUTAG": "89.39 +/- 1.60",
        },
    }
    _emit(cfg, report, [{"epoch": i + 1, "loss": l} for i, l in enumerate(result.losses)])
    if cfg.out:
        ad.save_checkpoint(Path(cfg.out) / "model.ckpt", {k: v.data for k, v in params.items()})
    print(
        f"train accuracy {result.train_accuracy:.4f}  test accuracy (ungated) {test_acc:.4f}"
    )
    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``ngn`` parser. A flag that is not given is left out of the
    parsed namespace, so that it keeps its ``RunConfig`` default."""
    parser = argparse.ArgumentParser(prog="ngn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {"--data": {}, "--rep": {}, "--net": {}, "--seed": dict(type=int)}

    def command(name, summary, *shared):
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        for flag in shared:
            p.add_argument(flag, **flags[flag])
        p.add_argument("--out")
        return p

    p = command("check-naturality", "residuals of the commutation law", "--rep", "--net", "--seed")
    p.add_argument("--trials", type=int)
    p.add_argument("--corrupt", action="store_true", help="negative control: corrupt a kernel")

    p = command("expressiveness", "dissimilar-pair rates on the four suites", "--data", "--rep", "--seed")
    p.add_argument("--seeds", type=int)

    command("lattice", "lattice reduction checks", "--rep")

    p = command("bench", "forward-time scaling on square lattices", "--seed")
    p.add_argument("--sizes", type=int, nargs="+", help="torus side lengths (node counts are squares of these)")

    p = command("train", "desk-scale classifier training", "--data", "--net", "--seed")
    p.add_argument("--epochs", type=int)
    p.add_argument("--rate", type=float)
    p.add_argument("--fold", type=int)
    p.add_argument("--layers", type=int, help="NGN layer count")
    p.add_argument("--decay", type=float, help="per-epoch step-size decay")
    p.add_argument("--batch", type=int, help="minibatch size")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**vars(args))


COMMANDS = {
    "check-naturality": cmd_check_naturality,
    "expressiveness": cmd_expressiveness,
    "lattice": cmd_lattice_reduction,
    "bench": cmd_benchmark,
    "train": cmd_train,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        report = COMMANDS[cfg.command](cfg)
    except NgnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report.get("passed") is False or report.get("diverged") is True:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
