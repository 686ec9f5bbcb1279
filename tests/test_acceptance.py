"""Acceptance gates for the whole artifact.

Each criterion is one test that prints a PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them inline) and asserts its
stated tolerance. The training gate runs on the benchmark dataset when a
directory is supplied via ``NGN_DATA_DIR`` and falls back to a deterministic
synthetic corpus written and re-read through the same text-format pipeline.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from ngn.batched import compile_plan, node_attrs_to_buffer
from ngn.cli import (
    RunConfig,
    cmd_benchmark,
    cmd_expressiveness,
    cmd_lattice_reduction,
    cmd_train,
)
from ngn.graph_core import from_undirected
from ngn.kernel_solver import SharedKernel, classify_edges, eq4_residual, solve_basis
from ngn.message_net import build_gcn_net, gcn2_message, ngn_gcn2_forward
from ngn.models import Gcn2Config, classifier_logits, init_classifier_params
from ngn.neighbourhoods import NeighbourhoodAssignment
from ngn.ngn_layer import NgnLayer, check_naturality
from ngn.representations import GlobalFeature, RepSpec, lift_global, random_feature
from ngn import autodiff as ad

from helpers import (
    edge_iso_with_restrictions,
    finite_difference_grads,
    group_average_projector,
    make_synthetic_tu,
    projector_rank,
)

K1 = NeighbourhoodAssignment(1)
MUTAG_DIR = Path(os.environ.get("NGN_DATA_DIR", "tests/data")) / "MUTAG"


def _gate(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {criterion}] {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _random_graph(rng: np.random.Generator, n_max: int = 20):
    n = int(rng.integers(6, n_max + 1))
    p = 3.5 / (n - 1)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_undirected(range(n), pairs)


def _random_relabel(rng: np.random.Generator, g):
    from ngn.graph_core import GraphIso

    new_ids = [int(x) for x in rng.permutation(g.n)]
    mapping = dict(zip(g.nodes, new_ids))
    return GraphIso.build(g, g.relabel(mapping), mapping)


def test_criterion_1_solver_naturality():
    rng = np.random.default_rng(101)
    layer = NgnLayer(RepSpec.standard(1), RepSpec.standard(1), K1, seed=0)
    worst = 0.0
    t0 = time.time()
    for _ in range(200):
        g = _random_graph(rng)
        phi = _random_relabel(rng, g)
        v = random_feature(rng, layer.rho, g, K1)
        worst = max(worst, check_naturality(layer, g, phi, v))
    elapsed = time.time() - t0
    _gate(
        1,
        worst < 1e-10 and elapsed < 60.0,
        f"solver naturality over 200 triples: max residual {worst:.3e} "
        f"(tol 1e-10), {elapsed:.1f}s (cap 60s)",
    )


def test_criterion_2_kernel_constraint_and_rank():
    rng = np.random.default_rng(202)
    t0 = time.time()
    corpus = []
    # random graphs plus symmetric fixtures so several classes carry
    # nontrivial automorphism groups
    for _ in range(10):
        corpus.append(_random_graph(rng, n_max=9))
    corpus.append(from_undirected(range(4), [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]))
    corpus.append(from_undirected(range(6), [(i, (i + 1) % 6) for i in range(6)]))
    corpus.append(from_undirected(range(5), [(0, i) for i in range(1, 5)]))
    classes = [ec for ec in classify_edges(corpus, K1) if len(ec.group) <= 48]
    assert len(classes) >= 20, f"only {len(classes)} classes generated"
    nontrivial = sum(1 for ec in classes if len(ec.group) > 1)
    worst_residual = 0.0
    rank_matches = True
    spec = RepSpec.standard(1)
    for ec in classes:
        basis = solve_basis(ec, spec, spec)
        shared = SharedKernel.random(basis, rng)
        worst_residual = max(worst_residual, eq4_residual(shared))
        oracle = projector_rank(group_average_projector(ec, spec, spec))
        rank_matches = rank_matches and basis.rank == oracle
    elapsed = time.time() - t0
    _gate(
        2,
        worst_residual < 1e-10 and rank_matches and elapsed < 120.0 and nontrivial >= 5,
        f"{len(classes)} classes ({nontrivial} with nontrivial groups): "
        f"max constraint residual {worst_residual:.3e} (tol 1e-10), "
        f"ranks match projector: {rank_matches}, {elapsed:.1f}s (cap 120s)",
    )


def test_criterion_3_message_network_naturality():
    rng = np.random.default_rng(303)
    worst_edge = 0.0
    checked = 0
    while checked < 60:
        g = _random_graph(rng, n_max=12)
        if not g.edges:
            continue
        edges = sorted(g.edges)
        p, q = edges[int(rng.integers(len(edges)))]
        nb, target_nb, _, psi_tail, psi_head = edge_iso_with_restrictions(rng, g, p, q)
        c = 2
        net = build_gcn_net(rng, 2, 8, data_in=c, c_out=3)
        v_p = rng.standard_normal((psi_tail.source.n, c))
        from ngn.representations import rep_matrix

        p_mat = rep_matrix(RepSpec.standard(1), psi_tail)
        q_mat = rep_matrix(RepSpec.standard(1), psi_head)
        lhs = q_mat @ gcn2_message(net, v_p, nb, K1)
        rhs = gcn2_message(net, p_mat @ v_p, target_nb, K1)
        worst_edge = max(worst_edge, float(np.max(np.abs(lhs - rhs))))
        checked += 1

    worst_global = 0.0
    for _ in range(200):
        g = _random_graph(rng)
        phi = _random_relabel(rng, g)
        net = build_gcn_net(rng, 2, 6, data_in=1, c_out=2)
        v = GlobalFeature(
            {
                p: rng.standard_normal(
                    len(_ball_nodes(g, p))
                )
                for p in g.nodes
            }
        )
        lhs = lift_global(phi, ngn_gcn2_forward(net, g, v, K1), RepSpec.standard(2), K1)
        rhs = ngn_gcn2_forward(net, phi.target, lift_global(phi, v, RepSpec.standard(1), K1), K1)
        worst_global = max(worst_global, lhs.max_abs_diff(rhs))

    _gate(
        3,
        worst_edge < 1e-12 and worst_global < 1e-10,
        f"per-edge message naturality over 60 relabelings: {worst_edge:.3e} (tol 1e-12); "
        f"full layer over 200 triples: {worst_global:.3e} (tol 1e-10)",
    )


def _ball_nodes(g, p):
    from ngn.neighbourhoods import node_neighbourhood

    return node_neighbourhood(g, p, K1).graph.nodes


def test_criterion_4_expressiveness():
    t0 = time.time()
    cfg = RunConfig(command="expressiveness", seeds=100, seed=0)
    report = cmd_expressiveness(cfg)
    elapsed = time.time() - t0
    rates = report["rates"]
    ok = (
        rates["gcn"]["strongly_regular"] == 0.0
        and rates["gcn2"]["strongly_regular"] >= 0.99
        and rates["gcn"]["isomorphic"] <= 1e-3
        and rates["gcn2"]["isomorphic"] <= 1e-3
        and rates["gcn"]["regular"] <= 0.01
        and rates["gcn2"]["regular"] >= 0.99
        and elapsed < 1800.0
    )
    _gate(
        4,
        ok,
        "dissimilar-pair rates over 100 seeds: "
        f"gcn strongly_regular={rates['gcn']['strongly_regular']} (need 0), "
        f"gcn2 strongly_regular={rates['gcn2']['strongly_regular']:.4f} (need >=0.99), "
        f"gcn regular={rates['gcn']['regular']:.4f} (need <=0.01), "
        f"gcn2 regular={rates['gcn2']['regular']:.4f} (need >=0.99), "
        f"isomorphic gcn={rates['gcn']['isomorphic']:.2e} gcn2={rates['gcn2']['isomorphic']:.2e} "
        f"(need <=1e-3); {elapsed:.0f}s (cap 1800s)",
    )


def test_criterion_5_lattice_reduction():
    report = cmd_lattice_reduction(RunConfig(command="lattice"))
    by_name = {r["lattice"]: r for r in report["rows"]}
    tri, sqd = by_name["triangular"], by_name["square+diagonals"]
    ok = (
        tri["node_aut_order"] == 12
        and sqd["node_aut_order"] == 8
        and tri["mirror_detected"]
        and all(r["basis_rank"] == r["projector_rank"] for r in report["rows"])
    )
    _gate(
        5,
        ok,
        f"triangular node group order {tri['node_aut_order']} (need 12), "
        f"square+diagonals {sqd['node_aut_order']} (need 8), "
        f"mirror detected {tri['mirror_detected']}, "
        f"ranks {[(r['basis_rank'], r['projector_rank']) for r in report['rows']]}",
    )


def test_criterion_6_runtime_scaling():
    report = cmd_benchmark(RunConfig(command="bench", sizes=[32, 64, 128, 256]))
    slope = report["loglog_slope_gcn2"]
    doubling = 2.0**slope
    _gate(
        6,
        abs(slope - 1.0) <= 0.15 and 1.6 <= doubling <= 2.6,
        f"log-log slope {slope:.3f} over 1k-64k nodes (need 1.0 +/- 0.15); "
        f"implied doubling factor {doubling:.2f} (need within [1.6, 2.6])",
    )


def test_criterion_7_gradient_integrity():
    rng = np.random.default_rng(707)
    worst = 0.0
    for trial in range(5):
        g = _random_graph(rng, n_max=8)
        plan = compile_plan([g], K1)
        cfg = Gcn2Config(ngn_layers=2, msg_layers=2, hidden=4, classes=2, dtype=np.float64)
        params = init_classifier_params(np.random.default_rng(trial), 1, cfg)
        x0 = node_attrs_to_buffer(plan, [rng.standard_normal((g.n, 1))])
        label = np.array([trial % 2])

        def loss():
            return ad.softmax_cross_entropy(classifier_logits(plan, params, x0, cfg), label)

        analytic = ad.grads_of(loss(), params)
        numeric = finite_difference_grads(lambda: loss().data, params)
        for name in params:
            scale = max(1e-8, float(np.max(np.abs(numeric[name]))))
            worst = max(worst, float(np.max(np.abs(analytic[name] - numeric[name]))) / scale)
    _gate(
        7,
        worst < 1e-5,
        f"full classification loss gradients vs central differences over 5 graphs: "
        f"worst relative error {worst:.3e} (tol 1e-5)",
    )


def test_criterion_8_training_gate(tmp_path):
    if MUTAG_DIR.exists():
        data_dir = MUTAG_DIR
        source = "MUTAG"
    else:
        data_dir = make_synthetic_tu(tmp_path, n_graphs=120, seed=3)
        source = "synthetic stand-in (benchmark data not present in this environment)"

    def run():
        cfg = RunConfig(
            command="train",
            data=str(data_dir),
            epochs=100,
            rate=5e-4,
            decay=0.9,
            batch=16,
            net="gcn2(layers=2, hidden=16)",
            layers=3,
            seed=0,
        )
        return cmd_train(cfg)

    first = run()
    second = run()
    losses = first["losses"]
    medians = [float(np.median(losses[i : i + 10])) for i in range(0, len(losses), 10)]
    monotone = all(a > b for a, b in zip(medians, medians[1:]))
    ok = (
        first["diverged"] is False
        and first["train_accuracy"] > 0.95
        and monotone
        and first["losses"] == second["losses"]
    )
    _gate(
        8,
        ok,
        f"training on {source}: train accuracy {first['train_accuracy']:.4f} (need >0.95), "
        f"10-epoch median losses strictly decreasing: {monotone}, "
        f"deterministic re-run identical: {first['losses'] == second['losses']}; "
        f"paper-scale reference (ungated): MUTAG 89.39 +/- 1.60",
    )
