"""Tests of the traced run and of the benchmark's command line.

    PYTHONPATH=src python3 -m pytest -q perfbench/check_trace.py

The file name keeps these tests out of the repository's default test
collection: they set up every workload twice (about 70 s on two cores).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from ngn import graph_core, kernel_solver, ngn_layer  # noqa: E402
from ngn.representations import parse_rep_spec, random_feature  # noqa: E402
from run import _same  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import K1, WORKLOADS, _random_test_graph  # noqa: E402

import numpy as np  # noqa: E402

# The workloads on which each per-layer metric must record work.
ON = {
    "datasets.synth_suites.s": {"expressiveness"},
    "datasets.load_tu.s": {"train"},
    "lattices.square_torus.s": {"lattice"},
    "batched.compile_plan.s": {"expressiveness", "lattice", "train"},
    "batched.compile_plan.calls": {"expressiveness", "lattice", "train"},
    "batched.compile_plan.edge_rows": {"expressiveness", "lattice", "train"},
    "batched.node_attrs_to_buffer.s": {"expressiveness", "lattice", "train"},
    "batched.gcn2_layer_numpy.s": {"expressiveness", "lattice"},
    "batched.gcn2_layer_numpy.gflop_per_s": {"expressiveness", "lattice"},
    "models.gcn2_embeddings.self_s": {"expressiveness"},
    "models.gcn_embeddings.s": {"expressiveness"},
    "batched.compile_gcn_plan.s": {"expressiveness", "lattice"},
    "batched.gcn_forward_numpy.s": {"expressiveness", "lattice"},
    "models.classifier_logits.s": {"train"},
    "batched.gcn2_layer_tensor.s": {"train"},
    "autodiff.gather_rows.s": {"train"},
    "autodiff.scatter_add_rows.s": {"train"},
    "autodiff.sparse_mix.s": {"train"},
    "autodiff.segment_mean.s": {"train"},
    "autodiff.grads_of.s": {"train"},
    "autodiff.adam_step.s": {"train"},
    "models.classifier_logits_numpy.s": {"train"},
    "ngn_layer.NgnLayer.forward.s": {"solver"},
    "kernel_solver.locate_edge.s": {"solver"},
    "graph_core.automorphism_generators.s": {"solver"},
    "kernel_solver.solve_basis.s": {"solver"},
    "kernel_solver.solve_basis.calls": {"solver"},
    "kernel_solver.SharedKernel.realize_from_transport.s": {"solver"},
    "ngn_layer.class_hit_ratio": {"solver"},
    "representations.lift_global.s": {"solver"},
}

_RUNS: dict[str, tuple] = {}


def traced_run(name: str, tmp_dir: Path):
    """One set-up and one unit untraced, then the same traced."""
    if name not in _RUNS:
        workload = WORKLOADS[name](1, tmp_dir)
        try:
            state = workload.setup()
            plain = workload.unit(state, 0)
            with Tracer() as tracer:
                tracer.phase = "setup"
                traced_state = workload.setup()
                tracer.phase = "steady"
                traced = workload.unit(traced_state, 0)
                tracer.phase = None
            _RUNS[name] = (plain, traced, tracer.metrics(n_setups=1, n_units=1))
        finally:
            workload.close()
    return _RUNS[name]


def test_benchmark_json_lists_the_tracer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert names == set(ON)
    with Tracer() as tracer:
        assert set(tracer.metrics(1, 1)) == names


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_records_work_on_its_workloads(name, tmp_path):
    _, _, metrics = traced_run(name, tmp_path)
    for metric, workloads in ON.items():
        if name in workloads:
            assert metrics[metric][0] > 0, metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_outputs_are_bit_identical(name, tmp_path):
    plain, traced, _ = traced_run(name, tmp_path)
    assert _same(plain.output, traced.output)
    assert all(ok for _, ok in plain.checks + traced.checks)


def _solver_forward():
    """One forward of a fresh solver layer on a small graph."""
    rng = np.random.default_rng(0)
    g = _random_test_graph(rng, 8)
    rho = parse_rep_spec("standard*1")
    layer = ngn_layer.NgnLayer(rho=rho, rho_prime=rho, assignment=K1)
    layer.forward(g, random_feature(rng, rho, g, K1))


def test_wrapper_in_the_defining_module_records_nothing(monkeypatch):
    """ngn_layer calls locate_edge and solve_basis under its own names, and
    kernel_solver calls automorphism_generators under its own name."""
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(kernel_solver, "locate_edge", counting(kernel_solver.locate_edge))
    monkeypatch.setattr(kernel_solver, "solve_basis", counting(kernel_solver.solve_basis))
    monkeypatch.setattr(graph_core, "automorphism_generators", counting(graph_core.automorphism_generators))
    _solver_forward()
    assert calls == []
    monkeypatch.undo()

    with Tracer() as tracer:
        tracer.phase = "steady"
        _solver_forward()
        tracer.phase = None
    metrics = tracer.metrics(0, 1)
    for metric in ("kernel_solver.locate_edge.s", "kernel_solver.solve_basis.s", "graph_core.automorphism_generators.s"):
        assert metrics[metric][0] > 0, metric


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(kernel_solver, "solve_basis")
    with Tracer() as tracer:
        tracer.phase = "steady"
        _solver_forward()  # ngn_layer still holds solve_basis under its own name
        tracer.phase = None
    metrics = tracer.metrics(0, 1)
    for metric in ("kernel_solver.solve_basis.s", "kernel_solver.solve_basis.calls", "ngn_layer.class_hit_ratio"):
        assert metric not in metrics
    assert metrics["kernel_solver.locate_edge.s"][0] > 0


def test_uninstall_restores_every_name():
    before = {name: getattr(ngn_layer, name) for name in ("locate_edge", "solve_basis", "lift_global")}
    forward = ngn_layer.NgnLayer.forward
    with Tracer():
        assert ngn_layer.locate_edge is not before["locate_edge"]
        assert ngn_layer.NgnLayer.forward is not forward
    assert {name: getattr(ngn_layer, name) for name in before} == before
    assert ngn_layer.NgnLayer.forward is forward


def _run(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def test_result_line_and_results_file(tmp_path):
    proc = _run(["perfbench/run.py", "--workload", "train", "--seed", "2", "--seconds", "0",
                 "--trace", "0", "--results", str(tmp_path)], ROOT)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    (path,) = tmp_path.glob("train-*.json")
    manifest = json.loads(path.read_text())["manifest"]
    for key in ("git_sha", "python", "numpy", "scipy", "nproc", "blas", "seed"):
        assert key in manifest


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["perfbench/run.py", "--workload", "train", "--seed", "0", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
