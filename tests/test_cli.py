import argparse
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from ngn import cli
from ngn.cli import (
    RunConfig,
    _projector_rank,
    build_parser,
    cmd_benchmark,
    cmd_check_naturality,
    cmd_expressiveness,
    cmd_lattice_reduction,
    cmd_train,
    config_from_args,
    main,
)
from ngn.batched import compile_gcn_plan, compile_plan
from ngn.datasets import GraphDataset, degree_features, synth_suites, write_graph6, write_tu
from ngn.graph_core import from_undirected
from ngn.kernel_solver import edge_class, locate_edge
from ngn.lattices import king_torus, triangular_torus
from ngn.models import EmbeddingConfig, dissimilar_pair_rate, gcn2_embeddings, gcn_embeddings
from ngn.neighbourhoods import NeighbourhoodAssignment, edge_neighbourhood
from ngn.representations import parse_rep_spec
from ngn.srg import builtin_srg_25

from helpers import group_average_projector, make_synthetic_tu, projector_rank

K1 = NeighbourhoodAssignment(1)


class TestArgs:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lattice", "--bogus", "1"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["make-coffee"])

    def test_each_command_takes_only_the_flags_it_reads(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert flags == {
            "check-naturality": {"--rep", "--net", "--seed", "--out", "--trials", "--corrupt"},
            "expressiveness": {"--data", "--rep", "--seed", "--out", "--seeds"},
            "lattice": {"--rep", "--out"},
            "bench": {"--seed", "--out", "--sizes"},
            "train": {
                "--data", "--net", "--seed", "--out", "--epochs", "--rate", "--fold",
                "--layers", "--decay", "--batch",
            },
        }

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["check-naturality"], RunConfig("check-naturality")),
            (
                ["check-naturality", "--rep", "trivial*2", "--net", "gcn2(layers=1, hidden=4)", "--seed", "5",
                 "--out", "o", "--trials", "3", "--corrupt"],
                RunConfig("check-naturality", rep="trivial*2", net="gcn2(layers=1, hidden=4)", seed=5, out="o",
                          trials=3, corrupt=True),
            ),
            (["expressiveness"], RunConfig("expressiveness")),
            (
                ["expressiveness", "--data", "s.g6", "--rep", "standard*2", "--seed", "1", "--seeds", "4"],
                RunConfig("expressiveness", data="s.g6", rep="standard*2", seed=1, seeds=4),
            ),
            (["lattice"], RunConfig("lattice")),
            (["lattice", "--rep", "standard*2", "--out", "o"], RunConfig("lattice", rep="standard*2", out="o")),
            (["bench"], RunConfig("bench")),
            (["bench", "--seed", "2", "--sizes", "5", "6"], RunConfig("bench", seed=2, sizes=[5, 6])),
            (["train"], RunConfig("train")),
            (
                ["train", "--data", "d", "--net", "gcn2(layers=3, hidden=8)", "--epochs", "2", "--rate", "0.5",
                 "--fold", "3", "--layers", "1", "--decay", "0.5", "--batch", "4"],
                RunConfig("train", data="d", net="gcn2(layers=3, hidden=8)", epochs=2, rate=0.5, fold=3, layers=1,
                          decay=0.5, batch=4),
            ),
        ],
    )
    def test_flags_not_given_keep_the_run_config_defaults(self, argv, expected):
        assert config_from_args(build_parser().parse_args(argv)) == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-naturality", "--trials", "0"],
            ["check-naturality", "--trials", "-3"],
            ["check-naturality", "--seed", "-1"],
            ["expressiveness", "--seeds", "0"],
            ["train", "--batch", "0"],
            ["train", "--epochs", "0"],
            ["train", "--fold", "12"],
            ["train", "--layers", "0"],
            ["train", "--rate", "nan"],
            ["train", "--decay", "-0.5"],
            ["bench", "--sizes", "5"],
            ["bench", "--sizes", "6", "6"],
        ],
    )
    def test_a_bad_count_exits_2_naming_its_flag(self, argv, capsys):
        # each would run, or fail elsewhere, without the check: naturality
        # over no trials passes, one bench size fits a slope to one point
        assert main(argv) == 2
        assert argv[1] in capsys.readouterr().err

    def test_config_round_trip(self):
        args = build_parser().parse_args(
            ["train", "--data", "x", "--rate", "0.01", "--epochs", "7", "--seed", "3"]
        )
        cfg = config_from_args(args)
        assert cfg.command == "train"
        assert (cfg.data, cfg.rate, cfg.epochs, cfg.seed) == ("x", 0.01, 7, 3)


class TestNaturalityCommand:
    def test_small_run_passes_and_writes_reports(self, tmp_path):
        cfg = RunConfig(command="check-naturality", trials=5, seed=2, out=str(tmp_path))
        report = cmd_check_naturality(cfg)
        assert report["passed"] is True
        assert report["max_residual_solver"] < 1e-10
        assert report["max_residual_gcn2"] < 1e-12
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["trials"] == 5
        assert (tmp_path / "report.csv").read_text().startswith("layer")

    def test_corrupted_kernel_fails(self):
        cfg = RunConfig(command="check-naturality", trials=2, seed=2, corrupt=True)
        report = cmd_check_naturality(cfg)
        assert report["passed"] is False
        assert main(["check-naturality", "--trials", "2", "--corrupt"]) == 1

    def test_identity_relabelings_exact_zero(self):
        # degenerate check via the library: identity relabeling residual is 0
        from ngn.graph_core import GraphIso, from_undirected
        from ngn.neighbourhoods import NeighbourhoodAssignment
        from ngn.ngn_layer import NgnLayer, check_naturality
        from ngn.representations import RepSpec, random_feature

        g = from_undirected(range(5), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        layer = NgnLayer(RepSpec.standard(1), RepSpec.standard(1), NeighbourhoodAssignment(1))
        v = random_feature(np.random.default_rng(0), layer.rho, g, NeighbourhoodAssignment(1))
        assert check_naturality(layer, g, GraphIso.identity(g), v) == 0.0


class TestLatticeCommand:
    def test_orders_and_ranks(self, tmp_path):
        cfg = RunConfig(command="lattice", out=str(tmp_path))
        report = cmd_lattice_reduction(cfg)
        assert report["passed"] is True
        by_name = {r["lattice"]: r for r in report["rows"]}
        assert by_name["triangular"]["node_aut_order"] == 12
        assert by_name["square+diagonals"]["node_aut_order"] == 8
        assert by_name["triangular"]["mirror_detected"] is True
        for r in report["rows"]:
            assert r["basis_rank"] == r["projector_rank"]

    @pytest.mark.parametrize("rep", ["standard*1", "trivial*3+standard*2", "trivial*2", "standard*2+trivial*1"])
    def test_projector_ranks_equal_the_group_average_projector(self, rep, tmp_path):
        rho, other = parse_rep_spec(rep), parse_rep_spec("trivial*1+standard*3")
        report = cmd_lattice_reduction(RunConfig(command="lattice", rep=rep, out=str(tmp_path)))
        for row, g in zip(report["rows"], (triangular_torus(5), king_torus(5))):
            center = g.nodes[12]
            ec = edge_class(locate_edge(edge_neighbourhood(g, center, sorted(g.und_nbrs[center])[0], K1))[2], K1)
            assert row["projector_rank"] == projector_rank(group_average_projector(ec, rho, rho))
            # and from one rep to another, which the command does not run
            assert _projector_rank(ec, rho, other) == projector_rank(group_average_projector(ec, rho, other))
        assert report["passed"] is True


@pytest.fixture(scope="module")
def expressiveness_run(tmp_path_factory):
    """One two-seed ``expressiveness`` run, its report and its output directory."""
    out = tmp_path_factory.mktemp("expr")
    return cmd_expressiveness(RunConfig(command="expressiveness", seeds=2, seed=0, out=str(out))), out


class TestExpressivenessCommand:
    def test_small_seed_run(self, expressiveness_run):
        report, out = expressiveness_run
        rates = report["rates"]
        assert rates["gcn"]["strongly_regular"] == 0.0
        assert rates["gcn"]["isomorphic"] <= 1e-3
        assert rates["gcn2"]["isomorphic"] <= 1e-3
        assert rates["gcn2"]["strongly_regular"] >= 0.99
        assert report["solver_isomorphic_rate"] <= 1e-3
        assert report["ppgn"] is None
        assert (out / "report.csv").exists()

    def test_report_carries_pair_margins(self, expressiveness_run):
        report, out = expressiveness_run
        assert json.loads((out / "report.json").read_text())["pair_margins"] == report["pair_margins"]
        for model, by_suite in report["pair_margins"].items():
            assert set(by_suite) == set(report["suite_sizes"])
            for suite, m in by_suite.items():
                assert 0.0 <= m["min"] <= m["median"] <= m["max"]
                assert m["worst_seed"] in (0, 1) and m["max_seed"] in (0, 1)
                rate = report["rates"][model][suite]
                # a margin above 1 is a dissimilar pair
                assert (rate == 1.0) == (m["min"] > 1.0)
                assert (rate == 0.0) == (m["max"] <= 1.0)

    def test_report_carries_setup_seconds_and_the_same_rates(self, expressiveness_run):
        report, out = expressiveness_run
        setup = report["setup_seconds"]
        assert set(setup) == {"suites", "plans"} and all(v > 0 for v in setup.values())
        assert json.loads((out / "report.json").read_text())["setup_seconds"] == setup
        # the rates of a run without the timers: the library calls alone
        emb_cfg = EmbeddingConfig()
        for name, graphs in synth_suites(0).items():
            plan, gcn_plan = compile_plan(graphs, NeighbourhoodAssignment(1)), compile_gcn_plan(graphs)
            attrs = degree_features(graphs)
            for model, embed in (("gcn2", gcn2_embeddings), ("gcn", gcn_embeddings)):
                p = plan if model == "gcn2" else gcn_plan
                rates = [dissimilar_pair_rate(embed(p, attrs, s, emb_cfg)) for s in range(2)]
                assert report["rates"][model][name] == float(np.mean(rates)), (model, name)

    def test_graph6_file_of_graphs_without_nodes(self, tmp_path, monkeypatch):
        path = tmp_path / "empty.g6"
        path.write_text("?\n?\n")
        # the other suites only cost time here: keep three graphs of each
        suites = cli.synth_suites
        monkeypatch.setattr(cli, "synth_suites", lambda seed, srg_graphs: {
            name: graphs if name == "strongly_regular" else graphs[:3]
            for name, graphs in suites(seed, srg_graphs=srg_graphs).items()
        })
        assert main(["expressiveness", "--seeds", "1", "--data", str(path), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["suite_sizes"]["strongly_regular"] == 2

    def test_user_supplied_srg_file(self, tmp_path):
        path = tmp_path / "srg.g6"
        write_graph6(builtin_srg_25()[:2], path)
        cfg = RunConfig(command="expressiveness", seeds=1, data=str(path))
        report = cmd_expressiveness(cfg)
        assert report["suite_sizes"]["strongly_regular"] == 2


class TestBenchCommand:
    def test_smoke_and_plot(self, tmp_path):
        cfg = RunConfig(command="bench", sizes=[6, 9], out=str(tmp_path))
        report = cmd_benchmark(cfg)
        assert [r["nodes"] for r in report["rows"]] == [36, 81]
        assert all(r["gcn2_seconds"] > 0 for r in report["rows"])
        # each size's compile time and its three timed calls; the slope is
        # fitted to the best of the three
        for r in report["rows"]:
            assert r["compile_seconds"] > 0
            assert len(r["gcn2_calls_seconds"]) == 3 and r["gcn2_seconds"] == min(r["gcn2_calls_seconds"])
        best = [min(r["gcn2_calls_seconds"]) for r in report["rows"]]
        slope = np.polyfit(np.log([36, 81]), np.log(best), 1)[0]
        assert report["loglog_slope_gcn2"] == float(slope)
        assert json.loads((tmp_path / "report.json").read_text())["rows"] == report["rows"]
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "bench.svg").exists()
        # the plot is real: one polyline per model, one point per size
        root = ET.parse(tmp_path / "bench.svg").getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        polylines = list(root.iter("{http://www.w3.org/2000/svg}polyline"))
        assert sorted(p.get("class") for p in polylines) == ["gcn", "gcn2"]
        assert all(len(p.get("points").split()) == 2 for p in polylines)

    @pytest.mark.xfail(
        reason="the ~2x forward-cost ratio is a GPU latency-bound measurement; "
        "on CPU the method's arithmetic ratio (ball size x message depth) applies",
        strict=False,
    )
    def test_cost_ratio_band(self):
        cfg = RunConfig(command="bench", sizes=[16, 32])
        report = cmd_benchmark(cfg)
        assert 1.2 <= report["ratio_at_largest"] <= 4.0


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    return make_synthetic_tu(tmp_path_factory.mktemp("ds"), n_graphs=40, seed=5)


class TestTrainCommand:

    def test_trains_and_writes_artifacts(self, data_dir, tmp_path):
        cfg = RunConfig(
            command="train",
            data=str(data_dir),
            epochs=12,
            rate=5e-4,
            net="gcn2(layers=2, hidden=8)",
            layers=2,
            seed=0,
            out=str(tmp_path),
        )
        report = cmd_train(cfg)
        assert report["diverged"] is False
        assert len(report["losses"]) == 12
        assert report["losses"][1] < report["losses"][0] * 1.5
        assert (tmp_path / "model.ckpt").exists()
        from ngn.autodiff import load_checkpoint

        ckpt = load_checkpoint(tmp_path / "model.ckpt")
        assert any(k.startswith("ngn0/") for k in ckpt)
        assert "reference_paper_scale" in report

    def test_deterministic_per_seed(self, data_dir):
        runs = []
        for _ in range(2):
            cfg = RunConfig(
                command="train",
                data=str(data_dir),
                epochs=6,
                rate=5e-4,
                net="gcn2(layers=2, hidden=8)",
                layers=2,
                seed=11,
            )
            runs.append(cmd_train(cfg)["losses"])
        assert runs[0] == runs[1]

    def test_missing_data_is_an_error(self):
        assert main(["train"]) == 2

    @pytest.mark.parametrize(
        "labels, fold",
        [
            ([0] * 3 + [1] * 7, 7),  # fold sizes [2, 2, 2, 1, 1, 1, 1, 0, 0, 0]: nothing to test on
            (list(range(10)), 0),  # one graph per class, all in fold 0: nothing to train on
        ],
    )
    def test_a_fold_without_test_or_train_graphs_is_rejected_before_any_plan(
        self, labels, fold, tmp_path, monkeypatch, capsys
    ):
        graphs = [from_undirected(range(3), [(0, 1), (1, 2)]) for _ in labels]
        write_tu(GraphDataset("FOLDS", graphs, np.array(labels), max(labels) + 1), tmp_path)
        monkeypatch.setattr("ngn.cli.compile_plan", lambda *a: pytest.fail("a plan was compiled"))
        with pytest.warns(UserWarning, match="stratification"):
            assert main(["train", "--data", str(tmp_path), "--fold", str(fold), "--out", str(tmp_path / "out")]) == 2
        assert f"--fold {fold} of FOLDS leaves nothing to test or to train on" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_loss_decreases_in_first_epoch_at_paper_rate(self, data_dir):
        cfg = RunConfig(
            command="train",
            data=str(data_dir),
            epochs=2,
            rate=1e-3,
            net="gcn2(layers=2, hidden=8)",
            layers=2,
            seed=4,
        )
        report = cmd_train(cfg)
        assert report["losses"][1] < report["losses"][0]


@pytest.mark.parametrize(
    "argv",
    [
        ["check-naturality", "--trials", "1"],
        ["expressiveness", "--seeds", "1"],
        ["lattice"],
        ["bench", "--sizes", "5", "6"],
        ["train", "--epochs", "1", "--batch", "8"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_command_writes_its_report_and_prints_its_table(argv, data_dir, tmp_path, capsys):
    if argv[0] == "train":
        argv = argv + ["--data", str(data_dir)]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    json.loads((tmp_path / "report.json").read_text())
    header = (tmp_path / "report.csv").read_text().splitlines()[0]
    assert capsys.readouterr().out.splitlines()[0].split() == header.split(",")
