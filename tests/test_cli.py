import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mrflp as M
import mrflp.cli
import mrflp.experiments
from mrflp.cli import main

import oracles


def run(args):
    return main([str(a) for a in args])


class _Captured(Exception):
    pass


def _capture_config(seen):
    """A solver stand-in that records the config it is given, then stops the run."""
    def capture(model, *args):
        seen.append(next(a for a in args if isinstance(a, M.SolverConfig)))
        raise _Captured
    return capture


class TestGenerate:
    def test_grid_is_deterministic(self, tmp_path):
        a = tmp_path / "a.uai"
        b = tmp_path / "b.uai"
        assert run(["generate", "grid", "--rows", 3, "--cols", 3, "--labels", 3,
                    "--seed", 7, "--out", a]) == 0
        assert run(["generate", "grid", "--rows", 3, "--cols", 3, "--labels", 3,
                    "--seed", 7, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_lp_tight_sidecars(self, tmp_path):
        out = tmp_path / "m.uai"
        assert run(["generate", "lp-tight", "--rows", 2, "--cols", 3, "--labels", 2,
                    "--margin", 25, "--infinity", "1e5", "--forbidden-fraction", 0.3,
                    "--seed", 3, "--out", out]) == 0
        meta = M.read_summary(tmp_path / "m.meta.json")
        assert meta == {"schema_version": 1, "infinity_value": 1e5, "margin": 25.0, "forbidden_fraction": 0.3,
                        "seed": 3, "rows": 2, "cols": 3, "labels": 2}
        # the summary writer's bytes: sorted keys, indent 2, a trailing newline
        assert (tmp_path / "m.meta.json").read_text() == json.dumps(meta, indent=2, sort_keys=True) + "\n"
        labels = M.read_labeling(tmp_path / "m.labels.txt")
        model = M.read_uai(out)
        best, best_x = oracles.exhaustive_map(model)
        np.testing.assert_array_equal(labels, best_x)

    def test_lp_tight_single_node(self, tmp_path):
        # one node has no edges: the pairwise tables are empty
        out = tmp_path / "one.uai"
        assert run(["generate", "lp-tight", "--rows", 1, "--cols", 1, "--labels", 2,
                    "--margin", 25, "--infinity", 100, "--forbidden-fraction", 0.5, "--out", out]) == 0
        model = M.read_uai(out)
        assert (model.n_nodes, model.n_edges) == (1, 0)
        np.testing.assert_array_equal(M.read_labeling(tmp_path / "one.labels.txt"),
                                      [oracles.exhaustive_map(model)[1][0]])

    def test_usage_error_exit_code(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as e:
            run(["generate", "grid", "--rows", 2])
        assert e.value.code == 2


class TestSolve:
    def test_tree_instance_certifies_optimum(self, tmp_path):
        model = tmp_path / "chain.uai"
        run(["generate", "grid", "--rows", 1, "--cols", 8, "--labels", 3,
             "--seed", 5, "--out", model])
        out = tmp_path / "run"
        assert run(["solve", "--model", model, "--solver", "fpd", "--max-iters", 30000,
                    "--epoch", 200, "--tol", "1e-7", "--out-dir", out]) == 0
        summary = M.read_summary(out / "summary.json")
        assert summary["relative_gap"] <= 1e-6
        best, _ = oracles.exhaustive_map(M.read_uai(model))
        assert abs(summary["dual_bound"] - best) <= 1e-5

    def test_csv_row_count_contract(self, tmp_path):
        model = tmp_path / "g.uai"
        run(["generate", "grid", "--rows", 4, "--cols", 4, "--labels", 3,
             "--law", "uniform_sym", "--seed", 2, "--out", model])
        out = tmp_path / "run"
        assert run(["solve", "--model", model, "--solver", "sg-ave", "--max-iters", 95,
                    "--epoch", 20, "--step-law", "diminishing", "--tau0", 0.05,
                    "--out-dir", out]) == 0
        rows = (out / "convergence.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == -(-95 // 20) + 1

    def test_solver_outputs_verify(self, tmp_path):
        model = tmp_path / "g.uai"
        run(["generate", "grid", "--rows", 3, "--cols", 3, "--labels", 2,
             "--seed", 6, "--out", model])
        out = tmp_path / "run"
        assert run(["solve", "--model", model, "--solver", "nest", "--max-iters", 200,
                    "--epoch", 50, "--rho", 0.5, "--out-dir", out]) == 0
        assert run(["verify", "--model", model, "--marginals", out / "marginals.json"]) == 0

    def test_fpd_and_nest_agree(self, tmp_path):
        model = tmp_path / "g.uai"
        run(["generate", "grid", "--rows", 3, "--cols", 3, "--labels", 2,
             "--seed", 8, "--out", model])
        out1, out2 = tmp_path / "fpd", tmp_path / "nest"
        run(["solve", "--model", model, "--solver", "fpd", "--max-iters", 40000,
             "--epoch", 400, "--tol", "1e-6", "--out-dir", out1])
        run(["solve", "--model", model, "--solver", "nest", "--max-iters", 4000,
             "--epoch", 50, "--rho", 1.0, "--rho-schedule", "halving",
             "--tol", "1e-6", "--out-dir", out2])
        s1 = M.read_summary(out1 / "summary.json")
        s2 = M.read_summary(out2 / "summary.json")
        assert abs(s1["dual_bound"] - s2["dual_bound"]) <= 1e-3

    def test_default_flags_give_the_default_config(self, monkeypatch, tmp_path):
        model = tmp_path / "g.uai"
        run(["generate", "grid", "--rows", 2, "--cols", 2, "--labels", 2, "--out", model])
        seen = []
        monkeypatch.setattr(mrflp.cli, "run_solver", _capture_config(seen))
        with pytest.raises(_Captured):
            run(["solve", "--model", model, "--solver", "nest", "--out-dir", tmp_path / "run"])
        assert seen == [M.SolverConfig()]

    @pytest.mark.parametrize("flag", ["--tau0", "--rho"])
    def test_non_finite_option_is_a_usage_error(self, tmp_path, capsys, flag):
        model = tmp_path / "g.uai"
        M.write_uai(M.generate_grid(2, 2, 2, seed=0), model)
        assert run(["solve", "--model", model, "--solver", "nest", "--max-iters", 5,
                    flag, "nan", "--out-dir", tmp_path / "run"]) == 2
        assert "must be positive and finite" in capsys.readouterr().err

    def test_unknown_solver_rejected(self, tmp_path):
        model = tmp_path / "g.uai"
        run(["generate", "grid", "--rows", 2, "--cols", 2, "--labels", 2,
             "--seed", 0, "--out", model])
        with pytest.raises(SystemExit) as e:
            run(["solve", "--model", model, "--solver", "trws", "--out-dir", tmp_path / "x"])
        assert e.value.code == 2

    def test_non_grid_without_decomposition_is_usage_error(self, tmp_path):
        m = M.MrfModel.create(
            [2, 2, 2],
            [(0, 1), (0, 2), (1, 2)],
            [np.zeros(2)] * 3,
            [np.zeros((2, 2))] * 3,
        )
        model = tmp_path / "tri.uai"
        M.write_uai(m, model)
        code = run(["solve", "--model", model, "--solver", "sg-ave",
                    "--max-iters", 10, "--out-dir", tmp_path / "x"])
        assert code == 2

    def test_decomposition_file(self, tmp_path):
        m = M.MrfModel.create(
            [2, 2, 2],
            [(0, 1), (0, 2), (1, 2)],
            [np.array([0.0, 1.0])] * 3,
            [np.zeros((2, 2))] * 3,
        )
        model = tmp_path / "tri.uai"
        M.write_uai(m, model)
        coloring = tmp_path / "colors.json"
        coloring.write_text("[0, 1, 1]")
        out = tmp_path / "run"
        assert run(["solve", "--model", model, "--solver", "sg-ave", "--max-iters", 500,
                    "--epoch", 20, "--tol", "1e-8", "--decomposition", coloring,
                    "--out-dir", out]) == 0
        summary = M.read_summary(out / "summary.json")
        best, _ = oracles.exhaustive_map(m)
        assert abs(summary["dual_bound"] - best) <= 1e-6

    @pytest.mark.parametrize("doc", ["5", "[0.0, 1.0, 0.0, 1.0]", "[0, 0, 0, 0]"], ids=["scalar", "floats", "cyclic"])
    def test_malformed_decomposition_file_is_a_usage_error(self, tmp_path, capsys, doc):
        model = tmp_path / "m.uai"
        M.write_uai(M.generate_grid(2, 2, 2, seed=0), model)
        coloring = tmp_path / "colors.json"
        coloring.write_text(doc)
        assert run(["solve", "--model", model, "--solver", "nest", "--max-iters", 5,
                    "--decomposition", coloring, "--out-dir", tmp_path / "run"]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_embedding_passes(self, tmp_path):
        model_path = tmp_path / "m.uai"
        run(["generate", "grid", "--rows", 2, "--cols", 2, "--labels", 2,
             "--seed", 1, "--out", model_path])
        m = M.read_uai(model_path)
        mu = M.embed_labeling(m, [0, 1, 1, 0])
        M.write_marginals(mu, tmp_path / "mu.json")
        assert run(["verify", "--model", model_path, "--marginals", tmp_path / "mu.json"]) == 0

    def test_corrupted_marginals_fail_with_residual(self, tmp_path, capsys):
        model_path = tmp_path / "m.uai"
        run(["generate", "grid", "--rows", 2, "--cols", 2, "--labels", 2,
             "--seed", 1, "--out", model_path])
        m = M.read_uai(model_path)
        mu = M.embed_labeling(m, [0, 1, 1, 0])
        node_blocks = [b.copy() for b in mu.node_blocks]
        node_blocks[0][0] -= 0.1
        bad = M.Marginals.from_blocks(node_blocks=tuple(node_blocks), edge_blocks=mu.edge_blocks)
        M.write_marginals(bad, tmp_path / "mu.json")
        capsys.readouterr()
        assert run(["verify", "--model", model_path, "--marginals", tmp_path / "mu.json"]) == 1
        out = capsys.readouterr().out
        assert "1.0" in out.split("constraint_residual=")[1].splitlines()[0][:12]

    def test_nan_marginals_fail(self, tmp_path, capsys):
        model_path = tmp_path / "m.uai"
        run(["generate", "grid", "--rows", 2, "--cols", 2, "--labels", 2, "--out", model_path])
        mu = M.embed_labeling(M.read_uai(model_path), [0, 1, 1, 0])
        node_blocks = [b.copy() for b in mu.node_blocks]
        node_blocks[0][0] = np.nan
        M.write_marginals(M.Marginals.from_blocks(node_blocks, mu.edge_blocks), tmp_path / "mu.json")
        capsys.readouterr()
        assert run(["verify", "--model", model_path, "--marginals", tmp_path / "mu.json"]) == 1
        assert "verdict=FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["node", "edge"])
    def test_non_finite_marginals_fail(self, tmp_path, capsys, where, value):
        # a point that is not finite is not feasible, wherever the entry lies
        model_path = tmp_path / "m.uai"
        m = M.generate_grid(2, 2, 2, seed=0)
        M.write_uai(m, model_path)
        mu = M.embed_labeling(m, [0, 0, 0, 0])
        node_blocks, edge_blocks = [b.copy() for b in mu.node_blocks], [b.copy() for b in mu.edge_blocks]
        if where == "node":
            node_blocks[0][0] = value
        else:
            edge_blocks[0][1, 1] = value
        M.write_marginals(M.Marginals.from_blocks(node_blocks, edge_blocks), tmp_path / "mu.json")
        capsys.readouterr()
        assert run(["verify", "--model", model_path, "--marginals", tmp_path / "mu.json"]) == 1
        out = capsys.readouterr().out
        assert "constraint_residual=inf" in out and "verdict=FAIL" in out

    def test_optimal_pair_has_tiny_gap(self, tmp_path, capsys):
        model_path = tmp_path / "chain.uai"
        run(["generate", "grid", "--rows", 1, "--cols", 6, "--labels", 2,
             "--seed", 9, "--out", model_path])
        out = tmp_path / "run"
        assert run(["solve", "--model", model_path, "--solver", "fpd", "--max-iters", 30000,
                    "--epoch", 200, "--tol", "1e-9", "--out-dir", out]) == 0
        # the solve's own certified dual point pairs with its marginals
        capsys.readouterr()
        assert run(["verify", "--model", model_path, "--marginals", out / "marginals.json",
                    "--dual", out / "dual_point.json"]) == 0
        lines = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines() if "=" in line)
        assert lines["verdict"] == "OK"
        assert float(lines["relative_gap"]) <= 1e-8

    def test_dual_messages_are_read_by_their_edge_keys(self, tmp_path, capsys):
        model_path = tmp_path / "m.uai"
        run(["generate", "grid", "--rows", 2, "--cols", 3, "--labels", 3, "--seed", 1, "--out", model_path])
        out = tmp_path / "run"
        assert run(["solve", "--model", model_path, "--solver", "fpd", "--max-iters", 40, "--out-dir", out]) == 0
        doc = json.loads((out / "dual_point.json").read_text())
        verify = ["verify", "--model", model_path, "--marginals", out / "marginals.json", "--dual", out / "nu.json"]
        # each message keeps its own key, so the swapped file is the same point
        swapped = json.loads(json.dumps(doc))
        swapped["messages"][:2] = swapped["messages"][1::-1]
        (out / "nu.json").write_text(json.dumps(swapped))
        capsys.readouterr()
        assert run(verify) == 0
        assert "verdict=OK" in capsys.readouterr().out
        # a key off the model, an edge listed twice, an edge left out, a
        # reversed key and a message without a key are usage errors
        cases = [lambda ms: ms[0].update(edge=[0, 5]), lambda ms: ms.__setitem__(1, dict(ms[0])),
                 lambda ms: ms.pop(), lambda ms: ms[0].update(edge=[1, 0]), lambda ms: ms[0].pop("edge")]
        for edit in cases:
            bad = json.loads(json.dumps(doc))
            edit(bad["messages"])
            (out / "nu.json").write_text(json.dumps(bad))
            assert run(verify) == 2

    def test_default_solve_certifies_its_own_gap(self, tmp_path, capsys):
        model_path = tmp_path / "chain.uai"
        run(["generate", "grid", "--rows", 1, "--cols", 6, "--labels", 2,
             "--seed", 9, "--out", model_path])
        out = tmp_path / "run"
        assert run(["solve", "--model", model_path, "--solver", "fpd", "--out-dir", out]) == 0
        capsys.readouterr()
        assert run(["verify", "--model", model_path, "--marginals", out / "marginals.json",
                    "--dual", out / "dual_point.json"]) == 0
        lines = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines() if "=" in line)
        assert lines["verdict"] == "OK"
        assert float(lines["relative_gap"]) <= 1e-6

    def test_node_only_marginals_of_wrong_shape_are_usage_errors(self, tmp_path, capsys):
        model_path = tmp_path / "m.uai"
        run(["generate", "grid", "--rows", 3, "--cols", 3, "--labels", 4, "--out", model_path])
        mu = tmp_path / "mu.json"
        M.write_marginals(M.embed_labeling(M.read_uai(model_path), [0] * 9), mu)
        non_numeric = json.loads(mu.read_text())
        non_numeric["node_blocks"][0] = {"a": 1}
        # a block of the wrong shape, a document without node blocks, node
        # blocks that are not a list, node blocks of the right shape without
        # edge blocks (no point without edge blocks is certified), and a
        # node block that is not numeric
        right_shape = json.dumps([[1.0, 0.0, 0.0, 0.0]] * 9)
        for doc in ('{"node_blocks": [[1.0]], "edge_blocks": null}', "{}",
                    '{"node_blocks": 5, "edge_blocks": null}',
                    f'{{"node_blocks": {right_shape}, "edge_blocks": null}}',
                    f'{{"node_blocks": {right_shape}}}', json.dumps(non_numeric)):
            mu.write_text(doc)
            capsys.readouterr()
            assert run(["verify", "--model", model_path, "--marginals", mu]) == 2
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", ["short-node-bounds", "missing-message-pair", "message-without-from-u",
                                        "messages-not-a-list", "non-numeric-message"])
    def test_malformed_dual_points_are_usage_errors(self, tmp_path, capsys, defect):
        model_path = tmp_path / "m.uai"
        run(["generate", "grid", "--rows", 3, "--cols", 3, "--labels", 4, "--out", model_path])
        m = M.read_uai(model_path)
        M.write_marginals(M.embed_labeling(m, [0] * 9), tmp_path / "mu.json")
        M.write_dual_point(m, M.project_dual(m, np.zeros(m.packing().dual_dim)), tmp_path / "nu.json")
        doc = json.loads((tmp_path / "nu.json").read_text())
        if defect == "short-node-bounds":
            doc["node_bounds"] = doc["node_bounds"][:1]
        elif defect == "missing-message-pair":
            doc["messages"] = doc["messages"][:-1]
        elif defect == "messages-not-a-list":
            doc["messages"] = 5
        elif defect == "non-numeric-message":
            doc["messages"][0]["from_u"] = {"a": 1}
        else:
            del doc["messages"][0]["from_u"]
        (tmp_path / "nu.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "--model", model_path, "--marginals", tmp_path / "mu.json",
                    "--dual", tmp_path / "nu.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.uai"
        bad.write_text("MARKOV\nnot_a_number\n")
        mu = tmp_path / "mu.json"
        mu.write_text("{}")
        assert run(["verify", "--model", bad, "--marginals", mu]) == 2


class TestExperiments:
    @pytest.mark.parametrize("seed", [0, 4])
    @pytest.mark.parametrize("name, function", [("gap-convergence", M.run_gap_convergence),
                                                ("infinity-scaling", M.run_infinity_scaling)])
    def test_default_config_is_the_cli_default(self, monkeypatch, tmp_path, name, function, seed):
        # called without a cfg, each experiment solves with the config that
        # its CLI builds from the default flags, whatever its seed argument
        seen = []
        capture = _capture_config(seen)
        monkeypatch.setattr(mrflp.experiments, "run_solver", capture)
        monkeypatch.setattr(mrflp.experiments, "solve_nesterov", capture)
        with pytest.raises(_Captured):
            function(tmp_path / "direct", rows=2, cols=2, labels=2, seed=seed)
        with pytest.raises(_Captured):
            run(["experiment", name, "--rows", 2, "--cols", 2, "--labels", 2, "--seed", seed,
                 "--out-dir", tmp_path / "cli"])
        assert seen[0] == seen[1]

    def test_gap_convergence_smoke(self, tmp_path):
        out = tmp_path / "exp"
        assert run(["experiment", "gap-convergence", "--rows", 3, "--cols", 3,
                    "--labels", 2, "--seed", 4, "--max-iters", 120, "--epoch", 20,
                    "--out-dir", out]) == 0
        summary = M.read_summary(out / "summary.json")
        assert set(summary["solvers"]) == {"sg-ave", "sg-wei", "nest", "fpd"}
        for solver in summary["solvers"]:
            records = M.read_convergence_csv(out / f"{solver}.csv")
            for r in records:
                assert r.primal_bound >= r.dual_bound - 1e-9

    def test_infinity_scaling_smoke_and_rerun_identity(self, tmp_path):
        args = ["experiment", "infinity-scaling", "--rows", 4, "--cols", 4,
                "--labels", 2, "--seed", 4, "--margin", 25, "--max-iters", 60,
                "--epoch", 20, "--rho", 0.5]
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert run(args + ["--out-dir", out1]) == 0
        assert run(args + ["--out-dir", out2]) == 0
        summary = M.read_summary(out1 / "summary.json")
        assert len(summary["offsets"]["pairs"]) == 3
        for name in ("infinity_1e+04.csv", "infinity_1e+07.csv"):
            a = M.read_convergence_csv(out1 / name)
            b = M.read_convergence_csv(out2 / name)
            for ra, rb in zip(a, b):
                assert ra.iteration == rb.iteration
                assert ra.dual_bound == rb.dual_bound
                assert ra.primal_bound == rb.primal_bound
                assert ra.integer_bound == rb.integer_bound
                assert ra.gap == rb.gap

    @pytest.mark.parametrize("infinities", ["100", ",", "1e4,1e4", "1e4,1e5,10000"])
    def test_infinity_scaling_needs_two_distinct_infinities(self, tmp_path, capsys, infinities):
        # one value or none has no pair of curves to compare, and a repeated one
        # would compare a curve with itself
        out = tmp_path / "exp"
        assert run(["experiment", "infinity-scaling", "--rows", 2, "--cols", 2, "--labels", 2,
                    "--infinities", infinities, "--out-dir", out]) == 2
        assert "two or more distinct" in capsys.readouterr().err
        assert not out.exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "m.uai"
        # the child process imports the same package as this test, whether
        # it came from PYTHONPATH or from pytest's pythonpath setting
        src = str(Path(M.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "mrflp.cli", "generate", "grid", "--rows", "2",
             "--cols", "2", "--labels", "2", "--seed", "0", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
