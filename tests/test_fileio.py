import numpy as np
import pytest

import mrflp as M
from mrflp.errors import StructureError
from mrflp.fileio import CSV_HEADER


class TestUaiRoundTrip:
    def test_write_read_write_is_byte_identical(self, tmp_path):
        m = M.generate_grid(3, 4, 3, law="uniform_sym", radius=7.0, seed=31)
        p1 = tmp_path / "a.uai"
        p2 = tmp_path / "b.uai"
        M.write_uai(m, p1)
        m2 = M.read_uai(p1)
        M.write_uai(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_tables_exactly(self, tmp_path):
        m = M.generate_grid(2, 3, 4, seed=5)
        path = tmp_path / "m.uai"
        M.write_uai(m, path)
        m2 = M.read_uai(path)
        assert m2.label_counts == m.label_counts
        assert m2.edges == m.edges
        assert m2.grid_shape == m.grid_shape
        for a, b in zip(m.unary, m2.unary):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(m.pairwise, m2.pairwise):
            np.testing.assert_array_equal(a, b)

    def test_reader_rejects_higher_order_factors(self, tmp_path):
        path = tmp_path / "bad.uai"
        path.write_text("MARKOV\n3\n2 2 2\n1\n3 0 1 2\n\n8\n0 0 0 0 0 0 0 0\n")
        with pytest.raises(StructureError):
            M.read_uai(path)

    def test_reader_rejects_non_markov(self, tmp_path):
        path = tmp_path / "bad.uai"
        path.write_text("BAYES\n1\n2\n1\n1 0\n\n2\n0 0\n")
        with pytest.raises(StructureError):
            M.read_uai(path)

    def test_reader_accumulates_duplicate_scopes(self, tmp_path):
        path = tmp_path / "dup.uai"
        path.write_text(
            "MARKOV\n2\n2 2\n3\n1 0\n2 0 1\n2 1 0\n\n"
            "2\n1.0 2.0\n4\n1.0 2.0 3.0 4.0\n4\n10.0 20.0 30.0 40.0\n"
        )
        m = M.read_uai(path)
        np.testing.assert_array_equal(m.unary[0], [1.0, 2.0])
        np.testing.assert_array_equal(m.unary[1], [0.0, 0.0])
        # the second table is oriented (x1, x0) and transposes onto the first
        np.testing.assert_array_equal(m.pairwise[0], [[11.0, 32.0], [23.0, 44.0]])

    def test_reader_handles_missing_unaries(self, tmp_path):
        path = tmp_path / "sparse.uai"
        path.write_text("MARKOV\n2\n2 3\n1\n2 0 1\n\n6\n1 2 3 4 5 6\n")
        m = M.read_uai(path)
        np.testing.assert_array_equal(m.unary[0], [0.0, 0.0])
        np.testing.assert_array_equal(m.pairwise[0], [[1, 2, 3], [4, 5, 6]])

    def test_grid_comment_round_trips(self, tmp_path):
        m = M.generate_grid(2, 5, 2, seed=1)
        path = tmp_path / "g.uai"
        M.write_uai(m, path)
        assert "# grid 2 5" in path.read_text()
        assert M.read_uai(path).grid_shape == (2, 5)


class TestLabelingAndMarginalsFiles:
    def test_labeling_round_trip(self, tmp_path):
        x = np.array([0, 3, 1, 2])
        path = tmp_path / "x.txt"
        M.write_labeling(x, path)
        np.testing.assert_array_equal(M.read_labeling(path), x)

    def test_marginals_round_trip(self, tmp_path):
        m = M.generate_grid(2, 2, 2, seed=2)
        mu = M.project_primal_energy(m, [np.random.default_rng(0).random(2) for _ in range(4)])
        path = tmp_path / "mu.json"
        M.write_marginals(mu, path)
        back = M.read_marginals(path)
        assert back.has_edge_blocks
        for a, b in zip(mu.node_blocks, back.node_blocks):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(mu.edge_blocks, back.edge_blocks):
            np.testing.assert_array_equal(a, b)

    def test_node_only_marginals(self, tmp_path):
        mu = M.Marginals(node_blocks=(np.array([0.5, 0.5]),), edge_blocks=None)
        path = tmp_path / "mu.json"
        M.write_marginals(mu, path)
        assert not M.read_marginals(path).has_edge_blocks

    def test_dual_point_round_trip(self, tmp_path):
        m = M.generate_grid(2, 2, 2, seed=3)
        rng = np.random.default_rng(1)
        msgs = [(rng.standard_normal(2), rng.standard_normal(2)) for _ in range(m.n_edges)]
        point = M.project_dual(m, msgs)
        path = tmp_path / "nu.json"
        M.write_dual_point(m, point, path)
        back = M.read_dual_point(path)
        np.testing.assert_array_equal(back.node_bounds, point.node_bounds)
        np.testing.assert_array_equal(back.edge_bounds, point.edge_bounds)
        for (a1, b1), (a2, b2) in zip(point.messages, back.messages):
            np.testing.assert_array_equal(a1, a2)
            np.testing.assert_array_equal(b1, b2)


class TestConvergenceCsv:
    def test_header_and_round_trip(self, tmp_path):
        records = [
            M.ConvergenceRecord(0, 0.1, -1.5, 2.5, 3.0, 4.0, rho=0.5),
            M.ConvergenceRecord(20, 0.2, -1.0, 2.0, 3.0, 3.0, rho=None),
        ]
        path = tmp_path / "log.csv"
        M.write_convergence_csv(records, path)
        first = path.read_text().splitlines()[0]
        assert first == ",".join(CSV_HEADER)
        back = M.read_convergence_csv(path)
        assert back[0].rho == 0.5
        assert back[1].rho is None
        assert back[0].dual_bound == -1.5
        assert back[1].iteration == 20

    def test_solver_csv_round_trip(self, tmp_path):
        m = M.generate_grid(2, 2, 2, seed=4)
        d = M.decompose_grid(m)
        cfg = M.SolverConfig(max_iters=60, epoch=20, rho=0.5, log_smoothed_gap=True)
        report = M.solve_nesterov(m, d, cfg)
        assert any(r.smoothed_gap is not None for r in report.records)
        assert any(r.projected_energy is not None for r in report.records)
        path = tmp_path / "log.csv"
        M.write_convergence_csv(report.records, path)
        back = M.read_convergence_csv(path)
        assert back == list(report.records)

    def test_seven_column_logs_still_read(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text(",".join(CSV_HEADER[:7]) + "\n20,0.5,-1.0,2.0,3.0,3.0,0.25\n")
        (rec,) = M.read_convergence_csv(path)
        assert rec == M.ConvergenceRecord(20, 0.5, -1.0, 2.0, 3.0, 3.0, rho=0.25)
        assert rec.smoothed_gap is None and rec.projected_energy is None
