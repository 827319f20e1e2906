import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mrflp as M
import mrflp.fileio
from mrflp.errors import StructureError
from mrflp.fileio import CSV_HEADER

import oracles


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
        with pytest.raises(StructureError, match="factor of arity 3 found"):
            M.read_uai(path)

    def test_reader_rejects_non_markov(self, tmp_path):
        path = tmp_path / "bad.uai"
        path.write_text("BAYES\n1\n2\n1\n1 0\n\n2\n0 0\n")
        with pytest.raises(StructureError, match="unsupported network type 'BAYES'"):
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


# one fault each; the message is the reader's
MALFORMED_UAI = {
    "empty": ("", "unexpected end of model file"),
    "truncated-cardinalities": ("MARKOV\n3\n2 2", "unexpected end of model file"),
    "truncated-scope": ("MARKOV\n2\n2 2\n1\n2 0", "unexpected end of model file"),
    "truncated-table": ("MARKOV\n2\n2 2\n1\n2 0 1\n\n4\n1 2 3", "unexpected end of model file"),
    "missing-table": ("MARKOV\n2\n2 2\n2\n1 0\n2 0 1\n\n2\n1 2\n", "unexpected end of model file"),
    "declared-count": (
        "MARKOV\n2\n2 3\n2\n1 1\n2 1 0\n\n3\n1 2 3\n5\n1 2 3 4 5 6\n",
        "factor on (1, 0) declares 5 entries, expected 6",
    ),
    "trailing-tokens": ("MARKOV\n1\n2\n1\n1 0\n\n2\n1 2 3\n", "trailing tokens after the last factor table"),
    "variable-too-large": (
        "MARKOV\n2\n2 2\n1\n2 0 2\n\n4\n1 2 3 4\n", "factor scope references unknown variable 2"
    ),
    "variable-negative": ("MARKOV\n2\n2 2\n1\n1 -1\n\n2\n1 2\n", "factor scope references unknown variable -1"),
    "repeated-variable": ("MARKOV\n2\n2 2\n1\n2 1 1\n\n4\n1 2 3 4\n", "factor scope repeats variable 1"),
    "zero-variables": ("MARKOV\n0\n0\n", "model needs at least one variable"),
    "zero-cardinality": ("MARKOV\n2\n2 0\n0\n", "variable cardinalities must be positive"),
    "negative-cardinality": ("MARKOV\n2\n-1 2\n0\n", "variable cardinalities must be positive"),
    "negative-factor-count": ("MARKOV\n2\n2 2\n-1\n", "negative factor count -1"),
    "non-finite-entry": (
        "MARKOV\n2\n2 2\n2\n1 0\n2 1 0\n\n2\n0 0\n4\n1 inf 3 4\n",
        "pairwise table of edge (0, 1) has non-finite entries",
    ),
}


@pytest.mark.parametrize("text, message", MALFORMED_UAI.values(), ids=MALFORMED_UAI.keys())
def test_reader_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "bad.uai"
    path.write_text(text)
    with pytest.raises(StructureError, match=re.escape(message)):
        M.read_uai(path)


def test_non_numeric_table_entry_is_a_value_error(tmp_path):
    # a ValueError, like every malformed input: the CLI exits with 2 on it
    path = tmp_path / "bad.uai"
    path.write_text("MARKOV\n2\n2 2\n1\n2 0 1\n\n4\n1 2 x 4\n")
    with pytest.raises(ValueError, match="could not convert string to float"):
        M.read_uai(path)


def _write_repeated_scopes(path):
    """A model file whose unary and pairwise scopes repeat, in both
    orientations and shuffled; node 4 has no unary factor, and some
    entries are -0.0."""
    rng = np.random.default_rng(7)
    counts = [2, 3, 4, 2, 3]
    scopes = [(0,), (1,), (2,), (3,), (0,), (2,)]
    scopes += [(0, 1), (1, 0), (2, 1), (1, 3), (3, 1), (1, 3), (4, 0), (2, 4), (4, 2)]
    scopes = [scopes[k] for k in rng.permutation(len(scopes))]
    tables = [rng.uniform(-5, 5, int(np.prod([counts[v] for v in s]))) for s in scopes]
    tables[0][0] = tables[3][-1] = -0.0
    lines = ["MARKOV", str(len(counts)), " ".join(map(str, counts)), str(len(scopes))]
    lines += [" ".join(map(str, (len(s), *s))) for s in scopes]
    for t in tables:
        lines += ["", str(t.size), " ".join(map(repr, t.tolist()))]
    path.write_text("\n".join(lines) + "\n")


def _edited(edit):
    """A writer of a small grid model's file, changed by ``edit`` (text to
    text) and stored byte for byte, so that CRLF line endings stay."""

    def write(path):
        M.write_uai(M.generate_grid(3, 4, 3, law="uniform_sym", radius=7.0, seed=4), path)
        path.write_bytes(edit(path.read_text()).encode())

    return write


def _comments_between_tables(text):
    # the first table is its size line "3", then its entries
    lines = text.split("\n")
    at = lines.index("3") + 2
    lines[at:at] = ["  # 1 2 3 # 4", "\t#"]
    return "\n".join(lines)


UAI_FILES = {
    "grid": lambda path: M.write_uai(M.generate_grid(4, 5, 3, law="uniform_sym", radius=7.0, seed=2), path),
    "lp-tight": lambda path: M.write_uai(M.generate_lp_tight(4, 4, 3, 5, 1e6, 0.4, seed=1)[0], path),
    "mixed-labels": lambda path: M.write_uai(oracles.two_forest_model([2 + i % 4 for i in range(30)], seed=3)[0], path),
    "repeated-scopes": _write_repeated_scopes,
    "crlf": _edited(lambda text: text.replace("\n", "\r\n")),
    "tabs": _edited(lambda text: text.replace(" ", "\t").replace("\n", " \t\n\t")),
    # an indented comment line drops its tokens too; a '#' inside a comment is part of it
    "comment-between-tables": _edited(_comments_between_tables),
    # the last grid comment wins over the one the writer put first
    "grid-after-preamble": _edited(lambda text: text.replace("\nMARKOV\n", "\nMARKOV\n# grid 2 6\n# grid 4 3\n")),
    "no-trailing-newline": _edited(lambda text: text.rstrip("\n")),
}


def _assert_same_model(m, ref):
    assert (m.label_counts, m.edges, m.grid_shape) == (ref.label_counts, ref.edges, ref.grid_shape)
    assert len(m.unary) == len(ref.unary) and len(m.pairwise) == len(ref.pairwise)
    for a, b in zip(m.unary + m.pairwise, ref.unary + ref.pairwise):
        # bit for bit, signed zeros included
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("write", UAI_FILES.values(), ids=UAI_FILES.keys())
def test_reader_matches_the_reference(tmp_path, write):
    path = tmp_path / "m.uai"
    write(path)
    _assert_same_model(M.read_uai(path), oracles.read_uai_reference(path))


# windows of a few characters cut tokens, comment lines and sections apart
WINDOWS = [1, 2, 3, 5, 8, 13, 64]


@pytest.mark.parametrize("window", WINDOWS)
def test_window_boundaries_do_not_change_the_model(tmp_path, monkeypatch, window):
    monkeypatch.setattr(mrflp.fileio, "_WINDOW", window)
    for name, write in UAI_FILES.items():
        path = tmp_path / f"{name}.uai"
        write(path)
        _assert_same_model(M.read_uai(path), oracles.read_uai_reference(path))


@pytest.mark.parametrize("window", WINDOWS)
def test_window_boundaries_do_not_change_the_errors(tmp_path, monkeypatch, window):
    monkeypatch.setattr(mrflp.fileio, "_WINDOW", window)
    path = tmp_path / "bad.uai"
    for text, message in MALFORMED_UAI.values():
        path.write_text(text)
        with pytest.raises(StructureError, match=re.escape(message)):
            M.read_uai(path)
    # a '#' after a token on its line starts no comment: it is a token
    for text in ["MARKOV\n2\n2 2\n1\n2 0 1\n\n4\n1 2 x 4\n", "MARKOV\n2\n2 2\n1\n2 0 1\n\n4\n1 2 #4 4\n"]:
        path.write_text(text)
        with pytest.raises(ValueError, match="could not convert string to float"):
            M.read_uai(path)


def test_reader_memory_stays_near_the_file_size(tmp_path):
    # 100x100x4 (7.3 MB): the peak was 7.7x the file's bytes when the whole
    # file was tokenized at once; read in windows it is 2.4x
    path = tmp_path / "big.uai"
    M.write_uai(M.generate_grid(100, 100, 4, law="uniform01", seed=0), path)
    tracemalloc.start()
    try:
        M.read_uai(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * path.stat().st_size


def test_reader_hands_theta_to_the_model(tmp_path):
    # 100x100x4: the model keeps the 2.85 MB theta that the reader built, and
    # no numpy buffer that model.py allocated (a copy of it) outlives the read
    path = tmp_path / "big.uai"
    M.write_uai(M.generate_grid(100, 100, 4, law="uniform01", seed=0), path)
    tracemalloc.start()
    try:
        model = M.read_uai(path)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    arrays = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    held = {Path(s.traceback[0].filename).name: s.size for s in arrays.statistics("filename")}
    assert model.theta.nbytes == 2_854_400
    assert held.get("fileio.py", 0) >= model.theta.nbytes
    assert held.get("model.py", 0) == 0


class TestLabelingAndMarginalsFiles:
    def test_labeling_round_trip(self, tmp_path):
        x = np.array([0, 3, 1, 2])
        path = tmp_path / "x.txt"
        M.write_labeling(x, path)
        np.testing.assert_array_equal(M.read_labeling(path), x)

    def test_marginals_round_trip(self, tmp_path):
        m = M.generate_grid(2, 2, 2, seed=2)
        mu = M.project_primal_energy(m, np.concatenate([np.random.default_rng(0).random(2) for _ in range(4)]))
        path = tmp_path / "mu.json"
        M.write_marginals(mu, path)
        back = M.read_marginals(path)
        for a, b in zip(mu.node_blocks, back.node_blocks):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(mu.edge_blocks, back.edge_blocks):
            np.testing.assert_array_equal(a, b)

    def test_dual_point_round_trip(self, tmp_path):
        m = M.generate_grid(2, 2, 2, seed=3)
        rng = np.random.default_rng(1)
        msgs = [(rng.standard_normal(2), rng.standard_normal(2)) for _ in range(m.n_edges)]
        point = M.project_dual(m, M.DualPoint.from_blocks(np.zeros(m.n_nodes), np.zeros(m.n_edges), msgs).nu)
        path = tmp_path / "nu.json"
        M.write_dual_point(m, point, path)
        back = M.read_dual_point(path)
        np.testing.assert_array_equal(back.node_bounds, point.node_bounds)
        np.testing.assert_array_equal(back.edge_bounds, point.edge_bounds)
        for (a1, b1), (a2, b2) in zip(point.messages, back.messages):
            np.testing.assert_array_equal(a1, a2)
            np.testing.assert_array_equal(b1, b2)
        # messages are placed by their edge keys, not by their order in the file
        doc = json.loads(path.read_text())
        doc["messages"].reverse()
        path.write_text(json.dumps(doc))
        np.testing.assert_array_equal(M.read_dual_point(path).nu, point.nu)


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

    def test_unknown_header_and_wrong_width_are_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        # the seven-column layout that predates the last two columns is unknown too
        path.write_text(",".join(CSV_HEADER[:7]) + "\n20,0.5,-1.0,2.0,3.0,3.0,0.25\n")
        with pytest.raises(StructureError):
            M.read_convergence_csv(path)
        path.write_text(",".join(CSV_HEADER) + "\n20,0.5,-1.0,2.0,3.0,3.0,0.25\n")
        with pytest.raises(StructureError):
            M.read_convergence_csv(path)
