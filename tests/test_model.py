import math
import re
import tracemalloc

import numpy as np
import pytest

import mrflp as M
from mrflp.errors import InfeasibleMarginalsError, InvalidLabelingError, StructureError
from mrflp.model import _forest_rows

import oracles


def single_node(theta=(3.0, 5.0)):
    return M.MrfModel.create([len(theta)], [], [np.array(theta, dtype=float)], [])


def two_node_chain():
    return M.MrfModel.create(
        [2, 2],
        [(0, 1)],
        [np.array([0.0, 1.0]), np.array([0.0, 1.0])],
        [np.zeros((2, 2))],
    )


class TestModelValidation:
    def test_edge_must_reference_existing_nodes(self):
        with pytest.raises(StructureError, match=re.escape("edge (0, 2) is not canonical (need 0 <= u < v < n)")):
            M.MrfModel.create([2, 2], [(0, 2)], [np.zeros(2)] * 2, [np.zeros((2, 2))])

    def test_self_loop_rejected(self):
        with pytest.raises(StructureError, match="self-loop on node 1"):
            M.MrfModel.create([2, 2], [(1, 1)], [np.zeros(2)] * 2, [np.zeros((2, 2))])

    def test_duplicate_edges_rejected(self):
        with pytest.raises(StructureError, match=re.escape("edges must be strictly increasing (no duplicates)")):
            M.MrfModel.create(
                [2, 2], [(0, 1), (1, 0)], [np.zeros(2)] * 2, [np.zeros((2, 2))] * 2
            )

    def test_pairwise_shape_must_match_label_counts(self):
        message = "pairwise table of edge (0, 1) has shape (2, 2), expected (2, 3)"
        with pytest.raises(StructureError, match=re.escape(message)):
            M.MrfModel.create([2, 3], [(0, 1)], [np.zeros(2), np.zeros(3)], [np.zeros((2, 2))])

    def test_non_finite_potentials_rejected(self):
        with pytest.raises(StructureError, match="unary table of node 0 has non-finite entries"):
            M.MrfModel.create([2], [], [np.array([0.0, np.inf])], [])

    @pytest.mark.parametrize("args, message", [
        (([], [], [], []), "a model needs at least one node"),
        (([2, 0], [], [np.zeros(2), np.zeros(0)], []), "every node needs at least one label"),
        (([2, 2], [], [np.zeros(2)], []), "one unary table per node required"),
        (([2, 2], [(0, 1)], [np.zeros(2)] * 2, []), "one pairwise table per edge required"),
        (([2, 3], [], [np.zeros(2), np.zeros(2)], []), "unary table of node 1 has shape (2,)"),
        # the first bad table is named, in the model's canonical edge order
        (([2, 2, 2], [(2, 1), (0, 1)], [np.zeros(2)] * 3, [np.full((2, 2), np.nan), np.full((2, 2), np.inf)]),
         "pairwise table of edge (0, 1) has non-finite entries"),
        (([2, 2, 2], [], [np.zeros(2), [0.0, np.inf], [np.nan, 0.0]], []),
         "unary table of node 1 has non-finite entries"),
        (([2, 2, 2], [(1, 2), (0, 2)], [np.zeros(2)] * 3, [np.zeros((2, 3)), np.zeros((3, 2))]),
         "pairwise table of edge (0, 2) has shape (3, 2), expected (2, 2)"),
    ])
    def test_messages_name_the_first_bad_table(self, args, message):
        with pytest.raises(StructureError, match=re.escape(message)):
            M.MrfModel.create(*args)

    def test_grid_shape_must_match_node_count(self):
        with pytest.raises(StructureError, match=re.escape("grid shape (2, 3) does not match 4 nodes")):
            M.MrfModel.create([2] * 4, [], [np.zeros(2)] * 4, [], grid_shape=(2, 3))

    def test_create_canonicalizes_orientation(self):
        table = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        m = M.MrfModel.create([3, 2], [(1, 0)], [np.zeros(3), np.zeros(2)], [table])
        assert m.edges == ((0, 1),)
        np.testing.assert_array_equal(m.pairwise[0], table.T)


@pytest.mark.parametrize("call, error, message", [
    (lambda: M.MrfModel([2], [], np.zeros((1, 2))), ValueError, "expected a 1-d array, got shape (1, 2)"),
    (lambda: M.MrfModel([2, 2], [(0, 1)], np.zeros(7)), StructureError, "theta has 7 entries, the tables need 8"),
    (lambda: M.Marginals(np.zeros(3), [2], np.zeros((0, 2))), ValueError,
     "flat vector has 3 entries, its blocks need 2"),
    (lambda: M.DualPoint(np.zeros(2), 1, np.zeros((0, 2))), ValueError,
     "dual vector has 2 entries, its layout needs 1"),
    (lambda: M.validate_labeling(two_node_chain(), [0]), InvalidLabelingError,
     "labeling has shape (1,), expected (2,)"),
], ids=["theta-ndim", "theta-size", "marginals-size", "dual-size", "labeling-shape"])
def test_flat_layouts_refuse_bad_sizes(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


class TestEnergy:
    def test_zero_potentials(self):
        m = M.MrfModel.create([2, 2], [(0, 1)], [np.zeros(2)] * 2, [np.zeros((2, 2))])
        assert M.energy(m, [0, 1]) == 0.0

    def test_chain_selected_entries(self):
        assert M.energy(two_node_chain(), [1, 1]) == 2.0

    def test_matches_independent_summation(self):
        m = M.generate_grid(2, 2, 3, seed=11)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.integers(0, 3, 4)
            assert M.energy(m, x) == pytest.approx(oracles.exhaustive_energy(m, x), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(InvalidLabelingError):
            M.energy(two_node_chain(), [0, 2])


class TestRelaxedEnergy:
    def test_embedding_matches_energy(self):
        m = M.generate_grid(2, 3, 2, seed=3)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.integers(0, 2, 6)
            mu = M.embed_labeling(m, x)
            assert M.relaxed_energy(m, mu) == pytest.approx(M.energy(m, x), abs=1e-12)

    def test_uniform_single_node(self):
        m = single_node((0.0, 2.0))
        mu = M.Marginals.from_blocks(node_blocks=(np.array([0.5, 0.5]),), edge_blocks=())
        assert M.relaxed_energy(m, mu) == pytest.approx(1.0)

    def test_matches_dense_dot_product(self):
        for m in (M.generate_grid(2, 2, 3, seed=5), oracles.mixed_label_grid(seed=5)):
            _, x_lp = oracles.lp_optimum(m)
            # wrap the LP's flat solution back into blocks
            node_off, edge_off, _ = oracles.flat_layout(m)
            node_blocks = [x_lp[node_off[v] : node_off[v + 1]] for v in range(m.n_nodes)]
            edge_blocks = [
                x_lp[edge_off[e] : edge_off[e + 1]].reshape(m.pairwise[e].shape)
                for e in range(m.n_edges)
            ]
            mu = M.Marginals.from_blocks(node_blocks=tuple(node_blocks), edge_blocks=tuple(edge_blocks))
            assert M.relaxed_energy(m, mu) == pytest.approx(
                float(oracles.theta_vector(m) @ x_lp), abs=1e-10
            )


class TestEmbedding:
    def test_single_node(self):
        m = single_node((0.0, 0.0))
        mu = M.embed_labeling(m, [0])
        np.testing.assert_array_equal(mu.node_blocks[0], [1.0, 0.0])

    def test_edge_block_single_one(self):
        m = two_node_chain()
        mu = M.embed_labeling(m, [1, 0])
        assert mu.edge_blocks[0][1, 0] == 1.0
        assert mu.edge_blocks[0].sum() == 1.0

    def test_always_exactly_feasible(self):
        m = M.generate_grid(3, 2, 3, seed=9)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.integers(0, 3, 6)
            assert M.constraint_residual(m, M.embed_labeling(m, x)) == 0.0


class TestConstraintResidual:
    def test_embedding_is_zero(self):
        m = M.generate_grid(2, 2, 2, seed=0)
        assert M.constraint_residual(m, M.embed_labeling(m, [0, 1, 1, 0])) == 0.0

    def test_single_node_overfull(self):
        m = single_node((0.0, 0.0))
        mu = M.Marginals.from_blocks(node_blocks=(np.array([0.7, 0.7]),), edge_blocks=())
        assert M.constraint_residual(m, mu) == pytest.approx(0.4)

    def test_matches_dense_enumeration(self):
        rng = np.random.default_rng(3)
        for m in (M.generate_grid(2, 3, 2, seed=4), oracles.mixed_label_grid(seed=4)):
            for _ in range(10):
                mu = M.Marginals.from_blocks(
                    node_blocks=tuple(rng.random(c) for c in m.label_counts),
                    edge_blocks=tuple(rng.uniform(-0.1, 1.0, p.shape) for p in m.pairwise),
                )
                assert M.constraint_residual(m, mu) == pytest.approx(
                    oracles.residual_by_enumeration(m, mu), abs=1e-12
                )


    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["node", "edge"])
    def test_non_finite_entry_is_infinitely_infeasible(self, where, value):
        # Python's max drops a NaN that is not its first argument: an edge
        # cell's NaN must still reach the residual
        m = M.generate_grid(2, 2, 2, seed=0)
        mu = M.embed_labeling(m, [0, 0, 0, 0])
        node_blocks, edge_blocks = [b.copy() for b in mu.node_blocks], [b.copy() for b in mu.edge_blocks]
        if where == "node":
            node_blocks[0][0] = value
        else:
            edge_blocks[0][1, 1] = value
        bad = M.Marginals.from_blocks(node_blocks, edge_blocks)
        assert M.constraint_residual(m, bad) == np.inf
        with pytest.raises(InfeasibleMarginalsError):
            M.gap_certificate(m, bad, 0.0)
        with pytest.raises(InfeasibleMarginalsError):
            M.free_energy(m, bad, 1.0)


class TestGenerators:
    def test_single_cell(self):
        m = M.generate_grid(1, 1, 4, seed=0)
        assert m.n_nodes == 1 and m.n_edges == 0

    def test_two_by_two_combinatorics(self):
        m = M.generate_grid(2, 2, 2, seed=0)
        assert m.n_nodes == 4 and m.n_edges == 4

    def test_full_scale_grid_counts(self):
        m = M.generate_grid(256, 256, 4, seed=1)
        assert m.n_nodes == 65536
        assert m.n_edges == 130560  # 2 * 256 * 255

    def test_bit_reproducible(self):
        a = M.generate_grid(3, 4, 3, law="uniform_sym", radius=2.0, seed=42)
        b = M.generate_grid(3, 4, 3, law="uniform_sym", radius=2.0, seed=42)
        for t1, t2 in zip(a.unary, b.unary):
            np.testing.assert_array_equal(t1, t2)
        for t1, t2 in zip(a.pairwise, b.pairwise):
            np.testing.assert_array_equal(t1, t2)

    def test_unknown_law(self):
        with pytest.raises(ValueError):
            M.generate_grid(2, 2, 2, law="gaussian")


class TestLpTightGenerator:
    def test_planted_is_unique_map(self):
        model, planted = M.generate_lp_tight(2, 2, 3, margin=25.0, infinity_value=1e4,
                                             forbidden_fraction=0.3, seed=8)
        best, best_x = oracles.exhaustive_map(model)
        assert M.energy(model, planted) == pytest.approx(best, abs=1e-10)
        np.testing.assert_array_equal(best_x, planted)
        # uniqueness: second best strictly worse
        energies = sorted(
            oracles.exhaustive_energy(model, x)
            for x in __import__("itertools").product(range(3), repeat=4)
        )
        assert energies[1] > energies[0] + 1e-6

    def test_relaxation_attains_planted_energy(self):
        model, planted = M.generate_lp_tight(2, 2, 3, margin=25.0, infinity_value=1e4,
                                             forbidden_fraction=0.3, seed=8)
        lp_val, _ = oracles.lp_optimum(model)
        assert lp_val == pytest.approx(M.energy(model, planted), abs=1e-7)

    def test_forbidden_fraction_bounds(self):
        with pytest.raises(ValueError):
            M.generate_lp_tight(2, 2, 2, margin=1.0, infinity_value=1e4,
                                forbidden_fraction=1.5, seed=0)

    def test_infinity_values_accepted(self):
        for inf in (1e4, 1e5, 1e6, 1e7):
            model, planted = M.generate_lp_tight(3, 3, 2, margin=5.0, infinity_value=inf,
                                                 forbidden_fraction=0.25, seed=1)
            top = max(float(np.max(np.abs(t))) for t in model.pairwise)
            assert top <= inf


@pytest.mark.parametrize("call, message", [
    (lambda: M.generate_grid(0, 2, 2), "rows, cols and labels must be positive"),
    (lambda: M.generate_grid(2, 2, 2, law="uniform_sym", radius=0.0), "radius must be positive for uniform_sym"),
    (lambda: M.generate_lp_tight(2, 2, 0, 25.0, 1e4, 0.3), "rows, cols and labels must be positive"),
    (lambda: M.generate_lp_tight(2, 2, 2, 0.0, 1e4, 0.3), "margin must be positive"),
    (lambda: M.generate_lp_tight(2, 2, 2, 25.0, 1.0, 0.3),
     "infinity_value 1.0 is below the largest potential magnitude"),
    # numpy's uniform draw overflows on a non-finite width
    *((lambda r=r: M.generate_grid(2, 2, 2, law="uniform_sym", radius=r),
       "radius must be positive for uniform_sym, with 2 * radius finite") for r in (math.nan, math.inf, 1e308)),
    # a non-finite margin or infinity value used to reach the model's table check
    *((lambda x=x: M.generate_lp_tight(2, 2, 2, x, 1e4, 0.3), "margin must be positive and finite")
      for x in (math.nan, math.inf)),
    *((lambda x=x: M.generate_lp_tight(2, 2, 2, 25.0, x, 0.3), "infinity_value must be finite")
      for x in (math.nan, math.inf)),
], ids=["grid-size", "radius", "lp-tight-size", "margin", "infinity", "radius-nan", "radius-inf", "radius-1e308",
        "margin-nan", "margin-inf", "infinity-nan", "infinity-inf"])
def test_generators_refuse_bad_arguments(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("radius", [2.0, 8e307])
def test_uniform_sym_draws_unary_then_pairwise(radius):
    # the argument checks draw nothing: theta is the seed's two uniform draws,
    # up to the largest radius whose width is finite
    m = M.generate_grid(3, 4, 3, law="uniform_sym", radius=radius, seed=42)
    rng = np.random.default_rng(42)
    unary = rng.uniform(-radius, radius, (12, 3))
    pairwise = rng.uniform(-radius, radius, (m.n_edges, 3, 3))
    np.testing.assert_array_equal(m.theta, np.concatenate([unary.ravel(), pairwise.ravel()]))


class TestDecomposition:
    def test_two_by_two_split(self):
        m = M.generate_grid(2, 2, 2, seed=0)
        d = M.decompose_grid(m)
        assert len(d.forest(m, 0)) == 2
        assert len(d.forest(m, 1)) == 2

    def test_chain_has_empty_vertical_side(self):
        m = M.generate_grid(1, 5, 2, seed=0)
        d = M.decompose_grid(m)
        assert len(d.forest(m, 0)) == 4
        assert d.forest(m, 1).tolist() == []

    def test_counts(self):
        m = M.generate_grid(3, 4, 2, seed=0)
        d = M.decompose_grid(m)
        assert d.colors.shape == d.edge_counts.shape == (m.n_edges,)
        assert np.all(d.edge_counts == 1)

    def test_partition_and_acyclicity(self):
        m = M.generate_grid(4, 3, 2, seed=1)
        d = M.decompose_grid(m)
        e0, e1 = set(d.forest(m, 0).tolist()), set(d.forest(m, 1).tolist())
        assert e0 | e1 == set(range(m.n_edges)) and not (e0 & e1)
        # explicit acyclicity recheck
        for forest in (e0, e1):
            parent = list(range(m.n_nodes))

            def find(a):
                while parent[a] != a:
                    a = parent[a]
                return a

            for u, v in (m.edges[e] for e in forest):
                ru, rv = find(u), find(v)
                assert ru != rv
                parent[ru] = rv

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2), (5, 8), (30, 30)])
    def test_grid_colors_are_the_row_and_column_paths(self, shape):
        # decompose_grid builds the coloring without peeling it: pin that it
        # needs no check
        rows, cols = shape
        m = M.generate_grid(rows, cols, 2, seed=0)
        d = M.decompose_grid(m)
        for c in (0, 1):
            _forest_rows(m, d.forest(m, c))
        grid = np.arange(rows * cols).reshape(rows, cols)
        row_paths = {(int(u), int(v)) for u, v in zip(grid[:, :-1].ravel(), grid[:, 1:].ravel())}
        column_paths = {(int(u), int(v)) for u, v in zip(grid[:-1].ravel(), grid[1:].ravel())}
        assert {m.edges[e] for e in d.forest(m, 0)} == row_paths
        assert {m.edges[e] for e in d.forest(m, 1)} == column_paths

    @pytest.mark.parametrize("c", [0, 1])
    def test_cyclic_grid_coloring_names_its_forest(self, c):
        m = M.generate_grid(2, 2, 2, seed=0)
        with pytest.raises(StructureError, match=f"forest {c} of the supplied coloring contains a cycle"):
            M.decompose_by_coloring(m, [c] * m.n_edges)

    def test_second_forest_with_a_cycle_is_named(self):
        # a 3x3 grid: forest 0 is a tree plus the isolated node 0, forest 1
        # holds the top-left square and the edge (7, 8)
        m = M.generate_grid(3, 3, 2, seed=0)
        square = {(0, 1), (0, 3), (1, 4), (3, 4), (7, 8)}
        colors = [int(uv in square) for uv in m.edges]
        f0, f1 = (M.Decomposition(colors).forest(m, c) for c in (0, 1))
        _forest_rows(m, f0)
        with pytest.raises(StructureError, match="^forest 1 contains a cycle$"):
            M.ForestPlan(m, f0, f1)
        with pytest.raises(StructureError, match="^forest 1 of the supplied coloring contains a cycle$"):
            M.decompose_by_coloring(m, colors)

    def test_non_grid_requires_coloring(self):
        m = M.MrfModel.create(
            [2, 2, 2],
            [(0, 1), (0, 2), (1, 2)],
            [np.zeros(2)] * 3,
            [np.zeros((2, 2))] * 3,
        )
        with pytest.raises(StructureError):
            M.decompose_grid(m)
        d = M.decompose_by_coloring(m, [0, 1, 1])
        assert [m.edges[e] for e in d.forest(m, 0)] == [(0, 1)]

    def test_cyclic_coloring_rejected(self):
        m = M.MrfModel.create(
            [2, 2, 2],
            [(0, 1), (0, 2), (1, 2)],
            [np.zeros(2)] * 3,
            [np.zeros((2, 2))] * 3,
        )
        with pytest.raises(StructureError):
            M.decompose_by_coloring(m, [0, 0, 0])

    @pytest.mark.parametrize("colors", [
        5, {"a": 1}, [0.0, 1.0, 0.0, 1.0], [0, 2, 0, 1], [0, -1, 0, 1], [[0, 1], [0, 1]], [[0, 1], [0]],
        ["0", "1", "0", "1"],
    ], ids=["scalar", "object", "floats", "two", "negative", "nested", "ragged", "strings"])
    def test_malformed_colorings_rejected(self, colors):
        with pytest.raises(StructureError, match="0s and 1s"):
            M.Decomposition(colors)

    def test_bool_colorings_accepted(self):
        m = M.generate_grid(2, 2, 2, seed=0)
        d = M.decompose_by_coloring(m, [False, True, True, False])
        assert d.colors.tolist() == M.decompose_grid(m).colors.tolist()

    def test_shape_inference_after_io_roundtrip(self, tmp_path):
        m = M.generate_grid(3, 4, 2, seed=5)
        stripped = M.MrfModel.create(m.label_counts, m.edges, m.unary, m.pairwise, grid_shape=None)
        assert M.infer_grid_shape(stripped) == (3, 4)

    def test_shape_inference_matches_the_divisor_search(self):
        # every grid up to 7x7, each of them with one edge removed, and
        # edgeless models; one label per node keeps the tables small
        def shapeless(n, edges):
            return M.MrfModel([1] * n, edges, np.zeros(n + len(edges)))

        cases = [shapeless(n, []) for n in (1, 2, 5)]
        for rows in range(1, 8):
            for cols in range(1, 8):
                edges = M.grid_edges(rows, cols)
                cases += [shapeless(rows * cols, edges)]
                cases += [shapeless(rows * cols, edges[:k] + edges[k + 1:]) for k in range(len(edges))]
        found = [oracles.search_grid_shape(m) for m in cases]
        assert [M.infer_grid_shape(m) for m in cases] == found
        assert found[:3] == [(1, 1), None, None] and found.count(None) > len(cases) // 2


class TestRounding:
    def test_round_trip_through_embedding(self):
        m = M.generate_grid(2, 3, 3, seed=2)
        x = np.array([0, 2, 1, 1, 0, 2])
        np.testing.assert_array_equal(M.round_to_labeling(M.embed_labeling(m, x)), x)

    def test_tie_goes_to_smallest(self):
        mu = M.Marginals.from_blocks(node_blocks=(np.array([0.5, 0.5]),), edge_blocks=())
        assert M.round_to_labeling(mu)[0] == 0

    def test_argmax(self):
        mu = M.Marginals.from_blocks(node_blocks=(np.array([0.2, 0.7, 0.1]),), edge_blocks=())
        assert M.round_to_labeling(mu)[0] == 1

    def test_mixed_counts_with_ties_and_no_nodes(self):
        # entries of -2, -1 and 0 in rows of 1 to 5 labels: many ties, and a
        # zero past a row's labels would win where the -inf padding cannot
        rng = np.random.default_rng(0)
        blocks = [rng.integers(-2, 1, c).astype(float) for c in (1, 5, 2, 4, 3, 1, 5)]
        mu = M.Marginals.from_blocks(blocks, ())
        np.testing.assert_array_equal(M.round_to_labeling(mu), [int(np.argmax(b)) for b in blocks])
        empty = M.Marginals(np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros((0, 2), dtype=np.int64))
        assert M.round_to_labeling(empty).shape == (0,)


class TestFlatStorage:
    def test_block_views_are_built_once(self):
        m = oracles.mixed_label_grid(seed=1)
        mu = M.embed_labeling(m, [1, 4, 2, 3, 0, 1])
        assert mu.node_blocks is mu.node_blocks
        assert mu.edge_blocks is mu.edge_blocks
        assert all(np.shares_memory(b, mu.flat) for b in mu.node_blocks + mu.edge_blocks)
        assert [b.shape for b in mu.edge_blocks] == [p.shape for p in m.pairwise]
        point = M.project_dual(m, np.zeros(m.packing().dual_dim))
        assert point.messages is point.messages
        assert [(a.size, b.size) for a, b in point.messages] == [p.shape for p in m.pairwise]

    def test_model_tables_are_views_of_theta(self):
        # the potentials are stored once: the tables and the packing read theta itself
        m = oracles.mixed_label_grid(seed=2)
        assert m.packing().theta is m.theta and not m.theta.flags.writeable
        assert m.unary is m.unary and m.pairwise is m.pairwise
        assert all(np.shares_memory(t, m.theta) and not t.flags.writeable for t in m.unary + m.pairwise)
        np.testing.assert_array_equal(np.concatenate([t.ravel() for t in m.unary + m.pairwise]), m.theta)

    def test_handed_over_theta_is_kept_and_any_other_copied(self):
        # a read-only float64 vector that owns its data is the builder's to
        # hand over; a writeable one, a view or another dtype is copied
        theta = np.arange(8.0)
        frozen = theta.copy()
        frozen.flags.writeable = False
        assert M.MrfModel([2, 2], [(0, 1)], frozen).theta is frozen
        for other in (theta, frozen[:], theta.astype(np.float32)):
            kept = M.MrfModel([2, 2], [(0, 1)], other).theta
            assert not np.shares_memory(kept, other) and not kept.flags.writeable and kept.flags.owndata
        built = (M.generate_grid(2, 2, 2), M.generate_lp_tight(2, 2, 2, 25.0, 1e6, 0.4, seed=0)[0], two_node_chain())
        assert all(m.theta.flags.owndata and not m.theta.flags.writeable for m in built)

    def test_packing_holds_no_per_cell_map(self):
        # the flat layout is offsets per node and per edge: an index map with
        # one int64 per edge cell would alone spend 8 bytes a cell
        m = M.generate_grid(100, 100, 4)
        tracemalloc.start()
        try:
            packing = m.packing()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert packing.edge_dim == 316800
        assert held <= peak <= 8 * packing.edge_dim

    def test_edge_stack_holds_one_copy_of_the_costs(self):
        # the stacked theta is the stack's only copy of the edge costs: the
        # cells' costs, flat positions and mask take 17 bytes a cell, the dual
        # rows' index and gather about 8, 29 in all; a second copy of the
        # costs for the exact solver would add 8 more
        packing = M.generate_grid(100, 100, 4).packing()
        tracemalloc.start()
        try:
            stack = packing.edge_stack
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        cells = sum(run.real.size for run in stack.runs)
        assert cells == packing.edge_dim
        assert held <= 32 * cells

    def test_blocks_of_the_wrong_shape_are_rejected(self):
        m = oracles.mixed_label_grid(seed=1)
        mu = M.embed_labeling(m, [0] * 6)
        swapped = M.Marginals.from_blocks(mu.node_blocks, [b.T for b in mu.edge_blocks])
        with pytest.raises(ValueError):
            M.relaxed_energy(m, swapped)
        short = M.Marginals.from_blocks(mu.node_blocks[:-1], mu.edge_blocks)
        with pytest.raises(ValueError):
            M.constraint_residual(m, short)


def _array_holders():
    m = M.generate_grid(2, 2, 2, seed=0)
    p = M.TransportProblem(m.pairwise[0], [0.5, 0.5], [0.3, 0.7])
    return {
        "MrfModel": lambda: m,
        "Packing": m.packing,
        "Marginals": lambda: M.embed_labeling(m, [0, 1, 1, 0]),
        "DualPoint": lambda: M.project_dual(m, np.zeros(m.packing().dual_dim)),
        "Decomposition": lambda: M.decompose_grid(m),
        "TransportProblem": lambda: p,
        "TransportResult": lambda: M.solve_transport(p),
        "EntropicTransportResult": lambda: M.solve_transport_entropic(p, 1.0, 1, p.row_marginal, p.col_marginal),
        "SolverReport": lambda: M.solve_fpd(m, M.SolverConfig(max_iters=20, epoch=20)),
    }


@pytest.mark.parametrize("name", list(_array_holders()))
def test_array_holders_compare_and_hash_by_identity(name):
    # a generated __eq__ would compare array fields and raise, and its __hash__ would fail
    x = _array_holders()[name]()
    assert type(x).__name__ == name
    assert x == x
    assert hash(x) == hash(x)
