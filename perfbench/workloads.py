"""The benchmark's four fixed workloads: seeded instances and solver settings.

Each workload names an instance family, the solver that runs on it and the
fixed iteration count of one solve.  Instances are generated here from the
benchmark seed and reach the program only as a UAI file (plus, for the
non-grid model, the edge coloring that splits it into two forests).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from mrflp import MrfModel, SolverConfig, generate_grid, generate_lp_tight


@dataclasses.dataclass(frozen=True)
class Instance:
    model: MrfModel
    # edge -> forest index for non-grid models; None means decompose_grid
    forest_of_edge: dict | None


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    solver: str                      # "fpd" or "nest"
    cfg: SolverConfig
    build: object                    # (seed, tiny) -> Instance


def random_two_forest_model(n: int, seed: int) -> Instance:
    """Two edge-disjoint random recursive trees over the same ``n`` nodes.

    Label counts run from 2 to 5, so edge tables come in many
    ``(L_u, L_v)`` shapes and most tree components are neither paths nor
    single-count, which sends the forest DP down its generic per-node path.
    """
    rng = np.random.default_rng(seed)
    # each count 2..5 on a quarter of the nodes, so seeds differ in layout,
    # not in the amount of work
    counts = rng.permutation(np.arange(n) % 4 + 2)
    unary = [rng.random(int(c)) for c in counts]
    first: set[tuple[int, int]] = set()
    forests: list[list[tuple[int, int]]] = [[], []]
    for side in (0, 1):
        order = rng.permutation(n)
        for i in range(1, n):
            v = int(order[i])
            # a few retries keep the second tree edge-disjoint from the first;
            # a node whose earlier candidates all collide is left as a root
            for _ in range(8):
                u = int(order[rng.integers(0, i)])
                edge = (min(u, v), max(u, v))
                if edge not in first:
                    forests[side].append(edge)
                    if side == 0:
                        first.add(edge)
                    break
    edges = forests[0] + forests[1]
    pairwise = [rng.random((int(counts[u]), int(counts[v]))) for u, v in edges]
    model = MrfModel.create(label_counts=counts, edges=edges, unary=unary, pairwise=pairwise)
    forest_of_edge = {e: 0 for e in forests[0]}
    forest_of_edge.update({e: 1 for e in forests[1]})
    return Instance(model=model, forest_of_edge=forest_of_edge)


def _grid(rows: int, labels: int):
    def build(seed: int, tiny: bool) -> Instance:
        r = 4 if tiny else rows
        return Instance(generate_grid(r, r, labels, law="uniform01", seed=seed), None)
    return build


def _forest(n: int):
    def build(seed: int, tiny: bool) -> Instance:
        return random_two_forest_model(12 if tiny else n, seed)
    return build


def permute_labels(model: MrfModel, seed: int) -> MrfModel:
    """The same model with each node's labels in a seeded random order."""
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(int(c)) for c in model.label_counts]
    return MrfModel.create(
        label_counts=model.label_counts,
        edges=model.edges,
        unary=[t[perms[v]] for v, t in enumerate(model.unary)],
        pairwise=[t[np.ix_(perms[u], perms[v])] for t, (u, v) in zip(model.pairwise, model.edges)],
        grid_shape=model.grid_shape,
    )


def _grid_relabeled(rows: int, labels: int):
    # One instance, generator seed 0, that the benchmark seed relabels.  The
    # entropic projection's work depends on the instance: over generator
    # seeds 1-4 of the 16x16x4 grid, one solve took 129k to 142k scaling
    # iterations.  Across benchmark seeds that showed as noise in solve_s.
    # Relabeling changes the tables but not the scaling iterations.
    def build(seed: int, tiny: bool) -> Instance:
        r = 4 if tiny else rows
        model = generate_grid(r, r, labels, law="uniform01", seed=0)
        return Instance(permute_labels(model, seed), None)
    return build


def _tight(rows: int):
    # The paper's instance is generator seed 0 (run_infinity_scaling's
    # default).  The benchmark seed relabels it instead of drawing another
    # instance: on this family the gap is round-off from the first epoch, and
    # the sign of that round-off decides whether nest stops at iteration 0 or
    # runs to max_iters (see NOTES.md), so other instances would mix two run
    # lengths.  Relabeling keeps every sum in the same order, hence the same
    # round-off, while changing the input tables and the simplex pivot order.
    def build(seed: int, tiny: bool) -> Instance:
        r = 4 if tiny else rows
        model, _ = generate_lp_tight(
            r, r, 3, margin=25.0, infinity_value=1e6, forbidden_fraction=0.4, seed=0
        )
        return Instance(permute_labels(model, seed), None)
    return build


# Why each workload exists is recorded in BENCHMARK.json; the iteration
# counts keep one solve at a few seconds, so a run holds several solves.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-fpd", "fpd", SolverConfig(max_iters=40, epoch=20), _grid(30, 4)),
        # epoch = max_iters: only the first and last iterates are projected
        Workload(
            "forest-nest", "nest",
            SolverConfig(max_iters=30, epoch=30, rho=0.1, log_smoothed_gap=False),
            _forest(500),
        ),
        # as `mrflp experiment gap-convergence` runs nest; rho halves after
        # epoch 20.  With 3 labels the rounded labelings beat the projected
        # point on about half the seeds, which made rel_gap bimodal (quartile
        # spread 23% of the median over 10 seeds); with 4 labels it is 4-7%.
        Workload(
            "grid-smooth", "nest",
            SolverConfig(max_iters=40, epoch=20, rho=0.1, rho_schedule="halving"),
            _grid_relabeled(10, 4),
        ),
        # as run_infinity_scaling runs nest
        Workload(
            "tight-nest", "nest",
            SolverConfig(max_iters=80, epoch=20, rho=2.0, log_smoothed_gap=False),
            _tight(20),
        ),
    )
}
