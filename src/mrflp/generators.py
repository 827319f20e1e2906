"""Seeded instance generators for grid models.

Both generators draw from ``numpy.random.default_rng(seed)`` in a fixed
order (all unary tables first, then all pairwise tables in canonical edge
order, then any extras), so instances are bit-reproducible for a seed.
"""

from __future__ import annotations

import numpy as np

from .model import MrfModel, grid_edges


def generate_grid(
    rows: int,
    cols: int,
    labels: int,
    law: str = "uniform01",
    radius: float = 1.0,
    seed: int = 0,
) -> MrfModel:
    """4-connected grid with i.i.d. potentials.

    ``law`` is ``"uniform01"`` (entries in [0, 1)) or ``"uniform_sym"``
    (entries in [-radius, radius), for ``radius > 0`` with finite ``2 * radius``).
    """
    if rows < 1 or cols < 1 or labels < 1:
        raise ValueError("rows, cols and labels must be positive")
    rng = np.random.default_rng(seed)

    def draw(shape):
        if law == "uniform01":
            return rng.random(shape)
        if law == "uniform_sym":
            if not (radius > 0 and np.isfinite(2.0 * radius)):
                raise ValueError(f"radius must be positive for uniform_sym, with 2 * radius finite, not {radius!r}")
            return rng.uniform(-radius, radius, shape)
        raise ValueError(f"unknown potential law {law!r}")

    edges = grid_edges(rows, cols)
    # (n, L) unary and (m, L, L) pairwise draws, row-major, are theta's layout
    theta = np.concatenate([draw((rows * cols, labels)).ravel(), draw((len(edges), labels, labels)).ravel()])
    return MrfModel([labels] * rows * cols, edges, theta, grid_shape=(rows, cols))


def generate_lp_tight(
    rows: int,
    cols: int,
    labels: int,
    margin: float,
    infinity_value: float,
    forbidden_fraction: float,
    seed: int = 0,
) -> tuple[MrfModel, np.ndarray]:
    """Grid instance with a planted labeling that the LP relaxation attains.

    Potentials are uniform in [-10, 10]; the planted labeling's unary and
    pairwise entries are lowered by ``margin``.  A ``margin`` above the
    potential range (20) makes every planted entry the strict minimum of its
    table, which forces the relaxation to be tight at the planted point;
    smaller margins usually work and can be checked per instance.  A random
    ``forbidden_fraction`` of the pairwise entries off the planted labeling
    are then set to ``infinity_value``, imitating hard constraints by large
    finite numbers.  ``margin`` and ``infinity_value`` must be finite.
    """
    if rows < 1 or cols < 1 or labels < 1:
        raise ValueError("rows, cols and labels must be positive")
    if not 0 < margin < np.inf:
        raise ValueError(f"margin must be positive and finite, not {margin!r}")
    if not np.isfinite(infinity_value):
        raise ValueError(f"infinity_value must be finite, not {infinity_value!r}")
    if not 0.0 <= forbidden_fraction <= 1.0:
        raise ValueError("forbidden_fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    n = rows * cols
    edges = grid_edges(rows, cols)
    unary = rng.uniform(-10.0, 10.0, (n, labels))
    pairwise = rng.uniform(-10.0, 10.0, (len(edges), labels, labels))
    planted = rng.integers(0, labels, n)
    forbid = rng.random((len(edges), labels, labels)) < forbidden_fraction

    unary[np.arange(n), planted] -= margin
    planted_cells = (np.arange(len(edges)), *planted[np.array(edges, dtype=np.int64).reshape(-1, 2).T])
    pairwise[planted_cells] -= margin
    forbid[planted_cells] = False
    top = max(float(np.max(np.abs(unary))), float(np.max(np.abs(pairwise), initial=0.0)))
    if infinity_value < top:
        raise ValueError(
            f"infinity_value {infinity_value} is below the largest potential magnitude {top:.3f}"
        )
    pairwise[forbid] = infinity_value
    model = MrfModel([labels] * n, edges, np.concatenate([unary.ravel(), pairwise.ravel()]), grid_shape=(rows, cols))
    return model, planted.astype(np.int64)
