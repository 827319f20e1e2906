"""File formats: UAI models, JSON marginals/dual points, CSV convergence logs.

Models are stored in the UAI pairwise text format with energy tables
(min-sum convention), flagged by a leading comment.  A marginals file holds
a full local-polytope point, its node and its edge blocks; a file without
edge blocks is rejected.  Floats are written with ``repr`` so that
write -> read -> write is byte-identical.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from ._packing import segment_arange
from .errors import StructureError
from .model import ConvergenceRecord, DualPoint, Marginals, MrfModel

CSV_HEADER = [
    "iter", "time_s", "dual_bound", "primal_bound", "integer_bound", "gap", "rho",
    "smoothed_gap", "projected_energy",
]


def _fmt(x: float) -> str:
    return repr(float(x))


def write_uai(model: MrfModel, path) -> None:
    lines = ["# min-sum energies: tables are energies, lower is better"]
    if model.grid_shape is not None:
        lines.append(f"# grid {model.grid_shape[0]} {model.grid_shape[1]}")
    lines += ["MARKOV", str(model.n_nodes), " ".join(map(str, model.label_counts)), str(model.n_nodes + model.n_edges)]
    lines += [f"1 {v}" for v in range(model.n_nodes)] + [f"2 {u} {v}" for u, v in model.edges] + [""]
    theta = model.theta.tolist()
    sizes = [*model.label_counts, *(model.label_counts[u] * model.label_counts[v] for u, v in model.edges)]
    for size, stop in zip(sizes, np.cumsum(sizes).tolist()):
        lines += [str(size), " ".join(map(_fmt, theta[stop - size : stop]))]
    Path(path).write_text("\n".join(lines) + "\n")


def _token(tokens: list[str], pos: int) -> str:
    if pos >= len(tokens):
        raise StructureError("unexpected end of model file")
    return tokens[pos]


def read_uai(path) -> MrfModel:
    """Parse a pairwise UAI model; factors of arity three or more are rejected.

    Multiple factors on the same scope accumulate.  A ``# grid R C`` comment
    restores the generator's grid shape.  The scopes and the tables are each
    converted by one numpy call.
    """
    grid_shape = None
    tokens: list[str] = []
    for line in Path(path).read_text().splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            parts = stripped[1:].split()
            if len(parts) == 3 and parts[0] == "grid":
                grid_shape = (int(parts[1]), int(parts[2]))
            continue
        tokens.extend(stripped.split())

    preamble = _token(tokens, 0)
    if preamble.upper() != "MARKOV":
        raise StructureError(f"unsupported network type {preamble!r}; expected MARKOV")
    n = int(_token(tokens, 1))
    if n < 1:
        raise StructureError("model needs at least one variable")
    n_factors = int(_token(tokens, 2 + n))
    if n_factors < 0:
        raise StructureError(f"negative factor count {n_factors}")
    counts = np.array(tokens[2 : 2 + n], dtype=np.int64)
    if np.any(counts < 1):
        raise StructureError("variable cardinalities must be positive")
    scope_start = pos = 3 + n
    arity = []
    for _ in range(n_factors):
        arity.append(int(_token(tokens, pos)))
        if arity[-1] not in (1, 2):
            raise StructureError(f"factor of arity {arity[-1]} found; only pairwise models are supported")
        pos += 1 + arity[-1]
    _token(tokens, pos - 1)  # the last scope is complete
    arity = np.array(arity, dtype=np.int64)
    # the scope section is each factor's arity, then its variables
    arity_at = np.cumsum(arity + 1) - arity - 1
    scope_vars = np.delete(np.array(tokens[scope_start:pos], dtype=np.int64), arity_at)
    unknown = np.flatnonzero((scope_vars < 0) | (scope_vars >= n))
    if unknown.size:
        raise StructureError(f"factor scope references unknown variable {scope_vars[unknown[0]]}")
    # a unary factor's scope is (a, a) here
    first = arity_at - np.arange(arity.size)
    a, b = scope_vars[first], scope_vars[first + arity - 1]
    pair = arity == 2
    repeats = np.flatnonzero(pair & (a == b))
    if repeats.size:
        raise StructureError(f"factor scope repeats variable {a[repeats[0]]}")

    # factor k's table is its declared size, then its entries
    la, lb = counts[a], np.where(pair, counts[b], 1)
    sizes = la * lb
    heads = pos + np.arange(arity.size) + np.cumsum(sizes) - sizes
    for k, (head, size) in enumerate(zip(heads.tolist(), sizes.tolist())):
        declared = int(_token(tokens, head))
        if declared != size:
            scope = tuple(scope_vars[first[k] : first[k] + arity[k]].tolist())
            raise StructureError(f"factor on {scope} declares {declared} entries, expected {size}")
    end = pos + arity.size + int(sizes.sum())
    _token(tokens, end - 1)  # the last table is complete
    values = np.delete(np.array(tokens[pos:end], dtype=np.float64), heads - pos)
    if end != len(tokens):
        raise StructureError("trailing tokens after the last factor table")

    # theta's blocks: one per node, then one per distinct pairwise scope in
    # canonical order; a table from the larger node to the smaller transposes
    keys = np.minimum(a, b) * n + np.maximum(a, b)
    edge_keys = keys[pair][np.lexsort((keys[pair],))]
    edge_keys = edge_keys[np.diff(edge_keys, prepend=-1) != 0]  # keys are >= 0
    blocks = np.concatenate([counts, counts[edge_keys // n] * counts[edge_keys % n]])
    base = (np.cumsum(blocks) - blocks)[np.where(pair, n + np.searchsorted(edge_keys, keys), a)]
    row, col = np.divmod(segment_arange(sizes), np.repeat(lb, sizes))
    offset = np.where(np.repeat(a > b, sizes), col * np.repeat(la, sizes) + row, row * np.repeat(lb, sizes) + col)
    # every edge has a factor: from -0.0, a lone table's zeros keep their
    # sign, while node entries without a factor stay +0.0
    theta = np.concatenate([np.zeros(counts.sum()), np.full(blocks[n:].sum(), -0.0)])
    np.add.at(theta, np.repeat(base, sizes) + offset, values)
    return MrfModel(counts, np.stack(np.divmod(edge_keys, n), axis=1), theta, grid_shape)


def write_labeling(labeling, path) -> None:
    Path(path).write_text(" ".join(str(int(x)) for x in labeling) + "\n")


def read_labeling(path) -> np.ndarray:
    return np.array([int(t) for t in Path(path).read_text().split()], dtype=np.int64)


def write_marginals(marginals: Marginals, path) -> None:
    doc = {
        "schema_version": 1,
        "node_blocks": [b.tolist() for b in marginals.node_blocks],
        "edge_blocks": [b.tolist() for b in marginals.edge_blocks],
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def _entry(doc, key: str, kind: type = object):
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"JSON object with the key {key!r} expected")
    if not isinstance(doc[key], kind):
        raise ValueError(f"{key!r} must be a {kind.__name__}, not {type(doc[key]).__name__}")
    return doc[key]


def read_marginals(path) -> Marginals:
    doc = json.loads(Path(path).read_text())
    return Marginals.from_blocks(_entry(doc, "node_blocks", list), _entry(doc, "edge_blocks", list))


def write_dual_point(model: MrfModel, point: DualPoint, path) -> None:
    doc = {
        "schema_version": 1,
        "node_bounds": point.node_bounds.tolist(),
        "edge_bounds": point.edge_bounds.tolist(),
        "messages": [
            {"edge": [u, v], "from_u": point.messages[e][0].tolist(), "from_v": point.messages[e][1].tolist()}
            for e, (u, v) in enumerate(model.edges)
        ],
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def read_dual_point(path, edges=None) -> DualPoint:
    """Dual point with each message pair placed by its ``edge`` key, an edge
    ``[u, v]`` with ``u < v``, listed once: pairs are ordered by key, which
    is the edge order of a model with exactly these edges (models keep their
    edges sorted).  With ``edges`` (a model's), the keys must be those."""
    doc = json.loads(Path(path).read_text())
    pairs = {}
    for m in _entry(doc, "messages", list):
        key = tuple(_entry(m, "edge", list))
        if len(key) != 2 or any(type(x) is not int for x in key) or key[0] >= key[1] or key in pairs:
            raise StructureError(f"message key {list(key)} is not an edge [u, v] with u < v, listed once")
        pairs[key] = (_entry(m, "from_u"), _entry(m, "from_v"))
    keys = sorted(pairs)
    if edges is not None and keys != list(edges):
        odd = min(set(keys) ^ set(edges))
        problem = "is not an edge of the model" if odd in pairs else "has no message"
        raise StructureError(f"dual point: edge {list(odd)} {problem}")
    return DualPoint.from_blocks(_entry(doc, "node_bounds"), _entry(doc, "edge_bounds"), [pairs[k] for k in keys])


def _fmt_optional(x) -> str:
    return "" if x is None else _fmt(x)


def _parse_optional(field: str):
    return None if field == "" else float(field)


def write_convergence_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow(
                [r.iteration]
                + [_fmt(x) for x in (r.time_s, r.dual_bound, r.primal_bound, r.integer_bound, r.gap)]
                + [_fmt_optional(x) for x in (r.rho, r.smoothed_gap, r.projected_energy)]
            )


def read_convergence_csv(path) -> list[ConvergenceRecord]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise StructureError(f"unexpected CSV header {header}")
        for row in reader:
            if len(row) != len(header):
                raise StructureError(f"CSV row has {len(row)} fields, expected {len(header)}")
            # columns follow the ConvergenceRecord field order
            out.append(
                ConvergenceRecord(
                    int(row[0]),
                    *(float(x) for x in row[1:6]),
                    *(_parse_optional(x) for x in row[6:]),
                )
            )
    return out


def write_summary(summary: dict, path) -> None:
    doc = {"schema_version": 1, **summary}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_summary(path) -> dict:
    return json.loads(Path(path).read_text())
