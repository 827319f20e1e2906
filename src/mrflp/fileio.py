"""File formats: UAI models, JSON marginals/dual points, CSV convergence logs.

Models are stored in the UAI pairwise text format with energy tables
(min-sum convention), flagged by a leading comment.  Floats are written with
``repr`` so that write -> read -> write is byte-identical.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import StructureError
from .model import ConvergenceRecord, DualPoint, Marginals, MrfModel

CSV_HEADER = [
    "iter", "time_s", "dual_bound", "primal_bound", "integer_bound", "gap", "rho",
    "smoothed_gap", "projected_energy",
]
# logs written before the last two columns existed still read, with them None
_CSV_HEADER_V1 = CSV_HEADER[:7]


def _fmt(x: float) -> str:
    return repr(float(x))


def write_uai(model: MrfModel, path) -> None:
    lines = ["# min-sum energies: tables are energies, lower is better"]
    if model.grid_shape is not None:
        lines.append(f"# grid {model.grid_shape[0]} {model.grid_shape[1]}")
    lines.append("MARKOV")
    lines.append(str(model.n_nodes))
    lines.append(" ".join(str(c) for c in model.label_counts))
    lines.append(str(model.n_nodes + model.n_edges))
    for v in range(model.n_nodes):
        lines.append(f"1 {v}")
    for u, v in model.edges:
        lines.append(f"2 {u} {v}")
    lines.append("")
    for v in range(model.n_nodes):
        lines.append(str(model.label_counts[v]))
        lines.append(" ".join(_fmt(x) for x in model.unary[v]))
    for e in range(model.n_edges):
        table = model.pairwise[e]
        lines.append(str(table.size))
        lines.append(" ".join(_fmt(x) for x in table.ravel()))
    Path(path).write_text("\n".join(lines) + "\n")


def read_uai(path) -> MrfModel:
    """Parse a pairwise UAI model; factors of arity three or more are rejected.

    Multiple factors on the same scope accumulate.  A ``# grid R C`` comment
    restores the generator's grid shape.
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
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise StructureError("unexpected end of model file")
        pos += 1
        return tokens[pos - 1]

    preamble = take()
    if preamble.upper() != "MARKOV":
        raise StructureError(f"unsupported network type {preamble!r}; expected MARKOV")
    n = int(take())
    if n < 1:
        raise StructureError("model needs at least one variable")
    counts = [int(take()) for _ in range(n)]
    if any(c < 1 for c in counts):
        raise StructureError("variable cardinalities must be positive")
    n_factors = int(take())
    scopes: list[tuple[int, ...]] = []
    for _ in range(n_factors):
        arity = int(take())
        if arity not in (1, 2):
            raise StructureError(f"factor of arity {arity} found; only pairwise models are supported")
        scope = tuple(int(take()) for _ in range(arity))
        for v in scope:
            if not 0 <= v < n:
                raise StructureError(f"factor scope references unknown variable {v}")
        if arity == 2 and scope[0] == scope[1]:
            raise StructureError(f"factor scope repeats variable {scope[0]}")
        scopes.append(scope)

    unary = [np.zeros(c) for c in counts]
    pairwise: dict[tuple[int, int], np.ndarray] = {}
    for scope in scopes:
        want = 1
        for v in scope:
            want *= counts[v]
        declared = int(take())
        if declared != want:
            raise StructureError(f"factor on {scope} declares {declared} entries, expected {want}")
        values = np.array([float(take()) for _ in range(want)])
        if len(scope) == 1:
            unary[scope[0]] += values
        else:
            a, b = scope
            table = values.reshape(counts[a], counts[b])
            if a > b:
                a, b, table = b, a, table.T
            if (a, b) in pairwise:
                pairwise[(a, b)] = pairwise[(a, b)] + table
            else:
                pairwise[(a, b)] = table
    if pos != len(tokens):
        raise StructureError("trailing tokens after the last factor table")
    edges = sorted(pairwise)
    return MrfModel.create(
        label_counts=counts,
        edges=edges,
        unary=unary,
        pairwise=[pairwise[e] for e in edges],
        grid_shape=grid_shape,
    )


def write_labeling(labeling, path) -> None:
    Path(path).write_text(" ".join(str(int(x)) for x in labeling) + "\n")


def read_labeling(path) -> np.ndarray:
    return np.array([int(t) for t in Path(path).read_text().split()], dtype=np.int64)


def write_marginals(marginals: Marginals, path) -> None:
    doc = {
        "schema_version": 1,
        "node_blocks": [b.tolist() for b in marginals.node_blocks],
        "edge_blocks": None
        if marginals.edge_blocks is None
        else [b.tolist() for b in marginals.edge_blocks],
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def _entry(doc, key: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"JSON object with the key {key!r} expected")
    return doc[key]


def read_marginals(path) -> Marginals:
    doc = json.loads(Path(path).read_text())
    return Marginals.from_blocks(_entry(doc, "node_blocks"), doc.get("edge_blocks"))


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


def read_dual_point(path) -> DualPoint:
    doc = json.loads(Path(path).read_text())
    messages = [(_entry(m, "from_u"), _entry(m, "from_v")) for m in _entry(doc, "messages")]
    return DualPoint.from_blocks(_entry(doc, "node_bounds"), _entry(doc, "edge_bounds"), messages)


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
        if header not in (CSV_HEADER, _CSV_HEADER_V1):
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
