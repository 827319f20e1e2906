"""File formats: UAI models, JSON marginals/dual points, CSV convergence logs.

Models are stored in the UAI pairwise text format with energy tables
(min-sum convention), flagged by a leading comment.  Both directions
stream: the reader takes a model file in windows of about a megabyte, cut
at whitespace, and adds each window's table entries into ``theta`` before
it reads the next, so its memory beyond the model stays near one window;
the writer writes one table at a time.  A marginals file holds a full
local-polytope point, its node and its edge blocks; a file without edge
blocks is rejected.  Floats are written with ``repr`` so that
write -> read -> write is byte-identical.
"""

from __future__ import annotations

import csv
import itertools
import json
import re
from pathlib import Path

import numpy as np

from .errors import StructureError
from .model import ConvergenceRecord, DualPoint, Marginals, MrfModel

CSV_HEADER = [
    "iter", "time_s", "dual_bound", "primal_bound", "integer_bound", "gap", "rho",
    "smoothed_gap", "projected_energy",
]


# the reader takes about this many characters of the file at a time.  The
# window also sets glibc's dynamic mmap threshold for the rest of the process:
# freeing a window's buffers raises it above the solvers' 100-250 KB
# temporaries, which then come from the heap.  With 1 << 16 the temporaries
# stay mmapped and page-fault on every allocation: on a 30x30x4 fpd solve
# peak RSS fell 2.4 MB but the solve took 5-8% longer, unless both
# MALLOC_MMAP_THRESHOLD_ and MALLOC_TRIM_THRESHOLD_ were pinned
_WINDOW = 1 << 20
# str.splitlines' line boundaries: a comment line runs up to the next one
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAK = re.compile(f"[{_LINE_BREAKS}]")


def _fmt(x: float) -> str:
    return repr(float(x))


def write_uai(model: MrfModel, path) -> None:
    """Write ``model`` one section, and one table, at a time."""
    counts, theta = model.label_counts, model.theta
    with open(path, "w") as fh:
        fh.write("# min-sum energies: tables are energies, lower is better\n")
        if model.grid_shape is not None:
            fh.write(f"# grid {model.grid_shape[0]} {model.grid_shape[1]}\n")
        fh.write(f"MARKOV\n{model.n_nodes}\n{' '.join(map(str, counts))}\n{model.n_nodes + model.n_edges}\n")
        fh.writelines(f"1 {v}\n" for v in range(model.n_nodes))
        fh.writelines(f"2 {u} {v}\n" for u, v in model.edges)
        fh.write("\n")
        start = 0
        for size in itertools.chain(counts, (counts[u] * counts[v] for u, v in model.edges)):
            fh.write(f"{size}\n{' '.join(map(_fmt, theta[start : start + size].tolist()))}\n")
            start += size


def _starts_line(text: str, p: int, fresh: bool) -> bool:
    """Whether only whitespace precedes ``text[p]`` on its line; ``fresh``
    says whether that holds at ``text[0]``."""
    while p and text[p - 1].isspace() and text[p - 1] not in _LINE_BREAKS:
        p -= 1
    return text[p - 1] in _LINE_BREAKS if p else fresh


class _Tokens:
    """The whitespace-separated tokens of an open UAI file, one window of
    about ``_WINDOW`` characters at a time.

    A window ends at whitespace; the partial token after it starts the next
    one.  Comment lines (first non-blank character ``#``) are dropped, and
    the last ``# grid R C`` among them sets :attr:`grid_shape`.
    """

    def __init__(self, fh):
        self._fh = fh
        self._rest = ""  # read, not yet tokenized
        self._fresh = True  # only whitespace since the last line break before _rest
        self._eof = False
        self._tokens: list[str] = []
        self._at = 0  # the next token of the current window
        self.grid_shape = None

    def _read(self) -> str:
        chunk = self._fh.read(_WINDOW)
        self._eof = not chunk
        return chunk

    def _next_window(self) -> list[str]:
        text = self._rest + self._read()
        tokens, start, p = [], 0, text.find("#")
        while p >= 0:
            if _starts_line(text, p, self._fresh):
                # a comment line: its end may lie in the windows after this one
                while (stop := _LINE_BREAK.search(text, p)) is None and not self._eof:
                    text += self._read()
                end = len(text) if stop is None else stop.start()
                words = text[p + 1 : end].split()
                if len(words) == 3 and words[0] == "grid":
                    self.grid_shape = (int(words[1]), int(words[2]))
                tokens += text[start:p].split()
                start = end
            p = text.find("#", max(p + 1, start))
        tokens += text[start:].split()
        # a token running up to the window's end may go on in the next one;
        # a comment ends at a line break, so it is never cut
        whole = self._eof or text[-1].isspace()
        self._rest = "" if whole else tokens.pop()
        self._fresh = _starts_line(text, len(text) - len(self._rest), self._fresh)
        return tokens

    def _fill(self) -> bool:
        """Whether a token is left, reading windows until one is."""
        while self._at == len(self._tokens) and not self._eof:
            self._tokens = []  # the old window goes before the next is read
            self._tokens, self._at = self._next_window(), 0
        return self._at < len(self._tokens)

    def next(self, limit: int) -> list[str]:
        """The next 1 to ``limit`` tokens, all from one window; past the
        last token, a :class:`StructureError`."""
        if not self._fill():
            raise StructureError("unexpected end of model file")
        tokens = self._tokens[self._at : self._at + limit]
        self._at += len(tokens)
        return tokens

    def back(self, k: int) -> None:
        """Put back the last ``k`` tokens that :meth:`next` returned."""
        self._at -= k

    def take(self, k: int) -> list[str]:
        """The next ``k`` tokens, across windows."""
        tokens = []
        while len(tokens) < k:
            tokens += self.next(k - len(tokens))
        return tokens

    def at_end(self) -> bool:
        return not self._fill()


def _arity(token: str) -> int:
    arity = int(token)
    if arity not in (1, 2):
        raise StructureError(f"factor of arity {arity} found; only pairwise models are supported")
    return arity


def _read_scopes(stream: _Tokens, n_factors: int) -> np.ndarray:
    """Each factor's arity, first and last variable, ``(3, n_factors)``."""
    parts = [np.empty((3, 0), dtype=np.int64)]
    left = n_factors
    while left:
        tokens = stream.next(3 * left)
        # the heads (arity tokens) of the factors that start in this window
        heads, pos, end = [], 0, len(tokens)
        for _ in range(left):
            if pos >= end:
                break
            heads.append(pos)
            t = tokens[pos]
            pos += 2 if t == "1" else 3 if t == "2" else 1 + _arity(t)
        if pos < end:
            stream.back(end - pos)
            del tokens[pos:]
        else:  # the last factor may go on in the next window
            tokens += stream.take(pos - end)
        values = np.array(tokens, dtype=np.int64)
        at = np.array(heads, dtype=np.int64)
        parts.append(np.stack([values[at], values[at + 1], values[at + values[at]]]))
        left -= len(heads)
    return np.concatenate(parts, axis=1)


def _read_tables(stream: _Tokens, counts: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The edge keys ``u * n + v`` and ``theta`` from the table section, one
    window at a time; factors on the same scope accumulate in file order.
    A unary factor's first and last variable ``a`` and ``b`` are the same,
    a pairwise one's differ."""
    n, pair = counts.size, a != b
    # theta's blocks: one per node, then one per distinct pairwise scope in
    # canonical order; a table from the larger node to the smaller transposes
    la, lb = counts[a], np.where(pair, counts[b], 1)
    sizes = la * lb
    keys = np.minimum(a, b) * n + np.maximum(a, b)
    edge_keys = np.sort(keys[pair])
    edge_keys = edge_keys[np.diff(edge_keys, prepend=-1) != 0]  # keys are >= 0
    blocks = np.concatenate([counts, counts[edge_keys // n] * counts[edge_keys % n]])
    base = (np.cumsum(blocks) - blocks)[np.where(pair, n + np.searchsorted(edge_keys, keys), a)]
    # the section is each factor's declared size, then its entries; entry e
    # of the section goes to theta[e + shift] unless its table transposes
    entry_start = np.cumsum(sizes) - sizes
    size_at = entry_start + np.arange(a.size)
    shift, flipped = base - entry_start, a > b
    # every edge has a factor: from -0.0, a lone table's zeros keep their
    # sign, while node entries without a factor stay +0.0
    theta = np.concatenate([np.zeros(counts.sum()), np.full(blocks[n:].sum(), -0.0)])

    # a function, so that one window's tokens and arrays are freed before
    # the next window is read
    def add(tokens: list[str], w0: int) -> int:
        """Check the window ``tokens``, which starts at token ``w0`` of the
        section, and add its entries into ``theta``; where the next window
        starts."""
        k0, k1 = np.searchsorted(size_at, [w0, w0 + len(tokens)])
        at = size_at[k0:k1] - w0
        declared = np.array([tokens[i] for i in at.tolist()], dtype=np.int64)
        wrong = np.flatnonzero(declared != sizes[k0:k1])
        if wrong.size:
            k = k0 + wrong[0]
            scope = (int(a[k]), int(b[k])) if pair[k] else (int(a[k]),)
            raise StructureError(f"factor on {scope} declares {declared[wrong[0]]} entries, expected {sizes[k]}")
        values = np.delete(np.array(tokens, dtype=np.float64), at)
        e0 = w0 - k0
        e1 = e0 + values.size
        f0, f1 = np.searchsorted(entry_start, e0, side="right") - 1, np.searchsorted(entry_start, e1)
        span = np.minimum(entry_start[f0:f1] + sizes[f0:f1], e1) - np.maximum(entry_start[f0:f1], e0)
        index = np.arange(e0, e1) + np.repeat(shift[f0:f1], span)
        turn = np.flatnonzero(np.repeat(flipped[f0:f1], span))
        k = np.repeat(np.arange(f0, f1), span)[turn]
        row, col = np.divmod(index[turn] - base[k], lb[k])
        index[turn] = base[k] + col * la[k] + row
        np.add.at(theta, index, values)
        return w0 + len(tokens)

    w0, total = 0, a.size + int(sizes.sum())
    while w0 < total:
        w0 = add(stream.next(total - w0), w0)
    return edge_keys, theta


def read_uai(path) -> MrfModel:
    """Parse a pairwise UAI model; factors of arity three or more are rejected.

    Multiple factors on the same scope accumulate.  A ``# grid R C`` comment
    restores the generator's grid shape.  The file is read in windows of
    about a megabyte; each window's scope tokens and its table tokens are
    converted by one numpy call each, and its table entries are added into
    ``theta`` before the next window is read.
    """
    with open(path) as fh:
        stream = _Tokens(fh)
        preamble = stream.next(1)[0]
        if preamble.upper() != "MARKOV":
            raise StructureError(f"unsupported network type {preamble!r}; expected MARKOV")
        n = int(stream.next(1)[0])
        if n < 1:
            raise StructureError("model needs at least one variable")
        counts = np.array(stream.take(n), dtype=np.int64)
        n_factors = int(stream.next(1)[0])
        if n_factors < 0:
            raise StructureError(f"negative factor count {n_factors}")
        if np.any(counts < 1):
            raise StructureError("variable cardinalities must be positive")
        arity, a, b = _read_scopes(stream, n_factors)
        unknown = np.flatnonzero((a < 0) | (a >= n) | (b < 0) | (b >= n))
        if unknown.size:
            k = unknown[0]
            raise StructureError(f"factor scope references unknown variable {a[k] if not 0 <= a[k] < n else b[k]}")
        repeats = np.flatnonzero((arity == 2) & (a == b))
        if repeats.size:
            raise StructureError(f"factor scope repeats variable {a[repeats[0]]}")
        edge_keys, theta = _read_tables(stream, counts, a, b)
        if not stream.at_end():
            raise StructureError("trailing tokens after the last factor table")
    theta.flags.writeable = False  # handed to the model, which keeps it uncopied
    return MrfModel(counts, np.stack(np.divmod(edge_keys, n), axis=1), theta, stream.grid_shape)


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
