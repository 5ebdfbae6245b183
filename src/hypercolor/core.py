"""Data model for k-uniform hypergraphs and their colorings.

Vertices are the integers 0..n-1.  Edges are k-subsets of vertices, stored
as a read-only (m, k) numpy array whose rows are sorted ascending and
ordered lexicographically, so equal hypergraphs have identical storage and
serialize to identical bytes.  The array representation is what lets the
large constructed families (tens of millions of edges) stay workable in a
few hundred MB.  The bulk paths work one column at a time over chunks of
edges, never on per-edge Python objects or (m, k) temporaries: the
predicates gather colors per column and sort each row with a
compare-exchange network over the k columns, and construction checks row
order column by column, sorting only what is out of order.  The public
constructor copies and validates whatever it is given; the package's own
builders whose rows are canonical by construction (the grid generator,
the split-search lifts) hand over their fresh arrays through
``Hypergraph._trusted`` instead, which keeps them without a copy.

Degenerate-instance conventions, used consistently across the package:

* an edgeless hypergraph has no complete coloring for any t (its
  achromatic number is 0), even though the coverage condition would be
  vacuously true for t < k;
* the chromatic number of an edgeless hypergraph is 1 when n >= 1 and 0
  when n = 0;
* a proper coloring of an edgeless hypergraph is any assignment, so
  ``is_proper`` is vacuously true there.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

# Rows per chunk for the bulk paths: 64k rows keep each column's
# temporaries in cache (measured faster than 2M-row chunks).
_CHUNK_ROWS = 1 << 16


class HypergraphError(ValueError):
    """Base class for invalid hypergraph data."""


class DocumentError(HypergraphError):
    """Malformed document: not an object, missing/mistyped fields, bad k or n."""


class UniformityError(HypergraphError):
    """An edge has the wrong number of vertices or repeats a vertex."""


class SimplicityError(HypergraphError):
    """The same edge appears more than once."""


class VertexRangeError(HypergraphError):
    """A vertex id is negative or >= n."""


def _dtype_for(n: int) -> np.dtype:
    # smallest signed type that can hold any id; signed so that
    # intermediate arithmetic in callers cannot silently wrap
    if n <= np.iinfo(np.int16).max:
        return np.dtype(np.int16)
    if n <= np.iinfo(np.int32).max:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def _row_steps(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row after the first: (lexicographically later, equal) than
    the row before it, one column and one chunk of rows at a time."""
    later, equal = [], []
    for sl in _chunks(arr.shape[0] - 1):
        a, b = arr[sl.start + 1:sl.stop + 1], arr[sl]
        gt = a[:, 0] > b[:, 0]
        eq = a[:, 0] == b[:, 0]
        for i in range(1, arr.shape[1]):
            gt |= eq & (a[:, i] > b[:, i])
            eq &= a[:, i] == b[:, i]
        later.append(gt)
        equal.append(eq)
    return np.concatenate(later), np.concatenate(equal)


class Hypergraph:
    """Simple k-uniform hypergraph on vertices 0..n-1.

    Parameters
    ----------
    n : vertex count, >= 0.
    k : edge size, >= 2.
    edges : iterable of k-element vertex collections, or an (m, k) integer
        array.  Vertex order inside an edge does not matter; a repeated
        edge raises :class:`SimplicityError`.
    """

    __slots__ = ("n", "k", "edges", "_tuples", "_masks", "_hash")

    n: int
    k: int
    edges: np.ndarray

    def __init__(self, n: int, k: int,
                 edges: Iterable[Sequence[int]] | np.ndarray):
        if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n < 2 ** 63:
            # ids are stored in at most int64
            raise DocumentError(
                f"vertex count must be a non-negative int below 2**63, got {n!r}")
        if not isinstance(k, int) or isinstance(k, bool) or not 2 <= k < 2 ** 60:
            # numpy cannot shape a row of 2**60 int64 ids
            raise DocumentError(
                f"edge size must be an int >= 2 and below 2**60, got {k!r}")
        arr = self._coerce(n, k, edges)
        self._adopt(n, k, self._canonicalize(n, k, arr))

    @classmethod
    def _trusted(cls, n: int, k: int, arr: np.ndarray) -> "Hypergraph":
        """Wrap an edge array the package has just built, without a copy.

        ``arr`` must be an (m, k) C-contiguous array in ``_dtype_for(n)``
        whose rows are ascending, in range and in strictly increasing
        lexicographic order, and the caller must hold no other reference
        to it: it is marked read-only and stored unchecked.
        """
        H = object.__new__(cls)
        H._adopt(n, k, arr)
        return H

    def _adopt(self, n: int, k: int, arr: np.ndarray) -> None:
        arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "edges", arr)
        object.__setattr__(self, "_tuples", None)
        object.__setattr__(self, "_masks", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    @staticmethod
    def _coerce(n: int, k: int, edges) -> np.ndarray:
        """(m, k) copy in the id dtype; ids are range-checked before the
        narrowing, so a large id cannot wrap into range."""
        if isinstance(edges, np.ndarray):
            if edges.ndim != 2 or (edges.shape[0] > 0 and edges.shape[1] != k):
                raise UniformityError(
                    f"edge array must have shape (m, {k}), got {edges.shape}")
            if not np.issubdtype(edges.dtype, np.integer):
                raise DocumentError("edge array must be integral")
            arr = edges.reshape(-1, k)
        else:
            if not isinstance(edges, (list, tuple)):
                edges = list(edges)
            try:
                arr = np.array(edges)
            except ValueError:  # ragged rows
                arr = np.empty(0)
            if not (arr.ndim == 2 and arr.shape[1] == k
                    and np.issubdtype(arr.dtype, np.integer)):
                # per-row loop: take each id as an exact int, name the first
                # bad row
                rows = []
                for e in edges:
                    try:
                        row = [operator.index(v) for v in e]
                    except TypeError:
                        raise DocumentError(
                            f"edge {e!r} must hold integer vertex ids") from None
                    if len(row) != k:
                        raise UniformityError(
                            f"edge {row} has {len(row)} vertices, expected {k}")
                    rows.append(row)
                arr = np.array(rows).reshape(-1, k)
        if arr.size:
            lo = int(arr.min())
            hi = int(arr.max())
            if lo < 0 or hi >= n:
                bad = lo if lo < 0 else hi
                raise VertexRangeError(f"vertex id {bad} out of range for n={n}")
        return arr.astype(_dtype_for(n))

    @staticmethod
    def _canonicalize(n: int, k: int, arr: np.ndarray) -> np.ndarray:
        m = arr.shape[0]
        if m == 0:
            return arr
        # sort each row unless every column already lies below the next
        # (the bulk generators emit sorted rows)
        if not all(bool((arr[:, i] < arr[:, i + 1]).all()) for i in range(k - 1)):
            arr = np.sort(arr, axis=1)
            repeats = (arr[:, 1:] == arr[:, :-1]).any(axis=1)
            if repeats.any():
                raise UniformityError(
                    f"edge {arr[int(repeats.argmax())].tolist()} repeats a vertex")
        if m > 1:
            # lexicographic row order; skip the sort when rows already comply
            # (lexsort on 30M rows is slow)
            later, equal = _row_steps(arr)
            if not later.all():
                arr = arr[np.lexsort(arr.T[::-1])]
                equal = _row_steps(arr)[1]
            if equal.any():
                raise SimplicityError(
                    f"duplicate edge {arr[int(equal.argmax())].tolist()}")
        return np.ascontiguousarray(arr)

    # -- basic accessors -------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return int(self.edges.shape[0])

    def edge_tuples(self) -> list[tuple[int, ...]]:
        """Edges as sorted tuples, in storage order.  Cached; avoid on huge instances."""
        if self._tuples is None:
            object.__setattr__(self, "_tuples",
                               list(map(tuple, self.edges.tolist())))
        return self._tuples

    def degrees(self) -> np.ndarray:
        """Per-vertex edge membership counts, length n."""
        deg = np.zeros(self.n, dtype=np.int64)
        for sl in _chunks(self.m):
            deg += np.bincount(self.edges[sl].ravel(), minlength=self.n)
        return deg

    def isolated_vertices(self) -> list[int]:
        return [int(v) for v in np.nonzero(self.degrees() == 0)[0]]

    def conflict_masks(self) -> tuple[int, ...]:
        """Per-vertex bitmask of vertices sharing an edge with it.

        Built once per instance and cached; the co-edged pairs are
        deduplicated as ``a * n + b`` keys, in the narrowest dtype that
        holds n * n, one chunk of edges at a time and then across chunks.
        """
        if self._masks is None:
            n = self.n
            dtype = _dtype_for(n * n)
            parts = [np.empty(0, dtype=dtype)]
            for sl in _chunks(self.m):
                E = self.edges[sl].astype(dtype)
                parts.append(np.unique(np.concatenate(
                    [E[:, i] * n + E[:, j] for i in range(self.k)
                     for j in range(i + 1, self.k)])))
            keys = parts[-1] if len(parts) <= 2 else np.unique(np.concatenate(parts))
            masks = [0] * n
            for a, b in zip((keys // n).tolist(), (keys % n).tolist()):
                masks[a] |= 1 << b
                masks[b] |= 1 << a
            object.__setattr__(self, "_masks", tuple(masks))
        return self._masks

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.n == other.n and self.k == other.k
                and self.edges.shape == other.edges.shape
                and bool(np.array_equal(self.edges, other.edges)))

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self, "_hash",
                hash((self.n, self.k, self.edges.tobytes())))
        return self._hash

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, k={self.k}, m={self.m})"


@dataclass(frozen=True)
class Coloring:
    """Assignment of one of t colors (0..t-1) to each vertex 0..n-1."""

    colors: tuple[int, ...]
    t: int

    def __post_init__(self):
        if not isinstance(self.t, int) or self.t < 0:
            raise ValueError(f"color count must be a non-negative int, got {self.t!r}")
        try:
            object.__setattr__(self, "colors", tuple(map(operator.index, self.colors)))
        except TypeError:
            raise ValueError(f"colors must be integers, got {self.colors!r}") from None
        for c in self.colors:
            if c < 0 or c >= self.t:
                raise ValueError(f"color {c} out of range for t={self.t}")

    @property
    def n(self) -> int:
        return len(self.colors)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.colors, dtype=np.int32)

    def classes(self) -> list[tuple[int, ...]]:
        """Vertices grouped by color, each group ascending."""
        out: list[list[int]] = [[] for _ in range(self.t)]
        for v, c in enumerate(self.colors):
            out[c].append(v)
        return [tuple(g) for g in out]


def _as_color_array(H: Hypergraph, coloring) -> tuple[np.ndarray, int]:
    """Normalize a Coloring or plain sequence to (array, t)."""
    if isinstance(coloring, Coloring):
        arr = coloring.as_array()
        t = coloring.t
    else:
        arr = np.asarray(list(coloring))
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError("colors must be integers")
        if arr.size and int(arr.min()) < 0:
            raise ValueError("colors must be non-negative")
        t = int(arr.max()) + 1 if arr.size else 0
    if arr.shape != (H.n,):
        raise ValueError(f"coloring has {arr.shape[0] if arr.ndim else 0} "
                         f"entries, hypergraph has {H.n} vertices")
    return arr.astype(_dtype_for(t)), t


def subset_rank(sorted_colors: Sequence[int]) -> int:
    """Colexicographic rank of a strictly increasing color tuple.

    Bijects the k-subsets of {0..t-1} onto 0..C(t,k)-1 for any t, so
    subsets can be marked in a flat array without knowing t up front.
    """
    return sum(math.comb(c, i + 1) for i, c in enumerate(sorted_colors))


def _chunks(m: int) -> Iterator[slice]:
    for lo in range(0, m, _CHUNK_ROWS):
        yield slice(lo, min(lo + _CHUNK_ROWS, m))


def _sorted_colors(arr: np.ndarray, E: np.ndarray) -> list[np.ndarray] | None:
    """Each edge's colors in ascending order, one array per position (a
    compare-exchange network over the k columns), or None if an edge
    repeats a color."""
    k = E.shape[1]
    c = [np.take(arr, E[:, i]) for i in range(k)]
    for top in range(k - 1, 0, -1):
        for i in range(top):
            c[i], c[i + 1] = np.minimum(c[i], c[i + 1]), np.maximum(c[i], c[i + 1])
    for i in range(k - 1):
        if bool((c[i] == c[i + 1]).any()):
            return None
    return c


def is_proper(H: Hypergraph, coloring) -> bool:
    """Whether no edge sees the same color twice.

    Accepts a :class:`Coloring` or any length-n int sequence.  Vacuously
    true when the hypergraph has no edges.
    """
    arr, _t = _as_color_array(H, coloring)
    return all(_sorted_colors(arr, H.edges[sl]) is not None for sl in _chunks(H.m))


def is_complete(H: Hypergraph, coloring) -> bool:
    """Whether the coloring is a complete t-coloring.

    Requires: proper, all t color classes nonempty, and every k-subset of
    the t colors realized as the color set of some edge.  Follows the
    module convention that an edgeless hypergraph has no complete
    coloring.
    """
    arr, t = _as_color_array(H, coloring)
    if H.m == 0:
        return False
    k = H.k
    if t < k:
        return False
    total = math.comb(t, k)
    if total > H.m:
        return False  # counting bound: m edges cannot realize more subsets
    if int(np.bincount(arr, minlength=t).min()) == 0:
        return False
    # colex rank = sum of tab[i][c[i]] = C(c[i], i+1); every partial sum is
    # below total, so capping the entries at total lets them take its dtype
    tab = [np.array([min(math.comb(v, i + 1), total) for v in range(t + 1)],
                    dtype=_dtype_for(total)) for i in range(k)]
    seen = np.zeros(total, dtype=bool)
    for sl in _chunks(H.m):
        c = _sorted_colors(arr, H.edges[sl])
        if c is None:
            return False
        seen[sum(np.take(col, ci) for col, ci in zip(tab, c))] = True
    return bool(seen.all())


def independent_sets(H: Hypergraph, size: int) -> list[tuple[int, ...]]:
    """All vertex sets of the given size with no two members sharing an edge.

    Returned as ascending tuples in lexicographic order.  Backtracks over
    the conflict masks, so usable for moderate n (the search instances),
    not the bulk families.
    """
    if size < 0 or size > H.n:
        raise ValueError(f"size must be in 0..{H.n}, got {size}")
    return list(_iter_independent(H.conflict_masks(), size))


def _iter_independent(conf: Sequence[int], size: int) -> Iterator[tuple[int, ...]]:
    """Ascending `size`-subsets of range(len(conf)), lexicographically, no
    two of whose members are set in each other's conflict mask."""
    n = len(conf)
    chosen: list[int] = []
    forbs = [0]          # forbs[i]: union of the masks of chosen[:i]
    v = 0
    while True:
        need = size - len(chosen)
        if need == 0:
            yield tuple(chosen)
        elif v <= n - need:
            if not (forbs[-1] >> v) & 1:
                chosen.append(v)
                forbs.append(forbs[-1] | conf[v])
            v += 1
            continue
        if not chosen:
            return
        v = chosen.pop() + 1
        forbs.pop()


def covers_all(H: Hypergraph, vertices: Iterable[int]) -> bool:
    """Whether every edge contains at least one of the given vertices.

    Vacuously true on an edgeless hypergraph.
    """
    sel = np.zeros(H.n, dtype=bool)
    for v in vertices:
        v = int(v)
        if v < 0 or v >= H.n:
            raise VertexRangeError(f"vertex id {v} out of range for n={H.n}")
        sel[v] = True
    for sl in _chunks(H.m):
        if not bool(sel[H.edges[sl]].any(axis=1).all()):
            return False
    return True


@dataclass(frozen=True)
class IncidenceGraph:
    """Bipartite vertex/edge incidence structure of a hypergraph."""

    n: int
    m: int
    pairs: tuple[tuple[int, int], ...]  # (vertex id, edge index), sorted

    def to_dot(self) -> str:
        """DOT text with vertex nodes v<i> (circles) and edge nodes e<j> (boxes)."""
        lines = ["graph incidence {"]
        for v in range(self.n):
            lines.append(f"  v{v} [shape=circle];")
        for e in range(self.m):
            lines.append(f"  e{e} [shape=box];")
        for v, e in self.pairs:
            lines.append(f"  v{v} -- e{e};")
        lines.append("}")
        return "\n".join(lines) + "\n"


_INCIDENCE_CAP = 100_000


def incidence_graph(H: Hypergraph) -> IncidenceGraph:
    """Vertex-edge incidence graph, with deterministic DOT export.

    Refuses instances beyond ~100k vertices or edges; a DOT document at
    that scale serves no reader.
    """
    if max(H.n, H.m) > _INCIDENCE_CAP:
        raise ValueError(f"incidence graph capped at {_INCIDENCE_CAP} vertices "
                         f"and edges, instance has n={H.n}, m={H.m}")
    pairs = []
    for j, row in enumerate(H.edge_tuples()):
        for v in row:
            pairs.append((v, j))
    pairs.sort()
    return IncidenceGraph(n=H.n, m=H.m, pairs=tuple(pairs))


# -- serialization -----------------------------------------------------


def dump_json(doc, *, pretty: bool = False) -> str:
    """JSON text of doc plus a newline: compact, or indented when pretty."""
    if pretty:
        return json.dumps(doc, indent=2) + "\n"
    return json.dumps(doc, separators=(",", ":")) + "\n"


def hypergraph_to_dict(H: Hypergraph) -> dict:
    return {"k": H.k, "n": H.n, "edges": H.edges.tolist()}


# the text before, between and after the ids of one edge row as dump_json
# writes it in the document, compact and indented
_ROW_LAYOUT = {False: ("[", ",", "]"),
               True: ("\n    [\n      ", ",\n      ", "\n    ]")}


def _rows_text(E: np.ndarray, pretty: bool) -> str:
    """The rows of E as dump_json writes them, each followed by a comma: a
    row's byte template with id slots as wide as E's largest id, tiled,
    filled by integer division, less the slots left of each id's digits."""
    rows, k = E.shape
    width = len(str(int(E.max())))
    opener, sep, closer = _ROW_LAYOUT[pretty]
    row = (opener + sep.join(["0" * width] * k) + closer + ",").encode()
    buf = np.empty((rows, len(row)), dtype=np.uint8)
    buf[:] = np.frombuffer(row, dtype=np.uint8)
    keep = np.ones(buf.shape, dtype=bool)
    for i in range(k):
        at = len(opener) + i * (width + len(sep))
        ids = E[:, i]
        for j in range(width - 1):  # slot j is kept if the id has its digit
            keep[:, at + j] = ids >= 10 ** (width - 1 - j)
        for j in range(width - 1, -1, -1):
            ids, digit = np.divmod(ids, 10)
            buf[:, at + j] = 48 + digit  # the byte of the digit
    return buf[keep].tobytes().decode("ascii")


def serialize_hypergraph(H: Hypergraph, *, pretty: bool = False) -> str:
    """Canonical JSON text.  Equal hypergraphs serialize byte-identically.

    The bytes of ``dump_json(hypergraph_to_dict(H), pretty=pretty)``; the
    rows are written as numpy bytes a chunk at a time, no object per id.
    """
    head, tail = dump_json({"k": H.k, "n": H.n, "edges": []},
                           pretty=pretty).rsplit("[]", 1)
    pieces = [head, "["]
    for sl in _chunks(H.m):
        pieces.append(_rows_text(H.edges[sl], pretty))
    if H.m:
        pieces[-1] = pieces[-1][:-1]  # no comma after the last row
    pieces += ["\n  ]" if pretty and H.m else "]", tail]
    return "".join(pieces)


def _require_int(doc: dict, key: str) -> int:
    if key not in doc:
        raise DocumentError(f"missing field {key!r}")
    val = doc[key]
    if not isinstance(val, int) or isinstance(val, bool):
        raise DocumentError(f"field {key!r} must be an integer, got {val!r}")
    return val


# the head of a document in the layout serialize_hypergraph writes,
# compact or indented, with k and n plain non-negative integers; the end
# of one row and the start of the next; the close of the rows and the doc
_HEAD = re.compile(r'\s*\{\s*"k"\s*:\s*(0|[1-9][0-9]*)\s*,\s*"n"\s*:\s*'
                   r'(0|[1-9][0-9]*)\s*,\s*"edges"\s*:\s*\[\s*'
                   .replace(r"\s", "[ \t\n\r]"))
_ROW_CUT = re.compile(r"\][ \t\n\r]*,[ \t\n\r]*\[")
_TAIL = re.compile(r"\][ \t\n\r]*\}[ \t\n\r]*\Z")
# characters of edge rows decoded at once
_SLICE_CHARS = 1 << 18
# byte classes in edge rows; 0 for any byte a row of ids cannot hold
_DIGIT, _OPEN, _CLOSE, _COMMA, _SPACE = 1, 2, 3, 4, 5
_BYTE_CLASS = np.zeros(256, dtype=np.int8)
_BYTE_CLASS[list(b"0123456789[], \t\n\r")] = (
    [_DIGIT] * 10 + [_OPEN, _CLOSE, _COMMA] + [_SPACE] * 4)


def load_json(text: str):
    """The value of a JSON document; DocumentError when it is malformed or
    nested too deeply to decode."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise DocumentError("not valid JSON: nested too deeply") from None


def _int_rows(rows: list) -> bool:
    """Whether every item is a list of ints, screened at C speed."""
    return (set(map(type, rows)) <= {list}
            and set(map(type, chain.from_iterable(rows))) <= {int})


def _slice_ids(b: np.ndarray, n: int, k: int) -> np.ndarray | None:
    """The ids of the rows in the ASCII bytes b, in order, as uint64; None
    unless b is rows of k ids in range(n), comma-separated, with JSON
    whitespace between tokens only."""
    c = _BYTE_CLASS.take(b)
    if not c.all():
        return None
    digit = c == _DIGIT
    first = digit.copy()  # the first byte of each run of digits
    first[1:] &= ~digit[:-1]
    kinds = c[(c != _SPACE) & (first | ~digit)]  # one per token
    span = 2 * k + 2  # [ N (, N)*(k-1) ] ,
    if (kinds.size + 1) % span:
        return None
    row = [_OPEN] + [_DIGIT, _COMMA] * (k - 1) + [_DIGIT, _CLOSE, _COMMA]
    if not np.array_equal(kinds, np.tile(np.array(row, dtype=np.int8),
                                         (kinds.size + 1) // span)[:-1]):
        return None
    # the last byte of b is no digit: a row's ] or whitespace
    lo, hi = np.flatnonzero(first), np.flatnonzero(digit[:-1] & ~digit[1:])
    size = hi - lo + 1
    # JSON has no leading zeros; more digits than n - 1 is out of range
    if size.max() > len(str(n - 1)) or (b[lo[size > 1]] == 48).any():
        return None
    ids = (b[lo] - 48).astype(np.uint64)
    for j in range(1, int(size.max())):
        at = lo + j
        ids = np.where(at <= hi, ids * 10 + (b[np.minimum(at, hi)] - 48), ids)
    return None if ids.max() >= n else ids


def _edge_rows(text: str, lo: int, hi: int, n: int, k: int) -> np.ndarray | None:
    """The rows in text[lo:hi] as an (m, k) array in the id dtype, decoded
    from the bytes of one slice of rows at a time with no Python object
    per row or id; None unless every row is a list of k int ids in range(n)."""
    if n >= 2 ** 63:  # past uint64 ids; Hypergraph refuses such an n anyway
        return None
    dtype = _dtype_for(n)
    parts = [np.empty((0, k), dtype=dtype)]
    while lo < hi:
        cut = _ROW_CUT.search(text, min(lo + _SLICE_CHARS, hi), hi)
        stop = cut.start() + 1 if cut else hi
        b = np.frombuffer(text[lo:stop].encode("ascii", "replace"), dtype=np.uint8)
        ids = _slice_ids(b, n, k)
        if ids is None:
            return None
        parts.append(ids.astype(dtype).reshape(-1, k))
        lo = cut.end() - 1 if cut else hi
    return np.concatenate(parts)


def _parse_sliced(text: str) -> Hypergraph | None:
    """The hypergraph of a document in the layout serialize_hypergraph
    writes, its rows decoded by slices; None for any other document and
    any the slices refuse (json.loads then reads it whole)."""
    head = _HEAD.match(text) if isinstance(text, str) else None
    hi = text.rfind("]") if head else -1
    if hi < 0 or not _TAIL.match(text, hi):
        return None
    try:  # ValueError: k or n past int()'s digits or numpy's dimensions
        k, n = int(head[1]), int(head[2])
        edges = _edge_rows(text, head.end(), hi, n, k)
    except ValueError:
        return None
    return None if edges is None else Hypergraph(n, k, edges)


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the JSON document format.

    Raises :class:`DocumentError` for structural problems,
    :class:`UniformityError` / :class:`VertexRangeError` /
    :class:`SimplicityError` for bad edges.  Duplicate edges in a document
    are an error, never silently merged.  A document in the layout
    :func:`serialize_hypergraph` writes (keys ``k``, ``n``, ``edges`` in
    that order, JSON whitespace only) has its rows decoded one slice at
    a time; any other goes through json.loads whole, which names its
    first fault.
    """
    H = _parse_sliced(text)
    if H is not None:
        return H
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise DocumentError("top level must be a JSON object")
    k = _require_int(doc, "k")
    n = _require_int(doc, "n")
    if "edges" not in doc:
        raise DocumentError("missing field 'edges'")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise DocumentError("field 'edges' must be a list")
    if not _int_rows(edges):  # walk the items only to name a bad one
        for e in edges:
            if not isinstance(e, list):
                raise DocumentError(f"edge {e!r} must be a list")
            for v in e:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise DocumentError(f"vertex id {v!r} must be an integer")
    return Hypergraph(n, k, edges)


# -- spectrum report ---------------------------------------------------


@dataclass(frozen=True)
class SpectrumReport:
    """Outcome of a full spectrum computation.

    ``feasible`` lists every t with a verified complete t-coloring,
    ``unknown`` every t where the solver exhausted its budget without an
    answer (``chi`` is None if its search did).  ``psi`` is the largest
    feasible t (0 if none), or None if an unknown t lies above it.
    ``interpolation_holds`` records whether the verified feasible values
    form a contiguous range (the question the counterexample families
    answer in the negative); it is None when unknowns make the call
    ambiguous.
    """

    chi: int | None
    psi: int | None
    feasible: tuple[int, ...]
    unknown: tuple[int, ...] = ()
    witnesses: dict = field(default_factory=dict)  # t -> Coloring
    warnings: tuple[str, ...] = ()

    @property
    def interpolation_holds(self) -> bool | None:
        if not self.feasible:
            return None if self.unknown else True
        lo, hi = self.feasible[0], self.feasible[-1]
        gaps = set(range(lo, hi + 1)) - set(self.feasible)
        if gaps - set(self.unknown):
            return False  # some in-range value is verified infeasible
        if not gaps and not self.unknown:
            return True
        return None

    def to_dict(self) -> dict:
        doc = {
            "chi": self.chi,
            "psi": self.psi,
            "feasible": list(self.feasible),
            "unknown": list(self.unknown),
            "interpolation_holds": self.interpolation_holds,
            "witnesses": {str(t): list(w.colors)
                          for t, w in sorted(self.witnesses.items())},
        }
        if self.warnings:
            doc["warnings"] = list(self.warnings)
        return doc

    def to_json(self, *, pretty: bool = False) -> str:
        return dump_json(self.to_dict(), pretty=pretty)
