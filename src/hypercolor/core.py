"""Data model for k-uniform hypergraphs and their colorings.

Vertices are the integers 0..n-1.  Edges are k-subsets of vertices, stored
as a read-only (m, k) numpy array whose rows are sorted ascending and
ordered lexicographically, so equal hypergraphs have identical storage and
serialize to identical bytes.  Its ids take the narrowest unsigned type
that holds n - 1 (``_id_dtype``), so code that subtracts them casts
first.  The array representation is what lets the large constructed
families (tens of millions of edges) stay workable in a few hundred MB.
The bulk paths work one column at a time over chunks of 16k
edges (``_CHUNK_ROWS``), never on per-edge Python objects or (m, k)
temporaries, so the edge array is the only memory that grows with m: the
predicates gather colors per column and sort each row with a
compare-exchange network over the k columns.  The public constructor
copies and validates whatever it is given, checking row order a chunk at
a time and sorting only what is out of order; the grid generator,
whose rows are canonical by construction, hands over its fresh array
through ``Hypergraph._trusted`` instead, which keeps it without a copy.

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
import operator
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

# Rows per chunk for the bulk paths and the grid generator's blocks.  At
# 16k rows an intp column is 128 KiB, and the checks' temporaries stay a
# few such columns: verify_grid_invariants on grid(5,20) traced 1.5 MB
# (5.9 MB at 64k rows), with the same wall time; 8k rows ran it slower
# and lowered no peak.
_CHUNK_ROWS = 1 << 14


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
    # smallest signed type that holds n; for colours, pair keys and rank
    # tables, whose callers add and multiply them
    if n <= np.iinfo(np.int16).max:
        return np.dtype(np.int16)
    if n <= np.iinfo(np.int32).max:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def _id_dtype(n: int) -> np.dtype:
    """The dtype of the vertex ids of a hypergraph on n vertices: the
    narrowest unsigned type that holds n - 1 (uint8 up to n = 256, uint16
    up to n = 65,536), and ``_dtype_for(n)`` beyond.

    Ids in this dtype are compared and indexed, never subtracted: a
    difference of unsigned ids wraps, and a product or sum can overflow
    the narrow type, so code that does arithmetic on ids casts first.
    """
    if n <= 1 << 8:
        return np.dtype(np.uint8)
    if n <= 1 << 16:
        return np.dtype(np.uint16)
    return _dtype_for(n)


def _row_steps(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row after the first: (lexicographically later, equal) than
    the row before it, one column at a time."""
    a, b = arr[1:], arr[:-1]
    later = a[:, 0] > b[:, 0]
    equal = a[:, 0] == b[:, 0]
    for i in range(1, arr.shape[1]):
        later |= equal & (a[:, i] > b[:, i])
        equal &= a[:, i] == b[:, i]
    return later, equal


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
        self._adopt(n, k, self._canonicalize(arr))

    @classmethod
    def _trusted(cls, n: int, k: int, arr: np.ndarray) -> "Hypergraph":
        """Wrap an edge array the grid generator has just built, without a copy.

        ``arr`` must be an (m, k) C-contiguous array in ``_id_dtype(n)``
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
        return arr.astype(_id_dtype(n))

    @staticmethod
    def _canonicalize(arr: np.ndarray) -> np.ndarray:
        m = arr.shape[0]
        if m == 0:
            return arr
        # sort each row unless every column already lies below the next
        # (a parsed written document has sorted rows), checked by chunks
        if not all(bool((arr[sl, :-1] < arr[sl, 1:]).all()) for sl in _chunks(m)):
            arr = np.sort(arr, axis=1)
            repeats = (arr[:, 1:] == arr[:, :-1]).any(axis=1)
            if repeats.any():
                raise UniformityError(
                    f"edge {arr[int(repeats.argmax())].tolist()} repeats a vertex")
        # lexicographic row order, with no duplicate when every row is later
        # than the one before; sorted only when rows do not comply (as the
        # rows of a parsed written document do)
        if not all(_row_steps(arr[sl.start:sl.stop + 1])[0].all()
                   for sl in _chunks(m - 1)):
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
        By a sort (``_distinct``): numpy 2's ``np.unique`` imports
        ``numpy.ma``, 10-25 ms that every searching command would pay.
        """
        if self._masks is None:
            n = self.n
            dtype = _dtype_for(n * n)
            parts = [np.empty(0, dtype=dtype)]
            for sl in _chunks(self.m):
                E = self.edges[sl].astype(dtype)
                parts.append(_distinct(
                    [E[:, i] * n + E[:, j] for i in range(self.k)
                     for j in range(i + 1, self.k)]))
            keys = parts[-1] if len(parts) <= 2 else _distinct(parts)
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


def comb_upto(n: int, k: int, cap: int) -> int:
    """C(n, k) if it is at most cap, else cap + 1.

    Multiplies up C(n, i) for i = 0 .. min(k, n - k) and stops once it
    passes cap.  C(n, i) >= 2^i on the way, so that takes at most cap's
    bit length steps on small ints, where ``math.comb`` would build a
    number of millions of digits only to compare it.
    """
    if k > n:
        return 0
    count = 1
    for i in range(min(k, n - k)):
        count = count * (n - i) // (i + 1)
        if count > cap:
            return cap + 1
    return count


def _distinct(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The distinct values of the arrays in parts, ascending: a sort and
    a mask that keeps each value unlike its left neighbor."""
    a = np.concatenate(parts)
    a.sort()
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


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
    total = comb_upto(t, k, H.m)
    if total > H.m:
        return False  # counting bound: m edges cannot realize more subsets
    if int(np.bincount(arr, minlength=t).min()) == 0:
        return False
    # colex rank = sum of tab[i][c[i]] = C(c[i], i+1); every partial sum is
    # below total, so capping the entries at total lets them take its dtype
    tab = [np.array([min(comb_upto(v, i + 1, total), total) for v in range(t + 1)],
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
    conf = H.conflict_masks()
    n = len(conf)
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []
    forbs = [0]          # forbs[i]: union of the masks of chosen[:i]
    v = 0
    while True:
        need = size - len(chosen)
        if need == 0:
            out.append(tuple(chosen))
        elif v <= n - need:
            if not (forbs[-1] >> v) & 1:
                chosen.append(v)
                forbs.append(forbs[-1] | conf[v])
            v += 1
            continue
        if not chosen:
            return out
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


def _serialized_pieces(H: Hypergraph, pretty: bool) -> Iterator[str]:
    """The text of ``serialize_hypergraph(H)`` in pieces, one per chunk of
    rows, each made only when asked for."""
    head, tail = dump_json({"k": H.k, "n": H.n, "edges": []},
                           pretty=pretty).rsplit("[]", 1)
    yield head + "["
    for sl in _chunks(H.m):
        text = _rows_text(H.edges[sl], pretty)
        # no comma after the last row
        yield text[:-1] if sl.stop == H.m else text
    yield ("\n  ]" if pretty and H.m else "]") + tail


def serialize_hypergraph(H: Hypergraph, *, pretty: bool = False) -> str:
    """Canonical JSON text.  Equal hypergraphs serialize byte-identically.

    The bytes of ``dump_json(hypergraph_to_dict(H), pretty=pretty)``; the
    rows are written as numpy bytes a chunk at a time, no object per id.
    """
    return "".join(_serialized_pieces(H, pretty))


def _require_int(doc: dict, key: str) -> int:
    if key not in doc:
        raise DocumentError(f"missing field {key!r}")
    val = doc[key]
    if not isinstance(val, int) or isinstance(val, bool):
        raise DocumentError(f"field {key!r} must be an integer, got {val!r}")
    return val


# the head of a document in the layout serialize_hypergraph writes,
# compact or indented, with k and n plain non-negative integers; the end
# of one row and the start of the next; the close of the rows and the doc;
# each compiled for str and for bytes documents
_HEAD, _ROW_CUT, _TAIL = ({str: re.compile(p), bytes: re.compile(p.encode())} for p in (
    r'\s*\{\s*"k"\s*:\s*(0|[1-9][0-9]*)\s*,\s*"n"\s*:\s*'
    r'(0|[1-9][0-9]*)\s*,\s*"edges"\s*:\s*\[\s*'.replace(r"\s", "[ \t\n\r]"),
    r"\][ \t\n\r]*,[ \t\n\r]*\[", r"\][ \t\n\r]*\}[ \t\n\r]*\Z"))
# characters (or bytes) of edge rows decoded at once
_SLICE_CHARS = 1 << 16
# byte classes in edge rows, a bytes.translate table (numpy's take would
# copy the bytes to intp indices first); 0 for any byte a row cannot hold
_DIGIT, _OPEN, _CLOSE, _COMMA, _SPACE = 1, 2, 3, 4, 5
_BYTE_CLASS = np.zeros(256, dtype=np.int8)
_BYTE_CLASS[list(b"0123456789[], \t\n\r")] = (
    [_DIGIT] * 10 + [_OPEN, _CLOSE, _COMMA] + [_SPACE] * 4)
_BYTE_CLASS = _BYTE_CLASS.tobytes()


def load_json(text: str | bytes):
    """The value of a JSON document, str or UTF-8 bytes; DocumentError
    when it is not UTF-8, is malformed, holds an integer too long for
    int(), or is nested too deeply to decode."""
    try:
        return json.loads(text.decode() if isinstance(text, bytes) else text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"not valid UTF-8: {exc}") from None
    except ValueError:
        # int() refuses more digits than sys.get_int_max_str_digits()
        raise DocumentError("not valid JSON: an integer has too many "
                            "digits") from None
    except RecursionError:
        raise DocumentError("not valid JSON: nested too deeply") from None


def _int_rows(rows: list) -> bool:
    """Whether every item is a list of ints, screened at C speed."""
    return (set(map(type, rows)) <= {list}
            and set(map(type, chain.from_iterable(rows))) <= {int})


def _slice_ids(chunk: bytes, n: int, k: int) -> np.ndarray | None:
    """The ids of the rows in chunk, in order, as uint64; None unless
    chunk is rows of k ids in range(n), comma-separated, with JSON
    whitespace between tokens only."""
    c = np.frombuffer(chunk.translate(_BYTE_CLASS), dtype=np.int8)
    if not c.all():
        return None
    b = np.frombuffer(chunk, dtype=np.uint8)
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


def _edge_rows(text: str | bytes, lo: int, hi: int, n: int,
               k: int) -> np.ndarray | None:
    """The rows in text[lo:hi] as an (m, k) array in the id dtype, decoded
    from the bytes of one slice of rows at a time with no Python object
    per row or id; None unless every row is a list of k int ids in range(n)."""
    if n >= 2 ** 63:  # past uint64 ids; Hypergraph refuses such an n anyway
        return None
    dtype = _id_dtype(n)
    parts = [np.empty((0, k), dtype=dtype)]
    row_cut = _ROW_CUT[type(text)]
    while lo < hi:
        cut = row_cut.search(text, min(lo + _SLICE_CHARS, hi), hi)
        stop = cut.start() + 1 if cut else hi
        chunk = text[lo:stop]
        ids = _slice_ids(chunk if isinstance(chunk, bytes)
                         else chunk.encode("ascii", "replace"), n, k)
        if ids is None:
            return None
        parts.append(ids.astype(dtype).reshape(-1, k))
        lo = cut.end() - 1 if cut else hi
    return np.concatenate(parts)


def _parse_sliced(text: str | bytes) -> Hypergraph | None:
    """The hypergraph of a document in the layout serialize_hypergraph
    writes, str or bytes, its rows decoded by slices; None for any other
    document and any the slices refuse (json.loads then reads it whole)."""
    kind = type(text)
    head = _HEAD[kind].match(text) if kind in _HEAD else None
    hi = text.rfind(b"]" if kind is bytes else "]") if head else -1
    if hi < 0 or not _TAIL[kind].match(text, hi):
        return None
    try:  # ValueError: k or n past int()'s digits or numpy's dimensions
        k, n = int(head[1]), int(head[2])
        edges = _edge_rows(text, head.end(), hi, n, k)
    except ValueError:
        return None
    return None if edges is None else Hypergraph(n, k, edges)


def parse_hypergraph(text: str | bytes) -> Hypergraph:
    """Parse the JSON document format, from its text or its UTF-8 bytes.

    Raises :class:`DocumentError` for structural problems,
    :class:`UniformityError` / :class:`VertexRangeError` /
    :class:`SimplicityError` for bad edges.  Duplicate edges in a document
    are an error, never silently merged.  A document in the layout
    :func:`serialize_hypergraph` writes (keys ``k``, ``n``, ``edges`` in
    that order, JSON whitespace only) has its rows decoded one slice at
    a time, from bytes with no str of the document; any other goes
    through json.loads whole, which names its first fault.
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
