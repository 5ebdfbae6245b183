"""Combinatorial embeddings of planar triangulations.

An embedding is a rotation system: for each vertex, the cyclic order of
its neighbors.  Faces come from the successor rule (the dart (a, b) is
followed by (b, c) where c follows a in b's rotation), and an embedding
is accepted as spherical when face tracing satisfies Euler's relation.

The module enumerates all isomorphism classes of simple planar
triangulations at desk scale by breadth-first search over diagonal
flips, filters for Eulerian (even-degree, hence 3-colorable) classes,
and extracts face hypergraphs: the 3-uniform hypergraph on the same
vertices with one edge per triangular face.  That pipeline locates the
12-vertex triangulation whose face hypergraph has a complete 6-coloring
but no complete 5-coloring.
"""

from __future__ import annotations

from functools import lru_cache

from .core import Coloring, Hypergraph
from .solver import exists_proper, spectrum


class EmbeddingError(ValueError):
    """Invalid rotation system or non-spherical embedding."""


class UnflippableEdgeError(RuntimeError):
    """The requested diagonal flip is refused (would break simplicity)."""


class Embedding:
    """Immutable rotation system on vertices 0..n-1.

    rotation[v] lists v's neighbors in cyclic order.  Validation checks
    symmetry, simplicity, connectivity, and genus 0; internal constructors
    that build valid embeddings by local surgery skip it via ``_trusted``.
    It keeps its rotation and cached canonical form and labelling only.
    """

    __slots__ = ("rotation", "_canon", "_label")

    def __init__(self, rotation):
        self._adopt(tuple(tuple(int(w) for w in nbrs) for nbrs in rotation))
        self.validate()

    @classmethod
    def _trusted(cls, rot: tuple[tuple[int, ...], ...]) -> "Embedding":
        """Wrap a rotation that is already valid and made of int tuples."""
        e = object.__new__(cls)
        e._adopt(rot)
        return e

    def _adopt(self, rot: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "_canon", None)
        object.__setattr__(self, "_label", None)

    def __setattr__(self, name, value):
        raise AttributeError("Embedding is immutable")

    @property
    def n(self) -> int:
        return len(self.rotation)

    @property
    def m(self) -> int:
        return sum(len(r) for r in self.rotation) // 2

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rotation)

    def validate(self) -> None:
        n = self.n
        if n < 2:
            raise EmbeddingError("embedding needs at least 2 vertices")
        for v, nbrs in enumerate(self.rotation):
            if not nbrs:
                raise EmbeddingError(f"vertex {v} has no neighbors")
            if len(set(nbrs)) != len(nbrs):
                raise EmbeddingError(f"vertex {v} has a repeated neighbor")
            for w in nbrs:
                if w < 0 or w >= n:
                    raise EmbeddingError(f"neighbor {w} of {v} out of range")
                if w == v:
                    raise EmbeddingError(f"vertex {v} has a loop")
                if v not in self.rotation[w]:
                    raise EmbeddingError(f"adjacency {v}-{w} not symmetric")
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in self.rotation[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            raise EmbeddingError("embedding is not connected")
        f = len(self.faces())
        if f - self.m + n != 2:
            raise EmbeddingError(
                f"not spherical: {f} faces, {self.m} edges, {n} vertices")

    def faces(self) -> list[tuple[int, ...]]:
        """All face cycles; each directed dart is used exactly once.  Every
        call traces them afresh: nothing is cached."""
        seen = set()
        out = []
        for a in range(self.n):
            for b in self.rotation[a]:
                if (a, b) in seen:
                    continue
                cycle = []
                u, v = a, b
                while (u, v) not in seen:
                    seen.add((u, v))
                    cycle.append(u)
                    u, v = v, self._succ(v, u)
                out.append(tuple(cycle))
        return out

    @property
    def is_triangulation(self) -> bool:
        """n >= 4 and every face a triangle, read from the counts alone.

        Exact for every valid embedding: by Euler, f = m - n + 2, and for
        n >= 3 every face walk has at least 3 darts, so 2m >= 3f, that is
        m <= 3n - 6, with equality iff every face is a triangle.
        """
        return self.n >= 4 and self.m == 3 * self.n - 6

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n)
                for v in self.rotation[u] if u < v]

    def _succ(self, a: int, b: int) -> int:
        """The neighbor after b in a's rotation."""
        r = self.rotation[a]
        return r[(r.index(b) + 1) % len(r)]

    def flip(self, u: int, v: int) -> "Embedding":
        """Replace edge uv by the opposite diagonal of its two triangles.

        Refused when the two faces at uv share their third vertex or when
        the diagonal already exists (both would break simplicity).
        """
        rot = self.rotation
        if v not in rot[u]:
            raise EmbeddingError(f"{u}-{v} is not an edge")
        succ = self._succ
        x = succ(v, u)   # face (u, v, x)
        y = succ(u, v)   # face (v, u, y)
        if succ(x, v) != u or succ(y, u) != v:
            raise EmbeddingError(f"faces at {u}-{v} are not triangles")
        if x == y:
            raise UnflippableEdgeError(f"faces at {u}-{v} share vertex {x}")
        if y in rot[x]:
            raise UnflippableEdgeError(f"diagonal {x}-{y} already present")

        new = list(rot)
        new[u] = tuple(w for w in rot[u] if w != v)
        new[v] = tuple(w for w in rot[v] if w != u)
        i = rot[x].index(v) + 1
        new[x] = rot[x][:i] + (y,) + rot[x][i:]   # v, y, u
        i = rot[y].index(u) + 1
        new[y] = rot[y][:i] + (x,) + rot[y][i:]   # u, x, v
        return Embedding._trusted(tuple(new))

    def relabel(self, perm) -> "Embedding":
        """Apply a vertex permutation (perm[v] = new id of v).

        Raises :class:`EmbeddingError` unless perm is a permutation of
        range(n).
        """
        if sorted(perm) != list(range(self.n)):
            raise EmbeddingError(f"relabel needs a permutation of range({self.n})")
        new = [()] * self.n
        for v, nbrs in enumerate(self.rotation):
            new[perm[v]] = tuple(int(perm[w]) for w in nbrs)
        return Embedding._trusted(tuple(new))

    def mirror(self) -> "Embedding":
        """Reverse all rotations (orientation flip)."""
        return Embedding._trusted(tuple(r[::-1] for r in self.rotation))

    def canonical_form(self) -> bytes:
        """Byte string invariant under relabeling, re-rooting, and reflection.

        bytes([n]) plus the least BFS code over the darts (u, v) of least
        (deg u, deg v), in both orientations.  A code row lists a vertex's
        neighbor labels around its rotation from its BFS parent, then 0xFF.
        All starts advance together, one row at a time, and after each row
        only the starts whose row equals the least row go on.  The last
        start left, in the order (orientation, then dart), gives the kept
        labelling: vertex v has code label ``_label[v]``.
        """
        if self._canon is not None:
            return self._canon
        rot = self.rotation
        n = len(rot)
        deg = [len(r) for r in rot]
        du = min(deg)
        dv = min(deg[w] for u in range(n) if deg[u] == du for w in rot[u])
        starts = [(u, v) for u in range(n) if deg[u] == du
                  for v in rot[u] if deg[v] == dv]
        live = []
        for rows in (rot, tuple(r[::-1] for r in rot)):
            for u0, v0 in starts:
                label, parent = [-1] * n, [0] * n
                label[u0], parent[u0] = 0, v0
                live.append((rows, label, parent, [u0]))
        code = [n]
        for k in range(n):
            least = None
            for start in live:
                rows, label, parent, order = start
                w = order[k]
                nbrs = rows[w]
                i = nbrs.index(parent[w])
                row = []
                for x in nbrs[i:] + nbrs[:i]:
                    lx = label[x]
                    if lx < 0:
                        label[x] = lx = len(order)
                        parent[x] = w
                        order.append(x)
                    row.append(lx)
                row.append(0xFF)
                if least is None or row < least:
                    least, kept = row, [start]
                elif row == least:
                    kept.append(start)
            live = kept
            code += least
        object.__setattr__(self, "_label", bytes(live[-1][1]))
        object.__setattr__(self, "_canon", bytes(code))
        return self._canon

    def __eq__(self, other):
        if not isinstance(other, Embedding):
            return NotImplemented
        return self.rotation == other.rotation

    def __hash__(self):
        return hash(self.rotation)

    def __repr__(self):
        return f"Embedding(n={self.n}, m={self.m})"


def parse_embedding(text: str) -> Embedding:
    """Read the line format "v: n1 n2 ... nd"; '#' starts a comment."""
    rows = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise EmbeddingError(f"expected 'v: neighbors', got {raw!r}")
        head, _, tail = line.partition(":")
        try:
            v = int(head)
            nbrs = tuple(int(t) for t in tail.split())
        except ValueError as exc:
            raise EmbeddingError(f"bad line {raw!r}") from exc
        if v in rows:
            raise EmbeddingError(f"vertex {v} listed twice")
        rows[v] = nbrs
    if not rows:
        raise EmbeddingError("empty embedding document")
    n = len(rows)
    if sorted(rows) != list(range(n)):
        raise EmbeddingError("vertex lines must cover 0..n-1")
    return Embedding(tuple(rows[v] for v in range(n)))


def serialize_embedding(e: Embedding) -> str:
    return "".join(f"{v}: {' '.join(map(str, e.rotation[v]))}\n"
                   for v in range(e.n))


def face_hypergraph(e: Embedding) -> Hypergraph:
    """3-uniform hypergraph on the same vertices, one edge per face."""
    if not e.is_triangulation:
        raise EmbeddingError("face hypergraph needs a triangulation")
    return Hypergraph(e.n, 3, e.faces())


def is_eulerian(e: Embedding) -> bool:
    return all(d % 2 == 0 for d in e.degrees())


def three_coloring(e: Embedding) -> Coloring:
    """Proper 3-coloring of an Eulerian triangulation's graph.

    Such a coloring is also proper for the face hypergraph, since every
    graph edge lies in a face.  Raises for non-Eulerian input, where no
    such coloring exists.
    """
    if not e.is_triangulation:
        raise EmbeddingError("three_coloring needs a triangulation")
    if not is_eulerian(e):
        raise EmbeddingError("triangulation has odd-degree vertices")
    res = exists_proper(Hypergraph(e.n, 2, e.edges()), 3)
    if res.status != "found":
        raise RuntimeError(f"Eulerian, yet the 3-coloring search says {res.status}")
    return res.witness


def tetrahedron() -> Embedding:
    return Embedding._trusted(((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)))


def octahedron() -> Embedding:
    return Embedding._trusted(((1, 2, 3, 4), (0, 4, 5, 2), (0, 1, 5, 3),
                               (0, 2, 5, 4), (0, 3, 5, 1), (1, 4, 3, 2)))


def _insert_vertex(e: Embedding, face: tuple[int, int, int]) -> Embedding:
    """Stack a new vertex inside a triangular face (p, q, r)."""
    p, q, r = face
    a = e.n
    new = [list(nbrs) for nbrs in e.rotation]
    new[p].insert(new[p].index(r) + 1, a)
    new[q].insert(new[q].index(p) + 1, a)
    new[r].insert(new[r].index(q) + 1, a)
    new.append([p, r, q])
    return Embedding._trusted(tuple(map(tuple, new)))


def stacked_triangulation(n: int) -> Embedding:
    """K4 plus repeated vertex insertion into the first traced face."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    e = tetrahedron()
    while e.n < n:
        e = _insert_vertex(e, e.faces()[0])
    return e


def _bfs_closure(seeds) -> list[Embedding]:
    """All triangulation classes reachable from seeds by diagonal flips.

    The seen-set is keyed by canonical form, frontier layers are
    processed in canonical-form order, and the output is sorted by
    canonical form, so enumeration is deterministic.  Flips reverse: if
    edge uv of class A flips to class B with new diagonal xy, flipping xy
    in B gives A.  Until B is processed, marked[B] has bit a*n+b (a < b)
    set for such edges ab of B's representative, found from xy through
    both canonical labellings; they get no flip and no form.  Only flips
    into seen classes are skipped, so the output is that of flipping
    every edge.  Every output is fully re-validated and checked to be a
    triangulation.
    """
    seen: dict[bytes, Embedding] = {}
    marked: dict[bytes, int] = {}   # classes found, not yet processed
    frontier = []
    for e in seeds:
        key = e.canonical_form()
        if key not in seen:
            seen[key] = e
            marked[key] = 0
            frontier.append(key)
    while frontier:
        frontier.sort()
        nxt = []
        for key in frontier:
            e = seen[key]
            n = e.n
            skip = marked.pop(key)
            for u, v in e.edges():
                if skip >> (u * n + v) & 1:
                    continue
                try:
                    f = e.flip(u, v)
                except UnflippableEdgeError:
                    continue
                ck = f.canonical_form()
                if ck not in seen:
                    seen[ck] = f
                    marked[ck] = 0
                    nxt.append(ck)
                elif ck not in marked:
                    continue
                x, y = e._succ(v, u), e._succ(u, v)   # the new diagonal
                a, b = sorted(seen[ck]._label.index(f._label[w]) for w in (x, y))
                marked[ck] |= 1 << (a * n + b)
        frontier = nxt
    out = [seen[k] for k in sorted(seen)]
    for e in out:
        e.validate()
        if not e.is_triangulation:
            raise EmbeddingError("flip closure produced a non-triangulation")
    return out


@lru_cache(maxsize=16)
def _enumerate_cached(n: int) -> tuple[Embedding, ...]:
    return tuple(_bfs_closure([stacked_triangulation(n)]))


def enumerate_triangulations(n: int) -> list[Embedding]:
    """All isomorphism classes of simple planar triangulations on n vertices.

    Flip-graph BFS from the stacked triangulation with canonical-form
    dedup.  Desk scale only: 4 <= n <= 13.
    """
    if not 4 <= n <= 13:
        raise ValueError(f"n must be in 4..13, got {n}")
    return list(_enumerate_cached(n))


def find_gap_face_hypergraphs(n: int, *, budget: int | None = None):
    """Eulerian classes whose face hypergraph has complete 6 but not 5.

    Returns (Embedding, SpectrumReport) pairs in enumeration order.  A
    budget-exhausted t=5 or t=6 leaves a class out (its report would not
    verify the gap), consistent with the solver's unknown semantics.
    """
    return _scan_gap_classes(n, budget)[0]


def _scan_gap_classes(n: int, budget: int | None):
    """(hits, undecided): the gap classes, and how many Eulerian classes
    the budget left undecided at t=5 or t=6."""
    hits = []
    undecided = 0
    for e in enumerate_triangulations(n):
        if not is_eulerian(e):
            continue
        rep = spectrum(face_hypergraph(e), budget=budget)
        if 5 in rep.unknown or 6 in rep.unknown:
            undecided += 1
        elif 6 in rep.feasible and 5 not in rep.feasible:
            hits.append((e, rep))
    return hits, undecided


def embedding_index(classes) -> list[dict]:
    """Summary rows (degree sequence, Eulerian flag) for an enumeration."""
    rows = []
    for i, e in enumerate(classes):
        rows.append({
            "index": i,
            "n": e.n,
            "m": e.m,
            "degrees": sorted(e.degrees()),
            "eulerian": is_eulerian(e),
        })
    return rows
