"""Canonical labeling of small hypergraphs for isomorphism rejection.

One search serves both public functions.  It refines vertex colors by
signature (own color plus the multiset of edge color profiles through
the vertex) and individualizes each vertex of the first non-singleton
cell when refinement stalls.  Every leaf is a discrete coloring, read as
a relabeling; the search keeps the leaf whose relabeled edge encoding is
smallest.  ``canonical_form`` returns that encoding, so two hypergraphs
are isomorphic iff their forms are equal byte strings, and
``canonical_labeling`` returns the relabeling that produced it.

Meant for search-scale instances (n up to a few dozen); cost grows with
the automorphism group, e.g. the complete uniform hypergraphs branch
n! / (cells) times.  A cell of isolated vertices is the one exception:
it branches on its first member only.
"""

from __future__ import annotations

import struct

from .core import Hypergraph


def _refine(colors: list[int], vertex_edges: list[list[int]],
            edges: list[tuple[int, ...]]) -> list[int]:
    n = len(colors)
    while True:
        # each edge's sorted color tuple, once per round
        profiles = [tuple(sorted([colors[w] for w in e])) for e in edges]
        sigs = [(colors[v], tuple(sorted([profiles[j] for j in vertex_edges[v]])))
                for v in range(n)]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _encode(H: Hypergraph, perm: list[int]) -> bytes:
    """Relabel with perm (new id of old vertex) and pack edges canonically."""
    rows = sorted(tuple(sorted(perm[v] for v in row)) for row in H.edge_tuples())
    out = bytearray(struct.pack(">III", H.n, H.k, H.m))
    if H.n <= 0xFF:
        for row in rows:
            out.extend(row)
    else:
        for row in rows:
            for v in row:
                out.extend(struct.pack(">I", v))
    return bytes(out)


def _search(H: Hypergraph) -> tuple[bytes, tuple[int, ...]]:
    """Minimum edge encoding over all leaves, with the labeling that gives it."""
    n = H.n
    if n == 0:
        return _encode(H, []), ()
    edges = H.edge_tuples()
    vertex_edges: list[list[int]] = [[] for _ in range(n)]
    for j, row in enumerate(edges):
        for v in row:
            vertex_edges[v].append(j)

    best: tuple[bytes, tuple[int, ...]] | None = None

    def descend(colors: list[int]):
        nonlocal best
        colors = _refine(colors, vertex_edges, edges)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            code = _encode(H, colors)
            if best is None or code < best[0]:
                best = (code, tuple(colors))
            return
        if not any(vertex_edges[v] for v in target):
            # swapping two isolated vertices is an automorphism, so every
            # branch of this cell reaches the same codes as the first
            target = target[:1]
        for v in target:
            branched = [c * 2 for c in colors]
            branched[v] -= 1
            descend(branched)

    descend([0] * n)
    assert best is not None
    return best


def canonical_form(H: Hypergraph) -> bytes:
    """Byte string identical across all relabelings of H."""
    return _search(H)[0]


def canonical_labeling(H: Hypergraph) -> tuple[int, ...]:
    """One vertex permutation (new id per old vertex) achieving the canonical form."""
    return _search(H)[1]


def are_isomorphic(H1: Hypergraph, H2: Hypergraph) -> bool:
    if (H1.n, H1.k, H1.m) != (H2.n, H2.k, H2.m):
        return False
    return canonical_form(H1) == canonical_form(H2)
