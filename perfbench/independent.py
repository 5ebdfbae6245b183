"""Reference computations for the benchmark's correctness checks.

Everything here is written from the definitions and imports nothing from
hypercolor, so a fault in the package cannot hide itself by agreeing with
its own output.  Hypergraphs are plain ``(n, k, edges)`` with edges as
vertex tuples; colorings are plain sequences of colour indices.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np


def is_complete_coloring(n: int, k: int, edges, colors, t: int) -> bool:
    """Proper, every one of the t classes nonempty, every k-subset realised."""
    if len(colors) != n or any(not 0 <= c < t for c in colors):
        return False
    if len(set(colors)) != t:
        return False
    seen = set()
    for e in edges:
        cs = frozenset(colors[v] for v in e)
        if len(cs) != k:
            return False
        seen.add(cs)
    return len(seen) == math.comb(t, k)


def _closing_order(n: int, edges) -> list[int]:
    """Vertex order that completes edges early, so partial colourings prune."""
    order: list[int] = []
    placed = set()
    while len(order) < n:
        def gain(v):
            closes = sum(1 for e in edges
                         if v in e and all(w in placed or w == v for w in e))
            touches = sum(1 for e in edges if v in e and placed & set(e))
            return (closes, touches, -v)
        v = max((v for v in range(n) if v not in placed), key=gain)
        order.append(v)
        placed.add(v)
    return order


# partial colourings held at once; 4M rows of up to 18 int8 stay under 100 MB
_STATE_CAP = 4_000_000


def complete_sizes(n: int, k: int, edges, ts) -> set[int]:
    """The t in ts that admit a complete t-colouring, by exhaustive search.

    Enumerates every proper colouring up to renaming of colours (colour c
    is first used after colours 0..c-1) one vertex at a time, as numpy
    arrays of partial colourings, dropping a partial colouring as soon as
    an edge it has fully coloured repeats a colour.  Feasible for the
    search-scale instances (n up to about 12), not for the bulk families.
    """
    edges = [tuple(e) for e in edges]
    order = _closing_order(n, edges)
    pos = {v: i for i, v in enumerate(order)}
    closing: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for e in edges:
        cols = tuple(sorted(pos[v] for v in e))
        closing[cols[-1]].append(cols)
    out = set()
    for t in ts:
        if t < k or t > n or math.comb(t, k) > len(edges):
            continue
        states = np.zeros((1, 1), dtype=np.int8)      # first vertex: colour 0
        used = np.ones(1, dtype=np.int8)
        for i in range(1, n):
            parts, uparts = [], []
            for c in range(t):
                sel = used >= c                          # c <= number used
                if not sel.any():
                    continue
                block = np.empty((int(sel.sum()), i + 1), dtype=np.int8)
                block[:, :i] = states[sel]
                block[:, i] = c
                parts.append(block)
                uparts.append(np.maximum(used[sel], c + 1).astype(np.int8))
            states = np.concatenate(parts)
            used = np.concatenate(uparts)
            keep = used + (n - 1 - i) >= t               # classes still fillable
            for cols in closing[i]:
                for a, b in combinations(cols, 2):
                    keep &= states[:, a] != states[:, b]
            states, used = states[keep], used[keep]
            if len(states) > _STATE_CAP:
                raise ValueError(f"{len(states)} partial colourings at t={t}")
            if not len(states):
                break
        states = states[used == t] if len(states) else states
        if len(states) and _any_complete(states, closing, k, t):
            out.add(t)
    return out


def _any_complete(states: np.ndarray, closing, k: int, t: int) -> bool:
    comb = np.array([[math.comb(c, i + 1) for i in range(k)] for c in range(t)],
                    dtype=np.int64)
    edge_cols = [cols for group in closing for cols in group]
    total = math.comb(t, k)
    for lo in range(0, len(states), 200_000):
        block = states[lo:lo + 200_000]
        seen = np.zeros((len(block), total), dtype=bool)
        rows = np.arange(len(block))
        for cols in edge_cols:
            s = np.sort(block[:, list(cols)], axis=1).astype(np.int64)
            rank = sum(comb[s[:, i], i] for i in range(k))
            seen[rows, rank] = True
        if bool(seen.all(axis=1).any()):
            return True
    return False


def relabel(n: int, edges, rng) -> list[tuple[int, ...]]:
    """The same hypergraph under a random vertex permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [tuple(sorted(perm[v] for v in e)) for e in edges]


# -- grid family -----------------------------------------------------------


def grid_edge_count(k: int, r: int) -> int:
    """Edge count of the grid family, by counting position sets.

    An edge is an assignment of distinct positions to the k parts that has
    at most one adjacent pair or is strictly increasing.  Whether two
    positions are adjacent depends only on the set of positions, so a
    k-set with at most one adjacent pair contributes all k! assignments
    and any other k-set only its increasing one.  The k-sets of 0..r-1
    with exactly j adjacent pairs number C(k-1, j) * C(r-k+1, k-j).
    """
    few = sum(math.comb(k - 1, j) * math.comb(r - k + 1, k - j) for j in (0, 1))
    return math.factorial(k) * few + (math.comb(r, k) - few)


def grid_edges(k: int, r: int) -> set[tuple[int, ...]]:
    """Grid family edges from the definition, one assignment at a time."""
    out = set()
    for q in product(range(r), repeat=k):
        if len(set(q)) != k:
            continue
        adjacent = sum(1 for a, b in combinations(q, 2) if abs(a - b) == 1)
        if adjacent <= 1 or all(q[i] < q[i + 1] for i in range(k - 1)):
            out.add(tuple(i * r + qi for i, qi in enumerate(q)))
    return out


# -- split lifts and planar faces ------------------------------------------


def lift_edges(base_m: int, split, lifts, k: int) -> tuple[int, list]:
    """Vertex count and edges of a split pattern's lift.

    Unsplit base vertices keep ids 0..u-1 in base order; the two copies of
    the p-th split vertex are u + 2p and u + 2p + 1; row j of lifts picks
    a copy for each split member of the j-th base edge in lexicographic
    order.
    """
    split = sorted(split)
    unsplit = [v for v in range(base_m) if v not in split]
    u = len(unsplit)
    edges = []
    for base_edge, row in zip(combinations(range(base_m), k), lifts):
        choice = iter(row)
        edges.append(tuple(sorted(
            u + 2 * split.index(v) + next(choice) if v in split
            else unsplit.index(v)
            for v in base_edge)))
    return u + 2 * len(split), edges


def triangle_faces(rotation) -> set[frozenset]:
    """Faces of a triangulation given as a rotation system.

    Every pair of cyclically consecutive neighbours of a vertex spans a
    triangular face with it.
    """
    faces = set()
    for v, nbrs in enumerate(rotation):
        d = len(nbrs)
        for i in range(d):
            faces.add(frozenset((v, nbrs[i], nbrs[(i + 1) % d])))
    return faces
