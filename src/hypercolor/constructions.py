"""Generators for the hypergraph families with known coloring spectra.

Three families and one primitive:

* ``grid_transversal(k, r)``: the k-part, r-position family whose edges
  are transversals picked by position patterns; it has complete colorings
  at t=k and t=r.  The band below r that it was meant to miss is empty
  at k = 3 (a mixed coloring fills it) and unconfirmed for k >= 4.
* ``regular15()``: the 3-uniform 3-regular hypergraph on 15 vertices
  whose spectrum is {3, 5}.
* ``complete_uniform(m, k)``: all k-subsets of m vertices.
* ``split_lift(pattern)``: split chosen vertices of a complete k-uniform
  base into two copies and route every base edge through one copy per
  split member.  The split searches explore exactly this space.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .core import (_CHUNK_ROWS, Coloring, DocumentError, Hypergraph, _chunks,
                   _id_dtype, comb_upto, dump_json, load_json)

# ceiling on r**k position assignments scanned by the grid generator
_GRID_SCAN_CAP = 300_000_000


@dataclass(frozen=True)
class GridParams:
    """Parameters of the grid transversal family.

    k parts with r positions each; vertex id = part * r + position.
    ``gap_range`` is the band of t values claimed to have no complete
    t-coloring; it is empty for k = 3 and unverified for k >= 4.
    """

    k: int
    r: int

    def __post_init__(self):
        if self.k < 3:
            raise ValueError(f"need k >= 3, got {self.k}")
        if self.r < self.k:
            raise ValueError(f"need r >= k, got r={self.r}, k={self.k}")

    @property
    def n(self) -> int:
        return self.k * self.r

    def gap_range(self) -> range:
        """Color counts t claimed to have no complete t-coloring.

        For k >= 4 this is ceil((k-2)r/(k-1)) + k + 1 .. r-1, a band no
        exact search has confirmed yet.  For k = 3 it is empty: the same
        formula gives ceil(r/2) + 4 .. r-1, but a mixed coloring (position
        p <= t-4 gets color p, every other vertex color t-3+part) is
        complete at every such t checked.
        """
        lo = -((self.k - 2) * self.r // -(self.k - 1)) + self.k + 1
        if self.k == 3:
            return range(lo, lo)
        return range(lo, self.r)


def grid_transversal(k: int, r: int) -> Hypergraph:
    """Build the grid family on k*r vertices.

    An assignment gives part i the position q_i; it yields the edge
    {i*r + q_i}.  The edge set keeps every assignment with all positions
    distinct that either has at most one adjacent position pair
    (|q_i - q_j| = 1) or is strictly increasing.  Distinct assignments
    give distinct edges, so no dedup pass is needed; the generator emits
    ascending rows already in lexicographic order, so the hypergraph
    keeps the array it fills without a copy.
    """
    params = GridParams(k, r)
    # r >= 3, so r**k passes the cap once r or k passes it or its bit
    # length; below both, the power has at most a few hundred digits
    if r > _GRID_SCAN_CAP or k > _GRID_SCAN_CAP.bit_length():
        raise ValueError(f"r**k = {r}**{k} assignments exceed the generator cap")
    if r ** k > _GRID_SCAN_CAP:
        raise ValueError(f"r**k = {r ** k} assignments exceed the generator cap")
    # an assignment's score counts its adjacent position pairs, plus 64 for
    # each repeated position: a kept assignment that is not strictly
    # increasing scores at most 1.  weight[p, q] is the score of one pair
    d = np.subtract.outer(np.arange(r), np.arange(r))
    weight = ((np.abs(d) == 1) + 64 * (d == 0)).astype(np.int16)
    # positions q_2..q_{k-1} of every tail, one contiguous vector per part,
    # tails in lexicographic order; the scores of their pairs are shared by
    # every prefix (q_0, q_1)
    tail = np.indices((r,) * (k - 2), dtype=np.int16).reshape(k - 2, -1)
    tails = tail.shape[1]
    score = np.zeros(tails, dtype=np.int16)
    for i, j in combinations(range(k - 2), 2):
        score += weight[tail[i], tail[j]]
    # a strictly increasing tail's first position, -1 for any other tail
    first = np.where((tail[1:] > tail[:-1]).all(axis=0), tail[0], -1)

    def meets(qs):
        """Per position q in qs and per tail, the scores of the pairs of q
        with the tail's positions: summed one position at a time, in the
        tails' lexicographic order."""
        w = weight[qs]
        out = np.zeros((len(qs), 1), dtype=np.int16)
        for _ in range(k - 2):
            out = (out[:, :, None] + w[:, None, :]).reshape(len(qs), -1)
        return out

    # a block is one q0 and a run of q1 values, `step` of them, so that a
    # numpy call covers about one chunk of tails (one q1 when they are more)
    step = min(r, max(1, _CHUNK_ROWS // tails))
    kept = []  # (q0, first q1, its kept tails one bit each, their count)
    for q0 in range(r):
        score0 = score + meets([q0])[0]
        for lo in range(0, r, step):
            q1 = np.arange(lo, min(lo + step, r), dtype=np.int16)[:, None]
            # q1 = q0 repeats a position, q1 next to q0 is an adjacent pair
            limit = np.minimum(np.abs(q1 - q0), 2) - 1
            mask = score0 + meets(q1[:, 0]) <= limit
            # q0 < q1 < the first position of an increasing tail
            mask |= first > np.where(q1 > q0, q1, r)
            kept.append((q0, lo, np.packbits(mask), int(np.count_nonzero(mask))))
    # each block's rows are its kept tail rows with q0 and q1 in front
    dtype = _id_dtype(params.n)
    block = np.empty((step * tails, k), dtype=dtype)
    run = np.repeat(np.arange(step, dtype=dtype), tails)
    for i, p in enumerate(tail, start=2):
        block[:, i] = np.tile(p + i * r, step)
    edges = np.empty((sum(count for *_, count in kept), k), dtype=dtype)
    at = 0
    for q0, lo, bits, count in kept:
        rows = (min(lo + step, r) - lo) * tails
        block[:, 0] = q0
        block[:, 1] = run + (lo + r)
        mask = np.unpackbits(bits, count=rows).view(bool)
        np.compress(mask, block[:rows], axis=0, out=edges[at:at + count])
        at += count
    return Hypergraph._trusted(params.n, k, edges)


def grid_part_coloring(k: int, r: int) -> Coloring:
    """t=k coloring by part index; complete because every edge is a transversal."""
    GridParams(k, r)
    return Coloring(tuple(v // r for v in range(k * r)), k)


def grid_position_coloring(k: int, r: int) -> Coloring:
    """t=r coloring by position index; complete because every position
    k-subset appears as an increasing assignment."""
    GridParams(k, r)
    return Coloring(tuple(v % r for v in range(k * r)), r)


def verify_grid_invariants(H: Hypergraph, k: int, r: int) -> dict[str, bool]:
    """Exhaustive structural checks of a grid instance.

    positions_distinct: no edge has two vertices at the same position.
    parts_distinct: every edge has exactly one vertex per part.
    cross_pairs_covered: a vertex pair is co-edged iff it differs in both
    part and position (covering direction meaningful for r >= (k-1)(k+2)).
    All three stream over the full edge array.
    """
    n = k * r
    pairs = list(combinations(range(k), 2))
    positions_distinct = True
    parts_distinct = True
    position = (np.arange(n) % r).astype(np.int16)
    seen = np.zeros(n * n, dtype=bool)  # co-edged pairs, keyed a * n + b
    for sl in _chunks(H.m):
        cols = [H.edges[sl, i].astype(np.intp) for i in range(k)]
        pos = [np.take(position, v) for v in cols]
        for i, v in enumerate(cols):
            if not bool(((v >= i * r) & (v < (i + 1) * r)).all()):
                parts_distinct = False
        for i, j in pairs:
            if bool((pos[i] == pos[j]).any()):
                positions_distinct = False
            seen[cols[i] * n + cols[j]] = True
    ids = np.arange(n)
    pu, qu = ids // r, ids % r
    expected = ((pu[:, None] != pu[None, :]) & (qu[:, None] != qu[None, :])
                & (ids[:, None] < ids[None, :]))
    cross = bool((seen.reshape(n, n) == expected).all())
    return {
        "positions_distinct": positions_distinct,
        "parts_distinct": parts_distinct,
        "cross_pairs_covered": cross,
    }


def regular15() -> Hypergraph:
    """The 3-uniform, 3-regular hypergraph on 15 vertices with spectrum {3,5}.

    Three parts of five vertices; vertex (part i, slot j) has id i*5 + j.
    Edge (i, j) takes part i's vertex at slot j+1 (wrapping) together
    with the slot-j vertex of both other parts.
    """
    edges = []
    for i in range(3):
        for j in range(5):
            edge = [i * 5 + (j + 1) % 5]
            for t in range(3):
                if t != i:
                    edge.append(t * 5 + j)
            edges.append(sorted(edge))
    return Hypergraph(15, 3, edges)


def complete_uniform(m: int, k: int) -> Hypergraph:
    """All C(m, k) k-subsets of {0..m-1} as edges."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if m < k:
        raise ValueError(f"need m >= k, got m={m}, k={k}")
    if comb_upto(m, k, 2_000_000) > 2_000_000:
        raise ValueError(f"C({m},{k}) edges exceed the generator cap")
    return Hypergraph(m, k, list(combinations(range(m), k)))


@dataclass(frozen=True)
class SplitPattern:
    """Recipe for splitting vertices of a complete k-uniform base.

    split lists the base vertices replaced by two copies.  lifts has one
    row per base edge, base edges in lexicographic order; row j holds a
    0/1 copy choice for each split member of base edge j, members in
    ascending order.  ``lift_layout`` fixes the lifted vertex ids.
    """

    base_m: int
    split: tuple[int, ...]
    lifts: tuple[tuple[int, ...], ...]
    k: int = 3

    def __post_init__(self):
        if self.k < 2 or self.base_m < self.k:
            raise ValueError(f"need base_m >= k >= 2, got base_m={self.base_m}, k={self.k}")
        split = tuple(sorted(int(v) for v in self.split))
        if len(set(split)) != len(split):
            raise ValueError("split vertices must be distinct")
        if split and (split[0] < 0 or split[-1] >= self.base_m):
            raise ValueError("split vertex out of range")
        object.__setattr__(self, "split", split)
        lifts = tuple(tuple(int(b) for b in row) for row in self.lifts)
        object.__setattr__(self, "lifts", lifts)
        # count before listing: the base has C(base_m, k) edges, and no
        # list holds more than sys.maxsize rows
        want_rows = comb_upto(self.base_m, self.k, sys.maxsize)
        if len(lifts) != want_rows:
            want = want_rows if want_rows <= sys.maxsize else f"over {sys.maxsize}"
            raise ValueError(f"expected {want} lift rows, got {len(lifts)}")
        split_set = set(split)
        for row, edge in zip(lifts, self.base_edges()):
            want = sum(1 for v in edge if v in split_set)
            if len(row) != want:
                raise ValueError(f"edge {edge} has {want} split members, "
                                 f"lift row {row} has {len(row)}")
            for b in row:
                if b not in (0, 1):
                    raise ValueError(f"lift choice must be 0 or 1, got {b}")

    def base_edges(self) -> list[tuple[int, ...]]:
        return list(combinations(range(self.base_m), self.k))

    def to_dict(self) -> dict:
        return {"base_m": self.base_m, "split": list(self.split),
                "lifts": [list(r) for r in self.lifts], "k": self.k}

    def to_json(self, *, pretty: bool = False) -> str:
        return dump_json(self.to_dict(), pretty=pretty)

    @classmethod
    def from_json(cls, text: str) -> "SplitPattern":
        doc = load_json(text)
        if not isinstance(doc, dict):
            raise DocumentError("pattern document must be a JSON object")
        for key in ("base_m", "split", "lifts"):
            if key not in doc:
                raise DocumentError(f"missing field {key!r}")
        k = doc.get("k", 3)
        if not isinstance(k, int) or isinstance(k, bool):
            raise DocumentError("field 'k' must be an integer")
        try:
            return cls(base_m=doc["base_m"], split=tuple(doc["split"]),
                       lifts=tuple(tuple(r) for r in doc["lifts"]), k=k)
        except (TypeError, ValueError) as exc:
            raise DocumentError(str(exc)) from exc


@lru_cache(maxsize=64)
def lift_layout(base_m: int, split: tuple, k: int) -> tuple[int, tuple]:
    """Vertex ids of every lift of the complete k-uniform base on base_m.

    Unsplit vertices keep the low ids in base order; copy b of the p-th
    split vertex gets id u + 2p + b, where u counts the unsplit vertices.
    Returns (n, rows) with one row per base edge in lexicographic order:
    the ids of the edge's unsplit members, and the copy-0 id of each of
    its split members in ascending order; tuples, as callers share them.
    """
    split = sorted(split)
    split_set = set(split)
    unsplit = [v for v in range(base_m) if v not in split_set]
    u = len(unsplit)
    lifted = {v: i for i, v in enumerate(unsplit)}
    lifted.update((v, u + 2 * p) for p, v in enumerate(split))
    rows = tuple((tuple(lifted[v] for v in e if v not in split_set),
                  tuple(lifted[v] for v in e if v in split_set))
                 for e in combinations(range(base_m), k))
    return u + 2 * len(split), rows


def split_lift(pattern: SplitPattern) -> Hypergraph:
    """Apply a split pattern to its complete k-uniform base.

    Every base edge becomes one edge through the chosen copies.  Distinct
    base edges always produce distinct edges (the copy ids identify the
    base members), so the result keeps C(base_m, k) edges.  Unchosen
    copies may be isolated but still count as vertices.
    """
    n, rows = lift_layout(pattern.base_m, pattern.split, pattern.k)
    edges = [fixed + tuple(c + b for c, b in zip(copies, lift))
             for (fixed, copies), lift in zip(rows, pattern.lifts)]
    return Hypergraph(n, pattern.k, edges)
