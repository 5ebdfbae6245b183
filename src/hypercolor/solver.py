"""Exact decision procedures for proper and complete colorings.

The solvers are depth-first searches over vertex assignments in
descending-degree order with first-use color symmetry breaking: color c
may only be tried if every color below c is already in use.  On top of
properness the complete-coloring search maintains coverage state (which
k-subsets of colors are already realized by a fully colored edge) and
prunes branches whose remaining open edges are fewer than the missing
subsets.

With ``cover_prune`` (the default) it also prunes by Hall's condition:
the missing subsets need distinct open edges, and edge j can take
subset S when j's colors are a proper subset of S and j's uncolored
vertices can take the colors S lacks, one each, none held by a
neighbor (the domain-aware matching of Regin's alldifferent filter,
used as forward checking; ``_distinct_colors`` finds those colors by
Kuhn's augmenting paths, polynomial in k).  ``_Hall`` repairs one such
matching from node to node, by depth-first augmenting paths with a
lookahead: a subset reached takes a free edge that fits it before it
displaces the subset on a held one.  Whether every uncovered subset can
be matched does not depend on which maximum matching is held, so the
repair's order changes its work, never a verdict, a node count or a
witness.  The prune cuts only subtrees without a complete leaf and the
visiting order is unchanged, so answers and witnesses do not depend on
``cover_prune``, and it never adds nodes.
Where fewer vertices are uncolored than colors unopened, Hall's
condition fails, so the class bound (``used + n - i < t``) cuts only
when ``cover_prune`` is off.

Apart from that repair, each assignment costs constant work per incident
edge and neighbor: every edge keeps a bitmask of its colors, a table
built with the subset list maps a full mask to the subset's rank, each
node keeps the ranks of the edges it closed so undo never recomputes
them, and every vertex keeps a bitmask of the colors its neighbors hold.

Budgets are counted in nodes, one node per tentative vertex assignment,
so a run is reproducible across machines.  The seed only permutes
vertices of equal degree in the search order; results (found / none) are
seed-independent, witnesses need not be.

``brute_force_spectrum`` is the independent oracle, and ``gapsearch``'s
one route to confirm a hit: it extends numpy blocks of colorings vertex
by vertex, one per color renaming, keeps only the proper ones, caps the
rows it builds (its cost), and never shares state with the search.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .core import (
    Coloring,
    Hypergraph,
    HypergraphError,
    SpectrumReport,
    is_complete,
    is_proper,
    subset_rank,
)

_STATUSES = ("found", "none", "budget_exhausted")

# refuse completeness state beyond this many k-subsets (a few list entries
# each); the exact search is meant for at most a few thousand edges
_SUBSET_CAP = 500_000

# the searches recurse once per vertex, so Python's default recursion
# limit of 1,000 frames, less the callers' frames, caps the vertex count
_MAX_SEARCH_VERTICES = 900


class BudgetExhaustedError(RuntimeError):
    """A number-valued query ran out of nodes at ``t`` colors."""

    def __init__(self, message: str, t: int | None = None):
        super().__init__(message)
        self.t = t


class VertexLimitError(HypergraphError):
    """The hypergraph has more vertices than the exact searches take."""


def _check_vertex_limit(n: int) -> None:
    if n > _MAX_SEARCH_VERTICES:
        raise VertexLimitError(
            f"the exact search takes at most {_MAX_SEARCH_VERTICES} vertices, "
            f"the hypergraph has {n}")


class EnumerationCapExceeded(RuntimeError):
    """Raised by the brute-force oracle when its walk builds too many rows."""


class InvalidWitnessError(RuntimeError):
    """Raised when a search's witness is not the coloring it searched for."""


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one existence query.

    status is "found" (witness attached), "none" (exhaustive refutation),
    or "budget_exhausted" (no conclusion).  nodes is the number of
    tentative assignments explored.
    """

    status: str
    witness: Coloring | None
    nodes: int

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"bad status {self.status!r}")


class _Budget:
    __slots__ = ("limit", "nodes")

    def __init__(self, limit):
        self.limit = math.inf if limit is None else int(limit)
        self.nodes = 0

    def spend(self):
        self.nodes += 1
        if self.nodes > self.limit:
            raise _OutOfBudget


class _OutOfBudget(Exception):
    pass


@lru_cache(maxsize=64)
def _shuffled(n: int, seed: int) -> tuple[int, ...]:
    # a function of (n, seed) alone; the split-search screens ask for the
    # same few tens of thousands of times
    vs = list(range(n))
    random.Random(seed).shuffle(vs)
    return tuple(vs)


def _search_order(deg, seed: int) -> list[int]:
    """Vertices by descending degree; seed shuffles only equal-degree ties."""
    vs = list(_shuffled(len(deg), seed))
    vs.sort(key=lambda v: -int(deg[v]))  # stable: shuffled order within ties
    return vs


def _proper_search(n: int, m: int, k: int, masks, deg, t: int,
                   budget: int | None, seed: int):
    """Proper t-coloring DFS on plain data: (status, colors or None, nodes).

    masks and deg are the conflict masks and degrees of a k-uniform
    hypergraph with n vertices and m edges, so callers that hold them
    without a Hypergraph (the split-search screens) share this search.
    Each color class is a bitset of vertices, so v may take c when
    ``masks[v] & cls[c]`` is empty.
    """
    if n == 0:
        return "found", [], 0
    if t == 0:
        return "none", None, 0
    if m == 0:
        return "found", [0] * n, 0
    if t < k:
        return "none", None, 0  # an edge needs k distinct colors
    _check_vertex_limit(n)

    order = _search_order(deg, seed)
    cls = [0] * t
    color_of = [-1] * n
    bud = _Budget(budget)

    def descend(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        mv = masks[v]
        bit = 1 << v
        for c in range(min(used + 1, t)):
            if mv & cls[c]:
                continue
            bud.spend()
            color_of[v] = c
            cls[c] |= bit
            if descend(i + 1, max(used, c + 1)):
                return True
            cls[c] ^= bit
            color_of[v] = -1
        return False

    try:
        ok = descend(0, 0)
    except _OutOfBudget:
        return "budget_exhausted", None, bud.nodes
    if ok:
        return "found", color_of, bud.nodes
    return "none", None, bud.nodes


def exists_proper(H: Hypergraph, t: int, *,
                  budget: int | None = None, seed: int = 0) -> SolveResult:
    """Decide whether a proper t-coloring exists.

    A thin wrapper around ``_proper_search``, the one proper-coloring
    DFS, which the split-search screens also call on slot-bit data.
    Raises :class:`VertexLimitError` as ``exists_complete`` does, and
    :class:`InvalidWitnessError` if a found witness fails ``is_proper``.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if H.m and t >= H.k:  # a search is needed: refuse before per-vertex work
        _check_vertex_limit(H.n)
        masks, deg = H.conflict_masks(), H.degrees()
    else:  # _proper_search answers without them
        masks, deg = (), ()
    status, colors, nodes = _proper_search(H.n, H.m, H.k, masks, deg, t, budget, seed)
    witness = Coloring(tuple(colors), t) if status == "found" else None
    if witness is not None and not is_proper(H, witness):
        raise InvalidWitnessError(
            f"t={t}: the search returned {witness}, not a proper coloring")
    return SolveResult(status, witness, nodes)


@lru_cache(maxsize=8)
def _subset_tables(t: int, k: int):
    """Tables over the k-subsets of colors {0..t-1}, which have colex ranks.

    Returns (rank_of, smask): the rank of each subset's color mask and the
    color mask of each rank.  A function of (t, k) alone, so repeated
    searches build it once.  No submasks, 2^k - 1 per subset: ``_Hall``
    scans only those its open edges carry.
    """
    rank_of = {sum(1 << c for c in sub): subset_rank(sub)
               for sub in combinations(range(t), k)}
    return rank_of, tuple(sorted(rank_of, key=rank_of.get))


def _distinct_colors(allowed) -> bool:
    """Whether vertex i can take a color from bitmask allowed[i], no two
    vertices the same one: Kuhn's augmenting paths over color bits."""
    owner = {}  # color bit -> the vertex holding it
    seen = 0

    def place(i):
        nonlocal seen
        while True:
            a = allowed[i] & ~seen
            if not a:
                return False
            b = a & -a
            seen |= b
            if b not in owner or place(owner[b]):
                owner[b] = i
                return True

    for i in range(len(allowed)):
        seen = 0
        if not place(i):
            return False
    return True


class _Hall:
    """The Hall bound's matching of uncovered subsets to open edges.

    at[r] is the edge subset r sits on (-1 when covered or displaced),
    holder[j] the subset on edge j (-1 when free) and bucket[mask] the
    open edges with that color mask, never empty: ``_augment`` scans the
    buckets inside r's mask, at most m of them whatever 2^k is.  A trail
    of (list, index, old value) lets ``undo`` restore the state from
    before ``assign``.

    ``fits`` answers at once unless a neighbor bars some open vertex
    from a lacking color, and calls ``_distinct_colors`` only when three
    or more then cover them all.  Verdicts are Hall's condition, which
    no choice of matching changes, so ``_augment``'s order cannot.
    """

    __slots__ = ("rows", "edges_of", "color_of", "barred", "emask", "rem",
                 "smask", "at", "holder", "bucket", "trail", "marks")

    def __init__(self, rows, edges_of, color_of, barred, emask, rem, smask):
        self.rows = rows
        self.edges_of = edges_of
        self.color_of = color_of
        self.barred = barred
        self.emask = emask
        self.rem = rem
        self.smask = smask
        # at the root every edge is blank and fits every subset, and the
        # counting bound gave m >= C(t, k)
        total = len(smask)
        self.at = list(range(total))
        self.holder = list(range(total)) + [-1] * (len(rows) - total)
        # a bucket's set is made when an edge opens it, dropped when it empties
        self.bucket = defaultdict(set, {0: set(range(len(rows)))})
        self.trail = []
        self.marks = []

    def fits(self, j, r) -> bool:
        """Whether subset r can still be realized by open edge j."""
        e = self.emask[j]
        s = self.smask[r]
        if e & ~s:
            return False
        need = s ^ e
        barred, color_of, row = self.barred, self.color_of, self.rows[j]
        for u in row:
            if color_of[u] < 0 and barred[u] & need:
                break
        else:  # no open vertex is barred from a color S lacks
            return True
        allowed = []
        union = 0
        for u in row:
            if color_of[u] < 0:
                a = need & ~barred[u]
                if not a:
                    return False
                allowed.append(a)
                union |= a
        # two vertices with nonempty masks covering both colors can
        # always take one each
        return union == need and (len(allowed) < 3
                                  or _distinct_colors(allowed))

    def _seat(self, r, j):
        trail, at, holder = self.trail, self.at, self.holder
        trail.append((at, r, at[r]))
        trail.append((holder, j, holder[j]))
        at[r] = j
        holder[j] = r

    def _unseat(self, r):
        trail, at, holder = self.trail, self.at, self.holder
        j = at[r]
        trail.append((holder, j, r))
        trail.append((at, r, j))
        holder[j] = -1
        at[r] = -1

    def assign(self, ev, bit, closed, newly) -> bool:
        """Repair the matching after v's edges ev took color bit.

        closed lists the ranks they realized, newly the neighbors bit
        was just barred from.  Covered subsets free their
        edges; the subsets on ev, and those on newly's edges that needed
        bit there, are re-checked; each one that no longer fits is
        re-seated by ``_augment``.  False when one cannot be, as Hall's
        condition then fails.
        """
        emask, rem, bucket = self.emask, self.rem, self.bucket
        at, holder, fits = self.at, self.holder, self.fits
        self.marks.append(len(self.trail))
        for j in ev:
            new = emask[j]
            was = new ^ bit
            js = bucket[was]
            js.remove(j)
            if not js:
                del bucket[was]
            if rem[j]:
                bucket[new].add(j)
        for r in closed:  # a newly covered subset gives its edge back
            if at[r] >= 0:
                self._unseat(r)
        loose = []  # subsets whose edge can no longer realize them
        for j in ev:
            r = holder[j]
            if r >= 0 and not (rem[j] and fits(j, r)):
                self._unseat(r)
                loose.append(r)
        smask, edges_of, color_of = self.smask, self.edges_of, self.color_of
        for w in newly:  # w lost the color; recheck edges that needed it
            if color_of[w] >= 0:
                continue
            for j in edges_of[w]:
                r = holder[j]
                if r >= 0 and smask[r] & ~emask[j] & bit and not fits(j, r):
                    self._unseat(r)
                    loose.append(r)
        for r in loose:
            if not self._augment(r):
                return False
        return True

    def _augment(self, root) -> bool:
        """Seat subset root by a depth-first search for an augmenting
        path with MC21's lookahead (Duff, Kaya & Ucar, ACM TOMS 2011): a
        subset just reached takes the first free edge that fits it, else
        goes on to the holder, not yet reached, of a held edge that fits
        it.  Each subset on a path that reaches a free edge moves one
        edge along.  When the search fails, the subsets reached fit fewer
        edges than there are of them, and Hall's condition fails.  The
        stack is explicit: a path can be as long as the uncovered
        subsets are many."""
        at, holder, bucket, fits, smask = self.at, self.holder, \
            self.bucket, self.fits, self.smask
        reached = {root}
        path = [root]  # each later subset holds an edge the one before fits
        rest = []      # per subset on the path, its edges not yet tried
        while path:
            x = path[-1]
            if len(rest) < len(path):  # x was just reached: look ahead
                out = ~smask[x]
                masks = [mask for mask in bucket if not mask & out]
                masks.sort(reverse=True)
                for mask in masks:
                    for j in bucket[mask]:
                        if holder[j] < 0 and fits(j, x):
                            for y in reversed(path):  # each takes j, frees its own
                                nxt = at[y]
                                self._seat(y, j)
                                j = nxt
                            return True
                rest.append(chain.from_iterable(bucket[mask] for mask in masks))
            for j in rest[-1]:
                y = holder[j]
                if y >= 0 and y not in reached and fits(j, x):
                    reached.add(y)
                    path.append(y)
                    break
            else:  # no way on from x
                path.pop()
                rest.pop()
        return False

    def undo(self, ev, bit):
        """Restore the state from before the last ``assign``."""
        trail = self.trail
        mark = self.marks.pop()
        while len(trail) > mark:
            arr, i, old = trail.pop()
            arr[i] = old
        emask, rem, bucket = self.emask, self.rem, self.bucket
        for j in ev:
            new = emask[j]
            if rem[j]:
                js = bucket[new]
                js.remove(j)
                if not js:
                    del bucket[new]
            bucket[new ^ bit].add(j)


def exists_complete(H: Hypergraph, t: int, *,
                    budget: int | None = None, seed: int = 0,
                    cover_prune: bool = True) -> SolveResult:
    """Decide whether a complete t-coloring exists.

    Quick refutations before any search: an edgeless hypergraph (by
    convention), t < k (properness), t > n (an empty class), and
    C(t, k) > m (more color k-subsets than edges to realize them).
    cover_prune switches the Hall bound (:class:`_Hall`): every
    uncovered subset needs its own open edge whose colors it contains
    and whose uncolored vertices can still take the colors it lacks.
    Answers never depend on it, node counts do.  Raises ValueError past
    ``_SUBSET_CAP`` subsets, :class:`VertexLimitError` when a search is
    needed on more than ``_MAX_SEARCH_VERTICES`` vertices, and
    :class:`InvalidWitnessError` if a found witness fails ``is_complete``.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if H.m == 0 or t < H.k or t > H.n:
        return SolveResult("none", None, 0)
    total = math.comb(t, H.k)
    if total > H.m:
        return SolveResult("none", None, 0)
    if total > _SUBSET_CAP:
        raise ValueError(f"C({t},{H.k}) = {total} exceeds the exact-search cap")
    _check_vertex_limit(H.n)

    k = H.k
    n = H.n
    order = _search_order(H.degrees(), seed)
    barred = [0] * n        # colors some neighbor of each vertex holds
    color_of = [-1] * n

    m = H.m
    rows = H.edge_tuples()
    edges_of: list[list[int]] = [[] for _ in range(n)]
    for j, row in enumerate(rows):
        for v in row:
            edges_of[v].append(j)
    neighbors = [{w for j in ev for w in rows[j]} - {v}
                 for v, ev in enumerate(edges_of)]

    rank_of, smask = _subset_tables(t, k)

    rem = [k] * m           # uncolored vertices per edge
    emask = [0] * m         # colors on each edge
    cov_cnt = [0] * total   # edges realizing each subset
    covered = 0
    n_open = m
    bud = _Budget(budget)
    hall = _Hall(rows, edges_of, color_of, barred, emask, rem,
                 smask) if cover_prune else None

    def descend(i: int, used: int) -> bool:
        nonlocal covered, n_open
        if i == n:
            return used == t and covered == total
        if used + n - i < t:
            return False  # cannot open the missing color classes
        v = order[i]
        bv = barred[v]
        ev = edges_of[v]
        for c in range(min(used + 1, t)):
            bit = 1 << c
            if bv & bit:
                continue
            bud.spend()
            color_of[v] = c
            newly = [w for w in neighbors[v] if not barred[w] & bit]
            for w in newly:
                barred[w] |= bit
            closed = []  # ranks of the edges v closes
            for j in ev:
                emask[j] |= bit
                rem[j] -= 1
                if rem[j] == 0:
                    r = rank_of[emask[j]]
                    closed.append(r)
                    cov_cnt[r] += 1
                    if cov_cnt[r] == 1:
                        covered += 1
            n_open -= len(closed)
            # open edges too few for the uncovered subsets
            ok = covered + n_open >= total
            held = ok and cover_prune  # whether hall holds a state to undo
            if held:
                ok = hall.assign(ev, bit, closed, newly)
            if ok and descend(i + 1, max(used, c + 1)):
                return True
            if held:
                hall.undo(ev, bit)
            for j in ev:
                emask[j] ^= bit
                rem[j] += 1
            for r in closed:
                cov_cnt[r] -= 1
                if cov_cnt[r] == 0:
                    covered -= 1
            n_open += len(closed)
            for w in newly:
                barred[w] ^= bit
            color_of[v] = -1
        return False

    try:
        ok = descend(0, 0)
    except _OutOfBudget:
        return SolveResult("budget_exhausted", None, bud.nodes)
    if ok:
        witness = Coloring(tuple(color_of), t)
        if not is_complete(H, witness):
            raise InvalidWitnessError(
                f"t={t}: the search returned {witness}, not a complete coloring")
        return SolveResult("found", witness, bud.nodes)
    return SolveResult("none", None, bud.nodes)


def psi_upper_bound(H: Hypergraph) -> int:
    """Largest t <= n with C(t, k) <= m; 0 for an edgeless hypergraph.

    Any complete t-coloring needs every k-subset of colors realized by a
    distinct edge, so this caps the achromatic number.
    """
    if H.m == 0:
        return 0
    t = H.k - 1
    while t + 1 <= H.n and math.comb(t + 1, H.k) <= H.m:
        t += 1
    return t


def _clique_lower_bound(H: Hypergraph) -> int:
    """Greedy clique in the conflict graph; every member needs its own color.
    H must have a vertex."""
    masks = H.conflict_masks()
    deg = [int(b) for b in map(int.bit_count, masks)]
    start = max(range(H.n), key=lambda v: deg[v])
    clique = [start]
    common = masks[start]
    while common:
        cand = max((v for v in range(H.n) if (common >> v) & 1),
                   key=lambda v: deg[v])
        clique.append(cand)
        common &= masks[cand]
    return len(clique)


def chromatic_number(H: Hypergraph, *,
                     budget: int | None = None, seed: int = 0) -> int:
    """Least t admitting a proper t-coloring.

    0 for the empty hypergraph, 1 for edgeless with vertices.  Raises
    :class:`BudgetExhaustedError` if any single existence query runs out
    of nodes, and :class:`VertexLimitError` before any per-vertex work
    when a search is needed.
    """
    if H.n == 0:
        return 0
    if H.m == 0:
        return 1
    _check_vertex_limit(H.n)
    t = max(H.k, _clique_lower_bound(H))
    while True:
        res = exists_proper(H, t, budget=budget, seed=seed)
        if res.status == "found":
            return t
        if res.status == "budget_exhausted":
            raise BudgetExhaustedError(
                f"chromatic number undecided at t={t} after {res.nodes} nodes", t)
        t += 1


def achromatic_number(H: Hypergraph, *,
                      budget: int | None = None, seed: int = 0) -> int:
    """Greatest t admitting a complete t-coloring, 0 if none exists."""
    hi = psi_upper_bound(H)
    for t in range(hi, H.k - 1, -1):
        res = exists_complete(H, t, budget=budget, seed=seed)
        if res.status == "found":
            return t
        if res.status == "budget_exhausted":
            raise BudgetExhaustedError(
                f"achromatic number undecided at t={t} after {res.nodes} nodes", t)
    return 0


def spectrum(H: Hypergraph, *,
             budget: int | None = None, seed: int = 0) -> SpectrumReport:
    """Full feasibility map over t = k .. psi_upper_bound.

    Every search gets the node budget: the chromatic number's, then one
    completeness search per t from chi up; budget-exhausted values go to
    ``unknown``.  If the chromatic-number search runs out at some t, chi
    is None and the completeness searches start at that t, as no smaller
    t has a proper coloring.  psi is None when some unknown t lies above
    every feasible one, as it could then be the achromatic number.
    """
    warnings = []
    if H.m == 0:
        warnings.append("hypergraph has no edges; no complete coloring by convention")
    else:  # it searches: refuse past the vertex limit before counting
        _check_vertex_limit(H.n)
        iso = len(H.isolated_vertices())
        if iso:
            warnings.append(f"{iso} isolated vertices")

    try:
        chi = lo = chromatic_number(H, budget=budget, seed=seed)
    except BudgetExhaustedError as exc:
        chi, lo = None, exc.t
    feasible = []
    unknown = []
    witnesses = {}
    for t in range(max(H.k, lo), psi_upper_bound(H) + 1):
        res = exists_complete(H, t, budget=budget, seed=seed)
        if res.status == "found":
            feasible.append(t)
            witnesses[t] = res.witness
        elif res.status == "budget_exhausted":
            unknown.append(t)
    psi = feasible[-1] if feasible else 0
    if unknown and unknown[-1] > psi:
        psi = None
    return SpectrumReport(chi=chi, psi=psi,
                          feasible=tuple(feasible),
                          unknown=tuple(unknown),
                          witnesses=witnesses,
                          warnings=tuple(warnings))


# -- brute-force oracle ------------------------------------------------

_BRUTE_CHUNK = 4_096     # rows per numpy pass of the walk, children included
_BRUTE_ROWS = 2_000_000  # proper partial colorings the walk may build


def _proper_colorings(H: Hypergraph, hi: int):
    """The proper colorings of H with at most hi colors, one per renaming
    of the colors (each first used after the one below it), as int8
    blocks of rows.

    Colors the vertices in id order: a row takes a color it already uses
    or, below hi colors, the next new one, and is dropped as soon as two
    vertices of an edge share a color.  Depth first, so each vertex
    holds one block, and no pass builds more than ``_BRUTE_CHUNK`` rows.
    """
    earlier = [set() for _ in range(H.n)]   # neighbors colored before v
    for e in H.edge_tuples():   # sorted, so u < v
        for u, v in combinations(e, 2):
            earlier[v].add(u)
    built = 0

    def extend(A):
        nonlocal built
        j = A.shape[1]   # the vertex to color
        if j == H.n:
            yield A
            return
        counts = np.minimum(A.max(axis=1) + 2, hi)   # old colors, a new one
        ends = np.cumsum(counts, dtype=np.int64)
        for start in range(0, int(ends[-1]), _BRUTE_CHUNK):
            idx = np.arange(start, min(start + _BRUTE_CHUNK, int(ends[-1])))
            par = np.searchsorted(ends, idx, side="right")
            color = (idx - ends[par] + counts[par]).astype(np.int8)
            seen = A[np.ix_(par, sorted(earlier[j]))]
            ok = (seen != color[:, None]).all(axis=1)
            built += int(ok.sum())
            if built > _BRUTE_ROWS:
                raise EnumerationCapExceeded(f"over {_BRUTE_ROWS} rows")
            if ok.any():
                yield from extend(np.column_stack((A[par[ok]], color[ok])))

    yield from extend(np.zeros((1, 1), dtype=np.int8))   # vertex 0: color 0


def brute_force_spectrum(H: Hypergraph, t_max: int | None = None) -> set[int]:
    """Feasible t values by enumerating every coloring, for cross-checks.

    Walks the proper colorings with at most t_max colors (default: the
    counting bound), one per renaming of the colors, and keeps each t
    from k up for which one of them uses t colors and realizes every
    k-subset of them.  That is exact, and all it takes on trust:
    renaming maps proper complete colorings to proper complete
    colorings, each has one renaming whose colors first appear as 0, 1,
    2, ..., and the walk drops a row only when two vertices of an edge
    share a color, so that every coloring extending it repeats a color
    on that edge and none is proper.  It stops once every t is found.
    It costs about 2 us per row it builds, and refuses with
    :class:`EnumerationCapExceeded` past ``_BRUTE_ROWS`` rows.  Shares
    no code or state with the backtracking search.
    """
    # the counting bound holds for every t from k to top
    top = min(psi_upper_bound(H), H.n if t_max is None else t_max)
    if top < H.k:
        return set()
    k = H.k
    edges = H.edge_tuples()
    # rank of a sorted k-subset of colors: sum of C(color_i, i + 1)
    tab = np.array([[math.comb(c, i + 1) for i in range(k)]
                    for c in range(top)], dtype=np.int64)
    subsets = np.array([math.comb(t, k) for t in range(top + 1)])
    offsets = np.arange(k)
    out: set[int] = set()
    for A in _proper_colorings(H, top):
        used = A.max(axis=1) + 1
        ranks = np.empty((A.shape[0], len(edges)), dtype=np.int64)
        for j, e in enumerate(edges):
            ranks[:, j] = tab[np.sort(A[:, e], axis=1), offsets].sum(axis=1)
        ranks.sort(axis=1)
        distinct = (np.diff(ranks, axis=1) > 0).sum(axis=1) + 1
        out.update(used[distinct == subsets[used]].tolist())
        if len(out) == top - k + 1:
            break
    return out
