"""Exact decision procedures for proper and complete colorings.

The solvers are depth-first searches over vertex assignments in
descending-degree order with first-use color symmetry breaking: color c
may only be tried if every color below c is already in use.  On top of
properness the complete-coloring search maintains coverage state (which
k-subsets of colors are already realized by a fully colored edge) and
prunes branches whose remaining open edges cannot cover the missing
subsets, or whose newest color class meets every edge while a subset
without that color is still missing.

With ``cover_prune`` (the default) it also prunes by Hall's condition:
every missing subset needs its own open edge whose colors it contains,
so a node survives only if a matching takes the missing subsets to
distinct such edges.  ``_Matching`` carries one from node to node.
Open edges with the same color mask are interchangeable, so a subset is
matched to a mask, and a mask holds at most as many subsets as it has
open edges.  An assignment moves the vertex's edges to larger masks; a
mask left with more subsets than edges passes one on along an
alternating path, found by a breadth-first search over masks on bitsets
of subsets, and a failed search exhibits the Hall violation.  Each
assignment copies the matching first (two dicts with one entry per mask
of fewer than k colors, and one list entry per subset), so backtracking
restores the parent's matching exactly.  The prune cuts only subtrees
without a complete leaf and the visiting order is unchanged, so answers
and witnesses do not depend on ``cover_prune``, and it never adds nodes.

Apart from that repair, each assignment costs constant work per incident
edge: every edge keeps a bitmask of its colors, a table built with the
subset list maps a full mask to the subset's rank, each node keeps the
ranks of the edges it closed so undo never recomputes them, and a
per-color counter of the edges meeting the class (properness puts at
most one vertex of a class on an edge) replaces a scan of all edges.

Budgets are counted in nodes, one node per tentative vertex assignment,
so a run is reproducible across machines.  The seed only permutes
vertices of equal degree in the search order; results (found / none) are
seed-independent, witnesses need not be.

``brute_force_spectrum`` is the independent oracle: it enumerates every
assignment by mixed-radix counting in numpy chunks and never shares
state with the search.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

import numpy as np

from .core import (
    Coloring,
    Hypergraph,
    SpectrumReport,
    is_complete,
    subset_rank,
)

_STATUSES = ("found", "none", "budget_exhausted")

# refuse completeness state beyond this many k-subsets; the exact search
# is meant for instances with at most a few thousand edges
_SUBSET_CAP = 500_000


class BudgetExhaustedError(RuntimeError):
    """A number-valued query ran out of nodes at ``t`` colors."""

    def __init__(self, message: str, t: int | None = None):
        super().__init__(message)
        self.t = t


class EnumerationCapExceeded(RuntimeError):
    """Raised by the brute-force oracle when the assignment count is too big."""


class InvalidWitnessError(RuntimeError):
    """Raised when a search reports a witness that is not a complete coloring."""


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


def _neighbor_lists(masks) -> list[list[int]]:
    out = []
    for mask in masks:
        acc = []
        while mask:
            low = mask & -mask
            acc.append(low.bit_length() - 1)
            mask ^= low
        out.append(acc)
    return out


def _counts_factory(n: int, t: int):
    # same-colored-neighbor counts; bytearray caps at 255 so only safe
    # when no vertex can see that many assigned neighbors
    if n <= 255:
        return [bytearray(t) for _ in range(n)]
    return [[0] * t for _ in range(n)]


def _proper_search(n: int, m: int, k: int, masks, deg, t: int,
                   budget: int | None, seed: int):
    """Proper t-coloring DFS on plain data: (status, colors or None, nodes).

    masks and deg are the conflict masks and degrees of a k-uniform
    hypergraph with n vertices and m edges, so callers that hold them
    without a Hypergraph (the split-search screens) share this search.
    """
    if n == 0:
        return "found", [], 0
    if t == 0:
        return "none", None, 0
    if m == 0:
        return "found", [0] * n, 0
    if t < k:
        return "none", None, 0  # an edge needs k distinct colors

    order = _search_order(deg, seed)
    neighbors = _neighbor_lists(masks)
    cnt = _counts_factory(n, t)
    color_of = [-1] * n
    bud = _Budget(budget)

    def descend(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        cv = cnt[v]
        limit = min(used + 1, t)
        for c in range(limit):
            if cv[c]:
                continue
            bud.spend()
            color_of[v] = c
            for w in neighbors[v]:
                cnt[w][c] += 1
            if descend(i + 1, max(used, c + 1)):
                return True
            for w in neighbors[v]:
                cnt[w][c] -= 1
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
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    status, colors, nodes = _proper_search(
        H.n, H.m, H.k, H.conflict_masks(), H.degrees(), t, budget, seed)
    witness = Coloring(tuple(colors), t) if status == "found" else None
    return SolveResult(status, witness, nodes)


@lru_cache(maxsize=8)
def _subset_tables(t: int, k: int):
    """Tables over the k-subsets of colors {0..t-1}, which have colex ranks.

    Returns (rank_of, without, subs, sup): the rank of each subset's color
    mask; for each color, the bitset of ranks of the subsets without it;
    for each rank, the proper submasks of its subset, which are the
    masks an open edge can carry and still realize it; and for each such
    mask, the bitset of ranks of the subsets that strictly contain it.
    A function of (t, k) alone, so repeated searches build it once.
    """
    total = math.comb(t, k)
    rank_of = {}
    without = [(1 << total) - 1] * t
    for sub in combinations(range(t), k):
        r = subset_rank(sub)
        rank_of[sum(1 << c for c in sub)] = r
        for c in sub:
            without[c] &= ~(1 << r)
    subs = [()] * total
    sup = {}
    for mask, r in rank_of.items():
        acc = []
        s = mask
        while s:
            s = (s - 1) & mask
            acc.append(s)
            sup[s] = sup.get(s, 0) | 1 << r
        subs[r] = tuple(acc)
    return rank_of, tuple(without), tuple(subs), sup


class _Matching:
    """The Hall bound's matching, repaired after each assignment.

    where[r] is the mask subset r sits on (-1 once covered),
    members[mask] the bitset of subsets on it and spare[mask] its open
    edges minus its subsets.  The dicts are keyed by the masks an open
    edge can carry (fewer than k colors), so nothing is sized 2**t.
    ``assign`` returns False when Hall's condition fails; either way
    ``undo`` then restores the state from before it.
    """

    __slots__ = ("emask", "rem", "subs", "sup", "where", "spare",
                 "members", "saved")

    def __init__(self, m, total, emask, rem, subs, sup):
        self.emask = emask
        self.rem = rem
        self.subs = subs
        self.sup = sup
        # at the root every edge is blank, and the counting bound gave
        # m >= C(t, k)
        self.where = [0] * total
        self.spare = dict.fromkeys(sup, 0)
        self.spare[0] = m - total
        self.members = dict.fromkeys(sup, 0)
        self.members[0] = (1 << total) - 1
        self.saved = []

    def assign(self, ev, c, closed) -> bool:
        """v's edges ev just took color c; closed lists the ranks they
        realized.  False when Hall's condition fails."""
        emask, rem = self.emask, self.rem
        where, spare, members = self.where, self.spare, self.members
        self.saved.append((where, spare, members))
        self.where = where = where[:]
        self.spare = spare = spare.copy()
        self.members = members = members.copy()
        for r in closed:  # a newly covered subset gives its place back
            mask = where[r]
            if mask >= 0:
                where[r] = -1
                members[mask] ^= 1 << r
                spare[mask] += 1
        bit = 1 << c
        short = []  # masks that lost an edge they had no spare for
        for j in ev:
            new = emask[j]
            if rem[j]:
                spare[new] += 1
            old = new ^ bit
            if spare[old]:
                spare[old] -= 1
            else:
                short.append(old)
        if not short:
            return True
        sup = self.sup
        roomy = [mask for mask, extra in spare.items() if extra > 0]
        room = 0  # subsets that fit a mask in roomy
        for mask in roomy:
            room |= sup[mask]
        for old in short:
            mem = members[old]
            fit = mem & room
            if fit:  # one of them moves to a mask with room
                b = fit & -fit
                r = b.bit_length() - 1
                for dest in self.subs[r]:
                    if spare[dest] > 0:
                        break
                where[r] = dest
                members[old] = mem ^ b
                members[dest] |= b
                spare[dest] -= 1
                if spare[dest]:
                    continue
                roomy.remove(dest)
            else:
                b = mem & -mem
                members[old] = mem ^ b
                if not self._augment(b.bit_length() - 1, roomy):
                    return False
            room = 0
            for mask in roomy:
                room |= sup[mask]
        return True

    def _augment(self, root, roomy) -> bool:
        """Put subset root, which fits no mask in roomy, on a mask.

        A breadth-first search over masks on bitsets of subsets: a mask
        is reached when a frontier subset contains it, and its members
        form the next frontier.  The path ends at a mask in roomy, the
        masks with edges to spare; the subsets on it shift one mask
        along.  When the search fails, the subsets reached need more
        edges than the masks reached hold.
        """
        where, spare, members = self.where, self.spare, self.members
        subs, sup = self.subs, self.sup
        taker = dict.fromkeys(subs[root], root)  # mask -> its next user
        front = 0
        for mask in subs[root]:
            front |= members[mask]
        todo = None  # masks not reached yet, once needed
        while True:
            for dest in roomy:
                hit = front & sup[dest]
                if hit:
                    break
            else:  # nothing on the frontier fits a mask with room
                if todo is None:
                    todo = [mask for mask, mem in members.items()
                            if mem and mask not in taker]
                nxt = 0
                rest = []
                for mask in todo:
                    x = front & sup[mask]
                    if x:
                        taker[mask] = (x & -x).bit_length() - 1
                        nxt |= members[mask]
                    else:
                        rest.append(mask)
                if not nxt:
                    return False
                front = nxt
                todo = rest
                continue
            break
        spare[dest] -= 1
        if not spare[dest]:
            roomy.remove(dest)
        r = (hit & -hit).bit_length() - 1
        while r != root:  # each subset on the path moves one mask along
            old = where[r]
            where[r] = dest
            members[old] ^= 1 << r
            members[dest] |= 1 << r
            dest = old
            r = taker[old]
        where[root] = dest
        members[dest] |= 1 << root
        return True

    def undo(self):
        """Restore the matching from before the last ``assign``."""
        self.where, self.spare, self.members = self.saved.pop()


def exists_complete(H: Hypergraph, t: int, *,
                    budget: int | None = None, seed: int = 0,
                    cover_prune: bool = True) -> SolveResult:
    """Decide whether a complete t-coloring exists.

    Quick refutations before any search: an edgeless hypergraph (by
    convention), t < k (properness), t > n (an empty class), and
    C(t, k) > m (more color k-subsets than edges to realize them).
    cover_prune switches the dominating-class prune and the Hall bound
    (:class:`_Matching`); answers never depend on it, node counts do.
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

    k = H.k
    n = H.n
    order = _search_order(H.degrees(), seed)
    neighbors = _neighbor_lists(H.conflict_masks())
    cnt = _counts_factory(n, t)
    color_of = [-1] * n

    m = H.m
    edges_of: list[list[int]] = [[] for _ in range(n)]
    for j, row in enumerate(H.edge_tuples()):
        for v in row:
            edges_of[v].append(j)

    rank_of, without, subs, sup = _subset_tables(t, k)
    full_mask = (1 << total) - 1

    rem = [k] * m           # uncolored vertices per edge
    emask = [0] * m         # colors on each edge
    cov_cnt = [0] * total   # edges realizing each subset
    hit = [0] * t           # edges meeting each color class
    covered = covered_mask = 0
    n_open = m
    bud = _Budget(budget)
    hall = _Matching(m, total, emask, rem, subs, sup) \
        if cover_prune else None

    def descend(i: int, used: int) -> bool:
        nonlocal covered, covered_mask, n_open
        if i == n:
            return used == t and covered == total
        if used + n - i < t:
            return False  # cannot open the missing color classes
        v = order[i]
        cv = cnt[v]
        ev = edges_of[v]
        for c in range(min(used + 1, t)):
            if cv[c]:
                continue
            bud.spend()
            color_of[v] = c
            for w in neighbors[v]:
                cnt[w][c] += 1
            bit = 1 << c
            hit[c] += len(ev)  # properness: v's edges meet no other c vertex
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
                        covered_mask |= 1 << r
            n_open -= len(closed)
            # open edges too few for the uncovered subsets
            ok = covered + n_open >= total
            saved = False  # whether hall holds a state to undo
            if ok and cover_prune:
                if hit[c] == m and (full_mask ^ covered_mask) & without[c]:
                    # class c already meets every edge, so every subset
                    # realized from now on contains c
                    ok = False
                else:
                    saved = True
                    ok = hall.assign(ev, c, closed)
            if ok and descend(i + 1, max(used, c + 1)):
                return True
            if saved:
                hall.undo()
            for j in ev:
                emask[j] ^= bit
                rem[j] += 1
            for r in closed:
                cov_cnt[r] -= 1
                if cov_cnt[r] == 0:
                    covered -= 1
                    covered_mask ^= 1 << r
            n_open += len(closed)
            hit[c] -= len(ev)
            for w in neighbors[v]:
                cnt[w][c] -= 1
            color_of[v] = -1
        return False

    try:
        ok = descend(0, 0)
    except _OutOfBudget:
        return SolveResult("budget_exhausted", None, bud.nodes)
    if ok:
        witness = Coloring(tuple(color_of), t)
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
    """Greedy clique in the conflict graph; every member needs its own color."""
    if H.m == 0:
        return 1 if H.n else 0
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
    of nodes.
    """
    if H.n == 0:
        return 0
    if H.m == 0:
        return 1
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
    iso = H.isolated_vertices()
    if H.m == 0:
        warnings.append("hypergraph has no edges; no complete coloring by convention")
    elif iso:
        warnings.append(f"{len(iso)} isolated vertices")

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
            if res.witness is None or not is_complete(H, res.witness):
                raise InvalidWitnessError(
                    f"t={t}: the search returned {res.witness} as a witness, "
                    "which is not a complete coloring")
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

_BRUTE_CHUNK = 1_000_000   # assignments decoded per numpy pass


def brute_force_spectrum(H: Hypergraph, t_max: int | None = None, *,
                         cap: int = 100_000_000) -> set[int]:
    """Feasible t values by enumerating every assignment, for cross-checks.

    Scans all t**n color assignments for each t from k to t_max (default:
    the counting bound).  Refuses with :class:`EnumerationCapExceeded`
    when the assignment count passes ``cap``; raise the cap explicitly for
    a bigger run.  Completely independent of the backtracking search.
    """
    if t_max is None:
        t_max = psi_upper_bound(H)
    t_max = min(t_max, H.n)
    if H.m == 0 or t_max < H.k:
        return set()
    ts = [t for t in range(H.k, t_max + 1) if math.comb(t, H.k) <= H.m]
    work = sum(t ** H.n for t in ts)
    if work > cap:
        raise EnumerationCapExceeded(
            f"{work} assignments exceed the cap of {cap}")

    n = H.n
    k = H.k
    edges = H.edge_tuples()
    pair_idx = list(combinations(range(k), 2))
    out: set[int] = set()
    for t in ts:
        total = math.comb(t, k)
        tab = np.zeros((t, k), dtype=np.int64)
        for c in range(t):
            for i in range(k):
                tab[c, i] = math.comb(c, i + 1)
        offsets = np.arange(k)
        found = False
        powers = np.array([t ** j for j in range(n)], dtype=np.int64)
        for lo in range(0, t ** n, _BRUTE_CHUNK):
            hi = min(lo + _BRUTE_CHUNK, t ** n)
            # decode one digit column at a time: a whole-chunk decode
            # makes (chunk, n) int64 quotient and remainder temporaries
            idx = np.arange(lo, hi, dtype=np.int64)
            A = np.empty((hi - lo, n), dtype=np.int8)
            for j in range(n):
                A[:, j] = idx // powers[j] % t
            keep = np.ones(len(idx), dtype=bool)
            for c in range(t):  # surjectivity
                keep &= (A == c).any(axis=1)
                if not keep.any():
                    break
            if not keep.any():
                continue
            A = A[keep]
            ok = np.ones(A.shape[0], dtype=bool)
            for e in edges:  # properness
                cols = A[:, e]
                for i, j in pair_idx:
                    ok &= cols[:, i] != cols[:, j]
                if not ok.any():
                    break
            if not ok.any():
                continue
            A = A[ok]
            ranks = np.empty((A.shape[0], len(edges)), dtype=np.int64)
            for j, e in enumerate(edges):
                s = np.sort(A[:, e], axis=1).astype(np.int64)
                ranks[:, j] = tab[s, offsets].sum(axis=1)
            ranks.sort(axis=1)
            distinct = (np.diff(ranks, axis=1) > 0).sum(axis=1) + 1
            if bool((distinct == total).any()):
                found = True
                break
        if found:
            out.add(t)
    return out
