"""Search over split patterns for prescribed complete-coloring spectra.

The search space for a (base_m, split, k) triple is one bit per
(base edge, split member) slot.  Candidates are screened cheapest-first.
The first screen, properness at the smallest required t, reads the
lift's conflict masks and degrees straight from the slot bits and runs
the solver's own proper-coloring search on them, so most candidates
never become a ``Hypergraph``.  Only a pattern that passes it gets its
lift, from the validating ``split_lift``, screened for the forbidden
values in increasing order, then the required values; each screen
must decide its size exactly, so survivors meet the target.  The
brute-force walk confirms each hit.

Two modes share the pipeline.  When the whole lift space fits the
candidate budget the search is exhaustive, skipping every pattern that
is not the minimum of its symmetry orbit (base-vertex permutations
preserving the split set, times copy swaps).  Otherwise it runs
randomized restarts with single-bit local moves, sideways acceptance,
and a tabu set of the slot bits each restart has evaluated; they never
build the symmetry group.  Only hits get a canonical form.

Determinism: restart r uses random.Random(f"{seed}:{r}") and a fixed
candidate quota, so the hit list depends only on (seed, budget), not on
worker count or scheduling.
"""

from __future__ import annotations

import math
import os
import random
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations

import numpy as np

from . import canon
from .constructions import SplitPattern, lift_layout, split_lift
from .core import Hypergraph, covers_all, independent_sets
from .solver import (
    EnumerationCapExceeded,
    _proper_search,
    brute_force_spectrum,
    exists_complete,
    spectrum,
)

_MAX_BASE = 8

_RESTART_QUOTA = 200        # candidates per randomized restart
_SCREEN_BUDGET = 200_000    # node budget of each screening search


@dataclass(frozen=True)
class SpectrumTarget:
    """Predicate over spectrum reports: required and forbidden t values."""

    require: frozenset
    forbid: frozenset

    def __post_init__(self):
        req = frozenset(int(t) for t in self.require)
        forb = frozenset(int(t) for t in self.forbid)
        if min(req | forb, default=0) < 0:
            raise ValueError(f"required and forbidden sizes must be non-negative, "
                             f"got {min(req | forb)}")
        if req & forb:
            raise ValueError(f"require and forbid overlap: {sorted(req & forb)}")
        object.__setattr__(self, "require", req)
        object.__setattr__(self, "forbid", forb)

    def matches(self, report) -> bool:
        feas = set(report.feasible)
        if not self.require <= feas:
            return False
        if self.forbid & feas:
            return False
        # a forbidden value left undecided is not a verified miss
        if self.forbid & set(report.unknown):
            return False
        return True


@dataclass(frozen=True)
class StructuralFeatures:
    """Isomorphism-invariant independence features of a certified instance.

    ``certify_gap_instance`` reports them and the CLI prints them; the
    search itself does not read them.
    """

    independence_number: int
    max_independent_sets: tuple
    every_3set_extends: bool
    max_sets_cover_all: bool

    @property
    def max_set_count(self) -> int:
        return len(self.max_independent_sets)


def structural_filters(H: Hypergraph) -> StructuralFeatures:
    """Independence structure of a search-scale hypergraph.

    Reports the independence number, all maximum independent sets,
    whether every independent 3-set extends to an independent 4-set
    (vacuously true when there are no 3-sets), and whether every maximum
    independent set meets all edges.
    """
    alpha = 0
    max_sets: list = [()]
    for s in range(1, H.n + 1):
        sets_s = independent_sets(H, s)
        if not sets_s:
            break
        alpha = s
        max_sets = sets_s
    conf = H.conflict_masks()
    extends = True
    for s3 in independent_sets(H, 3) if H.n >= 3 else []:
        forb = 0
        for v in s3:
            forb |= conf[v] | (1 << v)
        if not any(not (forb >> w) & 1 for w in range(H.n)):
            extends = False
            break
    cover = all(covers_all(H, s) for s in max_sets) if alpha else False
    return StructuralFeatures(
        independence_number=alpha,
        max_independent_sets=tuple(max_sets) if alpha else tuple(),
        every_3set_extends=extends,
        max_sets_cover_all=cover,
    )


class _LiftSpace:
    """Slot bits of one search space, and their symmetry action.

    One bit per (base edge, split member) slot picks the copy that edge
    uses, in ``lift_layout``'s ids; ``split_lift(pattern(bits))`` lifts it.
    Only the exhaustive scan reads ``group``, so it is built on first use.
    """

    def __init__(self, base_m: int, split: tuple, k: int):
        self.base_m = base_m
        self.split = tuple(sorted(split))
        self.k = k
        self.n, self.rows = lift_layout(base_m, self.split, k)

        # per edge: its slots are consecutive, so (bits >> first) & width
        # picks one of its lifts, each (ascending lifted row, members' bits)
        self.lift_table = []
        first = 0
        for fixed, copies in self.rows:
            lifts = []
            for combo in range(1 << len(copies)):
                row = fixed + tuple(c + ((combo >> i) & 1)
                                    for i, c in enumerate(copies))
                lifts.append((row, sum(1 << v for v in row)))
            self.lift_table.append((first, (1 << len(copies)) - 1, lifts))
            first += len(copies)
        self.B = first

    @cached_property
    def group(self) -> tuple:
        """Symmetry action on slot bits: base permutations preserving the
        split set, composed with per-vertex copy swaps.  Returns (dst,
        swaps): per permutation, the slot each slot's bit moves to; per
        copy-swap set, the slot bits it flips, as one word."""
        split_set = set(self.split)
        base_edges = list(combinations(range(self.base_m), self.k))
        edge_index = {e: j for j, e in enumerate(base_edges)}
        slots = [(j, v) for j, e in enumerate(base_edges)
                 for v in e if v in split_set]
        slot_index = {slot: i for i, slot in enumerate(slots)}
        sigmas = [p for p in permutations(range(self.base_m))
                  if {p[v] for v in self.split} == split_set]
        dst = np.array(
            [[slot_index[(edge_index[tuple(sorted(p[w] for w in base_edges[j]))],
                          p[v])] for j, v in slots] for p in sigmas],
            dtype=np.uint64)
        swaps = np.array(
            [sum(1 << i for i, (_j, v) in enumerate(slots)
                 if (mask >> self.split.index(v)) & 1)
             for mask in range(1 << len(self.split))], dtype=np.uint64)
        return dst, swaps

    def screen_data(self, bits: int) -> tuple[list[int], list[int]]:
        """Conflict masks and degrees of the lift, from the slot bits.

        Lifted rows are always distinct (the copy ids identify the base
        members), so the lift keeps every row and nothing needs building.
        """
        masks = [0] * self.n
        deg = [0] * self.n
        for first, width, lifts in self.lift_table:
            row, word = lifts[(bits >> first) & width]
            for v in row:
                masks[v] |= word
                deg[v] += 1
        return [m & ~(1 << v) for v, m in enumerate(masks)], deg

    def pattern(self, bits: int) -> SplitPattern:
        lifts = tuple(
            tuple((bits >> (first + i)) & 1 for i in range(width.bit_length()))
            for first, width, _lifts in self.lift_table)
        return SplitPattern(base_m=self.base_m, split=self.split,
                            lifts=lifts, k=self.k)

    def orbit_min(self, bits: int) -> int:
        """Smallest slot bits in the orbit of `bits` under ``group``."""
        dst, swaps = self.group
        vec = np.array([(bits >> i) & 1 for i in range(self.B)], dtype=np.uint64)
        words = (vec << dst).sum(axis=1)   # one per base permutation
        return int((words[:, None] ^ swaps[None, :]).min())


@lru_cache(maxsize=8)
def _space(base_m: int, split: tuple, k: int) -> _LiftSpace:
    return _LiftSpace(base_m, split, k)


def _screen_colors(space: _LiftSpace, require) -> int:
    """Color count of the proper-coloring screen: the smallest required
    t, or k, capped at n.  A proper t-coloring with t > n exists exactly
    when a proper n-coloring does, and with first-use symmetry breaking
    the search visits the same nodes either way."""
    return min(min(require, default=space.k), space.n)


def _structured_bits(space: _LiftSpace, rng: random.Random, classes: int) -> int:
    """Random pattern consistent with some proper `classes`-partition.

    Samples a near-equal partition of the lifted vertices, then for every
    base edge draws uniformly among the copy choices that keep the edge
    rainbow under the partition.  Edges are independent given the
    partition, so this is a uniform draw from the consistent patterns.
    Falls back to uniform random bits when 40 partitions in a row leave
    some edge with no consistent choice, or at once for 0 classes.
    """
    n = space.n
    for _ in range(40 if classes else 0):
        ids = list(range(n))
        rng.shuffle(ids)
        class_of = [0] * n
        size, extra = divmod(n, classes)
        pos = 0
        for ci in range(classes):
            take = size + (1 if ci < extra else 0)
            for v in ids[pos:pos + take]:
                class_of[v] = ci
            pos += take
        bits = 0
        for first, _width, lifts in space.lift_table:
            allowed = [c for c, (row, _word) in enumerate(lifts)
                       if len({class_of[v] for v in row}) == space.k]
            if not allowed:
                break
            bits |= allowed[rng.randrange(len(allowed))] << first
        else:
            return bits
    return rng.getrandbits(space.B)


def _evaluate(space: _LiftSpace, bits: int, target: SpectrumTarget,
              stats: dict):
    """Run the staged pipeline on one pattern.

    The proper-coloring screen reads conflict masks and degrees straight
    from the slot bits; only a pattern that passes it gets its lift.  A
    pattern with no proper coloring at the screen's size, including one
    without the independent set some color class would need, counts in
    ``chi_fail``.  Returns (score, report-or-None, lift-or-None).
    """
    stats["candidates"] += 1
    score = 0
    masks, deg = space.screen_data(bits)
    status, _colors, _nodes = _proper_search(
        space.n, len(space.rows), space.k, masks, deg,
        _screen_colors(space, target.require), _SCREEN_BUDGET, 0)
    if status != "found":
        stats["chi_fail"] += 1
        return score, None, None
    score += 1
    H = split_lift(space.pattern(bits))
    for t in sorted(target.forbid):
        if exists_complete(H, t, budget=_SCREEN_BUDGET).status != "none":
            stats[f"forbid_fail_{t}"] += 1
            return score, None, H
        score += 1
    for t in sorted(target.require, reverse=True):
        if exists_complete(H, t, budget=_SCREEN_BUDGET).status != "found":
            stats[f"require_fail_{t}"] += 1
            return score, None, H
        score += 1
    return score + 1, spectrum(H), H


def _validate_hit(H: Hypergraph, report, target, stats) -> bool:
    """Re-check a hit by the brute-force walk, which shares no code with
    the search, up to the largest required or forbidden size (else the
    counting bound).  A mismatch counts in ``validation_rejects``, a
    walk past its row cap in ``oracle_refusals``; both return False."""
    top = max(target.require | target.forbid, default=None)
    try:
        feas = brute_force_spectrum(H, top)
    except EnumerationCapExceeded:
        stats["oracle_refusals"] += 1
        return False
    if feas != {t for t in report.feasible if top is None or t <= top}:
        stats["validation_rejects"] += 1
        return False
    return True


def _run_restart(args):
    base_m, split, k, target, seed, budget, restart_idx = args
    quota = min(_RESTART_QUOTA, budget - restart_idx * _RESTART_QUOTA)
    space = _space(base_m, split, k)
    rng = random.Random(f"{seed}:{restart_idx}")
    stats = defaultdict(int)
    stats["restarts"] = 1
    tabu = set()     # slot bits of every candidate this restart evaluated
    hits = {}
    classes = _screen_colors(space, target.require)

    def propose_fresh() -> int:
        if rng.random() < 0.7:
            return _structured_bits(space, rng, classes)
        return rng.getrandbits(space.B)

    bits: int | None = None
    score = -1
    stalled = 0      # consecutive tabu skips / rejections at the current point
    spent = 0
    attempts = 0
    while spent < quota and attempts < 40 * quota:
        attempts += 1
        fresh = bits is None or stalled >= 12
        if fresh:
            cand = propose_fresh()
        else:
            cand = bits ^ (1 << rng.randrange(space.B))
        if cand in tabu:
            stats["tabu_skips"] += 1
            if not fresh:
                stalled += 1
            continue
        tabu.add(cand)
        spent += 1
        cand_score, cand_report, cand_H = _evaluate(space, cand, target, stats)
        if cand_report is not None:
            hits.setdefault(canon.canonical_form(cand_H), (cand, cand_report))
        if fresh or cand_score >= score:
            bits, score = cand, cand_score
            stalled = 0
        else:
            stalled += 1
    return hits, dict(stats)


def split_search(base_m: int, split, *, require=(), forbid=(), k: int = 3,
                 budget: int = 20_000, seed: int = 0,
                 workers: int = 1) -> "SearchResult":
    """Find split patterns whose lifted hypergraph matches the target.

    budget counts candidate evaluations.  When 2**slots <= budget the
    whole space is scanned once (orbit minima only); otherwise randomized
    restarts of `_RESTART_QUOTA` candidates each, with a tabu set of the
    slot bits they evaluated, run until the budget is spent, in a pool of
    min(workers, restarts, CPUs) processes when that is above 1.  Restarts
    are folded in order as they finish; a pool submits them all up front,
    a serial search one by one.  Hits are deduplicated by hypergraph
    canonical form, confirmed by the brute-force walk, and returned sorted
    by canonical form, so the outcome is a function of (seed, budget) alone.
    k < 2, negative sizes and a budget or worker count below 1 raise
    ValueError; a required size no lift can have (0, or more than its
    vertex count) yields no hits.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    if base_m > _MAX_BASE:
        raise ValueError(f"base_m capped at {_MAX_BASE}, got {base_m}")
    if base_m < k:
        raise ValueError(f"base_m must be at least k={k}, got {base_m}")
    split = tuple(sorted(int(v) for v in split))
    if len(set(split)) != len(split):
        raise ValueError("split vertices must be distinct")
    if split and not (0 <= split[0] and split[-1] < base_m):
        raise ValueError(f"split vertices must lie in 0..{base_m - 1}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    target = SpectrumTarget(frozenset(require), frozenset(forbid))
    space = _space(base_m, split, k)
    stats = defaultdict(int)
    hits: dict[bytes, tuple[int, object]] = {}

    if space.B <= 62 and 2 ** space.B <= budget:
        stats["mode_exhaustive"] = 1
        for bits in range(1 << space.B):
            if space.orbit_min(bits) != bits:
                stats["orbit_skips"] += 1
                continue
            _score, report, H = _evaluate(space, bits, target, stats)
            if report is not None:
                hits.setdefault(canon.canonical_form(H), (bits, report))
    else:
        stats["mode_randomized"] = 1
        restarts = -(-budget // _RESTART_QUOTA)
        jobs = ((base_m, split, k, target, seed, budget, r)
                for r in range(restarts))
        # the pool forks all its workers up front; its module is imported
        # only for a pool (it put 1.8 MB on every import of the package)
        pool_size = min(workers, restarts, os.cpu_count() or 1)
        if pool_size > 1:
            from concurrent.futures import ProcessPoolExecutor
        with (ProcessPoolExecutor(max_workers=pool_size) if pool_size > 1
              else nullcontext()) as pool:
            results = (pool.map(_run_restart, jobs, chunksize=4) if pool
                       else map(_run_restart, jobs))
            for rhits, rstats in results:
                for key, hit in rhits.items():
                    hits.setdefault(key, hit)
                for name, val in rstats.items():
                    stats[name] += val

    out = []
    for key in sorted(hits):
        bits, report = hits[key]
        # restarts return bits (a Hypergraph does not pickle): lift again
        pattern = space.pattern(bits)
        if _validate_hit(split_lift(pattern), report, target, stats):
            out.append((pattern, report))
    stats["hits"] = len(out)
    return SearchResult(hits=tuple(out), stats=dict(stats))


@dataclass(frozen=True)
class SearchResult:
    hits: tuple          # (SplitPattern, SpectrumReport) pairs
    stats: dict


def certify_gap_instance(H: Hypergraph, require, forbid) -> dict:
    """Full from-scratch certification of a claimed gap instance.

    Computes the unlimited-budget spectrum, the structural features, the
    brute-force walk's spectrum up to the largest claimed size (False
    where the walk passes its row cap), and the counting bound.  Returns
    a dict of verdicts with "ok" as the conjunction.
    """
    target = SpectrumTarget(frozenset(require), frozenset(forbid))
    report = spectrum(H)
    features = structural_filters(H)
    verdict = {
        "target_matched": target.matches(report),
        "oracle_confirmed": _validate_hit(H, report, target, defaultdict(int)),
        "counting_bound": (report.psi == 0
                           or math.comb(report.psi, H.k) <= H.m),
    }
    verdict["ok"] = all(verdict.values())
    verdict["report"] = report
    verdict["features"] = features
    return verdict
