"""Search over split patterns for prescribed complete-coloring spectra.

The search space for a (base_m, split, k) triple is one bit per
(base edge, split member) slot.  Candidates are screened cheapest-first.
The first two screens, a quick independent-set necessary condition and
properness at the smallest required t, read the lift's conflict masks
and degrees straight from the slot bits and run the solver's own
proper-coloring search on them, so most candidates never become a
``Hypergraph``.  Only a pattern that passes them gets its lift, for the
forbidden values in increasing order, then the required values;
survivors get an authoritative unlimited-budget spectrum and the target
predicate is re-checked on that.

Two modes share the pipeline.  When the whole lift space fits the
candidate budget the search is exhaustive, skipping every pattern that
is not the canonical representative of its symmetry orbit (base-vertex
permutations preserving the split set, times copy swaps).  Otherwise it
runs randomized restarts with single-bit local moves, sideways
acceptance, and a tabu list of recently visited canonical forms.  When
the symmetry group is too large to act on the bits, the orbit key is the
lift's canonical form, and a candidate that passes the screens reuses
that lift.

Determinism: restart r uses random.Random(f"{seed}:{r}") and a fixed
candidate quota, so the hit list depends only on (seed, budget), not on
worker count or scheduling.
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from . import canon
from .constructions import SplitPattern, lift_layout, split_lift
from .core import (Hypergraph, _dtype_for, _iter_independent, covers_all,
                   independent_sets)
from .solver import (
    EnumerationCapExceeded,
    _proper_search,
    brute_force_spectrum,
    exists_complete,
    spectrum,
)

_MAX_BASE = 8

# group-min pattern canonicalization (canonical_bits) is used while the
# symmetry action has at most this many (base permutation, copy swap,
# slot) cells; beyond it the lift's canonical form is the orbit key.  The
# order-12 space (720 * 64 * 60 = 2.76M cells) stays on the canonical
# form because it is cheaper there: canonical_bits takes 380-480 us a
# call, canon.canonical_form 170-230 us plus 12-20 us to build the lift
# (2-vCPU VM, the gate forced open to time canonical_bits)
_FAST_GROUP_CELLS = 1_000_000

_RESTART_QUOTA = 200        # candidates per randomized restart
_SCREEN_BUDGET = 200_000    # node budget of each screening search
_TABU_HORIZON = 1000        # canonical forms remembered per restart


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
    """Cheap isomorphism-invariant features used to pre-screen candidates."""

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
    """Slot bits and symmetry action for one search space.

    One bit per (base edge, split member) slot picks the copy that edge
    uses; the lifted vertex ids come from ``lift_layout``.
    """

    def __init__(self, base_m: int, split: tuple, k: int):
        self.base_m = base_m
        self.split = tuple(sorted(split))
        self.k = k
        split_set = set(self.split)
        self.base_edges = list(combinations(range(base_m), k))
        self.edge_index = {e: j for j, e in enumerate(self.base_edges)}
        self.n, self.rows = lift_layout(base_m, self.split, k)

        self.slots = []           # (edge index, base vertex), split members only
        self.slot_index = {}
        self.edge_slots = []      # per edge: slot ids, one per copy-0 id
        for j, e in enumerate(self.base_edges):
            sl = []
            for v in e:
                if v in split_set:
                    self.slot_index[(j, v)] = len(self.slots)
                    sl.append(len(self.slots))
                    self.slots.append((j, v))
            self.edge_slots.append(sl)
        self.B = len(self.slots)

        # per edge: its slots are consecutive, so (bits >> first) & width
        # picks one of its lifts; per lift, (vertex, its co-members' bits)
        # in lift_table and the ascending lifted row in row_table
        self.lift_table = []
        self.row_table = []
        for (fixed, copies), sl in zip(self.rows, self.edge_slots):
            lifts, rows = [], []
            for combo in range(1 << len(sl)):
                row = fixed + [c + ((combo >> i) & 1) for i, c in enumerate(copies)]
                word = sum(1 << v for v in row)
                lifts.append(tuple((v, word ^ (1 << v)) for v in row))
                rows.append(tuple(row))
            first, width = (sl[0] if sl else 0), (1 << len(sl)) - 1
            self.lift_table.append((first, width, lifts))
            self.row_table.append((first, width, rows))

        # symmetry action on slot bits: base permutations preserving the
        # split set, composed with per-vertex copy swaps
        sigmas = [p for p in permutations(range(base_m))
                  if {p[v] for v in self.split} == split_set]
        s = len(self.split)
        self.group_cells = len(sigmas) * (1 << s) * max(self.B, 1)
        self.fast_canon = (self.B <= 63 and s <= 20
                           and self.group_cells <= _FAST_GROUP_CELLS)
        if self.fast_canon:
            src = np.empty((len(sigmas), self.B), dtype=np.intp)
            for si, p in enumerate(sigmas):
                inv = [0] * base_m
                for v, img in enumerate(p):
                    inv[img] = v
                for i2, (j2, v2) in enumerate(self.slots):
                    e_old = tuple(sorted(inv[w] for w in self.base_edges[j2]))
                    src[si, i2] = self.slot_index[(self.edge_index[e_old], inv[v2])]
            self.src = src
            rank = {v: p for p, v in enumerate(self.split)}
            ranks = [rank[v] for (_j, v) in self.slots]
            # per copy-swap set: the slot bits it flips, as one word
            self.swaps = np.array(
                [sum(1 << i for i, r in enumerate(ranks) if (mask >> r) & 1)
                 for mask in range(1 << s)], dtype=np.uint64)
            self.powers = (np.uint64(1) << np.arange(self.B, dtype=np.uint64))

    def canonical_bits(self, bits: int) -> int:
        """Orbit minimum of the bit pattern under the symmetry action."""
        assert self.fast_canon
        vec = np.array([(bits >> i) & 1 for i in range(self.B)], dtype=np.uint64)
        words = (vec[self.src] * self.powers).sum(axis=1)   # one per base permutation
        return int((words[:, None] ^ self.swaps[None, :]).min())

    def screen_data(self, bits: int) -> tuple[list[int], list[int]]:
        """Conflict masks and degrees of ``build(bits)``, from the slot bits.

        Lifted rows are always distinct (the copy ids identify the base
        members), so the lift keeps every row and nothing needs building.
        """
        masks = [0] * self.n
        deg = [0] * self.n
        for first, width, lifts in self.lift_table:
            for v, others in lifts[(bits >> first) & width]:
                masks[v] |= others
                deg[v] += 1
        return masks, deg

    def build(self, bits: int) -> Hypergraph:
        """split_lift(self.pattern(bits)) without the SplitPattern round trip.

        Each lifted row is ascending (``lift_layout`` numbers copies above
        the unsplit vertices, in split order) and distinct lifts stay
        distinct, so sorting the rows makes the edge array canonical and
        it needs no validating pass.
        """
        rows = sorted([lifted[(bits >> first) & width]
                       for first, width, lifted in self.row_table])
        return Hypergraph._trusted(self.n, self.k,
                                   np.array(rows, dtype=_dtype_for(self.n)))

    def pattern(self, bits: int) -> SplitPattern:
        lifts = tuple(
            tuple((bits >> slot) & 1 for slot in self.edge_slots[j])
            for j in range(len(self.base_edges)))
        return SplitPattern(base_m=self.base_m, split=self.split,
                            lifts=lifts, k=self.k)

    def orbit_key(self, bits: int) -> tuple[bytes, Hypergraph | None]:
        """Orbit key of the pattern, plus the lift if the key needed it."""
        if self.fast_canon:
            return self.canonical_bits(bits).to_bytes(8, "big"), None
        H = self.build(bits)
        return canon.canonical_form(H), H


@lru_cache(maxsize=8)
def _space(base_m: int, split: tuple, k: int) -> _LiftSpace:
    return _LiftSpace(base_m, split, k)


def _screen_colors(space: _LiftSpace, require) -> int:
    """Color count of the proper-coloring screens: the smallest required
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
            allowed = [c for c, lift in enumerate(lifts)
                       if len({class_of[v] for v, _ in lift}) == space.k]
            if not allowed:
                break
            bits |= allowed[rng.randrange(len(allowed))] << first
        else:
            return bits
    return rng.getrandbits(space.B) if space.B else 0


def _evaluate(space: _LiftSpace, bits: int, target: SpectrumTarget,
              stats: dict, H: Hypergraph | None = None):
    """Run the staged pipeline on one pattern.

    The independent-set and proper-coloring screens read conflict masks
    and degrees straight from the slot bits; only a pattern that passes
    them gets its lift, unless the caller passes the one its orbit key
    already built.  Returns (score, report-or-None, lift-or-None).
    """
    stats["candidates"] += 1
    score = 0
    tmin = _screen_colors(space, target.require)
    masks, deg = space.screen_data(bits)
    # some class of a proper tmin-coloring holds ceil(n / tmin) vertices;
    # no proper 0-coloring exists, which the search below reports
    if tmin and next(_iter_independent(masks, -(-space.n // tmin)), None) is None:
        stats["screen_fail"] += 1
        return score, None, H
    score += 1
    status, _colors, _nodes = _proper_search(
        space.n, len(space.rows), space.k, masks, deg, tmin, _SCREEN_BUDGET, 0)
    if status != "found":
        stats["chi_fail"] += 1
        return score, None, H
    score += 1
    if H is None:
        H = space.build(bits)
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
    report = spectrum(H)
    if not target.matches(report):
        stats["full_check_fail"] += 1
        return score, None, H
    return score + 1, report, H


def _validate_hit(H: Hypergraph, report, target: SpectrumTarget) -> bool:
    """Independent re-check of an emitted hit; never trust the search path."""
    try:
        feas = brute_force_spectrum(H)
        return feas == set(report.feasible)
    except EnumerationCapExceeded:
        for t in sorted(target.forbid):
            if exists_complete(H, t, seed=1).status != "none":
                return False
        for t in sorted(target.require):
            if exists_complete(H, t, seed=1).status != "found":
                return False
        return True


def _new_stats() -> dict:
    from collections import defaultdict
    return defaultdict(int)


def _run_restart(args):
    base_m, split, k, require, forbid, seed, restart_idx, quota = args
    space = _space(base_m, split, k)
    target = SpectrumTarget(frozenset(require), frozenset(forbid))
    rng = random.Random(f"{seed}:{restart_idx}")
    stats = _new_stats()
    stats["restarts"] = 1
    tabu: OrderedDict = OrderedDict()
    hits = {}

    def note_hit(bits, H, report):
        key = canon.canonical_form(H)
        if key not in hits:
            hits[key] = (bits, report)

    classes = _screen_colors(space, require)

    def propose_fresh() -> int:
        if rng.random() < 0.7:
            return _structured_bits(space, rng, classes)
        return rng.getrandbits(space.B) if space.B else 0

    bits: int | None = None
    score = -1
    stalled = 0      # consecutive tabu skips / rejections at the current point
    spent = 0
    attempts = 0
    while spent < quota and attempts < 40 * quota:
        attempts += 1
        fresh = bits is None or stalled >= 12 or space.B == 0
        if fresh:
            cand = propose_fresh()
        else:
            cand = bits ^ (1 << rng.randrange(space.B))
        cand_key, cand_H = space.orbit_key(cand)
        if cand_key in tabu:
            stats["tabu_skips"] += 1
            if not fresh:
                stalled += 1
            continue
        tabu[cand_key] = None
        while len(tabu) > _TABU_HORIZON:
            tabu.popitem(last=False)
        spent += 1
        cand_score, cand_report, cand_H = _evaluate(
            space, cand, target, stats, cand_H)
        if cand_report is not None:
            note_hit(cand, cand_H, cand_report)
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
    whole space is scanned once (canonical orbit representatives only);
    otherwise randomized restarts of `_RESTART_QUOTA` candidates each run
    until the budget is spent, in a pool of `workers` processes if above 1.
    Hits are deduplicated by hypergraph canonical form, re-validated
    independently, and returned sorted by canonical form, so the outcome
    is a function of (seed, budget) alone.  k < 2 and negative sizes raise
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
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    target = SpectrumTarget(frozenset(require), frozenset(forbid))
    space = _space(base_m, split, k)
    stats = _new_stats()
    hits: dict[bytes, tuple[int, object]] = {}

    if space.B <= 62 and 2 ** space.B <= budget:
        stats["mode_exhaustive"] = 1
        for bits in range(1 << space.B):
            if space.fast_canon and space.canonical_bits(bits) != bits:
                stats["orbit_skips"] += 1
                continue
            _score, report, H = _evaluate(space, bits, target, stats)
            if report is not None:
                key = canon.canonical_form(H)
                if key not in hits:
                    hits[key] = (bits, report)
    else:
        stats["mode_randomized"] = 1
        quotas = []
        remaining = budget
        idx = 0
        while remaining > 0:
            q = min(_RESTART_QUOTA, remaining)
            quotas.append((idx, q))
            remaining -= q
            idx += 1
        job = [(base_m, split, k, tuple(sorted(target.require)),
                tuple(sorted(target.forbid)), seed, ridx, q)
               for ridx, q in quotas]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_run_restart, job, chunksize=4))
        else:
            results = [_run_restart(a) for a in job]
        for rhits, rstats in results:
            for key, (bits, report) in rhits.items():
                if key not in hits:
                    hits[key] = (bits, report)
            for name, val in rstats.items():
                stats[name] += val

    out = []
    for key in sorted(hits):
        bits, report = hits[key]
        # the emitted pattern is re-lifted by the validating constructor,
        # not by the search's own trusted builder
        pattern = space.pattern(bits)
        if not _validate_hit(split_lift(pattern), report, target):
            stats["validation_rejects"] += 1
            continue
        out.append((pattern, report))
    stats["hits"] = len(out)
    return SearchResult(hits=tuple(out), stats=dict(stats))


@dataclass(frozen=True)
class SearchResult:
    hits: tuple          # (SplitPattern, SpectrumReport) pairs
    stats: dict


def certify_gap_instance(H: Hypergraph, require, forbid) -> dict:
    """Full from-scratch certification of a claimed gap instance.

    Computes the unlimited-budget spectrum, the structural features, an
    independent oracle check (full brute force when within cap, else
    fresh unlimited searches at the claimed values), and the counting
    bound.  Returns a dict of verdicts with "ok" as the conjunction.
    """
    target = SpectrumTarget(frozenset(require), frozenset(forbid))
    report = spectrum(H)
    features = structural_filters(H)
    verdict = {
        "target_matched": target.matches(report),
        "oracle_confirmed": _validate_hit(H, report, target),
        "counting_bound": (report.psi == 0
                           or math.comb(report.psi, H.k) <= H.m),
    }
    verdict["ok"] = all(verdict.values())
    verdict["report"] = report
    verdict["features"] = features
    return verdict
