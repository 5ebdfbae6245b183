import functools
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import hypercolor
from hypercolor import (
    BudgetExhaustedError,
    Coloring,
    EnumerationCapExceeded,
    Hypergraph,
    InvalidWitnessError,
    achromatic_number,
    brute_force_spectrum,
    chromatic_number,
    complete_uniform,
    exists_complete,
    exists_proper,
    grid_transversal,
    is_complete,
    is_proper,
    parse_hypergraph,
    psi_upper_bound,
    regular15,
    spectrum,
)
from hypercolor import solver

from conftest import naive_spectrum, random_uniform_hypergraph, traced_peak


def cycle(n):
    return Hypergraph(n, 2, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Hypergraph(n, 2, [(i, i + 1) for i in range(n - 1)])


class TestExistsProper:
    def test_known_graphs(self):
        assert exists_proper(cycle(5), 2).status == "none"
        assert exists_proper(cycle(5), 3).status == "found"
        assert exists_proper(cycle(6), 2).status == "found"
        assert exists_proper(complete_uniform(6, 2), 5).status == "none"

    def test_witness_is_proper(self, rng):
        for _ in range(30):
            n = rng.randint(2, 7)
            H = random_uniform_hypergraph(rng, n, 2, rng.randint(1, n))
            t = rng.randint(1, n)
            res = exists_proper(H, t, seed=rng.randrange(100))
            if res.status == "found":
                assert res.witness.t == t
                assert is_proper(H, res.witness)
                assert max(res.witness.colors) < t

    def test_budget_exhaustion_reported(self):
        H = complete_uniform(9, 2)
        res = exists_proper(H, 8, budget=3)
        assert res.status == "budget_exhausted"
        assert res.witness is None


class TestExistsComplete:
    def test_triangle(self):
        T = cycle(3)
        assert exists_complete(T, 3).status == "found"
        assert exists_complete(T, 2).status == "none"

    def test_witness_verified(self, rng):
        for _ in range(60):
            n = rng.randint(3, 7)
            k = rng.randint(2, 3)
            if k > n:
                continue
            H = random_uniform_hypergraph(
                rng, n, k, rng.randint(1, math.comb(n, k)))
            t = rng.randint(k, n)
            res = exists_complete(H, t, seed=rng.randrange(100))
            if res.status == "found":
                assert is_complete(H, res.witness)

    def test_agrees_with_naive_enumeration(self, rng):
        # definition-first oracle over every coloring, tiny sizes only
        for _ in range(25):
            n = rng.randint(3, 5)
            H = random_uniform_hypergraph(
                rng, n, 2, rng.randint(1, math.comb(n, 2)))
            expect = naive_spectrum(H, n)
            got = {t for t in range(1, n + 1)
                   if exists_complete(H, t).status == "found"}
            assert got == expect

    def test_cover_prune_does_not_change_answers(self, rng):
        # same decision with and without the Hall bound
        for _ in range(40):
            n = rng.randint(4, 8)
            H = random_uniform_hypergraph(
                rng, n, 3, rng.randint(1, math.comb(n, 3)))
            for t in range(3, n + 1):
                a = exists_complete(H, t, cover_prune=True).status
                b = exists_complete(H, t, cover_prune=False).status
                assert a == b

    def test_budget_statuses(self):
        H = complete_uniform(6, 3)
        assert exists_complete(H, 6, budget=2).status == "budget_exhausted"
        assert exists_complete(H, 6).status == "found"


# (status, nodes) of exists_complete(..., seed=0) with the default prunes;
# any change to the visited tree shows
_PINNED_TREES = [
    ("grid36", 3, "found", 35),
    ("grid36", 4, "found", 49),
    ("grid36", 5, "found", 51),
    ("grid36", 6, "found", 46),
    ("grid36", 7, "none", 929),
    ("grid36", 8, "none", 426),
    ("grid36", 9, "none", 97),
    ("regular15", 4, "none", 402),
    ("order12", 4, "none", 44),
    ("order12", 5, "none", 93),
]

# the same queries with cover_prune=False, the tree without the Hall
# bound (t=9 is pinned by
# test_refutation_without_cover_prune); t = 7 and 8 take over 30 s
_PINNED_TREES_OFF = [
    ("grid36", 3, "found", 35),
    ("grid36", 4, "found", 61),
    ("grid36", 5, "found", 351),
    ("grid36", 6, "found", 4005),
    pytest.param("grid36", 7, "none", 709_371, marks=pytest.mark.slow),
    pytest.param("grid36", 8, "none", 879_646, marks=pytest.mark.slow),
    ("regular15", 4, "none", 943),
    ("order12", 4, "none", 126),
    ("order12", 5, "none", 504),
]

_CORPUS_DIGEST = (
    "234aabc0c408f4ea8c7af1e5455ee0437ee817963a2c4fca8d9c80e36838d140")

# every t of the paper's instances, and grid(3,6) up to the found range
# plus the t=9 refutation
_NAMED_QUERIES = [(name, t) for name, ts in [
    ("regular15", range(3, 6)),
    ("order9", range(3, 6)),
    ("order12", range(3, 7)),
    ("grid35", range(3, 8)),
    ("grid36", (3, 4, 5, 6, 9)),
] for t in ts]

# sha256 of (t, status, witness) over the corpus and _NAMED_QUERIES, no
# node counts: a prune may shrink the tree, never change an answer
_DECISIONS_DIGEST = (
    "954d6194045a433811afed63ac28a6c2cfd46a0648f456cdb553cbe1508c603f")


# sha256 of (n, k, m, t, seed, status, witness) over _wide_queries,
# recorded with a Hall bound that matched subsets to edge color masks
# alone, so a stronger bound that changes an answer shows here
_WIDE_DIGEST = (
    "1b2b8f8dc37dfc94f221fee839c921723a85f4a85ec20faffce44eb52c5a1b5a")


def _pinned_instance(name):
    if name.startswith("grid"):
        return grid_transversal(int(name[4]), int(name[5]))
    if name == "regular15":
        return regular15()
    data = Path(__file__).parent / "data" / f"{name}.json"
    return parse_hypergraph(data.read_text())


@functools.lru_cache(maxsize=None)
def _solve(name, t, cover_prune=True):
    # shared by the tests below, so each exhaustive run happens once
    return exists_complete(_pinned_instance(name), t, seed=0,
                           cover_prune=cover_prune)


def _corpus_queries():
    """(H, t, seed) for small random 3-uniform instances, every t up to
    the counting bound."""
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(7, 11)
        H = random_uniform_hypergraph(rng, n, 3, rng.randint(10, 40))
        for t in range(3, psi_upper_bound(H) + 1):
            yield H, t, t


def _wide_queries():
    """(H, t, seed): the paper's instances, grid(3,5), grid(3,6) but for
    its two slow refutations, grid(4,4), grid(4,5), and random k = 2..4
    instances at every t up to the counting bound, each at seeds 0 and 1."""
    for name, ts in [("regular15", range(3, 6)), ("order9", range(3, 6)),
                     ("order12", range(3, 7)), ("grid35", range(3, 8)),
                     ("grid36", (3, 4, 5, 6, 9)), ("grid44", (4,)),
                     ("grid45", (4, 5))]:
        H = _pinned_instance(name)
        for t in ts:
            for seed in (0, 1):
                yield H, t, seed
    rng = random.Random(12)
    for _ in range(60):
        k = rng.choice((2, 3, 4))
        n = rng.randint(k + 2, 10)
        H = random_uniform_hypergraph(rng, n, k, rng.randint(n // 2, 40))
        for t in range(k, psi_upper_bound(H) + 1):
            for seed in (0, 1):
                yield H, t, seed


class TestSearchTree:
    @pytest.mark.parametrize("name,t,status,nodes", _PINNED_TREES)
    def test_pinned_nodes(self, name, t, status, nodes):
        res = _solve(name, t)
        assert (res.status, res.nodes) == (status, nodes)

    @pytest.mark.parametrize("name,t,status,nodes", _PINNED_TREES_OFF)
    def test_pinned_nodes_without_cover_prune(self, name, t, status, nodes):
        res = _solve(name, t, cover_prune=False)
        assert (res.status, res.nodes) == (status, nodes)

    def test_refutation_without_cover_prune(self):
        res = _solve("grid36", 9, cover_prune=False)
        assert (res.status, res.nodes) == ("none", 131_840)

    def test_pinned_witness(self):
        res = _solve("grid36", 6)
        assert res.witness.colors == (0, 3, 5, 4, 2, 1) * 3

    def test_corpus_digest(self):
        # statuses, node counts and witnesses on small random 3-uniform
        # instances, every t up to the counting bound, prune on and off
        rows = []
        for H, t, seed in _corpus_queries():
            for cp in (True, False):
                res = exists_complete(H, t, cover_prune=cp, seed=seed)
                w = res.witness.colors if res.witness else None
                rows.append((t, cp, res.status, res.nodes, w))
        assert len(rows) == 442
        assert sum(r[3] for r in rows) == 2413
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == _CORPUS_DIGEST

    def test_decisions_digest(self):
        rows = []
        for H, t, seed in _corpus_queries():
            res = exists_complete(H, t, seed=seed)
            rows.append((t, res.status,
                         res.witness.colors if res.witness else None))
        for name, t in _NAMED_QUERIES:
            res = _solve(name, t)
            rows.append((t, res.status,
                         res.witness.colors if res.witness else None))
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == _DECISIONS_DIGEST

    def test_wide_decisions_digest(self):
        rows = []
        for H, t, seed in _wide_queries():
            res = exists_complete(H, t, seed=seed)
            rows.append((H.n, H.k, H.m, t, seed, res.status,
                         res.witness.colors if res.witness else None))
        assert len(rows) == 468
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == _WIDE_DIGEST

    def test_prunes_only_shrink_the_tree(self):
        # the same answer and witness with the prunes off, never fewer nodes
        runs = [(exists_complete(H, t, seed=seed),
                 exists_complete(H, t, seed=seed, cover_prune=False))
                for H, t, seed in _corpus_queries()]
        runs += [(_solve(name, t), _solve(name, t, cover_prune=False))
                 for name, t in _NAMED_QUERIES]
        for on, off in runs:
            assert (on.status, on.witness) == (off.status, off.witness)
            assert on.nodes <= off.nodes


def _hall_state(n, k, t, rows, colored):
    """A _Hall over edges rows at the root, and the lists it reads, with
    the vertices in colored (vertex -> color) then written in by hand;
    the matching itself is left as at the root."""
    _rank_of, smask, subs = solver._subset_tables(t, k)
    color_of = [-1] * n
    barred = [0] * n
    emask = [0] * len(rows)
    rem = [k] * len(rows)
    edges_of = [[j for j, row in enumerate(rows) if v in row]
                for v in range(n)]
    hall = solver._Hall(rows, edges_of, color_of, barred, emask, rem,
                        smask, subs)
    for v, c in colored.items():
        color_of[v] = c
        for j in edges_of[v]:
            emask[j] |= 1 << c
            rem[j] -= 1
            for w in rows[j]:
                if w != v:
                    barred[w] |= 1 << c
    return hall


def _rank(colors):
    return solver.subset_rank(sorted(colors))


class TestEdgeFits:
    """_Hall.fits: can open edge j still be colored with exactly S?"""

    def test_one_vertex_barred_from_the_color_it_needs(self):
        rows = [(0, 1, 2), (2, 3, 4)]
        hall = _hall_state(5, 3, 4, rows, {0: 0, 1: 1})
        assert hall.fits(0, _rank({0, 1, 2}))
        assert not hall.fits(0, _rank({1, 2, 3}))  # 0 holds a color not in S
        hall = _hall_state(5, 3, 4, rows, {0: 0, 1: 1, 3: 2})
        # vertex 2 needs color 2, which its neighbor 3 holds
        assert not hall.fits(0, _rank({0, 1, 2}))
        assert hall.fits(0, _rank({0, 1, 3}))

    def test_two_vertices_fit_only_swapped(self):
        rows = [(0, 1, 2), (1, 3, 5), (2, 4, 5)]
        # 1 is barred from 1 (by 3) and 2 from 2 (by 4): 1 -> 2, 2 -> 1
        hall = _hall_state(6, 3, 5, rows, {0: 0, 3: 1, 4: 2})
        assert hall.fits(0, _rank({0, 1, 2}))
        # with 5 holding 1 in place of 4 holding 2, both need color 2
        hall = _hall_state(6, 3, 5, rows, {0: 0, 3: 1, 5: 1})
        assert not hall.fits(0, _rank({0, 1, 2}))
        assert hall.fits(0, _rank({0, 2, 3}))

    def test_blank_edge(self):
        rows = [(0, 1, 2), (0, 3, 4), (1, 5, 6), (2, 7, 8)]
        # 0 may take only 2 of S = {0, 1, 2}, 1 only 0 or 1, 2 anything
        hall = _hall_state(9, 3, 3, rows, {3: 0, 4: 1, 5: 2})
        assert hall.fits(0, _rank({0, 1, 2}))
        # 0 and 1 may each take only 2: together the three vertices may
        # take every color of S, but not one each
        hall = _hall_state(9, 3, 3, rows, {3: 0, 4: 1, 5: 0, 6: 1})
        assert not hall.fits(0, _rank({0, 1, 2}))

    def test_k4_edge(self):
        rows = [(0, 1, 2, 3), (0, 4, 5, 6), (1, 4, 7, 8), (2, 9, 10, 11),
                (3, 9, 12, 13)]
        # 0 and 1 may take 0 or 1 only (4 holds 2, 5 and 7 hold 3), 2 and
        # 3 may take 2 or 3 only (9 holds 0, 10 and 12 hold 1): each pair
        # must swap within itself
        colored = {4: 2, 5: 3, 7: 3, 9: 0, 10: 1, 12: 1}
        hall = _hall_state(14, 4, 4, rows, colored)
        assert hall.fits(0, _rank({0, 1, 2, 3}))
        # 6 holding 1 leaves vertex 0 only color 0, and 8 holding 0
        # leaves vertex 1 only color 1: still fine
        hall = _hall_state(14, 4, 4, rows, {**colored, 6: 1, 8: 0})
        assert hall.fits(0, _rank({0, 1, 2, 3}))
        # 8 holding 1 instead leaves vertices 0 and 1 both only color 0
        hall = _hall_state(14, 4, 4, rows, {**colored, 6: 1, 8: 1})
        assert not hall.fits(0, _rank({0, 1, 2, 3}))


def _hall_oracle(H, t, color_of, vertex_level):
    """Can the uncovered t-color k-subsets go to distinct open edges that
    can still realize them?  With vertex_level False an edge fits S when
    its colors are a proper subset of S (the mask-level bound); with
    True its uncolored vertices must also take the colors S lacks, one
    each, none held by a neighbor.  A maximum matching from networkx."""
    rows = H.edge_tuples()
    held = [{color_of[w] for e in rows if v in e for w in e if w != v}
            for v in range(H.n)]
    covered = {frozenset(color_of[v] for v in e) for e in rows
               if all(color_of[v] >= 0 for v in e)}
    G = nx.Graph()
    subsets = [frozenset(S) for S in itertools.combinations(range(t), H.k)
               if frozenset(S) not in covered]
    G.add_nodes_from(("S", S) for S in subsets)
    for j, e in enumerate(rows):
        free = [v for v in e if color_of[v] < 0]
        if not free:
            continue
        have = {color_of[v] for v in e if color_of[v] >= 0}
        for S in subsets:
            if not have < S:
                continue
            if vertex_level and not any(
                    all(c not in held[v] for v, c in zip(free, perm))
                    for perm in itertools.permutations(S - have)):
                continue
            G.add_edge(("S", S), ("e", j))
    match = nx.bipartite.maximum_matching(
        G, top_nodes=[("S", S) for S in subsets])
    return all(("S", S) in match for S in subsets)


def _replay(H, t, steps):
    """_Hall.assign's answer after each (v, c) in steps, with the state
    kept as exists_complete keeps it; stops after the first False."""
    rows = H.edge_tuples()
    rank_of = solver._subset_tables(t, H.k)[0]
    hall = _hall_state(H.n, H.k, t, rows, {})
    color_of, barred, emask, rem = (hall.color_of, hall.barred, hall.emask,
                                    hall.rem)
    for v, c in steps:
        bit = 1 << c
        color_of[v] = c
        ev = hall.edges_of[v]
        newly = [w for w in {w for j in ev for w in rows[j]} - {v}
                 if not barred[w] & bit]
        for w in newly:
            barred[w] |= bit
        closed = []
        for j in ev:
            emask[j] |= bit
            rem[j] -= 1
            if rem[j] == 0:
                closed.append(rank_of[emask[j]])
        ok = hall.assign(ev, bit, closed, newly)
        yield ok
        if not ok:
            return


class TestHallBound:
    def test_prunes_where_the_mask_level_bound_passes(self):
        # the 4-cycle at t = 3 with 0 := 0 and 2 := 1: every open edge
        # has one uncolored vertex, 1 or 3, which may take only color 2,
        # so no edge can still realize {0, 1}; by masks alone {0, 1}
        # could take edge 01 or 12
        H = cycle(4)
        color_of = [0, -1, 1, -1]
        assert _hall_oracle(H, 3, color_of, vertex_level=False)
        assert not _hall_oracle(H, 3, color_of, vertex_level=True)
        assert list(_replay(H, 3, [(0, 0), (2, 1)])) == [True, False]

    def test_repair_agrees_with_a_fresh_matching(self, rng):
        # each assignment repairs the matching in place; a matching built
        # from scratch must give the same verdict at every step
        verdicts = set()
        for _ in range(150):
            k = rng.randint(2, 4)
            n = rng.randint(k + 2, 9)
            H = random_uniform_hypergraph(
                rng, n, k, rng.randint(n, min(3 * n, math.comb(n, k))))
            t = rng.randint(k, max(k, psi_upper_bound(H)))
            if math.comb(t, k) > H.m:
                continue
            vs = list(range(n))
            rng.shuffle(vs)
            steps = []
            color_of = [-1] * n
            for v in vs:  # a random proper partial coloring
                held = {color_of[w] for e in H.edge_tuples() if v in e
                        for w in e}
                free = [c for c in range(t) if c not in held]
                if not free:
                    break
                color_of[v] = rng.choice(free)
                steps.append((v, color_of[v]))
            color_of = [-1] * n
            for (v, c), ok in zip(steps, _replay(H, t, steps)):
                color_of[v] = c
                assert ok == _hall_oracle(H, t, color_of, True), (H, t, steps)
                verdicts.add(ok)
        assert verdicts == {True, False}


@st.composite
def small_3_uniform(draw):
    n = draw(st.integers(3, 8))
    triples = list(itertools.combinations(range(n), 3))
    edges = draw(st.lists(st.sampled_from(triples), min_size=1,
                          max_size=12, unique=True))
    return Hypergraph(n, 3, edges)


class TestMetamorphic:
    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(small_3_uniform(), st.randoms(use_true_random=False))
    def test_spectrum_invariant_under_relabelling(self, H, r):
        perm = list(range(H.n))
        r.shuffle(perm)
        G = Hypergraph(H.n, 3, [[perm[v] for v in e] for e in H.edge_tuples()])
        a, b = spectrum(H), spectrum(G)
        assert (a.chi, a.psi, a.feasible) == (b.chi, b.psi, b.feasible)

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(small_3_uniform())
    def test_status_independent_of_seed(self, H):
        for t in range(3, psi_upper_bound(H) + 1):
            statuses = {exists_complete(H, t, seed=s).status
                        for s in range(4)}
            assert len(statuses) == 1, (t, statuses)

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(small_3_uniform())
    def test_status_independent_of_cover_prune(self, H):
        for t in range(3, psi_upper_bound(H) + 1):
            assert (exists_complete(H, t, cover_prune=True).status
                    == exists_complete(H, t, cover_prune=False).status)


class TestBounds:
    def test_psi_upper_bound(self):
        # C(t,2) <= 3 edges forces t <= 3 on a triangle
        assert psi_upper_bound(cycle(3)) == 3
        assert psi_upper_bound(Hypergraph(5, 2, [])) == 0
        H = complete_uniform(5, 3)
        # C(5,3)=10 edges allow t=5
        assert psi_upper_bound(H) == 5

    def test_counting_bound_holds_on_solved_instances(self, rng):
        for _ in range(30):
            n = rng.randint(3, 7)
            H = random_uniform_hypergraph(
                rng, n, 2, rng.randint(1, math.comb(n, 2)))
            rep = spectrum(H)
            if rep.psi:
                assert math.comb(rep.psi, H.k) <= H.m


class TestChiPsi:
    def test_known_values(self):
        assert chromatic_number(cycle(5)) == 3
        assert chromatic_number(cycle(6)) == 2
        assert chromatic_number(complete_uniform(7, 2)) == 7
        # path on 4 vertices: chi=2, psi=3 (classic achromatic example)
        P = path(4)
        assert chromatic_number(P) == 2
        assert achromatic_number(P) == 3

    def test_achromatic_of_complete_uniform(self):
        # all k-subsets of m vertices: rainbow everything, psi = m = chi
        for m, k in [(4, 2), (5, 3), (6, 3)]:
            H = complete_uniform(m, k)
            assert chromatic_number(H) == m
            assert achromatic_number(H) == m

    def test_edgeless(self):
        H = Hypergraph(4, 2, [])
        assert chromatic_number(H) == 1
        assert achromatic_number(H) == 0

    def test_budget_error(self):
        with pytest.raises(BudgetExhaustedError):
            chromatic_number(complete_uniform(9, 2), budget=2)


class TestSpectrum:
    def test_path4(self):
        rep = spectrum(path(4))
        assert (rep.chi, rep.psi) == (2, 3)
        assert rep.feasible == (2, 3)
        assert rep.unknown == ()
        assert rep.interpolation_holds is True
        for t, w in rep.witnesses.items():
            assert is_complete(path(4), w) and w.t == t

    def test_warnings(self):
        rep = spectrum(Hypergraph(3, 2, []))
        assert any("no edges" in w for w in rep.warnings)
        rep2 = spectrum(Hypergraph(4, 2, [(0, 1)]))
        assert rep2.warnings == ("2 isolated vertices",)

    def test_budget_marks_unknown(self):
        H = complete_uniform(7, 3)
        rep = spectrum(H, budget=5)
        assert rep.unknown != ()
        assert set(rep.unknown) | set(rep.feasible) <= set(range(3, 8))

    def test_budget_bounds_the_chi_search(self, monkeypatch):
        # the chi search on K8 needs 8 nodes; with a budget of 1 the
        # report leaves chi open instead of searching without limit
        H = complete_uniform(8, 2)
        with pytest.raises(BudgetExhaustedError):
            chromatic_number(H, budget=1)
        budgets = []
        real = solver.exists_proper

        def spy(H, t, *, budget=None, seed=0):
            budgets.append(budget)
            return real(H, t, budget=budget, seed=seed)

        monkeypatch.setattr(solver, "exists_proper", spy)
        rep = spectrum(H, budget=1)
        assert budgets == [1]
        assert rep.chi is None
        assert rep.unknown == (8,) and rep.feasible == ()
        assert spectrum(H).chi == 8

    def test_budget_leaves_psi_open(self):
        # K8 has psi 8, but with one node per search nothing is decided
        rep = spectrum(complete_uniform(8, 2), budget=1)
        assert rep.psi is None and rep.to_dict()["psi"] is None
        # t = 6 runs out above the verified 3, 4 and 5 (it is refuted in
        # 406 nodes, t = 7 in 106)
        rep = spectrum(grid_transversal(3, 5), budget=200)
        assert rep.feasible == (3, 4, 5) and rep.unknown == (6,)
        assert rep.psi is None
        # an unknown t below the largest feasible one leaves psi exact
        rep = spectrum(regular15(), budget=100)
        assert (rep.feasible, rep.unknown, rep.psi) == ((3, 5), (4,), 5)

    def test_matches_naive(self, rng):
        for _ in range(12):
            n = rng.randint(3, 5)
            H = random_uniform_hypergraph(
                rng, n, 2, rng.randint(1, math.comb(n, 2)))
            assert set(spectrum(H).feasible) == naive_spectrum(H, n)


# a search that claims an all-zero coloring, which is never complete
_BAD_SEARCH = """
from hypercolor import Coloring, SolveResult, solver

def bad_exists_complete(H, t, **kwargs):
    return SolveResult("found", Coloring((0,) * H.n, t), 1)
"""


class TestSpectrumWitnessCheck:
    def test_incomplete_witness_raises(self, monkeypatch):
        scope = {}
        exec(_BAD_SEARCH, scope)
        monkeypatch.setattr(solver, "exists_complete",
                            scope["bad_exists_complete"])
        with pytest.raises(InvalidWitnessError):
            spectrum(complete_uniform(4, 3))

    def test_check_runs_under_optimize(self):
        # python -O strips assert statements; the witness check must stay
        script = _BAD_SEARCH + """
if __debug__:
    raise SystemExit("not running under -O")
from hypercolor import InvalidWitnessError, complete_uniform
solver.exists_complete = bad_exists_complete
try:
    solver.spectrum(complete_uniform(4, 3))
except InvalidWitnessError:
    print("rejected")
"""
        src = str(Path(hypercolor.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "rejected"


class TestBruteForce:
    def test_matches_solver(self, rng):
        for _ in range(25):
            n = rng.randint(3, 6)
            k = rng.randint(2, 3)
            H = random_uniform_hypergraph(
                rng, n, k, rng.randint(1, math.comb(n, k)))
            assert brute_force_spectrum(H) == set(spectrum(H).feasible)

    def test_cap_enforced(self):
        H = complete_uniform(12, 3)
        with pytest.raises(EnumerationCapExceeded):
            brute_force_spectrum(H, cap=1000)

    def test_t_max_restricts(self):
        # all 3-subsets of 5 vertices: every pair shares an edge, so only
        # the rainbow coloring works and the spectrum is {5}
        H = complete_uniform(5, 3)
        assert brute_force_spectrum(H, 4) == set()
        assert brute_force_spectrum(H) == {5}

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_chunk_boundaries(self, monkeypatch, chunk):
        # 3**5 and 4**5 assignments split across passes of the scan
        H = Hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        want = brute_force_spectrum(H)
        monkeypatch.setattr(solver, "_BRUTE_CHUNK", chunk)
        assert brute_force_spectrum(H) == want == {3}


def test_brute_force_decodes_column_wise():
    # 3**9 + 4**9 + 5**9 assignments of the order-9 gap instance in
    # 1M-row passes; (chunk, n) int64 decode temporaries would pass 150 MB
    text = (Path(__file__).parent / "data" / "order9.json").read_text()
    H = parse_hypergraph(text)
    got, peak = traced_peak(lambda: brute_force_spectrum(H))
    assert got == {3, 5}
    assert peak <= 50_000_000


@pytest.mark.parametrize("call", [
    lambda H: spectrum(H, cover_prune=True),
    lambda H: brute_force_spectrum(H, chunk=1_000_000),
], ids=["spectrum cover_prune", "brute_force_spectrum chunk"])
def test_removed_keywords_raise(call):
    with pytest.raises(TypeError):
        call(complete_uniform(5, 3))


class TestVertexLimit:
    """The searches recurse once per vertex; past the limit they refuse
    with a typed error before any node, instead of a RecursionError."""

    @staticmethod
    def star(n):
        return Hypergraph(n, 2, [(0, v) for v in range(1, n)])

    @pytest.mark.parametrize("query", [
        lambda H: exists_proper(H, 2),
        lambda H: exists_complete(H, 2),
        lambda H: chromatic_number(H),
        lambda H: achromatic_number(H),
        lambda H: spectrum(H),
    ], ids=["exists_proper", "exists_complete", "chi", "psi", "spectrum"])
    def test_star_past_the_limit_raises(self, query):
        with pytest.raises(hypercolor.VertexLimitError) as exc:
            query(self.star(1500))
        assert str(exc.value) == ("the exact search takes at most 900 "
                                  "vertices, the hypergraph has 1500")
        assert isinstance(exc.value, hypercolor.HypergraphError)

    def test_star_at_the_limit_is_searched(self):
        H = self.star(solver._MAX_SEARCH_VERTICES)
        proper = exists_proper(H, 2)
        complete = exists_complete(H, 2)
        assert proper.status == complete.status == "found"
        assert is_proper(H, proper.witness) and is_complete(H, complete.witness)
        with pytest.raises(hypercolor.VertexLimitError):
            exists_proper(self.star(solver._MAX_SEARCH_VERTICES + 1), 2)

    def test_quick_answers_need_no_search(self):
        # refuted or settled before any search, whatever n is
        H = self.star(1500)
        assert exists_complete(H, 1).status == "none"  # t < k
        assert exists_proper(H, 1).status == "none"
        assert chromatic_number(Hypergraph(1500, 2, [])) == 1

    @pytest.fixture
    def no_per_vertex_work(self, monkeypatch):
        # huge vertex counts: any call here would allocate in proportion to n
        def refuse(self):
            raise AssertionError("per-vertex work on a hostile vertex count")
        monkeypatch.setattr(Hypergraph, "degrees", refuse)
        monkeypatch.setattr(Hypergraph, "conflict_masks", refuse)

    @pytest.mark.parametrize("n", [30_000_000, 2 ** 63 - 1])
    @pytest.mark.parametrize("query", [chromatic_number, spectrum],
                             ids=["chi", "spectrum"])
    def test_hostile_vertex_count_refused_first(self, no_per_vertex_work, query, n):
        with pytest.raises(hypercolor.VertexLimitError,
                           match=f"the hypergraph has {n}$"):
            query(Hypergraph(n, 2, [[0, 1]]))

    def test_edgeless_spectrum_needs_no_vertex_pass(self, no_per_vertex_work):
        rep = spectrum(Hypergraph(10 ** 12, 2, []))
        assert (rep.chi, rep.psi, rep.feasible, rep.unknown) == (1, 0, (), ())
        assert rep.warnings == ("hypergraph has no edges; no complete "
                                "coloring by convention",)
