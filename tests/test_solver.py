import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

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

from conftest import naive_spectrum, random_uniform_hypergraph


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
        # same decision with and without the dominating-class prune
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


# (status, nodes) of exists_complete(..., seed=0), recorded before the
# coverage bookkeeping was rewritten; any change to the visited tree shows
_PINNED_TREES = [
    ("grid36", 3, "found", 35),
    ("grid36", 4, "found", 59),
    ("grid36", 5, "found", 288),
    ("grid36", 6, "found", 3407),
    ("grid36", 9, "none", 131_840),
    ("regular15", 4, "none", 760),
    ("order12", 4, "none", 81),
    ("order12", 5, "none", 473),
]

_CORPUS_DIGEST = (
    "9c34bc3e41c170cf33113ddcec592fc0981b52d9a05a9a3055186c852d481523")


def _pinned_instance(name):
    if name == "grid36":
        return grid_transversal(3, 6)
    if name == "regular15":
        return regular15()
    data = Path(__file__).parent / "data" / f"{name}.json"
    return parse_hypergraph(data.read_text())


class TestSearchTree:
    @pytest.mark.parametrize("name,t,status,nodes", _PINNED_TREES)
    def test_pinned_nodes(self, name, t, status, nodes):
        res = exists_complete(_pinned_instance(name), t, seed=0)
        assert (res.status, res.nodes) == (status, nodes)

    def test_refutation_without_cover_prune(self):
        res = exists_complete(grid_transversal(3, 6), 9, seed=0,
                              cover_prune=False)
        assert (res.status, res.nodes) == ("none", 131_840)

    def test_pinned_witness(self):
        res = exists_complete(grid_transversal(3, 6), 6, seed=0)
        assert res.witness.colors == (0, 3, 5, 4, 2, 1) * 3

    def test_corpus_digest(self):
        # statuses, node counts and witnesses on small random 3-uniform
        # instances, every t up to the counting bound, prune on and off
        rng = random.Random(5)
        rows = []
        for _ in range(60):
            n = rng.randint(7, 11)
            H = random_uniform_hypergraph(rng, n, 3, rng.randint(10, 40))
            for t in range(3, psi_upper_bound(H) + 1):
                for cp in (True, False):
                    res = exists_complete(H, t, cover_prune=cp, seed=t)
                    w = res.witness.colors if res.witness else None
                    rows.append((t, cp, res.status, res.nodes, w))
        assert len(rows) == 442
        assert sum(r[3] for r in rows) == 3078
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == _CORPUS_DIGEST


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
        assert any("isolated" in w for w in rep2.warnings)

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
        # t = 6 and 7 run out above the verified 3, 4 and 5
        rep = spectrum(grid_transversal(3, 5), budget=2000)
        assert rep.feasible == (3, 4, 5) and rep.unknown == (6, 7)
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


@pytest.mark.parametrize("call", [
    lambda H: spectrum(H, cover_prune=True),
    lambda H: brute_force_spectrum(H, chunk=1_000_000),
], ids=["spectrum cover_prune", "brute_force_spectrum chunk"])
def test_removed_keywords_raise(call):
    with pytest.raises(TypeError):
        call(complete_uniform(5, 3))
