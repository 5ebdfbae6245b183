"""Acceptance suite: one test per headline claim, each with its time cap.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Expected values are either re-derived in place by an
independent method (brute-force enumeration, naive generators) or are
the published constants the toolkit is supposed to reproduce.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import networkx as nx
import pytest

from hypercolor import (
    Hypergraph,
    brute_force_spectrum,
    exists_complete,
    exists_proper,
    grid_part_coloring,
    grid_position_coloring,
    grid_transversal,
    is_complete,
    parse_hypergraph,
    regular15,
    serialize_hypergraph,
    spectrum,
    split_lift,
)
from hypercolor.constructions import verify_grid_invariants
from hypercolor.gapsearch import certify_gap_instance, split_search, structural_filters
from hypercolor.triangulations import (
    enumerate_triangulations,
    face_hypergraph,
    find_gap_face_hypergraphs,
    is_eulerian,
)

from conftest import enumerate_by_insertion, random_uniform_hypergraph

DATA = Path(__file__).parent / "data"


@contextmanager
def deadline(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, cap {seconds}s"


def test_criterion_1_three_regular_design():
    """15-vertex 3-regular design: chi=3, psi=5, no complete 4-coloring."""
    with deadline(60):
        H = regular15()
        rep = spectrum(H)
        assert (rep.chi, rep.psi) == (3, 5)
        assert rep.feasible == (3, 5)
        assert rep.unknown == ()
        # unlimited search is an exhaustive decision procedure
        assert exists_complete(H, 4).status == "none"
        # independent oracle up to t=3: every 3^15 assignment enumerated
        assert brute_force_spectrum(H, 3) == {3}
        assert rep.interpolation_holds is False


@pytest.mark.parametrize("k", [3, 4, 5])
def test_criterion_2_grid_family(k):
    """Grid family at proof-scale r: invariants and both colorings."""
    r = (k - 1) * (k + 2) + 6
    with deadline(120):
        H = grid_transversal(k, r)
        assert H.n == k * r
        flags = verify_grid_invariants(H, k, r)
        assert flags["positions_distinct"], "(a1) failed"
        assert flags["parts_distinct"], "(a2) failed"
        assert flags["cross_pairs_covered"], "(a3) failed"
        assert is_complete(H, grid_part_coloring(k, r))
        assert is_complete(H, grid_position_coloring(k, r))


def test_criterion_3_nine_vertex_rediscovery():
    """Search rediscovers the 9-vertex, 10-edge spectrum-gap instance."""
    with deadline(600):
        res = split_search(5, range(4), require={3, 5}, forbid={4},
                           budget=20_000, seed=0)
        assert len(res.hits) >= 1
        for pattern, report in res.hits:
            H = split_lift(pattern)
            assert (H.n, H.m) == (9, 10)
            assert report.feasible == (3, 5)
            # full re-validation by exhaustive assignment enumeration
            assert brute_force_spectrum(H) == {3, 5}


def test_criterion_4_twelve_vertex_rediscovery():
    """Search rediscovers a 12-vertex, 20-edge instance with psi = 2*chi."""
    with deadline(7200):
        res = split_search(6, range(6), require={3, 6}, forbid={4, 5},
                           budget=4000, seed=0)
        assert len(res.hits) >= 1
        for pattern, report in res.hits:
            H = split_lift(pattern)
            assert (H.n, H.m) == (12, 20)
            assert report.feasible == (3, 6)
            assert report.psi == 2 * report.chi
            # unlimited-budget decisions at the two gap values
            assert exists_complete(H, 4).status == "none"
            assert exists_complete(H, 5).status == "none"
            feats = structural_filters(H)
            assert feats.independence_number == 4
            assert feats.max_set_count == 3


def test_criterion_4_fallback_validator():
    """The validator certifies a supplied instance with no search involved."""
    with deadline(7200):
        H = parse_hypergraph((DATA / "order12.json").read_text())
        assert (H.n, H.m) == (12, 20)
        verdict = certify_gap_instance(H, {3, 6}, {4, 5})
        assert verdict["ok"]
        feats = verdict["features"]
        assert feats.independence_number == 4
        assert feats.max_set_count == 3


def test_criterion_5_triangulation_enumeration():
    """Class counts vs brute force (n<=7), two generators agree (n=8..12)."""
    with deadline(1800):
        # independent oracle: planar graphs with 3n-6 edges up to
        # isomorphism (unique embedding up to reflection at these sizes)
        for n in (4, 5, 6, 7):
            pool = list(itertools.combinations(range(n), 2))
            reps = []
            for keep in itertools.combinations(pool, 3 * n - 6):
                # in a triangulation on n >= 4 vertices every vertex has
                # degree >= 3 and every edge borders two triangles, so
                # subsets that fail either need no graph
                adj = [0] * n
                for u, v in keep:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                if min(a.bit_count() for a in adj) < 3 or any(
                        (adj[u] & adj[v]).bit_count() < 2 for u, v in keep):
                    continue
                g = nx.Graph(keep)
                if g.number_of_nodes() != n or not nx.is_connected(g):
                    continue
                if not nx.check_planarity(g)[0]:
                    continue
                if not any(nx.is_isomorphic(g, h) for h in reps):
                    reps.append(g)
            assert len(enumerate_triangulations(n)) == len(reps)
        assert [len(enumerate_triangulations(n)) for n in (4, 5, 6, 7)] == \
            [1, 1, 2, 5]

        for n in range(4, 13):
            classes = enumerate_triangulations(n)
            for e in classes:
                e.validate()          # includes the Euler relation
                assert e.is_triangulation

        for n in range(8, 13):
            a = {e.canonical_form() for e in enumerate_triangulations(n)}
            b = {e.canonical_form() for e in enumerate_by_insertion(n)}
            assert a == b


def test_criterion_6_unique_planar_gap_class():
    """Unique Eulerian 12-vertex face hypergraph: complete 6 but not 5."""
    with deadline(7200):
        hits = find_gap_face_hypergraphs(12)
        assert len(hits) == 1
        emb, rep = hits[0]
        H = face_hypergraph(emb)
        # the class the ILP gate in test_ilp_gate.py refutes at t=5
        assert serialize_hypergraph(H) == (DATA / "planar12.json").read_text()
        assert is_eulerian(emb)
        assert rep.chi == 3
        assert H.m == 20
        assert rep.psi == 6
        assert 6 in rep.feasible
        assert 5 not in rep.feasible and 5 not in rep.unknown
        # reported, no expectation attached
        print(f"t=4 status for the unique hit: "
              f"{'feasible' if 4 in rep.feasible else 'infeasible'}")


def test_criterion_7i_graph_interpolation():
    """200 random graphs: the feasible set is exactly the range [chi, psi]."""
    rng = random.Random(701)
    with deadline(600):
        for _ in range(200):
            n = rng.randint(2, 8)
            m = rng.randint(1, math.comb(n, 2))
            H = random_uniform_hypergraph(rng, n, 2, m)
            rep = spectrum(H)
            assert rep.unknown == ()
            assert rep.feasible == tuple(range(rep.chi, rep.psi + 1))
            if rep.psi:
                assert math.comb(rep.psi, 2) <= H.m


def test_criterion_7ii_solver_vs_oracle():
    """200 random 3-uniform instances: search agrees with enumeration."""
    rng = random.Random(702)
    with deadline(600):
        for _ in range(200):
            n = rng.randint(3, 7)
            m = rng.randint(1, math.comb(n, 3))
            H = random_uniform_hypergraph(rng, n, 3, m)
            brute = brute_force_spectrum(H, 5)
            for t in range(3, 6):
                res = exists_complete(H, t)
                assert res.status in ("found", "none")
                assert (res.status == "found") == (t in brute)
            rep = spectrum(H)
            if rep.psi:
                assert math.comb(rep.psi, 3) <= H.m


def test_criterion_7iii_counting_bound():
    """C(psi, k) <= edge count on every instance the suite solves."""
    rng = random.Random(703)
    with deadline(600):
        cases = [regular15(), grid_transversal(3, 6),
                 face_hypergraph(enumerate_triangulations(6)[0])]
        for _ in range(60):
            n = rng.randint(3, 7)
            k = rng.choice([2, 3])
            if k > n:
                k = 2
            cases.append(random_uniform_hypergraph(
                rng, n, k, rng.randint(1, math.comb(n, k))))
        for H in cases:
            rep = spectrum(H)
            if rep.psi:
                assert math.comb(rep.psi, H.k) <= H.m


def test_criterion_7iv_eulerian_criterion():
    """Face hypergraph is 3-colorable iff vertex degrees are all even."""
    with deadline(600):
        for n in range(4, 11):
            for e in enumerate_triangulations(n):
                H = face_hypergraph(e)
                colorable = exists_proper(H, 3).status == "found"
                assert colorable == is_eulerian(e)
