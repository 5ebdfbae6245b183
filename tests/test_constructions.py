import hashlib
import importlib.util
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from hypercolor import (
    DocumentError,
    GridParams,
    Hypergraph,
    SplitPattern,
    complete_uniform,
    exists_complete,
    grid_part_coloring,
    grid_position_coloring,
    grid_transversal,
    is_complete,
    regular15,
    split_lift,
    spectrum,
)
from hypercolor.constructions import verify_grid_invariants

from conftest import assert_trusted_edges, traced_peak


def _independent():
    """The benchmark's reference checks, which import nothing from hypercolor."""
    path = Path(__file__).parents[1] / "perfbench" / "independent.py"
    spec = importlib.util.spec_from_file_location("perfbench_independent", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def naive_grid_edges(k, r):
    """Definition-first generator: one loop per edge, no vectorization.

    Vertex (part i, position q) is i*r + q.  An assignment (q_0..q_{k-1})
    of pairwise distinct positions yields an edge when at most one pair
    of parts sits on adjacent positions, or when the positions strictly
    increase.
    """
    edges = set()
    for qs in itertools.product(range(r), repeat=k):
        if len(set(qs)) != k:
            continue
        adjacent = sum(1 for i in range(k) for j in range(i + 1, k)
                       if abs(qs[i] - qs[j]) == 1)
        increasing = all(qs[i] < qs[i + 1] for i in range(k - 1))
        if adjacent <= 1 or increasing:
            edges.add(tuple(sorted(i * r + q for i, q in enumerate(qs))))
    return edges


class TestGridFamily:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            GridParams(2, 6)
        with pytest.raises(ValueError):
            GridParams(3, 2)

    @pytest.mark.parametrize("k,r", [(3, 3), (3, 6), (3, 7), (4, 6)])
    def test_matches_naive_generator(self, k, r):
        H = grid_transversal(k, r)
        assert H.n == k * r
        got = set(H.edge_tuples())
        assert got == naive_grid_edges(k, r)

    def test_invariants_small(self):
        H = grid_transversal(3, 8)
        flags = verify_grid_invariants(H, 3, 8)
        assert flags == {"positions_distinct": True, "parts_distinct": True,
                         "cross_pairs_covered": True}

    @pytest.mark.parametrize("k,r,digest", [(3, r, d) for r, d in [
        (3, "685657cba263dadc8d537a94e34a185b61d992120f85ddfbd5f5d8b7cee17cfe"),
        (4, "0e343ccffbc822d4ab7bc0259ab91fedcc4c730d05dd9bb765cc8155ad6033f7"),
        (5, "bc63f7e448e10571755790ee0c759dff8296cf8a2e06765b3ba5ea40ca2c5bd0"),
        (6, "50bdbaec4b128364c6327980f6d40f9d3e9dda5eca503d038532cd2a1c5064fa"),
        (7, "ba3f3a2e88da75f7f3852af78daf71749a2d8f805f0a45ca6f0f21b0fe0e4b7c"),
        (8, "9890aaf4b7f8da9da9974cdea2a552f191eb20693de6e8e1da123d1ad0ad28e8"),
        (9, "9f47edca0466d8e8952e8eec87568b834b618cab32c4bc749db9fab7dcbca039"),
        (10, "96870820bd6a7f368f035f2078fa202701ccca862b9c7d96536f7165182ee0ed"),
    ]] + [
        (4, 9, "e9e6bc47504d9e9cc170f1a3de7fcc7d0cbfc333e20e40fbcac5e91c34a22cd8"),
        (5, 8, "aa7513bcf1406a4b1257f9c7f576606212d29f7ae012adf9ebb2c3c08ef59f03"),
    ])
    def test_edges_digest(self, k, r, digest):
        # sha256 of the int16 edge array, recorded on the row-block generator
        E = grid_transversal(k, r).edges
        assert E.dtype == np.int16 and E.flags["C_CONTIGUOUS"]
        assert hashlib.sha256(E.tobytes()).hexdigest() == digest

    # the cases of test_edges_digest
    @pytest.mark.parametrize("k,r", [(3, r) for r in range(3, 11)]
                             + [(4, 9), (5, 8)])
    def test_trusted_edges_match_constructor(self, k, r):
        assert_trusted_edges(grid_transversal(k, r))

    def test_generation_keeps_one_edge_array(self):
        # the hypergraph adopts the array the generator fills, and the
        # keep masks are stored one bit per tail; a copy would put the
        # traced peak near 3x the edge bytes, full bool masks near 1.6x
        H, peak = traced_peak(lambda: grid_transversal(5, 20))
        assert peak <= 1.5 * H.edges.nbytes

    @pytest.mark.slow
    def test_generation_keeps_one_edge_array_at_scale(self):
        # grid(5,34): 30.3M edges, a 303 MB edge array
        H, peak = traced_peak(lambda: grid_transversal(5, 34))
        assert H.m == 30_281_250
        assert peak <= 1.5 * H.edges.nbytes

    def test_invariants_detect_defects(self):
        k, r = 3, 8
        H = grid_transversal(k, r)
        good = {tuple(e) for e in H.edge_tuples()}

        def flags(edges):
            return verify_grid_invariants(Hypergraph(k * r, k, sorted(edges)), k, r)

        # two vertices at position 0: parts stay distinct
        assert flags(good | {(0, r, 2 * r + 1)}) == {
            "positions_distinct": False, "parts_distinct": True,
            "cross_pairs_covered": False}
        # two vertices of part 0: positions stay distinct
        assert flags(good | {(0, 1, 2 * r + 3)}) == {
            "positions_distinct": True, "parts_distinct": False,
            "cross_pairs_covered": False}
        # the cross pair (part 0 pos 0, part 1 pos 2) is left uncovered
        assert flags({e for e in good if not {0, r + 2} <= set(e)}) == {
            "positions_distinct": True, "parts_distinct": True,
            "cross_pairs_covered": False}

    def test_part_coloring_complete(self):
        k, r = 3, 7
        H = grid_transversal(k, r)
        col = grid_part_coloring(k, r)
        assert col.t == k
        assert is_complete(H, col)

    def test_position_coloring_complete(self):
        k, r = 3, 7
        H = grid_transversal(k, r)
        col = grid_position_coloring(k, r)
        assert col.t == r
        assert is_complete(H, col)

    def test_gap_range_formula(self):
        # ceil((k-2)r/(k-1)) + k + 1 .. r - 1, for the acceptance sizes;
        # empty at k = 3, where test_mixed_coloring_fills_k3_band refutes it
        assert list(GridParams(3, 16).gap_range()) == []
        assert list(GridParams(4, 24).gap_range()) == list(range(21, 24))
        assert list(GridParams(5, 34).gap_range()) == list(range(32, 34))
        # degenerate: small r leaves nothing between the two colorings
        assert not GridParams(3, 3).gap_range()

    @pytest.mark.parametrize("r, t", [(10, 9), (16, 12), (16, 13), (16, 14),
                                      (16, 15)])
    def test_mixed_coloring_fills_k3_band(self, r, t):
        # t lies in ceil(r/2)+4 .. r-1, the band the formula gives at k = 3
        H = grid_transversal(3, r)
        colors = [q if q <= t - 4 else t - 3 + part
                  for part in range(3) for q in range(r)]
        assert is_complete(H, colors)
        assert _independent().is_complete_coloring(H.n, 3, H.edge_tuples(),
                                                   colors, t)

    def test_exact_search_finds_k3_band_witness(self):
        # the exhaustive search reaches a witness inside the band in 211
        # nodes
        H = grid_transversal(3, 10)
        res = exists_complete(H, 9, budget=20_000)
        assert res.status == "found"
        assert is_complete(H, res.witness)
        assert _independent().is_complete_coloring(
            H.n, 3, H.edge_tuples(), res.witness.colors, 9)

    def test_exact_search_finds_grid38_witness(self):
        # found in 277 nodes; a Hall bound that ignores which colors each
        # uncolored vertex may still take runs out of 200,000 nodes here
        H = grid_transversal(3, 8)
        res = exists_complete(H, 8, budget=2_000)
        assert res.status == "found"
        assert is_complete(H, res.witness)
        assert _independent().is_complete_coloring(
            H.n, 3, H.edge_tuples(), res.witness.colors, 8)

    def test_edge_count_closed_form(self):
        # independent count: per strictly-increasing position set, the
        # number of orderings with at most one adjacency, summed directly
        k, r = 3, 9
        H = grid_transversal(k, r)
        total = 0
        for combo in itertools.combinations(range(r), k):
            for perm in itertools.permutations(combo):
                adj = sum(1 for i in range(k) for j in range(i + 1, k)
                          if abs(perm[i] - perm[j]) == 1)
                if adj <= 1 or all(perm[i] < perm[i + 1]
                                   for i in range(k - 1)):
                    total += 1
        assert H.m == total


class TestRegular15:
    def test_structure(self):
        H = regular15()
        assert (H.n, H.k, H.m) == (15, 3, 15)
        assert all(d == 3 for d in H.degrees())
        # linear: no two edges share more than one vertex
        for a, b in itertools.combinations(H.edge_tuples(), 2):
            assert len(set(a) & set(b)) <= 1

    def test_spectrum_values(self):
        rep = spectrum(regular15())
        assert (rep.chi, rep.psi) == (3, 5)
        assert rep.feasible == (3, 5)
        assert rep.interpolation_holds is False


class TestCompleteUniform:
    def test_small(self):
        H = complete_uniform(5, 2)
        assert H.m == 10
        with pytest.raises(ValueError):
            complete_uniform(3, 4)


class TestSplitLift:
    def base_pattern(self):
        # base K4 (3-uniform), split vertices 0 and 1, all lifts zero;
        # each lift row has one entry per split vertex in that edge
        lifts = ((0, 0), (0, 0), (0,), (0,))
        return SplitPattern(4, (0, 1), lifts)

    def test_validation(self):
        with pytest.raises(ValueError):
            SplitPattern(4, (0, 9), ((0,),) * 4)
        with pytest.raises(ValueError):
            # lift row length must match split members per edge
            SplitPattern(4, (0, 1), ((0, 0, 0),) * 4)
        with pytest.raises(ValueError):
            SplitPattern(4, (0,), ((7,),) * 4)

    def test_row_count_checked_before_base_edges_are_listed(self, monkeypatch):
        # C(10**6, 3) ~ 1.7e17 base edges: refused from the count alone
        monkeypatch.setattr(SplitPattern, "base_edges", None)
        start = time.perf_counter()
        with pytest.raises(ValueError,
                           match="expected 166666166667000000 lift rows, got 0"):
            SplitPattern(10 ** 6, (), ())
        assert time.perf_counter() - start < 0.5

    def test_vertex_layout(self):
        H = split_lift(self.base_pattern())
        # 2 unsplit base vertices keep low ids, 2 split pairs follow
        assert H.n == 6
        assert H.m == 4

    def test_single_split_leaves_other_copy_isolated(self):
        lifts = ((0,), (0,), (0,), ())
        H = split_lift(SplitPattern(4, (0,), lifts))
        assert (H.n, H.m) == (5, 4)
        assert len(H.isolated_vertices()) == 1

    def test_json_roundtrip(self):
        p = self.base_pattern()
        q = SplitPattern.from_json(p.to_json())
        assert q == p
        # k field optional, defaults to 3
        doc = json.loads(p.to_json())
        del doc["k"]
        assert SplitPattern.from_json(json.dumps(doc)) == p
        with pytest.raises(DocumentError):
            SplitPattern.from_json("[]")

    def test_deeply_nested_pattern_is_a_document_error(self):
        with pytest.raises(DocumentError, match="nested too deeply"):
            SplitPattern.from_json('{"base_m":4,"split":[0],"lifts":'
                                   + "[" * 100_000 + "]" * 100_000 + "}")

    def test_all_zero_lift_of_unsplit_pattern_is_base(self):
        p = SplitPattern(5, (), tuple(() for _ in range(10)))
        H = split_lift(p)
        assert H == complete_uniform(5, 3)

    def test_distinct_lifts_stay_distinct(self):
        # choosing different copies never merges two base edges
        import random
        rng = random.Random(5)
        split = (0, 2, 4)
        base = list(itertools.combinations(range(5), 3))
        for _ in range(20):
            lifts = tuple(
                tuple(rng.randint(0, 1)
                      for v in edge if v in split)
                for edge in base)
            H = split_lift(SplitPattern(5, split, lifts))
            assert H.m == 10
            assert H.n == 5 + 3
