import itertools
import math
import random
from pathlib import Path

import pytest

from hypercolor import (
    Hypergraph,
    brute_force_spectrum,
    complete_uniform,
    parse_hypergraph,
    regular15,
    spectrum,
    split_lift,
)
from hypercolor.canon import canonical_form
from hypercolor.gapsearch import (
    SpectrumTarget,
    _space,
    certify_gap_instance,
    split_search,
    structural_filters,
)

DATA = Path(__file__).parent / "data"


class TestSpectrumTarget:
    def test_matches(self):
        rep = spectrum(regular15())
        assert SpectrumTarget(frozenset({3, 5}), frozenset({4})).matches(rep)
        assert not SpectrumTarget(frozenset({4}), frozenset()).matches(rep)
        assert not SpectrumTarget(frozenset(), frozenset({5})).matches(rep)

    def test_unknown_forbid_blocks_match(self):
        # a forbidden size that is merely unknown is not a verified gap
        rep = spectrum(complete_uniform(6, 3), budget=3)
        assert rep.unknown
        t = rep.unknown[0]
        assert not SpectrumTarget(frozenset(), frozenset({t})).matches(rep)


class TestStructuralFilters:
    def test_triangle(self):
        T = Hypergraph(3, 2, [(0, 1), (1, 2), (0, 2)])
        f = structural_filters(T)
        assert f.independence_number == 1
        assert f.max_independent_sets == ((0,), (1,), (2,))
        # one triangle vertex misses the opposite edge
        assert not f.max_sets_cover_all

    def test_regular15(self):
        f = structural_filters(regular15())
        assert f.independence_number == 5
        assert f.max_set_count == 3
        assert f.max_sets_cover_all
        assert not f.every_3set_extends

    def test_complete_base(self):
        # independence is pairwise (no two members co-edged), matching
        # what a proper-coloring class may contain; in a complete
        # 3-uniform base every pair shares an edge
        f = structural_filters(complete_uniform(6, 3))
        assert f.independence_number == 1
        assert f.max_set_count == 6


class TestSplitSearch:
    def test_finds_nine_vertex_gap(self):
        res = split_search(5, range(4), require={3, 5}, forbid={4},
                           budget=2000, seed=0)
        assert len(res.hits) >= 1
        for pattern, report in res.hits:
            H = split_lift(pattern)
            assert (H.n, H.m) == (9, 10)
            assert report.feasible == (3, 5)
            # no-false-positives: re-check against the exhaustive oracle
            assert brute_force_spectrum(H) == {3, 5}

    def test_deterministic_across_runs(self):
        kw = dict(require={3, 5}, forbid={4}, budget=500, seed=7)
        a = split_search(5, range(4), **kw)
        b = split_search(5, range(4), **kw)
        assert [p for p, _ in a.hits] == [p for p, _ in b.hits]
        assert a.stats == b.stats

    def test_worker_count_does_not_change_hits(self):
        kw = dict(require={3, 5}, forbid={4}, budget=600, seed=3)
        one = split_search(5, range(4), workers=1, **kw)
        two = split_search(5, range(4), workers=2, **kw)
        assert [p for p, _ in one.hits] == [p for p, _ in two.hits]

    def test_hits_are_nonisomorphic(self):
        res = split_search(6, range(6), require={3, 6}, forbid={4, 5},
                           budget=1500, seed=0)
        forms = [canonical_form(split_lift(p)) for p, _ in res.hits]
        assert len(forms) == len(set(forms))

    def test_exhaustive_mode_small_base(self):
        # base K4, one split vertex: 3 lift bits, 8 assignments total
        res = split_search(4, (0,), require={4}, budget=64, seed=0)
        assert res.stats.get("mode_exhaustive") == 1
        # K4 lifts keep a complete-4 coloring in every case that leaves
        # no isolated copy; at least the all-same lifts qualify
        assert len(res.hits) >= 1
        for pattern, report in res.hits:
            assert 4 in report.feasible

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            split_search(9, range(4), require={3})
        with pytest.raises(ValueError):
            split_search(5, (7,), require={3})


class TestLiftSpace:
    """The search builds lifts from slot bits; split_lift from patterns."""

    @pytest.mark.parametrize("base_m, split, sample", [
        (4, (0, 1), None),                # every pattern, 2**6
        (5, (0, 1, 2, 3), 300),           # the order-9 space
        (6, (0, 1, 2, 3, 4, 5), 100),     # the order-12 space
    ])
    def test_build_matches_split_lift(self, base_m, split, sample):
        space = _space(base_m, split, 3)
        if sample is None:
            patterns = range(1 << space.B)
        else:
            rng = random.Random(base_m)
            patterns = [rng.getrandbits(space.B) for _ in range(sample)]
        for bits in patterns:
            assert space.build(bits) == split_lift(space.pattern(bits))

    @pytest.mark.parametrize("base_m, split, require, forbid, budget", [
        (5, (0, 1, 2, 3), {3, 5}, {4}, 500),
        (6, (0, 1, 2, 3, 4, 5), {3, 6}, {4, 5}, 300),
    ])
    def test_one_build_per_candidate(self, monkeypatch, base_m, split,
                                     require, forbid, budget):
        builds = 0
        init = Hypergraph.__init__

        def counted(self, *args, **kwargs):
            nonlocal builds
            builds += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Hypergraph, "__init__", counted)
        res = split_search(base_m, split, require=require, forbid=forbid,
                           budget=budget, seed=0)
        st = res.stats
        # the order-9 space keys orbits by slot bits and builds nothing for
        # them; the order-12 space needs the lift for its canonical-form key,
        # so a tabu skip there costs one build
        skips = 0 if _space(base_m, split, 3).fast_canon else st["tabu_skips"]
        assert builds <= st["candidates"] + skips + st["hits"] + 1


class TestCertifyGapInstance:
    def test_order9_fixture(self):
        H = parse_hypergraph((DATA / "order9.json").read_text())
        v = certify_gap_instance(H, {3, 5}, {4})
        assert v["ok"]
        assert v["target_matched"] and v["oracle_confirmed"]
        assert v["counting_bound"]
        assert v["report"].feasible == (3, 5)

    def test_order12_fixture(self):
        H = parse_hypergraph((DATA / "order12.json").read_text())
        assert (H.n, H.m) == (12, 20)
        v = certify_gap_instance(H, {3, 6}, {4, 5})
        assert v["ok"]
        assert v["report"].feasible == (3, 6)
        assert v["report"].psi == 2 * v["report"].chi
        # the known structural signature: exactly three independent 4-sets
        f = v["features"]
        assert f.independence_number == 4
        assert f.max_set_count == 3

    def test_rejects_wrong_claim(self):
        v = certify_gap_instance(regular15(), {3, 6}, {4})
        assert not v["ok"]
        assert not v["target_matched"]
