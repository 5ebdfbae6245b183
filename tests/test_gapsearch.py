import collections
import hashlib
import itertools
import math
import random
from pathlib import Path

import pytest

from hypercolor import (
    Hypergraph,
    brute_force_spectrum,
    complete_uniform,
    exists_proper,
    independent_sets,
    parse_hypergraph,
    regular15,
    spectrum,
    split_lift,
)
from hypercolor import gapsearch
from hypercolor.canon import canonical_form
from hypercolor.gapsearch import (
    SpectrumTarget,
    _evaluate,
    _space,
    _structured_bits,
    certify_gap_instance,
    split_search,
    structural_filters,
)
from hypercolor.solver import _proper_search

from conftest import assert_trusted_edges

DATA = Path(__file__).parent / "data"

# sha256 over sorted stats and the JSON of every hit pattern and report of
# the searches in _pinned_searches, recorded before the bit-level screens
_SEARCH_DIGEST = (
    "a4753a763847a2da9a0f724f7425c2f612b03dbfefcaa3c8e097e3f91a263922")


def _pinned_searches():
    yield split_search(5, range(4), require={3, 5}, forbid={4},
                       budget=2000, seed=0)
    yield split_search(5, range(4), require={3, 5}, forbid={4},
                       budget=2000, seed=1)
    yield split_search(6, range(6), require={3, 6}, forbid={4, 5},
                       budget=400, seed=0)
    # 2**6 patterns fit the budget: exhaustive mode
    yield split_search(4, (0, 1), require={4}, budget=64, seed=0)


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

    def test_stats_and_hits_digest(self):
        results = list(_pinned_searches())
        assert results[-1].stats["mode_exhaustive"] == 1
        rows = []
        for res in results:
            rows.append(repr(sorted(res.stats.items())))
            for pattern, report in res.hits:
                rows += [pattern.to_json(), report.to_json()]
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        assert digest == _SEARCH_DIGEST

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            split_search(9, range(4), require={3})
        with pytest.raises(ValueError):
            split_search(5, (7,), require={3})

    @pytest.mark.parametrize("kw", [dict(k=0), dict(k=1), dict(require={-1}),
                                    dict(forbid={-1}), dict(require={3}, forbid={-2})])
    def test_rejects_degenerate_sizes(self, monkeypatch, kw):
        # refused before the search space is built
        monkeypatch.setattr(gapsearch, "_space", None)
        with pytest.raises(ValueError, match="k >= 2|non-negative"):
            split_search(5, range(4), **kw)

    @pytest.mark.parametrize("t", [0, 10, 10 ** 9])
    @pytest.mark.parametrize("base_m, split", [(4, (0,)), (5, (0, 1, 2, 3))])
    def test_unreachable_required_size_has_no_hits(self, base_m, split, t):
        # lifts of 5 and 9 vertices, the first searched exhaustively, the
        # second by restarts: no 0-coloring is proper, no t > n complete
        res = split_search(base_m, split, require={t}, budget=100)
        assert res.hits == () and res.stats["candidates"] > 0

    def test_screen_colors_capped_at_n(self):
        # a proper t-coloring with t > n exists exactly when a proper
        # n-coloring does: same search and same partitions past n
        space = _space(5, (0, 1, 2, 3), 3)
        n, m = space.n, len(space.rows)
        rng = random.Random(3)
        for _ in range(100):
            masks, deg = space.screen_data(rng.getrandbits(space.B))
            assert (_proper_search(n, m, 3, masks, deg, n, None, 0)
                    == _proper_search(n, m, 3, masks, deg, n + 7, None, 0))
        for seed in range(20):
            assert (_structured_bits(space, random.Random(seed), n)
                    == _structured_bits(space, random.Random(seed), n + 7))

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="workers"):
            split_search(5, range(4), require={3, 5}, forbid={4}, budget=50,
                         workers=workers)

    @pytest.mark.parametrize("kw", [
        dict(target=SpectrumTarget(frozenset({3, 5}), frozenset({4}))),
        dict(restart_quota=200), dict(screen_budget=200_000),
        dict(structured=None), dict(tabu_horizon=1000)])
    def test_removed_keywords_raise(self, kw):
        with pytest.raises(TypeError):
            split_search(5, range(4), require={3, 5}, forbid={4}, budget=50,
                         **kw)


_SPACES = [
    (4, (0, 1), None),                # every pattern, 2**6
    (5, (0, 1, 2, 3), 300),           # the order-9 space
    (6, (0, 1, 2, 3, 4, 5), 100),     # the order-12 space
]

# chi-screen nodes summed over the patterns of each of _SPACES, recorded
# with exists_proper before the screens shared its search
_SCREEN_NODES = (216, 1065, 409)


def _patterns(space, base_m, sample):
    if sample is None:
        return range(1 << space.B)
    rng = random.Random(base_m)
    return [rng.getrandbits(space.B) for _ in range(sample)]


class TestLiftSpace:
    """The search builds lifts from slot bits; split_lift from patterns."""

    @pytest.mark.parametrize("base_m, split, sample", _SPACES)
    def test_build_matches_split_lift(self, base_m, split, sample):
        space = _space(base_m, split, 3)
        for bits in _patterns(space, base_m, sample):
            assert space.build(bits) == split_lift(space.pattern(bits))

    @pytest.mark.parametrize("base_m, split, sample", _SPACES)
    def test_build_trusted_edges(self, base_m, split, sample):
        space = _space(base_m, split, 3)
        for bits in _patterns(space, base_m, sample):
            assert_trusted_edges(space.build(bits))

    @pytest.mark.parametrize("base_m, split, sample", _SPACES)
    def test_screen_data_matches_lift(self, base_m, split, sample):
        space = _space(base_m, split, 3)
        for bits in _patterns(space, base_m, sample):
            H = space.build(bits)
            masks, deg = space.screen_data(bits)
            assert tuple(masks) == H.conflict_masks()
            assert deg == H.degrees().tolist()

    @pytest.mark.parametrize("base_m, split, sample", [
        (4, (0, 1), None), (5, (0, 1, 2, 3), 40)])
    def test_canonical_bits_matches_loop(self, base_m, split, sample):
        # orbit minimum over every base permutation and copy-swap set,
        # one slot at a time
        space = _space(base_m, split, 3)
        rank = {v: p for p, v in enumerate(space.split)}
        for bits in _patterns(space, base_m, sample):
            want = min(
                sum((((bits >> j) ^ (swap >> rank[space.slots[i][1]])) & 1) << i
                    for i, j in enumerate(row))
                for row in space.src.tolist()
                for swap in range(1 << len(space.split)))
            assert space.canonical_bits(bits) == want

    @pytest.mark.parametrize("base_m, split, sample, total", [
        spec + (nodes,) for spec, nodes in zip(_SPACES, _SCREEN_NODES)])
    def test_screen_kernel_matches_exists_proper(self, base_m, split, sample,
                                                 total):
        # the chi screen's search is exists_proper's, node for node
        space = _space(base_m, split, 3)
        nodes = 0
        for bits in _patterns(space, base_m, sample):
            masks, deg = space.screen_data(bits)
            got = _proper_search(space.n, len(space.rows), 3, masks, deg, 3,
                                 200_000, 0)
            res = exists_proper(space.build(bits), 3, budget=200_000)
            witness = res.witness.colors if res.witness else None
            assert (got[0], got[2]) == (res.status, res.nodes)
            assert (tuple(got[1]) if got[1] else None) == witness
            nodes += got[2]
        assert nodes == total

    @pytest.mark.parametrize("base_m, split, require, forbid, budget", [
        (5, (0, 1, 2, 3), {3, 5}, {4}, 500),
        (6, (0, 1, 2, 3, 4, 5), {3, 6}, {4, 5}, 300),
    ])
    def test_one_build_per_candidate(self, monkeypatch, base_m, split,
                                     require, forbid, budget):
        # count at both construction seams: the validating constructor
        # and the trusted path the lift builder takes
        builds = 0
        init = Hypergraph.__init__
        trusted = Hypergraph._trusted

        def counted(self, *args, **kwargs):
            nonlocal builds
            builds += 1
            init(self, *args, **kwargs)

        def counted_trusted(*args):
            nonlocal builds
            builds += 1
            return trusted(*args)

        monkeypatch.setattr(Hypergraph, "__init__", counted)
        monkeypatch.setattr(Hypergraph, "_trusted", staticmethod(counted_trusted))
        res = split_search(base_m, split, require=require, forbid=forbid,
                           budget=budget, seed=0)
        st = res.stats
        # the order-9 space keys orbits by slot bits and screens from them,
        # so only chi-screen survivors get a lift; the order-12 space builds
        # one per canonical-form key (every candidate and tabu skip), which
        # its survivors reuse; each hit is rebuilt once for validation
        if _space(base_m, split, 3).fast_canon:
            lifts = st["candidates"] - st["screen_fail"] - st["chi_fail"]
        else:
            lifts = st["candidates"] + st["tabu_skips"]
        assert builds == lifts + st["hits"]


# sha256 of _structured_bits for seeds 0..299 (one fresh Random(seed)
# each), per (base_m, split, classes); recorded before it read lift_table
_STRUCTURED_DIGESTS = {
    (5, (0, 1, 2, 3), 3):
        "d1f26fbcdbdad603a1293a9bba6bd98fae0dc4b374bb127e31e34383b381907e",
    (6, (0, 1, 2, 3, 4, 5), 3):
        "d3e697656e536a368ef4373406319aa2365433a92742733d36295c2d6df996e5",
    (6, (0, 1, 2, 3, 4, 5), 4):
        "0cfc79111310192a695978a5187fc4f50f07da74f1c6c41d37cd32062db36649",
}


class TestScreens:
    @pytest.mark.parametrize("base_m, split, classes", _STRUCTURED_DIGESTS)
    def test_structured_bits_digest(self, base_m, split, classes):
        space = _space(base_m, split, 3)
        bits = [_structured_bits(space, random.Random(seed), classes)
                for seed in range(300)]
        digest = hashlib.sha256(",".join(map(str, bits)).encode()).hexdigest()
        assert digest == _STRUCTURED_DIGESTS[(base_m, split, classes)]

    @pytest.mark.parametrize("base_m, split, require", [
        (5, (0, 1, 2, 3), {3, 5}), (6, (0, 1, 2, 3, 4, 5), {3, 6})])
    def test_screen_fails_exactly_without_independent_set(self, base_m,
                                                          split, require):
        space = _space(base_m, split, 3)
        target = SpectrumTarget(frozenset(require), frozenset())
        need = -(-space.n // min(require))
        rng = random.Random(base_m)
        fails = 0
        for _ in range(60):
            bits = rng.getrandbits(space.B)
            stats = collections.defaultdict(int)
            _evaluate(space, bits, target, stats)
            want = not independent_sets(space.build(bits), need)
            assert stats["screen_fail"] == want
            fails += want
        assert 0 < fails < 60


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

    def test_oracle_cap_keyword_removed(self):
        H = parse_hypergraph((DATA / "order9.json").read_text())
        with pytest.raises(TypeError):
            certify_gap_instance(H, {3, 5}, {4}, oracle_cap=100_000_000)
