import collections
import concurrent.futures
import dataclasses
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
    serialize_hypergraph,
    spectrum,
    split_lift,
)
from hypercolor import canon, gapsearch, solver
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

from conftest import traced_peak

DATA = Path(__file__).parent / "data"

# sha256 over sorted stats and the JSON of every hit pattern and report of
# the searches in _pinned_searches, re-recorded when the restarts' tabu set
# was keyed by slot bits in place of orbit minima: that moves the order-9
# searches' stats but not their hits (see _HITS_DIGEST)
_SEARCH_DIGEST = (
    "299786f0703a4f5385067ac935dfe79a1f6e2d506e29d4103d674c42efcb24d0")

# sha256 over only the JSON of every hit pattern and report of the
# searches in _pinned_searches: the hits, without the stats that depend on
# how the screens count their rejections
_HITS_DIGEST = (
    "b99732ee11a8c2be94c4a652abc49774f6ace3749c6ce8d1c5e470efebd6c175")

# sha256 over the JSON of every hit pattern and report of the k=4 search
# in test_split12_k4_fixture, recorded while the order-12 and k=4 spaces were keyed by canonical form
_K4_HITS_DIGEST = (
    "33ef79070e9ec94a2b1bef6dfa3d07353aa4090bf0c04ba4b35909b1ce39baca")

# sha256 over the JSON of every hit pattern and report of the exhaustive
# split_search(4, (0, 1, 2), require={4}, budget=512)
_EXHAUSTIVE_HITS_DIGEST = (
    "b66d44b7e70d9c39e26b29c6150dac5f76b3d181467d11b4ad80c9777a5fb398")


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

    def test_hits_digest(self):
        rows = []
        for res in _pinned_searches():
            for pattern, report in res.hits:
                rows += [pattern.to_json(), report.to_json()]
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        assert digest == _HITS_DIGEST

    def test_canonical_forms_only_for_screen_survivors(self, monkeypatch):
        # tabu keys are slot bits and need no lift, so only candidates that
        # pass the chi screen can reach canonical_form (hits, to dedupe and
        # sort them)
        calls = 0
        form = canon.canonical_form

        def counted(H):
            nonlocal calls
            calls += 1
            return form(H)

        monkeypatch.setattr(canon, "canonical_form", counted)
        res = split_search(6, range(6), require={3, 6}, forbid={4, 5},
                           budget=300, seed=0)
        assert calls <= res.stats["candidates"] - res.stats["chi_fail"]

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

    @pytest.mark.parametrize("cpus, want", [(64, [3]), (2, [2]), (None, [])])
    def test_pool_capped_at_restarts_and_cpus(self, monkeypatch, cpus, want):
        # 600 candidates make 3 restarts; a fake pool records its size and
        # maps in this process, so no worker is started
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        kw = dict(require={3, 5}, forbid={4}, budget=600, seed=3)
        serial = split_search(5, range(4), **kw)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(gapsearch.os, "cpu_count", lambda: cpus)
        res = split_search(5, range(4), workers=1_000_000, **kw)
        assert sizes == want
        assert res.hits == serial.hits and res.stats == serial.stats

    def test_restarts_fold_as_they_finish(self, monkeypatch):
        # a million candidates make 5,000 restarts; with each restart a
        # stub, what the serial search holds must not grow with them
        monkeypatch.setattr(gapsearch, "_run_restart",
                            lambda *args: ({}, {"restarts": 1}))
        res, peak = traced_peak(lambda: split_search(
            6, range(6), require={3, 6}, forbid={4, 5}, budget=10 ** 6))
        assert res.stats["restarts"] == 5000 and res.hits == ()
        assert peak < 1_000_000

    @pytest.mark.parametrize("budget", [0, -5])
    def test_rejects_budget_below_one(self, budget):
        # a search that evaluates nothing must not read as one that found
        # nothing
        with pytest.raises(ValueError, match="budget"):
            split_search(5, range(4), require={3, 5}, forbid={4},
                         budget=budget)

    def test_randomized_search_builds_no_group(self, monkeypatch):
        # only the exhaustive scan reads the symmetry group; restarts key
        # their tabu set by the slot bits
        def refuse(*args):
            raise AssertionError("randomized search enumerated permutations")

        monkeypatch.setattr(gapsearch, "permutations", refuse)
        _space.cache_clear()
        try:
            res = split_search(5, range(4), require={3, 5}, forbid={4},
                               budget=400)
        finally:
            _space.cache_clear()
        assert res.stats["mode_randomized"] == 1
        assert res.stats["candidates"] == 400

    def test_exhaustive_stats_and_hits_pinned(self):
        # recorded before the restarts' tabu set was keyed by slot bits:
        # the exhaustive scan still skips every pattern that is not its
        # orbit minimum
        res = split_search(4, (0, 1, 2), require={4}, budget=512)
        assert res.stats == {"mode_exhaustive": 1, "orbit_skips": 496,
                             "candidates": 16, "hits": 13}
        rows = []
        for pattern, report in res.hits:
            rows += [pattern.to_json(), report.to_json()]
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        assert digest == _EXHAUSTIVE_HITS_DIGEST

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
    """The screens and orbit minima read slot bits; split_lift builds lifts."""

    @pytest.mark.parametrize("base_m, split, sample", _SPACES)
    def test_screen_data_matches_lift(self, base_m, split, sample):
        space = _space(base_m, split, 3)
        for bits in _patterns(space, base_m, sample):
            H = split_lift(space.pattern(bits))
            masks, deg = space.screen_data(bits)
            assert tuple(masks) == H.conflict_masks()
            assert deg == H.degrees().tolist()

    @pytest.mark.parametrize("base_m, split, sample", [
        (4, (0, 1), None), (5, (0, 1, 2, 3), 40)])
    def test_canonical_bits_matches_loop(self, base_m, split, sample):
        # orbit minimum over every base permutation and copy-swap set,
        # one slot at a time; slot i belongs to split vertex slot_vertex[i]
        space = _space(base_m, split, 3)
        rank = {v: p for p, v in enumerate(space.split)}
        slot_vertex = [v for e in itertools.combinations(range(base_m), 3)
                       for v in e if v in rank]
        dst, _swaps = space.group
        assert dst.shape[1] == len(slot_vertex) == space.B
        for bits in _patterns(space, base_m, sample):
            want = min(
                sum((((bits >> i) ^ (swap >> rank[slot_vertex[d]])) & 1) << d
                    for i, d in enumerate(row))
                for row in dst.tolist()
                for swap in range(1 << len(space.split)))
            assert space.orbit_min(bits) == want

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
            res = exists_proper(split_lift(space.pattern(bits)), 3,
                                budget=200_000)
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
        # count at both construction seams: the validating constructor,
        # which split_lift takes, and the trusted path, which only the grid
        # generator takes
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
        # tabu keys and the chi screen read the slot bits, so only
        # chi-screen survivors get a lift; each hit is rebuilt once for
        # validation
        assert builds == st["candidates"] - st["chi_fail"] + st["hits"]


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
    def test_chi_fail_without_independent_set(self, base_m, split, require):
        # some class of a proper t-coloring holds ceil(n / t) vertices, so
        # the proper-coloring screen alone rejects a lift without such a set
        space = _space(base_m, split, 3)
        target = SpectrumTarget(frozenset(require), frozenset())
        need = -(-space.n // min(require))
        rng = random.Random(base_m)
        missing = 0
        for _ in range(60):
            bits = rng.getrandbits(space.B)
            stats = collections.defaultdict(int)
            _evaluate(space, bits, target, stats)
            assert "screen_fail" not in stats
            if not independent_sets(split_lift(space.pattern(bits)), need):
                assert stats["chi_fail"] == 1
                missing += 1
        assert 0 < missing < 60


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

    def test_split12_k4_fixture(self):
        # the repo's own 4-uniform example, the first hit of a randomized
        # search, whose restarts key their tabu set by the slot bits
        text = (DATA / "split12_k4.json").read_text()
        report = spectrum(parse_hypergraph(text))
        assert report.feasible == (4, 6)
        assert (report.chi, report.psi) == (4, 6)
        res = split_search(6, range(6), require={4, 6}, forbid={5}, k=4,
                           budget=3000, seed=0)
        assert len(res.hits) == 27
        assert serialize_hypergraph(split_lift(res.hits[0][0])) == text
        rows = []
        for pattern, report in res.hits:
            rows += [pattern.to_json(), report.to_json()]
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        assert digest == _K4_HITS_DIGEST

    def test_oracle_cap_keyword_removed(self):
        H = parse_hypergraph((DATA / "order9.json").read_text())
        with pytest.raises(TypeError):
            certify_gap_instance(H, {3, 5}, {4}, oracle_cap=100_000_000)


class TestValidateHit:
    """Every hit is confirmed by the brute-force walk alone."""

    def test_shares_no_code_with_the_search(self):
        # the validator's code objects, nested ones included, name none of
        # the search's deciders
        todo = [gapsearch._validate_hit.__code__]
        names = set()
        while todo:
            code = todo.pop()
            names |= set(code.co_names)
            todo += [c for c in code.co_consts if hasattr(c, "co_names")]
        assert "brute_force_spectrum" in names
        assert not names & {"exists_complete", "exists_proper", "spectrum",
                            "_proper_search"}

    def test_refused_hits_are_dropped_and_counted(self, monkeypatch):
        # order9's walk builds 222 rows; below that the oracle refuses
        kw = dict(require={3, 5}, forbid={4}, budget=2000, seed=0)
        want = split_search(5, range(4), **kw)
        assert want.hits and "oracle_refusals" not in want.stats
        monkeypatch.setattr(solver, "_BRUTE_ROWS", 100)
        got = split_search(5, range(4), **kw)
        assert got.hits == ()
        assert got.stats["oracle_refusals"] == len(want.hits)
        assert got.stats["hits"] == 0
        H = parse_hypergraph((DATA / "order9.json").read_text())
        v = certify_gap_instance(H, {3, 5}, {4})
        assert v["target_matched"]
        assert v["oracle_confirmed"] is False
        assert v["ok"] is False

    def test_mismatched_hits_are_dropped_and_counted(self, monkeypatch):
        # a search spectrum that misses the smallest feasible size
        # disagrees with the walk on every hit
        kw = dict(require={3, 5}, forbid={4}, budget=2000, seed=0)
        want = split_search(5, range(4), **kw)
        assert want.hits

        def short(H):
            rep = spectrum(H)
            return dataclasses.replace(rep, feasible=rep.feasible[1:])

        monkeypatch.setattr(gapsearch, "spectrum", short)
        got = split_search(5, range(4), **kw)
        assert got.hits == ()
        assert got.stats["validation_rejects"] == len(want.hits)
        assert "oracle_refusals" not in got.stats


class TestTypedErrors:
    def test_spectrum_target_overlap(self):
        with pytest.raises(ValueError, match=r"^require and forbid overlap: \[4\]$"):
            SpectrumTarget(frozenset({3, 4}), frozenset({4, 5}))

    def test_split_search_refusals(self):
        with pytest.raises(ValueError, match="^base_m must be at least k=3, got 2$"):
            split_search(2, ())
        with pytest.raises(ValueError, match="^split vertices must be distinct$"):
            split_search(5, (1, 1))
