import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypercolor import (
    Coloring,
    DocumentError,
    Hypergraph,
    SimplicityError,
    SpectrumReport,
    UniformityError,
    VertexRangeError,
    covers_all,
    incidence_graph,
    independent_sets,
    is_complete,
    is_proper,
    parse_hypergraph,
    serialize_hypergraph,
)
from hypercolor import complete_uniform, core, grid_transversal
from hypercolor.core import subset_rank, subset_unrank

from conftest import naive_is_complete, naive_is_proper, random_uniform_hypergraph


TRIANGLE = Hypergraph(3, 2, [(0, 1), (1, 2), (0, 2)])
K4_3 = Hypergraph(4, 3, list(itertools.combinations(range(4), 3)))


class TestHypergraphConstruction:
    def test_basic_attributes(self):
        H = Hypergraph(5, 3, [(2, 0, 4), (1, 2, 3)])
        assert (H.n, H.k, H.m) == (5, 3, 2)
        # rows are sorted internally, row order is lexicographic
        assert H.edge_tuples() == [(0, 2, 4), (1, 2, 3)]

    def test_edges_array_is_copy(self):
        arr = np.array([[0, 1], [1, 2]])
        H = Hypergraph(3, 2, arr)
        arr[0, 0] = 99
        assert H.edge_tuples() == [(0, 1), (1, 2)]

    def test_wrong_arity_rejected(self):
        with pytest.raises(UniformityError):
            Hypergraph(4, 3, [(0, 1)])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(UniformityError):
            Hypergraph(4, 2, [(1, 1)])

    def test_duplicate_edge_rejected_without_dedup(self):
        with pytest.raises(SimplicityError):
            Hypergraph(4, 2, [(0, 1), (1, 0)])

    def test_dedup_flag_merges(self):
        H = Hypergraph(4, 2, [(0, 1), (1, 0)], dedup=True)
        assert H.m == 1

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexRangeError):
            Hypergraph(3, 2, [(0, 3)])
        with pytest.raises(VertexRangeError):
            Hypergraph(3, 2, [(-1, 2)])

    @pytest.mark.parametrize("edges", [
        np.array([[0, 65541]]),            # 65541 wraps to 5 in int16
        np.array([[0, 2 ** 40]], dtype=np.int64),
        np.array([[0, 70000]], dtype=np.uint32),
        [[0, 70000]],
        [(0, 2 ** 70)],                    # beyond int64
        [[0, 1], [-70000, 2]],
    ])
    def test_id_beyond_id_dtype_is_a_range_error(self, edges):
        # ids are checked before they are narrowed to the id dtype
        with pytest.raises(VertexRangeError, match="out of range for n=100"):
            Hypergraph(100, 2, edges)

    def test_empty_edge_set_allowed(self):
        H = Hypergraph(4, 2, [])
        assert H.m == 0 and H.edges.shape == (0, 2)

    def test_equality_ignores_input_order(self):
        A = Hypergraph(4, 2, [(2, 3), (0, 1)])
        B = Hypergraph(4, 2, [(1, 0), (3, 2)])
        assert A == B and hash(A) == hash(B)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            TRIANGLE.n = 7

    def test_degrees_and_isolated(self):
        H = Hypergraph(5, 2, [(0, 1), (0, 2)])
        assert list(H.degrees()) == [2, 1, 1, 0, 0]
        assert H.isolated_vertices() == [3, 4]


# (n, k, edges) -> stored rows, or (error type, message), for lists and
# arrays alike and with dedup off / on; recorded before the row checks
# went column by column
_CANONICALIZE_CASES = {
    "unsorted": ((6, 3, [[5, 1, 3], [0, 4, 2], [2, 1, 0]]),
                 [[0, 1, 2], [0, 2, 4], [1, 3, 5]], None),
    "reversed": ((6, 3, [[3, 4, 5], [2, 3, 4], [1, 2, 3], [0, 1, 2]]),
                 [[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]], None),
    "last_column": ((6, 3, [[0, 1, 3], [0, 1, 2]]),
                    [[0, 1, 2], [0, 1, 3]], None),
    "middle_column": ((6, 3, [[1, 2, 4], [0, 3, 4], [0, 2, 4]]),
                      [[0, 2, 4], [0, 3, 4], [1, 2, 4]], None),
    "duplicate_apart": ((6, 3, [[0, 2, 3], [0, 1, 3], [0, 2, 3]]),
                        (SimplicityError, "duplicate edge [0, 2, 3]"),
                        [[0, 1, 3], [0, 2, 3]]),
    "duplicate": ((6, 3, [[0, 1, 2], [3, 4, 5], [2, 1, 0]]),
                  (SimplicityError, "duplicate edge [0, 1, 2]"),
                  [[0, 1, 2], [3, 4, 5]]),
    "dup_sorted": ((6, 2, [[0, 1], [0, 1], [2, 3]]),
                   (SimplicityError, "duplicate edge [0, 1]"), [[0, 1], [2, 3]]),
    "reversed_dup": ((6, 2, [[4, 5], [2, 3], [4, 5], [0, 1]]),
                     (SimplicityError, "duplicate edge [4, 5]"),
                     [[0, 1], [2, 3], [4, 5]]),
    "repeated": ((6, 3, [[0, 1, 2], [3, 3, 5]]),
                 (UniformityError, "edge [3, 3, 5] repeats a vertex"), None),
    "repeated_first": ((6, 3, [[4, 4, 5], [1, 1, 0]]),
                       (UniformityError, "edge [4, 4, 5] repeats a vertex"), None),
    "range": ((4, 2, [[0, 1], [3, 4]]),
              (VertexRangeError, "vertex id 4 out of range for n=4"), None),
    "negative": ((4, 2, [[0, 1], [-2, 3]]),
                 (VertexRangeError, "vertex id -2 out of range for n=4"), None),
}


class TestCanonicalize:
    @pytest.mark.parametrize("name", sorted(_CANONICALIZE_CASES))
    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("dedup", [False, True])
    def test_pinned(self, name, as_array, dedup):
        (n, k, edges), want, want_dedup = _CANONICALIZE_CASES[name]
        if dedup and want_dedup is not None:
            want = want_dedup
        if as_array:
            edges = np.array(edges)
        if isinstance(want, tuple):
            with pytest.raises(want[0]) as exc:
                Hypergraph(n, k, edges, dedup=dedup)
            assert str(exc.value) == want[1]
        else:
            H = Hypergraph(n, k, edges, dedup=dedup)
            assert H.edges.dtype == np.int16 and H.edges.tolist() == want

    def test_wrong_arity_messages(self):
        with pytest.raises(UniformityError) as exc:
            Hypergraph(4, 3, [[0, 1, 2], [0, 1]])
        assert str(exc.value) == "edge [0, 1] has 2 vertices, expected 3"
        with pytest.raises(UniformityError) as exc:
            Hypergraph(4, 3, [[0, 1], [2, 3]])
        assert str(exc.value) == "edge [0, 1] has 2 vertices, expected 3"
        with pytest.raises(UniformityError) as exc:
            Hypergraph(4, 3, np.array([[0, 1], [2, 3]]))
        assert str(exc.value) == "edge array must have shape (m, 3), got (2, 2)"


class TestSubsetRanking:
    @given(st.integers(1, 8), st.integers(0, 9), st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_rank_unrank_roundtrip(self, k, extra, data):
        t = k + extra
        combo = data.draw(st.sets(st.integers(0, t - 1), min_size=k, max_size=k))
        combo = tuple(sorted(combo))
        r = subset_rank(combo)
        assert subset_unrank(r, k) == combo

    def test_ranks_are_a_bijection(self):
        t, k = 7, 3
        ranks = sorted(subset_rank(c)
                       for c in itertools.combinations(range(t), k))
        assert ranks == list(range(math.comb(t, k)))


class TestPredicates:
    def test_proper_triangle(self):
        assert is_proper(TRIANGLE, [0, 1, 2])
        assert not is_proper(TRIANGLE, [0, 0, 1])

    def test_complete_triangle(self):
        # 3 colors on a triangle: every 2-subset of colors is an edge
        assert is_complete(TRIANGLE, Coloring((0, 1, 2), 3))
        # proper 2-coloring of a triangle does not exist at all
        assert not is_complete(TRIANGLE, Coloring((0, 1, 0), 2))

    def test_complete_needs_all_classes_nonempty(self):
        H = Hypergraph(4, 2, [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)])
        #4 colors, class 3 empty
        assert not is_complete(H, Coloring((0, 1, 2, 2), 4))

    def test_vacuous_cases(self):
        empty = Hypergraph(3, 2, [])
        assert is_proper(empty, [0, 0, 0])
        # no complete coloring of an edgeless hypergraph, by convention
        assert not is_complete(empty, Coloring((0, 1, 2), 3))

    def test_matches_naive_on_random_instances(self, rng):
        # k = 2..10 on both sides of any small-k special case; the colorings
        # are random (mostly improper), injective on the complete k-graph
        # (complete), one color short of injective (improper), or leave the
        # last class empty
        for k in range(2, 11):
            outcomes = set()
            for _ in range(40):
                n = rng.randint(k, k + 3)
                style = rng.randrange(4)
                if style < 2:
                    H = complete_uniform(n, k)
                    t = n - style
                    colors = [v % t for v in rng.sample(range(n), n)]
                else:
                    m = rng.randint(0, min(math.comb(n, k), 40))
                    H = random_uniform_hypergraph(rng, n, k, m)
                    t = rng.randint(1, n)
                    used = t - 1 if style == 3 and t > 1 else t
                    colors = [rng.randrange(used) for _ in range(n)]
                proper = is_proper(H, colors)
                assert proper == naive_is_proper(H, colors)
                got = is_complete(H, Coloring(tuple(colors), t))
                assert got == naive_is_complete(H, colors, t)
                outcomes.add((proper, got))
            assert outcomes >= {(True, True), (False, False)}, k

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_chunk_boundaries(self, monkeypatch, rng, chunk):
        monkeypatch.setattr(core, "_CHUNK_ROWS", chunk)
        H = grid_transversal(3, 6)
        part = [v // 6 for v in range(18)]
        assert is_complete(H, Coloring(tuple(part), 3))
        assert is_proper(H, part)
        # the last edge alone repeats a color / alone realizes {1, 2, 3}
        clash = Hypergraph(7, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
                                  (4, 5, 6)])
        colors = [0, 1, 2, 3, 0, 0, 1]
        assert not is_proper(clash, colors)
        assert not is_complete(clash, Coloring(tuple(colors), 4))
        alone = Hypergraph(5, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 4)])
        assert is_complete(alone, Coloring((0, 1, 2, 3, 3), 4))
        assert not is_complete(alone, Coloring((0, 1, 2, 3, 0), 4))
        for _ in range(30):
            k = rng.randint(2, 5)
            n = rng.randint(k, k + 3)
            G = complete_uniform(n, k)
            t = rng.choice([n, n - 1])
            colors = [v % t for v in rng.sample(range(n), n)]
            assert is_proper(G, colors) == naive_is_proper(G, colors)
            assert (is_complete(G, Coloring(tuple(colors), t))
                    == naive_is_complete(G, colors, t))

    def test_coloring_class_sizes(self):
        c = Coloring((0, 1, 0, 2), 3)
        assert c.class_sizes() == [2, 1, 1]
        assert c.classes() == [(0, 2), (1,), (3,)]


class TestIndependentSetsAndCover:
    def test_against_itertools(self, rng):
        for _ in range(40):
            n = rng.randint(2, 7)
            H = random_uniform_hypergraph(rng, n, 2, rng.randint(0, n))
            for size in range(1, n + 1):
                expect = [s for s in itertools.combinations(range(n), size)
                          if not any(set(e) <= set(s)
                                     for e in H.edge_tuples())]
                assert independent_sets(H, size) == expect

    def test_covers_all(self):
        assert covers_all(TRIANGLE, [0, 1])
        assert not covers_all(TRIANGLE, [0])
        H = Hypergraph(4, 2, [(0, 1), (2, 3)])
        assert not covers_all(H, [0])
        assert covers_all(H, [0, 2])


class TestSerialization:
    def test_roundtrip(self):
        text = serialize_hypergraph(K4_3)
        assert parse_hypergraph(text) == K4_3
        pretty = serialize_hypergraph(K4_3, pretty=True)
        assert parse_hypergraph(pretty) == K4_3
        assert pretty.endswith("\n")

    def test_dict_shape(self):
        doc = json.loads(serialize_hypergraph(TRIANGLE))
        assert doc == {"k": 2, "n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}

    @pytest.mark.parametrize("bad", [
        "not json",
        "[1,2,3]",
        '{"n": 3, "k": 2}',
        '{"n": "three", "k": 2, "edges": []}',
        '{"n": 3, "k": 2, "edges": [[0, "x"]]}',
    ])
    def test_bad_documents(self, bad):
        with pytest.raises(DocumentError):
            parse_hypergraph(bad)

    def test_vertex_errors_pass_through(self):
        with pytest.raises(VertexRangeError):
            parse_hypergraph('{"n": 2, "k": 2, "edges": [[0, 5]]}')
        with pytest.raises(VertexRangeError, match="vertex id 70000 out of range"):
            parse_hypergraph('{"k": 2, "n": 100, "edges": [[0, 70000]]}')

    @pytest.mark.parametrize("edges, message", [
        ("[[0, 1], 5]", "edge 5 must be a list"),
        ("[[0, 1], [1, true]]", "vertex id True must be an integer"),
        ("[[0, 1.0]]", "vertex id 1.0 must be an integer"),
        ("[[0, null], {}]", "vertex id None must be an integer"),
        ('[{"a": 1}]', "edge {'a': 1} must be a list"),
    ])
    def test_type_errors_name_the_first_bad_item(self, edges, message):
        with pytest.raises(DocumentError) as exc:
            parse_hypergraph(f'{{"n": 3, "k": 2, "edges": {edges}}}')
        assert str(exc.value) == message


class TestSpectrumReport:
    def test_to_dict_and_json(self):
        rep = SpectrumReport(chi=3, psi=5, feasible=(3, 5), unknown=(),
                             witnesses={3: Coloring((0, 1, 2), 3),
                                        5: Coloring((0, 1, 2, 3, 4), 5)},
                             warnings=())
        doc = rep.to_dict()
        assert doc["feasible"] == [3, 5]
        assert doc["witnesses"]["5"] == [0, 1, 2, 3, 4]
        assert "warnings" not in doc
        assert json.loads(rep.to_json())["chi"] == 3

    def test_interpolation_flag(self):
        flat = SpectrumReport(2, 4, (2, 3, 4), (), {}, ())
        assert flat.interpolation_holds is True
        gap = SpectrumReport(3, 5, (3, 5), (), {}, ())
        assert gap.interpolation_holds is False
        # unknown value inside the range: undecided
        hazy = SpectrumReport(3, 5, (3, 5), (4,), {}, ())
        assert hazy.interpolation_holds is None


class TestIncidenceExport:
    def test_dot_output(self):
        dot = incidence_graph(TRIANGLE).to_dot()
        assert dot.startswith("graph incidence {")
        assert "v0 [shape=circle];" in dot
        assert "e2 [shape=box];" in dot
        assert dot.count(" -- ") == 6
