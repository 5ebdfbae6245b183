import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

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
from hypercolor.core import subset_rank

from conftest import (
    naive_is_complete,
    naive_is_proper,
    random_uniform_hypergraph,
    traced_peak,
)


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

    def test_dedup_keyword_removed(self):
        # a repeated edge always raises; there is no merging option
        with pytest.raises(TypeError):
            Hypergraph(4, 2, [(0, 1)], dedup=True)

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

    def test_vertex_count_beyond_int64_rejected(self):
        # the ids of n = 2**64 would wrap to negative int64 values
        with pytest.raises(DocumentError, match="below 2\\*\\*63, got 18446744073709551616"):
            Hypergraph(2 ** 64, 2, [[0, 2 ** 63]])
        for text in ['{"k":2,"n":18446744073709551616,"edges":[[0,9223372036854775808]]}',
                     '{"n":18446744073709551616,"k":2,"edges":[[0,1]]}']:
            with pytest.raises(DocumentError, match="below 2\\*\\*63"):
                parse_hypergraph(text)
        assert Hypergraph(2 ** 63 - 1, 2, [[0, 2 ** 63 - 2]]).edges.dtype == np.int64

    @pytest.mark.parametrize("k", [10 ** 23, 2 ** 62])
    def test_edge_size_past_numpy_shapes_rejected(self, k):
        # numpy cannot shape a row of 2**60 int64 ids; k is refused by name
        # before any edge array is made
        msg = f"edge size must be an int >= 2 and below 2\\*\\*60, got {k}"
        for edges in ([], np.empty((0, 2), dtype=np.int64)):
            with pytest.raises(DocumentError, match=msg):
                Hypergraph(3, k, edges)
        with pytest.raises(DocumentError, match=msg):
            parse_hypergraph(f'{{"k":{k},"n":3,"edges":[]}}')
        assert Hypergraph(3, 2 ** 60 - 1, []).m == 0

    @pytest.mark.parametrize("edges", [[[0, 1.5]], [[0, 1.0]], [["0", "2"]],
                                       [[0, 1], [np.float64(1), 2]], [[0, None]]])
    def test_non_integer_ids_rejected(self, edges):
        with pytest.raises(DocumentError, match="must hold integer vertex ids"):
            Hypergraph(3, 2, edges)

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
# arrays alike; recorded before the row checks went column by column
_CANONICALIZE_CASES = {
    "unsorted": ((6, 3, [[5, 1, 3], [0, 4, 2], [2, 1, 0]]),
                 [[0, 1, 2], [0, 2, 4], [1, 3, 5]]),
    "reversed": ((6, 3, [[3, 4, 5], [2, 3, 4], [1, 2, 3], [0, 1, 2]]),
                 [[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]]),
    "last_column": ((6, 3, [[0, 1, 3], [0, 1, 2]]),
                    [[0, 1, 2], [0, 1, 3]]),
    "middle_column": ((6, 3, [[1, 2, 4], [0, 3, 4], [0, 2, 4]]),
                      [[0, 2, 4], [0, 3, 4], [1, 2, 4]]),
    "duplicate_apart": ((6, 3, [[0, 2, 3], [0, 1, 3], [0, 2, 3]]),
                        (SimplicityError, "duplicate edge [0, 2, 3]")),
    "duplicate": ((6, 3, [[0, 1, 2], [3, 4, 5], [2, 1, 0]]),
                  (SimplicityError, "duplicate edge [0, 1, 2]")),
    "dup_sorted": ((6, 2, [[0, 1], [0, 1], [2, 3]]),
                   (SimplicityError, "duplicate edge [0, 1]")),
    "reversed_dup": ((6, 2, [[4, 5], [2, 3], [4, 5], [0, 1]]),
                     (SimplicityError, "duplicate edge [4, 5]")),
    "repeated": ((6, 3, [[0, 1, 2], [3, 3, 5]]),
                 (UniformityError, "edge [3, 3, 5] repeats a vertex")),
    "repeated_first": ((6, 3, [[4, 4, 5], [1, 1, 0]]),
                       (UniformityError, "edge [4, 4, 5] repeats a vertex")),
    "range": ((4, 2, [[0, 1], [3, 4]]),
              (VertexRangeError, "vertex id 4 out of range for n=4")),
    "negative": ((4, 2, [[0, 1], [-2, 3]]),
                 (VertexRangeError, "vertex id -2 out of range for n=4")),
}


class TestCanonicalize:
    @pytest.mark.parametrize("name", sorted(_CANONICALIZE_CASES))
    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("one_row_chunks", [False, True])
    def test_pinned(self, monkeypatch, name, as_array, one_row_chunks):
        # one-row chunks: every row comparison falls on a chunk boundary
        (n, k, edges), want = _CANONICALIZE_CASES[name]
        if one_row_chunks:
            monkeypatch.setattr(core, "_CHUNK_ROWS", 1)
        if as_array:
            edges = np.array(edges)
        if isinstance(want, tuple):
            with pytest.raises(want[0]) as exc:
                Hypergraph(n, k, edges)
            assert str(exc.value) == want[1]
        else:
            H = Hypergraph(n, k, edges)
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


def _colex_unrank(rank, k):
    # greedy inverse of subset_rank: the largest c with C(c, i) <= rank,
    # for i = k down to 1
    out = []
    for i in range(k, 0, -1):
        c = i - 1
        while math.comb(c + 1, i) <= rank:
            c += 1
        out.append(c)
        rank -= math.comb(c, i)
    return tuple(reversed(out))


class TestSubsetRanking:
    @given(st.integers(1, 8), st.integers(0, 9), st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_rank_unrank_roundtrip(self, k, extra, data):
        t = k + extra
        combo = data.draw(st.sets(st.integers(0, t - 1), min_size=k, max_size=k))
        combo = tuple(sorted(combo))
        r = subset_rank(combo)
        assert 0 <= r < math.comb(t, k)
        assert _colex_unrank(r, k) == combo

    def test_ranks_are_a_bijection(self):
        # onto 0..C(t,k)-1 for every k in 1..8 and t in k..k+9
        for k in range(1, 9):
            for t in range(k, k + 10):
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

    @pytest.mark.parametrize("colors", [[0.9, 1.2, 2.7], ["0", "1", "2"],
                                        [0, 1, 2.0], np.array([0.0, 1.0, 2.0])])
    def test_non_integer_colors_rejected(self, colors):
        with pytest.raises(ValueError, match="colors must be integers"):
            is_complete(TRIANGLE, colors)
        with pytest.raises(ValueError, match="colors must be integers"):
            is_proper(TRIANGLE, colors)
        with pytest.raises(ValueError, match="colors must be integers"):
            Coloring(tuple(colors), 3)

    def test_numpy_int_colors_accepted(self):
        assert is_complete(TRIANGLE, np.array([0, 1, 2], dtype=np.uint8))
        assert is_complete(TRIANGLE, [np.int64(2), np.int32(1), 0])
        assert Coloring((np.int64(0), np.int8(1), 2), 3).colors == (0, 1, 2)
        assert type(Coloring((np.int64(0),), 1).colors[0]) is int

    def test_coloring_classes(self):
        c = Coloring((0, 1, 0, 2), 3)
        assert c.classes() == [(0, 2), (1,), (3,)]


class TestIndependentSetsAndCover:
    def test_against_itertools(self, rng):
        # no two members in one edge, every size 0..n, in the lexicographic
        # order of itertools.combinations
        for k in (2, 3):
            for _ in range(40):
                n = rng.randint(k, 9)
                H = random_uniform_hypergraph(rng, n, k, rng.randint(0, 2 * n))
                edges = [set(e) for e in H.edge_tuples()]
                for size in range(n + 1):
                    expect = [s for s in itertools.combinations(range(n), size)
                              if all(len(e.intersection(s)) < 2 for e in edges)]
                    assert independent_sets(H, size) == expect
        with pytest.raises(ValueError):
            independent_sets(H, n + 1)

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

    @pytest.mark.parametrize("text", [
        '{"k":2,"n":3,"edges":' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"k":2,"n":3,"edges":' + "[" * 100_000,
        '{"edges":' + "[" * 100_000 + "]" * 100_000 + ',"k":2,"n":3}',
    ], ids=["written layout", "unclosed", "other layout"])
    def test_deep_nesting_is_a_document_error(self, text):
        with pytest.raises(DocumentError, match="^not valid JSON"):
            parse_hypergraph(text)

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
    @pytest.mark.parametrize("H", [Hypergraph(100_001, 2, []), Hypergraph(10 ** 12, 2, []),
                                   complete_uniform(448, 2)], ids=["n", "huge n", "m"])
    def test_capped_in_vertices_and_edges(self, H):
        with pytest.raises(ValueError, match="capped at 100000 vertices and edges"):
            incidence_graph(H)

    def test_dot_output(self):
        dot = incidence_graph(TRIANGLE).to_dot()
        assert dot.startswith("graph incidence {")
        assert "v0 [shape=circle];" in dot
        assert "e2 [shape=box];" in dot
        assert dot.count(" -- ") == 6


def reference_parse(text):
    """The document parser as one json.loads of the whole text: the
    behaviour the sliced parser must reproduce, error for error."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("top level must be a JSON object")
    for key in ("k", "n"):
        if key not in doc:
            raise DocumentError(f"missing field {key!r}")
        val = doc[key]
        if not isinstance(val, int) or isinstance(val, bool):
            raise DocumentError(f"field {key!r} must be an integer, got {val!r}")
    if "edges" not in doc:
        raise DocumentError("missing field 'edges'")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise DocumentError("field 'edges' must be a list")
    for e in edges:
        if not isinstance(e, list):
            raise DocumentError(f"edge {e!r} must be a list")
        for v in e:
            if not isinstance(v, int) or isinstance(v, bool):
                raise DocumentError(f"vertex id {v!r} must be an integer")
    return Hypergraph(doc["n"], doc["k"], edges)


def parse_outcome(parse, text):
    """The hypergraph with its stored array, or the error's type and text."""
    try:
        H = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return H, H.edges.dtype, H.edges.shape, H.edges.tobytes()


ROWS = [list(c) for c in itertools.combinations(range(7), 3)][:20]


def plain(edges=ROWS, k=3, n=7):
    return json.dumps({"k": k, "n": n, "edges": edges})


PLAIN = plain()
PARSE_CORPUS = [
    # the documents of test_bad_documents and test_type_errors_name_the_first_bad_item
    "not json", "[1,2,3]", '{"n": 3, "k": 2}',
    '{"n": "three", "k": 2, "edges": []}', '{"n": 3, "k": 2, "edges": [[0, "x"]]}',
    '{"n": 3, "k": 2, "edges": [[0, 1], 5]}', '{"n": 3, "k": 2, "edges": [[0, 1], [1, true]]}',
    '{"n": 3, "k": 2, "edges": [[0, 1.0]]}', '{"n": 3, "k": 2, "edges": [[0, null], {}]}',
    '{"n": 3, "k": 2, "edges": [{"a": 1}]}',
    # plain documents: key orders, separators, pretty whitespace
    PLAIN, json.dumps({"edges": ROWS, "n": 7, "k": 3}),
    json.dumps({"n": 7, "edges": ROWS, "k": 3}, indent=2),
    json.dumps({"k": 3, "edges": ROWS, "n": 7}, indent="\t"),
    json.dumps({"k": 3, "n": 7, "edges": ROWS}, separators=(" ,\r\n ", " : ")),
    " \n\t" + PLAIN + "\r\n ", plain([]), '{"k":3,"n":7,"edges":[ \n ]}',
    plain([], n=0), plain([[0, 1]], k=2, n=2),
    # repeated keys: the last one wins
    '{"k":3,"n":7,"edges":[[0,1,2]],"edges":[[1,2,3],[0,1,3]]}',
    '{"k":3,"n":7,"edges":[[0,1]],"edges":[[1,2,3]]}',
    '{"k":2,"k":3,"n":7,"edges":[[0,1,2]]}', '{"k":3,"n":7,"n":2,"edges":[[0,1,2]]}',
    '{"edges":[[0,"x"]],"edges":[[0,1]],"k":2,"n":3}',
    '{"edges":[[0,1}]],"edges":[[0,1]],"k":2,"n":3}',
    # "edges" inside strings, as an escaped key, and other fields around it
    '{"note":"\\"edges\\": [[9, 9]]","k":2,"n":3,"edges":[[0,1]]}',
    '{"k":2,"n":3,"edges":[[0,1]],"note":"],[ ]]"}',
    '{"\\u0065dges":[[0,1]],"k":2,"n":3}', '{"edges":[[0,"],[1"],[1,2]],"k":2,"n":3}',
    '{"k":2,"n":3,"edges":[[0,1]],"meta":{"edges":[[1,2]],"s":"]]"}}',
    '{"k":2,"n":3,"edges":[[0,1]],"edges ":[[5]]}', '{"k":2,"n":3,"s":"\\ud800","edges":[]}',
    '{"k":2,"n":3,"s":"a\tb","edges":[]}', '{"k\t":2,"k":2,"n":3,"edges":[]}',
    # nested lists and rows that are not lists
    '{"k":2,"n":3,"edges":[[0,[1]]]}', '{"k":2,"n":3,"edges":[[[0,1]]]}',
    '{"k":2,"n":3,"edges":[[0,1],[[1,2]]]}', '{"k":2,"n":3,"edges":[[0,1]],[1,2]]}',
    '{"k":2,"n":3,"edges":[0,1]}', '{"k":2,"n":3,"edges":[[0,1],"x"]}',
    '{"k":2,"n":3,"edges":[[]]}', '{"k":2,"n":3,"edges":{}}',
    '{"k":2,"n":3,"edges":"[[0,1]]"}', '{"k":2,"n":3,"edges":null}',
    # floats, exponents, bools, null, non-finite numbers
    plain([[0, 1]], k=2).replace("1]", "1e2]"), plain([[0, 1]], k=2).replace("1]", "1E0]"),
    plain([[0, 1]], k=2).replace("1]", "1.0]"), plain([[0, 1]], k=2).replace("1]", "-0]"),
    '{"k":2,"n":3,"edges":[[true,1]]}', '{"k":2,"n":3,"edges":[[0,false]]}',
    '{"k":2,"n":3,"edges":[[0,NaN]]}', '{"k":2,"n":3,"edges":[[0,-Infinity]]}',
    # ids beyond every dtype, negative and out of range
    plain(ROWS + [[0, 1, 2 ** 63 - 1]]), plain(ROWS + [[0, 1, 2 ** 63]]),
    plain(ROWS + [[0, 1, 2 ** 64]]), plain(ROWS + [[-1, 1, 2 ** 63]]),
    plain(ROWS + [[-1, 0, 1]]), plain(ROWS + [[0, 1, 7]]),
    plain([[0, 70000]], k=2, n=100), plain([[0, 2 ** 40]], k=2, n=2 ** 41),
    # ragged rows, straddling slice boundaries at the small slice sizes
    plain(ROWS[:9] + [[0, 1]] + ROWS[9:]), plain(ROWS + [[0, 1, 2, 3]]),
    plain(ROWS[:5] + [[0, 1]] + ROWS[5:10] + [[0, 1, 2.5]]),
    # repeated vertex, duplicate and unsorted rows
    plain(ROWS + [[0, 1, 1]]), plain(ROWS + [ROWS[3]]), plain(ROWS[::-1]),
    plain([[2, 1, 0], [3, 1, 0]]), plain([[0, 1], [1, 2]]), plain([[0, 1, 2, 3]], n=9),
    # bad k and n
    plain([], k=1), plain([], k=0), plain([], k=-1), plain([[0]], k=1),
    plain([], n=-1), plain([[0, 1, 2]], n=-1), '{"k":true,"n":3,"edges":[]}',
    '{"k":3,"n":2.5,"edges":[]}', '{"k":3,"n":1e400,"edges":[]}', '{"k":"3","n":3,"edges":[]}',
    # trailing data, truncation, stray separators, whitespace JSON does not allow
    PLAIN + " x", PLAIN + "{}", PLAIN[:-1], PLAIN[:-3], PLAIN[:40], "", "  ", "{", "{}",
    '{"k":3,"n":7,"edges":[[0,1,2]],}', '{"k":3,"n":7,"edges":[[0,1,2],]}',
    '{"k":3,"n":7,"edges":[[0,1,2]] "x":1}', '{"k":3 "n":7}', '{"k":3,,"n":7}',
    '{"k";3,"n":7,"edges":[[0,1,2]]}', '{"k":3,"n":7,"edges";[[0,1,2]]}',
    '{"k":3,"n":7,"edges":[[0,1,2]\x0c,[1,2,3]]}', '{"k":3,"n":7,"edges":[[0,1,2]\xa0]}',
    '{"k":3,\x0c"n":7,"edges":[]}', '{"k":3,"n":7,"edges":[[0,1,2]\x0c]}',
    '{"k":3,"n":7,"edges":[\x0b[0,1,2]]}', "\x0c" + PLAIN, PLAIN + "\x0c", PLAIN + "\xa0",
    "﻿" + PLAIN, PLAIN.encode(),
    # near misses of the written layout: a field after edges whose value
    # ends in "]", "]" in a trailing string, k and n that are not plain
    # non-negative integers, an empty edges list with whitespace inside,
    # junk after the closing brace
    '{"k":2,"n":3,"edges":[[0,1]],"x":[1]}', '{"k":2,"n":3,"edges":[[0,1],[1,2]],"x":[[2]]}',
    '{"k":2,"n":3,"edges":[[0,1]],"s":"]"}', '{"k":2,"n":3,"edges":[[0,1]],"s":"]}"}',
    '{"k":03,"n":7,"edges":[[0,1,2]]}', '{"k":3,"n":07,"edges":[[0,1,2]]}',
    '{"k":3.0,"n":7,"edges":[[0,1,2]]}', '{"k":3,"n":7e0,"edges":[[0,1,2]]}',
    '{"k":\u0663,"n":7,"edges":[[0,1,2]]}', '{"k":+3,"n":7,"edges":[[0,1,2]]}',
    '{"k":3,"n":-0,"edges":[]}', '{"k":3,"n":-7,"edges":[[0,1,2]]}',
    '{"k":3,"n":7,"edges":[ \t\r\n]\n}\n', PLAIN + "}", PLAIN + "]", PLAIN + " ]}",
    serialize_hypergraph(K4_3) + "x", serialize_hypergraph(K4_3, pretty=True) + "}",
    # rows the byte decoder must refuse or take exactly as json.loads does:
    # a leading zero, whitespace inside a number, JSON whitespace between
    # the tokens of a row, a non-ASCII digit, 20-digit ids, ids as wide as
    # n - 1 but not below n, and an empty row among valid ones
    '{"k":2,"n":3,"edges":[[01,2]]}', '{"k":2,"n":100,"edges":[[0,1],[1,02]]}',
    '{"k":2,"n":100,"edges":[[00,1]]}', '{"k":2,"n":30,"edges":[[0,1],[1 0,2]]}',
    '{"k":2,"n":3,"edges":[\t[\r0\n,\t1\r]\n,[1 ,\r\n2]\t]}',
    '{"k":2,"n":3,"edges":[[\u0663,1]]}', '{"k":2,"n":3,"edges":[[0,12345678901234567890]]}',
    '{"k":2,"n":9223372036854775807,"edges":[[0,18446744073709551617]]}',
    '{"k":2,"n":9223372036854775807,"edges":[[0,9223372036854775806]]}',
    '{"k":2,"n":9223372036854775807,"edges":[[0,9223372036854775807]]}',
    '{"k":2,"n":9223372036854775807,"edges":[[0,9999999999999999999]]}',
    '{"k":2,"n":57,"edges":[[0,56],[0,60]]}', '{"k":2,"n":3,"edges":[[0,1],[],[1,2]]}',
]


class TestSlicedParse:
    """The edges are decoded a slice of rows at a time; every document
    must parse, or fail, exactly as one json.loads of the whole would."""

    @pytest.mark.parametrize("chars", [1, 7, 16, 40, None])
    def test_corpus_matches_reference(self, monkeypatch, chars):
        if chars is not None:  # None: the module's own slice size
            monkeypatch.setattr(core, "_SLICE_CHARS", chars)
        for text in PARSE_CORPUS:
            assert (parse_outcome(parse_hypergraph, text)
                    == parse_outcome(reference_parse, text)), text

    @pytest.mark.parametrize("chars", [1, 16, 100])
    def test_plain_documents_take_the_slices(self, monkeypatch, chars):
        monkeypatch.setattr(core, "_SLICE_CHARS", chars)
        H = grid_transversal(3, 6)
        for text in [serialize_hypergraph(H), serialize_hypergraph(H, pretty=True)]:
            assert core._parse_sliced(text) == H
        # another layout is read whole, to the same hypergraph
        text = json.dumps({"edges": H.edges.tolist(), "note": "x",
                           "n": H.n, "k": H.k}, indent="\t")
        assert core._parse_sliced(text) is None
        assert parse_hypergraph(text) == H

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_generated_documents_match_reference(self, data):
        # plain documents, then at most one fault: a bad id, a row of
        # another width, a bad k or n, a repeated key, or one character
        # dropped or added next to a structural one
        k = data.draw(st.integers(2, 3))
        rows = data.draw(st.lists(st.lists(st.integers(0, 7), min_size=k, max_size=k),
                                  max_size=12))
        fields = {"k": k, "n": 8, "edges": rows}
        fault = data.draw(st.sampled_from(
            ["", "id", "id", "width", "k", "n", "repeat", "drop", "insert", "insert"]))
        if fault == "id" and rows:
            row = data.draw(st.sampled_from(rows))
            row[data.draw(st.integers(0, k - 1))] = data.draw(st.sampled_from(
                [-1, 8, 70000, 2 ** 63, 2 ** 64, True, None, 1.5, "0", [0]]))
        elif fault == "width" and rows:
            data.draw(st.sampled_from(rows)).append(0)
        elif fault in ("k", "n"):
            fields[fault] = data.draw(st.sampled_from([1, -1, True, 2.0, "3"]))
        if data.draw(st.booleans()):
            fields["note"] = data.draw(st.sampled_from(['"edges": [[1]]', "],[", "]]"]))
        keys = data.draw(st.permutations(sorted(fields)))
        indent = data.draw(st.sampled_from([None, 0, 2, "\t"]))
        text = json.dumps({key: fields[key] for key in keys}, indent=indent)
        cut = data.draw(st.sampled_from(
            [i for i, c in enumerate(text) if c in '{}[],:"'] + [len(text)] * 5))
        if fault == "drop":
            text = text[:cut] + text[cut + 1:]
        elif fault == "insert":
            text = text[:cut] + data.draw(st.sampled_from('{}[],:1"\x0c\t')) + text[cut:]
        elif fault == "repeat":
            key = data.draw(st.sampled_from(["k", "n", "edges"]))
            value = data.draw(st.sampled_from([2, 8, [[0, 1]], [[0, "x"]]]))
            text = f'{text[:-1]}, "{key}": {json.dumps(value)}}}'
        chars = data.draw(st.sampled_from([1, 5, 13, 1 << 18]))
        with mock.patch.object(core, "_SLICE_CHARS", chars):
            got = parse_outcome(parse_hypergraph, text)
        assert got == parse_outcome(reference_parse, text), text


# n and ids at the digit-count boundaries and those of the id dtypes
BOUNDARY_NS = [9, 10, 11, 99, 100, 999, 1000, 32767, 32768, 2 ** 31 - 1, 2 ** 31,
               2 ** 63 - 1]
BOUNDARY_IDS = [0, 1, 8, 9, 10, 11, 98, 99, 100, 998, 999, 1000, 32766, 32767,
                32768, 2 ** 31 - 2, 2 ** 31 - 1, 2 ** 31, 2 ** 63 - 3, 2 ** 63 - 2]


class TestChunkedOutput:
    """Serialization, the conflict masks and the degrees work one chunk
    of rows at a time; the results do not depend on where the chunks fall."""

    @pytest.mark.parametrize("pretty", [False, True])
    @pytest.mark.parametrize("H", [grid_transversal(4, 24), Hypergraph(4, 3, []),
                                   Hypergraph(0, 2, [])],
                             ids=["grid(4,24)", "m=0", "n=0"])
    def test_serialize_bytes_match_one_dump(self, H, pretty):
        assert serialize_hypergraph(H, pretty=pretty) == core.dump_json(
            core.hypergraph_to_dict(H), pretty=pretty)

    @pytest.mark.parametrize("rows", [1, 2, 7, 20, 21])
    def test_chunk_boundaries(self, monkeypatch, rows):
        # 20 edges: chunks of one row, of a few rows, one exact chunk, one chunk
        H = complete_uniform(6, 3)
        want = [core.dump_json(core.hypergraph_to_dict(H), pretty=p)
                for p in (False, True)]
        masks, degrees = H.conflict_masks(), H.degrees()
        monkeypatch.setattr(core, "_CHUNK_ROWS", rows)
        H = complete_uniform(6, 3)
        assert [serialize_hypergraph(H, pretty=p) for p in (False, True)] == want
        assert H.conflict_masks() == masks
        assert np.array_equal(H.degrees(), degrees)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_serialize_matches_one_dump_at_digit_boundaries(self, data):
        k = data.draw(st.integers(2, 6))
        n = data.draw(st.sampled_from(BOUNDARY_NS))
        ids = st.sampled_from([v for v in BOUNDARY_IDS if v < n]) | st.integers(0, n - 1)
        rows = data.draw(st.lists(st.lists(ids, min_size=k, max_size=k, unique=True),
                                  max_size=8, unique_by=frozenset))
        H = Hypergraph(n, k, rows)
        # chunks of a row or two: neighbouring chunks write ids of other widths
        chunk = data.draw(st.sampled_from([1, 2, 3, core._CHUNK_ROWS]))
        for pretty in (False, True):
            with mock.patch.object(core, "_CHUNK_ROWS", chunk):
                text = serialize_hypergraph(H, pretty=pretty)
            assert text == core.dump_json(core.hypergraph_to_dict(H), pretty=pretty)
            assert parse_hypergraph(text) == H

    def test_conflict_masks_across_chunks(self, monkeypatch, rng):
        monkeypatch.setattr(core, "_CHUNK_ROWS", 3)
        for _ in range(30):
            k = rng.randint(2, 4)
            n = rng.randint(k, 10)
            H = random_uniform_hypergraph(rng, n, k, rng.randint(0, 3 * n))
            want = [0] * n
            for e in H.edge_tuples():
                for a in e:
                    for b in e:
                        if a != b:
                            want[a] |= 1 << b
            assert H.conflict_masks() == tuple(want)


class TestBoundedMemory:
    """Transients on the grid(4,24) document (240,051 edges, a 1.9 MB
    edge array) stay within one slice of rows; one Python list per edge
    took 30-40 MB."""

    LIMIT = 16_000_000

    @pytest.fixture(scope="class")
    def grid_doc(self):
        H = grid_transversal(4, 24)
        return H, serialize_hypergraph(H)

    def test_parse(self, grid_doc):
        H, compact = grid_doc
        for text in [compact, serialize_hypergraph(H, pretty=True)]:
            got, peak = traced_peak(lambda: parse_hypergraph(text))
            assert got == H
            assert peak <= self.LIMIT

    def test_serialize(self, grid_doc):
        H, text = grid_doc
        got, peak = traced_peak(lambda: serialize_hypergraph(H))
        assert got == text
        assert peak <= self.LIMIT

    def test_serialize_pretty(self, grid_doc):
        # the 12.4 MB text is the result itself, not a transient
        H = grid_doc[0]
        got, peak = traced_peak(lambda: serialize_hypergraph(H, pretty=True))
        assert parse_hypergraph(got) == H
        assert peak - len(got) <= self.LIMIT

    def test_conflict_masks(self, grid_doc):
        H = Hypergraph(grid_doc[0].n, grid_doc[0].k, grid_doc[0].edges)
        masks, peak = traced_peak(H.conflict_masks)
        assert len(masks) == H.n
        assert peak <= self.LIMIT


def test_decoder_refusals_run_under_optimize():
    # python -O strips assert statements; no refusal of the sliced decoder
    # may be one, or a bad row would be read as a good one
    script = """
if __debug__:
    raise SystemExit("not running under -O")
from hypercolor import core, parse_hypergraph
for text in ['{"k":2,"n":100,"edges":[[01,2]]}', '{"k":2,"n":3,"edges":[[0,3]]}',
             '{"k":2,"n":3,"edges":[[0,1],[],[1,2]]}']:
    try:
        parse_hypergraph(text)
    except ValueError as exc:
        print(core._parse_sliced(text), type(exc).__name__)
"""
    src = str(Path(core.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["None DocumentError", "None VertexRangeError",
                                        "None UniformityError", ""]
