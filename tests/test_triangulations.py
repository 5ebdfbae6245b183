import hashlib
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from hypercolor import brute_force_spectrum, is_proper, spectrum
from hypercolor.triangulations import (
    Embedding,
    EmbeddingError,
    UnflippableEdgeError,
    _bfs_closure,
    embedding_index,
    enumerate_triangulations,
    face_hypergraph,
    find_gap_face_hypergraphs,
    is_eulerian,
    octahedron,
    parse_embedding,
    serialize_embedding,
    stacked_triangulation,
    tetrahedron,
    three_coloring,
)

from conftest import enumerate_by_insertion


class TestEmbeddingBasics:
    def test_tetrahedron(self):
        e = tetrahedron()
        e.validate()
        assert (e.n, e.m) == (4, 6)
        assert len(e.faces()) == 4
        assert all(len(f) == 3 for f in e.faces())
        assert e.is_triangulation

    def test_octahedron(self):
        e = octahedron()
        e.validate()
        assert (e.n, e.m) == (6, 12)
        assert len(e.faces()) == 8
        assert is_eulerian(e)
        assert sorted(e.degrees()) == [4] * 6

    def test_validation_catches_asymmetry(self):
        with pytest.raises(EmbeddingError):
            Embedding(((1,), (0,), (0,)))

    def test_validation_catches_higher_genus(self):
        # K5 is not planar: no rotation system traces to 2 - n + m faces
        rot = [tuple(w for w in range(5) if w != v) for v in range(5)]
        with pytest.raises(EmbeddingError):
            Embedding(rot)

    def test_validation_catches_disconnected(self):
        with pytest.raises(EmbeddingError):
            Embedding(((1,), (0,), (3,), (2,)))

    def test_validate_keyword_removed(self):
        with pytest.raises(TypeError):
            Embedding(((1,), (0,), (0,)), validate=False)

    def test_trusted_constructions_are_valid(self):
        # each construction that skips validation gives int tuples that
        # the validating constructor accepts unchanged
        e = stacked_triangulation(8)
        perm = [3, 0, 7, 1, 6, 2, 5, 4]
        for f in (tetrahedron(), octahedron(), e, e.relabel(perm), e.mirror()):
            assert Embedding(f.rotation).rotation == f.rotation
            assert all(type(w) is int for r in f.rotation for w in r)

    def test_euler_relation_everywhere(self):
        for e in enumerate_triangulations(7):
            assert len(e.faces()) - e.m + e.n == 2


class TestParseSerialize:
    def test_roundtrip(self):
        e = octahedron()
        assert parse_embedding(serialize_embedding(e)) == e

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n0: 1 2 3\n1: 0 3 2  # inline\n2: 0 1 3\n3: 0 2 1\n"
        assert parse_embedding(text) == tetrahedron()

    @pytest.mark.parametrize("bad", [
        "",
        "0: 1\n",
        "0: 1 2 3\n1: 0 3 2\n2: 0 1 3\n",
        "junk\n",
        "0: 1 2 3\n0: 1 2 3\n1: 0 3 2\n2: 0 1 3\n3: 0 2 1\n",
    ])
    def test_bad_documents(self, bad):
        with pytest.raises(EmbeddingError):
            parse_embedding(bad)


class TestFlip:
    def test_k4_edges_unflippable(self):
        # every flip diagonal in K4 already exists
        e = tetrahedron()
        for u, v in e.edges():
            with pytest.raises(UnflippableEdgeError):
                e.flip(u, v)

    def test_flip_is_involution_up_to_isomorphism(self):
        e = stacked_triangulation(7)
        flips = 0
        for u, v in e.edges():
            try:
                f = e.flip(u, v)
            except UnflippableEdgeError:
                continue
            flips += 1
            f.validate()
            assert f.is_triangulation
            new = set(f.edges()) - set(e.edges())
            assert len(new) == 1
            x, y = new.pop()
            g = f.flip(x, y)
            assert g.canonical_form() == e.canonical_form()
        assert flips > 0

    def test_nonedge_rejected(self):
        e = octahedron()
        with pytest.raises(EmbeddingError):
            e.flip(0, 5)


def reference_form(e):
    """The full-code minimum over every least-degree-pair dart, no abort."""
    deg = e.degrees()
    pair = min((deg[u], deg[v]) for u in range(e.n) for v in e.rotation[u])
    codes = []
    for u0 in range(e.n):
        for v0 in e.rotation[u0]:
            if (deg[u0], deg[v0]) != pair:
                continue
            for step in (1, -1):
                label, parent, order, code = {u0: 0}, {u0: v0}, [u0], []
                for w in order:
                    nbrs = e.rotation[w]
                    i = nbrs.index(parent[w])
                    for j in range(len(nbrs)):
                        x = nbrs[(i + step * j) % len(nbrs)]
                        if x not in label:
                            label[x] = len(label)
                            parent[x] = w
                            order.append(x)
                        code.append(label[x])
                    code.append(0xFF)
                codes.append(bytes(code))
    return bytes([e.n]) + min(codes)


# sha256 of the concatenated canonical forms and of repr(rotations) of
# enumerate_triangulations(n), recorded before the early-abort rewrite
# (n = 9, 10) and before the flip BFS skipped reverse flips (n = 11, 12)
ENUMERATION_DIGESTS = {
    9: (50,
        "7b207bc296305b2e887ea00b5413f9754306aaabcd74b84bea1d315e3066a070",
        "3feca2c46ca1969a053d488af760d2ea28be114c1968951a184fd44b5ff7ec62"),
    10: (233,
         "46d102f6c8c67589b540f10f9d276879090ed10e5b92078e51a5bbc02f02e4fc",
         "af724f76b97a6a88c34f8e0f36953cdbba3ac43edbdb5ec6f1ea86d48f994a8f"),
    11: (1249,
         "ef3d120a79853a9bf0bb5d0d7f300751858df5cf52f79ce4d6f7a6c000fc79b0",
         "2a1f3256a7bf549e7888ee355b4c71caf0cd868f6054bc7388c34a5d0bf40438"),
    12: (7595,
         "471e774dbe1a376dc712067851d5c340bb97139565a3898bda68d9804a8787e2",
         "63fa07eb77751da1997ce4bb06acb3ed9c111a13b8c656d0c4b1506b383943aa"),
}

# sha256 of repr(rotations) of enumerate_by_insertion(10), recorded
# before the flip BFS skipped reverse flips
INSERTION_ROTATIONS_10 = \
    "c99afd86751b51f0fa87be3a7a1fce4c00b45d5104111c3112c0ef2d35ff58dd"


def assert_label_isomorphism(copy, e):
    """copy's stored labels, then e's inverse labels, map copy onto e:
    darts go to darts and successors are kept up to one orientation."""
    assert copy.canonical_form() == e.canonical_form()
    inverse = {label: v for v, label in enumerate(e._label)}
    phi = [inverse[label] for label in copy._label]
    assert sorted(phi) == list(range(e.n))

    def succ(rot, a, b, step=1):
        r = rot[a]
        return r[(r.index(b) + step) % len(r)]

    forward = backward = True
    for v, nbrs in enumerate(copy.rotation):
        for w in nbrs:
            assert phi[w] in e.rotation[phi[v]]
            image = phi[succ(copy.rotation, v, w)]
            forward &= image == succ(e.rotation, phi[v], phi[w])
            backward &= image == succ(e.rotation, phi[v], phi[w], -1)
    assert forward or backward


class TestCanonicalForm:
    @pytest.mark.parametrize("n", sorted(ENUMERATION_DIGESTS))
    def test_enumeration_digests(self, n):
        classes = enumerate_triangulations(n)
        count, forms, rotations = ENUMERATION_DIGESTS[n]
        assert len(classes) == count
        joined = b"".join(e.canonical_form() for e in classes)
        assert hashlib.sha256(joined).hexdigest() == forms
        text = repr([e.rotation for e in classes]).encode()
        assert hashlib.sha256(text).hexdigest() == rotations

    def test_insertion_rotations_digest(self):
        text = repr([e.rotation for e in enumerate_by_insertion(10)]).encode()
        assert hashlib.sha256(text).hexdigest() == INSERTION_ROTATIONS_10

    def test_labels_map_copies_onto_every_class(self):
        rng = random.Random(13)
        for n in range(4, 10):
            for e in enumerate_triangulations(n):
                perm = list(range(n))
                rng.shuffle(perm)
                for copy in (e.relabel(perm), e.relabel(perm).mirror()):
                    assert_label_isomorphism(copy, e)

    def test_matches_reference_on_every_class(self):
        for n in range(4, 10):
            for e in enumerate_triangulations(n):
                assert e.canonical_form() == reference_form(e)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_reference_on_relabelled_copies(self, data):
        n = data.draw(st.integers(4, 10))
        e = data.draw(st.sampled_from(enumerate_triangulations(n)))
        r = e.relabel(data.draw(st.permutations(range(n))))
        if data.draw(st.booleans()):
            r = r.mirror()
        assert r.canonical_form() == reference_form(r) == e.canonical_form()
        assert_label_isomorphism(r, e)

    def test_invariance(self):
        rng = random.Random(11)
        for e in enumerate_triangulations(7):
            base = e.canonical_form()
            for _ in range(6):
                perm = list(range(e.n))
                rng.shuffle(perm)
                r = e.relabel(perm)
                if rng.random() < 0.5:
                    r = r.mirror()
                assert r.canonical_form() == base

    def test_separates_the_two_hexagonal_classes(self):
        a, b = enumerate_triangulations(6)
        assert a.canonical_form() != b.canonical_form()


class TestEnumeration:
    def test_counts_against_brute_force(self):
        # oracle: all 3n-6 edge subsets of K_n that form a planar graph,
        # counted up to graph isomorphism (maximal planar graphs have a
        # unique embedding up to reflection, so classes coincide)
        for n in (4, 5, 6):
            pool = list(itertools.combinations(range(n), 2))
            reps = []
            for keep in itertools.combinations(pool, 3 * n - 6):
                g = nx.Graph(keep)
                if g.number_of_nodes() != n or not nx.is_connected(g):
                    continue
                if not nx.check_planarity(g)[0]:
                    continue
                if not any(nx.is_isomorphic(g, h) for h in reps):
                    reps.append(g)
            assert len(enumerate_triangulations(n)) == len(reps)

    def test_known_counts(self):
        # cross-checked by the insertion generator below and the n<=6
        # brute force above
        got = [len(enumerate_triangulations(n)) for n in range(4, 13)]
        assert got == [1, 1, 2, 5, 14, 50, 233, 1249, 7595]

    def test_closure_skips_reverse_flips(self, monkeypatch):
        # forms computed (cache misses, as perfbench/tracing.py counts
        # them): 3,579 when every flip gets a form; 3,027 if reverse
        # diagonals are marked on the representative without relabelling
        forms = 0
        canonical_form = Embedding.canonical_form

        def counted(e):
            nonlocal forms
            forms += e._canon is None
            return canonical_form(e)

        monkeypatch.setattr(Embedding, "canonical_form", counted)
        assert len(_bfs_closure([stacked_triangulation(10)])) == 233
        assert forms == 2195

    def test_generators_agree(self):
        for n in (8, 9):
            a = {e.canonical_form() for e in enumerate_triangulations(n)}
            b = {e.canonical_form() for e in enumerate_by_insertion(n)}
            assert a == b

    def test_deterministic_order(self):
        a = [e.rotation for e in enumerate_triangulations(8)]
        b = [e.rotation for e in enumerate_triangulations(8)]
        assert a == b
        forms = [e.canonical_form() for e in enumerate_triangulations(8)]
        assert forms == sorted(forms)

    def test_scale_guards(self):
        with pytest.raises(ValueError):
            enumerate_triangulations(3)
        with pytest.raises(ValueError):
            enumerate_triangulations(14)

    def test_index_rows(self):
        rows = embedding_index(enumerate_triangulations(6))
        assert len(rows) == 2
        assert {r["m"] for r in rows} == {12}
        assert any(r["eulerian"] for r in rows)  # the octahedron class
        assert rows[0]["degrees"] == sorted(rows[0]["degrees"])


class TestColoring:
    def test_three_coloring_octahedron(self):
        e = octahedron()
        col = three_coloring(e)
        assert col.t == 3
        # classes are the three antipodal pairs
        assert sorted(len(c) for c in col.classes()) == [2, 2, 2]
        assert is_proper(face_hypergraph(e), col)

    def test_three_coloring_rejects_odd_degrees(self):
        with pytest.raises(EmbeddingError):
            three_coloring(stacked_triangulation(5))

    def test_eulerian_iff_three_colorable(self):
        # both directions, over every class on up to 8 vertices
        from hypercolor.solver import exists_proper
        from hypercolor.core import Hypergraph
        for n in range(4, 9):
            for e in enumerate_triangulations(n):
                G = Hypergraph(e.n, 2, e.edges())
                colorable = exists_proper(G, 3).status == "found"
                assert colorable == is_eulerian(e)


class TestFaceHypergraph:
    def test_octahedron(self):
        H = face_hypergraph(octahedron())
        assert (H.n, H.k, H.m) == (6, 3, 8)
        rep = spectrum(H)
        assert rep.feasible == (3,)
        assert brute_force_spectrum(H) == {3}

    def test_same_vertex_set(self):
        e = stacked_triangulation(6)
        H = face_hypergraph(e)
        assert H.n == e.n
        assert H.m == len(e.faces())


class TestFindGap:
    def test_no_hits_below_twelve(self):
        for n in (6, 8, 10):
            assert find_gap_face_hypergraphs(n) == []

    def test_octahedron_not_a_hit(self):
        hits = find_gap_face_hypergraphs(6)
        assert hits == []

    def test_budget_leaves_the_hit_out(self):
        # the unique 12-vertex hit needs more than one node per search
        assert find_gap_face_hypergraphs(12, budget=1) == []
