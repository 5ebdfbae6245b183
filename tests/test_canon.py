import hashlib
import itertools
import random
import struct
import time

from hypercolor import Hypergraph, complete_uniform, regular15
from hypercolor.canon import (
    _encode,
    _refine,
    are_isomorphic,
    canonical_form,
    canonical_labeling,
)

from conftest import random_uniform_hypergraph

# sha256 of canonical_form and canonical_labeling over _corpus(), recorded
# before _refine sorted each edge's colour tuple once per round
_CORPUS_DIGEST = (
    "2bdd80154966ba1299013bee01915e96f98ba6820793520f0da64910921fb1be")


def _corpus():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(3, 9)
        k = rng.randint(2, 3)
        # at least n edges: isolated vertices multiply the leaves by n!
        yield random_uniform_hypergraph(rng, n, k, rng.randint(n, 3 * n))


def permuted(H, perm):
    rows = [tuple(perm[v] for v in e) for e in H.edge_tuples()]
    return Hypergraph(H.n, H.k, rows)


class TestCanonicalForm:
    def test_invariant_under_relabeling(self, rng):
        for _ in range(60):
            n = rng.randint(3, 8)
            k = rng.randint(2, 3)
            H = random_uniform_hypergraph(rng, n, k, rng.randint(1, 12))
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(H) == canonical_form(permuted(H, perm))

    def test_separates_nonisomorphic(self):
        # path vs star on 4 vertices, same size
        P = Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
        S = Hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)])
        assert canonical_form(P) != canonical_form(S)

    def test_separates_same_degree_sequence(self):
        # C6 vs two triangles: both 2-regular on 6 vertices
        C6 = Hypergraph(6, 2, [(i, (i + 1) % 6) for i in range(6)])
        TT = Hypergraph(6, 2, [(0, 1), (1, 2), (0, 2),
                               (3, 4), (4, 5), (3, 5)])
        assert canonical_form(C6) != canonical_form(TT)

    def test_labeling_realizes_form(self):
        rng = random.Random(3)
        for _ in range(20):
            H = random_uniform_hypergraph(rng, 6, 3, rng.randint(1, 10))
            perm = canonical_labeling(H)
            assert sorted(perm) == list(range(H.n))
            assert canonical_form(permuted(H, perm)) == canonical_form(H)

    def test_exhaustive_small(self):
        # every relabeling of a fixed 5-vertex graph maps to one form
        H = Hypergraph(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        forms = {canonical_form(permuted(H, p))
                 for p in itertools.permutations(range(5))}
        assert len(forms) == 1

    def test_corpus_digest(self):
        h = hashlib.sha256()
        for H in _corpus():
            h.update(canonical_form(H))
            h.update(repr(canonical_labeling(H)).encode())
        assert h.hexdigest() == _CORPUS_DIGEST

    def test_are_isomorphic(self):
        A = regular15()
        perm = list(range(15))
        random.Random(9).shuffle(perm)
        assert are_isomorphic(A, permuted(A, perm))
        assert not are_isomorphic(A, complete_uniform(15, 3))


def reference_search(H):
    """The canonical search without the isolated-cell shortcut: every
    member of the first non-singleton cell is branched on."""
    n = H.n
    edges = H.edge_tuples()
    vertex_edges = [[] for _ in range(n)]
    for j, row in enumerate(edges):
        for v in row:
            vertex_edges[v].append(j)
    best = None

    def descend(colors):
        nonlocal best
        colors = _refine(colors, vertex_edges, edges)
        cells = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            code = _encode(H, colors)
            if best is None or code < best[0]:
                best = (code, tuple(colors))
            return
        for v in target:
            branched = [c * 2 for c in colors]
            branched[v] -= 1
            descend(branched)

    descend([0] * n)
    return best


class TestIsolatedVertices:
    def test_edgeless_is_fast(self):
        start = time.perf_counter()
        H = Hypergraph(12, 2, [])
        assert canonical_form(H) == canonical_form(Hypergraph(12, 2, []))
        assert canonical_labeling(H) == tuple(range(12))
        assert time.perf_counter() - start < 2.0

    def test_matches_unpruned_search(self):
        # n <= 7 with 1..n isolated vertices, relabelled at random; the two
        # fixed cases are cells with edges that must still branch on every
        # member (branching on one there misses the least code)
        cases = [
            Hypergraph(7, 3, [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5),
                              (0, 3, 5), (0, 4, 5), (1, 2, 3), (1, 2, 4),
                              (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]),
            Hypergraph(7, 3, [(0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 2, 3),
                              (0, 2, 4), (0, 2, 5), (0, 3, 5), (0, 4, 5),
                              (1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 3, 5),
                              (1, 4, 5), (2, 3, 4), (2, 3, 5), (2, 4, 5)]),
        ]
        rng = random.Random(29)
        for _ in range(150):
            n = rng.randint(1, 7)
            k = rng.randint(2, 3)
            pool = list(itertools.combinations(range(n - rng.randint(1, n)), k))
            rng.shuffle(pool)
            perm = list(range(n))
            rng.shuffle(perm)
            cases.append(permuted(Hypergraph(n, k, pool[:rng.randint(0, len(pool))]),
                                  perm))
        for H in cases:
            assert H.isolated_vertices()
            assert (canonical_form(H), canonical_labeling(H)) == reference_search(H)


class TestEncodingWidths:
    def test_four_byte_ids_past_255_vertices(self):
        H = Hypergraph(300, 2, [(0, 299), (5, 17)])
        form = canonical_form(H)
        assert form[:12] == struct.pack(">III", 300, 2, 2)
        assert len(form) == 12 + 2 * 2 * 4
        rows = struct.unpack(">4I", form[12:])
        assert len(set(rows)) == 4 and max(rows) < 300
        assert form == canonical_form(Hypergraph(300, 2, [(1, 2), (250, 299)]))
        assert _encode(H, list(canonical_labeling(H))) == form

    def test_empty_hypergraph(self):
        H = Hypergraph(0, 3, [])
        assert canonical_form(H) == struct.pack(">III", 0, 3, 0)
        assert canonical_labeling(H) == ()
