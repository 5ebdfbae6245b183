"""Shared helpers: naive reference predicates, random instance generators,
and a second triangulation generator.

The naive predicates below are deliberately written from the definitions
with itertools, independent of the array code under test, so the two
implementations can be compared on random instances.
"""

import itertools
import os
import random
import tracemalloc

import pytest

from hypercolor import Hypergraph
from hypercolor.core import _id_dtype
from hypercolor.triangulations import (
    _bfs_closure,
    _insert_vertex,
    enumerate_triangulations,
)


def naive_is_proper(H, colors):
    for edge in H.edge_tuples():
        if len({colors[v] for v in edge}) != H.k:
            return False
    return True


def naive_is_complete(H, colors, t):
    if t < H.k and H.m > 0:
        return False
    if H.m == 0:
        return False
    if any(c < 0 or c >= t for c in colors):
        return False
    if len(set(colors)) != t:
        return False
    if not naive_is_proper(H, colors):
        return False
    seen = {tuple(sorted(colors[v] for v in e)) for e in H.edge_tuples()}
    return all(tuple(sorted(s)) in seen
               for s in itertools.combinations(range(t), H.k))


def naive_spectrum(H, t_max):
    """Search every coloring, definition-first. Only for tiny instances."""
    out = set()
    for t in range(1, t_max + 1):
        for colors in itertools.product(range(t), repeat=H.n):
            if naive_is_complete(H, colors, t):
                out.add(t)
                break
    return out


def random_uniform_hypergraph(rng, n, k, m):
    """m distinct random k-edges on n vertices (m capped at what exists)."""
    pool = list(itertools.combinations(range(n), k))
    rng.shuffle(pool)
    return Hypergraph(n, k, pool[:min(m, len(pool))])


def assert_trusted_edges(H):
    """A hypergraph built without the validating constructor must equal
    the one that constructor makes from a copy of its edges, and store
    the array that constructor would: id dtype, C order, read-only."""
    ref = Hypergraph(H.n, H.k, H.edges.copy())
    assert ref == H and hash(ref) == hash(H)
    assert H.edges.dtype == _id_dtype(H.n)
    assert H.edges.flags["C_CONTIGUOUS"]
    assert not H.edges.flags.writeable


def traced_peak(fn):
    """(result, peak bytes traced while fn ran); numpy reports its
    buffers to tracemalloc."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def enumerate_by_insertion(n):
    """Second generation method for cross-validation.

    Seeds the flip closure with every vertex insertion into every face
    of every (n-1)-class instead of the single stacked seed.  Agreement
    with enumerate_triangulations is the enumeration oracle at n beyond
    brute-force scale.
    """
    seeds = []
    for e in enumerate_triangulations(n - 1):
        for face in e.faces():
            seeds.append(_insert_vertex(e, face))
    return _bfs_closure(seeds)


@pytest.fixture
def rng():
    return random.Random(20240817)


def pytest_collection_modifyitems(config, items):
    if os.environ.get("HYPERCOLOR_SLOW"):
        return
    skip = pytest.mark.skip(reason="set HYPERCOLOR_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
