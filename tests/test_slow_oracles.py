"""Opt-in exhaustive cross-checks that take minutes, not seconds.

Enable with HYPERCOLOR_SLOW=1.  Nothing here is needed for the
acceptance criteria; these re-derive a few headline facts by the most
expensive route available as an extra belt-and-braces pass.
"""

import pytest

from hypercolor import brute_force_spectrum
from hypercolor.triangulations import enumerate_triangulations, find_gap_face_hypergraphs, face_hypergraph

from conftest import enumerate_by_insertion


@pytest.mark.slow
def test_counterexample_gap_by_full_enumeration():
    # 2.6e8 assignments for the unique planar hit; the walk meets 1,099
    # proper colorings, one per renaming
    emb, _ = find_gap_face_hypergraphs(12)[0]
    H = face_hypergraph(emb)
    assert brute_force_spectrum(H, 5) == {3, 4}


@pytest.mark.slow
def test_enumeration_count_at_thirteen():
    # largest allowed size; count confirmed by the generator pair
    a = enumerate_triangulations(13)
    b = enumerate_by_insertion(13)
    assert len(a) == len(b) == 49566
