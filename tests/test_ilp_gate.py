"""Independent ILP gate on the advertised spectrum holes.

Each hole is refuted again by the integer programme of
``perfbench/ilp_statuses.py`` (``scipy.optimize.milp``, HiGHS).  That
module imports nothing from hypercolor, so a "none" here shares no code
with the package's search.  The instances are read from the written
documents in ``tests/data`` with plain ``json``; only regular15 comes
from the package's constructor.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from hypercolor import regular15

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def decide():
    # the module puts perfbench/ on sys.path to import its reference
    # helpers; take it off again once the module is loaded
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(
            "ilp_statuses", ROOT / "perfbench" / "ilp_statuses.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module.decide


def _instance(name):
    if name == "regular15":
        H = regular15()
        return H.n, H.k, [list(e) for e in H.edge_tuples()]
    doc = json.loads((DATA / f"{name}.json").read_text())
    return doc["n"], doc["k"], doc["edges"]


# each hole t, with the nearest sizes below and above it that do have a
# complete coloring: the ILP sees the hole between two found sizes
HOLES = {("regular15", 4): (3, 5), ("order9", 4): (3, 5),
         ("order12", 4): (3, 6), ("order12", 5): (3, 6),
         ("planar12", 5): (4, 6), ("split12_k4", 5): (4, 6)}


@pytest.mark.parametrize("name, t", sorted(HOLES))
def test_advertised_hole_has_no_complete_coloring(decide, name, t):
    n, k, edges = _instance(name)
    assert decide(n, k, edges, t)[0] == "none"
    # a found status is checked by the module against its own
    # complete-colouring predicate before it is returned
    assert [decide(n, k, edges, s)[0] for s in HOLES[name, t]] == ["found"] * 2
