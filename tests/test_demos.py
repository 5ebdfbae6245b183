"""Every demo's stdout, pinned by its sha256.

The digests were recorded before the constructor's ``dedup=`` keyword
was removed, so they also show that the removal changed no demo output.
Demo 05 enumerates every triangulation on 12 vertices (several seconds)
and runs with HYPERCOLOR_SLOW=1.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_DIGESTS = {
    "01_spectrum_basics.py":
        "53a1f15fb99434c31f39c48cbbd0d85b951783cb28e4917b4a0ebb28b106e72d",
    "02_broken_interpolation.py":
        "508f1e85b1f5cfb4ab608287c1bf54eb8b44a89ed7f7425e1e583a339aaad6f3",
    "03_grid_family.py":
        "ece4430a3384914e932751ef74f33e5dc776821cb18ffa7e7d619846c741f804",
    "04_split_search.py":
        "43ba2ee19928a615ffd1bf1423cd7e8e08e32f9d9536250b14c48aad98529f17",
    "05_planar_counterexample.py":
        "9920c8132a504729ad10a733b0fc674d36c1080dfce6b04757f6b1696f2242b9",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow) if name.startswith("05") else name
    for name in sorted(DEMO_DIGESTS)])
def test_stdout_digest(name):
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                         capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_DIGESTS[name]
