"""Regenerate expected_status.json: complete-colouring statuses from an ILP.

The paper states no status for some (instance, t) questions the ``decide``
workload asks.  This script decides them with an integer programme solved by
``scipy.optimize.milp`` (HiGHS), building the instances from their
definitions in ``independent.py``; it imports nothing from hypercolor and
shares no code with its search.

    python3 perfbench/ilp_statuses.py    # rewrite the file
    git diff perfbench/expected_status.json

Model, for hypergraph (n, k, edges) and t colours:
  x[v,c] = 1 when vertex v has colour c; y[e,S] = 1 when edge e realises
  the k-subset S of colours.
  * every vertex has exactly one colour;
  * no edge has two vertices of one colour;
  * every k-subset S is realised by some edge: sum_e y[e,S] >= 1;
  * y[e,S] <= sum_{v in e} x[v,c] for each c in S, and each edge realises
    at most one subset;
  * first-use symmetry breaking along the vertex order: vertex v uses a
    colour c <= v, and colour c >= 1 only if some earlier vertex has c-1.
Every class is nonempty because every colour lies in a realised subset.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from independent import grid_edges, is_complete_coloring  # noqa: E402

OUT = HERE / "expected_status.json"
TIME_LIMIT_S = 600.0       # per solve; each took under a minute

# instance name -> (k, r, the t values to settle)
QUESTIONS = {
    "grid_transversal(3,5)": (3, 5, (6, 7)),
    "grid_transversal(3,6)": (3, 6, (9,)),
}


def decide(n: int, k: int, edges: list, t: int) -> tuple[str, float]:
    subsets = list(combinations(range(t), k))
    m, s = len(edges), len(subsets)
    nx = n * t

    def x(v, c):
        return v * t + c

    def y(j, i):
        return nx + j * s + i

    rows, cols, vals, lo, hi = [], [], [], [], []

    def add(terms, low, high):
        r = len(lo)
        for col, val in terms:
            rows.append(r)
            cols.append(col)
            vals.append(val)
        lo.append(low)
        hi.append(high)

    for v in range(n):
        add([(x(v, c), 1) for c in range(t)], 1, 1)
    for e in edges:
        for c in range(t):
            add([(x(v, c), 1) for v in e], -np.inf, 1)
    for i in range(s):
        add([(y(j, i), 1) for j in range(m)], 1, np.inf)
    for j, e in enumerate(edges):
        add([(y(j, i), 1) for i in range(s)], -np.inf, 1)
        for i, sub in enumerate(subsets):
            for c in sub:
                add([(y(j, i), 1)] + [(x(v, c), -1) for v in e], -np.inf, 0)
    upper = np.ones(nx + m * s)
    for v in range(n):
        for c in range(t):
            if c > v:
                upper[x(v, c)] = 0
            elif c >= 1:
                add([(x(v, c), 1)] + [(x(u, c - 1), -1) for u in range(v)],
                    -np.inf, 0)
    A = coo_matrix((vals, (rows, cols)), shape=(len(lo), nx + m * s)).tocsr()
    start = time.perf_counter()
    res = milp(np.zeros(nx + m * s), integrality=np.ones(nx + m * s),
               bounds=Bounds(np.zeros(nx + m * s), upper),
               constraints=LinearConstraint(A, lo, hi),
               options={"time_limit": TIME_LIMIT_S})
    took = time.perf_counter() - start
    if res.status == 2:
        return "none", took
    if res.status == 0:
        colors = [int(np.argmax(res.x[x(v, 0):x(v, 0) + t])) for v in range(n)]
        if not is_complete_coloring(n, k, edges, colors, t):
            raise RuntimeError(f"ILP solution is not a complete {t}-colouring")
        return "found", took
    raise RuntimeError(f"ILP undecided at t={t}: {res.message}")


def solve_all() -> dict:
    statuses = {}
    for name, (k, r, ts) in QUESTIONS.items():
        edges = sorted(grid_edges(k, r))
        statuses[name] = {}
        for t in ts:
            status, took = decide(k * r, k, edges, t)
            print(f"{name} t={t}: {status} ({took:.1f} s)", file=sys.stderr)
            statuses[name][str(t)] = status
    return statuses


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    doc = {
        "source": "perfbench/ilp_statuses.py (scipy.optimize.milp)",
        "statuses": solve_all(),
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
