"""One round of one benchmark workload, in a fresh process.

    python3 perfbench/workloads.py --workload NAME --seed N --trace 0|1 --t0 T

``run.py`` starts this once per round (and a few times with --setup-only
to sample set-up time) and reads the JSON line it prints last.  A round
builds its inputs, times the workload's calls into hypercolor, then checks
every answer against ``independent.py``, the paper's constants and
``expected_status.json``.  With --trace 1 the calls run under the span
recorder in ``tracing.py`` and the round also reports per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import independent as ind  # noqa: E402
from tracing import Tracer, install  # noqa: E402


def _import_package():
    """hypercolor from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hypercolor
    import hypercolor.cli  # noqa: F401  (imports every other module too)
    if Path(hypercolor.__file__).resolve().parent != src / "hypercolor":
        raise ImportError(f"hypercolor came from {hypercolor.__file__}, not {src}")
    return hypercolor


def _psi_bound(n: int, k: int, m: int) -> int:
    t = k - 1
    while t + 1 <= n and math.comb(t + 1, k) <= m:
        t += 1
    return t


def _check_spectrum(label, n, k, edges, report, expected, rng) -> list[str]:
    """Compare a SpectrumReport with the expected feasible set and re-derive it."""
    problems = []
    want = tuple(sorted(expected))
    if report.feasible != want or report.unknown:
        problems.append(f"{label}: feasible {report.feasible} unknown "
                        f"{report.unknown}, expected {want}")
    if want and (report.chi != k or report.psi != want[-1]):
        problems.append(f"{label}: chi {report.chi} psi {report.psi}, "
                        f"expected {k} and {want[-1]}")
    for t, w in report.witnesses.items():
        if w.t != t or not ind.is_complete_coloring(n, k, edges, w.colors, t):
            problems.append(f"{label}: witness for t={t} is not complete")
    ref = ind.complete_sizes(n, k, ind.relabel(n, edges, rng),
                             range(k, _psi_bound(n, k, len(edges)) + 1))
    if ref != set(want):
        problems.append(f"{label}: independent search gives {sorted(ref)}, "
                        f"expected {want}")
    return problems


class Decide:
    """Spectra of the paper's instances, then grid(3,6) at t = 3..6 and 9."""

    # feasible sizes stated by the paper
    PAPER = {"regular15": (3, 5), "order9": (3, 5), "order12": (3, 6),
             "grid(3,5)": (3, 4, 5)}
    GRID36_FOUND = (3, 4, 5, 6)
    GRID36_ASKED = GRID36_FOUND + (9,)
    units = len(PAPER) + len(GRID36_ASKED)     # questions answered

    def __init__(self, hc, seed: int):
        from hypercolor import constructions, core
        data = ROOT / "tests" / "data"
        self.hc = hc
        self.seed = seed
        self.inst = {
            "regular15": constructions.regular15(),
            "order9": core.parse_hypergraph((data / "order9.json").read_text()),
            "order12": core.parse_hypergraph((data / "order12.json").read_text()),
            "grid(3,5)": constructions.grid_transversal(3, 5),
        }
        self.g36 = constructions.grid_transversal(3, 6)
        statuses = json.loads((HERE / "expected_status.json").read_text())["statuses"]
        self.ilp = {"grid(3,5)": statuses["grid_transversal(3,5)"],
                    "grid(3,6)": statuses["grid_transversal(3,6)"]}
        self.questions = ([("spectrum", name) for name in self.PAPER]
                          + [("t", t) for t in self.GRID36_ASKED])
        random.Random(seed).shuffle(self.questions)

    def ops(self):
        solver = self.hc.solver
        for kind, arg in self.questions:
            if kind == "spectrum":
                H = self.inst[arg]
                yield f"spectrum:{arg}", lambda H=H: solver.spectrum(H)
            else:
                yield f"grid(3,6):t={arg}", lambda t=arg: solver.exists_complete(self.g36, t)

    def undecided(self, label, res) -> bool:
        return bool(res.unknown) if label.startswith("spectrum") else \
            res.status == "budget_exhausted"

    def check(self, results) -> list[str]:
        rng = random.Random(self.seed)
        problems = []
        for name, want in self.PAPER.items():
            label = f"spectrum:{name}"
            if label not in results:
                continue
            H = self.inst[name]
            problems += _check_spectrum(label, H.n, H.k, H.edge_tuples(),
                                        results[label], want, rng)
        rep = results.get("spectrum:grid(3,5)")
        for t, status in self.ilp["grid(3,5)"].items():
            if rep is not None and (int(t) in rep.feasible) != (status == "found"):
                problems.append(f"grid(3,5) t={t}: ILP says {status}")
        edges = self.g36.edge_tuples()
        for t in self.GRID36_ASKED:
            res = results.get(f"grid(3,6):t={t}")
            if res is None:
                continue
            want = "found" if t in self.GRID36_FOUND else self.ilp["grid(3,6)"][str(t)]
            if res.status != want:
                problems.append(f"grid(3,6) t={t}: {res.status}, expected {want}")
            elif res.status == "found" and not ind.is_complete_coloring(
                    self.g36.n, 3, edges, res.witness.colors, t):
                problems.append(f"grid(3,6) t={t}: witness is not complete")
        return problems

    def counts(self, results) -> dict:
        return {label: res.nodes for label, res in results.items()
                if label.startswith("grid(3,6)")}

    def layer_counts(self, results) -> dict:
        return {}


class SplitSearch:
    """The paper's two split-lift rediscovery searches, one worker."""

    SEARCHES = {
        "order9": dict(base_m=5, split=range(4), require={3, 5}, forbid={4},
                       budget=20_000),
        "order12": dict(base_m=6, split=range(6), require={3, 6}, forbid={4, 5},
                        budget=4_000),
    }
    PAPER = {"order9": ((9, 10), (3, 5)), "order12": ((12, 20), (3, 6))}
    units = sum(s["budget"] for s in SEARCHES.values())   # candidates evaluated
    STATS = ("candidates", "tabu_skips", "orbit_skips", "screen_fail",
             "chi_fail", "forbid_fail", "hits")

    def __init__(self, hc, seed: int):
        self.hc = hc
        self.seed = seed

    def ops(self):
        gapsearch = self.hc.gapsearch
        for name, kw in self.SEARCHES.items():
            yield name, lambda kw=kw: gapsearch.split_search(
                kw["base_m"], kw["split"], require=kw["require"],
                forbid=kw["forbid"], budget=kw["budget"], seed=self.seed,
                workers=1)

    def undecided(self, label, res) -> bool:
        return res.stats.get("candidates") != self.SEARCHES[label]["budget"]

    def check(self, results) -> list[str]:
        rng = random.Random(self.seed)
        problems = []
        for name, res in results.items():
            size, want = self.PAPER[name]
            for i, (pattern, report) in enumerate(res.hits):
                n, edges = ind.lift_edges(pattern.base_m, pattern.split,
                                          pattern.lifts, pattern.k)
                if (n, len(set(edges))) != size:
                    problems.append(f"{name} hit {i}: n, m = {n}, {len(edges)}")
                    continue
                problems += _check_spectrum(f"{name} hit {i}", n, pattern.k,
                                            edges, report, want, rng)
        return problems

    def counts(self, results) -> dict:
        return {name: dict(sorted(res.stats.items())) for name, res in results.items()}

    def layer_counts(self, results) -> dict:
        out = {}
        for name in self.SEARCHES:
            stats = results[name].stats if name in results else {}
            for key in self.STATS:
                out[f"gapsearch.{key}.{name}"] = sum(
                    v for k, v in stats.items() if k == key or
                    (key == "forbid_fail" and k.startswith("forbid_fail_")))
            cand = out[f"gapsearch.candidates.{name}"]
            out[f"gapsearch.hit_ratio.{name}"] = (
                out[f"gapsearch.hits.{name}"] / cand if cand else 0.0)
        return out


class Planar12:
    """All 12-vertex triangulations from a cold cache, then the gap scan."""

    N = 12
    CLASSES = 7595              # OEIS A000109 at n = 12
    HIT = (3, 4, 6)             # spectrum of the paper's planar face hypergraph
    units = CLASSES             # triangulation classes enumerated

    def __init__(self, hc, seed: int):
        self.hc = hc
        self.seed = seed

    def ops(self):
        tri = self.hc.triangulations
        yield "enumerate", lambda: tri.enumerate_triangulations(self.N)
        yield "find_gap", lambda: tri.find_gap_face_hypergraphs(self.N)

    def undecided(self, label, res) -> bool:
        return False

    def check(self, results) -> list[str]:
        problems = []
        classes = results.get("enumerate")
        if classes is not None and len(classes) != self.CLASSES:
            problems.append(f"{len(classes)} classes, expected {self.CLASSES}")
        hits = results.get("find_gap")
        if hits is None:
            return problems
        if len(hits) != 1:
            return problems + [f"{len(hits)} planar gap classes, expected 1"]
        emb, report = hits[0]
        rotation = emb.rotation
        if any(len(nbrs) % 2 for nbrs in rotation):
            problems.append("planar hit is not Eulerian")
        faces = [tuple(sorted(f)) for f in ind.triangle_faces(rotation)]
        if len(faces) != 2 * self.N - 4:
            problems.append(f"planar hit has {len(faces)} faces")
        problems += _check_spectrum("planar hit", self.N, 3, faces, report,
                                    self.HIT, random.Random(self.seed))
        return problems

    def counts(self, results) -> dict:
        out = {}
        if "enumerate" in results:
            out["classes"] = len(results["enumerate"])
            out["eulerian"] = sum(all(len(r) % 2 == 0 for r in e.rotation)
                                  for e in results["enumerate"])
        if "find_gap" in results:
            out["hits"] = len(results["find_gap"])
        return out

    def layer_counts(self, results) -> dict:
        return {"triangulations.classes": len(results.get("enumerate", ()))}


class GridBulk:
    """A k=5 grid through the array paths, then a k=4 grid through the CLI."""

    K, R = 5, 26          # 6.68M edges, a 67 MB int16 edge array
    CLI_K, CLI_R = 4, 24  # 240,051 edges, a 3.3 MB JSON document
    units = ind.grid_edge_count(K, R) + ind.grid_edge_count(CLI_K, CLI_R)
    EXPECTED = {"complete_part": True, "complete_position": True,
                "complete_moved": False, "proper_position": True}

    def __init__(self, hc, seed: int):
        k, r = self.K, self.R
        self.hc = hc
        self.part = hc.Coloring(tuple(v // r for v in range(k * r)), k)
        self.position = hc.Coloring(tuple(v % r for v in range(k * r)), r)
        # one vertex moved to a colour of its own: proper and every class is
        # nonempty, but no edge realises that colour together with the
        # vertex's position, so the whole array is scanned to reject it
        moved = random.Random(seed).randrange(k * r)
        colors = list(self.position.colors)
        colors[moved] = r
        self.moved = hc.Coloring(tuple(colors), r + 1)
        OUT.mkdir(exist_ok=True)
        self.doc = OUT / f"grid_{self.CLI_K}_{self.CLI_R}.json"
        self.chi = OUT / f"grid_{self.CLI_K}_{self.CLI_R}.chi.json"
        self.H = None

    def ops(self):
        hc = self.hc
        k, r = self.K, self.R

        def generate():
            self.H = hc.constructions.grid_transversal(k, r)
            return self.H

        yield "generate", generate
        yield "verify", lambda: hc.constructions.verify_grid_invariants(self.H, k, r)
        yield "complete_part", lambda: hc.core.is_complete(self.H, self.part)
        yield "complete_position", lambda: hc.core.is_complete(self.H, self.position)
        yield "complete_moved", lambda: hc.core.is_complete(self.H, self.moved)
        yield "proper_position", lambda: hc.core.is_proper(self.H, self.position)
        yield "cli_gen", lambda: hc.cli.main(
            ["gen", "theorem3", "--k", str(self.CLI_K), "--r", str(self.CLI_R),
             "--out", str(self.doc)])
        yield "cli_solve", lambda: hc.cli.main(
            ["solve", str(self.doc), "--chi", "--out", str(self.chi)])

    def undecided(self, label, res) -> bool:
        return label.startswith("cli") and res != 0

    def check(self, results) -> list[str]:
        problems = []
        if "generate" in results and results["generate"].m != ind.grid_edge_count(self.K, self.R):
            problems.append(f"grid({self.K},{self.R}) has {results['generate'].m} edges")
        if "verify" in results and not all(results["verify"].values()):
            problems.append(f"grid invariants: {results['verify']}")
        for label, want in self.EXPECTED.items():
            if label in results and results[label] is not want:
                problems.append(f"{label}: {results[label]}, expected {want}")
        if "cli_gen" in results:
            doc = json.loads(self.doc.read_text())
            edges = {tuple(e) for e in doc["edges"]}
            if ((doc["k"], doc["n"]) != (self.CLI_K, self.CLI_K * self.CLI_R)
                    or len(edges) != len(doc["edges"])
                    or edges != ind.grid_edges(self.CLI_K, self.CLI_R)):
                problems.append("CLI grid document differs from the definition")
        if "cli_solve" in results:
            # chi of a grid is k: its part colouring is proper, and an edge
            # needs k colours
            if self.chi.read_text().strip() != str(self.CLI_K):
                problems.append(f"CLI chi: {self.chi.read_text().strip()!r}")
        return problems

    def counts(self, results) -> dict:
        out = {}
        if "generate" in results:
            out["edges"] = results["generate"].m
        if "cli_gen" in results:
            out["doc_bytes"] = self.doc.stat().st_size
        return out

    def layer_counts(self, results) -> dict:
        return {"cli.doc_bytes": self.doc.stat().st_size if self.doc.exists() else 0}


WORKLOADS = {"decide": Decide, "split_search": SplitSearch,
             "planar12": Planar12, "grid_bulk": GridBulk}


def layer_metrics(summary, tags, extra, wall_s) -> dict:
    """Per-layer figures from the span summary; 0 where a layer was not called."""
    def rows(*names):
        return [summary[n] for n in names if n in summary]

    def total(*names):
        return sum(r["total_s"] for r in rows(*names))

    def busy(layer):
        return sum(r["self_s"] for n, r in summary.items()
                   if n.split(".", 1)[0] == layer)

    def calls(*names):
        return sum(r["calls"] for r in rows(*names))

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    nodes = tags["nodes.found"] + tags["nodes.none"] + tags["nodes.budget_exhausted"]
    candidates = sum(v for k, v in extra.items() if k.startswith("gapsearch.candidates."))
    check_s = sum(r["self_s"] for r in rows("core.is_complete", "core.is_proper"))
    canon_calls = calls("canon.canonical_form")
    forms = tags["embedding_forms"]
    flips = rows("triangulations.Embedding.flip")
    out = {
        "solver.nodes.found": tags["nodes.found"],
        "solver.nodes.none": tags["nodes.none"],
        "solver.busy_s": busy("solver"),
        "solver.us_per_node": per(busy("solver"), nodes, 1e6),
        "gapsearch.busy_s": busy("gapsearch"),
        "gapsearch.us_per_candidate": per(total("gapsearch.split_search"), candidates, 1e6),
        "core.builds": calls("core.Hypergraph"),
        "core.build_busy_s": sum(r["self_s"] for r in rows("core.Hypergraph")),
        "core.check_busy_s": check_s,
        "core.check_gb_per_s": per(tags["check_bytes"], check_s, 1e-9),
        "core.parse_s": total("core.parse_hypergraph"),
        "core.serialize_s": total("core.serialize_hypergraph"),
        "constructions.grid_s": total("constructions.grid_transversal"),
        "constructions.verify_s": total("constructions.verify_grid_invariants"),
        "constructions.edges": tags["grid_edges"],
        "canon.calls": canon_calls,
        "canon.busy_s": busy("canon"),
        "canon.us_per_call": per(busy("canon"), canon_calls, 1e6),
        "triangulations.enumerate_s": total("bench.enumerate"),
        "triangulations.classes": 0,
        "triangulations.canon_calls": forms,
        "triangulations.us_per_canon": per(
            sum(r["self_s"] for r in rows("triangulations.Embedding.canonical_form")),
            forms, 1e6),
        "triangulations.flips": sum(r["calls"] for r in flips),
        "triangulations.flips_refused": sum(
            r["errors"]["UnflippableEdgeError"] for r in flips),
        "triangulations.new_class_ratio": 0.0,
        "triangulations.scan_s": total("bench.find_gap"),
        "cli.gen_s": total("bench.cli_gen"),
        "cli.solve_s": total("bench.cli_solve"),
        "cli.doc_bytes": 0,
        "trace.wall_s": wall_s,
    }
    for key in SplitSearch.STATS + ("hit_ratio",):
        for name in SplitSearch.SEARCHES:
            out[f"gapsearch.{key}.{name}"] = 0
    out.update(extra)
    out["triangulations.new_class_ratio"] = per(out["triangulations.classes"], forms)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="one benchmark round")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--round", type=int, default=0)
    args = ap.parse_args()

    hc = _import_package()
    wl = WORKLOADS[args.workload](hc, args.seed)
    ops = list(wl.ops())
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer, hc)
    results, errors = {}, []
    start = time.perf_counter()
    for label, fn in ops:
        try:
            results[label] = fn() if tracer is None else tracer.span(f"bench.{label}", fn)
        except Exception as exc:           # a failed operation; counted, not fatal
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        tracer.uninstall()

    failed = len(errors) + sum(wl.undecided(label, res) for label, res in results.items())
    decided = {label: res for label, res in results.items()
               if not wl.undecided(label, res)}
    payload = {
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "units": wl.units, "attempted": len(ops), "failed": failed,
        "errors": errors, "problems": wl.check(decided),
        "counts": wl.counts(results),
    }
    if tracer is not None:
        payload["layers"] = layer_metrics(tracer.summary(), tracer.tags,
                                          wl.layer_counts(results), wall_s)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}-round{args.round}.json")
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
