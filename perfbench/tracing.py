"""In-memory span recording around hypercolor's public functions.

Only the traced run installs these wrappers; the untraced run, which gives
the end-to-end metrics, calls the package unchanged.  A span is a name, a
start, an end, the span that was open when it began, and the exception
that ended it, if any.  Spans are kept in flat lists while the workload
runs and written out once it has finished.

Wrappers replace module attributes, so they catch calls made through
those names at call time: the benchmark's own calls, and calls between
modules of the package (``split_search`` calling ``exists_proper``,
``_bfs_closure`` calling ``Embedding.flip``).  Each original function gets
one wrapper, bound everywhere the package binds it.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.error = []
        self.tags = Counter()        # counts the wrappers note, summed
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, args=(), kwargs=None, note=None, pre=None):
        """Call fn(*args, **kwargs) inside a span.

        note(tags, args, result, pre(args)) may add to the tags afterwards.
        """
        i = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.error.append(None)
        self.end.append(0.0)
        before = pre(args) if pre is not None else None
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException as exc:
            self.error[i] = type(exc).__name__
            raise
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()
        if note is not None:
            note(self.tags, args, result, before)
        return result

    def wrap(self, owners, attr: str, name: str, note=None, pre=None) -> None:
        """Replace attr on every owner (module or class) that binds the original."""
        original = getattr(owners[0], attr)
        span = self.span

        def wrapper(*args, **kwargs):
            return span(name, original, args, kwargs, note, pre)

        wrapper.__wrapped__ = original
        for owner in owners:
            if getattr(owner, attr, None) is original:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- summaries -------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, errors by type."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": Counter()})
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
            if self.error[i] is not None:
                row["errors"][self.error[i]] += 1
        return out

    def dump(self, path) -> None:
        doc = {"names": self.names, "name": self.name, "start": self.start,
               "end": self.end, "parent": self.parent, "error": self.error,
               "tags": dict(self.tags)}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- what the traced run wraps ---------------------------------------------


def _note_solve(tags, args, result, _before):
    tags[f"nodes.{result.status}"] += result.nodes


def _note_bytes(tags, args, result, _before):
    tags["check_bytes"] += int(args[0].edges.nbytes)


def _note_edges(tags, args, result, _before):
    tags["grid_edges"] += result.m


def _uncached(args):
    return getattr(args[0], "_canon", None) is None


def _note_canon(tags, args, result, before):
    tags["embedding_forms"] += int(before)


def install(tracer: Tracer, hc) -> None:
    """Wrap the public names whose spans or tags feed a per-layer metric,
    in every module binding them."""
    from hypercolor import (canon, cli, constructions, core, gapsearch,
                            solver, triangulations)
    mods = [hc, core, solver, constructions, canon, gapsearch, triangulations, cli]
    table = [
        (solver, "exists_complete", "solver.exists_complete", _note_solve),
        (solver, "exists_proper", "solver.exists_proper", _note_solve),
        (solver, "spectrum", "solver.spectrum", None),
        (solver, "chromatic_number", "solver.chromatic_number", None),
        (solver, "brute_force_spectrum", "solver.brute_force_spectrum", None),
        (core, "is_complete", "core.is_complete", _note_bytes),
        (core, "is_proper", "core.is_proper", _note_bytes),
        (core, "parse_hypergraph", "core.parse_hypergraph", None),
        (core, "serialize_hypergraph", "core.serialize_hypergraph", None),
        (constructions, "grid_transversal", "constructions.grid_transversal",
         _note_edges),
        (constructions, "verify_grid_invariants",
         "constructions.verify_grid_invariants", None),
        (canon, "canonical_form", "canon.canonical_form", None),
        (gapsearch, "split_search", "gapsearch.split_search", None),
        (triangulations, "enumerate_triangulations",
         "triangulations.enumerate_triangulations", None),
        (triangulations, "find_gap_face_hypergraphs",
         "triangulations.find_gap_face_hypergraphs", None),
        (cli, "main", "cli.main", None),
    ]
    for home, attr, name, note in table:
        tracer.wrap([home] + [m for m in mods if m is not home], attr, name, note)
    tracer.wrap([core.Hypergraph], "__init__", "core.Hypergraph")
    emb = triangulations.Embedding
    tracer.wrap([emb], "canonical_form", "triangulations.Embedding.canonical_form",
                note=_note_canon, pre=_uncached)
    tracer.wrap([emb], "flip", "triangulations.Embedding.flip")
