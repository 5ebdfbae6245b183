"""Command-line entry point.

Subcommands: ``gen`` (hypergraph families), ``solve`` (coloring
queries), ``search split`` (randomized gap search over vertex
splittings), ``tri`` (triangulation enumeration and face hypergraphs),
``export dot`` (incidence graph).  Output is JSON on stdout unless
``--out`` is given; ``-`` reads stdin.  Identical flags and seed give
byte-identical output.

Exit codes: 0 when a decision was reached, 2 when a budget ran out or a
randomized search came back empty, 1 on bad input or a found witness
that fails its check.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Iterable

from .core import (
    DocumentError,
    HypergraphError,
    _serialized_pieces,
    dump_json,
    hypergraph_to_dict,
    incidence_graph,
    parse_hypergraph,
)
from .constructions import (
    SplitPattern,
    complete_uniform,
    grid_transversal,
    regular15,
    split_lift,
)
from .solver import (
    BudgetExhaustedError,
    InvalidWitnessError,
    achromatic_number,
    chromatic_number,
    exists_complete,
    spectrum,
)
from . import gapsearch
from . import triangulations as tri

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2


def _budget(args, default: int | None = None) -> int | None:
    """--budget, else ``default``; --budget must be positive."""
    if args.budget is None:
        return default
    if args.budget <= 0:
        raise DocumentError(f"--budget must be positive, got {args.budget}")
    return args.budget


def _read(path: str, binary: bool = False) -> str | bytes:
    """The document at path, '-' for stdin: its UTF-8 text, or a file's
    bytes when binary, which parse_hypergraph decodes a slice at a time."""
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_bytes() if binary else Path(path).read_text(
            encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}")


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write text, or each piece of it as it is made, to stdout or out."""
    pieces = [text] if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w") as f:
            f.writelines(pieces)


def _int_list(raw: str) -> list[int]:
    items = [p for p in raw.replace(",", " ").split() if p]
    try:
        return [int(p) for p in items]
    except ValueError:
        raise DocumentError(f"expected comma-separated integers, got {raw!r}")


# ---------------------------------------------------------------- gen

def _cmd_gen(args) -> int:
    fam = args.family
    if fam == "theorem3":
        H = grid_transversal(args.k, args.r)
    elif fam == "regular15":
        H = regular15()
    elif fam == "complete-uniform":
        H = complete_uniform(args.m, args.k)
    else:  # split-lift
        pattern = SplitPattern.from_json(_read(args.pattern))
        H = split_lift(pattern)
    _emit(_serialized_pieces(H, args.pretty), args.out)
    return EXIT_OK


# -------------------------------------------------------------- solve

def _cmd_solve(args) -> int:
    H = parse_hypergraph(_read(args.file, binary=True))
    budget = _budget(args)
    code = EXIT_OK

    if args.t is not None:
        res = exists_complete(H, args.t, budget=budget, seed=args.seed)
        doc = {
            "query": "complete",
            "t": args.t,
            "status": res.status,
            "witness": list(res.witness.colors) if res.witness else None,
            "nodes": res.nodes,
        }
        if res.status == "budget_exhausted":
            code = EXIT_UNDECIDED
    elif args.chi or args.psi:
        fn = chromatic_number if args.chi else achromatic_number
        try:
            doc = fn(H, budget=budget, seed=args.seed)
        except BudgetExhaustedError:
            doc = {"query": "chi" if args.chi else "psi",
                   "status": "budget_exhausted"}
            code = EXIT_UNDECIDED
    else:
        rep = spectrum(H, budget=budget, seed=args.seed)
        doc = rep.to_dict()
        if rep.unknown or rep.chi is None:
            code = EXIT_UNDECIDED
    _emit(dump_json(doc, pretty=args.pretty), args.out)
    return code


# ------------------------------------------------------------- search

def _cmd_search_split(args) -> int:
    budget = _budget(args, 20_000)
    split, require, forbid = map(_int_list, (args.split, args.require, args.forbid))
    result = gapsearch.split_search(
        args.base, split, require=require, forbid=forbid,
        k=args.k, budget=budget, seed=args.seed, workers=args.workers)

    hit_docs = []
    for pattern, report in result.hits:
        H = split_lift(pattern)
        hit_docs.append({
            "pattern": pattern.to_dict(),
            "hypergraph": hypergraph_to_dict(H),
            "report": report.to_dict(),
            "features": asdict(gapsearch.structural_filters(H)),
        })
    summary = {
        "base": args.base,
        "split": split,
        "require": require,
        "forbid": forbid,
        "budget": budget,
        "seed": args.seed,
        "hits": hit_docs,
        "stats": {k: result.stats[k] for k in sorted(result.stats)},
    }
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, doc in enumerate(hit_docs):
            name = f"hit_{i:03d}.json"
            (outdir / name).write_text(
                dump_json(doc["hypergraph"], pretty=args.pretty))
            doc["file"] = name
        (outdir / "summary.json").write_text(dump_json(summary, pretty=args.pretty))
    else:
        sys.stdout.write(dump_json(summary, pretty=args.pretty))
    return EXIT_OK if hit_docs else EXIT_UNDECIDED


# ---------------------------------------------------------------- tri

def _cmd_tri_enumerate(args) -> int:
    classes = tri.enumerate_triangulations(args.n)
    if args.eulerian:
        classes = [e for e in classes if tri.is_eulerian(e)]
    rows = tri.embedding_index(classes)
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for row, e in zip(rows, classes):
            name = f"tri{args.n}_{row['index']:05d}.txt"
            (outdir / name).write_text(tri.serialize_embedding(e))
            row["file"] = name
        (outdir / "index.json").write_text(dump_json(rows, pretty=args.pretty))
    else:
        for row, e in zip(rows, classes):
            row["embedding"] = tri.serialize_embedding(e)
        doc = {"n": args.n, "count": len(classes), "classes": rows}
        sys.stdout.write(dump_json(doc, pretty=args.pretty))
    return EXIT_OK


def _cmd_tri_face(args) -> int:
    e = tri.parse_embedding(_read(args.file))
    H = tri.face_hypergraph(e)
    _emit(_serialized_pieces(H, args.pretty), args.out)
    return EXIT_OK


def _cmd_tri_find_gap(args) -> int:
    budget = _budget(args)
    pairs, undecided = tri._scan_gap_classes(args.n, budget)
    doc = {
        "n": args.n,
        "hits": [{
            "embedding": tri.serialize_embedding(e),
            "degrees": sorted(e.degrees()),
            "face_hypergraph": hypergraph_to_dict(tri.face_hypergraph(e)),
            "report": rep.to_dict(),
        } for e, rep in pairs],
    }
    if undecided:
        doc["undecided"] = undecided
    _emit(dump_json(doc, pretty=args.pretty), args.out)
    return EXIT_UNDECIDED if undecided else EXIT_OK


# ------------------------------------------------------------- export

def _cmd_export_dot(args) -> int:
    H = parse_hypergraph(_read(args.file, binary=True))
    _emit(incidence_graph(H).to_dot(), args.out)
    return EXIT_OK


# ------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="PATH",
                     help="write output here instead of stdout")
    common = argparse.ArgumentParser(add_help=False, parents=[out])
    common.add_argument("--pretty", action="store_true",
                        help="indent JSON output")

    p = argparse.ArgumentParser(
        prog="hypercolor",
        description="Exact complete-coloring toolkit for small hypergraphs.")
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="construct a hypergraph family")
    gsub = gen.add_subparsers(dest="family", required=True)
    g3 = gsub.add_parser("theorem3", parents=[common],
                         help="position-transversal grid family")
    g3.add_argument("--k", type=int, required=True)
    g3.add_argument("--r", type=int, required=True)
    gr = gsub.add_parser("regular15", parents=[common],
                         help="3-regular 3-uniform hypergraph on 15 vertices")
    gcu = gsub.add_parser("complete-uniform", parents=[common],
                          help="all k-subsets of m vertices")
    gcu.add_argument("--m", type=int, required=True)
    gcu.add_argument("--k", type=int, required=True)
    gsl = gsub.add_parser("split-lift", parents=[common],
                          help="lift of a complete base by a split pattern")
    gsl.add_argument("--pattern", required=True, metavar="FILE",
                     help="pattern JSON file ('-' for stdin)")
    for sp in (g3, gr, gcu, gsl):
        sp.set_defaults(func=_cmd_gen)

    sv = sub.add_parser("solve", parents=[common],
                        help="coloring queries on a hypergraph JSON file")
    sv.add_argument("file", help="hypergraph JSON path, or '-' for stdin")
    mode = sv.add_mutually_exclusive_group(required=True)
    mode.add_argument("--t", type=int, help="decide a complete t-coloring")
    mode.add_argument("--chi", action="store_true",
                      help="minimum proper coloring size")
    mode.add_argument("--psi", action="store_true",
                      help="maximum complete coloring size")
    mode.add_argument("--spectrum", action="store_true",
                      help="full feasibility report")
    sv.add_argument("--budget", type=int, default=None,
                    help="node budget per decision (default unlimited)")
    sv.add_argument("--seed", type=int, default=0)
    sv.set_defaults(func=_cmd_solve)

    se = sub.add_parser("search", help="randomized structure searches")
    ssub = se.add_subparsers(dest="search_kind", required=True)
    ss = ssub.add_parser("split", parents=[common],
                         help="search vertex splittings of a complete base")
    ss.add_argument("--base", type=int, required=True,
                    help="number of base vertices")
    ss.add_argument("--split", required=True, metavar="LIST",
                    help="base vertices to split, e.g. 0,1,2,3")
    ss.add_argument("--require", default="", metavar="LIST",
                    help="sizes that must be feasible, e.g. 3,6")
    ss.add_argument("--forbid", default="", metavar="LIST",
                    help="sizes that must be infeasible, e.g. 4,5")
    ss.add_argument("--k", type=int, default=3)
    ss.add_argument("--budget", type=int, default=None,
                    help="candidate evaluations (default 20000)")
    ss.add_argument("--seed", type=int, default=0)
    ss.add_argument("--workers", type=int, default=1)
    ss.set_defaults(func=_cmd_search_split)

    tr = sub.add_parser("tri", help="planar triangulation tools")
    tsub = tr.add_subparsers(dest="tri_kind", required=True)
    te = tsub.add_parser("enumerate", parents=[common],
                         help="all classes on n vertices (4..13)")
    te.add_argument("--n", type=int, required=True)
    te.add_argument("--eulerian", action="store_true",
                    help="keep only even-degree classes")
    te.set_defaults(func=_cmd_tri_enumerate)
    tf = tsub.add_parser("face-hypergraph", parents=[common],
                         help="face hypergraph of an embedding file")
    tf.add_argument("file", help="embedding path, or '-' for stdin")
    tf.set_defaults(func=_cmd_tri_face)
    tg = tsub.add_parser("find-gap", parents=[common],
                         help="Eulerian classes with complete 6 but not 5")
    tg.add_argument("--n", type=int, required=True)
    tg.add_argument("--budget", type=int, default=None)
    tg.set_defaults(func=_cmd_tri_find_gap)

    ex = sub.add_parser("export", help="export formats")
    esub = ex.add_subparsers(dest="export_kind", required=True)
    ed = esub.add_parser("dot", parents=[out],
                         help="incidence graph in DOT format")
    ed.add_argument("file", help="hypergraph JSON path, or '-' for stdin")
    ed.set_defaults(func=_cmd_export_dot)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HypergraphError, tri.EmbeddingError, InvalidWitnessError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
