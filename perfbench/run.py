"""hypercolor benchmark: four workloads, end-to-end or traced per layer.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

Each round of a workload runs in a fresh single-threaded Python process
(``workloads.py``), so the package's caches start empty as they do for a
command-line user.  Rounds repeat until --seconds have passed, at least
one.  A few more processes only do the set-up, to sample set-up time.

The last line printed is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With --trace 0 the metrics are the
end-to-end ones in BENCHMARK.json, medians over the rounds (set-up time
over every process); with --trace 1 they are the per-layer ones, from
rounds run under the span recorder.  Deterministic counts (solver nodes,
search statistics, class and edge counts) must repeat exactly across the
rounds of a run and across runs of the same source, workload and seed,
which ``out/counts.json`` remembers; otherwise the run is not correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("decide", "split_search", "planar12", "grid_bulk")
SETUP_SAMPLES = 7          # set-up-only processes per run, besides the rounds
DEADLINE_S = 170           # a run must end within 180 s
COUNT_UNITS = ("count", "bytes")   # per-layer metrics that must repeat exactly

SINGLE_THREADED = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def _child(workload, seed, trace, started, rnd=0, setup_only=False) -> dict:
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("out of time before the next process")
    env = dict(os.environ, **SINGLE_THREADED)
    env.pop("PYTHONHASHSEED", None)   # hash order varies as it does for a user
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--round", str(rnd)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=left)
    if proc.returncode != 0:
        raise BenchError(f"{workload} round {rnd} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    inputs = sorted((ROOT / "tests" / "data").glob("*.json"))
    inputs += [HERE / name for name in ("workloads.py", "independent.py",
                                        "tracing.py", "expected_status.json")]
    for path in inputs:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _counts_repeat(key: str, counts: dict) -> bool:
    """Record counts under key, or compare them with the ones recorded."""
    OUT.mkdir(exist_ok=True)
    ledger_path = OUT / "counts.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    if key in ledger:
        return ledger[key] == counts
    ledger[key] = counts
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return True


def run_workload(workload, seed, seconds, trace, spec) -> dict:
    started = time.monotonic()
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(_child(workload, seed, 0, started, setup_only=True)["setup_s"])
    rounds = []
    begin = time.monotonic()
    while not rounds or time.monotonic() - begin < seconds:
        rounds.append(_child(workload, seed, trace, started, rnd=len(rounds)))
    setups += [r["setup_s"] for r in rounds]

    correct = True
    for i, r in enumerate(rounds):
        for line in r["errors"] + r["problems"]:
            print(f"round {i}: {line}", file=sys.stderr)
        correct &= not r["problems"]

    def counts_of(r):
        if not trace:
            return r["counts"]
        return dict(r["counts"], layers={k: v for k, v in r["layers"].items()
                                         if spec[k] in COUNT_UNITS})

    counts = counts_of(rounds[0])
    for i, r in enumerate(rounds[1:], 1):
        if counts_of(r) != counts:
            print(f"round {i}: counts differ from round 0", file=sys.stderr)
            correct = False
    key = f"{_source_digest()}:{workload}:seed{seed}:trace{trace}"
    if not _counts_repeat(key, counts):
        print(f"counts differ from an earlier run ({key})", file=sys.stderr)
        correct = False

    med = statistics.median
    if trace:
        # counts agree across rounds (checked above); times take the median
        metrics = {name: rounds[0]["layers"][name] if spec[name] in COUNT_UNITS
                   else med(r["layers"][name] for r in rounds) for name in spec}
        print(f"{workload}: traced wall_s {metrics['trace.wall_s']:.4f} "
              f"over {len(rounds)} round(s)")
    else:
        metrics = {
            "setup_s": med(setups),
            "wall_s": med(r["wall_s"] for r in rounds),
            "work_per_s": med(r["units"] / r["wall_s"] for r in rounds),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
        }
        print(f"{workload}: {len(rounds)} round(s), {len(setups)} set-ups, "
              f"wall_s per round {[round(r['wall_s'], 4) for r in rounds]}")
    if set(metrics) != set(spec):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(spec))} do not "
                         f"match BENCHMARK.json")
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": spec[name]}
                    for name, value in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "hypercolor" / "__init__.py").is_file():
        print(f"error: no hypercolor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    spec = {m["name"]: m["unit"] for m in bench[group]}
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            print(json.dumps(run_workload(name, args.seed, seconds, args.trace, spec)),
                  flush=True)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
