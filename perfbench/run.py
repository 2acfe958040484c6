"""quiverforge benchmark: seeded catalog and construct workloads.

    python3 perfbench/run.py --workload catalog_q --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Run from the root of a checkout.  Workloads run one after another; each
pass of a workload is a fresh process (perfbench/worker.py) against the
quiverforge in ``src/``, started once the one before it has ended; with
``--trace 0`` a few set-up probes, each a fresh process, run first.  The
report is human-readable lines, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload and ends with one
JSON object keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 7
# One workload, set-up probes included, ends within this many seconds.
TIME_LIMIT = 170.0


class BenchError(Exception):
    pass


def run_worker(argv: List[str], timeout: float) -> dict:
    """Run worker.py to completion and return the JSON of its last line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(argv)} did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(argv)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def keep_going(elapsed: float, last_pass: float, seconds: float, remaining: float) -> bool:
    """Whole passes only: stop where the run ends nearest to `seconds`,
    and never start a pass that would overrun the time limit."""
    return elapsed + last_pass / 2 < seconds and 1.5 * last_pass < remaining


def root_times(passes: List[dict], column: int) -> List[float]:
    """Each distinct root's median time over the passes that drew it
    (column 1: raw seconds, 2: at reference speed).

    Counting each distinct root once makes the set measured nearly the
    whole pool, whatever the seed."""
    times: Dict[str, List[float]] = {}
    for p in passes:
        for row in p["times"]:
            times.setdefault(json.dumps(row[0]), []).append(row[column])
    return [statistics.median(v) for v in times.values()]


def latency_metrics(times: List[float], prefix: str = "") -> dict:
    return {
        f"{prefix}roots_per_s": [len(times) / sum(times), "1/s"],
        f"{prefix}root_p50_ms": [statistics.median(times) * 1e3, "ms"],
        f"{prefix}root_p90_ms": [statistics.quantiles(times, n=10)[8] * 1e3, "ms"],
    }


def traced_metrics(untraced: dict, passes: List[dict]) -> dict:
    """Per-layer metrics from the traced passes; `untraced` is pass 0
    run without the tracer."""
    from tracing import ALIASES, layer_metrics, merge_totals

    if passes[0]["digest"] != untraced["digest"]:
        raise BenchError("tracing changed the outputs: the traced and untraced digests "
                         "of pass 0 differ")
    totals = merge_totals([p["totals"] for p in passes])
    metrics = {k: list(v) for k, v in layer_metrics(totals).items()}
    oracle_calls = totals["calls"].get(ALIASES["reps.oracle"], 0)
    conclusive = sum(p["conclusive"] for p in passes)
    metrics["reps.oracle.conclusive_ratio"] = [conclusive / oracle_calls if oracle_calls else None, "ratio"]
    metrics["three_vertex.stages"] = [
        sum(p["stages"] for p in passes) / sum(p["attempted"] for p in passes), "stages/root"
    ]
    traced, plain = (sum(row[2] for row in p["times"]) for p in (passes[0], untraced))
    metrics["trace.overhead_ratio"] = [traced / plain, "ratio"]
    return metrics


def run_workload(bench: dict, name: str, seed: int, seconds: float, trace: int) -> dict:
    """Set-up probes (untraced runs only), then passes 0, 1, ... of the
    seed, each in a fresh worker, until `seconds` are used up.  A traced
    run first runs pass 0 untraced, for the trace overhead and to check
    that tracing leaves the outputs unchanged."""
    deadline = time.monotonic() + TIME_LIMIT
    metrics = {}
    if not trace:
        probes = [
            run_worker(["setup", "--workload", name], deadline - time.monotonic())
            for _ in range(SETUP_PROBES)
        ]
        for key in ("setup_s", "raw_setup_s"):
            metrics[key] = [statistics.median(p[key] for p in probes), "s"]

    def run_pass(k: int, traced: int) -> dict:
        return run_worker(
            ["pass", "--workload", name, "--seed", str(seed), "--pass", str(k), "--trace", str(traced)],
            deadline - time.monotonic(),
        )

    t0 = time.monotonic()
    untraced = run_pass(0, 0) if trace else None
    passes: List[dict] = []
    while True:
        t = time.monotonic()
        passes.append(run_pass(len(passes), trace))
        now = time.monotonic()
        if not keep_going(now - t0, now - t, seconds, deadline - now - 5.0):
            break

    if trace:
        metrics.update(traced_metrics(untraced, passes))
    else:
        metrics.update(latency_metrics(root_times(passes, 2)))
        metrics["peak_rss_mb"] = [max(p["peak_rss_mb"] for p in passes), "MB"]
        metrics.update(latency_metrics(root_times(passes, 1), "raw_"))
    metrics["reference_ms"] = [statistics.median(p["reference_ms"] for p in passes), "ms"]
    checked = passes + ([untraced] if trace else [])
    out = {key: sum(p[key] for p in checked) for key in ("attempted", "failed", "uncertified")}
    out["errors"] = [e for p in checked for e in p["errors"]][:5]
    out["roots"] = len({json.dumps(row[0]) for p in passes for row in p["times"]})
    report(name, seed, trace, passes, out, metrics)

    result_metrics = {}
    for m in bench["per_layer" if trace else "end_to_end"]:
        value, unit = metrics.get(m["name"], (None, None))
        if value is None:
            raise BenchError(f"metric {m['name']} has no value")
        if unit != m["unit"]:
            raise BenchError(f"metric {m['name']} measured in {unit}, declared in {m['unit']}")
        result_metrics[m["name"]] = {"value": value, "unit": unit}
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": result_metrics,
    }


def report(name: str, seed: int, trace: int, passes: List[dict], out: dict, metrics: dict) -> None:
    n = out["attempted"]
    sizes = ", ".join(str(p["attempted"]) for p in passes)
    print(f"== {name}  seed {seed}  trace {trace}: {n} ops; passes of {sizes} roots, "
          f"each in a fresh process{' (pass 0 also run untraced)' if trace else ''}")
    if not trace:
        print(f"  root times: median over its passes, at reference speed, for each of "
              f"{out['roots']} distinct roots (raw_* metrics: unscaled)")
    for key in sorted(metrics):
        value, unit = metrics[key]
        shown = "n/a" if value is None else f"{value:14.6g}"
        print(f"  {key:44s} {shown:>14s}  {unit}")
    print(f"  {'failed_frac':44s} {out['failed'] / n:14.6g}  ratio ({out['failed']} of {n} ops)")
    print(f"  {'uncertified_frac':44s} {out['uncertified'] / n:14.6g}  ratio "
          f"({out['uncertified']} of {n} ops inconclusive or skipped)")
    if trace:
        if metrics["reps.oracle.conclusive_ratio"][0] is None:
            print("  reps.oracle.conclusive_ratio is n/a: no oracle calls on this workload")
        print(f"  spans recorded: {sum(p['spans'] for p in passes)} "
              f"(written to .perfbench/spans-{name}-pass<K>.jsonl)")
        print(f"  outputs sha256 (pass 0, traced and untraced): {passes[0]['digest']}")
    else:
        print(f"  outputs sha256 (pass 0): {passes[0]['digest']}")
    for err in out["errors"]:
        print(f"  FAILED: {err}")
    sys.stdout.flush()


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SystemExit makes subprocess.run kill and reap a running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "quiverforge", "__init__.py")):
        print(f"error: no quiverforge sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r} (one of {names} or 'all')", file=sys.stderr)
        return 2

    try:
        if args.workload != "all":
            result = run_workload(bench, args.workload, args.seed, args.seconds, args.trace)
        else:
            result = {n: run_workload(bench, n, args.seed, args.seconds, args.trace) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
