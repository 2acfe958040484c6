"""One benchmark process: a set-up probe, or one pass of a workload.

    python3 perfbench/worker.py setup --workload W
    python3 perfbench/worker.py pass --workload W --seed N --pass K --trace 0|1

Every pass runs in a fresh process, so each root is computed once per
process, as in a real ``quiverforge catalog`` run: no program-level cache
is warm with a root's own earlier result.  It imports quiverforge from
the ``src`` directory beside ``perfbench`` and prints one JSON object as
its last line.  ``run.py`` starts it; it is not meant to be started by
hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional

from speed import REFERENCE_S, SpeedProbe, time_reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program() -> None:
    """Import quiverforge from this checkout and nowhere else."""
    sys.path.insert(0, SRC)
    import quiverforge

    where = os.path.dirname(os.path.abspath(quiverforge.__file__))
    if where != os.path.join(SRC, "quiverforge"):
        raise SystemExit(f"quiverforge imported from {where}, not from {SRC}")


@dataclass
class PassResult:
    tasks: list
    raw: List[float] = field(default_factory=list)  # seconds per op
    scaled: List[float] = field(default_factory=list)  # the same at reference speed
    outcomes: list = field(default_factory=list)
    digest: str = ""  # sha256 of the pass's deterministic outputs
    wall: float = 0.0


def run_pass(w, tasks, probe: SpeedProbe, tracer=None) -> PassResult:
    """Run each task as one op: time the program call, then check its output.

    Each op's outputs are fed into the pass digest and then dropped, so
    memory does not grow with the pass."""
    from workloads import OPS, OpOutcome, add_to_digest

    run_op, check_op = OPS[w.kind]
    res = PassResult(list(tasks))
    digest = hashlib.sha256()
    start = time.perf_counter()
    probe.start()
    for k, task in enumerate(tasks):
        probe.before_op()
        if tracer is not None:
            tracer.begin_op(k)
        t0 = time.perf_counter()
        try:
            result, error = run_op(task), None
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        res.raw.append(t1 - t0)
        probe.record(t1 - t0)
        if error is None:
            try:
                outcome = check_op(task, result)
            except Exception as exc:  # a malformed result fails its op
                outcome = OpOutcome(f"check raised {type(exc).__name__}: {exc}", "", "skipped", 0)
        else:
            outcome = OpOutcome(error, "", "skipped", 0)
        add_to_digest(digest, task, outcome.digest_text)
        outcome.digest_text = ""
        res.outcomes.append(outcome)
    res.scaled = probe.finish()
    res.wall = time.perf_counter() - start
    res.digest = digest.hexdigest()
    return res


def summarize(res: PassResult) -> dict:
    errors = [o.error for o in res.outcomes if o.error is not None]
    return {
        "attempted": len(res.outcomes),
        "failed": len(errors),
        "errors": errors[:5],
        "uncertified": sum(o.verdict in ("inconclusive", "skipped") for o in res.outcomes),
        "conclusive": sum(o.verdict in ("indecomposable", "decomposable") for o in res.outcomes),
        "stages": sum(o.stages for o in res.outcomes),
        "digest": res.digest,
    }


def setup(w):
    """What a user pays before the first root: build the pool and run
    the warm-up op (the import is timed by the caller)."""
    from workloads import OPS, build_pool, warmup_task

    pool = build_pool(w)
    warm = warmup_task(w)
    run_op, check_op = OPS[w.kind]
    outcome = check_op(warm, run_op(warm))
    if outcome.error is not None:
        raise SystemExit(f"warm-up op {warm} failed: {outcome.error}")
    return pool


def cmd_setup(args) -> dict:
    before = statistics.median(time_reference() for _ in range(3))
    t0 = time.perf_counter()
    import_program()
    from workloads import WORKLOADS

    setup(WORKLOADS[args.workload])
    raw = time.perf_counter() - t0
    after = statistics.median(time_reference() for _ in range(3))
    return {"setup_s": raw * 2 * REFERENCE_S / (before + after), "raw_setup_s": raw}


def cmd_pass(args) -> dict:
    """Set up, then run pass K of the seed: the sample drawn from
    random.Random("<seed>/<K>"), traced or not."""
    import_program()
    from workloads import WORKLOADS, build_pool, draw_pass

    w = WORKLOADS[args.workload]
    pool = setup(w)
    tasks = draw_pass(pool, random.Random(f"{args.seed}/{args.pass_index}"))
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if tracer is not None and build_pool(w) != pool:  # traced again so set-up functions get spans
            raise SystemExit("pool differs between traced and untraced set-up")
        probe = SpeedProbe()
        res = run_pass(w, tasks, probe, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    out = summarize(res)
    out["times"] = [
        [list(t[:3]) + [list(t[3]), t[4]], raw, scaled]
        for t, raw, scaled in zip(res.tasks, res.raw, res.scaled)
    ]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["reference_ms"] = probe.median_ms()
    if tracer is not None:
        from tracing import layer_totals

        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        tracer.write(os.path.join(ROOT, ".perfbench", f"spans-{w.name}-pass{args.pass_index}.jsonl"))
        out["totals"] = layer_totals(tracer.spans, tracer.counts)
        out["spans"] = len(tracer.spans)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("setup")
    sp.add_argument("--workload", required=True)
    pp = sub.add_parser("pass")
    pp.add_argument("--workload", required=True)
    pp.add_argument("--seed", type=int, required=True)
    pp.add_argument("--pass", dest="pass_index", type=int, required=True)
    pp.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    out = cmd_setup(args) if args.cmd == "setup" else cmd_pass(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
