"""Workload definitions, the seeded sampler, the ops and their output checks.

An op is one positive real root.  The program receives only the
``(f, g, h, alpha, field)`` inputs of each op; everything else here is
the benchmark's own bookkeeping.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from quiverforge import catalog, quiver, serialize, three_vertex

# Share of every (family, height) stratum drawn into one pass: each pass
# holds at least MIN_OPS_PER_PASS roots on every workload, and the few
# passes of one run, each in its own process, together draw nearly every
# root of the pool.
PASS_FRACTION = 0.9
MIN_OPS_PER_PASS = 100

# Warm-up root: a family no pool contains, so the first measured op
# starts with program-level state as cold as a fresh `catalog` run.
WARMUP_FAMILY = (1, 2, 1)
WARMUP_HEIGHT = 6

Task = Tuple[int, int, int, Tuple[int, ...], str]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "catalog": catalog.check_root; "construct": construct + JSON round trip
    families: Tuple[Tuple[int, int, int], ...]
    heights: Tuple[int, int]  # inclusive
    field: str


# Why each workload exists is recorded in BENCHMARK.json.
_CATALOG_FAMILIES = ((1, 1, 1), (2, 1, 1), (1, 1, 2), (2, 2, 2))
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("catalog_q", "catalog", _CATALOG_FAMILIES, (10, 26), "q"),
        Workload("catalog_f3", "catalog", _CATALOG_FAMILIES, (6, 20), "fp:3"),
        Workload("construct_q", "construct", ((1, 1, 1), (2, 1, 1)), (20, 45), "q"),
    )
}


def alpha_dict(q, alpha: Sequence[int]) -> dict:
    return {v: alpha[k] for k, v in enumerate(q.vertices)}


def build_pool(w: Workload) -> List[Task]:
    """Every positive real root of the workload's families within its
    height range, as program inputs, in a fixed order."""
    lo, hi = w.heights
    pool = []
    for fam in w.families:
        q = three_vertex.build_family(three_vertex.FamilyParams(*fam))
        for r in quiver.enumerate_real_roots(q, hi):
            alpha = tuple(r[v] for v in q.vertices)
            if sum(alpha) >= lo:
                pool.append((*fam, alpha, w.field))
    return pool


def warmup_task(w: Workload) -> Task:
    """The highest sincere root of height <= WARMUP_HEIGHT of WARMUP_FAMILY."""
    q = three_vertex.build_family(three_vertex.FamilyParams(*WARMUP_FAMILY))
    roots = quiver.enumerate_real_roots(q, WARMUP_HEIGHT)
    sincere = [tuple(r[v] for v in q.vertices) for r in roots if min(r.values()) > 0]
    alpha = max(sincere, key=lambda a: (sum(a), a))
    return (*WARMUP_FAMILY, alpha, w.field)


def draw_pass(pool: Sequence[Task], rng: random.Random) -> List[Task]:
    """A height-stratified sample without replacement, in shuffled order.

    Strata are (family, height).  Each contributes round(PASS_FRACTION * size)
    roots, at least one, so the count per stratum does not depend on the
    seed; only which roots are drawn and their order do.
    """
    strata: Dict[tuple, List[Task]] = {}
    for t in pool:
        strata.setdefault((t[:3], sum(t[3])), []).append(t)
    picked: List[Task] = []
    for key in sorted(strata):
        members = strata[key]
        picked.extend(rng.sample(members, max(1, round(PASS_FRACTION * len(members)))))
    rng.shuffle(picked)
    return picked


# ---------------------------------------------------------------------------
# Ops.  Each kind has a run function, which is what gets timed, and a
# check function, which runs outside the timed region on its result.


@dataclass
class OpOutcome:
    error: Optional[str]  # None when every check passed
    digest_text: str  # deterministic outputs, fed into the pass digest
    verdict: str  # indecomposability verdict: indecomposable / decomposable / inconclusive / skipped
    stages: int  # number of construction stages in the trace


def run_catalog_op(task: Task):
    f, g, h, alpha, field = task
    return catalog.check_root((f, g, h, alpha, field, catalog.DEFAULT_ORACLE_BUDGET))


def check_catalog_op(task: Task, rec) -> OpOutcome:
    alpha = list(task[3])
    stages = (rec.trace or {}).get("stages") or []
    content = rec.to_json()
    content.pop("elapsed")
    error = None
    if rec.error is not None:
        error = f"record error: {rec.error}"
    elif not rec.ok:
        error = "record.ok is false"
    elif list(rec.alpha) != alpha or not rec.dims_match:
        error = "dims do not match alpha"
    elif not stages or stages[-1]["dims"] != alpha:
        error = "final trace stage dims do not match alpha"
    return OpOutcome(error, _canon(content), rec.oracle, len(stages))


def run_construct_op(task: Task):
    """What `quiverforge construct --out` followed by `verify` does: build,
    write the representation as JSON text, read it back."""
    f, g, h, alpha, field = task
    p = three_vertex.FamilyParams(f, g, h)
    q = three_vertex.build_family(p)
    rep, trace = three_vertex.construct(alpha_dict(q, alpha), p, serialize.parse_field_flag(field))
    text = json.dumps(serialize.rep_to_json(rep), sort_keys=True)
    back = serialize.rep_from_json(json.loads(text))
    return rep, trace, text, back


def check_construct_op(task: Task, result) -> OpOutcome:
    rep, trace, text, back = result
    alpha = list(task[3])
    trace_json = trace.to_json()
    error = None
    if [rep.dims[v] for v in rep.quiver.vertices] != alpha:
        error = "dims do not match alpha"
    elif not back == rep:
        error = "JSON round trip does not compare equal"
    return OpOutcome(error, text + _canon(trace_json), "skipped", len(trace_json["stages"]))


OPS: Dict[str, Tuple[Callable, Callable]] = {
    "catalog": (run_catalog_op, check_catalog_op),
    "construct": (run_construct_op, check_construct_op),
}


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def add_to_digest(h, task: Task, text: str) -> None:
    """Feed one (input, deterministic outputs) pair into the sha256 `h`;
    ops are fed in op order."""
    h.update(_canon(list(task[:3]) + [list(task[3]), task[4]]).encode())
    h.update(b"\0")
    h.update(text.encode())
    h.update(b"\n")
