"""Catalog verification harness: construct every real root up to a
height bound and run the full check battery on each.

Per-root results are computed independently and the report is sorted by
root, so its content does not depend on the worker count.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import asdict, dataclass, field as dc_field
from typing import List, Optional, Tuple

from .errors import QuiverForgeError
from .linalg import PrimeField
from .quiver import enumerate_real_roots
from .reps import certify_indecomposable, end_dim
from .functors import maximal_rank_report
from .serialize import parse_field_flag
from .three_vertex import FamilyParams, build_family, construct
from .trees import is_tree, nonzero_count

SCHEMA_VERSION = 1
# unread here: perfbench/workloads.py still appends it to check_root's
# task; both go with the benchmark refresh on ROADMAP.md
DEFAULT_ORACLE_BUDGET = 0


@dataclass
class RootRecord:
    alpha: Tuple[int, ...]
    ok: bool
    dims_match: bool = False
    maxrank_ok: bool = False
    maxrank_violations: list = dc_field(default_factory=list)
    tree_ok: bool = False
    nonzero_ok: bool = False
    end_predicted: Optional[int] = None
    end_computed: Optional[int] = None
    end_ok: bool = False
    oracle: str = "skipped"
    trace: Optional[dict] = None
    error: Optional[str] = None
    elapsed: float = 0.0

    def to_json(self) -> dict:
        return {**asdict(self), "alpha": list(self.alpha)}


@dataclass
class CatalogReport:
    family: Tuple[int, int, int]
    bound: int
    field: str
    records: List[RootRecord]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "family": list(self.family),
            "bound": self.bound,
            "field": self.field,
            "status": "pass" if self.ok else "fail",
            "records": [r.to_json() for r in self.records],
        }


def check_root(task) -> RootRecord:
    """Construct and verify a single root.  Takes a picklable tuple
    (f, g, h, alpha, field_flag).

    Over a prime field one elimination of delta(X, X) gives dim End and
    the indecomposability certificate, and the record is ok only when X
    is certified indecomposable.  Over Q nothing certifies
    indecomposability, so the verdict is "skipped"."""
    # perfbench still appends DEFAULT_ORACLE_BUDGET as a sixth field
    f, g, h, alpha_t, field_flag = task[:5]
    start = time.perf_counter()
    p = FamilyParams(f, g, h)
    q = build_family(p)
    field = parse_field_flag(field_flag)
    alpha = {v: alpha_t[k] for k, v in enumerate(q.vertices)}
    rec = RootRecord(alpha=tuple(alpha_t), ok=False)
    try:
        rep, trace = construct(alpha, p, field)
        rec.trace = trace.to_json()
        rec.dims_match = rep.dims == alpha
        rec.maxrank_violations = maximal_rank_report(rep)
        rec.maxrank_ok = not rec.maxrank_violations
        rec.tree_ok = is_tree(rep)
        rec.nonzero_ok = nonzero_count(rep) == rep.total_dim() - 1
        rec.end_predicted = trace.stages[-1].predicted_end
        prime = isinstance(field, PrimeField)
        if prime:
            cert = certify_indecomposable(rep)
            rec.end_computed, rec.oracle = cert.end_dim, cert.verdict
        else:
            rec.end_computed = end_dim(rep)
        rec.end_ok = rec.end_predicted == rec.end_computed
        rec.ok = (
            rec.dims_match
            and rec.maxrank_ok
            and rec.tree_ok
            and rec.nonzero_ok
            and rec.end_ok
            and rec.oracle == ("indecomposable" if prime else "skipped")
        )
    except QuiverForgeError as exc:
        rec.error = str(exc)
        if getattr(exc, "trace", None) is not None:  # a ConstructionError's trace
            rec.trace = exc.trace.to_json()
    except Exception as exc:  # a bug in one root must not take down the whole pool
        traceback.print_exc()
        rec.error = f"internal: {type(exc).__name__}: {exc}"
    rec.elapsed = time.perf_counter() - start
    return rec


def run_catalog(
    p: FamilyParams,
    bound: int,
    field_flag: str = "q",
    jobs: int = 1,
) -> CatalogReport:
    q = build_family(p)
    roots = enumerate_real_roots(q, bound)
    tasks = [(p.f, p.g, p.h, tuple(r[v] for v in q.vertices), field_flag) for r in roots]
    # a pool starts all its workers at once: more than roots or cores idle
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it loads multiprocessing, which a serial run never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(check_root, tasks))
    else:
        records = [check_root(t) for t in tasks]
    records.sort(key=lambda r: r.alpha)
    return CatalogReport((p.f, p.g, p.h), bound, field_flag, records)
