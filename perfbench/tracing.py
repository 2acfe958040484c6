"""Span tracing of quiverforge from outside the program.

Each public function of the layer modules is wrapped at every name a
caller looks it up by (``quiverforge.functors.hom_dim`` and
``quiverforge.reps.hom_dim`` are the same function and get the same
wrapper).  A span records name, parent, op id, start and end; spans stay
in memory and are written out when the run ends.  A span's self time is
its duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

LAYERS = ("linalg", "quiver", "reps", "functors", "three_vertex", "trees", "catalog", "serialize")

# Functions that run an elimination on their matrix arguments.  inverse
# is covered by the mat_solve and rank calls it makes.
ELIM_FUNCS = frozenset(
    ("linalg.rank", "linalg.pivot_columns", "linalg.kernel_basis", "linalg.mat_solve",
     "linalg.image_complement")
)
SETUP_OP = -1
OP_SPAN = "bench.op"
COUNT_SPAN = "trace.count"  # time spent counting matrix entries; belongs to no layer

# Metric names that differ from the span name of the function.
ALIASES = {"reps.oracle": "reps.is_indecomposable_oracle"}


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: List[list] = []  # [name, parent index, op id, start, end]
        self.current: Optional[int] = None
        self.op = SETUP_OP
        self._op_rec: Optional[list] = None
        self.counts: Dict[str, int] = defaultdict(int)  # measured ops only
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, self.current, self.op, self.clock(), None]
        self.current = len(self.spans)
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = self.clock()
        self.current = rec[1]

    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_rec = self._open(OP_SPAN)

    def end_op(self) -> None:
        self._close(self._op_rec)
        self.op = SETUP_OP

    def _count_elim(self, args) -> None:
        rec = self._open(COUNT_SPAN)
        for m in args:
            if hasattr(m, "data") and hasattr(m, "rows"):
                self.counts["linalg.elim.cells"] += m.rows * m.cols
                self.counts["linalg.elim.nnz"] += sum(1 for row in m.data for x in row if x)
        self._close(rec)

    def _wrap(self, name: str, fn):
        tracer = self
        elim = name in ELIM_FUNCS
        delta = name == "reps.delta_matrix"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if elim and tracer.op >= 0:
                tracer._count_elim(args)
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if delta and tracer.op >= 0:
                tracer.counts["reps.delta_matrix.cells"] += out.rows * out.cols
            return out

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layer modules, everywhere
        quiverforge refers to it, and count entries passed to Mat()."""
        from quiverforge import linalg

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"quiverforge.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "quiverforge" and not modname.startswith("quiverforge."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

        init = linalg.Mat.__init__
        tracer = self

        @functools.wraps(init)
        def counted_init(mat, rows, cols, *rest, **kwargs):
            if tracer.op >= 0:
                tracer.counts["linalg.mat.entries"] += rows * cols
            init(mat, rows, cols, *rest, **kwargs)

        self._patch(linalg.Mat, "__init__", counted_init)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# Analysis


def covered_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Duration of each span minus the part of it its children cover."""
    children: Dict[int, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[1] is not None:
            children[s[1]].append(i)
    out = []
    for i, (_, _, _, start, end) in enumerate(spans):
        clipped = [(max(spans[c][3], start), min(spans[c][4], end)) for c in children[i]]
        out.append((end - start) - covered_length(clipped))
    return out


def has_ancestor(spans: Sequence[Sequence], i: int, name: str) -> bool:
    p = spans[i][1]
    while p is not None:
        if spans[p][0] == name:
            return True
        p = spans[p][1]
    return False


# Per-layer metrics the traced run reports, as named in the benchmark's
# documentation.  Calls and self times are per measured root.
CALLS = (
    "linalg.rank", "linalg.image_complement", "reps.delta_matrix", "reps.hom_dim",
    "reps.ext_dim", "reps.ext_unit_basis", "reps.oracle", "functors.sigma",
    "functors.assert_exceptional", "functors.bgp_reflect", "three_vertex.kronecker_rep",
    "quiver.classify_root",
)
SELF = (
    "linalg.rank", "linalg.image_complement", "linalg.kernel_basis", "linalg.mat_solve",
    "linalg.inverse", "reps.delta_matrix", "reps.end_dim", "reps.ext_unit_basis",
    "reps.hom_basis", "reps.oracle", "functors.sigma", "functors.sigma_bar",
    "functors.sigma_under", "functors.bgp_reflect", "functors.maximal_rank_report",
    "three_vertex.construct", "three_vertex.kronecker_rep", "quiver.root_expression",
    "trees.coefficient_quiver", "trees.is_tree", "catalog.check_root",
    "serialize.rep_to_json", "serialize.rep_from_json",
)
INCLUSIVE_SHARE = ("reps.end_dim", "reps.oracle", "functors.sigma")


def layer_totals(spans: Sequence[Sequence], counts: Dict[str, int]) -> dict:
    """Sums over the spans and counters of one traced process, in a JSON
    form that merge_totals() adds across processes."""
    selfs = self_times(spans)
    t = {"ops": 0, "setups": 1, "under_sigma": 0, "counts": dict(counts),
         "calls": defaultdict(int), "self_s": defaultdict(float), "incl": defaultdict(float),
         "setup_self": defaultdict(float)}
    for i, s in enumerate(spans):
        name = s[0]
        if s[2] == SETUP_OP:
            t["setup_self"][name] += selfs[i]
            continue
        t["calls"][name] += 1
        t["self_s"][name] += selfs[i]
        t["incl"][name] += s[4] - s[3]
        if name == "reps.delta_matrix" and has_ancestor(spans, i, "functors.sigma"):
            t["under_sigma"] += 1
    t["ops"] = t["calls"][OP_SPAN]
    return t


def merge_totals(parts: Sequence[dict]) -> dict:
    """Add the layer_totals() of several processes."""
    out: dict = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, dict):
                acc = out.setdefault(key, defaultdict(int))
                for name, v in value.items():
                    acc[name] += v
            else:
                out[key] = out.get(key, 0) + value
    return out


def layer_metrics(totals: dict) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the merged totals of a traced run:
    {name: (value, unit)}.  A ratio whose base is 0 has the value None."""
    n_ops = totals["ops"]
    if n_ops == 0:
        raise ValueError("no measured ops were traced")
    calls, self_s, incl = (defaultdict(int, totals[k]) for k in ("calls", "self_s", "incl"))
    counts = defaultdict(int, totals["counts"])

    out: Dict[str, Tuple[float, str]] = {}
    for m in CALLS:
        out[f"{m}.calls"] = (calls[ALIASES.get(m, m)] / n_ops, "calls/root")
    for m in SELF:
        out[f"{m}.self_s"] = (self_s[ALIASES.get(m, m)] / n_ops, "s/root")
    for layer in LAYERS:
        total = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = (total / n_ops, "s/root")
    op_time = incl[OP_SPAN]
    for m in INCLUSIVE_SHARE:
        # these functions never call themselves, so their spans do not nest
        out[f"{m}.incl_share"] = (incl[ALIASES.get(m, m)] / op_time, "ratio")
    setup_self = totals["setup_self"].get("quiver.enumerate_real_roots", 0.0)
    out["quiver.enumerate_real_roots.self_s"] = (setup_self / totals["setups"], "s")

    cells, nnz = counts["linalg.elim.cells"], counts["linalg.elim.nnz"]
    out["linalg.elim.cells"] = (cells / n_ops, "cells/root")
    out["linalg.elim.nnz"] = (nnz / n_ops, "entries/root")
    out["linalg.elim.density"] = (nnz / cells if cells else None, "ratio")
    out["linalg.mat.entries"] = (counts["linalg.mat.entries"] / n_ops, "entries/root")
    out["reps.delta_matrix.cells"] = (counts["reps.delta_matrix.cells"] / n_ops, "cells/root")

    sigmas = calls["functors.sigma"]
    out["functors.delta_per_stage"] = (totals["under_sigma"] / sigmas if sigmas else None, "builds/stage")
    return out
