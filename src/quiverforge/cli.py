"""Command line workbench.

Subcommands: roots, construct, verify, homext, catalog.  Exit codes:
0 success, 1 a requested check failed, 2 bad input (a delta map above
reps.DELTA_NNZ_LIMIT nonzeros included), 3 domain error (e.g. not a real
root), 4 internal pipeline assertion or running out of memory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys

from .catalog import run_catalog
from .errors import ConstructionError, DomainError, InputError
from .quiver import classify_root, enumerate_real_roots, quiver_from_json
from .reps import end_dim, euler_form_check, homext
from .functors import maximal_rank_report
from .serialize import parse_field_flag, rep_from_json, rep_to_json
from .three_vertex import ConstructionTrace, FamilyParams, build_family, construct, plan
from .trees import export_dot, is_tree, nonzero_count


def _family(ns) -> FamilyParams:
    f, g, h = ns.family
    return FamilyParams(f, g, h)


# int() alone also reads "1_0", " 1" and the digits of other scripts
_INTEGER = re.compile("[+-]?[0-9]+")


def _parse_root(text: str, q):
    parts = text.split(",")
    if len(parts) != len(q.vertices):
        raise InputError(
            f"root needs {len(q.vertices)} comma-separated entries, got {text!r}"
        )
    if not all(_INTEGER.fullmatch(x) for x in parts):
        raise InputError(f"root entries must be integers: {text!r}")
    return {v: int(parts[k]) for k, v in enumerate(q.vertices)}


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _integer(minimum=None):
    """argparse type: an ASCII integer, [+-]?[0-9]+, no smaller than
    minimum when one is given."""
    def parse(text: str) -> int:
        if not _INTEGER.fullmatch(text):
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        value = int(text)
        if minimum is not None and value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
        return value
    return parse


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(*outputs) -> None:
    """Write each (path, text) pair in order, None or "-" meaning stdout.
    Two paths that resolve to one file are refused before any is opened.
    Every file is opened, last pair first, before any text is written, so
    a path that cannot be opened writes nothing and creates none of the
    files named before it."""
    files = [os.path.realpath(path) for path, _ in outputs if path not in (None, "-")]
    if len(set(files)) < len(files):
        raise InputError("two outputs name the same file")
    try:
        with contextlib.ExitStack() as stack:
            opened = []
            for path, text in reversed(outputs):
                fh = sys.stdout if path in (None, "-") else stack.enter_context(open(path, "w"))
                opened.append((path, fh, text))
            for path, fh, text in reversed(opened):
                fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _write_json(path, obj):
    _write((path, _json_text(obj)))


def cmd_roots(ns) -> int:
    if ns.quiver:
        q = quiver_from_json(_load_json(ns.quiver))
    else:
        q = build_family(_family(ns))
    roots = enumerate_real_roots(q, ns.bound)
    if ns.json:
        out = [
            {
                "alpha": [r[v] for v in q.vertices],
                "class": classify_root(q, r),
            }
            for r in roots
        ]
        _write_json(ns.out, {"bound": ns.bound, "roots": out})
    else:
        for r in roots:
            vec = ", ".join(str(r[v]) for v in q.vertices)
            print(f"({vec})  {classify_root(q, r)}")
    return 0


def cmd_construct(ns) -> int:
    p = _family(ns)
    q = build_family(p)
    alpha = _parse_root(ns.root, q)
    field = parse_field_flag(ns.field)
    rep, trace = construct(alpha, p, field)
    outputs = [(ns.out, _json_text(rep_to_json(rep)))]
    if ns.trace:
        outputs.append((ns.trace, _json_text(trace.to_json())))
    if ns.dot:
        outputs.append((ns.dot, export_dot(rep)))
    _write(*outputs)
    print(
        f"constructed X_({ns.root}) over {ns.field}: "
        f"total dim {rep.total_dim()}, dim End {trace.stages[-1].predicted_end} (predicted)",
        file=sys.stderr,
    )
    return 0


CHECKS = ("maxrank", "tree", "euler", "endo")


def _planned_end_dim(x):
    """plan's End prediction for x when its quiver is a family quiver
    Q(f,g,h) and its dims are a real root; None otherwise."""
    q = x.quiver
    fgh = [sum(1 for a in q.arrows if (a.tail, a.head) == e) for e in ((1, 2), (2, 3), (3, 2))]
    if min(fgh) < 1 or build_family(FamilyParams(*fgh)) != q:
        return None
    try:
        return plan(x.dims, FamilyParams(*fgh)).stages[-1].predicted_end
    except DomainError:
        return None


def cmd_verify(ns) -> int:
    x = rep_from_json(_load_json(ns.rep))
    wanted = [c.strip() for c in ns.checks.split(",") if c.strip()]
    if not wanted:
        raise InputError(f"--checks {ns.checks!r} names no check (choose from {','.join(CHECKS)})")
    for c in wanted:
        if c not in CHECKS:
            raise InputError(f"unknown check {c!r} (choose from {','.join(CHECKS)})")
    report = {}
    if "maxrank" in wanted:
        violations = maximal_rank_report(x)
        report["maxrank"] = {"ok": not violations, "violations": violations}
    if "tree" in wanted:
        report["tree"] = {
            "ok": is_tree(x),
            "nonzero_entries": nonzero_count(x),
            "total_dim": x.total_dim(),
        }
    if "euler" in wanted:
        report["euler"] = {"ok": euler_form_check(x, x, homext(x, x))}
    if "endo" in wanted:
        computed = end_dim(x)
        entry = {"computed": computed}
        if ns.trace:
            trace = ConstructionTrace.from_json(x.quiver, _load_json(ns.trace))
            last = trace.stages[-1].dims
            if last != x.dims:
                raise InputError(f"trace ends at dims {last}, the representation has {x.dims}")
            entry["predicted"] = trace.stages[-1].predicted_end
        else:
            entry["predicted"] = _planned_end_dim(x)
        entry["ok"] = None if entry["predicted"] is None else entry["predicted"] == computed
        report["endo"] = entry
    # a check with no verdict (ok null) is left out of the status
    ok = all(entry["ok"] for entry in report.values() if entry["ok"] is not None)
    report["status"] = "pass" if ok else "fail"
    _write_json(ns.out, report)
    return 0 if ok else 1


def cmd_homext(ns) -> int:
    x = rep_from_json(_load_json(ns.rep_x))
    y = rep_from_json(_load_json(ns.rep_y))
    he = homext(x, y)  # InputError for different quivers or fields
    report = {
        "hom": he.hom,
        "ext": he.ext,
        "euler_ok": euler_form_check(x, y, he),
    }
    _write_json(ns.out, report)
    return 0 if report["euler_ok"] else 1


def cmd_catalog(ns) -> int:
    p = _family(ns)
    report = run_catalog(p, ns.bound, field_flag=ns.field, jobs=ns.jobs)
    _write_json(ns.out, report.to_json())
    n = len(report.records)
    bad = sum(1 for r in report.records if not r.ok)
    print(
        f"catalog Q({p.f},{p.g},{p.h}) bound {ns.bound}: "
        f"{n - bad}/{n} roots verified",
        file=sys.stderr,
    )
    # every enumerated root is a real root, so a record with an error is a bug
    if any(r.error for r in report.records):
        print("internal error: a root raised during construction or checks", file=sys.stderr)
        return 4
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quiverforge",
        description="Exact-arithmetic workbench for quiver representations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_family(sp):
        sp.add_argument(
            "--family", nargs=3, type=_integer(), metavar=("F", "G", "H"), required=True,
            help="arrow multiplicities of the three-vertex quiver",
        )

    sp = sub.add_parser("roots", help="enumerate positive real roots up to a height bound")
    which = sp.add_mutually_exclusive_group(required=True)
    which.add_argument(
        "--family", nargs=3, type=_integer(), metavar=("F", "G", "H"),
        help="arrow multiplicities of the three-vertex quiver",
    )
    which.add_argument("--quiver", help="path to a quiver JSON file instead of --family")
    sp.add_argument("--bound", type=_integer(), required=True, help="height bound")
    sp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("construct", help="build the indecomposable for a real root")
    add_family(sp)
    sp.add_argument("--root", required=True, help="dimension vector, e.g. 2,3,1")
    sp.add_argument("--field", default="q", help="'q' or 'fp:P' (default q)")
    sp.add_argument("--out", default=None, help="representation JSON path (default stdout)")
    sp.add_argument("--trace", default=None, help="construction trace JSON path")
    sp.add_argument("--dot", default=None, help="coefficient quiver DOT path ('-' for stdout)")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("verify", help="run checks against a representation file")
    sp.add_argument("rep", help="representation JSON path")
    sp.add_argument("--checks", default=",".join(CHECKS), help="comma list: maxrank,tree,euler,endo")
    sp.add_argument("--trace", default=None, help="trace JSON for the endo prediction")
    sp.add_argument("--out", default=None, help="report path (default stdout)")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("homext", help="hom/ext dimensions between two representation files")
    sp.add_argument("rep_x", help="representation JSON path")
    sp.add_argument("rep_y", help="representation JSON path")
    sp.add_argument("--out", default=None, help="report path (default stdout)")
    sp.set_defaults(func=cmd_homext)

    sp = sub.add_parser("catalog", help="construct and verify every real root up to a bound")
    add_family(sp)
    sp.add_argument("--bound", type=_integer(), required=True, help="height bound")
    sp.add_argument("--field", default="q", help="'q' or 'fp:P' (default q)")
    sp.add_argument("--jobs", type=_integer(1), default=1, help="worker processes (default 1)")
    sp.add_argument("--out", default=None, help="report path (default stdout)")
    sp.set_defaults(func=cmd_catalog)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    try:
        return ns.func(ns)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConstructionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        if exc.trace is not None:
            print(json.dumps(exc.trace.to_json(), indent=2, sort_keys=True), file=sys.stderr)
        return 4
    except MemoryError:
        print("internal error: out of memory", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
