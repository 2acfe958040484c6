import json
import os
import subprocess
import sys

import quiverforge
from quiverforge import catalog, reps
from quiverforge.cli import main
from quiverforge.errors import ConstructionError
from quiverforge.linalg import GF
from quiverforge.quiver import enumerate_real_roots
from quiverforge.reps import Certificate, certify_indecomposable
from quiverforge.three_vertex import FamilyParams, build_family, construct
from reference_reps import hom_morphisms, is_indecomposable_oracle


def test_unexpected_exception_becomes_a_failed_record(monkeypatch):
    def broken(alpha, p, field):
        raise RuntimeError("boom")

    monkeypatch.setattr(catalog, "construct", broken)
    report = catalog.run_catalog(FamilyParams(1, 1, 1), 2, jobs=1)
    assert report.records and not report.ok
    for rec in report.records:
        assert rec.ok is False
        assert rec.error == "internal: RuntimeError: boom"
        assert rec.to_json()["error"] == "internal: RuntimeError: boom"


def test_catalog_exits_4_after_writing_the_report_when_a_root_raises(tmp_path, monkeypatch, capsys):
    def broken(alpha, p, field):
        raise ConstructionError("boom")

    monkeypatch.setattr(catalog, "construct", broken)
    out = tmp_path / "cat.json"
    code = main(["catalog", "--family", "1", "1", "1", "--bound", "2", "--out", str(out)])
    assert code == 4
    doc = json.loads(out.read_text())
    assert doc["status"] == "fail"
    assert all(r["error"] == "boom" for r in doc["records"])
    assert "internal error" in capsys.readouterr().err


def test_a_failed_record_keeps_the_carried_trace(monkeypatch):
    def broken(alpha, p, field):
        _, trace = construct(alpha, p, field)
        raise ConstructionError("boom", trace)

    monkeypatch.setattr(catalog, "construct", broken)
    report = catalog.run_catalog(FamilyParams(1, 1, 1), 3, jobs=1)
    assert report.records and not report.ok
    for rec in report.records:
        alpha = dict(zip((1, 2, 3), rec.alpha))
        assert rec.error == "boom"
        assert rec.trace == construct(alpha, FamilyParams(1, 1, 1))[1].to_json()


def test_jobs_are_capped_by_the_roots_and_the_cores(monkeypatch):
    # a forked pool starts all max_workers at once; this fake pool starts
    # no process, and records what it was asked for
    import concurrent.futures

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    strip = lambda report: [{**r.to_json(), "elapsed": 0} for r in report.records]
    serial = strip(catalog.run_catalog(FamilyParams(1, 1, 1), 3, jobs=1))
    for cores, jobs, workers in ((4, 100000, 4), (None, 100000, None), (64, 100000, len(serial)), (64, 3, 3)):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        asked.clear()
        assert strip(catalog.run_catalog(FamilyParams(1, 1, 1), 3, jobs=jobs)) == serial
        assert asked == ([workers] if workers else [])


def test_import_loads_no_process_pool():
    # a serial catalog run never starts workers, so it should not pay for
    # importing multiprocessing
    src = os.path.dirname(os.path.dirname(quiverforge.__file__))
    code = "import sys, quiverforge; assert 'concurrent.futures.process' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_fp_root_eliminates_delta_of_x_once(monkeypatch):
    built, calls = [], []
    construct_, delta_ = catalog.construct, reps.delta_matrix

    def recording_construct(alpha, p, field):
        out = construct_(alpha, p, field)
        built.append(out[0])
        return out

    def recording_delta(x, y):
        calls.append((x, y))
        return delta_(x, y)

    def forbidden(*args):
        raise AssertionError("called on the default path")

    monkeypatch.setattr(catalog, "construct", recording_construct)
    monkeypatch.setattr(reps, "delta_matrix", recording_delta)
    monkeypatch.setattr(catalog, "end_dim", forbidden)
    # with the sixth field perfbench appends
    rec = catalog.check_root((1, 1, 1, (3, 4, 2), "fp:3", catalog.DEFAULT_ORACLE_BUDGET))
    assert rec.ok and rec.oracle == "indecomposable" and rec.end_computed == 4
    x = built[0]
    assert sum(1 for a, b in calls if a is x and b is x) == 1


def test_certificate_agrees_with_the_search_on_catalog_roots():
    # every root of Q(1,1,1) to height 12 over F_3 (dim End <= 8) and of
    # Q(2,2,2) to height 10 over F_2 (dim End <= 5): the exhaustive
    # idempotent search fits its budget on each and must give the
    # certificate's verdict and dim End
    searched = 0
    for fam, bound, p in (((1, 1, 1), 12, 3), ((2, 2, 2), 10, 2)):
        params = FamilyParams(*fam)
        for alpha in enumerate_real_roots(build_family(params), bound):
            x, _ = construct(alpha, params, GF(p))
            cert, search = certify_indecomposable(x), is_indecomposable_oracle(x, 3**8)
            if search.verdict != "inconclusive":
                searched += 1
                assert cert.verdict == search.verdict == "indecomposable"
                assert cert.end_dim == len(hom_morphisms(x, x))
    assert searched == 24 + 14


def test_an_inconclusive_certificate_fails_the_record(monkeypatch):
    monkeypatch.setattr(catalog, "certify_indecomposable", lambda x: Certificate(1, "inconclusive"))
    rec = catalog.check_root((1, 1, 1, (0, 0, 1), "fp:3"))
    assert not rec.ok and rec.oracle == "inconclusive" and rec.error is None


def test_end_predicted_is_the_last_stage_of_the_trace():
    report = catalog.run_catalog(FamilyParams(1, 1, 1), 12, "q")
    assert report.records and report.ok
    for rec in report.records:
        assert rec.end_predicted == rec.trace["stages"][-1]["predicted_end_dim"]
