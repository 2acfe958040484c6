import json
import os
import subprocess
import sys

import quiverforge
from quiverforge import catalog
from quiverforge.cli import main
from quiverforge.errors import ConstructionError
from quiverforge.three_vertex import FamilyParams, construct


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


def test_import_loads_no_process_pool():
    # a serial catalog run never starts workers, so it should not pay for
    # importing multiprocessing
    src = os.path.dirname(os.path.dirname(quiverforge.__file__))
    code = "import sys, quiverforge; assert 'concurrent.futures.process' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
