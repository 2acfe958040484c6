from quiverforge import catalog
from quiverforge.three_vertex import FamilyParams


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
