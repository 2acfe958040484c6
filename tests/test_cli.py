import json
from fractions import Fraction

import pytest
from conftest import check_storage

from quiverforge import cli, reps
from quiverforge.cli import main
from quiverforge.errors import ConstructionError
from quiverforge.quiver import quiver_to_json
from quiverforge.serialize import rep_from_json, rep_to_json
from quiverforge.three_vertex import FamilyParams, build_family, construct
from quiverforge.trees import export_dot


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roots_text_listing(capsys):
    code, out, _ = run(capsys, "roots", "--family", "1", "1", "1", "--bound", "3")
    assert code == 0
    assert "(0, 1, 2)  real" in out
    assert "(0, 2, 1)  real" in out


def test_roots_json_and_quiver_file(tmp_path, capsys):
    code, out, _ = run(capsys, "roots", "--family", "1", "1", "1", "--bound", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert all(r["class"] == "simple" for r in doc["roots"])

    qfile = tmp_path / "q.json"
    qfile.write_text(json.dumps({
        "vertices": [1, 2],
        "arrows": [{"id": "a", "tail": 1, "head": 2}],
    }))
    code, out, _ = run(capsys, "roots", "--quiver", str(qfile), "--bound", "3")
    assert code == 0 and "(1, 1)" in out


def test_roots_rejects_bad_family(capsys):
    code, _, err = run(capsys, "roots", "--family", "2", "0", "1", "--bound", "3")
    assert code == 2 and "error" in err


def test_construct_writes_rep_and_trace(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    tr = tmp_path / "tr.json"
    code, _, _ = run(capsys, "construct", "--family", "1", "1", "1",
                     "--root", "0,1,2", "--out", str(rep), "--trace", str(tr))
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["dims"] == {"1": 0, "2": 1, "3": 2}
    stages = json.loads(tr.read_text())["stages"]
    assert stages[-1]["predicted_end_dim"] == 2


def test_construct_summary_prints_the_predicted_end_dim(tmp_path, monkeypatch, capsys):
    def no_end_dim(rep):
        raise AssertionError("construct must not eliminate the End delta map")

    monkeypatch.setattr(cli, "end_dim", no_end_dim)
    code, _, err = run(capsys, "construct", "--family", "1", "1", "1",
                       "--root", "0,1,2", "--out", str(tmp_path / "rep.json"))
    assert code == 0
    assert "dim End 2 (predicted)" in err


def test_construct_simple_root(tmp_path, capsys):
    rep = tmp_path / "s3.json"
    code, _, _ = run(capsys, "construct", "--family", "1", "1", "1",
                     "--root", "0,0,1", "--out", str(rep))
    assert code == 0
    assert json.loads(rep.read_text())["dims"] == {"1": 0, "2": 0, "3": 1}


def test_construct_imaginary_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "--family", "1", "1", "1",
                       "--root", "1,1,1", "--out", str(tmp_path / "x.json"))
    assert code == 3 and "imaginary" in err


def test_construct_bad_root_string_exits_2(tmp_path, capsys):
    code, _, _ = run(capsys, "construct", "--family", "1", "1", "1",
                     "--root", "1,2", "--out", str(tmp_path / "x.json"))
    assert code == 2


@pytest.mark.parametrize("root", ["1_0,1,2", " 1,1,2", "\u0661,1,2", "1,\u00b2,2"])
def test_construct_reads_only_ascii_integer_roots(root, tmp_path, capsys):
    # int() alone reads "1_0" as 10, " 1" as 1 and the Arabic-Indic one as 1
    code, _, err = run(capsys, "construct", "--family", "1", "1", "1",
                       "--root", root, "--out", str(tmp_path / "x.json"))
    assert code == 2 and "must be integers" in err and not (tmp_path / "x.json").exists()


def test_verify_pass_and_fail(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    tr = tmp_path / "tr.json"
    run(capsys, "construct", "--family", "1", "1", "1",
        "--root", "0,1,2", "--out", str(rep), "--trace", str(tr))
    code, out, _ = run(capsys, "verify", str(rep), "--trace", str(tr))
    assert code == 0
    assert json.loads(out)["status"] == "pass"

    # the two-parallel-arrow counterexample fails the maxrank check
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "quiver": {"vertices": [1, 2],
                   "arrows": [{"id": "a1", "tail": 1, "head": 2},
                              {"id": "a2", "tail": 1, "head": 2}]},
        "field": {"type": "rational"},
        "dims": {"1": 1, "2": 1},
        "mats": {"a1": [["1"]], "a2": [["0"]]},
    }))
    code, out, _ = run(capsys, "verify", str(bad), "--checks", "maxrank")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert {"vertex": 2, "arrows": ["a2"], "side": "in",
            "achieved": 0, "required": 1} in doc["maxrank"]["violations"]


def test_verify_endo_without_a_trace_checks_the_plan(tmp_path, monkeypatch, capsys):
    # X_(0,1,2) of Q(1,1,1): plan predicts dim End 2
    rep = tmp_path / "rep.json"
    run(capsys, "construct", "--family", "1", "1", "1", "--root", "0,1,2", "--out", str(rep))
    code, out, _ = run(capsys, "verify", str(rep), "--checks", "endo")
    assert code == 0
    assert json.loads(out) == {"endo": {"computed": 2, "predicted": 2, "ok": True}, "status": "pass"}

    # the same dims with zero matrices: S(2) + S(3)^2 has dim End 1 + 4
    doc = json.loads(rep.read_text())
    doc["mats"] = {a: [["0"] * len(row) for row in m] for a, m in doc["mats"].items()}
    split = tmp_path / "split.json"
    split.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(split), "--checks", "endo")
    assert code == 1
    assert json.loads(out) == {"endo": {"computed": 5, "predicted": 2, "ok": False}, "status": "fail"}

    # no prediction off the family quivers, nor for a vector that is no real root
    kronecker = tmp_path / "kronecker.json"
    kronecker.write_text(json.dumps({
        "quiver": {"vertices": [1, 2],
                   "arrows": [{"id": "a1", "tail": 1, "head": 2},
                              {"id": "a2", "tail": 1, "head": 2}]},
        "field": {"type": "rational"},
        "dims": {"1": 1, "2": 1},
        "mats": {"a1": [["1"]], "a2": [["0"]]},
    }))
    monkeypatch.setattr(cli, "plan", None)  # never reached
    code, out, _ = run(capsys, "verify", str(kronecker), "--checks", "endo,maxrank")
    assert code == 1
    doc = json.loads(out)
    assert doc["endo"] == {"computed": 1, "predicted": None, "ok": None}
    assert doc["maxrank"]["ok"] is False and doc["status"] == "fail"
    code, out, _ = run(capsys, "verify", str(kronecker), "--checks", "endo")
    assert code == 0 and json.loads(out)["status"] == "pass"
    monkeypatch.undo()
    imaginary = tmp_path / "imaginary.json"
    run(capsys, "construct", "--family", "1", "1", "1", "--root", "1,0,0", "--out", str(imaginary))
    doc = json.loads(imaginary.read_text())
    doc["dims"], doc["mats"] = {"1": 1, "2": 1, "3": 1}, {"la1": [["0"]], "mu1": [["0"]], "nu1": [["0"]]}
    imaginary.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(imaginary), "--checks", "endo")
    assert code == 0
    assert json.loads(out)["endo"] == {"computed": 3, "predicted": None, "ok": None}


def test_verify_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{\"quiver\": 3}")
    code, _, _ = run(capsys, "verify", str(bad))
    assert code == 2
    # an entry with a zero denominator, and an exponent form that Fraction
    # would expand into a 50-million-digit integer
    for entry in ("1/0", "1e50000000"):
        bad.write_text(json.dumps({
            "quiver": {"vertices": [1, 2], "arrows": [{"id": "a", "tail": 1, "head": 2}]},
            "field": {"type": "rational"},
            "dims": {"1": 1, "2": 1},
            "mats": {"a": [[entry]]},
        }))
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2 and "malformed" in err
    # non-integer dimensions and characteristic are not truncated to ints
    rep = tmp_path / "rep.json"
    run(capsys, "construct", "--family", "1", "1", "1", "--root", "1,1,2", "--out", str(rep))
    good = json.loads(rep.read_text())
    for key, value in (("dims", {"1": 1.9, "2": 1, "3": 2.5}), ("field", {"type": "fp", "p": 3.9})):
        bad.write_text(json.dumps({**good, key: value}))
        code, _, _ = run(capsys, "verify", str(bad))
        assert code == 2
    # a field spec or dimension vector that is not a JSON object
    for key, value in (("field", "q"), ("field", [1]), ("dims", [1, 1, 2]), ("dims", "x")):
        bad.write_text(json.dumps({**good, key: value}))
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2 and "not an object" in err, (key, value)
    # a missing field spec still means the rationals
    bad.write_text(json.dumps({k: v for k, v in good.items() if k != "field"}))
    assert run(capsys, "verify", str(bad))[0] == 0


def test_verify_reads_only_ascii_digits(tmp_path, capsys):
    # \\d matches every Unicode digit, so "\u0661\u0662" would read as 12
    doc = {
        "quiver": {"vertices": [1, 2], "arrows": [{"id": "a", "tail": 1, "head": 2}]},
        "field": {"type": "rational"},
        "dims": {"1": 1, "2": 2},
        "mats": {"a": [["12"], ["3/4"]]},
    }
    rep = tmp_path / "digits.json"
    rep.write_text(json.dumps(doc))
    assert run(capsys, "verify", str(rep), "--checks", "maxrank")[0] == 0
    for mat in ([["\u0661\u0662"], ["3/4"]], [["12"], ["\u0663/\u0664"]], [["1_2"], ["3/4"]]):
        rep.write_text(json.dumps({**doc, "mats": {"a": mat}}))
        code, _, err = run(capsys, "verify", str(rep), "--checks", "maxrank")
        assert code == 2 and "malformed" in err, mat


def test_verify_matrix_rows_must_be_json_lists(tmp_path, capsys):
    # the 1x1 matrix [[1]] makes a tree module; iterated as a sequence, the
    # row "1" would read as [1] and the row {"0": 1} as its key, [0]
    bad = tmp_path / "rows.json"
    doc = {
        "quiver": {"vertices": [1, 2], "arrows": [{"id": "a", "tail": 1, "head": 2}]},
        "field": {"type": "rational"},
        "dims": {"1": 1, "2": 1},
        "mats": {"a": [[1]]},
    }
    bad.write_text(json.dumps(doc))
    assert run(capsys, "verify", str(bad))[0] == 0
    for mat in (["1"], [{"0": 1}], {"0": [1]}):
        bad.write_text(json.dumps({**doc, "mats": {"a": mat}}))
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2 and "malformed" in err, mat


def test_verify_unknown_check_exits_2(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    run(capsys, "construct", "--family", "1", "1", "1", "--root", "0,0,1",
        "--out", str(rep))
    code, _, _ = run(capsys, "verify", str(rep), "--checks", "bogus")
    assert code == 2
    # a check list that names no check runs nothing, so it is no pass
    for checks in (",", "", " , "):
        code, out, err = run(capsys, "verify", str(rep), "--checks", checks)
        assert code == 2 and out == "" and "names no check" in err, checks


def test_rep_json_round_trips_fractions_in_lowest_terms(tmp_path, capsys):
    # X over Q(1,1,1) with dims (1,1,0): one nonzero map, -4/6 = -2/3;
    # a "6/3" entry reads back as the int 2
    doc = {
        "quiver": quiver_to_json(build_family(FamilyParams(1, 1, 1))),
        "field": {"type": "rational"},
        "dims": {"1": 1, "2": 1, "3": 0},
        "mats": {"la1": [["-4/6"]], "mu1": [], "nu1": [[]]},
    }
    rep = tmp_path / "frac.json"
    rep.write_text(json.dumps(doc))
    x = rep_from_json(doc)
    assert check_storage(x.mats["la1"]).entries == ({0: Fraction(-2, 3)},)
    assert rep_to_json(x)["mats"]["la1"] == [["-2/3"]]
    doc["mats"]["la1"] = [["6/3"]]
    y = rep_from_json(doc)
    assert check_storage(y.mats["la1"]).entries == ({0: 2},)
    assert rep_to_json(y)["mats"]["la1"] == [["2"]]
    assert run(capsys, "verify", str(rep))[0] == 0
    assert run(capsys, "homext", str(rep), str(rep))[0] == 0


def test_homext_euler(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "construct", "--family", "1", "1", "1", "--root", "0,0,1", "--out", str(a))
    run(capsys, "construct", "--family", "1", "1", "1", "--root", "0,1,0", "--out", str(b))
    code, out, _ = run(capsys, "homext", str(a), str(b))
    assert code == 0
    doc = json.loads(out)
    assert doc == {"hom": 0, "ext": 1, "euler_ok": True}


def test_homext_builds_the_delta_map_twice(tmp_path, monkeypatch, capsys):
    # as rows once, by delta_matrix for hom_dim's kernel side of the check,
    # and as columns once, by homext, whose numbers the report and the
    # Euler check share
    rep = tmp_path / "rep.json"
    run(capsys, "construct", "--family", "1", "1", "1", "--root", "1,1,2", "--out", str(rep))
    calls = []
    for name in ("delta_matrix", "complement_coordinates"):
        real = getattr(reps, name)
        monkeypatch.setattr(reps, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    code, out, _ = run(capsys, "homext", str(rep), str(rep))
    assert code == 0 and json.loads(out)["euler_ok"] is True
    assert sorted(calls) == ["complement_coordinates", "delta_matrix"]


def _dense_file(tmp_path):
    """A 28 KB rep of 1 -> 2 with dims (1, 4000) and a column of ones, whose
    delta(X, X) has 16,004,000 nonzeros."""
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({
        "quiver": {"vertices": [1, 2], "arrows": [{"id": "a", "tail": 1, "head": 2}]},
        "field": {"type": "rational"}, "dims": {"1": 1, "2": 4000}, "mats": {"a": [["1"]] * 4000},
    }))
    return str(path)


def test_a_delta_map_above_the_limit_is_bad_input(tmp_path, capsys):
    import tracemalloc

    dense = _dense_file(tmp_path)
    for args in (("homext", dense, dense), ("verify", dense, "--checks", "endo")):
        tracemalloc.start()
        try:
            code, _, err = run(capsys, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and "16,004,000" in err and f"{reps.DELTA_NNZ_LIMIT:,}" in err
        assert peak < 10 * 10**6


def test_a_failed_tree_count_lists_no_node(tmp_path, capsys):
    import tracemalloc

    # about 100 bytes naming a 10^8-dim space: one coefficient-quiver node
    # per basis vector would take gigabytes
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "quiver": {"vertices": [1], "arrows": []},
        "field": {"type": "rational"}, "dims": {"1": 10**8}, "mats": {},
    }))
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "verify", str(path), "--checks", "tree")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert json.loads(out)["tree"] == {"ok": False, "nonzero_entries": 0, "total_dim": 10**8}
    assert peak < 10 * 10**6


def test_running_out_of_memory_is_an_internal_error(tmp_path, monkeypatch, capsys):
    rep = tmp_path / "rep.json"
    run(capsys, "construct", "--family", "1", "1", "1", "--root", "1,1,2", "--out", str(rep))

    def exhausted(x, y):
        raise MemoryError

    monkeypatch.setattr(cli, "homext", exhausted)
    code, out, err = run(capsys, "homext", str(rep), str(rep))
    assert code == 4 and out == "" and "Traceback" not in err
    assert err == "internal error: out of memory\n"


def test_euler_check_fails_when_hom_and_ext_disagree(tmp_path, monkeypatch, capsys):
    rep = tmp_path / "rep.json"
    run(capsys, "construct", "--family", "1", "1", "1", "--root", "1,1,2", "--out", str(rep))
    x = rep_from_json(json.loads(rep.read_text()))
    assert reps.euler_form_check(x, x, reps.homext(x, x))
    hom_dim = reps.hom_dim
    monkeypatch.setattr(reps, "hom_dim", lambda x, y: hom_dim(x, y) + 1)
    assert not reps.euler_form_check(x, x, reps.homext(x, x))
    code, out, _ = run(capsys, "verify", str(rep), "--checks", "euler")
    assert code == 1 and json.loads(out)["euler"] == {"ok": False}
    code, out, _ = run(capsys, "homext", str(rep), str(rep))
    assert code == 1 and json.loads(out)["euler_ok"] is False


def test_catalog_field_fp_and_exit(tmp_path, capsys):
    out_file = tmp_path / "cat.json"
    code, _, err = run(capsys, "catalog", "--family", "1", "1", "1",
                       "--bound", "5", "--field", "fp:3", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["status"] == "pass"
    assert doc["schema_version"] == 1
    assert all(r["oracle"] == "indecomposable" for r in doc["records"])


def test_catalog_determinism_across_jobs(tmp_path, capsys):
    files = []
    for jobs in ("1", "2"):
        f = tmp_path / f"cat{jobs}.json"
        code, _, _ = run(capsys, "catalog", "--family", "2", "1", "1",
                         "--bound", "6", "--jobs", jobs, "--out", str(f))
        assert code == 0
        files.append(json.loads(f.read_text()))

    def strip_elapsed(doc):
        for r in doc["records"]:
            r.pop("elapsed", None)
        return doc

    assert strip_elapsed(files[0]) == strip_elapsed(files[1])


def test_fp_catalog_determinism_across_jobs(tmp_path, capsys):
    texts = []
    for jobs in ("1", "2"):
        f = tmp_path / f"cat{jobs}.json"
        code, _, _ = run(capsys, "catalog", "--family", "1", "1", "1", "--bound", "8",
                         "--field", "fp:3", "--jobs", jobs, "--out", str(f))
        assert code == 0
        doc = json.loads(f.read_text())
        for r in doc["records"]:
            r.pop("elapsed")
        texts.append(json.dumps(doc, sort_keys=True))
    assert texts[0] == texts[1]


def _usage_error(*args):
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    return exc.value.code


def test_roots_missing_or_malformed_quiver_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "roots", "--quiver", str(tmp_path / "none.json"), "--bound", "3")
    assert code == 2 and "cannot read" in err
    for text in ("{not json", "[1, 2]", '{"vertices": 5, "arrows": []}',
                 '{"vertices": "12", "arrows": []}', '{"vertices": {"a": 1}, "arrows": []}',
                 '{"vertices": [1, 2], "arrows": {}}'):
        bad = tmp_path / "q.json"
        bad.write_text(text)
        code, _, err = run(capsys, "roots", "--quiver", str(bad), "--bound", "3")
        assert code == 2 and "error" in err


def test_roots_takes_a_family_or_a_quiver_file_not_both(tmp_path, capsys):
    qfile = tmp_path / "q.json"
    qfile.write_text(json.dumps({"vertices": [1, 2], "arrows": [{"id": "a", "tail": 1, "head": 2}]}))
    assert _usage_error("roots", "--family", "1", "1", "1", "--quiver", str(qfile), "--bound", "2") == 2
    assert "not allowed with" in capsys.readouterr().err
    assert _usage_error("roots", "--bound", "2") == 2
    assert "one of the arguments --family --quiver is required" in capsys.readouterr().err


def test_verify_missing_or_malformed_trace_file_exits_2(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    run(capsys, "construct", "--family", "1", "1", "1", "--root", "0,1,2", "--out", str(rep))
    code, _, err = run(capsys, "verify", str(rep), "--trace", str(tmp_path / "none.json"))
    assert code == 2 and "cannot read" in err
    for text in ("{not json", "[1, 2]", '{"stages": [{}]}'):
        bad = tmp_path / "tr.json"
        bad.write_text(text)
        code, _, err = run(capsys, "verify", str(rep), "--trace", str(bad))
        assert code == 2 and "error" in err


def _set_s_dims(stages):
    stages[1]["s_dims"] = [1, 0, 0]


def _set_prediction(stages):
    stages[1]["predicted_end_dim"] = 3


def _set_both_predictions(stages):
    stages[0]["predicted_end_dim"] = stages[1]["predicted_end_dim"] = 2


def _set_a_float_prediction(stages):
    stages[1]["predicted_end_dim"] = 2.0


def _set_a_bool_prediction(stages):
    stages[0]["predicted_end_dim"] = True


def _set_a_number_tag(stages):
    stages[1]["tag"] = 5


def _drop_the_base(stages):
    del stages[0]


def _drop_the_last_stage(stages):
    del stages[1]


def _drop_every_stage(stages):
    del stages[:]


@pytest.mark.parametrize("edit,where", [
    (_set_s_dims, "stage 1: dims"),
    (_set_prediction, "stage 1: predicted_end_dim"),
    (_set_both_predictions, "stage 0: predicted_end_dim"),
    (_set_a_float_prediction, "stage 1: predicted_end_dim 2.0 is not an integer"),
    (_set_a_bool_prediction, "stage 0: predicted_end_dim True is not an integer"),
    (_set_a_number_tag, "stage 1: tag 5 is not a string"),
    (_drop_the_base, "stage 0: only stage 0 is a base"),
    (_drop_the_last_stage, "trace ends at dims"),
    (_drop_every_stage, "no stages"),
], ids=["s_dims", "prediction", "both_predictions", "float_prediction", "bool_prediction",
        "number_tag", "no_base", "no_last_stage", "empty"])
def test_verify_rejects_an_edited_trace(edit, where, tmp_path, capsys):
    # X_(0,1,2) of Q(1,1,1): base S(2), then sigma S(3); End dimension 2
    rep, tr = tmp_path / "rep.json", tmp_path / "tr.json"
    run(capsys, "construct", "--family", "1", "1", "1",
        "--root", "0,1,2", "--out", str(rep), "--trace", str(tr))
    doc = json.loads(tr.read_text())
    edit(doc["stages"])
    tr.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(rep), "--checks", "endo", "--trace", str(tr))
    assert code == 2 and where in err


def test_internal_error_prints_the_carried_trace(monkeypatch, tmp_path, capsys):
    _, trace = construct({1: 0, 2: 1, 3: 2}, FamilyParams(1, 1, 1))

    def broken(alpha, p, field):
        raise ConstructionError("boom", trace)

    monkeypatch.setattr(cli, "construct", broken)
    code, _, err = run(capsys, "construct", "--family", "1", "1", "1",
                       "--root", "0,1,2", "--out", str(tmp_path / "rep.json"))
    assert code == 4
    first, rest = err.split("\n", 1)
    assert first == "internal error: boom"
    assert json.loads(rest) == trace.to_json()


def test_bad_jobs_environment_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("QUIVERFORGE_JOBS", "abc")
    assert _usage_error("catalog", "--family", "1", "1", "1", "--bound", "3") == 2
    assert "--jobs" in capsys.readouterr().err
    # only catalog reads the variable
    code, out, _ = run(capsys, "roots", "--family", "1", "1", "1", "--bound", "1")
    assert code == 0 and "simple" in out


@pytest.mark.parametrize("flag,value", [("--jobs", "0"), ("--jobs", "-2")])
def test_out_of_range_catalog_numbers_exit_2(flag, value, capsys):
    code = _usage_error("catalog", "--family", "1", "1", "1", "--bound", "3",
                        "--field", "fp:3", flag, value)
    assert code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1_0", " 1", "\u0663"])
@pytest.mark.parametrize("flag", ["--family", "--bound", "--jobs"])
def test_catalog_numbers_are_ascii_integers(flag, value, capsys):
    # int() alone reads "1_0" as 10, " 1" as 1 and the Arabic-Indic three as 3
    args = {"--family": ["1", "1", "1"], "--bound": ["3"], "--jobs": ["1"]}
    args[flag][-1] = value
    code = _usage_error("catalog", "--field", "fp:3", *(x for f, v in args.items() for x in (f, *v)))
    assert code == 2
    assert flag in capsys.readouterr().err


def test_the_retired_oracle_budget_flag_exits_2(capsys):
    # catalog has no such option: argparse rejects it as an unknown argument
    code = _usage_error("catalog", "--family", "1", "1", "1", "--bound", "3", "--oracle-budget", "5")
    err = capsys.readouterr().err
    assert code == 2 and "unrecognized arguments: --oracle-budget 5" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [["--family", "1", "1", "1_0", "--bound", "3"],
                                  ["--family", "1", "1", "1", "--bound", "\u0663"]])
def test_roots_numbers_are_ascii_integers(args, capsys):
    assert _usage_error("roots", *args) == 2
    assert "expected an integer" in capsys.readouterr().err


def test_unparsable_field_flag_exits_2(capsys):
    code, _, err = run(capsys, "catalog", "--family", "1", "1", "1", "--bound", "3",
                       "--field", "fp:abc")
    assert code == 2 and "field flag" in err


@pytest.mark.parametrize("flag", ["fp:\u00b2", "fp:\u0663"])
def test_a_field_flag_reads_only_ascii_digits(flag, capsys):
    # str.isdigit() passes both: int() raised on "\u00b2" and read "\u0663" as 3
    code, _, err = run(capsys, "catalog", "--family", "1", "1", "1", "--bound", "3",
                       "--field", flag)
    assert code == 2 and "field flag" in err and "Traceback" not in err


_FAMILY = ("--family", "1", "1", "1")


@pytest.mark.parametrize("args", [
    ("roots", *_FAMILY, "--bound", "3", "--json", "--out", "{bad}"),
    ("construct", *_FAMILY, "--root", "1,1,2", "--out", "{bad}"),
    ("construct", *_FAMILY, "--root", "1,1,2", "--out", "{ok}", "--trace", "{bad}"),
    ("construct", *_FAMILY, "--root", "1,1,2", "--out", "{ok}", "--dot", "{bad}"),
    ("verify", "{rep}", "--out", "{bad}"),
    ("homext", "{rep}", "{rep}", "--out", "{bad}"),
    ("catalog", *_FAMILY, "--bound", "3", "--out", "{bad}"),
], ids=["roots-out", "construct-out", "construct-trace", "construct-dot",
        "verify-out", "homext-out", "catalog-out"])
def test_a_failed_output_write_exits_2(args, tmp_path, capsys):
    rep = tmp_path / "rep.json"
    assert run(capsys, "construct", *_FAMILY, "--root", "1,1,2", "--out", str(rep))[0] == 0
    paths = {"bad": str(tmp_path / "missing" / "out"), "ok": str(tmp_path / "ok.json"), "rep": str(rep)}
    code, _, err = run(capsys, *(a.format(**paths) for a in args))
    assert code == 2
    assert "error: cannot write" in err and "Traceback" not in err
    # every target is opened before any is written
    assert not (tmp_path / "ok.json").exists()


def test_construct_dot_dash_is_stdout(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    code, out, _ = run(capsys, "construct", *_FAMILY, "--root", "1,1,2", "--out", str(rep),
                       "--dot", "-")
    assert code == 0 and not (tmp_path / "-").exists()
    x, _ = construct({1: 1, 2: 1, 3: 2}, FamilyParams(1, 1, 1))
    assert out == export_dot(x)
    assert json.loads(rep.read_text()) == rep_to_json(x)


def test_two_outputs_to_one_file_exit_2(tmp_path, capsys):
    # the second spelling resolves to the same file; nothing is opened
    same = str(tmp_path / "a.json")
    other = str(tmp_path / "sub" / ".." / "a.json")
    (tmp_path / "sub").mkdir()
    code, _, err = run(capsys, "construct", *_FAMILY, "--root", "1,1,2", "--out", same,
                       "--trace", same, "--dot", other)
    assert code == 2 and "same file" in err and "Traceback" not in err
    assert not (tmp_path / "a.json").exists()
