import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clear_memos, flatten, in_star_grammar, rewrite_to_star, segment_word, sym_form

from quiverforge import catalog, three_vertex
from quiverforge.errors import ConstructionError, DomainError, InputError
from quiverforge.functors import bgp_reflect
from quiverforge.linalg import GF, QQ, Mat
from quiverforge.quiver import Arrow, Quiver, apply_word, enumerate_real_roots, height, unit_vector
from quiverforge.reps import end_dim, simple_rep
from quiverforge.serialize import parse_field_flag, rep_to_json
from quiverforge.three_vertex import (
    ConstructionTrace,
    FamilyParams,
    build_family,
    build_subquiver,
    construct,
    kronecker_rep,
    plan,
    predicted_end_dim,
    realise,
    reduce_word,
    sigma_root,
    star_form,
)


def test_family_params_validation():
    with pytest.raises(InputError):
        FamilyParams(2, 0, 1)


def test_build_family_arrow_order():
    q = build_family(FamilyParams(2, 1, 1))
    assert [a.id for a in q.arrows] == ["la1", "la2", "mu1", "nu1"]
    assert q.arrows[0].tail == 1 and q.arrows[0].head == 2
    assert q.arrows[3].tail == 3 and q.arrows[3].head == 2


def test_each_family_has_one_quiver():
    p, same = FamilyParams(2, 1, 1), FamilyParams(2, 1, 1)
    assert p is not same and build_family(p) is build_family(same) is build_family(p)
    root = {1: 4, 2: 3, 3: 6}
    first = rep_to_json(construct(root, p)[0])
    clear_memos()
    assert rep_to_json(construct(root, same)[0]) == first


def _zeta(i, n):
    """The word of zeta_i(n): 2n + 1 alternating letters from i."""
    return tuple([i, 3 - i] * n + [i])


def test_s1_multiplication_table():
    # check s1 * e = reduce_word(1 e) as Weyl group elements on e1, e2, e3
    expected = [(1,), (), (2, 1, 2, 1), (1, 2), (1, 2, 1, 2), (2,), (1, 2, 1, 2, 1)]
    for e, want in zip([(), (1,), (1, 2, 1, 2, 1), (2,), (2, 1, 2), (1, 2), (2, 1, 2, 1)], expected):
        out = reduce_word((1,) + e, f=2)
        assert out == want
        q = build_family(FamilyParams(2, 1, 1))
        for v in q.vertices:
            lhs = apply_word(q, (1,) + e, unit_vector(q, v))
            rhs = apply_word(q, out, unit_vector(q, v))
            assert lhs == rhs, (e, out)


def test_f1_reduction_respects_braid_relation(q111):
    # over f = 1 the vertices 1, 2 satisfy the order-6 braid relation, so
    # the reduced element acts identically on all unit vectors
    for e, want in [(_zeta(1, 3), (1,)), (_zeta(2, 4), (1, 2, 1)),
                    ((1, 2) * 3, ()), ((2, 1) * 5, (1, 2))]:
        r = reduce_word(e, f=1)
        assert r == want
        for v in q111.vertices:
            assert apply_word(q111, e, unit_vector(q111, v)) == apply_word(
                q111, r, unit_vector(q111, v)
            )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from((1, 2)), max_size=12), st.sampled_from((1, 2, 3)))
def test_reduce_word_is_the_element_the_word_equals(w, f):
    # adjacent repeats allowed: s_i^2 = 1 cancels them, and f = 1 also
    # reduces modulo the braid relation, to at most three letters
    q = build_family(FamilyParams(f, 1, 1))
    e = reduce_word(w, f)
    assert all(a != b for a, b in zip(e, e[1:]))
    for v in q.vertices:
        assert apply_word(q, e, unit_vector(q, v)) == apply_word(q, w, unit_vector(q, v))
    assert f != 1 or len(e) <= 3


def test_segment_word_rejections():
    p = FamilyParams(2, 1, 1)
    with pytest.raises(InputError):
        segment_word((1, 2, 1), p.f)  # no letter 3
    with pytest.raises(InputError):
        segment_word((2, 3, 1, 3, 2), p.f)  # interior bare s_1
    with pytest.raises(InputError):
        segment_word((1, 3, 2), p.f)  # leading bare s_1
    with pytest.raises(InputError):
        segment_word((2, 2, 3, 1), p.f)  # not alternating
    with pytest.raises(InputError):
        segment_word((2, 3, 4), p.f)  # not a vertex
    with pytest.raises(InputError):
        segment_word((2, 3, 3, 2), p.f)  # trivial interior block


def test_plan_takes_a_word_without_3_as_one_block():
    # the block is the reduced word itself, modulo the braid relation for f = 1
    assert reduce_word((1, 2, 1), 2) == (1, 2, 1)
    assert reduce_word((2,), 2) == (2,)
    assert reduce_word((), 2) == ()
    assert reduce_word((1, 2, 1, 2), 1) == (2, 1)
    # a root in the subquiver has a descent word with no 3: one block,
    # and so the one base stage
    p = FamilyParams(2, 1, 1)
    roots = [r for r in enumerate_real_roots(build_family(p), 30) if r[3] == 0]
    assert len(roots) == 30
    for r in roots:
        assert 3 not in three_vertex.root_expression(build_family(p), r)[0]
        stages = plan(r, p).stages
        assert len(stages) == 1 and stages[0].s_dims is None and stages[0].dims == r


def test_rewrite_examples_kept_and_rho_cases():
    p = FamilyParams(2, 1, 1)
    assert rewrite_to_star((2, 3, 2), p) == [(2,), (2,)]
    assert rewrite_to_star((1, 2, 3, 2), p) == [(1, 2, 1), (1, 2)]
    assert rewrite_to_star((2, 1, 3, 2), p) == [(2,), (1, 2)]


def test_rewrite_preserves_group_element():
    p = FamilyParams(2, 1, 1)
    q = build_family(p)
    rng = random.Random(42)
    done = 0
    while done < 200:
        w = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(2, 10)))
        try:
            form = rewrite_to_star(w, p)
        except InputError:
            continue
        done += 1
        assert in_star_grammar(form)
        for v in q.vertices:
            assert apply_word(q, w, unit_vector(q, v)) == apply_word(
                q, flatten(form), unit_vector(q, v)
            )


def test_rewrite_f1_restricts_exponents():
    p = FamilyParams(1, 2, 1)
    rng = random.Random(43)
    done = 0
    while done < 100:
        w = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(2, 10)))
        try:
            form = rewrite_to_star(w, p)
        except InputError:
            continue
        done += 1
        assert all(len(c) <= 3 for c in form)


def test_sigma_zeta_root_dictionary():
    p = FamilyParams(2, 1, 1)
    q = build_family(p)
    # zeta_1(1) = s_1 s_2 s_1 -> s_1(e_2) = (2,1,0)
    assert sigma_root(q, (1, 2, 1)) == {1: 2, 2: 1, 3: 0}
    # zeta_2(0) = s_2 -> e_2
    assert sigma_root(q, (2,)) == unit_vector(q, 2)


def test_zeta_is_the_reflection_in_its_sigma_root():
    # zeta_i(n) acts on each e_v as the reflection in chi' = sigma_root(q, zeta_i(n))
    cases = 0
    for f in (1, 2, 3, 4):
        for p in (FamilyParams(f, 1, 1), FamilyParams(f, 2, 3)):
            q = build_family(p)
            for i, n in itertools.product((1, 2), range(13)):
                if (i == 1 and n == 0) or (f == 1 and n > 1):
                    continue
                chi = sigma_root(q, _zeta(i, n))
                for v in q.vertices:
                    ev = unit_vector(q, v)
                    c = sym_form(q, ev, chi)
                    assert apply_word(q, _zeta(i, n), ev) == {
                        u: ev[u] - c * chi[u] for u in q.vertices}, (p, i, n, v)
                cases += 1
    assert cases == 156


def test_sigma_zeta_dims_match_word_action():
    # dims of sigma_{zeta_i(n)} S(3) must equal zeta_i(n)(e_3)
    p = FamilyParams(2, 1, 1)
    q = build_family(p)
    # zeta_1(0) = s_1 fixes e_3, so its chain is S(3) alone
    for i, n in [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]:
        trace = ConstructionTrace(q)
        trace.base(unit_vector(q, 3))
        if (i, n) != (1, 0):
            trace.extend(sigma_root(q, _zeta(i, n)))
        expect = apply_word(q, _zeta(i, n), unit_vector(q, 3))
        assert realise(trace, p).dims == trace.stages[-1].dims == expect


def test_kronecker_rep_dims_and_schur():
    for f in (1, 2, 3):
        q = build_subquiver(f)
        for r in enumerate_real_roots(q, 8):
            x = kronecker_rep((r[1], r[2]), f)
            assert x.dims == r
            assert end_dim(x) == 1


def test_kronecker_rejects_imaginary():
    with pytest.raises(DomainError):
        kronecker_rep((1, 1), 2)


def test_construct_simple(q111):
    p = FamilyParams(1, 1, 1)
    rep, trace = construct(unit_vector(q111, 3), p)
    assert rep == simple_rep(q111, 3)
    assert predicted_end_dim(trace) == 1


def test_construct_support_23(q111):
    p = FamilyParams(1, 1, 1)
    rep, trace = construct({1: 0, 2: 1, 3: 2}, p)
    assert rep.dims == {1: 0, 2: 1, 3: 2}
    assert predicted_end_dim(trace) == 2 == end_dim(rep)


def test_construct_rejects_imaginary(q111):
    p = FamilyParams(1, 1, 1)
    with pytest.raises(DomainError):
        construct({1: 1, 2: 1, 3: 1}, p)


def test_predicted_end_example_trace(q111):
    p = FamilyParams(1, 1, 1)
    _, trace = construct({1: 0, 2: 1, 3: 2}, p)
    stages = trace.to_json()["stages"]
    assert stages[0]["predicted_end_dim"] == 1
    assert stages[-1]["predicted_end_dim"] == 2


def test_construct_matches_prediction_across_catalog():
    p = FamilyParams(2, 1, 1)
    q = build_family(p)
    for r in enumerate_real_roots(q, 7):
        rep, trace = construct(r, p)
        assert rep.dims == r
        assert predicted_end_dim(trace) == end_dim(rep)


# (family, root) for every real root of height 13-18 of Q(f,g,h), f, g, h in 1..3;
# some families have none
_BEYOND_12 = [
    (fam, r)
    for fam in itertools.product((1, 2, 3), repeat=3)
    for r in enumerate_real_roots(build_family(FamilyParams(*fam)), 18)
    if height(r) >= 13
]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_BEYOND_12))
def test_construct_matches_prediction_beyond_height_12(case):
    family, alpha = case
    rep, trace = construct(alpha, FamilyParams(*family))
    assert end_dim(rep) == predicted_end_dim(trace)


def test_construct_matches_prediction_at_the_tallest_roots_to_height_70(q111):
    # delta(X, X) of these has rank 1,500 to 1,950; X_(7,39,24) has
    # dim End 200
    p = FamilyParams(1, 1, 1)
    tallest = sorted(enumerate_real_roots(q111, 70), key=lambda r: (height(r), tuple(r.values())))[-3:]
    assert [tuple(r.values()) for r in tallest] == [(24, 26, 19), (7, 39, 24), (23, 23, 24)]
    ends = []
    for alpha in tallest:
        rep, trace = construct(alpha, p)
        ends.append(end_dim(rep))
        assert ends[-1] == predicted_end_dim(trace)
    assert ends == [90, 200, 24]


def test_star_form_grammar_checks():
    with pytest.raises(ConstructionError):
        star_form([()], 2)
    assert star_form([(), (1, 2)], 2) == [(), (1, 2)]
    with pytest.raises(ConstructionError):
        star_form([(1,), ()], 2)
    with pytest.raises(ConstructionError):
        star_form([(2,), (), ()], 2)


# sha256 over json.dumps(rep_to_json(rep), sort_keys=True) for every real
# root of height <= 14 of the families below, over q and then fp:3; any
# change to a constructed matrix, basis order or dimension changes it
CONSTRUCTION_DIGEST = "453374390c8bf9e25e440648ff2f8b7c03f17a87ddd6e77c5d2a025f017d884c"


def test_construction_output_is_pinned():
    h = hashlib.sha256()
    count = 0
    for fam in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 2)]:
        p = FamilyParams(*fam)
        q = build_family(p)
        for flag in ("q", "fp:3"):
            field = parse_field_flag(flag)
            for r in enumerate_real_roots(q, 14):
                rep, _ = construct(r, p, field)
                h.update(json.dumps(rep_to_json(rep), sort_keys=True).encode())
                count += 1
    assert count == 204
    assert h.hexdigest() == CONSTRUCTION_DIGEST


def test_rational_construction_reduced_mod_p_is_the_prime_field_one():
    # Mat(..., GF(p)) reduces each rational entry of the Q construction mod p
    count = 0
    for fam in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 2)]:
        p = FamilyParams(*fam)
        for r in enumerate_real_roots(build_family(p), 14):
            rep_q, _ = construct(r, p)
            for prime in (2, 3, 5):
                f = GF(prime)
                rep_p, _ = construct(r, p, f)
                assert rep_p.dims == rep_q.dims
                for aid, m in rep_q.mats.items():
                    assert rep_p.mats[aid] == Mat(m.rows, m.cols, m.data, f), (fam, r, prime, aid)
                count += 1
    assert count == 306


def _expected_name(dims, base):
    vec = (dims[0], dims[1], dims[2])
    if sum(vec) == 1:
        return f"S({vec.index(1) + 1})"
    if base:
        assert vec[2] == 0
        return f"subquiver X_({vec[0]},{vec[1]},0)"
    return f"X_{vec}"


def test_stage_labels_follow_the_naming_rule(q111):
    p = FamilyParams(1, 1, 1)
    _, trace = construct({1: 0, 2: 2, 3: 1}, p)
    assert [st.tag for st in trace.stages] == ["base S(3)", "sigma S(2)"]
    _, trace = construct({1: 1, 2: 4, 3: 2}, p)
    assert [st.tag for st in trace.stages] == [
        "base subquiver X_(1,1,0)", "sigma S(3)", "sigma S(2)"]
    for fam in [(1, 1, 1), (2, 1, 1), (1, 2, 3), (2, 2, 2)]:
        p = FamilyParams(*fam)
        for r in enumerate_real_roots(build_family(p), 12):
            _, trace = construct(r, p)
            stages = trace.to_json()["stages"]
            assert stages[0]["tag"] == "base " + _expected_name(stages[0]["dims"], True)
            for st in stages[1:]:
                assert st["tag"] == "sigma " + _expected_name(st["s_dims"], False)


# sha256 over json.dumps(trace.to_json(), sort_keys=True) for the same 204
# (family, field, root) cases, in the same order
TRACE_DIGEST = "9e601521b53d9da355d18342f489663d1aebcc9fca6815298e830e2b90fef180"


def test_construction_trace_is_pinned():
    h = hashlib.sha256()
    count = 0
    for fam in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 2)]:
        p = FamilyParams(*fam)
        q = build_family(p)
        for flag in ("q", "fp:3"):
            field = parse_field_flag(flag)
            for r in enumerate_real_roots(q, 14):
                _, trace = construct(r, p, field)
                # construct realises exactly the field-free plan
                assert plan(r, p).to_json() == trace.to_json()
                h.update(json.dumps(trace.to_json(), sort_keys=True).encode())
                count += 1
    assert count == 204
    assert h.hexdigest() == TRACE_DIGEST


# sha256 over json.dumps(plan(r, p).to_json(), sort_keys=True) for every real
# root of the (family, height bound) cases below, in order: 1,344 roots whose
# rewriting moves an s_1 out of a rho1 block 3,658 times and out of a rho2
# block 415 times and folds a leading s_1 223 times; 519 plans start at S(3),
# 225 of them with a rho1 tail acting as a zeta
TALL_PLAN_DIGEST = "1661b80e34c9314923d10e135803eadde4c8347dae1b8725029ea980709d7111"


def test_tall_plans_are_pinned(monkeypatch):
    def no_matrices(self, *args, **kwargs):
        raise AssertionError("plan must not build a matrix")

    monkeypatch.setattr(Mat, "__init__", no_matrices)
    h = hashlib.sha256()
    count = 0
    for fam, bound in [((1, 1, 1), 200), ((2, 1, 1), 80), ((1, 1, 2), 80), ((3, 1, 1), 40),
                       ((2, 2, 2), 40), ((1, 3, 2), 60), ((4, 2, 3), 25)]:
        p = FamilyParams(*fam)
        for r in enumerate_real_roots(build_family(p), bound):
            h.update(json.dumps(plan(r, p).to_json(), sort_keys=True).encode())
            count += 1
    assert count == 1344
    assert h.hexdigest() == TALL_PLAN_DIGEST


def test_realise_builds_each_distinct_stage_module_once(monkeypatch):
    # 15 stages alternating S(3) and X_(2,1,0) need two stage modules
    real, built = three_vertex._module, []

    def counted(dims, p, field):
        built.append(dict(dims))
        return real(dims, p, field)

    monkeypatch.setattr(three_vertex, "_module", counted)
    p = FamilyParams(2, 1, 1)
    rep, trace = construct({1: 28, 2: 14, 3: 15}, p, GF(3))
    assert rep.dims == {1: 28, 2: 14, 3: 15}
    assert len(trace.stages) == 15
    assert {st.tag for st in trace.stages[1:]} == {"sigma S(3)", "sigma X_(2, 1, 0)"}
    assert built == [{1: 0, 2: 0, 3: 1}, {1: 2, 2: 1, 3: 0}]


def test_plan_is_field_free_and_reaches_past_construction(q111, monkeypatch):
    def no_matrices(self, *args, **kwargs):
        raise AssertionError("plan must not build a matrix")

    roots = enumerate_real_roots(q111, 120)
    assert len(roots) == 437
    monkeypatch.setattr(Mat, "__init__", no_matrices)
    for r in roots:
        trace = plan(r, FamilyParams(1, 1, 1))
        assert trace.stages[-1].dims == r
        assert ConstructionTrace.from_json(q111, trace.to_json()) == trace


def test_stage_tags_are_read_off_the_dims_on_any_quiver():
    # a trace over the Kronecker quiver with vertices "a", "b": the names
    # list the dims in vertex order, and reading the trace back checks them
    q = Quiver(("a", "b"), [Arrow("x", "a", "b"), Arrow("y", "a", "b")])
    trace = ConstructionTrace(q)
    trace.base({"a": 1, "b": 2})
    trace.extend({"a": 0, "b": 1})
    trace.extend({"a": 2, "b": 1})
    assert [st.tag for st in trace.stages] == ["base subquiver X_(1,2)", "sigma S(b)", "sigma X_(2, 1)"]
    doc = trace.to_json()
    assert ConstructionTrace.from_json(q, doc) == trace
    doc["stages"][2]["tag"] = "sigma X_(1, 2)"
    with pytest.raises(InputError, match=r"stage 2: tag should be 'sigma X_\(2, 1\)'"):
        ConstructionTrace.from_json(q, doc)


# X_(3,4,2) of Q(1,1,1) is base S(2), then sigma S(3), then sigma X_(1,1,0)
_ALPHA_342 = {1: 3, 2: 4, 3: 2}


def _patch_call(monkeypatch, name, n, replacement):
    """Make the n-th call of three_vertex's name (sigma or bgp_reflect)
    return replacement(*args)."""
    real, calls = getattr(three_vertex, name), []

    def patched(*args):
        calls.append(args)
        return (replacement if len(calls) == n else real)(*args)

    monkeypatch.setattr(three_vertex, name, patched)


def _raise_injected(s, x):
    raise ConstructionError("injected sigma failure")


def _reflect_raises(x, i):
    raise ConstructionError("injected reflection failure")


def _carried_trace(p, alpha=_ALPHA_342):
    with pytest.raises(ConstructionError) as exc:
        construct(alpha, p)
    assert exc.value.trace is not None
    return exc.value


def test_a_sigma_error_carries_the_trace_up_to_its_stage(q111, monkeypatch):
    p = FamilyParams(1, 1, 1)
    full = plan(_ALPHA_342, p)

    _patch_call(monkeypatch, "sigma", 2, _raise_injected)
    exc = _carried_trace(p)
    assert len(exc.trace.stages) == 3
    assert exc.trace.to_json() == full.to_json()
    # catalog records show the carried trace unchanged; with stage 1 of
    # the first half still memoised, the second sigma call would not come
    clear_memos()
    _patch_call(monkeypatch, "sigma", 2, _raise_injected)
    rec = catalog.check_root((1, 1, 1, (3, 4, 2), "q", 0))
    assert rec.error == "injected sigma failure"
    assert rec.trace == full.to_json()


def test_a_kronecker_parity_error_carries_the_trace_up_to_its_stage(q111, monkeypatch):
    # with reflections that do nothing, X_(1,1,0) = s_1(e_2) never leaves
    # the reversed start orientation
    monkeypatch.setattr(three_vertex, "bgp_reflect", lambda x, i: x)
    exc = _carried_trace(FamilyParams(1, 1, 1))
    assert "reflection parity" in str(exc)
    assert [st.tag for st in exc.trace.stages] == ["base S(2)", "sigma S(3)", "sigma X_(1, 1, 0)"]


def test_a_stage_with_the_wrong_dims_carries_the_trace_up_to_it(q111, monkeypatch):
    _patch_call(monkeypatch, "sigma", 1, lambda s, x: x)
    exc = _carried_trace(FamilyParams(1, 1, 1))
    assert str(exc) == "stage 1 built dims {1: 0, 2: 1, 3: 0}, planned {1: 0, 2: 1, 3: 2}"
    assert [st.tag for st in exc.trace.stages] == ["base S(2)", "sigma S(3)"]


def _memo_cases(bound):
    # Q(3,1,1) for the reflection chains of the 3-arrow Kronecker quiver
    return [(FamilyParams(*fam), flag, r)
            for fam in [(1, 1, 1), (2, 1, 1), (3, 1, 1)]
            for flag in ("q", "fp:3")
            for r in enumerate_real_roots(build_family(FamilyParams(*fam)), bound)]


def _built(p, flag, r):
    rep, trace = construct(r, p, parse_field_flag(flag))
    return rep_to_json(rep), trace.to_json()


def test_a_warm_memo_builds_what_a_cold_one_builds():
    # every memo: realise's modules and prefixes, the reflection chains
    # and the descents, cleared before each cold build
    cases = _memo_cases(30)
    assert len(cases) == 466
    cold = []
    for case in cases:
        clear_memos()
        cold.append(_built(*case))
    clear_memos()
    order = list(range(len(cases)))
    random.Random(18).shuffle(order)
    for k in order:
        assert _built(*cases[k]) == cold[k], cases[k]


def test_every_call_runs_its_own_last_sigma(monkeypatch):
    real, calls = three_vertex.sigma, []
    monkeypatch.setattr(three_vertex, "sigma", lambda s, x: calls.append(s) or real(s, x))
    p = FamilyParams(1, 1, 1)
    for _ in range(2):
        calls.clear()
        _, trace = construct(_ALPHA_342, p)
        assert len(trace.stages) == 3 and len(calls) >= 1
    assert len(calls) == 1


# sha256 over json.dumps(rep_to_json(X_(3,4,2) of Q(1,1,1) over Q), sort_keys=True)
_X342_DIGEST = "ac8b27b646cde5cab876028a1f3fcc45e29e96196e465518be9275dcd8831497"


@pytest.mark.parametrize("n, replacement", [
    (1, lambda s, x: x),  # sigma returns, then the dims check raises
    (2, _raise_injected),
], ids=["wrong-dims", "raises"])
def test_a_failed_stage_leaves_no_memo_entry(q111, monkeypatch, n, replacement):
    with monkeypatch.context() as m:
        _patch_call(m, "sigma", n, replacement)
        exc = _carried_trace(FamilyParams(1, 1, 1))
    assert len(exc.trace.stages) == n + 1
    assert max(len(key) - 2 for key in three_vertex._PREFIXES) == n
    rep, _ = construct(_ALPHA_342, FamilyParams(1, 1, 1))
    assert hashlib.sha256(json.dumps(rep_to_json(rep), sort_keys=True).encode()).hexdigest() == _X342_DIGEST


def _simple_at(x, i):
    """S(i) over the orientation the real reflection gives: the right
    arrows, the wrong dims."""
    return simple_rep(bgp_reflect(x, i).quiver, i, x.field)


# X_(3,4,0) of Q(2,1,1) is the base stage alone: the 2-Kronecker module
# of (3, 4), reflected from S(1) by s_2, s_1, s_2 through (1,2) and (3,2)
_KRONECKER_STEPS = [(2, QQ, True, 1, 2), (2, QQ, False, 3, 2), (2, QQ, True, 3, 4)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("replacement", [lambda x, i: x, _simple_at, _reflect_raises],
                         ids=["unreflected", "wrong-dims", "raises"])
def test_a_failed_reflection_step_leaves_no_chain_entry(n, replacement, monkeypatch):
    p, alpha = FamilyParams(2, 1, 1), {1: 3, 2: 4, 3: 0}
    cold = _built(p, "q", alpha)
    assert sorted(three_vertex._CHAINS) == sorted(_KRONECKER_STEPS)
    clear_memos()
    with monkeypatch.context() as m:
        _patch_call(m, "bgp_reflect", n, replacement)
        # a later true reflection of a wrong module may find no sink
        with pytest.raises((ConstructionError, DomainError)):
            construct(alpha, p)
    assert sorted(three_vertex._CHAINS) == sorted(_KRONECKER_STEPS[:n - 1])
    assert not three_vertex._MODULES and not three_vertex._PREFIXES
    assert _built(p, "q", alpha) == cold


def test_every_memo_entry_is_a_tree_module_of_total_dim_minus_one_nonzeros():
    # the memo stores the packed nonzeros of Ringel's tree modules
    for p, flag, r in _memo_cases(24):
        construct(r, p, parse_field_flag(flag))
    assert len(three_vertex._PREFIXES) > 100
    for (p, field, *stages), packed in three_vertex._PREFIXES.items():
        q = build_family(p)
        trace = ConstructionTrace(q)
        for is_base, vec in stages:
            dims = dict(zip(q.vertices, vec))
            trace.base(dims) if is_base else trace.extend(dims)
        total = sum(trace.stages[-1].dims.values())
        assert sum(len(flat) // 3 for flat in packed) == total - 1, stages



def test_every_field_builds_the_rational_module_reduced_mod_p():
    # X_alpha is a tree module: over Q every stored entry is +-1, and each
    # F_p construction is the Q one reduced mod p, entry for entry
    count = 0
    for fam, bound in [((1, 1, 1), 30), ((2, 1, 1), 30), ((1, 1, 2), 24), ((2, 2, 2), 20)]:
        params = FamilyParams(*fam)
        for alpha in enumerate_real_roots(build_family(params), bound):
            x, _ = construct(alpha, params)
            assert all(v in (1, -1) for m in x.mats.values() for row in m.entries for v in row.values())
            for p in (2, 3, 5):
                xp, _ = construct(alpha, params, GF(p))
                assert xp.dims == x.dims
                for aid, m in x.mats.items():
                    reduced = tuple({c: v % p for c, v in row.items()} for row in m.entries)
                    assert xp.mats[aid].entries == reduced, (fam, alpha, p, aid)
                count += 1
    assert count == 675
