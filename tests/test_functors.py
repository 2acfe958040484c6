import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rep, sym_form
from quiverforge.errors import DomainError, InputError
from quiverforge.linalg import GF, QQ, Mat
from quiverforge.quiver import Arrow, Quiver, ringel_form, unit_vector
from quiverforge.reps import (
    Representation,
    block_sum,
    end_dim,
    hom_dim,
    homext,
    simple_rep,
)
from quiverforge.functors import (
    bgp_reflect,
    maximal_rank_report,
    sigma,
    sigma_bar,
    sigma_under,
)
from quiverforge.three_vertex import (
    FamilyParams,
    build_family,
    build_subquiver,
    construct,
    _module,
    embed_subquiver_rep,
    kronecker_rep,
    plan,
)
from quiverforge.quiver import enumerate_real_roots
from reference_functors import (
    collapse,
    find_isomorphism,
    insert_image_vertex,
    maximal_rank_report as ref_maximal_rank_report,
    membership,
    sigma_bar_inv,
    sigma_under_inv,
)
from reference_reps import is_indecomposable_oracle, nonzero_count


def counterexample_rep(q, field=None):
    from quiverforge.linalg import QQ

    field = field or QQ
    return Representation(
        q, {1: 1, 2: 1},
        {"a1": Mat(1, 1, [[1]], field), "a2": Mat(1, 1, [[0]], field)},
        field,
    )


def test_insert_empty_subset_keeps_rep(counterexample_quiver):
    x = counterexample_rep(counterexample_quiver)
    res = insert_image_vertex(x, 2, [])
    assert res.new_rep.dims[res.z_vertex] == 0
    assert all(res.new_rep.mats[a.id] == x.mats[a.id] for a in counterexample_quiver.arrows)
    assert collapse(res.new_rep, res) == x


def test_insert_zero_map_gives_zero_image(counterexample_quiver):
    x = counterexample_rep(counterexample_quiver)
    res = insert_image_vertex(x, 2, ["a2"])
    assert res.new_rep.dims[res.z_vertex] == 0


def test_insert_full_subset_rank_one(counterexample_quiver):
    x = counterexample_rep(counterexample_quiver)
    res = insert_image_vertex(x, 2, ["a1", "a2"])
    assert res.new_rep.dims[res.z_vertex] == 1
    # factorization through the inclusion recovers the original maps
    for aid in ("a1", "a2"):
        assert res.inclusion.mul(res.new_rep.mats[f"g_{aid}"]) == x.mats[aid]


def test_insert_rejects_wrong_head(counterexample_quiver):
    x = counterexample_rep(counterexample_quiver)
    with pytest.raises(InputError):
        insert_image_vertex(x, 1, ["a1"])


def test_collapse_insert_roundtrip_random(q111):
    rng = random.Random(21)
    for _ in range(25):
        x = random_rep(q111, rng, max_dim=3)
        for i in q111.vertices:
            inc = [a.id for a in q111.incoming(i)]
            if not inc:
                continue
            res = insert_image_vertex(x, i, inc)
            assert collapse(res.new_rep, res) == x


def test_maxrank_counterexample_violation(counterexample_quiver):
    x = counterexample_rep(counterexample_quiver)
    report = maximal_rank_report(x)
    assert {
        "vertex": 2, "arrows": ["a2"], "side": "in", "achieved": 0, "required": 1,
    } in report
    assert maximal_rank_report(x)


def test_maxrank_simple_is_clean(q111):
    assert maximal_rank_report(simple_rep(q111, 2)) == []


def test_maxrank_preprojective_clean():
    x = kronecker_rep((2, 1), 2)
    assert maximal_rank_report(x) == []


_MAXRANK_QUIVERS = [
    build_family(FamilyParams(3, 2, 1)),
    # six arrows on each side of vertex 3, and three on each side of 1 and 2
    Quiver((1, 2, 3), [Arrow(f"a{k}", 1 + k % 2, 3) for k in range(6)]
           + [Arrow(f"b{k}", 3, 1 + k % 2) for k in range(6)]),
    Quiver((1, 2), [Arrow(f"k{k}", 1, 2) for k in range(6)]),
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_MAXRANK_QUIVERS), st.sampled_from([QQ, GF(2), GF(3)]), st.data())
def test_maxrank_report_matches_subset_enumeration(q, field, data):
    # dims from 0, sparse entries and matrices repeated across arrows of one
    # shape, so that reps failing at some subset are drawn as well as passing ones
    dims = {v: data.draw(st.integers(0, 3)) for v in q.vertices}
    values = st.sampled_from([0, 0, 1, -1, 2] + ([Fraction(1, 2)] if field == QQ else []))
    mats = {}
    for a in q.arrows:
        rows, cols = dims[a.head], dims[a.tail]
        same = [m for m in mats.values() if (m.rows, m.cols) == (rows, cols)]
        if same and data.draw(st.booleans()):
            mats[a.id] = data.draw(st.sampled_from(same))
        else:
            mats[a.id] = Mat(rows, cols, [[data.draw(values) for _ in range(cols)] for _ in range(rows)], field)
    x = Representation(q, dims, mats, field)
    ref, report = ref_maximal_rank_report(x), maximal_rank_report(x)
    # each violating subset once, over the arrows that carry vectors: an
    # idle arrow, with a zero-dimensional end, adds no vector
    idle = {str(a.id) for a in q.arrows if not (dims[a.head] and dims[a.tail])}
    assert report == [v for v in ref if not idle & set(v["arrows"])]
    for v in ref:
        assert {**v, "arrows": [a for a in v["arrows"] if a not in idle]} in report


def test_maxrank_work_is_polynomial_in_the_arrows(monkeypatch):
    # 20 arrows of a 1-dim space into a 30-dim one, one X_alpha of
    # Q(40, 1, 1), whose vertex 1 has 40 arrows out, and 40 arrows between
    # 1-dim spaces whose first map alone is zero: ranking every subset
    # would take about 2^20, 2^40 and 2^40 eliminations.  With X's dims
    # and zero maps, the 40 arrows out of vertex 1 are idle: listing each
    # violation with every set of them would give 2^40 entries
    from quiverforge import linalg

    q = Quiver((1, 2), [Arrow(f"a{k}", 1, 2) for k in range(20)])
    units = {f"a{k}": Mat(30, 1, [[int(r == k)] for r in range(30)]) for k in range(20)}
    x, _ = construct({1: 0, 2: 2, 3: 1}, FamilyParams(40, 1, 1))
    wide = Quiver((1, 2), [Arrow(f"a{k}", 1, 2) for k in range(40)])
    ones = {f"a{k}": Mat(1, 1, [[int(k > 0)]]) for k in range(40)}
    zero_alone = [{"vertex": v, "arrows": ["a0"], "side": side, "achieved": 0, "required": 1}
                  for v, side in ((1, "out"), (2, "in"))]
    idle = Representation(x.quiver, x.dims, {aid: Mat.zeros(m.rows, m.cols) for aid, m in x.mats.items()}, QQ)
    zero_maps = [{"vertex": v, "arrows": [aid], "side": side, "achieved": 0, "required": 1}
                 for v, aid, side in ((2, "nu1", "in"), (2, "mu1", "out"), (3, "mu1", "in"), (3, "nu1", "out"))]
    echelon, calls = linalg._echelon, []
    monkeypatch.setattr(linalg, "_echelon",
                        lambda data, field, store=None: calls.append(1) or echelon(data, field, store))
    for rep, expected in ((Representation(q, {1: 1, 2: 30}, units, QQ), []), (x, []),
                          (Representation(wide, {1: 1, 2: 1}, ones, QQ), zero_alone), (idle, zero_maps)):
        calls.clear()
        assert maximal_rank_report(rep) == expected
        assert len(calls) <= len(rep.quiver.arrows) ** 2


def test_bgp_plus_at_sink():
    q = build_subquiver(2)
    x = bgp_reflect(simple_rep(q, 1), 2)
    assert x.dims == {1: 1, 2: 2}


def test_bgp_minus_at_source():
    q = build_subquiver(2)
    x = bgp_reflect(simple_rep(q, 2), 1)
    assert x.dims == {1: 2, 2: 1}


def test_cokernel_and_insertion_eliminate_once_per_matrix(monkeypatch):
    # every elimination runs the forward phase _echelon once: a
    # reflection's cokernel is one; an insertion is one for the image
    # basis and one solve of every arrow through it
    from quiverforge import linalg

    x = kronecker_rep((2, 3), 2)
    echelon, calls = linalg._echelon, []
    monkeypatch.setattr(linalg, "_echelon", lambda data, field: calls.append(1) or echelon(data, field))
    bgp_reflect(x, 1)
    assert len(calls) == 1
    calls.clear()
    res = insert_image_vertex(x, 2, ["la1", "la2"])
    assert len(calls) == 2 and collapse(res.new_rep, res) == x


def test_bgp_rejects_concentrated_and_wrong_orientation(q111):
    q = build_subquiver(2)
    with pytest.raises(DomainError):
        bgp_reflect(simple_rep(q, 2), 2)
    with pytest.raises(DomainError):
        bgp_reflect(simple_rep(q, 1), 1)
    # vertex 2 of Q(1,1,1) has la1 and nu1 in and mu1 out
    x = Representation(q111, {1: 1, 2: 1, 3: 1}, {a.id: Mat.zeros(1, 1) for a in q111.arrows}, QQ)
    with pytest.raises(DomainError, match="neither a sink nor a source"):
        bgp_reflect(x, 2)


def test_bgp_at_an_isolated_vertex_only_drops_its_space():
    q = Quiver((1, 2, 3), [Arrow("a", 1, 2)])
    x = Representation(q, {1: 1, 2: 2, 3: 2}, {"a": Mat(2, 1, [[1], [2]], GF(5))}, GF(5))
    y = bgp_reflect(x, 3)
    assert (y.quiver, y.dims, y.mats) == (q, {1: 1, 2: 2, 3: 0}, x.mats)


def test_bgp_series_matches_enumeration():
    for f in (1, 2, 3):
        q = build_subquiver(f)
        for r in enumerate_real_roots(q, 8):
            x = kronecker_rep((r[1], r[2]), f)
            assert x.dims == r


def test_membership_self(q111):
    s = simple_rep(q111, 3)
    rep = membership(s, s)
    assert rep.hom_x_s == 1 and not rep.in_minus_upper


def test_membership_s2_s3(q111):
    rep = membership(simple_rep(q111, 2), simple_rep(q111, 3))
    assert (rep.hom_x_s, rep.hom_s_x, rep.ext_s_x, rep.ext_x_s) == (0, 0, 1, 1)
    assert rep.in_minus_upper and rep.in_minus_lower


def test_membership_requires_exceptional(q111):
    rng = random.Random(30)
    bad = None
    while bad is None:
        cand = random_rep(q111, rng, max_dim=2)
        if end_dim(cand) != 1 or homext(cand, cand).ext != 0:
            bad = cand
    with pytest.raises(DomainError):
        membership(simple_rep(q111, 1), bad)


def test_sigma_bar_trivial_when_no_ext(q111):
    s = simple_rep(q111, 2)
    x = simple_rep(q111, 1)
    # Ext(S(2), S(1)) = 0: no arrows from 2 to 1
    assert sigma_bar(s, x) == x


def test_sigma_bar_block_layout(q111):
    z = sigma_bar(simple_rep(q111, 3), simple_rep(q111, 2))
    assert z.dims == {1: 0, 2: 1, 3: 1}
    assert z.mats["nu1"] == Mat(1, 1, [[1]])
    assert z.mats["mu1"] == Mat(1, 1, [[0]])


def test_sigma_bar_nonzero_count_bookkeeping(q111):
    s = simple_rep(q111, 3)
    x = simple_rep(q111, 2)
    r = homext(s, x).ext
    z = sigma_bar(s, x)
    assert nonzero_count(z) == nonzero_count(x) + r * nonzero_count(s) + r


def test_sigma_under_dims(q111):
    s = simple_rep(q111, 3)
    z = sigma_bar(s, simple_rep(q111, 2))
    u = sigma_under(s, z)
    assert u.dims == {1: 0, 2: 1, 3: 2}


def test_sigma_reflection_dims_and_end_formula(q111):
    s = simple_rep(q111, 3)
    x = simple_rep(q111, 2)
    out = sigma(s, x)
    c = sym_form(q111, x.dims, s.dims)
    assert out.dims == {v: x.dims[v] - c * s.dims[v] for v in q111.vertices}
    gain = ringel_form(q111, x.dims, s.dims) * ringel_form(q111, s.dims, x.dims)
    assert end_dim(out) == end_dim(x) + gain


def test_sigma_requires_hom_vanishing(q111):
    s = simple_rep(q111, 3)
    with pytest.raises(DomainError):
        sigma(s, s)


def _rep23(q, mu, nu):
    """dims (0, 1, 1) with the 1x1 maps mu1: 2 -> 3 and nu1: 3 -> 2."""
    return Representation(q, {1: 0, 2: 1, 3: 1},
                          {"la1": Mat(1, 0, [[]]), "mu1": Mat(1, 1, [[mu]]), "nu1": Mat(1, 1, [[nu]])})


def test_sigma_error_types(q111):
    s3 = simple_rep(q111, 3)
    top3 = _rep23(q111, 0, 1)  # S(3) is its top: Hom(X,S) = 1, Hom(S,X) = 0
    soc3 = _rep23(q111, 1, 0)  # S(3) is its socle: Hom(X,S) = 0, Hom(S,X) = 1
    assert (hom_dim(top3, s3), hom_dim(s3, top3)) == (1, 0)
    assert (hom_dim(soc3, s3), hom_dim(s3, soc3)) == (0, 1)
    cases = [
        (block_sum([s3, s3]), simple_rep(q111, 2)),  # S not exceptional
        (s3, top3),
        (s3, soc3),
    ]
    # sigma raises DomainError here and never ConstructionError
    for s, x in cases:
        with pytest.raises(DomainError):
            sigma(s, x)
    with pytest.raises(DomainError):
        sigma_bar(s3, top3)
    with pytest.raises(DomainError):
        sigma_under(s3, soc3)


@pytest.mark.parametrize("fgh, bound, field, n_stages", [
    ((1, 1, 1), 30, QQ, 431),
    ((2, 1, 1), 20, GF(3), 127),
    ((2, 2, 2), 14, GF(2), 6),
])
def test_sigma_stages_satisfy_the_theorems_that_spare_z(fgh, bound, field, n_stages):
    # sigma builds no delta map of Z = sigma_bar(S,X): Hom(S,Z) = 0 and
    # Ext(Z,S) has the units of Ext(X,S), so its one block sum is sigma_under(S,Z)
    p, stages = FamilyParams(*fgh), 0
    for r in enumerate_real_roots(build_family(p), bound):
        trace = plan(r, p)
        x = _module(trace.stages[0].dims, p, field)
        for st in trace.stages[1:]:
            s = _module(st.s_dims, p, field)
            z = sigma_bar(s, x)
            assert hom_dim(s, z) == 0
            assert homext(x, s).ext_units == homext(z, s).ext_units
            u = sigma(s, x)
            assert u == sigma_under(s, z)
            assert u.dims == st.dims  # the block sum agrees with extend's chain rule
            x, stages = u, stages + 1
    assert stages == n_stages


def test_sigma_bar_inverse_roundtrip(q111):
    s = simple_rep(q111, 3)
    x = simple_rep(q111, 2)
    z = sigma_bar(s, x)
    back = sigma_bar_inv(s, z)
    assert back.dims == x.dims
    assert find_isomorphism(back, x) is not None


def test_sigma_under_inverse_roundtrip(q111):
    s = simple_rep(q111, 3)
    y = sigma_bar(s, simple_rep(q111, 2))
    u = sigma_under(s, y)
    back = sigma_under_inv(s, u)
    assert find_isomorphism(back, y) is not None


def test_sigma_full_roundtrip():
    p = FamilyParams(2, 1, 1)
    q = build_family(p)
    s = simple_rep(q, 3)
    x = embed_subquiver_rep(kronecker_rep((2, 1), 2), p)
    z = sigma(s, x)
    back = sigma_bar_inv(s, sigma_under_inv(s, z))
    assert back.dims == x.dims
    assert find_isomorphism(back, x) is not None


def test_insertion_preserves_indecomposability(counterexample_quiver):
    # indecomposable input stays indecomposable after image-vertex insertion
    f3 = GF(3)
    x = counterexample_rep(counterexample_quiver, f3)
    assert is_indecomposable_oracle(x, 3**6).verdict == "indecomposable"
    res = insert_image_vertex(x, 2, ["a1", "a2"])
    assert is_indecomposable_oracle(res.new_rep, 3**6).verdict == "indecomposable"


def test_ext_vanishing_implies_hom_vanishing_across_vertices():
    # modules with Ext(S(2),-) = Ext(-,S(2)) = 0 have no Hom against S(3),
    # and symmetrically with the roles of vertices 2 and 3 swapped
    from quiverforge.three_vertex import construct

    p = FamilyParams(1, 1, 1)
    q = build_family(p)
    s2, s3 = simple_rep(q, 2), simple_rep(q, 3)
    for r in enumerate_real_roots(q, 7):
        x, _ = construct(r, p)
        if homext(s2, x).ext == 0 and homext(x, s2).ext == 0:
            assert hom_dim(x, s3) == 0 and hom_dim(s3, x) == 0
        if homext(s3, x).ext == 0 and homext(x, s3).ext == 0:
            assert hom_dim(x, s2) == 0 and hom_dim(s2, x) == 0
