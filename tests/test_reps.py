import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_reps
from conftest import check_storage, random_rep
from quiverforge.errors import DomainError, InputError
from quiverforge.linalg import GF, Mat, QQ, cokernel, hstack, kernel_basis, rank
from quiverforge.quiver import Arrow, Quiver, enumerate_real_roots, ringel_form
from quiverforge import reps
from quiverforge.reps import (
    Representation,
    _fitting_idempotent,
    _hom_blocks,
    _scalar_candidates,
    block_sum,
    certify_indecomposable,
    DELTA_NNZ_LIMIT,
    delta_matrix,
    delta_nnz,
    end_dim,
    euler_form_check,
    hom_dim,
    homext,
    identity_morphism,
    simple_rep,
)
from quiverforge.functors import bgp_reflect, sigma
from quiverforge.three_vertex import (
    FamilyParams,
    _pack,
    _unpack,
    build_family,
    build_subquiver,
    construct,
    kronecker_rep,
)
from reference_linalg import greedy_complement
from reference_reps import hom_morphisms, is_indecomposable_oracle, zero_rep


def test_simple_rep_shapes(q111):
    s = simple_rep(q111, 3)
    assert s.dims == {1: 0, 2: 0, 3: 1}
    assert (s.mats["la1"].rows, s.mats["la1"].cols) == (0, 0)
    assert (s.mats["mu1"].rows, s.mats["mu1"].cols) == (1, 0)
    assert (s.mats["nu1"].rows, s.mats["nu1"].cols) == (0, 1)


def test_simple_end_is_one(q111):
    for v in q111.vertices:
        assert end_dim(simple_rep(q111, v)) == 1


def test_representation_validates_shapes(q111):
    mats = {a.id: Mat.zeros(0, 0) for a in q111.arrows}
    with pytest.raises(InputError):
        Representation(q111, {1: 1, 2: 0, 3: 0}, mats)


def test_direct_sum_with_zero(q111):
    x = simple_rep(q111, 2)
    s = block_sum([x, zero_rep(q111)])
    assert s.dims == x.dims and s.mats == x.mats


def test_direct_sum_block_layout():
    q = build_subquiver(1)
    s = block_sum([simple_rep(q, 1), simple_rep(q, 2)])
    assert s.dims == {1: 1, 2: 1}
    assert s.mats["la1"] == Mat.zeros(1, 1)


def test_direct_sum_dims_add(q111):
    rng = random.Random(2)
    x = random_rep(q111, rng)
    y = random_rep(q111, rng)
    s = block_sum([x, y])
    assert all(s.dims[v] == x.dims[v] + y.dims[v] for v in q111.vertices)


def test_delta_matrix_shape(q111):
    rng = random.Random(9)
    x = random_rep(q111, rng)
    y = random_rep(q111, rng)
    d = check_storage(delta_matrix(x, y))
    assert d.cols == sum(x.dims[v] * y.dims[v] for v in q111.vertices)
    assert d.rows == sum(
        x.dims[a.tail] * y.dims[a.head] for a in q111.arrows
    )


def test_delta_kills_genuine_morphisms(q111):
    rng = random.Random(10)
    for _ in range(10):
        x = random_rep(q111, rng, max_dim=3)
        y = random_rep(q111, rng, max_dim=3)
        for m in hom_morphisms(x, y):
            assert m.is_valid()


def test_hom_between_distinct_simples(q111):
    assert hom_dim(simple_rep(q111, 1), simple_rep(q111, 2)) == 0


def test_hom_end_of_preprojective():
    x = kronecker_rep((2, 1), 2)
    assert end_dim(x) == 1


def test_ext_simple_no_self_extensions(q111):
    for v in q111.vertices:
        s = simple_rep(q111, v)
        assert homext(s, s).ext == 0


def test_ext_counts_arrows():
    q = build_family(FamilyParams(3, 1, 2))
    assert homext(simple_rep(q, 1), simple_rep(q, 2)).ext == 3
    assert homext(simple_rep(q, 3), simple_rep(q, 2)).ext == 2


def test_ext_unit_basis_single_unit(q111):
    units = homext(simple_rep(q111, 3), simple_rep(q111, 2)).ext_units
    assert units == [("nu1", 1, 1)]


def test_end_dim_of_sigma_e3_s2(q111):
    x = sigma(simple_rep(q111, 3), simple_rep(q111, 2))
    assert x.dims == {1: 0, 2: 1, 3: 2}
    assert end_dim(x) == 2


def test_euler_identity_random_pairs(q111):
    rng = random.Random(13)
    for _ in range(50):
        x = random_rep(q111, rng, max_dim=3)
        y = random_rep(q111, rng, max_dim=3)
        assert hom_dim(x, y) - homext(x, y).ext == ringel_form(q111, x.dims, y.dims)
        assert euler_form_check(x, y, homext(x, y))


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_prime_field_results_are_reduced_ints(q111, p):
    # Mat is where sums and products over F_p get reduced; check_storage
    # checks the stored nonzeros and reduced checks the dense view
    def reduced(m):
        check_storage(m)
        return all(type(v) is int and 0 <= v < p for row in m.data for v in row)

    rng = random.Random(p)
    for _ in range(10):
        x = random_rep(q111, rng, max_dim=3, field=GF(p))
        y = random_rep(q111, rng, max_dim=3, field=GF(p))
        d = delta_matrix(x, y)
        k = kernel_basis(d)
        couplings = [("la1", 1, 0, 1, 1)] if y.dims[2] and x.dims[1] else []
        s = block_sum([x, y, x], couplings)
        products = [d.mul(k), d.transpose().mul(d)]
        assert all(map(reduced, [d, k, *products, *s.mats.values()]))


def test_hom_additivity_under_direct_sum(q111):
    rng = random.Random(14)
    for _ in range(8):
        a = random_rep(q111, rng, max_dim=2)
        b = random_rep(q111, rng, max_dim=2)
        c = random_rep(q111, rng, max_dim=2)
        assert hom_dim(block_sum([a, b]), c) == hom_dim(a, c) + hom_dim(b, c)


def test_oracle_simple_indecomposable(q111):
    f2 = GF(2)
    assert is_indecomposable_oracle(simple_rep(q111, 1, f2), 3**6).verdict == "indecomposable"


def test_oracle_split_sum_decomposable(q111):
    f2 = GF(2)
    x = block_sum([simple_rep(q111, 1, f2), simple_rep(q111, 1, f2)])
    res = is_indecomposable_oracle(x, 3**6)
    assert res.verdict == "decomposable"
    e = res.idempotent
    assert e.compose(e) == e and not e.is_zero()
    # the idempotent splits x: both its kernel and image are nonzero
    from quiverforge.linalg import rank
    total_rank = sum(rank(e.parts[v]) for v in q111.vertices)
    assert 0 < total_rank < x.total_dim()


def test_oracle_counterexample_indecomposable(counterexample_quiver):
    for p in (2, 3):
        f = GF(p)
        x = Representation(
            counterexample_quiver,
            {1: 1, 2: 1},
            {"a1": Mat(1, 1, [[1]], f), "a2": Mat(1, 1, [[0]], f)},
            f,
        )
        assert is_indecomposable_oracle(x, 3**6).verdict == "indecomposable"


def test_oracle_requires_prime_field(q111):
    with pytest.raises(InputError):
        is_indecomposable_oracle(simple_rep(q111, 1, QQ), 10)


def test_oracle_budget_exhaustion(q111):
    f3 = GF(3)
    x = block_sum([simple_rep(q111, 1, f3), simple_rep(q111, 1, f3)])
    assert is_indecomposable_oracle(x, 3).verdict == "inconclusive"


def _assert_witness(x, cert):
    e = cert.idempotent
    assert cert.verdict == "decomposable" and e.is_valid() and e.compose(e) == e
    assert not e.is_zero() and e != identity_morphism(x)


def test_certificate_when_p_divides_every_dim(counterexample_quiver):
    # over F_2 with dims (2, 2) and (4, 4) the trace gives no scalar part;
    # a is the Kronecker module with a1 = I and a2 = J_2(0)
    f2 = GF(2)
    a = Representation(counterexample_quiver, {1: 2, 2: 2},
                       {"a1": Mat(2, 2, [[1, 0], [0, 1]], f2), "a2": Mat(2, 2, [[0, 1], [0, 0]], f2)}, f2)
    assert certify_indecomposable(a) == (2, "indecomposable", None)
    aa = block_sum([a, a])
    cert = certify_indecomposable(aa)
    assert cert.end_dim == 8
    _assert_witness(aa, cert)


def test_certificate_splits_a_sum_of_simples(q111):
    # End = M_2(F_3): each b - tr(b)/2 is nilpotent or invertible, so the
    # witness comes from a basis element itself
    x = block_sum([simple_rep(q111, 1, GF(3)), simple_rep(q111, 1, GF(3))])
    cert = certify_indecomposable(x)
    assert cert.end_dim == 4
    _assert_witness(x, cert)


@pytest.mark.parametrize("p", [2, 3])
def test_certificate_splits_summands_at_different_vertices(q111, p):
    # End(S(1) + S(2)) = F_p x F_p: the chain reaches 0 at vertex 1 and
    # stalls at vertex 2; for b the identity of S(1), zero on S(2), the
    # Fitting split of b - 1 projects onto S(2)
    x = block_sum([simple_rep(q111, 1, GF(p)), simple_rep(q111, 2, GF(p))])
    cert = certify_indecomposable(x)
    assert cert[:2] == (2, "decomposable")
    _assert_witness(x, cert)
    assert {v: m.data for v, m in cert.idempotent.parts.items()} == {1: ((0,),), 2: ((1,),), 3: ()}


def test_certificate_inconclusive_without_a_witness(counterexample_quiver):
    # a2 acts on F_2^2 as the companion matrix of t^2 + t + 1: End = F_4,
    # indecomposable but not absolutely, and no element has a Fitting split
    f2 = GF(2)
    x = Representation(counterexample_quiver, {1: 2, 2: 2},
                       {"a1": Mat(2, 2, [[1, 0], [0, 1]], f2), "a2": Mat(2, 2, [[0, 1], [1, 1]], f2)}, f2)
    assert certify_indecomposable(x) == (2, "inconclusive", None)
    assert is_indecomposable_oracle(x, 3**6).verdict == "indecomposable"


def test_certificate_rejects_q_and_zero(q111):
    with pytest.raises(InputError):
        certify_indecomposable(simple_rep(q111, 1, QQ))
    with pytest.raises(DomainError):
        certify_indecomposable(zero_rep(q111, GF(2)))


@pytest.mark.parametrize("p, copies", [(2, 3), (3, 2)])
def test_certificate_starts_from_all_of_x_on_a_cyclic_coefficient_quiver(q111, p, copies):
    # Y has dims (0, 1, 1) and both cycle arrows 1, so JY = Y and the top
    # of a sum of copies of Y is 0: a chain started there reaches 0 at once,
    # although End is M_copies(F_p); the oriented cycle must send it to the
    # full start.  Over F_2 two copies would give no unique scalars, and no chain
    f = GF(p)
    y = Representation(q111, {1: 0, 2: 1, 3: 1},
                       {"la1": Mat(1, 0, [[]], f), "mu1": Mat(1, 1, [[1]], f), "nu1": Mat(1, 1, [[1]], f)}, f)
    x = block_sum([y] * copies)
    cert = certify_indecomposable(x)
    assert cert.end_dim == copies**2
    _assert_witness(x, cert)


def test_certificate_chain_starts_from_the_top_of_a_tree_module(monkeypatch):
    # X_(5,8,4) of Q(1,1,1) over F_3 is a tree module, so each vertex's
    # chain starts from ann (JX)_v, of dim d_v - rank of the maps into v
    x, _ = construct({1: 5, 2: 8, 3: 4}, FamilyParams(1, 1, 1), GF(3))
    chain, starts = reps._chain_reaches_zero, []

    def recording_chain(blocks, lams, layer, field):
        starts.append(len(layer))
        return chain(blocks, lams, layer, field)

    monkeypatch.setattr(reps, "_chain_reaches_zero", recording_chain)
    assert certify_indecomposable(x) == (8, "indecomposable", None)
    tops = [x.dims[v] - rank(hstack([x.mats[a.id] for a in x.quiver.arrows if a.head == v],
                                    rows=x.dims[v], field=x.field))
            for v in x.quiver.vertices]
    assert starts == tops
    assert sum(starts) < x.total_dim()


_CERTIFICATE_QUIVERS = [
    build_family(FamilyParams(1, 1, 1)),
    Quiver((1, 2), [Arrow("a1", 1, 2), Arrow("a2", 1, 2)]),
]


def _certificate_matching_the_full_start(x):
    """certify_indecomposable(x), checked equal to the full-start reference:
    dim End, verdict and the witness's parts."""
    cert, ref = certify_indecomposable(x), reference_reps.certify_indecomposable(x)
    assert cert[:2] == ref[:2]
    assert (cert.idempotent is None) == (ref.idempotent is None)
    assert cert.idempotent is None or cert.idempotent.parts == ref.idempotent.parts
    return cert


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(_CERTIFICATE_QUIVERS),
    st.sampled_from([GF(2), GF(3)]),
    st.integers(1, 3),
    st.integers(0, 2**32),
)
def test_certificate_agrees_with_the_oracle(q, field, summands, seed):
    # one random rep, or the direct sum of two or three smaller ones; those
    # of Q(1,1,1) mostly have an oriented cycle in their coefficient quiver
    # and start each chain from all of X, those of the Kronecker quiver never
    # do and start from the top, and either way the full start must agree
    rng = random.Random(seed)
    parts = [random_rep(q, rng, max_dim=3 if summands == 1 else 2, field=field)
             for _ in range(summands)]
    x = parts[0] if len(parts) == 1 else block_sum(parts)
    cert = _certificate_matching_the_full_start(x)
    assert cert.end_dim == end_dim(x)
    if cert.verdict == "decomposable":
        _assert_witness(x, cert)
    oracle = is_indecomposable_oracle(x, 3**6).verdict
    if oracle != "inconclusive":
        assert cert.verdict in (oracle, "inconclusive")


_SUMMAND_ROOTS = {params: enumerate_real_roots(build_family(params), 10)
                  for params in (FamilyParams(1, 1, 1), FamilyParams(2, 1, 1))}


@settings(max_examples=75, deadline=None)
@given(st.sampled_from(list(_SUMMAND_ROOTS)), st.sampled_from([GF(2), GF(3), GF(5)]), st.data())
def test_certificate_matches_the_full_start_on_sums_of_tree_modules(params, field, data):
    # X_alpha + X_beta of one family is acyclic and decomposable: the chains
    # start from its top, stall where the full start stalls, and the Fitting
    # witness is the one the full start finds
    alpha, beta = (data.draw(st.sampled_from(_SUMMAND_ROOTS[params])) for _ in range(2))
    x = block_sum([construct(alpha, params, field)[0], construct(beta, params, field)[0]])
    assert _certificate_matching_the_full_start(x).verdict == "decomposable"


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_CERTIFICATE_QUIVERS),
    st.sampled_from([GF(2), GF(3)]),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_fitting_witness_matches_the_inverse_built_projection(q, field, split, seed):
    # one random rep, or the direct sum of two, so that splits occur; the
    # projection onto im P along ker P is unique, so one solve must give
    # what [image | 0] [image | kernel]^-1 gave, and None where it did
    rng = random.Random(seed)
    x = (block_sum([random_rep(q, rng, max_dim=2, field=field) for _ in range(2)]) if split
         else random_rep(q, rng, max_dim=3, field=field))
    for b in _hom_blocks(x, x):
        for lam in dict.fromkeys([*_scalar_candidates(x, b), 0]):
            e, ref = _fitting_idempotent(x, b, lam), reference_reps.fitting_idempotent(x, b, lam)
            assert (e is None) == (ref is None)
            assert e is None or e.parts == ref.parts


@pytest.fixture(scope="module")
def catalog_reps_q111_bound10():
    p = FamilyParams(1, 1, 1)
    return [construct(r, p)[0] for r in enumerate_real_roots(build_family(p), 10)]


def _c1_index(x, y, unit):
    """Flat C^1 coordinate of a matrix unit (arrow id, col, row), 1-based."""
    aid, col, row = unit
    off = 0
    for a in x.quiver.arrows:
        if a.id == aid:
            return off + (col - 1) * y.dims[a.head] + row - 1
        off += x.dims[a.tail] * y.dims[a.head]
    raise AssertionError(f"unknown arrow {aid!r}")


def test_homext_matches_separate_eliminations(catalog_reps_q111_bound10):
    # the reference is the pre-homext computation: rank of the delta map
    # for the dimensions, and the original greedy row-space scan for the units
    reps = catalog_reps_q111_bound10
    for x in reps:
        for y in reps:
            d = delta_matrix(x, y)
            chosen = greedy_complement(check_storage(d), d.rows)
            he = homext(x, y)
            assert he.hom == hom_dim(x, y) == d.cols - d.rows + len(chosen)
            assert he.ext == d.rows - rank(d) == len(chosen)
            assert [_c1_index(x, y, u) for u in he.ext_units] == chosen


def _assert_delta_matches_reference(x, y):
    # the reference builds delta dense and eliminates it with the dense
    # column sweep of reference_linalg
    d = check_storage(delta_matrix(x, y))
    assert d == reference_reps.delta_matrix(x, y)
    assert delta_nnz(x, y) == sum(map(len, d.entries))
    hom, units = reference_reps.hom_dim(x, y), reference_reps.ext_units(x, y)
    assert hom_dim(x, y) == hom
    assert [m.parts for m in hom_morphisms(x, y)] == [m.parts for m in reference_reps.hom_basis(x, y)]
    assert homext(x, y) == (hom, len(units), units)


def test_delta_matches_reference_on_catalog_pairs(catalog_reps_q111_bound10):
    reps = catalog_reps_q111_bound10
    for x in reps:
        for y in reps:
            _assert_delta_matches_reference(x, y)
            # the X_alpha over QQ hold only +-1, so delta stores only ints
            assert all(type(v) is int for row in delta_matrix(x, y).entries for v in row.values())


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["q", "fp5"])
def test_end_dim_of_constructed_roots_matches_dense_rank_and_prediction(field):
    # end_dim ranks delta(X, X) by the sparse forward phase alone; the
    # reference eliminates a dense delta and shares no code with it; over
    # F_5 every lead, 4 = -1 too, is scaled by its inverse mod 5
    p = FamilyParams(2, 1, 1)
    for alpha in enumerate_real_roots(build_family(p), 14):
        x, trace = construct(alpha, p, field)
        assert end_dim(x) == reference_reps.hom_dim(x, x) == trace.stages[-1].predicted_end
        if field != QQ:
            assert certify_indecomposable(x).end_dim == end_dim(x)


_DIFFERENTIAL_QUIVERS = [
    build_family(FamilyParams(2, 1, 2)),
    Quiver((1, 2), [Arrow("la1", 1, 2), Arrow("la2", 1, 2)]),
    # an odd cycle of edges, 1 -> 2 -> 3 and 1 -> 3: on a bipartite quiver, flipping
    # the sign of every Y term of delta moves no pivot, so no output shows it
    Quiver((1, 2, 3), [Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 1, 3)]),
]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_DIFFERENTIAL_QUIVERS),
    st.sampled_from([QQ, GF(3)]),
    st.integers(0, 2**32),
)
# pairs over the odd cycle whose Hom and Ext move if delta's Y terms lose their sign
@example(_DIFFERENTIAL_QUIVERS[2], QQ, 151)
@example(_DIFFERENTIAL_QUIVERS[2], GF(3), 132)
def test_delta_matches_reference_on_random_pairs(q, field, seed):
    # random_rep draws each vertex dimension from 0..max_dim
    rng = random.Random(seed)
    x = random_rep(q, rng, max_dim=3, field=field)
    y = random_rep(q, rng, max_dim=3, field=field)
    _assert_delta_matches_reference(x, y)


def _drawn_rep(q, field, dims, entry):
    """The representation of q with these dims whose matrix entries are
    drawn one by one from entry()."""
    mats = {a.id: Mat(dims[a.head], dims[a.tail],
                      [[entry() for _ in range(dims[a.tail])] for _ in range(dims[a.head])], field)
            for a in q.arrows}
    return Representation(q, dims, mats, field)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(_DIFFERENTIAL_QUIVERS),
    st.sampled_from([QQ, GF(2), GF(3)]),
    st.lists(st.integers(0, 3), min_size=6, max_size=6),
    st.data(),
)
# on the Kronecker quiver 1 => 2: C^1 empty, then C^0 empty; then the zero
# representation, where both are; these draw no entries, so data is None
@example(_DIFFERENTIAL_QUIVERS[1], QQ, [2, 0, 0, 3, 0, 0], None)
@example(_DIFFERENTIAL_QUIVERS[1], GF(2), [2, 0, 0, 0, 3, 0], None)
@example(_DIFFERENTIAL_QUIVERS[0], GF(3), [0, 0, 0, 0, 0, 0], None)
# Kronecker X, Y of dims (2, 2) given entry by entry: column 1 of X_la1 and
# row 0 of Y_la1 are zero, so the C^1 row (la1, 2, 1) is empty
@example(_DIFFERENTIAL_QUIVERS[1], QQ, [2, 2, 0, 2, 2, 0], [
    1, 0, Fraction(1, 2), 0, Fraction(-2, 3), 2, 0, 1,
    0, 0, 1, -1, 1, Fraction(1, 2), 0, 0,
])
def test_sparse_delta_matches_dense_reference_path(q, field, dims, data):
    # X takes dims[:n] and Y dims[3:3 + n]; any vertex dimension may be 0;
    # an explicit example passes its entries as a list in place of data
    n = len(q.vertices)
    fractions = [Fraction(1, 2), Fraction(-2, 3)] if field == QQ else []
    values = st.sampled_from([field.zero(), field.zero(), field.one(), field.of(-1), field.of(2), *fractions])
    entry = iter(data).__next__ if isinstance(data, list) else lambda: data.draw(values)
    x = _drawn_rep(q, field, dict(zip(q.vertices, dims[:n])), entry)
    y = _drawn_rep(q, field, dict(zip(q.vertices, dims[3:3 + n])), entry)
    _assert_delta_matches_reference(x, y)


def test_end_dim_and_homext_never_build_delta_dense(monkeypatch):
    # X_(5,8,4) of Q(1,1,1): C^0 has 105 units and C^1 has 104
    x, _ = construct({1: 5, 2: 8, 3: 4}, FamilyParams(1, 1, 1))
    x3, _ = construct({1: 5, 2: 8, 3: 4}, FamilyParams(1, 1, 1), GF(3))
    d = delta_matrix(x, x)
    assert d.rows * d.cols > 10**4
    view, shapes = Mat.data, []

    def recording_view(m):
        shapes.append((m.rows, m.cols))
        return view.fget(m)

    monkeypatch.setattr(Mat, "data", property(recording_view))
    assert end_dim(x) == 8
    assert homext(x, x)[:2] == (8, 7)  # a real root: dim End - dim Ext^1 = 1
    assert certify_indecomposable(x3) == (8, "indecomposable", None)
    assert (d.rows, d.cols) not in shapes and (d.cols, d.rows) not in shapes
    assert all(r * c < d.rows * d.cols for r, c in shapes)
    # the hook sees every read of a dense view: here delta's own
    check_storage(d).data
    assert shapes[-1] == (d.rows, d.cols)


def _two_vertex_rep(dims, column):
    """A rep of 1 -> 2 with the given dims whose one matrix has column as
    each of its columns."""
    q = Quiver((1, 2), [Arrow("a", 1, 2)])
    mat = Mat(dims[1], dims[0], [{c: v for c in range(dims[0])} for v in column])
    return Representation(q, {1: dims[0], 2: dims[1]}, {"a": mat})


def test_homext_of_a_thin_rep_builds_no_zero_column():
    # delta(X, X) of dims (0, 4000) has 16,000,000 zero columns and no row;
    # with dims (1, 4000) and a zero map it has 4000 rows, all zero too
    import tracemalloc

    for dims, he in (((0, 4000), (16_000_000, 0, [])),
                     ((1, 4000), (16_000_001, 4000, [("a", 1, r) for r in range(1, 4001)]))):
        x = _two_vertex_rep(dims, [0] * 4000)
        tracemalloc.start()
        try:
            got = homext(x, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == he
        assert peak < 10**6


def test_a_zero_map_shares_one_empty_delta_row():
    # dims (500, 500) and a zero map: delta(X, X) has 250,000 rows, all
    # zero; a dict apiece peaks near 19 MB, one shared row near 4 MB
    import tracemalloc

    x = _two_vertex_rep((500, 500), [0] * 500)
    tracemalloc.start()
    try:
        got = hom_dim(x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 2 * 500 * 500
    assert peak < 10 * 10**6


def test_delta_above_the_limit_is_refused_before_it_is_built():
    # one 4000 x 1 column of ones: delta(X, X) has 4000 * 4000 + 4000 nonzeros
    x = _two_vertex_rep((1, 4000), [1] * 4000)
    assert 16_004_000 > DELTA_NNZ_LIMIT
    for f in (delta_matrix, homext):
        with pytest.raises(InputError, match="16,004,000"):
            f(x, x)
    y = _two_vertex_rep((1, 400), [1] * 400)
    assert delta_nnz(y, y) == 400 * 400 + 400 <= DELTA_NNZ_LIMIT


_PRODUCER_QUIVERS = [
    build_family(FamilyParams(1, 1, 1)),
    build_family(FamilyParams(2, 1, 1)),
    Quiver((1, 2), [Arrow("la1", 1, 2), Arrow("la2", 1, 2)]),
]


def _assert_canonical(m):
    # what Mat(..., canonical=True) keeps unchecked must be what the
    # checked path would have stored
    check_storage(m)
    assert m == Mat(m.rows, m.cols, [dict(row) for row in m.entries], m.field)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(_PRODUCER_QUIVERS),
    st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    st.integers(0, 2**32),
)
def test_canonical_producers_store_what_a_checked_mat_would(q, field, seed):
    # random_rep's entries are -1, 0, 1, so over F_p delta negates p - 1
    rng = random.Random(seed)
    x = random_rep(q, rng, max_dim=3, field=field)
    y = random_rep(q, rng, max_dim=3, field=field)
    d = delta_matrix(x, y)
    mats = [d, *cokernel(d)]
    # one unit coupling per arrow with a nonzero block from x into y
    couplings = [(a.id, 1, 0, rng.randint(1, y.dims[a.head]), rng.randint(1, x.dims[a.tail]))
                 for a in q.arrows if y.dims[a.head] and x.dims[a.tail]]
    for z in (block_sum([x, y], couplings), _unpack(_pack(x), q, x.dims, field)):
        mats += z.mats.values()
    for i in q.vertices:
        if x.dims[i] == x.total_dim():
            continue  # bgp_reflect refuses a rep concentrated at i
        if not (q.outgoing(i) and q.incoming(i)):
            mats += bgp_reflect(x, i).mats.values()
    for m in mats:
        _assert_canonical(m)
