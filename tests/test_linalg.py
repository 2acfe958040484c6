import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import check_storage
from reference_linalg import _rref as dense_rref
from reference_linalg import (
    _lower,
    _ref_rref,
    greedy_complement,
    ref_cokernel,
    ref_complement,
    ref_kernel_basis,
    ref_mat_solve,
    ref_mul,
    ref_pivot_columns,
)

from quiverforge.errors import InputError
from quiverforge.linalg import (
    GF,
    Mat,
    QQ,
    _echelon,
    _nonzero_columns,
    _rref,
    cokernel,
    complement_coordinates,
    hstack,
    kernel_basis,
    kernel_vectors,
    mat_solve,
    rank,
    vstack,
)
from quiverforge.serialize import mat_from_json, mat_to_json


def _complement(span):
    """complement_coordinates of span's columns, reversed as cokernel does."""
    return complement_coordinates(_nonzero_columns(span.entries[::-1]), span.rows, span.field)


def test_rank_empty_matrix():
    assert rank(Mat.zeros(0, 5)) == 0
    assert rank(Mat.zeros(5, 0)) == 0


def test_rank_identity():
    assert rank(Mat.identity(2)) == 2


def test_rank_one_zero_row():
    assert rank(Mat(1, 2, [[1, 0]])) == 1


def test_kernel_of_identity_is_empty():
    k = kernel_basis(Mat.identity(3))
    assert (k.rows, k.cols) == (3, 0)


def test_kernel_of_zero_map_is_identity():
    k = kernel_basis(Mat.zeros(2, 3))
    assert k == Mat.identity(3)


def test_kernel_normalization_free_variable_one():
    # x1 + x2 = 0 with x2 free and set to one gives (-1, 1)
    k = kernel_basis(Mat(1, 2, [[1, 1]]))
    assert k == Mat(2, 1, [[-1], [1]])


def test_image_complement_already_spanning():
    c = cokernel(Mat.identity(2))[0]
    assert (c.rows, c.cols) == (2, 0)


def test_image_complement_of_zero_subspace():
    assert cokernel(Mat.zeros(3, 0))[0] == Mat.identity(3)


def test_image_complement_greedy_scan():
    # span (1,1,0): e1 enlarges the span, e2 = (1,1,0) - e1 does not,
    # e3 completes it
    span = Mat(3, 1, [[1], [1], [0]])
    c = cokernel(span)[0]
    assert c == Mat(3, 2, [[1, 0], [0, 0], [0, 1]])
    assert rank(hstack([span, c])) == 3


def test_wide_span_complement_allocates_only_nonzero_columns():
    # delta(X, X) of dims (0, 4000) is a 0 x 16,000,000 span: a dict for
    # each of its columns would take a gigabyte
    import tracemalloc

    for span in (Mat(0, 10**6, []), Mat(2, 10**6, [{5: 1, 10**6 - 1: 2}, {5: 2}])):
        tracemalloc.start()
        try:
            keep, (comp, proj) = _complement(span), cokernel(span)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert keep == [] and (comp.cols, proj.rows) == (0, 0)
        assert peak < 10**6


def test_hash_of_a_wide_mat_reads_only_its_nonzeros():
    # the dense view of a 1 x 10^7 Mat holds ten million zeros
    import tracemalloc

    m = Mat.zeros(1, 10**7)
    tracemalloc.start()
    try:
        h = hash(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == hash(Mat(1, 10**7, [{}]))
    assert hash(Mat(1, 10**7, [{9: 2, 5: 1}])) == hash(Mat(1, 10**7, [{5: 1, 9: 2}]))
    assert peak < 10**6


def test_repr_of_a_wide_mat_reads_only_its_nonzeros():
    # the dense view of a 1 x 10^6 Mat formats a million zeros
    import tracemalloc

    m = Mat.zeros(1, 10**6)
    tracemalloc.start()
    try:
        text = repr(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) < 100 and peak < 10**6
    assert repr(Mat(1, 3, [[0, 2, 0]], GF(5))) == "Mat(1x3, ({1: 2},), GF(5))"


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, GF(3)]), st.integers(0, 6), st.integers(0, 6), st.data())
def test_kernel_vectors_are_keyed_by_their_free_columns(f, n, k, data):
    entries = st.sampled_from([0, 0, 0, 1, -1, 2] + ([Fraction(1, 2)] if f == QQ else []))
    m = Mat(n, k, [[data.draw(entries) for _ in range(k)] for _ in range(n)], f)
    vecs = kernel_vectors(m)
    assert list(vecs) == [j for j in range(k) if j not in ref_pivot_columns(m)]
    for j, vec in vecs.items():
        assert {i: vec.get(i, 0) for i in vecs} == {i: int(i == j) for i in vecs}


def test_solve_identity():
    assert mat_solve(Mat.identity(2), Mat(2, 1, [[3], [4]])) == Mat(2, 1, [[3], [4]])


def test_solve_inconsistent():
    assert mat_solve(Mat.zeros(2, 2), Mat(2, 1, [[1], [0]])) is None


def test_solve_free_variables_zero():
    assert mat_solve(Mat(1, 2, [[1, 1]]), Mat(1, 1, [[3]])) == Mat(2, 1, [[3], [0]])


def test_mat_solve_multiple_columns():
    m = Mat(2, 2, [[1, 2], [0, 1]])
    b = Mat(2, 2, [[1, 0], [0, 1]])
    x = mat_solve(m, b)
    assert m.mul(x) == b


def test_inverse_and_singular():
    m = Mat(2, 2, [[1, 1], [0, 1]])
    assert m.mul(mat_solve(m, Mat.identity(2))) == Mat.identity(2)
    assert mat_solve(Mat(2, 2, [[1, 1], [1, 1]]), Mat.identity(2)) is None


def test_stack_shapes_and_empty_lists():
    a = Mat(2, 1, [[1], [2]])
    b = Mat(2, 2, [[0, 1], [1, 0]])
    assert hstack([a, b]).cols == 3
    assert vstack([a.transpose(), b]).rows == 3
    assert hstack([], rows=4).rows == 4
    assert vstack([], cols=4).cols == 4
    with pytest.raises(InputError):
        hstack([])


def test_pivot_columns_deterministic():
    m = Mat(2, 3, [[0, 1, 1], [0, 1, 2]])
    assert sorted(_echelon(m.entries, m.field)) == [1, 2]


def test_prime_field_arithmetic():
    f3 = GF(3)
    assert (f3.zero(), f3.one()) == (0, 1)
    assert [f3.of(v) for v in (-4, -1, 0, 2, 5, 3 * 10**30 + 1)] == [2, 2, 0, 2, 2, 1]
    assert f3.of(Fraction(1, 2)) == 2
    assert GF(101).of(Fraction(-7, 3)) == 65  # 3 * 65 = 195 = -7 + 2 * 101
    for p in (2, 3, 5, 101):
        f = GF(p)
        for a in range(1, p):
            inv = f.of(Fraction(1, a))
            assert type(inv) is int and 0 <= inv < p and a * inv % p == 1
    with pytest.raises(InputError):
        f3.of(Fraction(2, 3))
    with pytest.raises(InputError):
        GF(4)


def test_mat_json_roundtrip():
    m = Mat(2, 3, [[Fraction(-3, 2), 0, 7], [Fraction(1, 3), -1, Fraction(10, 4)]])
    assert mat_to_json(m) == [["-3/2", "0", "7"], ["1/3", "-1", "5/2"]]
    assert mat_from_json(2, 3, mat_to_json(m), QQ) == m
    f5 = GF(5)
    m = Mat(2, 3, [[-1, Fraction(1, 2), 7], [0, 5, Fraction(-3, 4)]], f5)
    assert mat_to_json(m) == [["4", "3", "2"], ["0", "0", "3"]]
    assert mat_from_json(2, 3, mat_to_json(m), f5) == m
    # JSON input may carry fractions and ints; both reduce into F_5
    assert mat_from_json(1, 2, [["1/2", -1]], f5).data == ((3, 4),)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_mat_json_reads_integer_strings_as_fraction_did(field):
    # integer strings are read with int and only "a/b" with Fraction;
    # the matrix is the one Fraction gave for every entry
    raw = [["007", "+3", "-0", "4/2", "-4/6", 12, -7]]
    m = check_storage(mat_from_json(1, 7, raw, field))
    assert m == Mat(1, 7, [[Fraction(x) for x in raw[0]]], field)
    assert m.data == Mat(1, 7, [[7, 3, 0, 2, Fraction(-2, 3), 12, -7]], field).data


def _random_mat(rng, rows, cols, field=QQ):
    return Mat(rows, cols, [[field.of(rng.randint(-3, 3)) for _ in range(cols)]
                            for _ in range(rows)], field)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
def test_rank_kernel_dimension_identity(field):
    rng = random.Random(11)
    for _ in range(40):
        m = _random_mat(rng, rng.randint(0, 5), rng.randint(0, 5), field)
        k = kernel_basis(m)
        assert rank(m) + k.cols == m.cols
        assert rank(m) <= min(m.rows, m.cols)
        if k.cols:
            assert m.mul(k).is_zero()


def test_solve_is_exact_when_consistent():
    rng = random.Random(5)
    for _ in range(40):
        m = _random_mat(rng, rng.randint(1, 5), rng.randint(1, 5))
        x0 = _random_mat(rng, m.cols, 1)
        b = m.mul(x0)
        x = mat_solve(m, b)
        assert x is not None and m.mul(x) == b


def test_image_complement_completes_basis():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 6)
        span = _random_mat(rng, n, rng.randint(0, n))
        c, proj = cokernel(span)
        assert c.cols == n - rank(span)
        assert rank(hstack([span, c], rows=n)) == n
        # proj kills the image and is the identity on the complement
        assert proj.mul(span).is_zero() and proj.mul(c) == Mat.identity(c.cols)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=4))
def test_rref_determinism_and_rank_transpose(rows):
    m = Mat(len(rows), 3, rows)
    assert rank(m) == rank(m.transpose())
    assert kernel_basis(m) == kernel_basis(Mat(len(rows), 3, rows))


def test_prime_field_accepts_large_prime_quickly():
    # trial division up to sqrt(p) would take hours here
    assert GF(10**20 + 39).p == 10**20 + 39


def test_prime_field_rejects_large_composite():
    # 10^20 + 1 = 73 * 137 * 1676321 * 5964848081
    with pytest.raises(InputError):
        GF(10**20 + 1)


def test_prime_field_rejects_beyond_proven_range():
    with pytest.raises(InputError):
        GF(2**89 - 1)  # prime, but above the deterministic Miller-Rabin bound


@pytest.mark.parametrize("n,prime", [
    (0, False), (1, False), (2, True), (41, True), (43, True), (561, False),
    (7919, True), (3215031751, False), (2**61 - 1, True),
])
def test_prime_field_primality_cases(n, prime):
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to bases 2, 3, 5, 7
    if prime:
        assert GF(n).p == n
    else:
        with pytest.raises(InputError):
            GF(n)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([QQ, GF(3)]),
    st.integers(0, 6),
    st.integers(0, 6),
    st.data(),
)
@example(QQ, 0, 4, None)
@example(QQ, 4, 0, None)
@example(GF(3), 0, 3, None)
@example(GF(3), 3, 0, None)
def test_image_complement_matches_greedy_reference(field, n, k, data):
    # the explicit 0 x k and n x 0 examples draw nothing, so data may be None
    entries = st.sampled_from([0, 0, 0, 1, -1, 2])
    rows = [[data.draw(entries) for _ in range(k)] for _ in range(n)]
    span = Mat(n, k, rows, field)
    c = cokernel(span)[0]
    chosen = greedy_complement(span, n)
    assert c == Mat(n, len(chosen), [[int(i == j) for j in chosen] for i in range(n)], field)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(101)]),
    st.integers(0, 10),
    st.integers(0, 10),
    st.integers(0, 3),
    st.sampled_from([3, 16]),
    st.data(),
)
@example(GF(3), 0, 4, 2, 3, None)
@example(GF(3), 4, 0, 0, 3, None)
@example(QQ, 0, 4, 2, 3, None)
@example(QQ, 4, 0, 0, 3, None)
def test_prime_field_linalg_matches_fp_reference(f, n, k, extra, zeros, data):
    # the reference is the dense column sweep, on Fp scalar objects over
    # GF(p) and on Fractions over QQ; with 16 zeros in 21 draws most
    # entries vanish, so later pivots often fall in columns that earlier
    # stored rows still use; the explicit 0 x k and n x 0 examples draw
    # nothing, so data may be None
    big = (Fraction(1, 2), Fraction(-2, 3)) if f == QQ else (f.p - 1, f.p + 3)
    entries = st.sampled_from([0] * zeros + [1, -1, 2, *big])
    m = Mat(n, k, [[data.draw(entries) for _ in range(k)] for _ in range(n)], f)
    b = Mat(n, extra, [[data.draw(entries) for _ in range(extra)] for _ in range(n)], f)
    pivots = ref_pivot_columns(m)
    assert sorted(_echelon(m.entries, m.field)) == pivots and rank(m) == len(pivots)
    assert kernel_basis(m).data == ref_kernel_basis(m)
    x = mat_solve(m, b)
    assert (None if x is None else x.data) == ref_mat_solve(m, b)
    chosen = ref_complement(m, n)
    comp, proj = cokernel(m)
    assert comp == Mat(n, len(chosen), [[int(i == j) for j in chosen] for i in range(n)], f)
    assert (comp.data, proj.data) == ref_cokernel(m)
    # the same matrix given as dict rows is the same Mat
    sparse = Mat(n, k, [{j: x for j, x in enumerate(row) if x} for row in m.data], f)
    assert sparse == m and hash(sparse) == hash(m)
    assert rank(sparse) == len(pivots)
    assert kernel_basis(sparse) == kernel_basis(m)
    assert cokernel(sparse) == cokernel(m)
    # _rref may hold integral Fractions over QQ; every Mat returned holds
    # each value in its field's one form
    for r in [kernel_basis(m), comp, proj, kernel_basis(sparse), *cokernel(sparse), *([x] if x is not None else [])]:
        check_storage(r)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([QQ, GF(2), GF(3)]),
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(0, 4),
    st.lists(st.integers(0, 7), min_size=1, max_size=40),
    st.integers(0, 5),
    st.integers(0, 5),
)
# 0 x k, n x 0 and 0 x 0 operands
@example(QQ, 0, 4, 2, [3], 1, 2)
@example(GF(3), 4, 0, 3, [4, 0], 2, 0)
@example(GF(2), 3, 3, 0, [0], 0, 3)
@example(QQ, 0, 0, 0, [1], 0, 0)
def test_sparse_mat_ops_match_dense_reference(f, n, k, extra, codes, s1, s2):
    # the matrices are filled from codes, cycled, mapped to mostly zeros,
    # +-1 and 2, and two values that differ from their reduction over F_p
    big = (Fraction(1, 2), Fraction(-2, 3)) if f == QQ else (f.p - 1, f.p + 3)
    values, code = [0, 0, 0, 1, -1, 2, *big], itertools.cycle(codes)

    def draw(rows, cols):
        return check_storage(Mat(rows, cols, [[values[next(code)] for _ in range(cols)] for _ in range(rows)], f))

    a, a2, b, rhs = draw(n, k), draw(n, k), draw(k, extra), draw(n, extra)
    assert check_storage(a.mul(b)).data == ref_mul(a, b)
    assert check_storage(a.transpose()).data == tuple(tuple(row[j] for row in a.data) for j in range(k))
    r0, r1 = sorted((s1 % (n + 1), s2 % (n + 1)))
    c0, c1 = sorted((s2 % (k + 1), s1 % (k + 1)))
    sub = check_storage(a.submatrix(r0, r1, c0, c1))
    assert (sub.rows, sub.cols, sub.data) == (r1 - r0, c1 - c0, tuple(row[c0:c1] for row in a.data[r0:r1]))
    wide = check_storage(hstack([a, a2, Mat.zeros(n, 0, f)]))
    assert wide.data == tuple(r + s for r, s in zip(a.data, a2.data)) and wide.cols == 2 * k
    tall = check_storage(vstack([a, a2]))
    assert tall.data == a.data + a2.data and tall.rows == 2 * n
    assert a.is_zero() == all(not x for row in a.data for x in row)
    assert check_storage(kernel_basis(a)).data == ref_kernel_basis(a)
    x = mat_solve(a, rhs)
    assert (None if x is None else check_storage(x).data) == ref_mat_solve(a, rhs)
    comp, proj = cokernel(a)
    assert (check_storage(comp).data, check_storage(proj).data) == ref_cokernel(a)
    # the same matrix given as dict rows is the same Mat, with the same hash
    sparse = Mat(n, k, [{j: x for j, x in enumerate(row) if x} for row in a.data], f)
    assert check_storage(sparse) == a and hash(sparse) == hash(a)


def test_mat_rejects_rows_that_do_not_fit_its_shape():
    # a short dense row, dict rows with a column past either end, a short
    # second row, and too few rows
    for data in ([[1, 2], [0, 0, 1]], [{3: 1}, {}], [{-1: 1}, {}], [[1, 2, 3], [1]], [{0: 1}]):
        with pytest.raises(InputError):
            Mat(2, 3, data)
    with pytest.raises(InputError):
        Mat.identity(2).submatrix(0, 3, 0, 2)


def test_canonical_rows_are_counted_and_stacks_share_a_field():
    # canonical rows skip the entry checks, but not the row count or dims
    for rows, data in ((2, [{0: 1}]), (1, [{}, {}]), (-1, [])):
        with pytest.raises(InputError):
            Mat(rows, 3, data, canonical=True)
    m = Mat(2, 3, [{0: 1}, {}], canonical=True)
    assert type(m.entries) is tuple and check_storage(m) == Mat(2, 3, [[1, 0, 0], [0, 0, 0]])
    # a stack keeps its parts' entries as they are, so it takes one field
    with pytest.raises(InputError):
        hstack([Mat.identity(2), Mat.identity(2, GF(3))])
    with pytest.raises(InputError):
        vstack([Mat.identity(2, GF(3)), Mat.identity(2, GF(5))])


def test_rational_field_passes_fractions_through():
    f = Fraction(-3, 7)
    assert QQ.of(f) is f
    # an integral value is an int, whatever it is given as
    for v in (Fraction(2), Fraction(6, 3), 2, "4/2"):
        assert QQ.of(v) == 2 and type(QQ.of(v)) is int
    assert QQ.of("-4/6") == Fraction(-2, 3)
    assert (QQ.zero(), QQ.one()) == (0, 1) and type(QQ.zero()) is type(QQ.one()) is int


def test_rational_mat_results_hold_the_normalised_form():
    # integral Fractions are stored as ints; products and the
    # eliminations that meet the non-integral entries keep the same form
    m = check_storage(Mat(2, 3, [[Fraction(2), Fraction(6, 3), Fraction(1, 2)], [Fraction(-4, 2), 0, Fraction(3, 2)]]))
    assert m.entries == ({0: 2, 1: 2, 2: Fraction(1, 2)}, {0: -2, 2: Fraction(3, 2)})
    sq = Mat(3, 3, [[Fraction(1, 2), 0, 0], [0, 2, 0], [Fraction(3, 2), 0, Fraction(1, 3)]])
    b = Mat(2, 1, [[Fraction(1, 2)], [Fraction(5, 2)]])
    twice = m.mul(Mat(3, 3, [[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
    for r in (m.mul(sq), twice, kernel_basis(m), mat_solve(m, b), *cokernel(m.transpose()),
              mat_solve(sq, Mat.identity(3))):
        check_storage(r)
    # 1/2 * 2 is the int 1
    assert twice.entries[0][2] == 1 and type(twice.entries[0][2]) is int


@pytest.mark.parametrize("rows", [
    # integer pivots 2, 3 and -1
    [[2, 4, 1, 0], [0, 3, 1, 5], [0, 0, -1, 7], [2, 7, 1, 5]],
    # integral Fraction entries
    [[Fraction(2), Fraction(6), 0, Fraction(-4)], [Fraction(-1), 0, Fraction(3), Fraction(1)]],
    # a mix of ints, integral and non-integral Fractions
    [[Fraction(1, 2), 3, Fraction(4), 0], [2, Fraction(-1), 0, Fraction(2, 3)], [-1, 3, 2, 1]],
    [[0, Fraction(3), -1, 2], [0, 0, 2, Fraction(-5, 7)], [3, 1, 0, 0]],
])
def test_rref_over_q_holds_ints_and_fractions_only(rows):
    ref_rows, ref_pivots = dense_rref([[Fraction(x) for x in row] for row in rows], 4, QQ)
    # the rows as Mat stores them, and as raw ints and Fractions, integral
    # ones included
    for given in (Mat(len(rows), 4, rows).entries, [{c: x for c, x in enumerate(row) if x} for row in rows]):
        store = _rref(given, QQ)
        assert sorted(store) == ref_pivots
        for pc, row in store.items():
            assert all(type(v) in (int, Fraction) for v in row.values())
            assert row[pc] == 1 and min(row) == pc
        assert [[store[pc].get(c, 0) for c in range(4)] for pc in ref_pivots] == ref_rows[:len(ref_pivots)]


_BIG = st.one_of(st.just(0), st.integers(-10**6, 10**6))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 3), st.booleans(), st.data())
@example(0, 5, 2, False, None)
@example(5, 0, 1, True, None)
def test_q_linalg_with_large_entries_matches_reference(n, k, extra, consistent, data):
    # entries up to 10^6 make nearly every pivot other than +-1, so scaled
    # rows hold Fractions with large numerators and denominators that the
    # later pivots mix with the int entries; a consistent right-hand side
    # is m times an integer vector, so mat_solve returns a solution; the
    # explicit 0 x k and n x 0 examples draw nothing, so data may be None
    m = Mat(n, k, [[data.draw(_BIG) for _ in range(k)] for _ in range(n)])
    if consistent:
        b = m.mul(Mat(k, extra, [[data.draw(_BIG) for _ in range(extra)] for _ in range(k)]))
    else:
        b = Mat(n, extra, [[data.draw(_BIG) for _ in range(extra)] for _ in range(n)])
    pivots = ref_pivot_columns(m)
    assert rank(m) == len(pivots) and sorted(_echelon(m.entries, m.field)) == pivots
    assert kernel_basis(m).data == ref_kernel_basis(m)
    x = mat_solve(m, b)
    assert (None if x is None else x.data) == ref_mat_solve(m, b)
    assert x is not None or not consistent
    comp, proj = cokernel(m)
    assert (comp.data, proj.data) == ref_cokernel(m)
    for r in [kernel_basis(m), comp, proj] + ([x] if x is not None else []):
        check_storage(r)


@st.composite
def _delta_shaped(draw):
    """(rows, cols): 20-80 sparse rows of 1-3 nonzeros, mostly +-1, over
    at most 30 columns, shaped like the rows of the delta map."""
    cols = draw(st.integers(1, 30))
    value = st.sampled_from([1, -1] * 4 + [2, -2])
    row = st.dictionaries(st.integers(0, cols - 1), value, min_size=1, max_size=3)
    return draw(st.lists(row, min_size=20, max_size=80)), cols


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(3)]), _delta_shaped())
# in both, the row of pivot 0 holds pivot 1, whose row holds pivot 2;
# clearing pivot 1 before pivot 2 would carry column 2 into the row of
# pivot 0, which the index of the rows holding pivot 2 does not list
@example(QQ, ([{0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1}], 3))
@example(GF(2), ([{0: 1, 1: 1}, {1: 1, 2: 1}, {3: 1}, {2: 1, 3: 1}], 4))
def test_rref_of_delta_shaped_rows_matches_reference(field, shaped):
    # back-substitution clears pivots in descending order, so a row it
    # subtracts holds no pivot but its own
    rows, cols = shaped
    m = Mat(len(rows), cols, rows, field)
    ref_rows, ref_pivots = _ref_rref(m.data, cols, field)
    store = _rref(m.entries, field)
    assert sorted(store) == ref_pivots
    got = [tuple(store[pc].get(c, 0) for c in range(cols)) for pc in ref_pivots]
    assert got == list(_lower(ref_rows[:len(ref_pivots)]))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(3), GF(5)]), _delta_shaped())
# row 2 meets pivot 0, whose row adds column 2; only the heap push of that
# fill-in column shows that row 2 also meets pivot 2
@example(QQ, ([{0: 1, 2: 1}, {2: 1, 3: 2}, {0: 1, 4: -2}], 5))
@example(GF(5), ([{1: 2, 3: -1}, {3: 2}, {1: -2, 4: 1}], 5))
def test_echelon_pivots_match_rref_and_reference(field, shaped):
    # the forward phase alone gives the pivots, in _rref's order, and the
    # pivot-only callers read them from it
    rows, cols = shaped
    m = Mat(len(rows), cols, rows, field)
    store = _echelon(m.entries, field)
    ref_pivots = ref_pivot_columns(m)
    assert list(store) == list(_rref(m.entries, field))
    assert sorted(store) == ref_pivots
    for pc, row in store.items():
        assert row[pc] == 1 and min(row) == pc
    assert rank(m) == len(ref_pivots) and sorted(_echelon(m.entries, m.field)) == ref_pivots
    assert _complement(m) == ref_complement(m, m.rows)
