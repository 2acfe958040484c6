import collections
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dv_add, sym_form
from reference_quiver import descend
from quiverforge import quiver
from quiverforge.errors import DomainError, InputError
from quiverforge.quiver import (
    IMAGINARY,
    NOT_A_ROOT,
    REAL,
    SIMPLE,
    Arrow,
    Quiver,
    apply_word,
    classify_root,
    enumerate_real_roots,
    reflect,
    ringel_form,
    root_expression,
    unit_vector,
)
from quiverforge.three_vertex import FamilyParams, build_family, build_subquiver


def dv(q, *coords):
    return {v: coords[k] for k, v in enumerate(q.vertices)}


def test_quiver_rejects_loops_and_duplicates():
    with pytest.raises(InputError):
        Quiver((1,), [Arrow("a", 1, 1)])
    with pytest.raises(InputError):
        Quiver((1, 1), [])
    with pytest.raises(InputError):
        Quiver((1, 2), [Arrow("a", 1, 2), Arrow("a", 2, 1)])


def test_ringel_form_diagonal(q111):
    for v in q111.vertices:
        e = unit_vector(q111, v)
        assert ringel_form(q111, e, e) == 1


def test_ringel_form_isotropic_vector(q111):
    a = dv(q111, 1, 1, 1)
    assert ringel_form(q111, a, a) == 0


def test_ringel_form_sincere_subquiver_root():
    q = build_family(FamilyParams(2, 3, 1))
    chi = dv(q, 2, 1, 0)
    e3 = unit_vector(q, 3)
    assert ringel_form(q, chi, e3) == -3 * chi[2]
    assert ringel_form(q, e3, chi) == -1 * chi[2]


def test_sym_form_values(q111):
    assert sym_form(q111, unit_vector(q111, 2), unit_vector(q111, 2)) == 2
    assert sym_form(q111, unit_vector(q111, 2), unit_vector(q111, 3)) == -2
    q = build_family(FamilyParams(3, 1, 1))
    assert sym_form(q, unit_vector(q, 1), unit_vector(q, 2)) == -3


def test_reflect_examples(q111):
    e3 = unit_vector(q111, 3)
    assert reflect(q111, 3, e3) == dv(q111, 0, 0, -1)
    assert reflect(q111, 3, unit_vector(q111, 2)) == dv(q111, 0, 1, 2)
    q = build_family(FamilyParams(2, 1, 1))
    assert reflect(q, 1, unit_vector(q, 2)) == dv(q, 2, 1, 0)


def test_apply_word_identity_and_commutation(q111):
    a = dv(q111, 2, 3, 1)
    assert apply_word(q111, (), a) == a
    assert apply_word(q111, (1, 3), a) == apply_word(q111, (3, 1), a)


def test_apply_word_rightmost_first(q111):
    # s3 s2 (e3): s2 first gives (0,2,1), then s3 gives (0,2,3)
    got = apply_word(q111, (3, 2), unit_vector(q111, 3))
    assert got == dv(q111, 0, 2, 3)


def test_classify_simple(q111):
    assert classify_root(q111, unit_vector(q111, 2)) == SIMPLE


def test_classify_kronecker():
    q = build_subquiver(2)
    assert classify_root(q, {1: 1, 2: 1}) == IMAGINARY
    assert classify_root(q, {1: 2, 2: 1}) == REAL
    assert classify_root(q, {1: 2, 2: 4}) == NOT_A_ROOT


def test_classify_rejects_bad_input(q111):
    with pytest.raises(DomainError):
        classify_root(q111, dv(q111, 0, 0, 0))
    with pytest.raises(DomainError):
        classify_root(q111, dv(q111, -1, 0, 1))


def test_root_expression_examples(q111):
    assert root_expression(q111, unit_vector(q111, 3)) == ((), 3)
    assert root_expression(q111, dv(q111, 0, 1, 2)) == ((3,), 2)
    q = build_subquiver(2)
    assert root_expression(q, {1: 2, 2: 1}) == ((1,), 2)


def test_descents_agree_with_the_memo_free_reference_in_any_order():
    # every vector of a box with one coordinate down to -1, in one shuffled
    # order, so later descents stop at vectors that earlier ones stored
    cases = []
    for q, top in [(build_family(FamilyParams(1, 1, 1)), 8), (build_family(FamilyParams(2, 1, 1)), 8),
                   (build_subquiver(2), 18), (build_subquiver(3), 18)]:
        cases += [(q, dict(zip(q.vertices, c)))
                  for c in itertools.product(range(-1, top), repeat=len(q.vertices))]
    random.Random(23).shuffle(cases)
    seen = collections.Counter()
    for q, d in cases:
        try:
            want = descend(q, d)
        except DomainError:
            seen["domain"] += 1
            for f in (classify_root, root_expression):
                with pytest.raises(DomainError, match="nonzero non-negative"):
                    f(q, d)
            continue
        seen[want[0]] += 1
        assert classify_root(q, d) == want[0], d
        if want[0] in (SIMPLE, REAL):
            assert root_expression(q, d) == want[1:], d
        else:
            with pytest.raises(DomainError, match=want[0]):
                root_expression(q, d)
    assert sorted(seen) == sorted([SIMPLE, REAL, IMAGINARY, NOT_A_ROOT, "domain"])
    # each stored vector holds its own descent
    for q, memo in quiver._DESCENTS.items():
        for key, got in memo.items():
            assert got == descend(q, dict(zip(q.vertices, key))), key


def test_enumerate_a2():
    q = build_subquiver(1)
    roots = enumerate_real_roots(q, 3)
    assert [(r[1], r[2]) for r in roots] == [(0, 1), (1, 0), (1, 1)]


def test_enumerate_kronecker_bound4():
    q = build_subquiver(2)
    roots = enumerate_real_roots(q, 4)
    assert [(r[1], r[2]) for r in roots] == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_enumerate_bound_one_gives_simples(q111):
    roots = enumerate_real_roots(q111, 1)
    assert len(roots) == 3
    assert all(classify_root(q111, r) == SIMPLE for r in roots)


def test_reflection_is_involution(q111):
    rng = random.Random(3)
    for _ in range(30):
        a = dv(q111, rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        for i in q111.vertices:
            assert reflect(q111, i, reflect(q111, i, a)) == a


_SMALL_QUIVERS = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]), max_size=8),
    st.lists(st.integers(-5, 5), min_size=n, max_size=n),
    st.integers(0, n - 1),
))


@settings(max_examples=200, deadline=None)
@given(_SMALL_QUIVERS)
# parallel arrows together with arrows antiparallel to them
@example((2, [(0, 1), (0, 1), (1, 0)], [3, -2], 0))
@example((3, [(0, 1), (1, 0), (1, 2), (1, 2)], [1, 4, -1], 1))
def test_reflect_subtracts_sym_form_with_the_unit_vector(case):
    # edges may repeat and run both ways; there are no loops, as Quiver rejects them
    n, edges, coords, i = case
    q = Quiver(range(n), [Arrow(k, t, h) for k, (t, h) in enumerate(edges)])
    a = dict(zip(q.vertices, coords))
    c = sym_form(q, a, unit_vector(q, i))
    assert reflect(q, i, a) == {v: a[v] - c * (v == i) for v in q.vertices}


def test_ringel_form_bilinearity(q111):
    rng = random.Random(4)
    for _ in range(30):
        a = dv(q111, *[rng.randint(-3, 3) for _ in range(3)])
        a2 = dv(q111, *[rng.randint(-3, 3) for _ in range(3)])
        b = dv(q111, *[rng.randint(-3, 3) for _ in range(3)])
        assert ringel_form(q111, dv_add(a, a2), b) == ringel_form(q111, a, b) + ringel_form(q111, a2, b)


def test_reflections_preserve_sym_form(q111):
    rng = random.Random(6)
    for _ in range(30):
        a = dv(q111, *[rng.randint(-2, 3) for _ in range(3)])
        b = dv(q111, *[rng.randint(-2, 3) for _ in range(3)])
        for i in q111.vertices:
            assert sym_form(q111, reflect(q111, i, a), reflect(q111, i, b)) == sym_form(q111, a, b)


def test_enumerated_roots_classify_real_with_form_one(q111):
    for r in enumerate_real_roots(q111, 9):
        tag = classify_root(q111, r)
        assert tag in (SIMPLE, REAL)
        assert ringel_form(q111, r, r) == 1
        word, j = root_expression(q111, r)
        assert apply_word(q111, word, unit_vector(q111, j)) == r
