"""Acceptance suite: the nine headline checks, one test and one printed
pass/fail line per criterion.

The shared corpus is every real root of coordinate sum <= 12 for the six
families (1,1,1), (2,1,1), (1,2,1), (1,1,2), (2,2,2), (3,1,2),
constructed over the rationals.
"""

import random
import time

import pytest

from conftest import flatten, in_star_grammar, random_rep, rewrite_to_star
from quiverforge.errors import InputError
from quiverforge.linalg import GF, Mat
from quiverforge.quiver import (
    apply_word,
    enumerate_real_roots,
    ringel_form,
    unit_vector,
)
from quiverforge.reps import (
    Representation,
    certify_indecomposable,
    end_dim,
    hom_dim,
    homext,
)
from quiverforge.functors import maximal_rank_report, sigma_bar, sigma_under
from quiverforge.quiver import Arrow, Quiver
from quiverforge.three_vertex import (
    FamilyParams,
    build_family,
    build_subquiver,
    construct,
    kronecker_rep,
    predicted_end_dim,
)
from quiverforge.trees import is_tree
from reference_functors import (
    collapse,
    find_isomorphism,
    insert_image_vertex,
    sigma_bar_inv,
    sigma_under_inv,
)
from reference_reps import is_indecomposable_oracle, nonzero_count

FAMILIES = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 2), (3, 1, 2)]
BOUND = 12
ORACLE_BUDGET = 3**6


def report(n, label, ok):
    print(f"ACCEPTANCE {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def corpus():
    """fam -> list of (alpha, representation, trace), plus elapsed seconds."""
    out = {}
    t0 = time.perf_counter()
    for fam in FAMILIES:
        p = FamilyParams(*fam)
        q = build_family(p)
        entries = []
        for alpha in enumerate_real_roots(q, BOUND):
            rep, trace = construct(alpha, p)
            entries.append((alpha, rep, trace))
        out[fam] = entries
    return out, time.perf_counter() - t0


def test_criterion_1_maximal_rank_catalog(corpus):
    catalogs, elapsed = corpus
    ok = elapsed < 300
    count = 0
    for fam, entries in catalogs.items():
        for alpha, rep, _ in entries:
            count += 1
            if rep.dims != alpha or maximal_rank_report(rep):
                ok = False
    ok = ok and count > 0
    report(1, f"maximal rank type, {count} roots, {elapsed:.1f}s", ok)


def test_criterion_2_tree_modules(corpus):
    catalogs, _ = corpus
    ok = True
    for entries in catalogs.values():
        for _, rep, _ in entries:
            if nonzero_count(rep) != rep.total_dim() - 1:
                ok = False
            if not is_tree(rep):
                ok = False
    report(2, "tree modules in the construction basis", ok)


def test_criterion_3_endomorphism_formula(corpus):
    catalogs, _ = corpus
    ok = True
    for entries in catalogs.values():
        for _, rep, trace in entries:
            if end_dim(rep) != predicted_end_dim(trace):
                ok = False
    # documented value: sigma_{e_3} S(2) over (1,1,1) has dims (0,1,2), End = 2
    doc = next(
        rep for alpha, rep, _ in catalogs[(1, 1, 1)]
        if (alpha[1], alpha[2], alpha[3]) == (0, 1, 2)
    )
    ok = ok and end_dim(doc) == 2
    report(3, "endomorphism dimensions match predictions", ok)


def test_criterion_4_euler_identity(corpus):
    catalogs, _ = corpus
    rng = random.Random(2024)
    q = build_family(FamilyParams(1, 1, 1))
    pool = [rep for _, rep, _ in catalogs[(1, 1, 1)]]
    pool += [random_rep(q, rng, max_dim=4) for _ in range(16)]
    pairs = 0
    ok = True
    while pairs < 200:
        x = rng.choice(pool)
        y = rng.choice(pool)
        pairs += 1
        lhs = hom_dim(x, y) - homext(x, y).ext
        if lhs != ringel_form(q, x.dims, y.dims):
            ok = False
    report(4, f"Euler identity on {pairs} random pairs", ok)


def test_criterion_5_word_rewriting():
    ok = True
    done = 0
    rng = random.Random(77)
    params = [FamilyParams(2, 1, 1), FamilyParams(1, 1, 1), FamilyParams(3, 2, 2)]
    while done < 500:
        p = params[done % len(params)]
        q = build_family(p)
        w = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(2, 12)))
        try:
            form = rewrite_to_star(w, p)
        except InputError:
            continue
        done += 1
        if not in_star_grammar(form):
            ok = False
        if p.f == 1 and any(len(c) > 3 for c in form):
            ok = False
        for v in q.vertices:
            if apply_word(q, w, unit_vector(q, v)) != apply_word(
                q, flatten(form), unit_vector(q, v)
            ):
                ok = False
    report(5, f"star-form rewriting on {done} segmentable words", ok)


def test_criterion_6_functor_roundtrips(corpus):
    catalogs, _ = corpus
    ok = True
    # collapse after insertion recovers the matrices exactly
    rng = random.Random(99)
    q = build_family(FamilyParams(2, 1, 1))
    rounds = 0
    for _ in range(100):
        x = random_rep(q, rng, max_dim=3)
        rounds += 1
        for i in q.vertices:
            subset = [a.id for a in q.incoming(i)]
            if not subset:
                continue
            res = insert_image_vertex(x, i, subset)
            if collapse(res.new_rep, res) != x:
                ok = False
    # extension functors invert up to isomorphism on the catalog corpus
    bar_runs = under_runs = 0
    for fam in [(1, 1, 1), (2, 1, 1)]:
        qf = build_family(FamilyParams(*fam))
        from quiverforge.reps import simple_rep

        s = simple_rep(qf, 3)
        for _, x, _ in catalogs[fam]:
            if hom_dim(x, s) == 0:
                z = sigma_bar(s, x)
                back = sigma_bar_inv(s, z)
                bar_runs += 1
                if back.dims != x.dims or find_isomorphism(back, x) is None:
                    ok = False
            if hom_dim(s, x) == 0:
                u = sigma_under(s, x)
                back = sigma_under_inv(s, u)
                under_runs += 1
                if back.dims != x.dims or find_isomorphism(back, x) is None:
                    ok = False
    ok = ok and rounds >= 100 and bar_runs > 5 and under_runs > 5
    report(6, f"roundtrips: {rounds} insert/collapse, "
              f"{bar_runs}+{under_runs} extension inverses", ok)


def test_criterion_7_indecomposability(corpus):
    catalogs, _ = corpus
    ok = True
    certified = searched = 0
    for fam, entries in catalogs.items():
        p = FamilyParams(*fam)
        for alpha, _, trace in entries:
            for prime in (2, 3):
                rep_p, _ = construct(alpha, p, GF(prime))
                cert = certify_indecomposable(rep_p)
                certified += 1
                if cert.verdict != "indecomposable" or cert.end_dim != predicted_end_dim(trace):
                    ok = False
                # the exhaustive search cross-checks the roots it fits
                if predicted_end_dim(trace) <= 6:
                    searched += 1
                    if is_indecomposable_oracle(rep_p, ORACLE_BUDGET).verdict != "indecomposable":
                        ok = False
    # the opening counterexample: indecomposable but not of maximal rank type
    cq = Quiver((1, 2), [Arrow("a1", 1, 2), Arrow("a2", 1, 2)])
    for prime in (2, 3):
        f = GF(prime)
        x = Representation(cq, {1: 1, 2: 1},
                           {"a1": Mat(1, 1, [[1]], f), "a2": Mat(1, 1, [[0]], f)}, f)
        if certify_indecomposable(x).verdict != "indecomposable":
            ok = False
        if is_indecomposable_oracle(x, ORACLE_BUDGET).verdict != "indecomposable":
            ok = False
        violations = maximal_rank_report(x)
        if {"vertex": 2, "arrows": ["a2"], "side": "in",
                "achieved": 0, "required": 1} not in violations:
            ok = False
    ok = ok and searched > 0
    report(7, f"indecomposability certified on {certified} modular constructions, "
              f"{searched} also by idempotent search", ok)


def test_criterion_8_insertion_mechanism(corpus):
    catalogs, _ = corpus
    ok = True
    checks = 0
    for fam, entries in catalogs.items():
        q = build_family(FamilyParams(*fam))
        for alpha, rep, _ in entries:
            for i in q.vertices:
                inc = [a.id for a in q.incoming(i)]
                for mask in range(1, 1 << len(inc)):
                    subset = [inc[k] for k in range(len(inc)) if mask >> k & 1]
                    res = insert_image_vertex(rep, i, subset)
                    d_hat = res.new_rep.dims
                    checks += 1
                    if ringel_form(res.new_quiver, d_hat, d_hat) > 1:
                        ok = False
                    expected_z = min(
                        sum(alpha[q.arrow(aid).tail] for aid in subset), alpha[i]
                    )
                    if d_hat[res.z_vertex] != expected_z:
                        ok = False
    report(8, f"insertion identity on {checks} (root, vertex, subset) triples", ok)


def test_criterion_9_bgp_schur_baseline():
    ok = True
    count = 0
    for f in (1, 2, 3):
        q = build_subquiver(f)
        for r in enumerate_real_roots(q, 10):
            x = kronecker_rep((r[1], r[2]), f)
            count += 1
            if x.dims != r or end_dim(x) != 1 or homext(x, x).ext != 0:
                ok = False
    report(9, f"BGP real Schur baseline on {count} roots", ok)
