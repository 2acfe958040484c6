import random
from fractions import Fraction

import pytest

from quiverforge.linalg import Mat, QQ
from quiverforge.quiver import Arrow, DimVector, Quiver, ringel_form
from quiverforge.reps import Representation
from quiverforge import quiver, three_vertex
from quiverforge.three_vertex import FamilyParams, StarForm, build_family, segment_word, to_star_form


def clear_memos():
    """Empty the process-wide memos: realise's stage modules and prefixes,
    kronecker_rep's reflection chains and _descend's descents."""
    three_vertex._MODULES.clear()
    three_vertex._PREFIXES.clear()
    three_vertex._CHAINS.clear()
    quiver._DESCENTS.clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts with every memo empty, so a test that counts or
    patches sigma, bgp_reflect or stage-module calls sees every stage built."""
    clear_memos()


@pytest.fixture
def q111():
    return build_family(FamilyParams(1, 1, 1))


@pytest.fixture
def kronecker2():
    return Quiver((1, 2), [Arrow("la1", 1, 2), Arrow("la2", 1, 2)])


@pytest.fixture
def counterexample_quiver():
    return Quiver((1, 2), [Arrow("a1", 1, 2), Arrow("a2", 1, 2)])


def random_rep(q: Quiver, rng: random.Random, max_dim: int = 4, field=QQ) -> Representation:
    """Random representation with entries in {-1, 0, 1}."""
    dims = {v: rng.randint(0, max_dim) for v in q.vertices}
    if all(d == 0 for d in dims.values()):
        dims[q.vertices[0]] = 1
    mats = {}
    for a in q.arrows:
        rows = dims[a.head]
        cols = dims[a.tail]
        mats[a.id] = Mat(
            rows, cols,
            [[field.of(rng.choice((-1, 0, 1))) for _ in range(cols)] for _ in range(rows)],
            field,
        )
    return Representation(q, dims, mats, field)


def rewrite_to_star(w, p: FamilyParams) -> StarForm:
    """The star form of a segmentable word: plan's block rewriting applied
    to the word's blocks, as strict segment_word splits and checks them."""
    return to_star_form(segment_word(w, p), p)


def sym_form(q: Quiver, a: DimVector, b: DimVector) -> int:
    return ringel_form(q, a, b) + ringel_form(q, b, a)


def dv_add(a: DimVector, b: DimVector) -> DimVector:
    return {v: a[v] + b[v] for v in a}


def check_storage(m: Mat) -> Mat:
    """m itself, after checking Mat's storage invariant: one dict per row
    index, each column in range, each stored value a nonzero field element
    in its one form (over QQ an int, or a Fraction whose denominator is
    not 1; over GF(p) an int in [1, p)), so no zero, unreduced or integral
    Fraction value hides behind the dense view."""
    f = m.field
    assert type(m.entries) is tuple and len(m.entries) == m.rows
    for row in m.entries:
        assert type(row) is dict
        for j, v in row.items():
            assert type(j) is int and 0 <= j < m.cols
            if f == QQ:
                assert type(v) is int and v or type(v) is Fraction and v.denominator != 1
            else:
                assert type(v) is int and 0 < v < f.p
    return m
