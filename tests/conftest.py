import random

import pytest

from quiverforge.linalg import Mat, QQ
from quiverforge.quiver import Arrow, Quiver
from quiverforge.reps import Representation
from quiverforge.three_vertex import FamilyParams, build_family


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


def densify(d) -> Mat:
    """The dense Mat of a linalg.SparseRows, after checking that d holds
    one row per row index and only nonzero entries inside the width, each
    a field element as Mat would store it (a Fraction over QQ, an int in
    [0, p) over GF(p)), so no coercion by Mat can hide a bad entry."""
    f = d.field
    assert len(d.entries) == d.rows
    for row in d.entries:
        for j, v in row.items():
            assert 0 <= j < d.cols and v and type(f.of(v)) is type(v) and f.of(v) == v
    return Mat(d.rows, d.cols, [[row.get(j, f.zero()) for j in range(d.cols)] for row in d.entries], f)
