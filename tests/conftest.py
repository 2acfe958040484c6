import random
from fractions import Fraction

import pytest

from quiverforge.errors import InputError
from quiverforge.linalg import Mat, QQ
from quiverforge.quiver import Arrow, DimVector, Quiver, ringel_form
from quiverforge.reps import Representation
from quiverforge import quiver, three_vertex
from quiverforge.three_vertex import FamilyParams, build_family, reduce_word, star_form


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


def segment_word(w, f: int) -> list:
    """Split a word in s_1, s_2, s_3 on the letter 3 into the blocks
    chi'_m, ..., chi'_1, each reduced by reduce_word.

    Raises InputError for a letter other than 1, 2 or 3, a word with no
    letter 3, a block that does not alternate 1 and 2, a block other than
    the tail chi'_1 that is the bare s_1, or a trivial interior block.
    """
    w = tuple(w)
    if any(c not in (1, 2, 3) for c in w):
        raise InputError("letters must be vertices 1, 2 or 3")
    if 3 not in w:
        raise InputError("word contains no letter 3; it lies in <s_1, s_2>")
    chunks = [tuple(map(int, b)) for b in "".join(map(str, w)).split("3")]
    for chunk in chunks:
        if any(a == b for a, b in zip(chunk, chunk[1:])):
            raise InputError(f"block {chunk} is not an alternating pattern")
    blocks = [reduce_word(chunk, f) for chunk in chunks]
    for idx, b in enumerate(blocks[:-1]):
        if b == (1,):
            raise InputError(f"block {idx} is the bare s_1, not segmentable")
        if idx and not b:
            raise InputError(f"interior block {idx} is trivial, not segmentable")
    return blocks


def rewrite_to_star(w, p: FamilyParams) -> list:
    """The star form of a segmentable word: star_form applied to the
    word's blocks, as segment_word splits and checks them."""
    return star_form(segment_word(w, p.f), p.f)


def in_star_grammar(blocks) -> bool:
    """Two or more blocks; the head is () or a zeta, every interior block a
    zeta, a zeta being an odd word other than the bare s_1."""
    def zeta(b):
        return len(b) % 2 == 1 and tuple(b) != (1,)

    return (len(blocks) >= 2 and (blocks[0] == () or zeta(blocks[0]))
            and all(zeta(b) for b in blocks[1:-1]))


def flatten(blocks) -> tuple:
    """The word chi_m 3 ... 3 chi_1 of blocks with s_3 separators."""
    return tuple(c for k, b in enumerate(blocks) for c in ((3,) if k else ()) + tuple(b))


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
