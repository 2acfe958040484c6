"""Exact linear algebra over the rationals and over prime fields.

Mat is a sparse matrix, immutable after construction; 0 x n and n x 0
matrices are legal everywhere.  Its only storage is `entries`, one
{column: value} dict per row holding the nonzero entries; `data` is a
dense view of it, built on each read, for the test references; repr and
hashing read `entries`.  Every elimination starts with the forward phase
_echelon, which stores each row as it comes, reduced at its leftmost
column while that is a stored pivot.  Its pivots are the leading columns of the row
space, which no elimination order changes, so rank and
complement_coordinates read them there, and reps' certificate chain
and functors' maximal rank walk read only how many rows it stores, the
walk extending copies of one store arrow by arrow.  kernel_vectors and
mat_solve (the certificate's Fitting witness is one) read rows, from
_rref: _echelon plus one back-substitution pass, _back_substitute,
which reps' certificate runs on the degree-0 rows of a store alone.
The RREF is unique, so its rows equal those of a dense leftmost-pivot
elimination.  Kernel bases set free variables to one in ascending index
order, and complements are chosen by a greedy ascending scan over
coordinate vectors.  complement_coordinates takes sparse spanning vectors, not a
Mat, in reversed coordinates, so that pivots are last nonzero
coordinates.  cokernel reverses its Mat's columns that way and reads its
projection along the image from the kernel vectors of the matrix they
make; reps' homext writes delta's columns that way, straight from two
representations.

Scalars of Q are ints when integral and fractions.Fraction otherwise;
scalars of F_p are plain ints in [0, p).  Entries are checked where they
enter: by default Mat takes dense rows or dict rows of numbers, checks
each column, sends each entry through its field's `of`, and keeps what
is nonzero there.  That is the path of JSON, the CLI, tests, and the
arithmetic that does plain + - * on nonzeros (mul, and mat_solve,
which reads _rref's rows) and leaves the normalising, and dropping what
cancels, to Mat.  Producers that only copy, select or negate entries of
Mats, or write ones, pass canonical=True and Mat keeps their rows
unchecked: transpose, submatrix, hstack, vstack, zeros, identity,
kernel_basis and cokernel here, and the delta map, block sums and the
memo read-back elsewhere.  The elimination works on sparse rows outside
Mat, so it keeps its own values: over F_p it reduces every update mod p;
over Q int arithmetic stays int (delta's entries are +-1) and a Fraction
appears only when a row is scaled by a pivot other than +-1.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Dict, Optional, Sequence

from .errors import InputError


class RationalField:
    """The field Q.  A scalar is an int when it is integral, else a
    fractions.Fraction in lowest terms whose denominator is not 1."""

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, v):
        if type(v) is int:
            return v
        if type(v) is not Fraction:
            v = Fraction(v)
        return v.numerator if v.denominator == 1 else v

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the bases above is exact below this bound (Sorenson-Webster 2017)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; InputError beyond the proven range."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise InputError(f"field characteristic {n} is too large (limit {_MR_LIMIT})")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p for a prime p; scalars are ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, v) -> int:
        # the int test comes first: isinstance against Fraction goes
        # through the numbers ABCs and is several times slower
        if isinstance(v, int):
            return v % self.p
        v = Fraction(v)
        if v.denominator % self.p == 0:
            raise InputError(f"denominator divisible by {self.p}")
        return v.numerator * pow(v.denominator, -1, self.p) % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()

_GF_CACHE: dict = {}


def GF(p: int) -> PrimeField:
    if p not in _GF_CACHE:
        _GF_CACHE[p] = PrimeField(p)
    return _GF_CACHE[p]


class Mat:
    """Immutable sparse matrix over a fixed field: entries[i] is row i as
    a {column: value} dict of its nonzeros, never to be changed."""

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, rows: int, cols: int, data, field=QQ, *, canonical=False):
        """data holds one row per row index: a dense sequence of cols
        entries, or a {column: value} dict; zeros are dropped either way.

        With canonical=True, data must already be what entries holds: one
        {column: value} dict per row, each column in range and each value
        a nonzero element of field in its one form.  Only the dims and the
        row count are checked then, and the rows are kept as given.  The
        producers that pass it copy, select or negate (through field.of)
        entries of Mats they were given, or write ones: transpose,
        submatrix, hstack, vstack, zeros, identity, kernel_basis,
        cokernel, and in reps and three_vertex the delta map, block sums
        and memo read-backs.  mul and mat_solve do not: their sums and products can cancel to zero, leave p's
        multiples or give an integral Fraction, which this constructor
        drops or normalises."""
        if rows < 0 or cols < 0:
            raise InputError("negative matrix dimension")
        if canonical:
            entries = tuple(data)
            if len(entries) != rows:
                raise InputError(f"data does not match shape {rows}x{cols}")
            self.rows, self.cols, self.entries, self.field = rows, cols, entries, field
            return
        p = field.p if isinstance(field, PrimeField) else None
        of = field.of
        entries = []
        for row in data:
            if isinstance(row, dict):
                items = row.items()
            elif len(row) == cols:
                items = enumerate(row)
            else:
                raise InputError(f"data does not match shape {rows}x{cols}")
            kept = {}
            for j, x in items:
                if not 0 <= j < cols:
                    raise InputError(f"column {j} outside shape {rows}x{cols}")
                # field.of(x), inlined for an int
                if type(x) is not int:
                    x = of(x)
                elif p:
                    x %= p
                if x:
                    kept[j] = x
            entries.append(kept)
        if len(entries) != rows:
            raise InputError(f"data does not match shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)
        self.field = field

    @property
    def data(self) -> tuple:
        """The dense rows as tuples, zeros included; built on each read."""
        z, out = self.field.zero(), []
        for row in self.entries:
            dense = [z] * self.cols
            for j, x in row.items():
                dense[j] = x
            out.append(tuple(dense))
        return tuple(out)

    @classmethod
    def zeros(cls, rows: int, cols: int, field=QQ) -> "Mat":
        return cls(rows, cols, [{} for _ in range(rows)], field, canonical=True)

    @classmethod
    def identity(cls, n: int, field=QQ) -> "Mat":
        return cls(n, n, [{i: field.one()} for i in range(n)], field, canonical=True)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        # from the nonzeros alone: the dense view of a wide Mat is huge
        return hash((self.rows, self.cols, tuple(frozenset(row.items()) for row in self.entries)))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {self.entries}, {self.field})"

    def is_zero(self) -> bool:
        return not any(self.entries)

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise InputError("shape mismatch in matrix product")
        out = []
        bent = other.entries
        for arow in self.entries:
            row = {}
            for k, a in arow.items():
                for j, b in bent[k].items():
                    row[j] = row.get(j, 0) + a * b
            out.append(row)
        return Mat(self.rows, other.cols, out, self.field)

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows, _sparse_transpose(self.entries, self.cols), self.field, canonical=True)

    def submatrix(self, row_start: int, row_stop: int, col_start: int, col_stop: int) -> "Mat":
        if not (0 <= row_start <= row_stop <= self.rows and 0 <= col_start <= col_stop <= self.cols):
            raise InputError("submatrix range outside the matrix")
        return Mat(
            row_stop - row_start,
            col_stop - col_start,
            [{j - col_start: x for j, x in row.items() if col_start <= j < col_stop}
             for row in self.entries[row_start:row_stop]],
            self.field,
            canonical=True,
        )


def hstack(mats: Sequence[Mat], rows: Optional[int] = None, field=QQ) -> Mat:
    mats = list(mats)
    if not mats:
        if rows is None:
            raise InputError("hstack of empty list needs explicit row count")
        return Mat.zeros(rows, 0, field)
    r, field = mats[0].rows, mats[0].field
    if any(m.rows != r for m in mats):
        raise InputError("hstack row mismatch")
    if any(m.field != field for m in mats):
        raise InputError("hstack field mismatch")
    data = [{} for _ in range(r)]
    offset = 0
    for m in mats:
        for row, mrow in zip(data, m.entries):
            for j, x in mrow.items():
                row[offset + j] = x
        offset += m.cols
    return Mat(r, offset, data, field, canonical=True)


def vstack(mats: Sequence[Mat], cols: Optional[int] = None, field=QQ) -> Mat:
    mats = list(mats)
    if not mats:
        if cols is None:
            raise InputError("vstack of empty list needs explicit column count")
        return Mat.zeros(0, cols, field)
    c, field = mats[0].cols, mats[0].field
    if any(m.cols != c for m in mats):
        raise InputError("vstack column mismatch")
    if any(m.field != field for m in mats):
        raise InputError("vstack field mismatch")
    return Mat(sum(m.rows for m in mats), c, [row for m in mats for row in m.entries], field, canonical=True)


def _sparse_transpose(rows, ncols: int) -> list:
    """The columns of the matrix with the given sparse rows, as sparse
    {row: value} dicts, each in ascending row order."""
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j][i] = x
    return cols


def _nonzero_columns(rows) -> list:
    """The nonzero columns of the matrix with these sparse rows, ascending,
    as _sparse_transpose gives them: _echelon skips zero rows, so this is
    the same elimination with no dict for each zero column of a wide matrix."""
    cols = defaultdict(dict)
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j][i] = x
    return [cols[j] for j in sorted(cols)]


def _echelon(data, field, store=None) -> dict:
    """Row echelon form of the rows in data, by forward elimination alone.

    Each row is a sparse {column: value} dict of nonzero field elements,
    and is copied.  Returns {pivot column: row} in the order the pivots
    were made, each row one at its pivot and zero left of it: a new dict,
    or store extended by the rows of data when given, store being such a
    dict from an earlier call.  Stored rows are never changed, so a shallow
    copy of a store can be extended apart from it.  An incoming
    row is reduced at its leftmost column while a stored row has that
    pivot (a heap holds its columns; fill-in pushes each column it adds),
    then scaled to one there and stored, never to change again.  The keys
    are the leading columns of the row space: the pivots of its RREF.

    A lead of 1 is stored as it is.  Over F_p every update is reduced
    mod p, and another lead is scaled by pow(lead, -1, p).  Over Q a lead
    of -1 is scaled by a sign change, any other by Fraction(1, lead) (never
    1 / lead, a float for ints) and QQ.of, so a stored value is an int or
    a Fraction, never a float.
    """
    p = field.p if isinstance(field, PrimeField) else None
    of = field.of
    if store is None:
        store = {}
    for given in data:
        if not given:
            continue
        row = dict(given)
        heap = list(row)
        heapify(heap)
        while heap:
            pc = heappop(heap)
            if pc not in row:  # cancelled after it was pushed
                continue
            prow = store.get(pc)
            if prow is None:
                break
            f = -row[pc]
            for c, x in prow.items():
                v = row.get(c)
                if v is None:
                    v = f * x
                    heappush(heap, c)
                else:
                    v += f * x
                if p:
                    v %= p
                if v:
                    row[c] = v
                else:
                    del row[c]
        if not row:
            continue
        lead = row[pc]
        if lead != 1:
            # in place: row is this call's copy, and assigning to its
            # existing keys keeps their order
            if p:
                inv = pow(lead, -1, p)
                for c, x in row.items():
                    row[c] = x * inv % p
            elif lead == -1:
                for c, x in row.items():
                    row[c] = -x
            else:
                # Fraction(1, lead), not 1 / lead: int / int is a float
                inv = Fraction(1, lead)
                for c, x in row.items():
                    row[c] = of(x * inv)
        store[pc] = row
    return store


def _rref(data, field) -> dict:
    """Reduced row echelon form of the rows in data: _echelon's dict,
    back-substituted.  The RREF is unique, so the rows equal those of a
    dense leftmost-pivot elimination."""
    return _back_substitute(_echelon(data, field), field)


def _back_substitute(store, field) -> dict:
    """store, an _echelon dict or a part of one closed under the pivots its
    rows hold, with its rows reduced in place to RREF rows by one pass.
    The pivots are cleared in descending order from the rows that hold
    them, indexed once: when pk is cleared its row holds no other pivot
    (those right of it are cleared, and none lie left of it), so it adds
    only non-pivot columns and the index stays true."""
    p = field.p if isinstance(field, PrimeField) else None
    holders = defaultdict(list)
    for key, row in store.items():
        for c in row:
            if c != key and c in store:
                holders[c].append(key)
    for pk in sorted(holders, reverse=True):
        prow = store[pk]
        for key in holders[pk]:
            row = store[key]
            f = -row[pk]
            for c, x in prow.items():
                v = row.get(c)
                v = f * x if v is None else v + f * x
                if p:
                    v %= p
                if v:
                    row[c] = v
                else:
                    del row[c]
    return store


def rank(m: Mat) -> int:
    """From the forward phase alone: end_dim, hom_dim, the maximal rank
    report and the certificate's scalar candidates need no RREF.  The
    rows go in last first, as in kernel_vectors: no pivot depends on the
    order, and on the catalog's delta(X, X) that is about 10% faster."""
    return len(_echelon(m.entries[::-1], m.field))


def kernel_vectors(m: Mat) -> Dict[int, dict]:
    """A basis of ker m as {free column j: vector}, j ascending: each
    vector a sparse {index: value} dict of field elements that is one at j
    and minus the RREF row of pivot pc at column j at each pivot pc, so
    zero at every other free column.  The RREF is unique, so m's rows go
    in last first, as in rank."""
    store = _rref(m.entries[::-1], m.field)
    of = m.field.of
    vecs = {j: {j: m.field.one()} for j in range(m.cols) if j not in store}
    for pc, row in store.items():
        for j, x in row.items():
            if j != pc:  # a stored row is zero at every other pivot, so j is free
                vecs[j][pc] = of(-x)
    return vecs


def kernel_basis(m: Mat) -> Mat:
    """Columns span ker m: the vectors of kernel_vectors, in order."""
    vecs = list(kernel_vectors(m).values())
    return Mat(m.cols, len(vecs), _sparse_transpose(vecs, m.cols), m.field, canonical=True)


def mat_solve(m: Mat, b: Mat) -> Optional[Mat]:
    """Solve m x = b columnwise; None if any column is inconsistent.

    Deterministic: the echelon particular solution with free variables
    set to zero.
    """
    if m.rows != b.rows:
        raise InputError("solve shape mismatch")
    n = m.cols
    store = _rref([{**r, **{n + j: x for j, x in s.items()}} for r, s in zip(m.entries, b.entries)], m.field)
    # a pivot beyond m's columns marks an inconsistent system
    if any(pc >= n for pc in store):
        return None
    data = [{j - n: x for j, x in store[i].items() if j >= n} if i in store else {} for i in range(n)]
    return Mat(n, b.cols, data, m.field)


def complement_coordinates(vectors, n: int, field) -> list:
    """The k, ascending, of the standard coordinate vectors e_k of F^n
    that extend the span of vectors to the full space.

    Each vector is a sparse dict written in reversed coordinates: its key
    n - 1 - k holds coordinate k, as cokernel writes span's columns and
    homext writes delta's.  Greedy: scan e_1, e_2, ... in ascending order,
    keeping each vector that enlarges the span.  e_k enlarges it exactly
    when no vector of the span has its last nonzero coordinate at k, so
    the kept k are the non-pivots of the reversed vectors read back.
    Those are canonical, so they come from the forward phase alone, in
    whatever order the vectors come.
    """
    hit = _echelon(vectors, field)
    return [k for k in range(n) if n - 1 - k not in hit]


def cokernel(span: Mat) -> tuple:
    """(comp, proj): the e_k of complement_coordinates for span's columns
    as columns, and the projection onto their span along im(span).

    Those columns are reversed as complement_coordinates reads them, as
    the rows of a Mat r whose column n - 1 - k is coordinate k.  The kept
    k are r's free columns n - 1 - k, and the kernel vector of r at that
    column, read back unreversed, is the row of proj for k: it is one at
    k and zero at every other kept coordinate, and kills every column of
    span, so it vanishes on im(span).
    """
    n, field = span.rows, span.field
    cols = _nonzero_columns(span.entries[::-1])
    vecs = kernel_vectors(Mat(len(cols), n, cols, field, canonical=True))
    proj, comp = [], [{} for _ in range(n)]
    for j, vec in reversed(vecs.items()):
        comp[n - 1 - j][len(proj)] = 1
        proj.append({n - 1 - c: x for c, x in vec.items()})
    return (Mat(n, len(proj), comp, field, canonical=True),
            Mat(len(proj), n, proj, field, canonical=True))
