"""JSON forms for representations and matrices.

Scalars serialize as exact strings: "3/2" style fractions over the
rationals, plain residues over a prime field.  Only those forms, in
ASCII digits, and JSON integers are read back: Fraction("1e50000000")
would not finish.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .errors import InputError
from .linalg import GF, Mat, PrimeField, QQ
from .quiver import dimvec_from_json, dimvec_to_json, quiver_from_json, quiver_to_json
from .reps import Representation


def field_to_json(field) -> dict:
    if isinstance(field, PrimeField):
        return {"type": "fp", "p": field.p}
    return {"type": "rational"}


def field_from_json(obj: Optional[dict]):
    """The field of a field spec object; a missing spec (None) is QQ."""
    if obj is None:
        return QQ
    if type(obj) is not dict:
        raise InputError(f"field spec {obj!r} is not an object")
    if obj.get("type") == "rational":
        return QQ
    if obj.get("type") == "fp":
        if type(obj["p"]) is not int:
            raise InputError(f"field characteristic {obj['p']!r} is not an integer")
        return GF(obj["p"])
    raise InputError(f"unknown field spec {obj!r}")


def parse_field_flag(flag: str):
    """CLI field flag: 'q' for the rationals, 'fp:P' for a prime field."""
    if flag == "q":
        return QQ
    if flag.startswith("fp:") and re.fullmatch("[0-9]+", flag[3:]):
        return GF(int(flag[3:]))
    raise InputError(f"unknown field flag {flag!r} (use 'q' or 'fp:P')")


def mat_to_json(m: Mat) -> list:
    """The dense rows as strings: "0" everywhere but at the nonzeros."""
    out = [["0"] * m.cols for _ in range(m.rows)]
    for row, nonzeros in zip(out, m.entries):
        for j, x in nonzeros.items():
            row[j] = str(x)
    return out


_SCALAR = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _scalar_from_json(x):
    """A JSON int as it is, an integer string as an int, and only an
    "a/b" string through Fraction; Mat puts each into its field."""
    if type(x) is int:
        return x
    m = _SCALAR.fullmatch(x) if isinstance(x, str) else None
    if m is None:
        raise InputError(f"malformed matrix entry {x!r}")
    return int(x) if m.group(1) is None else Fraction(x)


def mat_from_json(rows: int, cols: int, obj: list, field) -> Mat:
    """The matrix of a list of rows, each a list of cols entries.  The
    rows go to Mat as dicts without the "0" cells, and Mat puts each
    entry into the field: a fraction reduces mod p there."""
    if type(obj) is not list or any(type(row) is not list for row in obj):
        raise InputError("malformed matrix: not a list of lists")
    if any(len(row) != cols for row in obj):
        raise InputError(f"matrix data does not match shape {rows}x{cols}")
    return Mat(rows, cols, [{j: _scalar_from_json(x) for j, x in enumerate(row) if x != "0"} for row in obj], field)


def rep_to_json(x: Representation) -> dict:
    return {
        "quiver": quiver_to_json(x.quiver),
        "field": field_to_json(x.field),
        "dims": dimvec_to_json(x.quiver, x.dims),
        "mats": {str(a.id): mat_to_json(x.mats[a.id]) for a in x.quiver.arrows},
    }


def rep_from_json(obj: dict) -> Representation:
    try:
        q = quiver_from_json(obj["quiver"])
        field = field_from_json(obj.get("field"))
        dims = dimvec_from_json(q, obj["dims"])
        mats = {}
        for a in q.arrows:
            raw = obj["mats"][str(a.id)]
            mats[a.id] = mat_from_json(dims[a.head], dims[a.tail], raw, field)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed representation JSON: {exc}") from exc
    return Representation(q, dims, mats, field)
