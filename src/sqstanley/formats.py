"""Reading and writing instances and results.

An instance document is JSON with an ``n`` field and exactly one of
``ideal``, ``quotient``, or ``complex``.  Generator rows are either
exponent vectors or 1-based support lists: a block whose rows all have
length exactly n is read as exponent vectors, anything else as
strictly increasing support lists, and an explicit ``encoding`` key
("exponents" or "support") overrides the inference.  Complex facets
are always support lists.

Serialization goes the other way, in json's own walk: ``dump_json``
renders deterministically, calling ``_document`` for each value that
json cannot write itself, and ``to_jsonable`` reads that document back
as plain dicts and lists.  ``_document`` goes one level deep: a
dataclass gives its fields, so decompositions, filtrations and exterior
pieces need no code here, and a type whose document differs from its
fields registers a handler.  Every set goes out as an IndexSet, whose
handler alone writes the sorted 1-based members.  ``write_csv`` lays
flat record dicts out as a table.
"""

import csv
import dataclasses
import json
from functools import singledispatch
from typing import NamedTuple

from .errors import FormatError
from .exterior import ExtElement
from .homology import BettiTable
from .ideals import Monomial, MonomialIdeal, SqIdeal
from .setcalc import IndexSet, SimplicialComplex
from .sqmod import SqQuotient

FORMAT_VERSION = 1


class QuotientSpec(NamedTuple):
    inner: MonomialIdeal
    outer: MonomialIdeal

    @property
    def n(self):
        return self.inner.n


def parse_support(n, row, where="support") -> IndexSet:
    """One strictly increasing 1-based support list as an index set."""
    if not isinstance(row, list):
        raise FormatError(f"{where}: expected a support list, got {row!r}")
    members = []
    last = 0
    for x in row:
        if type(x) is not int:
            raise FormatError(f"{where}: support entry {x!r} is not an integer")
        if not 1 <= x <= n:
            raise FormatError(f"{where}: support entry {x!r} outside [1, {n}]")
        if x <= last:
            raise FormatError(f"{where}: support list {row!r} not strictly increasing")
        members.append(x)
        last = x
    return IndexSet.of(n, members)


def _support_row(n, row, where):
    return Monomial.from_support(parse_support(n, row, where))


def _exponent_row(n, row, where):
    if len(row) != n:
        raise FormatError(f"{where}: exponent vector {row!r} has length "
                          f"{len(row)}, expected {n}")
    for x in row:
        if type(x) is not int or x < 0:
            raise FormatError(f"{where}: exponent {x!r} is not a nonnegative integer")
    return Monomial(tuple(row))


def parse_gens(n, block, where="ideal"):
    """Generator rows of one ideal block, as monomials."""
    if not isinstance(block, dict) or "gens" not in block:
        raise FormatError(f"{where}: expected an object with a 'gens' list")
    rows = block["gens"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise FormatError(f"{where}: 'gens' must be a list of lists")
    encoding = block.get("encoding")
    if encoding is None:
        encoding = "exponents" if rows and all(len(r) == n for r in rows) \
            else "support"
    if encoding == "support":
        return [_support_row(n, r, where) for r in rows]
    if encoding == "exponents":
        return [_exponent_row(n, r, where) for r in rows]
    raise FormatError(f"{where}: unknown encoding {encoding!r}")


def _load_json(source):
    """JSON text decoded, or an already-loaded value as it is."""
    if not isinstance(source, str):
        return source
    try:
        return json.loads(source)
    except json.JSONDecodeError as e:
        raise FormatError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise FormatError("not valid JSON: nested too deeply") from None


def parse_instance(source):
    """One instance document, from JSON text or an already-loaded dict.

    Returns a MonomialIdeal, a QuotientSpec of two of them, or a
    SimplicialComplex; squarefree-ness is the caller's concern.
    """
    obj = _load_json(source)
    if not isinstance(obj, dict):
        raise FormatError("instance document must be a JSON object")
    version = obj.get("version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version!r}")
    n = obj.get("n")
    if type(n) is not int or n < 1:
        raise FormatError(f"'n' must be a positive integer, got {n!r}")
    kinds = [k for k in ("ideal", "quotient", "complex") if k in obj]
    if len(kinds) != 1:
        raise FormatError(
            "expected exactly one of 'ideal', 'quotient', 'complex', "
            f"found {kinds or 'none'}")
    kind = kinds[0]
    if kind == "ideal":
        return MonomialIdeal.of(n, parse_gens(n, obj["ideal"]))
    if kind == "quotient":
        block = obj["quotient"]
        if not isinstance(block, dict) or not {"inner", "outer"} <= block.keys():
            raise FormatError("'quotient' needs 'inner' and 'outer' ideal blocks")
        return QuotientSpec(
            inner=MonomialIdeal.of(n, parse_gens(n, block["inner"], "inner")),
            outer=MonomialIdeal.of(n, parse_gens(n, block["outer"], "outer")))
    block = obj["complex"]
    if not isinstance(block, dict) or "facets" not in block:
        raise FormatError("'complex' needs a 'facets' list")
    rows = block["facets"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise FormatError("'facets' must be a list of support lists")
    facets = [_support_row(n, r, "complex").support for r in rows]
    return SimplicialComplex.from_facets(n, facets)


@singledispatch
def _document(x):
    """The document of x one level deep, for json.dumps's default hook:
    a dataclass gives its fields, a registered type its own document."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
    raise TypeError(f"cannot serialize {type(x).__name__}")


@_document.register
def _(x: IndexSet):
    return x.members


@_document.register
def _(x: Monomial):
    return x.exponents


@_document.register
def _(x: SqIdeal):
    # pin the encoding: a support list of length exactly n would
    # otherwise re-read as an exponent vector
    return {"gens": x.gens, "encoding": "support"}


@_document.register
def _(x: MonomialIdeal):
    return {"gens": x.gens, "encoding": "exponents"}


@_document.register
def _(x: SimplicialComplex):
    return {"facets": x.facets}


@_document.register
def _(x: SqQuotient):
    return {"inner": x.inner, "outer": x.outer}


@_document.register
def _(x: ExtElement):
    return {"terms": [{"set": IndexSet(x.n, m), "coeff": c} for m, c in x.items]}


@_document.register
def _(x: BettiTable):
    return {"char": x.char,
            "entries": [(i, IndexSet(x.n, m), v) for i, m, v in x.entries]}


def to_jsonable(x):
    """x as plain dicts, lists and scalars: its JSON document read back."""
    return json.loads(json.dumps(x, default=_document))


def instance_document(x) -> dict:
    """Wrap an ideal, quotient, or complex as a full instance document."""
    if isinstance(x, (SqIdeal, MonomialIdeal)):
        key = "ideal"
    elif isinstance(x, SqQuotient):
        key = "quotient"
    elif isinstance(x, SimplicialComplex):
        key = "complex"
    else:
        raise TypeError(f"not an instance object: {type(x).__name__}")
    return {"version": FORMAT_VERSION, "n": x.n, key: to_jsonable(x)}


def dump_json(x) -> str:
    return json.dumps(x, default=_document, sort_keys=True, indent=2) + "\n"


def write_csv(rows, stream, columns=None):
    """Flat record dicts as CSV; the columns, when given, head even an
    empty table, and otherwise follow the first row's keys."""
    rows = list(rows)
    if columns is None and not rows:
        return
    writer = csv.DictWriter(stream, fieldnames=columns or list(rows[0]))
    writer.writeheader()
    for r in rows:
        writer.writerow(r)
