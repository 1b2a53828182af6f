"""Line-oriented document format for algebras, finite rings, and mixed rings.

A document is a header block followed by kind-specific sections and a final
``end`` line.  Rationals are written ``p`` or ``p/q``.  Structure constants
are sparse: one line ``i j k p/q`` per nonzero coefficient, meaning
``e_i * e_j`` has coefficient p/q on ``e_k``; unreferenced pairs multiply to
zero.  Serialization is canonical (sorted constants, fixed section order),
so parse/serialize round-trips are byte-identical.

Example::

    format 1
    kind algebra
    name strictly-upper-3
    dim 3
    labels K1 K1 K1
    constants
    0 2 1 1
    end
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import AlgebraPresentation
from .errors import DocumentError
from .finite import FiniteRing
from .linalg import INT_PATTERN, MAX_DIGITS, ZERO, format_rat, parse_rat
from .mixed import MixedRing

FORMAT_VERSION = 1

KIND_ALGEBRA = "algebra"
KIND_FINITE = "finite_ring"
KIND_MIXED = "mixed"

_INT_FIELD = re.compile(INT_PATTERN)
_INT_ROW = re.compile(rf"\s*{INT_PATTERN}(?:\s+{INT_PATTERN})*\s*")


class AlgebraDocument:
    """Parsed document; ``payload`` is a kind-specific plain dict."""

    __slots__ = ("format_version", "kind", "name", "payload")

    def __init__(self, kind: str, name: str, payload: dict, format_version: int = FORMAT_VERSION):
        if kind not in (KIND_ALGEBRA, KIND_FINITE, KIND_MIXED):
            raise DocumentError(f"unknown document kind {kind!r}")
        self.format_version = format_version
        self.kind = kind
        self.name = name
        self.payload = payload

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraDocument)
            and self.format_version == other.format_version
            and self.kind == other.kind
            and self.name == other.name
            and self.payload == other.payload
        )

    def __repr__(self):
        return f"AlgebraDocument({self.kind}, {self.name!r})"


def algebra_document(
    name: str,
    dim: int,
    constants: Dict[Tuple[int, int], Sequence],
    labels: Optional[Sequence[str]] = None,
    basis_names: Optional[Sequence[str]] = None,
) -> AlgebraDocument:
    labels = tuple(labels) if labels is not None else ("K1",) * dim
    triples = []
    for (i, j), dense in constants.items():
        for k, c in enumerate(dense):
            c = Fraction(c)
            if c != 0:
                triples.append((i, j, k, c))
    payload = {
        "dim": dim,
        "labels": labels,
        "constants": tuple(sorted(triples, key=lambda t: t[:3])),
    }
    if basis_names:
        payload["basis"] = tuple(basis_names)
    return AlgebraDocument(KIND_ALGEBRA, name, payload)


def finite_document(name: str, ring_or_tables, zero: int = 0) -> AlgebraDocument:
    if isinstance(ring_or_tables, FiniteRing):
        add = tuple(tuple(int(x) for x in row) for row in ring_or_tables.add)
        mul = tuple(tuple(int(x) for x in row) for row in ring_or_tables.mul)
        zero = ring_or_tables.zero
    else:
        add, mul = ring_or_tables
        add = tuple(tuple(int(x) for x in row) for row in add)
        mul = tuple(tuple(int(x) for x in row) for row in mul)
    return AlgebraDocument(
        KIND_FINITE, name, {"order": len(add), "zero": zero, "add": add, "mul": mul}
    )


def mixed_document(
    name: str,
    finite: AlgebraDocument,
    algebra: AlgebraDocument,
    torsion_rank: int,
    cross: Dict[Tuple[int, int], Sequence],
) -> AlgebraDocument:
    rows = []
    for (i, j), values in cross.items():
        values = tuple(Fraction(v) for v in values)
        if any(v != 0 for v in values):
            rows.append((i, j, values))
    return AlgebraDocument(
        KIND_MIXED,
        name,
        {
            "finite": finite.payload,
            "algebra": algebra.payload,
            "torsion_rank": torsion_rank,
            "cross": tuple(sorted(rows, key=lambda t: t[:2])),
        },
    )


# -- serialization -----------------------------------------------------------


def serialize(doc: AlgebraDocument) -> str:
    lines = [f"format {doc.format_version}", f"kind {doc.kind}", f"name {doc.name}"]
    if doc.kind == KIND_ALGEBRA:
        _serialize_algebra_body(doc.payload, lines)
    elif doc.kind == KIND_FINITE:
        _serialize_finite_body(doc.payload, lines)
    else:
        lines.append("finite")
        _serialize_finite_body(doc.payload["finite"], lines)
        lines.append("algebra")
        _serialize_algebra_body(doc.payload["algebra"], lines)
        lines.append(f"torsion_rank {doc.payload['torsion_rank']}")
        lines.append("cross")
        for i, j, values in doc.payload["cross"]:
            lines.append(f"{i} {j} " + " ".join(format_rat(v) for v in values))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _serialize_algebra_body(payload: dict, lines: List[str]):
    lines.append(f"dim {payload['dim']}")
    lines.append("labels" + ("" if not payload["labels"] else " " + " ".join(payload["labels"])))
    if payload.get("basis"):
        lines.append("basis " + " ".join(payload["basis"]))
    lines.append("constants")
    for i, j, k, c in payload["constants"]:
        lines.append(f"{i} {j} {k} {format_rat(c)}")


def _serialize_finite_body(payload: dict, lines: List[str]):
    lines.append(f"order {payload['order']}")
    lines.append(f"zero {payload['zero']}")
    lines.append("add")
    for row in payload["add"]:
        lines.append(" ".join(str(x) for x in row))
    lines.append("mul")
    for row in payload["mul"]:
        lines.append(" ".join(str(x) for x in row))


# -- parsing ------------------------------------------------------------------


class _Cursor:
    def __init__(self, text: str):
        self.lines = [ln.rstrip() for ln in text.splitlines()]
        self.pos = 0

    def peek(self) -> Optional[str]:
        while self.pos < len(self.lines) and not self.lines[self.pos].strip():
            self.pos += 1
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self) -> str:
        line = self.peek()
        if line is None:
            raise DocumentError("unexpected end of document")
        self.pos += 1
        return line

    def expect_key(self, key: str) -> str:
        line = self.take()
        if line == key:
            return ""
        if not line.startswith(key + " "):
            raise DocumentError(f"expected {key!r} line, found {line!r}")
        return line[len(key) + 1 :]


def _int(text: str, what: str) -> int:
    if _INT_FIELD.fullmatch(text) is None:
        raise DocumentError(
            f"{what} must be an integer of at most {MAX_DIGITS} digits, got {text[:40]!r}"
        )
    return int(text)


def _int_row(line: str) -> tuple:
    if _INT_ROW.fullmatch(line) is None:
        raise DocumentError(
            f"table row must be integers of at most {MAX_DIGITS} digits: {line[:40]!r}"
        )
    return tuple(map(int, line.split()))


def parse(text: str) -> AlgebraDocument:
    cur = _Cursor(text)
    version = _int(cur.expect_key("format"), "format version")
    if version != FORMAT_VERSION:
        raise DocumentError(f"unsupported format version {version}")
    kind = cur.expect_key("kind")
    name = cur.expect_key("name")
    if kind == KIND_ALGEBRA:
        payload = _parse_algebra_body(cur)
    elif kind == KIND_FINITE:
        payload = _parse_finite_body(cur)
    elif kind == KIND_MIXED:
        cur.expect_key("finite")
        finite = _parse_finite_body(cur)
        cur.expect_key("algebra")
        algebra = _parse_algebra_body(cur)
        rank = _int(cur.expect_key("torsion_rank"), "torsion_rank")
        cur.expect_key("cross")
        rows = []
        while True:
            line = cur.peek()
            if line is None:
                raise DocumentError("missing end line")
            if line == "end":
                break
            parts = cur.take().split()
            if len(parts) != 2 + rank:
                raise DocumentError(f"cross line needs 2 indices and {rank} rationals: {line!r}")
            rows.append(
                (
                    _int(parts[0], "cross index"),
                    _int(parts[1], "cross index"),
                    tuple(parse_rat(p) for p in parts[2:]),
                )
            )
        payload = {
            "finite": finite,
            "algebra": algebra,
            "torsion_rank": rank,
            "cross": tuple(sorted(rows, key=lambda t: t[:2])),
        }
    else:
        raise DocumentError(f"unknown document kind {kind!r}")
    cur.expect_key("end")
    return AlgebraDocument(kind, name, payload, format_version=version)


def _parse_algebra_body(cur: _Cursor) -> dict:
    dim = _int(cur.expect_key("dim"), "dim")
    labels_line = cur.expect_key("labels")
    labels = tuple(labels_line.split()) if labels_line else ()
    if len(labels) != dim:
        raise DocumentError(f"expected {dim} labels, found {len(labels)}")
    payload: dict = {"dim": dim, "labels": labels}
    line = cur.peek()
    if line is not None and line.startswith("basis "):
        payload["basis"] = tuple(cur.take().split()[1:])
        if len(payload["basis"]) != dim:
            raise DocumentError("basis names do not match the dimension")
    cur.expect_key("constants")
    triples = []
    while True:
        line = cur.peek()
        if line is None:
            raise DocumentError("missing end line")
        if not line or not line[0].isdigit():
            break
        parts = cur.take().split()
        if len(parts) != 4:
            raise DocumentError(f"constant line must be 'i j k p/q': {line!r}")
        i, j, k = (_int(p, "constant index") for p in parts[:3])
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise DocumentError(f"constant indices out of range: {line!r}")
        triples.append((i, j, k, parse_rat(parts[3])))
    payload["constants"] = tuple(sorted(triples, key=lambda t: t[:3]))
    return payload


def _parse_finite_body(cur: _Cursor) -> dict:
    order = _int(cur.expect_key("order"), "order")
    zero = _int(cur.expect_key("zero"), "zero")
    cur.expect_key("add")
    add = tuple(_int_row(cur.take()) for _ in range(order))
    cur.expect_key("mul")
    mul = tuple(_int_row(cur.take()) for _ in range(order))
    for row in add + mul:
        if len(row) != order:
            raise DocumentError("table row has wrong width")
    return {"order": order, "zero": zero, "add": add, "mul": mul}


# -- realization --------------------------------------------------------------


def to_object(doc: AlgebraDocument):
    """Build and validate the live object a document describes."""
    if doc.kind == KIND_ALGEBRA:
        return _algebra_from_payload(doc.name, doc.payload)
    if doc.kind == KIND_FINITE:
        p = doc.payload
        return FiniteRing(doc.name, p["add"], p["mul"], zero=p["zero"])
    p = doc.payload
    finite = FiniteRing(f"{doc.name}|F", p["finite"]["add"], p["finite"]["mul"], p["finite"]["zero"])
    algebra = _algebra_from_payload(f"{doc.name}|V", p["algebra"])
    cross = {(i, j): values for i, j, values in p["cross"]}
    return MixedRing(doc.name, finite, algebra, p["torsion_rank"], cross)


def _algebra_from_payload(name: str, payload: dict) -> AlgebraPresentation:
    dim = payload["dim"]
    constants: Dict[Tuple[int, int], list] = {}
    for i, j, k, c in payload["constants"]:
        dense = constants.setdefault((i, j), [ZERO] * dim)
        dense[k] = dense[k] + c
    return AlgebraPresentation(
        name, dim, constants, field_labels=payload["labels"] or None,
        basis_names=payload.get("basis"),
    )


def document_of(obj, name: Optional[str] = None) -> AlgebraDocument:
    """Document form of a live object."""
    if isinstance(obj, AlgebraPresentation):
        return algebra_document(
            name or obj.name,
            obj.dim,
            {pair: _dense(obj, pair) for pair in obj.sparse_table()},
            labels=obj.field_labels,
            basis_names=obj.basis_names,
        )
    if isinstance(obj, FiniteRing):
        return finite_document(name or obj.name, obj)
    if isinstance(obj, MixedRing):
        return mixed_document(
            name or obj.name,
            finite_document(f"{obj.name}|F", obj.finite_part),
            document_of(obj.algebra_part, name=f"{obj.name}|V"),
            obj.torsion_rank,
            dict(obj.cross),
        )
    raise DocumentError(f"cannot serialize object of type {type(obj).__name__}")


def _dense(alg: AlgebraPresentation, pair) -> tuple:
    return alg.basis_product(*pair)


def load_path(path) -> AlgebraDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def save_path(doc: AlgebraDocument, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(doc))
