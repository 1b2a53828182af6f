"""Named-family generators: the test corpus's source.

Every generator emits a validated :class:`AlgebraDocument`; families cover
strictly upper triangular and full matrix algebras, quaternions, quadratic
lines, null rings, the shared-socle family with a prescribed gap between its
largest null ideal and its annihilator, the square-cocycle line, direct sums
with label tagging, reduced products, and the finite/mixed templates.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .documents import (
    AlgebraDocument,
    algebra_document,
    finite_document,
    mixed_document,
    to_object,
)
from .errors import InvalidParams
from .finite import finite_product, matrix_ring_zp, strictly_upper_zp, zmod
from .linalg import INT_PATTERN, MAX_DIGITS, ZERO, rat


def _unit(n: int, k: int) -> list:
    v = [ZERO] * n
    v[k] = Fraction(1)
    return v


def _matrix_units(name: str, n: int, keep, label: str) -> AlgebraDocument:
    """The span of the matrix units E_ab (1 <= a, b <= n) with keep(a, b),
    under E_ab E_bd = E_ad; the kept slots must be closed under that product."""
    slots = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if keep(a, b)]
    pos = {s: k for k, s in enumerate(slots)}
    dim = len(slots)
    constants = {}
    for (a, b), i in pos.items():
        for (c, d), j in pos.items():
            if b == c:
                constants[(i, j)] = _unit(dim, pos[(a, d)])
    names = [f"E{a}{b}" for a, b in slots]
    return algebra_document(name, dim, constants, labels=[label] * dim, basis_names=names)


def strictly_upper(n: int, label: str = "K1") -> AlgebraDocument:
    """T_n: strictly upper triangular n x n matrices; nilpotent of index n."""
    if n < 2:
        raise InvalidParams("strictly_upper requires n >= 2")
    return _matrix_units(f"T{n}", n, lambda a, b: a < b, label)


def matrix_algebra(n: int, label: str = "K1") -> AlgebraDocument:
    """M_n: the full matrix algebra, simple of dimension n^2."""
    if n < 1:
        raise InvalidParams("matrix_algebra requires n >= 1")
    return _matrix_units(f"M{n}", n, lambda a, b: True, label)


def upper_triangular(n: int, label: str = "K1") -> AlgebraDocument:
    """Upper triangular matrices with diagonal; radical is the strict part."""
    if n < 1:
        raise InvalidParams("upper_triangular requires n >= 1")
    return _matrix_units(f"UT{n}", n, lambda a, b: a <= b, label)


def quaternion(a: int = -1, b: int = -1, label: str = "K1") -> AlgebraDocument:
    """The quaternion algebra (a, b): i^2 = a, j^2 = b, ij = -ji = k."""
    a, b = rat(a), rat(b)
    if a == 0 or b == 0:
        raise InvalidParams("quaternion parameters must be nonzero")
    # the document holds a, b and -a*b, each within the parser's digit cap
    limit = 10**MAX_DIGITS
    if any(abs(q.numerator) >= limit or q.denominator >= limit for q in (a, b, a * b)):
        raise InvalidParams(
            f"quaternion parameters and their product need at most {MAX_DIGITS} digits"
        )
    one, i, j, k = range(4)
    c: Dict[Tuple[int, int], list] = {}

    def put(x, y, vecs):
        c[(x, y)] = vecs

    put(one, one, _unit(4, one))
    put(one, i, _unit(4, i))
    put(one, j, _unit(4, j))
    put(one, k, _unit(4, k))
    put(i, one, _unit(4, i))
    put(j, one, _unit(4, j))
    put(k, one, _unit(4, k))
    put(i, i, [a, ZERO, ZERO, ZERO])
    put(j, j, [b, ZERO, ZERO, ZERO])
    put(k, k, [-a * b, ZERO, ZERO, ZERO])
    put(i, j, _unit(4, k))
    put(j, i, [ZERO, ZERO, ZERO, Fraction(-1)])
    put(i, k, [ZERO, ZERO, a, ZERO])
    put(k, i, [ZERO, ZERO, -a, ZERO])
    put(j, k, [ZERO, -b, ZERO, ZERO])
    put(k, j, [ZERO, b, ZERO, ZERO])
    name = "H" if (a, b) == (-1, -1) else f"H({a},{b})"
    return algebra_document(name, 4, c, labels=[label] * 4, basis_names=["1", "i", "j", "k"])


def quadratic_line(label: str = "K1") -> AlgebraDocument:
    """K adjoined a square root of -1: basis {1, i} with i^2 = -1."""
    c = {
        (0, 0): _unit(2, 0),
        (0, 1): _unit(2, 1),
        (1, 0): _unit(2, 1),
        (1, 1): [Fraction(-1), ZERO],
    }
    return algebra_document("C", 2, c, labels=[label] * 2, basis_names=["1", "i"])


def base_field(label: str = "K1") -> AlgebraDocument:
    """One-dimensional unital algebra: the base field itself."""
    return algebra_document("K", 1, {(0, 0): _unit(1, 0)}, labels=[label], basis_names=["1"])


def null_ring(n: int, label: str = "K1") -> AlgebraDocument:
    """Trivial multiplication in dimension n."""
    if n < 1:
        raise InvalidParams("null_ring requires n >= 1")
    return algebra_document(f"null{n}", n, {}, labels=[label] * n)


def annihilator_gap(n: int, label: str = "K1") -> AlgebraDocument:
    """Shared-socle nilpotent family of dimension 2n + 1.

    Basis x, a_1..a_n, b_1..b_n with the single relation family
    b_i * x = a_i.  The span of the a_i and b_i is an ideal with trivial
    multiplication whose codimension in the annihilator is exactly n: the
    annihilator is spanned by the a_i alone.
    """
    if n < 1:
        raise InvalidParams("annihilator_gap requires n >= 1")
    dim = 2 * n + 1
    constants = {}
    for i in range(1, n + 1):
        constants[(n + i, 0)] = _unit(dim, i)  # b_i * x = a_i
    names = ["x"] + [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, n + 1)]
    return algebra_document(f"gap{n}", dim, constants, labels=[label] * dim, basis_names=names)


def square_cocycle(label: str = "K1") -> AlgebraDocument:
    """Two-dimensional nilpotent line with the single product e1 * e1 = e2."""
    return algebra_document(
        "cocycle", 2, {(0, 0): _unit(2, 1)}, labels=[label] * 2, basis_names=["x", "x2"]
    )


def direct_sum(parts: Sequence[AlgebraDocument], name: Optional[str] = None) -> AlgebraDocument:
    """Componentwise sum; labels are concatenated and must stay contiguous."""
    if not parts:
        raise InvalidParams("direct_sum requires at least one part")
    dims = [p.payload["dim"] for p in parts]
    total = sum(dims)
    labels: List[str] = []
    names: List[str] = []
    constants: Dict[Tuple[int, int], list] = {}
    offset = 0
    for idx, part in enumerate(parts):
        if part.kind != "algebra":
            raise InvalidParams("direct_sum only combines algebra documents")
        labels.extend(part.payload["labels"])
        base = part.payload.get("basis") or tuple(
            f"e{i}" for i in range(part.payload["dim"])
        )
        names.extend(f"{nm}.{idx}" for nm in base)
        for i, j, k, c in part.payload["constants"]:
            dense = constants.setdefault((i + offset, j + offset), [ZERO] * total)
            dense[k + offset] = dense[k + offset] + c
        offset += part.payload["dim"]
    out_name = name or "+".join(p.name for p in parts)
    return algebra_document(out_name, total, constants, labels=labels, basis_names=names)


def relabel(doc: AlgebraDocument, label: str) -> AlgebraDocument:
    """Retag every coordinate of an algebra document with one label."""
    if doc.kind != "algebra":
        raise InvalidParams("relabel applies to algebra documents")
    payload = dict(doc.payload)
    payload["labels"] = (label,) * payload["dim"]
    return AlgebraDocument(doc.kind, doc.name, payload)


def reduced_ring(r: int, p: int, q: int, label: str = "K1") -> AlgebraDocument:
    """K^r x (K + K sqrt(-1))^p x quaternions^q over one label."""
    if r < 0 or p < 0 or q < 0 or r + p + q == 0:
        raise InvalidParams("reduced_ring requires nonnegative counts, not all zero")
    parts = (
        [base_field(label) for _ in range(r)]
        + [quadratic_line(label) for _ in range(p)]
        + [quaternion(label=label) for _ in range(q)]
    )
    return direct_sum(parts, name=f"red-r{r}p{p}q{q}-{label}")


# -- finite and mixed families -------------------------------------------------


def zmod_document(n: int) -> AlgebraDocument:
    return finite_document(f"Z{n}", zmod(n))


def matrix_ring_document(n: int, p: int) -> AlgebraDocument:
    return finite_document(f"M{n}(Z{p})", matrix_ring_zp(n, p))


def strictly_upper_finite_document(n: int, p: int) -> AlgebraDocument:
    return finite_document(f"T{n}(Z{p})", strictly_upper_zp(n, p))


def finite_product_document(n1: int, n2: int) -> AlgebraDocument:
    ring = finite_product(zmod(n1), zmod(n2))
    return finite_document(ring.name, ring)


def disconnected_example() -> AlgebraDocument:
    """Order-2 torsion glued to a circle line: (1, x)(1, y) = (0, 1/2).

    The finite part is the null ring on Z/2; the divisible torsion rank is
    one; the only nonzero product is the cross term.  Non-unital, and no
    additive complement of the connected part is a subring.
    """
    fin = finite_document("Z2-null", (((0, 1), (1, 0)), ((0, 0), (0, 0))), zero=0)
    alg = algebra_document("V0", 0, {}, labels=())
    return mixed_document("disconnected", fin, alg, 1, {(1, 1): [Fraction(1, 2)]})


def finite_plus_field(n: int = 3) -> AlgebraDocument:
    """Z/n glued componentwise to the base field; unital, splits."""
    fin = finite_document(f"Z{n}", zmod(n))
    alg = base_field()
    return mixed_document(f"z{n}q", fin, alg, 0, {})


# -- CLI-facing registry ---------------------------------------------------------


def _params_int(params: dict, key: str, default=None) -> int:
    if key not in params:
        if default is None:
            raise InvalidParams(f"missing parameter {key!r}")
        return default
    value = str(params.pop(key))
    if not re.fullmatch(INT_PATTERN, value):
        raise InvalidParams(f"parameter {key!r} must be an integer of at most {MAX_DIGITS} digits")
    return int(value)


def generate(family: str, params: Optional[dict] = None) -> AlgebraDocument:
    """Build a named family from key=value parameters; validates on the way out."""
    params = dict(params or {})
    label = params.pop("label", "K1")
    family = family.lower()
    if family == "t":
        doc = strictly_upper(_params_int(params, "n"), label)
    elif family == "m":
        doc = matrix_algebra(_params_int(params, "n"), label)
    elif family == "utd":
        doc = upper_triangular(_params_int(params, "n"), label)
    elif family == "h":
        doc = quaternion(_params_int(params, "a", -1), _params_int(params, "b", -1), label)
    elif family == "c":
        doc = quadratic_line(label)
    elif family == "field":
        doc = base_field(label)
    elif family == "null":
        doc = null_ring(_params_int(params, "n"), label)
    elif family == "ann-gap":
        doc = annihilator_gap(_params_int(params, "n"), label)
    elif family == "cocycle":
        doc = square_cocycle(label)
    elif family == "reduced":
        doc = reduced_ring(
            _params_int(params, "r", 0),
            _params_int(params, "p", 0),
            _params_int(params, "q", 0),
            label,
        )
    elif family == "sum":
        spec = params.pop("parts", None)
        if not spec:
            raise InvalidParams("sum requires parts=fam:n:label,fam:n:label,...")
        parts = []
        for chunk in str(spec).split(","):
            bits = chunk.split(":")
            if not bits or not bits[0]:
                raise InvalidParams(f"bad part spec {chunk!r}")
            fam = bits[0]
            sub_params = {}
            if len(bits) > 1 and bits[1]:
                sub_params["n"] = bits[1]
            if len(bits) > 2 and bits[2]:
                sub_params["label"] = bits[2]
            parts.append(generate(fam, sub_params))
        doc = direct_sum(parts)
    elif family == "zn":
        doc = zmod_document(_params_int(params, "n"))
    elif family == "mat-zp":
        doc = matrix_ring_document(_params_int(params, "n"), _params_int(params, "p"))
    elif family == "t-zp":
        doc = strictly_upper_finite_document(_params_int(params, "n"), _params_int(params, "p"))
    elif family == "zn-product":
        doc = finite_product_document(_params_int(params, "n1"), _params_int(params, "n2"))
    elif family == "disconnected":
        doc = disconnected_example()
    elif family == "z3q":
        doc = finite_plus_field(_params_int(params, "n", 3))
    else:
        raise InvalidParams(f"unknown family {family!r}")
    if params:
        raise InvalidParams(f"unused parameters: {sorted(params)}")
    to_object(doc)  # regression net: every generated family must load
    return doc


FAMILIES = (
    "t",
    "m",
    "utd",
    "h",
    "c",
    "field",
    "null",
    "ann-gap",
    "cocycle",
    "reduced",
    "sum",
    "zn",
    "mat-zp",
    "t-zp",
    "zn-product",
    "disconnected",
    "z3q",
)
