"""Workload definitions: which documents each workload loads and which
commands it runs on them, plus the seeded basis change of ``rebased``.

Every document comes from a ``generate`` family and reaches the engine only
as serialized text, the way a file reaches the CLI.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from ringstruct.documents import (
    AlgebraDocument,
    algebra_document,
    finite_document,
    parse,
    serialize,
)
from ringstruct.generators import finite_plus_field, generate

ALGEBRA_COMMANDS = ("classify", "radical", "idempotents", "unitize")
TRIANGULAR_COMMANDS = ("radical", "unitize", "classify")


@dataclass(frozen=True)
class DocSpec:
    key: str  # stable name of the standard-basis document
    family: str
    params: Tuple[Tuple[str, str], ...]
    commands: Tuple[str, ...]

    def document(self) -> AlgebraDocument:
        params = dict(self.params)
        if self.family in UNVALIDATED:
            return UNVALIDATED[self.family](int(params["n"]))
        return generate(self.family, params)


def _zmod_document(n: int) -> AlgebraDocument:
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    return finite_document(f"Z{n}", (add, mul))


# ``generate`` validates these tables once or twice before the engine ever
# sees them (seconds at order 256); these builders give the same documents
# without validating, and the self-tests check that they are identical.
UNVALIDATED = {"zn": _zmod_document, "z3q": finite_plus_field}


def _spec(key: str, family: str, commands: Sequence[str], **params) -> DocSpec:
    return DocSpec(key, family, tuple((k, str(v)) for k, v in params.items()), tuple(commands))


WORKLOADS: Dict[str, List[DocSpec]] = {
    # Simple and semisimple algebras: probe-driven primitive peel, central
    # splitting and many small RREFs.
    "semisimple": [
        _spec("m2", "m", ["classify"], n=2),
        *[_spec(f"m{n}", "m", ["classify", "idempotents"], n=n) for n in (3, 4, 5)],
        _spec("h", "h", ["classify", "idempotents"]),
        _spec("h-2-3", "h", ["classify"], a=-2, b=-3),
        _spec("c", "c", ["classify"]),
        _spec("field", "field", ["classify"]),
        _spec("reduced-r2p2q1", "reduced", ["classify", "idempotents"], r=2, p=2, q=1),
        _spec("sum-m3-h-c", "sum", ["classify"], parts="m:3:K1,h::K2,c::K3"),
    ],
    # Nilpotent and triangular algebras: radical layer, tall stacked systems;
    # the semisimple peel sees only 1x1 blocks or nothing.
    "triangular": [
        *[_spec(f"t{n}", "t", TRIANGULAR_COMMANDS, n=n) for n in (5, 6, 7, 8)],
        *[_spec(f"utd{n}", "utd", TRIANGULAR_COMMANDS, n=n) for n in (4, 5, 6, 7)],
        *[_spec(f"ann-gap{n}", "ann-gap", TRIANGULAR_COMMANDS, n=n) for n in (4, 5, 6)],
        _spec("null6", "null", TRIANGULAR_COMMANDS, n=6),
        _spec("cocycle", "cocycle", TRIANGULAR_COMMANDS),
    ],
    # Finite tables and mixed rings: table validation memory, brute force,
    # the mixed layer; no rational linear algebra at all.
    "tables": [
        *[_spec(f"zn{n}", "zn", ["oracle"], n=n) for n in (64, 128, 256)],
        _spec("mat-zp-n2p3", "mat-zp", ["oracle"], n=2, p=3),
        _spec("t-zp-n3p5", "t-zp", ["oracle"], n=3, p=5),
        _spec("zn-product-8-16", "zn-product", ["oracle"], n1=8, n2=16),
        _spec("z3q64", "z3q", ["classify"], n=64),
        _spec("disconnected", "disconnected", ["classify"]),
    ],
    # Standard algebras in a seeded random basis: dense structure constants.
    "rebased": [
        _spec("m2", "m", ALGEBRA_COMMANDS, n=2),
        _spec("m3", "m", ALGEBRA_COMMANDS, n=3),
        _spec("h", "h", ALGEBRA_COMMANDS),
        _spec("h-2-3", "h", ALGEBRA_COMMANDS, a=-2, b=-3),
        _spec("c", "c", ALGEBRA_COMMANDS),
        _spec("utd3", "utd", ALGEBRA_COMMANDS, n=3),
        _spec("t4", "t", ALGEBRA_COMMANDS, n=4),
        _spec("ann-gap4", "ann-gap", ALGEBRA_COMMANDS, n=4),
        _spec("reduced-r1p1q1", "reduced", ALGEBRA_COMMANDS, r=1, p=1, q=1),
        _spec("sum-m2-t3-h", "sum", ALGEBRA_COMMANDS, parts="m:2:K1,t:3:K2,h::K3"),
    ],
}


@dataclass(frozen=True)
class Input:
    key: str  # the standard-basis document key (expected verdicts are keyed by it)
    kind: str
    text: str  # what the engine receives
    commands: Tuple[str, ...]


def build_inputs(workload: str, seed: int) -> List[Input]:
    """The workload's documents as text; ``seed`` picks the basis of ``rebased``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    inputs = []
    for spec in WORKLOADS[workload]:
        doc = spec.document()
        if workload == "rebased":
            doc = rebase(doc, random.Random(f"{seed}:{spec.key}"))
        text = serialize(doc)
        if serialize(parse(text)) != text:
            raise RuntimeError(f"{spec.key}: document does not round-trip through parse")
        inputs.append(Input(spec.key, doc.kind, text, spec.commands))
    return inputs


# -- the rebased generator ------------------------------------------------------


def label_blocks(labels: Sequence[str]) -> List[range]:
    """Maximal runs of equal field labels."""
    blocks, start = [], 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            blocks.append(range(start, i))
            start = i
    return blocks


def random_unimodular(size: int, rng: random.Random) -> List[List[int]]:
    """``L @ U`` with unit triangular factors whose off-diagonal entries lie in
    {-1, 0, 1}: invertible over the integers, with small dense entries."""
    lower = [[1 if i == j else (rng.randint(-1, 1) if j < i else 0) for j in range(size)]
             for i in range(size)]
    upper = [[1 if i == j else (rng.randint(-1, 1) if j > i else 0) for j in range(size)]
             for i in range(size)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)]


def invert(matrix: Sequence[Sequence[int]]) -> List[List[Fraction]]:
    """Exact inverse by Gauss-Jordan; independent of the engine's kernel."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        pv = rows[col][col]
        rows[col] = [x / pv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def rebase(doc: AlgebraDocument, rng: random.Random) -> AlgebraDocument:
    """The same algebra in the basis ``f_i = sum_a P[i][a] e_a``.

    ``P`` is block-diagonal over the field-label blocks, each block drawn by
    :func:`random_unimodular`, so labels stay valid and the algebra is
    isomorphic to the input.
    """
    payload = doc.payload
    dim, labels = payload["dim"], payload["labels"]
    p = [[0] * dim for _ in range(dim)]
    for block in label_blocks(labels):
        sub = random_unimodular(len(block), rng)
        for i, bi in enumerate(block):
            for j, bj in enumerate(block):
                p[bi][bj] = sub[i][j]
    q = invert(p)
    table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for a, b, c, coeff in payload["constants"]:
        table.setdefault((a, b), {})[c] = coeff
    constants = {}
    for i in range(dim):
        for j in range(dim):
            in_e = [Fraction(0)] * dim  # f_i * f_j over the old basis
            for (a, b), vec in table.items():
                w = p[i][a] * p[j][b]
                if w:
                    for c, coeff in vec.items():
                        in_e[c] += w * coeff
            in_f = [sum(in_e[c] * q[c][d] for c in range(dim) if in_e[c]) for d in range(dim)]
            if any(in_f):
                constants[(i, j)] = in_f
    return algebra_document(f"{doc.name}~rebased", dim, constants, labels=labels)
