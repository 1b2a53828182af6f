"""Structured reports for the engine's verdicts.

Reports embed certificates, never bare verdicts: idempotent coordinate
lists, ideal bases, dimension accounting, nilpotency indices, and
witnesses, so every report can be re-verified without trusting the engine
(see :mod:`ringstruct.verification`).  Rendering is deterministic: equal
documents produce byte-identical reports.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .algebra import AlgebraPresentation, find_unity
from .classify import classify, minimal_unitization
from .documents import (
    KIND_ALGEBRA,
    KIND_FINITE,
    KIND_MIXED,
    AlgebraDocument,
    document_of,
    serialize,
    to_object,
)
from .errors import DocumentError
from .finite import (
    IDEAL_ENUM_CAP,
    FiniteRing,
    finite_structure,
    jacobson_definitional,
    largest_nilpotent_ideal,
)
from .idempotents import find_idempotent
from .linalg import format_rat
from .mixed import MixedRing, finite_connected_split, torsion_ideal
from .radical import is_nilpotent, jacobson_radical, radical_complement
from .classify import semiprime_check, semisimple_decompose

COMMANDS = ("classify", "radical", "idempotents", "unitize", "oracle")


def _coords(vector) -> List[str]:
    return [format_rat(x) for x in vector]


def _basis(subspace) -> List[List[str]]:
    return [_coords(row) for row in subspace.basis_rows()]


def run_report(doc: AlgebraDocument, command: str) -> dict:
    """Dispatch a command against a document and emit a certificate-bearing report."""
    if command not in COMMANDS:
        raise DocumentError(f"unknown command {command!r}")
    obj = to_object(doc)
    if isinstance(obj, AlgebraPresentation):
        handler = _ALGEBRA_HANDLERS.get(command)
        if handler is None:
            raise DocumentError(f"command {command!r} does not apply to algebra documents")
        body = handler(obj)
    elif isinstance(obj, FiniteRing):
        handler = _FINITE_HANDLERS.get(command)
        if handler is None:
            raise DocumentError(f"command {command!r} applies to finite rings only via others")
        body = handler(obj)
    else:
        handler = _MIXED_HANDLERS.get(command)
        if handler is None:
            raise DocumentError(f"command {command!r} does not apply to mixed documents")
        body = handler(obj)
    report = {"command": command, "kind": doc.kind, "name": doc.name}
    report.update(body)
    return report


# -- algebra handlers ----------------------------------------------------------


def _algebra_classify(alg: AlgebraPresentation) -> dict:
    rep = classify(alg)
    factors = []
    for f in rep.factors:
        factors.append(
            {
                "label": f.field_label,
                "dim": f.ideal.dim,
                "nilpotent": f.is_nilpotent,
                "radical_dim": f.radical_dim,
                "simple_factors": [
                    {
                        "matrix_degree": sf.matrix_degree,
                        "division_dim": sf.division_dim,
                        "division_type": sf.division_type,
                        "ideal_basis": _basis(sf.ideal.subspace),
                        "central_idempotent": _coords(sf.central_idempotent.coords),
                        "primitive_idempotents": [
                            _coords(p.coords) for p in sf.primitive_idempotents
                        ],
                    }
                    for sf in f.simple_factors
                ],
            }
        )
    return {
        "dim": rep.dim,
        "verdict": {
            "s": rep.s,
            "r0_dim": rep.r0_dim,
            "unital": rep.unital,
            "unity_subring_dim": rep.unity_subring_dim,
            "field_witnesses": list(rep.field_witnesses),
        },
        "certificates": {
            "r0_basis": _basis(rep.r0_space),
            "unity": _coords(rep.unity.coords) if rep.unital else None,
            "factors": factors,
            "dimension_accounting": {
                "r0": rep.r0_dim,
                "factor_dims": [f.ideal.dim for f in rep.factors],
                "total": rep.dim,
            },
        },
    }


def _algebra_radical(alg: AlgebraPresentation) -> dict:
    radical = jacobson_radical(alg)
    cert = is_nilpotent(alg)
    complement = radical_complement(alg)
    body = {
        "dim": alg.dim,
        "verdict": {
            "radical_dim": radical.dim,
            "algebra_nilpotent": bool(cert),
            "complement_dim": complement.dim,
        },
        "certificates": {
            "radical_basis": _basis(radical.subspace),
            "complement_basis": _basis(complement.subspace),
        },
    }
    if cert:
        body["verdict"]["nilpotency_index"] = cert.index
    else:
        body["certificates"]["non_nilpotent_witness"] = _coords(cert.witness.coords)
    return body


def _algebra_idempotents(alg: AlgebraPresentation) -> dict:
    e = find_idempotent(alg)
    body: Dict[str, object] = {
        "dim": alg.dim,
        "verdict": {"nilpotent": e is None, "found": e is not None},
        "certificates": {},
    }
    if e is not None:
        body["certificates"]["idempotent"] = _coords(e.coords)
    if alg.dim > 0 and semiprime_check(alg):
        factors, family = semisimple_decompose(alg)
        body["verdict"]["semiprime"] = True
        body["certificates"]["primitive_family"] = [_coords(m.coords) for m in family.members]
        body["certificates"]["family_flags"] = family.flags
        unity = find_unity(alg)
        body["certificates"]["unity"] = _coords(unity.coords)
    else:
        body["verdict"]["semiprime"] = False
    return body


def _algebra_unitize(alg: AlgebraPresentation) -> dict:
    rep = classify(alg)
    out, embedding = minimal_unitization(alg)
    unity = find_unity(out)
    return {
        "dim": alg.dim,
        "verdict": {
            "already_unital": out is alg,
            "dim_before": alg.dim,
            "dim_after": out.dim,
            "increment": out.dim - alg.dim,
            "bound": rep.r0_dim + rep.s,
        },
        "certificates": {
            "embedding": list(embedding),
            "unity": _coords(unity.coords) if unity is not None else None,
            "document": serialize(document_of(out)),
        },
    }


_ALGEBRA_HANDLERS = {
    "classify": _algebra_classify,
    "radical": _algebra_radical,
    "idempotents": _algebra_idempotents,
    "unitize": _algebra_unitize,
}


# -- finite handlers -----------------------------------------------------------


def _finite_oracle(ring: FiniteRing) -> dict:
    st = finite_structure(ring)
    body = {
        "order": ring.order,
        "verdict": {
            "jacobson": sorted(st.jacobson),
            "nilpotent": st.nilpotent,
            "nil": st.nil,
            "reduced": st.is_reduced,
            "unital": st.unity is not None,
        },
        "certificates": {
            "idempotents": st.idempotents,
            "units": st.units,
            "zero_divisors": st.zero_divisors,
            "unity": st.unity,
        },
    }
    if st.nilpotency_index is not None:
        body["verdict"]["nilpotency_index"] = st.nilpotency_index
    if ring.order <= IDEAL_ENUM_CAP:
        body["certificates"]["largest_nilpotent_ideal"] = sorted(largest_nilpotent_ideal(ring))
    return body


def _finite_radical(ring: FiniteRing) -> dict:
    j = jacobson_definitional(ring)
    return {
        "order": ring.order,
        "verdict": {"jacobson": sorted(j), "radical_size": len(j)},
        "certificates": {},
    }


def _finite_idempotents(ring: FiniteRing) -> dict:
    st = finite_structure(ring)
    return {
        "order": ring.order,
        "verdict": {"count": len(st.idempotents)},
        "certificates": {"idempotents": st.idempotents},
    }


_FINITE_HANDLERS = {
    "oracle": _finite_oracle,
    "classify": _finite_oracle,
    "radical": _finite_radical,
    "idempotents": _finite_idempotents,
}


# -- mixed handlers --------------------------------------------------------------


def _mixed_classify(ring: MixedRing) -> dict:
    split = finite_connected_split(ring)
    n = ring.finite_part.order
    torsion = torsion_ideal(ring, n)
    body = {
        "verdict": {
            "finite_order": n,
            "algebra_dim": ring.algebra_part.dim,
            "torsion_rank": ring.torsion_rank,
            "unital_split": split is not None,
        },
        "certificates": {
            "n_torsion_size": len(torsion),
            "cross_entries": [
                [i, j, [format_rat(x) for x in values]]
                for (i, j), values in sorted(ring.cross.items())
            ],
        },
    }
    if split is not None:
        body["certificates"]["unity"] = [
            split.unity.finite,
            _coords(split.unity.algebra),
            _coords(split.unity.torsion),
        ]
    return body


_MIXED_HANDLERS = {"classify": _mixed_classify}


# -- rendering --------------------------------------------------------------------


def render(report: dict, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
    if fmt != "text":
        raise DocumentError(f"unknown format {fmt!r}")
    lines: List[str] = []
    _render_into(report, lines, 0)
    return "\n".join(lines) + "\n"


def _render_into(value, lines: List[str], depth: int, key: Optional[str] = None):
    pad = "  " * depth
    label = f"{key}: " if key is not None else ""
    if isinstance(value, dict):
        if key is not None:
            lines.append(f"{pad}{key}:")
            depth += 1
        for k in sorted(value):
            _render_into(value[k], lines, depth, k)
    elif isinstance(value, (list, tuple)):
        flat = all(not isinstance(v, (dict, list, tuple)) for v in value)
        if flat:
            lines.append(f"{pad}{label}[{', '.join(str(v) for v in value)}]")
        else:
            if key is not None:
                lines.append(f"{pad}{key}:")
                depth += 1
                pad = "  " * depth
            for v in value:
                lines.append(f"{pad}-")
                _render_into(v, lines, depth + 1, None)
    else:
        lines.append(f"{pad}{label}{value}")
