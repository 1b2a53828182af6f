"""The per-op correctness gate and the CLI-path op runner.

An op is one ``ringstruct <command> FILE --format json`` call, run in-process
along the CLI's own path: ``parse`` -> ``run_report`` (which calls
``to_object``) -> ``render``.  It fails on a non-zero exit code, when the
report's independent verifier rejects it, or when its isomorphism-invariant
verdict differs from the expected one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

# Engine functions are looked up on their modules at call time, so that the
# tracer's wrappers see every call.
from ringstruct import documents, reports, verification
from ringstruct.cli import EXIT_INTERNAL, EXIT_OK, EXIT_VALIDATION
from ringstruct.errors import InternalInvariantError, RingstructError

from perfbench.clock import SpeedClock

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    """Expected invariants, keyed by standard-basis document and command."""
    return json.loads(EXPECTED_PATH.read_text())


def invariant(kind: str, command: str, report: dict) -> dict:
    """The part of a report that no change of basis can move."""
    verdict, certs = report["verdict"], report["certificates"]
    if kind == "mixed":
        return {**verdict, "n_torsion_size": certs["n_torsion_size"]}
    if kind == "finite_ring":
        return {
            **verdict,
            "idempotent_count": len(certs["idempotents"]),
            "unit_count": len(certs["units"]),
            "zero_divisor_count": len(certs["zero_divisors"]),
        }
    if command == "classify":
        factors = sorted(
            [
                f["label"],
                f["dim"],
                f["nilpotent"],
                f["radical_dim"],
                sorted(
                    [sf["matrix_degree"], sf["division_dim"], sf["division_type"]]
                    for sf in f["simple_factors"]
                ),
            ]
            for f in certs["factors"]
        )
        keep = ("s", "r0_dim", "unital", "unity_subring_dim")
        return {**{k: verdict[k] for k in keep}, "factors": factors}
    if command == "idempotents":
        family = certs.get("primitive_family")
        return {**verdict, "family_size": None if family is None else len(family)}
    if command == "unitize":
        keep = ("already_unital", "dim_before", "dim_after", "increment", "bound")
        return {k: verdict[k] for k in keep}
    return dict(verdict)  # radical: dims, nilpotency flag and index


def normalized(value):
    """``value`` as it reads back from JSON, so tuples compare equal to lists."""
    return json.loads(json.dumps(value))


@dataclass
class Op:
    """One CLI call and what it produced."""

    key: str
    kind: str
    command: str
    exit_code: int = EXIT_OK
    message: str = ""
    seconds: float = 0.0  # parse + load + compute + render
    raw_seconds: float = 0.0  # the same, not scaled to reference speed
    setup_seconds: Optional[float] = None  # parse + to_object, once the load finished
    sha256: Optional[str] = None
    report: Optional[dict] = field(default=None, repr=False)
    obj: object = field(default=None, repr=False)  # what to_object built

    @property
    def failed(self) -> bool:
        return self.exit_code != EXIT_OK or bool(self.message)


def run_op(key: str, kind: str, text: str, command: str, clock: Optional[SpeedClock] = None) -> Op:
    """Run one op on the CLI path, timing it; exceptions map to CLI exit codes.
    Times are at reference speed when ``clock`` is active, else raw."""
    clock = clock or SpeedClock()
    op = Op(key, kind, command)
    loads = []
    real_to_object = reports.to_object

    def timed_to_object(doc):
        mark = clock.mark()
        obj = real_to_object(doc)
        loads.append((clock.elapsed(mark)[1], obj))
        return obj

    reports.to_object = timed_to_object
    start = clock.mark()
    try:
        doc = documents.parse(text)
        parse_s = clock.elapsed(start)[1]
        report = reports.run_report(doc, command)
        rendered = reports.render(report, "json")
    except InternalInvariantError as exc:
        op.exit_code, op.message = EXIT_INTERNAL, f"internal invariant violated: {exc}"
    except (RingstructError, OSError) as exc:
        op.exit_code, op.message = EXIT_VALIDATION, f"error: {exc}"
    except Exception as exc:  # the CLI would die with a traceback: exit 1
        op.exit_code, op.message = EXIT_VALIDATION, f"uncaught {type(exc).__name__}: {exc}"
    else:
        op.report = report
        op.sha256 = hashlib.sha256(rendered.encode()).hexdigest()
    finally:
        op.raw_seconds, op.seconds = clock.elapsed(start)
        reports.to_object = real_to_object
    if loads:
        op.setup_seconds = parse_s + loads[0][0]
        op.obj = loads[0][1]
    return op


def check(op: Op, expected: Optional[dict]) -> None:
    """Run the verifier and the invariant check on a successful op; record a
    rejection in ``op.message``."""
    if op.failed:
        return
    if op.kind != "mixed":  # mixed classify has no verifier
        try:
            getattr(verification, f"verify_{op.command}_report")(op.obj, op.report)
        except Exception as exc:  # any error on a report is a rejection of it
            op.message = f"verifier rejected the report: {type(exc).__name__}: {exc}"
            return
    got = normalized(invariant(op.kind, op.command, op.report))
    if expected is None:
        op.message = "no expected verdict for this document and command"
    elif got != expected:
        op.message = f"verdict {got} differs from expected {expected}"
