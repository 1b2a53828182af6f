"""Reports of random ``generate`` documents pass their independent verifiers."""

import random

from hypothesis import given, settings, strategies as st

from ringstruct.documents import to_object
from ringstruct.errors import InternalInvariantError
from ringstruct.generators import generate
from ringstruct.reports import run_report
from ringstruct.verification import (
    verify_classify_report,
    verify_idempotents_report,
    verify_radical_report,
    verify_unitize_report,
)

from oracles import rebase_document

# sum parts: families taking n, with the range of n they accept, and
# parameterless ones (n left empty)
SUM_PARTS = {"m": (1, 2), "utd": (1, 3), "t": (2, 3), "null": (1, 2), "ann-gap": (1, 2),
             "cocycle": None, "c": None, "field": None}


@st.composite
def sum_spec(draw):
    parts = []
    # sorted labels keep each label's block contiguous
    for label in sorted(draw(st.lists(st.sampled_from(("K1", "K2")), min_size=2, max_size=3))):
        family = draw(st.sampled_from(sorted(SUM_PARTS)))
        bounds = SUM_PARTS[family]
        n = draw(st.integers(*bounds)) if bounds else ""
        parts.append(f"{family}:{n}:{label}")
    return {"parts": ",".join(parts)}


nonzero = st.integers(-5, 5).filter(bool)
generate_params = st.one_of(
    st.tuples(st.just("m"), st.fixed_dictionaries({"n": st.integers(1, 3)})),
    st.tuples(st.just("h"), st.fixed_dictionaries({"a": nonzero, "b": nonzero})),
    st.tuples(st.just("utd"), st.fixed_dictionaries({"n": st.integers(1, 4)})),
    st.tuples(st.just("t"), st.fixed_dictionaries({"n": st.integers(2, 5)})),
    st.tuples(st.just("ann-gap"), st.fixed_dictionaries({"n": st.integers(1, 3)})),
    st.tuples(st.just("null"), st.fixed_dictionaries({"n": st.integers(1, 3)})),
    st.tuples(st.just("cocycle"), st.just({})),
    st.tuples(st.just("sum"), sum_spec()),
)


# The open defect of the primitive peel (ROADMAP, certified primitive
# idempotents): in a rebased basis, M3 and algebras that contain it make
# `unitize` exit 2 with one of these messages.  That is a refusal, not a
# report, and it is allowed in the rebased basis only; every report that is
# returned must pass its verifier.
KNOWN_REBASED_REFUSALS = (
    "factor dimensions fail degree^2 * division_dim",
    "Brauer solve failed on a certified minimal ideal",
)


def _rebased_report(doc, command):
    try:
        return run_report(doc, command)
    except InternalInvariantError as exc:
        if not any(message in str(exc) for message in KNOWN_REBASED_REFUSALS):
            raise
        return None


@settings(max_examples=40, deadline=None)
@given(generate_params, st.integers(0, 2**32))
def test_reports_pass_their_verifiers(params, seed):
    family, values = params
    doc = generate(family, {k: str(v) for k, v in values.items()})
    alg = to_object(doc)
    verify_classify_report(alg, run_report(doc, "classify"))
    verify_idempotents_report(alg, run_report(doc, "idempotents"))
    verify_radical_report(alg, run_report(doc, "radical"))
    verify_unitize_report(alg, run_report(doc, "unitize"))
    rebased = rebase_document(doc, random.Random(seed))
    a = to_object(rebased)
    verify_radical_report(a, run_report(rebased, "radical"))
    report = _rebased_report(rebased, "unitize")
    if report is not None:
        verify_unitize_report(a, report)
