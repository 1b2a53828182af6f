"""Reports of random ``generate`` documents pass their independent verifiers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ringstruct.documents import to_object
from ringstruct.errors import InternalInvariantError
from ringstruct.generators import generate
from ringstruct.linalg import parse_rat
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
    verify_classify_report(a, run_report(rebased, "classify"))
    verify_idempotents_report(a, run_report(rebased, "idempotents"))
    verify_radical_report(a, run_report(rebased, "radical"))
    verify_unitize_report(a, run_report(rebased, "unitize"))


def _classify(family, **params):
    doc = generate(family, {k: str(v) for k, v in params.items()})
    alg = to_object(doc)
    report = run_report(doc, "classify")
    verify_classify_report(alg, report)
    return alg, report, report["certificates"]["factors"][0]["simple_factors"][0]


def test_verifier_rejects_a_split_algebra_reported_as_division():
    # M2 reported as one factor of degree 1 over a 4-dimensional corner: the
    # wrong answer that an uncertified minimal left ideal once gave
    alg, report, sf = _classify("m", n=2)
    sf.update(
        matrix_degree=1,
        division_dim=4,
        division_type="UNRECOGNIZED",
        primitive_idempotents=[sf["central_idempotent"]],
    )
    with pytest.raises(InternalInvariantError, match="carries no certificate"):
        verify_classify_report(alg, report)
    # a forged norm form that is isotropic: E11 - E22, E12 + E21, E12 - E21
    sf["division_certificate"] = {
        "kind": "norm_form",
        "elements": [["1", "0", "0", "-1"], ["0", "1", "1", "0"], ["0", "1", "-1", "0"]],
        "coefficients": ["1", "1", "-1"],
    }
    with pytest.raises(InternalInvariantError, match="rational zero"):
        verify_classify_report(alg, report)


@pytest.mark.parametrize(
    "family, params, kind",
    [("h", {}, "norm_form"), ("h", {"a": -1, "b": 3}, "norm_form"), ("c", {}, "field")],
)
@pytest.mark.parametrize("entry", ["coefficients", "elements"])
def test_verifier_rejects_a_corrupted_certificate_entry(family, params, kind, entry):
    alg, report, sf = _classify(family, **params)
    cert = sf["division_certificate"]
    assert cert["kind"] == kind
    values = cert[entry] if entry == "coefficients" else cert[entry][0]
    values[0] = str(parse_rat(values[0]) + 1)
    with pytest.raises(InternalInvariantError, match="certificate verification failed"):
        verify_classify_report(alg, report)
