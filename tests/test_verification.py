"""Reports of random ``generate`` documents pass their independent verifiers."""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from ringstruct.documents import algebra_document, document_of, to_object
from ringstruct.errors import InternalInvariantError
from ringstruct.finite import finite_product, matrix_ring_zp, strictly_upper_zp, zmod
from ringstruct.generators import generate
from ringstruct.linalg import parse_rat
from ringstruct.reports import run_report
from ringstruct.verification import (
    verify_classify_report,
    verify_idempotents_report,
    verify_oracle_report,
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


def _unit(n, i):
    return ["1" if k == i else "0" for k in range(n)]


def test_idempotents_verifier_rejects_the_unity_as_a_primitive_family():
    doc = generate("m", {"n": "2"})
    alg = to_object(doc)
    report = run_report(doc, "idempotents")
    verify_idempotents_report(alg, report)
    certs = report["certificates"]
    certs["primitive_family"] = [certs["unity"]]
    with pytest.raises(InternalInvariantError, match="not the simple factors' primitive"):
        verify_idempotents_report(alg, report)
    # the simple factor forged to match: a 4-dim corner then needs a certificate
    sf = certs["simple_factors"][0]
    sf.update(matrix_degree=1, division_dim=4, primitive_idempotents=[certs["unity"]])
    with pytest.raises(InternalInvariantError, match="carries no certificate"):
        verify_idempotents_report(alg, report)


@pytest.mark.parametrize(
    "ideal_rows, message",
    [
        ([0, 1, 2, 3], "not closed under multiplication"),  # E11, E12, E13, E21
        ([0, 4, 8, 5], "division dimension"),  # E11, E22, E33, E23, with the unity of M3
    ],
)
def test_classify_verifier_checks_the_simple_factor_ideal(ideal_rows, message):
    # M3 forged to degree 2 with the family E11, E22 + E33 and a 4-dim ideal
    alg, report, sf = _classify("m", n=3)
    sf.update(
        matrix_degree=2,
        primitive_idempotents=[_unit(9, 0), ["0", "0", "0", "0", "1", "0", "0", "0", "1"]],
        ideal_basis=[_unit(9, i) for i in ideal_rows],
    )
    with pytest.raises(InternalInvariantError, match=message):
        verify_classify_report(alg, report)


@pytest.mark.parametrize(
    "division_dim, ideal_basis, certificate",
    [
        (1, [["1", "0", "0", "1"]], None),  # M2 as Q, the line of the unity
        (  # M2 as Q(i), spanned by 1 and E12 - E21 with (E12 - E21)^2 = -1
            2,
            [["1", "0", "0", "1"], ["0", "1", "-1", "0"]],
            {"kind": "field", "elements": [["0", "1", "-1", "0"]], "coefficients": ["1", "0", "1"]},
        ),
    ],
)
def test_classify_verifier_ties_the_simple_factors_to_the_algebra(division_dim, ideal_basis, certificate):
    # each forged factor is a division algebra on its own; only the dimension
    # count against the recomputed radical shows that it is not all of M2
    alg, report, sf = _classify("m", n=2)
    unity = ["1", "0", "0", "1"]
    sf.update(
        matrix_degree=1,
        division_dim=division_dim,
        ideal_basis=ideal_basis,
        central_idempotent=unity,
        primitive_idempotents=[unity],
    )
    sf.pop("division_certificate", None)
    if certificate is not None:
        sf["division_certificate"] = certificate
    with pytest.raises(InternalInvariantError, match="do not fill the factor"):
        verify_classify_report(alg, report)


def _dual_numbers():
    return algebra_document("dual", 2, {(0, 0): [1, 0], (0, 1): [0, 1], (1, 0): [0, 1]})


def test_classify_verifier_recomputes_the_radical_dimension():
    doc = _dual_numbers()
    alg = to_object(doc)
    report = run_report(doc, "classify")
    report["certificates"]["factors"][0]["radical_dim"] = 0
    with pytest.raises(InternalInvariantError, match="radical dimension is wrong"):
        verify_classify_report(alg, report)


def test_classify_verifier_takes_corners_inside_the_simple_factor():
    # the dual numbers Q[x]/(x^2): the complement is the line of 1, whose
    # corner inside A would also hold the radical line of x
    doc = _dual_numbers()
    alg = to_object(doc)
    report = run_report(doc, "classify")
    [sf] = report["certificates"]["factors"][0]["simple_factors"]
    assert (sf["matrix_degree"], sf["division_dim"]) == (1, 1)
    verify_classify_report(alg, report)


@pytest.mark.parametrize(
    "entry, value",
    [("bound", 99), ("dim_before", 1), ("dim_after", 99), ("increment", 0), ("already_unital", True)],
)
def test_unitize_verifier_rejects_a_forged_verdict(entry, value):
    # T4 (dim 6, nilpotent) needs one line: dim_after 7, increment 1, bound 1
    doc = generate("t", {"n": "4"})
    alg = to_object(doc)
    report = run_report(doc, "unitize")
    verify_unitize_report(alg, report)
    report["verdict"][entry] = value
    with pytest.raises(InternalInvariantError, match=f"unitization verdict {entry} is not"):
        verify_unitize_report(alg, report)


@pytest.mark.parametrize("command", ["classify", "idempotents"])
@pytest.mark.parametrize(
    "family, params, forged",
    # H(-1, 3) is a division algebra whose norm form is indefinite
    [("h", {}, "COMPLEX"), ("c", {}, "REAL"), ("h", {"a": -1, "b": 3}, "QUATERNION")],
)
def test_verifiers_reject_a_forged_division_type(command, family, params, forged):
    doc = generate(family, {k: str(v) for k, v in params.items()})
    alg = to_object(doc)
    report = run_report(doc, command)
    verify = verify_classify_report if command == "classify" else verify_idempotents_report
    verify(alg, report)
    certs = report["certificates"]
    [sf] = certs["factors"][0]["simple_factors"] if command == "classify" else certs["simple_factors"]
    sf["division_type"] = forged
    with pytest.raises(InternalInvariantError, match=f"division type {forged} is not"):
        verify(alg, report)


def _oracle(ring):
    report = run_report(document_of(ring), "oracle")
    verify_oracle_report(ring, report)
    return report


@pytest.mark.parametrize(
    "ring",
    [zmod(1), zmod(12), zmod(256), finite_product(zmod(2), zmod(4)), matrix_ring_zp(2, 2),
     strictly_upper_zp(3, 2), strictly_upper_zp(2, 3)],
    ids=lambda ring: ring.name,
)
def test_oracle_verifier_accepts_the_oracle_reports(ring):
    _oracle(ring)


@pytest.fixture(scope="module")
def cyclic_oracles():
    return {n: (zmod(n), _oracle(zmod(n))) for n in (8, 128)}


@pytest.mark.parametrize(
    "n, part, entry, value",
    [
        (n, part, entry, value)
        for n in (8, 128)
        for part, entry, value in [
            ("certificates", "units", []),
            ("certificates", "zero_divisors", []),
            ("certificates", "idempotents", [0]),
            ("certificates", "unity", None),
            ("verdict", "nilpotent", True),
        ]
    ] + [(128, "verdict", "jacobson", [0])],
)
def test_oracle_verifier_rejects_an_incomplete_report(cyclic_oracles, n, part, entry, value):
    ring, report = cyclic_oracles[n]
    forged = {key: dict(body) if isinstance(body, dict) else body for key, body in report.items()}
    forged[part][entry] = value
    with pytest.raises(InternalInvariantError, match="certificate verification failed"):
        verify_oracle_report(ring, forged)


@pytest.mark.parametrize("shift", [-1, 1])
def test_oracle_verifier_checks_the_nilpotency_index(shift):
    ring = strictly_upper_zp(3, 2)  # index 3: E12 E23 != 0 and every triple product vanishes
    report = _oracle(ring)
    assert report["verdict"]["nilpotency_index"] == 3
    report["verdict"]["nilpotency_index"] += shift
    with pytest.raises(InternalInvariantError, match="nilpotency index|k-fold products"):
        verify_oracle_report(ring, report)


# -- malformed reports ----------------------------------------------------------


def _key_paths(value, path=()):
    """The path of every dict key in a report, at every depth, lists included."""
    if isinstance(value, dict):
        for key, inner in value.items():
            yield path + (key,)
            yield from _key_paths(inner, path + (key,))
    elif isinstance(value, list):
        for i, inner in enumerate(value):
            yield from _key_paths(inner, path + (i,))


def _without(report, path):
    """A deep copy of ``report`` with the key at ``path`` deleted."""
    forged = copy.deepcopy(report)
    holder = forged
    for step in path[:-1]:
        holder = holder[step]
    del holder[path[-1]]
    return forged


MALFORMED_SUBJECTS = {
    "M2 classify": (lambda: generate("m", {"n": "2"}), "classify", verify_classify_report),
    "T3 radical": (lambda: generate("t", {"n": "3"}), "radical", verify_radical_report),
    "M2 idempotents": (lambda: generate("m", {"n": "2"}), "idempotents", verify_idempotents_report),
    "T3 unitize": (lambda: generate("t", {"n": "3"}), "unitize", verify_unitize_report),
    "Z/8 oracle": (lambda: document_of(zmod(8)), "oracle", verify_oracle_report),
}


@pytest.mark.parametrize("subject", sorted(MALFORMED_SUBJECTS))
def test_verifiers_fail_cleanly_on_a_missing_entry(subject):
    """Deleting any one key, at any depth, makes the verifier pass or fail
    verification; a lookup error never escapes it."""
    make, command, verify = MALFORMED_SUBJECTS[subject]
    doc = make()
    obj = to_object(doc)
    report = run_report(doc, command)
    verify(obj, report)
    paths = list(_key_paths(report))
    assert paths
    for path in paths:
        try:
            verify(obj, _without(report, path))
        except InternalInvariantError as exc:
            assert str(exc).startswith("certificate verification failed"), path


@pytest.mark.parametrize("entry", [["x", "0", "0"], ["1", "0"]], ids=["not a rational", "short row"])
def test_radical_verifier_fails_cleanly_on_a_misshapen_row(entry):
    doc = generate("t", {"n": "3"})
    report = run_report(doc, "radical")
    report["certificates"]["radical_basis"][0] = entry
    with pytest.raises(InternalInvariantError, match="verification failed: malformed report"):
        verify_radical_report(to_object(doc), report)
