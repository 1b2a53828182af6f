import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ringstruct.algebra import AlgebraPresentation, find_unity
from ringstruct.classify import (
    COMPLEX,
    DIVISION,
    NULL,
    QUATERNION,
    REAL,
    UNRECOGNIZED,
    central_primitive_idempotents,
    classify,
    corner_division_check,
    dorroh_unitization,
    frobenius_type,
    legendre_normal_form,
    minimal_unitization,
    prime_check,
    reduced_decompose,
    semiprime_check,
    semisimple_decompose,
)
from ringstruct.classify import _conic_zero
from ringstruct.documents import algebra_document, to_object
from ringstruct.errors import NotSemiprime, ValidationError
from ringstruct.generators import (
    annihilator_gap,
    base_field,
    direct_sum,
    generate,
    matrix_algebra,
    null_ring,
    quadratic_line,
    quaternion,
    reduced_ring,
    relabel,
    square_cocycle,
    strictly_upper,
    upper_triangular,
)
from ringstruct.idempotents import principal_ideal
from ringstruct.linalg import Subspace, is_zero_vec, unit_vec
from ringstruct.radical import is_nilpotent, jacobson_radical
from ringstruct.reports import run_report
from ringstruct.verification import verify_classify_report, verify_idempotents_report

from oracles import (
    operator_algebras,
    quaternion_splits,
    rebase_document,
    reference_central_idempotents,
    reference_r0_space,
)


def test_semiprime_and_prime_examples():
    m2 = to_object(matrix_algebra(2))
    assert semiprime_check(m2) and prime_check(m2)
    pair = AlgebraPresentation("QxQ", 2, {(0, 0): [1, 0], (1, 1): [0, 1]})
    assert semiprime_check(pair) and not prime_check(pair)
    ut2 = to_object(upper_triangular(2))
    assert not semiprime_check(ut2) and not prime_check(ut2)


def test_semisimple_decompose_matrix_algebra():
    m2 = to_object(matrix_algebra(2))
    factors, family = semisimple_decompose(m2)
    assert len(factors) == 1
    f = factors[0]
    assert f.matrix_degree == 2 and f.division_dim == 1
    assert len(family) == 2
    total = m2.zero_element()
    for e in family.members:
        total = total + e
    assert total == find_unity(m2)


def test_semisimple_decompose_product():
    doc = direct_sum([matrix_algebra(1), matrix_algebra(2)], name="Q+M2")
    alg = to_object(doc)
    factors, _ = semisimple_decompose(alg)
    shapes = sorted((f.matrix_degree, f.division_dim) for f in factors)
    assert shapes == [(1, 1), (2, 1)]


def test_semisimple_decompose_quaternion():
    quat = to_object(quaternion())
    factors, family = semisimple_decompose(quat)
    assert len(factors) == 1
    assert factors[0].matrix_degree == 1 and factors[0].division_dim == 4
    assert len(family) == 1


def test_semisimple_rejects_radical():
    with pytest.raises(NotSemiprime):
        semisimple_decompose(to_object(upper_triangular(2)))


def test_dimension_accounting_over_semiprime_corpus(corpus):
    for alg in corpus:
        if alg.dim == 0 or not semiprime_check(alg):
            continue
        factors, family = semisimple_decompose(alg)
        assert sum(f.matrix_degree**2 * f.division_dim for f in factors) == alg.dim
        # central idempotents commute with everything
        for f in factors:
            c = f.central_idempotent
            for i in range(alg.dim):
                b = alg.basis_element(i)
                assert (c * b) == (b * c)
        # each factor is simple: members generate it as a two-sided ideal
        import random as _random

        rng = _random.Random(31)
        for f in factors:
            rows = list(f.ideal.subspace.basis_rows())
            for _ in range(4):
                combo = [F(0)] * alg.dim
                for r in rows:
                    c = rng.randint(-2, 2)
                    combo = [x + c * y for x, y in zip(combo, r)]
                if any(x != 0 for x in combo):
                    rows.append(tuple(combo))
            for v in rows:
                generated = _two_sided_closure(alg, v)
                assert generated == f.ideal.subspace


def _two_sided_closure(alg, v):
    current = Subspace(alg.dim, [v])
    while True:
        rows = current.basis_rows()
        new_rows = list(rows)
        for i in range(alg.dim):
            e = unit_vec(alg.dim, i)
            for r in rows:
                new_rows.append(alg.multiply_coords(e, r))
                new_rows.append(alg.multiply_coords(r, e))
        grown = Subspace(alg.dim, new_rows)
        if grown == current:
            return current
        current = grown


def test_minimal_left_ideals_are_primitive_columns(corpus):
    from ringstruct.idempotents import minimal_one_sided_ideal

    for alg in corpus:
        if alg.dim == 0 or not semiprime_check(alg):
            continue
        factors, family = semisimple_decompose(alg)
        expected = sum(f.matrix_degree for f in factors)
        assert len(family) == expected
        columns = {
            principal_ideal(alg, e, "left").add(Subspace(alg.dim, [e.coords])).basis
            for e in family.members
        }
        minimal = minimal_one_sided_ideal(alg, "left")
        assert minimal.subspace.basis in columns


def test_corner_checks_matrix_algebra():
    m2 = to_object(matrix_algebra(2))
    _, family = semisimple_decompose(m2)
    e1, e2 = family.members
    assert corner_division_check(m2, e1, e1) == DIVISION
    assert corner_division_check(m2, e1, e2) == NULL
    quat = to_object(quaternion())
    _, qfam = semisimple_decompose(quat)
    assert corner_division_check(quat, qfam.members[0], qfam.members[0]) == DIVISION


def test_corner_checks_across_corpus(corpus):
    for alg in corpus:
        if alg.dim == 0 or not semiprime_check(alg):
            continue
        _, family = semisimple_decompose(alg)
        for a, b in itertools.product(family.members, repeat=2):
            verdict = corner_division_check(alg, a, b)
            assert verdict == (DIVISION if a == b else NULL)


def test_frobenius_examples():
    assert frobenius_type(to_object(base_field())) == REAL
    assert frobenius_type(to_object(quadratic_line())) == COMPLEX
    assert frobenius_type(to_object(quaternion())) == QUATERNION


def _factor_shapes(doc):
    """(degree, division dim, type) of each simple factor, in the standard basis
    and in a seeded rebased one, both checked by the verifier."""
    shapes = []
    for d in (doc, rebase_document(doc, random.Random(doc.name))):
        report = run_report(d, "classify")
        verify_classify_report(to_object(d), report)
        shapes.append([
            (sf["matrix_degree"], sf["division_dim"], sf["division_type"])
            for f in report["certificates"]["factors"]
            for sf in f["simple_factors"]
        ])
    return shapes


def test_quaternion_types_follow_the_hilbert_symbols():
    # (a, b) (x) R is Hamilton's quaternions exactly when a, b < 0; a split
    # (a, b) is M_2(Q), whose corner is the base field
    values = [v for v in range(-6, 7) if v]
    for a, b in itertools.product(values, repeat=2):
        if quaternion_splits(a, b):
            expected = (2, 1, REAL)
        else:
            expected = (1, 4, QUATERNION if a < 0 and b < 0 else UNRECOGNIZED)
        assert _factor_shapes(quaternion(a, b)) == [[expected]] * 2, (a, b)


def test_quadratic_field_types_follow_the_sign():
    # Q(sqrt d) (x) R is C exactly when d < 0
    for d in range(-30, 31):
        if d in (0, 1) or any(d % (p * p) == 0 for p in range(2, 6)):
            continue
        constants = {(0, 0): [1, 0], (0, 1): [0, 1], (1, 0): [0, 1], (1, 1): [d, 0]}
        doc = algebra_document(f"Q(sqrt{d})", 2, constants)
        expected = (1, 2, COMPLEX if d < 0 else UNRECOGNIZED)
        assert _factor_shapes(doc) == [[expected]] * 2, d


def test_frobenius_refuses_split_quadratic():
    # t^2 = 2: splits over the real closure, not an imaginary line
    sqrt2 = AlgebraPresentation(
        "Q(sqrt2)", 2, {(0, 0): [1, 0], (0, 1): [0, 1], (1, 0): [0, 1], (1, 1): [2, 0]}
    )
    assert frobenius_type(sqrt2) == UNRECOGNIZED


def test_frobenius_refuses_quartic_field():
    constants = {}
    for i in range(4):
        for j in range(4):
            v = [0, 0, 0, 0]
            if i + j < 4:
                v[i + j] = 1
            else:
                v[i + j - 4] = 2
            constants[(i, j)] = v
    quartic = AlgebraPresentation("quartic", 4, constants)
    assert frobenius_type(quartic) == UNRECOGNIZED
    rep = classify(quartic)
    shapes = [
        (sf.matrix_degree, sf.division_dim, sf.division_type)
        for f in rep.factors
        for sf in f.simple_factors
    ]
    assert shapes == [(1, 4, UNRECOGNIZED)]


def test_split_quaternions_are_a_matrix_algebra():
    # (1, 1) quaternions have an isotropic norm form, i.e. they split
    alg = to_object(quaternion(1, 1))
    factors, family = semisimple_decompose(alg)
    assert [(f.matrix_degree, f.division_dim) for f in factors] == [(2, 1)]
    assert len(family) == 2


def test_quaternion_algebras_split_or_carry_a_norm_form_certificate():
    # (2, -1) is M2(Q): 2 x^2 - y^2 - 2 z^2 has the zero (1, 0, 1)
    factors, _ = semisimple_decompose(to_object(quaternion(2, -1)))
    assert [(f.matrix_degree, f.division_dim) for f in factors] == [(2, 1)]
    # (-1, 3) is a division algebra with an indefinite norm form -x^2 + 3y^2 + 3z^2
    factors, _ = semisimple_decompose(to_object(quaternion(-1, 3)))
    assert [(f.matrix_degree, f.division_dim) for f in factors] == [(1, 4)]
    certificate = factors[0].division_certificate
    assert certificate.kind == "norm_form" and sorted(certificate.coefficients) == [-1, 3, 3]


def test_field_corner_carries_its_minimal_polynomial():
    factors, _ = semisimple_decompose(to_object(quadratic_line()))
    certificate = factors[0].division_certificate
    assert certificate.kind == "field" and certificate.coefficients == [1, 0, 1]


@pytest.mark.parametrize(
    "family, params, seeds, shapes",
    [
        # seeds 54481901 and 86910239 once gave M2 as one factor of degree 1
        ("m", {"n": 2}, ("1:m2", "7:m2", "54481901:m2", "86910239:m2"), [(2, 1)]),
        ("m", {"n": 3}, ("1:m3", "2:m3", "3:m3"), [(3, 1)]),
        # M4 splits into corners of M1 and M3, in a basis with large entries
        ("m", {"n": 4}, ("1:m4",), [(4, 1)]),
        # every basis element of the M3 factor has an irreducible cubic minimal
        # polynomial; quotients of two of them split it
        ("sum", {"parts": "m:3:K1,utd:2:K1"}, (2,), [(1, 1), (1, 1), (3, 1)]),
    ],
)
def test_rebased_matrix_algebras_split_into_certified_corners(family, params, seeds, shapes):
    for seed in seeds:
        doc = rebase_document(
            generate(family, {k: str(v) for k, v in params.items()}), random.Random(seed)
        )
        alg = to_object(doc)
        report = run_report(doc, "classify")
        verify_classify_report(alg, report)
        verify_idempotents_report(alg, run_report(doc, "idempotents"))
        factors = report["certificates"]["factors"][0]["simple_factors"]
        assert sorted((sf["matrix_degree"], sf["division_dim"]) for sf in factors) == shapes


def _holzer_search(q):
    """A nonzero integer zero of sum q_a x_a^2 with |x| <= sqrt|q_1 q_2| and
    |y| <= sqrt|q_0 q_2|, or None.  Holzer's theorem puts a zero of every
    solvable Legendre normal form in this box; for the unreduced forms drawn
    here (coefficients in +-1..12) the box holds one too, which a run over all
    13,824 of them confirmed."""
    a, b, c = q
    bx, by = math.isqrt(abs(b * c)), math.isqrt(abs(a * c))
    for x in range(bx + 1):
        for y in range(-by, by + 1):
            if x == 0 and y <= 0:
                continue
            r = -(a * x * x + b * y * y)
            if r % c == 0 and r // c >= 0 and math.isqrt(r // c) ** 2 == r // c:
                return (x, y, math.isqrt(r // c))
    return None


def _squarefree(a):
    return all(a % (p * p) for p in range(2, math.isqrt(abs(a)) + 1))


coefficient = st.integers(-12, 12).filter(bool)


@settings(max_examples=300, deadline=None)
@given(st.tuples(coefficient, coefficient, coefficient))
def test_normal_form_and_conic_solver_match_bounded_search(q):
    normal, scales = legendre_normal_form(q)
    assert all(_squarefree(a) for a in normal)
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(normal, 2))
    normal_zero = _holzer_search(normal)
    if normal_zero is not None:  # mapped back, a zero of the normal form is one of q
        assert sum(c * (s * v) ** 2 for c, s, v in zip(q, scales, normal_zero)) == 0
    expected = _holzer_search(q)
    assert (normal_zero is None) == (expected is None)
    zero = _conic_zero([F(c) for c in q])
    assert (zero is None) == (expected is None)
    if zero is not None:
        assert any(zero) and sum(c * v * v for c, v in zip(q, zero)) == 0


def test_conic_solver_reduces_before_solving():
    # sympy's solver, handed -2x^2 + y^2 + 2z^2 as it stands, answers (1, 2, 0),
    # which is no zero; reduced first, the form is -x^2 + 2y^2 + z^2
    assert legendre_normal_form([-2, 1, 2]) == ((-1, 2, 1), (F(1, 2), F(1), F(1, 2)))
    x, y, z = _conic_zero([F(-2), F(1), F(2)])
    assert -2 * x * x + y * y + 2 * z * z == 0 and (x, y, z) != (0, 0, 0)


def test_reduced_round_trip_one_label():
    for r, p, q in itertools.product(range(3), range(3), range(2)):
        if r + p + q == 0:
            continue
        alg = to_object(reduced_ring(r, p, q))
        result = reduced_decompose(alg)
        assert result.is_reduced
        assert result.counts == {
            "K1": {"r": r, "p": p, "q": q, "unrecognized": 0}
        }


def test_reduced_round_trip_two_labels():
    doc = direct_sum(
        [reduced_ring(1, 1, 0, "K1"), reduced_ring(2, 0, 1, "K2")], name="two-label"
    )
    alg = to_object(doc)
    result = reduced_decompose(alg)
    assert result.counts == {
        "K1": {"r": 1, "p": 1, "q": 0, "unrecognized": 0},
        "K2": {"r": 2, "p": 0, "q": 1, "unrecognized": 0},
    }


def test_reduced_rejects_matrix_algebra():
    result = reduced_decompose(to_object(matrix_algebra(2)))
    assert not result.is_reduced
    w = result.witness
    assert not w.is_zero() and (w * w).is_zero()


def test_reduced_rejects_radical():
    result = reduced_decompose(to_object(upper_triangular(2)))
    assert not result.is_reduced
    w = result.witness
    assert not w.is_zero() and (w * w).is_zero()


def test_classify_null_ring():
    rep = classify(to_object(null_ring(3)))
    assert rep.s == 0 and rep.r0_dim == 3 and not rep.unital


def test_classify_two_label_example():
    doc = direct_sum([matrix_algebra(2, "K1"), relabel(base_field(), "K2")], name="two")
    rep = classify(to_object(doc))
    assert rep.s == 2 and rep.unital and rep.unity_subring_dim == 2
    assert rep.field_witnesses == ["K1", "K2"]


def test_classify_strictly_upper():
    rep = classify(to_object(strictly_upper(3)))
    assert rep.s == 1 and rep.r0_dim == 0
    factor = rep.factors[0]
    assert factor.is_nilpotent and factor.radical_dim == 3


def test_classify_r0_and_products(corpus):
    for alg in corpus:
        rep = classify(alg)
        pivots = set(rep.r0_space.pivots())
        for i in range(alg.dim):
            for j in range(alg.dim):
                prod = alg.basis_product(i, j)
                assert not any(prod[c] != 0 for c in pivots)
        for row in rep.r0_space.basis_rows():
            for i in range(alg.dim):
                e = unit_vec(alg.dim, i)
                assert is_zero_vec(alg.multiply_coords(row, e))
                assert is_zero_vec(alg.multiply_coords(e, row))
        if rep.unital:
            assert rep.unity_subring_dim == rep.s and rep.r0_dim == 0


NULL_BLOCK_SUMS = [
    direct_sum([null_ring(2), relabel(matrix_algebra(2), "K2"), relabel(strictly_upper(3), "K3")]),
    direct_sum([matrix_algebra(2), relabel(null_ring(1), "K2"), relabel(null_ring(2), "K3")]),
    direct_sum([strictly_upper(2), relabel(annihilator_gap(1), "K2"), relabel(null_ring(1), "K3")]),
]


def _check_r0_against_reference(alg):
    rep = classify(alg)
    rows, labels = reference_r0_space(alg)
    assert rep.r0_space.basis_rows() == rows
    assert rep.field_witnesses == labels


@pytest.mark.parametrize("doc", NULL_BLOCK_SUMS, ids=lambda d: d.name)
def test_classify_r0_matches_the_annihilator_complement(doc):
    _check_r0_against_reference(to_object(doc))


@settings(max_examples=25, deadline=None)
@given(operator_algebras())
def test_classify_r0_matches_the_annihilator_complement_in_any_basis(alg):
    _check_r0_against_reference(alg)


CENTER_SUMS = [
    [base_field(), base_field()],
    [base_field(), quadratic_line()],
    [quadratic_line(), matrix_algebra(2)],
    [matrix_algebra(2), quaternion()],
    [base_field(), quadratic_line(), matrix_algebra(2), quaternion()],
]


@pytest.mark.parametrize("parts", CENTER_SUMS, ids=lambda ps: "+".join(p.name for p in ps))
@pytest.mark.parametrize("seed", [None, 3, 11])
def test_central_idempotents_match_the_crt_reference(parts, seed):
    doc = direct_sum(parts)
    if seed is not None:
        doc = rebase_document(doc, random.Random(seed))
    alg = to_object(doc)
    centrals = [c.coords for c in central_primitive_idempotents(alg)]
    assert len(centrals) == len(parts) and set(centrals) == reference_central_idempotents(alg)


def test_central_idempotents_split_gaussian_pair():
    doc = direct_sum([quadratic_line(), quadratic_line()], name="CxC")
    alg = to_object(doc)
    centrals = central_primitive_idempotents(alg)
    assert len(centrals) == 2
    total = alg.zero_element()
    for c in centrals:
        assert (c * c) == c
        total = total + c
    assert total == find_unity(alg)


def test_dorroh_unitization_null_line():
    null1 = to_object(null_ring(1))
    out, embedding = dorroh_unitization(null1)
    assert out.dim == 2 and embedding == [1]
    u, x = out.basis_element(0), out.basis_element(1)
    assert (u * x) == x and (x * u) == x and (x * x).is_zero()


def test_dorroh_unitization_strictly_upper():
    out, _ = dorroh_unitization(to_object(strictly_upper(3)))
    assert out.dim == 4
    assert find_unity(out) is not None
    assert not is_nilpotent(out)


def test_dorroh_on_unital_keeps_old_unity_as_idempotent():
    m1 = to_object(matrix_algebra(1))
    out, embedding = dorroh_unitization(m1)
    old_unity = out.basis_element(embedding[0])
    assert (old_unity * old_unity) == old_unity
    assert old_unity != find_unity(out)


def test_dorroh_rejects_multi_label():
    doc = direct_sum([null_ring(1, "K1"), relabel(null_ring(1), "K2")])
    with pytest.raises(ValidationError):
        dorroh_unitization(to_object(doc))


def test_minimal_unitization_null_line_equality():
    out, _, _ = minimal_unitization(to_object(null_ring(1)))
    assert out.dim == 2  # increment 1 = dim R_0 + s = 1 + 0


def test_minimal_unitization_strictly_upper():
    t3 = to_object(strictly_upper(3))
    out, embedding, _ = minimal_unitization(t3)
    assert out.dim == 4  # increment 1 <= 0 + 1
    assert find_unity(out) is not None
    image = Subspace(out.dim, [unit_vec(out.dim, p) for p in embedding])
    for row in image.basis_rows():
        for i in range(out.dim):
            e = unit_vec(out.dim, i)
            assert image.contains(out.multiply_coords(row, e))
            assert image.contains(out.multiply_coords(e, row))


def test_minimal_unitization_adds_one_line_for_the_one_block_without_unity():
    alg = to_object(direct_sum([matrix_algebra(2), relabel(strictly_upper(3), "K2")]))
    assert find_unity(alg) is None
    out, embedding, _ = minimal_unitization(alg)
    assert out.dim == alg.dim + 1 and embedding == [0, 1, 2, 3, 5, 6, 7]
    assert out.field_labels[4] == "K2" and out.basis_names[4] == "u_K2"
    assert find_unity(out).coords == (1, 0, 0, 1, 1, 0, 0, 0)


def test_minimal_unitization_identity_on_unital():
    m2 = to_object(matrix_algebra(2))
    out, embedding, _ = minimal_unitization(m2)
    assert out is m2 and embedding == [0, 1, 2, 3]


def test_minimal_unitization_bound_over_corpus(corpus):
    for alg in corpus:
        rep = classify(alg)
        out, embedding, _ = minimal_unitization(alg)
        increment = out.dim - alg.dim
        assert increment <= rep.r0_dim + rep.s
        assert find_unity(out) is not None
        if is_nilpotent(alg) and alg.dim > 0:
            blocks = len(alg.label_blocks())
            if rep.s == 0 and rep.r0_dim == alg.dim and all(
                len(list(b)) == 1 for _, b in alg.label_blocks()
            ):
                assert increment == rep.r0_dim + rep.s
