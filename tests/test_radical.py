import functools
import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ringstruct.algebra import AlgebraPresentation, IdealSpace, algebra_annihilator
from ringstruct.documents import to_object
from ringstruct.errors import InternalInvariantError, NotNilpotent, NotTwoSidedIdeal
from ringstruct.generators import (
    annihilator_gap,
    base_field,
    direct_sum,
    matrix_algebra,
    null_ring,
    quaternion,
    relabel,
    square_cocycle,
    strictly_upper,
    upper_triangular,
)
from ringstruct.linalg import Subspace, is_zero_vec, unit_vec
from ringstruct.radical import (
    _wedderburn_complement,
    complement_of,
    element_nilpotency,
    is_nilpotent,
    jacobson_radical,
    nilpotent_flag,
    quotient_algebra,
    radical_complement,
)
from ringstruct.reports import render, run_report
from ringstruct.verification import verify_radical_report, verify_unitize_report

from oracles import (
    operator_algebras,
    rebase_document,
    reference_jacobson_space,
    reference_wedderburn_complement,
)


@pytest.fixture(scope="module")
def ut2():
    return to_object(upper_triangular(2))


def test_is_nilpotent_strictly_upper():
    t3 = to_object(strictly_upper(3))
    cert = is_nilpotent(t3)
    assert cert.is_nilpotent and cert.index == 3


def test_is_nilpotent_matrix_algebra_witness():
    m2 = to_object(matrix_algebra(2))
    cert = is_nilpotent(m2)
    assert not cert.is_nilpotent
    assert cert.witness is not None and not cert.witness.is_zero()


def test_is_nilpotent_gap_family_index():
    a = to_object(annihilator_gap(1))
    cert = is_nilpotent(a)
    assert cert.is_nilpotent and cert.index == 3


def test_element_nilpotency_examples():
    m2 = to_object(matrix_algebra(2))
    assert element_nilpotency(m2.basis_element(1)) == 2
    field = AlgebraPresentation("Q", 1, {(0, 0): [1]})
    assert element_nilpotency(field.basis_element(0)) is None
    t3 = to_object(strictly_upper(3))
    assert element_nilpotency(t3.element([1, 0, 1])) == 3


def test_nilpotent_flag_strictly_upper():
    t3 = to_object(strictly_upper(3))
    flag = nilpotent_flag(t3)
    assert [ideal.dim for ideal in flag.ideals] == [1, 2, 3]
    assert flag.ideals[0].subspace == Subspace(3, [unit_vec(3, 1)])  # span{E13}
    assert flag.ideals[1].subspace == Subspace(3, [unit_vec(3, 0), unit_vec(3, 1)])
    assert flag.ann_index == 1


def test_nilpotent_flag_null_ring():
    null2 = to_object(null_ring(2))
    flag = nilpotent_flag(null2)
    assert [i.dim for i in flag.ideals] == [1, 2]
    assert flag.ann_index == 2


def test_nilpotent_flag_gap_family_hits_annihilator():
    a = to_object(annihilator_gap(1))
    flag = nilpotent_flag(a)
    assert flag.ideals[flag.ann_index - 1].subspace == algebra_annihilator(a).subspace
    assert flag.ideals[0].subspace == Subspace(3, [unit_vec(3, 1)])  # span{a}


def test_nilpotent_flag_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        nilpotent_flag(to_object(matrix_algebra(2)))


def test_flag_annihilates_quotients(corpus):
    for alg in corpus:
        cert = is_nilpotent(alg)
        if not cert or alg.dim == 0:
            continue
        flag = nilpotent_flag(alg)
        previous = Subspace.zero(alg.dim)
        for ideal in flag.ideals:
            for i in range(alg.dim):
                e = unit_vec(alg.dim, i)
                for row in ideal.subspace.basis_rows():
                    assert previous.contains(alg.multiply_coords(e, row))
                    assert previous.contains(alg.multiply_coords(row, e))
            previous = ideal.subspace


def _brute_force_largest_nilpotent_ideal(alg):
    """Oracle: scan spans of small coordinate subsets for nilpotent two-sided ideals."""
    n = alg.dim
    pool = [unit_vec(n, i) for i in range(n)]
    pool += [
        tuple(a + b for a, b in zip(pool[i], pool[j]))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    best = Subspace.zero(n)
    for size in range(1, min(n, 3) + 1):
        for combo in itertools.combinations(range(len(pool)), size):
            space = Subspace(n, [pool[i] for i in combo])
            if _is_two_sided(alg, space) and _space_nilpotent(alg, space):
                best = best.add(space)
    assert _is_two_sided(alg, best) and _space_nilpotent(alg, best)
    return best


def _is_two_sided(alg, space):
    for i in range(alg.dim):
        e = unit_vec(alg.dim, i)
        for row in space.basis_rows():
            if not space.contains(alg.multiply_coords(e, row)):
                return False
            if not space.contains(alg.multiply_coords(row, e)):
                return False
    return True


def _space_nilpotent(alg, space):
    current = space
    for _ in range(space.dim + 1):
        if current.is_zero():
            return True
        current = Subspace(
            alg.dim,
            [
                alg.multiply_coords(u, v)
                for u in space.basis_rows()
                for v in current.basis_rows()
            ],
        )
    return current.is_zero()


def test_jacobson_radical_upper_triangular_2(ut2):
    j = jacobson_radical(ut2)
    assert j.subspace == Subspace(3, [unit_vec(3, 1)])  # span{E12}
    assert j.subspace == _brute_force_largest_nilpotent_ideal(ut2)


def test_jacobson_radical_semisimple_trivial():
    assert jacobson_radical(to_object(matrix_algebra(2))).dim == 0


def test_jacobson_radical_nilpotent_everything():
    t3 = to_object(strictly_upper(3))
    assert jacobson_radical(t3).dim == 3


def test_jacobson_radical_contains_flag_nilpotent_ideals(corpus):
    rng = random.Random(3)
    checked = 0
    for alg in corpus:
        if alg.dim == 0 or not is_nilpotent(alg):
            continue
        j = jacobson_radical(alg)
        flag = nilpotent_flag(alg)
        for ideal in flag.ideals:
            assert j.subspace.contains_subspace(ideal.subspace)
            checked += 1
        if checked >= 20:
            break


def test_jacobson_radical_matches_brute_force_on_small(corpus):
    for alg in corpus:
        if alg.dim == 0 or alg.dim > 5:
            continue
        assert jacobson_radical(alg).subspace.contains_subspace(
            _brute_force_largest_nilpotent_ideal(alg)
        )


def test_quotient_by_zero_is_identity():
    m2 = to_object(matrix_algebra(2))
    zero = IdealSpace(m2, Subspace.zero(4), "two-sided")
    q, _ = quotient_algebra(m2, zero)
    assert q.dim == 4
    assert q.sparse_table() == m2.sparse_table()


def test_quotient_upper_triangular_splits(ut2):
    j = jacobson_radical(ut2)
    q, proj = quotient_algebra(ut2, j)
    assert q.dim == 2
    # induced constants are those of a split pair of lines
    assert q.basis_product(0, 0) == (1, 0)
    assert q.basis_product(1, 1) == (0, 1)
    assert is_zero_vec(q.basis_product(0, 1))


def test_quotient_strictly_upper_to_null():
    t3 = to_object(strictly_upper(3))
    ideal = IdealSpace(t3, Subspace(3, [unit_vec(3, 1)]), "two-sided")
    q, _ = quotient_algebra(t3, ideal)
    assert q.dim == 2
    assert not q.sparse_table()  # null ring


def test_quotient_requires_two_sided(ut2):
    one_sided = IdealSpace(ut2, Subspace(3, [unit_vec(3, 1)]), "left")
    with pytest.raises(NotTwoSidedIdeal):
        quotient_algebra(ut2, one_sided)


def test_radical_complement_upper_triangular(ut2):
    s = radical_complement(ut2)
    assert s.subspace == Subspace(3, [unit_vec(3, 0), unit_vec(3, 2)])


def test_radical_complement_nilpotent_trivial():
    assert radical_complement(to_object(strictly_upper(3))).dim == 0


def test_radical_complement_picks_unital_factor():
    doc = direct_sum([matrix_algebra(1), strictly_upper(2)], name="Q+T2")
    alg = to_object(doc)
    s = radical_complement(alg)
    assert s.subspace == Subspace(2, [unit_vec(2, 0)])


def _complement_matches_quotient(alg):
    j = jacobson_radical(alg)
    s = radical_complement(alg)
    assert s.subspace.intersect(j.subspace).dim == 0
    assert s.dim + j.dim == alg.dim
    rows = s.subspace.basis_rows()
    for u in rows:
        for v in rows:
            assert s.subspace.contains(alg.multiply_coords(u, v))
    # structure constants transported through the projection agree
    quotient, proj = quotient_algebra(alg, j)
    images = [proj.project(r) for r in rows]
    assert Subspace(quotient.dim, images).dim == len(rows)
    from ringstruct.linalg import RatMatrix, solve

    if rows:
        mat = RatMatrix.from_rows(
            [[images[k][c] for k in range(len(images))] for c in range(quotient.dim)]
        )
        for a in range(len(rows)):
            for b in range(len(rows)):
                prod_s = alg.multiply_coords(rows[a], rows[b])
                coeffs = solve(mat, proj.project(prod_s))
                assert coeffs is not None
                rebuilt = [F(0)] * alg.dim
                for c, row in zip(coeffs, rows):
                    rebuilt = [x + c * y for x, y in zip(rebuilt, row)]
                assert tuple(rebuilt) == prod_s


def test_radical_complement_structure_match(corpus):
    for alg in corpus:
        if alg.dim == 0:
            continue
        _complement_matches_quotient(alg)


def test_radical_quotient_is_semiprime(corpus):
    for alg in corpus:
        j = jacobson_radical(alg)  # verification on: nilpotent J, semiprime quotient
        assert j.sidedness == "two-sided"


def test_nilpotency_bound_on_elements(corpus):
    from ringstruct.algebra import find_unity

    rng = random.Random(17)
    for alg in corpus:
        if alg.dim == 0:
            continue
        unital = find_unity(alg) is not None
        bound = alg.dim if unital else alg.dim + 1
        probes = [alg.basis_element(i) for i in range(alg.dim)]
        for _ in range(3):
            probes.append(alg.element([rng.randint(-2, 2) for _ in range(alg.dim)]))
        for x in probes:
            k = element_nilpotency(x)
            if k is not None:
                assert k <= bound


# -- radical complements in a random basis ------------------------------------

# Families with both a radical and a semisimple part.  In the standard basis
# the canonical complement is already multiplicative, so only a change of
# basis makes the Wedderburn correction do any work.
MIXED_RADICAL_DOCUMENTS = [
    upper_triangular(2),
    upper_triangular(3),
    upper_triangular(4),
    direct_sum([quaternion(), strictly_upper(3)]),
    direct_sum([upper_triangular(2), null_ring(1)]),
    direct_sum([base_field(), upper_triangular(2), strictly_upper(2)]),
    direct_sum([quaternion(), null_ring(1), relabel(upper_triangular(2), "K2")]),
    direct_sum([relabel(strictly_upper(3), "K0"), upper_triangular(3)]),
]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(MIXED_RADICAL_DOCUMENTS), st.integers(0, 2**32))
def test_radical_complement_in_random_basis(base, seed):
    doc = rebase_document(base, random.Random(seed))
    a = to_object(doc)
    radical = jacobson_radical(a)
    complement = radical_complement(a)
    rows = complement.subspace.basis_rows()
    for u in rows:
        for v in rows:
            assert complement.subspace.contains(a.multiply_coords(u, v))
    assert complement.dim + radical.dim == a.dim
    assert complement.subspace.intersect(radical.subspace).is_zero()
    quotient, projection = quotient_algebra(a, radical)
    images = [projection.project(u) for u in rows]
    assert Subspace(quotient.dim, images).dim == quotient.dim == complement.dim
    for u in rows:
        for v in rows:
            assert projection.project(a.multiply_coords(u, v)) == quotient.multiply_coords(
                projection.project(u), projection.project(v)
            )
    verify_radical_report(a, run_report(doc, "radical"))
    verify_unitize_report(a, run_report(doc, "unitize"))


@settings(max_examples=60, deadline=None)
@given(operator_algebras())
def test_trace_form_radical_matches_unit_vector_reference(alg):
    assert jacobson_radical(alg).subspace == reference_jacobson_space(alg)


# -- the Wedderburn round against the per-coordinate reference -----------------

SUM_PARTS = [
    upper_triangular(2),
    upper_triangular(3),
    strictly_upper(3),
    matrix_algebra(2),
    quaternion(),
    square_cocycle(),
    annihilator_gap(2),
]


@st.composite
def complement_inputs(draw):
    """An operator algebra, a rebased UT_n for n = 2..5, or a rebased sum of
    two parts under two labels."""
    kind = draw(st.sampled_from(("operator", "utd", "sum")))
    if kind == "operator":
        return draw(operator_algebras())
    if kind == "utd":
        doc = upper_triangular(draw(st.integers(2, 5)))
    else:
        first, second = draw(st.sampled_from(SUM_PARTS)), draw(st.sampled_from(SUM_PARTS))
        doc = direct_sum([first, relabel(second, "K2")])
    return to_object(rebase_document(doc, random.Random(draw(st.integers(0, 2**32)))))


@settings(max_examples=25, deadline=None)
@given(complement_inputs())
def test_complement_matches_the_per_coordinate_reference(alg):
    radical = jacobson_radical(alg).subspace
    expected = reference_wedderburn_complement(alg, Subspace.full(alg.dim), radical)
    assert complement_of(alg, radical).subspace == expected


# Rebased UT5 (dim 15): its radical has nilpotency index 5, so the complement
# takes three correction rounds (N = J, J^2, J^4).  Hashes of the JSON reports.
UTD5_REPORT_HASHES = {
    ("utd5:1", "radical"): "da44e27a617ebf9fe2d7fa183c64044bf5b63c3a5ed16bd7612341cda5d34db0",
    ("utd5:1", "classify"): "22f94fffc173782769aab3121e87821e0783c44a92fe3aff8f81dc1e38d2da72",
    ("utd5:2", "radical"): "4b5f91f087a28e7fc76492b2ed9558f5935707a4e388b5d99bd6b51afe5e942d",
    ("utd5:2", "classify"): "215322fe64849749ae8185d7625c24fc07f10bb1d953eec344aabd41f97e1b6d",
}


@functools.lru_cache(maxsize=None)
def _rebased_utd5(seed):
    return rebase_document(upper_triangular(5), random.Random(seed))


@pytest.mark.parametrize("seed, command", sorted(UTD5_REPORT_HASHES))
def test_multi_round_complement_reports_are_pinned(seed, command):
    doc = _rebased_utd5(seed)
    rendered = render(run_report(doc, command), "json")
    assert hashlib.sha256(rendered.encode()).hexdigest() == UTD5_REPORT_HASHES[(seed, command)]


def test_complement_round_rejects_a_subspace_that_is_not_closed():
    m2 = to_object(matrix_algebra(2))  # E11, E12, E21, E22
    V = Subspace(4, [unit_vec(4, 0), unit_vec(4, 1), unit_vec(4, 2)])  # E21 E12 = E22 is outside
    with pytest.raises(InternalInvariantError, match="subalgebra not closed in complement step"):
        _wedderburn_complement(m2, V, Subspace(4, [unit_vec(4, 0)]))


def test_complement_round_rejects_an_unsplit_extension():
    # Q[x]/(x^3) over N = (x^2): the quotient Q[x]/(x^2) is not semisimple,
    # and no section 1 -> 1 + a x^2, x -> x + b x^2 squares x into N^2 = 0
    cubic = AlgebraPresentation(
        "Q[x]/x^3", 3, {(0, 0): [1, 0, 0], (0, 1): [0, 1, 0], (1, 0): [0, 1, 0],
                        (0, 2): [0, 0, 1], (2, 0): [0, 0, 1], (1, 1): [0, 0, 1]},
    )
    with pytest.raises(InternalInvariantError, match="complement correction system is inconsistent"):
        complement_of(cubic, Subspace(3, [unit_vec(3, 2)]))
