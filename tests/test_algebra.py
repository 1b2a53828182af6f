import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ringstruct.algebra import (
    AlgebraPresentation,
    ElementClassification,
    annihilators,
    algebra_annihilator,
    center,
    centralizer,
    classify_element,
    find_unity,
    generated_subring,
    power_span,
)
from ringstruct.documents import to_object
from ringstruct.errors import AssociativityError, MismatchedAlgebras, ValidationError
from ringstruct.generators import (
    annihilator_gap,
    direct_sum,
    matrix_algebra,
    null_ring,
    quaternion,
    strictly_upper,
)
from ringstruct.linalg import RatMatrix, Subspace, solve, unit_vec

from oracles import (
    algebra_from_matrices,
    full_matrices,
    mat_mul,
    quaternion_matrices,
    reference_associativity_violation,
    reference_multiply,
    shared_socle_matrices,
    strictly_upper_matrices,
    upper_triangular_matrices,
)


@pytest.fixture(scope="module")
def m2():
    return to_object(matrix_algebra(2))


@pytest.fixture(scope="module")
def t3():
    return to_object(strictly_upper(3))


@pytest.fixture(scope="module")
def quat():
    return to_object(quaternion())


def test_generators_match_matrix_models():
    # the generated tables must agree with literal matrix multiplication
    cases = [
        (matrix_algebra(2), full_matrices(2)),
        (matrix_algebra(3), full_matrices(3)),
        (strictly_upper(3), strictly_upper_matrices(3)),
        (strictly_upper(4), strictly_upper_matrices(4)),
        (annihilator_gap(2), shared_socle_matrices(2)),
    ]
    from ringstruct.generators import upper_triangular

    cases.append((upper_triangular(3), upper_triangular_matrices(3)))
    for doc, mats in cases:
        engine = to_object(doc)
        model = algebra_from_matrices(doc.name, mats)
        assert engine.sparse_table() == model.sparse_table(), doc.name


def test_quaternion_table_matches_regular_representation():
    engine = to_object(quaternion())
    model = algebra_from_matrices("H", quaternion_matrices())
    assert engine.sparse_table() == model.sparse_table()


def test_multiply_matrix_units(m2):
    e12, e21, e11 = m2.basis_element(1), m2.basis_element(2), m2.basis_element(0)
    assert e12 * e21 == e11


def test_multiply_strictly_upper(t3):
    # E12 * E23 = E13, derived from the 3x3 matrix product
    mats = strictly_upper_matrices(3)
    prod = mat_mul(mats[0], mats[2])
    assert prod == mats[1]
    assert t3.basis_element(0) * t3.basis_element(2) == t3.basis_element(1)


def test_multiply_null_ring():
    null = to_object(null_ring(3))
    x = null.element([1, 2, 3])
    y = null.element([-1, 5, F(1, 2)])
    assert (x * y).is_zero()


def test_multiply_rejects_mismatched_algebras(m2, t3):
    with pytest.raises(MismatchedAlgebras):
        m2.basis_element(0) * t3.basis_element(0)


def test_annihilators_unital_trivial(m2):
    left, right, both = annihilators(m2.basis_elements())
    assert left.dim == right.dim == both.dim == 0
    assert both.sidedness == "two-sided"


def test_annihilators_null_ring_everything():
    null = to_object(null_ring(2))
    left, right, both = annihilators(null.basis_elements())
    assert left.dim == right.dim == both.dim == 2


def test_annihilator_gap_dimension_formula():
    # gap family, n = 1: Ann = span{a}, largest null ideal has dimension 2
    a = to_object(annihilator_gap(1))
    ann = algebra_annihilator(a)
    assert ann.subspace == Subspace(3, [unit_vec(3, 1)])
    null_ideal = Subspace(3, [unit_vec(3, 1), unit_vec(3, 2)])
    assert null_ideal.dim - ann.dim == 1


def test_annihilator_sidedness_random(corpus):
    rng = random.Random(7)
    for alg in corpus[:12]:
        if alg.dim == 0:
            continue
        picks = [
            alg.element([rng.randint(-3, 3) for _ in range(alg.dim)]) for _ in range(2)
        ]
        picks = [p for p in picks if not p.is_zero()] or [alg.basis_element(0)]
        left, right, _ = annihilators(picks)
        assert left.sidedness == "left"
        assert right.sidedness == "right"


def test_center_of_matrix_algebra_is_scalars(m2):
    z = center(m2)
    assert z.dim == 1
    assert z.subspace == Subspace(4, [[1, 0, 0, 1]])


def test_center_of_commutative_is_everything():
    null = to_object(null_ring(3))
    assert center(null).dim == 3


def test_centralizer_of_quaternion_i(quat):
    c = centralizer(quat.basis_element(1))
    assert c.dim == 2
    assert c.subspace == Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0]])


def test_generated_subring_nilpotent_unit(m2):
    g = generated_subring([m2.basis_element(1)])
    assert g.dim == 1  # E12 squares to zero


def test_generated_subring_of_unity():
    m2 = to_object(matrix_algebra(2))
    unity = find_unity(m2)
    assert generated_subring([unity]).dim == 1


def test_generated_subring_quaternion_i(quat):
    g = generated_subring([quat.basis_element(1)])
    assert g.dim == 2
    assert g.subspace.contains(unit_vec(4, 0))


def test_generated_subring_is_minimal_closed(corpus):
    rng = random.Random(11)
    for alg in corpus[:8]:
        if alg.dim == 0:
            continue
        x = alg.element([rng.randint(-2, 2) for _ in range(alg.dim)])
        if x.is_zero():
            x = alg.basis_element(0)
        g = generated_subring([x])
        rows = g.subspace.basis_rows()
        for u in rows:
            for v in rows:
                assert g.subspace.contains(alg.multiply_coords(u, v))
        # randomly grown closed subspaces containing x must contain it
        for _ in range(13):
            seed = [x.coords] + [
                tuple(rng.randint(-2, 2) for _ in range(alg.dim)) for _ in range(2)
            ]
            comps = []
            for s in seed:
                comps.extend(alg.label_components(s))
            closed = Subspace(alg.dim, comps)
            while True:
                prods = [
                    alg.multiply_coords(u, v)
                    for u in closed.basis_rows()
                    for v in closed.basis_rows()
                ]
                grown = closed.add(Subspace(alg.dim, prods))
                if grown == closed:
                    break
                closed = grown
            assert closed.contains_subspace(g.subspace)


def test_power_span_strictly_upper(t3):
    assert power_span(t3, 2) == Subspace(3, [unit_vec(3, 1)])
    assert power_span(t3, 3).dim == 0


def test_power_span_unital_stable(m2):
    for k in (1, 2, 5):
        assert power_span(m2, k).dim == 4


def test_power_span_null():
    null = to_object(null_ring(2))
    assert power_span(null, 2).dim == 0


def test_power_span_decreasing(corpus):
    for alg in corpus:
        previous = None
        for k in range(1, alg.dim + 2):
            current = power_span(alg, k)
            if previous is not None:
                assert previous.contains_subspace(current)
            previous = current


def test_find_unity_examples(m2, t3):
    assert find_unity(m2).coords == (1, 0, 0, 1)
    assert find_unity(t3) is None
    qq = to_object(direct_sum([null_ring(1), null_ring(1)], name="n2"))
    assert find_unity(qq) is None
    pair = AlgebraPresentation("QxQ", 2, {(0, 0): [1, 0], (1, 1): [0, 1]})
    assert find_unity(pair).coords == (1, 1)


def test_classify_element_unit_in_product():
    pair = AlgebraPresentation("QxQ", 2, {(0, 0): [1, 0], (1, 1): [0, 1]})
    cls = classify_element(pair.element([2, 3]))
    assert cls.kind == ElementClassification.UNIT
    assert cls.inverse.coords == (F(1, 2), F(1, 3))


def test_classify_element_zero_divisor_in_product():
    pair = AlgebraPresentation("QxQ", 2, {(0, 0): [1, 0], (1, 1): [0, 1]})
    cls = classify_element(pair.element([1, 0]))
    assert cls.kind == ElementClassification.ZERO_DIVISOR
    w = cls.witness
    assert not w.is_zero()
    assert (pair.element([1, 0]) * w).is_zero() or (w * pair.element([1, 0])).is_zero()


def test_classify_element_matrix_unit(m2):
    e12 = m2.basis_element(1)
    cls = classify_element(e12)
    assert cls.kind == ElementClassification.ZERO_DIVISOR
    assert (e12 * cls.witness).is_zero() or (cls.witness * e12).is_zero()


def test_trichotomy_on_corpus(corpus):
    rng = random.Random(5)
    for alg in corpus:
        if alg.dim == 0:
            continue
        probes = [alg.basis_element(i) for i in range(alg.dim)]
        for _ in range(3):
            probes.append(alg.element([rng.randint(-3, 3) for _ in range(alg.dim)]))
        for x in probes:
            cls = classify_element(x)
            if x.is_zero():
                assert cls.kind == ElementClassification.ZERO
            else:
                assert cls.kind in (
                    ElementClassification.UNIT,
                    ElementClassification.ZERO_DIVISOR,
                )
                if cls.kind == ElementClassification.UNIT:
                    unity = find_unity(alg)
                    assert (x * cls.inverse) == unity and (cls.inverse * x) == unity
                else:
                    w = cls.witness
                    assert not w.is_zero()
                    assert (x * w).is_zero() or (w * x).is_zero()


def test_scalar_compatibility_within_label_block(corpus):
    rng = random.Random(13)
    for alg in corpus[:10]:
        if alg.dim == 0:
            continue
        label, block = alg.label_blocks()[0]
        idx = list(block)
        for _ in range(5):
            u = [F(0)] * alg.dim
            v = [F(0)] * alg.dim
            for i in idx:
                u[i] = F(rng.randint(-3, 3))
                v[i] = F(rng.randint(-3, 3))
            r, s = F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(-3, 3), rng.randint(1, 3))
            ru = alg.element([r * x for x in u])
            sv = alg.element([s * x for x in v])
            uv = alg.element(alg.multiply_coords(u, v))
            assert (ru * sv) == uv.scale(r * s)


def test_associativity_validation_rejects_bad_table():
    with pytest.raises(ValidationError):
        AlgebraPresentation("bad", 2, {(0, 0): [0, 1], (1, 0): [1, 0]})


def test_cross_label_products_must_vanish():
    with pytest.raises(ValidationError):
        AlgebraPresentation(
            "bad-labels", 2, {(0, 1): [1, 0]}, field_labels=["K1", "K2"]
        )


def test_labels_must_be_contiguous():
    with pytest.raises(ValidationError):
        AlgebraPresentation("split", 3, {}, field_labels=["K1", "K2", "K1"])


# -- integer structure-constant kernel against the Fraction reference ------

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)


def _rebase(table, n, basis):
    """Constants of the same algebra in the basis ``f_a = sum_i basis[a][i] e_i``."""
    change = RatMatrix.from_rows([[basis[a][i] for a in range(n)] for i in range(n)])
    constants = {}
    for a in range(n):
        for b in range(n):
            prod = reference_multiply(table, n, basis[a], basis[b])
            coords = solve(change, prod)
            assert coords is not None
            constants[(a, b)] = coords
    return constants


@st.composite
def rational_tables(draw):
    """Random rational tables: associative ones in a random rational basis,
    the same with one constant perturbed, and arbitrary sparse tables."""
    style = draw(st.sampled_from(["rebased", "perturbed", "random"]))
    if style == "random":
        n = draw(st.integers(1, 3))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        chosen = draw(st.lists(pairs, max_size=n * n, unique=True))
        return n, {p: draw(st.lists(rationals, min_size=n, max_size=n)) for p in chosen}
    doc = draw(st.sampled_from(
        [matrix_algebra(2), quaternion(), strictly_upper(3), annihilator_gap(1)]
    ))
    base = to_object(doc)
    n = base.dim
    # unit lower triangular times an upper triangular with nonzero diagonal
    lower = [[F(1) if i == j else (draw(rationals) if i > j else F(0)) for j in range(n)]
             for i in range(n)]
    diag = st.fractions(min_value=1, max_value=5, max_denominator=6)
    upper = [[draw(diag) if i == j else (draw(rationals) if i < j else F(0)) for j in range(n)]
             for i in range(n)]
    basis = mat_mul(lower, upper)
    constants = _rebase(base.sparse_table(), n, basis)
    if style == "perturbed":
        pair = (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        k = draw(st.integers(0, n - 1))
        coords = list(constants[pair])
        coords[k] += draw(rationals.filter(lambda q: q != 0))
        constants[pair] = tuple(coords)
    return n, constants


def _assert_same_verdict(n, constants):
    raw = AlgebraPresentation("raw", n, constants, _validate=False)
    expected = reference_associativity_violation(raw.sparse_table(), n)
    try:
        AlgebraPresentation("checked", n, constants)
    except AssociativityError as exc:
        assert exc.triple == expected
    else:
        assert expected is None


@settings(max_examples=150, deadline=None)
@given(rational_tables())
def test_associativity_check_matches_fraction_reference(case):
    _assert_same_verdict(*case)


@settings(max_examples=150, deadline=None)
@given(rational_tables(), st.data())
def test_multiply_coords_matches_fraction_reference(case, data):
    n, constants = case
    alg = AlgebraPresentation("raw", n, constants, _validate=False)
    vectors = st.lists(rationals | st.just(F(0)), min_size=n, max_size=n)
    x, y = data.draw(vectors), data.draw(vectors)
    product = alg.multiply_coords(x, y)
    assert product == reference_multiply(alg.sparse_table(), n, x, y)
    assert all(type(c) is F for c in product)


def test_integer_kernel_on_dense_rebased_table():
    # M3 in a unimodular basis L*U with entries in {-1, 0, 1}, as in the
    # benchmark's rebased workload: every constant dense and integral.
    base = to_object(matrix_algebra(3))
    n = base.dim
    rng = random.Random(5)
    lower = [[F(1) if i == j else (F(rng.choice((-1, 0, 1))) if i > j else F(0))
              for j in range(n)] for i in range(n)]
    upper = [[F(1) if i == j else (F(rng.choice((-1, 0, 1))) if i < j else F(0))
              for j in range(n)] for i in range(n)]
    constants = _rebase(base.sparse_table(), n, mat_mul(lower, upper))
    dense = AlgebraPresentation("M3-rebased", n, constants)
    table = dense.sparse_table()
    assert sum(len(v) for v in table.values()) > n ** 3 // 2
    assert all(c.denominator == 1 for v in table.values() for _, c in v)
    for _ in range(20):
        x = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        y = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        assert dense.multiply_coords(x, y) == reference_multiply(table, n, x, y)
    broken = dict(constants)
    broken[(4, 4)] = tuple(c + (1 if k == 0 else 0) for k, c in enumerate(constants[(4, 4)]))
    _assert_same_verdict(n, broken)
    with pytest.raises(AssociativityError):
        AlgebraPresentation("M3-broken", n, broken)
