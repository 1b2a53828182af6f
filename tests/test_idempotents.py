import random

import pytest

from ringstruct.algebra import AlgebraPresentation, IdealSpace
from ringstruct.classify import semisimple_decompose
from ringstruct.documents import to_object
from ringstruct.errors import AnnihilatorNonzero, NotIdempotent, NotMinimal
from ringstruct.generators import (
    direct_sum,
    matrix_algebra,
    quaternion,
    strictly_upper,
    upper_triangular,
)
from ringstruct.idempotents import (
    NullSquare,
    brauer_idempotent,
    find_idempotent,
    lift_idempotent,
    minimal_one_sided_ideal,
    pierce_decomposition,
    principal_ideal,
)
from ringstruct.linalg import Subspace, unit_vec
from ringstruct.radical import is_nilpotent

from oracles import rebase_document


@pytest.fixture(scope="module")
def m2():
    return to_object(matrix_algebra(2))


def test_find_idempotent_upper_triangular():
    ut2 = to_object(upper_triangular(2))
    e = find_idempotent(ut2)
    assert e is not None and (e * e) == e and not e.is_zero()


def test_find_idempotent_nilpotent_none():
    assert find_idempotent(to_object(strictly_upper(3))) is None


def test_find_idempotent_product_ring():
    pair = AlgebraPresentation("QxQ", 2, {(0, 0): [1, 0], (1, 1): [0, 1]})
    e = find_idempotent(pair)
    assert (e * e) == e and not e.is_zero()


def test_find_idempotent_iff_not_nilpotent(corpus):
    for alg in corpus:
        if alg.dim == 0:
            continue
        e = find_idempotent(alg)
        if is_nilpotent(alg):
            assert e is None
        else:
            assert e is not None and (e * e) == e and not e.is_zero()


def test_minimal_left_ideal_m2(m2):
    ideal = minimal_one_sided_ideal(m2, "left")
    assert ideal.dim == 2
    assert ideal.subspace == Subspace(4, [unit_vec(4, 0), unit_vec(4, 2)])  # col span{E11,E21}


def test_minimal_ideal_smallest_factor():
    doc = direct_sum([matrix_algebra(1), matrix_algebra(2)], name="Q+M2")
    alg = to_object(doc)
    ideal = minimal_one_sided_ideal(alg, "left")
    assert ideal.dim == 1


def test_minimal_ideal_division_ring_whole():
    quat = to_object(quaternion())
    for side in ("left", "right"):
        assert minimal_one_sided_ideal(quat, side).dim == 4


def test_minimal_ideal_requires_zero_annihilator():
    t3 = to_object(strictly_upper(3))
    with pytest.raises(AnnihilatorNonzero):
        minimal_one_sided_ideal(t3, "left")


def test_brauer_on_matrix_column(m2):
    ideal = minimal_one_sided_ideal(m2, "left")
    e = brauer_idempotent(m2, ideal)
    assert e.coords == (1, 0, 0, 0)  # E11


def test_brauer_null_square():
    # span{E13} inside T3 is a (minimal) one-sided ideal squaring to zero
    t3 = to_object(strictly_upper(3))
    ideal = IdealSpace(t3, Subspace(3, [unit_vec(3, 1)]), "left")
    assert isinstance(brauer_idempotent(t3, ideal), NullSquare)


def test_brauer_product_component():
    doc = direct_sum([matrix_algebra(1), matrix_algebra(2)], name="Q+M2")
    alg = to_object(doc)
    ideal = minimal_one_sided_ideal(alg, "left")
    e = brauer_idempotent(alg, ideal)
    assert e.coords == (1, 0, 0, 0, 0)


def test_brauer_rejects_non_minimal(m2):
    whole = IdealSpace(m2, Subspace.full(4), "left")
    with pytest.raises(NotMinimal):
        brauer_idempotent(m2, whole)


def _rebased_matrix_algebra(n, seed):
    return to_object(rebase_document(matrix_algebra(n), random.Random(f"1:m{n}:{seed}")))


@pytest.mark.parametrize(
    "n, seed",
    [(2, seed) for seed in range(1, 11)] + [(3, seed) for seed in range(1, 11)] + [(4, 1), (4, 2)],
)
def test_rebased_minimal_ideals_are_simple_modules(n, seed):
    # a descent over probe vectors once returned 6-dim "minimal" left ideals
    # of rebased M3 (seeds 3, 5, 8, 9) and 8- or 12-dim ones of rebased M4
    alg = _rebased_matrix_algebra(n, seed)
    for side in ("left", "right"):
        ideal = minimal_one_sided_ideal(alg, side)
        assert ideal.dim == n
        e = brauer_idempotent(alg, ideal)
        assert principal_ideal(alg, e, side) == ideal.subspace


def test_brauer_rejects_the_ideal_of_two_primitive_idempotents():
    alg = _rebased_matrix_algebra(3, 3)
    _, family = semisimple_decompose(alg)
    p1, p2 = family.members[:2]
    ideal = IdealSpace(alg, principal_ideal(alg, p1 + p2, "left"), "left")
    assert ideal.dim == 6
    with pytest.raises(NotMinimal):
        brauer_idempotent(alg, ideal)


def test_brauer_rejects_an_ideal_with_the_dimension_of_a_simple_module():
    # Q + Q inside Q + Q + M2 has dim 2, as the minimal left ideals of M2 do
    alg = to_object(direct_sum([matrix_algebra(1), matrix_algebra(1), matrix_algebra(2)]))
    ideal = IdealSpace(alg, Subspace(6, [unit_vec(6, 0), unit_vec(6, 1)]), "left")
    with pytest.raises(NotMinimal):
        brauer_idempotent(alg, ideal)


def test_pierce_corners_matrix_units(m2):
    e11 = m2.basis_element(0)
    c11, c10, c01, c00 = pierce_decomposition(m2, e11)
    assert c11 == Subspace(4, [unit_vec(4, 0)])
    assert c10 == Subspace(4, [unit_vec(4, 1)])
    assert c01 == Subspace(4, [unit_vec(4, 2)])
    assert c00 == Subspace(4, [unit_vec(4, 3)])


def test_pierce_unity_collapses(m2):
    unity = m2.element([1, 0, 0, 1])
    c11, c10, c01, c00 = pierce_decomposition(m2, unity)
    assert c11.dim == 4 and c10.dim == c01.dim == c00.dim == 0


def test_pierce_split_idempotent():
    pair = AlgebraPresentation("QxQ", 2, {(0, 0): [1, 0], (1, 1): [0, 1]})
    c11, c10, c01, c00 = pierce_decomposition(pair, pair.basis_element(0))
    assert c11 == Subspace(2, [unit_vec(2, 0)])
    assert c00 == Subspace(2, [unit_vec(2, 1)])
    assert c10.dim == c01.dim == 0


def test_pierce_rejects_non_idempotent(m2):
    with pytest.raises(NotIdempotent):
        pierce_decomposition(m2, m2.basis_element(1))


def test_pierce_corners_sum_and_corner_unity(corpus):
    for alg in corpus:
        if alg.dim == 0:
            continue
        e = find_idempotent(alg)
        if e is None:
            continue
        corners = pierce_decomposition(alg, e)
        total = 0
        for a in range(4):
            total += corners[a].dim
            for b in range(a + 1, 4):
                assert corners[a].intersect(corners[b]).dim == 0
        assert total == alg.dim
        # the (e, e) corner is closed with unity e
        c11 = corners[0]
        for u in c11.basis_rows():
            for v in c11.basis_rows():
                assert c11.contains(alg.multiply_coords(u, v))
            assert alg.multiply_coords(e.coords, u) == tuple(u)
            assert alg.multiply_coords(u, e.coords) == tuple(u)


def test_lift_idempotent_through_nilpotent():
    ut2 = to_object(upper_triangular(2))
    # E11 + E12 is idempotent already; perturbations along the radical lift back
    x = ut2.element([1, 3, 0])
    e = lift_idempotent(x)
    assert (e * e) == e


def test_principal_ideal_shapes(m2):
    right = principal_ideal(m2, m2.basis_element(0), "right")  # E11*A = row
    assert right == Subspace(4, [unit_vec(4, 0), unit_vec(4, 1)])


def _unipotent_line_algebra():
    """Span of 1, E12, E13, E23 inside upper triangular 3x3: unital, with a
    3-dim radical, and its minimal right ideals are lines in the radical
    that square to zero."""
    c = {(0, 0): [1, 0, 0, 0], (1, 3): [0, 0, 1, 0]}
    for i in (1, 2, 3):
        v = [0, 0, 0, 0]
        v[i] = 1
        c[(0, i)] = list(v)
        c[(i, 0)] = list(v)
    return AlgebraPresentation("unipotent3", 4, c)


def test_find_idempotent_through_nilpotent_annihilator_branch():
    alg = _unipotent_line_algebra()
    ideal = minimal_one_sided_ideal(alg, "right")
    assert ideal.dim == 1
    assert isinstance(brauer_idempotent(alg, ideal), NullSquare)
    e = find_idempotent(alg)
    assert e is not None and (e * e) == e and not e.is_zero()
