import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ringstruct import finite
from ringstruct.errors import InvalidParams, ValidationError
from ringstruct.finite import (
    FiniteRing,
    all_ideals,
    finite_product,
    finite_structure,
    jacobson_definitional,
    largest_nilpotent_ideal,
    matrix_ring_zp,
    ring_nilpotency_index,
    strictly_upper_zp,
    zmod,
)

from oracles import (
    reference_nilpotency_index,
    reference_structure,
    reference_table_violation,
    relabel_tables,
)


def test_jacobson_z4():
    assert sorted(jacobson_definitional(zmod(4))) == [0, 2]


def test_jacobson_z6():
    assert sorted(jacobson_definitional(zmod(6))) == [0]


def test_jacobson_primes():
    for p in (2, 3, 5, 7, 11):
        assert jacobson_definitional(zmod(p)) == frozenset({0})


def test_structure_z4():
    st = finite_structure(zmod(4))
    assert not st.nilpotent
    assert st.idempotents == [0, 1]
    assert st.units == [1, 3]
    assert sorted(st.jacobson) == [0, 2]


def test_structure_z2_squared_reduced():
    st = finite_structure(finite_product(zmod(2), zmod(2)))
    assert st.is_reduced
    assert len(st.idempotents) == 4


def test_structure_null_order_two():
    st = finite_structure(strictly_upper_zp(2, 2))
    assert st.nilpotent and st.nil
    assert st.nilpotency_index == 2


def test_oracle_agreement_small_rings():
    rings = [
        zmod(4),
        zmod(6),
        zmod(8),
        zmod(9),
        zmod(12),
        finite_product(zmod(2), zmod(4)),
        matrix_ring_zp(2, 2),
        strictly_upper_zp(2, 2),
        strictly_upper_zp(3, 2),
        strictly_upper_zp(2, 3),
        strictly_upper_zp(3, 3),
    ]
    for ring in rings:
        j = jacobson_definitional(ring)
        assert j == largest_nilpotent_ideal(ring), ring.name
        # quotient check at finite scale: no nilpotent ideal survives modulo J
        for ideal in all_ideals(ring):
            if ideal <= j:
                continue


def test_finite_trichotomy(corpus_rings):
    for ring in corpus_rings:
        st = finite_structure(ring)
        unity = st.unity
        for x in ring.elements():
            if x == ring.zero:
                continue
            is_unit = x in st.units
            is_zd = x in st.zero_divisors
            assert is_unit != is_zd, (ring.name, x)


def test_nilpotency_equivalences_finite(corpus_rings):
    for ring in corpus_rings:
        st = finite_structure(ring)
        only_zero_idempotent = st.idempotents == [ring.zero]
        j_is_everything = len(st.jacobson) == ring.order
        assert st.nilpotent == st.nil == only_zero_idempotent == j_is_everything
        if st.nilpotent:
            assert st.nilpotency_index <= ring.order + 1


@pytest.fixture(scope="module")
def corpus_rings():
    return [
        zmod(2),
        zmod(4),
        zmod(6),
        zmod(9),
        zmod(12),
        finite_product(zmod(2), zmod(2)),
        finite_product(zmod(3), zmod(4)),
        matrix_ring_zp(2, 2),
        strictly_upper_zp(2, 2),
        strictly_upper_zp(3, 2),
        strictly_upper_zp(2, 3),
        strictly_upper_zp(3, 3),
    ]


def test_validation_rejects_broken_addition():
    with pytest.raises(ValidationError):
        FiniteRing("bad", [[0, 1], [1, 1]], [[0, 0], [0, 0]])


def test_validation_rejects_broken_distributivity():
    # addition mod 2 but multiplication that ignores addition structure
    with pytest.raises(ValidationError):
        FiniteRing("bad", [[0, 1], [1, 0]], [[0, 1], [0, 0]])


def test_order_cap():
    with pytest.raises(InvalidParams):
        matrix_ring_zp(2, 5)  # 5^4 = 625 > 256


def test_unity_detection():
    assert zmod(6).unity() == 1
    assert strictly_upper_zp(2, 2).unity() is None


# -- the vectorized layer against the loop references -------------------------


@st.composite
def relabelled_rings(draw):
    """Tables of a constructor ring with its elements renamed by a random
    permutation, so that zero is rarely 0."""
    kind = draw(st.sampled_from(["zmod", "matrix", "upper", "product"]))
    if kind == "zmod":
        ring = zmod(draw(st.integers(1, 40)))
    elif kind == "matrix":
        ring = matrix_ring_zp(2, 2)
    elif kind == "upper":
        ring = strictly_upper_zp(3, draw(st.sampled_from([2, 3])))
    else:
        parts = [zmod(1), zmod(2), zmod(3), zmod(4), zmod(6), strictly_upper_zp(2, 2)]
        ring = finite_product(draw(st.sampled_from(parts)), draw(st.sampled_from(parts)))
    perm = draw(st.permutations(range(ring.order)))
    return relabel_tables(ring.add, ring.mul, ring.zero, perm)


def _slice_rows(data, n):
    """A patch of the slice size to a few rows of (j, k) pairs per slice."""
    rows = data.draw(st.sampled_from([1, 2, 3, n]))
    return mock.patch.object(finite, "SLICE_TRIPLES", rows * n * n)


@settings(max_examples=60, deadline=None)
@given(relabelled_rings(), st.data())
def test_structure_matches_loop_reference(tables, data):
    add, mul, zero = tables
    assert reference_table_violation(add, mul, zero) is None
    with _slice_rows(data, len(add)):
        ring = FiniteRing("relabelled", add, mul, zero=zero)
    expected = reference_structure(ring)
    structure = finite_structure(ring)
    for field, value in expected.items():
        assert getattr(structure, field) == value, field
    assert ring.unity() == expected["unity"]
    assert ring_nilpotency_index(ring) == reference_nilpotency_index(ring)


@settings(max_examples=150, deadline=None)
@given(relabelled_rings(), st.data())
def test_corrupted_table_gets_the_reference_message(tables, data):
    add, mul, zero = tables[0].copy(), tables[1].copy(), tables[2]
    n = len(add)
    assume(n > 1)
    table = data.draw(st.sampled_from([add, mul]))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    table[i, j] = data.draw(st.integers(0, n - 1).filter(lambda v: v != table[i, j]))
    expected = reference_table_violation(add, mul, zero)
    with _slice_rows(data, n):
        if expected is None:
            FiniteRing("corrupted", add, mul, zero=zero)
        else:
            with pytest.raises(ValidationError) as info:
                FiniteRing("corrupted", add, mul, zero=zero)
            assert str(info.value) == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.sampled_from(["left", "right"]), st.data())
def test_projection_product_fails_one_distributive_law(n, side, data):
    # x * y = x is associative and right distributive but not left
    # distributive; x * y = y the other way round
    idx = np.arange(n)
    mul = np.broadcast_to(idx[:, None] if side == "left" else idx, (n, n))
    perm = data.draw(st.permutations(range(n)))
    add, mul, zero = relabel_tables(zmod(n).add, mul, 0, perm)
    expected = reference_table_violation(add, mul, zero)
    assert expected == f"{side} distributivity fails"
    with _slice_rows(data, n), pytest.raises(ValidationError) as info:
        FiniteRing("projection", add, mul, zero=zero)
    assert str(info.value) == expected


def test_nilpotency_index_stops_at_fixpoint():
    # a unital ring is its own product set from the first step on
    assert ring_nilpotency_index(zmod(256)) is None
    assert ring_nilpotency_index(finite_product(zmod(2), strictly_upper_zp(2, 2))) is None
    assert ring_nilpotency_index(strictly_upper_zp(3, 3)) == 3
    assert ring_nilpotency_index(zmod(1)) == 1


def test_validation_memory_is_quadratic_in_the_order():
    tracemalloc.start()
    try:
        zmod(256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
