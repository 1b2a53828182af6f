from fractions import Fraction as F

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ringstruct import finite
from ringstruct.documents import to_object
from ringstruct.errors import ValidationError
from ringstruct.finite import FiniteRing, finite_product, zmod
from ringstruct.generators import base_field, disconnected_example, finite_plus_field
from ringstruct.mixed import (
    MixedRing,
    finite_connected_split,
    mixed_multiply,
    torsion_ideal,
)

from oracles import reference_cross_violation, relabel_tables


@pytest.fixture(scope="module")
def disconnected():
    return to_object(disconnected_example())


def test_disconnected_product_table(disconnected):
    r = disconnected
    x = r.element(1, [], [F(3, 10)])
    y = r.element(1, [], [F(9, 10)])
    p = mixed_multiply(x, y)
    assert p.finite == 0 and p.torsion == (F(1, 2),)


def test_connected_part_annihilates(disconnected):
    r = disconnected
    probes = [
        r.element(0, [], [F(1, 7)]),
        r.element(0, [], [F(5, 6)]),
    ]
    others = [r.element(1, [], [F(2, 5)]), r.element(0, [], [F(1, 3)])]
    for x in probes:
        for y in others:
            assert mixed_multiply(x, y).is_zero()
            assert mixed_multiply(y, x).is_zero()


def test_trivial_cross_table_reduces_to_algebra():
    ring = to_object(finite_plus_field(3))
    a = ring.element(0, [F(2)], [])
    b = ring.element(0, [F(5)], [])
    assert mixed_multiply(a, b).algebra == (F(10),)


def test_torsion_ideal_disconnected(disconnected):
    members = torsion_ideal(disconnected, 2)
    got = sorted((m.finite, m.torsion) for m in members)
    assert got == [(0, (F(0),)), (0, (F(1, 2),)), (1, (F(0),)), (1, (F(1, 2),))]


def test_torsion_ideal_pure_algebra_trivial():
    ring = to_object(finite_plus_field(3))
    # torsion of the pure connected part: only finite-part torsion shows up
    members = torsion_ideal(ring, 1)
    assert len(members) == 1 and members[0].is_zero()


def test_torsion_ideal_z6_rank1():
    ring = MixedRing("z6t", zmod(6), to_object(base_field()), 1, {})
    members = torsion_ideal(ring, 2)
    got = sorted((m.finite, m.torsion) for m in members)
    assert got == [(0, (F(0),)), (0, (F(1, 2),)), (3, (F(0),)), (3, (F(1, 2),))]


def test_split_unital_case():
    ring = to_object(finite_plus_field(3))
    split = finite_connected_split(ring)
    assert split is not None
    assert split.unity.finite == 1 and split.unity.algebra == (F(1),)
    assert split.finite_ideal.order == 3
    assert split.connected_algebra.dim == 1


def test_split_absent_on_disconnected_example(disconnected):
    assert finite_connected_split(disconnected) is None


def test_split_pure_algebra():
    ring = MixedRing("pure", zmod(1), to_object(base_field()), 0, {})
    split = finite_connected_split(ring)
    assert split is not None and split.finite_ideal.order == 1


def test_split_always_succeeds_on_unital_inputs():
    for n in (2, 4, 5):
        ring = MixedRing(f"z{n}q", zmod(n), to_object(base_field()), 0, {})
        split = finite_connected_split(ring)
        assert split is not None
        # factors multiply componentwise on all pairs
        for f1 in range(n):
            for f2 in range(n):
                prod = mixed_multiply(ring.element(f1, [F(3)]), ring.element(f2, [F(7)]))
                assert prod.finite == (f1 * f2) % n and prod.algebra == (F(21),)


def test_products_land_in_bounded_torsion(disconnected):
    r = disconnected
    n = r.finite_part.order
    torsion_members = {m.as_tuple() for m in torsion_ideal(r, n)}
    for f1 in r.finite_part.elements():
        for f2 in r.finite_part.elements():
            prod = mixed_multiply(r.element(f1), r.element(f2))
            assert prod.as_tuple() in torsion_members


def test_cross_table_must_be_biadditive():
    with pytest.raises(ValidationError):
        MixedRing(
            "bad",
            zmod(3),
            to_object(base_field()),
            1,
            {(1, 1): [F(1, 2)]},  # 3-torsion cannot emit order-2 values additively
        )


def test_mod_one_reduction():
    ring = to_object(disconnected_example())
    x = ring.element(1, [], [F(7, 2)])
    assert x.torsion == (F(1, 2),)


# -- the vectorized cross-table check against the loop reference --------------


@st.composite
def cross_tables(draw):
    """A relabelled Z/a x Z/b with a biadditive, associative cross table
    cross(x, y) = sum_t c_t (x1 y1 / a + x2 y2 / b) mod 1 in its standard
    labels, sometimes with one entry replaced."""
    a, b = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    base = finite_product(zmod(a), zmod(b))
    perm = draw(st.permutations(range(base.order)))
    ring = FiniteRing("F", *relabel_tables(base.add, base.mul, base.zero, perm))
    rank = draw(st.integers(0, 2))
    coeffs = [(draw(st.integers(0, a - 1)), draw(st.integers(0, b - 1))) for _ in range(rank)]
    cross = {}
    for x in range(base.order):
        for y in range(base.order):
            (x1, x2), (y1, y2) = divmod(x, b), divmod(y, b)
            row = [F(c1 * x1 * y1, a) + F(c2 * x2 * y2, b) for c1, c2 in coeffs]
            if any(v % 1 for v in row):
                cross[(perm[x], perm[y])] = row
    if rank and draw(st.booleans()):
        key = (draw(st.integers(0, ring.order - 1)), draw(st.integers(0, ring.order - 1)))
        big = st.fractions(min_value=0, max_value=1, max_denominator=2**80)
        cross[key] = [draw(st.fractions(0, 1, max_denominator=12) | big) for _ in range(rank)]
    return ring, rank, cross


@settings(max_examples=150, deadline=None)
@given(cross_tables(), st.sampled_from([1, 2, 3, None]))
def test_cross_check_matches_loop_reference(case, rows):
    ring, rank, cross = case
    n = ring.order
    expected = reference_cross_violation(ring, cross, rank)
    with mock.patch.object(finite, "SLICE_TRIPLES", (rows or n) * n * n):
        if expected is None:
            MixedRing("m", ring, to_object(base_field()), rank, cross)
        else:
            with pytest.raises(ValidationError) as info:
                MixedRing("m", ring, to_object(base_field()), rank, cross)
            assert str(info.value) == expected


def test_cross_check_with_huge_denominator():
    # D = 2^70 does not fit int64: the check runs on Python integers
    cross = {(1, 1): [F(1, 2**70)]}
    expected = reference_cross_violation(zmod(2), cross, 1)
    assert expected == "cross table is not additive on the left"
    with pytest.raises(ValidationError, match=expected):
        MixedRing("huge", zmod(2), to_object(base_field()), 1, cross)


def test_cross_keys_outside_the_finite_part_are_rejected():
    for key in ((3, 0), (0, 3), (-1, 0), (5, 5)):
        with pytest.raises(ValidationError, match=rf"cross table key \({key[0]},{key[1]}\)"):
            MixedRing("z3t", zmod(3), to_object(base_field()), 1, {key: [F(1, 2)]})
